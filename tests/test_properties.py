"""The model's exact symmetries, checked on drawn models, modes and batches.

The model has no positional encoding, its encoders are permutation
equivariant, its heads max-pool over a sequence's rows and every other
reduction over a sequence is a sum or a mean. So at any shape:

(a) reordering an utterance's tokens, and separately its frames, leaves the
    logits, the five loss terms and every parameter gradient unchanged;
(b) each utterance's logits and loss terms in a batch, in any order, are
    those of its batch of one;
(c) a prediction (`predict_logits`, `unimodal_logits`), the pass run on
    arrays, gives the logits of the graph pass on its batch of one, bit for
    bit;
(d) a batch of an utterance twice gives that utterance's loss terms twice
    and twice its gradient for every parameter.

All but (c) hold up to rounding, so values are compared within 1e-12 of
the larger of 1 and the largest value compared. A batch whose speech reaches
`diffcore.LONG_ROWS` frames runs self-attention one utterance at a time and
pads every other op, so such batches are drawn as well as short ones.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from labelfuse.corpus import Utterance
from labelfuse.diffcore import LONG_ROWS, backward
from labelfuse.fusion import (
    TOWERS, FusionMode, _shapes, forward, model_from_arrays, predict_logits, unimodal_forward,
    unimodal_logits,
)

TOLERANCE = 1e-12
MODES = [mode.value for mode in FusionMode] + list(TOWERS)
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def cases(draw):
    """(model, batch, mode, normalize_label_attention, rng) of a small drawn model."""
    classes = draw(st.integers(2, 4))
    dims = {
        "vocab_text": draw(st.integers(classes, 12)),
        "vocab_speech": draw(st.integers(classes, 12)),
        "text_dim": draw(st.integers(2, 6)),
        "speech_dim": draw(st.integers(2, 6)),
        "classes": classes,
    }
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = model_from_arrays(
        {name: rng.normal(0.0, 0.5, size=shape) for name, shape in _shapes(dims).items()},
        labels_trainable=True,
    )
    text_lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    speech_lengths = draw(st.lists(st.integers(1, 8) | st.integers(LONG_ROWS, LONG_ROWS + 4),
                                   min_size=len(text_lengths), max_size=len(text_lengths)))
    batch = [
        Utterance(
            tuple(int(t) for t in rng.integers(0, dims["vocab_text"], size=n_text)),
            tuple(int(c) for c in rng.integers(0, dims["vocab_speech"], size=n_speech)),
            int(rng.integers(0, classes)),
        )
        for n_text, n_speech in zip(text_lengths, speech_lengths)
    ]
    return model, batch, draw(st.sampled_from(MODES)), draw(st.booleans()), rng


def run(model, batch, mode, normalize):
    """Logits, loss terms and each parameter's gradient of one training pass over `batch`."""
    for node in model.values():
        node.zero_grad()
    if mode in TOWERS:
        result = unimodal_forward(batch, mode, model)
    else:
        result = forward(batch, model, FusionMode(mode), normalize_label_attention=normalize)
    backward(result.loss)
    grads = {name: node.grad for name, node in model.items() if node.grad is not None}
    return result.logits.value, result.terms, grads


def assert_close(got, want, what):
    scale = max(1.0, float(np.abs(want).max()))
    error = float(np.abs(got - want).max())
    assert error <= TOLERANCE * scale, f"{what}: off by {error:.3e} at scale {scale:.3e}"


def permuted(batch, rng, which):
    """`batch` with each utterance's tokens (which=0) or frames (which=1) reordered."""
    out = []
    for utt in batch:
        parts = [utt.text_tokens, utt.frame_codes]
        parts[which] = tuple(parts[which][i] for i in rng.permutation(len(parts[which])))
        out.append(Utterance(*parts, utt.label))
    return out


class TestSymmetries:
    @PROPERTY_SETTINGS
    @given(case=cases())
    def test_reordering_tokens_or_frames_changes_nothing(self, case):
        model, batch, mode, normalize, rng = case
        logits, terms, grads = run(model, batch, mode, normalize)
        for which, name in ((0, "tokens"), (1, "frames")):
            got_logits, got_terms, got_grads = run(model, permuted(batch, rng, which), mode,
                                                   normalize)
            assert_close(got_logits, logits, f"logits, {name} reordered")
            assert_close(got_terms, terms, f"loss terms, {name} reordered")
            assert got_grads.keys() == grads.keys()
            for param, grad in grads.items():
                assert_close(got_grads[param], grad, f"gradient of {param}, {name} reordered")

    @PROPERTY_SETTINGS
    @given(case=cases())
    def test_each_utterance_in_a_shuffled_batch_is_its_batch_of_one(self, case):
        model, batch, mode, normalize, rng = case
        shuffled = [batch[i] for i in rng.permutation(len(batch))]
        logits, terms, _ = run(model, shuffled, mode, normalize)
        for row, utt in enumerate(shuffled):
            alone_logits, alone_terms, _ = run(model, [utt], mode, normalize)
            assert_close(logits[row : row + 1], alone_logits, f"logits of utterance {row}")
            assert_close(terms[row : row + 1], alone_terms, f"loss terms of utterance {row}")

    @PROPERTY_SETTINGS
    @given(case=cases())
    def test_a_prediction_is_the_graph_pass_of_its_batch_of_one(self, case):
        model, batch, mode, normalize, _ = case
        for row, utt in enumerate(batch):
            if mode in TOWERS:
                predicted = unimodal_logits(utt, mode, model)
            else:
                predicted = predict_logits(utt, model, FusionMode(mode), normalize)
            logits, _, _ = run(model, [utt], mode, normalize)
            assert np.array_equal(predicted, logits), f"logits of utterance {row}"

    @PROPERTY_SETTINGS
    @given(case=cases())
    def test_an_utterance_twice_counts_twice(self, case):
        model, batch, mode, normalize, _ = case
        _, terms, grads = run(model, batch[:1], mode, normalize)
        _, twice_terms, twice_grads = run(model, batch[:1] * 2, mode, normalize)
        assert_close(twice_terms, np.vstack([terms, terms]), "loss terms")
        assert twice_grads.keys() == grads.keys()
        for param, grad in grads.items():
            assert_close(twice_grads[param], 2 * grad, f"gradient of {param}")
