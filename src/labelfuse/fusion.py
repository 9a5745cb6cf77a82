"""Label-guided attentive fusion head and its composite training objective.

The pieces, per utterance:

* label-token / label-frame attention: cosine similarity between every
  sequence row and every label-embedding row, giving per-position class
  profiles for each modality;
* guidance losses: cross entropy on the sequence-mean of a class profile,
  rewarding positions that agree with the true class;
* vanilla cross attention: softmax-normalised token-to-frame alignment
  from a trainable bilinear map;
* label-guided attention: token-to-frame alignment from the agreement of
  the two class profiles;
* an alignment-constraint penalty (mean squared error) pulling the vanilla
  alignment toward the label-guided one;
* a fused classifier over the concatenation of the text rows with the
  aligned speech rows, max-pooled into a fixed-length vector.

The total objective is the weighted sum of the fused classification loss,
the constraint penalty, and the two guidance losses.

Every matrix of the model is named once, in `PARAMETERS`, with its shape
and init rule. A model is a plain dict from those names to nodes, in table
order: `model_from_arrays` builds one from named matrices and holds the
freeze rule, and `init_model` is the only place a model is drawn: the
embedding table and the codebook come from `default_rng([seed, 3])`, every
weight from `default_rng([seed, 2])`, in table order; biases are zero and
the label rows come from the caller, built on the two drawn tables.
Checkpoints, the optimizer and the grad check loop over the dict.

There is one wiring of the model, and it takes a mini-batch and its ops.
Run on `diffcore`'s graph ops, `forward` (multimodal) and
`unimodal_forward` (one tower) build one graph for the whole batch and
return a `ForwardResult`: batch x classes logits, the loss root (the sum of
the utterances' weighted totals of the terms the pass computes) and each
utterance's loss terms, with 0.0 for a term it lacks.
`attention_maps` gives each utterance's four maps without a label or a
loss, as read-only views of the pass's node values. Run on
`diffcore.on_arrays`, the same pass gives `predict_logits` and
`unimodal_logits` the logits of a batch of one, bit for bit, as a read-only
1 x classes array, with no graph but every check a model matrix can fail, so
a prediction raises what the graph would; it builds only the maps the mode's
alignment uses.

The pass is built from `diffcore`'s fused ops where a step is one, on the
batch's stacked rows and their `diffcore.Segments` (a batch of one
utterance of n tokens is `Segments((n,))`): label attention is
`cosine_scores` (row-wise), the label-guided alignment `paired_scores`, the
aligned speech `paired_mix`, the classifier and tower heads `affine`, and the
loss total `weighted_sum`. The vanilla alignment is built from primitives
around `paired_scores`, as
`row_softmax(paired_scores(h_text, matmul(h_speech, fusion.cross_map)))`.
A `constraint` training graph is 23 nodes for any batch size; a prediction
builds none. Each per-sequence op pads the batch inside the op (see
`diffcore`), except that self-attention runs a modality whose longest
sequence reaches `diffcore.LONG_ROWS` rows one sequence at a time. At the
reference shape (10-30 tokens, 40-120 frames) that runs the speech
encoder's self-attention per utterance and pads everything else.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import Utterance
from . import diffcore
from .diffcore import (
    Node,
    Segments,
    _alone,
    backward,
    constant,
    cosine_scores,
    cross_entropy,
    grad_check,
    mse,
    on_arrays,
    parameter,
    pool,
    weighted_sum,
)
from .encoders import speech_encode, text_encode
from .errors import DimensionError, NonFiniteError

DEFAULT_LOSS_WEIGHTS = (1.0, 0.5, 0.2, 0.2)
EMBED_INIT_STD = 0.02
TOWERS = ("text", "speech")  # the modalities of a single tower (`unimodal_forward`)


class FusionMode(Enum):
    """How the token-to-frame alignment weights are chosen."""

    CONSTRAINT = "constraint"  # vanilla weights, penalised toward label-guided
    SUM = "sum"  # vanilla + label-guided, no penalty
    ONLY_LABEL = "only-label"  # label-guided weights alone
    ONLY_VANILLA = "only-vanilla"  # vanilla weights alone


@dataclass(frozen=True)
class AttentionBundle:
    """The four attention maps of one utterance (`attention_maps`), as read-only arrays."""

    label_token: np.ndarray  # seq_len_text x classes, cosine profile
    label_frame: np.ndarray  # seq_len_speech x classes
    vanilla: np.ndarray  # text x speech alignment, rows are distributions
    label_guided: np.ndarray  # text x speech alignment from class profiles

    def to_lines(self) -> list[str]:
        """Long-form table of every map: matrix,row,col,value."""
        lines = ["matrix,row,col,value"]
        for name, matrix in vars(self).items():  # the fields, in declaration order
            for (r, c), value in np.ndenumerate(matrix):
                lines.append(f"{name},{r},{c},{value:.12g}")
        return lines


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

# Every matrix of the model: name -> (rows, cols, init rule), in draw order.
# "table" and "frozen table" draw from default_rng([seed, 3]) with std
# EMBED_INIT_STD; "weight" draws from default_rng([seed, 2]) with std
# 1/sqrt(rows); "zeros" draws nothing; "labels" come from init_model's
# `label_rows`. The unimodal heads come last, so the fused objective's
# matrices lead the grad check's single draw stream.
PARAMETERS = {
    "text.embedding": ("vocab_text", "text_dim", "table"),
    "speech.codebook": ("vocab_speech", "speech_dim", "frozen table"),
    "text.query_w": ("text_dim", "text_dim", "weight"),
    "text.key_w": ("text_dim", "text_dim", "weight"),
    "text.value_w": ("text_dim", "text_dim", "weight"),
    "speech.query_w": ("speech_dim", "speech_dim", "weight"),
    "speech.key_w": ("speech_dim", "speech_dim", "weight"),
    "speech.value_w": ("speech_dim", "speech_dim", "weight"),
    "speech.post_w": ("speech_dim", "speech_dim", "weight"),
    "fusion.cross_map": ("speech_dim", "text_dim", "weight"),
    "fusion.classifier_w": ("fused_dim", "classes", "weight"),
    "fusion.classifier_b": ("one", "classes", "zeros"),
    "labels.text": ("classes", "text_dim", "labels"),
    "labels.speech": ("classes", "speech_dim", "labels"),
    "fusion.text_head_w": ("text_dim", "classes", "weight"),
    "fusion.text_head_b": ("one", "classes", "zeros"),
    "fusion.speech_head_w": ("speech_dim", "classes", "weight"),
    "fusion.speech_head_b": ("one", "classes", "zeros"),
}


def _shapes(dims: Mapping[str, int]) -> dict[str, tuple[int, int]]:
    """Shape of every matrix, from vocab_text, vocab_speech, text_dim, speech_dim, classes."""
    sizes = {**dims, "fused_dim": dims["text_dim"] + dims["speech_dim"], "one": 1}
    return {name: (sizes[rows], sizes[cols]) for name, (rows, cols, _) in PARAMETERS.items()}


def model_from_arrays(arrays: Mapping[str, np.ndarray], labels_trainable: bool) -> dict[str, Node]:
    """The model: each matrix of `PARAMETERS`, in table order, as a parameter or a constant.

    The codebook is always frozen, the label rows unless labels_trainable.
    Raises KeyError naming the first matrix `arrays` lacks.
    """
    model = {}
    for name, (_, _, rule) in PARAMETERS.items():
        frozen = rule == "frozen table" or (rule == "labels" and not labels_trainable)
        model[name] = (constant if frozen else parameter)(arrays[name])
    return model


def init_model(
    dims: Mapping[str, int],
    seed: int,
    label_rows: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    labels_trainable: bool,
) -> dict[str, Node]:
    """The seeded model: every matrix of `PARAMETERS`, drawn in table order.

    dims gives vocab_text, vocab_speech, text_dim, speech_dim and classes.
    `label_rows(embedding, codebook)` returns the text and speech label rows,
    built on the two drawn tables, so label modes that average table rows see
    the very rows the encoders use; they train only when labels_trainable.
    """
    table_rng = np.random.default_rng([seed, 3])
    weight_rng = np.random.default_rng([seed, 2])
    arrays: dict[str, np.ndarray] = {}
    for name, shape in _shapes(dims).items():
        rule = PARAMETERS[name][2]
        if rule.endswith("table"):
            arrays[name] = table_rng.normal(0.0, EMBED_INIT_STD, size=shape)
        elif rule == "weight":
            arrays[name] = weight_rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape)
        elif rule == "zeros":
            arrays[name] = np.zeros(shape)
    arrays["labels.text"], arrays["labels.speech"] = label_rows(
        arrays["text.embedding"], arrays["speech.codebook"]
    )
    return model_from_arrays(arrays, labels_trainable)


# ---------------------------------------------------------------------------
# Attention building blocks
# ---------------------------------------------------------------------------


def guidance_loss(profile: Node, labels: Sequence[int], segments: Segments) -> Node:
    """Cross entropy of each segment's pooled profile against its true class: segments x 1.

    `labels` holds one class per segment. The pooled means act directly as
    logits; the softmax inside the cross entropy is the only normalisation
    applied. One utterance's profile is one segment, `Segments((n,))`.
    """
    return cross_entropy(pool(profile, "mean", segments), labels)


def class_averaged_attention(profile: np.ndarray) -> tuple[float, ...]:
    """Per-position mean over the class dimension of a cosine profile."""
    return tuple(float(v) for v in profile.mean(axis=1))


def score_fusion(logits_text: np.ndarray, logits_speech: np.ndarray) -> int:
    """Predicted class from summed 1xc unimodal logits; ties pick the lowest id."""
    for name, logits in (("text", logits_text), ("speech", logits_speech)):
        if logits.shape[0] != 1:
            raise DimensionError("{} logits must be 1xc, got {}x{}".format(name, *logits.shape))
    if logits_text.shape[1] != logits_speech.shape[1]:
        raise DimensionError(
            f"logit widths differ ({logits_text.shape[1]} vs {logits_speech.shape[1]})"
        )
    summed = logits_text[0] + logits_speech[0]
    return int(np.argmax(summed))


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def _encode(utterances: Sequence[Utterance], modality: str, params: dict[str, Node], ops):
    """One modality's rows for the whole batch, stacked, and their segments."""
    if modality == "text":
        seqs, encode = [u.text_tokens for u in utterances], text_encode
    elif modality == "speech":
        seqs, encode = [u.frame_codes for u in utterances], speech_encode
    else:
        raise ValueError(f"modality must be 'text' or 'speech', got {modality!r}")
    if len(seqs) == 1:  # cached segments, so a prediction builds none
        ids, segments = seqs[0], _alone(len(seqs[0]))
    else:
        ids = list(itertools.chain.from_iterable(seqs))
        segments = Segments([len(seq) for seq in seqs])
    return encode(ids, params, segments, ops), segments


def _fused_pass(
    utterances: Sequence[Utterance],
    params: dict[str, Node],
    mode: FusionMode,
    normalize_label_attention: bool,
    ops=diffcore,
):
    """Encoders, the maps and the fused logits of a batch, as nodes or (ops=on_arrays) arrays.

    Returns (logits, profiles, vanilla, guided, text segments, speech
    segments); the alignments are stacks of per-utterance maps. A graph
    builds every map whatever the mode, because the guidance losses read the
    class profiles, the constraint reads both alignments and
    `attention_maps` all four. On arrays only the maps the mode's alignment
    uses are built, in the same order, and the others are None.
    """
    every = ops is not on_arrays
    h_text, text = _encode(utterances, "text", params, ops)
    h_speech, speech = _encode(utterances, "speech", params, ops)
    profiles = vanilla = guided = None
    if every or mode in (FusionMode.SUM, FusionMode.ONLY_LABEL):
        profiles = (
            ops.cosine_scores(h_text, params["labels.text"]),
            ops.cosine_scores(h_speech, params["labels.speech"]),
        )
        guided = ops.paired_scores(*profiles, text, speech)
        if normalize_label_attention:
            guided = ops.row_softmax(guided, text, speech)
    if every or mode is not FusionMode.ONLY_LABEL:
        vanilla = ops.row_softmax(ops.paired_scores(
            h_text, ops.matmul(h_speech, params["fusion.cross_map"]), text, speech
        ), text, speech)

    if mode is FusionMode.SUM:
        align = ops.add(vanilla, guided)
    elif mode is FusionMode.ONLY_LABEL:
        align = guided
    else:
        align = vanilla
    merged = ops.concat_cols(h_text, ops.paired_mix(align, h_speech, text, speech))
    pooled = ops.pool(merged, "max", text)
    logits = ops.affine(pooled, params["fusion.classifier_w"], params["fusion.classifier_b"])
    return logits, profiles, vanilla, guided, text, speech


def _tower(utterances: Sequence[Utterance], modality: str, params: dict[str, Node], ops=diffcore):
    """One tower's logits of a batch, its rows and their segments, as nodes or arrays."""
    h, segments = _encode(utterances, modality, params, ops)
    logits = ops.affine(ops.pool(h, "max", segments), params[f"fusion.{modality}_head_w"],
                        params[f"fusion.{modality}_head_b"])
    return logits, h, segments


@dataclass
class ForwardResult:
    logits: Node  # batch x classes
    loss: Node  # 1 x 1, the root for backward: the sum of the utterances' weighted totals
    # batch x 5: each utterance's main, constraint, guide_text and guide_speech
    # losses and its weighted total, the train log's loss columns; 0.0 for a
    # term the pass lacks
    terms: np.ndarray


def _result(logits: Node, terms: Sequence[Node | None], weights: Sequence[float]) -> ForwardResult:
    """The loss root of the batch x 1 terms (main, constraint, guide_text, guide_speech).

    A term the pass lacks is None: the root sums only the others. Each
    utterance's total repeats weighted_sum's per-row arithmetic, so a batch
    of one reports its root's value as its total.
    """
    kept, factors = zip(*((t, float(w)) for t, w in zip(terms, weights) if t is not None))
    totals = kept[0].value[:, 0] * factors[0]
    for term, factor in zip(kept[1:], factors[1:]):
        totals = totals + term.value[:, 0] * factor
    columns = [np.zeros(len(totals)) if t is None else t.value[:, 0] for t in terms]
    return ForwardResult(logits, weighted_sum(kept, factors), np.column_stack(columns + [totals]))


def forward(
    utterances: Sequence[Utterance],
    params: dict[str, Node],
    mode: FusionMode,
    weights: tuple[float, float, float, float] = DEFAULT_LOSS_WEIGHTS,
    normalize_label_attention: bool = False,
) -> ForwardResult:
    """Full multimodal pass over a batch: logits, the weighted loss and its terms.

    normalize_label_attention applies a row softmax to the label-guided
    alignment before use; off by default, documented as an extension.
    """
    logits, (profile_text, profile_speech), vanilla, guided, text, speech = _fused_pass(
        utterances, params, mode, normalize_label_attention
    )
    labels = [u.label for u in utterances]
    loss_guide_text = guidance_loss(profile_text, labels, text)
    loss_guide_speech = guidance_loss(profile_speech, labels, speech)
    loss_constraint = mse(guided, vanilla, text, speech) if mode is FusionMode.CONSTRAINT else None
    loss_main = cross_entropy(logits, labels)
    return _result(logits, (loss_main, loss_constraint, loss_guide_text, loss_guide_speech),
                   weights)


def attention_maps(
    utterances: Sequence[Utterance],
    params: dict[str, Node],
    mode: FusionMode,
    normalize_label_attention: bool = False,
) -> tuple[AttentionBundle, ...]:
    """The four attention maps of each utterance of the pass `forward` makes; needs no label."""
    _, (profile_text, profile_speech), vanilla, guided, text, speech = _fused_pass(
        utterances, params, mode, normalize_label_attention
    )
    bundles = []
    for t0, n_text, s0, n_speech in zip(text.offsets, text.lengths, speech.offsets, speech.lengths):
        tokens = slice(t0, t0 + n_text)
        bundles.append(AttentionBundle(
            profile_text.value[tokens],
            profile_speech.value[s0 : s0 + n_speech],
            vanilla.value[tokens, :n_speech],
            guided.value[tokens, :n_speech],
        ))
    return tuple(bundles)


def unimodal_forward(
    utterances: Sequence[Utterance],
    modality: str,
    params: dict[str, Node],
    weights: tuple[float, float, float, float] = DEFAULT_LOSS_WEIGHTS,
) -> ForwardResult:
    """Single-tower pass over a batch: pooled classifier loss plus the guidance term.

    The guidance weight is the text one for the text tower and the speech
    one for the speech tower; zero reduces to a plain encoder + classifier.
    The classifier loss has weight 1; the pass has no constraint and no
    guidance for the other tower.
    """
    logits, h, segments = _tower(utterances, modality, params)
    labels = [u.label for u in utterances]
    guide = guidance_loss(cosine_scores(h, params[f"labels.{modality}"]), labels, segments)
    guides = (guide, None) if modality == "text" else (None, guide)
    return _result(logits, (cross_entropy(logits, labels), None, *guides), (1.0, *weights[1:]))


# ---------------------------------------------------------------------------
# Prediction
#
# A prediction is the pass of a batch of one, run on the model's arrays
# (`ops=on_arrays`): it builds no Node and no Segments (one sequence is
# `_alone(n)`), and raises what the ops raise.
# ---------------------------------------------------------------------------


def _finite(logits: np.ndarray) -> np.ndarray:
    """Predicted logits, made read-only; NonFiniteError when they are not finite."""
    if not np.isfinite(logits).all():
        raise NonFiniteError("predicted logits are not finite")
    logits.setflags(write=False)
    return logits


def predict_logits(
    utterance: Utterance,
    params: dict[str, Node],
    mode: FusionMode,
    normalize_label_attention: bool = False,
) -> np.ndarray:
    """Label-free 1xc logits of one utterance: forward's pass on a batch of one, bit for bit.

    Builds only the maps the mode's alignment uses. Raises NonFiniteError
    when the logits are not finite.
    """
    return _finite(
        _fused_pass([utterance], params, mode, normalize_label_attention, on_arrays)[0]
    )


def unimodal_logits(utterance: Utterance, modality: str, params: dict[str, Node]) -> np.ndarray:
    """Single-tower 1xc logits of one utterance, unimodal_forward's on a batch of one, bit for bit.

    Raises NonFiniteError when the logits are not finite.
    """
    return _finite(_tower([utterance], modality, params, on_arrays)[0])


# ---------------------------------------------------------------------------
# Whole-objective gradient checking
# ---------------------------------------------------------------------------


def full_loss_grad_check(
    mode: FusionMode,
    seed: int = 0,
    step: float = 1e-5,
    weights: tuple[float, float, float, float] = DEFAULT_LOSS_WEIGHTS,
    normalize_label_attention: bool = False,
):
    """Finite-difference check of the complete objective on a tiny batch.

    Three utterances of 3, 1 and 2 tokens and 5, 2 and 1 frames, so the batch
    pads both modalities and masks both ways; 4 classes, width 8. Every
    matrix is drawn from one stream with std 0.5, the frozen codebook first
    and the rest in table order. Every entry of every trainable matrix the
    fused pass reads (all but the unimodal heads) is perturbed and compared
    against the backward pass.
    """
    rng = np.random.default_rng([seed, 9])
    dims = {"vocab_text": 12, "vocab_speech": 15, "text_dim": 8, "speech_dim": 8, "classes": 4}
    batch = [
        Utterance(
            tuple(int(t) for t in rng.integers(0, dims["vocab_text"], size=n_text)),
            tuple(int(c) for c in rng.integers(0, dims["vocab_speech"], size=n_speech)),
            int(rng.integers(0, dims["classes"])),
        )
        for n_text, n_speech in ((3, 5), (1, 2), (2, 1))
    ]
    shapes = _shapes(dims)
    order = sorted(shapes, key=lambda name: PARAMETERS[name][2] != "frozen table")
    model = model_from_arrays(
        {name: rng.normal(0.0, 0.5, size=shapes[name]) for name in order},
        labels_trainable=True,
    )
    # The constraint objective sends a gradient to every matrix any mode reads.
    backward(forward(batch, model, FusionMode.CONSTRAINT).loss)
    names = [name for name, node in model.items() if node.grad is not None]

    def builder(*leaves):
        params = {**model, **dict(zip(names, leaves))}
        return forward(batch, params, mode, weights, normalize_label_attention).loss

    inputs = [model[name].value for name in names]
    return grad_check(builder, inputs, step=step, op_name=f"total_loss[{mode.value}]")
