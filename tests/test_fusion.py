"""Tests for label attentions, alignment, and the composite objective.

Numeric oracles here are deliberately written as explicit scalar loops, so
they share no code path with the matrix implementation they check.
"""

import dataclasses
import math

import numpy as np
import pytest

from labelfuse import corpus as cp
from labelfuse import diffcore as dc
from labelfuse import fusion as fu
from labelfuse import trainer as tr
from labelfuse.corpus import Utterance
from labelfuse.errors import DegenerateRowError, DimensionError, NonFiniteError
from labelfuse.trainer import EpochRecord


def rand(rng, r, c, std=1.0):
    return rng.normal(0.0, std, size=(r, c))


def one(n):
    """The segments of a batch of one sequence of n rows."""
    return dc.Segments((n,))


def guide(profile, label):
    """The guidance loss of one utterance's profile node against its class."""
    return fu.guidance_loss(profile, [label], one(profile.value.shape[0]))


def cosine_oracle(a, b):
    """Scalar-loop cosine similarity of every a-row against every b-row."""
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for k in range(b.shape[0]):
            dot = na = nb = 0.0
            for d in range(a.shape[1]):
                dot += a[i, d] * b[k, d]
                na += a[i, d] ** 2
                nb += b[k, d] ** 2
            out[i, k] = dot / (math.sqrt(na) * math.sqrt(nb))
    return out


def tiny_model(rng, vocab_text=10, vocab_speech=12, dim=6, classes=3, trainable=True):
    labels = (rand(rng, classes, dim, 0.5), rand(rng, classes, dim, 0.5))
    dims = {
        "vocab_text": vocab_text,
        "vocab_speech": vocab_speech,
        "text_dim": dim,
        "speech_dim": dim,
        "classes": classes,
    }
    seed = int(rng.integers(1 << 30))
    return fu.init_model(dims, seed, lambda embedding, codebook: labels, trainable)


def _scalar(node):
    return float(node.value[0, 0])


def tiny_utterance(rng, model, n_text=4, n_speech=6):
    return Utterance(
        tuple(int(t) for t in rng.integers(0, model["text.embedding"].value.shape[0], size=n_text)),
        tuple(int(c) for c in rng.integers(0, model["speech.codebook"].value.shape[0], size=n_speech)),
        int(rng.integers(0, model["labels.text"].value.shape[0])),
    )


class TestLabelAttention:
    def test_self_cosine_is_one(self):
        m = np.array([[3.0, 4.0]])
        out = dc.cosine_scores(dc.constant(m), dc.constant(m))
        assert out.value[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_rows_give_zero(self):
        seq = dc.constant([[1.0, 0.0]])
        labels = dc.constant([[0.0, 5.0]])
        assert dc.cosine_scores(seq, labels).value[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            seq, labels = rand(rng, 3, 4), rand(rng, 2, 4)
            got = dc.cosine_scores(dc.constant(seq), dc.constant(labels)).value
            assert np.abs(got - cosine_oracle(seq, labels)).max() <= 1e-12

    def test_zero_row_rejected(self):
        seq = dc.constant([[0.0, 0.0]])
        labels = dc.constant([[1.0, 0.0]])
        with pytest.raises(DegenerateRowError):
            dc.cosine_scores(seq, labels)

    def test_row_scale_invariance(self):
        rng = np.random.default_rng(22)
        seq, labels = rand(rng, 4, 5), rand(rng, 3, 5)
        scaled = seq.copy()
        scaled[2] *= 37.5
        base = dc.cosine_scores(dc.constant(seq), dc.constant(labels)).value
        other = dc.cosine_scores(dc.constant(scaled), dc.constant(labels)).value
        assert np.allclose(base, other, rtol=0, atol=1e-12)


class TestGuidance:
    def test_constant_profile_gives_uniform(self):
        # Every class gets probability 1/4, so every label costs log 4.
        g = dc.constant(np.full((5, 4), 0.3))
        for label in range(4):
            loss = guide(g, label).value[0, 0]
            assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_single_row_is_softmax_of_row(self):
        g = dc.constant([[math.log(2.0), 0.0]])
        for label, prob in ((0, 2.0 / 3.0), (1, 1.0 / 3.0)):
            loss = guide(g, label).value[0, 0]
            assert loss == pytest.approx(-math.log(prob), abs=1e-12)

    def test_matches_mean_then_softmax_oracle(self):
        rng = np.random.default_rng(23)
        g = rand(rng, 5, 4)
        means = [sum(g[i, k] for i in range(5)) / 5 for k in range(4)]
        exps = [math.exp(v - max(means)) for v in means]
        for label in range(4):
            got = guide(dc.constant(g), label).value[0, 0]
            assert abs(got + math.log(exps[label] / sum(exps))) <= 1e-12

    def test_constant_profile_loss_is_log_classes(self):
        g = dc.constant(np.full((6, 4), 0.9))
        loss = guide(g, 2)
        assert loss.value[0, 0] == pytest.approx(math.log(4.0), abs=1e-12)

    def test_strongly_peaked_profile_loss_near_zero(self):
        profile = np.full((3, 4), -30.0)
        profile[:, 1] = 30.0
        loss = guide(dc.constant(profile), 1)
        assert loss.value[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            guide(dc.constant(np.zeros((2, 3))), 3)

    def test_gradient_through_profile_vs_fd(self):
        rng = np.random.default_rng(24)
        h, labels = rand(rng, 4, 5), rand(rng, 3, 5)
        rep = dc.grad_check(
            lambda a, b: guide(dc.cosine_scores(a, b), 1),
            [h, labels],
            step=1e-5,
        )
        assert rep.max_relative_error <= 1e-4


class TestVanillaCrossAttention:
    def test_single_frame_gives_all_ones(self):
        rng = np.random.default_rng(25)
        out = dc.bilinear_softmax(
            dc.constant(rand(rng, 4, 3)), dc.constant(rand(rng, 1, 5)),
            dc.constant(rand(rng, 5, 3)), one(4), one(1),
        )
        assert np.allclose(out.value, np.ones((4, 1)), rtol=0, atol=1e-12)

    def test_zero_map_gives_uniform_rows(self):
        rng = np.random.default_rng(26)
        out = dc.bilinear_softmax(
            dc.constant(rand(rng, 3, 4)), dc.constant(rand(rng, 6, 5)),
            dc.constant(np.zeros((5, 4))), one(3), one(6),
        )
        assert np.allclose(out.value, np.full((3, 6), 1.0 / 6.0), rtol=0, atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(27)
        h_text, h_speech, cmap = rand(rng, 3, 4), rand(rng, 5, 6), rand(rng, 6, 4)
        got = dc.bilinear_softmax(
            dc.constant(h_text), dc.constant(h_speech), dc.constant(cmap), one(3), one(5)
        ).value
        projected = [[sum(h_speech[j, e] * cmap[e, d] for e in range(6)) for d in range(4)]
                     for j in range(5)]
        for i in range(3):
            scores = [sum(h_text[i, d] * projected[j][d] for d in range(4)) for j in range(5)]
            m = max(scores)
            exps = [math.exp(s - m) for s in scores]
            total = sum(exps)
            for j in range(5):
                assert got[i, j] == pytest.approx(exps[j] / total, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            dc.bilinear_softmax(
                dc.constant(np.zeros((3, 4))), dc.constant(np.zeros((5, 6))),
                dc.constant(np.zeros((4, 4))), one(3), one(5),
            )


class TestAlignedSpeech:
    """The aligned speech is `paired_mix` of the alignment and the frame rows."""

    def test_one_hot_rows_select_frames(self):
        h = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        weights = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        out = dc.paired_mix(dc.constant(weights), dc.constant(h), one(3), one(3))
        assert np.array_equal(out.value, np.array([[5.0, 6.0], [1.0, 2.0], [3.0, 4.0]]))

    def test_uniform_rows_give_frame_mean(self):
        rng = np.random.default_rng(28)
        h = rand(rng, 5, 3)
        weights = dc.constant(np.full((2, 5), 0.2))
        out = dc.paired_mix(weights, dc.constant(h), one(2), one(5))
        mean = h.mean(axis=0)
        assert np.abs(out.value - mean).max() <= 1e-12

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(29)
        weights, h = rand(rng, 3, 5), rand(rng, 5, 4)
        got = dc.paired_mix(dc.constant(weights), dc.constant(h), one(3), one(5)).value
        for i in range(3):
            for d in range(4):
                acc = sum(weights[i, j] * h[j, d] for j in range(5))
                assert got[i, d] == pytest.approx(acc, abs=1e-12)


class TestLabelGuidedAttention:
    """Label-guided attention is `paired_scores` of the two class profiles."""

    def test_zero_profile_gives_zero(self):
        out = dc.paired_scores(
            dc.constant(np.zeros((3, 2))), dc.constant(np.ones((4, 2))), one(3), one(4)
        )
        assert np.array_equal(out.value, np.zeros((3, 4)))

    def test_single_class_identity(self):
        out = dc.paired_scores(dc.constant([[1.0]]), dc.constant([[1.0]]), one(1), one(1))
        assert np.array_equal(out.value, np.array([[1.0]]))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(30)
        pt, ps = rand(rng, 3, 4), rand(rng, 5, 4)
        got = dc.paired_scores(dc.constant(pt), dc.constant(ps), one(3), one(5)).value
        for i in range(3):
            for j in range(5):
                acc = sum(pt[i, k] * ps[j, k] for k in range(4))
                assert got[i, j] == pytest.approx(acc, abs=1e-12)

    def test_class_count_mismatch(self):
        with pytest.raises(DimensionError):
            dc.paired_scores(
                dc.constant(np.zeros((3, 4))), dc.constant(np.zeros((5, 2))), one(3), one(5)
            )


class TestScoreFusion:
    def test_sum_picks_larger(self):
        assert fu.score_fusion(np.array([[1.0, 0.0]]), np.array([[0.0, 0.5]])) == 0

    def test_tie_picks_lowest_class(self):
        assert fu.score_fusion(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])) == 0

    def test_matches_argmax_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a, b = rand(rng, 1, 4), rand(rng, 1, 4)
            got = fu.score_fusion(a, b)
            sums = [a[0, k] + b[0, k] for k in range(4)]
            best = 0
            for k in range(1, 4):
                if sums[k] > sums[best]:
                    best = k
            assert got == best

    def test_shape_checks(self):
        with pytest.raises(DimensionError):
            fu.score_fusion(np.zeros((2, 2)), np.zeros((1, 2)))
        with pytest.raises(DimensionError):
            fu.score_fusion(np.zeros((1, 2)), np.zeros((1, 3)))


class TestClassAveragedAttention:
    def test_constant_row(self):
        assert fu.class_averaged_attention(np.array([[1.0, 1.0, 1.0, 1.0]])) == (1.0,)

    def test_symmetric_row_cancels(self):
        assert fu.class_averaged_attention(np.array([[1.0, -1.0]])) == (0.0,)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(32)
        g = rand(rng, 6, 3)
        got = fu.class_averaged_attention(g)
        for i in range(6):
            want = sum(g[i, k] for k in range(3)) / 3
            assert got[i] == pytest.approx(want, abs=1e-12)


class TestForward:
    def test_weighted_total_arithmetic(self):
        parts = [dc.constant([[float(v)]]) for v in (1.0, 2.0, 3.0, 4.0)]
        total = dc.weighted_sum(parts, (1.0, 0.5, 0.2, 0.2))
        assert total.value[0, 0] == pytest.approx(3.4, abs=1e-12)

    def test_default_weights_match_documented_values(self):
        assert fu.DEFAULT_LOSS_WEIGHTS == (1.0, 0.5, 0.2, 0.2)

    def test_zero_components_give_zero_total(self):
        rng = np.random.default_rng(33)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)
        result = fu.forward([utt], model, fu.FusionMode.ONLY_VANILLA, weights=(0.0, 0.0, 0.0, 0.0))
        assert result.terms[0, 4] == 0.0

    def test_breakdown_total_is_weighted_sum(self):
        rng = np.random.default_rng(34)
        for mode in fu.FusionMode:
            model = tiny_model(rng)
            utt = tiny_utterance(rng, model)
            result = fu.forward([utt], model, mode)
            main, constraint, guide_text, guide_speech, total = result.terms[0]
            recomputed = ((1.0 * main + 0.5 * constraint) + 0.2 * guide_text) + 0.2 * guide_speech
            assert abs(total - recomputed) <= 1e-12
            assert min(main, constraint, guide_text, guide_speech) >= 0.0

    def test_constraint_mode_only_one_with_nonzero_penalty(self):
        rng = np.random.default_rng(35)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)
        for mode in fu.FusionMode:
            _, constraint, _, _, _ = fu.forward([utt], model, mode).terms[0]
            if mode is fu.FusionMode.CONSTRAINT:
                assert constraint > 0.0
            else:
                assert constraint == 0.0

    def test_constraint_is_zero_when_alignments_match(self):
        rng = np.random.default_rng(36)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)
        (bundle,) = fu.attention_maps([utt], model, fu.FusionMode.CONSTRAINT)
        guided = dc.constant(bundle.label_guided)
        substituted = dc.mse(guided, guided, *map(one, bundle.label_guided.shape))
        assert substituted.value[0, 0] == 0.0

    def test_bundle_invariants_on_random_forwards(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            model = tiny_model(rng)
            utt = tiny_utterance(rng, model)
            (bundle,) = fu.attention_maps([utt], model, fu.FusionMode.CONSTRAINT)
            c = model["labels.text"].value.shape[0]
            assert np.abs(bundle.label_token).max() <= 1.0 + 1e-12
            assert np.abs(bundle.label_frame).max() <= 1.0 + 1e-12
            assert np.abs(bundle.vanilla.sum(axis=1) - 1.0).max() <= 1e-9
            assert np.abs(bundle.label_guided).max() <= c + 1e-9

    @pytest.mark.parametrize("normalize", [False, True])
    def test_attention_maps_are_the_maps_forward_scores(self, normalize):
        rng = np.random.default_rng(49)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)
        mode = fu.FusionMode.CONSTRAINT
        result = fu.forward([utt], model, mode, normalize_label_attention=normalize)
        _, constraint, guide_text, guide_speech, _ = result.terms[0]
        (maps,) = fu.attention_maps([utt], model, mode, normalize_label_attention=normalize)
        penalty = dc.mse(dc.constant(maps.label_guided), dc.constant(maps.vanilla),
                         *map(one, maps.vanilla.shape))
        guides = [guide(dc.constant(profile), utt.label)
                  for profile in (maps.label_token, maps.label_frame)]
        recomputed = [_scalar(node) for node in (penalty, *guides)]
        assert recomputed == [constraint, guide_text, guide_speech]

    def test_only_vanilla_reduces_to_label_free_pass(self):
        # Separately coded pass with no label machinery at all.
        rng = np.random.default_rng(38)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)

        from labelfuse.encoders import speech_encode, text_encode

        text, speech = one(len(utt.text_tokens)), one(len(utt.frame_codes))
        h_text = text_encode(utt.text_tokens, model, text)
        h_speech = speech_encode(utt.frame_codes, model, speech)
        scores = dc.matmul(h_text, dc.transpose(dc.matmul(h_speech, model["fusion.cross_map"])))
        align = dc.row_softmax(scores, text, speech)
        merged = dc.concat_cols(h_text, dc.matmul(align, h_speech))
        pooled = dc.pool(merged, "max", text)
        logits = dc.add(dc.matmul(pooled, model["fusion.classifier_w"]),
                        model["fusion.classifier_b"])
        plain_loss = dc.cross_entropy(logits, [utt.label]).value[0, 0]

        result = fu.forward([utt], model, fu.FusionMode.ONLY_VANILLA, weights=(1.0, 0.0, 0.0, 0.0))
        assert abs(result.terms[0, 4] - plain_loss) <= 1e-12
        assert np.allclose(result.logits.value, logits.value, rtol=0, atol=1e-12)

    def test_normalize_label_attention_switch(self):
        rng = np.random.default_rng(39)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)
        (raw,) = fu.attention_maps([utt], model, fu.FusionMode.ONLY_LABEL)
        (normed,) = fu.attention_maps([utt], model, fu.FusionMode.ONLY_LABEL,
                                      normalize_label_attention=True)
        rows = normed.label_guided.sum(axis=1)
        assert np.abs(rows - 1.0).max() <= 1e-9
        assert not np.array_equal(raw.label_guided, normed.label_guided)

    def test_predict_logits_matches_forward(self):
        # The last utterance's LONG_ROWS + 6 frames make its speech side long.
        rng = np.random.default_rng(40)
        for normalize in (False, True):
            for mode in fu.FusionMode:
                model = tiny_model(rng)
                for n_speech in (6, 1, dc.LONG_ROWS + 6):
                    utt = tiny_utterance(rng, model, n_speech=n_speech)
                    via_forward = fu.forward(
                        [utt], model, mode, normalize_label_attention=normalize
                    ).logits.value
                    via_predict = fu.predict_logits(
                        utt, model, mode, normalize_label_attention=normalize
                    )
                    assert np.array_equal(via_forward, via_predict)


class TestBreakdown:
    """Both passes report the five train-log loss columns; the root is their total."""

    def test_terms_have_one_column_per_log_column(self):
        rng = np.random.default_rng(46)
        model = tiny_model(rng)
        batch = [tiny_utterance(rng, model) for _ in range(3)]
        columns = [f.name for f in dataclasses.fields(EpochRecord) if f.name.startswith("loss_")]
        for result in (fu.forward(batch, model, fu.FusionMode.CONSTRAINT),
                       *(fu.unimodal_forward(batch, modality, model) for modality in fu.TOWERS)):
            assert result.terms.shape == (len(batch), len(columns))

    @pytest.mark.parametrize("modality", [*fu.FusionMode, "text", "speech"], ids=str)
    def test_root_sums_only_the_computed_terms(self, modality):
        rng = np.random.default_rng(45)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)
        if isinstance(modality, fu.FusionMode):
            result = fu.forward([utt], model, modality)
            present = 4 if modality is fu.FusionMode.CONSTRAINT else 3
        else:
            result = fu.unimodal_forward([utt], modality, model)
            present = 2
        assert len(result.loss.parents) == present
        assert all(parent.requires_grad for parent in result.loss.parents)

    @pytest.mark.parametrize("modality", ["text", "speech"])
    def test_tower_reports_zero_for_missing_terms(self, modality):
        rng = np.random.default_rng(47)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)
        result = fu.unimodal_forward([utt], modality, model)
        main, constraint, guide_text, guide_speech, total = result.terms[0]
        own, other = (guide_text, guide_speech) if modality == "text" else (
            guide_speech, guide_text)
        assert constraint == 0.0
        assert other == 0.0
        assert own > 0.0
        assert total == result.loss.value[0, 0]
        assert abs(total - (main + 0.2 * own)) <= 1e-12

    @pytest.mark.parametrize("mode", list(fu.FusionMode))
    def test_multimodal_total_is_the_loss_node(self, mode):
        rng = np.random.default_rng(48)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)
        result = fu.forward([utt], model, mode)
        main, _, guide_text, guide_speech, total = result.terms[0]
        assert total == result.loss.value[0, 0]
        assert min(main, guide_text, guide_speech) > 0.0


class TestUnimodalForward:
    def test_zero_guidance_reduces_to_plain_classifier(self):
        rng = np.random.default_rng(41)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)
        result = fu.unimodal_forward([utt], "text", model, weights=(1.0, 0.5, 0.0, 0.0))
        assert abs(result.loss.value[0, 0] - result.terms[0, 0]) <= 1e-12

    def test_logits_shape(self):
        rng = np.random.default_rng(42)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)
        for modality in ("text", "speech"):
            result = fu.unimodal_forward([utt], modality, model)
            assert result.logits.value.shape == (1, model["labels.text"].value.shape[0])

    def test_unknown_modality(self):
        rng = np.random.default_rng(43)
        model = tiny_model(rng)
        with pytest.raises(ValueError):
            fu.unimodal_forward([tiny_utterance(rng, model)], "video", model)

    def test_unimodal_logits_helper_agrees(self):
        rng = np.random.default_rng(44)
        model = tiny_model(rng)
        for n_text, n_speech in ((4, 6), (1, 1), (dc.LONG_ROWS, dc.LONG_ROWS + 6)):
            utt = tiny_utterance(rng, model, n_text=n_text, n_speech=n_speech)
            for modality in ("text", "speech"):
                assert np.array_equal(fu.unimodal_logits(utt, modality, model), fu.unimodal_forward(
                    [utt], modality, model
                ).logits.value)

    @pytest.mark.parametrize("modality", ["text", "speech"])
    def test_full_loss_gradient_vs_fd(self, modality):
        # Every matrix the tower reads, redrawn with std 0.5; all but the frozen codebook probed.
        # A batch of three unequal utterances, one of a single token and one of a single frame.
        rng = np.random.default_rng(45)
        model = {name: dc.constant(rand(rng, *node.value.shape, 0.5)) for name, node in
                 tiny_model(rng, vocab_text=8, vocab_speech=8, dim=4, classes=3).items()}
        batch = [Utterance((1, 5, 2), (0, 6, 6, 3), 1), Utterance((4,), (2, 7), 0),
                 Utterance((3, 3), (5,), 2)]
        names = [name for name in model if name != "speech.codebook" and name.startswith(
            (f"{modality}.", f"fusion.{modality}_head", f"labels.{modality}"))]

        def builder(*leaves):
            return fu.unimodal_forward(batch, modality, {**model, **dict(zip(names, leaves))}).loss

        rep = dc.grad_check(builder, [model[name].value for name in names], step=1e-5)
        assert len(names) == 7
        assert rep.max_relative_error <= 1e-4


class TestFullLossGradCheck:
    @pytest.mark.parametrize("mode, normalize", [
        *[pytest.param(mode, False, id=str(mode)) for mode in fu.FusionMode],
        *[pytest.param(mode, True, id=f"{mode}-normalized") for mode in fu.FusionMode],
    ])
    def test_all_modes_within_tolerance(self, mode, normalize):
        rep = fu.full_loss_grad_check(mode, seed=0, normalize_label_attention=normalize)
        assert rep.max_relative_error <= 1e-4, rep
        assert rep.probe_count > 100


def non_leaf_nodes(root):
    """Nodes with parents in the graph under root, each counted once."""
    seen, stack = {id(root)}, [root]
    count = 0
    while stack:
        node = stack.pop()
        count += bool(node.parents)
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return count


class TestNodeBudget:
    """A training batch builds one graph of at most 25 non-leaf nodes, whatever its size.

    normalize_label_attention adds its one row softmax on top.
    """

    @staticmethod
    def batch(rng, model, size):
        return [tiny_utterance(rng, model, n_text=int(rng.integers(1, 6)),
                               n_speech=int(rng.integers(1, 8))) for _ in range(size)]

    @pytest.mark.parametrize("mode", list(fu.FusionMode))
    def test_multimodal(self, mode):
        rng = np.random.default_rng(50)
        model = tiny_model(rng)
        batch = self.batch(rng, model, 8)
        counts = {
            normalize: [
                non_leaf_nodes(fu.forward(utts, model, mode, normalize_label_attention=normalize).loss)
                for utts in (batch[:1], batch)
            ]
            for normalize in (False, True)
        }
        one, eight = counts[False]
        assert one == eight <= 25
        assert counts[True][0] == counts[True][1] in (one, one + 1)

    @pytest.mark.parametrize("modality", ["text", "speech"])
    def test_tower(self, modality):
        rng = np.random.default_rng(51)
        model = tiny_model(rng)
        batch = self.batch(rng, model, 8)
        one, eight = (non_leaf_nodes(fu.unimodal_forward(utts, modality, model).loss)
                      for utts in (batch[:1], batch))
        assert one == eight <= 25


def record_inits(monkeypatch, cls, built: list) -> None:
    """From now on, append cls's name to `built` for each instance of cls constructed."""
    init = cls.__init__

    def recording(self, *args, **kwargs):
        built.append(cls.__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", recording)


class TestPrediction:
    """A prediction runs diffcore's kernels on the model's arrays and raises what the ops raise."""

    def test_builds_no_node_matrix_or_segments(self, monkeypatch):
        rng = np.random.default_rng(55)
        model = tiny_model(rng)
        utts = [tiny_utterance(rng, model, n_speech=m) for m in (6, dc.LONG_ROWS + 2)]
        for utt in utts:  # a sequence's first prediction builds its cached _alone segments
            fu.predict_logits(utt, model, fu.FusionMode.SUM, True)
        built = []
        for cls in (dc.Node, dc.Matrix, dc.Segments):
            record_inits(monkeypatch, cls, built)
        for utt in utts:
            for mode in fu.FusionMode:
                for normalize in (False, True):
                    fu.predict_logits(utt, model, mode, normalize)
            for modality in ("text", "speech"):
                fu.unimodal_logits(utt, modality, model)
        assert built == []

    @staticmethod
    def replaced(model, name, values):
        return {**model, name: dc.constant(values)}

    @pytest.mark.parametrize("mode", list(fu.FusionMode))
    def test_raises_the_ops_errors(self, mode):
        # Width 6, 3 classes, 10 tokens and 12 codes; the messages are those of the graph ops.
        rng = np.random.default_rng(60)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)
        cases = [
            (Utterance(utt.text_tokens + (10,), utt.frame_codes, 0), model, IndexError,
             "token id 10 out of range for vocabulary of size 10"),
            (Utterance(utt.text_tokens, (-1,) + utt.frame_codes, 0), model, IndexError,
             "code id -1 out of range for vocabulary of size 12"),
            (utt, self.replaced(model, "text.query_w", np.ones((5, 6))), DimensionError,
             "matmul: 4x6 is incompatible with 5x6"),
            (utt, self.replaced(model, "speech.post_w", np.ones((6, 5))), DimensionError,
             "add: shapes differ (6x6 vs 6x5)"),
            (utt, self.replaced(model, "fusion.classifier_w", np.ones((13, 3))), DimensionError,
             "matmul: 1x12 is incompatible with 13x3"),
            (utt, self.replaced(model, "fusion.classifier_b", np.ones((1, 4))), DimensionError,
             "add: shapes differ (1x3 vs 1x4)"),
            (utt, self.replaced(model, "text.embedding", model["text.embedding"].value * 1e200),
             NonFiniteError, "predicted logits are not finite"),
        ]
        if mode in (fu.FusionMode.SUM, fu.FusionMode.ONLY_LABEL):
            zero_row = np.vstack([np.ones((2, 6)), np.zeros((1, 6))])
            cases += [
                (utt, self.replaced(model, "labels.text", zero_row), DegenerateRowError,
                 "row 2 has near-zero norm"),
                (utt, self.replaced(model, "labels.speech", np.ones((3, 5))), DimensionError,
                 "matmul: 6x6 is incompatible with 5x3"),
                (utt, self.replaced(model, "labels.speech", np.ones((4, 6))), DimensionError,
                 "matmul: 4x3 is incompatible with 4x6"),
            ]
        if mode is not fu.FusionMode.ONLY_LABEL:
            cases += [(utt, self.replaced(model, "fusion.cross_map", np.ones((5, 6))),
                       DimensionError, "matmul: 6x6 is incompatible with 5x6")]
        for u, m, error, message in cases:
            with np.errstate(all="ignore"), pytest.raises(error) as raised:
                fu.predict_logits(u, m, mode)
            assert str(raised.value) == message

    def test_tower_raises_the_ops_errors(self):
        rng = np.random.default_rng(61)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)
        with pytest.raises(DimensionError, match=r"^add: shapes differ \(1x3 vs 1x2\)$"):
            fu.unimodal_logits(utt, "text", self.replaced(model, "fusion.text_head_b", np.ones((1, 2))))
        with pytest.raises(ValueError, match="^modality must be 'text' or 'speech', got 'video'$"):
            fu.unimodal_logits(utt, "video", model)


# (main, constraint, guide_text, guide_speech, total) of the first two
# utterances of `batch_setup`'s corpus under each of its configs, as the
# per-utterance graph computed them before a pass took a whole batch.
PARENT_BREAKDOWNS = {
    "constraint": (
        (1.0944812110343014, 0.1280714691005068, 1.0627528947283515, 1.2213735929338874, 1.6153422431170026),
        (1.0895776108785877, 0.02927345359932986, 0.9081518052412748, 1.153453767160992, 1.5165354521587062),
    ),
    "sum": (
        (1.118657628945024, 0.0, 1.0627528947283515, 1.2213735929338874, 1.575482926477472),
        (1.0917708531230657, 0.0, 0.9081518052412748, 1.153453767160992, 1.5040919676035192),
    ),
    "only-label": (
        (1.097156855719742, 0.0, 1.0627528947283515, 1.2213735929338874, 1.5539821532521898),
        (1.0899582927632112, 0.0, 0.9081518052412748, 1.153453767160992, 1.5022794072436647),
    ),
    "only-vanilla": (
        (1.0944812110343014, 0.0, 1.0627528947283515, 1.2213735929338874, 1.5513065085667492),
        (1.0895776108785877, 0.0, 0.9081518052412748, 1.153453767160992, 1.5018987253590412),
    ),
    "text": (
        (1.128249157203159, 0.0, 1.0627528947283515, 0.0, 1.3407997361488293),
        (1.070237934040375, 0.0, 0.9081518052412748, 0.0, 1.25186829508863),
    ),
    "speech": (
        (1.1156696747387624, 0.0, 0.0, 1.2213735929338874, 1.35994439332554),
        (1.1138025437632935, 0.0, 0.0, 1.153453767160992, 1.344493297195492),
    ),
}


def batch_setup():
    spec = cp.CorpusSpec(classes=3, vocab_text=30, vocab_speech=40, text_len=(3, 9),
                         speech_len=(4, 14), salient_per_class=3, seed=5)
    base = tr.TrainConfig(text_dim=8, speech_dim=8, top_k_text=3, top_k_speech=5, seed=3)
    configs = {
        "constraint": base,
        "sum": dataclasses.replace(base, fusion_mode="sum", labels_trainable=True),
        "only-label": dataclasses.replace(base, fusion_mode="only-label",
                                          normalize_label_attention=True),
        "only-vanilla": dataclasses.replace(base, fusion_mode="only-vanilla"),
        "text": dataclasses.replace(base, modality="text"),
        "speech": dataclasses.replace(base, modality="speech"),
    }
    return cp.generate(spec, 12), configs


def relative_gap(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


def check_sum_of_batches_of_one(batch, model, config):
    """The batch's terms and gradients are those of its batches of one, summed."""
    assert len({len(u.text_tokens) for u in batch}) > 1
    assert len({len(u.frame_codes) for u in batch}) > 1
    whole = tr._batch_loss(batch, model, config)
    dc.backward(whole.loss)
    batch_grads = {n: node.grad for n, node in model.items() if node.grad is not None}

    for node in model.values():
        node.zero_grad()
    singles = []
    for utt in batch:  # leaf gradients accumulate over the backward passes
        single = tr._batch_loss([utt], model, config)
        dc.backward(single.loss)
        singles.append(single.terms[0])
    summed_grads = {n: node.grad for n, node in model.items() if node.grad is not None}

    assert relative_gap(whole.terms, np.array(singles)) <= 1e-12
    total = whole.loss.value[0, 0]
    assert abs(total - sum(row[-1] for row in singles)) <= 1e-12 * abs(total)
    assert batch_grads.keys() == summed_grads.keys()
    for n, grad in summed_grads.items():
        assert relative_gap(batch_grads[n], grad) <= 1e-12, n


class TestBatch:
    """A batch is one graph whose terms and gradients are those of its utterances."""

    @pytest.mark.parametrize("name", list(PARENT_BREAKDOWNS))
    def test_batch_of_one_matches_the_per_utterance_graph(self, name):
        corpus, configs = batch_setup()
        model = tr.build_model(corpus, configs[name])
        for utt, want in zip(corpus.utterances, PARENT_BREAKDOWNS[name]):
            got = tr._batch_loss([utt], model, configs[name]).terms[0]
            assert np.abs(got - np.array(want)).max() <= 1e-12

    @pytest.mark.parametrize("name", list(PARENT_BREAKDOWNS))
    def test_batch_is_the_sum_of_its_batches_of_one(self, name):
        corpus, configs = batch_setup()
        check_sum_of_batches_of_one(corpus.utterances[:8], tr.build_model(corpus, configs[name]),
                                    configs[name])

    @pytest.mark.parametrize("name", list(PARENT_BREAKDOWNS))
    def test_a_long_batch_is_the_sum_of_its_batches_of_one(self, name):
        # 56 to 72 frames: the speech side is long, so its ops run one utterance at a time.
        short, configs = batch_setup()
        corpus = cp.generate(dataclasses.replace(short.spec, speech_len=(56, 72)), 12)
        batch = corpus.utterances[:8]
        assert max(len(u.frame_codes) for u in batch) >= dc.LONG_ROWS
        check_sum_of_batches_of_one(batch, tr.build_model(corpus, configs[name]), configs[name])

    @pytest.mark.parametrize("mode", list(fu.FusionMode))
    def test_a_long_batch_builds_the_nodes_of_a_short_one(self, mode):
        rng = np.random.default_rng(54)
        model = tiny_model(rng)
        short = [tiny_utterance(rng, model, n_text=3, n_speech=m) for m in (7, 2, 5)]
        long = [tiny_utterance(rng, model, n_text=3, n_speech=m) for m in (dc.LONG_ROWS, 2, 5)]
        counts = [non_leaf_nodes(fu.forward(b, model, mode).loss) for b in (short[:1], short, long)]
        assert counts[0] == counts[1] == counts[2]

    @pytest.mark.parametrize("normalize", [False, True])
    def test_a_long_batch_gives_each_utterance_its_batch_of_one(self, normalize):
        # 70 and 64 frames make the speech side long, 66 tokens the text side.
        rng = np.random.default_rng(53)
        model = tiny_model(rng)
        batch = [tiny_utterance(rng, model, n_text=n, n_speech=m)
                 for n, m in ((3, 70), (66, 2), (1, 64), (5, 9))]
        for mode in fu.FusionMode:
            trained = fu.forward(batch, model, mode, normalize_label_attention=normalize).logits
            bundles = fu.attention_maps(batch, model, mode, normalize_label_attention=normalize)
            for k, (utt, bundle) in enumerate(zip(batch, bundles)):
                alone = fu.predict_logits(utt, model, mode, normalize)[0]
                assert np.abs(trained.value[k] - alone).max() <= 1e-12
                (one,) = fu.attention_maps([utt], model, mode, normalize_label_attention=normalize)
                for got, want in zip(vars(bundle).values(), vars(one).values()):
                    assert np.allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", list(PARENT_BREAKDOWNS))
    def test_a_longer_utterance_changes_no_other_terms(self, name):
        corpus, configs = batch_setup()
        model = tr.build_model(corpus, configs[name])
        batch = list(corpus.utterances[:4])
        longest = max(batch, key=lambda u: len(u.text_tokens))
        widest = max(batch, key=lambda u: len(u.frame_codes))
        longer = Utterance(longest.text_tokens * 2, widest.frame_codes * 2, 1)
        before = tr._batch_loss(batch, model, configs[name])
        after = tr._batch_loss(batch + [longer], model, configs[name])
        assert relative_gap(after.terms[:4], before.terms) <= 1e-12
        assert relative_gap(after.logits.value[:4], before.logits.value) <= 1e-12

    @pytest.mark.parametrize("normalize", [False, True])
    def test_padding_stays_finite_and_out_of_the_maps(self, normalize):
        # Lengths 1 to 9 tokens and 1 to 13 frames: most rows of the padded stacks are padding.
        rng = np.random.default_rng(52)
        model = tiny_model(rng)
        batch = [tiny_utterance(rng, model, n_text=n, n_speech=m)
                 for n, m in ((1, 13), (9, 1), (2, 2), (5, 7))]
        for mode in fu.FusionMode:
            for node in model.values():
                node.zero_grad()
            result = fu.forward(batch, model, mode, normalize_label_attention=normalize)
            dc.backward(result.loss)
            assert np.isfinite(result.terms).all()
            assert all(np.isfinite(node.grad).all() for node in model.values()
                       if node.grad is not None)
            bundles = fu.attention_maps(batch, model, mode, normalize_label_attention=normalize)
            for utt, bundle in zip(batch, bundles):
                shape = (len(utt.text_tokens), len(utt.frame_codes))
                assert bundle.vanilla.shape == bundle.label_guided.shape == shape
                assert np.abs(bundle.vanilla.sum(axis=1) - 1.0).max() <= 1e-12
                (alone,) = fu.attention_maps([utt], model, mode, normalize_label_attention=normalize)
                for got, want in zip(vars(bundle).values(), vars(alone).values()):
                    assert np.allclose(got, want, rtol=0, atol=1e-12)
