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
from labelfuse.diffcore import Matrix
from labelfuse.errors import DegenerateRowError, DimensionError
from labelfuse.trainer import EpochRecord


def rand(rng, r, c, std=1.0):
    return Matrix(rng.normal(0.0, std, size=(r, c)))


def cosine_oracle(a, b):
    """Scalar-loop cosine similarity of every a-row against every b-row."""
    out = np.zeros((a.rows, b.rows))
    for i in range(a.rows):
        for k in range(b.rows):
            dot = na = nb = 0.0
            for d in range(a.cols):
                dot += a.array[i, d] * b.array[k, d]
                na += a.array[i, d] ** 2
                nb += b.array[k, d] ** 2
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
    return float(node.value.array[0, 0])


def tiny_utterance(rng, model, n_text=4, n_speech=6):
    return Utterance(
        tuple(int(t) for t in rng.integers(0, model["text.embedding"].value.rows, size=n_text)),
        tuple(int(c) for c in rng.integers(0, model["speech.codebook"].value.rows, size=n_speech)),
        int(rng.integers(0, model["labels.text"].value.rows)),
    )


class TestLabelAttention:
    def test_self_cosine_is_one(self):
        m = Matrix([[3.0, 4.0]])
        out = dc.cosine_scores(dc.constant(m), dc.constant(m))
        assert out.value.array[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_rows_give_zero(self):
        seq = dc.constant([[1.0, 0.0]])
        labels = dc.constant([[0.0, 5.0]])
        assert dc.cosine_scores(seq, labels).value.array[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            seq, labels = rand(rng, 3, 4), rand(rng, 2, 4)
            got = dc.cosine_scores(dc.constant(seq), dc.constant(labels)).value.array
            assert np.abs(got - cosine_oracle(seq, labels)).max() <= 1e-12

    def test_zero_row_rejected(self):
        seq = dc.constant([[0.0, 0.0]])
        labels = dc.constant([[1.0, 0.0]])
        with pytest.raises(DegenerateRowError):
            dc.cosine_scores(seq, labels)

    def test_row_scale_invariance(self):
        rng = np.random.default_rng(22)
        seq, labels = rand(rng, 4, 5), rand(rng, 3, 5)
        scaled = seq.array.copy()
        scaled[2] *= 37.5
        base = dc.cosine_scores(dc.constant(seq), dc.constant(labels)).value
        other = dc.cosine_scores(dc.constant(Matrix(scaled)), dc.constant(labels)).value
        assert base.allclose(other, atol=1e-12)


class TestGuidance:
    def test_constant_profile_gives_uniform(self):
        # Every class gets probability 1/4, so every label costs log 4.
        g = dc.constant(np.full((5, 4), 0.3))
        for label in range(4):
            loss = fu.guidance_loss(g, label).value.array[0, 0]
            assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_single_row_is_softmax_of_row(self):
        g = dc.constant([[math.log(2.0), 0.0]])
        for label, prob in ((0, 2.0 / 3.0), (1, 1.0 / 3.0)):
            loss = fu.guidance_loss(g, label).value.array[0, 0]
            assert loss == pytest.approx(-math.log(prob), abs=1e-12)

    def test_matches_mean_then_softmax_oracle(self):
        rng = np.random.default_rng(23)
        g = rand(rng, 5, 4)
        means = [sum(g.array[i, k] for i in range(5)) / 5 for k in range(4)]
        exps = [math.exp(v - max(means)) for v in means]
        for label in range(4):
            got = fu.guidance_loss(dc.constant(g), label).value.array[0, 0]
            assert abs(got + math.log(exps[label] / sum(exps))) <= 1e-12

    def test_constant_profile_loss_is_log_classes(self):
        g = dc.constant(np.full((6, 4), 0.9))
        loss = fu.guidance_loss(g, 2)
        assert loss.value.array[0, 0] == pytest.approx(math.log(4.0), abs=1e-12)

    def test_strongly_peaked_profile_loss_near_zero(self):
        profile = np.full((3, 4), -30.0)
        profile[:, 1] = 30.0
        loss = fu.guidance_loss(dc.constant(profile), 1)
        assert loss.value.array[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            fu.guidance_loss(dc.constant(np.zeros((2, 3))), 3)

    def test_gradient_through_profile_vs_fd(self):
        rng = np.random.default_rng(24)
        h, labels = rand(rng, 4, 5), rand(rng, 3, 5)
        rep = dc.grad_check(
            lambda a, b: fu.guidance_loss(dc.cosine_scores(a, b), 1),
            [h, labels],
            step=1e-5,
        )
        assert rep.max_relative_error <= 1e-4


class TestVanillaCrossAttention:
    def test_single_frame_gives_all_ones(self):
        rng = np.random.default_rng(25)
        out = dc.bilinear_softmax(
            dc.constant(rand(rng, 4, 3)), dc.constant(rand(rng, 1, 5)),
            dc.constant(rand(rng, 5, 3)),
        )
        assert out.value.allclose(Matrix(np.ones((4, 1))), atol=1e-12)

    def test_zero_map_gives_uniform_rows(self):
        rng = np.random.default_rng(26)
        out = dc.bilinear_softmax(
            dc.constant(rand(rng, 3, 4)), dc.constant(rand(rng, 6, 5)),
            dc.constant(Matrix.zeros(5, 4)),
        )
        assert out.value.allclose(Matrix(np.full((3, 6), 1.0 / 6.0)), atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(27)
        h_text, h_speech, cmap = rand(rng, 3, 4), rand(rng, 5, 6), rand(rng, 6, 4)
        got = dc.bilinear_softmax(
            dc.constant(h_text), dc.constant(h_speech), dc.constant(cmap)
        ).value.array
        projected = [[sum(h_speech.array[j, e] * cmap.array[e, d] for e in range(6)) for d in range(4)]
                     for j in range(5)]
        for i in range(3):
            scores = [sum(h_text.array[i, d] * projected[j][d] for d in range(4)) for j in range(5)]
            m = max(scores)
            exps = [math.exp(s - m) for s in scores]
            total = sum(exps)
            for j in range(5):
                assert got[i, j] == pytest.approx(exps[j] / total, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            dc.bilinear_softmax(
                dc.constant(Matrix.zeros(3, 4)), dc.constant(Matrix.zeros(5, 6)),
                dc.constant(Matrix.zeros(4, 4)),
            )


class TestAlignedSpeech:
    """The aligned speech is `paired_mix` of the alignment and the frame rows."""

    def test_one_hot_rows_select_frames(self):
        h = Matrix([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        weights = Matrix([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        out = dc.paired_mix(dc.constant(weights), dc.constant(h))
        assert out.value == Matrix([[5.0, 6.0], [1.0, 2.0], [3.0, 4.0]])

    def test_uniform_rows_give_frame_mean(self):
        rng = np.random.default_rng(28)
        h = rand(rng, 5, 3)
        weights = dc.constant(Matrix(np.full((2, 5), 0.2)))
        out = dc.paired_mix(weights, dc.constant(h))
        mean = h.array.mean(axis=0)
        assert np.abs(out.value.array - mean).max() <= 1e-12

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(29)
        weights, h = rand(rng, 3, 5), rand(rng, 5, 4)
        got = dc.paired_mix(dc.constant(weights), dc.constant(h)).value.array
        for i in range(3):
            for d in range(4):
                acc = sum(weights.array[i, j] * h.array[j, d] for j in range(5))
                assert got[i, d] == pytest.approx(acc, abs=1e-12)


class TestLabelGuidedAttention:
    """Label-guided attention is `paired_scores` of the two class profiles."""

    def test_zero_profile_gives_zero(self):
        out = dc.paired_scores(
            dc.constant(Matrix.zeros(3, 2)), dc.constant(np.ones((4, 2)))
        )
        assert out.value == Matrix.zeros(3, 4)

    def test_single_class_identity(self):
        out = dc.paired_scores(dc.constant([[1.0]]), dc.constant([[1.0]]))
        assert out.value == Matrix([[1.0]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(30)
        pt, ps = rand(rng, 3, 4), rand(rng, 5, 4)
        got = dc.paired_scores(dc.constant(pt), dc.constant(ps)).value.array
        for i in range(3):
            for j in range(5):
                acc = sum(pt.array[i, k] * ps.array[j, k] for k in range(4))
                assert got[i, j] == pytest.approx(acc, abs=1e-12)

    def test_class_count_mismatch(self):
        with pytest.raises(DimensionError):
            dc.paired_scores(
                dc.constant(Matrix.zeros(3, 4)), dc.constant(Matrix.zeros(5, 2))
            )


class TestScoreFusion:
    def test_sum_picks_larger(self):
        assert fu.score_fusion(Matrix([[1.0, 0.0]]), Matrix([[0.0, 0.5]])) == 0

    def test_tie_picks_lowest_class(self):
        assert fu.score_fusion(Matrix([[1.0, 0.0]]), Matrix([[0.0, 1.0]])) == 0

    def test_matches_argmax_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a, b = rand(rng, 1, 4), rand(rng, 1, 4)
            got = fu.score_fusion(a, b)
            sums = [a.array[0, k] + b.array[0, k] for k in range(4)]
            best = 0
            for k in range(1, 4):
                if sums[k] > sums[best]:
                    best = k
            assert got == best

    def test_shape_checks(self):
        with pytest.raises(DimensionError):
            fu.score_fusion(Matrix.zeros(2, 2), Matrix.zeros(1, 2))
        with pytest.raises(DimensionError):
            fu.score_fusion(Matrix.zeros(1, 2), Matrix.zeros(1, 3))


class TestClassAveragedAttention:
    def test_constant_row(self):
        assert fu.class_averaged_attention(Matrix([[1.0, 1.0, 1.0, 1.0]])) == (1.0,)

    def test_symmetric_row_cancels(self):
        assert fu.class_averaged_attention(Matrix([[1.0, -1.0]])) == (0.0,)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(32)
        g = rand(rng, 6, 3)
        got = fu.class_averaged_attention(g)
        for i in range(6):
            want = sum(g.array[i, k] for k in range(3)) / 3
            assert got[i] == pytest.approx(want, abs=1e-12)


class TestForward:
    def test_weighted_total_arithmetic(self):
        parts = [dc.constant([[float(v)]]) for v in (1.0, 2.0, 3.0, 4.0)]
        total = dc.weighted_sum(parts, (1.0, 0.5, 0.2, 0.2))
        assert total.value.array[0, 0] == pytest.approx(3.4, abs=1e-12)

    def test_default_weights_match_documented_values(self):
        assert fu.DEFAULT_LOSS_WEIGHTS == (1.0, 0.5, 0.2, 0.2)

    def test_zero_components_give_zero_total(self):
        rng = np.random.default_rng(33)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)
        result = fu.forward([utt], model, fu.FusionMode.ONLY_VANILLA, weights=(0.0, 0.0, 0.0, 0.0))
        assert result.breakdowns[0].total == 0.0

    def test_breakdown_total_is_weighted_sum(self):
        rng = np.random.default_rng(34)
        for mode in fu.FusionMode:
            model = tiny_model(rng)
            utt = tiny_utterance(rng, model)
            (b,) = fu.forward([utt], model, mode).breakdowns
            recomputed = ((1.0 * b.main + 0.5 * b.constraint) + 0.2 * b.guide_text) + 0.2 * b.guide_speech
            assert abs(b.total - recomputed) <= 1e-12
            assert min(b.main, b.constraint, b.guide_text, b.guide_speech) >= 0.0

    def test_constraint_mode_only_one_with_nonzero_penalty(self):
        rng = np.random.default_rng(35)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)
        for mode in fu.FusionMode:
            (b,) = fu.forward([utt], model, mode).breakdowns
            if mode is fu.FusionMode.CONSTRAINT:
                assert b.constraint > 0.0
            else:
                assert b.constraint == 0.0

    def test_constraint_is_zero_when_alignments_match(self):
        rng = np.random.default_rng(36)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)
        (bundle,) = fu.attention_maps([utt], model, fu.FusionMode.CONSTRAINT)
        substituted = dc.mse(
            dc.constant(bundle.label_guided), dc.constant(bundle.label_guided)
        )
        assert substituted.value.array[0, 0] == 0.0

    def test_bundle_invariants_on_random_forwards(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            model = tiny_model(rng)
            utt = tiny_utterance(rng, model)
            (bundle,) = fu.attention_maps([utt], model, fu.FusionMode.CONSTRAINT)
            c = model["labels.text"].value.rows
            assert np.abs(bundle.label_token.array).max() <= 1.0 + 1e-12
            assert np.abs(bundle.label_frame.array).max() <= 1.0 + 1e-12
            assert np.abs(bundle.vanilla.array.sum(axis=1) - 1.0).max() <= 1e-9
            assert np.abs(bundle.label_guided.array).max() <= c + 1e-9

    @pytest.mark.parametrize("normalize", [False, True])
    def test_attention_maps_are_the_maps_forward_scores(self, normalize):
        rng = np.random.default_rng(49)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)
        mode = fu.FusionMode.CONSTRAINT
        (b,) = fu.forward([utt], model, mode, normalize_label_attention=normalize).breakdowns
        (maps,) = fu.attention_maps([utt], model, mode, normalize_label_attention=normalize)
        constraint = dc.mse(dc.constant(maps.label_guided), dc.constant(maps.vanilla))
        guides = [fu.guidance_loss(dc.constant(profile), utt.label)
                  for profile in (maps.label_token, maps.label_frame)]
        recomputed = [_scalar(node) for node in (constraint, *guides)]
        assert recomputed == [b.constraint, b.guide_text, b.guide_speech]

    def test_only_vanilla_reduces_to_label_free_pass(self):
        # Separately coded pass with no label machinery at all.
        rng = np.random.default_rng(38)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)

        from labelfuse.encoders import speech_encode, text_encode

        h_text = text_encode(utt.text_tokens, model)
        h_speech = speech_encode(utt.frame_codes, model)
        scores = dc.matmul(h_text, dc.transpose(dc.matmul(h_speech, model["fusion.cross_map"])))
        align = dc.row_softmax(scores)
        merged = dc.concat_cols(h_text, dc.matmul(align, h_speech))
        pooled = dc.pool(merged, "max")
        logits = dc.add(dc.matmul(pooled, model["fusion.classifier_w"]),
                        model["fusion.classifier_b"])
        plain_loss = dc.cross_entropy(logits, utt.label).value.array[0, 0]

        result = fu.forward([utt], model, fu.FusionMode.ONLY_VANILLA, weights=(1.0, 0.0, 0.0, 0.0))
        assert abs(result.breakdowns[0].total - plain_loss) <= 1e-12
        assert result.logits.value.allclose(logits.value, atol=1e-12)

    def test_normalize_label_attention_switch(self):
        rng = np.random.default_rng(39)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)
        (raw,) = fu.attention_maps([utt], model, fu.FusionMode.ONLY_LABEL)
        (normed,) = fu.attention_maps([utt], model, fu.FusionMode.ONLY_LABEL,
                                      normalize_label_attention=True)
        rows = normed.label_guided.array.sum(axis=1)
        assert np.abs(rows - 1.0).max() <= 1e-9
        assert raw.label_guided != normed.label_guided

    def test_predict_logits_matches_forward(self):
        rng = np.random.default_rng(40)
        for normalize in (False, True):
            for mode in fu.FusionMode:
                model = tiny_model(rng)
                utt = tiny_utterance(rng, model)
                via_forward = fu.forward(
                    [utt], model, mode, normalize_label_attention=normalize
                ).logits.value
                via_predict = fu.predict_logits(
                    utt, model, mode, normalize_label_attention=normalize
                )
                assert via_forward == via_predict


class TestBreakdown:
    """Both passes report the five train-log loss columns; the root is their total."""

    def test_fields_are_the_log_columns(self):
        names = [f.name for f in dataclasses.fields(fu.LossBreakdown)]
        assert ["loss_" + name for name in names] == [
            f.name for f in dataclasses.fields(EpochRecord) if f.name.startswith("loss_")
        ]

    @pytest.mark.parametrize("modality", ["text", "speech"])
    def test_tower_reports_zero_for_missing_terms(self, modality):
        rng = np.random.default_rng(47)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)
        result = fu.unimodal_forward([utt], modality, model)
        (b,) = result.breakdowns
        own, other = (b.guide_text, b.guide_speech) if modality == "text" else (
            b.guide_speech, b.guide_text)
        assert b.constraint == 0.0
        assert other == 0.0
        assert own > 0.0
        assert b.total == result.loss.value.array[0, 0]
        assert abs(b.total - (b.main + 0.2 * own)) <= 1e-12

    @pytest.mark.parametrize("mode", list(fu.FusionMode))
    def test_multimodal_total_is_the_loss_node(self, mode):
        rng = np.random.default_rng(48)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)
        result = fu.forward([utt], model, mode)
        (b,) = result.breakdowns
        assert b.total == result.loss.value.array[0, 0]
        assert min(b.main, b.guide_text, b.guide_speech) > 0.0


class TestUnimodalForward:
    def test_zero_guidance_reduces_to_plain_classifier(self):
        rng = np.random.default_rng(41)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)
        result = fu.unimodal_forward([utt], "text", model, weights=(1.0, 0.5, 0.0, 0.0))
        assert abs(result.loss.value.array[0, 0] - result.breakdowns[0].main) <= 1e-12

    def test_logits_shape(self):
        rng = np.random.default_rng(42)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)
        for modality in ("text", "speech"):
            result = fu.unimodal_forward([utt], modality, model)
            assert result.logits.value.shape == (1, model["labels.text"].value.rows)

    def test_unknown_modality(self):
        rng = np.random.default_rng(43)
        model = tiny_model(rng)
        with pytest.raises(ValueError):
            fu.unimodal_forward([tiny_utterance(rng, model)], "video", model)

    def test_unimodal_logits_helper_agrees(self):
        rng = np.random.default_rng(44)
        model = tiny_model(rng)
        utt = tiny_utterance(rng, model)
        for modality in ("text", "speech"):
            assert fu.unimodal_logits(utt, modality, model) == fu.unimodal_forward(
                [utt], modality, model
            ).logits.value

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

    A prediction builds at most 15. normalize_label_attention adds its one
    row softmax on top.
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
            ] + [non_leaf_nodes(fu._fused_pass(batch[:1], model, mode, normalize, all_maps=False)[0])]
            for normalize in (False, True)
        }
        one, eight, predict = counts[False]
        assert one == eight <= 25
        assert predict <= 15
        assert counts[True][0] == counts[True][1] in (one, one + 1)
        assert counts[True][2] in (predict, predict + 1)

    @pytest.mark.parametrize("modality", ["text", "speech"])
    def test_tower(self, modality):
        rng = np.random.default_rng(51)
        model = tiny_model(rng)
        batch = self.batch(rng, model, 8)
        one, eight = (non_leaf_nodes(fu.unimodal_forward(utts, modality, model).loss)
                      for utts in (batch[:1], batch))
        predict = fu._tower(batch[:1], modality, model)[2]
        assert one == eight <= 25
        assert non_leaf_nodes(predict) <= 15


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


def terms(result):
    assert result.terms.tolist() == [list(dataclasses.astuple(b)) for b in result.breakdowns]
    return result.terms


def relative_gap(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


class TestBatch:
    """A batch is one graph whose terms and gradients are those of its utterances."""

    @pytest.mark.parametrize("name", list(PARENT_BREAKDOWNS))
    def test_batch_of_one_matches_the_per_utterance_graph(self, name):
        corpus, configs = batch_setup()
        model = tr.build_model(corpus, configs[name])
        for utt, want in zip(corpus.utterances, PARENT_BREAKDOWNS[name]):
            got = terms(tr._batch_loss([utt], model, configs[name]))[0]
            assert np.abs(got - np.array(want)).max() <= 1e-12

    @pytest.mark.parametrize("name", list(PARENT_BREAKDOWNS))
    def test_batch_is_the_sum_of_its_batches_of_one(self, name):
        corpus, configs = batch_setup()
        config = configs[name]
        batch = corpus.utterances[:8]
        assert len({len(u.text_tokens) for u in batch}) > 1
        assert len({len(u.frame_codes) for u in batch}) > 1

        model = tr.build_model(corpus, config)
        whole = tr._batch_loss(batch, model, config)
        dc.backward(whole.loss)
        batch_grads = {n: node.grad.array for n, node in model.items() if node.grad is not None}

        for node in model.values():
            node.zero_grad()
        singles = []
        for utt in batch:  # leaf gradients accumulate over the eight backward passes
            single = tr._batch_loss([utt], model, config)
            dc.backward(single.loss)
            singles.append(terms(single)[0])
        summed_grads = {n: node.grad.array for n, node in model.items() if node.grad is not None}

        assert relative_gap(terms(whole), np.array(singles)) <= 1e-12
        total = whole.loss.value.array[0, 0]
        assert abs(total - sum(row[-1] for row in singles)) <= 1e-12 * abs(total)
        assert batch_grads.keys() == summed_grads.keys()
        for n, grad in summed_grads.items():
            assert relative_gap(batch_grads[n], grad) <= 1e-12, n

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
        assert relative_gap(terms(after)[:4], terms(before)) <= 1e-12
        assert relative_gap(after.logits.value.array[:4], before.logits.value.array) <= 1e-12

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
            assert np.isfinite(terms(result)).all()
            assert all(np.isfinite(node.grad.array).all() for node in model.values()
                       if node.grad is not None)
            bundles = fu.attention_maps(batch, model, mode, normalize_label_attention=normalize)
            for utt, bundle in zip(batch, bundles):
                shape = (len(utt.text_tokens), len(utt.frame_codes))
                assert bundle.vanilla.shape == bundle.label_guided.shape == shape
                assert np.abs(bundle.vanilla.array.sum(axis=1) - 1.0).max() <= 1e-12
                (alone,) = fu.attention_maps([utt], model, mode, normalize_label_attention=normalize)
                for got, want in zip(vars(bundle).values(), vars(alone).values()):
                    assert got.allclose(want, atol=1e-12)
