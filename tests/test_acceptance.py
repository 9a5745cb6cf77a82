"""Acceptance suite.

One test per criterion; each prints a single PASS line once its assertions
hold (run with -s or look at the captured output). The slow synthetic-task
criteria (4 and 5) train real models and dominate the runtime; their
artifacts are archived under reports/acceptance/ at the repo root.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from labelfuse import corpus as cp
from labelfuse import diffcore as dc
from labelfuse import evalkit as ev
from labelfuse import fusion as fu
from labelfuse import labelkit as lk
from labelfuse import trainer as tr

ARTIFACT_DIR = Path(__file__).resolve().parent.parent / "reports" / "acceptance"

FD_TOL = 1e-4
ORACLE_TOL = 1e-12
PAPER_WEIGHTS = (1.0, 0.5, 0.2, 0.2)


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def archive(name: str, lines) -> Path:
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    path = ARTIFACT_DIR / name
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


# -----------------------------------------------------------------------
# Criterion 1: gradient suite, every op and the complete objective
# -----------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    start = time.time()
    reports = dc.run_op_grad_suite(probes_per_op=100, seed=0, step=1e-5)
    assert len(reports) >= 9
    for rep in reports:
        assert rep.max_relative_error <= FD_TOL, rep
        assert rep.probe_count >= 100

    for mode in fu.FusionMode:
        for seed in (0, 1, 2):
            rep = fu.full_loss_grad_check(mode, seed=seed, step=1e-5, weights=PAPER_WEIGHTS)
            assert rep.max_relative_error <= FD_TOL, rep
            assert rep.probe_count >= 100
    elapsed = time.time() - start
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    report(1, f"all ops and 4 fusion-mode objectives within {FD_TOL:g} in {elapsed:.1f}s")


# -----------------------------------------------------------------------
# Criterion 2: oracle equivalence
# -----------------------------------------------------------------------


def brute_force_tfidf(per_class, k):
    n_classes = len(per_class)
    class_counts = []
    for sequences in per_class:
        counts = {}
        for seq in sequences:
            for sym in seq:
                counts[sym] = counts.get(sym, 0) + 1
        class_counts.append(counts)
    df = {}
    for counts in class_counts:
        for sym in counts:
            df[sym] = df.get(sym, 0) + 1
    out = []
    for counts in class_counts:
        total = sum(counts.values())
        scored = [
            (sym, (count / total) * (math.log((1 + n_classes) / (1 + df[sym])) + 1.0))
            for sym, count in counts.items()
        ]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        out.append(tuple(scored[:k]))
    return tuple(out)


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(2024)

    # tf-idf against a brute-force oracle on 50 random corpora.
    for _ in range(50):
        vocab = int(rng.integers(10, 31))
        per_class = [
            [
                [int(s) for s in rng.integers(0, vocab, size=rng.integers(2, 12))]
                for _ in range(int(rng.integers(1, 13)))
            ]
            for _ in range(4)
        ]
        k = int(rng.integers(1, 9))
        assert lk.tfidf_topk(per_class, k).per_class == brute_force_tfidf(per_class, k)

    # Scalar-loop recomputations for the attention algebra, 100 instances.
    for _ in range(100):
        l_t, l_s, c, d = (int(rng.integers(2, 7)) for _ in range(4))
        d += 1  # width >= 3, keeps random rows safely away from zero norm
        h_t = rng.normal(size=(l_t, d))
        h_s = rng.normal(size=(l_s, d))
        cmap = rng.normal(size=(d, d))

        got_cos = dc.cosine_scores(dc.constant(h_t), dc.constant(h_s)).value
        for i in range(l_t):
            for j in range(l_s):
                dot = sum(h_t[i, e] * h_s[j, e] for e in range(d))
                na = math.sqrt(sum(h_t[i, e] ** 2 for e in range(d)))
                nb = math.sqrt(sum(h_s[j, e] ** 2 for e in range(d)))
                assert abs(got_cos[i, j] - dot / (na * nb)) <= ORACLE_TOL

        text, speech = dc.Segments((l_t,)), dc.Segments((l_s,))
        got_vanilla = dc.bilinear_softmax(
            dc.constant(h_t), dc.constant(h_s), dc.constant(cmap), text, speech
        ).value
        projected = [
            [sum(h_s[j, e] * cmap[e, f] for e in range(d)) for f in range(d)]
            for j in range(l_s)
        ]
        for i in range(l_t):
            scores = [
                sum(h_t[i, f] * projected[j][f] for f in range(d)) for j in range(l_s)
            ]
            m = max(scores)
            exps = [math.exp(s - m) for s in scores]
            total = sum(exps)
            for j in range(l_s):
                assert abs(got_vanilla[i, j] - exps[j] / total) <= ORACLE_TOL

        g_t = rng.normal(size=(l_t, c))
        g_s = rng.normal(size=(l_s, c))
        got_guided = dc.paired_scores(dc.constant(g_t), dc.constant(g_s), text, speech).value
        weights = rng.normal(size=(l_t, l_s))
        got_aligned = dc.paired_mix(dc.constant(weights), dc.constant(h_s), text, speech).value
        for i in range(l_t):
            for j in range(l_s):
                acc = sum(g_t[i, k] * g_s[j, k] for k in range(c))
                assert abs(got_guided[i, j] - acc) <= ORACLE_TOL
            for e in range(d):
                acc = sum(weights[i, j] * h_s[j, e] for j in range(l_s))
                assert abs(got_aligned[i, e] - acc) <= ORACLE_TOL

    # WA/UA against scalar loops on 100 random prediction vectors.
    for _ in range(100):
        classes = int(rng.integers(2, 6))
        n = int(rng.integers(classes, 50))
        labels = [int(v) for v in rng.integers(0, classes, size=n)]
        labels[:classes] = list(range(classes))
        predictions = [int(v) for v in rng.integers(0, classes, size=n)]
        confusion = np.zeros((classes, classes), dtype=np.int64)
        for y, p in zip(labels, predictions):
            confusion[y, p] += 1
        result = ev.result_from_confusion(confusion)
        correct = sum(1 for y, p in zip(labels, predictions) if y == p)
        assert abs(result.weighted_accuracy - correct / n) <= ORACLE_TOL
        recalls = []
        for cls in range(classes):
            members = [i for i, y in enumerate(labels) if y == cls]
            if members:
                recalls.append(
                    sum(1 for i in members if predictions[i] == cls) / len(members)
                )
        assert abs(result.unweighted_accuracy - sum(recalls) / len(recalls)) <= ORACLE_TOL

    report(2, "tfidf (50 corpora) and attention/metric algebra (100 instances) match oracles")


# -----------------------------------------------------------------------
# Criterion 3: structural invariants on 1000 random forwards
# -----------------------------------------------------------------------


def test_criterion_3_structural_invariants():
    rng = np.random.default_rng(7)
    modes = list(fu.FusionMode)
    for trial in range(1000):
        c = int(rng.integers(2, 6))
        dim = int(rng.integers(3, 9))
        vocab_text, vocab_speech = 12, 14
        labels = (
            rng.normal(0, 0.5, size=(c, dim)),
            rng.normal(0, 0.5, size=(c, dim)),
        )
        dims = {
            "vocab_text": vocab_text,
            "vocab_speech": vocab_speech,
            "text_dim": dim,
            "speech_dim": dim,
            "classes": c,
        }
        seed = int(rng.integers(1 << 30))
        model = fu.init_model(dims, seed, lambda embedding, codebook: labels, True)
        utt = cp.Utterance(
            tuple(int(t) for t in rng.integers(0, vocab_text, size=rng.integers(1, 6))),
            tuple(int(s) for s in rng.integers(0, vocab_speech, size=rng.integers(1, 8))),
            int(rng.integers(0, c)),
        )
        mode = modes[trial % len(modes)]
        result = fu.forward([utt], model, mode, PAPER_WEIGHTS)
        (bundle,) = fu.attention_maps([utt], model, mode)

        assert np.abs(bundle.label_token).max() <= 1.0 + 1e-12
        assert np.abs(bundle.label_frame).max() <= 1.0 + 1e-12
        assert np.abs(bundle.vanilla.sum(axis=1) - 1.0).max() <= 1e-9
        assert np.abs(bundle.label_guided).max() <= c + 1e-9

        main, constraint, guide_text, guide_speech, total = result.terms[0]
        recomputed = ((1.0 * main + 0.5 * constraint) + 0.2 * guide_text) + 0.2 * guide_speech
        assert abs(total - recomputed) <= 1e-12

        guided = dc.constant(bundle.label_guided)
        rows, cols = (dc.Segments((n,)) for n in bundle.label_guided.shape)
        substituted = dc.mse(guided, guided, rows, cols).value[0, 0]
        assert substituted == 0.0
    report(3, "attention bounds, row sums, substitution zero, and weighted totals on 1000 forwards")


# -----------------------------------------------------------------------
# Criterion 4: synthetic learnability and attention placement
# -----------------------------------------------------------------------


def planted_background_gap(model, corpus, utterances, modality):
    planted_vals, background_vals = [], []
    bundles = fu.attention_maps(utterances, model, fu.FusionMode.CONSTRAINT)
    for utt, bundle in zip(utterances, bundles):
        avg_text = fu.class_averaged_attention(bundle.label_token)
        avg_speech = fu.class_averaged_attention(bundle.label_frame)
        if modality == "text":
            values, symbols = avg_text, utt.text_tokens
            planted = set(corpus.planted_tokens[utt.label])
        else:
            values, symbols = avg_speech, utt.frame_codes
            planted = set(corpus.planted_codes[utt.label])
        for sym, val in zip(symbols, values):
            (planted_vals if sym in planted else background_vals).append(val)
    return float(np.mean(planted_vals)), float(np.mean(background_vals))


@pytest.mark.slow
def test_criterion_4_synthetic_learnability(tmp_path):
    start = time.time()
    spec = cp.CorpusSpec(seed=0)  # c=4, salience 0.3 defaults
    assert spec.classes == 4 and spec.salience_prob == 0.3
    corpus = cp.generate(spec, 1000)
    train_c, held_c = cp.split(corpus, 0.8, seed=0)  # 802 / 198 after per-class ceil

    config = tr.TrainConfig(seed=0)  # defaults: 50 epochs, constraint, K 9/100
    assert config.epochs == 50
    assert config.fusion_mode == "constraint"
    assert (config.top_k_text, config.top_k_speech) == (9, 100)

    model, log, _ = tr.train(train_c, held_c, config)
    elapsed = time.time() - start
    assert elapsed < 600.0, f"training took {elapsed:.0f}s"

    best_ua = max(r.heldout_ua for r in log.records)
    final_ua = log.records[-1].heldout_ua
    assert best_ua >= 0.90

    gaps = {}
    for modality in ("text", "speech"):
        planted, background = planted_background_gap(model, corpus, held_c.utterances, modality)
        assert planted > background, (
            f"{modality}: planted mean {planted:.4f} not above background {background:.4f}"
        )
        gaps[modality] = (planted, background)

    # Exported tables carry the same values and markers (export consistency).
    probe = held_c.utterances[0]
    paths = ev.export_attention(
        fu.attention_maps([probe], model, fu.FusionMode.CONSTRAINT)[0], probe,
        corpus.planted_tokens[probe.label], corpus.planted_codes[probe.label],
        tmp_path / "attention",
    )
    assert len(paths) == 4

    lines = ["metric,value", f"final_heldout_ua,{final_ua:.6f}", f"best_heldout_ua,{best_ua:.6f}"]
    for modality, (planted, background) in gaps.items():
        lines.append(f"{modality}_planted_mean,{planted:.6f}")
        lines.append(f"{modality}_background_mean,{background:.6f}")
    archive("criterion4_summary.csv", lines)
    archive("criterion4_train_log.csv", log.to_lines())
    report(
        4,
        f"heldout UA {final_ua:.3f} in {elapsed:.0f}s; planted>background gaps "
        f"text {gaps['text'][0]-gaps['text'][1]:+.4f}, "
        f"speech {gaps['speech'][0]-gaps['speech'][1]:+.4f}",
    )


# -----------------------------------------------------------------------
# Criterion 5: ablation harness structure and guidance direction
# -----------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_5_ablation_harness():
    # Desk-scale ablation task: smaller vocab and shorter sequences than the
    # learnability task so 55 training runs stay tractable; epochs chosen so
    # every condition saturates (direction is compared at convergence).
    spec = cp.CorpusSpec(
        classes=4, vocab_text=60, vocab_speech=80, text_len=(8, 16), speech_len=(16, 40),
        salient_per_class=4, salience_prob=0.3, seed=0,
    )
    base = tr.TrainConfig(epochs=20, top_k_speech=40, seed=0)
    seeds = [0, 1, 2, 3, 4]

    conditions = {}
    conditions.update(ev.fusion_mode_conditions(base))
    conditions.update(ev.label_init_conditions(base))
    conditions["guidance-off"] = ev.guidance_conditions(base)["guidance-off"]

    report_obj = ev.run_ablation(conditions, spec, 300, 0.8, seeds)

    mode_names = {"constraint", "sum", "only-label", "only-vanilla"}
    init_names = {
        "text-init-random", "text-init-label-words", "text-init-tfidf",
        "speech-init-random", "speech-init-text-embedding", "speech-init-codebook",
    }
    got_names = {cond.name for cond in report_obj.conditions}
    assert mode_names <= got_names
    assert init_names <= got_names
    for cond in report_obj.conditions:
        assert not cond.failures, f"{cond.name} diverged: {cond.failures}"
        assert len(cond.per_seed) == len(seeds)

    guided_ua = report_obj.condition("constraint").mean_ua
    baseline_ua = report_obj.condition("guidance-off").mean_ua
    assert guided_ua >= baseline_ua, (
        f"guidance-enabled mean UA {guided_ua:.4f} below baseline {baseline_ua:.4f}"
    )

    lines = report_obj.to_lines()
    lines.append(f"# seeds: {','.join(str(s) for s in seeds)}")
    lines.append(f"# guidance-enabled condition: constraint (mu {base.loss_weights})")
    archive("criterion5_ablation.csv", lines)
    report(
        5,
        f"structure (4 modes + 6 inits x 5 seeds) emitted; guidance mean UA "
        f"{guided_ua:.4f} >= baseline {baseline_ua:.4f}",
    )


# -----------------------------------------------------------------------
# Criterion 6: determinism and persistence
# -----------------------------------------------------------------------


def test_criterion_6_determinism_and_persistence(tmp_path):
    spec = cp.CorpusSpec(
        classes=3, vocab_text=30, vocab_speech=40, text_len=(4, 8), speech_len=(6, 12),
        salient_per_class=3, salience_prob=0.4, seed=11,
    )
    corpus = cp.generate(spec, 60)
    train_c, held_c = cp.split(corpus, 0.7, seed=11)
    config = tr.TrainConfig(
        epochs=4, batch_size=8, text_dim=8, speech_dim=8, top_k_text=3, top_k_speech=5, seed=3
    )

    model_a, log_a, ckpt_a = tr.train(train_c, held_c, config)
    model_b, log_b, ckpt_b = tr.train(train_c, held_c, config)
    assert log_a.records == log_b.records
    path_a, path_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    tr.save_checkpoint(path_a, ckpt_a)
    tr.save_checkpoint(path_b, ckpt_b)
    assert path_a.read_bytes() == path_b.read_bytes()

    reloaded = tr.load_checkpoint(path_a)
    restored = tr.model_from_checkpoint(reloaded)
    probe = held_c.utterances[0]
    mode = fu.FusionMode(config.fusion_mode)
    logits_before = fu.forward([probe], model_a, mode, config.loss_weights).logits.value
    logits_after = fu.forward([probe], restored, mode, config.loss_weights).logits.value
    assert np.array_equal(logits_before, logits_after)

    half = replace(config, epochs=2)
    _, _, ckpt_half = tr.train(train_c, held_c, half)
    half_path = tmp_path / "half.ckpt"
    tr.save_checkpoint(half_path, ckpt_half)
    model_res, log_res, ckpt_res = tr.train(
        train_c, held_c, config, resume_from=tr.load_checkpoint(half_path)
    )
    assert log_res.records == log_a.records
    res_path = tmp_path / "res.ckpt"
    tr.save_checkpoint(res_path, ckpt_res)
    assert res_path.read_bytes() == path_a.read_bytes()
    report(6, "bitwise-identical logs/checkpoints, probe-logit round trip, resume == uninterrupted")


# -----------------------------------------------------------------------
# Criterion 7: score fusion equals the summed-logits oracle
# -----------------------------------------------------------------------


def test_criterion_7_score_fusion_oracle():
    rng = np.random.default_rng(9)
    for _ in range(200):
        c = int(rng.integers(2, 6))
        a = rng.normal(size=(1, c))
        b = rng.normal(size=(1, c))
        got = fu.score_fusion(a, b)
        sums = [a[0, k] + b[0, k] for k in range(c)]
        best = 0
        for k in range(1, c):
            if sums[k] > sums[best]:
                best = k
        assert got == best

    spec = cp.CorpusSpec(
        classes=3, vocab_text=30, vocab_speech=40, text_len=(4, 8), speech_len=(6, 12),
        salient_per_class=3, salience_prob=0.4, seed=5,
    )
    corpus = cp.generate(spec, 60)
    train_c, held_c = cp.split(corpus, 0.7, seed=5)
    base = tr.TrainConfig(
        epochs=2, batch_size=8, text_dim=8, speech_dim=8, top_k_text=3, top_k_speech=5, seed=2
    )
    text_model, _, _ = tr.train(train_c, held_c, replace(base, modality="text"))
    speech_model, _, _ = tr.train(train_c, held_c, replace(base, modality="speech"))
    predictor = ev.score_fusion_predictor(text_model, speech_model)
    for utt in held_c.utterances:
        summed = (
            fu.unimodal_logits(utt, "text", text_model)[0]
            + fu.unimodal_logits(utt, "speech", speech_model)[0]
        )
        assert predictor(utt) == int(np.argmax(summed))
    report(7, "score-fusion predictions equal argmax of summed unimodal logits")
