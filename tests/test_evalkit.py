"""Tests for metrics, the ablation/sweep harnesses, and attention export."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from labelfuse import corpus as cp
from labelfuse import evalkit as ev
from labelfuse import fusion as fu
from labelfuse import trainer as tr
from labelfuse.diffcore import Matrix
from labelfuse.errors import ConfigError, EvaluationError, ExtractionError, NonFiniteError


def make_corpus(labels, classes=2):
    spec = cp.CorpusSpec(
        classes=classes, vocab_text=20, vocab_speech=20, text_len=(1, 3),
        speech_len=(1, 3), salient_per_class=2, salience_prob=0.0, seed=0,
    )
    utts = tuple(cp.Utterance((1,), (1,), label) for label in labels)
    planted = tuple((k,) for k in range(classes))
    return cp.Corpus(spec, utts, planted, planted)


def fixed_predictor(predictions):
    queue = list(predictions)
    return lambda utt: queue.pop(0)


def tiny_setup(seed=5, n=40):
    spec = cp.CorpusSpec(
        classes=3, vocab_text=30, vocab_speech=40, text_len=(4, 8), speech_len=(6, 12),
        salient_per_class=3, salience_prob=0.4, seed=seed,
    )
    config = tr.TrainConfig(
        epochs=1, batch_size=8, text_dim=8, speech_dim=8, top_k_text=3, top_k_speech=5, seed=1
    )
    return spec, config


def zero_text_label_row_for_random_init(monkeypatch):
    """Runs with text_label_init="random" get a zero text-label row, which cannot be normalised."""
    original = tr.label_rows

    def patched(corpus, modality, mode, table, **kwargs):
        rows = original(corpus, modality, mode, table, **kwargs).array.copy()
        if modality == "text" and mode == "random":
            rows[0] = 0.0
        return Matrix(rows)

    monkeypatch.setattr(tr, "label_rows", patched)


class TestEvaluate:
    def test_three_of_four_correct(self):
        corpus = make_corpus([0, 0, 1, 1])
        result = ev.evaluate(fixed_predictor([0, 0, 1, 0]), corpus)
        assert result.weighted_accuracy == pytest.approx(0.75)

    def test_wa_differs_from_ua_on_imbalance(self):
        corpus = make_corpus([0, 0, 0, 1])
        result = ev.evaluate(fixed_predictor([0, 0, 0, 0]), corpus)
        assert result.weighted_accuracy == pytest.approx(0.75)
        assert result.unweighted_accuracy == pytest.approx(0.5)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            classes = int(rng.integers(2, 5))
            n = int(rng.integers(classes, 40))
            labels = [int(v) for v in rng.integers(0, classes, size=n)]
            labels[:classes] = list(range(classes))  # every class present
            predictions = [int(v) for v in rng.integers(0, classes, size=n)]
            result = ev.evaluate(fixed_predictor(predictions), make_corpus(labels, classes))

            correct = sum(1 for y, p in zip(labels, predictions) if y == p)
            assert result.weighted_accuracy == pytest.approx(correct / n, abs=1e-12)
            recalls = []
            for cls in range(classes):
                members = [i for i, y in enumerate(labels) if y == cls]
                if members:
                    hit = sum(1 for i in members if predictions[i] == cls)
                    recalls.append(hit / len(members))
            assert result.unweighted_accuracy == pytest.approx(
                sum(recalls) / len(recalls), abs=1e-12
            )

    def test_confusion_recomputes_metrics(self):
        corpus = make_corpus([0, 0, 1, 1])
        result = ev.evaluate(fixed_predictor([0, 1, 1, 1]), corpus)
        confusion = np.array(result.confusion)
        assert confusion.sum() == result.sample_count == 4
        assert np.trace(confusion) / 4 == pytest.approx(result.weighted_accuracy)

    def test_balanced_set_has_equal_wa_ua(self):
        rng = np.random.default_rng(14)
        labels = [0] * 10 + [1] * 10 + [2] * 10
        predictions = [int(v) for v in rng.integers(0, 3, size=30)]
        result = ev.evaluate(fixed_predictor(predictions), make_corpus(labels, classes=3))
        assert result.weighted_accuracy == pytest.approx(result.unweighted_accuracy, abs=1e-12)

    def test_order_invariant(self):
        labels = [0, 1, 0, 1, 1, 0]
        predictions = [0, 1, 1, 1, 0, 0]
        base = ev.evaluate(fixed_predictor(predictions), make_corpus(labels))
        perm = [3, 0, 5, 1, 4, 2]
        shuffled = ev.evaluate(
            fixed_predictor([predictions[i] for i in perm]),
            make_corpus([labels[i] for i in perm]),
        )
        assert base.weighted_accuracy == shuffled.weighted_accuracy
        assert base.unweighted_accuracy == shuffled.unweighted_accuracy

    def test_empty_corpus_rejected(self):
        corpus = make_corpus([0, 1])
        empty = cp.Corpus(corpus.spec, (), corpus.planted_tokens, corpus.planted_codes)
        with pytest.raises(EvaluationError):
            ev.evaluate(lambda utt: 0, empty)


class TestRunAblation:
    def test_single_condition_matches_direct_run(self):
        spec, config = tiny_setup()
        report = ev.run_ablation({"base": config}, spec, 40, 0.7, seeds=[3])
        corpus = cp.generate(replace(spec, seed=3), 40)
        train_c, held_c = cp.split(corpus, 0.7, seed=3)
        model, _, _ = tr.train(train_c, held_c, replace(config, seed=3))
        direct = ev.evaluate(tr.model_predictor(model, replace(config, seed=3)), held_c)
        cond = report.condition("base")
        assert cond.per_seed == ((3, direct),)

    def test_identical_conditions_identical_results(self):
        spec, config = tiny_setup()
        report = ev.run_ablation({"a": config, "b": config}, spec, 40, 0.7, seeds=[1, 2])
        assert report.condition("a").per_seed == tuple(
            (s, r) for s, r in report.condition("b").per_seed
        )

    def test_fusion_mode_conditions_enumerate_all_four(self):
        _, config = tiny_setup()
        conditions = ev.fusion_mode_conditions(config)
        assert set(conditions) == {"constraint", "sum", "only-label", "only-vanilla"}
        for name, cond in conditions.items():
            assert cond.fusion_mode == name

    def test_label_init_conditions_cover_both_modalities(self):
        _, config = tiny_setup()
        conditions = ev.label_init_conditions(config)
        assert set(conditions) == {
            "text-init-random", "text-init-label-words", "text-init-tfidf",
            "speech-init-random", "speech-init-text-embedding", "speech-init-codebook",
        }

    def test_guidance_conditions_disable_all_label_terms(self):
        _, config = tiny_setup()
        conditions = ev.guidance_conditions(config)
        off = conditions["guidance-off"]
        assert off.mu_constraint == off.mu_guide_text == off.mu_guide_speech == 0.0
        assert off.fusion_mode == "only-vanilla"
        on = conditions["guidance-on"]
        assert on.mu_guide_text > 0 and on.mu_guide_speech > 0

    def test_report_lines_include_means(self):
        spec, config = tiny_setup()
        report = ev.run_ablation({"base": config}, spec, 40, 0.7, seeds=[1])
        lines = report.to_lines()
        assert lines[0] == "condition,seed,wa,ua"
        assert any(line.startswith("base,mean,") for line in lines)

    def test_degenerate_run_recorded_and_grid_continues(self, monkeypatch):
        zero_text_label_row_for_random_init(monkeypatch)
        spec, config = tiny_setup()
        conditions = {"broken": replace(config, text_label_init="random"), "ok": config}
        report = ev.run_ablation(conditions, spec, 40, 0.7, seeds=[1, 2])
        broken, ok = report.condition("broken"), report.condition("ok")
        assert [seed for seed, _ in broken.failures] == [1, 2]
        assert all("near-zero norm" in message for _, message in broken.failures)
        assert [seed for seed, _ in ok.per_seed] == [1, 2]
        assert not ok.failures

    def test_all_failed_condition_reported_explicitly(self, monkeypatch):
        zero_text_label_row_for_random_init(monkeypatch)
        spec, config = tiny_setup()
        conditions = {"broken": replace(config, text_label_init="random"), "ok": config}
        report = ev.run_ablation(conditions, spec, 40, 0.7, seeds=[1])
        broken = report.condition("broken")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert broken.mean_wa is None and broken.mean_ua is None
            lines = report.to_lines()
        assert "broken,mean,all-failed,all-failed" in lines
        assert not any("nan" in line for line in lines)
        ok_mean = report.condition("ok").mean_wa
        assert any(line.startswith(f"ok,mean,{ok_mean:.12g},") for line in lines)

    def test_run_evaluates_only_the_final_model_on_heldout(self, monkeypatch):
        spec, config = tiny_setup()
        _, held_c = cp.split(cp.generate(replace(spec, seed=3), 40), 0.7, seed=3)
        evaluated = []
        original = ev.evaluate

        def counting(predict, corpus):
            evaluated.append(corpus)
            return original(predict, corpus)

        monkeypatch.setattr(ev, "evaluate", counting)
        ev.run_ablation({"base": replace(config, epochs=3)}, spec, 40, 0.7, seeds=[3], jobs=1)
        assert evaluated == [held_c]

    def test_final_evaluation_failure_is_last_epoch_divergence(self, monkeypatch):
        def exploding(model, config):
            def predict(utt):
                raise NonFiniteError("logits are not finite")
            return predict

        monkeypatch.setattr(tr, "model_predictor", exploding)
        spec, config = tiny_setup()
        report = ev.run_ablation({"base": replace(config, epochs=3)}, spec, 40, 0.7, seeds=[3],
                                 jobs=1)
        assert report.condition("base").failures == (
            (3, "training diverged at epoch 2, evaluation: logits are not finite"),
        )

    def test_zero_epochs_rejected_before_first_run(self, monkeypatch):
        monkeypatch.setattr(tr, "train", lambda *args: pytest.fail("a run started"))
        monkeypatch.setattr(tr, "fit", lambda *args: pytest.fail("a run started"))
        spec, config = tiny_setup()
        conditions = {"ok": config, "untrained": replace(config, epochs=0)}
        with pytest.raises(ConfigError, match="epochs"):
            ev.run_ablation(conditions, spec, 40, 0.7, seeds=[1])

    def test_repeated_seed_rejected_before_first_run(self, monkeypatch):
        # `--seeds 0,0,1` once trained seed 0 twice and counted it twice in each mean.
        monkeypatch.setattr(tr, "fit", lambda *args: pytest.fail("a run started"))
        spec, config = tiny_setup()
        with pytest.raises(ConfigError, match="^seeds must not repeat, got 0,1,0$"):
            ev.run_ablation({"base": config}, spec, 40, 0.7, seeds=[0, 1, 0], jobs=1)

    def test_requires_conditions_and_seeds(self):
        spec, config = tiny_setup()
        with pytest.raises(ConfigError):
            ev.run_ablation({}, spec, 40, 0.7, seeds=[1])
        with pytest.raises(ConfigError):
            ev.run_ablation({"base": config}, spec, 40, 0.7, seeds=[])


def benchmark_grid(config):
    """The 8 conditions of the benchmark's ablation workload."""
    conditions = ev.fusion_mode_conditions(config)
    conditions["text-init-label-words"] = replace(config, text_label_init="label-words")
    conditions["speech-init-text-embedding"] = replace(config, speech_label_init="text-embedding")
    conditions["text-only"] = replace(config, modality="text")
    conditions["speech-only"] = replace(config, modality="speech")
    return conditions


def fail_for_top_k(monkeypatch, failing):
    """Runs whose top_k_text is in `failing` raise ExtractionError("k=<value>")."""
    original = tr.label_rows

    def patched(corpus, modality, mode, table, *, top_k, **kwargs):
        if modality == "text" and top_k in failing:
            raise ExtractionError(f"k={top_k}")
        return original(corpus, modality, mode, table, top_k=top_k, **kwargs)

    monkeypatch.setattr(tr, "label_rows", patched)


class TestParallelGrid:
    """The report and any error are the same whatever the number of processes."""

    def test_benchmark_grid_scores_are_final_heldout_evaluations_of_train(self):
        spec, config = tiny_setup()
        conditions = benchmark_grid(config)
        report = ev.run_ablation(conditions, spec, 40, 0.7, seeds=[1, 2], jobs=1)
        for name, base in conditions.items():
            expected = []
            for seed in (1, 2):
                train_c, held_c = cp.split(cp.generate(replace(spec, seed=seed), 40), 0.7, seed)
                run_config = replace(base, seed=seed)
                model = tr.train(train_c, held_c, run_config)[0]
                expected.append((seed, ev.evaluate(tr.model_predictor(model, run_config), held_c)))
            assert report.condition(name).per_seed == tuple(expected), name

    def test_benchmark_grid_identical_for_any_jobs(self):
        spec, config = tiny_setup()
        conditions = benchmark_grid(config)
        reports = [ev.run_ablation(conditions, spec, 40, 0.7, seeds=[1, 2], jobs=jobs)
                   for jobs in (1, 2, 3)]
        assert reports[0].to_lines() == reports[1].to_lines() == reports[2].to_lines()
        assert reports[0] == reports[1] == reports[2]
        assert len(reports[0].to_lines()) == 1 + 8 * 3

    def test_diverged_runs_identical_for_any_jobs(self, monkeypatch):
        zero_text_label_row_for_random_init(monkeypatch)
        spec, config = tiny_setup()
        conditions = {"broken": replace(config, text_label_init="random"), "ok": config,
                      "sum": replace(config, fusion_mode="sum")}
        lines = [ev.run_ablation(conditions, spec, 40, 0.7, seeds=[1, 2], jobs=jobs).to_lines()
                 for jobs in (1, 2, 3)]
        assert lines[0] == lines[1] == lines[2]
        assert sum(",diverged," in line for line in lines[0]) == 2

    @pytest.mark.parametrize("failing, first", [({2, 3}, 2), ({3, 4}, 3), ({4}, 4), ({1, 4}, 1)])
    def test_first_error_in_serial_order_for_any_jobs(self, monkeypatch, failing, first):
        # Tasks run in condition order k=1..4 for one seed; with 2 or 3 jobs
        # the failing runs are split between this process and its workers.
        fail_for_top_k(monkeypatch, failing)
        spec, config = tiny_setup()
        conditions = {f"k={k}": replace(config, top_k_text=k) for k in (1, 2, 3, 4)}
        for jobs in (1, 2, 3):
            with pytest.raises(ExtractionError, match=f"^k={first}$"):
                ev.run_ablation(conditions, spec, 40, 0.7, seeds=[1], jobs=jobs)

    def test_configs_validated_before_first_run(self, monkeypatch):
        monkeypatch.setattr(tr, "train", lambda *args: pytest.fail("a run started"))
        monkeypatch.setattr(tr, "fit", lambda *args: pytest.fail("a run started"))
        spec, config = tiny_setup()
        conditions = {"ok": config, "bad": replace(config, fusion_mode="bogus")}
        for jobs in (1, 2):
            with pytest.raises(ConfigError, match="bogus"):
                ev.run_ablation(conditions, spec, 40, 0.7, seeds=[1], jobs=jobs)

    @pytest.mark.parametrize("jobs", [0, -1, 1.5, True, "2"])
    def test_invalid_jobs_rejected(self, jobs):
        spec, config = tiny_setup()
        with pytest.raises(ConfigError, match="jobs"):
            ev.run_ablation({"base": config}, spec, 40, 0.7, seeds=[1], jobs=jobs)


class TestSweepK:
    def test_single_value_matches_ablation(self):
        spec, config = tiny_setup()
        (_, cond), = ev.sweep_k([3], "text", config, spec, 40, 0.7, seeds=[2])
        report = ev.run_ablation(
            {"k": replace(config, top_k_text=3)}, spec, 40, 0.7, seeds=[2]
        )
        assert cond.mean_wa == report.condition("k").mean_wa
        assert cond.mean_ua == report.condition("k").mean_ua

    def test_row_count_matches_values(self):
        spec, config = tiny_setup()
        points = ev.sweep_k([2, 3, 4], "text", config, spec, 40, 0.7, seeds=[1])
        assert [k for k, _ in points] == [2, 3, 4]
        lines = ev.sweep_to_lines(points)
        assert len(lines) == 4

    def test_output_identical_for_any_jobs(self):
        spec, config = tiny_setup()
        lines = [
            ev.sweep_to_lines(ev.sweep_k([2, 4, 2], "text", config, spec, 40, 0.7,
                                         seeds=[1, 2], jobs=jobs))
            for jobs in (1, 2, 3)
        ]
        assert lines[0] == lines[1] == lines[2]
        assert [line.split(",")[0] for line in lines[0]] == ["k", "2", "4", "2"]
        assert lines[0][1] == lines[0][3]

    def test_matches_one_run_per_value(self):
        spec, config = tiny_setup()
        points = ev.sweep_k([2, 4], "text", config, spec, 40, 0.7, seeds=[1, 2])
        for k, cond in points:
            report = ev.run_ablation({"k": replace(config, top_k_text=k)}, spec, 40, 0.7,
                                     seeds=[1, 2], jobs=1)
            assert cond.per_seed == report.condition("k").per_seed

    def test_all_failed_point_reported_explicitly(self):
        point = (3, ev.ConditionResult("k=3", per_seed=(), failures=()))
        assert ev.sweep_to_lines([point])[1] == "3,all-failed,all-failed"

    def test_k_beyond_vocabulary_rejected(self):
        spec, config = tiny_setup()
        with pytest.raises(ConfigError, match="top-k"):
            ev.sweep_k([31], "text", config, spec, 40, 0.7, seeds=[1])
        with pytest.raises(ConfigError, match="top-k"):
            ev.sweep_k([0], "speech", config, spec, 40, 0.7, seeds=[1])

    def test_zero_epochs_rejected(self):
        spec, config = tiny_setup()
        with pytest.raises(ConfigError, match="epochs"):
            ev.sweep_k([2, 3], "text", replace(config, epochs=0), spec, 40, 0.7, seeds=[1])

    def test_unknown_modality_rejected(self):
        spec, config = tiny_setup()
        with pytest.raises(ConfigError):
            ev.sweep_k([2], "video", config, spec, 40, 0.7, seeds=[1])


class TestScoreFusionPredictor:
    def test_matches_summed_logits_argmax(self):
        spec, config = tiny_setup()
        corpus = cp.generate(spec, 40)
        train_c, held_c = cp.split(corpus, 0.7, seed=4)
        text_model, _, _ = tr.train(train_c, held_c, replace(config, modality="text"))
        speech_model, _, _ = tr.train(train_c, held_c, replace(config, modality="speech"))
        predictor = ev.score_fusion_predictor(text_model, speech_model)
        from labelfuse.fusion import unimodal_logits

        for utt in held_c.utterances:
            summed = (
                unimodal_logits(utt, "text", text_model).array[0]
                + unimodal_logits(utt, "speech", speech_model).array[0]
            )
            assert predictor(utt) == int(np.argmax(summed))


class TestExportAttention:
    def test_export_files_match_profiles(self, tmp_path):
        spec, config = tiny_setup()
        corpus = cp.generate(spec, 40)
        train_c, held_c = cp.split(corpus, 0.7, seed=4)
        model, _, _ = tr.train(train_c, held_c, config)
        utt = held_c.utterances[0]
        (bundle,) = fu.attention_maps([utt], model, fu.FusionMode(config.fusion_mode))
        paths = ev.export_attention(
            bundle,
            utt,
            corpus.planted_tokens[utt.label],
            corpus.planted_codes[utt.label],
            tmp_path / "attn",
        )
        assert len(paths) == 4
        avg_text = bundle.label_token.array.mean(axis=1)

        text_lines = (tmp_path / "attn_text.csv").read_text().splitlines()
        assert text_lines[0] == "position,symbol,attention,planted"
        assert len(text_lines) == 1 + len(utt.text_tokens)
        for pos, line in enumerate(text_lines[1:]):
            fields = line.split(",")
            assert int(fields[0]) == pos
            assert int(fields[1]) == utt.text_tokens[pos]
            assert float(fields[2]) == pytest.approx(avg_text[pos], abs=1e-9)

        speech_lines = (tmp_path / "attn_speech.csv").read_text().splitlines()
        assert len(speech_lines) == 1 + len(utt.frame_codes)

        svg = (tmp_path / "attn.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2

    def test_bundle_export_matches_matrices(self, tmp_path):
        spec, config = tiny_setup()
        corpus = cp.generate(spec, 40)
        train_c, held_c = cp.split(corpus, 0.7, seed=4)
        model, _, _ = tr.train(train_c, held_c, config)
        utt = held_c.utterances[0]
        (bundle,) = fu.attention_maps([utt], model, fu.FusionMode(config.fusion_mode))
        paths = ev.export_attention(bundle, utt, (), (), tmp_path / "full")
        assert str(tmp_path / "full_bundle.csv") in paths
        lines = (tmp_path / "full_bundle.csv").read_text().splitlines()
        assert lines[0] == "matrix,row,col,value"
        expected_rows = sum(
            m.rows * m.cols
            for m in (bundle.label_token, bundle.label_frame, bundle.vanilla, bundle.label_guided)
        )
        assert len(lines) == 1 + expected_rows
        name, r, c, value = lines[1].split(",")
        assert name == "label_token" and (r, c) == ("0", "0")
        assert float(value) == pytest.approx(bundle.label_token.array[0, 0], abs=1e-9)

    def test_flat_profile_exports_flat_curve(self, tmp_path):
        # A model with identical label rows gives a constant-per-position
        # profile only in degenerate cases; instead check export consistency
        # by exporting twice and comparing bytes.
        spec, config = tiny_setup()
        corpus = cp.generate(spec, 40)
        train_c, held_c = cp.split(corpus, 0.7, seed=4)
        model, _, _ = tr.train(train_c, held_c, replace(config, epochs=0))
        utt = held_c.utterances[1]
        (bundle,) = fu.attention_maps([utt], model, fu.FusionMode(config.fusion_mode))
        ev.export_attention(bundle, utt, (), (), tmp_path / "a")
        ev.export_attention(bundle, utt, (), (), tmp_path / "b")
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
        assert (tmp_path / "a_text.csv").read_bytes() == (tmp_path / "b_text.csv").read_bytes()
