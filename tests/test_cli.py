"""Tests for the command-line interface (in-process, via main)."""

import dataclasses
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from labelfuse import cli
from labelfuse import corpus as cp
from labelfuse import evalkit as ev
from labelfuse import trainer as tr
from labelfuse.errors import ConfigError, LabelFuseError
from labelfuse.valuetypes import field_types
from test_trainer import rewrite_manifest

SMALL_CORPUS = [
    "--classes", "3", "--vocab-text", "30", "--vocab-speech", "40",
    "--text-len-min", "4", "--text-len-max", "8",
    "--speech-len-min", "6", "--speech-len-max", "12",
    "--salient-per-class", "3", "--n", "40",
]
SMALL_TRAIN = [
    "--epochs", "1", "--text-dim", "8", "--speech-dim", "8",
    "--top-k-text", "3", "--top-k-speech", "5",
]


@pytest.fixture()
def out(tmp_path):
    return tmp_path / "out"


@pytest.fixture()
def corpus_file(out):
    rc = cli.main(["gen-corpus", "--out-dir", str(out), *SMALL_CORPUS])
    assert rc == 0
    return out / "corpus.txt"


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_unknown_flag_exits_2(self):
        assert cli.main(["gen-corpus", "--no-such-flag", "1"]) == 2

    def test_no_subcommand_exits_2(self):
        assert cli.main([]) == 2

    def test_unknown_config_key_exits_2(self, out, tmp_path, capsys):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"classes": 2, "frobnication": True}))
        rc = cli.main(["gen-corpus", "--out-dir", str(out), "--config", str(config)])
        assert rc == 2
        assert "frobnication" in capsys.readouterr().err

    def test_missing_required_option_exits_1(self, out):
        assert cli.main(["train", "--out-dir", str(out)]) == 1

    @pytest.mark.parametrize("flag", ["--learning-rate=inf", "--mu-main=nan"])
    def test_non_finite_float_exits_1_and_writes_nothing(self, corpus_file, tmp_path, capsys, flag):
        capsys.readouterr()
        run = tmp_path / "run"
        rc = cli.main(["train", "--out-dir", str(run), "--corpus-file", str(corpus_file),
                       *SMALL_TRAIN, flag])
        assert rc == 1
        field = flag[2:].split("=")[0].replace("-", "_")
        assert capsys.readouterr().err == f"error: {field} must be finite, got {flag[-3:]}\n"
        assert not run.exists()

    @pytest.mark.parametrize("value, message", [
        (2.0, "salience_prob must be within [0, 1]"),
        (math.nan, "salience_prob must be finite, got nan"),
    ])
    def test_bad_corpus_header_value_exits_1_with_its_line(self, corpus_file, tmp_path, capsys,
                                                           value, message):
        lines = corpus_file.read_text().splitlines()
        header = json.loads(lines[0])
        header["salience_prob"] = value
        corpus_file.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        capsys.readouterr()
        run = tmp_path / "run"
        rc = cli.main(["train", "--out-dir", str(run), "--corpus-file", str(corpus_file),
                       *SMALL_TRAIN])
        assert rc == 1
        assert capsys.readouterr().err == f"error: line 1: {message}\n"
        assert not run.exists()

    def test_config_nested_too_deeply_exits_1_and_writes_nothing(self, out, tmp_path, capsys):
        config = tmp_path / "deep.json"
        config.write_text("[" * 100000 + "]" * 100000)
        rc = cli.main(["gen-corpus", "--out-dir", str(out), "--config", str(config)])
        assert rc == 1
        assert one_error_line(capsys) == "error: config file is not valid JSON: nested too deeply\n"
        assert not out.exists()

    def test_validation_failure_exits_1(self, out, capsys):
        rc = cli.main(["gen-corpus", "--out-dir", str(out), "--salience-prob", "2.0"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestFilesystemErrors:
    """An unusable path gives a one-line error and exit 1, not a traceback."""

    def assert_one_line_error(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_directory_as_corpus_file_exits_1(self, out, tmp_path, capsys):
        rc = cli.main(["train", "--out-dir", str(out), "--corpus-file", str(tmp_path)])
        assert rc == 1
        self.assert_one_line_error(capsys)

    def test_directory_as_checkpoint_exits_1(self, out, corpus_file, tmp_path, capsys):
        capsys.readouterr()
        rc = cli.main([
            "evaluate", "--out-dir", str(out), "--checkpoint", str(tmp_path),
            "--corpus-file", str(corpus_file),
        ])
        assert rc == 1
        self.assert_one_line_error(capsys)

    def test_out_dir_is_regular_file_exits_1(self, corpus_file, tmp_path, capsys):
        capsys.readouterr()
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("x")
        rc = cli.main([
            "extract-labels", "--out-dir", str(blocker), "--corpus-file", str(corpus_file),
        ])
        assert rc == 1
        self.assert_one_line_error(capsys)


class TestFloatingPointWarnings:
    """A run whose values overflow raises no numpy warning; stderr holds at most its error."""

    DIVERGING = [*SMALL_TRAIN, "--learning-rate", "1e300"]

    def test_diverging_train_prints_only_its_error(self, corpus_file, tmp_path, capsys):
        capsys.readouterr()
        run = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["train", "--out-dir", str(run), "--corpus-file", str(corpus_file),
                           *self.DIVERGING])
        assert rc == 1
        assert caught == []
        assert one_error_line(capsys).startswith("error: training diverged at epoch 0")
        assert not run.exists()

    def test_diverging_ablate_prints_nothing(self, out, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["ablate", "--out-dir", str(out), "--seeds", "0,1", *SMALL_CORPUS,
                           *self.DIVERGING])
        assert rc == 0
        assert caught == []
        assert capsys.readouterr().err == ""


class TestGenCorpus:
    def test_writes_loadable_corpus(self, out, corpus_file):
        corpus = cp.load(corpus_file)
        assert len(corpus) == 40
        assert corpus.spec.classes == 3

    def test_writes_config_snapshot(self, out, corpus_file):
        snapshot = json.loads((out / "config" / "gen-corpus.json").read_text())
        assert snapshot["subcommand"] == "gen-corpus"
        assert snapshot["classes"] == 3
        assert snapshot["n"] == 40

    def test_snapshot_reproduces_run(self, out, corpus_file, tmp_path):
        first = corpus_file.read_bytes()
        other = tmp_path / "other"
        rc = cli.main([
            "gen-corpus", "--out-dir", str(other),
            "--config", str(out / "config" / "gen-corpus.json"),
            "--corpus-file", str(other / "corpus.txt"),
        ])
        assert rc == 0
        assert (other / "corpus.txt").read_bytes() == first

    def test_flags_override_config_file(self, out, tmp_path):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"classes": 2, "n": 10, "vocab_text": 30,
                                      "vocab_speech": 40, "salient_per_class": 3}))
        rc = cli.main([
            "gen-corpus", "--out-dir", str(out), "--config", str(config), "--n", "12",
        ])
        assert rc == 0
        assert len(cp.load(out / "corpus.txt")) == 12


class TestTrainEvaluate:
    def test_train_writes_checkpoint_and_log(self, out, corpus_file):
        rc = cli.main([
            "train", "--out-dir", str(out), "--corpus-file", str(corpus_file), *SMALL_TRAIN,
        ])
        assert rc == 0
        ckpt = tr.load_checkpoint(out / "checkpoints" / "model.ckpt")
        assert ckpt.epoch == 1
        log_lines = (out / "logs" / "train_log.csv").read_text().splitlines()
        assert len(log_lines) == 2

    def test_checkpoint_with_a_recorded_split_round_trips_byte_for_byte(self, out, corpus_file,
                                                                          tmp_path):
        assert cli.main(["train", "--out-dir", str(out), "--corpus-file", str(corpus_file),
                         *SMALL_TRAIN, "--split-seed", "7"]) == 0
        path, again = out / "checkpoints" / "model.ckpt", tmp_path / "again.ckpt"
        loaded = tr.load_checkpoint(path)
        assert loaded.split == {"train_fraction": 0.8, "split_seed": 7}
        tr.save_checkpoint(again, loaded)
        assert again.read_bytes() == path.read_bytes()

    def test_zero_epoch_train_writes_init_checkpoint(self, out, corpus_file):
        rc = cli.main([
            "train", "--out-dir", str(out), "--corpus-file", str(corpus_file),
            *SMALL_TRAIN[2:], "--epochs", "0",
        ])
        assert rc == 0
        ckpt = tr.load_checkpoint(out / "checkpoints" / "model.ckpt")
        assert ckpt.epoch == 0
        assert ckpt.log_records == ()

    def test_evaluate_from_checkpoint(self, out, corpus_file, capsys):
        assert cli.main([
            "train", "--out-dir", str(out), "--corpus-file", str(corpus_file), *SMALL_TRAIN,
        ]) == 0
        rc = cli.main([
            "evaluate", "--out-dir", str(out),
            "--checkpoint", str(out / "checkpoints" / "model.ckpt"),
            "--corpus-file", str(corpus_file),
        ])
        assert rc == 0
        report = (out / "reports" / "evaluation.csv").read_text().splitlines()
        assert report[0] == "metric,value"
        assert report[1].startswith("wa,")

    def test_evaluate_unknown_split_exits_1(self, out, corpus_file):
        assert cli.main([
            "train", "--out-dir", str(out), "--corpus-file", str(corpus_file), *SMALL_TRAIN,
        ]) == 0
        rc = cli.main([
            "evaluate", "--out-dir", str(out),
            "--checkpoint", str(out / "checkpoints" / "model.ckpt"),
            "--corpus-file", str(corpus_file), "--split", "bogus",
        ])
        assert rc == 1

    def test_evaluate_scores_the_split_the_checkpoint_was_trained_on(self, out, corpus_file,
                                                                       capsys):
        assert cli.main([
            "train", "--out-dir", str(out), "--corpus-file", str(corpus_file), *SMALL_TRAIN,
            "--split-seed", "7", "--train-fraction", "0.7",
        ]) == 0
        ckpt = out / "checkpoints" / "model.ckpt"
        assert tr.load_checkpoint(ckpt).split == {"train_fraction": 0.7, "split_seed": 7}
        last = (out / "logs" / "train_log.csv").read_text().splitlines()[-1].split(",")
        train_c, heldout_c = cp.split(cp.load(corpus_file), 0.7, 7)
        for split, part, ua in (("heldout", heldout_c, last[-1]), ("train", train_c, last[-3])):
            rc = cli.main(["evaluate", "--out-dir", str(out / split), "--checkpoint", str(ckpt),
                           "--corpus-file", str(corpus_file), "--split", split])
            assert rc == 0
            report = (out / split / "reports" / "evaluation.csv").read_text().splitlines()
            assert report[2] == f"ua,{ua}"
            assert report[3] == f"n,{len(part)}"
            snapshot = json.loads((out / split / "config" / "evaluate.json").read_text())
            assert (snapshot["train_fraction"], snapshot["split_seed"]) == (0.7, 7)
        # Repeating the recorded split is allowed; another one is refused before any output.
        assert cli.main(["evaluate", "--out-dir", str(out / "same"), "--checkpoint", str(ckpt),
                         "--corpus-file", str(corpus_file), "--split-seed", "7"]) == 0
        capsys.readouterr()
        for flag, value in (("--split-seed", "0"), ("--train-fraction", "0.8")):
            rc = cli.main(["evaluate", "--out-dir", str(out / "other"), "--checkpoint",
                           str(ckpt), "--corpus-file", str(corpus_file), flag, value])
            assert rc == 1
            assert "trained on" in one_error_line(capsys)
            assert not (out / "other").exists()

    def test_resume_trains_on_the_split_the_checkpoint_records(self, out, corpus_file, capsys):
        def train(name, epochs, *extra):
            return cli.main(["train", "--out-dir", str(out / name), "--corpus-file",
                             str(corpus_file), *SMALL_TRAIN[2:], "--epochs", str(epochs), *extra])

        assert train("full", 2, "--split-seed", "7") == 0
        assert train("half", 1, "--split-seed", "7") == 0
        half = str(out / "half" / "checkpoints" / "model.ckpt")
        assert train("resumed", 2, "--resume-from", half) == 0
        for path in ("checkpoints/model.ckpt", "logs/train_log.csv"):
            assert (out / "resumed" / path).read_bytes() == (out / "full" / path).read_bytes()
        snapshot = json.loads((out / "resumed" / "config" / "train.json").read_text())
        assert (snapshot["train_fraction"], snapshot["split_seed"]) == (0.8, 7)
        # Repeating the recorded split is allowed; another one is refused before any output.
        assert train("same", 2, "--resume-from", half, "--split-seed", "7") == 0
        capsys.readouterr()
        for flag, value in (("--split-seed", "0"), ("--train-fraction", "0.7")):
            assert train("other", 2, "--resume-from", half, flag, value) == 1
            assert "trained on" in one_error_line(capsys)
            assert not (out / "other").exists()

    def test_train_does_not_mutate_corpus_file(self, out, corpus_file):
        before = corpus_file.read_bytes()
        cli.main(["train", "--out-dir", str(out), "--corpus-file", str(corpus_file), *SMALL_TRAIN])
        assert corpus_file.read_bytes() == before


class TestExtractLabels:
    def test_writes_both_tables(self, out, corpus_file):
        rc = cli.main([
            "extract-labels", "--out-dir", str(out), "--corpus-file", str(corpus_file),
            "--top-k-text", "3", "--top-k-speech", "4",
        ])
        assert rc == 0
        text_lines = (out / "reports" / "labels_text.csv").read_text().splitlines()
        assert text_lines[0] == "class,rank,symbol,score"
        assert len(text_lines) <= 1 + 3 * 3
        speech_lines = (out / "reports" / "labels_speech.csv").read_text().splitlines()
        assert len(speech_lines) <= 1 + 3 * 4


class TestHarnessCommands:
    def test_ablate_guidance_suite(self, out):
        rc = cli.main([
            "ablate", "--out-dir", str(out), *SMALL_CORPUS, *SMALL_TRAIN,
            "--suite", "guidance", "--seeds", "0", "--n", "40",
        ])
        assert rc == 0
        lines = (out / "reports" / "ablation_guidance.csv").read_text().splitlines()
        assert lines[0] == "condition,seed,wa,ua"
        names = {line.split(",")[0] for line in lines[1:]}
        assert names == {"guidance-on", "guidance-off"}

    def test_sweep_k_text(self, out):
        rc = cli.main([
            "sweep-k", "--out-dir", str(out), *SMALL_CORPUS, *SMALL_TRAIN,
            "--sweep-modality", "text", "--k-values", "2,3", "--seeds", "0", "--n", "40",
        ])
        assert rc == 0
        lines = (out / "reports" / "sweep_text.csv").read_text().splitlines()
        assert lines[0] == "k,mean_wa,mean_ua"
        assert len(lines) == 3

    @pytest.mark.parametrize("subcommand, report", [
        ("ablate", "ablation_fusion-modes.csv"), ("sweep-k", "sweep_text.csv"),
    ])
    def test_report_identical_for_any_jobs(self, tmp_path, subcommand, report):
        args = [subcommand, *SMALL_CORPUS, *SMALL_TRAIN, "--seeds", "0,1"]
        if subcommand == "sweep-k":
            args += ["--sweep-modality", "text", "--k-values", "2,3"]
        outputs = []
        for jobs in ("1", "2", None):
            out = tmp_path / f"jobs-{jobs}"
            extra = ["--jobs", jobs] if jobs else []
            assert cli.main([*args, "--out-dir", str(out), *extra]) == 0
            outputs.append((out / "reports" / report).read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("subcommand", ["ablate", "sweep-k"])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_1(self, out, capsys, subcommand, jobs):
        args = [subcommand, "--out-dir", str(out), *SMALL_CORPUS, *SMALL_TRAIN, "--seeds", "0"]
        if subcommand == "sweep-k":
            args += ["--sweep-modality", "text", "--k-values", "2"]
        rc = cli.main([*args, "--jobs", jobs])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "jobs" in err and err.count("\n") == 1

    @pytest.mark.parametrize("subcommand", ["ablate", "sweep-k"])
    def test_repeated_seed_exits_1(self, out, capsys, subcommand):
        # Each once trained seed 0 twice and wrote two identical rows.
        args = [subcommand, "--out-dir", str(out), *SMALL_CORPUS, *SMALL_TRAIN, "--seeds", "0,0"]
        if subcommand == "sweep-k":
            args += ["--sweep-modality", "text", "--k-values", "2"]
        capsys.readouterr()
        assert cli.main([*args, "--jobs", "1"]) == 1
        assert one_error_line(capsys) == "error: seeds must not repeat, got 0,0\n"
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["ablate", "score-fusion"])
    def test_zero_epochs_exits_1(self, out, corpus_file, capsys, subcommand):
        capsys.readouterr()
        if subcommand == "ablate":
            args = [*SMALL_CORPUS, "--seeds", "0"]
        else:
            args = ["--corpus-file", str(corpus_file)]
        rc = cli.main([subcommand, "--out-dir", str(out), *args, *SMALL_TRAIN, "--epochs", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "epochs" in err and err.count("\n") == 1

    def test_default_grids_contain_reference_anchors(self):
        assert 9 in cli.DEFAULT_K_GRID["text"]
        assert 100 in cli.DEFAULT_K_GRID["speech"]

    def test_sweep_k_value_too_large_exits_1(self, out):
        rc = cli.main([
            "sweep-k", "--out-dir", str(out), *SMALL_CORPUS, *SMALL_TRAIN,
            "--sweep-modality", "text", "--k-values", "31", "--seeds", "0", "--n", "40",
        ])
        assert rc == 1

    def test_score_fusion(self, out, corpus_file):
        rc = cli.main([
            "score-fusion", "--out-dir", str(out), "--corpus-file", str(corpus_file),
            *SMALL_TRAIN,
        ])
        assert rc == 0
        lines = (out / "reports" / "score_fusion.csv").read_text().splitlines()
        systems = [line.split(",")[0] for line in lines[1:]]
        assert systems == ["text", "speech", "score-fusion"]

    def test_score_fusion_rows_are_final_heldout_evaluations_of_train(self, out, corpus_file):
        assert cli.main([
            "score-fusion", "--out-dir", str(out), "--corpus-file", str(corpus_file),
            *SMALL_TRAIN, "--epochs", "2",
        ]) == 0
        train_c, held_c = cp.split(cp.load(corpus_file), 0.8, 0)
        base = tr.TrainConfig(epochs=2, text_dim=8, speech_dim=8, top_k_text=3, top_k_speech=5)
        towers = [dataclasses.replace(base, modality=m) for m in ("text", "speech")]
        models = [tr.train(train_c, held_c, tower)[0] for tower in towers]
        results = [(tower.modality, ev.evaluate(tr.model_predictor(model, tower), held_c))
                   for tower, model in zip(towers, models)]
        results.append(("score-fusion", ev.evaluate(ev.score_fusion_predictor(*models), held_c)))
        expected = [f"{m},{r.weighted_accuracy:.12g},{r.unweighted_accuracy:.12g}"
                    for m, r in results]
        assert (out / "reports" / "score_fusion.csv").read_text().splitlines()[1:] == expected

    def test_export_attention(self, out, corpus_file):
        assert cli.main([
            "train", "--out-dir", str(out), "--corpus-file", str(corpus_file), *SMALL_TRAIN,
        ]) == 0
        rc = cli.main([
            "export-attention", "--out-dir", str(out),
            "--checkpoint", str(out / "checkpoints" / "model.ckpt"),
            "--corpus-file", str(corpus_file), "--index", "2",
        ])
        assert rc == 0
        assert (out / "plots" / "attention_2_text.csv").exists()
        assert (out / "plots" / "attention_2_speech.csv").exists()
        assert (out / "plots" / "attention_2_bundle.csv").exists()
        assert (out / "plots" / "attention_2.svg").exists()

    def test_export_attention_bad_index_exits_1(self, out, corpus_file):
        assert cli.main([
            "train", "--out-dir", str(out), "--corpus-file", str(corpus_file), *SMALL_TRAIN,
        ]) == 0
        rc = cli.main([
            "export-attention", "--out-dir", str(out),
            "--checkpoint", str(out / "checkpoints" / "model.ckpt"),
            "--corpus-file", str(corpus_file), "--index", "999",
        ])
        assert rc == 1

    def test_export_attention_short_planted_map_exits_1(self, out, corpus_file, capsys):
        assert cli.main([
            "train", "--out-dir", str(out), "--corpus-file", str(corpus_file), *SMALL_TRAIN,
        ]) == 0
        lines = corpus_file.read_text().splitlines()
        header = json.loads(lines[0])
        header["planted_codes"] = header["planted_codes"][:1]
        corpus_file.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        capsys.readouterr()
        rc = cli.main([
            "export-attention", "--out-dir", str(out),
            "--checkpoint", str(out / "checkpoints" / "model.ckpt"),
            "--corpus-file", str(corpus_file), "--index", "2",
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: line 1: planted_codes has 1 groups for 3 classes\n"
        )


    @pytest.mark.parametrize("modality", ["text", "speech"])
    def test_export_attention_refuses_tower_checkpoint(self, tmp_path, corpus_file, capsys,
                                                       modality):
        model_dir, out = tmp_path / "model", tmp_path / "exported"
        assert cli.main([
            "train", "--out-dir", str(model_dir), "--corpus-file", str(corpus_file), *SMALL_TRAIN,
            "--modality", modality,
        ]) == 0
        capsys.readouterr()
        rc = cli.main([
            "export-attention", "--out-dir", str(out),
            "--checkpoint", str(model_dir / "checkpoints" / "model.ckpt"),
            "--corpus-file", str(corpus_file), "--index", "2",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: export-attention needs a multimodal checkpoint, got modality '{modality}'\n"
        assert not out.exists()


class TestModelFit:
    """A checkpoint used on a corpus it does not fit is refused before any output."""

    @pytest.mark.parametrize("subcommand", ["evaluate", "export-attention"])
    def test_other_class_count_exits_1(self, tmp_path, corpus_file, subcommand, capsys):
        model_dir, other_dir, out = tmp_path / "model", tmp_path / "other", tmp_path / "result"
        assert cli.main([
            "train", "--out-dir", str(model_dir), "--corpus-file", str(corpus_file), *SMALL_TRAIN,
        ]) == 0
        assert cli.main(["gen-corpus", "--out-dir", str(other_dir), *SMALL_CORPUS,
                         "--classes", "2"]) == 0
        capsys.readouterr()
        rc = cli.main([
            subcommand, "--out-dir", str(out),
            "--checkpoint", str(model_dir / "checkpoints" / "model.ckpt"),
            "--corpus-file", str(other_dir / "corpus.txt"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'fusion.classifier_w' has shape (16, 3), expected (16, 2)" in err
        assert not out.exists()


class TestGradCheckCommand:
    def test_exits_zero_when_within_tolerance(self, out, capsys):
        rc = cli.main(["grad-check", "--out-dir", str(out), "--probes-per-op", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("matmul:") for line in lines)
        assert any(line.startswith("total_loss[constraint]:") for line in lines)
        assert all("[ok]" in line for line in lines if "max relative error" in line)

    def test_exits_one_under_impossible_tolerance(self, out):
        rc = cli.main([
            "grad-check", "--out-dir", str(out), "--probes-per-op", "1", "--tolerance", "1e-300",
        ])
        assert rc == 1

    @pytest.mark.parametrize("tolerance", ["-1", "0"])
    def test_rejects_tolerance_that_is_not_positive(self, out, capsys, tolerance):
        # Once every op was checked and reported FAIL, and the snapshot was written.
        assert cli.main(["grad-check", "--out-dir", str(out), f"--tolerance={tolerance}"]) == 1
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == ("error: tolerance must be > 0\n", "")
        assert not out.exists()

    @pytest.mark.parametrize("probes", ["0", "-3"])
    def test_rejects_fewer_than_one_probe(self, out, capsys, probes):
        # A check that checks nothing would pass every op.
        assert cli.main(["grad-check", "--out-dir", str(out), "--probes-per-op", probes]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: probes_per_op ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()


class TestEnvDefaultOutDir:
    def test_env_var_sets_default_root(self, tmp_path, monkeypatch):
        root = tmp_path / "envout"
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(root))
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["gen-corpus", *SMALL_CORPUS])
        assert rc == 0
        assert (root / "corpus.txt").exists()
        assert (root / "config" / "gen-corpus.json").exists()


def subcommand(name):
    return next(sub for sub in cli.SUBCOMMANDS if sub.name == name)


# Wrong-typed JSON values per option type; None is wrong only where the default is not None.
WRONG_VALUES = {
    int: ["3", [3], {"v": 3}, True, 3.0, None],
    float: ["0.5", [0.5], {"v": 0.5}, True, None],
    bool: ["false", [False], {"v": False}, 0, None],
    str: [5, ["x"], {"v": "x"}, True, None],
    list[int]: ["0,1", {"v": 0}, 3, [True], [1.0], ["1"], None],
}


def wrong_values(kind, default):
    return [v for v in WRONG_VALUES[kind] if v is not None or default is not None]


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestTypedOptions:
    """Flags and config-file values pass one type rule; a rejected run writes nothing."""

    @pytest.mark.parametrize("name, key, kind, default", [
        (sub.name, key, kind, default)
        for sub in cli.SUBCOMMANDS for key, kind, default, *_ in sub.keys
    ])
    def test_wrong_typed_config_value_exits_1(self, tmp_path, capsys, name, key, kind, default):
        out = tmp_path / "out"
        config = tmp_path / "conf.json"
        parser = cli.build_parser()
        for value in wrong_values(kind, default):
            config.write_text(json.dumps({key: value}))
            args = parser.parse_args([name, "--out-dir", str(out), "--config", str(config)])
            with pytest.raises(ConfigError, match=key):
                args._subcommand.resolve(args)
            rc = cli.main([name, "--out-dir", str(out), "--config", str(config)])
            assert rc == 1, (key, value)
            assert key in one_error_line(capsys)
            assert not out.exists()

    def test_wrong_typed_out_dir_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "conf.json"
        for value in (5, ["x"], True):
            config.write_text(json.dumps({"out_dir": value}))
            assert cli.main(["grad-check", "--config", str(config)]) == 1
            assert "out_dir" in one_error_line(capsys)
            assert [p.name for p in tmp_path.iterdir()] == ["conf.json"]

    @pytest.mark.parametrize("name, key", [
        (sub.name, key) for sub in cli.SUBCOMMANDS
        for key, _, default, *_ in sub.keys if default is None
    ])
    def test_null_is_unset_where_default_is_none(self, tmp_path, name, key):
        def outcome(values):
            config = tmp_path / "conf.json"
            config.write_text(json.dumps(values))
            args = cli.build_parser().parse_args([name, "--config", str(config)])
            try:
                return args._subcommand.resolve(args)
            except LabelFuseError as exc:
                return str(exc)

        assert outcome({key: None}) == outcome({})

    def test_int_in_float_field_matches_flag_bytes(self, corpus_file, tmp_path):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"mu_main": 1}))
        common = ["train", "--corpus-file", str(corpus_file), *SMALL_TRAIN]
        assert cli.main([*common, "--out-dir", str(tmp_path / "flag"), "--mu-main", "1"]) == 0
        assert cli.main([*common, "--out-dir", str(tmp_path / "file"),
                         "--config", str(config)]) == 0
        for part in ("checkpoints/model.ckpt", "logs/train_log.csv"):
            flag, file = (tmp_path / side / part for side in ("flag", "file"))
            assert flag.read_bytes() == file.read_bytes()
        snapshot = json.loads((tmp_path / "file" / "config" / "train.json").read_text())
        assert snapshot["mu_main"] == 1.0 and isinstance(snapshot["mu_main"], float)

    def test_snapshot_replays_to_same_bytes(self, corpus_file, tmp_path):
        first = tmp_path / "first"
        assert cli.main(["train", "--out-dir", str(first), "--corpus-file", str(corpus_file),
                         *SMALL_TRAIN, "--labels-trainable", "true", "--mu-main", "1"]) == 0
        replay = tmp_path / "replay"
        assert cli.main(["train", "--config", str(first / "config" / "train.json"),
                         "--out-dir", str(replay)]) == 0
        for part in ("checkpoints/model.ckpt", "logs/train_log.csv"):
            assert (first / part).read_bytes() == (replay / part).read_bytes()
        assert tr.load_checkpoint(replay / "checkpoints" / "model.ckpt").config.labels_trainable

    def test_train_help_shows_every_train_config_default(self, capsys):
        assert cli.main(["train", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for f in dataclasses.fields(tr.TrainConfig):
            assert f"--{f.name.replace('_', '-')}" in text
            assert f"(default {f.default})" in text, f.name

    def test_range_field_is_two_options(self):
        keys = {key: default for key, _, default, *_ in subcommand("gen-corpus").keys}
        spec = cp.CorpusSpec()
        assert (keys["text_len_min"], keys["text_len_max"]) == spec.text_len
        assert (keys["speech_len_min"], keys["speech_len_max"]) == spec.speech_len
        assert keys["corpus_seed"] == spec.seed and "seed" not in keys


TRAIN_KEYS = {
    "adam_beta1", "adam_beta2", "adam_epsilon", "batch_size", "epochs", "fusion_mode",
    "labels_trainable", "learning_rate", "modality", "mu_constraint", "mu_guide_speech",
    "mu_guide_text", "mu_main", "normalize_label_attention", "seed", "speech_dim",
    "speech_label_init", "text_dim", "text_label_init", "top_k_speech", "top_k_text",
}
CORPUS_KEYS = {
    "classes", "context_utterances", "corpus_seed", "salience_prob", "salient_per_class",
    "speech_len_max", "speech_len_min", "text_len_max", "text_len_min", "vocab_speech",
    "vocab_text",
}
SPLIT_KEYS = {"split_seed", "train_fraction"}
RUN_KEYS = {"out_dir", "subcommand"}
SNAPSHOT_KEYS = {
    "gen-corpus": CORPUS_KEYS | {"corpus_file", "n"},
    "extract-labels": {"corpus_file", "top_k_speech", "top_k_text"},
    "train": TRAIN_KEYS | SPLIT_KEYS | {"corpus_file", "resume_from"},
    "evaluate": SPLIT_KEYS | {"checkpoint", "corpus_file", "split"},
    "ablate": CORPUS_KEYS | TRAIN_KEYS | SPLIT_KEYS | {"jobs", "n", "seeds", "suite"},
    "sweep-k": CORPUS_KEYS | TRAIN_KEYS | SPLIT_KEYS
    | {"jobs", "k_values", "n", "seeds", "sweep_modality"},
    "score-fusion": TRAIN_KEYS | SPLIT_KEYS | {"corpus_file"},
    "export-attention": {"checkpoint", "corpus_file", "index"},
    "grad-check": {"probes_per_op", "seed", "tolerance"},
}


@pytest.fixture(scope="module")
def every_subcommand_run(tmp_path_factory):
    """One successful run of each subcommand, all into one output dir."""
    out = tmp_path_factory.mktemp("runs")
    corpus = str(out / "corpus.txt")
    ckpt = str(out / "checkpoints" / "model.ckpt")
    grid = [*SMALL_CORPUS, *SMALL_TRAIN, "--seeds", "0", "--jobs", "1"]
    runs = {
        "gen-corpus": SMALL_CORPUS,
        "extract-labels": ["--corpus-file", corpus, "--top-k-text", "3", "--top-k-speech", "4"],
        "train": ["--corpus-file", corpus, *SMALL_TRAIN],
        "evaluate": ["--checkpoint", ckpt, "--corpus-file", corpus],
        "ablate": [*grid, "--suite", "guidance"],
        "sweep-k": [*grid, "--sweep-modality", "text", "--k-values", "2"],
        "score-fusion": ["--corpus-file", corpus, *SMALL_TRAIN],
        "export-attention": ["--checkpoint", ckpt, "--corpus-file", corpus, "--index", "1"],
        "grad-check": ["--probes-per-op", "1"],
    }
    for name, args in runs.items():
        assert cli.main([name, "--out-dir", str(out), *args]) == 0, name
    return out


class TestSnapshots:
    def test_every_subcommand_has_an_expected_key_set(self):
        assert {sub.name for sub in cli.SUBCOMMANDS} == set(SNAPSHOT_KEYS)

    @pytest.mark.parametrize("name", sorted(SNAPSHOT_KEYS))
    def test_snapshot_key_set_is_pinned(self, every_subcommand_run, name):
        snapshot = json.loads((every_subcommand_run / "config" / f"{name}.json").read_text())
        assert set(snapshot) == SNAPSHOT_KEYS[name] | RUN_KEYS
        assert {key for key, *_ in subcommand(name).keys} == SNAPSHOT_KEYS[name]


class TestRejectedRunWritesNothing:
    """A run that fails validation exits 1 with one line and creates no --out-dir."""

    @pytest.fixture()
    def trained(self, tmp_path):
        src = tmp_path / "src"
        assert cli.main(["gen-corpus", "--out-dir", str(src), *SMALL_CORPUS]) == 0
        corpus = str(src / "corpus.txt")
        assert cli.main(["train", "--out-dir", str(src), "--corpus-file", corpus,
                         *SMALL_TRAIN]) == 0
        return corpus, str(src / "checkpoints" / "model.ckpt")

    @pytest.mark.parametrize("name, extra", [
        ("ablate", ["--epochs", "0"]),
        ("sweep-k", ["--epochs", "0"]),
        ("ablate", ["--jobs", "0"]),
        ("sweep-k", ["--jobs", "0"]),
        ("ablate", ["--batch-size", "0"]),
        ("sweep-k", ["--fusion-mode", "bogus"]),
        ("ablate", ["--suite", "bogus"]),
        ("sweep-k", ["--sweep-modality", "bogus"]),
        ("ablate", ["--salience-prob", "2.0"]),
    ])
    def test_grid(self, tmp_path, capsys, name, extra):
        out = tmp_path / "rejected"
        args = [*SMALL_CORPUS, *SMALL_TRAIN, "--seeds", "0", "--jobs", "1"]
        if name == "sweep-k" and "--sweep-modality" not in extra:
            args += ["--sweep-modality", "text", "--k-values", "2"]
        assert cli.main([name, "--out-dir", str(out), *args, *extra]) == 1
        one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("name, extra", [
        ("train", ["--batch-size", "0"]),
        ("score-fusion", ["--epochs", "0"]),
        ("evaluate", ["--split", "bogus"]),
        ("export-attention", ["--index", "999"]),
        ("gen-corpus", ["--classes", "0"]),
        ("extract-labels", ["--top-k-text", "0"]),
    ])
    def test_file_commands(self, trained, tmp_path, capsys, name, extra):
        corpus, ckpt = trained
        capsys.readouterr()
        args = {
            "train": ["--corpus-file", corpus, *SMALL_TRAIN],
            "score-fusion": ["--corpus-file", corpus, *SMALL_TRAIN],
            "evaluate": ["--corpus-file", corpus, "--checkpoint", ckpt],
            "export-attention": ["--corpus-file", corpus, "--checkpoint", ckpt],
            "gen-corpus": SMALL_CORPUS,
            "extract-labels": ["--corpus-file", corpus],
        }[name]
        out = tmp_path / "rejected"
        assert cli.main([name, "--out-dir", str(out), *args, *extra]) == 1
        one_error_line(capsys)
        assert not out.exists()


    @pytest.mark.parametrize("flag, value", [
        ("--adam-beta1", "-0.5"), ("--adam-beta1", "1"), ("--adam-beta2", "1"),
        ("--adam-beta2", "1.5"), ("--adam-epsilon", "0"), ("--adam-epsilon", "-1e-8"),
    ])
    def test_adam_settings_out_of_range(self, trained, tmp_path, capsys, flag, value):
        # Once a config error reported as divergence at epoch 0, or trained silently.
        corpus, _ = trained
        capsys.readouterr()
        out = tmp_path / "rejected"
        args = ["train", "--out-dir", str(out), "--corpus-file", corpus, *SMALL_TRAIN,
                f"{flag}={value}"]
        assert cli.main(args) == 1
        assert flag[2:].replace("-", "_") in one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("mutate", [
        lambda m: m["log_records"][0].update(loss_main="x"),
        lambda m: m.update(adam_step_count="x"),
        lambda m: m.update(adam_step_count=-5),
        lambda m: m["log_records"][0].update(epoch=0.5),
        lambda m: m["metrics"].update(heldout_wa=m["metrics"]["heldout_wa"] + 0.25),
    ], ids=["string-in-record", "string-step-count", "negative-step-count", "float-record-epoch",
            "metrics-off-log"])
    def test_resume_from_malformed_manifest(self, trained, tmp_path, capsys, mutate):
        # Each once resumed: the first wrote a checkpoint and then died with a traceback,
        # the second died with one, the third read as a divergence, the last two exited 0.
        corpus, ckpt = trained
        rewrite_manifest(Path(ckpt), mutate)
        capsys.readouterr()
        out = tmp_path / "rejected"
        assert cli.main(["train", "--out-dir", str(out), "--corpus-file", corpus, *SMALL_TRAIN[2:],
                         "--epochs", "2", "--resume-from", ckpt]) == 1
        assert one_error_line(capsys).startswith(
            ("error: invalid checkpoint content: ", "error: manifest metrics "))
        assert not out.exists()

    @pytest.mark.parametrize("name, flag", [
        ("gen-corpus", "--corpus-seed=-1"), ("train", "--seed=-3"), ("train", "--split-seed=-3"),
        ("ablate", "--seeds=-1"), ("grad-check", "--seed=-1"),
    ])
    def test_negative_seed(self, trained, tmp_path, capsys, name, flag):
        # Each once escaped as a numpy ValueError traceback.
        corpus, _ = trained
        capsys.readouterr()
        args = {
            "gen-corpus": SMALL_CORPUS,
            "train": ["--corpus-file", corpus, *SMALL_TRAIN],
            "ablate": [*SMALL_CORPUS, *SMALL_TRAIN, "--jobs", "1"],
            "grad-check": ["--probes-per-op", "1"],
        }[name]
        out = tmp_path / "rejected"
        assert cli.main([name, "--out-dir", str(out), *args, flag]) == 1
        assert flag[2:].split("=")[0].replace("-", "_") in one_error_line(capsys)
        assert not out.exists()


# A value just outside each declared domain, as JSON; the keys are every option that has one.
OUTSIDE = {
    "epochs": -1, "batch_size": 0, "learning_rate": 0.0, "adam_beta1": 1.0,
    "adam_beta2": -1e-9, "adam_epsilon": 0.0, "mu_main": -1e-9, "mu_constraint": -1e-9,
    "mu_guide_text": -1e-9, "mu_guide_speech": -1e-9, "fusion_mode": "bogus",
    "modality": "bogus", "text_label_init": "bogus", "speech_label_init": "bogus",
    "top_k_text": 0, "top_k_speech": 0, "text_dim": 0, "speech_dim": 0, "seed": -1,
    "classes": 0, "vocab_text": 0, "vocab_speech": 0, "text_len_min": 0, "text_len_max": 0,
    "speech_len_min": 0, "speech_len_max": 0, "salient_per_class": 0,
    "salience_prob": 1.000000001, "corpus_seed": -1, "context_utterances": -1,
    "split_seed": -1, "seeds": [-1], "split": "bogus", "suite": "bogus",
    "sweep_modality": "bogus", "tolerance": 0.0, "train_fraction": 1.0, "index": -1,
}


class TestDomains:
    """A value outside its option's domain is refused before any file is read."""

    def test_every_option_with_a_domain_is_drawn(self):
        declared = {opt.key for sub in cli.SUBCOMMANDS for opt in sub.keys if opt.domain}
        assert declared == set(OUTSIDE)
        for cls in (tr.TrainConfig, cp.CorpusSpec):
            for f in dataclasses.fields(cls):
                assert (f.metadata["domain"] is None) == (field_types(cls)[f.name] is bool), f.name

    @pytest.mark.parametrize("key", sorted(OUTSIDE))
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_value_outside_domain_exits_1(self, tmp_path, capsys, key, source):
        sub = next(sub for sub in cli.SUBCOMMANDS
                   if any(opt.key == key and opt.domain for opt in sub.keys))
        value = OUTSIDE[key]
        # The required files do not exist: the domain is checked before they are read.
        args = [sub.name, "--out-dir", str(tmp_path / "out")]
        for required in sub.required:
            args.append(f"--{required.replace('_', '-')}={tmp_path / 'missing'}")
        if source == "flag":
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            args.append(f"--{key.replace('_', '-')}={text}")
        else:
            (tmp_path / "conf.json").write_text(json.dumps({key: value}))
            args += ["--config", str(tmp_path / "conf.json")]
        capsys.readouterr()
        assert cli.main(args) == 1
        assert one_error_line(capsys).startswith(f"error: {key} ")
        assert [p.name for p in tmp_path.iterdir()] == (["conf.json"] if source == "config" else [])


HELP_DIR = Path(__file__).parent / "data" / "help"


@pytest.mark.parametrize("name", [sub.name for sub in cli.SUBCOMMANDS])
def test_help_is_unchanged(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main([name, "--help"]) == 0
    assert capsys.readouterr().out.encode() == (HELP_DIR / f"{name}.txt").read_bytes()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(),  # NaN and infinity too, which json writes as NaN and Infinity
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8,
)
# Handlers whose valid configs could run for long: the fuzz stops them after resolve.
LONG_RUNNING = {"gen-corpus", "ablate", "sweep-k", "grad-check"}


class TestConfigFuzz:
    """Any JSON value in --config exits 0, 1 or 2 with one line on stderr, never a traceback."""

    @pytest.mark.parametrize("sub", cli.SUBCOMMANDS, ids=lambda sub: sub.name)
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_json_value(self, sub, data, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        if sub.name in LONG_RUNNING:
            monkeypatch.setattr(sub, "handler", lambda resolved, **configs: 0)
        keys = [key for key, *_ in sub.keys] + ["out_dir", "subcommand"]
        value = data.draw(JSON_VALUES | st.dictionaries(
            st.sampled_from(keys) | st.text(max_size=6), JSON_VALUES, max_size=4))
        with tempfile.TemporaryDirectory(dir=tmp_path) as run:
            config = f"{run}/config.json"
            with open(config, "w") as fh:
                json.dump(value, fh)
            capsys.readouterr()
            rc = cli.main([sub.name, "--out-dir", f"{run}/out", "--config", config])
            err = capsys.readouterr().err
        assert rc in (0, 1, 2)
        if rc:
            assert err.count("\n") == 1 and err.startswith(("error: ", "usage error: ")), err
        else:
            assert err == ""
