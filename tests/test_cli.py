"""Tests for the command-line interface (in-process, via main)."""

import json

import pytest

from labelfuse import cli
from labelfuse import corpus as cp
from labelfuse import trainer as tr

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
            "grad-check", "--out-dir", str(out), "--probes-per-op", "1", "--tolerance", "0",
        ])
        assert rc == 1


class TestEnvDefaultOutDir:
    def test_env_var_sets_default_root(self, tmp_path, monkeypatch):
        root = tmp_path / "envout"
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(root))
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["gen-corpus", *SMALL_CORPUS])
        assert rc == 0
        assert (root / "corpus.txt").exists()
        assert (root / "config" / "gen-corpus.json").exists()
