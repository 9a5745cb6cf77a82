"""Smoke test of the benchmark itself: every workload at a tiny size.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (needs the package on the path)
from labelfuse.corpus import CorpusSpec  # noqa: E402
from labelfuse.trainer import TrainConfig  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = workloads.Shape(
    CorpusSpec(vocab_text=24, vocab_speech=32, text_len=(3, 6), speech_len=(4, 8), salient_per_class=2),
    64,
    TrainConfig(epochs=1, top_k_text=4, top_k_speech=8),
    serve_n=12,
    warmup_per_class=2,
)
CHECKS = {
    "train-default": {"heldout_ua_floor", "train_output_repeatable"},
    "ablation-short": {"ablation_report_repeatable"},
    "serve-heldout": {
        "heldout_ua_floor",
        "train_output_repeatable",
        "checkpoint_roundtrip_bitwise",
        "corpus_roundtrip",
        "loaded_model_matches_in_memory",
        "evaluate_wa_matches_loop",
        "served_predictions_repeatable",
    },
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, workload in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(workloads.WORKLOADS, name, type(workload)(TINY))
    monkeypatch.setattr(run, "OUT", tmp_path)


def bench(capsys, workload: str, trace: int, seed: int = 3):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    assert run.main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(CHECKS))
def test_every_metric_reported_and_checks_ran(tiny, capsys, workload, trace):
    report, result = bench(capsys, workload, trace)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table
    }
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, float) for v in values)
    if not trace:
        assert all(v > 0 for v in values)

    expected = CHECKS[workload] | ({"trace_restored"} if trace else set())
    assert expected <= set(report["checks"])
    assert all(passed > 0 and failed == 0 for passed, failed in report["checks"].values())
    machine = report["machine"]
    for fact in ("cores", "python", "numpy", "blas", "blas_threads", "git_commit", "src_sha256"):
        assert fact in machine


@pytest.mark.parametrize("workload", list(CHECKS))
def test_same_seed_gives_same_outputs(tiny, capsys, workload):
    first, _ = bench(capsys, workload, 0)
    second, _ = bench(capsys, workload, 0)
    assert first["digests"] and first["digests"] == second["digests"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "train-default", "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_contract():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert set(DECLARED["workloads"][0]) == {"name", "why"}
    names = [w["name"] for w in DECLARED["workloads"]]
    names += [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])
    readme = (run.BENCH_DIR / "README.md").read_text()
    for m in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        name = re.sub(r"^diffcore\.op\.[a-z0-9_]+\.", "diffcore.op.<kind>.", m["name"])
        assert f"`{name}`" in readme, name
