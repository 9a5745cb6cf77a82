"""The output bytes of the reference configs, pinned in tests/data/reference_bytes.json.

Every reference config trains on one generated corpus through the CLI. The
tests compare the sha256 of each run's train log, its `evaluate` report, its
checkpoint and its attention export (multimodal configs only), and of the
`grad-check` report. Another OpenBLAS core may round a product differently
in its last bits (README, Determinism): the train logs, reports and
`grad-check` report held across cores, but checkpoints did not, and an
attention export's 12-digit values can flip in their last digit. So those
two are compared only when numpy's OpenBLAS runs the core they were recorded
under; otherwise their tests are skipped with the reason. A change that
alters any of these bytes updates the data file and says why.
"""

import contextlib
import ctypes
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from labelfuse import cli

REFERENCE = json.loads((Path(__file__).parent / "data" / "reference_bytes.json").read_text())
CONFIGS = REFERENCE["configs"]

pytestmark = pytest.mark.slow


def openblas_core() -> str | None:
    """The core name numpy's bundled OpenBLAS runs, such as "SkylakeX"; None if unreadable."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(*argv: str) -> str:
    """The stdout of `labelfuse argv`, which must succeed."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(list(argv)) == 0, argv
    return stdout.getvalue()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, dict]:
    """Each reference config's output hashes, keyed as in the data file."""
    root = tmp_path_factory.mktemp("reference")
    run("gen-corpus", "--out-dir", str(root), *REFERENCE["gen_corpus"])
    corpus = str(root / "corpus.txt")
    hashes = {}
    for name, config in CONFIGS.items():
        trained, evaluated, exported = (root / f"{name}-{part}" for part in ("train", "eval", "exp"))
        run("train", "--out-dir", str(trained), "--corpus-file", corpus, *REFERENCE["train"],
            *config["flags"])
        checkpoint = trained / "checkpoints" / "model.ckpt"
        run("evaluate", "--out-dir", str(evaluated), "--checkpoint", str(checkpoint),
            "--corpus-file", corpus, *REFERENCE["evaluate"])
        hashes[name] = {
            "train_log": sha256((trained / "logs" / "train_log.csv").read_bytes()),
            "evaluation": sha256((evaluated / "reports" / "evaluation.csv").read_bytes()),
            "checkpoint": sha256(checkpoint.read_bytes()),
        }
        if "attention" in config:
            run("export-attention", "--out-dir", str(exported), "--checkpoint", str(checkpoint),
                "--corpus-file", corpus, *REFERENCE["export_attention"])
            plots = sorted((exported / "plots").iterdir())
            hashes[name]["attention"] = {path.name: sha256(path.read_bytes()) for path in plots}
    return hashes


KERNEL_BOUND = ("checkpoint", "attention")
RECORDED_CORE = REFERENCE["openblas_core"]
HOST_CORE = openblas_core()


def pinned(name: str, kernel_bound: bool) -> dict:
    """The data file's hashes of a config: its kernel-bound ones, or the others."""
    return {key: value for key, value in CONFIGS[name].items()
            if key != "flags" and (key in KERNEL_BOUND) == kernel_bound}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_train_log_and_report_bytes(outputs, name):
    assert {key: outputs[name][key] for key in pinned(name, False)} == pinned(name, False)


@pytest.mark.skipif(HOST_CORE != RECORDED_CORE, reason=(
    f"checkpoint and attention bytes were recorded under OpenBLAS core {RECORDED_CORE}, "
    f"this host runs {HOST_CORE}"
))
@pytest.mark.parametrize("name", list(CONFIGS))
def test_checkpoint_and_attention_bytes(outputs, name):
    assert {key: outputs[name][key] for key in pinned(name, True)} == pinned(name, True)


def test_grad_check_report_bytes(tmp_path):
    stdout = run("grad-check", "--out-dir", str(tmp_path), *REFERENCE["grad_check"]["flags"])
    assert sha256(stdout.encode()) == REFERENCE["grad_check"]["stdout"]
