"""Run one labelfuse benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload train-default --seed 0 --seconds 15 --trace 0

Workloads: train-default, ablation-short, serve-heldout (see workloads.py).
The program is imported from this checkout's ``src/``; without it the run
exits with status 2 and prints no result.

With ``--trace 0`` the run measures the end-to-end metrics untraced; with
``--trace 1`` it reports the per-layer metrics of a traced run instead
(see tracing.py). Metric names and units are those of ``BENCHMARK.json``;
README.md in this directory says which end-to-end metric each per-layer
metric should move. The line before the last is a JSON report with machine
facts, every check and informational figures (the predict p90 and p99 with
their sample count among them); it is also written to
``.perfbench/`` together with the spans of a traced run. The last line is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# labelfuse trains single-threaded; pin BLAS/OpenMP before numpy is loaded.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: ") :]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the package sources, naming the program where git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "labelfuse").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def end_to_end(rec) -> tuple[dict[str, float], dict]:
    import numpy as np

    median = statistics.median
    passes = [np.array(ms) for ms in rec.predict_ms if ms]
    pooled = np.concatenate(passes)
    metrics = {
        "train_utt_per_s": median(utt_epochs / s for s, _, utt_epochs in rec.train),
        "train_runs_per_min": median(60.0 * runs / s for s, runs, _ in rec.train),
        "predict_utt_per_s": median(1000.0 * ms.size / ms.sum() for ms in passes),
        "predict_ms_p50": median(float(np.percentile(ms, 50)) for ms in passes),
        "setup_s": median(rec.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    p90, p99 = np.percentile(pooled, [90, 99])
    info = {
        "predict_ms_p90": float(p90),
        "predict_ms_p99": float(p99),
        "predict_samples": int(pooled.size),
        "predict_passes": len(passes),
        "train": rec.train,
        "setup_s_samples": rec.setup_s,
    }
    return metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "labelfuse" / "__init__.py").is_file():
        print(f"perfbench: no labelfuse sources at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import labelfuse

    if Path(labelfuse.__file__).resolve().parent != SRC / "labelfuse":
        print(f"perfbench: imported labelfuse from {labelfuse.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        rec, tracer, overhead = workloads.run_traced(workload, args.seed, args.seconds, OUT)
        metrics = tracer.per_layer(overhead, rec.ckpt_bytes)
        info = {"spans": len(tracer.name), "utterances": len(tracer.utt_kind)}
        spans_path = OUT / f"spans-{args.workload}.npz"
        import numpy as np

        np.savez(spans_path, **tracer.arrays())
        info["spans_file"] = spans_path.name
        table = declared["per_layer"]
    else:
        rec = workloads.run_untraced(workload, args.seed, args.seconds, OUT)
        metrics, info = end_to_end(rec)
        table = declared["end_to_end"]

    units = {m["name"]: m["unit"] for m in table}
    if metrics.keys() != units.keys():
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(metrics.keys() ^ units.keys())}"
        )
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "failed_frac": rec.failed / rec.attempted,
        "checks": rec.checks,
        "digests": rec.digests,
        "info": info,
        "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
