"""The benchmark's workloads: generated inputs, timed operations, checks.

Each workload runs in one single-threaded process as a closed loop with one
client: the next operation starts only when the previous one has returned.
No layer of labelfuse has a queue, so no time is spent waiting and none is
reported.

* ``train-default``: `trainer.train` at the README/ROADMAP reference shape
  (`CorpusSpec()` defaults, 1000 utterances, 802/198 split, `TrainConfig()`
  defaults except 2 epochs). Speech self-attention is up to 120x120, so
  numpy kernels are a real share next to per-node Python overhead. One
  operation is one train call: forward, backward, Adam and the per-epoch
  evaluation of both splits.
* ``ablation-short``: `evalkit.run_ablation` at the acceptance-criterion-5
  shape over the four fusion modes, one non-default label init per modality
  and both unimodal towers. Matrices are tiny, so per-node overhead
  dominates FLOPs, and every run repeats `corpus.generate`, `tfidf_topk` and
  `build_model`. One operation is one grid (8 train runs).
* ``serve-heldout``: the same diffcore/encoders/fusion code used read-only.
  Set-up trains a reference-shape model, saves the checkpoint and a fresh
  corpus (another seed), loads both back and rebuilds the model. One
  operation predicts every served utterance one at a time through
  `trainer.model_predictor`, then runs `evalkit.evaluate`.

Two epochs is the fewest at which the reference shape clears a heldout-UA
floor well above chance on every seed tried (after one epoch some seeds were
near chance).
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter, perf_counter_ns

from labelfuse import corpus, evalkit, trainer
from labelfuse.corpus import CorpusSpec
from labelfuse.errors import LabelFuseError
from labelfuse.trainer import TrainConfig

import tracing

TRAIN_FRACTION = 0.8
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Shape:
    spec: CorpusSpec  # its seed is replaced by the benchmark seed
    n: int  # utterances generated, before the train/heldout split
    config: TrainConfig
    ua_floor: float = 0.0  # lowest acceptable final heldout unweighted accuracy
    serve_n: int = 300  # utterances in the corpus a served model predicts
    warmup_per_class: int = 10  # train utterances per class in the warm-up run


# Chance UA is 0.25 and a model stuck on one class scores exactly 0.25. After
# 2 epochs the reference shape scored 0.38 to 0.99 on seeds 0-39.
REFERENCE_SHAPE = Shape(CorpusSpec(), 1000, TrainConfig(epochs=2), ua_floor=0.3)
# No floor here: after 2 epochs the grid mean UA was 0.27 to 0.48 on seeds
# 0-28, too close to chance to tell a broken model from an undertrained one.
ABLATION_SHAPE = Shape(
    CorpusSpec(
        vocab_text=60, vocab_speech=80, text_len=(8, 16), speech_len=(16, 40), salient_per_class=4
    ),
    300,
    TrainConfig(epochs=2, top_k_speech=40),
)


@dataclass
class Record:
    """What one benchmark run measured and checked."""

    setup_s: list[float] = field(default_factory=list)
    # (wall s, train runs completed, utterance-epochs trained) per timed piece of training
    train: list[tuple[float, int, int]] = field(default_factory=list)
    predict_ms: list[list[float]] = field(default_factory=list)  # latencies, one list per predictor
    attempted: int = 0  # operations and checks
    failed: int = 0
    checks: dict[str, list[int]] = field(default_factory=dict)  # name -> [passed, failed]
    digests: dict[str, str] = field(default_factory=dict)
    ckpt_bytes: int = 0

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        self.checks.setdefault(name, [0, 0])[0 if ok else 1] += 1
        if not ok:
            self.failed += 1

    def same(self, name: str, digest: str) -> None:
        """Check that every output recorded under `name` has one sha256."""
        self.check(f"{name}_repeatable", self.digests.setdefault(name, digest) == digest)


@contextmanager
def predictions_timed(sink: list[list[float]]):
    """Time every prediction made through `trainer.model_predictor`, in ms.

    Each predictor gets its own list in `sink`, so one list holds one model
    predicting one corpus (an evaluation pass, or a served pass).
    """
    original = trainer.model_predictor

    def model_predictor(model, config):
        predict = original(model, config)
        latencies: list[float] = []
        sink.append(latencies)

        def timed(utterance):
            t0 = perf_counter_ns()
            label = predict(utterance)
            latencies.append((perf_counter_ns() - t0) / 1e6)
            return label

        return timed

    patched = tracing.rebind(original, model_predictor)
    try:
        yield
    finally:
        tracing.restore(patched)


def _sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def train_digest(log, checkpoint) -> str:
    """sha256 of the train log CSV and of every final array, bit for bit."""
    parts = ["\n".join(log.to_lines()).encode()]
    for name in sorted(checkpoint.arrays):
        parts += [name.encode(), checkpoint.arrays[name].array.tobytes()]
    return _sha256(*parts)


def same_arrays(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].array.dtype == b[k].array.dtype
        and a[k].shape == b[k].shape
        and a[k].array.tobytes() == b[k].array.tobytes()
        for k in a
    )


def head_per_class(c: corpus.Corpus, per_class: int) -> corpus.Corpus:
    """The first `per_class` utterances of each class, in corpus order."""
    taken: Counter = Counter()
    keep = []
    for utt in c.utterances:
        if taken[utt.label] < per_class:
            taken[utt.label] += 1
            keep.append(utt)
    return replace(c, utterances=tuple(keep))


def make_splits(shape: Shape, seed: int):
    spec = replace(shape.spec, seed=seed)
    return corpus.split(corpus.generate(spec, shape.n), TRAIN_FRACTION, seed=seed)


def short_epoch(shape: Shape, train_split, heldout, config: TrainConfig) -> None:
    """One short epoch through every code path the timed part uses."""
    k = shape.warmup_per_class
    trainer.train(
        head_per_class(train_split, k),
        head_per_class(heldout, max(1, k // 2)),
        replace(config, epochs=1),
    )


def timed_train(rec: Record, shape: Shape, train_split, heldout, config: TrainConfig):
    t0 = perf_counter()
    model, log, checkpoint = trainer.train(train_split, heldout, config)
    rec.train.append((perf_counter() - t0, 1, config.epochs * len(train_split)))
    rec.attempted += 1
    rec.check("heldout_ua_floor", log.records[-1].heldout_ua >= shape.ua_floor)
    return model, checkpoint, train_digest(log, checkpoint)


class TrainDefault:
    def __init__(self, shape: Shape) -> None:
        self.shape = shape

    def setup(self, seed: int, rec: Record, workdir: Path):
        train_split, heldout = make_splits(self.shape, seed)
        return train_split, heldout, replace(self.shape.config, seed=seed)

    def warm_up(self, state) -> None:
        short_epoch(self.shape, *state)

    def op(self, state, rec: Record) -> None:
        try:
            _, _, digest = timed_train(rec, self.shape, *state)
        except LabelFuseError:
            rec.attempted += 1
            rec.failed += 1
            return
        rec.same("train_output", digest)


def ablation_conditions(base: TrainConfig) -> dict[str, TrainConfig]:
    conditions = evalkit.fusion_mode_conditions(base)
    conditions["text-init-label-words"] = replace(base, text_label_init="label-words")
    conditions["speech-init-text-embedding"] = replace(base, speech_label_init="text-embedding")
    conditions["text-only"] = replace(base, modality="text")
    conditions["speech-only"] = replace(base, modality="speech")
    return conditions


class AblationShort:
    def __init__(self, shape: Shape) -> None:
        self.shape = shape

    def setup(self, seed: int, rec: Record, workdir: Path):
        train_split, heldout = make_splits(self.shape, seed)
        spec = replace(self.shape.spec, seed=seed)
        return spec, train_split, heldout, ablation_conditions(self.shape.config)

    def warm_up(self, state) -> None:
        spec, train_split, heldout, _ = state
        short_epoch(self.shape, train_split, heldout, replace(self.shape.config, seed=spec.seed))

    def op(self, state, rec: Record) -> None:
        spec, train_split, _, conditions = state
        t0 = perf_counter()
        report = evalkit.run_ablation(conditions, spec, self.shape.n, TRAIN_FRACTION, [spec.seed])
        wall = perf_counter() - t0
        done = sum(len(c.per_seed) for c in report.conditions)
        failed = sum(len(c.failures) for c in report.conditions)
        rec.train.append((wall, done, done * self.shape.config.epochs * len(train_split)))
        rec.attempted += done + failed
        rec.failed += failed
        rec.same("ablation_report", _sha256("\n".join(report.to_lines()).encode()))


class ServeHeldout:
    def __init__(self, shape: Shape) -> None:
        self.shape = shape

    def setup(self, seed: int, rec: Record, workdir: Path):
        train_split, heldout = make_splits(self.shape, seed)
        config = replace(self.shape.config, seed=seed)
        model, checkpoint, digest = timed_train(rec, self.shape, train_split, heldout, config)
        rec.same("train_output", digest)
        served = corpus.generate(replace(self.shape.spec, seed=seed + 1), self.shape.serve_n)

        folder = Path(tempfile.mkdtemp(dir=workdir))
        try:
            ckpt_path, corpus_path = folder / "model.ckpt", folder / "served.txt"
            trainer.save_checkpoint(ckpt_path, checkpoint)
            corpus.save(served, corpus_path)
            rec.ckpt_bytes = ckpt_path.stat().st_size
            loaded_corpus = corpus.load(corpus_path)
            loaded = trainer.load_checkpoint(ckpt_path)
            loaded_model = trainer.model_from_checkpoint(loaded)
        finally:
            shutil.rmtree(folder)
        rec.check("checkpoint_roundtrip_bitwise", same_arrays(checkpoint.arrays, loaded.arrays))
        rec.check("corpus_roundtrip", loaded_corpus == served)

        predict = trainer.model_predictor(model, config)
        reference = [predict(utt) for utt in loaded_corpus.utterances]
        return loaded_model, config, loaded_corpus, reference

    def warm_up(self, state) -> None:
        """Nothing left to warm: set-up trained and predicted every served utterance."""

    def op(self, state, rec: Record) -> None:
        model, config, served, reference = state
        predict = trainer.model_predictor(model, config)
        predictions = []
        for utt in served.utterances:
            rec.attempted += 1
            try:
                predictions.append(predict(utt))
            except LabelFuseError:
                rec.failed += 1
                predictions.append(None)
        rec.check("loaded_model_matches_in_memory", predictions == reference)
        result = evalkit.evaluate(predict, served)
        correct = sum(p == utt.label for p, utt in zip(predictions, served.utterances))
        rec.check("evaluate_wa_matches_loop", result.weighted_accuracy == correct / len(predictions))
        rec.same("served_predictions", _sha256(repr((predictions, result)).encode()))


WORKLOADS = {
    "train-default": TrainDefault(REFERENCE_SHAPE),
    "ablation-short": AblationShort(ABLATION_SHAPE),
    "serve-heldout": ServeHeldout(REFERENCE_SHAPE),
}


def run_untraced(workload, seed: int, seconds: float, workdir: Path) -> Record:
    """Set up (and warm up) SETUP_REPEATS times, then repeat the timed operation for `seconds`."""
    rec = Record()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        state = workload.setup(seed, rec, workdir)
        workload.warm_up(state)
        rec.setup_s.append(perf_counter() - t0)
    with predictions_timed(rec.predict_ms):
        start = perf_counter()
        while True:
            workload.op(state, rec)
            if perf_counter() - start >= seconds:
                break
    return rec


def run_traced(workload, seed: int, seconds: float, workdir: Path):
    """Traced set-up, untraced warm-up, then pairs of (untraced, traced) operations for `seconds`.

    Returns the record, the tracer, and the traced over untraced wall time of
    the paired operations, minus 1.
    """
    rec = Record()
    tracer = tracing.Tracer()
    with tracer:
        state = workload.setup(seed, rec, workdir)
    workload.warm_up(state)
    untraced = traced = 0.0
    start = perf_counter()
    while True:
        t0 = perf_counter()
        workload.op(state, rec)
        t1 = perf_counter()
        with tracer:
            workload.op(state, rec)
        t2 = perf_counter()
        untraced += t1 - t0
        traced += t2 - t1
        if t2 - start >= seconds:
            break
    rec.check("trace_restored", tracing.all_restored(tracer.patched))
    return rec, tracer, traced / untraced - 1.0
