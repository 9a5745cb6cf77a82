"""Deterministic training loop with Adam and versioned checkpoints.

Everything is a pure function of (config, corpus): parameter init, label
construction, per-epoch shuffling and the optimizer state all derive from
the config seed, so identical inputs reproduce identical logs, parameters
and checkpoint bytes. Batch gradients are averaged, not summed, keeping
the learning rate insensitive to batch size.

Parameter names live in one table, `fusion.PARAMETERS`; the optimizer state,
checkpoints and `model_from_checkpoint` all loop over the registry built from
it. RNG streams, each a `default_rng([config.seed, n])`: n = 3 draws the
embedding table and the codebook, n = 2 the weights (both in
`fusion.init_model`), n = 1000 + epoch shuffles each epoch; the random label
modes use seed + 101 and seed + 202.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import evalkit
from .corpus import Corpus
from .diffcore import Matrix, backward
from .encoders import DEFAULT_DIM
from .errors import (
    CheckpointIntegrityError,
    ConfigError,
    DegenerateRowError,
    DivergenceError,
    DimensionError,
    LabelFuseError,
    NonFiniteError,
    UnsupportedVersionError,
)
from .fusion import (
    DEFAULT_LOSS_WEIGHTS,
    FusionMode,
    ModelParams,
    _shapes,
    forward,
    init_model,
    predict,
    unimodal_forward,
    unimodal_logits,
)
from .labelkit import (
    LabelBank,
    SPEECH_INIT_MODES,
    TEXT_INIT_MODES,
    build_speech_labels,
    build_text_labels,
    speech_view,
    text_view,
    tfidf_topk,
)

CHECKPOINT_VERSION = 1
_CHECKPOINT_MAGIC = b"LABELFUSE-CKPT\n"

MODALITIES = ("multimodal", "text", "speech")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 8
    learning_rate: float = 3e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    mu_main: float = DEFAULT_LOSS_WEIGHTS[0]
    mu_constraint: float = DEFAULT_LOSS_WEIGHTS[1]
    mu_guide_text: float = DEFAULT_LOSS_WEIGHTS[2]
    mu_guide_speech: float = DEFAULT_LOSS_WEIGHTS[3]
    fusion_mode: str = "constraint"
    modality: str = "multimodal"
    text_label_init: str = "tfidf"
    speech_label_init: str = "codebook"
    top_k_text: int = 9
    top_k_speech: int = 100
    labels_trainable: bool = False
    normalize_label_attention: bool = False
    text_dim: int = DEFAULT_DIM
    speech_dim: int = DEFAULT_DIM
    seed: int = 0

    @property
    def loss_weights(self) -> tuple[float, float, float, float]:
        return (self.mu_main, self.mu_constraint, self.mu_guide_text, self.mu_guide_speech)

    def validate(self) -> None:
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if min(self.loss_weights) < 0:
            raise ConfigError("loss weights must be >= 0")
        if self.fusion_mode not in {m.value for m in FusionMode}:
            raise ConfigError(f"unknown fusion_mode {self.fusion_mode!r}")
        if self.modality not in MODALITIES:
            raise ConfigError(f"modality must be one of {MODALITIES}, got {self.modality!r}")
        if self.text_label_init not in TEXT_INIT_MODES:
            raise ConfigError(f"unknown text_label_init {self.text_label_init!r}")
        if self.speech_label_init not in SPEECH_INIT_MODES:
            raise ConfigError(f"unknown speech_label_init {self.speech_label_init!r}")
        if self.top_k_text < 1 or self.top_k_speech < 1:
            raise ConfigError("top-k values must be >= 1")
        if self.text_dim < 1 or self.speech_dim < 1:
            raise ConfigError("dims must be >= 1")
        if self.speech_label_init == "text-embedding" and self.text_dim != self.speech_dim:
            raise DimensionError(
                f"text-embedding speech label init needs text_dim == speech_dim "
                f"({self.text_dim} != {self.speech_dim})"
            )


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    loss_main: float
    loss_constraint: float
    loss_guide_text: float
    loss_guide_speech: float
    loss_total: float
    train_wa: float
    train_ua: float
    heldout_wa: float
    heldout_ua: float


@dataclass
class TrainLog:
    """Per-epoch records, and the final model's heldout evaluation.

    `heldout` is the `EvalResult` of the last epoch's heldout evaluation,
    None when no epoch ran; it is neither in `to_lines()` nor in checkpoints.
    """

    records: list[EpochRecord] = field(default_factory=list)
    heldout: evalkit.EvalResult | None = None

    def to_lines(self) -> list[str]:
        lines = [
            "epoch,loss_main,loss_constraint,loss_guide_text,loss_guide_speech,"
            "loss_total,train_wa,train_ua,heldout_wa,heldout_ua"
        ]
        for r in self.records:
            lines.append(
                f"{r.epoch},{r.loss_main:.12g},{r.loss_constraint:.12g},"
                f"{r.loss_guide_text:.12g},{r.loss_guide_speech:.12g},{r.loss_total:.12g},"
                f"{r.train_wa:.12g},{r.train_ua:.12g},{r.heldout_wa:.12g},{r.heldout_ua:.12g}"
            )
        return lines


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def adam_update(
    value: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    learning_rate: float,
    beta1: float,
    beta2: float,
    epsilon: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One bias-corrected Adam step on a single parameter array."""
    if not (value.shape == grad.shape == m.shape == v.shape):
        raise DimensionError(
            f"adam shapes differ: value {value.shape}, grad {grad.shape}, "
            f"m {m.shape}, v {v.shape}"
        )
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return value - learning_rate * m_hat / (np.sqrt(v_hat) + epsilon), m, v


class Adam:
    """Moment state for a named parameter set; skips params with no grad."""

    def __init__(self, config: TrainConfig) -> None:
        self.learning_rate = config.learning_rate
        self.beta1 = config.adam_beta1
        self.beta2 = config.adam_beta2
        self.epsilon = config.adam_epsilon
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, named_params, grad_scale: float = 1.0) -> None:
        self.t += 1
        for name, node in named_params:
            if node.grad is None:
                continue
            grad = node.grad.array * grad_scale
            if name not in self.m:
                self.m[name] = np.zeros(grad.shape)
                self.v[name] = np.zeros(grad.shape)
            new_value, self.m[name], self.v[name] = adam_update(
                node.value.array,
                grad,
                self.m[name],
                self.v[name],
                self.t,
                self.learning_rate,
                self.beta1,
                self.beta2,
                self.epsilon,
            )
            node.value = Matrix(new_value)


# ---------------------------------------------------------------------------
# Model assembly
# ---------------------------------------------------------------------------


def build_label_bank(train_corpus: Corpus, config: TrainConfig, codebook: Matrix,
                     embedding_table: Matrix) -> LabelBank:
    """Label matrices per the configured init modes, from the train split only."""
    spec = train_corpus.spec
    text_desc = None
    if config.text_label_init == "tfidf":
        text_desc = tfidf_topk(text_view(train_corpus), config.top_k_text)
    speech_desc = None
    if config.speech_label_init == "codebook":
        speech_desc = tfidf_topk(speech_view(train_corpus), config.top_k_speech)

    text_labels = build_text_labels(
        text_desc,
        embedding_table,
        config.text_label_init,
        seed=config.seed + 101,
        label_word_ids=list(range(spec.classes)),
        classes=spec.classes,
    )
    speech_labels = build_speech_labels(
        speech_desc,
        codebook,
        config.speech_label_init,
        seed=config.seed + 202,
        text_labels=text_labels,
        classes=spec.classes,
    )
    return LabelBank(
        text_labels=text_labels, speech_labels=speech_labels, trainable=config.labels_trainable
    )


def _dims(train_corpus: Corpus, config: TrainConfig) -> dict[str, int]:
    """The sizes `fusion.init_model` and `fusion._shapes` take, from corpus and config."""
    spec = train_corpus.spec
    return {
        "vocab_text": spec.vocab_text,
        "vocab_speech": spec.vocab_speech,
        "text_dim": config.text_dim,
        "speech_dim": config.speech_dim,
        "classes": spec.classes,
    }


def build_model(train_corpus: Corpus, config: TrainConfig) -> ModelParams:
    """Seeded model (`fusion.init_model`) with label rows from the train split."""
    config.validate()
    return init_model(
        _dims(train_corpus, config),
        config.seed,
        lambda embedding, codebook: build_label_bank(train_corpus, config, codebook, embedding),
    )


def _utterance_loss(utt, model: ModelParams, config: TrainConfig):
    if config.modality == "multimodal":
        result = forward(
            utt,
            model,
            FusionMode(config.fusion_mode),
            config.loss_weights,
            config.normalize_label_attention,
        )
        b = result.breakdown
        return result.loss, (b.main, b.constraint, b.guide_text, b.guide_speech, b.total)
    result = unimodal_forward(utt, config.modality, model, config.loss_weights)
    total = float(result.loss.value.array[0, 0])
    if config.modality == "text":
        parts = (result.main, 0.0, result.guidance, 0.0, total)
    else:
        parts = (result.main, 0.0, 0.0, result.guidance, total)
    return result.loss, parts


def train(
    train_corpus: Corpus,
    heldout_corpus: Corpus,
    config: TrainConfig,
    resume_from: "Checkpoint | None" = None,
) -> tuple[ModelParams, TrainLog, "Checkpoint"]:
    """Train a model; returns (params, log, final checkpoint).

    Deterministic: identical (config, corpora) give bitwise-identical logs
    and checkpoints. Resuming rebuilds the model from an intermediate
    checkpoint's arrays (DimensionError when a shape disagrees with the
    corpus and config) and continues the exact trajectory of an
    uninterrupted run. `log.heldout` is the last epoch's heldout evaluation
    of the returned model. A non-finite loss, gradient,
    parameter or logit, or a zero-norm row where a direction is needed,
    raises DivergenceError naming the epoch and the batch (or evaluation).
    """
    config.validate()
    if not len(train_corpus) or not len(heldout_corpus):
        raise ConfigError("both corpus splits must be non-empty")

    optimizer = Adam(config)
    log = TrainLog()
    start_epoch = 0
    if resume_from is None:
        model = build_model(train_corpus, config)
    else:
        if dataclasses.replace(resume_from.config, epochs=config.epochs) != config:
            raise ConfigError("checkpoint config differs from the resume config (beyond epochs)")
        if resume_from.epoch > config.epochs:
            raise ConfigError(
                f"checkpoint already covers {resume_from.epoch} epochs, config asks for {config.epochs}"
            )
        model = model_from_checkpoint(resume_from)
        stored = {name: node.value.shape for name, node in model.named_arrays()}
        for name, shape in _shapes(_dims(train_corpus, config)).items():
            if stored[name] != shape:
                raise DimensionError(
                    f"checkpoint array {name!r} has shape {stored[name]}, expected {shape}"
                )
        restore_into_optimizer(resume_from, optimizer)
        log = TrainLog(list(resume_from.log_records))
        start_epoch = resume_from.epoch

    params = model.named_trainable()
    for epoch in range(start_epoch, config.epochs):
        order = np.random.default_rng([config.seed, 1000 + epoch]).permutation(len(train_corpus))
        sums = np.zeros(5)
        stage = "evaluation"
        try:
            for batch_no, start in enumerate(range(0, len(order), config.batch_size)):
                stage = f"batch {batch_no}"
                batch = order[start : start + config.batch_size]
                for _, node in params:
                    node.zero_grad()
                for idx in batch:
                    utt = train_corpus.utterances[int(idx)]
                    loss, parts = _utterance_loss(utt, model, config)
                    if not np.isfinite(loss.value.array[0, 0]):
                        raise NonFiniteError("loss is not finite")
                    backward(loss)
                    sums += np.array(parts)
                optimizer.step(params, grad_scale=1.0 / len(batch))
            stage = "evaluation"
            train_eval = evalkit.evaluate(model_predictor(model, config), train_corpus)
            log.heldout = evalkit.evaluate(model_predictor(model, config), heldout_corpus)
        except (NonFiniteError, DegenerateRowError) as exc:
            raise DivergenceError(f"training diverged at epoch {epoch}, {stage}: {exc}") from exc
        averages = sums / len(order)
        log.records.append(
            EpochRecord(
                epoch=epoch,
                loss_main=float(averages[0]),
                loss_constraint=float(averages[1]),
                loss_guide_text=float(averages[2]),
                loss_guide_speech=float(averages[3]),
                loss_total=float(averages[4]),
                train_wa=train_eval.weighted_accuracy,
                train_ua=train_eval.unweighted_accuracy,
                heldout_wa=log.heldout.weighted_accuracy,
                heldout_ua=log.heldout.unweighted_accuracy,
            )
        )

    final_metrics = {}
    if log.records:
        final_metrics = {
            "heldout_wa": log.records[-1].heldout_wa,
            "heldout_ua": log.records[-1].heldout_ua,
        }
    checkpoint = make_checkpoint(model, optimizer, config, config.epochs, log, final_metrics)
    return model, log, checkpoint


def model_predictor(model: ModelParams, config: TrainConfig):
    """Per-utterance class prediction matching the configured modality."""
    if config.modality == "multimodal":
        mode = FusionMode(config.fusion_mode)

        def fn(utt):
            return predict(
                utt, model, mode, normalize_label_attention=config.normalize_label_attention
            )

    else:

        def fn(utt):
            return int(np.argmax(unimodal_logits(utt, config.modality, model).array[0]))

    return fn


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    format_version: int
    config: TrainConfig
    epoch: int
    arrays: dict[str, Matrix]  # parameters and optimizer moments
    adam_step_count: int
    log_records: tuple[EpochRecord, ...]
    metrics: dict[str, float]


def make_checkpoint(
    model: ModelParams,
    optimizer: Adam,
    config: TrainConfig,
    epoch: int,
    log: TrainLog,
    metrics: dict[str, float],
) -> Checkpoint:
    arrays: dict[str, Matrix] = {name: node.value for name, node in model.named_arrays()}
    for name, m in optimizer.m.items():
        arrays[f"adam.m.{name}"] = Matrix(m)
    for name, v in optimizer.v.items():
        arrays[f"adam.v.{name}"] = Matrix(v)
    return Checkpoint(
        format_version=CHECKPOINT_VERSION,
        config=config,
        epoch=epoch,
        arrays=arrays,
        adam_step_count=optimizer.t,
        log_records=tuple(log.records),
        metrics=dict(metrics),
    )


def restore_into_optimizer(checkpoint: Checkpoint, optimizer: Adam) -> None:
    optimizer.t = checkpoint.adam_step_count
    for name, matrix in checkpoint.arrays.items():
        if name.startswith("adam.m."):
            optimizer.m[name[len("adam.m.") :]] = matrix.array.copy()
        elif name.startswith("adam.v."):
            optimizer.v[name[len("adam.v.") :]] = matrix.array.copy()


def model_from_checkpoint(checkpoint: Checkpoint) -> ModelParams:
    """Self-contained model rebuild; shapes and values come from the arrays."""
    try:
        return ModelParams.from_arrays(checkpoint.arrays, checkpoint.config.labels_trainable)
    except KeyError as exc:
        raise CheckpointIntegrityError(f"checkpoint is missing array {exc.args[0]!r}") from None


def save_checkpoint(path, checkpoint: Checkpoint) -> None:
    """Versioned container: magic, JSON manifest, raw little-endian blobs."""
    names = sorted(checkpoint.arrays)
    blob = bytearray()
    entries = []
    for name in names:
        matrix = checkpoint.arrays[name]
        raw = matrix.array.astype("<f8").tobytes(order="C")
        entries.append(
            {
                "name": name,
                "rows": matrix.rows,
                "cols": matrix.cols,
                "offset": len(blob),
                "crc32": zlib.crc32(raw),
            }
        )
        blob.extend(raw)
    manifest = {
        "format_version": checkpoint.format_version,
        "config": dataclasses.asdict(checkpoint.config),
        "epoch": checkpoint.epoch,
        "adam_step_count": checkpoint.adam_step_count,
        "log_records": [dataclasses.asdict(r) for r in checkpoint.log_records],
        "metrics": checkpoint.metrics,
        "arrays": entries,
    }
    payload = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)
        fh.write(bytes(blob))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(_CHECKPOINT_MAGIC):
        raise CheckpointIntegrityError("not a checkpoint file (bad magic)")
    header_end = len(_CHECKPOINT_MAGIC) + 8
    if len(data) < header_end:
        raise CheckpointIntegrityError("truncated checkpoint header")
    (manifest_len,) = struct.unpack("<Q", data[len(_CHECKPOINT_MAGIC) : header_end])
    manifest_end = header_end + manifest_len
    if len(data) < manifest_end:
        raise CheckpointIntegrityError("truncated checkpoint manifest")
    try:
        manifest = json.loads(data[header_end:manifest_end].decode("utf-8"))
    except UnicodeDecodeError:
        raise CheckpointIntegrityError("corrupted manifest: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise CheckpointIntegrityError(f"corrupted manifest: {exc.msg}") from None

    if not isinstance(manifest, dict):
        raise CheckpointIntegrityError("corrupted manifest: not a JSON object")
    version = manifest.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise UnsupportedVersionError(
            f"checkpoint format version {version} is not supported (expected {CHECKPOINT_VERSION})"
        )
    try:
        return _checkpoint_from_manifest(manifest, data[manifest_end:])
    except CheckpointIntegrityError:
        raise
    except KeyError as exc:
        raise CheckpointIntegrityError(f"manifest is missing field {exc}") from None
    except (LabelFuseError, TypeError, ValueError) as exc:
        raise CheckpointIntegrityError(f"invalid checkpoint content: {exc}") from None


def _checkpoint_from_manifest(manifest: dict, blob: bytes) -> Checkpoint:
    arrays: dict[str, Matrix] = {}
    for entry in manifest["arrays"]:
        size = entry["rows"] * entry["cols"] * 8
        chunk = blob[entry["offset"] : entry["offset"] + size]
        if len(chunk) != size:
            raise CheckpointIntegrityError(f"truncated array {entry['name']!r}")
        if zlib.crc32(chunk) != entry["crc32"]:
            raise CheckpointIntegrityError(f"checksum mismatch for array {entry['name']!r}")
        values = np.frombuffer(chunk, dtype="<f8").reshape(entry["rows"], entry["cols"])
        arrays[entry["name"]] = Matrix(values)

    config = TrainConfig(**manifest["config"])
    config.validate()
    records = tuple(EpochRecord(**r) for r in manifest["log_records"])
    return Checkpoint(
        format_version=manifest["format_version"],
        config=config,
        epoch=manifest["epoch"],
        arrays=arrays,
        adam_step_count=manifest["adam_step_count"],
        log_records=records,
        metrics=dict(manifest["metrics"]),
    )
