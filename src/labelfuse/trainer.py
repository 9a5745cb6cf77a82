"""Deterministic training loop with Adam and versioned checkpoints.

Parameter init, label construction, per-epoch shuffling and the optimizer
state all derive from the config seed (README's Parameters section lists the
streams). `build_model` hands `fusion.init_model` both label matrices, each
from `labelkit.label_rows` on the train split and the drawn table.

Each mini-batch is one graph: one forward (`fusion.forward` or
`fusion.unimodal_forward`) and one `backward` per batch, whose root is the
sum of the utterances' weighted totals, so a weight's gradient is one
product over the batch. Batch gradients are averaged, not summed, keeping
the learning rate insensitive to batch size. The result's `terms` hold each
utterance's five loss columns for the log. Evaluation predicts one
utterance at a time (`model_predictor`): a prediction is the argmax of
`fusion.predict_logits` or `fusion.unimodal_logits`.

`train` evaluates both splits after every epoch for its log and
checkpoint. `fit` runs the same epochs with no evaluation, log or
checkpoint, and `evaluate_final` scores its model once; the ablation and
sweep harnesses and `score-fusion` use that pair.

A checkpoint stores the config, the arrays (parameters and Adam moments,
each a `diffcore.Matrix`, the one holder of an array left in the package),
Adam's step count, the log records and the split; README's Checkpoint
format section gives the file layout, the fields derived on save and the
checks `load_checkpoint` and `check_fit` make.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import evalkit
from .atomic import write_atomic
from .corpus import Corpus, SplitSpec
from .diffcore import Matrix, Node, backward, checked
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
    PARAMETERS,
    TOWERS,
    ForwardResult,
    FusionMode,
    _shapes,
    forward,
    init_model,
    model_from_arrays,
    predict_logits,
    unimodal_forward,
    unimodal_logits,
)
from .labelkit import SPEECH_INIT_MODES, TEXT_INIT_MODES, label_rows
from .valuetypes import (
    POSITIVE, at_least, check_fields, check_value, field_types, option, within,
)

CHECKPOINT_VERSION = 1
_CHECKPOINT_MAGIC = b"LABELFUSE-CKPT\n"


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = option(50, "training epochs", domain=at_least(0))
    batch_size: int = option(8, "utterances per optimizer step", domain=at_least(1))
    learning_rate: float = option(3e-4, "Adam learning rate", domain=POSITIVE)
    adam_beta1: float = option(0.9, "Adam first-moment decay", domain=within(0, 1, high_open=True))
    adam_beta2: float = option(0.999, "Adam second-moment decay",
                               domain=within(0, 1, high_open=True))
    adam_epsilon: float = option(1e-8, "Adam denominator epsilon", domain=POSITIVE)
    mu_main: float = option(DEFAULT_LOSS_WEIGHTS[0], "weight of the fused classification loss",
                            domain=at_least(0))
    mu_constraint: float = option(DEFAULT_LOSS_WEIGHTS[1],
                                  "weight of the alignment constraint loss", domain=at_least(0))
    mu_guide_text: float = option(DEFAULT_LOSS_WEIGHTS[2], "weight of the text guidance loss",
                                  domain=at_least(0))
    mu_guide_speech: float = option(DEFAULT_LOSS_WEIGHTS[3], "weight of the speech guidance loss",
                                    domain=at_least(0))
    fusion_mode: str = option("constraint", domain=tuple(mode.value for mode in FusionMode))
    modality: str = option("multimodal", domain=("multimodal", *TOWERS))
    text_label_init: str = option("tfidf", domain=TEXT_INIT_MODES)
    speech_label_init: str = option("codebook", domain=SPEECH_INIT_MODES)
    top_k_text: int = option(9, "keywords per class for text labels", domain=at_least(1))
    top_k_speech: int = option(100, "key frames per class for speech labels", domain=at_least(1))
    labels_trainable: bool = option(False, "whether label rows receive updates")
    normalize_label_attention: bool = option(False, "row-softmax the label-guided alignment")
    text_dim: int = option(DEFAULT_DIM, "text representation width", domain=at_least(1))
    speech_dim: int = option(DEFAULT_DIM, "speech representation width", domain=at_least(1))
    seed: int = option(0, "model init / shuffling seed", domain=at_least(0))

    def __post_init__(self) -> None:
        check_fields(self)
        if self.speech_label_init == "text-embedding" and self.text_dim != self.speech_dim:
            raise DimensionError(
                f"text-embedding speech label init needs text_dim == speech_dim "
                f"({self.text_dim} != {self.speech_dim})"
            )

    @property
    def loss_weights(self) -> tuple[float, float, float, float]:
        return (self.mu_main, self.mu_constraint, self.mu_guide_text, self.mu_guide_speech)


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

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass
class TrainLog:
    """Per-epoch records: the loss columns and both splits' WA/UA after each epoch."""

    records: list[EpochRecord] = field(default_factory=list)

    def to_lines(self) -> list[str]:
        """A CSV header of `EpochRecord`'s fields, then one row per record."""
        header = ",".join(field_types(EpochRecord))
        return [header] + [",".join(format(v, ".12g") for v in dataclasses.astuple(r))
                           for r in self.records]


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
        """One update of every parameter with a grad, as one `adam_update` over all of them.

        The rule is elementwise, so updating the concatenated arrays gives each
        array the bits a separate update would. The update is `checked` whole
        before anything is written, so a non-finite one raises NonFiniteError
        and leaves every parameter, moment and the step count as they were.
        """
        t = self.t + 1
        live = [(name, node) for name, node in named_params if node.grad is not None]

        def flat(arrays) -> np.ndarray:
            return np.concatenate([a.ravel() for a in arrays])

        def moments(state) -> np.ndarray:  # a parameter's first step starts from zeros
            return flat(state[name] if name in state else np.zeros(node.grad.shape)
                        for name, node in live)

        if live:
            values, m, v = adam_update(
                flat(node.value for _, node in live),
                flat(node.grad for _, node in live) * grad_scale,
                moments(self.m),
                moments(self.v),
                t,
                self.learning_rate,
                self.beta1,
                self.beta2,
                self.epsilon,
            )
            values = checked(values[None])[0]
            start = 0
            for name, node in live:
                shape = node.value.shape
                part = slice(start, start + node.value.size)
                node.value = values[part].reshape(shape)
                self.m[name], self.v[name] = m[part].reshape(shape), v[part].reshape(shape)
                start = part.stop
        self.t = t


# ---------------------------------------------------------------------------
# Model assembly
# ---------------------------------------------------------------------------


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


def build_model(train_corpus: Corpus, config: TrainConfig) -> dict[str, Node]:
    """Seeded model (`fusion.init_model`) with label rows from the train split."""

    def labels(embedding: np.ndarray, codebook: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        text = label_rows(train_corpus, "text", config.text_label_init, embedding,
                          top_k=config.top_k_text, seed=config.seed + 101)
        speech = label_rows(train_corpus, "speech", config.speech_label_init, codebook,
                            top_k=config.top_k_speech, seed=config.seed + 202, text_rows=text)
        return text, speech

    return init_model(_dims(train_corpus, config), config.seed, labels, config.labels_trainable)


def check_fit(model: dict[str, Node], corpus: Corpus, config: TrainConfig) -> None:
    """DimensionError naming the first array whose shape the corpus and config do not give."""
    for name, shape in _shapes(_dims(corpus, config)).items():
        if model[name].value.shape != shape:
            raise DimensionError(
                f"checkpoint array {name!r} has shape {model[name].value.shape}, expected {shape}"
            )


def _batch_loss(batch, model: dict[str, Node], config: TrainConfig) -> ForwardResult:
    if config.modality == "multimodal":
        return forward(batch, model, FusionMode(config.fusion_mode), config.loss_weights,
                       config.normalize_label_attention)
    return unimodal_forward(batch, config.modality, model, config.loss_weights)


def _train_step(batch, model: dict[str, Node], config: TrainConfig, optimizer: Adam) -> np.ndarray:
    """Forward, backward and Adam step of one mini-batch; each utterance's five loss columns.

    The batch's graph is freed on return, after the step, so the next batch
    builds its own graph in the memory this one leaves.
    """
    for node in model.values():
        node.zero_grad()
    result = _batch_loss(batch, model, config)
    if not np.isfinite(result.loss.value[0, 0]):
        raise NonFiniteError("loss is not finite")
    backward(result.loss)
    optimizer.step(model.items(), grad_scale=1.0 / len(batch))
    return result.terms


@contextmanager
def _diverging(epoch: int, stage: str):
    """Re-raise a NonFiniteError or DegenerateRowError as DivergenceError naming epoch and stage."""
    try:
        yield
    except (NonFiniteError, DegenerateRowError) as exc:
        raise DivergenceError(f"training diverged at epoch {epoch}, {stage}: {exc}") from exc


def _epochs(train_corpus: Corpus, model: dict[str, Node], config: TrainConfig, optimizer: Adam,
            start_epoch: int):
    """Train epochs start_epoch..epochs-1; yield each epoch and its mean loss columns.

    This is the package's one batch loop. The five columns are those of
    `ForwardResult.terms`, in `EpochRecord` order.
    """
    for epoch in range(start_epoch, config.epochs):
        order = np.random.default_rng([config.seed, 1000 + epoch]).permutation(len(train_corpus))
        sums = np.zeros(5)
        for batch_no, start in enumerate(range(0, len(order), config.batch_size)):
            batch = [train_corpus.utterances[i] for i in order[start : start + config.batch_size]]
            with _diverging(epoch, f"batch {batch_no}"):
                for terms in _train_step(batch, model, config, optimizer):
                    sums += terms
        yield epoch, sums / len(order)


def fit(train_corpus: Corpus, config: TrainConfig) -> dict[str, Node]:
    """The model `train` returns for this split and config, with no evaluation, log or checkpoint.

    Its arrays are bitwise those of `train`'s model: evaluation only reads
    the model. A failing batch raises `train`'s DivergenceError.
    """
    if not len(train_corpus):
        raise ConfigError("the train split must be non-empty")
    model = build_model(train_corpus, config)
    for _ in _epochs(train_corpus, model, config, Adam(config), 0):
        pass
    return model


def evaluate_final(
    model: dict[str, Node], corpus: Corpus, config: TrainConfig
) -> evalkit.EvalResult:
    """One evaluation of a model `fit` trained for `config.epochs` epochs.

    A non-finite logit or a zero-norm row raises the DivergenceError `train`
    gives for its last epoch's evaluation.
    """
    with _diverging(config.epochs - 1, "evaluation"):
        return evalkit.evaluate(model_predictor(model, config), corpus)


def train(
    train_corpus: Corpus,
    heldout_corpus: Corpus,
    config: TrainConfig,
    resume_from: "Checkpoint | None" = None,
) -> tuple[dict[str, Node], TrainLog, "Checkpoint"]:
    """Train a model, evaluating both splits after each epoch; returns (model, log, checkpoint).

    Deterministic: identical (config, corpora) give bitwise-identical logs
    and checkpoints. Resuming rebuilds the model from an intermediate
    checkpoint's arrays (`check_fit`'s DimensionError when a shape disagrees
    with the corpus and config) and continues the exact trajectory of an
    uninterrupted run. The log holds each epoch's WA/UA on both splits, and
    the checkpoint the last epoch's heldout WA/UA. A non-finite loss,
    gradient, parameter or logit, or a zero-norm row where a direction is
    needed, raises DivergenceError naming the epoch and the batch (or
    evaluation).
    """
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
        check_fit(model, train_corpus, config)
        restore_into_optimizer(resume_from, optimizer)
        log = TrainLog(list(resume_from.log_records))
        start_epoch = resume_from.epoch

    for epoch, losses in _epochs(train_corpus, model, config, optimizer, start_epoch):
        with _diverging(epoch, "evaluation"):
            train_eval = evalkit.evaluate(model_predictor(model, config), train_corpus)
            heldout_eval = evalkit.evaluate(model_predictor(model, config), heldout_corpus)
        log.records.append(EpochRecord(
            epoch, *(float(v) for v in losses),
            train_eval.weighted_accuracy, train_eval.unweighted_accuracy,
            heldout_eval.weighted_accuracy, heldout_eval.unweighted_accuracy,
        ))

    return model, log, make_checkpoint(model, optimizer, config, log)


def model_predictor(model: dict[str, Node], config: TrainConfig):
    """Per-utterance class prediction: the argmax of the configured modality's logits."""
    if config.modality == "multimodal":
        mode = FusionMode(config.fusion_mode)

        def logits(utt):
            return predict_logits(utt, model, mode, config.normalize_label_attention)

    else:

        def logits(utt):
            return unimodal_logits(utt, config.modality, model)

    return lambda utt: int(np.argmax(logits(utt)[0]))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    config: TrainConfig
    arrays: dict[str, Matrix]  # parameters and optimizer moments
    adam_step_count: int
    log_records: tuple[EpochRecord, ...]
    # The corpus split the model was trained on (`corpus.SplitSpec`'s fields),
    # when the caller split a corpus file; `evaluate --split` scores that split.
    split: dict[str, float | int] | None = None

    @property
    def epoch(self) -> int:
        """The epochs trained: one log record each."""
        return len(self.log_records)


def make_checkpoint(
    model: dict[str, Node], optimizer: Adam, config: TrainConfig, log: TrainLog
) -> Checkpoint:
    arrays = {name: Matrix(node.value) for name, node in model.items()}
    for name, m in optimizer.m.items():
        arrays[f"adam.m.{name}"] = Matrix(m)
    for name, v in optimizer.v.items():
        arrays[f"adam.v.{name}"] = Matrix(v)
    return Checkpoint(config, arrays, optimizer.t, tuple(log.records))


def _final_metrics(records) -> dict[str, float]:
    """The manifest's `metrics`: the last record's heldout WA/UA, {} when there is none."""
    if not records:
        return {}
    return {"heldout_wa": records[-1].heldout_wa, "heldout_ua": records[-1].heldout_ua}


def restore_into_optimizer(checkpoint: Checkpoint, optimizer: Adam) -> None:
    optimizer.t = checkpoint.adam_step_count
    for name, matrix in checkpoint.arrays.items():
        if name.startswith("adam.m."):
            optimizer.m[name[len("adam.m.") :]] = matrix.array.copy()
        elif name.startswith("adam.v."):
            optimizer.v[name[len("adam.v.") :]] = matrix.array.copy()


def model_from_checkpoint(checkpoint: Checkpoint) -> dict[str, Node]:
    """Self-contained model rebuild; shapes and values come from the arrays."""
    try:
        return model_from_arrays({name: m.array for name, m in checkpoint.arrays.items()},
                                 checkpoint.config.labels_trainable)
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
        rows, cols = matrix.shape
        entries.append(
            {
                "name": name,
                "rows": rows,
                "cols": cols,
                "offset": len(blob),
                "crc32": zlib.crc32(raw),
            }
        )
        blob.extend(raw)
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(checkpoint.config),
        "epoch": checkpoint.epoch,
        "adam_step_count": checkpoint.adam_step_count,
        "log_records": [dataclasses.asdict(r) for r in checkpoint.log_records],
        "metrics": _final_metrics(checkpoint.log_records),
        "split": checkpoint.split,
        "arrays": entries,
    }
    payload = json.dumps(manifest, sort_keys=True).encode("utf-8")
    header = _CHECKPOINT_MAGIC + struct.pack("<Q", len(payload))
    write_atomic(path, b"".join((header, payload, blob)))


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
    except RecursionError:
        raise CheckpointIntegrityError("corrupted manifest: nested too deeply") from None

    if not isinstance(manifest, dict):
        raise CheckpointIntegrityError("corrupted manifest: not a JSON object")
    version = manifest.get("format_version")
    if version != CHECKPOINT_VERSION or type(version) is not int:
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
        name = check_value("array name", str, entry["name"])
        if name in arrays:
            raise CheckpointIntegrityError(f"array {name!r} is listed twice")
        size = entry["rows"] * entry["cols"] * 8
        chunk = blob[entry["offset"] : entry["offset"] + size]
        if len(chunk) != size:
            raise CheckpointIntegrityError(f"truncated array {name!r}")
        if zlib.crc32(chunk) != entry["crc32"]:
            raise CheckpointIntegrityError(f"checksum mismatch for array {name!r}")
        values = np.frombuffer(chunk, dtype="<f8").reshape(entry["rows"], entry["cols"])
        arrays[name] = Matrix(values)

    config = TrainConfig(**manifest["config"])
    records = tuple(_record(i, fields) for i, fields in enumerate(manifest["log_records"]))
    if check_value("epoch", int, manifest["epoch"]) != len(records):
        raise CheckpointIntegrityError(
            f"manifest epoch {manifest['epoch']!r} disagrees with its {len(records)} log records"
        )
    metrics = _final_metrics(records)
    if manifest["metrics"] != metrics:
        raise CheckpointIntegrityError(
            f"manifest metrics {manifest['metrics']!r} disagree with the last log record's "
            f"{metrics!r}"
        )
    _check_moments(arrays)
    split = manifest.get("split")
    if split is not None:
        names = field_types(SplitSpec)
        if not isinstance(split, dict) or split.keys() != names.keys():
            raise CheckpointIntegrityError(f"split must name {sorted(names)}, got {split!r}")
        split = dataclasses.asdict(SplitSpec(**split))
    adam_step_count = check_value("adam_step_count", int, manifest["adam_step_count"], at_least(0))
    return Checkpoint(config, arrays, adam_step_count, records, split)


def _record(index: int, fields: dict) -> EpochRecord:
    """Log record `index` of a manifest; its fields pass the type rule, and its epoch is `index`."""
    record = EpochRecord(**fields)  # a TypeError names a missing or unknown field
    if record.epoch != index:
        raise CheckpointIntegrityError(f"log record {index} has epoch {record.epoch}")
    return record


def _check_moments(arrays: dict[str, Matrix]) -> None:
    """Each array is a model array or an Adam moment; moments come in m/v pairs, for a model
    array and of its shape.
    """
    for name, moment in arrays.items():
        if not name.startswith(("adam.m.", "adam.v.")):
            if name not in PARAMETERS:
                raise CheckpointIntegrityError(f"array {name!r} is not a model array")
            continue
        param = name[len("adam.m.") :]
        if param not in PARAMETERS:
            raise CheckpointIntegrityError(f"optimizer moment {name!r} is for no model array")
        for needed in (param, f"adam.m.{param}", f"adam.v.{param}"):
            if needed not in arrays:
                raise CheckpointIntegrityError(f"checkpoint has {name!r} but no {needed!r}")
        if moment.shape != arrays[param].shape:
            raise CheckpointIntegrityError(
                f"optimizer moment {name!r} has shape {moment.shape}, "
                f"array {param!r} has {arrays[param].shape}"
            )
