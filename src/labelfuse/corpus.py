"""Synthetic paired-modality corpora with a planted class signal.

Each utterance carries a discrete token sequence (text side), a discrete
code sequence (speech side) and a class label. Per class, a small set of
"planted" symbols is reserved in each vocabulary, disjoint across classes;
at generation time every position carries a planted symbol of the
utterance's class with probability `salience_prob`, otherwise a background
symbol that is planted for no class. The planted map travels with the
corpus as ground truth, so attention tests can check whether trained models
actually find the signal. `save` and `load` write and read the file format
that README describes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .atomic import write_atomic
from .errors import (
    ConfigError,
    CorpusParseError,
    CorpusSpecError,
    CorpusValidationError,
    StratificationError,
)
from .valuetypes import at_least, check_fields, check_value, option, within


@dataclass(frozen=True)
class Utterance:
    text_tokens: tuple[int, ...]
    frame_codes: tuple[int, ...]
    label: int


@dataclass(frozen=True)
class CorpusSpec:
    """Knobs that fully determine a generated corpus (together with n)."""

    classes: int = option(4, "number of classes", domain=at_least(1))
    vocab_text: int = option(120, "text vocabulary size", domain=at_least(1))
    vocab_speech: int = option(240, "speech code vocabulary size", domain=at_least(1))
    # A (min, max) range is the two options <name>_min and <name>_max.
    text_len: tuple[int, int] = option((10, 30), "token sequence length", domain=at_least(1))
    speech_len: tuple[int, int] = option((40, 120), "frame sequence length", domain=at_least(1))
    salient_per_class: int = option(6, "planted symbols per class per modality", domain=at_least(1))
    salience_prob: float = option(0.3, "probability a position carries a planted symbol",
                                  domain=within(0, 1))
    seed: int = option(0, "corpus generation seed", key="corpus_seed", domain=at_least(0))
    # When > 0, tokens of up to this many earlier same-class utterances are
    # prepended to the text side, imitating spliced dialog history.
    context_utterances: int = option(
        0, "same-class history utterances spliced into the text side", domain=at_least(0)
    )

    def __post_init__(self) -> None:
        check_fields(self, CorpusSpecError)
        for name, vocab in (("vocab_text", self.vocab_text), ("vocab_speech", self.vocab_speech)):
            if self.salient_per_class * self.classes > vocab:
                raise CorpusSpecError(
                    f"salient_per_class * classes exceeds {name} "
                    f"({self.salient_per_class} * {self.classes} > {vocab})"
                )
        for name, (lo, hi) in (("text_len", self.text_len), ("speech_len", self.speech_len)):
            if hi < lo:
                raise CorpusSpecError(f"{name} range must satisfy 1 <= min <= max, got {lo}..{hi}")


@dataclass(frozen=True)
class Corpus:
    spec: CorpusSpec
    utterances: tuple[Utterance, ...]
    planted_tokens: tuple[tuple[int, ...], ...]
    planted_codes: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.utterances)

    def class_counts(self) -> list[int]:
        counts = [0] * self.spec.classes
        for utt in self.utterances:
            counts[utt.label] += 1
        return counts


def _plant_symbols(rng: np.random.Generator, vocab: int, classes: int, per_class: int):
    perm = rng.permutation(vocab)
    planted = tuple(
        tuple(sorted(int(s) for s in perm[k * per_class : (k + 1) * per_class]))
        for k in range(classes)
    )
    taken = {s for group in planted for s in group}
    background = np.array(sorted(set(range(vocab)) - taken), dtype=np.int64)
    return planted, background


def _draw_sequence(
    rng: np.random.Generator,
    length: int,
    planted: tuple[int, ...],
    background: np.ndarray,
    salience_prob: float,
) -> tuple[int, ...]:
    use_planted = rng.random(length) < salience_prob
    planted_arr = np.array(planted, dtype=np.int64)
    out = np.empty(length, dtype=np.int64)
    n_planted = int(np.count_nonzero(use_planted))
    out[use_planted] = planted_arr[rng.integers(0, len(planted_arr), size=n_planted)]
    n_background = length - n_planted
    if n_background:
        if background.size == 0:
            raise CorpusSpecError(
                "no background symbols left: salient_per_class * classes fills the vocabulary"
            )
        out[~use_planted] = background[rng.integers(0, background.size, size=n_background)]
    return tuple(out.tolist())


def generate(spec: CorpusSpec, n: int) -> Corpus:
    """Draw n utterances, each class non-empty, fully determined by spec.seed."""
    if n < spec.classes:
        raise CorpusSpecError(f"n must be at least the class count ({n} < {spec.classes})")
    rng = np.random.default_rng(spec.seed)

    planted_tokens, background_tokens = _plant_symbols(
        rng, spec.vocab_text, spec.classes, spec.salient_per_class
    )
    planted_codes, background_codes = _plant_symbols(
        rng, spec.vocab_speech, spec.classes, spec.salient_per_class
    )

    labels = rng.integers(0, spec.classes, size=n)
    missing = sorted(set(range(spec.classes)) - set(int(v) for v in labels))
    for slot, cls in enumerate(missing):
        labels[slot] = cls

    utterances = []
    for i in range(n):
        label = int(labels[i])
        text_len = int(rng.integers(spec.text_len[0], spec.text_len[1] + 1))
        speech_len = int(rng.integers(spec.speech_len[0], spec.speech_len[1] + 1))
        tokens = _draw_sequence(
            rng, text_len, planted_tokens[label], background_tokens, spec.salience_prob
        )
        codes = _draw_sequence(
            rng, speech_len, planted_codes[label], background_codes, spec.salience_prob
        )
        utterances.append(Utterance(tokens, codes, label))

    if spec.context_utterances > 0:
        utterances = _splice_history(utterances, spec.context_utterances)

    return Corpus(spec, tuple(utterances), planted_tokens, planted_codes)


def _splice_history(utterances: list[Utterance], depth: int) -> list[Utterance]:
    seen_by_class: dict[int, list[Utterance]] = {}
    spliced = []
    for utt in utterances:
        history = seen_by_class.setdefault(utt.label, [])
        prefix: tuple[int, ...] = ()
        for prior in history[-depth:]:
            prefix = prefix + prior.text_tokens
        spliced.append(replace(utt, text_tokens=prefix + utt.text_tokens))
        history.append(utt)
    return spliced


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save(corpus: Corpus, path) -> None:
    header = {**asdict(corpus.spec), "planted_tokens": corpus.planted_tokens,
              "planted_codes": corpus.planted_codes}
    lines = [json.dumps(header, sort_keys=True)]
    for utt in corpus.utterances:
        tokens = ",".join(str(t) for t in utt.text_tokens)
        codes = ",".join(str(c) for c in utt.frame_codes)
        lines.append(f"{utt.label}|{tokens}|{codes}")
    write_atomic(path, "\n".join(lines) + "\n")


def _parse_id_list(field: str, line_no: int, what: str) -> tuple[int, ...]:
    if not field:
        raise CorpusParseError(f"line {line_no}: empty {what} sequence")
    try:
        return tuple(int(part) for part in field.split(","))
    except ValueError:
        raise CorpusParseError(f"line {line_no}: non-integer id in {what} sequence") from None


def load(path) -> Corpus:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise CorpusParseError(
            f"line {line_no}: invalid UTF-8 byte 0x{data[exc.start]:02x}"
        ) from None
    if not lines:
        raise CorpusParseError("line 1: missing header")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CorpusParseError(f"line 1: malformed header ({exc.msg})") from None
    except RecursionError:
        raise CorpusParseError("line 1: malformed header (nested too deeply)") from None
    if not isinstance(header, dict):
        raise CorpusParseError(f"line 1: header must be a JSON object, got {type(header).__name__}")

    try:
        planted = {name: header.pop(name) for name in ("planted_tokens", "planted_codes")}
        for name, groups in planted.items():
            check_value(name, list[list[int]], groups)
        header["text_len"] = tuple(header["text_len"])
        header["speech_len"] = tuple(header["speech_len"])
        spec = CorpusSpec(**header)
    except CorpusSpecError as exc:  # a non-finite or out-of-range field, e.g. "salience_prob": 2.0
        raise CorpusValidationError(f"line 1: {exc}") from None
    except ConfigError as exc:  # e.g. "classes": "2"
        raise CorpusParseError(f"line 1: header field of the wrong type ({exc})") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusParseError(
            f"line 1: header field missing, unknown or malformed ({exc})"
        ) from None
    for (name, groups), vocab in zip(planted.items(), (spec.vocab_text, spec.vocab_speech)):
        if len(groups) != spec.classes:
            raise CorpusValidationError(
                f"line 1: {name} has {len(groups)} groups for {spec.classes} classes"
            )
        for sym in (s for group in groups for s in group):
            if not 0 <= sym < vocab:
                raise CorpusValidationError(f"line 1: {name} id {sym} outside vocabulary {vocab}")
    planted_tokens, planted_codes = (tuple(map(tuple, groups)) for groups in planted.values())

    utterances = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("|")
        if len(parts) != 3:
            raise CorpusParseError(f"line {line_no}: expected 3 '|'-separated fields, got {len(parts)}")
        try:
            label = int(parts[0])
        except ValueError:
            raise CorpusParseError(f"line {line_no}: non-integer label {parts[0]!r}") from None
        tokens = _parse_id_list(parts[1], line_no, "token")
        codes = _parse_id_list(parts[2], line_no, "code")
        if not 0 <= label < spec.classes:
            raise CorpusValidationError(
                f"line {line_no}: label {label} out of range for {spec.classes} classes"
            )
        for t in tokens:
            if not 0 <= t < spec.vocab_text:
                raise CorpusValidationError(
                    f"line {line_no}: token id {t} outside vocabulary {spec.vocab_text}"
                )
        for code in codes:
            if not 0 <= code < spec.vocab_speech:
                raise CorpusValidationError(
                    f"line {line_no}: code id {code} outside vocabulary {spec.vocab_speech}"
                )
        utterances.append(Utterance(tokens, codes, label))
    return Corpus(spec, tuple(utterances), planted_tokens, planted_codes)


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitSpec:
    """The options that choose a split, as the CLI and a checkpoint's manifest name them."""

    train_fraction: float = option(0.8, "per-class fraction assigned to the train side",
                                   domain=within(0, 1, low_open=True, high_open=True))
    split_seed: int = option(0, "seed of the stratified split", domain=at_least(0))

    def __post_init__(self) -> None:
        check_fields(self, CorpusSpecError)


def split(corpus: Corpus, train_fraction: float, seed: int) -> tuple[Corpus, Corpus]:
    """Stratified, exact partition into (train, heldout).

    Per class the train side receives ceil(fraction * class_size) items;
    the selection is deterministic in the seed and both sides preserve the
    original utterance order. Both arguments are checked as a `SplitSpec`'s fields.
    """
    SplitSpec(train_fraction, seed)
    by_class: dict[int, list[int]] = {}
    for idx, utt in enumerate(corpus.utterances):
        by_class.setdefault(utt.label, []).append(idx)
    for cls, indices in sorted(by_class.items()):
        if len(indices) < 2:
            raise StratificationError(
                f"class {cls} has {len(indices)} utterance(s); need at least 2 to split"
            )

    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    heldout_idx: list[int] = []
    for cls in sorted(by_class):
        indices = np.array(by_class[cls], dtype=np.int64)
        order = rng.permutation(len(indices))
        take = math.ceil(train_fraction * len(indices))
        take = min(take, len(indices) - 1)  # keep the heldout side non-empty per class
        train_idx.extend(int(i) for i in indices[order[:take]])
        heldout_idx.extend(int(i) for i in indices[order[take:]])

    def subset(idx: list[int]) -> Corpus:
        chosen = tuple(corpus.utterances[i] for i in sorted(idx))
        return Corpus(corpus.spec, chosen, corpus.planted_tokens, corpus.planted_codes)

    return subset(train_idx), subset(heldout_idx)
