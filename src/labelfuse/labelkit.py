"""Per-class keyword extraction and label-embedding construction.

Treats all of a class's training sequences as one document and scores every
symbol by tf-idf: tf is the within-class frequency, idf is the smoothed
inverse class-document frequency ln((1+C)/(1+df)) + 1. The same machinery
serves both modalities, since tokens and frame codes are both just discrete
symbols. The top-K symbols per class seed the label-embedding rows, which
default to trainable parameters afterwards.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus
from .diffcore import Matrix
from .errors import DimensionError, ExtractionError, LabelBuildError

TEXT_INIT_MODES = ("random", "label-words", "tfidf")
SPEECH_INIT_MODES = ("random", "text-embedding", "codebook")

# Std-dev of randomly initialised label rows; matches the embedding tables.
RANDOM_INIT_STD = 0.02


@dataclass(frozen=True)
class LabelDescriptions:
    """Ranked (symbol, score) pairs per class, highest score first."""

    per_class: tuple[tuple[tuple[int, float], ...], ...]

    @property
    def classes(self) -> int:
        return len(self.per_class)

    def symbols(self, class_id: int) -> tuple[int, ...]:
        return tuple(sym for sym, _ in self.per_class[class_id])

    def to_lines(self) -> list[str]:
        """Flat table: class,rank,symbol,score."""
        lines = ["class,rank,symbol,score"]
        for cls, ranked in enumerate(self.per_class):
            for rank, (sym, score) in enumerate(ranked):
                lines.append(f"{cls},{rank},{sym},{score:.12g}")
        return lines


@dataclass
class LabelBank:
    """Label-embedding matrices for both modalities, one row per class."""

    text_labels: Matrix
    speech_labels: Matrix
    trainable: bool


def text_view(corpus: Corpus) -> list[list[Sequence[int]]]:
    """Token sequences grouped by class, in corpus order."""
    grouped: list[list[Sequence[int]]] = [[] for _ in range(corpus.spec.classes)]
    for utt in corpus.utterances:
        grouped[utt.label].append(utt.text_tokens)
    return grouped


def speech_view(corpus: Corpus) -> list[list[Sequence[int]]]:
    """Frame-code sequences grouped by class, in corpus order."""
    grouped: list[list[Sequence[int]]] = [[] for _ in range(corpus.spec.classes)]
    for utt in corpus.utterances:
        grouped[utt.label].append(utt.frame_codes)
    return grouped


def tfidf_topk(per_class_sequences: Sequence[Sequence[Sequence[int]]], k: int) -> LabelDescriptions:
    """Top-k symbols per class by tf-idf with class-as-document counting.

    Ties break by ascending symbol id; symbols absent from a class never
    appear in its list, so lists may be shorter than k.
    """
    if k < 1:
        raise ExtractionError(f"k must be >= 1, got {k}")
    n_classes = len(per_class_sequences)
    counts: list[Counter] = []
    for cls, sequences in enumerate(per_class_sequences):
        counter = Counter()
        for seq in sequences:
            counter.update(seq)
        if not counter:
            raise ExtractionError(f"class {cls} has no symbols to extract from")
        counts.append(counter)

    doc_freq = Counter()
    for counter in counts:
        doc_freq.update(counter.keys())

    ranked_per_class = []
    for counter in counts:
        total = sum(counter.values())
        scored = []
        for sym, count in counter.items():
            idf = math.log((1 + n_classes) / (1 + doc_freq[sym])) + 1.0
            scored.append((sym, (count / total) * idf))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        ranked_per_class.append(tuple(scored[:k]))
    return LabelDescriptions(tuple(ranked_per_class))


def _mean_of_rows(table: Matrix, ids: Iterable[int]) -> np.ndarray:
    idx = list(ids)
    return table.array[idx].mean(axis=0)


def _random_rows(classes: int, dim: int, seed: int) -> Matrix:
    rng = np.random.default_rng(seed)
    return Matrix(rng.normal(0.0, RANDOM_INIT_STD, size=(classes, dim)))


def build_text_labels(
    descriptions: LabelDescriptions | None,
    embedding_table: Matrix,
    mode: str,
    *,
    seed: int | None = None,
    label_word_ids: Sequence[int] | None = None,
    classes: int | None = None,
) -> Matrix:
    """One label-embedding row per class, from the chosen init mode.

    tfidf: mean of the embedding rows of each class's description symbols.
    label-words: the embedding row of each class's designated name token.
    random: seeded draws, independent of the table.
    """
    if mode not in TEXT_INIT_MODES:
        raise LabelBuildError(f"unknown text label init mode {mode!r}")
    if mode == "random":
        if seed is None or classes is None:
            raise LabelBuildError("random mode needs a seed and a class count")
        return _random_rows(classes, embedding_table.cols, seed)
    if mode == "label-words":
        if label_word_ids is None:
            raise LabelBuildError("label-words mode needs one name token id per class")
        for token in label_word_ids:
            if not 0 <= token < embedding_table.rows:
                raise LabelBuildError(f"label word id {token} outside the embedding table")
        return Matrix(embedding_table.array[list(label_word_ids)])
    if descriptions is None:
        raise LabelBuildError("tfidf mode needs label descriptions")
    rows = []
    for cls in range(descriptions.classes):
        ids = descriptions.symbols(cls)
        if not ids:
            raise LabelBuildError(f"class {cls} has an empty description list")
        rows.append(_mean_of_rows(embedding_table, ids))
    return Matrix(np.stack(rows))


def build_speech_labels(
    descriptions: LabelDescriptions | None,
    codebook: Matrix,
    mode: str,
    *,
    seed: int | None = None,
    text_labels: Matrix | None = None,
    classes: int | None = None,
) -> Matrix:
    """One label-embedding row per class for the speech side.

    codebook: mean of the codebook rows of each class's top-k frame codes.
    text-embedding: copy the text label rows (dimensions must match; there
    is no implicit projection).
    random: seeded draws.
    """
    if mode not in SPEECH_INIT_MODES:
        raise LabelBuildError(f"unknown speech label init mode {mode!r}")
    if mode == "random":
        if seed is None or classes is None:
            raise LabelBuildError("random mode needs a seed and a class count")
        return _random_rows(classes, codebook.cols, seed)
    if mode == "text-embedding":
        if text_labels is None:
            raise LabelBuildError("text-embedding mode needs the text label matrix")
        if text_labels.cols != codebook.cols:
            raise DimensionError(
                f"text-embedding mode needs matching dimensions "
                f"(text {text_labels.cols} vs speech {codebook.cols})"
            )
        return Matrix(text_labels.array.copy())
    if descriptions is None:
        raise LabelBuildError("codebook mode needs label descriptions")
    rows = []
    for cls in range(descriptions.classes):
        ids = descriptions.symbols(cls)
        if not ids:
            raise LabelBuildError(f"class {cls} has an empty description list")
        rows.append(_mean_of_rows(codebook, ids))
    return Matrix(np.stack(rows))
