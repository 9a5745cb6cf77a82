"""Per-class keyword extraction and label-embedding construction.

Treats all of a class's training sequences as one document and scores every
symbol by tf-idf: tf is the within-class frequency, idf is the smoothed
inverse class-document frequency ln((1+C)/(1+df)) + 1. The same machinery
serves both modalities, since tokens and frame codes are both just discrete
symbols. `label_rows` turns a modality's init mode into one label-embedding
row per class; the top-k symbols of a class seed its row in the tfidf and
codebook modes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .errors import ExtractionError

TEXT_INIT_MODES = ("random", "label-words", "tfidf")
SPEECH_INIT_MODES = ("random", "text-embedding", "codebook")

# Std-dev of randomly initialised label rows; matches the embedding tables.
RANDOM_INIT_STD = 0.02


@dataclass(frozen=True)
class LabelDescriptions:
    """Ranked (symbol, score) pairs per class, highest score first."""

    per_class: tuple[tuple[tuple[int, float], ...], ...]

    def symbols(self, class_id: int) -> tuple[int, ...]:
        return tuple(sym for sym, _ in self.per_class[class_id])

    def to_lines(self) -> list[str]:
        """Flat table: class,rank,symbol,score."""
        lines = ["class,rank,symbol,score"]
        for cls, ranked in enumerate(self.per_class):
            for rank, (sym, score) in enumerate(ranked):
                lines.append(f"{cls},{rank},{sym},{score:.12g}")
        return lines


def class_sequences(corpus: Corpus, modality: str) -> list[list[Sequence[int]]]:
    """Token ("text") or frame-code ("speech") sequences grouped by class, in corpus order."""
    grouped: list[list[Sequence[int]]] = [[] for _ in range(corpus.spec.classes)]
    for utt in corpus.utterances:
        grouped[utt.label].append(utt.text_tokens if modality == "text" else utt.frame_codes)
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


def label_rows(
    corpus: Corpus,
    modality: str,
    mode: str,
    table: np.ndarray,
    *,
    top_k: int,
    seed: int,
    text_rows: np.ndarray | None = None,
) -> np.ndarray:
    """One label row per class of `corpus` for `modality`, from its init mode.

    `table` is the modality's embedding table or codebook.
    tfidf (text) and codebook (speech): mean of the table rows of the class's
    top-k tf-idf symbols.
    random: seeded draws with std RANDOM_INIT_STD, independent of the table.
    label-words: table row c for class c, whose name token has id c.
    text-embedding (speech): a copy of `text_rows`, the text label rows.
    """
    classes = corpus.spec.classes
    if mode in ("tfidf", "codebook"):
        desc = tfidf_topk(class_sequences(corpus, modality), top_k)
        means = [table[list(desc.symbols(c))].mean(axis=0) for c in range(classes)]
        return np.stack(means)
    if mode == "random":
        rng = np.random.default_rng(seed)
        return rng.normal(0.0, RANDOM_INIT_STD, size=(classes, table.shape[1]))
    if mode == "label-words":
        return table[:classes].copy()
    return text_rows.copy()
