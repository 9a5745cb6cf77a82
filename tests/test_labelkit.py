"""Tests for tf-idf label extraction and label-embedding construction."""

import math
from collections import Counter

import numpy as np
import pytest

from labelfuse import corpus as cp
from labelfuse import labelkit as lk
from labelfuse import trainer as tr
from labelfuse.errors import ExtractionError


def brute_force_tfidf(per_class, k):
    """Independent recomputation: explicit dict counting, same formula."""
    n_classes = len(per_class)
    class_counts = []
    for sequences in per_class:
        counts = {}
        for seq in sequences:
            for sym in seq:
                counts[sym] = counts.get(sym, 0) + 1
        class_counts.append(counts)
    df = {}
    for counts in class_counts:
        for sym in counts:
            df[sym] = df.get(sym, 0) + 1
    result = []
    for counts in class_counts:
        total = sum(counts.values())
        scored = [
            (sym, (count / total) * (math.log((1 + n_classes) / (1 + df[sym])) + 1.0))
            for sym, count in counts.items()
        ]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        result.append(tuple(scored[:k]))
    return result


class TestTfidfTopk:
    def test_frequency_dominates_single_class(self):
        desc = lk.tfidf_topk([[[0, 0, 1]]], k=1)
        assert desc.symbols(0) == (0,)

    def test_exclusive_symbol_outranks_shared(self):
        # Symbol 5 appears in both classes, symbol 7 only in class 0, with
        # equal within-class counts; idf must put 7 first for class 0.
        per_class = [[[5, 7]], [[5, 9]]]
        desc = lk.tfidf_topk(per_class, k=2)
        assert desc.symbols(0) == (7, 5)

    def test_matches_brute_force_on_random_corpora(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            classes = 4
            vocab = int(rng.integers(8, 31))
            per_class = []
            for _ in range(classes):
                n_utts = int(rng.integers(1, 13))
                per_class.append(
                    [
                        [int(s) for s in rng.integers(0, vocab, size=rng.integers(2, 15))]
                        for _ in range(n_utts)
                    ]
                )
            k = int(rng.integers(1, 10))
            got = lk.tfidf_topk(per_class, k).per_class
            want = brute_force_tfidf(per_class, k)
            assert got == tuple(want), f"trial {trial}"

    def test_scores_non_increasing_and_bounded_length(self):
        corpus = cp.generate(cp.CorpusSpec(classes=3, vocab_text=15, vocab_speech=15,
                                           salient_per_class=2, seed=3), 30)
        desc = lk.tfidf_topk(lk.class_sequences(corpus, "text"), k=5)
        for cls in range(3):
            ranked = desc.per_class[cls]
            assert len(ranked) <= 5
            scores = [score for _, score in ranked]
            assert scores == sorted(scores, reverse=True)

    def test_permutation_invariant_within_class(self):
        per_class = [[[1, 2], [3, 3, 4]], [[5, 6]]]
        shuffled = [[[3, 3, 4], [1, 2]], [[5, 6]]]
        assert lk.tfidf_topk(per_class, 3) == lk.tfidf_topk(shuffled, 3)

    def test_duplicating_class_corpus_preserves_ranking(self):
        per_class = [[[1, 2, 2], [3]], [[4, 1]]]
        tripled = [seqs * 3 for seqs in per_class]
        assert lk.tfidf_topk(per_class, 4) == lk.tfidf_topk(tripled, 4)

    def test_absent_symbol_never_listed(self):
        desc = lk.tfidf_topk([[[1, 1, 2]], [[3]]], k=10)
        assert 3 not in desc.symbols(0)
        assert set(desc.symbols(1)) == {3}

    def test_empty_class_rejected(self):
        with pytest.raises(ExtractionError, match="class 1"):
            lk.tfidf_topk([[[1]], []], k=2)

    def test_bad_k_rejected(self):
        with pytest.raises(ExtractionError):
            lk.tfidf_topk([[[1]]], k=0)


def corpus_of(modality, *per_class):
    """A corpus whose class c holds the sequences per_class[c] on the `modality` side.

    The other side holds the single symbol 0 everywhere.
    """
    utts = []
    for label, sequences in enumerate(per_class):
        for seq in sequences:
            sides = (tuple(seq), (0,)) if modality == "text" else ((0,), tuple(seq))
            utts.append(cp.Utterance(*sides, label))
    spec = cp.CorpusSpec(classes=len(per_class))
    planted = tuple((c,) for c in range(len(per_class)))
    return cp.Corpus(spec, tuple(utts), planted, planted)


def rows(corpus, modality, mode, table, top_k=9, seed=0, text_rows=None):
    return lk.label_rows(corpus, modality, mode, table, top_k=top_k, seed=seed, text_rows=text_rows)


class TestBuildTextLabels:
    """`label_rows` for the text modes."""

    def test_mean_of_two_embeddings(self):
        table = np.array([[1.0, 0.0], [0.0, 1.0], [9.0, 9.0]])
        labels = rows(corpus_of("text", [[0, 1]]), "text", "tfidf", table, top_k=2)
        assert np.array_equal(labels, np.array([[0.5, 0.5]]))

    def test_single_symbol_is_verbatim(self):
        table = np.array([[3.0, 4.0], [1.0, 2.0]])
        labels = rows(corpus_of("text", [[1]]), "text", "tfidf", table)
        assert np.array_equal(labels, np.array([[1.0, 2.0]]))

    def test_label_words_mode_selects_rows(self):
        # Class c's name token is id c, so the rows are table rows 0..C-1.
        table = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        labels = rows(corpus_of("text", [[2]], [[2]]), "text", "label-words", table)
        assert np.array_equal(labels, np.array([[1.0, 1.0], [2.0, 2.0]]))

    def test_random_mode_is_seeded(self):
        table = np.zeros((4, 3))
        corpus = corpus_of("text", [[1]], [[2]])
        a = rows(corpus, "text", "random", table, seed=5)
        b = rows(corpus, "text", "random", table, seed=5)
        c = rows(corpus, "text", "random", table, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.shape == (2, 3)
        assert np.array_equal(a, np.random.default_rng(5).normal(0.0, 0.02, size=(2, 3)))

    def test_rows_in_convex_hull(self):
        rng = np.random.default_rng(8)
        table = rng.normal(size=(10, 4))
        corpus = corpus_of("text", [[1, 2, 3, 2]], [[4, 5, 6]])
        desc = lk.tfidf_topk(lk.class_sequences(corpus, "text"), k=3)
        labels = rows(corpus, "text", "tfidf", table, top_k=3)
        for cls in range(2):
            contributors = table[list(desc.symbols(cls))]
            assert (labels[cls] >= contributors.min(axis=0) - 1e-12).all()
            assert (labels[cls] <= contributors.max(axis=0) + 1e-12).all()


class TestBuildSpeechLabels:
    """`label_rows` for the speech modes."""

    def test_mean_of_codebook_rows(self):
        codebook = np.array([[2.0, 0.0], [0.0, 2.0]])
        labels = rows(corpus_of("speech", [[0, 1]]), "speech", "codebook", codebook, top_k=2)
        assert np.array_equal(labels, np.array([[1.0, 1.0]]))

    def test_codebook_mode_matches_scalar_oracle(self):
        rng = np.random.default_rng(9)
        codebook = rng.normal(size=(12, 5))
        corpus = corpus_of("speech", [[0, 1, 2, 2]], [[3, 4]], [[5, 6, 7]])
        labels = rows(corpus, "speech", "codebook", codebook, top_k=3)
        for cls, ranked in enumerate(brute_force_tfidf(lk.class_sequences(corpus, "speech"), 3)):
            ids = [sym for sym, _ in ranked]
            for d in range(5):
                acc = 0.0
                for sym in ids:
                    acc += codebook[sym, d]
                assert labels[cls, d] == pytest.approx(acc / len(ids), abs=1e-12)

    def test_text_embedding_mode_copies(self):
        text_labels = np.array([[1.0, 2.0], [3.0, 4.0]])
        codebook = np.zeros((5, 2))
        corpus = corpus_of("speech", [[1]], [[2]])
        labels = rows(corpus, "speech", "text-embedding", codebook, text_rows=text_labels)
        assert np.array_equal(labels, text_labels)

    def test_random_mode_shape(self):
        corpus = corpus_of("speech", [[1]], [[2]], [[3]])
        labels = rows(corpus, "speech", "random", np.zeros((4, 6)), seed=1)
        assert labels.shape == (3, 6)


def independent_label_rows(corpus, side, mode, table, top_k, seed, text_rows):
    """Label rows of one modality from scalar loops over the train utterances."""
    classes = corpus.spec.classes
    if mode == "random":
        return np.random.default_rng(seed).normal(0.0, 0.02, size=(classes, table.shape[1]))
    if mode == "label-words":
        return table[:classes]
    if mode == "text-embedding":
        return text_rows
    per_class = [[getattr(utt, side) for utt in corpus.utterances if utt.label == cls]
                 for cls in range(classes)]
    out = np.zeros((classes, table.shape[1]))
    for cls, ranked in enumerate(brute_force_tfidf(per_class, top_k)):
        for sym, _ in ranked:
            out[cls] += table[sym] / len(ranked)
    return out


class TestBuildModelLabelRows:
    @pytest.mark.parametrize("text_mode", lk.TEXT_INIT_MODES)
    @pytest.mark.parametrize("speech_mode", lk.SPEECH_INIT_MODES)
    def test_rows_match_independent_calculation(self, text_mode, speech_mode):
        spec = cp.CorpusSpec(
            classes=3, vocab_text=30, vocab_speech=40, text_len=(4, 8), speech_len=(6, 12),
            salient_per_class=3, salience_prob=0.4, seed=5,
        )
        train, _ = cp.split(cp.generate(spec, 40), 0.7, seed=5)
        for trainable in (False, True):
            config = tr.TrainConfig(
                text_dim=8, speech_dim=8, top_k_text=3, top_k_speech=5, seed=4,
                text_label_init=text_mode, speech_label_init=speech_mode,
                labels_trainable=trainable,
            )
            model = tr.build_model(train, config)
            table_rng = np.random.default_rng([4, 3])
            embedding = table_rng.normal(0.0, 0.02, size=(30, 8))
            codebook = table_rng.normal(0.0, 0.02, size=(40, 8))
            assert np.array_equal(model["text.embedding"].value, embedding)
            assert np.array_equal(model["speech.codebook"].value, codebook)

            text = independent_label_rows(train, "text_tokens", text_mode, embedding, 3, 105, None)
            speech = independent_label_rows(
                train, "frame_codes", speech_mode, codebook, 5, 206, text
            )
            assert np.allclose(model["labels.text"].value, text, rtol=0, atol=1e-15)
            assert np.allclose(model["labels.speech"].value, speech, rtol=0, atol=1e-15)
            assert model["labels.text"].requires_grad is trainable
            assert model["labels.speech"].requires_grad is trainable
            assert not model["speech.codebook"].requires_grad


class TestDescriptionsExport:
    def test_lines_roundtrip_fields(self):
        desc = lk.tfidf_topk([[[1, 1, 2]], [[3]]], k=2)
        lines = desc.to_lines()
        assert lines[0] == "class,rank,symbol,score"
        parsed = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in parsed] == ["0", "0", "1"]
        assert parsed[0][:3] == ["0", "0", "1"]  # class 0's top symbol is 1
        by_class = Counter(row[0] for row in parsed)
        assert by_class == {"0": 2, "1": 1}
