"""Tests for synthetic corpus generation, persistence and splitting."""

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from labelfuse import corpus as cp
from labelfuse.errors import (
    ConfigError,
    CorpusParseError,
    CorpusSpecError,
    CorpusValidationError,
    LabelFuseError,
    StratificationError,
)
from labelfuse.valuetypes import field_types

DATA_DIR = Path(__file__).parent / "data"


def small_spec(**overrides) -> cp.CorpusSpec:
    base = cp.CorpusSpec(
        classes=2,
        vocab_text=20,
        vocab_speech=30,
        text_len=(3, 6),
        speech_len=(5, 10),
        salient_per_class=3,
        salience_prob=0.4,
        seed=11,
    )
    return replace(base, **overrides)


class TestGenerate:
    def test_deterministic_in_seed(self):
        spec = small_spec()
        assert cp.generate(spec, 40) == cp.generate(spec, 40)

    @pytest.mark.parametrize("seed, sha256", [
        (7, "b5ce53b14cc79351a020e38362e4dad2bf2de2a6f91ee9cef60ff89a805a2e6f"),
        (0, "2a211d168032083e645baf831ae9122153c521c56c305e827d7be1cc76b3fe21"),
    ])
    def test_default_corpus_bytes_are_pinned(self, tmp_path, seed, sha256):
        # The saved default corpora; a faster generator must keep its draws, byte for byte.
        path = tmp_path / "corpus.txt"
        cp.save(cp.generate(cp.CorpusSpec(seed=seed), 1000), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    def test_different_seed_differs(self):
        a = cp.generate(small_spec(seed=1), 40)
        b = cp.generate(small_spec(seed=2), 40)
        assert a != b

    def test_every_class_present(self):
        corpus = cp.generate(small_spec(), 10)
        assert all(count > 0 for count in corpus.class_counts())

    def test_bounds_and_lengths(self):
        spec = small_spec()
        corpus = cp.generate(spec, 50)
        for utt in corpus.utterances:
            assert spec.text_len[0] <= len(utt.text_tokens) <= spec.text_len[1]
            assert spec.speech_len[0] <= len(utt.frame_codes) <= spec.speech_len[1]
            assert all(0 <= t < spec.vocab_text for t in utt.text_tokens)
            assert all(0 <= c < spec.vocab_speech for c in utt.frame_codes)

    def test_zero_salience_never_plants(self):
        corpus = cp.generate(small_spec(salience_prob=0.0), 60)
        planted_tok = {s for group in corpus.planted_tokens for s in group}
        planted_code = {s for group in corpus.planted_codes for s in group}
        for utt in corpus.utterances:
            assert not planted_tok.intersection(utt.text_tokens)
            assert not planted_code.intersection(utt.frame_codes)

    def test_planted_sets_disjoint_across_classes(self):
        corpus = cp.generate(small_spec(classes=4, vocab_text=40, vocab_speech=40), 20)
        for planted in (corpus.planted_tokens, corpus.planted_codes):
            seen = set()
            for group in planted:
                assert not seen.intersection(group)
                seen.update(group)

    def test_empirical_salience_rate(self):
        # Planted and background pools are disjoint, so counting planted
        # symbols of the utterance's own class recovers the plant rate.
        spec = small_spec(salience_prob=0.3)
        corpus = cp.generate(spec, 1000)
        hits = 0
        total = 0
        for utt in corpus.utterances:
            own_tok = set(corpus.planted_tokens[utt.label])
            own_code = set(corpus.planted_codes[utt.label])
            hits += sum(1 for t in utt.text_tokens if t in own_tok)
            hits += sum(1 for c in utt.frame_codes if c in own_code)
            total += len(utt.text_tokens) + len(utt.frame_codes)
        assert abs(hits / total - 0.3) <= 0.02

    def test_rejects_too_few_utterances(self):
        with pytest.raises(CorpusSpecError, match="class count"):
            cp.generate(small_spec(classes=4, vocab_text=40, vocab_speech=40), 3)

    def test_rejects_overfull_vocabulary(self):
        with pytest.raises(CorpusSpecError, match="vocab_text"):
            cp.generate(small_spec(salient_per_class=11), 10)

    def test_rejects_more_classes_than_text_vocabulary(self):
        # label-words takes text table rows 0..classes-1, which this keeps in range.
        with pytest.raises(CorpusSpecError, match="exceeds vocab_text"):
            small_spec(classes=21, salient_per_class=1).validate()

    def test_rejects_bad_salience(self):
        with pytest.raises(CorpusSpecError, match="salience_prob"):
            cp.generate(small_spec(salience_prob=1.5), 10)

    @pytest.mark.parametrize("field, value", [
        ("context_utterances", True), ("classes", 2.0), ("text_len", [3, 6]), ("seed", "1"),
    ])
    def test_rejects_wrong_type(self, field, value):
        with pytest.raises(ConfigError, match=field):
            small_spec(**{field: value}).validate()

    @pytest.mark.parametrize("field", [
        name for name, kind in field_types(cp.CorpusSpec).items() if kind is float
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_floats(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be finite, got"):
            small_spec(**{field: value}).validate()

    def test_context_splices_same_class_history(self):
        plain = cp.generate(small_spec(), 30)
        spliced = cp.generate(small_spec(context_utterances=2), 30)
        assert plain.utterances != spliced.utterances
        # Speech side and labels are untouched by splicing.
        for a, b in zip(plain.utterances, spliced.utterances):
            assert a.frame_codes == b.frame_codes
            assert a.label == b.label
            assert b.text_tokens[-len(a.text_tokens):] == a.text_tokens


class TestSaveLoad:
    def test_roundtrip_identity(self, tmp_path):
        corpus = cp.generate(small_spec(), 25)
        path = tmp_path / "corpus.txt"
        cp.save(corpus, path)
        assert cp.load(path) == corpus

    def test_hand_written_fixture(self):
        corpus = cp.load(DATA_DIR / "tiny_corpus.txt")
        assert corpus.spec.classes == 2
        assert corpus.spec.vocab_text == 6
        assert corpus.planted_tokens == ((0, 1), (2, 3))
        assert corpus.utterances == (
            cp.Utterance((0, 4, 1), (5, 0, 6, 7), 0),
            cp.Utterance((2, 5, 3, 4), (3, 2, 4), 1),
        )

    def test_label_out_of_range(self, tmp_path):
        corpus = cp.generate(small_spec(), 5)
        path = tmp_path / "corpus.txt"
        cp.save(corpus, path)
        lines = path.read_text().splitlines()
        lines[1] = "9" + lines[1][1:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusValidationError, match="line 2.*label 9"):
            cp.load(path)

    def test_token_out_of_vocabulary(self, tmp_path):
        path = tmp_path / "corpus.txt"
        cp.save(cp.generate(small_spec(), 5), path)
        lines = path.read_text().splitlines()
        label, _, codes = lines[3].split("|")
        lines[3] = f"{label}|999|{codes}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusValidationError, match="line 4.*token id 999"):
            cp.load(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "corpus.txt"
        cp.save(cp.generate(small_spec(), 5), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not-a-record\n")
        with pytest.raises(CorpusParseError, match="line 7"):
            cp.load(path)

    def test_non_integer_id(self, tmp_path):
        path = tmp_path / "corpus.txt"
        cp.save(cp.generate(small_spec(), 5), path)
        lines = path.read_text().splitlines()
        label, tokens, _ = lines[2].split("|")
        lines[2] = f"{label}|{tokens}|1,x,3"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusParseError, match="line 3.*non-integer"):
            cp.load(path)

    def test_invalid_utf8_byte(self, tmp_path):
        path = tmp_path / "corpus.txt"
        cp.save(cp.generate(small_spec(), 5), path)
        raw = bytearray(path.read_bytes())
        raw[raw.index(b"\n") + 3] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorpusParseError, match="line 2: invalid UTF-8 byte 0xff"):
            cp.load(path)

    def test_byte_mutations_and_truncations_raise_only_typed_errors(self, tmp_path):
        source = tmp_path / "corpus.txt"
        cp.save(cp.generate(small_spec(), 12), source)
        raw = source.read_bytes()
        rng = np.random.default_rng(20)
        variants = [raw[:n] for n in rng.integers(0, len(raw), size=60)]
        for pos, value in zip(rng.integers(0, len(raw), size=400), rng.integers(0, 256, size=400)):
            variants.append(raw[:pos] + bytes([value]) + raw[pos + 1 :])
        path = tmp_path / "mutated.txt"
        for data in variants:
            path.write_bytes(data)
            try:
                cp.load(path)
            except LabelFuseError:
                pass

    def rewrite_header(self, tmp_path, header: str) -> Path:
        path = tmp_path / "corpus.txt"
        cp.save(cp.generate(small_spec(), 5), path)
        lines = path.read_text().splitlines()
        lines[0] = header
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("header", ["5", '"x"', "[1, 2]", "null"])
    def test_header_not_an_object(self, tmp_path, header):
        path = self.rewrite_header(tmp_path, header)
        with pytest.raises(CorpusParseError, match="line 1: header must be a JSON object"):
            cp.load(path)

    def test_header_nested_too_deeply(self, tmp_path):
        path = self.rewrite_header(tmp_path, "[" * 100000 + "]" * 100000)
        with pytest.raises(CorpusParseError, match="line 1: malformed header .nested too deeply"):
            cp.load(path)

    def test_header_field_of_wrong_type(self, tmp_path):
        path = tmp_path / "corpus.txt"
        cp.save(cp.generate(small_spec(), 5), path)
        header = json.loads(path.read_text().splitlines()[0])
        header["classes"] = "2"
        path = self.rewrite_header(tmp_path, json.dumps(header))
        with pytest.raises(CorpusParseError, match="line 1: header field of the wrong type"):
            cp.load(path)

    @pytest.mark.parametrize("field, value", [
        ("context_utterances", True), ("classes", 2.0), ("salience_prob", "0.3"),
        ("text_len", [3, "6"]), ("text_len", [3, 4, 5]),
    ])
    def test_header_field_type_rule(self, tmp_path, field, value):
        path = tmp_path / "corpus.txt"
        cp.save(cp.generate(small_spec(), 5), path)
        header = json.loads(path.read_text().splitlines()[0])
        header[field] = value
        path = self.rewrite_header(tmp_path, json.dumps(header))
        with pytest.raises(CorpusParseError, match=f"wrong type .*{field}"):
            cp.load(path)

    @pytest.mark.parametrize("field, value, message", [
        ("salience_prob", 2.0, "salience_prob must be within [0, 1]"),
        ("context_utterances", -1, "context_utterances must be >= 0"),
        ("text_len", [6, 3], "text_len range must satisfy 1 <= min <= max, got 6..3"),
    ])
    def test_header_field_out_of_range(self, tmp_path, field, value, message):
        path = tmp_path / "corpus.txt"
        cp.save(cp.generate(small_spec(), 5), path)
        header = json.loads(path.read_text().splitlines()[0])
        header[field] = value
        path = self.rewrite_header(tmp_path, json.dumps(header))
        with pytest.raises(CorpusValidationError) as error:
            cp.load(path)
        assert str(error.value) == f"line 1: {message}"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_header_field_not_finite(self, tmp_path, value):
        path = tmp_path / "corpus.txt"
        cp.save(cp.generate(small_spec(), 5), path)
        header = json.loads(path.read_text().splitlines()[0])
        header["salience_prob"] = value
        path = self.rewrite_header(tmp_path, json.dumps(header))
        with pytest.raises(CorpusValidationError) as error:
            cp.load(path)
        assert str(error.value) == f"line 1: salience_prob must be finite, got {value!r}"

    @pytest.mark.parametrize("field, groups, error, match", [
        ("planted_tokens", [[1.5], [4], [7]], CorpusParseError, "wrong type .*planted_tokens"),
        ("planted_tokens", [["7"], [4], [8]], CorpusParseError, "wrong type .*planted_tokens"),
        ("planted_codes", [[True], [4], [7]], CorpusParseError, "wrong type .*planted_codes"),
        ("planted_codes", [[999], [4], [7]], CorpusValidationError,
         "planted_codes id 999 outside vocabulary 40"),
        ("planted_tokens", [[1, 2, 3]], CorpusValidationError,
         "planted_tokens has 1 groups for 3 classes"),
    ])
    def test_planted_map_checked(self, tmp_path, field, groups, error, match):
        path = tmp_path / "corpus.txt"
        cp.save(cp.generate(small_spec(classes=3, vocab_speech=40), 5), path)
        header = json.loads(path.read_text().splitlines()[0])
        header[field] = groups
        path = self.rewrite_header(tmp_path, json.dumps(header))
        with pytest.raises(error, match=f"^line 1: .*{match}"):
            cp.load(path)

    def test_int_in_float_field_gives_float_header_bytes(self, tmp_path):
        paths = [tmp_path / "int.txt", tmp_path / "float.txt"]
        for path, prob in zip(paths, (1, 1.0)):
            cp.save(cp.generate(small_spec(salience_prob=prob), 5), path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_missing_header(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("")
        with pytest.raises(CorpusParseError, match="header"):
            cp.load(path)


class TestSplit:
    def test_two_per_class_half(self):
        utts = (
            cp.Utterance((1,), (1,), 0),
            cp.Utterance((2,), (2,), 0),
            cp.Utterance((3,), (3,), 1),
            cp.Utterance((4,), (4,), 1),
        )
        spec = small_spec(vocab_text=20, vocab_speech=30)
        corpus = cp.Corpus(spec, utts, ((0,), (1,)), ((0,), (1,)))
        train, heldout = cp.split(corpus, 0.5, seed=3)
        assert train.class_counts() == [1, 1]
        assert heldout.class_counts() == [1, 1]

    def test_partition_exact(self):
        corpus = cp.generate(small_spec(), 101)
        train, heldout = cp.split(corpus, 0.7, seed=5)
        merged = sorted(train.utterances + heldout.utterances, key=str)
        assert merged == sorted(corpus.utterances, key=str)
        assert len(train) + len(heldout) == len(corpus)
        train_set = {(u.text_tokens, u.frame_codes, u.label) for u in train.utterances}
        held_set = {(u.text_tokens, u.frame_codes, u.label) for u in heldout.utterances}
        # Duplicates are possible in principle; on this corpus they are not.
        assert len(train_set) == len(train)
        assert not train_set.intersection(held_set)

    def test_per_class_proportions(self):
        corpus = cp.generate(small_spec(classes=4, vocab_text=40, vocab_speech=60), 500)
        train, _ = cp.split(corpus, 0.8, seed=1)
        for cls, total in enumerate(corpus.class_counts()):
            got = train.class_counts()[cls]
            assert abs(got - 0.8 * total) <= 1.0
            assert got == math.ceil(0.8 * total)

    def test_deterministic(self):
        corpus = cp.generate(small_spec(), 60)
        assert cp.split(corpus, 0.6, seed=9) == cp.split(corpus, 0.6, seed=9)

    def test_class_presence_on_both_sides(self):
        corpus = cp.generate(small_spec(), 40)
        train, heldout = cp.split(corpus, 0.97, seed=2)
        assert all(n > 0 for n in train.class_counts())
        assert all(n > 0 for n in heldout.class_counts())

    def test_rejects_tiny_class(self):
        utts = (
            cp.Utterance((1,), (1,), 0),
            cp.Utterance((2,), (2,), 0),
            cp.Utterance((3,), (3,), 1),
        )
        spec = small_spec()
        corpus = cp.Corpus(spec, utts, ((0,), (1,)), ((0,), (1,)))
        with pytest.raises(StratificationError, match="class 1"):
            cp.split(corpus, 0.5, seed=0)

    def test_rejects_bad_fraction(self):
        corpus = cp.generate(small_spec(), 10)
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(CorpusSpecError):
                cp.split(corpus, bad, seed=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(CorpusSpecError, match="^split seed must be >= 0, got -1$"):
            cp.split(cp.generate(small_spec(), 10), 0.5, seed=-1)
