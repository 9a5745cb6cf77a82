"""Every file the package writes is replaced atomically: a write that fails
part-way leaves the old file, or no file, and no temp file behind."""

import pytest

from labelfuse import atomic, cli
from labelfuse import corpus as cp
from labelfuse import evalkit as ev
from labelfuse import fusion as fu
from labelfuse import trainer as tr

SPEC = cp.CorpusSpec(
    classes=3, vocab_text=30, vocab_speech=40, text_len=(4, 8), speech_len=(6, 12),
    salient_per_class=3, salience_prob=0.4, seed=5,
)


def checkpoint(seed):
    train_c, held_c = cp.split(cp.generate(SPEC, 30), 0.7, seed=0)
    config = tr.TrainConfig(epochs=0, text_dim=8, speech_dim=8, top_k_text=3, top_k_speech=5,
                            seed=seed)
    return tr.train(train_c, held_c, config)[2]


def write_corpus(root, variant, corpus_file):
    cp.save(cp.generate(SPEC, 10 + variant), root / "corpus.txt")


def write_checkpoint(root, variant, corpus_file):
    tr.save_checkpoint(root / "model.ckpt", checkpoint(variant))


def write_attention(root, variant, corpus_file):
    corpus = cp.generate(SPEC, 10)
    utt = corpus.utterances[variant]
    bundle = fu.attention_maps(utt, tr.model_from_checkpoint(checkpoint(0)),
                               fu.FusionMode.CONSTRAINT)
    ev.export_attention(bundle, utt, corpus.planted_tokens[utt.label],
                        corpus.planted_codes[utt.label], root / "attention")


def write_cli_reports(root, variant, corpus_file):
    rc = cli.main(["extract-labels", "--out-dir", str(root), "--corpus-file", str(corpus_file),
                   "--top-k-text", str(2 + variant)])
    if rc != 0:
        raise OSError("extract-labels failed")


WRITERS = [write_corpus, write_checkpoint, write_attention, write_cli_reports]


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "input.txt"
    cp.save(cp.generate(SPEC, 30), path)
    return path


@pytest.fixture()
def half_writes(monkeypatch):
    """Make every atomic write fail after writing half of its bytes."""
    real_open = open

    class HalfFile:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

        def __getattr__(self, name):
            return getattr(self.fh, name)

    monkeypatch.setattr(atomic, "open", lambda *a, **k: HalfFile(real_open(*a, **k)),
                        raising=False)


def files_under(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("writer", WRITERS, ids=lambda w: w.__name__)
def test_failed_write_keeps_old_file(tmp_path, corpus_file, request, writer):
    root = tmp_path / "out"
    root.mkdir()
    writer(root, 0, corpus_file)
    before = files_under(root)
    request.getfixturevalue("half_writes")
    with pytest.raises(OSError):
        writer(root, 1, corpus_file)
    assert files_under(root) == before


@pytest.mark.parametrize("writer", WRITERS, ids=lambda w: w.__name__)
def test_failed_write_leaves_no_file(tmp_path, corpus_file, half_writes, writer):
    root = tmp_path / "out"
    root.mkdir()
    with pytest.raises(OSError):
        writer(root, 0, corpus_file)
    assert files_under(root) == {}


def test_write_replaces_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "report.csv"
    atomic.write_atomic(target, "old\n")
    atomic.write_atomic(target, b"new\n")
    assert target.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]
