"""Every output file is replaced whole or not at all.

Each writer goes through `snmlm.files.atomic_write`. A writer that raises
part way, here because the disk fills on its first write, must leave an
earlier file at the path byte-identical and no temporary file behind.
"""

import errno

import pytest

import snmlm.files
from snmlm.adjustment import AdjustmentModel
from snmlm.cli import main
from snmlm.corpus import build_vocab
from snmlm.counts import accumulate, merge_files
from snmlm.extraction import extract_events, parse_config
from snmlm.model import save_model

from snm_testutil import build_model


class _FullDisk:
    """A file that takes half of the first write, then reports a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


def _full_disk_open(*args, **kwargs):
    """`open`, where a file opened for writing fills the disk; inputs read as usual."""
    fh = open(*args, **kwargs)
    return _FullDisk(fh) if fh.writable() else fh


@pytest.fixture
def pipeline(tmp_path):
    vocab = build_vocab("the cat sat on the mat".split())
    config = parse_config("ngram_extractor { min_n: 0 max_n: 2 }")
    sentence = [0, *(vocab.index[w] for w in "the cat sat".split()), 1]
    store = accumulate(extract_events(sentence, config))
    (tmp_path / "text.txt").write_text("the cat sat\non the mat\n", encoding="utf-8")
    (tmp_path / "snm.cfg").write_text("ngram_extractor { min_n: 0 max_n: 2 }", encoding="utf-8")
    vocab.save(tmp_path / "vocab.txt")
    store.save(tmp_path / "part.tsv", vocab)
    return tmp_path, vocab, store


def _count(wd, out):
    code = main(["count", str(wd / "text.txt"), "--config", str(wd / "snm.cfg"),
                 "--vocab", str(wd / "vocab.txt"), "-o", str(out)])
    if code:
        raise OSError(f"snmlm count exited {code}")


_WRITERS = {
    "vocab": lambda wd, vocab, store, out: vocab.save(out),
    "counts": lambda wd, vocab, store, out: store.save(out, vocab),
    "count command": lambda wd, vocab, store, out: _count(wd, out),
    "merge": lambda wd, vocab, store, out: merge_files([wd / "part.tsv", wd / "part.tsv"], out),
    "model": lambda wd, vocab, store, out: save_model(
        build_model(store, AdjustmentModel(64), vocab), out, vocab),
    "adjustment": lambda wd, vocab, store, out: AdjustmentModel(64).save(out),
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_a_writer_failing_part_way_leaves_the_earlier_file(pipeline, monkeypatch, writer):
    wd, vocab, store = pipeline
    out = wd / "out"
    _WRITERS[writer](wd, vocab, store, out)
    earlier = out.read_bytes()
    files = sorted(wd.iterdir())
    monkeypatch.setattr(snmlm.files, "open", _full_disk_open, raising=False)
    with pytest.raises(OSError, match="No space left|snmlm count exited 2"):
        _WRITERS[writer](wd, vocab, store, out)
    assert out.read_bytes() == earlier
    assert sorted(wd.iterdir()) == files
    assert not list(wd.glob("*.tmp"))
