"""Mutated input files: reading one exits 0, or 2 naming the file and line.

Each example starts from a file a writer produced (`snmlm count`,
`merge_files`, or `save_model` through `snmlm train`) and applies one
mutation: delete, duplicate or swap lines, insert a blank line, replace a
field with any text, overwrite or insert a byte, cut the file short, or
scale one normalizer. Reading it with `snmlm inspect` must then exit 0, or
exit 2 with a message that starts with ``<file>:<line>:``; only rows that
lack a normalizer are named by the file alone. It must never raise. A count
file is also read by `snmlm train --dev`, which checks only the dev rows
when the trailer seals the file, and both commands must exit 2 on any
mutation that changed its bytes: the trailer's digest covers every row.

The vocabulary and the extractor config that `snmlm count` reads are
mutated the same way, and a config also has a word replaced by any text or
number. `snmlm count` must exit 0, or exit 2 naming the mutated file. So
must `count`, `train --dev` and `eval --test` on corpus text with `<S>`
inserted as a token, a byte overwritten or inserted, a blank line inserted
or a cut. No command reads an adjustment file, so `AdjustmentModel.load`
reads a mutated one, with a byte or a header field replaced, or cut short;
it may raise only a `DataError` naming the file.

A model file may still exit 0 after a mutation that leaves a file the
writer could have written. It cannot lose a cell that way, though: its
normalizer is no longer the row's sum.

Written and mutated model files of tagged n-gram and skip features are also
read by `load_model` at several block sizes, which must give what the
per-line reader `oracle_load_model` gives: the same rows and cells bit for
bit, or the same error.
"""

import io
import math
import re
import struct
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import snmlm.counts
from snmlm.adjustment import _ADJ_HEADER, _ADJ_MAGIC, AdjustmentModel
from snmlm.cli import main
from snmlm.corpus import build_vocab
from snmlm.counts import merge_files
from snmlm.errors import DataError
from snmlm.extraction import Feature, render_feature
from snmlm.model import load_model

from snm_testutil import oracle_load_model, outcome

_SKIP_CONFIG = """\
ngram_extractor { min_n: 0 max_n: 2 }
skip_ngram_extractor {
  max_context_words: 3
  min_remote_words: 1
  max_remote_words: 1
  min_skip_length: 1
  max_skip_length: 2
  tie_skip_length: false
}
"""


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The bytes of a tagged count file, a merged count file and a model file."""
    wd = tmp_path_factory.mktemp("written")
    (wd / "a.txt").write_text("green tea is hot\nred tea is cold\n", encoding="utf-8")
    (wd / "b.txt").write_text("green tea is sweet\nhot tea is green\n", encoding="utf-8")
    (wd / "dev.txt").write_text("red tea is hot\n", encoding="utf-8")
    (wd / "snm.cfg").write_text(_SKIP_CONFIG, encoding="utf-8")
    common = ["--config", wd / "snm.cfg", "--vocab", wd / "vocab.txt"]
    steps = [
        ["build-vocab", wd / "a.txt", wd / "b.txt", "-o", wd / "vocab.txt"],
        ["count", wd / "a.txt", *common, "-o", wd / "a.tsv"],
        ["count", wd / "b.txt", *common, "-o", wd / "b.tsv"],
        ["count", wd / "a.txt", wd / "b.txt", "--tag", "web", "--tag", "news", *common,
         "-o", wd / "tagged.tsv"],
        ["train", "--counts", wd / "tagged.tsv", "--dev", wd / "dev.txt", *common,
         "--tag", "web", "--tag", "news", "--table-size", "1024", "--batch-size", "2",
         "--adjustment-out", wd / "adj.bin", "--model-out", wd / "model.tsv"],
    ]
    for argv in steps:
        assert _run(argv) == (0, "")
    merge_files([wd / "a.tsv", wd / "b.tsv"], wd / "merged.tsv")
    files = {
        name: ("model" if name == "model" else "counts", (wd / f"{name}.tsv").read_bytes())
        for name in ("tagged", "merged", "model")
    }
    files["vocab"] = ("vocab", (wd / "vocab.txt").read_bytes())
    files["config"] = ("config", (wd / "snm.cfg").read_bytes())
    files["adjustment"] = ("adjustment", (wd / "adj.bin").read_bytes())
    return wd, files


def _mutation(name: str, data: bytes):
    """A strategy of (mutated bytes, what the reader must report) for one written file.

    What it must report is None when exit 0 is allowed, or the line and a
    message fragment that exit 2 must carry.
    """
    lines = data.decode("utf-8").split("\n")[:-1]
    n = len(lines)

    def joined(new_lines) -> bytes:
        return "".join(line + "\n" for line in new_lines).encode("utf-8")

    def delete(i):
        return joined(lines[:i] + lines[i + 1:]), None

    def duplicate(i):
        return joined(lines[:i + 1] + lines[i:]), None

    def swap(i, j):
        new = list(lines)
        new[i], new[j] = new[j], new[i]
        return joined(new), None

    def blank(i):
        # Line 1 blank is a bad header, named by the file alone; a config
        # and corpus text may hold blank lines.
        return joined(lines[:i] + [""] + lines[i:]), ((i + 1, "") if i and name not in
                                                       ("config", "text") else None)

    def field(i, k, text):
        parts = lines[i].split("\t")
        parts[k % len(parts)] = text
        return joined(lines[:i] + ["\t".join(parts)] + lines[i + 1:]), None

    def byte(at, value, insert):
        mutated = data[:at] + bytes([value]) + data[at + (not insert):]
        if value != 0xFF:
            return mutated, None
        # 0xff is never UTF-8; the line holding it is counted as readers count.
        return mutated, (len((mutated[:at] + b"x").splitlines()), "byte 0xff at column")

    def cut(at):
        return data[:at], None

    def word(i, k, text):
        words = lines[i].split()
        words[k % len(words)] = text
        return joined(lines[:i] + [" ".join(words)] + lines[i + 1:]), None

    def frame(i, k):
        words = lines[i].split()
        k %= len(words) + 1
        line = " ".join(words[:k] + ["<S>"] + words[k:])
        # <S> may start a line, which is then framed already.
        expected = (i + 1, "<S> inside a sentence") if k else None
        return joined(lines[:i] + [line] + lines[i + 1:]), expected

    def scale(i, factor):
        fs, value = lines[i].split("\t")
        new = f"{fs}\t{float(value) * factor!r}"
        return joined(lines[:i] + [new] + lines[i + 1:]), (i + 1, "is not its row's sum")

    index = st.integers(0, n - 1)
    if name == "text":
        return st.one_of(
            st.builds(frame, index, st.integers(0, 10)),
            st.builds(blank, st.integers(0, n)),
            st.builds(byte, st.integers(0, len(data) - 1),
                      st.one_of(st.just(0xFF), st.integers(0, 255)), st.booleans()),
            st.builds(cut, st.integers(0, len(data) - 1)),
        )
    kinds = [
        st.builds(delete, index),
        st.builds(duplicate, index),
        st.builds(swap, index, index),
        st.builds(blank, st.integers(0, n)),
        st.builds(field, index, st.integers(0, 2), st.text(max_size=12)),
        st.builds(byte, st.integers(0, len(data) - 1),
                  st.one_of(st.just(0xFF), st.integers(0, 255)), st.booleans()),
        st.builds(cut, st.integers(0, len(data) - 1)),
    ]
    if name == "config":
        kinds.append(st.builds(word, st.sampled_from([i for i in range(n) if lines[i].split()]),
                               st.integers(0, 2),
                               st.one_of(st.text(max_size=12), st.integers(0, 10**6).map(str))))
    if name == "model":
        first = lines.index("#normalizers") + 1
        kinds.append(st.builds(scale, st.integers(first, n - 1),
                               st.sampled_from([0.0, 0.5, 1 - 1e-6, 1 + 1e-6, 2.0])))
    return st.one_of(kinds)


@pytest.mark.parametrize("name", ["tagged", "merged", "model"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_mutated_file_exits_0_or_names_its_line(written, name, data):
    wd, files = written
    source, original = files[name]
    mutated, expected = data.draw(_mutation(name, original))
    path = wd / f"mutated-{name}.tsv"
    path.write_bytes(mutated)
    readers = [["inspect", "[]", f"--{source}", path, "--vocab", wd / "vocab.txt"]]
    if source == "counts":
        tags = ["--tag", "web", "--tag", "news"] if name == "tagged" else []
        readers.append(["train", "--counts", path, "--dev", wd / "dev.txt",
                        "--config", wd / "snm.cfg", "--vocab", wd / "vocab.txt", *tags,
                        "--table-size", "1024", "--adjustment-out", wd / "mutated-adj.bin",
                        "--model-out", wd / "mutated-model.tsv"])
    named = re.escape(f"snmlm: {path}:") + r"(\d+: | \d+ rows lack a normalizer)"
    for argv in readers:
        code, err = _run(argv)
        assert code in (0, 2), err
        if code == 2:
            assert re.match(named, err), err
            assert err.count("\n") == 1 and "Traceback" not in err
        else:
            assert err == ""
        if source == "counts" and mutated != original:
            assert code == 2, f"{argv[0]} read a changed count file"
        if expected is not None:
            lineno, fragment = expected
            assert code == 2, f"line {lineno} should have been rejected"
            assert err.startswith(f"snmlm: {path}:{lineno}: ") and fragment in err, err


def _exits_0_or_names(argv, path, expected) -> None:
    """Run `argv`, which reads the mutated file `path`: exit 0, or exit 2 naming it.

    With `expected`, (line, message fragment), it must exit 2 naming that line.
    """
    code, err = _run(argv)
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith(f"snmlm: {path}:"), err
        assert err.count("\n") == 1 and "Traceback" not in err
    else:
        assert err == ""
    if expected is not None:
        lineno, fragment = expected
        assert code == 2, f"line {lineno} should have been rejected"
        assert err.startswith(f"snmlm: {path}:{lineno}: ") and fragment in err, err


@pytest.mark.parametrize("name", ["vocab", "config"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_mutated_vocab_or_config_exits_0_or_names_its_file(written, name, data):
    wd, files = written
    _, original = files[name]
    mutated, expected = data.draw(_mutation(name, original))
    path = wd / f"mutated-{name}"
    path.write_bytes(mutated)
    config, vocab = {"vocab": (wd / "snm.cfg", path), "config": (path, wd / "vocab.txt")}[name]
    _exits_0_or_names(["count", wd / "a.txt", "--config", config, "--vocab", vocab,
                       "-o", wd / "mutated-out.tsv"], path, expected)


# Per command, the corpus text it reads, and its arguments with that text at `path`.
_TEXT_READERS = {
    "count": ("a.txt", lambda wd, path: ["count", path, "--config", wd / "snm.cfg",
                                         "--vocab", wd / "vocab.txt", "-o", wd / "mutated-out.tsv"]),
    "train --dev": ("dev.txt", lambda wd, path: [
        "train", "--counts", wd / "tagged.tsv", "--dev", path, "--config", wd / "snm.cfg",
        "--vocab", wd / "vocab.txt", "--tag", "web", "--tag", "news", "--table-size", "1024",
        "--adjustment-out", wd / "mutated-adj.bin", "--model-out", wd / "mutated-model.tsv"]),
    "eval --test": ("b.txt", lambda wd, path: [
        "eval", "--model", wd / "model.tsv", "--test", path, "--config", wd / "snm.cfg",
        "--vocab", wd / "vocab.txt", "--tag", "web", "--tag", "news"]),
}


@pytest.mark.parametrize("command", sorted(_TEXT_READERS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_mutated_corpus_text_exits_0_or_names_its_file(written, command, data):
    wd, _ = written
    name, argv = _TEXT_READERS[command]
    mutated, expected = data.draw(_mutation("text", (wd / name).read_bytes()))
    path = wd / "mutated-text.txt"
    path.write_bytes(mutated)
    _exits_0_or_names(argv(wd, path), path, expected)


# Words that start like a skip marker and are none, a "]" and a character below the tab.
_ODD_VOCAB = build_vocab(["a", "b", "c", "skip-x", "skip-", "skip-07", "a]\x01", "b]"],
                         min_count=1)
# Cells that must read back bit for bit: a sum past the largest float, 0.1 + 0.2
# and subnormals among them.
_CELLS = [1e308, 0.1 + 0.2, 5e-324, 2.5e-310, 1 / 3, 1.0, 0.0]


@st.composite
def _model_file(draw, vocab) -> bytes:
    """A model file of tagged n-gram and skip features over `vocab`, as `save_model` writes one.

    A row whose cells sum past the largest float gets the normalizer 1e308.
    """
    names = set()
    for _ in range(draw(st.integers(1, 6))):
        words = tuple(draw(st.lists(st.integers(0, len(vocab) - 1), max_size=3)))
        skip_pos = draw(st.none() | st.integers(0, len(words) - 1)) if words else None
        skip_len = draw(st.none() | st.integers(1, 70)) if skip_pos is not None else None
        tag = draw(st.sampled_from([None, "a", "web"]))
        names.add(render_feature(Feature(words, skip_pos, skip_len, tag), vocab))
    rows, norms = [], []
    for name in sorted(names):
        links = draw(st.dictionaries(st.sampled_from(vocab.words), st.sampled_from(_CELLS),
                                     min_size=1, max_size=3))
        rows += [f"{name}\t{w}\t{c!r}\n" for w, c in sorted(links.items())]
        try:
            norms.append(f"{name}\t{math.fsum(links.values())!r}\n")
        except OverflowError:
            norms.append(f"{name}\t1e308\n")
    return (f"#snm-model v1\n#vocab-size {len(vocab)}\n{''.join(rows)}"
            f"#normalizers\n{''.join(norms)}").encode("utf-8")


def _model_items(model):
    """A loaded model's rows, in order, with its cells and row sums as bytes; or its error."""
    if isinstance(model, str):
        return model
    layout = model.layout
    return (layout.features, layout.offsets.tolist(), layout.words.tolist(),
            model.cells.tobytes(), model.row_sums.tobytes())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_block_model_reader_equals_the_line_reader(tmp_path_factory, data):
    written = data.draw(_model_file(_ODD_VOCAB))
    text = data.draw(st.one_of(st.just(written),
                               _mutation("model", written).map(lambda m: m[0])))
    path = tmp_path_factory.mktemp("model") / "model.tsv"
    path.write_bytes(text)
    expected = _model_items(outcome(lambda: oracle_load_model(path, _ODD_VOCAB)))
    for block_lines in (1, 2, 3, snmlm.counts._BLOCK_LINES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(snmlm.counts, "_BLOCK_LINES", block_lines)
            assert _model_items(outcome(lambda: load_model(path, _ODD_VOCAB))) == expected


# Values for each header field: table size, gamma, delta0, mode, hash scheme.
_FIELD_VALUES = [
    st.integers(0, 2**64 - 1),
    st.floats(),
    st.floats(),
    st.integers(0, 255),
    st.integers(0, 255),
]


def _adjustment_mutation(data: bytes):
    """A strategy of mutated adjustment-file bytes: a byte or a header field replaced, or a cut."""
    start = len(_ADJ_MAGIC)

    def byte(at, value, insert):
        return data[:at] + bytes([value]) + data[at + (not insert):]

    def field(k, value):
        values = list(_ADJ_HEADER.unpack_from(data, start))
        values[k] = value
        return data[:start] + _ADJ_HEADER.pack(*values) + data[start + _ADJ_HEADER.size:]

    def weight(slot, value):
        at = start + _ADJ_HEADER.size + 8 * slot
        return data[:at] + struct.pack("<d", value) + data[at + 8:]

    slots = (len(data) - start - _ADJ_HEADER.size) // 8
    return st.one_of(
        st.builds(byte, st.integers(0, len(data) - 1), st.integers(0, 255), st.booleans()),
        st.integers(0, 4).flatmap(lambda k: _FIELD_VALUES[k].map(lambda v: field(k, v))),
        st.builds(weight, st.integers(0, slots - 1), st.floats()),
        st.builds(lambda at: data[:at], st.integers(0, len(data) - 1)),
    )


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_mutated_adjustment_file_loads_or_raises_a_data_error_naming_it(written, data):
    wd, files = written
    _, original = files["adjustment"]
    path = wd / "mutated-adj.bin"
    path.write_bytes(data.draw(_adjustment_mutation(original)))
    try:
        adj = AdjustmentModel.load(path)
    except DataError as exc:
        assert str(exc).startswith(f"{path}: "), exc
    else:
        assert np.isfinite(adj.theta).all() and adj.gamma > 0 and adj.delta0 > 0
        assert math.isfinite(adj.gamma) and math.isfinite(adj.delta0)
