"""Extraction and counting checked against the plain nested-loop versions.

`oracle_extract_events` and `oracle_accumulate` (`snm_testutil`) are the
per-position loop over n-gram orders and skip-block (a, s, r) tuples, and
the per-occurrence count. The library's table-driven extraction and its
per-tuple counting must return equal events in equal order, and equal
stores with the same row order. `snmlm count`, which counts on integer arrays,
must write the bytes `CountStore.save` writes of the oracle's store, and
`HeldText.read`, which takes held-out text through the same templates, must
give the events `extract_events` and `expand_tags` give, in the same order,
once matched against the rows that score them.
"""

from __future__ import annotations

import contextlib
import io
import operator
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snmlm.cli import main
from snmlm.corpus import E_ID, S_ID, TaggedCorpus, Vocabulary, corpus_lines
from snmlm.counts import CountStore, HeldOut, HeldText, Rows, accumulate
from snmlm.errors import ConfigError, DataError
from snmlm.extraction import (
    Event, Feature, expand_tags, extract_events, load_config, parse_config, render_feature,
)
from snmlm.model import SnmModel, compile_events

from snm_testutil import oracle_accumulate, oracle_extract_events


def _skip(ctx, skip_lo, skip_hi, tie, remote=None):
    lines = [f"max_context_words: {ctx}", f"min_skip_length: {skip_lo}",
             f"max_skip_length: {skip_hi}", f"tie_skip_length: {str(tie).lower()}"]
    if remote is not None:
        lines += [f"min_remote_words: {remote[0]}", f"max_remote_words: {remote[1]}"]
    return "skip_ngram_extractor {\n  " + "\n  ".join(lines) + "\n}\n"


NGRAM0 = "ngram_extractor { min_n: 0 max_n: 3 }\n"
NGRAM1 = "ngram_extractor { min_n: 1 max_n: 4 }\n"
NGRAM2 = "ngram_extractor { min_n: 2 max_n: 4 }\n"

CONFIGS = {
    "ngram-min0": NGRAM0,
    "ngram-min1": NGRAM1,
    "untied": NGRAM0 + _skip(4, 1, 3, False),
    "untied-remote0": NGRAM1 + _skip(3, 1, 2, False, remote=(0, 2)),
    "tied": NGRAM1 + _skip(4, 1, 5, True, remote=(1, 1)),
    "overlapping-untied": NGRAM0 + _skip(3, 1, 2, False) + _skip(4, 2, 3, False),
    "overlapping-tied": NGRAM1 + _skip(4, 1, 4, True) + _skip(3, 2, 6, True, remote=(0, 2)),
}

# Few distinct words, so that tied skips and overlapping blocks collide.
sentences = st.lists(st.integers(3, 6), max_size=16).map(lambda ws: [S_ID, *ws, E_ID])
tags = st.sampled_from([None, "web"])


def _extract_like_oracle(sentence, config, tag):
    """The library's events, after checking them against the oracle's.

    None when both raise the same `DataError`.
    """
    try:
        expected = oracle_extract_events(sentence, config, tag)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            extract_events(sentence, config, tag)
        assert str(got.value) == str(exc)
        return None
    events = extract_events(sentence, config, tag)
    assert events == expected
    # repr also compares the types: Event/Feature, tuple words, int targets.
    assert repr(events) == repr(expected)
    return events


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(max_examples=60, deadline=None)
@given(corpus=st.lists(st.tuples(sentences, tags), min_size=1, max_size=4))
def test_extract_events_equals_nested_loop_oracle(name, corpus):
    config, other = parse_config(CONFIGS[name]), parse_config(CONFIGS[name])
    events, events_other = [], []
    for sentence, tag in corpus:
        got = _extract_like_oracle(sentence, config, tag)
        if got is not None:
            assert all(f.tag == tag for e in got for f in e.features)
            events += got
            events_other += extract_events(sentence, other, tag)
    assert events_other == events
    # Interned: equal features across events and sentences are one object.
    canonical: dict[Feature, Feature] = {}
    for e in events:
        for f in e.features:
            assert canonical.setdefault(f, f) is f
    # Another config, even one parsed from the same text, shares no object.
    mine = {id(f) for f in canonical}
    assert not any(id(f) in mine for e in events_other for f in e.features)
    # accumulate keeps the events' own objects as its row keys.
    assert {id(f) for f in accumulate(events).rows} == mine


@pytest.mark.parametrize("name", ["tied", "overlapping-untied", "overlapping-tied"])
def test_duplicate_configs_do_emit_duplicates(name):
    """The de-duplicating shapes above really collide on a repetitive sentence."""
    config = parse_config(CONFIGS[name])
    sentence = [S_ID] + [3] * 10 + [E_ID]
    patterns = sum(
        max(0, min(b.max_remote_words, b.max_context_words - a, k - a - s)
            - b.min_remote_words + 1)
        for k in range(1, len(sentence))
        for b in config.skip
        for a in range(1, b.max_context_words - b.min_remote_words + 1)
        for s in range(b.min_skip_length, b.max_skip_length + 1)
    )
    emitted = sum(
        f.skip_pos is not None for e in extract_events(sentence, config) for f in e.features
    )
    assert 0 < emitted < patterns


@pytest.mark.parametrize(
    "sentence",
    [[], [S_ID], [S_ID, 3], [3, E_ID], [S_ID, 3, S_ID, E_ID], [E_ID, S_ID, E_ID]],
)
def test_framing_error_matches_oracle(sentence):
    config = parse_config(NGRAM0)
    with pytest.raises(DataError) as expected:
        oracle_extract_events(sentence, config)
    with pytest.raises(DataError) as got:
        extract_events(sentence, config)
    assert str(got.value) == str(expected.value)


_NO_COVERAGE = ("no feature fits the first target; "
                "configure an n-gram block with min_n: 0 for full coverage")


@pytest.mark.parametrize("text, line", [("// orders 2..4\n" + NGRAM2, 2),
                                        (_skip(3, 1, 2, True), None)], ids=["min_n-2", "skip-only"])
def test_a_config_without_coverage_is_rejected_where_read(tmp_path, capsys, text, line):
    # A skip pattern spans a gap and an adjacent word, so only n-gram orders
    # 0 and 1 fit the first target; the error names the n-gram block, or the
    # file when there is none.
    with pytest.raises(ConfigError) as raised:
        parse_config(text)
    assert str(raised.value) == (_NO_COVERAGE if line is None else f"line {line}: {_NO_COVERAGE}")
    cfg, corpus = tmp_path / "s.cfg", tmp_path / "t.txt"
    cfg.write_text(text, encoding="utf-8")
    corpus.write_text("a b\n", encoding="utf-8")
    at = f"{cfg}" if line is None else f"{cfg}:{line}"
    with pytest.raises(ConfigError) as raised:
        load_config(cfg)
    assert str(raised.value) == f"{at}: {_NO_COVERAGE}"
    (tmp_path / "v.txt").write_text("<S>\n</S>\n<UNK>\na\nb\n", encoding="utf-8")
    assert main(["count", str(corpus), "--config", str(cfg), "--vocab", str(tmp_path / "v.txt"),
                 "-o", str(tmp_path / "c.tsv")]) == 2
    assert capsys.readouterr().err == f"snmlm: {at}: {_NO_COVERAGE}\n"
    assert not (tmp_path / "c.tsv").exists()


def _assert_same_store(store: CountStore, expected: CountStore) -> None:
    assert store.total_events == expected.total_events
    assert list(store.feature_counts.items()) == list(expected.feature_counts.items())
    assert list(store.rows) == list(expected.rows)
    for f, row in expected.rows.items():
        assert list(store.rows[f].items()) == list(row.items())


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(sentences, tags), max_size=8),
    st.sampled_from(sorted(CONFIGS)),
)
def test_accumulate_equals_naive_oracle(corpus, name):
    config = parse_config(CONFIGS[name])
    events = [e for s, tag in corpus for e in oracle_extract_events(s, config, tag)]
    _assert_same_store(accumulate(iter(events)), oracle_accumulate(events))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(
                st.builds(Feature, st.tuples(st.integers(3, 5)), tag=tags),
                min_size=1, max_size=3, unique=True,
            ),
            st.integers(3, 6),
        ),
        max_size=12,
    )
)
def test_accumulate_handmade_events_equals_naive_oracle(pairs):
    events = [Event(features=tuple(fs), target=t) for fs, t in pairs]
    _assert_same_store(accumulate(events), oracle_accumulate(events))


def _assert_bit_equal(store: CountStore, expected: CountStore) -> None:
    """The same rows in the same order, and the same arrays, dtypes included."""
    assert store.layout.features == expected.layout.features
    assert store.total_events == expected.total_events
    for name in ("offsets", "words", "counts", "row_sums"):
        owner, other = (store, expected) if name in ("counts", "row_sums") else (
            store.layout, expected.layout)
        got, want = getattr(owner, name), getattr(other, name)
        assert (got.dtype, got.tolist()) == (want.dtype, want.tolist()), name


def _copy(event: Event, fresh: int) -> Event:
    """`event` as it is (0), with a tuple of its own (1), or with its own features too (2)."""
    if fresh == 0:
        return event
    return Event(tuple([Feature(*f) if fresh == 2 else f for f in event.features]), event.target)


@settings(max_examples=60, deadline=None)
@given(corpus=st.lists(st.tuples(sentences, tags, st.booleans()), max_size=8),
       name=st.sampled_from(sorted(CONFIGS)), data=st.data())
def test_accumulate_is_bit_equal_to_the_oracle(corpus, name, data):
    # Two configs parsed from one text intern equal features as distinct
    # objects; some events get a tuple, or features, of their own.
    configs = parse_config(CONFIGS[name]), parse_config(CONFIGS[name])
    events = [_copy(e, data.draw(st.integers(0, 2)))
              for sentence, tag, other in corpus
              for e in extract_events(sentence, configs[other], tag)]
    expected = oracle_accumulate(events)
    _assert_bit_equal(accumulate(events), expected)
    _assert_bit_equal(accumulate(e for e in events), expected)


def test_accumulate_counts_events_that_share_tuples():
    config, other = parse_config(NGRAM0), parse_config(NGRAM0)
    sentence = [S_ID, 3, 4, 5, 3, 4, 5, 3, 4, E_ID]
    events = extract_events(sentence, config) * 3 + extract_events(sentence, other)
    events.append(_copy(events[4], 1))  # an equal tuple, not the shared one
    assert len({id(e.features) for e in events}) < len(events)
    expected = oracle_accumulate(events)
    _assert_bit_equal(accumulate(events), expected)
    # Rows are keyed by the first-seen object of each feature.
    assert list(map(id, accumulate(events).layout.features)) == list(
        map(id, expected.layout.features))
    _assert_bit_equal(accumulate([]), oracle_accumulate([]))
    _assert_bit_equal(accumulate(iter([])), oracle_accumulate([]))


def test_equal_ngram_contexts_share_one_tuple_of_the_same_features():
    config = parse_config(NGRAM0)  # orders 0..3
    sentence = [S_ID, 3, 4, 5, 6, 4, 5, 6, 4, 5, E_ID]
    events = extract_events(sentence, config)
    # Targets 5 and 8 both follow (4, 5, 6); 6 and 9 both follow (5, 6, 4).
    assert events[4].features is events[7].features
    assert events[5].features is events[8].features
    # (3, 4, 5) and (6, 4, 5) differ, and their suffixes' features are the same objects.
    assert events[3].features is not events[9].features
    assert all(map(operator.is_, events[3].features[:3], events[9].features[:3]))
    again = extract_events(sentence, config)
    assert all(e.features is g.features for e, g in zip(events, again))
    # With skip-grams, an event's tuple is its own, and its n-gram features are the table's.
    skips = parse_config(CONFIGS["untied"])
    mixed = extract_events(sentence, skips)
    assert mixed[4].features is not mixed[7].features
    assert all(map(operator.is_, mixed[4].features[:4], mixed[7].features[:4]))


def _at_depth(depth: int, call):
    return _at_depth(depth - 1, call) if depth else call()


def test_the_longest_ngram_order_extracts_without_recursion():
    # Only the last context has no suffix in the table: a chain of 255 new
    # contexts, each built from the one a word shorter. A miss that recursed
    # would take two stack levels a word, 510, past what a caller 600 levels
    # deep leaves of the default limit of 1,000.
    config = parse_config("ngram_extractor { min_n: 0 max_n: 255 }\n")
    sentence = [S_ID, *[3] * 297, 4, E_ID]
    events = _at_depth(600, lambda: extract_events(sentence, config))
    assert len(sentence) == 300 and len(events[-1].features) == 256
    assert events == oracle_extract_events(sentence, config)


def test_cli_count_equals_oracle_store(tmp_path, capsys):
    texts = {
        "news.txt": "the cat sat\nthe cat ran far\na dog sat\n",
        "web.txt": "the dog ran\ncat cat cat\nthe cat sat down\n",
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    cfg = tmp_path / "extractor.cfg"
    cfg.write_text(CONFIGS["overlapping-tied"], encoding="utf-8")
    vocab_path, out = tmp_path / "vocab.txt", tmp_path / "counts.tsv"
    corpora = [str(tmp_path / n) for n in texts]
    assert main(["build-vocab", *corpora, "-o", str(vocab_path)]) == 0
    argv = ["count", *corpora, "--tag", "news", "--tag", "web", "--config", str(cfg),
            "--vocab", str(vocab_path), "-o", str(out)]
    capsys.readouterr()
    assert main(argv) == 0
    printed = capsys.readouterr().out

    vocab = Vocabulary.load(vocab_path)
    config = parse_config(cfg.read_text(encoding="utf-8"))
    events = [
        e
        for path, tag in zip(corpora, ("news", "web"))
        for s in TaggedCorpus.from_file(path, vocab).sentences
        for e in oracle_extract_events(s, config, tag)
    ]
    expected = oracle_accumulate(events)
    expected_path = tmp_path / "expected.tsv"
    expected.save(expected_path, vocab)
    assert out.read_bytes() == expected_path.read_bytes()
    assert printed == (
        f"counts: {len(expected)} features, {expected.num_links} links, "
        f"{expected.total_events} events -> {out}\n"
    )


# ---------------------------------------------------------------------------
# `snmlm count` on integer arrays against the oracle store

# Ids do not follow string order, so the writer's word order is exercised.
_VOCAB = "<S>\n</S>\n<UNK>\nd\nb\na\nc\n"
# Mostly words, sometimes a frame token inside a line or an unknown word.
_line = st.lists(st.sampled_from(["a", "b", "c", "d"] * 6 + ["<S>", "</S>", "zz"]),
                 max_size=12).map(" ".join)


def _run_count(files: list[Path], tags, config_text: str, vocab_text: str, wd: Path):
    """`snmlm count` on the files against the oracle; returns the printed line."""
    cfg, vocab_path, out = wd / "snm.cfg", wd / "vocab.txt", wd / "counts.tsv"
    cfg.write_text(config_text, encoding="utf-8")
    vocab_path.write_text(vocab_text, encoding="utf-8")
    vocab, config = Vocabulary.load(vocab_path), parse_config(config_text)
    argv = ["count", *map(str, files), *(a for t in tags for a in ("--tag", t)),
            "--config", str(cfg), "--vocab", str(vocab_path), "-o", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    try:
        events = [
            e
            for path, tag in zip(files, tags or [None] * len(files))
            for s in TaggedCorpus.from_file(path, vocab).sentences
            for e in oracle_extract_events(s, config, tag)
        ]
    except DataError as exc:
        assert (code, stderr.getvalue(), stdout.getvalue()) == (2, f"snmlm: {exc}\n", "")
        assert not out.exists()
        return None
    assert code == 0, stderr.getvalue()
    expected = oracle_accumulate(events)
    expected.save(wd / "expected.tsv", vocab)
    assert out.read_bytes() == (wd / "expected.tsv").read_bytes()
    # The reader checks the order both files share.
    loaded = CountStore.load(out, vocab)
    assert (loaded.rows, loaded.total_events) == (expected.rows, expected.total_events)
    assert stdout.getvalue() == (
        f"counts: {len(expected)} features, {expected.num_links} links, "
        f"{expected.total_events} events -> {out}\n"
    )
    return stdout.getvalue()


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(max_examples=60, deadline=None)
@given(
    sources=st.lists(st.lists(_line, max_size=5), min_size=1, max_size=3),
    tags=st.one_of(st.none(), st.lists(st.sampled_from(["web", "news"]), min_size=3,
                                       max_size=3)),
)
def test_cli_count_writes_the_oracle_store(name, sources, tags):
    # Repeated tags make files share features, which are summed across files.
    with tempfile.TemporaryDirectory() as d:
        wd = Path(d)
        files = [wd / f"source{i}.txt" for i in range(len(sources))]
        for path, lines in zip(files, sources):
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        _run_count(files, tags[: len(files)] if tags else [], CONFIGS[name], _VOCAB, wd)


def test_cli_count_ranks_contexts_past_int64(tmp_path):
    # 2^16 words: packed plainly, five words need 80 bits, and the oldest
    # word's bits would fall out of an int64 key, merging the contexts below.
    words = [f"w{i:05d}" for i in range(2**16 - 3)]
    rng = random.Random(11)
    tail = " ".join(words[-4:])
    firsts = words[:3] + words[-8:-4]
    lines = [f"{first} {tail}" for first in firsts]
    pool = words[:5] + words[-5:] + rng.sample(words, 10)
    lines += [" ".join(rng.choices(pool, k=rng.randrange(3, 12))) for _ in range(150)]
    files = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for path in files:
        rng.shuffle(lines)
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    rng.shuffle(words)
    vocab_text = "\n".join(["<S>", "</S>", "<UNK>", *words]) + "\n"
    config = "ngram_extractor { min_n: 0 max_n: 5 }\n" + _skip(5, 1, 3, False, remote=(1, 3))
    assert _run_count(files, ["web", "web"], config, vocab_text, tmp_path) is not None
    written = (tmp_path / "counts.tsv").read_text(encoding="utf-8")
    assert all(f"web:[{first} {tail}]\t</S>\t2\n" in written for first in firsts)


# ---------------------------------------------------------------------------
# Held-out text on integer arrays against extracted events

def _compiled(held: HeldOut):
    """The arrays of `held` as lists with their dtypes."""
    return [(a.dtype, a.tolist()) for a in (held.event, held.row, held.link, held.starts,
                                            held.target)]


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(max_examples=25, deadline=None)
@given(
    lines=st.lists(st.one_of(_line, st.sampled_from(["", " ", "a", "c b"])), max_size=6),
    tags=st.sampled_from([(), ("web", "news"), ("news", "web", "news")]),
    rows=st.sampled_from(["all", "none", "half", "foreign"]),
    data=st.data(),
)
def test_held_out_text_equals_extracted_events(name, lines, tags, rows, data):
    # Lines shorter than a template's span, blank lines, unknown words and
    # misplaced frame tokens, read with no tags, two tags, or a tag repeated,
    # and matched against every extracted feature's row, none, a random
    # half, or a random half and the rows of a tag the text lacks.
    config = parse_config(CONFIGS[name])
    vocab = Vocabulary(_VOCAB.split())
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "held.txt"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        try:
            sentences = TaggedCorpus.from_file(path, vocab).sentences
        except DataError as exc:
            with pytest.raises(DataError) as got:
                HeldText.read(path, vocab, config, tags)
            assert str(got.value) == str(exc)
            return
        text = HeldText.read(path, vocab, config, tags)
        numbers = [lineno for lineno, _ in corpus_lines(path)]
    plain = [e for s in sentences for e in extract_events(s, config)]
    events = [expand_tags(e, tags) for e in plain] if tags else plain
    features = list(dict.fromkeys(f for e in events for f in e.features))
    names = text.names(vocab)
    assert sorted(names) == sorted(render_feature(f, vocab) for f in features)

    # Rows counted from the events, so that targets have links, in a drawn order.
    foreign = [expand_tags(e, ("sports",)) for e in plain] + (plain if tags else [])
    counted = accumulate(events + foreign)
    chosen = {"all": features, "none": []}.get(rows) or [
        f for f in features if data.draw(st.booleans())]
    if rows == "foreign":
        chosen += list(dict.fromkeys(f for e in foreign for f in e.features))
    chosen = data.draw(st.permutations(chosen))
    store = CountStore.from_rows({f: counted.rows[f] for f in chosen}, counted.total_events)
    layout = store.layout
    model = SnmModel(Rows(layout.features, layout.offsets, layout.words),
                     store.counts.astype(np.float64), store.row_sums.astype(np.float64))

    held = text.held_out(model.layout)
    assert held.layout is model.layout
    known = set(chosen)
    occurrences = [(j, f) for j, e in enumerate(events) for f in e.features if f in known]
    assert [(e, layout.features[r]) for e, r in zip(held.event.tolist(), held.row.tolist())
            ] == occurrences
    assert held.event.dtype == held.row.dtype == np.int64
    assert _compiled(held) == _compiled(compile_events(events, model.layout))
    assert held.line.tolist() == [n for n, s in zip(numbers, sentences) for _ in s[1:]]
