import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import snmlm.counts
import snmlm.files

from snmlm.adjustment import AdjustmentModel
from snmlm.corpus import E_ID, S_ID, build_vocab, map_tokens
from snmlm.counts import COUNTS_HEADER, CountStore, accumulate, merge_files
from snmlm.errors import DataError
from snmlm.extraction import Event, Feature, extract_events, parse_config, render_feature

from snm_testutil import (
    FIVE_GRAM_CONFIG,
    MarkovChain,
    build_model,
    check_consistency,
    extract_corpus_events,
    oracle_load_counts,
    oracle_merge_counts,
    outcome,
    parse_feature_oracle,
    strip_tags,
)


@pytest.fixture
def abc_vocab():
    return build_vocab(["a", "b", "c"], min_count=1)


def _ev(features, target):
    return Event(features=tuple(features), target=target)


def test_accumulate_direct_counts(abc_vocab):
    a = abc_vocab.index["a"]
    b = abc_vocab.index["b"]
    c = abc_vocab.index["c"]
    fa = Feature((a,))
    store = accumulate([_ev([fa], b), _ev([fa], b), _ev([fa], c)])
    assert store.rows == {fa: {b: 2, c: 1}}
    assert store.feature_counts == {fa: 3}
    assert store.total_events == 3
    check_consistency(store)


def test_accumulate_empty_stream():
    store = accumulate([])
    assert len(store) == 0
    assert store.total_events == 0


def test_rel_freq(abc_vocab):
    # c(w|f) = C_fw / C_f* is the cell of the unadjusted model
    a = abc_vocab.index["a"]
    b = abc_vocab.index["b"]
    c = abc_vocab.index["c"]
    fa = Feature((a,))
    store = accumulate([_ev([fa], b), _ev([fa], b), _ev([fa], c)])
    model = build_model(store, AdjustmentModel(64), abc_vocab)
    assert model.rows[fa][b] == pytest.approx(2 / 3)
    assert a not in model.rows[fa]
    assert Feature((b,)) not in model.rows


def test_unigram_row_is_target_relative_frequency(abc_vocab):
    # ten events over the empty feature; hand count: a 5, b 3, c 2
    a = abc_vocab.index["a"]
    b = abc_vocab.index["b"]
    c = abc_vocab.index["c"]
    empty = Feature(())
    targets = [a] * 5 + [b] * 3 + [c] * 2
    store = accumulate([_ev([empty], t) for t in targets])
    row = build_model(store, AdjustmentModel(64), abc_vocab).rows[empty]
    assert row[a] == pytest.approx(0.5)
    assert row[b] == pytest.approx(0.3)
    assert row[c] == pytest.approx(0.2)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(3, 6)), max_size=40))
def test_row_sum_identity_and_order_independence(pairs):
    feats = [Feature(()), Feature((3,)), Feature((4,)), Feature((3, 4))]
    events = [_ev([feats[i]], t) for i, t in pairs]
    store = accumulate(events)
    check_consistency(store)
    shuffled = list(events)
    random.Random(0).shuffle(shuffled)
    other = accumulate(shuffled)
    assert other.rows == store.rows
    assert other.feature_counts == store.feature_counts


def test_intersect_empty_and_superset(abc_vocab):
    a = abc_vocab.index["a"]
    fa = Feature((a,))
    fe = Feature(())
    store = accumulate([_ev([fa, fe], 4), _ev([fe], 5)])
    assert len(store.intersect([])) == 0
    sup = store.intersect([fa, fe, Feature((5,))])
    assert sup.rows == store.rows
    assert sup.feature_counts == store.feature_counts


def test_intersect_matches_filter_oracle():
    rng = random.Random(42)
    feats = [Feature(())] + [Feature((rng.randint(3, 20),)) for _ in range(30)]
    feats = list(dict.fromkeys(feats))
    events = [
        _ev(rng.sample(feats, rng.randint(1, 3)), rng.randint(3, 20))
        for _ in range(200)
    ]
    store = accumulate(events)
    keep = set(rng.sample(feats, len(feats) // 3))
    sub = store.intersect(keep)
    expected_rows = {f: row for f, row in store.rows.items() if f in keep}
    assert sub.rows == expected_rows
    for f in sub.rows:
        assert sub.feature_counts[f] == store.feature_counts[f]


def test_intersect_union_decomposes():
    rng = random.Random(7)
    feats = [Feature((i,)) for i in range(3, 15)]
    events = [_ev([rng.choice(feats)], rng.randint(3, 14)) for _ in range(100)]
    store = accumulate(events)
    d1 = set(feats[:6])
    d2 = set(feats[4:])
    both = store.intersect(d1 | d2)
    left = store.intersect(d1)
    right = store.intersect(d2 - d1)
    assert {**left.rows, **right.rows} == both.rows
    assert {**left.feature_counts, **right.feature_counts} == both.feature_counts


def test_tagged_counting_pools_to_untagged():
    # two tagged sources; stripping tags and pooling must equal the
    # untagged run over the concatenated sources (20-sentence recount)
    chain_a = MarkovChain(12, seed=5)
    chain_b = MarkovChain(12, seed=9)
    sents_a = chain_a.sentences(random.Random(1), 10)
    sents_b = chain_b.sentences(random.Random(2), 10)
    vocab = build_vocab((t for s in sents_a + sents_b for t in s), min_count=1)
    cfg = parse_config(FIVE_GRAM_CONFIG)

    tagged = accumulate(
        extract_corpus_events(sents_a, vocab, cfg, tag="a")
        + extract_corpus_events(sents_b, vocab, cfg, tag="b")
    )
    pooled = accumulate(
        extract_corpus_events(sents_a + sents_b, vocab, cfg)
    )
    check_consistency(tagged)
    # per-tag rows are independent: every feature carries exactly one tag
    assert all(f.tag in ("a", "b") for f in tagged.rows)
    stripped = strip_tags(tagged)
    assert stripped.rows == pooled.rows
    assert stripped.feature_counts == pooled.feature_counts


# ---------------------------------------------------------------------------
# Files

def test_save_load_roundtrip(tmp_path, abc_vocab):
    a = abc_vocab.index["a"]
    b = abc_vocab.index["b"]
    c = abc_vocab.index["c"]
    fa = Feature((a,))
    store = accumulate([_ev([fa], b), _ev([fa], b), _ev([fa], c)])
    path = tmp_path / "counts.tsv"
    store.save(path, abc_vocab)
    loaded = CountStore.load(path, abc_vocab)
    assert loaded.rows == store.rows
    assert loaded.feature_counts == store.feature_counts
    assert loaded.total_events == store.total_events
    again = tmp_path / "counts2.tsv"
    loaded.save(again, abc_vocab)
    assert path.read_bytes() == again.read_bytes()


def test_count_file_format(tmp_path, abc_vocab):
    a = abc_vocab.index["a"]
    b = abc_vocab.index["b"]
    fa = Feature((a,))
    store = accumulate([_ev([fa], b), _ev([fa], b)])
    path = tmp_path / "counts.tsv"
    store.save(path, abc_vocab)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == COUNTS_HEADER
    assert lines[1] == "#total-events 2"
    assert lines[2] == "[a]\tb\t2"


def test_count_file_golden_bytes(tmp_path, abc_vocab):
    a, b, c = (abc_vocab.index[t] for t in "abc")
    # Rows and links out of file order, tagged and untagged, n-gram and skip.
    store = CountStore.from_rows({
        Feature((a,), tag="web"): {c: 12, b: 3},
        Feature(()): {a: 7, 1: 2},
        Feature((0, a)): {b: 1},
        Feature((a, b), skip_pos=1, tag="web"): {c: 1000},
        Feature((b, a), skip_pos=1, skip_len=2): {c: 5},
    }, 1234)
    path = tmp_path / "counts.tsv"
    store.save(path, abc_vocab)
    assert path.read_bytes() == (
        b"#snm-counts v1\n"
        b"#total-events 1234\n"
        b"[<S> a]\tb\t1\n"
        b"[]\t</S>\t2\n"
        b"[]\ta\t7\n"
        b"[b skip-2 a]\tc\t5\n"
        b"web:[a skip-* b]\tc\t1000\n"
        b"web:[a]\tb\t3\n"
        b"web:[a]\tc\t12\n"
    )
    loaded = CountStore.load(path, abc_vocab)
    assert loaded.rows == store.rows
    again = tmp_path / "again.tsv"
    loaded.save(again, abc_vocab)
    assert again.read_bytes() == path.read_bytes()


def test_load_rejects_bad_header(tmp_path, abc_vocab):
    path = tmp_path / "bad.tsv"
    path.write_text("nonsense\n", encoding="utf-8")
    with pytest.raises(DataError, match="header"):
        CountStore.load(path, abc_vocab)


def test_load_rejects_malformed_line(tmp_path, abc_vocab):
    path = tmp_path / "bad.tsv"
    path.write_text(f"{COUNTS_HEADER}\n#total-events 1\n[a]\tb\n", encoding="utf-8")
    with pytest.raises(DataError, match="3 tab-separated"):
        CountStore.load(path, abc_vocab)


def test_load_with_verify_rejects_unsorted(tmp_path, abc_vocab):
    path = tmp_path / "unsorted.tsv"
    path.write_text(
        f"{COUNTS_HEADER}\n#total-events 2\n[b]\ta\t1\n[a]\tb\t1\n", encoding="utf-8"
    )
    with pytest.raises(DataError, match="out of order"):
        CountStore.load(path, abc_vocab)


_SKIP_CONFIG = """
ngram_extractor { min_n: 0 max_n: 2 }
skip_ngram_extractor {
  max_context_words: 3
  min_remote_words: 1
  max_remote_words: 1
  min_skip_length: 1
  max_skip_length: 3
  tie_skip_length: false
}
"""


@pytest.fixture(scope="module")
def tagged_count_file(tmp_path_factory):
    """A count file of n-gram and skip features under two corpus tags."""
    chain = MarkovChain(8, seed=11)
    sents = chain.sentences(random.Random(12), 40)
    vocab = build_vocab((t for s in sents for t in s), min_count=1)
    cfg = parse_config(_SKIP_CONFIG)
    events = extract_corpus_events(sents[:25], vocab, cfg, "a")
    events += extract_corpus_events(sents[25:], vocab, cfg, "b")
    path = tmp_path_factory.mktemp("counts") / "tagged.tsv"
    accumulate(events).save(path, vocab)
    return path, vocab, CountStore.load(path, vocab)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_load_with_keep_equals_intersect(tagged_count_file, data):
    path, vocab, full = tagged_count_file
    features = list(full.rows)
    keep = data.draw(st.lists(st.sampled_from(features), max_size=len(features)))
    # Features the file does not hold keep nothing.
    keep += data.draw(st.lists(st.builds(
        Feature, st.tuples(st.integers(3, len(vocab) - 1)), tag=st.sampled_from(["a", "c", None])
    ), max_size=3))
    loaded = CountStore.load(path, vocab, keep=keep)
    expected = full.intersect(keep)
    assert list(loaded.rows.items()) == list(expected.rows.items())
    assert list(loaded.feature_counts.items()) == list(expected.feature_counts.items())
    assert loaded.total_events == expected.total_events == full.total_events
    # Every feature of the file is counted, kept or not.
    assert loaded.file_features == full.file_features
    assert sum(full.file_features.values()) == len(full)
    assert set(full.file_features) == {"a", "b"}


def test_merge_files_equals_single_pass(tmp_path):
    chain = MarkovChain(10, seed=3)
    sents = chain.sentences(random.Random(4), 30)
    vocab = build_vocab((t for s in sents for t in s), min_count=1)
    cfg = parse_config(FIVE_GRAM_CONFIG)

    shard1 = accumulate(extract_corpus_events(sents[:17], vocab, cfg))
    shard2 = accumulate(extract_corpus_events(sents[17:], vocab, cfg))
    single = accumulate(extract_corpus_events(sents, vocab, cfg))

    p1, p2, pm, ps = (tmp_path / n for n in ("s1.tsv", "s2.tsv", "merged.tsv", "single.tsv"))
    shard1.save(p1, vocab)
    shard2.save(p2, vocab)
    merge_files([p1, p2], pm)
    single.save(ps, vocab)
    assert pm.read_bytes() == ps.read_bytes()


def test_merge_files_rejects_unsorted_input(tmp_path):
    # Unchecked, this input merged to [a] b 1, [b] c 1, [a] b 5: one link
    # split across two lines of an out-of-order file.
    p1, p2, out = tmp_path / "s1.tsv", tmp_path / "s2.tsv", tmp_path / "merged.tsv"
    p1.write_text(
        f"{COUNTS_HEADER}\n#total-events 6\n[b]\tc\t1\n[a]\tb\t5\n", encoding="utf-8"
    )
    p2.write_text(f"{COUNTS_HEADER}\n#total-events 1\n[a]\tb\t1\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{p1}:4: rows out of order")):
        merge_files([p1, p2], out)
    # The rows merged before the bad one are not left behind, not even in a
    # temporary file.
    assert sorted(tmp_path.iterdir()) == [p1, p2]

    # An earlier output keeps its bytes.
    previous = f"{COUNTS_HEADER}\n#total-events 1\n[a]\tb\t1\n".encode()
    out.write_bytes(previous)
    with pytest.raises(DataError, match="rows out of order"):
        merge_files([p1, p2], out)
    assert out.read_bytes() == previous
    assert sorted(tmp_path.iterdir()) == [out, p1, p2]


# A valid file, and files one reader check rejects, with the line it names.
# The valid file's last row sorts after every bad row, so a merge is still
# reading it when the bad file is rejected.
_GOOD = f"{COUNTS_HEADER}\n#total-events 3\n[a]\tb\t2\n[c]\td\t1\n"
_BAD_FILES = {
    "header": ("not a count file\n", None),
    "non-integer total": (f"{COUNTS_HEADER}\n#total-events x7\n[a]\tb\t1\n", 2),
    "negative total": (f"{COUNTS_HEADER}\n#total-events -4\n[a]\tb\t1\n", 2),
    "underscore total": (f"{COUNTS_HEADER}\n#total-events 1_0\n[a]\tb\t1\n", 2),
    "non-ASCII total": (f"{COUNTS_HEADER}\n#total-events \u0663\n[a]\tb\t1\n", 2),
    "signed total": (f"{COUNTS_HEADER}\n#total-events +3\n[a]\tb\t1\n", 2),
    "total after the first row": (f"{COUNTS_HEADER}\n[a]\tb\t1\n#total-events 9\n", 2),
    "second total": (f"{COUNTS_HEADER}\n#total-events 1\n#total-events 1\n[a]\tb\t1\n", 3),
    "row order": (f"{COUNTS_HEADER}\n#total-events 2\n[b]\tc\t1\n[a]\tb\t1\n", 4),
    "unknown directive": (f"{COUNTS_HEADER}\n#total-events 3\n#anything at all\n[a]\tb\t1\n", 3),
    "misspelt total": (f"{COUNTS_HEADER}\n#total-event 3\n[a]\tb\t1\n", 2),
    "directive after rows": (f"{COUNTS_HEADER}\n#total-events 1\n[a]\tb\t1\n#snm-counts v1\n", 4),
    "no directive line": (f"{COUNTS_HEADER}\n", 2),
    "directive with three fields": (f"{COUNTS_HEADER}\n#total-events 1\n#x\ta\t1\n", 3),
    "blank line": (f"{COUNTS_HEADER}\n#total-events 2\n[a]\tb\t1\n\n[a]\tc\t1\n", 4),
    "total past int64": (f"{COUNTS_HEADER}\n#total-events 9223372036854775808\n[a]\tb\t1\n", 2),
    "row sum past the total": (f"{COUNTS_HEADER}\n#total-events 2\n[a]\tb\t1\n[a]\tc\t2\n", 4),
    "word order": (f"{COUNTS_HEADER}\n#total-events 2\n[a]\tc\t1\n[a]\tb\t1\n", 4),
    "repeated link": (f"{COUNTS_HEADER}\n#total-events 2\n[a]\tb\t1\n[a]\tb\t1\n", 4),
    "four fields, then two": (f"{COUNTS_HEADER}\n#total-events 2\n[a]\tb\t1\t1\n[a]\tc\n", 3),
    "two fields, then four": (f"{COUNTS_HEADER}\n#total-events 2\n[a]\tb\n[a]\tc\t1\t1\n", 3),
}


def _where(path, line) -> str:
    return re.escape(f"{path}:{line}:" if line else f"{path}: not a count file")


@pytest.mark.parametrize("case", sorted(_BAD_FILES))
def test_load_and_merge_reject_the_same_files(tmp_path, abc_vocab, case):
    # CountStore.load and merge_files read count files through one reader,
    # so they reject a file at the same line.
    content, line = _BAD_FILES[case]
    good, bad, out = tmp_path / "good.tsv", tmp_path / "bad.tsv", tmp_path / "out.tsv"
    good.write_text(_GOOD, encoding="utf-8")
    bad.write_text(content, encoding="utf-8")
    with pytest.raises(DataError, match=_where(bad, line)):
        CountStore.load(bad, abc_vocab)
    with pytest.raises(DataError, match=_where(bad, line)):
        merge_files([good, bad], out)
    assert not out.exists()


@pytest.mark.parametrize("case", ["header", "non-integer total", "row order"])
def test_merge_files_closes_every_input_it_opened(tmp_path, monkeypatch, case):
    handles = []

    def recording_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        handles.append(fh)
        return fh

    monkeypatch.setattr(snmlm.files, "open", recording_open, raising=False)
    good, bad, out = tmp_path / "good.tsv", tmp_path / "bad.tsv", tmp_path / "out.tsv"
    good.write_text(_GOOD, encoding="utf-8")
    bad.write_text(_BAD_FILES[case][0], encoding="utf-8")
    with pytest.raises(DataError) as rejected:
        merge_files([good, bad], out)
    # `rejected` keeps merge_files' frame alive, so the handles must have been
    # closed by merge_files itself, not by the collection of its generators.
    assert rejected.traceback
    assert {fh.name for fh in handles} >= {str(good), str(bad)}
    assert all(fh.closed for fh in handles)


_INT64_MAX = (1 << 63) - 1


# The largest total that merges with `_GOOD`'s; it bounds every row.
_BIG_TOTAL = _INT64_MAX - 3
_PAST_TOTAL = f"is more than the event total {_BIG_TOTAL}"


@pytest.mark.parametrize("rows, line, message", [
    ([(_INT64_MAX + 1, "b")], 3, f"count {_INT64_MAX + 1} {_PAST_TOTAL}"),
    ([(1, "a"), (_INT64_MAX + 1, "b")], 4, f"count {_INT64_MAX + 1} {_PAST_TOTAL}"),
    ([(_BIG_TOTAL, "b"), (1, "c")], 4, f"row sum of [a] {_PAST_TOTAL}"),
], ids=["count", "count in a row", "row sum"])
def test_load_and_merge_reject_counts_past_int64(tmp_path, abc_vocab, rows, line, message):
    good, bad, out = tmp_path / "good.tsv", tmp_path / "bad.tsv", tmp_path / "out.tsv"
    good.write_text(_GOOD, encoding="utf-8")
    body = "".join(f"[a]\t{w}\t{c}\n" for c, w in rows)
    bad.write_text(f"{COUNTS_HEADER}\n#total-events {_BIG_TOTAL}\n{body}", encoding="utf-8")
    for read in (lambda: CountStore.load(bad, abc_vocab), lambda: merge_files([good, bad], out)):
        with pytest.raises(DataError, match=_where(bad, line) + " " + re.escape(message)):
            read()
    assert not out.exists()


_HALF = 5_000_000_000_000_000_000  # two of these pass 2^63-1


@pytest.mark.parametrize("files, message", [
    ([["[]\ta\t" + str(_HALF)], ["[]\ta\t" + str(_HALF)]],
     "#total-events is more than 2^63-1"),
    ([["[a]\tb\t" + str(_HALF)], ["[a]\tb\t" + str(_HALF)]],
     "#total-events is more than 2^63-1"),
    ([["[a]\tb\t" + str(_HALF)], ["[a]\tc\t" + str(_HALF)]],
     "#total-events is more than 2^63-1"),
], ids=["total", "link count", "row sum"])
def test_merge_rejects_sums_past_int64(tmp_path, abc_vocab, files, message):
    # Each input's total bounds its rows, so a merged count or row sum past
    # 2^63-1 comes with a merged total past it, which the merge rejects.
    paths = [tmp_path / f"part{i}.tsv" for i in range(len(files))]
    for path, rows in zip(paths, files):
        path.write_text(f"{COUNTS_HEADER}\n#total-events {_HALF}\n" + "\n".join(rows) + "\n",
                        encoding="utf-8")
        CountStore.load(path, abc_vocab)  # each input alone is readable
    out = tmp_path / "merged.tsv"
    names = ", ".join(map(str, paths))
    with pytest.raises(DataError, match=f"^{re.escape(f'merging {names}: {message}')}$"):
        merge_files(paths, out)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["part0.tsv", "part1.tsv"]


def test_merge_keeps_sums_up_to_int64_max(tmp_path, abc_vocab):
    a, b, out = tmp_path / "a.tsv", tmp_path / "b.tsv", tmp_path / "out.tsv"
    a.write_text(f"{COUNTS_HEADER}\n#total-events {_INT64_MAX - 2}\n[a]\tb\t{_INT64_MAX - 2}\n",
                 encoding="utf-8")
    b.write_text(f"{COUNTS_HEADER}\n#total-events 2\n[a]\tb\t1\n[a]\tc\t1\n", encoding="utf-8")
    merge_files([a, b], out)
    store = CountStore.load(out, abc_vocab)
    assert store.total_events == _INT64_MAX
    assert store.feature_counts[Feature((abc_vocab.index["a"],))] == _INT64_MAX


def test_a_row_summing_to_int64_max_trains(tmp_path, abc_vocab):
    path = tmp_path / "max.tsv"
    path.write_text(
        f"{COUNTS_HEADER}\n#total-events {_INT64_MAX}\n[]\ta\t1\n[a]\tb\t{_INT64_MAX - 1}\n"
        "[a]\tc\t1\n",
        encoding="utf-8",
    )
    store = CountStore.load(path, abc_vocab)
    assert store.feature_counts[Feature((abc_vocab.index["a"],))] == _INT64_MAX
    model = build_model(store, AdjustmentModel(64), abc_vocab)
    assert sum(model.normalizers.values()) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# The block reader against the per-line reader it replaced

def _store_items(store):
    if isinstance(store, str):
        return store
    return (list(store.rows.items()), list(store.feature_counts.items()),
            list(store.file_features.items()), store.total_events)


# Words that start like a skip marker: only `skip-3` reads as one.
_ODD_WORDS = ["a", "b", "c", "skip-x", "skip-", "skip-07", "skip-3"]


@st.composite
def _features(draw, vocab):
    """Features over `vocab`, and the string of each one whose string parses, mapped to it."""
    n_words = len(vocab)
    features, names = [], {}
    for _ in range(draw(st.integers(1, 8))):
        words = tuple(draw(st.lists(st.integers(0, n_words - 1), max_size=3)))
        skip_pos = draw(st.none() | st.integers(0, len(words) - 1)) if words else None
        skip_len = draw(st.none() | st.integers(1, 70)) if skip_pos is not None else None
        f = Feature(words, skip_pos, skip_len, draw(st.sampled_from([None, "a", "web"])))
        features.append(f)
        name = render_feature(f, vocab)
        try:
            parse_feature_oracle(name, vocab)
        except DataError:  # a vocabulary word read as a second or last marker
            continue
        names[name] = f
    return features, names


@st.composite
def _count_files(draw, vocab):
    """Valid count-file rows, features some of them name, and the rows split into two shards.

    Rows are (feature string, word, count, zero padding of the count).
    """
    n_words = len(vocab)
    features, names = draw(_features(vocab))
    rows, shards = [], ([], [])
    for name in names:
        targets = draw(st.lists(st.integers(0, n_words - 1), min_size=1, max_size=3, unique=True))
        for w in sorted(vocab.words[t] for t in targets):
            c = draw(st.integers(1, 5))
            rows.append((name, w, c, draw(st.sampled_from([0, 0, 0, 2]))))
            split = draw(st.integers(0, c))  # 0 or c: the link is in one shard only
            for shard, part in zip(shards, (split, c - split)):
                if part:
                    shard.append((name, w, part, draw(st.sampled_from([0, 0, 0, 1]))))
    return rows, shards, features


def _write_counts(path, rows, extra=0):
    sums = {}
    for name, _, c, _ in rows:
        sums[name] = sums.get(name, 0) + c
    body = "".join(f"{f}\t{w}\t{'0' * pad}{c}\n" for f, w, c, pad in sorted(rows))
    path.write_text(f"{COUNTS_HEADER}\n#total-events {max(sums.values(), default=0) + extra}\n"
                    + body, encoding="utf-8")


@pytest.fixture(scope="module")
def odd_vocab():
    return build_vocab(_ODD_WORDS, min_count=1)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_block_reader_equals_the_line_reader(tmp_path_factory, odd_vocab, data):
    rows, shards, features = data.draw(_count_files(odd_vocab))
    keep = data.draw(st.lists(st.sampled_from(features), max_size=len(features)))
    wd = tmp_path_factory.mktemp("blocks")
    whole, one, two = wd / "whole.tsv", wd / "one.tsv", wd / "two.tsv"
    _write_counts(whole, rows, extra=data.draw(st.integers(0, 2)))
    _write_counts(one, shards[0])
    _write_counts(two, shards[1])
    expected = [_store_items(outcome(lambda: oracle_load_counts(whole, odd_vocab, k)))
                for k in (None, keep)]
    oracle_merge_counts([one, two], wd / "oracle.tsv")
    for block_lines in (1, 2, 3, snmlm.counts._BLOCK_LINES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(snmlm.counts, "_BLOCK_LINES", block_lines)
            for k, want in zip((None, keep), expected):
                assert _store_items(outcome(lambda: CountStore.load(whole, odd_vocab, k))) == want
            merge_files([one, two], wd / "merged.tsv")
        assert (wd / "merged.tsv").read_bytes() == (wd / "oracle.tsv").read_bytes()


def _assert_store_invariants(store: CountStore) -> None:
    """Rows are non-empty, words ascend within a row, row sums are exact, views equal arrays."""
    offsets, words, counts = store.offsets, store.words, store.counts
    assert (offsets.dtype, words.dtype, counts.dtype) == (np.int64, np.int32, np.int64)
    lens = np.diff(offsets)
    assert offsets[0] == 0 and offsets[-1] == len(words) == len(counts)
    assert len(store.features) == len(lens) == len(set(store.features))
    assert (lens > 0).all() and (counts > 0).all()
    row = np.repeat(np.arange(len(lens)), lens)
    same = row[1:] == row[:-1]
    assert (words[1:][same] > words[:-1][same]).all()
    assert store.row_sums.tolist() == np.add.reduceat(counts, offsets[:-1]).tolist()
    assert list(store.feature_counts.items()) == list(zip(store.features,
                                                          store.row_sums.tolist()))
    assert list(store.rows) == store.features
    for f, lo, hi in zip(store.features, offsets.tolist(), offsets[1:].tolist()):
        assert list(store.rows[f].items()) == list(zip(words[lo:hi].tolist(),
                                                       counts[lo:hi].tolist()))


def _same_arrays(store: CountStore, other: CountStore) -> bool:
    return (store.features == other.features and store.total_events == other.total_events
            and all(np.array_equal(getattr(store, a), getattr(other, a))
                    for a in ("offsets", "words", "counts", "row_sums")))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_store_keeps_the_array_invariants(tmp_path_factory, odd_vocab, data):
    _, names = data.draw(_features(odd_vocab))
    pool = list(dict.fromkeys([Feature(()), *(f for name, f in names.items()
                                              if parse_feature_oracle(name, odd_vocab) == f)]))
    # The empty row links </S> and <S>, whose ids and strings sort apart.
    events = [Event((Feature(()),), E_ID), Event((Feature(()),), S_ID)]
    events += data.draw(st.lists(st.builds(
        Event, st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True).map(tuple),
        st.integers(0, len(odd_vocab) - 1)), max_size=12))
    keep = data.draw(st.lists(st.sampled_from(pool), max_size=len(pool)))
    counted = accumulate(events)
    # Words out of id order within each row: descending.
    rows = {f: dict(sorted(row.items(), reverse=True)) for f, row in counted.rows.items()}
    built = CountStore.from_rows(rows, len(events))
    added = CountStore.from_rows({}, 0)
    for e in events:
        added.add_event(e)
    assert _same_arrays(built, counted) and _same_arrays(added, counted)
    stores = [counted, built, added, counted.intersect(keep)]
    path = tmp_path_factory.mktemp("invariants") / "counts.tsv"
    counted.save(path, odd_vocab)
    for block_lines in (1, 2, 3, snmlm.counts._BLOCK_LINES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(snmlm.counts, "_BLOCK_LINES", block_lines)
            whole, kept = CountStore.load(path, odd_vocab), CountStore.load(path, odd_vocab, keep)
        assert whole.rows == counted.rows and _same_arrays(kept, whole.intersect(keep))
        stores += [whole, kept]
    for store in stores:
        _assert_store_invariants(store)


@pytest.mark.parametrize("block_lines", [1, 2])
@pytest.mark.parametrize("case", sorted(_BAD_FILES))
def test_bad_files_are_named_alike_after_a_block_boundary(tmp_path, abc_vocab, monkeypatch,
                                                          case, block_lines):
    # The line each case names comes after a block boundary when it is a row.
    monkeypatch.setattr(snmlm.counts, "_BLOCK_LINES", block_lines)
    good, bad, out = tmp_path / "good.tsv", tmp_path / "bad.tsv", tmp_path / "out.tsv"
    good.write_text(_GOOD, encoding="utf-8")
    bad.write_text(_BAD_FILES[case][0], encoding="utf-8")
    expected = outcome(lambda: oracle_load_counts(bad, abc_vocab))
    assert expected.startswith(f"DataError: {bad}")
    assert outcome(lambda: CountStore.load(bad, abc_vocab)) == expected
    assert outcome(lambda: CountStore.load(bad, abc_vocab, keep=())) == expected
    assert outcome(lambda: merge_files([good, bad], out)) == expected
    assert outcome(lambda: oracle_merge_counts([good, bad], out)) == expected
    assert not out.exists()


@pytest.mark.parametrize("block_lines", [1, 2])
@pytest.mark.parametrize("rows", [
    [(_INT64_MAX + 1, "b")],
    [(1, "a"), (_INT64_MAX + 1, "b")],
    [(_BIG_TOTAL, "b"), (1, "c")],
    [(1, "a"), (_BIG_TOTAL, "b"), (_BIG_TOTAL, "c")],
], ids=["count", "count in a row", "row sum", "row sum past 2^64"])
def test_counts_past_int64_are_named_alike_after_a_block_boundary(tmp_path, abc_vocab,
                                                                  monkeypatch, rows, block_lines):
    monkeypatch.setattr(snmlm.counts, "_BLOCK_LINES", block_lines)
    good, bad, out = tmp_path / "good.tsv", tmp_path / "bad.tsv", tmp_path / "out.tsv"
    good.write_text(_GOOD, encoding="utf-8")
    body = "".join(f"[a]\t{w}\t{c}\n" for c, w in rows)
    bad.write_text(f"{COUNTS_HEADER}\n#total-events {_BIG_TOTAL}\n{body}", encoding="utf-8")
    expected = outcome(lambda: oracle_load_counts(bad, abc_vocab))
    assert expected.startswith(f"DataError: {bad}:")
    assert outcome(lambda: CountStore.load(bad, abc_vocab)) == expected
    assert outcome(lambda: merge_files([good, bad], out)) == expected
    assert not out.exists()


@pytest.mark.parametrize("block_lines", [1, 2048])
def test_a_row_sum_past_2_64_is_rejected_not_wrapped(tmp_path, abc_vocab, monkeypatch,
                                                     block_lines):
    # 2 * (2^63 - 4) wraps to -8 in int64 and to 2^64 - 8 in uint64.
    monkeypatch.setattr(snmlm.counts, "_BLOCK_LINES", block_lines)
    good, bad, out = tmp_path / "good.tsv", tmp_path / "bad.tsv", tmp_path / "out.tsv"
    good.write_text(_GOOD, encoding="utf-8")
    big = _INT64_MAX - 3
    bad.write_text(f"{COUNTS_HEADER}\n#total-events {big}\n[a]\tb\t{big}\n[a]\tc\t{big}\n",
                   encoding="utf-8")
    message = f"{bad}:4: row sum of [a] is more than the event total {big}"
    for read in (lambda: CountStore.load(bad, abc_vocab), lambda: merge_files([good, bad], out)):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            read()
    assert not out.exists()


def test_merge_rejects_a_directive_line_between_rows(tmp_path):
    # The row before it sorts below "#", so only the directive check names it.
    bad, out = tmp_path / "bad.tsv", tmp_path / "out.tsv"
    bad.write_text(f"{COUNTS_HEADER}\n#total-events 2\n!:[a]\tb\t1\n#x\tc\t1\n",
                   encoding="utf-8")
    expected = f"DataError: {bad}:4: unknown directive '#x\\tc\\t1'"
    assert outcome(lambda: oracle_merge_counts([bad], out)) == expected
    assert outcome(lambda: merge_files([bad], out)) == expected
    assert not out.exists()
