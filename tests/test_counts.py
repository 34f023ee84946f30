import contextlib
import hashlib
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import snmlm.counts
import snmlm.files

from snmlm.adjustment import AdjustmentModel
from snmlm.corpus import E_ID, S_ID, build_vocab, map_tokens
from snmlm.counts import COUNT_FILE, COUNTS_HEADER, CountStore, accumulate, merge_files
from snmlm.errors import DataError
from snmlm.extraction import Event, Feature, extract_events, parse_config, render_feature
from snmlm.model import MODEL_FILE, SnmModel, save_model

from snm_testutil import (
    FIVE_GRAM_CONFIG,
    MarkovChain,
    build_model,
    check_consistency,
    extract_corpus_events,
    oracle_load_counts,
    oracle_merge_counts,
    oracle_pick,
    oracle_save_rows,
    outcome,
    seal,
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


def test_intersect_of_every_row_shares_the_layout(abc_vocab):
    # Keeping every row copies nothing: the new store holds the same rows and
    # counts, so each `Rows` array is built once.
    fa, fe = Feature((abc_vocab.index["a"],)), Feature(())
    store = accumulate([_ev([fa, fe], 4), _ev([fe], 5)])
    row = store.layout.row
    for keep in (store.layout.features, [fe, Feature((5,)), fa]):
        sub = store.intersect(keep)
        assert sub is not store and sub.total_events == store.total_events
        assert sub.layout is store.layout and sub.counts is store.counts
        assert sub.layout.row is row and sub.rows == store.rows


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
    rows = (
        b"#snm-counts v2\n"
        b"#total-events 1234\n"
        b"[<S> a]\tb\t1\n"
        b"[]\t</S>\t2\n"
        b"[]\ta\t7\n"
        b"[b skip-2 a]\tc\t5\n"
        b"web:[a skip-* b]\tc\t1000\n"
        b"web:[a]\tb\t3\n"
        b"web:[a]\tc\t12\n"
    )
    # The trailer: rows, features per tag (untagged first, as the rows
    # come), the SHA-256 of the vocabulary file, and that of all before it.
    vocab_sha = "f3e84989aa3270122823c711427c1dec340f8114a135bb79c2230223e3b21972"
    assert hashlib.sha256(b"<S>\n</S>\n<UNK>\na\nb\nc\n").hexdigest() == vocab_sha
    sealed = rows + (b"#rows 7\n#features 3\n#features web 2\n"
                     b"#vocab-sha256 " + vocab_sha.encode() + b"\n")
    assert path.read_bytes() == sealed + (
        b"#sha256 714e3587a1bf62da3103551c97bb215694c1cbafb62a0dc539b9c05e18b5bef4\n")
    assert hashlib.sha256(sealed).hexdigest() == "714e3587a1bf62da3103551c97bb2156" \
                                                 "94c1cbafb62a0dc539b9c05e18b5bef4"
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
    names = []
    for f in keep:
        with contextlib.suppress(OverflowError):  # a skip position past any list: no string
            names.append(render_feature(f, vocab))
    loaded = CountStore.load(path, vocab, keep=names)
    # A drawn feature that no extraction gives, a skip length with no skip,
    # renders as the string of a row without one, and so keeps that row.
    expected = full.intersect(f for f in full.layout.features if render_feature(f, vocab) in names)
    assert list(loaded.rows.items()) == list(expected.rows.items())
    assert list(loaded.feature_counts.items()) == list(expected.feature_counts.items())
    assert loaded.total_events == expected.total_events == full.total_events
    # Rows kept by name keep their strings, through `intersect` too.
    assert full.layout.names is None and expected.layout.names is None
    assert loaded.layout.names == [render_feature(f, vocab) for f in loaded.layout.features]
    sub = loaded.intersect(loaded.layout.features[::2])
    assert sub.layout.names == [render_feature(f, vocab) for f in sub.layout.features]
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
    p2.write_text(seal(f"{COUNTS_HEADER}\n#total-events 1\n[a]\tb\t1\n", _ABCD),
                  encoding="utf-8")
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
# reading it when the bad file is rejected. Bad files have no trailer: the
# bad line is named first.
_ABCD = build_vocab(["a", "b", "c", "d"])
_GOOD = seal(f"{COUNTS_HEADER}\n#total-events 3\n[a]\tb\t2\n[c]\td\t1\n", _ABCD)
_BAD_FILES = {
    "header": ("not a count file\n", 1),
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
    return re.escape(f"{path}:{line}:")


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
        path.write_text(seal(f"{COUNTS_HEADER}\n#total-events {_HALF}\n" + "\n".join(rows) + "\n",
                             abc_vocab), encoding="utf-8")
        CountStore.load(path, abc_vocab)  # each input alone is readable
    out = tmp_path / "merged.tsv"
    names = ", ".join(map(str, paths))
    with pytest.raises(DataError, match=f"^{re.escape(f'merging {names}: {message}')}$"):
        merge_files(paths, out)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["part0.tsv", "part1.tsv"]


def test_merge_keeps_sums_up_to_int64_max(tmp_path, abc_vocab):
    a, b, out = tmp_path / "a.tsv", tmp_path / "b.tsv", tmp_path / "out.tsv"
    a.write_text(seal(f"{COUNTS_HEADER}\n#total-events {_INT64_MAX - 2}\n"
                      f"[a]\tb\t{_INT64_MAX - 2}\n", abc_vocab), encoding="utf-8")
    b.write_text(seal(f"{COUNTS_HEADER}\n#total-events 2\n[a]\tb\t1\n[a]\tc\t1\n", abc_vocab),
                 encoding="utf-8")
    merge_files([a, b], out)
    store = CountStore.load(out, abc_vocab)
    assert store.total_events == _INT64_MAX
    assert store.feature_counts[Feature((abc_vocab.index["a"],))] == _INT64_MAX


def test_a_row_summing_to_int64_max_trains(tmp_path, abc_vocab):
    path = tmp_path / "max.tsv"
    path.write_text(seal(
        f"{COUNTS_HEADER}\n#total-events {_INT64_MAX}\n[]\ta\t1\n[a]\tb\t{_INT64_MAX - 1}\n"
        "[a]\tc\t1\n", abc_vocab),
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


# Words that start like a skip marker and are none: a vocabulary holds no marker.
_ODD_WORDS = ["a", "b", "c", "skip-x", "skip-", "skip-07",
              # A "]" and a character below the tab: `[a]\x01]` sorts before `[a]` as a line.
              "a]\x01", "b]"]


@st.composite
def _features(draw, vocab):
    """Features over `vocab`, and the string of each one mapped to it."""
    n_words = len(vocab)
    features, names = [], {}
    for _ in range(draw(st.integers(1, 8))):
        words = tuple(draw(st.lists(st.integers(0, n_words - 1), max_size=3)))
        skip_pos = draw(st.none() | st.integers(0, len(words) - 1)) if words else None
        skip_len = draw(st.none() | st.integers(1, 70)) if skip_pos is not None else None
        f = Feature(words, skip_pos, skip_len, draw(st.sampled_from([None, "a", "web"])))
        features.append(f)
        names[render_feature(f, vocab)] = f
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


def _write_counts(path, rows, vocab, extra=0):
    sums = {}
    for name, _, c, _ in rows:
        sums[name] = sums.get(name, 0) + c
    body = "".join(f"{f}\t{w}\t{'0' * pad}{c}\n" for f, w, c, pad in sorted(rows))
    path.write_text(seal(f"{COUNTS_HEADER}\n#total-events "
                         f"{max(sums.values(), default=0) + extra}\n" + body, vocab),
                    encoding="utf-8")


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
    _write_counts(whole, rows, odd_vocab, extra=data.draw(st.integers(0, 2)))
    _write_counts(one, shards[0], odd_vocab)
    _write_counts(two, shards[1], odd_vocab)
    expected = [_store_items(outcome(lambda: oracle_load_counts(whole, odd_vocab, k)))
                for k in (None, keep)]
    oracle_merge_counts([one, two], wd / "oracle.tsv")
    for block_lines in (1, 2, 3, snmlm.counts._BLOCK_LINES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(snmlm.counts, "_BLOCK_LINES", block_lines)
            for k, want in zip((None, keep), expected):
                names = None if k is None else [render_feature(f, odd_vocab) for f in k]
                got = outcome(lambda: CountStore.load(whole, odd_vocab, names))
                assert _store_items(got) == want
            merge_files([one, two], wd / "merged.tsv")
        assert (wd / "merged.tsv").read_bytes() == (wd / "oracle.tsv").read_bytes()


def _assert_store_invariants(store: CountStore) -> None:
    """Rows are non-empty, words ascend within a row, row sums are exact, views equal arrays."""
    features, offsets, words, counts = (store.layout.features, store.layout.offsets,
                                        store.layout.words, store.counts)
    assert (offsets.dtype, words.dtype, counts.dtype) == (np.int64, np.int32, np.int64)
    lens = np.diff(offsets)
    assert offsets[0] == 0 and offsets[-1] == len(words) == len(counts)
    assert len(features) == len(lens) == len(set(features))
    assert (lens > 0).all() and (counts > 0).all()
    row = np.repeat(np.arange(len(lens)), lens)
    same = row[1:] == row[:-1]
    assert (words[1:][same] > words[:-1][same]).all()
    assert store.row_sums.tolist() == np.add.reduceat(counts, offsets[:-1]).tolist()
    assert list(store.feature_counts.items()) == list(zip(features, store.row_sums.tolist()))
    assert list(store.rows) == features
    for f, lo, hi in zip(features, offsets.tolist(), offsets[1:].tolist()):
        assert list(store.rows[f].items()) == list(zip(words[lo:hi].tolist(),
                                                       counts[lo:hi].tolist()))


def _same_arrays(store: CountStore, other: CountStore) -> bool:
    return (store.layout.features == other.layout.features
            and store.total_events == other.total_events
            and all(np.array_equal(getattr(store.layout, a), getattr(other.layout, a))
                    for a in ("offsets", "words"))
            and all(np.array_equal(getattr(store, a), getattr(other, a))
                    for a in ("counts", "row_sums")))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_store_keeps_the_array_invariants(tmp_path_factory, odd_vocab, data):
    _, names = data.draw(_features(odd_vocab))
    pool = list(dict.fromkeys([Feature(()), *names.values()]))
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
            whole = CountStore.load(path, odd_vocab)
            kept = CountStore.load(path, odd_vocab, [render_feature(f, odd_vocab) for f in keep])
        assert whole.rows == counted.rows and _same_arrays(kept, whole.intersect(keep))
        stores += [whole, kept]
    for store in stores:
        _assert_store_invariants(store)


# Strings no count file holds a row as: `save_rows` writes canonical strings.
_NOT_CANONICAL = (lambda s: s.replace("[", "[ ", 1), lambda s: s[:-1] + " ]",
                  lambda s: f" {s}", lambda s: f"{s} ")


def _near_names(rows, named, names) -> list[str]:
    """Strings near the row strings `named` that name no row of `names`.

    A row's ``feature<TAB>word``, a name and a newline or a NUL, and the
    prefixes of a name that are not names.
    """
    return [*(f"{f}\t{w}" for f, w, *_ in rows), *(s + end for s in named for end in "\n\x00"),
            *(s[:k] for s in named for k in range(len(s)) if s[:k] not in names)]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_load_keeps_exactly_the_rows_its_strings_name(tmp_path_factory, odd_vocab, data):
    # Names of rows, names of features the file lacks, and strings that are
    # not canonical: only a row's own string keeps it.
    rows, _, _ = data.draw(_count_files(odd_vocab))
    path = tmp_path_factory.mktemp("keep") / "counts.tsv"
    _write_counts(path, rows, odd_vocab, extra=data.draw(st.integers(0, 2)))
    whole = CountStore.load(path, odd_vocab)
    names = sorted({name for name, *_ in rows})
    assert len(names) == len(whole)
    named = data.draw(st.lists(st.sampled_from(names), max_size=len(names)))
    absent = [s for s in data.draw(_features(odd_vocab))[1] if s not in names]
    odd = ["[a  b]", *(variant(s) for s in named for variant in _NOT_CANONICAL),
           *_near_names(rows, named, names)]
    keep = data.draw(st.permutations(named + absent + odd))
    for block_lines in (1, 3, snmlm.counts._BLOCK_LINES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(snmlm.counts, "_BLOCK_LINES", block_lines)
            loaded = CountStore.load(path, odd_vocab, keep)
        # `whole` holds the rows in file order, which is string order.
        assert _same_arrays(loaded, whole.intersect(
            f for f, name in zip(whole.layout.features, names) if name in named))
        assert loaded.file_features == whole.file_features
        _assert_store_invariants(loaded)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_keyed_read_checks_only_the_kept_rows(tmp_path_factory, odd_vocab, data):
    # On a sealed file only the kept rows are checked, and the store is the
    # full read's restricted to them; a changed byte fails as in the full read.
    rows, _, _ = data.draw(_count_files(odd_vocab))
    wd = tmp_path_factory.mktemp("keyed")
    path, changed = wd / "counts.tsv", wd / "changed.tsv"
    _write_counts(path, rows, odd_vocab, extra=data.draw(st.integers(0, 2)))
    names = sorted({name for name, *_ in rows})
    absent = [s for s in data.draw(_features(odd_vocab))[1] if s not in names]
    keep = data.draw(st.lists(st.sampled_from(names), max_size=len(names))) + absent
    text = path.read_bytes()
    at = data.draw(st.integers(0, len(text) - 1))
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != text[at]))
    changed.write_bytes(text[:at] + bytes([byte]) + text[at + 1:])
    for block_lines in (1, 2, 3, snmlm.counts._BLOCK_LINES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(snmlm.counts, "_BLOCK_LINES", block_lines)
            whole = CountStore.load(path, odd_vocab)
            checked = []
            check = snmlm.counts._check

            def spy(lines, *args):
                checked.extend(lines)
                return check(lines, *args)

            mp.setattr(snmlm.counts, "_check", spy)
            kept = CountStore.load(path, odd_vocab, keep)
            assert {line.split("\t")[0] for line in checked} <= set(keep)
            assert len(checked) == kept.num_links
            # `whole` holds the rows in file order, which is string order.
            assert _same_arrays(kept, whole.intersect(
                f for f, name in zip(whole.layout.features, names) if name in keep))
            assert kept.layout.names == [name for name in names if name in keep]
            assert kept.file_features == whole.file_features
            full = outcome(lambda: CountStore.load(changed, odd_vocab))
            assert full.startswith(f"DataError: {changed}:")
            assert outcome(lambda: CountStore.load(changed, odd_vocab, keep)) == full


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_pick_keeps_the_rows_the_keyed_bisection_kept(odd_vocab, data):
    # Blocks of sorted rows whose features may hold a character below the
    # tab (the word "a]\x01", or a feature's string and "\x01"), and keep
    # strings near the rows' own.
    rows, _, _ = data.draw(_count_files(odd_vocab))
    below = data.draw(st.sets(st.sampled_from(sorted({f for f, *_ in rows})), max_size=3))
    rows += [(f + "\x01", "a", 1, 0) for f in below]
    lines = [f"{f}\t{w}\t{'0' * pad}{c}\n" for f, w, c, pad in sorted(rows)]
    names = sorted({name for name, *_ in rows})
    keep = (data.draw(st.lists(st.sampled_from(names), max_size=len(names)))
            + data.draw(st.lists(st.sampled_from(_near_names(rows, names, names)), max_size=20)))
    screened = snmlm.counts._screen(keep)
    for block_lines in (1, 2, 3, snmlm.counts._BLOCK_LINES):
        for lo in range(0, len(lines), block_lines):
            block = lines[lo : lo + block_lines]
            assert snmlm.counts._pick(block, screened) == oracle_pick(block, sorted(set(keep)))


def test_a_keyed_read_calls_no_key_function_per_printable_name(tmp_path, monkeypatch):
    # A timing-free guard of the keyed read: with no character below the tab
    # in the file or the keep strings, rows are bisected for with no key
    # function, and `_feature` reads only each block's two range bounds.
    vocab = build_vocab([f"w{i}" for i in range(12)], min_count=1)
    words = range(3, len(vocab))
    rows = {Feature((a, b)): {c: 1 for c in words if (a + b + c) % 3} for a in words for b in words}
    store = CountStore.from_rows(rows, 100)
    path = tmp_path / "counts.tsv"
    store.save(path, vocab)
    names = sorted(render_feature(f, vocab) for f in rows)
    keep = names[::2] + [s + "x" for s in names[1::4]]
    block_lines = 16
    monkeypatch.setattr(snmlm.counts, "_BLOCK_LINES", block_lines)
    calls = []
    feature = snmlm.counts._feature

    def spy(line):
        calls.append(line)
        return feature(line)

    monkeypatch.setattr(snmlm.counts, "_feature", spy)
    kept = CountStore.load(path, vocab, keep)
    assert kept.layout.names == names[::2]
    assert 0 < len(calls) <= 2 * -(-store.num_links // block_lines)


# Values whose strings are easy to mix up: signed zeros, subnormals, the
# largest floats, neighbours one step apart, and 0.1 + 0.2 beside 0.3.
_CELLS = [0.0, -0.0, 5e-324, float(np.nextafter(2.2250738585072014e-308, 0.0)),
          2.2250738585072014e-308, 1e308, float(np.nextafter(1e308, np.inf)),
          1.7976931348623157e308, 0.1 + 0.2, 0.3, float(np.nextafter(0.3, 1.0)), 1.0,
          float(np.nextafter(1.0, 2.0)), float(np.nextafter(1.0, 0.0))]
_COUNTS = [1, 2, 10, _INT64_MAX - 1, _INT64_MAX]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_the_row_writer_writes_what_the_per_row_writer_wrote(tmp_path_factory, odd_vocab, data):
    features = list(dict.fromkeys(data.draw(_features(odd_vocab))[0]))
    features = features[:data.draw(st.integers(0, len(features)))]  # no rows at all, too
    links = [sorted(data.draw(st.sets(st.integers(0, len(odd_vocab) - 1), min_size=1)))
             for _ in features]
    n = sum(map(len, links))
    cell = st.sampled_from(_CELLS) | st.floats()
    counts = data.draw(st.lists(st.sampled_from(_COUNTS) | st.integers(1, _INT64_MAX),
                                min_size=n, max_size=n))
    cells = data.draw(st.lists(cell, min_size=n, max_size=n))
    layout = snmlm.counts.Rows(features, np.cumsum([0, *map(len, links)]),
                               np.array([w for ws in links for w in ws], np.int32))
    store = CountStore(layout, np.array(counts, np.int64), _INT64_MAX)
    model = SnmModel(layout, np.array(cells), np.zeros(len(features)))  # normalizers go unwritten
    wd = tmp_path_factory.mktemp("writer")
    oracle_save_rows(wd / "counts.oracle", COUNT_FILE.preamble(_INT64_MAX), layout, store.counts,
                     odd_vocab)
    oracle_save_rows(wd / "model.oracle", MODEL_FILE.preamble(len(odd_vocab)), layout, model.cells,
                     odd_vocab)
    for block_lines in (1, 2, 3, snmlm.counts._BLOCK_LINES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(snmlm.counts, "_BLOCK_LINES", block_lines)
            store.save(wd / "counts.tsv", odd_vocab)
            save_model(model, wd / "model.tsv", odd_vocab)
        assert (wd / "counts.tsv").read_bytes() == (wd / "counts.oracle").read_bytes()
        assert (wd / "model.tsv").read_bytes() == (wd / "model.oracle").read_bytes()


def _sealed_pair(tmp_path, vocab):
    """A sealed count file of two features, and its lines."""
    path = tmp_path / "counts.tsv"
    path.write_text(seal(f"{COUNTS_HEADER}\n#total-events 3\n[a]\tb\t2\n[a]\tc\t1\n"
                         "[b]\ta\t1\n", vocab), encoding="utf-8")
    return path, path.read_text(encoding="utf-8").splitlines(keepends=True)


@pytest.mark.parametrize("keep", [None, ["[b]"]])
def test_a_deleted_row_a_cut_and_another_vocabulary_are_named_at_the_trailer(
        tmp_path, abc_vocab, keep):
    path, lines = _sealed_pair(tmp_path, abc_vocab)
    assert len(lines) == 9 and lines[-1].startswith("#sha256 ")
    bad = tmp_path / "bad.tsv"
    cases = {
        "deleted row": ("".join(lines[:3] + lines[4:]), 8, "changed after it was written"),
        "cut after a row": ("".join(lines[:4]), 5, "no trailer: the file ends after its rows"),
        "cut in the trailer": ("".join(lines[:7]), 8, "no trailer: the file ends before"),
        "line after the digest": ("".join(lines) + "\n", 10,
                                  "the file goes on after its #sha256 line"),
        "rows line out of place": ("".join(lines[:5] + [lines[6], lines[5]] + lines[7:]), 6,
                                   "expected a #rows line of the trailer"),
        "v1 header": ("#snm-counts v1\n" + "".join(lines[1:5]), 1,
                      "a v1 count file has no trailer; count it again"),
    }
    for content, line, message in cases.values():
        bad.write_text(content, encoding="utf-8")
        expected = f"DataError: {bad}:{line}: {message}"
        assert outcome(lambda: CountStore.load(bad, abc_vocab, keep)).startswith(expected)
        assert outcome(lambda: oracle_load_counts(bad, abc_vocab)).startswith(expected)
    # Rows the vocabulary reads, written with another one.
    other = build_vocab(["a", "b", "c", "d"])
    assert outcome(lambda: CountStore.load(path, other, keep)) == (
        f"DataError: {path}:8: written with another vocabulary")


def test_merge_rejects_a_damaged_shard_and_leaves_no_output(tmp_path, abc_vocab):
    # A shard that lost a row would merge into a file that looks whole.
    good, lines = _sealed_pair(tmp_path, abc_vocab)
    damaged, out = tmp_path / "damaged.tsv", tmp_path / "out.tsv"
    damaged.write_text("".join(lines[:3] + lines[4:]), encoding="utf-8")
    for paths in ([good, damaged], [damaged, good]):
        expected = f"DataError: {damaged}:8: changed after it was written"
        assert outcome(lambda: merge_files(paths, out)).startswith(expected)
        assert outcome(lambda: oracle_merge_counts(paths, out)).startswith(expected)
        assert sorted(tmp_path.iterdir()) == sorted([good, damaged])


def test_merge_rejects_shards_of_two_vocabularies_and_leaves_no_output(tmp_path, abc_vocab):
    one, _ = _sealed_pair(tmp_path, abc_vocab)
    two, three, out = tmp_path / "two.tsv", tmp_path / "three.tsv", tmp_path / "out.tsv"
    two.write_text(seal(f"{COUNTS_HEADER}\n#total-events 1\n[c]\ta\t1\n", _ABCD),
                   encoding="utf-8")
    three.write_text(seal(f"{COUNTS_HEADER}\n#total-events 1\n[b]\tb\t1\n", _ABCD),
                     encoding="utf-8")
    # The first input that differs from the first one is named, at its vocabulary line.
    expected = f"DataError: {two}:6: written with another vocabulary"
    assert outcome(lambda: merge_files([one, two, three], out)) == expected
    assert outcome(lambda: oracle_merge_counts([one, two, three], out)) == expected
    assert sorted(tmp_path.iterdir()) == sorted([one, two, three])
    merge_files([two, three], out)
    assert CountStore.load(out, _ABCD).total_events == 2


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
