import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from snmlm.corpus import build_vocab
from snmlm.extraction import Feature
from snmlm.metafeatures import (
    Mode, _combine, buckets, combine, explain, feature_type, fingerprint, hash_int,
)

from snm_testutil import LinkHasher, compute_metafeatures


# ---------------------------------------------------------------------------
# Buckets

def test_bucket_of_one():
    assert buckets(1) == [(0, 1.0)]


def test_bucket_of_power_of_two():
    assert buckets(8) == [(3, 1.0)]
    assert buckets(1024) == [(10, 1.0)]


def test_bucket_split_of_six():
    # evaluating the split formulas directly: the floored bucket gets
    # ceil(log2 6) - log2 6, the ceiled bucket gets log2 6 - floor(log2 6)
    ln = math.log2(6)
    expected = [(2, 3 - ln), (3, ln - 2)]
    got = buckets(6)
    assert got == expected
    assert got[0][1] == pytest.approx(0.41504, abs=1e-5)
    assert got[1][1] == pytest.approx(0.58496, abs=1e-5)
    assert got[0][1] + got[1][1] == 1.0


def test_bucket_rejects_nonpositive():
    with pytest.raises(ValueError):
        buckets(0)
    with pytest.raises(ValueError):
        buckets(-3)


@given(st.integers(min_value=1, max_value=10**9))
def test_bucket_weights_sum_to_one_and_are_positive(count):
    bs = buckets(count)
    assert sum(w for _, w in bs) == 1.0
    for _, w in bs:
        assert 0.0 < w <= 1.0


# ---------------------------------------------------------------------------
# Hashing

def test_string_fingerprint_golden():
    # frozen from the first build of the 64-bit FNV-1a implementation
    assert fingerprint("3-gram") == 0x547FD1C71E6C7E46


def test_hash_determinism():
    assert fingerprint("fox") == fingerprint("fox")
    assert hash_int(3) == hash_int(3)
    one, two = np.array([1], dtype=np.uint64), np.array([2], dtype=np.uint64)
    assert _combine(one, two)[0] == _combine(one, two)[0]
    assert _combine(one, two)[0] != _combine(two, one)[0]


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
def test_vectorized_conjunction_equals_scalar_formula(h1, h2):
    a, b = np.array([h1], dtype=np.uint64), np.array([h2], dtype=np.uint64)
    assert int(_combine(a, b)[0]) == combine(h1, h2)


# ---------------------------------------------------------------------------
# Type strings

def test_feature_type_strings():
    assert feature_type(Feature(())) == "0-gram"
    assert feature_type(Feature((3, 4, 5))) == "3-gram"
    assert feature_type(Feature((3, 4, 5), skip_pos=1, skip_len=2)) == "skip-(1,2,2)"
    assert feature_type(Feature((3, 4, 5, 6), skip_pos=1, skip_len=None)) == "skip-(1,*,3)"
    # tags change the identity, never the type
    assert feature_type(Feature((3, 4), tag="web")) == "2-gram"


# ---------------------------------------------------------------------------
# Link decomposition, as the link design explains it

def _hashes(triples):
    return {h for _, h, _ in triples}

@pytest.fixture
def fox_vocab():
    return build_vocab("the quick brown fox".split(), min_count=1)


@pytest.fixture
def fox_link(fox_vocab):
    v = fox_vocab
    f = Feature((v.index["the"], v.index["quick"], v.index["brown"]))
    return f, v.index["fox"]


def test_full_mode_contains_all_elementary_parts(fox_vocab, fox_link):
    f, w = fox_link
    labels = [lbl for lbl, _, _ in explain(f, w, 12, 6, Mode.FULL, fox_vocab)]
    assert "[the quick brown]" in labels
    assert "3-gram" in labels
    assert "fox" in labels
    # feature count 12 splits into buckets 3 and 4, link count 6 into 2 and 3
    assert "count:2^3" in labels and "count:2^4" in labels
    assert "count:2^2" in labels


def test_feature_target_identity_is_a_conjunction(fox_vocab, fox_link):
    f, w = fox_link
    hashes = _hashes(explain(f, w, 12, 6, Mode.FULL, fox_vocab))
    assert combine(fingerprint("[the quick brown]"), fingerprint("fox")) in hashes


def test_full_mode_length_bound(fox_vocab, fox_link):
    # non-integral counts on both sides: 4 feature-side items, target
    # itself plus 4 conjunctions, then two link buckets against the 9
    # preceding items: 4 + 5 + 2 * 10 = 29
    f, w = fox_link
    assert len(explain(f, w, 12, 6, Mode.FULL, fox_vocab)) == 29


def test_integral_counts_emit_single_buckets(fox_vocab, fox_link):
    f, w = fox_link
    triples = explain(f, w, 8, 2, Mode.FULL, fox_vocab)
    # 3 feature-side + (1 + 3) target + (1 + 7) link bucket = 15
    assert len(triples) == 15
    assert all(wt == 1.0 for _, _, wt in triples)


def test_feature_only_is_a_prefix_of_full(fox_vocab, fox_link):
    f, w = fox_link
    full = explain(f, w, 12, 6, Mode.FULL, fox_vocab)
    fo = explain(f, w, 12, 6, Mode.FEATURE_ONLY, fox_vocab)
    assert fo == full[: len(fo)]
    assert len(fo) == 4
    # no target identity and no link-count contribution
    assert fingerprint("fox") not in _hashes(fo)


def test_unlexicalized_ignores_word_identities(fox_vocab):
    v = fox_vocab
    f1 = Feature((v.index["the"], v.index["quick"]))
    f2 = Feature((v.index["brown"], v.index["fox"]))
    a = explain(f1, v.index["brown"], 12, 6, Mode.UNLEXICALIZED, v)
    b = explain(f2, v.index["the"], 12, 6, Mode.UNLEXICALIZED, v)
    assert a == b
    lex = {fingerprint("[the quick]"), fingerprint("brown")}
    assert not lex & _hashes(a)
    assert not any("quick" in lbl or "brown" in lbl for lbl, _, _ in a)


def test_unlexicalized_differs_across_types_and_buckets(fox_vocab):
    v = fox_vocab
    f1 = Feature((v.index["the"],))
    f2 = Feature((v.index["the"], v.index["quick"]))
    w = v.index["fox"]
    assert explain(f1, w, 12, 6, Mode.UNLEXICALIZED, v) != \
        explain(f2, w, 12, 6, Mode.UNLEXICALIZED, v)
    assert explain(f1, w, 12, 6, Mode.UNLEXICALIZED, v) != \
        explain(f1, w, 12, 5, Mode.UNLEXICALIZED, v)


def test_compute_is_deterministic(fox_vocab, fox_link):
    f, w = fox_link
    first = explain(f, w, 12, 6, Mode.FULL, fox_vocab)
    second = explain(f, w, 12, 6, Mode.FULL, fox_vocab)
    assert first == second


def test_conjunction_weights_are_products(fox_vocab, fox_link):
    f, w = fox_link
    triples = explain(f, w, 12, 6, Mode.FULL, fox_vocab)
    by_label = {lbl: (h, wt) for lbl, h, wt in triples}
    lo, hi = buckets(6)
    # link bucket conjoined with the weight-1 type descriptor keeps the
    # bucket weight; conjoined with a feature-count bucket it multiplies
    assert by_label[f"3-gram & count:2^{lo[0]}"][1] == pytest.approx(lo[1])
    fc_lo, fc_hi = buckets(12)
    assert by_label[f"count:2^{fc_lo[0]} & count:2^{lo[0]}"][1] == pytest.approx(
        fc_lo[1] * lo[1]
    )


def test_bucket_pair_shares_conjunction_base(fox_vocab, fox_link):
    # the two buckets of one count are a weighted split of one value:
    # the ceiled bucket must not conjoin with the floored bucket
    f, w = fox_link
    triples = explain(f, w, 8, 6, Mode.FULL, fox_vocab)
    labels = [lbl for lbl, _, _ in triples]
    assert "count:2^2 & count:2^3" not in labels


# The scalar reference's own consistency; `tests/test_design.py` compares it
# with the link design.

def test_link_hasher_matches_public_function(fox_vocab, fox_link):
    f, w = fox_link
    hasher = LinkHasher.for_feature(f, 12, Mode.FULL, fox_vocab)
    raw = hasher.link(fingerprint(fox_vocab.words[w]), 6)
    mfs = compute_metafeatures(f, w, 12, 6, Mode.FULL, fox_vocab)
    assert [(mf.hash, mf.weight) for mf in mfs] == raw
