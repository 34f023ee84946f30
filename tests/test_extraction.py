import dataclasses
import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from snmlm.corpus import E_ID, S_ID, build_vocab, map_tokens
from snmlm.errors import ConfigError, DataError
from snmlm.extraction import (
    Event,
    Feature,
    NgramConfig,
    SkipConfig,
    expand_tags,
    extract_events,
    is_tag,
    parse_config,
    parse_feature,
    render_feature,
)

from snm_testutil import parse_feature_oracle

FIVE_GRAM_TEXT = """
// Sample config generating a straight 5-gram language model.
ngram_extractor {
  min_n: 0
  max_n: 4
}
"""

SKIP_10_TEXT = """
// Sample config generating a straight skip-10-gram language model.
ngram_extractor {
  min_n: 0
  max_n: 9
}
skip_ngram_extractor {
  max_context_words: 4
  min_remote_words: 1
  max_remote_words: 1
  min_skip_length: 1
  max_skip_length: 10
  tie_skip_length: true
}
skip_ngram_extractor {
  max_context_words: 5
  min_skip_length: 1
  max_skip_length: 1
  tie_skip_length: false
}
"""


# ---------------------------------------------------------------------------
# Config parsing

def test_five_gram_config():
    cfg = parse_config(FIVE_GRAM_TEXT)
    assert cfg.ngram.min_n == 0
    assert cfg.ngram.max_n == 4
    assert cfg.skip == ()


def test_skip_ten_config():
    cfg = parse_config(SKIP_10_TEXT)
    assert (cfg.ngram.min_n, cfg.ngram.max_n) == (0, 9)
    assert len(cfg.skip) == 2
    first, second = cfg.skip
    assert first.max_context_words == 4
    assert (first.min_remote_words, first.max_remote_words) == (1, 1)
    assert (first.min_skip_length, first.max_skip_length) == (1, 10)
    assert first.tie_skip_length
    assert second.max_context_words == 5
    # omitted remote bounds default to 1 .. max_context_words - 1
    assert (second.min_remote_words, second.max_remote_words) == (1, 4)
    assert (second.min_skip_length, second.max_skip_length) == (1, 1)
    assert not second.tie_skip_length


def test_min_n_greater_than_max_n_is_an_error():
    with pytest.raises(ConfigError, match="min_n > max_n"):
        parse_config("ngram_extractor { min_n: 5 max_n: 4 }")


def test_unknown_block_names_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("\nbogus_extractor { }")


def test_unknown_key_names_key_and_line():
    with pytest.raises(ConfigError, match=r"line 1.*'min_m'"):
        parse_config("ngram_extractor { min_m: 0 max_n: 4 }")


def test_non_integer_value_is_an_error():
    with pytest.raises(ConfigError, match="integer"):
        parse_config("ngram_extractor { min_n: zero max_n: 4 }")


@pytest.mark.parametrize("key", ["min_n", "max_n"])
@pytest.mark.parametrize("value", ["\u0663", "1_0", "-1", "+1"])
def test_config_integers_are_ascii_digits(key, value):
    # `int` reads all four; the message is the one for any non-integer.
    values = {"min_n": "0", "max_n": "4", key: value}
    text = "ngram_extractor {\n" + "".join(f"{k}: {v}\n" for k, v in values.items()) + "}"
    with pytest.raises(ConfigError) as raised:
        parse_config(text)
    line = 2 + list(values).index(key)
    assert str(raised.value) == f"line {line}: {key} expects an integer, got {value!r}"


def test_negative_skip_bounds_are_not_integers():
    with pytest.raises(ConfigError, match="min_remote_words expects an integer, got '-1'"):
        parse_config("skip_ngram_extractor { max_context_words: 3 max_skip_length: 2 "
                     "min_remote_words: -1 }")


def test_duplicate_ngram_block_is_an_error():
    text = "ngram_extractor { min_n: 0 max_n: 1 }\n" * 2
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(text)


def test_bad_skip_invariants():
    with pytest.raises(ConfigError, match="min_skip_length"):
        parse_config(
            "skip_ngram_extractor { max_context_words: 3 "
            "min_skip_length: 4 max_skip_length: 2 }"
        )


# A valid value for every field of each block's dataclass, as config text.
_BLOCK_VALUES = {
    ("ngram_extractor", NgramConfig): {"min_n": "1", "max_n": "3"},
    ("skip_ngram_extractor", SkipConfig): {
        "max_context_words": "4",
        "min_remote_words": "2",
        "max_remote_words": "3",
        "min_skip_length": "2",
        "max_skip_length": "5",
        "tie_skip_length": "true",
    },
}


@pytest.mark.parametrize("block, cls", sorted(_BLOCK_VALUES, key=str))
def test_every_config_field_is_a_key(block, cls):
    values = _BLOCK_VALUES[block, cls]
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    assert set(values) == set(types)
    lines = [f"{key}: {text}" for key, text in values.items()]
    cfg = parse_config("\n".join([f"{block} {{", *lines, "}"]))
    parsed = cfg.ngram if cls is NgramConfig else cfg.skip[0]
    for i, (key, text) in enumerate(values.items()):
        value = getattr(parsed, key)
        if types[key] == "bool":
            assert value is (text == "true")
            wrong, expects = "1", "true or false"
        else:
            assert type(value) is int and value == int(text)
            wrong, expects = "true", "an integer"
        # Each key takes only its own type; the error names the value's line.
        bad = [*lines[:i], f"{key}: {wrong}", *lines[i + 1 :]]
        with pytest.raises(ConfigError) as raised:
            parse_config("\n".join([f"{block} {{", *bad, "}"]))
        assert str(raised.value) == f"line {i + 2}: {key} expects {expects}, got {wrong!r}"


# ---------------------------------------------------------------------------
# Event extraction

@pytest.fixture
def quick_fox():
    words = "The quick brown fox jumps over the lazy dog".split()
    vocab = build_vocab(words, min_count=1)
    return vocab, map_tokens(words, vocab)


def _skip_config(tied: bool, min_skip=2, max_skip=2):
    tie = "true" if tied else "false"
    return parse_config(
        f"""
        ngram_extractor {{ min_n: 0 max_n: 0 }}
        skip_ngram_extractor {{
          max_context_words: 4
          min_remote_words: 1
          max_remote_words: 1
          min_skip_length: {min_skip}
          max_skip_length: {max_skip}
          tie_skip_length: {tie}
        }}
        """
    )


def test_one_two_three_skip_feature_for_dog(quick_fox):
    vocab, sent = quick_fox
    events = extract_events(sent, _skip_config(tied=False))
    dog = next(e for e in events if vocab.words[e.target] == "dog")
    rendered = [render_feature(f, vocab) for f in dog.features]
    assert "[brown skip-2 over the lazy]" in rendered


def test_tied_skip_renders_wildcard(quick_fox):
    vocab, sent = quick_fox
    events = extract_events(sent, _skip_config(tied=True))
    dog = next(e for e in events if vocab.words[e.target] == "dog")
    rendered = [render_feature(f, vocab) for f in dog.features]
    assert "[brown skip-* over the lazy]" in rendered
    assert not any("skip-2" in s for s in rendered)


def test_tied_skip_wildcard_example():
    words = "curiosity killed the cat".split()
    vocab = build_vocab(words, min_count=1)
    sent = map_tokens(words, vocab)
    cfg = parse_config(
        """
        ngram_extractor { min_n: 0 max_n: 0 }
        skip_ngram_extractor {
          max_context_words: 4
          min_remote_words: 1
          max_remote_words: 1
          min_skip_length: 1
          max_skip_length: 10
          tie_skip_length: true
        }
        """
    )
    rendered = {
        render_feature(f, vocab)
        for e in extract_events(sent, cfg)
        for f in e.features
    }
    assert "[curiosity skip-* the cat]" in rendered


def test_ngram_orders_clip_at_sentence_start():
    vocab = build_vocab(["a", "b"], min_count=1)
    sent = map_tokens(["a", "b"], vocab)
    events = extract_events(sent, parse_config(FIVE_GRAM_TEXT))

    def rendered(e):
        return [render_feature(f, vocab) for f in e.features]

    assert [vocab.words[e.target] for e in events] == ["a", "b", "</S>"]
    assert rendered(events[0]) == ["[]", "[<S>]"]
    assert rendered(events[1]) == ["[]", "[a]", "[<S> a]"]
    assert rendered(events[2]) == ["[]", "[b]", "[a b]", "[<S> a b]"]


def test_every_event_contains_empty_feature_when_min_n_zero(quick_fox):
    vocab, sent = quick_fox
    cfg = parse_config(SKIP_10_TEXT)
    for e in extract_events(sent, cfg):
        assert Feature(()) in e.features


def test_extraction_is_deterministic(quick_fox):
    vocab, sent = quick_fox
    cfg = parse_config(SKIP_10_TEXT)
    assert extract_events(sent, cfg) == extract_events(sent, cfg)


def test_unframed_sentence_is_an_error():
    cfg = parse_config(FIVE_GRAM_TEXT)
    with pytest.raises(DataError):
        extract_events([3, 4, 5], cfg)
    with pytest.raises(DataError):
        extract_events([S_ID, 3, S_ID, 4, E_ID], cfg)


def test_targets_exclude_sentence_start(quick_fox):
    vocab, sent = quick_fox
    events = extract_events(sent, parse_config(FIVE_GRAM_TEXT))
    assert len(events) == len(sent) - 1
    assert all(e.target != S_ID for e in events)
    assert events[-1].target == E_ID


def _admissible_tuples(blk, k):
    """Brute-force enumeration of admissible (r, s, a) skip patterns."""
    out = set()
    for r, s, a in itertools.product(range(0, 13), range(1, 13), range(1, 13)):
        if not (blk.min_remote_words <= r <= blk.max_remote_words):
            continue
        if not (blk.min_skip_length <= s <= blk.max_skip_length):
            continue
        if r + a > blk.max_context_words:
            continue
        if k - a - s - r < 0:
            continue
        out.add((r, s, a))
    return out


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=2, max_value=6),
    st.booleans(),
    st.integers(min_value=0, max_value=1),
)
def test_skip_enumeration_matches_bruteforce(
    sent_len, min_skip, max_extra, ctx, tied, min_remote
):
    vocab = build_vocab([f"t{i}" for i in range(sent_len)], min_count=1)
    sent = map_tokens([f"t{i}" for i in range(sent_len)], vocab)
    max_skip = min_skip + max_extra
    cfg = parse_config(
        f"""
        ngram_extractor {{ min_n: 0 max_n: 0 }}
        skip_ngram_extractor {{
          max_context_words: {ctx}
          min_remote_words: {min_remote}
          min_skip_length: {min_skip}
          max_skip_length: {max_skip}
          tie_skip_length: {"true" if tied else "false"}
        }}
        """
    )
    blk = cfg.skip[0]
    for k, event in enumerate(extract_events(sent, cfg), start=1):
        expected = set()
        for r, s, a in _admissible_tuples(blk, k):
            words = tuple(sent[k - a - s - r : k - a - s]) + tuple(sent[k - a : k])
            expected.add(
                Feature(words, skip_pos=r, skip_len=None if tied else s)
            )
        got = {f for f in event.features if f.skip_pos is not None}
        assert got == expected


def test_unanchored_skip_requires_explicit_config():
    # remote words default to at least one; a block may opt into r = 0,
    # putting the gap at the very front of the pattern
    words = "u v w x".split()
    vocab = build_vocab(words, min_count=1)
    sent = map_tokens(words, vocab)
    cfg = parse_config(
        """
        ngram_extractor { min_n: 0 max_n: 0 }
        skip_ngram_extractor {
          max_context_words: 2
          min_remote_words: 0
          max_remote_words: 0
          min_skip_length: 1
          max_skip_length: 1
          tie_skip_length: false
        }
        """
    )
    rendered = {
        render_feature(f, vocab)
        for e in extract_events(sent, cfg)
        for f in e.features
        if f.skip_pos is not None
    }
    assert "[skip-1 v w]" in rendered
    for s in rendered:
        assert parse_feature(s, vocab).skip_pos == 0


def test_expand_tags_two_sources():
    e = Event(features=(Feature((3,)),), target=4)
    out = expand_tags(e, ["web", "target"])
    assert out.target == 4
    assert set(out.features) == {
        Feature((3,), tag="web"),
        Feature((3,), tag="target"),
    }


def test_expand_tags_single_tag_keeps_count():
    e = Event(features=(Feature((3,)), Feature(())), target=4)
    out = expand_tags(e, ["t"])
    assert len(out.features) == 2
    assert all(f.tag == "t" for f in out.features)


def test_expand_tags_seven_sources():
    e = Event(features=(Feature(()), Feature((3,)), Feature((3, 4))), target=5)
    out = expand_tags(e, [f"src{i}" for i in range(7)])
    assert len(out.features) == 21


def test_expand_tags_requires_tags_and_untagged_input():
    e = Event(features=(Feature((3,)),), target=4)
    with pytest.raises(DataError):
        expand_tags(e, [])
    tagged = Event(features=(Feature((3,), tag="x"),), target=4)
    with pytest.raises(DataError):
        expand_tags(tagged, ["y"])


# ---------------------------------------------------------------------------
# Feature strings

@pytest.fixture
def small_vocab():
    return build_vocab(["alpha", "beta", "gamma", "delta"], min_count=1)


def test_render_empty_feature(small_vocab):
    assert render_feature(Feature(()), small_vocab) == "[]"
    assert render_feature(Feature((), tag="web"), small_vocab) == "web:[]"


def test_render_skip_feature(small_vocab):
    a = small_vocab.index["alpha"]
    b = small_vocab.index["beta"]
    g = small_vocab.index["gamma"]
    f = Feature((a, b, g), skip_pos=1, skip_len=2)
    assert render_feature(f, small_vocab) == "[alpha skip-2 beta gamma]"
    tied = Feature((a, b, g), skip_pos=1, skip_len=None)
    assert render_feature(tied, small_vocab) == "[alpha skip-* beta gamma]"


def test_render_tagged_feature(small_vocab):
    a = small_vocab.index["alpha"]
    b = small_vocab.index["beta"]
    assert render_feature(Feature((a, b), tag="web"), small_vocab) == "web:[alpha beta]"


# Besides ordinary words, two that contain ``skip-`` without being markers;
# ``skip-01`` starts like one, so the fast parser leaves it to its strict path.
_PARSE_WORDS = ["alpha", "beta", "gamma", "delta", "skip-01", "reskip-2"]


@st.composite
def features(draw, n_words=len(_PARSE_WORDS)):
    n = draw(st.integers(min_value=0, max_value=5))
    words = tuple(draw(st.integers(min_value=3, max_value=2 + n_words)) for _ in range(n))
    tag = draw(st.one_of(st.none(), st.sampled_from(["web", "target", "x1", "a:b"])))
    if n >= 1 and draw(st.booleans()):
        pos = draw(st.integers(min_value=0, max_value=n - 1))
        # Past 64 the skip marker is not in the fast parser's table.
        length = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=9),
                                st.integers(min_value=60, max_value=10**6)))
        return Feature(words, skip_pos=pos, skip_len=length, tag=tag)
    return Feature(words, tag=tag)


@given(features())
def test_feature_string_roundtrip(f):
    vocab = build_vocab(_PARSE_WORDS, min_count=1)
    s = render_feature(f, vocab)
    assert parse_feature(s, vocab) == f == parse_feature_oracle(s, vocab)


# Tokens a damaged feature string may hold: bad markers (skip-0, skip-01,
# skip-, skip-x), markers that make a second or a trailing one, an empty
# token, an unknown word, and vocabulary words spelled like markers, one
# inside the fast parser's marker table and one past it.
_MUTANT_TOKENS = ["skip-0", "skip-01", "skip-", "skip-x", "skip-*", "skip-7", "skip-64",
                  "skip-65", "skip-100", "", "omega", "alpha", "skip-3"]


@st.composite
def mutated_feature_strings(draw):
    vocab = build_vocab(_PARSE_WORDS + ["skip-3", "skip-100"], min_count=1)
    s = render_feature(draw(features()), vocab)
    head, _, body = s.rpartition("[")
    tokens = body[:-1].split(" ") if body != "]" else []
    op = draw(st.sampled_from(["replace", "insert", "frame"]))
    if op == "frame":
        s = draw(st.sampled_from(
            [s[1:], s[:-1], s[:-1] + ")", ":" + s, "x:" + s, s + "]", s + ":[]", " " + s,
             "x y:" + s, "x]:" + s, "\u00a0x:" + s]
        ))
    else:
        token = draw(st.sampled_from(_MUTANT_TOKENS))
        i = draw(st.integers(min_value=0, max_value=len(tokens)))
        if op == "replace" and i < len(tokens):
            tokens[i] = token
        else:
            tokens.insert(i, token)
        s = f"{head}[{' '.join(tokens)}]"
    return s, vocab


@settings(max_examples=300, deadline=None)
@given(mutated_feature_strings())
def test_parse_feature_rejects_exactly_what_the_oracle_rejects(case):
    s, vocab = case
    try:
        expected = parse_feature_oracle(s, vocab)
    except DataError as exc:
        with pytest.raises(DataError) as raised:
            parse_feature(s, vocab)
        assert str(raised.value) == str(exc)
    else:
        assert parse_feature(s, vocab) == expected


def test_parse_feature_rejects_malformed(small_vocab):
    for bad in ["", "[", "alpha]", "[alpha", "x:", "[alpha  beta]", "[skip-2]",
                "[alpha skip-2]", "[alpha skip-2 skip-3 beta]", "[alpha skip-0 beta]",
                "[alpha skip-01 beta]", "[ alpha]", ":[alpha]"]:
        with pytest.raises(DataError):
            parse_feature(bad, small_vocab)


def test_parse_feature_takes_the_tags_that_tag_flags_take(small_vocab):
    # One rule, `is_tag`, for --tag values and the tags of feature strings.
    for tag in ["web", "a:b", ":", "x1", "t\u00e9"]:
        assert is_tag(tag)
        assert parse_feature(f"{tag}:[alpha]", small_vocab) == Feature(
            (small_vocab.index["alpha"],), tag=tag
        )
    for tag in ["t x", "a]", "a[b", "x\ty", "x\u00a0", "\u2028"]:
        assert not is_tag(tag)
        with pytest.raises(DataError, match=re.escape(f"bad corpus tag {tag!r} in feature")):
            parse_feature(f"{tag}:[alpha]", small_vocab)
    assert not is_tag("")


def test_parse_feature_rejects_unknown_word(small_vocab):
    with pytest.raises(DataError, match="unknown token"):
        parse_feature("[omega]", small_vocab)
