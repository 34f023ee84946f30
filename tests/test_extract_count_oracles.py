"""Extraction and counting checked against the plain nested-loop versions.

`oracle_extract_events` is the straightforward per-position loop over
n-gram orders and skip-block (a, s, r) tuples, de-duplicating every event;
`oracle_accumulate` adds one event at a time, updating a row and a feature
count per occurrence. The library's planned extraction and single-lookup
counting must return equal events in equal order, and equal stores with the
same row insertion order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from snmlm.cli import main
from snmlm.corpus import E_ID, S_ID, TaggedCorpus, Vocabulary
from snmlm.counts import CountStore, accumulate
from snmlm.errors import DataError
from snmlm.extraction import Event, Feature, extract_events, parse_config


def oracle_extract_events(sentence, config, tag=None):
    if (
        len(sentence) < 2
        or sentence[0] != S_ID
        or sentence[-1] != E_ID
        or S_ID in sentence[1:]
    ):
        raise DataError("sentence must be framed by <S> ... </S>")

    ngram = config.ngram
    events = []
    for k in range(1, len(sentence)):
        feats: list[Feature] = []
        if ngram is not None:
            for n in range(ngram.min_n, min(ngram.max_n, k) + 1):
                feats.append(Feature(tuple(sentence[k - n : k]), tag=tag))
        for blk in config.skip:
            a_hi = blk.max_context_words - blk.min_remote_words
            for a in range(1, a_hi + 1):
                adjacent = tuple(sentence[k - a : k])
                for s in range(blk.min_skip_length, blk.max_skip_length + 1):
                    r_hi = min(
                        blk.max_remote_words,
                        blk.max_context_words - a,
                        k - a - s,
                    )
                    skip_len = None if blk.tie_skip_length else s
                    for r in range(blk.min_remote_words, r_hi + 1):
                        start = k - a - s - r
                        feats.append(
                            Feature(
                                tuple(sentence[start : start + r]) + adjacent,
                                skip_pos=r,
                                skip_len=skip_len,
                                tag=tag,
                            )
                        )
        feats = list(dict.fromkeys(feats))
        if not feats:
            raise DataError(
                f"no features for target at position {k}; "
                "configure an n-gram block with min_n: 0 for full coverage"
            )
        events.append(Event(features=tuple(feats), target=sentence[k]))
    return events


def oracle_accumulate(events) -> CountStore:
    store = CountStore()
    for event in events:
        store.total_events += 1
        for f in event.features:
            row = store.rows.setdefault(f, {})
            row[event.target] = row.get(event.target, 0) + 1
            store.feature_counts[f] = store.feature_counts.get(f, 0) + 1
    return store


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
    "ngram-min2-plus-skip": NGRAM2 + _skip(3, 1, 1, False),
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


@pytest.mark.parametrize("text", [NGRAM2, _skip(3, 1, 2, True)])
def test_no_features_error_matches_oracle(text):
    config = parse_config(text)
    sentence = [S_ID, 3, 4, 5, E_ID]
    with pytest.raises(DataError, match="no features") as expected:
        oracle_extract_events(sentence, config)
    with pytest.raises(DataError) as got:
        extract_events(sentence, config)
    assert str(got.value) == str(expected.value)


def _assert_same_store(store: CountStore, expected: CountStore) -> None:
    assert store.total_events == expected.total_events
    assert list(store.feature_counts.items()) == list(expected.feature_counts.items())
    assert list(store.rows) == list(expected.rows)
    for f, row in expected.rows.items():
        assert list(store.rows[f].items()) == list(row.items())


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(sentences, tags), max_size=8),
    st.sampled_from(sorted(set(CONFIGS) - {"ngram-min2-plus-skip"})),
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
