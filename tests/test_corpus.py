import glob
import os
import re

import pytest
from hypothesis import given, strategies as st

from snmlm.adjustment import AdjustmentModel
from snmlm.corpus import (
    E_ID,
    E_TOKEN,
    S_ID,
    S_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    TaggedCorpus,
    Vocabulary,
    build_vocab,
    framed_ids,
    is_skip_marker,
    iter_file_tokens,
    map_tokens,
)
from snmlm.counts import accumulate
from snmlm.errors import DataError
from snmlm.extraction import extract_events, parse_config
from snmlm.model import perplexity

from snm_testutil import build_model


def test_threshold_keeps_frequent_words():
    tokens = ["a"] * 3 + ["b"] * 2 + ["c"]
    vocab = build_vocab(tokens, min_count=3)
    assert vocab.words == ["<S>", "</S>", "<UNK>", "a"]
    assert len(vocab) == 4


def test_threshold_one_keeps_everything():
    tokens = ["a"] * 3 + ["b"] * 2 + ["c"]
    vocab = build_vocab(tokens, min_count=1)
    assert len(vocab) == 6
    assert set("abc") <= set(vocab.words)


def test_empty_stream_yields_specials_only():
    vocab = build_vocab([], min_count=5)
    assert vocab.words == [S_TOKEN, E_TOKEN, UNK_TOKEN]


def test_special_ids_are_fixed():
    vocab = build_vocab(["z", "z", "a", "a"], min_count=2)
    assert vocab.index[S_TOKEN] == S_ID
    assert vocab.index[E_TOKEN] == E_ID
    assert vocab.index[UNK_TOKEN] == UNK_ID
    # lexicographic after the specials
    assert vocab.words[3:] == ["a", "z"]


def test_specials_in_stream_do_not_duplicate():
    vocab = build_vocab(["<S>", "a", "a", "</S>"], min_count=2)
    assert vocab.words == ["<S>", "</S>", "<UNK>", "a"]


def test_min_count_must_be_positive():
    with pytest.raises(ValueError):
        build_vocab(["a"], min_count=0)


def test_map_tokens_unknown_goes_to_unk():
    vocab = build_vocab(["a", "a"], min_count=1)
    assert map_tokens(["a", "zzz"], vocab) == [S_ID, vocab.index["a"], UNK_ID, E_ID]


def test_map_tokens_empty_sentence():
    vocab = build_vocab(["a"], min_count=1)
    assert map_tokens([], vocab) == [S_ID, E_ID]


def test_map_tokens_does_not_double_frame():
    vocab = build_vocab(["a"], min_count=1)
    framed = map_tokens(["<S>", "a", "</S>"], vocab)
    assert framed == [S_ID, vocab.index["a"], E_ID]


@given(st.lists(st.sampled_from(["a", "b", "zzz"]), max_size=8))
def test_map_tokens_idempotent_on_rendered_output(tokens):
    vocab = build_vocab(["a", "b"], min_count=1)
    ids = map_tokens(tokens, vocab)
    rendered = [vocab.words[i] for i in ids]
    assert map_tokens(rendered, vocab) == ids


@given(
    st.lists(st.sampled_from("abcdef"), max_size=40),
    st.integers(min_value=1, max_value=5),
)
def test_raising_threshold_shrinks_vocab(tokens, k):
    lower = set(build_vocab(tokens, min_count=k).words)
    higher = set(build_vocab(tokens, min_count=k + 1).words)
    assert higher <= lower


def test_oov_rate_hand_count():
    # one sentence of 10 raw tokens, 2 of them out of vocabulary;
    # predicted positions are those 10 plus </S>, so the rate is 2/11
    vocab = build_vocab(["a", "b", "c"], min_count=1)
    raw = ["a", "b", "xx", "c", "a", "yy", "b", "c", "a", "b"]
    config = parse_config("ngram_extractor {\n  min_n: 0\n  max_n: 0\n}\n")
    events = extract_events(map_tokens(raw, vocab), config)
    model = build_model(accumulate(events), AdjustmentModel(16), vocab)
    assert perplexity(model, events).oov_rate == pytest.approx(2 / 11)


def test_corpus_lines_are_framed_or_rejected_at_their_line(tmp_path):
    vocab = build_vocab(["a", "b"], min_count=1)
    path = tmp_path / "t.txt"
    # Blank lines are skipped and frames added where absent.
    path.write_text("<S> a\n \n\nb </S>\n<S>\n", encoding="utf-8")
    sentences = [[S_ID, 3, E_ID], [S_ID, 4, E_ID], [S_ID, E_ID]]
    assert TaggedCorpus.from_file(path, vocab).sentences == sentences
    ids, lengths, lines = framed_ids(path, vocab)
    assert (ids.tolist(), lengths.tolist()) == (sum(sentences, []), [3, 3, 2])
    assert lines.tolist() == [1, 4, 5]
    # <S> after a line's first token leaves the line unframed.
    path.write_text("a b\n\n<S> a <S> b\n", encoding="utf-8")
    message = f"^{re.escape(str(path))}:3: <S> inside a sentence$"
    for read in (lambda: TaggedCorpus.from_file(path, vocab), lambda: framed_ids(path, vocab),
                 lambda: list(iter_file_tokens([path]))):
        with pytest.raises(DataError, match=message):
            read()


def test_vocab_roundtrip_bit_exact(tmp_path):
    vocab = build_vocab(["pear", "apple", "apple", "fig"], min_count=1)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.words == vocab.words
    again = tmp_path / "vocab2.txt"
    loaded.save(again)
    assert path.read_bytes() == again.read_bytes()


def test_vocab_load_requires_specials(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a\nb\nc\n", encoding="utf-8")
    with pytest.raises(DataError):
        Vocabulary.load(path)


def test_vocab_rejects_duplicates():
    with pytest.raises(DataError):
        Vocabulary(["<S>", "</S>", "<UNK>", "a", "a"])


@pytest.mark.parametrize("word, marker", [
    ("skip-*", True), ("skip-1", True), ("skip-64", True), ("skip-65", True),
    ("skip-" + "9" * 30, True), ("skip-", False), ("skip-0", False), ("skip-07", False),
    ("skip-x", False), ("skip-1x", False), ("skip-**", False), ("skip-\u0663", False),
    ("Skip-3", False), ("reskip-3", False),
])
def test_vocab_rejects_exactly_the_words_feature_strings_read_as_markers(tmp_path, word, marker):
    assert is_skip_marker(word) == marker
    path = tmp_path / "vocab.txt"
    path.write_text(f"<S>\n</S>\n<UNK>\na\n{word}\n", encoding="utf-8")
    if not marker:
        assert Vocabulary.load(path).words[-1] == word
        return
    message = f"vocabulary word {word!r} reads as a skip marker"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        build_vocab(["a", word])
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}:5: {message}')}$"):
        Vocabulary.load(path)


_BENCHMARK_GLOB = os.environ.get("LM_BENCHMARK_TRAIN_GLOB")


@pytest.mark.skipif(
    not _BENCHMARK_GLOB,
    reason="set LM_BENCHMARK_TRAIN_GLOB to the billion-word training shards",
)
def test_benchmark_vocabulary_size():
    # documented expectation for anyone with the benchmark on disk: a
    # count-3 threshold over its training set yields 793471 words
    # including the three specials
    paths = sorted(glob.glob(_BENCHMARK_GLOB))
    vocab = build_vocab(iter_file_tokens(paths), min_count=3)
    assert len(vocab) == 793471
