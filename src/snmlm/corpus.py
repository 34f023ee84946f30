"""Corpus ingestion: tokenized text, vocabulary construction, id mapping.

Input text is expected to be pre-tokenized: one sentence per line, tokens
separated by whitespace. No normalization is applied. Sentence frames
(``<S>`` ... ``</S>``) are added during id mapping when absent; a line
with ``<S>`` after its first token is rejected as it is read.
"""

from __future__ import annotations

import collections
import hashlib
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError, MarkerWordError
from .files import atomic_write, open_text

S_TOKEN = "<S>"
E_TOKEN = "</S>"
UNK_TOKEN = "<UNK>"
SPECIAL_TOKENS = (S_TOKEN, E_TOKEN, UNK_TOKEN)

# Fixed ids of the special tokens; guaranteed by Vocabulary construction.
S_ID = 0
E_ID = 1
UNK_ID = 2


class Vocabulary:
    """Immutable token <-> dense-id map with reserved special tokens.

    Ids are assigned deterministically: ``<S>``, ``</S>``, ``<UNK>`` get
    ids 0..2 and every other word follows in lexicographic order, so two
    builds over the same data produce identical id assignments. No word is a
    skip marker (`is_skip_marker`): feature strings would misread it.
    """

    __slots__ = ("words", "index", "digest")

    def __init__(self, words: Sequence[str], path=None):
        """With `path`, the file `words` were read from, errors name its line."""
        words = list(words)

        def at(i: int) -> str:
            return "" if path is None else f"{path}:{i + 1}: "

        if tuple(words[:3]) != SPECIAL_TOKENS:
            i = next(i for i, s in enumerate(SPECIAL_TOKENS) if words[i:i + 1] != [s])
            raise DataError(f"{at(i)}vocabulary must start with the special tokens "
                            f"{' '.join(SPECIAL_TOKENS)}")
        index: dict[str, int] = {}
        for i, w in enumerate(words):
            if w in index:
                raise DataError(f"{at(i)}duplicate vocabulary entry {w!r}")
            if is_skip_marker(w):
                raise MarkerWordError(w, at(i))
            index[w] = i
        self.words = words
        self.index = index
        # The SHA-256 of what `save` writes, which count files name.
        self.digest = hashlib.sha256(self._text().encode()).hexdigest()

    def __len__(self) -> int:
        return len(self.words)

    def _text(self) -> str:
        return "\n".join(self.words) + "\n"

    def save(self, path) -> None:
        """One token per line; the line number is the id."""
        with atomic_write(path) as fh:
            fh.write(self._text())

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read what `save` writes: one non-empty entry per line, without whitespace.

        Every error names the file and line.
        """
        with open_text(path) as fh:
            words = fh.read().split("\n")
        if words[-1] == "":
            words.pop()
        if not words:
            raise DataError(f"{path}: empty vocabulary file")
        for i, w in enumerate(words):
            if w.split() != [w]:
                what = f"entry {w!r} contains whitespace" if w else "entry is empty"
                raise DataError(f"{path}:{i + 1}: vocabulary {what}")
        return cls(words, path)


def is_skip_marker(word: str) -> bool:
    """Whether feature strings read `word` as ``skip-*`` or ``skip-`` and a number, no leading 0."""
    n = word[5:]
    return word[:5] == "skip-" and (n == "*" or n.isascii() and n.isdigit() and n[0] != "0")


def build_vocab(tokens: Iterable[str], min_count: int = 1) -> Vocabulary:
    """Count tokens and keep those occurring at least `min_count` times.

    The special tokens are always present and exempt from the threshold.
    An empty stream yields a vocabulary of just the specials.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counts = collections.Counter(tokens)
    for special in SPECIAL_TOKENS:
        counts.pop(special, None)
    kept = sorted(w for w, c in counts.items() if c >= min_count)
    return Vocabulary(list(SPECIAL_TOKENS) + kept)


def map_tokens(raw_sentence: Sequence[str], vocab: Vocabulary) -> list[int]:
    """Map tokens to ids, sending out-of-vocabulary tokens to <UNK>.

    The sentence frame is added only when absent, so mapping the token
    form of an already-framed sentence is stable.
    """
    index = vocab.index
    ids = [index.get(tok, UNK_ID) for tok in raw_sentence]
    if not ids or ids[0] != S_ID:
        ids.insert(0, S_ID)
    if len(ids) < 2 or ids[-1] != E_ID:
        ids.append(E_ID)
    return ids


@dataclass
class TaggedCorpus:
    """Framed token-id sentences from one source.

    Corpus tags reach features through `extract_events`, not through here.
    """

    sentences: list[list[int]] = field(default_factory=list)

    @classmethod
    def from_file(cls, path, vocab: Vocabulary) -> "TaggedCorpus":
        return cls([map_tokens(tokens, vocab) for _, tokens in corpus_lines(path)])


def framed_ids(path, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sentences of a text file as `TaggedCorpus.from_file` reads them, as arrays.

    Returns every framed sentence's ids concatenated into one int32 array,
    the sentence lengths, and the line number of each sentence. Only the
    arrays are held, not a list per sentence.
    """
    ids = array("i")
    lengths = array("q")
    lines = array("q")
    for lineno, tokens in corpus_lines(path):
        sent = map_tokens(tokens, vocab)
        ids.extend(sent)
        lengths.append(len(sent))
        lines.append(lineno)
    return (np.asarray(ids, dtype=np.int32), np.asarray(lengths, dtype=np.int64),
            np.asarray(lines, dtype=np.int64))


def corpus_lines(path) -> Iterator[tuple[int, list[str]]]:
    """The line number and tokens of each non-blank line of corpus text.

    A line with <S> after its first token is rejected at its line: it has
    no frame, and `map_tokens` frames every other line.
    """
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if S_TOKEN in line and S_TOKEN in tokens[1:]:
                raise DataError(f"{path}:{lineno}: <S> inside a sentence")
            if tokens:
                yield lineno, tokens


def iter_file_tokens(paths: Iterable) -> Iterator[str]:
    """Stream whitespace tokens from text files, for vocabulary building."""
    for path in paths:
        for _, tokens in corpus_lines(path):
            yield from tokens


def natural(text: str) -> int:
    """A natural number as every input spells it: ASCII digits only.

    Counts, event totals, config integers and table sizes are read with it;
    `int` also reads signs, ``_``, outer whitespace and non-ASCII digits.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)
