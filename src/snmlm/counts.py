"""Link and feature counts: counting training text, count files, and the in-memory store.

Counts are exact integers; the link design (`snmlm.metafeatures`) turns them
into relative frequencies once per training run. Count tables persist as
sorted TSV so that independently produced shards can be combined with a
sequential merge join. Count and model files are both sealed row files
(`RowFile`), written by `save_rows` and read by `read_rows`: a two-line
preamble, a row per link, and a trailer (`_Sealer`) of the row count, the
features per corpus tag, the vocabulary's digest and a SHA-256 of all text
before it. A read that keeps a few rows (`keep=`) checks only those and
trusts the rest for the digest; any other read checks every row, and the
trailer too.

Training text is counted on integer arrays (`count_files`, which `snmlm
count` runs): no `Event` or `Feature` object is built, and a feature's
string is rendered only to write it. `accumulate` counts `Event`s per
shared features tuple, on arrays too (`_links`). Both give a `CountStore`,
counts on a `Rows` layout that `CountStore.load` also fills, the link
design and the model share, and `save` hands to `save_rows`; its dict
rows are views built only when read. `Rows.groups` is the one grouping
of rows by feature shape and tag, and `Rows.strings` the one renderer of
row strings.

Held-out text takes the same occurrence step (`_occurrences`) into
`HeldText`, word-id columns that build no `Feature`: its `names` are the
row strings that `CountStore.load(keep=)` keeps, and `held_out` compiles
its events against the rows that score them, into `HeldOut`: the one
held-out type that training and evaluation score, the row of each known
feature occurrence in event order. A `Feature` is only ever a row.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from contextlib import closing, suppress
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import eq, itemgetter, lt, ne, not_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .corpus import Vocabulary, framed_ids, natural
from .errors import DataError
from .extraction import (
    Event, ExtractorConfig, Feature, feature_parser, feature_shapes, render_rows,
)
from .files import atomic_write, open_text

COUNTS_HEADER = "#snm-counts v2"
_TOTAL_PREFIX = "#total-events "
# The key of each kind of trailer line (`_read_seal`), in file order.
_SEAL_KEYS = {"rows": "#rows", "features": "#features", "vocab": "#vocab-sha256",
              "sha256": "#sha256"}
# Counts and their row sums are int64 in the link design, and so are the
# keys `count_files` counts on.
_INT64_MAX = (1 << 63) - 1
# Rows whose links `Rows.dicts` converts to Python values at a time.
_ROW_GROUP = 2048


class Rows:
    """Links in row order as CSR arrays: the one layout of count, design and model rows.

    Row r is feature ``features[r]``: links ``offsets[r]`` to ``offsets[r + 1]``
    to the ascending word ids `words`. No row is empty. ``names[r]`` is row
    r's canonical string when it is known, else `names` is None. `row`, the
    row of each link, `row_index`, the row of each feature, and `groups`,
    the rows of each feature shape and tag, are built the first time each
    is read, once for every store, design and model that holds these rows.
    The rows of `count_files` have names but no `Feature`s (`features` is
    None): they are only saved.
    """

    def __init__(self, features: list[Feature] | None, offsets: np.ndarray, words: np.ndarray,
                 names: list[str] | None = None):
        self.features, self.offsets, self.words, self.names = features, offsets, words, names

    @classmethod
    def sort_words(cls, features: list[Feature], offsets: np.ndarray, words: np.ndarray,
                   names: list[str] | None = None) -> tuple["Rows", np.ndarray]:
        """Rows of links that come row by row, and the order that sorts each row's links by word."""
        rows = cls(features, offsets, words, names)
        order = np.lexsort((words, rows.row))
        rows.words = words[order]
        return rows, order

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @cached_property
    def row(self) -> np.ndarray:
        """The row of each link."""
        return np.repeat(np.arange(len(self), dtype=np.int32), np.diff(self.offsets))

    @cached_property
    def row_index(self) -> dict[Feature, int]:
        """The row of each feature."""
        return {f: r for r, f in enumerate(self.features)}

    @cached_property
    def groups(self) -> dict[tuple, tuple[np.ndarray, np.ndarray]]:
        """Per (shape, tag) of the features, first seen first: their rows and context words.

        A shape is as in `feature_shapes`. Row k of the words matrix holds
        the words of row ``rows[k]``; its columns are what `render_rows` takes.
        """
        index: dict[tuple, list[int]] = {}
        for r, (words, skip_pos, skip_len, tag) in enumerate(self.features):
            index.setdefault(((skip_pos, skip_len, len(words)), tag), []).append(r)
        return {key: (np.array(rows, np.int64),
                      np.array([self.features[r].words for r in rows], np.int64))
                for key, rows in index.items()}

    def strings(self, vocab: Vocabulary) -> list[str]:
        """Each row's canonical string: `names`, or else rendered one group at a time."""
        if self.names is not None:
            return self.names
        names = np.empty(len(self), object)
        for (shape, tag), (rows, words) in self.groups.items():
            names[rows] = render_rows(list(words.T), shape, tag, vocab)
        return names.tolist()

    def find(self, rows: np.ndarray, words: np.ndarray) -> np.ndarray:
        """The link (rows[i], words[i]) of each i, or -1 where that row has no link to that word."""
        # Links ascend by (row, word), so by this key. `v` exceeds every word and
        # target id, so a target past the vocabulary cannot alias another row.
        v = int(max(self.words.max(initial=0), words.max(initial=0))) + 1
        have = self.row.astype(np.int64) * v + self.words
        want = rows * v + words
        pos = np.minimum(np.searchsorted(have, want), len(have) - 1)
        return np.where(have[pos] == want, pos, -1)

    def links_of(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ids of every link of the given rows, concatenated, and each row's length.

        For ascending `rows` the ids ascend too.
        """
        starts = self.offsets[rows]
        lens = self.offsets[rows + 1] - starts
        shift = starts - (np.cumsum(lens) - lens)
        return np.arange(int(lens.sum())) + np.repeat(shift, lens), lens

    def dicts(self, values: np.ndarray) -> dict[Feature, dict]:
        """Row r as ``{features[r]: {word: value}}`` of its links' `values`, in row order.

        Values are converted to Python numbers a group of rows at a time, so
        no list of every link's value is held next to the finished rows.
        """
        rows: dict[Feature, dict] = {}
        off = self.offsets.tolist()
        for g in range(0, len(self), _ROW_GROUP):
            end = min(g + _ROW_GROUP, len(self))
            base = off[g]
            ws = self.words[base : off[end]].tolist()
            vs = values[base : off[end]].tolist()
            for r in range(g, end):
                lo, hi = off[r] - base, off[r + 1] - base
                rows[self.features[r]] = dict(zip(ws[lo:hi], vs[lo:hi]))
        return rows


class CountStore:
    """Link counts C_fw, feature counts C_f* and the event total, over one `Rows` layout.

    Link i of `layout` was seen ``counts[i]`` times; ``row_sums[r]`` is
    C_f*, row r's exact sum, computed the first time it is read. Rows come
    first seen from `accumulate` and `count_files` and in file order from
    `load`, whose store also has `file_features`: per corpus tag (None for
    untagged), the number of features in the file, kept or not, from its
    trailer; its rows have names when it kept rows by name. `rows` and
    `feature_counts` are the same as dicts, built the first time they are read.
    """

    def __init__(self, layout: Rows, counts: np.ndarray, total_events: int,
                 file_features: dict[str | None, int] | None = None):
        self.layout, self.counts, self.total_events = layout, counts, total_events
        self.file_features = {} if file_features is None else file_features

    @classmethod
    def from_rows(cls, rows: dict[Feature, dict[int, int]], total_events: int) -> "CountStore":
        """The store of dict rows of word id to count, in their order; words go in id order."""
        lens = np.fromiter(map(len, rows.values()), np.int64, len(rows))
        n = int(lens.sum())
        words = np.fromiter(chain.from_iterable(rows.values()), np.int32, n)
        counts = np.fromiter(chain.from_iterable(r.values() for r in rows.values()), np.int64, n)
        layout, order = Rows.sort_words(list(rows), np.concatenate(([0], np.cumsum(lens))), words)
        return cls(layout, counts[order], total_events)

    def __len__(self) -> int:
        return len(self.layout)

    @property
    def num_links(self) -> int:
        return len(self.layout.words)

    @cached_property
    def row_sums(self) -> np.ndarray:
        return np.add.reduceat(self.counts, self.layout.offsets[:-1])

    @cached_property
    def rows(self) -> dict[Feature, dict[int, int]]:
        """Each feature's row as a dict from word id to count, in row order."""
        return self.layout.dicts(self.counts)

    @cached_property
    def feature_counts(self) -> dict[Feature, int]:
        """Each feature's count C_f*, in row order."""
        return dict(zip(self.layout.features, self.row_sums.tolist()))

    def add_event(self, event: Event) -> None:
        """Count one event in place, by rebuilding the store through `from_rows`.

        It copies the whole store per event, and nothing calls it:
        `accumulate` is the counting loop. It stays only because
        perfbench/tracing.py wraps it by name; ROADMAP item 1b deletes it.
        """
        rows = {f: dict(row) for f, row in self.rows.items()}
        for f in event.features:
            row = rows.setdefault(f, {})
            row[event.target] = row.get(event.target, 0) + 1
        self.__dict__ = vars(CountStore.from_rows(rows, self.total_events + 1))

    def intersect(self, keep: Iterable[Feature]) -> "CountStore":
        """Sub-store with the full rows of the given features, in row order.

        Features never seen in training simply contribute no row. Feature
        counts keep their full training-data values. Kept whole, the store
        is a new one on the same `Rows` and counts.
        """
        keep = set(keep)
        rows = self.layout
        kept = np.fromiter(map(keep.__contains__, rows.features), bool, len(self))
        if kept.all():
            return CountStore(rows, self.counts, self.total_events)
        lens = np.diff(rows.offsets)
        links = np.repeat(kept, lens)
        return CountStore(Rows(list(compress(rows.features, kept)),
                               np.concatenate(([0], np.cumsum(lens[kept]))), rows.words[links],
                               None if rows.names is None else list(compress(rows.names, kept))),
                          self.counts[links], self.total_events)

    # -- persistence ------------------------------------------------------

    def save(self, path, vocab: Vocabulary) -> None:
        save_rows(path, COUNT_FILE.preamble(self.total_events), self.layout, self.counts, vocab)

    @classmethod
    def load(cls, path, vocab: Vocabulary, keep: Iterable[str] | None = None) -> "CountStore":
        """Read a count file (`read_rows`), storing only the rows `keep` names when it is given.

        Kept rows keep their strings as `names`; `file_features` comes from
        the trailer.
        """
        total, layout, counts, _, tags = read_rows(path, COUNT_FILE, vocab, keep)
        return cls(layout, counts, total, tags)


def accumulate(events: Iterable[Event]) -> CountStore:
    """Count every (feature, target) link over a stream of events.

    Events holding one features tuple object (`extract_events` gives equal
    n-gram contexts one) are counted per (tuple, target) pair, whose counts
    `_links` then sums into its features' links. Rows are numbered by
    feature value, first seen first, so equal objects share a row.
    """
    events = list(events)  # holds every tuple, so that no two share an id()
    total = len(events)
    target = np.fromiter(map(itemgetter(1), events), np.int64, total)
    _, first, group = np.unique(np.fromiter(map(id, map(itemgetter(0), events)), np.uintp, total),
                                return_index=True, return_inverse=True)
    order = np.argsort(first)  # the distinct tuples in order of their first event
    tuples, group = [events[i][0] for i in first[order].tolist()], np.argsort(order)[group]
    index: dict[Feature, int] = {}
    row = np.fromiter((index.setdefault(f, len(index)) for t in tuples for f in t), np.int64)
    features, lens = list(index), np.fromiter(map(len, tuples), np.int64, len(tuples))
    del events, tuples, index  # the links below set the peak memory
    base = max(1, len(lens), len(features), int(target.max(initial=0)) + 1)
    (group,), target, seen = _links([group], target, base)
    # Pair p gives a link per feature of its tuple, whose rows are a run of `row`.
    n = lens[group]
    row = row[np.repeat((np.cumsum(lens) - lens)[group] - np.cumsum(n) + n, n) + np.arange(n.sum())]
    (row,), words, counts = _links([row], np.repeat(target, n), base, np.repeat(seen, n))
    offsets = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=len(features)))))
    return CountStore(Rows(features, offsets, words.astype(np.int32)), counts, total)


def _features_per_tag(names: Sequence[str]) -> dict[str | None, int]:
    """Per corpus tag (None untagged), how many of the sorted feature strings `names` it has.

    The strings of a tag start ``tag:[`` (untagged ``[``), as no other
    tag's strings do, so in sorted order they are one run, which ends
    before ``tag:\\``.
    """
    tags: dict[str | None, int] = {}
    i = 0
    while i < len(names):
        head = names[i][:names[i].find("[")]
        j = bisect_left(names, head + "\\", i)  # "\\" follows "["
        tags[head[:-1] or None] = j - i
        i = j
    return tags


class _Sealer:
    """A row file as written: its text, hashed as it is written, then the trailer."""

    def __init__(self, fh, preamble: str):
        self.fh, self.sha = fh, hashlib.sha256()
        self.write(preamble)

    def write(self, text: str) -> None:
        self.sha.update(text.encode())
        self.fh.write(text)

    def seal(self, rows: int, tags: dict[str | None, int], vocab: str) -> None:
        """Write the trailer of `rows` rows, features per tag and the vocabulary digest."""
        self.write("".join([f"#rows {rows}\n",
                            *(f"#features {'' if t is None else t + ' '}{n}\n"
                              for t, n in tags.items()),
                            f"#vocab-sha256 {vocab}\n"]))
        self.fh.write(f"#sha256 {self.sha.hexdigest()}\n")


def _ranks(strings: Sequence[str]) -> np.ndarray:
    """Each string's position in `sorted(strings)`."""
    ranks = np.empty(len(strings), np.int64)
    ranks[sorted(range(len(strings)), key=strings.__getitem__)] = np.arange(len(strings))
    return ranks


def _rank_key(columns: Sequence[np.ndarray], base: int) -> np.ndarray:
    """One int64 key per row of `columns` (values below `base`), ordered as the rows are.

    Columns are folded in one at a time as ``key * base + column``. Before
    a fold could pass int64, the keys are replaced by their ranks among the
    distinct keys, which keeps their order, so any base and width fit.
    """
    key = columns[0].astype(np.int64)
    bound = base
    for col in columns[1:]:
        if bound > _INT64_MAX // base:
            distinct, key = np.unique(key, return_inverse=True)
            bound = len(distinct)
        key = key * base + col
        bound *= base
    return key


def rendered(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """``f"{value}"`` of each distinct value, once, and the index of each value's string.

    Values are told apart by their 64-bit patterns, so ``-0.0`` and ``0.0``
    (and NaN payloads) each keep their own string. A sort and a search, not
    `np.unique`, which holds more arrays of every value at once with
    `return_inverse` and builds a hash table without: either raised the peak
    RSS of `snmlm count` runs in one process by about 2 MB.
    """
    bits = values.view(np.int64)
    distinct = np.sort(bits)
    new = np.ones(len(distinct), bool)
    np.not_equal(distinct[1:], distinct[:-1], out=new[1:])
    distinct = distinct[new]
    return [f"{v}" for v in distinct.view(values.dtype).tolist()], np.searchsorted(distinct, bits)


def save_rows(path, preamble: str, layout: Rows, values: np.ndarray, vocab: Vocabulary) -> None:
    """Write a sealed row file: `preamble`, a row per link of `layout`, then the trailer.

    The one writer of count and model files. Link i is written as
    ``name<TAB>word<TAB>values[i]``, sorted by (feature, word) string:
    feature names and vocabulary words are ranked once each, and the links
    ordered on one key of the two ranks. ``f"{value}"`` renders a count as
    `str(int)` and a model cell as `repr(float)`, once per distinct value
    (`rendered`). Lines are joined and written `_BLOCK_LINES` at a time,
    and the trailer (`_Sealer.seal`) counts each tag's features.
    """
    names = layout.strings(vocab)
    rank = _ranks(names)
    order = np.argsort(_rank_key([rank[layout.row], _ranks(vocab.words)[layout.words]],
                                 max(len(names), len(vocab))))
    columns = [(names, layout.row), (vocab.words, layout.words), rendered(values)]
    ordered = np.empty(len(rank), object)
    ordered[rank] = names
    with atomic_write(path) as fh:
        out = _Sealer(fh, preamble)
        for lo in range(0, len(order), _BLOCK_LINES):
            at = order[lo : lo + _BLOCK_LINES]
            fields = [map(strings.__getitem__, index[at].tolist()) for strings, index in columns]
            out.write("\n".join(map("\t".join, zip(*fields))) + "\n")
        out.seal(len(values), _features_per_tag(ordered.tolist()), vocab.digest)


# ---------------------------------------------------------------------------
# Counting training text on integer arrays

def _links(columns: list[np.ndarray], target: np.ndarray, base: int,
           weight: np.ndarray | None = None):
    """The distinct (context, target) links of occurrences, in (context, target) order.

    Returns the links' context columns, targets and counts: the number of
    occurrences of each, or the sum of their `weight`.
    """
    key = _rank_key([*columns, target], base)
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.ones(len(key), bool)
    np.not_equal(key[1:], key[:-1], out=starts[1:])
    del key  # before the weights are sorted: the links of `accumulate` set its peak memory
    first = np.flatnonzero(starts)
    count = (np.diff(first, append=len(order)) if weight is None
             else np.add.reduceat(weight[order], first))
    first = order[first]
    return [c[first] for c in columns], target[first], count


def _occurrences(tokens: np.ndarray, lengths: np.ndarray, shapes: dict, base: int):
    """Per feature shape, its occurrences in one source's framed sentences.

    Occurrences are taken per n-gram order and skip template at every
    target position it fits; in shapes that can emit a feature twice in one
    event, each (event, feature) pair is kept once, at its first template.
    Yields each shape that occurs, the occurrences' context columns, their
    events, numbered across the source in text order, and the emission
    rank of their templates (`feature_shapes`).
    """
    starts = np.cumsum(lengths) - lengths
    position = np.arange(len(tokens)) - np.repeat(starts, lengths)
    targets = np.flatnonzero(position >= 1)
    k = position[targets]
    for shape, contexts in shapes.items():
        events = [np.flatnonzero(k >= reach) for reach, _, _ in contexts]
        at = [targets[e] for e in events]
        columns = [np.concatenate([tokens[p - d[j]] for p, (_, d, _) in zip(at, contexts)])
                   for j in range(shape[2])]
        rank = np.repeat([r for _, _, r in contexts], list(map(len, events)))
        event = np.concatenate(events)
        if len(contexts) > 1 and len(event):
            distinct, feature = np.unique(_rank_key(columns, base), return_inverse=True)
            pair = _rank_key([event, feature], max(len(k), len(distinct)))
            _, once = np.unique(pair, return_index=True)
            columns, event, rank = [c[once] for c in columns], event[once], rank[once]
        if len(event):
            yield shape, columns, event, rank


def _event_targets(tokens: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The target of each event of framed sentences: every token but a sentence's first."""
    return np.delete(tokens, np.cumsum(lengths) - lengths)


def count_files(paths, tags: Sequence[str | None], vocab: Vocabulary,
                config: ExtractorConfig) -> CountStore:
    """Count the links of training text files on integer arrays, file `paths[i]` under `tags[i]`.

    Equal, when saved, to `accumulate` over `extract_events` of every
    sentence of `TaggedCorpus.from_file`, with the file's tag. One file's
    arrays are held at a time; its links are kept per tag and feature
    shape, and the links of files sharing a tag are summed at the end.
    """
    shapes = feature_shapes(config)
    base = len(vocab)
    parts: dict[tuple, list] = {}
    total = 0
    for path, tag in zip(paths, tags):
        tokens, lengths, _ = framed_ids(path, vocab)
        target = _event_targets(tokens, lengths)
        total += len(target)
        for shape, columns, event, _ in _occurrences(tokens, lengths, shapes, base):
            parts.setdefault((tag, shape), []).append(_links(columns, target[event], base))

    names: list[str] = []
    empty = np.zeros(0, np.int64)
    firsts, words, counts = [], [empty.astype(np.int32)], [empty]
    for (tag, shape), group in parts.items():
        columns, target, count = group[0]
        if len(group) > 1:
            # Files that share a tag: sum the counts of the links they share.
            columns, target, count = _links(
                [np.concatenate(c) for c in zip(*(part[0] for part in group))],
                np.concatenate([part[1] for part in group]), base,
                np.concatenate([part[2] for part in group]),
            )
        # Links are in (context, target) order: a new context starts a feature.
        new = np.zeros(len(target), bool)
        new[0] = True
        for c in columns:
            new[1:] |= c[1:] != c[:-1]
        firsts.append(new)
        names += render_rows([c[new] for c in columns], shape, tag, vocab)
        words.append(target)
        counts.append(count)
    offsets = np.flatnonzero(np.concatenate([*firsts, [True]]))
    return CountStore(Rows(None, offsets, np.concatenate(words), names), np.concatenate(counts),
                      total)


class HeldOut:
    """Held-out events compiled against one `Rows` layout: an entry per known feature occurrence.

    Entries are in event order and, within an event, in the order
    `score_event` visits its features: ``event`` is the entry's event and
    ``row`` its feature's row of `layout`. ``starts`` holds each event's
    first entry, then the number of entries. Event j predicts word
    ``target[j]`` and, when read from text, comes from line ``line[j]``.
    ``link``, the link (row, target) of each entry or -1 where the row has
    none, is searched the first time it is read, so a run that scores
    nothing searches nothing.
    """

    def __init__(self, layout: Rows, event: np.ndarray, row: np.ndarray, target: np.ndarray,
                 line: np.ndarray | None = None):
        self.layout, self.event, self.row, self.target, self.line = layout, event, row, target, line
        self.starts = np.zeros(len(target) + 1, np.int64)
        np.cumsum(np.bincount(event, minlength=len(target)), out=self.starts[1:])

    @property
    def num_events(self) -> int:
        return len(self.target)

    @cached_property
    def link(self) -> np.ndarray:
        """The link (row, target) of each entry, or -1 where the row has none."""
        return self.layout.find(self.row, self.target[self.event])

    def batch(self, lo: int, hi: int) -> "HeldOut":
        """Events lo..hi-1, numbered from 0, with their slice of `link`."""
        a, b = int(self.starts[lo]), int(self.starts[hi])
        part = HeldOut(self.layout, self.event[a:b] - lo, self.row[a:b], self.target[lo:hi],
                       None if self.line is None else self.line[lo:hi])
        part.link = self.link[a:b]
        return part


class HeldText(NamedTuple):
    """Held-out text as word-id columns, before it meets the rows it is scored with.

    `shapes` holds what `_occurrences` gives, per feature shape that
    occurs: ``(shape, columns, event, rank)``. Each context occurs once per
    tag of `tags`, which is ``(None,)`` for untagged text; `ranks` bounds
    the emission ranks. Event j predicts word ``target[j]`` and comes from
    line ``line[j]``. No `Feature` is built: `names` gives the contexts'
    strings, and `held_out` compiles the events against a `Rows` layout.
    """

    shapes: list[tuple]
    tags: tuple[str | None, ...]
    ranks: int
    target: np.ndarray
    line: np.ndarray

    @classmethod
    def read(cls, path, vocab: Vocabulary, config: ExtractorConfig,
             tags: Sequence[str] = ()) -> "HeldText":
        """The events of a text file, with each feature expanded to one per tag of `tags`.

        Occurrences are taken as `count_files` takes them; a repeated tag
        counts once, as in `expand_tags`.
        """
        tokens, lengths, lines = framed_ids(path, vocab)
        shapes = feature_shapes(config)
        return cls(list(_occurrences(tokens, lengths, shapes, len(vocab))),
                   tuple(dict.fromkeys(tags)) or (None,),
                   1 + max(r for contexts in shapes.values() for _, _, r in contexts),
                   _event_targets(tokens, lengths).astype(np.int64), np.repeat(lines, lengths - 1))

    def names(self, vocab: Vocabulary) -> list[str]:
        """The string of each distinct context and tag, rendered as `count_files` renders rows."""
        names: list[str] = []
        for shape, columns, _, _ in self.shapes:
            if columns:
                _, first = np.unique(_rank_key(columns, len(vocab)), return_index=True)
                columns = [c[first] for c in columns]
            for tag in self.tags:
                names += render_rows(columns, shape, tag, vocab)
        return names

    def held_out(self, layout: Rows) -> HeldOut:
        """The events compiled against `layout`, with the occurrences of its rows' contexts.

        Equal to `compile_events` of `extract_events` of every sentence of
        `TaggedCorpus.from_file`, through `expand_tags` when the text is
        tagged: occurrences of contexts that no row has are dropped, and
        the rest are sorted by event, emission rank and tag. Per group of
        `layout.groups`, the rows' and the occurrences' columns get one joint
        `_rank_key`, as re-ranked keys compare only within one call, and
        the rows' keys are searched for the occurrences' keys.
        """
        groups = layout.groups
        keys, rows = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        for shape, columns, event, rank in self.shapes:
            for t, tag in enumerate(self.tags):
                if (shape, tag) not in groups:
                    continue
                row, words = groups[shape, tag]
                cols = [np.concatenate(c) for c in zip(words.T, columns)]
                key = (_rank_key(cols, 1 + max(int(c.max()) for c in cols)) if cols
                       else np.zeros(len(row) + len(event), np.int64))
                order = np.argsort(key[:len(row)])
                have, want = key[order], key[len(row):]
                pos = np.minimum(np.searchsorted(have, want), len(row) - 1)
                found = have[pos] == want
                keys.append((event[found] * self.ranks + rank[found]) * len(self.tags) + t)
                rows.append(row[order[pos[found]]])
        key = np.concatenate(keys)
        order = np.argsort(key)
        return HeldOut(layout, key[order] // (self.ranks * len(self.tags)),
                       np.concatenate(rows)[order], self.target, self.line)


def line_error(path, lineno: int, line: str, directive: str) -> DataError:
    """The error for a line that is neither `directive` on line 2 nor a row of 3 fields."""
    if lineno == 2 or line.startswith(directive):
        what = f"{directive.strip()} must come once, before the first row"
    elif line.startswith("#"):
        what = f"unknown directive {line!r}"
    else:
        what = "expected 3 tab-separated fields"
    return DataError(f"{path}:{lineno}: {what}")


class RowFile(NamedTuple):
    """A kind of sealed row file: line 1 is `header`, line 2 `directive` and a value.

    ``value(path, text, vocab)`` reads the value: a count file's event
    total, or None for a model file, whose rows hold cells. A version 1
    file has no trailer, and is rejected with what to do, `redo`.
    """

    name: str
    header: str
    directive: str
    value: Callable
    redo: str

    def preamble(self, value) -> str:
        """Lines 1 and 2 of a file whose line 2 holds `value`."""
        return f"{self.header}\n{self.directive}{value}\n"


def _event_total(path, text: str, vocab) -> int:
    """A count file's event total, at most 2^63-1."""
    try:
        total = natural(text)
    except ValueError:
        raise DataError(f"{path}:2: bad event total {text!r}") from None
    if total > _INT64_MAX:
        raise DataError(f"{path}:2: event total {text} is more than 2^63-1")
    return total


COUNT_FILE = RowFile("count", COUNTS_HEADER, _TOTAL_PREFIX, _event_total, "count it again")


def read_preamble(head: list[str], path, kind: RowFile, vocab: Vocabulary | None):
    """Check lines 1 and 2 of a `kind` file; return line 2's value as `kind` reads it."""
    if head[0] == kind.header[:-1] + "1\n":
        raise DataError(f"{path}:1: a v1 {kind.name} file has no trailer; {kind.redo}")
    if head[0].rstrip("\n") != kind.header:
        raise DataError(f"{path}:1: not a {kind.name} file (bad header)")
    line = head[1].rstrip("\n")
    if not line.startswith(kind.directive):
        raise line_error(path, 2, line, kind.directive)
    return kind.value(path, line[len(kind.directive):], vocab)


def read_rows(path, kind: RowFile, vocab: Vocabulary, keep: Iterable[str] | None = None):
    """Read a `kind` file a block at a time, storing only the rows `keep` names when it is given.

    The one reader of count and model files. Returns line 2's value, the
    `Rows` in file order, their values, each row's sum for a file of cells
    (else None), and the trailer's features per tag. Within a row, links
    are put in word id order.

    `keep` holds canonical feature strings, as `render_feature` and
    `HeldText.names` give them. A row is kept if its string is one of them:
    the rows equal those of the whole file so named, and a string that
    names no row, a non-canonical one included, keeps nothing. Kept rows
    keep their strings as `names`. The strings are sorted and screened once
    (`_screen`), and each block's kept rows bisected for (`_pick`).

    With `keep`, only the kept rows are split and checked (`row_blocks`):
    every other row is trusted for the trailer's digest, which the whole
    file is hashed against, with the trailer's row count and vocabulary
    digest. If one of them does not match, or a kept row fails its check,
    the file is read again with every row checked, as it is without
    `keep`, which names its first bad line, or else the trailer line. A row
    of cells must sum, in word id order as training sums it, to a finite
    float: else its first line is named.
    """
    parse = feature_parser(vocab)

    def read(keep):
        seal: list[tuple] = []
        firsts, names, features, words = [], [], [], [np.zeros(0, np.int32)]
        with closing(_blocks(path, kind, vocab, parse, keep, seal)) as blocks:
            total = next(blocks)
            values = [np.zeros(0, np.float64 if total is None else np.int64)]
            for b in blocks:
                # A block's first row may go on with the last row of the block before.
                firsts.append(b.first)
                names += compress(b.fs, b.first.tolist())
                features += b.features
                words.append(b.words)
                values.append(b.values)
        layout, order = Rows.sort_words(features, np.flatnonzero(np.concatenate([*firsts, [True]])),
                                        np.concatenate(words), None if keep is None else names)
        values = np.concatenate(values)[order]
        sums = None
        if total is None:
            sums = np.bincount(layout.row, values, minlength=len(layout))
            if not np.isfinite(sums).all():
                lineno = 3 + layout.offsets[np.argmin(np.isfinite(sums))]
                raise DataError(f"{path}:{lineno}: the cells of this row sum past the largest float")
        return total, layout, values, sums, seal[0][0]

    if keep is None:
        return read(None)
    with suppress(DataError):
        return read(_screen(keep))
    read(None)  # raises the error of the first bad line, or of the trailer
    raise AssertionError(f"{path}: the full check passes where the kept rows failed theirs")


# Rows are read and checked this many lines at a time: about 64 KiB of count rows.
_BLOCK_LINES = 2048


class _Block(NamedTuple):
    """Checked rows: ``lines[i]`` is feature ``fs[i]``, word ``ws[i]`` and ``values[i]``.

    ``first[i]`` is whether row i begins a feature. Checked against a
    vocabulary, `features` are those rows' features and `words` the word
    ids, else both are None. `plain` is whether no character is below the tab.
    """

    lines: list[str]
    fs: list[str]
    ws: list[str]
    values: np.ndarray
    first: np.ndarray
    features: list[Feature] | None
    words: np.ndarray | None
    plain: bool


# A trailer line, named by the kind of its value.
_SEAL_LINE = re.compile(r"#(?:rows (?P<rows>\d+)|features (?:(?P<tag>[^ ]+) )?(?P<features>\d+)"
                        r"|vocab-sha256 (?P<vocab>[0-9a-f]{64})|sha256 (?P<sha256>[0-9a-f]{64}))\n",
                        re.ASCII)


def _read_seal(path, lineno: int, lines: Iterable[str], sha, directive: str, vocab: str | None):
    """The features per tag, vocabulary digest and its line of the trailer at line `lineno`.

    The trailer is `lines`, to the end of the file: ``#rows R``,
    ``#features N`` untagged and ``#features TAG N`` per tag,
    ``#vocab-sha256 HEX``, and last ``#sha256 HEX``, each line ending in a
    newline. The first line that breaks this, or the end of the file
    before the last one, raises `DataError` naming it. So does a trailer
    that does not seal the rows before it: the last line must be the
    SHA-256 of all text before it, which `sha` has hashed up to `lines`,
    R the number of rows, and HEX `vocab` if it is given. A misplaced
    line-2 `directive` is named as such.
    """
    rows, tags, digest = None, {}, None
    it = chain(lines, [""])
    for n, line in enumerate(it, lineno):
        m = _SEAL_LINE.fullmatch(line)
        kind = m and m.lastgroup
        want = ["rows"] if rows is None else ["features", "vocab"] if digest is None else ["sha256"]
        if kind not in want:
            text = line.rstrip("\n")
            if not line:
                raise DataError(f"{path}:{n}: no trailer: the file ends before its #sha256 line")
            if text[:1] == "#" and text.split(" ")[0] not in _SEAL_KEYS.values():
                raise line_error(path, n, text, directive)
            want = " or ".join(_SEAL_KEYS[k] for k in want)
            raise DataError(f"{path}:{n}: expected a {want} line of the trailer, got {text!r}")
        if kind == "sha256":
            break
        sha.update(line.encode())
        if kind == "rows":
            rows = int(m["rows"])
        elif kind == "features":
            tags[m["tag"]] = int(m["features"])
        else:
            digest = m["vocab"]
    if next(it):
        raise DataError(f"{path}:{n + 1}: the file goes on after its #sha256 line")
    if m["sha256"] != sha.hexdigest():
        raise DataError(f"{path}:{n}: changed after it was written: "
                        "the lines before this one do not have this SHA-256")
    if rows != lineno - 3:
        raise DataError(f"{path}:{lineno}: the file has {lineno - 3} rows, not {rows}")
    if vocab not in (None, digest):
        raise DataError(f"{path}:{n - 1}: written with another vocabulary")
    return tags, digest, n - 1


def _feature(line: str) -> str:
    return line[:line.find("\t")]


def _screen(keep: Iterable[str]) -> tuple[list[str], set[str]]:
    """The sorted distinct strings of `keep`, and those `_pick` bisects for with a key.

    Those are the strings that are not printable: every string with a
    character at or below the tab (the tab and the newline, which name no
    row, included), and the rare one with another control or format
    character, for which the key is exact too.
    """
    names = sorted(set(keep))
    return names, {s for s in names if not s.isprintable()}


def _pick(lines: list[str], keep: tuple[list[str], set[str]]) -> list[str]:
    """The lines, rows sorted by feature, whose feature is one of the strings `keep` screened.

    `keep` is what `_screen` gives. Each kept feature's first row is
    bisected for, and its other rows follow it. A printable string holds
    no character at or below the tab, and is bisected for among whole
    lines, with no key: a row's feature ends in a tab, which sorts below
    every character of the string, so a line sorts before the string
    exactly when its feature does. Any other string is bisected for on the
    feature field alone (`_feature`), as a character below the tab sorts a
    whole line apart from its feature.
    """
    names, keyed = keep
    picked, at = [], 0
    for name in names[bisect_left(names, _feature(lines[0])) :
                      bisect_right(names, _feature(lines[-1]))]:
        end = at = bisect_left(lines, name, at, key=_feature if name in keyed else None)
        head = name + "\t"
        while end < len(lines) and lines[end].startswith(head):
            end += 1
        picked += lines[at:end]
        at = end
    return picked


def _blocks(path, kind: RowFile, vocab: Vocabulary | None = None, parse=None,
            keep: tuple[list[str], set[str]] | None = None, seal: list | None = None) -> Iterator:
    """Line 2's value of a `kind` file (`read_preamble`), then its rows (`row_blocks`).

    Lines are read as written, with no line ending translated, and hashed.
    After the rows comes the trailer (`_read_seal`), which must seal them,
    under the digest of `vocab` if given; what `_read_seal` returns is
    appended to `seal`. The file is opened on the first `next`.
    """
    index, digest = (None, None) if vocab is None else (vocab.index, vocab.digest)
    with open_text(path, newline="\n") as fh:
        head = [fh.readline(), fh.readline()]
        total = read_preamble(head, path, kind, vocab)
        yield total
        sha = hashlib.sha256("".join(head).encode())
        lineno, rest = yield from row_blocks(path, fh, total, index, parse, keep, sha)
        if not rest:
            raise DataError(f"{path}:{lineno}: no trailer: the file ends after its rows")
        found = _read_seal(path, lineno, chain(rest, fh), sha, kind.directive, digest)
    if seal is not None:
        seal.append(found)


def row_blocks(path, fh, total: int | None, index, parse,
               keep: tuple[list[str], set[str]] | None, sha) -> Iterator[_Block]:
    """The rows of a count file of event total `total`, or of a model file if None, as `_Block`s.

    Rows start at line 3 and end at the first line that starts with ``#``;
    their text is hashed into `sha`. They are checked
    `_BLOCK_LINES` at a time (`_check`), and the lines of a block that
    fails one by one (`_first_error`), to name its first bad line. With
    `keep`, feature strings as `_screen` gives them, only the rows of those
    features are checked (`_pick`), and a kept row that fails raises its reason.
    Returns the number of the line after the rows and the lines read from
    it on.
    """
    lineno, prev, carry = 3, None, 0
    while lines := list(islice(fh, _BLOCK_LINES)):
        text = "".join(lines)
        cut = 0 if text[0] == "#" else text.find("\n#") + 1 or len(text)
        sha.update(text[:cut].encode())
        rows = lines if cut == len(text) else lines[:text.count("\n", 0, cut)]
        block = _pick(rows, keep) if keep is not None and rows else rows
        if block:
            if isinstance(checked := _check(block, prev, carry, total, index, parse), str):
                if keep is not None:
                    raise DataError(checked)
                raise _first_error(path, lineno, block, prev, carry, total, index, parse)
            b, carry = checked
            yield b
            prev = (b.fs[-1], b.ws[-1])
        if rows is not lines:
            return lineno + len(rows), lines[len(rows):]
        lineno += len(lines)
    return lineno, []


def _counts(cs: list[str], total: int):
    """Counts of ASCII digits, at least 1, in uint64, or why the first is bad.

    A count past the event total `total` is read as ``total + 1``.
    """
    text = "".join(cs)
    digit = np.frombuffer(text.encode(), np.uint8) - ord("0")
    width = np.fromiter(map(len, cs), np.int64, len(cs))
    if width.min() < 1 or (digit > 9).any():
        return f"bad count {cs[0]!r}"
    start = np.cumsum(width) - width
    if width.max() <= 18:  # up to 18 digits fit int64
        power = np.repeat(start + width, width) - np.arange(len(digit)) - 1
        counts = np.add.reduceat(digit * 10 ** power, start).astype(np.uint64)
    else:
        try:
            counts = np.fromiter((min(int(c), total + 1) for c in cs), np.uint64, len(cs))
        except ValueError:  # more digits than `int` reads
            return f"bad count {cs[0]!r}"
    if counts.min() < 1:
        return f"count must be positive, got {counts.min()}"
    return counts


def read_cells(cs: list[str]):
    """Model cells as `float` reads them, finite and at least 0, or why the first is bad."""
    text = "\n".join(cs)
    try:
        # float() also reads "1_0", " 1" and non-ASCII digits; no writer does.
        if not text.isascii() or "_" in text or text.split() != cs:
            raise ValueError(text)
        cells = np.fromiter(map(float, cs), np.float64, len(cs))
    except ValueError:
        return f"bad value {cs[0]!r}"
    if not ((cells >= 0.0) & (cells < np.inf)).all():
        return f"value must be finite and non-negative, got {cs[0]}"
    return cells


def _check(lines: list[str], prev, carry: int, total: int | None, index, parse):
    """The `_Block` of `lines` and the count sum of its last feature, or why a row is bad.

    Each line holds 3 tab-separated fields: feature, word and value.
    Values are counts under the event total `total` (`_counts`), or cells
    if it is None (`read_cells`). Rows strictly increase by (feature, word)
    from the row keyed `prev`, whose counts sum to `carry` so far, and no
    feature's counts sum past the total, as an event counts a feature
    once. Given the vocabulary `index`, words are looked up, and each new
    feature string is parsed by `parse`. There is no per-row Python; the
    reason is a line's error message when `lines` is that one line.
    """
    if lines[-1][-1] != "\n":  # a file's last line may end without one
        lines[-1] += "\n"
    text = "".join(lines)
    raw = np.frombuffer(text.encode(), np.uint8)
    tabs, breaks = np.flatnonzero(raw == 9), np.flatnonzero(raw == 10)
    # Line k holds tabs 2k and 2k+1: the last before line break k, the next after it.
    if len(tabs) != 2 * len(breaks) or not ((tabs[1::2] < breaks).all()
                                            and (tabs[2::2] > breaks[:-1]).all()):
        return "expected 3 tab-separated fields"
    fields, n = text.replace("\n", "\t").split("\t"), len(lines)
    fs, ws, cs = fields[0:-1:3], fields[1::3], fields[2::3]
    values = read_cells(cs) if total is None else _counts(cs, total)
    if isinstance(values, str):
        return values
    # Whether each row has the feature of the row before. From the row keyed
    # `prev` on, features increase from run to run and words within a run.
    same = list(map(eq, fs, [prev and prev[0], *fs]))
    names = list(compress(fs, map(not_, same)))
    runs = [prev[0], *names] if prev else names
    words = [prev and prev[1], *ws]
    if not (all(map(lt, runs, runs[1:]))
            and all(map(lt, compress(words, same), compress(ws, same)))):
        return "rows out of order"
    same = np.array(same)
    if total is not None:
        # Feature sums in uint64 wrap only past the first partial sum past the
        # total, which is below 2^64 as no count is.
        part = values.copy()
        part[0] += np.uint64(carry if same[0] else 0)
        sums = np.cumsum(part)
        sums -= (sums - part)[np.maximum.accumulate(np.where(same, 0, np.arange(n)))]
        if values.max() > total or sums.max() > total:
            what = f"count {cs[0]}" if values.max() > total else f"row sum of {fs[0]}"
            return f"{what} is more than the event total {total}"
        carry, values = int(sums[-1]), values.astype(np.int64)
        if "\t0" in "\t" + "\t".join(cs):  # leading zeros: rewrite as `save_rows` writes rows
            lines = list(map("{}\t{}\t{}\n".format, fs, ws, values.tolist()))
    features = ids = None
    if index is not None:
        ids = np.fromiter(map(index.get, ws, repeat(-1)), np.int32, n)
        if ids.min() < 0:
            return f"unknown word {ws[0]!r}"
        try:
            features = list(map(parse, names))
        except DataError as exc:
            return str(exc)
    return _Block(lines, fs, ws, values, ~same, features, ids, raw.min() > 8), carry


def _first_error(path, lineno: int, lines: list[str], prev, carry: int, total: int | None,
                 index, parse) -> DataError:
    """The error of the first bad line of a block that failed `_check`: each line is checked alone."""
    for lineno, line in enumerate(lines, lineno):
        checked = _check([line], prev, carry, total, index, parse)
        if isinstance(checked, str):
            return DataError(f"{path}:{lineno}: {checked}")
        b, carry = checked
        prev = (b.fs[0], b.ws[0])
    raise AssertionError(f"{path}:{lineno}: each line passes the check its block failed")


def merge_files(paths, out_path) -> None:
    """Merge sorted count files into one sealed file, summing duplicate links.

    A merge join holding one `_Block` per input: each round merges the
    inputs' rows up to the smallest last key of their blocks and writes
    them as one chunk. Rows are checked as `CountStore.load` checks them,
    words and feature strings aside; each input's trailer must seal its
    rows, and all under one vocabulary digest, which the output's trailer
    carries. `atomic_write` leaves no partial output. Inputs' rows sum to
    at most their totals, so merged rows do too: only a merged total past
    2^63-1 raises `DataError`.
    """
    if not paths:
        raise ValueError("merge_files needs at least one input")
    seals: list[list[tuple]] = [[] for _ in paths]
    streams = [_blocks(path, COUNT_FILE, seal=seal) for path, seal in zip(paths, seals)]
    try:
        total = sum(next(s) for s in streams)
        if total > _INT64_MAX:
            raise DataError(f"merging {', '.join(map(str, paths))}: "
                            "#total-events is more than 2^63-1")
        with atomic_write(out_path) as fh:
            out = _Sealer(fh, COUNT_FILE.preamble(total))
            written, tags, last = 0, Counter(), None
            pending = [c for s in streams if (c := _cursor(s))]
            while pending:
                bound = min(c[2] for c in pending)
                lines, fs, ws, counts, plain = [], [], [], [], True
                for c in pending:
                    _, b, _, start = c
                    c[3] = end = bisect_right(b.lines, bound, start, key=_link)
                    lines += b.lines[start:end]
                    fs += b.fs[start:end]
                    ws += b.ws[start:end]
                    counts.append(b.values[start:end])
                    plain &= b.plain
                pending = [d for c in pending
                           if (d := c if c[3] < len(c[1].lines) else _cursor(c[0]))]
                # With no character below the tab, lines sort as their (feature, word) keys.
                n = len(lines)
                order = sorted(range(n), key=(lines if plain else list(zip(fs, ws))).__getitem__)
                fs, ws, lines = (list(map(x.__getitem__, order)) for x in (fs, ws, lines))
                # The rows that start a feature, and those that start a link.
                new = np.fromiter(map(ne, fs, [last, *fs]), bool, n)
                first = np.flatnonzero(new | np.fromiter(map(ne, ws, [None, *ws]), bool, n))
                if len(first) < n:  # links of several inputs: write their count sums
                    several = np.diff(first, append=n) > 1
                    sums = np.add.reduceat(np.concatenate(counts)[order], first)[several]
                    summed = first[several].tolist()
                    rows = np.array(lines, object)
                    rows[summed] = list(map("{}\t{}\t{}\n".format, map(fs.__getitem__, summed),
                                            map(ws.__getitem__, summed), sums.tolist()))
                    lines = rows[first].tolist()
                out.write("".join(lines))
                written += len(lines)
                tags.update(_features_per_tag(list(compress(fs, new))))
                last = fs[-1]
            vocab = seals[0][0][1]
            for path, [(_, other, at)] in zip(paths, seals):
                if other != vocab:
                    raise DataError(f"{path}:{at}: written with another vocabulary")
            out.seal(written, tags, vocab)
    finally:
        for s in streams:
            s.close()


def _link(line: str) -> tuple[str, str]:
    """The (feature, word) key of a row."""
    f, w, _ = line.split("\t", 2)
    return f, w


def _cursor(stream) -> list | None:
    """An input's next block to merge: [stream, block, its last key, its first row not merged]."""
    b = next(stream, None)
    return None if b is None else [stream, b, (b.fs[-1], b.ws[-1]), 0]
