"""Link and feature counts: counting training text, count files, and the in-memory store.

Counts are exact integers; the link design (`snmlm.metafeatures`) turns them
into relative frequencies once per training run. Count tables persist as
sorted TSV so that independently produced shards can be combined with a
sequential merge join.

Training text is counted on integer arrays (`count_files`, which `snmlm
count` runs): no `Event` or `Feature` object is built, and a feature's
string is rendered only to write it. `accumulate` counts `Event`s into a
`CountStore`, the arrays in row order that `CountStore.load` also fills
and that the link design reads as they are; its dict rows are views built
only when read. Both write through `write_rows`.

Held-out text takes the same occurrence step (`_occurrences`) into
`HeldOut`, the arrays that training and evaluation score; only its
distinct features become `Feature`s.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from contextlib import closing, suppress
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import eq, lt, ne, not_
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .corpus import Vocabulary, framed_ids, natural
from .errors import DataError
from .extraction import (
    Event,
    ExtractorConfig,
    Feature,
    feature_parser,
    feature_shapes,
    render_feature,
    render_rows,
)
from .files import atomic_write, open_text

COUNTS_HEADER = "#snm-counts v1"
_TOTAL_PREFIX = "#total-events "
# Counts and their row sums are int64 in the link design, and so are the
# keys `count_files` counts on.
_INT64_MAX = (1 << 63) - 1
# Rows whose links `row_dicts` converts to Python values at a time.
_ROW_GROUP = 2048


class CountStore:
    """Link counts C_fw, feature counts C_f* and the event total, as arrays in row order.

    Row r is feature ``features[r]``: links ``offsets[r]`` to ``offsets[r + 1]``
    to the ascending word ids `words`, seen `counts` times; ``row_sums[r]``
    is C_f*, their exact sum. No row is empty. Rows come first seen from
    `accumulate` and in file order from `load`, whose store also has
    `file_features`: per corpus tag (None for untagged), the number of
    features in the file, kept or not. `rows` and `feature_counts` are the
    same as dicts, built the first time they are read.
    """

    def __init__(self, features: list[Feature], offsets: np.ndarray, words: np.ndarray,
                 counts: np.ndarray, total_events: int,
                 file_features: dict[str | None, int] | None = None):
        self.features = features
        self.offsets, self.words, self.counts = offsets, words, counts
        self.row_sums = np.add.reduceat(counts, offsets[:-1])
        self.total_events = total_events
        self.file_features = {} if file_features is None else file_features

    @classmethod
    def from_rows(cls, rows: dict[Feature, dict[int, int]], total_events: int) -> "CountStore":
        """The store of dict rows of word id to count, in their order; words go in id order."""
        lens = np.fromiter(map(len, rows.values()), np.int64, len(rows))
        n = int(lens.sum())
        words = np.fromiter(chain.from_iterable(rows.values()), np.int32, n)
        counts = np.fromiter(chain.from_iterable(r.values() for r in rows.values()), np.int64, n)
        order = np.lexsort((words, np.repeat(np.arange(len(rows)), lens)))
        return cls(list(rows), np.concatenate(([0], np.cumsum(lens))), words[order],
                   counts[order], total_events)

    def __len__(self) -> int:
        return len(self.features)

    @property
    def num_links(self) -> int:
        return len(self.words)

    @cached_property
    def rows(self) -> dict[Feature, dict[int, int]]:
        """Each feature's row as a dict from word id to count, in row order."""
        return row_dicts(self.features, self.offsets, self.words, self.counts)

    @cached_property
    def feature_counts(self) -> dict[Feature, int]:
        """Each feature's count C_f*, in row order."""
        return dict(zip(self.features, self.row_sums.tolist()))

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
        counts keep their full training-data values.
        """
        keep = set(keep)
        kept = np.fromiter(map(keep.__contains__, self.features), bool, len(self))
        lens = np.diff(self.offsets)
        links = np.repeat(kept, lens)
        return CountStore(list(compress(self.features, kept)),
                          np.concatenate(([0], np.cumsum(lens[kept]))), self.words[links],
                          self.counts[links], self.total_events)

    # -- persistence ------------------------------------------------------

    def save(self, path, vocab: Vocabulary) -> None:
        LinkCounts([render_feature(f, vocab) for f in self.features],
                   np.repeat(np.arange(len(self)), np.diff(self.offsets)),
                   self.words, self.counts, self.total_events).save(path, vocab)

    @classmethod
    def load(cls, path, vocab: Vocabulary, keep: Iterable[Feature] | None = None) -> "CountStore":
        """Read a count file a block at a time, storing only the rows of `keep` when it is given.

        Every row is checked, kept or not (`_blocks`), so a file is rejected
        at the same line either way. A row is kept if its string renders a
        feature of `keep` and parses back to it: the store equals
        ``load(path, vocab).intersect(keep)``, rows in the same order.
        """
        if keep is not None:
            keep, wanted = set(keep), set()
            for f in keep:
                with suppress(IndexError, OverflowError, TypeError):  # no row names it
                    wanted.add(render_feature(f, vocab))
        index, parse = vocab.index, feature_parser(vocab)
        tags: Counter[str | None] = Counter()
        features: list[Feature] = []
        empty = np.zeros(0, np.int64)
        rows, words, counts = [empty], [empty.astype(np.int32)], [empty]
        row = -1  # the kept row that the last block ended in, or -1
        with closing(_blocks(path, index, parse)) as blocks:
            total = next(blocks)
            for b in blocks:
                tags += b.tags
                names = list(map(b.fs.__getitem__, b.starts.tolist()))
                # The kept row of the lines before the first row start, then of each row.
                runs = [row] + [-1] * len(names)
                for i in range(len(names)) if keep is None else np.flatnonzero(
                        np.fromiter(map(wanted.__contains__, names), bool, len(names))).tolist():
                    f = parse(names[i])
                    if keep is None or f in keep:
                        runs[i + 1] = len(features)
                        features.append(f)
                row = runs[-1]
                line = np.repeat(runs, np.diff(b.starts, prepend=0, append=len(b.fs)))
                kept = line >= 0
                rows.append(line[kept])
                words.append(np.fromiter(map(index.__getitem__, compress(b.ws, kept)), np.int32))
                counts.append(b.counts[kept])
        row, words = np.concatenate(rows), np.concatenate(words)
        order = np.lexsort((words, row))
        offsets = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=len(features)))))
        return cls(features, offsets, words[order], np.concatenate(counts)[order], total,
                   dict(tags))


def accumulate(events: Iterable[Event]) -> CountStore:
    """Count every (feature, target) link over a stream of events.

    One dict lookup per feature occurrence; the rows, in first-seen order,
    become the store's arrays once at the end (`CountStore.from_rows`).
    """
    rows: dict[Feature, dict[int, int]] = {}
    get = rows.get
    total = 0
    for features, target in events:
        total += 1
        for f in features:
            row = get(f)
            if row is None:
                rows[f] = {target: 1}
            else:
                row[target] = row.get(target, 0) + 1
    return CountStore.from_rows(rows, total)


def row_dicts(features: list[Feature], offsets: np.ndarray, words: np.ndarray,
              values: np.ndarray) -> dict[Feature, dict]:
    """Row r as ``{features[r]: {word: value}}`` of its links, in row order.

    Values are converted to Python numbers a group of rows at a time, so
    no list of every link's value is held next to the finished rows.
    """
    rows: dict[Feature, dict] = {}
    off = offsets.tolist()
    for g in range(0, len(features), _ROW_GROUP):
        end = min(g + _ROW_GROUP, len(features))
        base = off[g]
        ws = words[base : off[end]].tolist()
        vs = values[base : off[end]].tolist()
        for r in range(g, end):
            lo, hi = off[r] - base, off[r + 1] - base
            rows[features[r]] = dict(zip(ws[lo:hi], vs[lo:hi]))
    return rows


class LinkCounts(NamedTuple):
    """Counted links as arrays.

    Link i is (feature ``names[row[i]]``, word ``word[i]``), seen
    ``count[i]`` times.
    """

    names: list[str]
    row: np.ndarray
    word: np.ndarray
    count: np.ndarray
    total_events: int

    def save(self, path, vocab: Vocabulary) -> None:
        with atomic_write(path) as fh:
            fh.write(f"{COUNTS_HEADER}\n{_TOTAL_PREFIX}{self.total_events}\n")
            write_rows(fh, self.names, self.row, self.word, self.count, vocab)


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


def write_rows(fh, names: list[str], row: np.ndarray, word: np.ndarray, value: np.ndarray,
               vocab: Vocabulary) -> np.ndarray:
    """Write link i as ``names[row[i]]<TAB>word<TAB>value[i]``, sorted by (feature, word) string.

    The one writer of count and model rows: ``f"{value}"`` renders a count
    as `str(int)` and a model cell as `repr(float)`. Feature names and
    vocabulary words are ranked once each, and the links ordered on one key
    of the two ranks. Returns the rank of each feature's name.
    """
    rank = _ranks(names)
    key = _rank_key([rank[row], _ranks(vocab.words)[word]], max(len(names), len(vocab)))
    order = np.argsort(key)
    fs = map(names.__getitem__, row[order].tolist())
    ws = map(vocab.words.__getitem__, word[order].tolist())
    write = fh.write
    for f, w, v in zip(fs, ws, value[order].tolist()):
        write(f"{f}\t{w}\t{v}\n")
    return rank


# ---------------------------------------------------------------------------
# Counting training text on integer arrays

def _links(columns: list[np.ndarray], target: np.ndarray, base: int,
           weight: np.ndarray | None = None):
    """The distinct (context, target) links of occurrences, in (context, target) order.

    Returns the links' context columns, targets and counts: the number of
    occurrences of each, or the sum of their `weight`.
    """
    key = _rank_key([*columns, target], base)
    if weight is None:
        _, first, count = np.unique(key, return_index=True, return_counts=True)
    else:
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        count = np.zeros(len(first), np.int64)
        np.add.at(count, inverse, weight)
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
                config: ExtractorConfig) -> LinkCounts:
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
    rows, words, counts = [empty], [empty], [empty]
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
        rows.append(len(names) + np.cumsum(new) - 1)
        names += render_rows([c[new] for c in columns], shape, tag, vocab)
        words.append(target)
        counts.append(count)
    return LinkCounts(names, np.concatenate(rows), np.concatenate(words), np.concatenate(counts),
                      total)


class HeldOut(NamedTuple):
    """Held-out events as arrays, in the order `score_event` visits their features.

    Occurrence i is feature ``features[feature[i]]`` of event ``event[i]``;
    event j predicts word ``target[j]``. Occurrences follow events and,
    within an event, its features as `extract_events` and `expand_tags`
    give them. `features` are distinct. Read from text, event j comes from
    line ``line[j]``.
    """

    features: list[Feature]
    event: np.ndarray
    feature: np.ndarray
    target: np.ndarray
    line: np.ndarray | None = None

    @property
    def num_events(self) -> int:
        return len(self.target)

    @classmethod
    def from_events(cls, events: Sequence[Event]) -> "HeldOut":
        index: dict[Feature, int] = {}
        lens = np.fromiter(map(len, (e.features for e in events)), np.int64, len(events))
        # A feature is numbered when first seen.
        feature = [index.setdefault(f, len(index)) for e in events for f in e.features]
        return cls(list(index), np.repeat(np.arange(len(events)), lens),
                   np.array(feature, np.int64),
                   np.fromiter((e.target for e in events), np.int64, len(events)))

    @classmethod
    def read(cls, path, vocab: Vocabulary, config: ExtractorConfig,
             tags: Sequence[str] = ()) -> "HeldOut":
        """The events of a text file, with each feature expanded to one per tag of `tags`.

        Equal, occurrence for occurrence, to `from_events` of `extract_events`
        of every sentence of `TaggedCorpus.from_file`, through `expand_tags`
        when `tags` are given. Occurrences are taken as `count_files` takes
        them and sorted by event and emission rank; a `Feature` is built once
        per distinct context and tag.
        """
        tokens, lengths, lines = framed_ids(path, vocab)
        shapes = feature_shapes(config)
        ranks = 1 + max(r for contexts in shapes.values() for _, _, r in contexts)
        tagged = tuple(dict.fromkeys(tags)) or (None,)  # a repeated tag once, as `expand_tags`
        new = tuple.__new__
        features: list[Feature] = []
        keys, contexts = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        for (skip_pos, skip_len, _), columns, event, rank in _occurrences(
                tokens, lengths, shapes, len(vocab)):
            if columns:
                _, first, context = np.unique(_rank_key(columns, len(vocab)), return_index=True,
                                              return_inverse=True)
                words = zip(*(c[first].tolist() for c in columns))
            else:
                context, words = np.zeros(len(event), np.int64), [()]
            keys.append(event * ranks + rank)
            contexts.append(len(features) // len(tagged) + context)
            features += [new(Feature, (w, skip_pos, skip_len, t)) for w in words for t in tagged]
        key = np.concatenate(keys)
        order = np.argsort(key)
        # Context c has features c * len(tagged) + t, one per tag t in tag order.
        feature = np.concatenate(contexts)[order, None] * len(tagged) + np.arange(len(tagged))
        return cls(features, np.repeat(key[order] // ranks, len(tagged)), feature.ravel(),
                   _event_targets(tokens, lengths).astype(np.int64), np.repeat(lines, lengths - 1))


def line_error(path, lineno: int, line: str, directive: str, fields: int) -> DataError:
    """The error for a line that is neither `directive` on line 2 nor a row of `fields` fields."""
    if lineno == 2 or line.startswith(directive):
        what = f"{directive.strip()} must come once, before the first row"
    elif line.startswith("#"):
        what = f"unknown directive {line!r}"
    else:
        what = f"expected {fields} tab-separated fields"
    return DataError(f"{path}:{lineno}: {what}")


def read_preamble(fh, path, kind: str, header: str, directive: str) -> str:
    """Check the `header` line and `directive` line of a count or model file; return its value."""
    if fh.readline().rstrip("\n") != header:
        raise DataError(f"{path}: not a {kind} file (bad header)")
    line = fh.readline().rstrip("\n")
    if not line.startswith(directive):
        raise line_error(path, 2, line, directive, 3)
    return line[len(directive):]


# Rows are read and checked this many lines at a time: about 64 KiB of count rows.
_BLOCK_LINES = 2048


class _Block(NamedTuple):
    """Checked rows: ``lines[i]`` is feature ``fs[i]``, word ``ws[i]`` and ``counts[i]``.

    `starts` indexes the rows that begin a feature; `tags` counts them per tag.
    """

    lines: list[str]
    fs: list[str]
    ws: list[str]
    counts: np.ndarray
    starts: np.ndarray
    tags: Counter


def _blocks(path, index=None, parse=None) -> Iterator:
    """The event total of a count file, then its rows as `_Block`s of `_BLOCK_LINES` lines.

    Line 2 holds the total, at most 2^63-1. Each later line is a row of
    feature, word and an ASCII count of at least 1; rows strictly increase
    by (feature, word), and a feature's counts sum to at most the total, as
    an event counts a feature once. Given the vocabulary `index` and a
    feature `parse`r, words and feature strings are checked too. Only when
    a block fails its check (`_check`) are its lines checked one by one
    (`_first_error`). The file is opened on the first `next`.
    """
    with open_text(path) as fh:
        text = read_preamble(fh, path, "count", COUNTS_HEADER, _TOTAL_PREFIX)
        try:
            total = natural(text)
        except ValueError:
            raise DataError(f"{path}:2: bad event total {text!r}") from None
        if total > _INT64_MAX:
            raise DataError(f"{path}:2: event total {text} is more than 2^63-1")
        yield total
        lineno, prev, carry = 3, None, 0
        while lines := list(islice(fh, _BLOCK_LINES)):
            if isinstance(checked := _check(lines, prev, carry, total, index, parse), str):
                raise _first_error(path, lineno, lines, prev, carry, total, index, parse)
            b, carry = checked
            yield b
            lineno, prev = lineno + len(lines), (b.fs[-1], b.ws[-1])


def _check(lines: list[str], prev, carry: int, total: int, index, parse):
    """The `_Block` of `lines` and the count sum of its last feature, or why a row is bad.

    The rows follow the row keyed `prev`, whose feature's counts sum to
    `carry` so far. All rows are checked at once, with no per-row Python;
    the reason is a line's error message when `lines` is that one line.
    """
    n = len(lines)
    if lines[-1][-1] != "\n":  # a file's last line may end without one
        lines[-1] += "\n"
    text = "".join(lines)
    # Line k holds tabs 2k and 2k+1: the last comes before line break k, and
    # no tab follows it there, as line k's count is digits from there on.
    raw = np.frombuffer(text.encode(), np.uint8)
    tabs, breaks = np.flatnonzero(raw == 9), np.flatnonzero(raw == 10)
    if len(tabs) != 2 * n or not (tabs[1::2] < breaks).all() or text[0] == "#" or "\n#" in text:
        return "expected 3 tab-separated fields"
    fields = text.replace("\n", "\t").split("\t")
    fs, ws, cs = fields[0:-1:3], fields[1::3], fields[2::3]
    # Line k's count is bytes at[k] to breaks[k]. Up to 18 digits fit int64.
    at = tabs[1::2] + 1
    width = breaks - at
    start = np.cumsum(width) - width
    digit = raw[np.arange(width.sum()) + np.repeat(at - start, width)] - ord("0")
    if width.min() < 1 or (digit > 9).any():
        return f"bad count {cs[0]!r}"
    huge = False
    if width.max() <= 18:
        power = np.repeat(start + width, width) - np.arange(len(digit)) - 1
        counts = np.add.reduceat(digit * 10 ** power, start)
    else:
        try:
            values = list(map(int, cs))
        except ValueError:  # more digits than `int` reads
            return f"bad count {cs[0]!r}"
        # A count past the total is read as the total, so that it fits int64.
        huge = max(values) > total
        counts = np.fromiter(map(min, values, repeat(total)), np.int64, n)
    # Whether each row has the feature of the row before. From the row keyed
    # `prev` on, features increase from run to run and words within a run.
    same = list(map(eq, fs, [prev and prev[0], *fs]))
    names = list(compress(fs, map(not_, same)))
    runs = [prev[0], *names] if prev else names
    words = [prev and prev[1], *ws]
    ordered = all(map(lt, runs, runs[1:])) and all(map(lt, compress(words, same),
                                                           compress(ws, same)))
    same = np.array(same)
    # Feature sums in uint64 wrap only past the first partial sum past the
    # total, which is below 2^64 as no count is.
    part = counts.astype(np.uint64)
    part[0] += np.uint64(carry if same[0] else 0)
    sums = np.cumsum(part)
    sums -= (sums - part)[np.maximum.accumulate(np.where(same, 0, np.arange(n)))]
    if counts.min() < 1:
        return f"count must be positive, got {counts.min()}"
    if not ordered:
        return "rows out of order"
    if huge or counts.max() > total or sums.max() > total:
        what = f"count {cs[0]}" if huge or counts.max() > total else f"row sum of {fs[0]}"
        return f"{what} is more than the event total {total}"
    starts, tags = np.flatnonzero(~same), Counter()
    if index is not None:
        if not index.keys() >= set(ws):
            return f"unknown word {ws[0]!r}"
        valid, tag = parse.fast(names)
        tags[tag] = int(valid.sum())
        for name in compress(names, ~valid):
            try:
                tags[parse(name).tag] += 1
            except DataError as exc:
                return str(exc)
    if not digit[start].all():  # leading zeros: rewrite `lines` as `write_rows` writes rows
        lines = list(map("{}\t{}\t{}\n".format, fs, ws, counts.tolist()))
    return _Block(lines, fs, ws, counts, starts, tags), int(sums[-1])


def _first_error(path, lineno: int, lines: list[str], prev, carry: int, total: int,
                 index, parse) -> DataError:
    """The error of the first bad line of a block that failed `_check`: each line is checked alone."""
    for lineno, line in enumerate(lines, lineno):
        text = line.rstrip("\n")
        if len(text.split("\t")) != 3 or text[0] == "#":
            return line_error(path, lineno, text, _TOTAL_PREFIX, 3)
        checked = _check([line], prev, carry, total, index, parse)
        if isinstance(checked, str):
            return DataError(f"{path}:{lineno}: {checked}")
        b, carry = checked
        prev = (b.fs[0], b.ws[0])
    raise AssertionError(f"{path}:{lineno}: each line passes the check its block failed")


def merge_files(paths, out_path) -> None:
    """Merge sorted count files into one, summing duplicate links.

    A merge join holding one `_Block` per input: each round merges the
    inputs' rows up to the smallest last key of their blocks and writes
    them as one chunk. Rows are checked as `CountStore.load` checks them,
    words and feature strings aside, and `atomic_write` leaves no partial
    output. Inputs' rows sum to at most their totals, so merged rows do
    too: only a merged total past 2^63-1 raises `DataError`.
    """
    streams = [_blocks(path) for path in paths]
    try:
        total = sum(next(s) for s in streams)
        if total > _INT64_MAX:
            raise DataError(f"merging {', '.join(map(str, paths))}: "
                            "#total-events is more than 2^63-1")
        with atomic_write(out_path) as out:
            out.write(f"{COUNTS_HEADER}\n{_TOTAL_PREFIX}{total}\n")
            pending = [c for s in streams if (c := _cursor(s))]
            while pending:
                bound = min(c[2][-1] for c in pending)
                keys, lines, counts = [], [], []
                for c in pending:
                    _, b, block_keys, start = c
                    c[3] = end = bisect_right(block_keys, bound, start)
                    keys += block_keys[start:end]
                    lines += b.lines[start:end]
                    counts.append(b.counts[start:end])
                pending = [d for c in pending if (d := c if c[3] < len(c[2]) else _cursor(c[0]))]
                order = sorted(range(len(keys)), key=keys.__getitem__)
                keys = list(map(keys.__getitem__, order))
                lines = list(map(lines.__getitem__, order))
                first = np.flatnonzero(np.fromiter(map(ne, keys, [None, *keys]), bool, len(keys)))
                if len(first) < len(keys):  # links of several inputs: write their count sums
                    several = np.diff(first, append=len(keys)) > 1
                    sums = np.add.reduceat(np.concatenate(counts)[order], first)[several]
                    summed = first[several].tolist()
                    rows = np.array(lines, object)
                    rows[summed] = list(map("{0[0]}\t{0[1]}\t{1}\n".format,
                                            map(keys.__getitem__, summed), sums.tolist()))
                    lines = rows[first].tolist()
                out.write("".join(lines))
    finally:
        for s in streams:
            s.close()


def _cursor(stream) -> list | None:
    """An input's next block to merge: [stream, block, its keys, its first row not merged]."""
    b = next(stream, None)
    return None if b is None else [stream, b, list(zip(b.fs, b.ws)), 0]
