"""Link and feature counts: counting training text, count files, and the in-memory store.

Counts are exact integers; the link design (`snmlm.metafeatures`) turns them
into relative frequencies once per training run. Count tables persist as
sorted TSV so that independently produced shards can be combined with a
sequential merge join.

Training text is counted on integer arrays (`count_files`, which `snmlm
count` runs): no `Event` or `Feature` object is built, and a feature's
string is rendered only to write it. `accumulate` counts `Event`s into a
`CountStore` of dict rows, the in-memory form that `CountStore.load` also
returns and that training reads. Both write through `write_rows`.
"""

from __future__ import annotations

import heapq
from contextlib import closing
from itertools import chain
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


class CountStore:
    """Link counts C_fw, feature counts C_f*, and the event total.

    ``feature_counts[f]`` always equals the exact integer sum of the row
    ``rows[f]``; absent keys mean count zero. A store read by `load` also
    has `file_features`: per corpus tag (None for untagged), the number of
    features in the file, including rows a filtered load did not keep.
    """

    __slots__ = ("rows", "feature_counts", "total_events", "file_features")

    def __init__(self):
        self.rows: dict[Feature, dict[int, int]] = {}
        self.feature_counts: dict[Feature, int] = {}
        self.total_events = 0
        self.file_features: dict[str | None, int] = {}

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def num_links(self) -> int:
        return sum(len(row) for row in self.rows.values())

    def add_event(self, event: Event) -> None:
        """Count one event; `accumulate` is the bulk counting loop."""
        self.total_events += 1
        target = event.target
        rows = self.rows
        fcounts = self.feature_counts
        for f in event.features:
            row = rows.get(f)
            if row is None:
                row = rows[f] = {}
            row[target] = row.get(target, 0) + 1
            fcounts[f] = fcounts.get(f, 0) + 1

    def intersect(self, keep: Iterable[Feature]) -> "CountStore":
        """Sub-store with the full rows of the given features.

        Features never seen in training simply contribute no row. Feature
        counts keep their full training-data values.
        """
        keep = set(keep)
        out = CountStore()
        for f, row in self.rows.items():
            if f in keep:
                out.rows[f] = dict(row)
                out.feature_counts[f] = self.feature_counts[f]
        out.total_events = self.total_events
        return out

    # -- persistence ------------------------------------------------------

    def save(self, path, vocab: Vocabulary) -> None:
        names = [render_feature(f, vocab) for f in self.rows]
        LinkCounts(names, *dict_links(self.rows, np.int64), self.total_events).save(path, vocab)

    @classmethod
    def load(cls, path, vocab: Vocabulary, keep: Iterable[Feature] | None = None) -> "CountStore":
        """Read a count file, storing only the rows of `keep` when it is given.

        Every line is validated and every feature string parsed, kept or not,
        so a file is rejected at the same line either way. With `keep` the
        store equals ``load(path, vocab).intersect(keep)``: the same rows in
        the same order.
        """
        keep = None if keep is None else set(keep)
        store = cls()
        rows = store.rows
        per_tag = store.file_features
        index = vocab.index
        parse = feature_parser(vocab)
        last_fs: str | None = None
        row: dict[int, int] | None = None
        with closing(_entry_stream(path)) as entries:
            store.total_events = next(entries)
            for fs, ws, c, lineno in entries:
                wid = index.get(ws)
                if wid is None:
                    raise DataError(f"{path}:{lineno}: unknown word {ws!r}")
                if fs != last_fs:
                    # Rows are sorted and parsing is one-to-one, so a new
                    # string is a new feature and each (feature, word) comes once.
                    last_fs = fs
                    try:
                        f = parse(fs)
                    except DataError as exc:
                        raise DataError(f"{path}:{lineno}: {exc}") from None
                    per_tag[f.tag] = per_tag.get(f.tag, 0) + 1
                    if keep is None or f in keep:
                        row = rows[f] = {}
                    else:
                        row = None
                if row is not None:
                    row[wid] = c
        _sum_rows(store)
        return store


def accumulate(events: Iterable[Event]) -> CountStore:
    """Count every (feature, target) link over a stream of events.

    One dict lookup per feature occurrence; rows keep first-seen order and
    feature counts are set once at the end as the row sums.
    """
    store = CountStore()
    rows = store.rows
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
    _sum_rows(store)
    store.total_events = total
    return store


def _sum_rows(store: CountStore) -> None:
    """Set every feature count C_f* to its row sum, in row order."""
    # Presized from rows: a dict comprehension would grow through resizes and
    # leave freed tables behind in the heap (about 4.5 MB at 155k features).
    fcounts = store.feature_counts = dict.fromkeys(store.rows)
    for f, row in store.rows.items():
        fcounts[f] = sum(row.values())


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


def dict_links(rows: dict[Feature, dict], dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The links of dict rows as `write_rows` takes them: row index, word id and value arrays."""
    lengths = np.fromiter(map(len, rows.values()), np.int64, len(rows))
    n = int(lengths.sum())
    return (
        np.repeat(np.arange(len(rows)), lengths),
        np.fromiter(chain.from_iterable(rows.values()), np.int64, n),
        np.fromiter(chain.from_iterable(r.values() for r in rows.values()), dtype, n),
    )


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


def _source_links(tokens: np.ndarray, lengths: np.ndarray, shapes: dict, base: int):
    """Per feature shape, the links one source's framed sentences yield.

    Occurrences are taken per n-gram order and skip template at every
    target position it fits; in shapes that can emit a feature twice in one
    event, each (event, feature) pair is kept once.
    """
    starts = np.cumsum(lengths) - lengths
    position = np.arange(len(tokens)) - np.repeat(starts, lengths)
    targets = np.flatnonzero(position >= 1)
    k = position[targets]
    for shape, contexts in shapes.items():
        events = [np.flatnonzero(k >= reach) for reach, _ in contexts]
        at = [targets[e] for e in events]
        columns = [np.concatenate([tokens[p - d[j]] for p, (_, d) in zip(at, contexts)])
                   for j in range(shape[2])]
        at = np.concatenate(at)
        if len(contexts) > 1 and len(at):
            distinct, feature = np.unique(_rank_key(columns, base), return_inverse=True)
            pair = _rank_key([np.concatenate(events), feature], max(len(k), len(distinct)))
            _, once = np.unique(pair, return_index=True)
            columns, at = [c[once] for c in columns], at[once]
        if len(at):
            yield shape, _links(columns, tokens[at], base)


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
        tokens, lengths = framed_ids(path, vocab)
        total += len(tokens) - len(lengths)
        for shape, links in _source_links(tokens, lengths, shapes, base):
            parts.setdefault((tag, shape), []).append(links)

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


def _entry_stream(path) -> Iterator:
    """The count file's event total, then its rows as (feature, word, count, line).

    Line 1 is the header, line 2 the `#total-events` line, and every later
    line a row. Rows must be strictly increasing by (feature, word), as
    `write_rows` writes them. An event counts a feature at most once, so
    each feature's counts sum to at most the total, itself at most 2^63-1.
    Any other line, a blank one included, and any violation raise
    `DataError` with the file and line when the stream reaches it. The file
    is opened on the first `next` and closed when the stream ends or is
    closed.
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
        prev: tuple[str, str] | None = None
        row_fs, row_sum = None, 0
        for lineno, line in enumerate(fh, start=3):
            line = line.rstrip("\n")
            parts = line.split("\t")
            if len(parts) != 3 or line[0] == "#":
                raise line_error(path, lineno, line, _TOTAL_PREFIX, 3)
            fs, ws, cs = parts
            try:
                c = natural(cs)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad count {cs!r}") from None
            if c < 1:
                raise DataError(f"{path}:{lineno}: count must be positive, got {c}")
            key = (fs, ws)
            if prev is not None and key <= prev:
                raise DataError(f"{path}:{lineno}: rows out of order")
            prev = key
            if fs == row_fs:
                row_sum += c
            else:
                row_fs, row_sum = fs, c
            if row_sum > total:
                what = f"count {cs}" if c > total else f"row sum of {fs}"
                raise DataError(f"{path}:{lineno}: {what} is more than the event total {total}")
            yield fs, ws, c, lineno


def merge_files(paths, out_path) -> None:
    """Merge sorted count files into one, summing duplicate links.

    A sequential merge join over the inputs: memory use is bounded by the
    number of files, not their size. The output is written by `atomic_write`,
    so an input rejected part way leaves no partial output and any earlier
    file as it was. Inputs' rows sum to at most their totals, so merged rows
    do too: only a merged total past 2^63-1 raises `DataError` naming the
    inputs, and leaves nothing either.
    """
    streams = [_entry_stream(path) for path in paths]
    try:
        total = sum(next(s) for s in streams)
        if total > _INT64_MAX:
            raise DataError(f"merging {', '.join(map(str, paths))}: "
                            "#total-events is more than 2^63-1")
        with atomic_write(out_path) as out:
            out.write(f"{COUNTS_HEADER}\n{_TOTAL_PREFIX}{total}\n")
            current_fs = current_ws = None
            current = 0
            # The end marker completes the last link.
            for fs, ws, c, _ in chain(heapq.merge(*streams), [(None, None, 0, 0)]):
                if ws == current_ws and fs == current_fs:
                    current += c
                else:
                    if current_fs is not None:
                        out.write(f"{current_fs}\t{current_ws}\t{current}\n")
                    current_fs, current_ws, current = fs, ws, c
    finally:
        for s in streams:
            s.close()
