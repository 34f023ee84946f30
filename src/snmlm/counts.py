"""Link and feature count accumulation and count files.

Counts are exact integers; the link design (`snmlm.metafeatures`) turns them
into relative frequencies once per training run. Count tables persist as
sorted TSV so that independently produced shards can be combined with a
sequential merge join.
"""

from __future__ import annotations

import heapq
import os
from contextlib import closing
from itertools import chain
from typing import Iterable, Iterator

from .corpus import Vocabulary, natural
from .errors import DataError
from .extraction import Event, Feature, feature_parser, render_feature

COUNTS_HEADER = "#snm-counts v1"
_TOTAL_PREFIX = "#total-events "
# Counts and their row sums are int64 in the link design.
_MAX_COUNT = (1 << 63) - 1


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
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{COUNTS_HEADER}\n{_TOTAL_PREFIX}{self.total_events}\n")
            write_rows(fh, self.rows, vocab)

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


def write_rows(fh, rows: dict[Feature, dict], vocab: Vocabulary) -> list[str]:
    """Write every link as ``feature<TAB>word<TAB>value``, sorted by (feature, word).

    The one writer of count and model rows: ``f"{value}"`` renders a count
    as `str(int)` and a model cell as `repr(float)`. Returns each row's
    rendered feature, in `rows` order.
    """
    words = vocab.words
    names = [render_feature(f, vocab) for f in rows]
    entries = [(fs, words[w], v) for fs, row in zip(names, rows.values()) for w, v in row.items()]
    # Each (feature, word) comes once, so the sort never compares values.
    entries.sort()
    for fs, ws, v in entries:
        fh.write(f"{fs}\t{ws}\t{v}\n")
    return names


def _entry_stream(path) -> Iterator:
    """The count file's event total, then its rows as (feature, word, count, line).

    The total comes from the one `#total-events` line, which must precede
    the first row (0 when there is none). Rows must be strictly increasing
    by (feature, word), as `CountStore.save` writes them, and each feature's
    counts must sum to at most 2^63-1. A violation raises `DataError` with
    the file and line when the stream reaches it. The file is opened on the
    first `next` and closed when the stream ends or is closed.
    """
    with open(path, encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != COUNTS_HEADER:
            raise DataError(f"{path}: not a count file (bad header)")
        total: int | None = None
        prev: tuple[str, str] | None = None
        row_fs, row_sum = None, 0
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            if line[0] == "#":
                if line.startswith(_TOTAL_PREFIX):
                    if total is not None or prev is not None:
                        raise DataError(
                            f"{path}:{lineno}: #total-events must come once, before the first row"
                        )
                    text = line[len(_TOTAL_PREFIX):]
                    try:
                        total = natural(text)
                    except ValueError:
                        raise DataError(f"{path}:{lineno}: bad event total {text!r}") from None
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
            fs, ws, cs = parts
            try:
                c = natural(cs)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad count {cs!r}") from None
            if c < 1:
                raise DataError(f"{path}:{lineno}: count must be positive, got {c}")
            key = (fs, ws)
            if prev is None:
                yield total or 0
            elif key <= prev:
                raise DataError(f"{path}:{lineno}: rows out of order")
            prev = key
            if fs == row_fs:
                row_sum += c
            else:
                row_fs, row_sum = fs, c
            if row_sum > _MAX_COUNT:
                what = f"count {cs}" if c > _MAX_COUNT else f"row sum of {fs}"
                raise DataError(f"{path}:{lineno}: {what} is more than 2^63-1")
            yield fs, ws, c, lineno
        if prev is None:
            yield total or 0


def merge_files(paths, out_path) -> None:
    """Merge sorted count files into one, summing duplicate links.

    A sequential merge join over the inputs: memory use is bounded by the
    number of files, not their size. Rows go to a temporary file next to
    `out_path` that replaces it only after the last row, so an input rejected
    part way leaves no partial output and any earlier file as it was. A
    merged count, row sum or event total past 2^63-1, which no reader
    accepts, raises `DataError` naming the inputs, and leaves nothing either.
    """
    streams = [_entry_stream(path) for path in paths]
    tmp_path = f"{out_path}.{os.getpid()}.tmp"

    def too_big(what: str) -> DataError:
        return DataError(f"merging {', '.join(map(str, paths))}: {what} is more than 2^63-1")

    try:
        grand_total = sum(next(s) for s in streams)
        if grand_total > _MAX_COUNT:
            raise too_big("#total-events")
        with open(tmp_path, "w", encoding="utf-8") as out:
            out.write(f"{COUNTS_HEADER}\n{_TOTAL_PREFIX}{grand_total}\n")
            current_fs = current_ws = None
            current = row_sum = 0
            # The end marker completes the last link and row. A link or row is
            # checked once complete: an input failing its own check within it
            # has failed first, naming its line.
            for fs, ws, c, _ in chain(heapq.merge(*streams), [(None, None, 0, 0)]):
                if ws == current_ws and fs == current_fs:
                    current += c
                else:
                    if current_fs is not None:
                        if current > _MAX_COUNT:
                            raise too_big(f"count of ({current_fs}, {current_ws})")
                        if fs != current_fs:
                            if row_sum > _MAX_COUNT:
                                raise too_big(f"row sum of {current_fs}")
                            row_sum = 0
                        out.write(f"{current_fs}\t{current_ws}\t{current}\n")
                    current_fs, current_ws, current = fs, ws, c
                row_sum += c
        os.replace(tmp_path, out_path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise
    finally:
        for s in streams:
            s.close()
