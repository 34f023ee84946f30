"""Link and feature count accumulation, relative frequencies, count files.

Counts are exact integers; relative frequencies are computed on demand.
Count tables persist as sorted TSV so that independently produced shards
can be combined with a sequential merge join.
"""

from __future__ import annotations

import heapq
import os
from typing import Iterable, Iterator

from .corpus import Vocabulary
from .errors import DataError
from .extraction import Event, Feature, parse_feature, render_feature

COUNTS_HEADER = "#snm-counts v1"
_TOTAL_PREFIX = "#total-events "


class CountStore:
    """Link counts C_fw, feature counts C_f*, and the event total.

    ``feature_counts[f]`` always equals the exact integer sum of the row
    ``rows[f]``; absent keys mean count zero.
    """

    __slots__ = ("rows", "feature_counts", "total_events")

    def __init__(self):
        self.rows: dict[Feature, dict[int, int]] = {}
        self.feature_counts: dict[Feature, int] = {}
        self.total_events = 0

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

    def link_count(self, f: Feature, w: int) -> int:
        row = self.rows.get(f)
        return row.get(w, 0) if row else 0

    def feature_count(self, f: Feature) -> int:
        return self.feature_counts.get(f, 0)

    def rel_freq(self, f: Feature, w: int) -> float:
        """c(w|f) = C_fw / C_f*; zero for an absent link."""
        total = self.feature_counts.get(f)
        if not total:
            raise DataError(f"unknown feature {f!r}")
        return self.rows[f].get(w, 0) / total

    def merge(self, other: "CountStore") -> None:
        """Add another store's counts into this one."""
        for f, row in other.rows.items():
            mine = self.rows.get(f)
            if mine is None:
                mine = self.rows[f] = {}
            for w, c in row.items():
                mine[w] = mine.get(w, 0) + c
            self.feature_counts[f] = self.feature_counts.get(f, 0) + other.feature_counts[f]
        self.total_events += other.total_events

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

    def strip_tags(self) -> "CountStore":
        """Pool per-tag rows into untagged rows by summing counts."""
        out = CountStore()
        for f, row in self.rows.items():
            bare = f._replace(tag=None)
            mine = out.rows.get(bare)
            if mine is None:
                mine = out.rows[bare] = {}
            for w, c in row.items():
                mine[w] = mine.get(w, 0) + c
            out.feature_counts[bare] = out.feature_counts.get(bare, 0) + self.feature_counts[f]
        out.total_events = self.total_events
        return out

    def check_consistency(self) -> None:
        """Assert the exact row-sum identity; used by tests."""
        for f, row in self.rows.items():
            assert self.feature_counts[f] == sum(row.values()), f
            assert all(c >= 1 for c in row.values()), f

    # -- persistence ------------------------------------------------------

    def save(self, path, vocab: Vocabulary) -> None:
        entries = []
        for f, row in self.rows.items():
            fs = render_feature(f, vocab)
            for w, c in row.items():
                entries.append((fs, vocab.words[w], c))
        entries.sort(key=lambda e: (e[0], e[1]))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(COUNTS_HEADER + "\n")
            fh.write(f"{_TOTAL_PREFIX}{self.total_events}\n")
            for fs, ws, c in entries:
                fh.write(f"{fs}\t{ws}\t{c}\n")

    @classmethod
    def load(cls, path, vocab: Vocabulary) -> "CountStore":
        store = cls()
        last_fs: str | None = None
        last_f: Feature | None = None
        prev_key: tuple[str, str] | None = None
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if header != COUNTS_HEADER:
                raise DataError(f"{path}: not a count file (bad header)")
            for lineno, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                if line.startswith("#"):
                    if line.startswith(_TOTAL_PREFIX):
                        store.total_events = int(line[len(_TOTAL_PREFIX):])
                    continue
                fs, ws, c = _parse_count_line(path, lineno, line)
                key = (fs, ws)
                if prev_key is not None and key <= prev_key:
                    raise DataError(f"{path}:{lineno}: rows out of order")
                prev_key = key
                wid = vocab.index.get(ws)
                if wid is None:
                    raise DataError(f"{path}:{lineno}: unknown word {ws!r}")
                if fs != last_fs:
                    last_fs = fs
                    last_f = parse_feature(fs, vocab)
                row = store.rows.get(last_f)
                if row is None:
                    row = store.rows[last_f] = {}
                row[wid] = row.get(wid, 0) + c
                store.feature_counts[last_f] = store.feature_counts.get(last_f, 0) + c
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
    # Presized from rows: a dict comprehension would grow through resizes and
    # leave freed tables behind in the heap (about 4.5 MB at 155k features).
    fcounts = store.feature_counts = dict.fromkeys(rows)
    for f, row in rows.items():
        fcounts[f] = sum(row.values())
    store.total_events = total
    return store


def _parse_count_line(path, lineno: int, line: str) -> tuple[str, str, int]:
    parts = line.split("\t")
    if len(parts) != 3:
        raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
    fs, ws, cs = parts
    try:
        c = int(cs)
    except ValueError:
        raise DataError(f"{path}:{lineno}: bad count {cs!r}") from None
    if c < 1:
        raise DataError(f"{path}:{lineno}: count must be positive, got {c}")
    return fs, ws, c


def _entry_stream(path) -> tuple[int, Iterator[tuple[tuple[str, str], int]]]:
    """The file's event total, and its (feature, word) keys with counts.

    Keys must be strictly increasing, as `CountStore.save` writes them; an
    out-of-order key raises `DataError` when the stream reaches it.
    """
    fh = open(path, encoding="utf-8")
    header = fh.readline().rstrip("\n")
    if header != COUNTS_HEADER:
        fh.close()
        raise DataError(f"{path}: not a count file (bad header)")
    lines = enumerate(fh, start=2)
    total = 0
    first: tuple[tuple[str, str], int] | None = None
    for lineno, line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith(_TOTAL_PREFIX):
                total = int(line[len(_TOTAL_PREFIX):])
            continue
        fs, ws, c = _parse_count_line(path, lineno, line)
        first = ((fs, ws), c)
        break

    def gen():
        try:
            if first is None:
                return
            yield first
            prev_key = first[0]
            for lineno, line in lines:
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                fs, ws, c = _parse_count_line(path, lineno, line)
                key = (fs, ws)
                if key <= prev_key:
                    raise DataError(f"{path}:{lineno}: rows out of order")
                prev_key = key
                yield key, c
        finally:
            fh.close()

    return total, gen()


def merge_files(paths, out_path) -> None:
    """Merge sorted count files into one, summing duplicate links.

    A sequential merge join over the inputs: memory use is bounded by the
    number of files, not their size. Rows go to a temporary file next to
    `out_path` that replaces it only after the last row, so an input rejected
    part way leaves no partial output and any earlier file as it was.
    """
    streams = []
    grand_total = 0
    for path in paths:
        total, gen = _entry_stream(path)
        grand_total += total
        streams.append(gen)
    tmp_path = f"{out_path}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8") as out:
            out.write(COUNTS_HEADER + "\n")
            out.write(f"{_TOTAL_PREFIX}{grand_total}\n")
            current_key: tuple[str, str] | None = None
            current = 0
            for key, c in heapq.merge(*streams):
                if key == current_key:
                    current += c
                else:
                    if current_key is not None:
                        out.write(f"{current_key[0]}\t{current_key[1]}\t{current}\n")
                    current_key, current = key, c
            if current_key is not None:
                out.write(f"{current_key[0]}\t{current_key[1]}\t{current}\n")
        os.replace(tmp_path, out_path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise
