"""The sparse adjusted matrix: its cells, its rows, scoring, perplexity.

A model row holds M_fw = c(w|f) * exp(A(f,w)) for every link counted in
training; the per-feature normalizer is the exact row sum. An event is
scored as the ratio of the summed target cells to the summed normalizers
over its features, which is a properly normalized distribution over the
vocabulary.

`adjusted_cells` computes the cells and row sums as arrays in the order of
a `LinkDesign`, and `materialize` puts them on the design's `Rows` as an
`SnmModel`, the one model shape that is scored, saved and loaded. Its row
dicts are built only when something reads them.

Held-out events (`HeldOut`, from `HeldText.held_out` over the rows that
score them) are scored on arrays: `compile_events` finds each feature
occurrence's row and target link, `_event_sums` adds each event's
normalizers and target cells in feature order, and `evaluate` takes each
`math.log` and their `math.fsum`. `perplexity` and the epoch
statistics of `train` both go this way, and equal a `score_event` loop
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .corpus import UNK_ID, Vocabulary
from .counts import (HeldOut, Rows, gather_rows, line_error, read_cells, read_preamble,
                     row_blocks, split_rows, write_rows)
from .errors import DataError
from .extraction import Event, Feature, feature_parser, render_feature
from .files import atomic_write, open_text
from .metafeatures import LinkDesign

MODEL_HEADER = "#snm-model v1"
_NORM_SECTION = "#normalizers"
_SIZE_PREFIX = "#vocab-size "
# A normalizer read from a file is its row's sum within this relative
# tolerance, the one that normalization is checked at.
_NORM_RTOL = 1e-9

# Events whose target is unreachable are floored at this probability.
PROB_FLOOR = 1e-10
_LOG_FLOOR = math.log(PROB_FLOOR)

# An adjustment beyond this indicates divergence rather than a usable model.
MAX_ABS_ADJUSTMENT = 50.0


class SnmModel:
    """The adjusted matrix over a `Rows` layout, with its row sums as normalizers.

    Link i of `layout` has the cell ``cells[i]``, and row r the normalizer
    ``row_sums[r]``. A trained model shares its layout with the design and
    the count store it was made of. `rows` and `normalizers` are the same
    as dicts, built the first time they are read.
    """

    def __init__(self, layout: Rows, cells: np.ndarray, row_sums: np.ndarray):
        self.layout, self.cells, self.row_sums = layout, cells, row_sums

    @cached_property
    def rows(self) -> dict[Feature, dict[int, float]]:
        """Each feature's row as a dict from word id to cell, in row order."""
        return self.layout.dicts(self.cells)

    @cached_property
    def normalizers(self) -> dict[Feature, float]:
        """Each feature's normalizer, in row order."""
        return dict(zip(self.layout.features, self.row_sums.tolist()))


class EventScore(NamedTuple):
    y_t: float
    y: float
    log_prob: float

    @property
    def floored(self) -> bool:
        return self.y_t == 0.0


@dataclass(frozen=True)
class EvalReport:
    num_events: int
    log_prob_sum: float
    ppl: float
    oov_targets: int
    floored_events: int

    @property
    def oov_rate(self) -> float:
        return self.oov_targets / self.num_events


def adjusted_cells(design: LinkDesign, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every cell M_fw = c(w|f) * exp(A(f,w)) and every row sum, in design order.

    An all-zero table gives the relative frequencies, read without hashing
    the design: each A(f,w) would be a sum of ``0.0 * weight`` terms from
    +0.0, so +0.0, and each cell ``rel_freq * exp(0.0)``.
    """
    if not theta.any():
        cells = design.rel_freq.copy()
        return cells, np.bincount(design.layout.row, cells, minlength=len(design.layout))
    a = design.adjustments(theta)
    bound = MAX_ABS_ADJUSTMENT
    if not (a.max(initial=0.0) <= bound and a.min(initial=0.0) >= -bound):
        i = int(np.argmin(np.abs(a) <= bound))
        f, w = design.link(i)
        raise DataError(
            f"adjustment diverged: |A|={abs(a[i]):.2f} on link "
            f"({render_feature(f, design.vocab)}, {design.vocab.words[w]})"
        )
    cells = np.exp(a, out=a)
    cells *= design.rel_freq
    return cells, np.bincount(design.layout.row, cells, minlength=len(design.layout))


def materialize(design: LinkDesign, cells: np.ndarray, row_sums: np.ndarray) -> SnmModel:
    """The model of `adjusted_cells`: the design's layout with the cells and row sums."""
    return SnmModel(design.layout, cells, row_sums)


def score_event(model: SnmModel, event: Event) -> EventScore:
    """Probability of the event's target under the model, walking its dict views.

    Features unknown to the model are dropped; with an empty-context row
    present there is always at least one known feature. A target that no
    known feature links to gets the floor probability. Scoring runs on
    arrays (`evaluate`); this walk stays only because
    `BatchAccumulator.add_event`, which the benchmark tracer hooks, calls it.
    """
    normalizers = model.normalizers
    rows = model.rows
    target = event.target
    y = 0.0
    y_t = 0.0
    known = False
    for f in event.features:
        nf = normalizers.get(f)
        if nf is None:
            continue
        known = True
        y += nf
        y_t += rows[f].get(target, 0.0)
    if not known or y <= 0.0:
        raise DataError("event has no features known to the model")
    log_prob = math.log(y_t / y) if y_t > 0.0 else _LOG_FLOOR
    return EventScore(y_t, y, log_prob)


class DevEvents(NamedTuple):
    """Events compiled against the rows of a design or model, an entry per known feature occurrence.

    Entries are in event order and, within an event, in feature order:
    ``event`` is the entry's event id, ``row`` its feature's row, and
    ``link`` the link (row, target), or -1 when the row has none. ``starts``
    holds each event's first entry, then the number of entries.
    """

    event: np.ndarray
    row: np.ndarray
    link: np.ndarray
    starts: np.ndarray

    @property
    def num_events(self) -> int:
        return len(self.starts) - 1

    def batch(self, lo: int, hi: int) -> "DevEvents":
        """Events lo..hi-1, numbered from 0."""
        a, b = int(self.starts[lo]), int(self.starts[hi])
        return DevEvents(
            self.event[a:b] - lo, self.row[a:b], self.link[a:b], self.starts[lo : hi + 1] - a
        )


def compile_events(held: HeldOut | Sequence[Event], layout: Rows) -> DevEvents:
    """Where each feature occurrence of held-out events lands in the rows of a design or model.

    Each distinct feature is looked up once. Features the rows lack are
    dropped, as `score_event` drops them; an event left with none raises
    its `DataError`. From `HeldText.held_out` over these rows, the
    features are those rows and nothing is left to drop.
    """
    if not isinstance(held, HeldOut):
        held = HeldOut.from_events(held)
    rows = np.fromiter(map(layout.row_index.get, held.features, repeat(-1)), np.int64,
                       len(held.features))
    row = rows[held.feature]
    known = row >= 0
    event, row = held.event[known], row[known]
    per_event = np.bincount(event, minlength=held.num_events)
    if not per_event.all():
        raise DataError("event has no features known to the model")
    starts = np.zeros(held.num_events + 1, dtype=np.int64)
    np.cumsum(per_event, out=starts[1:])
    target = held.target[event]
    # Links ascend by (row, word), so by this key. `v` exceeds every word and
    # target id, so a target past the vocabulary cannot alias another row.
    words = layout.words
    v = int(max(words.max(initial=0), target.max(initial=0))) + 1
    have = layout.row.astype(np.int64) * v + words
    want = row * v + target
    pos = np.minimum(np.searchsorted(have, want), len(have) - 1)
    return DevEvents(event, row, np.where(have[pos] == want, pos, -1), starts)


def _event_sums(dev: DevEvents, cells: np.ndarray, row_sums: np.ndarray) -> tuple[np.ndarray, ...]:
    """y and y_t of each event: its features' normalizers and target cells, summed.

    `np.bincount` adds in entry order, so each sum equals `score_event`'s
    bit for bit.
    """
    n = dev.num_events
    y = np.bincount(dev.event, row_sums[dev.row], minlength=n)
    # Link -1 reads the last cell, which `np.where` then replaces by 0.0.
    y_t = np.bincount(dev.event, np.where(dev.link >= 0, cells[dev.link], 0.0), minlength=n)
    return y, y_t


def evaluate(dev: DevEvents, cells: np.ndarray, row_sums: np.ndarray,
             target: np.ndarray) -> EvalReport:
    """The report of compiled events that predict `target`, equal to a `score_event` loop's.

    `_event_sums` adds as `score_event` does, and each log-probability is
    its `math.log`, added by `math.fsum`: np.log may differ in the last bit.
    """
    y, y_t = _event_sums(dev, cells, row_sums)
    if not (y > 0.0).all():  # every known row of an event has a zero sum
        raise DataError("event has no features known to the model")
    total = math.fsum([math.log(r) if r > 0.0 else _LOG_FLOOR for r in (y_t / y).tolist()])
    n = dev.num_events
    return EvalReport(n, total, math.exp(-total / n), int(np.count_nonzero(target == UNK_ID)),
                      int(np.count_nonzero(y_t == 0.0)))


def perplexity(model: SnmModel, events: HeldOut | Iterable[Event]) -> EvalReport:
    """exp of the average negative log-probability over the events."""
    held = events if isinstance(events, HeldOut) else HeldOut.from_events(list(events))
    if not held.num_events:
        raise DataError("perplexity undefined on an empty event stream")
    return evaluate(compile_events(held, model.layout), model.cells, model.row_sums, held.target)


# ---------------------------------------------------------------------------
# Persistence

def save_model(model: SnmModel, path, vocab: Vocabulary) -> None:
    names = model.layout.strings(vocab)
    norms = model.row_sums.tolist()
    with atomic_write(path) as fh:
        fh.write(f"{MODEL_HEADER}\n{_SIZE_PREFIX}{len(vocab)}\n")
        rank = write_rows(fh, names, model.layout.row, model.layout.words, model.cells, vocab)
        fh.write(_NORM_SECTION + "\n")
        for i in np.argsort(rank).tolist():
            fh.write(f"{names[i]}\t{norms[i]}\n")


def load_model(path, vocab: Vocabulary) -> SnmModel:
    """Read a model file as `save_model` writes it, a block of rows at a time.

    Line 1 is the header and line 2 the `#vocab-size` line, naming the size
    of `vocab`. Link rows follow, checked as count rows are (`row_blocks`),
    then one `#normalizers` line and the normalizers (`_normalizers`). Any
    other line, a blank one included, is rejected with the file and line.
    Lines are read as written, with no line ending translated. Rows keep
    file order; within a row, links are put in word id order.
    """
    with open_text(path, newline="\n") as fh:
        size = read_preamble([fh.readline(), fh.readline()], path, "model", MODEL_HEADER,
                             _SIZE_PREFIX)
        if size != str(len(vocab)):
            raise DataError(f"{path}:2: model was built with {size} words, vocab has {len(vocab)}")
        rows = row_blocks(path, fh, None, vocab.index, feature_parser(vocab))
        layout, cells, (lineno, rest) = gather_rows(rows, np.float64, True)
        if rest and rest[0].rstrip("\n") != _NORM_SECTION:
            raise line_error(path, lineno, rest[0].rstrip("\n"), _SIZE_PREFIX, 3)
        lines = [*rest[1:], *fh]
    off, values = layout.offsets.tolist(), cells.tolist()
    sums = [_fsum(values[a:b]) for a, b in zip(off, off[1:])]
    norms = _normalizers(path, lineno + 1, lines, layout.names, sums) if lines else np.zeros(0)
    if len(norms) < len(layout):
        raise DataError(f"{path}: {len(layout) - len(norms)} rows lack a normalizer entry")
    return SnmModel(layout, cells, norms)


def _fsum(cells: list[float]) -> float:
    """`math.fsum` of the cells, or inf where it passes the largest float."""
    try:
        return math.fsum(cells)
    except OverflowError:
        return math.inf


def _normalizers(path, lineno: int, lines: list[str], names: list[str],
                 sums: list[float]) -> np.ndarray:
    """The normalizers on `lines`, which start at line `lineno`, of rows `names` that sum to `sums`.

    Line i names row i, ``names[i]``, and its value, read as a cell, is
    within `_NORM_RTOL` of ``sums[i]``, the `math.fsum` of the row. The
    lines are checked at once; only if they fail is each checked alone,
    which raises the error of the first bad line.
    """
    split, n = split_rows(lines, 2), len(lines)
    if split is not None:
        fs, vs = split[0][0:-1:2], split[0][1::2]
        if isinstance(norms := read_cells(vs), str):
            why = norms
        elif fs != names[:n]:
            expected = repr(names[0]) if names else "no more"
            why = f"normalizers come one per row, in row order: expected {expected}, got {fs[0]!r}"
        elif all(map(partial(math.isclose, rel_tol=_NORM_RTOL), norms.tolist(), sums)):
            return norms
        else:
            why = f"normalizer {vs[0]} of {fs[0]!r} is not its row's sum {sums[0]!r}"
    if n > 1:
        for i in range(n):
            _normalizers(path, lineno + i, lines[i:i + 1], names[i:], sums[i:])
        raise AssertionError(f"{path}:{lineno}: each line passes the check its lines failed")
    text = lines[0].rstrip("\n")
    if text == _NORM_SECTION:
        raise DataError(f"{path}:{lineno}: {_NORM_SECTION} must come once")
    if split is None or text[:1] == "#":
        raise line_error(path, lineno, text, _SIZE_PREFIX, 2)
    raise DataError(f"{path}:{lineno}: {why}")
