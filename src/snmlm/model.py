"""The sparse adjusted matrix: its cells, its rows, scoring, perplexity.

A model row holds M_fw = c(w|f) * exp(A(f,w)) for every link counted in
training; the per-feature normalizer is the exact row sum. An event is
scored as the ratio of the summed target cells to the summed normalizers
over its features, which is a properly normalized distribution over the
vocabulary.

`adjusted_cells` computes the cells and row sums as arrays in the order of
a `LinkDesign`, and `materialize` wraps them with the design's rows and
words as an `SnmModel`, the one model shape that is scored, saved and
loaded. Its row dicts are built only when something reads them.

Held-out events (`HeldOut`) are scored on arrays: `compile_events` finds
each feature occurrence's row and target link, `_event_sums` adds each
event's normalizers and target cells in feature order, and `evaluate`
takes each `math.log` and their `math.fsum`. `perplexity` and the epoch
statistics of `train` both go this way, and equal a `score_event` loop
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .corpus import UNK_ID, Vocabulary
from .counts import HeldOut, line_error, read_preamble, row_dicts, write_rows
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
    """The adjusted matrix as arrays in design order, with its row sums as normalizers.

    Row r is feature ``features[r]`` (``row_index`` maps it back to r): the
    cells ``cells[offsets[r]:offsets[r + 1]]`` of links to the ascending word
    ids ``words[offsets[r]:offsets[r + 1]]``, and normalizer ``row_sums[r]``.
    `rows` and `normalizers` are the same as dicts, built the first time
    they are read.
    """

    def __init__(self, features: list[Feature], offsets: np.ndarray, words: np.ndarray,
                 cells: np.ndarray, row_sums: np.ndarray,
                 row_index: dict[Feature, int] | None = None):
        self.features = features
        self.row_index = {f: r for r, f in enumerate(features)} if row_index is None else row_index
        self.offsets, self.words, self.cells, self.row_sums = offsets, words, cells, row_sums

    @cached_property
    def row(self) -> np.ndarray:
        """The row of each link."""
        return np.repeat(np.arange(len(self.features), dtype=np.int32), np.diff(self.offsets))

    @cached_property
    def rows(self) -> dict[Feature, dict[int, float]]:
        """Each feature's row as a dict from word id to cell, in row order."""
        return row_dicts(self.features, self.offsets, self.words, self.cells)

    @cached_property
    def normalizers(self) -> dict[Feature, float]:
        """Each feature's normalizer, in row order."""
        return dict(zip(self.features, self.row_sums.tolist()))


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
    """Every cell M_fw = c(w|f) * exp(A(f,w)) and every row sum, in design order."""
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
    return cells, np.bincount(design.row, cells, minlength=len(design.features))


def materialize(design: LinkDesign, cells: np.ndarray, row_sums: np.ndarray) -> SnmModel:
    """The model of `adjusted_cells`: the design's rows and words with the cells and row sums."""
    return SnmModel(design.features, design.offsets, design.words, cells, row_sums,
                    design.row_index)


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
    """Events compiled against a link design or model, one entry per known feature occurrence.

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


def compile_events(held: HeldOut | Sequence[Event], design: LinkDesign | SnmModel) -> DevEvents:
    """Where each feature occurrence of held-out events lands in a design or model.

    Each distinct feature is looked up once. Features the design lacks are
    dropped, as `score_event` drops them; an event left with none raises
    its `DataError`.
    """
    if not isinstance(held, HeldOut):
        held = HeldOut.from_events(held)
    rows = np.fromiter(map(design.row_index.get, held.features, repeat(-1)), np.int64,
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
    words = design.words
    v = int(max(words.max(initial=0), target.max(initial=0))) + 1
    have = design.row.astype(np.int64) * v + words
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
    return evaluate(compile_events(held, model), model.cells, model.row_sums, held.target)


# ---------------------------------------------------------------------------
# Persistence

def save_model(model: SnmModel, path, vocab: Vocabulary) -> None:
    names = [render_feature(f, vocab) for f in model.features]
    norms = model.row_sums.tolist()
    with atomic_write(path) as fh:
        fh.write(f"{MODEL_HEADER}\n{_SIZE_PREFIX}{len(vocab)}\n")
        rank = write_rows(fh, names, model.row, model.words, model.cells, vocab)
        fh.write(_NORM_SECTION + "\n")
        for i in np.argsort(rank).tolist():
            fh.write(f"{names[i]}\t{norms[i]}\n")


def load_model(path, vocab: Vocabulary) -> SnmModel:
    """Read a model file as `save_model` writes it.

    Line 1 is the header and line 2 the `#vocab-size` line, naming the size
    of `vocab`. Link rows follow, strictly increasing by (feature, word),
    then one `#normalizers` line and the normalizers, one per row in row
    order: the i-th names the i-th row's feature and is the `math.fsum` of
    that row within `_NORM_RTOL`. Any other line, a blank one included, is
    rejected with the file and line. Rows keep file order; within a row,
    links are put in word id order.
    """
    # Each row's feature string, feature and first link, in row order.
    names: list[str] = []
    features: list[Feature] = []
    starts: list[int] = []
    words: list[int] = []
    cells: list[float] = []
    norms: list[float] = []
    parse = feature_parser(vocab)
    in_norms = False
    last_link: tuple[str, str] | None = None
    inf = math.inf
    with open_text(path) as fh:
        size = read_preamble(fh, path, "model", MODEL_HEADER, _SIZE_PREFIX)
        if size != str(len(vocab)):
            raise DataError(f"{path}:2: model was built with {size} words, vocab has {len(vocab)}")
        for lineno, line in enumerate(fh, start=3):
            line = line.rstrip("\n")
            if line == _NORM_SECTION:
                if in_norms:
                    raise DataError(f"{path}:{lineno}: {_NORM_SECTION} must come once")
                in_norms = True
                starts.append(len(cells))
                continue
            parts = line.split("\t")
            fields = 2 if in_norms else 3
            if len(parts) != fields or line[0] == "#":
                raise line_error(path, lineno, line, _SIZE_PREFIX, fields)
            text = parts[-1]
            try:
                # float() also reads "1_0", " 1" and non-ASCII digits; no writer does.
                if not text.isascii() or "_" in text or text.strip() != text:
                    raise ValueError(text)
                value = float(text)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad value {text!r}") from None
            if not 0.0 <= value < inf:
                raise DataError(
                    f"{path}:{lineno}: value must be finite and non-negative, got {text}"
                )
            fs = parts[0]
            if in_norms:
                i = len(norms)
                if i == len(names) or names[i] != fs:
                    expected = repr(names[i]) if i < len(names) else "no more"
                    raise DataError(f"{path}:{lineno}: normalizers come one per row, in row "
                                    f"order: expected {expected}, got {fs!r}")
                try:
                    row_sum = math.fsum(cells[starts[i] : starts[i + 1]])
                except OverflowError:  # the cells sum past the largest float
                    row_sum = inf
                if not math.isclose(value, row_sum, rel_tol=_NORM_RTOL):
                    raise DataError(
                        f"{path}:{lineno}: normalizer {text} of {fs!r} is not its row's sum "
                        f"{row_sum!r}"
                    )
                norms.append(value)
                continue
            key = (fs, parts[1])
            if last_link is not None and key <= last_link:
                raise DataError(f"{path}:{lineno}: rows out of order")
            wid = vocab.index.get(parts[1])
            if wid is None:
                raise DataError(f"{path}:{lineno}: unknown word {parts[1]!r}")
            if last_link is None or fs != last_link[0]:
                # Rows are sorted and parsing is one-to-one, so a new string
                # is a new feature.
                try:
                    features.append(parse(fs))
                except DataError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
                names.append(fs)
                starts.append(len(cells))
            last_link = key
            words.append(wid)
            cells.append(value)
    if len(norms) < len(names):
        raise DataError(f"{path}: {len(names) - len(norms)} rows lack a normalizer entry")
    offsets = np.array([*starts[: len(names)], len(cells)], dtype=np.int64)
    row = np.repeat(np.arange(len(names)), np.diff(offsets))
    order = np.lexsort((words, row))
    return SnmModel(features, offsets, np.array(words, dtype=np.int32)[order],
                    np.array(cells, dtype=np.float64)[order], np.array(norms, dtype=np.float64))
