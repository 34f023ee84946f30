"""The sparse adjusted matrix: its cells, its rows, scoring, perplexity.

A model row holds M_fw = c(w|f) * exp(A(f,w)) for every link counted in
training; the per-feature normalizer is the exact row sum. An event is
scored as the ratio of the summed target cells to the summed normalizers
over its features, which is a properly normalized distribution over the
vocabulary.

`adjusted_cells` computes the cells and row sums as arrays in the order of
a `LinkDesign`, and `materialize` puts them on the design's `Rows` as an
`SnmModel`, the one model shape that is scored, saved and loaded. Its row
dicts are built only when something reads them. A model file is a sealed
row file of cells, written and read as count files are (`save_rows`,
`read_rows`); its normalizers are not stored but summed on load.

Held-out events are scored on arrays, as a `HeldOut` compiled against the
rows that score them: `HeldText.held_out` compiles text, and
`compile_events` a list of `Event`s, into each known feature occurrence's
event and row; the occurrence's target link is searched when first read.
`_event_sums` adds each event's normalizers and target cells in feature
order, and `evaluate` takes each `math.log` and their `math.fsum`.
`perplexity` and the epoch statistics of `train` both go this way, and
equal a `score_event` loop bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .corpus import UNK_ID, Vocabulary
from .counts import HeldOut, RowFile, Rows, read_rows, save_rows
from .errors import DataError
from .extraction import Event, Feature, render_feature
from .metafeatures import LinkDesign

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


def compile_events(events: HeldOut | Iterable[Event], layout: Rows) -> HeldOut:
    """Held-out events compiled against the rows of a design or model.

    Each feature occurrence is looked up once in `layout`; features the
    rows lack are dropped, as `score_event` drops them. A `HeldOut` is
    returned as it is, and raises ValueError when compiled against other
    rows.
    """
    if isinstance(events, HeldOut):
        if events.layout is not layout:
            raise ValueError("held-out events were compiled against other rows")
        return events
    events = list(events)
    lens = np.fromiter(map(len, (e.features for e in events)), np.int64, len(events))
    get = layout.row_index.get
    row = np.fromiter((get(f, -1) for e in events for f in e.features), np.int64, int(lens.sum()))
    event = np.repeat(np.arange(len(events)), lens)
    known = row >= 0
    return HeldOut(layout, event[known], row[known],
                   np.fromiter((e.target for e in events), np.int64, len(events)))


def _event_sums(held: HeldOut, cells: np.ndarray, row_sums: np.ndarray) -> tuple[np.ndarray, ...]:
    """y and y_t of each event: its features' normalizers and target cells, summed.

    `np.bincount` adds in entry order, so each sum equals `score_event`'s
    bit for bit.
    """
    n = held.num_events
    y = np.bincount(held.event, row_sums[held.row], minlength=n)
    # Link -1 reads the last cell, which `np.where` then replaces by 0.0.
    y_t = np.bincount(held.event, np.where(held.link >= 0, cells[held.link], 0.0), minlength=n)
    return y, y_t


def evaluate(held: HeldOut, cells: np.ndarray, row_sums: np.ndarray) -> EvalReport:
    """The report of compiled events, equal to a `score_event` loop's.

    An event with no known feature, or whose known rows all sum to zero,
    raises `score_event`'s `DataError`. `_event_sums` adds as `score_event`
    does, and each log-probability is its `math.log`, added by
    `math.fsum`: np.log may differ in the last bit.
    """
    y, y_t = _event_sums(held, cells, row_sums)
    if not (y > 0.0).all():
        raise DataError("event has no features known to the model")
    total = math.fsum([math.log(r) if r > 0.0 else _LOG_FLOOR for r in (y_t / y).tolist()])
    n = held.num_events
    return EvalReport(n, total, math.exp(-total / n), int(np.count_nonzero(held.target == UNK_ID)),
                      int(np.count_nonzero(y_t == 0.0)))


def perplexity(model: SnmModel, events: HeldOut | Iterable[Event]) -> EvalReport:
    """exp of the average negative log-probability over the events."""
    held = compile_events(events, model.layout)
    if not held.num_events:
        raise DataError("perplexity undefined on an empty event stream")
    return evaluate(held, model.cells, model.row_sums)


# ---------------------------------------------------------------------------
# Persistence

def _vocab_size(path, text: str, vocab: Vocabulary) -> None:
    if text != str(len(vocab)):
        raise DataError(f"{path}:2: model was built with {text} words, vocab has {len(vocab)}")


# A model file is a sealed row file of cells; the vocabulary's size on line 2
# is checked before any row is read.
MODEL_FILE = RowFile("model", "#snm-model v2", "#vocab-size ", _vocab_size, "train it again")


def save_model(model: SnmModel, path, vocab: Vocabulary) -> None:
    save_rows(path, MODEL_FILE.preamble(len(vocab)), model.layout, model.cells, vocab)


def load_model(path, vocab: Vocabulary, keep: Iterable[str] | None = None) -> SnmModel:
    """Read a model file (`read_rows`), storing only the rows `keep` names when it is given.

    Each row's normalizer is its cells' sum in word id order, which for a
    model that `save_model` wrote is the row sum that training computed,
    bit for bit.
    """
    _, layout, cells, row_sums, _ = read_rows(path, MODEL_FILE, vocab, keep)
    return SnmModel(layout, cells, row_sums)
