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
from functools import cached_property
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

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

    @classmethod
    def load(cls, path, vocab: Vocabulary, keep: Iterable[str] | None = None) -> "SnmModel":
        """Read a model file (`read_rows`), storing only the rows `keep` names when it is given.

        Each row's normalizer is its cells' sum in word id order, which
        for a model that `save_model` wrote is the row sum that training
        computed, bit for bit.
        """
        _, layout, cells, row_sums, _ = read_rows(path, MODEL_FILE, vocab, keep)
        return cls(layout, cells, row_sums)

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

def _vocab_size(path, text: str, vocab: Vocabulary) -> None:
    if text != str(len(vocab)):
        raise DataError(f"{path}:2: model was built with {text} words, vocab has {len(vocab)}")


# A model file is a sealed row file of cells; the vocabulary's size on line 2
# is checked before any row is read.
MODEL_FILE = RowFile("model", "#snm-model v2", "#vocab-size ", _vocab_size, "train it again")


def save_model(model: SnmModel, path, vocab: Vocabulary) -> None:
    save_rows(path, MODEL_FILE.preamble(len(vocab)), model.layout, model.cells, vocab)


def load_model(path, vocab: Vocabulary) -> SnmModel:
    """Read a model file as `save_model` writes it, checking every row (`SnmModel.load`)."""
    return SnmModel.load(path, vocab)
