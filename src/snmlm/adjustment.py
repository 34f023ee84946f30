"""Adjustment-model training on held-out data.

The adjustment function A(f,w) is a linear model over hashed meta-features
of each link. Its weights are fit by maximizing the multinomial
log-likelihood of held-out events with mini-batch updates and per-weight
AdaGrad learning rates.

The dev events and the link design are fixed for a run. The events come
compiled against the design's rows, as a `HeldOut` (`HeldText.held_out`),
or `train` compiles them once (`compile_events`): each feature occurrence
the design knows, in event order, with its event, its row and its link to
the event's target. A batch is a contiguous slice of them. The batch
gradient then never touches every vocabulary word per event:
`np.bincount` over the slice sums each event's y and y_t, the first term
M_ft / y_t(e) of each occurring target link, and alpha_f, the sum of
1/y(e) over the occurrences of f. The gradient of every stored link of
every touched row is ``first_term(f,w) - M_fw * alpha_f``, pushed onto the
weights through the links' meta-feature weights. The epoch statistics are
`snmlm.model.evaluate` of all events, the scorer `perplexity` runs. Every
sum adds in the order the per-event walk of `score_event` does, so the
results equal that walk's bit for bit.

`BatchAccumulator` and `batch_theta_gradient` are that per-event walk over
a model's dicts. Training no longer calls them; they stay as the
reference the tests compare the array path against, until ROADMAP item 1
unpins their names from perfbench/tracing.py and deletes them.

`train` owns the run's state: the design, and the cells and row sums in
design order (`adjusted_cells`). They stay fixed while an epoch runs and
are recomputed from the updated weights at epoch end. The returned model
is the last epoch's arrays on the store's own `Rows` (`materialize`); no
row dict is built.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .corpus import Vocabulary
from .counts import CountStore, HeldOut
from .errors import DataError
from .extraction import Event, Feature
from .files import atomic_write
from .metafeatures import LinkDesign, Mode
# `perplexity` and `renormalize` are not called here; perfbench/tracing.py
# looks them up in this module until ROADMAP item 1 removes the pins. Nothing
# may call `renormalize`: the tracer's hook on it reads the rows of its result.
from .model import (  # noqa: F401
    SnmModel, _event_sums, adjusted_cells, compile_events, evaluate, materialize,
    perplexity, score_event,
)
renormalize = materialize

_ADJ_MAGIC = b"SNMADJ\x01"
# table size, gamma, delta0, mode code, hash scheme id
_ADJ_HEADER = struct.Struct("<QddBB")
_HASH_SCHEME_ID = 1
_MODE_CODES = {Mode.FULL: 0, Mode.FEATURE_ONLY: 1, Mode.UNLEXICALIZED: 2}
_MODE_FROM_CODE = {v: k for k, v in _MODE_CODES.items()}


class AdjustmentModel:
    """Flat hashed weight table with AdaGrad accumulators.

    All-zero weights leave every link adjustment at zero, so the freshly
    initialized model reproduces plain relative frequencies.
    """

    __slots__ = ("theta", "grad_sq", "gamma", "delta0", "batch_size", "mode")

    def __init__(
        self,
        table_size: int,
        gamma: float = 0.1,
        delta0: float = 1.0,
        batch_size: int = 2048,
        mode: Mode = Mode.FULL,
    ):
        self.check(table_size, gamma, delta0, batch_size)
        self.theta = np.zeros(table_size, dtype=np.float64)
        self.grad_sq = np.zeros(table_size, dtype=np.float64)
        self.gamma = gamma
        self.delta0 = delta0
        self.batch_size = batch_size
        self.mode = mode

    @staticmethod
    def check(table_size: int, gamma: float, delta0: float, batch_size: int) -> None:
        """Raise ValueError unless the settings make a usable model; `__init__` calls it."""
        if table_size < 1:
            raise ValueError(f"table size must be >= 1, got {table_size}")
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        if not (0.0 < gamma < math.inf and 0.0 < delta0 < math.inf):
            raise ValueError(f"gamma and delta0 must be finite and positive, got {gamma}, {delta0}")

    @property
    def table_size(self) -> int:
        return len(self.theta)

    @property
    def nonzero_params(self) -> int:
        return int(np.count_nonzero(self.theta))

    def save(self, path) -> None:
        """Header (table size, gamma, delta0, mode, hash scheme) + weights."""
        with atomic_write(path, "wb") as fh:
            fh.write(_ADJ_MAGIC)
            fh.write(
                _ADJ_HEADER.pack(
                    self.table_size,
                    self.gamma,
                    self.delta0,
                    _MODE_CODES[self.mode],
                    _HASH_SCHEME_ID,
                )
            )
            fh.write(memoryview(np.ascontiguousarray(self.theta, dtype="<f8")).cast("B"))

    @classmethod
    def load(cls, path) -> "AdjustmentModel":
        with open(path, "rb") as fh:
            magic = fh.read(len(_ADJ_MAGIC))
            if magic != _ADJ_MAGIC:
                raise DataError(f"{path}: not an adjustment file (bad magic)")
            header = fh.read(_ADJ_HEADER.size)
            if len(header) != _ADJ_HEADER.size:
                raise DataError(f"{path}: truncated header")
            table_size, gamma, delta0, mode_code, scheme = _ADJ_HEADER.unpack(header)
            if scheme != _HASH_SCHEME_ID:
                raise DataError(f"{path}: unsupported hash scheme {scheme}")
            if mode_code not in _MODE_FROM_CODE:
                raise DataError(f"{path}: unknown meta-feature mode {mode_code}")
            data = fh.read()
        if len(data) != table_size * 8:
            raise DataError(f"{path}: truncated weight vector")
        try:
            adj = cls(table_size, gamma=gamma, delta0=delta0, mode=_MODE_FROM_CODE[mode_code])
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from None
        theta = np.frombuffer(data, dtype="<f8").astype(np.float64)
        bad = np.flatnonzero(~np.isfinite(theta))
        if len(bad):
            raise DataError(f"{path}: non-finite weight {theta[bad[0]]} in slot {bad[0]}")
        adj.theta = theta
        return adj


class BatchAccumulator:
    """The two per-batch gradient maps.

    `link_grads` holds the first, target-linked term keyed by (f, w) pairs
    that occurred in the batch; `alpha` holds the per-feature sums of
    1/y(e), with y and y_t(e) from `score_event`. Events whose target is
    unreachable (y_t = 0) are scored at the probability floor, a constant, so
    they contribute no gradient and are only counted.
    """

    __slots__ = ("link_grads", "alpha", "floored_events")

    def __init__(self):
        self.link_grads: dict[tuple[Feature, int], float] = {}
        self.alpha: dict[Feature, float] = {}
        self.floored_events = 0

    def add_event(self, event: Event, model: SnmModel) -> None:
        score = score_event(model, event)
        if score.floored:
            self.floored_events += 1
            return
        inv_y = 1.0 / score.y
        inv_yt = 1.0 / score.y_t
        rows = model.rows
        target = event.target
        alpha = self.alpha
        link_grads = self.link_grads
        for f in event.features:
            row = rows.get(f)
            if row is None:
                continue
            alpha[f] = alpha.get(f, 0.0) + inv_y
            m_ft = row.get(target, 0.0)
            if m_ft:
                key = (f, target)
                link_grads[key] = link_grads.get(key, 0.0) + m_ft * inv_yt


def batch_theta_gradient(
    acc: BatchAccumulator, design: LinkDesign, cells: np.ndarray
) -> dict[int, float]:
    """Ascent gradient of the batch log-likelihood w.r.t. the weight table.

    Covers every stored link of every feature encountered in the batch, as
    the alpha term applies to whole rows, not just links seen as targets,
    and no link of any other row. `acc` holds the events scored by the
    model `materialize` makes of `design` and `cells`.
    """
    alpha = acc.alpha
    if not alpha:
        return {}
    index = design.layout.row_index.__getitem__
    rows = np.fromiter(map(index, alpha), np.int64, len(alpha))
    order = np.argsort(rows)
    links, lens = design.layout.links_of(rows[order])
    alpha_f = np.fromiter(alpha.values(), dtype=np.float64, count=len(alpha))[order]
    g_link = np.zeros(len(links))
    first = acc.link_grads
    if first:
        found = design.layout.find(
            np.fromiter((index(f) for f, _ in first), np.int64, len(first)),
            np.fromiter((w for _, w in first), np.int64, len(first)),
        )
        pos = np.minimum(np.searchsorted(links, found), len(links) - 1)
        if not np.array_equal(links[pos], found):
            raise ValueError("link not among the given links")
        g_link[pos] = np.fromiter(first.values(), dtype=np.float64, count=len(first))
    g_link -= cells[links] * np.repeat(alpha_f, lens)
    grads = design.push(links, g_link)
    slots = np.flatnonzero(grads)
    return dict(zip(slots.tolist(), grads[slots].tolist()))


class BatchGradient(NamedTuple):
    """Nonzero slots of a batch's weight-table gradient, ascending, and their values."""

    slots: np.ndarray
    grads: np.ndarray
    floored_events: int


def theta_gradient(
    batch: HeldOut, design: LinkDesign, cells: np.ndarray, row_sums: np.ndarray
) -> BatchGradient:
    """Ascent gradient of the batch log-likelihood w.r.t. the weight table.

    For every link of every row that a scored event touches, the gradient is
    ``first_term(f,w) - M_fw * alpha_f``: the first term sums M_ft / y_t(e)
    over the batch's occurrences of the link (f, t) with t the event's
    target, and alpha_f sums 1/y(e) over the occurrences of f. The per-link
    gradient is pushed onto the weights through each link's meta-feature
    weights. An event whose target is unreachable (y_t = 0) is scored at
    the probability floor, a constant, and contributes nothing. The cells
    and row sums are `adjusted_cells` of `design`, and the batch comes from
    events compiled against its rows.
    """
    y, y_t = _event_sums(batch, cells, row_sums)
    scored = y_t != 0.0
    inv_y = 1.0 / y
    inv_yt = np.divide(1.0, y_t, out=np.zeros_like(y_t), where=scored)
    live = scored[batch.event]
    event, row, link = batch.event[live], batch.row[live], batch.link[live]
    rows, per_row = np.unique(row, return_inverse=True)
    alpha = np.bincount(per_row, inv_y[event], minlength=len(rows))
    links, lens = design.layout.links_of(rows)
    g_link = np.zeros(len(links))
    linked = link >= 0
    targets, per_link = np.unique(link[linked], return_inverse=True)
    first = cells[link[linked]] * inv_yt[event[linked]]
    g_link[np.searchsorted(links, targets)] = np.bincount(per_link, first, minlength=len(targets))
    g_link -= cells[links] * np.repeat(alpha, lens)
    grads = design.push(links, g_link)
    slots = np.flatnonzero(grads)
    return BatchGradient(slots, grads[slots], int(np.count_nonzero(~scored)))


def apply_adagrad(adj: AdjustmentModel, slots: np.ndarray, grads: np.ndarray) -> None:
    """One AdaGrad ascent step on the distinct `slots` from their batch gradients.

    ``grad_sq += g * g``, then ``theta += gamma * g / sqrt(delta0 + grad_sq)``:
    each table's slots are gathered once and updated in place.
    """
    sq = adj.grad_sq[slots]
    sq += grads * grads
    adj.grad_sq[slots] = sq
    sq += adj.delta0
    step = np.multiply(grads, adj.gamma)
    step /= np.sqrt(sq, out=sq)
    theta = adj.theta[slots]
    theta += step
    adj.theta[slots] = theta


def process_batch(
    batch: HeldOut, design: LinkDesign, cells: np.ndarray, row_sums: np.ndarray,
    adj: AdjustmentModel,
) -> BatchGradient:
    """Compute one mini-batch's gradient and apply its weight update.

    Raises ValueError for a design built for another mode or table size
    than `adj`'s.
    """
    if design.mode is not adj.mode or design.table_size != adj.table_size:
        raise ValueError(f"link design is for mode {design.mode.value} and {design.table_size} "
                         f"slots, not {adj.mode.value} and {adj.table_size}")
    if not batch.num_events:
        raise DataError("empty batch")
    step = theta_gradient(batch, design, cells, row_sums)
    apply_adagrad(adj, step.slots, step.grads)
    return step


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    dev_log_likelihood: float
    dev_ppl: float
    nonzero_params: int

    def format(self) -> str:
        return (
            f"epoch {self.epoch} dev_ll={self.dev_log_likelihood:.4f} "
            f"ppl={self.dev_ppl:.4f} nonzero={self.nonzero_params}"
        )


def train(
    dev_events: HeldOut | Iterable[Event],
    counts: CountStore,
    adj: AdjustmentModel,
    epochs: int,
    vocab: Vocabulary,
    log: Callable[[str], None] | None = None,
) -> tuple[list[EpochStats], SnmModel]:
    """Fit the adjustment weights on held-out events.

    Batches follow corpus order with no shuffling; a short final batch is
    processed normally. Epoch 0 statistics describe the unadjusted model.
    With no dev events or no epochs the weights are left as they are and
    the history is empty, and no target link is searched. Events compiled
    as a `HeldOut` must be compiled against the rows of `counts`
    (ValueError). The design is built once and hashed at most once, when
    the first batch pushes its gradient or the weights it starts from are
    not all zero. Returns the history and the model of the final weights.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    design = LinkDesign.build(counts, adj.mode, adj.table_size, vocab)
    dev = compile_events(dev_events, design.layout)
    cells, row_sums = adjusted_cells(design, adj.theta)
    history: list[EpochStats] = []
    n = dev.num_events
    if not (n and epochs):
        return history, materialize(design, cells, row_sums)
    batch_size = adj.batch_size
    for epoch in range(epochs + 1):
        if epoch:
            for i in range(0, n, batch_size):
                process_batch(dev.batch(i, min(i + batch_size, n)), design, cells, row_sums, adj)
            cells, row_sums = adjusted_cells(design, adj.theta)
        report = evaluate(dev, cells, row_sums)
        history.append(EpochStats(epoch, report.log_prob_sum, report.ppl, adj.nonzero_params))
        if log:
            log(history[-1].format())
    return history, materialize(design, cells, row_sums)
