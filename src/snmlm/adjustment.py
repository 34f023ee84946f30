"""Adjustment-model training on held-out data.

The adjustment function A(f,w) is a linear model over hashed meta-features
of each link. Its weights are fit by maximizing the multinomial
log-likelihood of held-out events with mini-batch updates and per-weight
AdaGrad learning rates.

The per-batch gradient uses two maps instead of touching every vocabulary
word per event: one keyed by (feature, target) links accumulating
M_ft / y_t(e), and one keyed by feature accumulating alpha_f = sum of
1/y(e) over the events containing f. At the end of the batch the gradient
for every stored link of every encountered feature is
``first_term(f,w) - M_fw * alpha_f``, which is then pushed onto the
weights through the links' meta-feature weights.

The in-memory matrix (cells and normalizers) stays fixed while an epoch
runs and is recomputed from the updated weights at epoch end.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import Vocabulary
from .counts import CountStore
from .errors import DataError
from .extraction import Event, Feature
from .metafeatures import Mode
from .model import SnmModel, design_of, materialize, perplexity, renormalize, score_event

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
        with open(path, "wb") as fh:
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
            fh.write(self.theta.tobytes())

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
    acc: BatchAccumulator, model: SnmModel, adj: AdjustmentModel
) -> dict[int, float]:
    """Ascent gradient of the batch log-likelihood w.r.t. the weight table.

    Covers every stored link of every feature encountered in the batch, as
    the alpha term applies to whole rows, not just links seen as targets,
    and no link of any other row. The model must come from `materialize`
    under `adj`'s mode and table size (see `design_of`).
    """
    design = design_of(model, adj)
    alpha = acc.alpha
    if not alpha:
        return {}
    rows = design.row_ids(alpha, len(alpha))
    order = np.argsort(rows)
    links, lens = design.links_of(rows[order])
    alpha_f = np.fromiter(alpha.values(), dtype=np.float64, count=len(alpha))[order]
    g_link = np.zeros(len(links))
    first = acc.link_grads
    if first:
        pos = design.find(
            links,
            design.row_ids((f for f, _ in first), len(first)),
            np.fromiter((w for _, w in first), dtype=np.int64, count=len(first)),
        )
        g_link[pos] = np.fromiter(first.values(), dtype=np.float64, count=len(first))
    g_link -= model.cells[links] * np.repeat(alpha_f, lens)
    grads = design.push(links, g_link)
    slots = np.flatnonzero(grads)
    return dict(zip(slots.tolist(), grads[slots].tolist()))


def apply_adagrad(adj: AdjustmentModel, grads: dict[int, float]) -> None:
    """One AdaGrad ascent step from an accumulated batch gradient."""
    if not grads:
        return
    ks = np.fromiter(grads.keys(), dtype=np.int64, count=len(grads))
    gs = np.fromiter(grads.values(), dtype=np.float64, count=len(grads))
    adj.grad_sq[ks] += gs * gs
    adj.theta[ks] += adj.gamma * gs / np.sqrt(adj.delta0 + adj.grad_sq[ks])


def process_batch(
    events: Sequence[Event], model: SnmModel, adj: AdjustmentModel
) -> BatchAccumulator:
    """Accumulate one mini-batch and apply its weight update."""
    if not events:
        raise DataError("empty batch")
    acc = BatchAccumulator()
    for e in events:
        acc.add_event(e, model)
    grads = batch_theta_gradient(acc, model, adj)
    apply_adagrad(adj, grads)
    return acc


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
    dev_events: Iterable[Event],
    counts: CountStore,
    adj: AdjustmentModel,
    epochs: int,
    vocab: Vocabulary,
    log: Callable[[str], None] | None = None,
) -> tuple[list[EpochStats], SnmModel]:
    """Fit the adjustment weights on held-out events.

    Batches follow corpus order with no shuffling; a short final batch is
    processed normally. Epoch 0 statistics describe the unadjusted model.
    Returns the per-epoch history and the final renormalized matrix.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    dev_events = list(dev_events)
    model = materialize(counts, adj, vocab)
    if not dev_events:
        return [], model

    def stats(epoch: int) -> EpochStats:
        report = perplexity(model, dev_events)
        return EpochStats(epoch, report.log_prob_sum, report.ppl, adj.nonzero_params)

    history = [stats(0)]
    if log:
        log(history[0].format())
    batch_size = adj.batch_size
    for epoch in range(1, epochs + 1):
        for i in range(0, len(dev_events), batch_size):
            process_batch(dev_events[i : i + batch_size], model, adj)
        renormalize(model, adj)
        history.append(stats(epoch))
        if log:
            log(history[-1].format())
    # The design is training state, over 100 bytes per link; the trained
    # model scores without it.
    model.design = model.cells = None
    return history, model
