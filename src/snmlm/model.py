"""The sparse adjusted matrix: materialization, scoring, perplexity.

A model row holds M_fw = c(w|f) * exp(A(f,w)) for every link counted in
training; the per-feature normalizer is the exact row sum. An event is
scored as the ratio of the summed target cells to the summed normalizers
over its features, which is a properly normalized distribution over the
vocabulary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from .corpus import UNK_ID, Vocabulary
from .counts import CountStore, write_rows
from .errors import DataError
from .extraction import Event, Feature, feature_parser, render_feature
from .metafeatures import LinkDesign

if TYPE_CHECKING:
    from .adjustment import AdjustmentModel

MODEL_HEADER = "#snm-model v1"
_NORM_SECTION = "#normalizers"

# Events whose target is unreachable are floored at this probability.
PROB_FLOOR = 1e-10
_LOG_FLOOR = math.log(PROB_FLOOR)

# An adjustment beyond this indicates divergence rather than a usable model.
MAX_ABS_ADJUSTMENT = 50.0

# Rows whose cells are converted to Python floats at a time.
_ROW_GROUP = 2048


class SnmModel:
    """Adjusted matrix rows plus per-feature normalizers.

    A materialized model also keeps its link design and the cells in design
    order, which training reuses; a model read from a file has neither and
    cannot be trained on.
    """

    __slots__ = ("rows", "normalizers", "vocab_size", "design", "cells")

    def __init__(
        self,
        rows: dict[Feature, dict[int, float]],
        normalizers: dict[Feature, float],
        vocab_size: int,
    ):
        self.rows = rows
        self.normalizers = normalizers
        self.vocab_size = vocab_size
        self.design: LinkDesign | None = None
        self.cells: np.ndarray | None = None


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


def design_of(model: SnmModel, adj: "AdjustmentModel") -> LinkDesign:
    """The link design `materialize` built for the model under `adj`'s hashing.

    Raises ValueError for a model without one, such as a model read from a
    file, or with one for another mode or table size.
    """
    design = model.design
    if design is None:
        raise ValueError("model has no link design: train only a model built by materialize")
    if design.mode is not adj.mode or design.table_size != adj.table_size:
        raise ValueError(
            f"model's link design is for mode {design.mode.value} and {design.table_size} "
            f"slots, not {adj.mode.value} and {adj.table_size}"
        )
    return design


def _fill(model: SnmModel, design: LinkDesign, theta: np.ndarray) -> None:
    """Set every cell M_fw = c(w|f) * exp(A(f,w)) and every row sum."""
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
    features = design.features
    norms = np.bincount(design.row, cells, minlength=len(features)).tolist()
    off = design.offsets.tolist()
    rows = model.rows
    normalizers = model.normalizers
    # Rows are converted a group at a time: renormalize then frees each old
    # row soon after its new values exist, instead of holding both at once.
    for g in range(0, len(features), _ROW_GROUP):
        end = min(g + _ROW_GROUP, len(features))
        base = off[g]
        words = design.words[base : off[end]].tolist()
        values = cells[base : off[end]].tolist()
        for r in range(g, end):
            lo, hi = off[r] - base, off[r + 1] - base
            rows[features[r]] = dict(zip(words[lo:hi], values[lo:hi]))
            normalizers[features[r]] = norms[r]
    model.cells = cells


def materialize(counts: CountStore, adj: "AdjustmentModel", vocab: Vocabulary) -> SnmModel:
    """Build the adjusted matrix M_fw = c(w|f) * exp(A(f,w)) with normalizers."""
    model = SnmModel({}, {}, len(vocab))
    model.design = LinkDesign.build(counts, adj.mode, adj.table_size, vocab)
    _fill(model, model.design, adj.theta)
    return model


def renormalize(model: SnmModel, adj: "AdjustmentModel") -> SnmModel:
    """Recompute every stored M_fw from the current weights, then the row sums.

    Produces exactly what materialize(counts, adj) would; rows are updated
    in place so existing references observe the refreshed model.
    """
    _fill(model, design_of(model, adj), adj.theta)
    return model


def score_event(model: SnmModel, event: Event) -> EventScore:
    """Probability of the event's target under the model.

    Features unknown to the model are dropped; with an empty-context row
    present there is always at least one known feature. A target that no
    known feature links to gets the floor probability.
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


def perplexity(model: SnmModel, events: Iterable[Event]) -> EvalReport:
    """exp of the average negative log-probability over the events."""
    n = 0
    oov = 0
    floored = 0
    log_probs = []
    for e in events:
        score = score_event(model, e)
        log_probs.append(score.log_prob)
        n += 1
        if e.target == UNK_ID:
            oov += 1
        if score.floored:
            floored += 1
    if n == 0:
        raise DataError("perplexity undefined on an empty event stream")
    total = math.fsum(log_probs)
    return EvalReport(
        num_events=n,
        log_prob_sum=total,
        ppl=math.exp(-total / n),
        oov_targets=oov,
        floored_events=floored,
    )


# ---------------------------------------------------------------------------
# Persistence

def save_model(model: SnmModel, path, vocab: Vocabulary) -> None:
    norms = model.normalizers
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MODEL_HEADER}\n#vocab-size {model.vocab_size}\n")
        names = write_rows(fh, model.rows, vocab)
        fh.write(_NORM_SECTION + "\n")
        for fs, f in sorted(zip(names, model.rows)):
            fh.write(f"{fs}\t{norms[f]}\n")


def load_model(path, vocab: Vocabulary) -> SnmModel:
    rows: dict[Feature, dict[int, float]] = {}
    norms: dict[Feature, float] = {}
    # Each feature string of the link section, parsed once; the normalizer
    # section looks its strings up here.
    features: dict[str, Feature] = {}
    parse = feature_parser(vocab)
    in_norms = False
    inf = math.inf

    def parse_at(fs: str, lineno: int) -> Feature:
        try:
            return parse(fs)
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None

    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != MODEL_HEADER:
            raise DataError(f"{path}: not a model file (bad header)")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            if line == _NORM_SECTION:
                in_norms = True
                continue
            if line.startswith("#"):
                if line.startswith("#vocab-size "):
                    size = line[len("#vocab-size "):]
                    if size != str(len(vocab)):
                        raise DataError(
                            f"{path}:{lineno}: model was built with {size} words, "
                            f"vocab has {len(vocab)}"
                        )
                continue
            parts = line.split("\t")
            fields = 2 if in_norms else 3
            if len(parts) != fields:
                raise DataError(f"{path}:{lineno}: expected {fields} fields")
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
            if in_norms:
                f = features.get(parts[0])
                if f is None:
                    parse_at(parts[0], lineno)
                    raise DataError(f"{path}:{lineno}: normalizer of {parts[0]!r} has no link rows")
                if f in norms:
                    raise DataError(f"{path}:{lineno}: repeated normalizer of {parts[0]!r}")
                norms[f] = value
            else:
                fs, ws, _ = parts
                wid = vocab.index.get(ws)
                if wid is None:
                    raise DataError(f"{path}:{lineno}: unknown word {ws!r}")
                f = features.get(fs)
                if f is None:
                    f = features[fs] = parse_at(fs, lineno)
                    row = rows[f] = {}
                else:
                    row = rows[f]
                    if wid in row:
                        raise DataError(f"{path}:{lineno}: repeated link ({fs}, {ws})")
                row[wid] = value
    missing = set(rows) - set(norms)
    if missing:
        raise DataError(f"{path}: {len(missing)} rows lack a normalizer entry")
    return SnmModel(rows, norms, len(vocab))
