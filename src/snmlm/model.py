"""The sparse adjusted matrix: its cells, its rows, scoring, perplexity.

A model row holds M_fw = c(w|f) * exp(A(f,w)) for every link counted in
training; the per-feature normalizer is the exact row sum. An event is
scored as the ratio of the summed target cells to the summed normalizers
over its features, which is a properly normalized distribution over the
vocabulary.

`adjusted_cells` computes the cells and row sums as arrays in the order of
a `LinkDesign`; training reads only those. `materialize` is the only code
that turns them into row dicts: it builds the `SnmModel`, the one model
shape that is scored, saved and loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .corpus import UNK_ID, Vocabulary
from .counts import dict_links, line_error, read_preamble, write_rows
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

# Rows whose cells are converted to Python floats at a time.
_ROW_GROUP = 2048


@dataclass(slots=True)
class SnmModel:
    """Adjusted matrix rows plus per-feature normalizers."""

    rows: dict[Feature, dict[int, float]]
    normalizers: dict[Feature, float]


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
    """The model of `adjusted_cells`: a dict row per feature, and its row sum as normalizer."""
    features = design.features
    rows: dict[Feature, dict[int, float]] = {}
    normalizers = dict(zip(features, row_sums.tolist()))
    off = design.offsets.tolist()
    # Cells are converted to Python floats a group of rows at a time, so no
    # list of every link's value is held next to the finished rows.
    for g in range(0, len(features), _ROW_GROUP):
        end = min(g + _ROW_GROUP, len(features))
        base = off[g]
        words = design.words[base : off[end]].tolist()
        values = cells[base : off[end]].tolist()
        for r in range(g, end):
            lo, hi = off[r] - base, off[r + 1] - base
            rows[features[r]] = dict(zip(words[lo:hi], values[lo:hi]))
    return SnmModel(rows, normalizers)


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
    names = [render_feature(f, vocab) for f in model.rows]
    norms = [model.normalizers[f] for f in model.rows]
    with atomic_write(path) as fh:
        fh.write(f"{MODEL_HEADER}\n{_SIZE_PREFIX}{len(vocab)}\n")
        rank = write_rows(fh, names, *dict_links(model.rows, np.float64), vocab)
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
    rejected with the file and line.
    """
    rows: dict[Feature, dict[int, float]] = {}
    norms: dict[Feature, float] = {}
    # Each link row's feature string and feature, in row order.
    order: list[tuple[str, Feature]] = []
    parse = feature_parser(vocab)
    in_norms = False
    last_link: tuple[str, str] | None = None
    row: dict[int, float] = {}
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
                if i == len(order) or order[i][0] != fs:
                    expected = repr(order[i][0]) if i < len(order) else "no more"
                    raise DataError(f"{path}:{lineno}: normalizers come one per row, in row "
                                    f"order: expected {expected}, got {fs!r}")
                f = order[i][1]
                try:
                    row_sum = math.fsum(rows[f].values())
                except OverflowError:  # the cells sum past the largest float
                    row_sum = inf
                if not math.isclose(value, row_sum, rel_tol=_NORM_RTOL):
                    raise DataError(
                        f"{path}:{lineno}: normalizer {text} of {fs!r} is not its row's sum "
                        f"{row_sum!r}"
                    )
                norms[f] = value
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
                    f = parse(fs)
                except DataError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
                order.append((fs, f))
                row = rows[f] = {}
            last_link = key
            row[wid] = value
    if len(norms) < len(rows):
        raise DataError(f"{path}: {len(rows) - len(norms)} rows lack a normalizer entry")
    return SnmModel(rows, norms)
