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
from .counts import write_rows
from .errors import DataError
from .extraction import Event, Feature, feature_parser, render_feature
from .metafeatures import LinkDesign

MODEL_HEADER = "#snm-model v1"
_NORM_SECTION = "#normalizers"
_SIZE_RULE = "#vocab-size must come once, before the first row"

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
    vocab_size: int


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
    return SnmModel(rows, normalizers, len(design.vocab))


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
    """Read a model file as `save_model` writes it.

    One `#vocab-size` line, naming the size of `vocab`, precedes the first
    row. Link rows are strictly increasing by (feature, word) and
    normalizers by feature, and each row has a normalizer.
    """
    rows: dict[Feature, dict[int, float]] = {}
    norms: dict[Feature, float] = {}
    # Each link row's feature; the normalizer section looks its strings up here.
    features: dict[str, Feature] = {}
    parse = feature_parser(vocab)
    size: str | None = None
    in_norms = False
    last_link: tuple[str, str] | None = None
    last_norm: str | None = None
    row: dict[int, float] = {}
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
                    if size is not None or features or in_norms:
                        raise DataError(f"{path}:{lineno}: {_SIZE_RULE}")
                    size = line[len("#vocab-size "):]
                    if size != str(len(vocab)):
                        raise DataError(
                            f"{path}:{lineno}: model was built with {size} words, "
                            f"vocab has {len(vocab)}"
                        )
                continue
            if size is None:
                raise DataError(f"{path}:{lineno}: {_SIZE_RULE}")
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
            fs = parts[0]
            if in_norms:
                if last_norm is not None and fs <= last_norm:
                    raise DataError(f"{path}:{lineno}: normalizers out of order")
                last_norm = fs
                f = features.get(fs)
                if f is None:
                    parse_at(fs, lineno)
                    raise DataError(f"{path}:{lineno}: normalizer of {fs!r} has no link rows")
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
                f = features[fs] = parse_at(fs, lineno)
                row = rows[f] = {}
            last_link = key
            row[wid] = value
    missing = set(rows) - set(norms)
    if missing:
        raise DataError(f"{path}: {len(missing)} rows lack a normalizer entry")
    return SnmModel(rows, norms, len(vocab))
