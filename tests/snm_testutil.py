"""Shared builders for randomized test instances, and the reference oracles.

Everything here is seeded and deterministic. The per-link and gradient
oracles are written from the defining formulas, independent of the link
design and batch-trick code they are used to check; `array_theta_gradient`
wraps the production batch gradient in the same dict form. `build_matrix`
and `build_model` make what `train` holds and returns for fixed weights.
`model_of` builds a model from dict rows, and `materialized_dicts` is the
one-link-at-a-time reference of a model's dict views.
`LinkHasher` is the scalar reference of a link's meta-features: the items
of one link, built one by one, that `snmlm.metafeatures.LinkDesign` must
reproduce column by column.
`adagrad_oracle` is the AdaGrad step written as its two formulas.
`parse_feature_oracle` is the reference of the feature-string grammar.
`oracle_extract_events` and `oracle_accumulate` are the nested-loop
extraction and the per-occurrence count of events into a store.
`oracle_load_counts` and `oracle_merge_counts` are the per-line count-file
reader and heap merge that the block reader of `snmlm.counts` replaced;
`oracle_trailer` reads a count file's trailer line by line, and `seal`
ends a hand-written count file with the trailer a writer would add.
`oracle_load_model` is the per-line model-file reader that the same block
reader replaced.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
import re
from contextlib import closing
from itertools import chain
from typing import Iterator, NamedTuple

import numpy as np

from snmlm.adjustment import AdjustmentModel, compile_events, theta_gradient
from snmlm.corpus import E_ID, S_ID, Vocabulary, build_vocab, map_tokens, natural
from snmlm.counts import COUNTS_HEADER, CountStore, Rows, line_error, read_preamble
from snmlm.errors import DataError
from snmlm.extraction import (
    Event, Feature, extract_events, feature_parser, parse_config, render_feature,
)
from snmlm.files import atomic_write, open_text
from snmlm.metafeatures import (
    LinkDesign, Mode, _bucket_hash, buckets, combine, feature_type, fingerprint,
)
from snmlm.model import MODEL_HEADER, SnmModel, adjusted_cells, materialize

FIVE_GRAM_CONFIG = """
// straight 5-gram features
ngram_extractor {
  min_n: 0
  max_n: 4
}
"""


# ---------------------------------------------------------------------------
# The scalar meta-feature reference

class MetaFeature(NamedTuple):
    hash: int
    weight: float


class LinkHasher:
    """Meta-feature builder for the links of one matrix row.

    The feature-side descriptors (identity, type, feature-count buckets)
    are computed once at construction; `link` then only adds the
    target-side and link-count parts. Construction order is fixed so the
    emitted list is deterministic.
    """

    __slots__ = ("mode", "_base", "_base_labels", "_last_labels")

    def __init__(
        self,
        identity: str,
        type_str: str,
        feature_count: int,
        mode: Mode,
        labeled: bool = False,
    ):
        base: list[tuple[int, float]] = []
        labels: list[str] | None = [] if labeled else None
        self._last_labels: list[str] | None = None
        if mode is not Mode.UNLEXICALIZED:
            base.append((fingerprint(identity), 1.0))
            if labels is not None:
                labels.append(identity)
        base.append((fingerprint(type_str), 1.0))
        if labels is not None:
            labels.append(type_str)
        for b, wt in buckets(feature_count):
            base.append((_bucket_hash(b), wt))
            if labels is not None:
                labels.append(f"count:2^{b}")
        self.mode = mode
        self._base = base
        self._base_labels = labels

    @classmethod
    def for_feature(
        cls,
        f: Feature,
        feature_count: int,
        mode: Mode,
        vocab: Vocabulary,
        labeled: bool = False,
    ) -> "LinkHasher":
        return cls(
            render_feature(f, vocab),
            feature_type(f),
            feature_count,
            mode,
            labeled=labeled,
        )

    def link(
        self,
        target_fp: int,
        link_count: int,
        target_label: str | None = None,
    ) -> list[tuple[int, float]]:
        """(hash, weight) pairs for one link, feature-side items first.

        `target_fp` is fingerprint(target word); callers iterating a row
        should compute it once per word. When the hasher was built with
        ``labeled=True``, labels are recorded and available afterwards via
        `last_labels`.
        """
        items = list(self._base)
        labels = None if self._base_labels is None else list(self._base_labels)
        mode = self.mode
        if mode is Mode.FEATURE_ONLY:
            self._last_labels = labels
            return items

        if mode is Mode.FULL:
            end = len(items)
            items.append((target_fp, 1.0))
            if labels is not None:
                labels.append(target_label or f"word#{target_fp:016x}")
            for i in range(end):
                h, wt = items[i]
                items.append((combine(h, target_fp), wt))
                if labels is not None:
                    labels.append(f"{labels[i]} & {labels[end]}")

        # Both buckets of the link count conjoin against the list as it
        # stood before the first bucket, not against each other.
        end = len(items)
        for b, bw in buckets(link_count):
            bh = _bucket_hash(b)
            blabel = f"count:2^{b}"
            items.append((bh, bw))
            if labels is not None:
                labels.append(blabel)
            for i in range(end):
                h, wt = items[i]
                items.append((combine(h, bh), wt * bw))
                if labels is not None:
                    labels.append(f"{labels[i]} & {blabel}")
        self._last_labels = labels
        return items


def compute_metafeatures(
    f: Feature,
    w: int,
    feature_count: int,
    link_count: int,
    mode: Mode,
    vocab: Vocabulary,
) -> list[MetaFeature]:
    """Full meta-feature list for one link under the given mode."""
    hasher = LinkHasher.for_feature(f, feature_count, mode, vocab)
    items = hasher.link(fingerprint(vocab.words[w]), link_count)
    return [MetaFeature(h, wt) for h, wt in items]


def explain_metafeatures(
    f: Feature,
    w: int,
    feature_count: int,
    link_count: int,
    mode: Mode,
    vocab: Vocabulary,
) -> list[tuple[str, int, float]]:
    """(label, hash, weight) triples for debugging and inspection."""
    hasher = LinkHasher.for_feature(f, feature_count, mode, vocab, labeled=True)
    word = vocab.words[w]
    items = hasher.link(fingerprint(word), link_count, target_label=word)
    labels = hasher._last_labels or []
    return [(lbl, h, wt) for lbl, (h, wt) in zip(labels, items)]


def strip_tags(store: CountStore) -> CountStore:
    """Pool per-tag rows into untagged rows by summing counts."""
    rows: dict[Feature, dict[int, int]] = {}
    for f, row in store.rows.items():
        mine = rows.setdefault(f._replace(tag=None), {})
        for w, c in row.items():
            mine[w] = mine.get(w, 0) + c
    return CountStore.from_rows(rows, store.total_events)


# ---------------------------------------------------------------------------
# The regex feature-string parser

_SKIP_MARKER = re.compile(r"^skip-([1-9][0-9]*|\*)$")


def parse_feature_oracle(s: str, vocab: Vocabulary) -> Feature:
    """`snmlm.extraction.parse_feature` as a per-token regex match, token by token."""
    tag: str | None = None
    body = s
    if not s.startswith("["):
        idx = s.find(":[")
        if idx <= 0:
            raise DataError(f"malformed feature string {s!r}")
        tag, body = s[:idx], s[idx + 1 :]
        if not re.fullmatch(r"[^\s\[\]#][^\s\[\]]*", tag):
            raise DataError(f"bad corpus tag {tag!r} in feature {s!r}")
    if not (body.startswith("[") and body.endswith("]")):
        raise DataError(f"malformed feature string {s!r}")
    inner = body[1:-1]
    if not inner:
        return Feature((), tag=tag)

    parts = inner.split(" ")
    if any(not p for p in parts):
        raise DataError(f"malformed feature string {s!r}")
    skip_pos = None
    skip_len = None
    words: list[int] = []
    for i, part in enumerate(parts):
        m = _SKIP_MARKER.match(part)
        if m:
            if skip_pos is not None:
                raise DataError(f"multiple skip markers in {s!r}")
            if i == len(parts) - 1:
                raise DataError(f"skip marker without adjacent words in {s!r}")
            skip_pos = len(words)
            skip_len = None if m.group(1) == "*" else int(m.group(1))
        else:
            wid = vocab.index.get(part)
            if wid is None:
                raise DataError(f"unknown token {part!r} in feature {s!r}")
            words.append(wid)
    if skip_pos is None and not words:
        raise DataError(f"malformed feature string {s!r}")
    return Feature(tuple(words), skip_pos=skip_pos, skip_len=skip_len, tag=tag)


# ---------------------------------------------------------------------------
# Random instances

def make_vocab(n_words: int, prefix: str = "w") -> Vocabulary:
    return build_vocab([f"{prefix}{i:03d}" for i in range(n_words)], min_count=1)


def random_store(
    rng: random.Random,
    vocab: Vocabulary,
    n_features: int,
    max_row: int = 8,
    max_count: int = 20,
) -> tuple[CountStore, list[Feature]]:
    """Random count store over the vocabulary's regular words.

    Always includes the empty feature so every event has a fallback row.
    """
    word_ids = list(range(3, len(vocab)))
    feats: list[Feature] = [Feature(())]
    while len(feats) < n_features:
        n = rng.randint(1, 3)
        feats.append(Feature(tuple(rng.choice(word_ids) for _ in range(n))))
    feats = list(dict.fromkeys(feats))
    rows = {}
    for f in feats:
        row_words = rng.sample(word_ids, rng.randint(2, min(max_row, len(word_ids))))
        rows[f] = {w: rng.randint(1, max_count) for w in row_words}
    total = sum(sum(row.values()) for row in rows.values())
    return CountStore.from_rows(rows, total), feats


def random_events(
    rng: random.Random,
    store: CountStore,
    feats: list[Feature],
    n_events: int,
    max_features: int = 4,
    reachable_targets: bool = True,
) -> list[Event]:
    """Events over the store's features; targets drawn from a member row."""
    events = []
    for _ in range(n_events):
        k = rng.randint(1, min(max_features, len(feats)))
        efeats = tuple(rng.sample(feats, k))
        if reachable_targets:
            target = rng.choice(list(store.rows[efeats[0]].keys()))
        else:
            target = rng.choice(list(range(3, 3 + 50)))
        events.append(Event(features=efeats, target=target))
    return events


def random_theta(adj: AdjustmentModel, seed: int, scale: float = 0.3) -> None:
    rs = np.random.RandomState(seed)
    adj.theta = rs.normal(0.0, scale, adj.table_size)


def adagrad_oracle(adj: AdjustmentModel, slots: np.ndarray, grads: np.ndarray) -> None:
    """The two-line AdaGrad step that `apply_adagrad` replaced with in-place updates."""
    adj.grad_sq[slots] += grads * grads
    adj.theta[slots] += adj.gamma * grads / np.sqrt(adj.delta0 + adj.grad_sq[slots])


def link_weights(adj: AdjustmentModel, f: Feature, w: int, store: CountStore, vocab):
    """(table slot, weight) pairs of the link's meta-features."""
    mfs = compute_metafeatures(
        f, w, store.feature_counts[f], store.rows[f][w], adj.mode, vocab
    )
    return [(mf.hash % adj.table_size, mf.weight) for mf in mfs]


def adjust(adj: AdjustmentModel, f: Feature, w: int, store: CountStore, vocab) -> float:
    """A(f,w): weighted sum of the link's hashed meta-feature weights."""
    return float(sum(adj.theta[k] * wt for k, wt in link_weights(adj, f, w, store, vocab)))


def event_link_gradient(event: Event, f: Feature, w: int, model, y_t: float, y: float) -> float:
    """d log P(e) / d A_fw for one event and one link of the matrix."""
    if f not in event.features:
        return 0.0
    m_fw = model.rows[f].get(w, 0.0)
    if m_fw == 0.0:
        return 0.0
    indicator = 1.0 if w == event.target else 0.0
    return m_fw * (indicator / y_t - 1.0 / y)


def check_consistency(store: CountStore) -> None:
    """Assert the exact row-sum identity and positive link counts."""
    for f, row in store.rows.items():
        assert store.feature_counts[f] == sum(row.values()), f
        assert all(c >= 1 for c in row.values()), f
    assert set(store.feature_counts) == set(store.rows)


def naive_theta_gradient(events, model, adj, store, vocab) -> dict[int, float]:
    """Per-event, per-link gradient summation straight from the formula.

    For each event and each of its known features, walks every stored
    link of that row: d log P / d A_fw = M_fw * (1_w(e)/y_t - 1/y), then
    pushes the value onto the weight table through the link's
    meta-feature weights. Events with unreachable targets contribute
    nothing (their probability is a floored constant).
    """
    grads: dict[int, float] = {}
    size = adj.table_size
    for e in events:
        feats = [f for f in e.features if f in model.rows]
        y = sum(model.normalizers[f] for f in feats)
        y_t = sum(model.rows[f].get(e.target, 0.0) for f in feats)
        if y_t <= 0.0:
            continue
        for f in feats:
            for w, m_fw in model.rows[f].items():
                indicator = 1.0 if w == e.target else 0.0
                g_link = m_fw * (indicator / y_t - 1.0 / y)
                mfs = compute_metafeatures(
                    f, w, store.feature_counts[f], store.rows[f][w], adj.mode, vocab
                )
                for mf in mfs:
                    k = mf.hash % size
                    grads[k] = grads.get(k, 0.0) + g_link * mf.weight
    return grads


def build_matrix(store: CountStore, adj: AdjustmentModel, vocab):
    """The design of `store` under `adj`'s hashing, and its cells and row sums for `adj`'s weights.

    What `train` holds while an epoch runs.
    """
    design = LinkDesign.build(store, adj.mode, adj.table_size, vocab)
    return (design, *adjusted_cells(design, adj.theta))


def build_model(store: CountStore, adj: AdjustmentModel, vocab) -> SnmModel:
    """The model of `adj`'s weights over `store`, as `train` returns it."""
    return materialize(*build_matrix(store, adj, vocab))


def model_of(rows: dict, normalizers: dict) -> SnmModel:
    """The model with the given dict rows and normalizers, as arrays in design order.

    Rows keep their order; within a row, links are sorted by word id.
    """
    features = list(rows)
    sorted_rows = [sorted(rows[f].items()) for f in features]
    offsets = np.cumsum([0, *map(len, sorted_rows)])
    links = list(chain.from_iterable(sorted_rows))
    return SnmModel(Rows(features, offsets, np.array([w for w, _ in links], dtype=np.int32)),
                    np.array([v for _, v in links], dtype=np.float64),
                    np.array([normalizers[f] for f in features], dtype=np.float64))


def materialized_dicts(design: LinkDesign, cells: np.ndarray, row_sums: np.ndarray):
    """The row dicts and normalizers of the model of `adjusted_cells`, built one link at a time.

    A row per design feature in design order, each the design's words of
    that row, ascending, with their cells; the reference `SnmModel.rows`
    and `SnmModel.normalizers` must equal in order and bit for bit.
    """
    rows = {}
    layout = design.layout
    for r, f in enumerate(layout.features):
        links = range(int(layout.offsets[r]), int(layout.offsets[r + 1]))
        rows[f] = {int(layout.words[i]): float(cells[i]) for i in links}
    return rows, {f: float(row_sums[r]) for r, f in enumerate(layout.features)}


def array_theta_gradient(events, design, cells, row_sums) -> dict[int, float]:
    """`snmlm.adjustment.theta_gradient` of the events as one batch, as {slot: gradient}.

    The events are compiled against `design`.
    """
    step = theta_gradient(compile_events(events, design.layout), design, cells, row_sums)
    return dict(zip(step.slots.tolist(), step.grads.tolist()))


# ---------------------------------------------------------------------------
# Synthetic second-order Markov corpora

class MarkovChain:
    """A fixed sparse second-order chain over V words.

    Transition tables are derived from per-context seeded generators, so
    the same (vocab size, seed) pair always defines the same source.
    """

    def __init__(self, n_words: int, seed: int, branching: int = 5):
        self.n_words = n_words
        self.seed = seed
        self.branching = branching
        self._tables: dict[tuple[int, int], tuple[list[int], list[float]]] = {}

    def _dist(self, ctx: tuple[int, int]):
        entry = self._tables.get(ctx)
        if entry is None:
            r = random.Random(self.seed + ctx[0] * 131 + ctx[1] * 31)
            successors = r.sample(range(self.n_words), self.branching)
            weights = [r.uniform(0.5, 2.0) for _ in successors]
            total = sum(weights)
            entry = self._tables[ctx] = (successors, [w / total for w in weights])
        return entry

    def sentences(self, rng: random.Random, count: int) -> list[list[str]]:
        out = []
        for _ in range(count):
            length = rng.randint(6, 12)
            sent = []
            prev = (-1, -2)
            for _ in range(length):
                successors, weights = self._dist(prev)
                w = rng.choices(successors, weights=weights)[0]
                sent.append(f"w{w:03d}")
                prev = (prev[1], w)
            out.append(sent)
        return out


def extract_corpus_events(sentences, vocab, config, tag=None):
    return [
        e
        for s in sentences
        for e in extract_events(map_tokens(s, vocab), config, tag=tag)
    ]


# ---------------------------------------------------------------------------
# Nested-loop extraction and per-occurrence counting

def oracle_extract_events(sentence, config, tag=None):
    if (
        len(sentence) < 2
        or sentence[0] != S_ID
        or sentence[-1] != E_ID
        or S_ID in sentence[1:]
    ):
        raise DataError("sentence must be framed by <S> ... </S>")

    ngram = config.ngram
    events = []
    for k in range(1, len(sentence)):
        feats: list[Feature] = []
        for n in range(ngram.min_n, min(ngram.max_n, k) + 1):
            feats.append(Feature(tuple(sentence[k - n : k]), tag=tag))
        for blk in config.skip:
            a_hi = blk.max_context_words - blk.min_remote_words
            for a in range(1, a_hi + 1):
                adjacent = tuple(sentence[k - a : k])
                for s in range(blk.min_skip_length, blk.max_skip_length + 1):
                    r_hi = min(
                        blk.max_remote_words,
                        blk.max_context_words - a,
                        k - a - s,
                    )
                    skip_len = None if blk.tie_skip_length else s
                    for r in range(blk.min_remote_words, r_hi + 1):
                        start = k - a - s - r
                        feats.append(
                            Feature(
                                tuple(sentence[start : start + r]) + adjacent,
                                skip_pos=r,
                                skip_len=skip_len,
                                tag=tag,
                            )
                        )
        feats = list(dict.fromkeys(feats))
        events.append(Event(features=tuple(feats), target=sentence[k]))
    return events


def oracle_accumulate(events) -> CountStore:
    rows: dict[Feature, dict[int, int]] = {}
    for event in events:
        for f in event.features:
            row = rows.setdefault(f, {})
            row[event.target] = row.get(event.target, 0) + 1
    return CountStore.from_rows(rows, len(events))


# ---------------------------------------------------------------------------
# The per-line count-file reader

_TOTAL_PREFIX = "#total-events "
_INT64_MAX = (1 << 63) - 1
# Each trailer line's key and the pattern of its value, in file order.
_TRAILER = {"#rows ": "[0-9]+", "#features ": "(?:[^ ]+ )?[0-9]+",
            "#vocab-sha256 ": "[0-9a-f]{64}", "#sha256 ": "[0-9a-f]{64}"}


def seal(text: str, vocab: Vocabulary | str) -> str:
    """A count file's `text`, header to last row, with the trailer a writer ends it with.

    `vocab` is the vocabulary the rows were counted with, or its digest.
    The trailer counts the rows and each tag's features, names the
    vocabulary's SHA-256 and ends with the SHA-256 of all text before it.
    """
    digest = vocab if isinstance(vocab, str) else vocab.digest
    tags: dict[str | None, int] = {}
    last = None
    rows = text.split("\n")[2:-1]
    for line in rows:
        fs = line.split("\t")[0]
        if fs != last:
            tag = fs[:fs.index("[")][:-1] or None
            tags[tag] = tags.get(tag, 0) + 1
            last = fs
    text += f"#rows {len(rows)}\n" + "".join(
        f"#features {n}\n" if tag is None else f"#features {tag} {n}\n" for tag, n in tags.items()
    ) + f"#vocab-sha256 {digest}\n"
    return text + f"#sha256 {hashlib.sha256(text.encode()).hexdigest()}\n"


def oracle_trailer(path, lineno: int, lines: list[str]) -> tuple[int, dict, str, str]:
    """The row count, features per tag, vocabulary digest and digest of the trailer `lines`.

    `lines` run from line `lineno`, the first after the rows, to the end of
    the file, with their line breaks. The first line that is not the one
    the trailer format expects raises its `DataError`.
    """
    values: list[tuple[str, str]] = []
    for n, line in enumerate(lines, lineno):
        text = line.rstrip("\n")
        last = values[-1][0] if values else None
        if last == "#sha256 ":
            raise DataError(f"{path}:{n}: the file goes on after its #sha256 line")
        keys = (["#rows "] if last is None else ["#sha256 "] if last == "#vocab-sha256 "
                else ["#features ", "#vocab-sha256 "])
        key = next((k for k in keys if line.startswith(k)), None)
        if key is None or not line.endswith("\n") or not re.fullmatch(_TRAILER[key],
                                                                     text[len(key):]):
            if text.startswith("#") and text.split(" ")[0] not in [k.strip() for k in _TRAILER]:
                raise line_error(path, n, text, _TOTAL_PREFIX, 3)
            raise DataError(f"{path}:{n}: expected a {' or '.join(k.strip() for k in keys)} "
                            f"line of the trailer, got {text!r}")
        values.append((key, text[len(key):]))
    if not values or values[-1][0] != "#sha256 ":
        raise DataError(f"{path}:{lineno + len(lines)}: no trailer: the file ends before its "
                        "#sha256 line")
    tags = {}
    for key, value in values[1:-2]:
        *tag, n = value.split(" ")
        tags[tag[0] if tag else None] = int(n)
    return int(values[0][1]), tags, values[-2][1], values[-1][1]


def oracle_count_rows(path, vocab_digest: str | None = None, seal_out: list | None = None
                      ) -> Iterator:
    """A count file's event total, then its rows as (feature, word, count, line), read line by line.

    Raises the `DataError` of the first bad line when the stream reaches
    it. After the rows, the trailer must hold the SHA-256 of the file's
    bytes before its last line, the number of rows, and `vocab_digest` if
    given; its features per tag and vocabulary digest go to `seal_out`.
    """
    with open_text(path, newline="\n") as fh:
        head = [fh.readline(), fh.readline()]
        if head[0] == "#snm-counts v1\n":
            raise DataError(f"{path}:1: a v1 count file has no trailer; count it again")
        text = read_preamble(head, path, "count", COUNTS_HEADER, _TOTAL_PREFIX)
        try:
            total = natural(text)
        except ValueError:
            raise DataError(f"{path}:2: bad event total {text!r}") from None
        if total > _INT64_MAX:
            raise DataError(f"{path}:2: event total {text} is more than 2^63-1")
        yield total
        prev: tuple[str, str] | None = None
        row_fs, row_sum = None, 0
        lineno = 2
        for lineno, line in enumerate(fh, start=3):
            if line.startswith("#"):
                trailer = [line, *fh]
                break
            line = line.rstrip("\n")
            parts = line.split("\t")
            if len(parts) != 3:
                raise line_error(path, lineno, line, _TOTAL_PREFIX, 3)
            fs, ws, cs = parts
            try:
                c = natural(cs)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad count {cs!r}") from None
            if c < 1:
                raise DataError(f"{path}:{lineno}: count must be positive, got {c}")
            key = (fs, ws)
            if prev is not None and key <= prev:
                raise DataError(f"{path}:{lineno}: rows out of order")
            prev = key
            if fs == row_fs:
                row_sum += c
            else:
                row_fs, row_sum = fs, c
            if row_sum > total:
                what = f"count {cs}" if c > total else f"row sum of {fs}"
                raise DataError(f"{path}:{lineno}: {what} is more than the event total {total}")
            yield fs, ws, c, lineno
        else:
            raise DataError(f"{path}:{lineno + 1}: no trailer: the file ends after its rows")
    rows, tags, vocab, digest = oracle_trailer(path, lineno, trailer)
    with open(path, "rb") as fh:
        data = fh.read()
    at = lineno + len(tags) + 1  # the vocabulary line
    if hashlib.sha256(data[:data.rindex(b"#sha256 ")]).hexdigest() != digest:
        raise DataError(f"{path}:{at + 1}: changed after it was written: "
                        "the lines before this one do not have this SHA-256")
    if rows != lineno - 3:
        raise DataError(f"{path}:{lineno}: the file has {lineno - 3} rows, not {rows}")
    if vocab_digest is not None and vocab != vocab_digest:
        raise DataError(f"{path}:{at}: written with another vocabulary")
    if seal_out is not None:
        seal_out.append((tags, vocab, at))


def outcome(read):
    """What `read()` returns, or the message of the `DataError` it raises."""
    try:
        return read()
    except DataError as exc:
        return f"DataError: {exc}"


def oracle_load_counts(path, vocab: Vocabulary, keep=None) -> CountStore:
    """`CountStore.load` as one pass over `oracle_count_rows`, parsing every feature string."""
    keep = None if keep is None else set(keep)
    rows: dict[Feature, dict[int, int]] = {}
    file_features: dict[str | None, int] = {}
    parse = feature_parser(vocab)
    last_fs = row = None
    with closing(oracle_count_rows(path, vocab.digest)) as entries:
        total = next(entries)
        for fs, ws, c, lineno in entries:
            wid = vocab.index.get(ws)
            if wid is None:
                raise DataError(f"{path}:{lineno}: unknown word {ws!r}")
            if fs != last_fs:
                last_fs = fs
                try:
                    f = parse(fs)
                except DataError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
                file_features[f.tag] = file_features.get(f.tag, 0) + 1
                row = None
                if keep is None or f in keep:
                    row = rows[f] = {}
            if row is not None:
                row[wid] = c
    store = CountStore.from_rows(rows, total)
    store.file_features = file_features
    return store


def oracle_merge_counts(paths, out_path) -> None:
    """`merge_files` as a heap merge of `oracle_count_rows`, one link at a time."""
    seals: list[list] = [[] for _ in paths]
    streams = [oracle_count_rows(path, seal_out=out) for path, out in zip(paths, seals)]
    try:
        total = sum(next(s) for s in streams)
        if total > _INT64_MAX:
            raise DataError(f"merging {', '.join(map(str, paths))}: "
                            "#total-events is more than 2^63-1")
        text = [f"{COUNTS_HEADER}\n{_TOTAL_PREFIX}{total}\n"]
        current_fs = current_ws = None
        current = 0
        for fs, ws, c, _ in chain(heapq.merge(*streams), [(None, None, 0, 0)]):
            if ws == current_ws and fs == current_fs:
                current += c
            else:
                if current_fs is not None:
                    text.append(f"{current_fs}\t{current_ws}\t{current}\n")
                current_fs, current_ws, current = fs, ws, c
        vocab = seals[0][0][1]
        for path, [(_, other, at)] in zip(paths, seals):
            if other != vocab:
                raise DataError(f"{path}:{at}: written with another vocabulary")
        with atomic_write(out_path) as out:
            out.write(seal("".join(text), vocab))
    finally:
        for s in streams:
            s.close()


_NORM_SECTION = "#normalizers"
_SIZE_PREFIX = "#vocab-size "


def oracle_load_model(path, vocab: Vocabulary) -> SnmModel:
    """`load_model` as one pass over the lines, checking each line before the next.

    Lines are read as written, with no line ending translated. Each feature
    string is parsed once, at its first row; a normalizer is matched to its
    row by its string and is the row's `math.fsum` within 1e-9 relative.
    """
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
    with open_text(path, newline="\n") as fh:
        size = read_preamble([fh.readline(), fh.readline()], path, "model", MODEL_HEADER,
                             _SIZE_PREFIX)
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
                if not math.isclose(value, row_sum, rel_tol=1e-9):
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
    layout, order = Rows.sort_words(features, offsets, np.array(words, dtype=np.int32))
    return SnmModel(layout, np.array(cells, dtype=np.float64)[order],
                    np.array(norms, dtype=np.float64))
