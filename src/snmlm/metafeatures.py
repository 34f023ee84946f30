"""Link meta-features: hashes, count buckets, the column scheme and the link design.

Each link (f, w) of the count matrix is broken into elementary descriptors:
the feature identity string, the feature type, the log2-bucketed feature
count, the target identity, and the log2-bucketed link count, plus
conjunctions of these. `_columns` is the one definition of a link's
meta-features, which descriptors and conjunctions in which order, and
`explain` labels them for one link. Every descriptor is reduced to a 64-bit
hash and its weight; indices into the flat weight table are taken modulo
the table size. Collisions are allowed and simply tie weights together.

Hashing is fixed and platform-independent: strings are fingerprinted with
64-bit FNV-1a over UTF-8, integer buckets are FNV-1a over their 8-byte
little-endian form, and a conjunction of two hashes is
``((rotl64(h1, 17) ^ h2) * K) mod 2^64`` with an odd mixing constant K,
computed on arrays in np.uint64, which wraps mod 2^64.

A link's meta-features depend only on its counts and identities, which are
fixed for a training run; only the weight table changes. `LinkDesign`
hashes every link of a count store at most once, the first time its slots
or weights are read, so that the adjusted matrix and the batch gradient
become array products over it: A = sum_j theta[slot_j] * weight_j per
link, and the transpose pushes a per-link gradient back onto the table
with `np.bincount`. A run whose weight table stays all zero reads neither
and hashes nothing. The design holds the count store and its `Rows`, which
the model made of it shares: rows in store order, word ids ascending within
a row, their counts and row sums. Every link has the same columns, with
zero-weight padding where a count has a single log2 bucket. The slots of
hashes that vary per link are stored in blocks of `_CHUNK` links; a slot
that depends on the row, the word or the link-count class alone comes
from a table over that key. Weights are not stored: a column weighs one
of the row's feature-count bucket weights times one of the link's
link-count bucket weights, looked up per block in small per-count tables.
The design reads its layout's groups and strings: rows are typed once per
feature shape and tag (`Rows.groups`), each distinct type string is
fingerprinted once, and the row strings (`Rows.strings`) and words all at
once by `fingerprints`.
"""

from __future__ import annotations

import enum
import math
import struct

import numpy as np

from .corpus import Vocabulary
from .counts import CountStore, Rows
from .extraction import Feature

_M64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MIX = 0x9E3779B97F4A7C15


class Mode(enum.Enum):
    """Which meta-features are emitted per link.

    FULL emits everything. FEATURE_ONLY keeps only descriptors of the
    feature side (no target identity, no link count). UNLEXICALIZED drops
    the feature-identity and target-identity strings but keeps the type,
    the count buckets, and their conjunctions.
    """

    FULL = "full"
    FEATURE_ONLY = "feature_only"
    UNLEXICALIZED = "unlexicalized"


def fingerprint(s: str) -> int:
    """64-bit FNV-1a of the UTF-8 encoding."""
    h = _FNV_OFFSET
    for b in s.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & _M64
    return h


def fingerprints(strings: list[str]) -> np.ndarray:
    """`fingerprint` of each string, as np.uint64, one byte column at a time.

    The UTF-8 encodings are laid end to end longest first, so the strings
    still running at byte j are a prefix of that order: byte j of each is
    gathered at its start plus j, then xored in and multiplied by the prime
    over the prefix, wrapping mod 2^64. No string is padded to the longest.
    """
    data = [s.encode("utf-8") for s in strings]
    lens = np.fromiter(map(len, data), dtype=np.int64, count=len(data))
    order = np.argsort(-lens, kind="stable")
    lens = lens[order]
    starts = np.cumsum(lens) - lens
    flat = np.frombuffer(b"".join([data[i] for i in order.tolist()]), dtype=np.uint8)
    running = np.searchsorted(-lens, -np.arange(lens.max(initial=0)))
    h = np.full(len(data), _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for j, k in enumerate(running.tolist()):
        part = h[:k]
        part ^= flat[starts[:k] + j]
        part *= prime
    out = np.empty_like(h)
    out[order] = h
    return out


def hash_int(value: int) -> int:
    """64-bit FNV-1a of the 8-byte little-endian integer."""
    h = _FNV_OFFSET
    for b in struct.pack("<q", value):
        h = ((h ^ b) * _FNV_PRIME) & _M64
    return h


def combine(h1: int, h2: int) -> int:
    """Order-sensitive conjunction of two 64-bit hashes."""
    r = ((h1 << 17) | (h1 >> 47)) & _M64
    return ((r ^ h2) * _MIX) & _M64


def _combine(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Order-sensitive conjunction of two uint64 hash arrays."""
    r = (h1 << np.uint64(17)) | (h1 >> np.uint64(47))
    return (r ^ h2) * np.uint64(_MIX)


_bucket_hashes: dict[int, int] = {}


def _bucket_hash(bucket: int) -> int:
    h = _bucket_hashes.get(bucket)
    if h is None:
        h = _bucket_hashes[bucket] = hash_int(bucket)
    return h


def buckets(count: int) -> list[tuple[int, float]]:
    """Log2 buckets of a positive count with their split weights.

    A count whose log2 is integral gets a single bucket of weight 1; any
    other count is split between the floored and ceiled buckets, weighted
    by the log2 fraction lost to each rounding.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if count & (count - 1) == 0:
        return [(count.bit_length() - 1, 1.0)]
    ln = math.log2(count)
    lo = math.floor(ln)
    hi = lo + 1
    return [(lo, hi - ln), (hi, ln - lo)]


def bucket_columns(count: int) -> tuple[int, int, tuple[float, float, float]]:
    """Hashes of the low and high log2 bucket of `count`, and factors (1.0, low, high).

    A count with a single bucket repeats its hash and weighs 0.0 on the
    second: every count fills the same two columns.
    """
    (b, wt), *high = buckets(count)
    b1, wt1 = high[0] if high else (b, 0.0)
    return _bucket_hash(b), _bucket_hash(b1), (1.0, wt, wt1)


def feature_type(f: Feature) -> str:
    """Type descriptor: "3-gram", "skip-(1,2,3)", "skip-(1,*,3)", ...

    A corpus tag is part of the feature identity, not of its type.
    """
    if f.skip_pos is None:
        return f"{len(f.words)}-gram"
    r = f.skip_pos
    a = len(f.words) - r
    s = "*" if f.skip_len is None else str(f.skip_len)
    return f"skip-({r},{s},{a})"


# Links per block of slots, and per chunk when weighting and pushing: keeps
# each array at a few hundred KB instead of the size of every (link, slot)
# pair, which also keeps glibc from raising its mmap threshold to tens of MB.
_CHUNK = 8192


def _bucket_table(values: np.ndarray):
    """Per distinct count: class of each value, (n, 2) bucket hashes, (n, 3) factors.

    The rows are `bucket_columns` of each distinct count.
    """
    uniq, cls = np.unique(values, return_inverse=True)
    split = [bucket_columns(c) for c in uniq.tolist()]
    hashes = np.array([(h0, h1) for h0, h1, _ in split], dtype=np.uint64).reshape(-1, 2)
    factors = np.array([f for _, _, f in split], dtype=np.float64).reshape(-1, 3)
    return cls.reshape(-1).astype(np.int32), hashes, factors


# The key each descriptor of a link depends on alone: its row, word or link-count class.
_KEYS = {"feature": "row", "type": "row", "count0": "row", "count1": "row",
         "word": "word", "link0": "class", "link1": "class"}


def _descriptors(layout: Rows, feature_counts, link_counts, mode: Mode, vocab: Vocabulary):
    """({descriptor: hash table over its key}, then class and factors of each count bucket table.

    Rows are typed per shape and tag (`Rows.groups`), and identified by
    their strings (`Rows.strings`). The word table holds the fingerprints
    of the layout's words in FULL mode only; the feature identity table is
    left out in UNLEXICALIZED mode.
    """
    fcls, fhash, fw = _bucket_table(feature_counts)
    lcls, lhash, lw = _bucket_table(link_counts)
    tables = {
        "type": np.zeros(len(layout), dtype=np.uint64),
        "count0": fhash[fcls, 0],
        "count1": fhash[fcls, 1],
        "word": np.zeros(len(vocab), dtype=np.uint64),
        "link0": lhash[:, 0],
        "link1": lhash[:, 1],
    }
    for rows, _ in layout.groups.values():
        tables["type"][rows] = fingerprint(feature_type(layout.features[rows[0]]))
    if mode is not Mode.UNLEXICALIZED:
        tables["feature"] = fingerprints(layout.strings(vocab))
    if mode is Mode.FULL:
        used = np.flatnonzero(np.bincount(layout.words, minlength=len(vocab)))
        tables["word"][used] = fingerprints([vocab.words[w] for w in used.tolist()])
    return tables, fcls, fw, lcls, lw


def _columns(mode: Mode, desc: dict, combine=_combine):
    """(value, feature factor, link factor, source) per column, in column order.

    This is the one definition of a link's meta-features: which descriptors
    and conjunctions, in which order. `desc` maps each descriptor of `_KEYS`
    to its hashes, or to its label, with a `combine` that conjoins labels.
    Factor indices select a column of the bucket tables (0 is the constant
    1.0). A descriptor's own column has its name as source; a conjunction,
    which varies per link, has source None.
    """
    base = [("type", 0), ("count0", 1), ("count1", 2)]
    if mode is not Mode.UNLEXICALIZED:
        base.insert(0, ("feature", 0))
    items = [(desc[k], fs, 0, k) for k, fs in base]
    if mode is Mode.FEATURE_ONLY:
        return items
    if mode is Mode.FULL:
        target = desc["word"]
        items += [(target, 0, 0, "word")] + [
            (combine(h, target), fs, 0, None) for h, fs, _, _ in items
        ]
    cols = list(items)
    # Both link-count buckets conjoin against the items before the first.
    for j, k in enumerate(("link0", "link1")):
        bh = desc[k]
        cols.append((bh, 0, j + 1, k))
        cols += [(combine(h, bh), fs, j + 1, None) for h, fs, _, _ in items]
    return cols


def explain(
    f: Feature, w: int, feature_count: int, link_count: int, mode: Mode, vocab: Vocabulary
) -> list[tuple[str, int, float]]:
    """(label, hash, weight) of each meta-feature of the link (f, w), in column order.

    Labels name the rendered feature, its type, ``count:2^b`` for a count
    bucket, the target word, and ``a & b`` for a conjunction. The padding
    column of a count with a single bucket weighs 0 and is left out.
    """
    layout = Rows([f], np.array([0, 1]), np.array([w]))
    tables, fcls, fw, lcls, lw = _descriptors(
        layout, np.array([feature_count]), np.array([link_count]), mode, vocab
    )
    keys = {"row": np.zeros(1, dtype=np.intp), "word": layout.words, "class": lcls}
    hashes = _columns(mode, {k: t[keys[_KEYS[k]]] for k, t in tables.items()})
    fb, lb = ([f"count:2^{b}" for b, _ in buckets(c)] for c in (feature_count, link_count))
    labels = {"feature": layout.strings(vocab)[0], "type": feature_type(f), "word": vocab.words[w],
              "count0": fb[0], "count1": fb[-1], "link0": lb[0], "link1": lb[-1]}
    labeled = _columns(mode, labels, lambda a, b: f"{a} & {b}")
    out = []
    for (h, fs, ls, _), (label, _, _, _) in zip(hashes, labeled):
        wt = float(fw[fcls[0], fs] * lw[lcls[0], ls])
        if wt:
            out.append((label, int(h[0]), wt))
    return out


class LinkHasher:
    """(hash, weight) of each meta-feature of the links of one row, one link at a time.

    The scalar form of `LinkDesign`, for code that walks links one by one,
    such as the hashing pass of `perfbench/tracing.py`. It evaluates
    `_columns` on Python ints with `combine`, so the column order keeps its
    one definition; zero-weight padding columns are left out.
    """

    __slots__ = ("mode", "_desc", "_fw")

    def __init__(self, identity: str, type_str: str, feature_count: int, mode: Mode):
        c0, c1, self._fw = bucket_columns(feature_count)
        self._desc = {"feature": fingerprint(identity), "type": fingerprint(type_str),
                      "count0": c0, "count1": c1}
        self.mode = mode

    def link(self, target_fp: int, link_count: int) -> list[tuple[int, float]]:
        """The link's items in column order; `target_fp` is fingerprint(target word)."""
        l0, l1, lw = bucket_columns(link_count)
        desc = {**self._desc, "word": target_fp, "link0": l0, "link1": l1}
        fw = self._fw
        return [(h, wt) for h, fs, ls, _ in _columns(self.mode, desc, combine)
                if (wt := fw[fs] * lw[ls])]


# The hash state of a `LinkDesign`, built the first time any of it is read.
_HASH_STATE = frozenset(("slots", "_lcls", "_fcls", "_fw", "_lw", "_fsel", "_lsel", "_cols",
                         "_dtype"))


class LinkDesign:
    """Slots and weights of every link of one count store, for one hashing setup.

    The design holds the store and its `layout`, the rows it shares with
    the store and with the model made of it, and ``rel_freq``, each link's
    relative frequency. The hash state is ``slots``, one (per-link columns
    x links) block per `_CHUNK` links, and the tables that the other slots
    and the weights are looked up in. It is built from the store's counts
    and row sums the first time any of it is read, at most once.
    """

    __slots__ = ("mode", "table_size", "vocab", "store", "layout", "rel_freq",
                 *sorted(_HASH_STATE))

    @classmethod
    def build(
        cls, counts: CountStore, mode: Mode, table_size: int, vocab: Vocabulary
    ) -> LinkDesign:
        d = cls()
        d.mode, d.table_size, d.vocab = mode, table_size, vocab
        d.store, d.layout = counts, counts.layout
        d.rel_freq = counts.counts * (1.0 / counts.row_sums)[d.layout.row]
        return d

    def __getattr__(self, name: str):
        # Reached only for an attribute that is not set yet.
        if name not in _HASH_STATE:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._hash()
        return object.__getattribute__(self, name)

    def _hash(self) -> None:
        """Hash every link's meta-features into the hash state."""
        mode, layout, store, n = self.mode, self.layout, self.store, self.num_links
        row, words = layout.row, layout.words
        tables, self._fcls, self._fw, self._lcls, self._lw = _descriptors(
            layout, store.row_sums, store.counts, mode, self.vocab
        )

        def columns(part):
            keys = {"row": row[part], "word": words[part], "class": self._lcls[part]}
            return _columns(mode, {k: t[keys[_KEYS[k]]] for k, t in tables.items()})

        self._dtype = dtype = np.int32 if self.table_size <= np.iinfo(np.int32).max else np.int64
        size = np.uint64(self.table_size)
        spec = columns(slice(0, 0))
        self._fsel = np.array([fs for _, fs, _, _ in spec], dtype=np.intp)
        self._lsel = np.array([ls for _, _, ls, _ in spec], dtype=np.intp)
        cols = []
        per_link = 0
        for _, _, _, src in spec:
            if src is None:
                cols.append((None, per_link))
                per_link += 1
            else:
                cols.append((_KEYS[src], (tables[src] % size).astype(dtype)))
        self._cols = cols
        slots = []
        for lo in range(0, n, _CHUNK):
            part = slice(lo, min(lo + _CHUNK, n))
            conj = [h for h, _, _, src in columns(part) if src is None]
            block = np.empty((per_link, part.stop - lo), dtype=dtype)
            for k, h in enumerate(conj):
                block[k] = h % size
            slots.append(block)
        self.slots = slots

    @property
    def num_links(self) -> int:
        return len(self.layout.words)

    def weights(self, links) -> np.ndarray:
        """(columns x len(links)) meta-feature weights of the given links."""
        w = self._fw[self._fcls[self.layout.row[links]]][:, self._fsel].T
        w *= self._lw[self._lcls[links]][:, self._lsel].T
        return w

    def link_slots(self, links: np.ndarray) -> np.ndarray:
        """(columns x len(links)) weight-table slots of links within one block."""
        block = int(links[0]) // _CHUNK
        layout = self.layout
        keys = {"row": layout.row[links], "word": layout.words[links], "class": self._lcls[links]}
        local = links - block * _CHUNK
        out = np.empty((len(self._cols), len(links)), dtype=self._dtype)
        for j, (kind, table) in enumerate(self._cols):
            out[j] = self.slots[block][table, local] if kind is None else table[keys[kind]]
        return out

    def adjustments(self, theta: np.ndarray) -> np.ndarray:
        """A(f,w) of every link under the weight table `theta`.

        Columns are added in column order, one at a time, so each value
        equals a per-link running sum over the link's meta-features bit for
        bit.
        """
        n = self.num_links
        out = np.empty(n)
        for lo in range(0, n, _CHUNK):
            links = np.arange(lo, min(lo + _CHUNK, n))
            slots = self.link_slots(links)
            wts = self.weights(links)
            a = np.zeros(len(links))
            for j in range(len(slots)):
                a += theta[slots[j]] * wts[j]
            out[links] = a
        return out

    def push(self, links: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Weight-table gradient of per-link gradients `g` on the ascending `links`."""
        size = self.table_size
        grads = np.zeros(size)
        cuts = np.flatnonzero(np.diff(links // _CHUNK)) + 1
        for part, g_part in zip(np.split(links, cuts), np.split(g, cuts)):
            if len(part):
                vals = self.weights(part)
                vals *= g_part
                grads += np.bincount(self.link_slots(part).ravel(), vals.ravel(), minlength=size)
        return grads

    def link(self, i: int) -> tuple[Feature, int]:
        return self.layout.features[self.layout.row[i]], int(self.layout.words[i])
