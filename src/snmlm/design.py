"""The link design matrix: every link's weight-table slots and weights.

A link's meta-features depend only on its counts and identities, which are
fixed for a training run; only the weight table changes. `LinkDesign`
hashes every link of a count store once, so that the adjusted matrix and
the batch gradient become array products over it: A = sum_j theta[slot_j]
* weight_j per link, and the transpose pushes a per-link gradient back
onto the table with `np.bincount`.

Links are grouped by row in count-store order and sorted by word id within
a row. Every link has the same columns, in the item order of
`LinkHasher.link`, with zero-weight padding where a count has a single
log2 bucket, so summing the columns in order adds the same products in the
same order as the per-link loop. The slots of hashes that vary per link
are stored in blocks of `_CHUNK` links; a slot that depends on the row,
the word or the link-count class alone comes from a table over that key.
Weights are not stored: a column weighs one of the row's feature-count
bucket weights times one of the link's link-count bucket weights, looked
up per block in small per-count tables.

Each distinct feature string, type string and word is fingerprinted once,
and `combine` runs vectorized in np.uint64, which wraps mod 2^64 as the
scalar version's mask does.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .corpus import Vocabulary
from .extraction import Feature, render_feature
from .metafeatures import _MIX, Mode, _bucket_hash, buckets, feature_type, fingerprint

if TYPE_CHECKING:
    from .counts import CountStore

# Links per block of slots, and per chunk when weighting and pushing: keeps
# each array at a few hundred KB instead of the size of every (link, slot)
# pair, which also keeps glibc from raising its mmap threshold to tens of MB.
_CHUNK = 8192


def _combine(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """`combine` on uint64 arrays."""
    r = (h1 << np.uint64(17)) | (h1 >> np.uint64(47))
    return (r ^ h2) * np.uint64(_MIX)


def _bucket_table(values: np.ndarray):
    """Per distinct count: class of each value, (n, 2) bucket hashes, (n, 3) factors.

    Factor column 0 is 1.0 and columns 1 and 2 are the weights of the low
    and high bucket; a count with a single bucket gets 0.0 for the second,
    whose hash then repeats the first.
    """
    uniq, cls = np.unique(values, return_inverse=True)
    hashes = np.empty((len(uniq), 2), dtype=np.uint64)
    factors = np.zeros((len(uniq), 3))
    factors[:, 0] = 1.0
    for i, c in enumerate(uniq.tolist()):
        split = buckets(c)
        for j, (b, wt) in enumerate(split):
            hashes[i, j] = _bucket_hash(b)
            factors[i, j + 1] = wt
        if len(split) == 1:
            hashes[i, 1] = hashes[i, 0]
    return cls.reshape(-1).astype(np.int32), hashes, factors


def _columns(mode: Mode, base, target, link_buckets):
    """(hash, feature factor, link factor, source) per column, in LinkHasher order.

    `base` holds the feature-side (hash, feature factor) pairs; factor
    indices select a column of the bucket tables (0 is the constant 1.0).
    The source of a hash that depends on the row, the word or the
    link-count class alone is ("row", i), ("word", 0) or ("class", j);
    a conjunction, which varies per link, has source None.
    """
    items = [(h, fs, 0, ("row", i)) for i, (h, fs) in enumerate(base)]
    if mode is Mode.FEATURE_ONLY:
        return items
    if mode is Mode.FULL:
        items.append((target, 0, 0, ("word", 0)))
        items += [(_combine(h, target), fs, 0, None) for h, fs in base]
    cols = list(items)
    # Both link-count buckets conjoin against the items before the first.
    for j, bh in enumerate(link_buckets):
        cols.append((bh, 0, j + 1, ("class", j)))
        cols += [(_combine(h, bh), fs, j + 1, None) for h, fs, _, _ in items]
    return cols


class LinkDesign:
    """Slots and weights of every link of one count store, for one hashing setup.

    ``row``, ``words`` and ``rel_freq`` are per link, ``offsets`` delimits
    each row's links, and ``slots`` holds one (per-link columns x links)
    block per `_CHUNK` links.
    """

    __slots__ = (
        "mode", "table_size", "vocab", "features", "row_index",
        "offsets", "row", "words", "rel_freq", "slots",
        "_lcls", "_fcls", "_fw", "_lw", "_fsel", "_lsel", "_cols", "_dtype",
    )

    @classmethod
    def build(
        cls, counts: "CountStore", mode: Mode, table_size: int, vocab: Vocabulary
    ) -> "LinkDesign":
        if table_size < 1:
            raise ValueError(f"table_size must be >= 1, got {table_size}")
        d = cls()
        d.mode, d.table_size, d.vocab = mode, table_size, vocab
        rows = counts.rows
        d.features = features = list(rows)
        n_rows = len(features)
        d.row_index = {f: r for r, f in enumerate(features)}
        lens = np.fromiter(map(len, rows.values()), dtype=np.int64, count=n_rows)
        d.offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(lens, out=d.offsets[1:])
        n = int(d.offsets[-1])
        d.row = row = np.repeat(np.arange(n_rows, dtype=np.int32), lens)
        words = np.fromiter(chain.from_iterable(rows.values()), dtype=np.int32, count=n)
        link_counts = np.fromiter(
            chain.from_iterable(r.values() for r in rows.values()), dtype=np.int64, count=n
        )
        order = np.lexsort((words, row))
        d.words = words = words[order]
        link_counts = link_counts[order]
        del order
        feature_counts = np.fromiter(
            (counts.feature_counts[f] for f in features), dtype=np.int64, count=n_rows
        )
        d.rel_freq = link_counts * (1.0 / feature_counts)[row]
        d._lcls, lhash, d._lw = _bucket_table(link_counts)
        del link_counts
        d._fcls, fhash, d._fw = _bucket_table(feature_counts)

        # Feature-side hashes per row, fingerprints per word.
        types = [feature_type(f) for f in features]
        type_fps = {t: fingerprint(t) for t in set(types)}
        base = [
            (np.array([type_fps[t] for t in types], dtype=np.uint64), 0),
            (fhash[d._fcls, 0], 1),
            (fhash[d._fcls, 1], 2),
        ]
        if mode is not Mode.UNLEXICALIZED:
            ids = [fingerprint(render_feature(f, vocab)) for f in features]
            base.insert(0, (np.array(ids, dtype=np.uint64), 0))
        word_fps = np.zeros(len(vocab), dtype=np.uint64)
        if mode is Mode.FULL:
            used = np.flatnonzero(np.bincount(words, minlength=len(vocab)))
            fps = [fingerprint(vocab.words[w]) for w in used.tolist()]
            word_fps[used] = np.array(fps, dtype=np.uint64)

        def columns(part):
            r = row[part]
            lc = d._lcls[part]
            return _columns(mode, [(h[r], fs) for h, fs in base], word_fps[words[part]],
                            (lhash[lc, 0], lhash[lc, 1]))

        d._dtype = dtype = np.int32 if table_size <= np.iinfo(np.int32).max else np.int64
        size = np.uint64(table_size)
        sources = {"row": [h for h, _ in base], "word": [word_fps], "class": lhash.T}
        spec = columns(slice(0, 0))
        d._fsel = np.array([fs for _, fs, _, _ in spec], dtype=np.intp)
        d._lsel = np.array([ls for _, _, ls, _ in spec], dtype=np.intp)
        d._cols = []
        per_link = 0
        for _, _, _, src in spec:
            if src is None:
                d._cols.append((None, per_link))
                per_link += 1
            else:
                kind, i = src
                d._cols.append((kind, (sources[kind][i] % size).astype(dtype)))
        d.slots = []
        for lo in range(0, n, _CHUNK):
            part = slice(lo, min(lo + _CHUNK, n))
            conj = [h for h, _, _, src in columns(part) if src is None]
            block = np.empty((per_link, part.stop - lo), dtype=dtype)
            for k, h in enumerate(conj):
                block[k] = h % size
            d.slots.append(block)
        return d

    @property
    def num_links(self) -> int:
        return len(self.row)

    def weights(self, links) -> np.ndarray:
        """(columns x len(links)) meta-feature weights of the given links."""
        w = self._fw[self._fcls[self.row[links]]][:, self._fsel].T
        w *= self._lw[self._lcls[links]][:, self._lsel].T
        return w

    def link_slots(self, links: np.ndarray) -> np.ndarray:
        """(columns x len(links)) weight-table slots of links within one block."""
        block = int(links[0]) // _CHUNK
        keys = {"row": self.row[links], "word": self.words[links], "class": self._lcls[links]}
        local = links - block * _CHUNK
        out = np.empty((len(self._cols), len(links)), dtype=self._dtype)
        for j, (kind, table) in enumerate(self._cols):
            out[j] = self.slots[block][table, local] if kind is None else table[keys[kind]]
        return out

    def adjustments(self, theta: np.ndarray) -> np.ndarray:
        """A(f,w) of every link under the weight table `theta`.

        Columns are added in LinkHasher's item order, one at a time, so each
        value equals the per-link loop's running sum bit for bit.
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
        return self.features[self.row[i]], int(self.words[i])

    def row_ids(self, features: Iterable[Feature], count: int) -> np.ndarray:
        return np.fromiter(map(self.row_index.__getitem__, features), dtype=np.int64, count=count)

    def links_of(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ids of every link of the given rows, concatenated, and each row's length.

        For ascending `rows` the ids ascend too.
        """
        starts = self.offsets[rows]
        lens = self.offsets[rows + 1] - starts
        shift = starts - (np.cumsum(lens) - lens)
        return np.arange(int(lens.sum())) + np.repeat(shift, lens), lens

    def find(self, links: np.ndarray, rows: np.ndarray, words: np.ndarray) -> np.ndarray:
        """Positions in the ascending `links` of the links (rows[i], words[i])."""
        v = len(self.vocab)
        have = self.row[links].astype(np.int64) * v + self.words[links]
        want = rows * v + words
        pos = np.searchsorted(have, want)
        if len(want) and (pos.max() >= len(have) or not np.array_equal(have[pos], want)):
            raise ValueError("link not among the given links")
        return pos
