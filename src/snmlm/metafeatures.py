"""Hashes, count buckets and feature types: what a link's meta-features are built from.

Each link of the count matrix is broken into elementary descriptors: the
feature identity string, the feature type, the log2-bucketed feature
count, the target identity, and the log2-bucketed link count, plus
conjunctions of these, in the columns `snmlm.design._columns` defines;
`LinkHasher` evaluates those columns for one link at a time. Every
descriptor is reduced to a 64-bit hash and its weight; indices into the
flat weight table are taken modulo the table size. Collisions are allowed
and simply tie weights together.

Hashing is fixed and platform-independent: strings are fingerprinted with
64-bit FNV-1a over UTF-8, integer buckets are FNV-1a over their 8-byte
little-endian form, and a conjunction of two hashes is
``((rotl64(h1, 17) ^ h2) * K) mod 2^64`` with an odd mixing constant K.
"""

from __future__ import annotations

import enum
import math
import struct

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


class LinkHasher:
    """(hash, weight) of each meta-feature of the links of one row, one link at a time.

    The scalar form of `snmlm.design.LinkDesign`, for code that walks links
    one by one, such as the hashing pass of `perfbench/tracing.py`. It
    evaluates `snmlm.design._columns` on Python ints, so the column order
    keeps its one definition; zero-weight padding columns are left out.
    """

    __slots__ = ("mode", "_desc", "_fw", "_columns")

    def __init__(self, identity: str, type_str: str, feature_count: int, mode: Mode):
        from .design import _columns  # design imports this module

        c0, c1, self._fw = bucket_columns(feature_count)
        self._desc = {"feature": fingerprint(identity), "type": fingerprint(type_str),
                      "count0": c0, "count1": c1}
        self.mode, self._columns = mode, _columns

    def link(self, target_fp: int, link_count: int) -> list[tuple[int, float]]:
        """The link's items in column order; `target_fp` is fingerprint(target word)."""
        l0, l1, lw = bucket_columns(link_count)
        desc = {**self._desc, "word": target_fp, "link0": l0, "link1": l1}
        fw = self._fw
        cols = self._columns(self.mode, desc, combine)
        return [(h, wt) for h, fs, ls, _ in cols if (wt := fw[fs] * lw[ls])]
