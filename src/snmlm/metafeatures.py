"""Hashed meta-feature decomposition of (feature, target) links.

Each link of the count matrix is broken into elementary descriptors: the
feature identity string, the feature type, the log2-bucketed feature
count, the target identity, and the log2-bucketed link count, plus
conjunctions of these. Every descriptor is reduced to a 64-bit hash and
its weight; indices into the flat weight table are taken modulo the table
size. Collisions are allowed and simply tie weights together.

Hashing is fixed and platform-independent: strings are fingerprinted with
64-bit FNV-1a over UTF-8, integer buckets are FNV-1a over their 8-byte
little-endian form, and a conjunction of two hashes is
``((rotl64(h1, 17) ^ h2) * K) mod 2^64`` with an odd mixing constant K.
"""

from __future__ import annotations

import enum
import math
import struct
from typing import NamedTuple

from .corpus import Vocabulary
from .extraction import Feature, render_feature

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


class MetaFeature(NamedTuple):
    hash: int
    weight: float


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
