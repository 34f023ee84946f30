"""Feature extraction: extractor configs, events, and feature strings.

A feature is an equivalence class of left contexts: an n-gram prefix of
the target, a skip-gram pattern (remote words, a gap, adjacent words), or
the empty context. Each sentence position past ``<S>`` yields one event
carrying the target word and the set of features its context falls into.

Config files use a small block grammar::

    // line comment
    ngram_extractor {
      min_n: 0
      max_n: 4
    }
    skip_ngram_extractor {
      max_context_words: 4
      min_remote_words: 1
      max_remote_words: 1
      min_skip_length: 1
      max_skip_length: 10
      tie_skip_length: true
    }

Canonical feature strings look like ``[]``, ``[the quick brown]``,
``[brown skip-2 over the lazy]`` (or ``skip-*`` when the skip length is
tied), optionally prefixed with a corpus tag as in ``web:[the quick]``.
Tokens of the form ``skip-<n>``/``skip-*`` are reserved by this grammar
and must not occur as corpus words if feature files are to be re-parsed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .corpus import E_ID, S_ID, Vocabulary
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class NgramConfig:
    min_n: int
    max_n: int


@dataclass(frozen=True)
class SkipConfig:
    """One skip-gram extractor block.

    A pattern has r remote words, a gap of s skipped words, and a adjacent
    words ending right before the target. Blocks constrain r, s, and the
    total context size r + a; a >= 1 always. Omitted remote bounds default
    to min 1 and max ``max_context_words - 1``.
    """

    max_context_words: int
    min_remote_words: int
    max_remote_words: int
    min_skip_length: int
    max_skip_length: int
    tie_skip_length: bool


@dataclass(frozen=True)
class ExtractorConfig:
    ngram: NgramConfig | None
    skip: tuple[SkipConfig, ...]
    # Per-position extraction plan, derived from the fields above (_compile_plan).
    _plan: tuple = field(init=False, repr=False, compare=False)
    # Per tag, the plan bound to that tag's feature tables (_bind_tables); it
    # holds every distinct feature extracted with this config and that tag.
    _tables: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_plan", _compile_plan(self))
        object.__setattr__(self, "_tables", {})


class Feature(NamedTuple):
    """A context equivalence class; one row of the sparse matrix.

    `words` holds the context token ids, oldest first. For skip-gram
    features the gap sits before ``words[skip_pos]`` and `skip_len` is the
    gap length, or None when lengths are tied (rendered ``skip-*``).
    """

    words: tuple[int, ...]
    skip_pos: int | None = None
    skip_len: int | None = None
    tag: str | None = None


class Event(NamedTuple):
    """One prediction instance: the target word and its feature set."""

    features: tuple[Feature, ...]
    target: int


# ---------------------------------------------------------------------------
# Config parsing

_NGRAM_BLOCK = "ngram_extractor"
_SKIP_BLOCK = "skip_ngram_extractor"
_NGRAM_KEYS = {"min_n", "max_n"}
_SKIP_KEYS = {
    "max_context_words",
    "min_remote_words",
    "max_remote_words",
    "min_skip_length",
    "max_skip_length",
    "tie_skip_length",
}
_BOOL_KEYS = {"tie_skip_length"}


def _tokenize_config(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("//", 1)[0]
        line = line.replace("{", " { ").replace("}", " } ").replace(":", " : ")
        for tok in line.split():
            yield tok, lineno


def parse_config(text: str) -> ExtractorConfig:
    """Parse extractor configuration text into a validated config."""
    tokens = list(_tokenize_config(text))
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, -1)

    def take():
        nonlocal pos
        tok, ln = peek()
        pos += 1
        return tok, ln

    ngram: NgramConfig | None = None
    skips: list[SkipConfig] = []

    while pos < len(tokens):
        name, ln = take()
        if name not in (_NGRAM_BLOCK, _SKIP_BLOCK):
            raise ConfigError(f"line {ln}: unknown block {name!r}")
        brace, bln = take()
        if brace != "{":
            raise ConfigError(f"line {bln}: expected '{{' after {name}")
        fields: dict[str, object] = {}
        allowed = _NGRAM_KEYS if name == _NGRAM_BLOCK else _SKIP_KEYS
        while True:
            key, kln = take()
            if key is None:
                raise ConfigError(f"line {ln}: unterminated block {name}")
            if key == "}":
                break
            if key not in allowed:
                raise ConfigError(f"line {kln}: unknown key {key!r} in {name}")
            if key in fields:
                raise ConfigError(f"line {kln}: duplicate key {key!r} in {name}")
            colon, _ = take()
            if colon != ":":
                raise ConfigError(f"line {kln}: expected ':' after {key}")
            value, vln = take()
            if value is None:
                raise ConfigError(f"line {kln}: missing value for {key}")
            if key in _BOOL_KEYS:
                if value not in ("true", "false"):
                    raise ConfigError(
                        f"line {vln}: {key} expects true or false, got {value!r}"
                    )
                fields[key] = value == "true"
            else:
                try:
                    fields[key] = int(value)
                except ValueError:
                    raise ConfigError(
                        f"line {vln}: {key} expects an integer, got {value!r}"
                    ) from None
        if name == _NGRAM_BLOCK:
            if ngram is not None:
                raise ConfigError(f"line {ln}: duplicate {_NGRAM_BLOCK} block")
            ngram = _finish_ngram(fields, ln)
        else:
            skips.append(_finish_skip(fields, ln))

    return ExtractorConfig(ngram=ngram, skip=tuple(skips))


def _finish_ngram(fields: dict, ln: int) -> NgramConfig:
    for req in ("min_n", "max_n"):
        if req not in fields:
            raise ConfigError(f"line {ln}: {_NGRAM_BLOCK} requires {req}")
    cfg = NgramConfig(min_n=fields["min_n"], max_n=fields["max_n"])
    if cfg.min_n < 0:
        raise ConfigError(f"line {ln}: min_n < 0")
    if cfg.min_n > cfg.max_n:
        raise ConfigError(f"line {ln}: min_n > max_n")
    return cfg


def _finish_skip(fields: dict, ln: int) -> SkipConfig:
    for req in ("max_context_words", "max_skip_length"):
        if req not in fields:
            raise ConfigError(f"line {ln}: {_SKIP_BLOCK} requires {req}")
    ctx = fields["max_context_words"]
    cfg = SkipConfig(
        max_context_words=ctx,
        min_remote_words=fields.get("min_remote_words", 1),
        max_remote_words=fields.get("max_remote_words", ctx - 1),
        min_skip_length=fields.get("min_skip_length", 1),
        max_skip_length=fields["max_skip_length"],
        tie_skip_length=fields.get("tie_skip_length", False),
    )
    if cfg.min_remote_words < 0:
        raise ConfigError(f"line {ln}: min_remote_words < 0")
    if cfg.min_remote_words > cfg.max_remote_words:
        raise ConfigError(f"line {ln}: min_remote_words > max_remote_words")
    if cfg.min_skip_length < 1:
        raise ConfigError(f"line {ln}: min_skip_length < 1")
    if cfg.min_skip_length > cfg.max_skip_length:
        raise ConfigError(f"line {ln}: min_skip_length > max_skip_length")
    if cfg.max_context_words < cfg.min_remote_words + 1:
        raise ConfigError(
            f"line {ln}: max_context_words must be at least min_remote_words + 1"
        )
    return cfg


def load_config(path) -> ExtractorConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# Event extraction

def _skip_templates(blk: SkipConfig):
    """(offset, r, a, skip_len) of every pattern of one block, in emission order.

    A pattern ending right before target position k starts at k - offset,
    with offset = r + s + a: r remote words, then a gap of s, then a
    adjacent words.
    """
    for a in range(1, blk.max_context_words - blk.min_remote_words + 1):
        for s in range(blk.min_skip_length, blk.max_skip_length + 1):
            skip_len = None if blk.tie_skip_length else s
            r_hi = min(blk.max_remote_words, blk.max_context_words - a)
            for r in range(blk.min_remote_words, r_hi + 1):
                yield r + s + a, r, a, skip_len


def _compile_plan(config: ExtractorConfig):
    """Per target position: the n-gram orders and skip templates that fit.

    ``plan[k]`` holds the n-gram orders in [min_n, max_n] that fit in the k
    tokens before position k, and the skip templates whose whole pattern
    does, in emission order; positions at or past the longest context share
    the last entry. The plan depends on the config alone. The second value
    says whether skip features need de-duplicating: features of one untied
    block differ in (r, s, a), so only tied skip lengths or several blocks
    can emit the same feature twice.
    """
    lo, hi = (config.ngram.min_n, config.ngram.max_n) if config.ngram else (0, -1)
    templates = [t for blk in config.skip for t in _skip_templates(blk)]
    span = max([hi, *(t[0] for t in templates)])
    plan = tuple(
        (tuple(range(lo, min(hi, k) + 1)), tuple(t for t in templates if t[0] <= k))
        for k in range(max(span, 0) + 1)
    )
    dedup = len(config.skip) > 1 or any(b.tie_skip_length for b in config.skip)
    return plan, dedup


class _FeatureTable(dict):
    """Context words -> the one `Feature` with these words, skip shape and tag."""

    __slots__ = ("shape",)

    def __init__(self, skip_pos: int | None, skip_len: int | None, tag: str | None):
        self.shape = (skip_pos, skip_len, tag)

    def __missing__(self, words: tuple[int, ...]) -> Feature:
        self[words] = f = tuple.__new__(Feature, (words,) + self.shape)
        return f


def _bind_tables(config: ExtractorConfig, tag: str | None):
    """The n-gram table, the plan with skip tables bound, and the de-dup flag.

    ``plan[k]`` becomes (orders, ((offset, r, a, table), ...)). All n-gram
    orders share one table and each skip shape (r, skip_len) has its own, so
    within a table the context words alone identify the feature: equal
    features extracted with this config and tag are one object.
    """
    plan, dedup = config._plan
    ngrams = _FeatureTable(None, None, tag)
    # The last position's templates are all of them.
    skips = {(r, s): _FeatureTable(r, s, tag) for _, r, _, s in plan[-1][1]}
    bound = tuple(
        (orders, tuple((o, r, a, skips[r, s]) for o, r, a, s in templates))
        for orders, templates in plan
    )
    return ngrams, bound, dedup


def extract_events(
    sentence: Sequence[int],
    config: ExtractorConfig,
    tag: str | None = None,
) -> list[Event]:
    """One event per position past <S>; <S> itself is never a target.

    N-gram features of every order in [min_n, max_n] that fits in the left
    context are emitted first, shortest first (order 0 is the empty
    feature). Skip-gram features follow, per block in config order, for
    every (a, s, r) tuple the block admits with the whole pattern inside
    the framed sentence. Orders and skip templates per position come from
    the plan compiled with the config (`_compile_plan`). Duplicate skip
    features within an event (tied skip lengths coinciding, or blocks
    overlapping) are kept once, in first-seen order; n-gram features are
    distinct by construction.

    Features are interned in tables owned by `config`, one set per tag
    (`_bind_tables`): every call with the same config and tag returns the
    same `Feature` object for equal features.
    """
    sent = tuple(sentence)
    if len(sent) < 2 or sent[0] != S_ID or sent[-1] != E_ID or S_ID in sent[1:]:
        raise DataError("sentence must be framed by <S> ... </S>")

    tables = config._tables.get(tag)
    if tables is None:
        tables = config._tables[tag] = _bind_tables(config, tag)
    ngrams, plan, dedup = tables
    new = tuple.__new__
    last = len(plan) - 1
    events = []
    append = events.append
    for k in range(1, len(sent)):
        orders, templates = plan[k if k < last else last]
        feats = [ngrams[sent[k - n : k]] for n in orders]
        if templates:
            skips = [tab[sent[k - o : k - o + r] + sent[k - a : k]] for o, r, a, tab in templates]
            # Interned, so equal features are identical: de-duplicate by id.
            feats.extend(dict(zip(map(id, skips), skips)).values() if dedup else skips)
        if not feats:
            raise DataError(
                f"no features for target at position {k}; "
                "configure an n-gram block with min_n: 0 for full coverage"
            )
        append(new(Event, (tuple(feats), sent[k])))
    return events


def expand_tags(event: Event, all_tags: Sequence[str]) -> Event:
    """Replace each untagged feature with one tagged copy per corpus tag.

    Used on development and test events when the count matrix was built
    from tagged sources.
    """
    if not all_tags:
        raise DataError("expand_tags requires at least one tag")
    for f in event.features:
        if f.tag is not None:
            raise DataError("expand_tags expects untagged features")
    new = tuple.__new__
    expanded = tuple(
        new(Feature, (f.words, f.skip_pos, f.skip_len, tag))
        for f in event.features
        for tag in all_tags
    )
    return Event(features=tuple(dict.fromkeys(expanded)), target=event.target)


# ---------------------------------------------------------------------------
# Feature strings

_SKIP_MARKER = re.compile(r"^skip-([1-9][0-9]*|\*)$")


def render_feature(f: Feature, vocab: Vocabulary) -> str:
    """Canonical string form; inverse of parse_feature."""
    parts = [vocab.words[w] for w in f.words]
    if f.skip_pos is not None:
        marker = "skip-*" if f.skip_len is None else f"skip-{f.skip_len}"
        parts.insert(f.skip_pos, marker)
    body = "[" + " ".join(parts) + "]"
    if f.tag is not None:
        return f"{f.tag}:{body}"
    return body


def parse_feature(s: str, vocab: Vocabulary) -> Feature:
    tag: str | None = None
    body = s
    if not s.startswith("["):
        idx = s.find(":[")
        if idx <= 0:
            raise DataError(f"malformed feature string {s!r}")
        tag, body = s[:idx], s[idx + 1 :]
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
