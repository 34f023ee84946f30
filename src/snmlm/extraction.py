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
Tokens of the form ``skip-<n>``/``skip-*`` are reserved by this grammar,
and no `Vocabulary` holds one, so feature strings read back as written.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .corpus import E_ID, S_ID, Vocabulary, is_skip_marker, natural
from .errors import ConfigError, DataError
from .files import open_text


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
    ngram: NgramConfig
    skip: tuple[SkipConfig, ...]
    # Per tag, the extraction plan bound to that tag's feature tables
    # (_bind_tables); it holds every distinct feature extracted with this
    # config and that tag.
    _tables: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
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

# The blocks a config may hold; a block's keys are its dataclass's fields.
_BLOCKS = {"ngram_extractor": NgramConfig, "skip_ngram_extractor": SkipConfig}
# Bounds on a config integer and on the skip templates of all blocks: larger
# configs only exhaust memory building the extraction plan.
_MAX_CONFIG_INT = 255
_MAX_TEMPLATES = 4096


def _tokenize_config(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("//", 1)[0]
        line = line.replace("{", " { ").replace("}", " } ").replace(":", " : ")
        for tok in line.split():
            yield tok, lineno


def parse_config(text: str, path=None) -> ExtractorConfig:
    """Parse extractor configuration text into a validated config.

    Errors name the line, as ``<path>:<line>`` when `path`, the file the
    text was read from, is given. The config must give every target a
    feature: an n-gram block with min_n at most 1 is required.
    """
    tokens = _tokenize_config(text)
    ngram: NgramConfig | None = None
    ngram_at = path
    skips: list[SkipConfig] = []
    templates = 0

    def at(ln: int) -> str:
        return f"line {ln}" if path is None else f"{path}:{ln}"

    for name, ln in tokens:
        block = _BLOCKS.get(name)
        if block is None:
            raise ConfigError(f"{at(ln)}: unknown block {name!r}")
        brace, bln = next(tokens, (None, ln))
        if brace != "{":
            raise ConfigError(f"{at(bln)}: expected '{{' after {name}")
        # Annotations are strings here (postponed evaluation).
        types = {f.name: f.type for f in dataclasses.fields(block)}
        fields: dict[str, object] = {}
        while True:
            key, kln = next(tokens, (None, -1))
            if key is None:
                raise ConfigError(f"{at(ln)}: unterminated block {name}")
            if key == "}":
                break
            if key not in types:
                raise ConfigError(f"{at(kln)}: unknown key {key!r} in {name}")
            if key in fields:
                raise ConfigError(f"{at(kln)}: duplicate key {key!r} in {name}")
            colon, _ = next(tokens, (None, -1))
            if colon != ":":
                raise ConfigError(f"{at(kln)}: expected ':' after {key}")
            value, vln = next(tokens, (None, -1))
            if value is None:
                raise ConfigError(f"{at(kln)}: missing value for {key}")
            if types[key] == "bool":
                if value not in ("true", "false"):
                    raise ConfigError(f"{at(vln)}: {key} expects true or false, got {value!r}")
                fields[key] = value == "true"
            else:
                try:
                    fields[key] = natural(value)
                except ValueError:
                    raise ConfigError(
                        f"{at(vln)}: {key} expects an integer, got {value!r}"
                    ) from None
                if fields[key] > _MAX_CONFIG_INT:
                    raise ConfigError(f"{at(vln)}: {key} is {value}, more than {_MAX_CONFIG_INT}")
        if block is SkipConfig:
            skips.append(_finish_skip(fields, at(ln)))
            templates += _template_count(skips[-1])
            if templates > _MAX_TEMPLATES:
                raise ConfigError(f"{at(ln)}: skip blocks admit {templates} templates, "
                                  f"more than {_MAX_TEMPLATES}")
        elif ngram is not None:
            raise ConfigError(f"{at(ln)}: duplicate {name} block")
        else:
            ngram_at = at(ln)
            ngram = _finish_ngram(fields, ngram_at)
    # A skip pattern spans its gap and an adjacent word, so only an n-gram
    # of order 0 or 1 fits the first target.
    if ngram is None or ngram.min_n > 1:
        raise ConfigError(("" if ngram_at is None else f"{ngram_at}: ") + "no feature fits the "
                          "first target; configure an n-gram block with min_n: 0 for full coverage")
    return ExtractorConfig(ngram=ngram, skip=tuple(skips))


def _finish_ngram(fields: dict, at: str) -> NgramConfig:
    """The block's config; errors start with `at`, where the block starts."""
    for req in ("min_n", "max_n"):
        if req not in fields:
            raise ConfigError(f"{at}: ngram_extractor requires {req}")
    cfg = NgramConfig(**fields)
    if cfg.min_n > cfg.max_n:
        raise ConfigError(f"{at}: min_n > max_n")
    return cfg


def _finish_skip(fields: dict, at: str) -> SkipConfig:
    """The block's config; errors start with `at`, where the block starts."""
    for req in ("max_context_words", "max_skip_length"):
        if req not in fields:
            raise ConfigError(f"{at}: skip_ngram_extractor requires {req}")
    defaults = {
        "min_remote_words": 1,
        "max_remote_words": fields["max_context_words"] - 1,
        "min_skip_length": 1,
        "tie_skip_length": False,
    }
    cfg = SkipConfig(**{**defaults, **fields})
    if cfg.min_remote_words > cfg.max_remote_words:
        raise ConfigError(f"{at}: min_remote_words > max_remote_words")
    if cfg.min_skip_length < 1:
        raise ConfigError(f"{at}: min_skip_length < 1")
    if cfg.min_skip_length > cfg.max_skip_length:
        raise ConfigError(f"{at}: min_skip_length > max_skip_length")
    if cfg.max_context_words < cfg.min_remote_words + 1:
        raise ConfigError(f"{at}: max_context_words must be at least min_remote_words + 1")
    return cfg


def load_config(path) -> ExtractorConfig:
    with open_text(path) as fh:
        return parse_config(fh.read(), path)


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


def _template_count(blk: SkipConfig) -> int:
    """How many templates `_skip_templates` yields for `blk`, counted per adjacent-word count."""
    skips = blk.max_skip_length - blk.min_skip_length + 1
    return skips * sum(
        max(0, min(blk.max_remote_words, blk.max_context_words - a) - blk.min_remote_words + 1)
        for a in range(1, blk.max_context_words - blk.min_remote_words + 1)
    )


def feature_shapes(config: ExtractorConfig) -> dict[tuple, list[tuple[int, tuple[int, ...], int]]]:
    """Per feature shape, ``(reach, distances, rank)`` of each n-gram order and skip template of it.

    A shape is ``(skip_pos, skip_len, number of words)``, as in `Feature`;
    within a shape, the context words alone identify a feature. At target
    position k the feature holds the words at k - d for each of the
    `distances`, in order, and fits when k >= reach: the order n, or a skip
    template's whole span with its gap. Templates come from
    `_skip_templates`, the plan of `extract_events`, so both extract the same
    features, and `rank` is the place where `extract_events` emits a
    template's feature: n-gram orders shortest first, then skip templates
    in plan order. A shape with one template emits at most one feature per
    event; one with several, only from tied skip lengths or several blocks,
    can emit a feature twice.
    """
    lo, hi = config.ngram.min_n, config.ngram.max_n
    shapes = {(None, None, n): [(n, tuple(range(n, 0, -1)), n - lo)] for n in range(lo, hi + 1)}
    rank = hi - lo + 1
    for blk in config.skip:
        for o, r, a, s in _skip_templates(blk):
            distances = tuple(range(o, o - r, -1)) + tuple(range(a, 0, -1))
            shapes.setdefault((r, s, r + a), []).append((o, distances, rank))
            rank += 1
    return shapes


class _FeatureTable(dict):
    """Context words -> the one `Feature` with these words, skip shape and tag."""

    __slots__ = ("shape",)

    def __init__(self, skip_pos: int | None, skip_len: int | None, tag: str | None):
        self.shape = (skip_pos, skip_len, tag)

    def __missing__(self, words: tuple[int, ...]) -> Feature:
        self[words] = f = tuple.__new__(Feature, (words,) + self.shape)
        return f


class _NgramTable(dict):
    """Context words -> their n-gram features of orders min_n to ``len(words)``, shortest first."""

    def __init__(self, min_n: int, tag: str | None):
        self.min_n, self.tag = min_n, tag
        self[()] = (tuple.__new__(Feature, ((), None, None, tag)),) if min_n == 0 else ()

    def __missing__(self, words: tuple[int, ...]) -> tuple[Feature, ...]:
        # Each suffix not held yet, shortest first, extends the one a word shorter.
        i = next(i for i in range(1, len(words) + 1) if words[i:] in self)  # () is held
        feats = self[words[i:]]
        for j in range(i - 1, -1, -1):
            suffix = words[j:]
            if len(suffix) >= self.min_n:
                feats += (tuple.__new__(Feature, (suffix, None, None, self.tag)),)
            self[suffix] = feats
        return feats


def _bind_tables(config: ExtractorConfig, tag: str | None):
    """The n-gram table, the skip plan, and whether skip features need de-duplicating.

    Built on the tag's first extraction. ``plan[k]`` holds (offset, r, a,
    table) for each skip template whose whole pattern fits in the k tokens
    before target position k, in emission order; positions at or past the
    longest span share the last entry. The n-gram table holds one tuple per
    context and each skip shape (r, skip_len) has its own table, so within a
    table the context words alone identify the feature: equal features
    extracted with this config and tag are one object. Features of one
    untied block differ in (r, s, a), so only tied skip lengths or several
    blocks can emit the same feature twice.
    """
    skips: dict[tuple, _FeatureTable] = {}
    templates = [
        (o, r, a, skips.setdefault((r, s), _FeatureTable(r, s, tag)))
        for blk in config.skip
        for o, r, a, s in _skip_templates(blk)
    ]
    span = max([0, *(t[0] for t in templates)])
    plan = tuple(tuple(t for t in templates if t[0] <= k) for k in range(span + 1))
    dedup = len(config.skip) > 1 or any(b.tie_skip_length for b in config.skip)
    return _NgramTable(config.ngram.min_n, tag), plan, dedup


def extract_events(
    sentence: Sequence[int],
    config: ExtractorConfig,
    tag: str | None = None,
) -> list[Event]:
    """One event per position past <S>; <S> itself is never a target.

    N-gram features of every order in [min_n, max_n] that fits in the left
    context are emitted first, shortest first (order 0 is the empty
    feature): the n-gram table's tuple of the last ``max_n`` words, which
    events with equal contexts share unless they have skip features.
    Skip-gram features follow, per block in config order, for every (a, s, r)
    tuple the block admits with the whole pattern inside the framed
    sentence, as the plan gives them per position (`_bind_tables`). Duplicate
    skip features within an event (tied skip lengths coinciding, or blocks
    overlapping) are kept once, in first-seen order.

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
    hi = config.ngram.max_n
    new = tuple.__new__
    last = len(plan) - 1
    events = []
    append = events.append
    for k in range(1, len(sent)):
        feats = ngrams[sent[k - hi if k > hi else 0 : k]]
        templates = plan[k if k < last else last]
        if templates:
            skips = [tab[sent[k - o : k - o + r] + sent[k - a : k]] for o, r, a, tab in templates]
            # Interned, so equal features are identical: de-duplicate by id.
            feats += tuple(dict(zip(map(id, skips), skips)).values() if dedup else skips)
        append(new(Event, (feats, sent[k])))
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

# The skip markers as token-table values: ``skip-<n>`` is ~n and ``skip-*``
# is ~0, below every word id, so ``~value or None`` is the skip length.
# Longer skips are read token by token (`feature_parser`), up to
# _SKIP_DIGITS digits: no sentence is that long, and `int` refuses strings
# past a limit of its own.
_MARKERS = {"skip-*": ~0, **{f"skip-{n}": ~n for n in range(1, 65)}}
_SKIP_DIGITS = 18


def is_tag(text: str) -> bool:
    """Whether `text` can be a corpus tag: non-empty, no whitespace, no brackets, no leading ``#``.

    The one tag rule, of `--tag` values and of the tags in feature strings.
    A row of a tag starting with ``#`` would read as a file directive.
    """
    return text[:1] not in ("", "#") and not any(ch.isspace() or ch in "[]" for ch in text)


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


def render_rows(
    columns: Sequence[np.ndarray], shape: tuple, tag: str | None, vocab: Vocabulary
) -> list[str]:
    """`render_feature` of each feature of one shape (`feature_shapes`) and tag.

    Feature i has the context words ``columns[j][i]``; with no columns, the
    one feature of the shape is the empty context.
    """
    skip_pos, skip_len, _ = shape
    words = np.array(vocab.words, dtype=object)
    parts: list = [words[col].tolist() for col in columns]
    head = "[" if tag is None else f"{tag}:["
    if not parts:
        return [head + "]"]
    if skip_pos is not None:
        marker = "skip-*" if skip_len is None else f"skip-{skip_len}"
        parts.insert(skip_pos, repeat(marker))
    return [f"{head}{body}]" for body in map(" ".join, zip(*parts))]


def shape_groups(features: Sequence[Feature]) -> dict[tuple, tuple[np.ndarray, np.ndarray]]:
    """Per (shape, tag) of `features`, first seen first: their indices and context words.

    A shape is as in `feature_shapes`. Row k of the words matrix holds the
    words of feature ``indices[k]``; its columns are what `render_rows` takes.
    """
    index: dict[tuple, list[int]] = {}
    for i, (words, skip_pos, skip_len, tag) in enumerate(features):
        index.setdefault(((skip_pos, skip_len, len(words)), tag), []).append(i)
    return {key: (np.array(rows, np.int64), np.array([features[i].words for i in rows], np.int64))
            for key, rows in index.items()}


def parse_feature(s: str, vocab: Vocabulary) -> Feature:
    """The feature a canonical string names; DataError if it names none."""
    return feature_parser(vocab)(s)


def feature_parser(vocab: Vocabulary) -> Callable[[str], Feature]:
    """`parse_feature` for one vocabulary, with its token table built once.

    Each token of the body is looked up in one table: the vocabulary index
    plus the skip markers up to ``skip-64``, which no vocabulary word is
    spelled like (`is_skip_marker`). A string whose tokens all hit the
    table, with at most one marker and a word after it, needs nothing
    more. Any other string is walked token by token, which reads markers
    past ``skip-64`` (up to 18 digits), and raises the string's first error.

    The parser's `fast` attribute runs that fast-path test over many
    strings at once (`fast_path`).
    """
    tokens = {w: i for w, i in vocab.index.items() if w}
    tokens.update(_MARKERS)
    get = tokens.get
    new = tuple.__new__
    # Tags that passed `is_tag`: a file holds few, on many rows.
    tags: set[str] = set()

    def parse(s: str) -> Feature:
        if s[:1] == "[":
            tag, body = None, s
        else:
            i = s.find(":[")
            if i <= 0:
                raise DataError(f"malformed feature string {s!r}")
            tag, body = s[:i], s[i + 1 :]
            if tag not in tags:
                if not is_tag(tag):
                    raise DataError(f"bad corpus tag {tag!r} in feature {s!r}")
                tags.add(tag)
        if body[-1] != "]":
            raise DataError(f"malformed feature string {s!r}")
        if len(body) == 2:
            return new(Feature, ((), None, None, tag))
        parts = body[1:-1].split(" ")
        ids = list(map(get, parts))
        if None not in ids:
            m = min(ids)
            if m >= 0:
                return new(Feature, (tuple(ids), None, None, tag))
            # A skip feature: one marker, the minimum, and a word after it.
            pos = ids.index(m)
            del ids[pos]
            if pos < len(ids) and min(ids) >= 0:
                return new(Feature, (tuple(ids), pos, ~m or None, tag))
        if "" in parts:
            raise DataError(f"malformed feature string {s!r}")
        words: list[int] = []
        skip_pos = skip_len = None
        for part in parts:
            v = get(part)
            if v is None:
                if not is_skip_marker(part):
                    raise DataError(f"unknown token {part!r} in feature {s!r}")
                n = part[5:]
                if len(n) > _SKIP_DIGITS:
                    raise DataError(
                        f"skip length {n[:8]}... has {len(n)} digits, more than {_SKIP_DIGITS}"
                    )
                v = ~int(n)
            if v >= 0:
                words.append(v)
            elif skip_pos is not None:
                raise DataError(f"multiple skip markers in {s!r}")
            else:
                skip_pos, skip_len = len(words), ~v or None
        if skip_pos == len(words):
            raise DataError(f"skip marker without adjacent words in {s!r}")
        return new(Feature, (tuple(words), skip_pos, skip_len, tag))

    table = _Table({**tokens, "\n": _BREAK})  # `fast_path` puts a "\n" token between strings
    parse.fast = lambda strings: fast_path(strings, table)
    return parse


# Table values past every word id, in the table of `fast_path`.
_UNKNOWN, _BREAK = 1 << 62, 1 << 61


class _Table(dict):
    """A token table that looks a missing token up as `_UNKNOWN`, without storing it."""

    def __missing__(self, token):
        return _UNKNOWN


def fast_path(strings: Sequence[str], table: dict) -> np.ndarray:
    """Which of the sorted, distinct `strings` the fast path of `parse` reads.

    Only strings with the first one's head (its text before ``[``, "" or a
    tag and ``:``) may pass: their bodies are joined, split on spaces and
    looked up at once, and unknown tokens and markers counted per string
    with `np.add.reduceat`. The other strings must go through `parse`.
    """
    ok = np.zeros(len(strings), bool)
    head, bracket, _ = strings[0].partition("[") if strings else ("", "", "")
    if bracket and (not head or head[-1] == ":" and is_tag(head[:-1])):
        j = bisect_left(strings, head + "\\")  # "\\" follows "["
        text = "\n".join(strings[:j])
        ids = text[len(head) + 1:-1].replace(f"]\n{head}[", " \n ").split(" ")
        ids = np.fromiter(map(table.__getitem__, ids), np.int64, len(ids))
        breaks = np.flatnonzero(ids == _BREAK)
        if text[-1] == "]" and len(breaks) == j - 1:  # so each string ends with "]"
            starts = np.append(0, breaks + 1)
            unknown = np.add.reduceat(ids == _UNKNOWN, starts, dtype=np.int64)
            markers = np.add.reduceat(ids < 0, starts, dtype=np.int64)
            last = ids[np.append(breaks, len(ids)) - 1]
            # No unknown token, and one marker at most, with a word after it.
            ok[:j] = (unknown == 0) & (markers <= 1) & (last >= 0)
    return ok
