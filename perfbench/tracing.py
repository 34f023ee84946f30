"""Span tracing of one pipeline iteration, from outside the program.

The tracer replaces public functions and methods of `snmlm` with timing
wrappers at the name each caller looks them up by (a module global such as
``snmlm.cli.extract_events``, or a class attribute such as
``CountStore.add_event``), runs the real code path unchanged, and restores
the originals afterwards. Each span has a name, start, end, parent and run
id; times are process CPU seconds, as in the untraced run. Calls made many
times per iteration are aggregated as count + total + self time per
(name, parent name) instead of being kept one by one. Self time is a span's
duration minus the durations of its direct children.
A wrapped name that no longer exists is recorded as absent, and every
metric that depends only on absent names is reported as absent, not 0.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import math
import os
import statistics
import time
from typing import Callable

import numpy as np
from snmlm.corpus import UNK_ID

# (lookup path, span name, high-frequency). One span name may be looked up
# under several paths, e.g. extract_events through snmlm.cli and through
# snmlm.extraction; both feed the same span.
TARGETS = [
    ("snmlm.cli.main", "cli.main", False),
    ("snmlm.cli.cmd_build_vocab", "cli.build_vocab", False),
    ("snmlm.cli.cmd_count", "cli.count", False),
    ("snmlm.cli.cmd_train", "cli.train", False),
    ("snmlm.cli.cmd_eval", "cli.eval", False),
    ("snmlm.corpus.TaggedCorpus.from_file", "corpus.from_file", False),
    ("snmlm.corpus.map_tokens", "corpus.map_tokens", True),
    ("snmlm.corpus.build_vocab", "corpus.build_vocab", False),
    ("snmlm.cli.build_vocab", "corpus.build_vocab", False),
    ("snmlm.extraction.extract_events", "extraction.extract_events", True),
    ("snmlm.cli.extract_events", "extraction.extract_events", True),
    ("snmlm.extraction.expand_tags", "extraction.expand_tags", True),
    ("snmlm.cli.expand_tags", "extraction.expand_tags", True),
    ("snmlm.counts.accumulate", "counts.accumulate", False),
    ("snmlm.counts.CountStore.add_event", "counts.add_event", True),
    ("snmlm.counts.CountStore.save", "counts.save", False),
    ("snmlm.counts.CountStore.load", "counts.load", False),
    ("snmlm.counts.CountStore.intersect", "counts.intersect", False),
    ("snmlm.counts.merge_files", "counts.merge_files", False),
    ("snmlm.adjustment.train", "adjustment.train", False),
    ("snmlm.cli.train", "adjustment.train", False),
    ("snmlm.adjustment.process_batch", "adjustment.process_batch", False),
    ("snmlm.adjustment.BatchAccumulator.add_event", "adjustment.add_event", True),
    ("snmlm.adjustment.batch_theta_gradient", "adjustment.theta_gradient", False),
    ("snmlm.adjustment.apply_adagrad", "adjustment.adagrad", False),
    ("snmlm.adjustment.AdjustmentModel.save", "adjustment.save", False),
    ("snmlm.adjustment.materialize", "model.materialize", False),
    ("snmlm.cli.materialize", "model.materialize", False),
    ("snmlm.adjustment.renormalize", "model.renormalize", False),
    ("snmlm.adjustment.perplexity", "model.perplexity", False),
    ("snmlm.cli.perplexity", "model.perplexity", False),
    ("snmlm.model.perplexity", "model.perplexity", False),
    ("snmlm.cli.save_model", "model.save", False),
    ("snmlm.cli.load_model", "model.load", False),
]

def _resolve(path: str):
    """(owner, attribute, raw value) for a dotted lookup path, or None."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            return owner, parts[-1], inspect.getattr_static(owner, parts[-1])
        except AttributeError:
            return None
    return None


class Tracer:
    """In-memory spans and counters for one traced iteration."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.agg: dict[tuple[str, str | None], list[float]] = {}
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.captured: dict[str, object] = {}
        self.absent: list[str] = []
        self.present: set[str] = set()
        self.hook_errors: dict[str, str] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[Callable[[], None]] = []

    # -- spans ------------------------------------------------------------

    def _push(self, name: str) -> list:
        self._next_id += 1
        frame = [name, self._next_id, time.process_time(), 0.0]
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list, keep: bool) -> float:
        end = time.process_time()
        self._stack.pop()
        name, span_id, start, child = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        key = (name, parent[0] if parent else None)
        entry = self.agg.get(key)
        if entry is None:
            entry = self.agg[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if keep:
            self.spans.append({
                "name": name, "id": span_id, "start": start, "end": end,
                "parent": parent[1] if parent else None, "run": self.run_id,
            })
        return duration

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._push(name)
        try:
            yield
        finally:
            self._pop(frame, keep=True)

    def _hook_time(self, seconds: float) -> None:
        """Keep hook work out of the enclosing span's self time."""
        if self._stack:
            self._stack[-1][3] += seconds

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # -- wrappers -----------------------------------------------------------

    def install(self) -> None:
        for path, name, frequent in TARGETS:
            resolved = _resolve(path)
            if resolved is None:
                self.absent.append(path)
                continue
            owner, attr, raw = resolved
            self.present.add(name)
            hook = HOOKS.get(name)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name, frequent, hook))
            else:
                wrapped = self._wrap(raw, name, frequent, hook)
            setattr(owner, attr, wrapped)
            self._undo.append(lambda o=owner, a=attr, r=raw: setattr(o, a, r))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap(self, fn, name: str, frequent: bool, hook):
        tracer = self
        before, after = hook if hook else (None, None)

        def run_hook(hook, *args):
            # A hook reads program internals that a refactor may rename; its
            # metrics then turn absent instead of failing the traced run.
            if name in tracer.hook_errors:
                return None
            t0 = time.process_time()
            try:
                return hook(tracer, *args)
            except Exception as exc:
                tracer.hook_errors[name] = repr(exc)
                return None
            finally:
                tracer._hook_time(time.process_time() - t0)

        def traced(*args, **kwargs):
            state = run_hook(before, args) if before else None
            frame = tracer._push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(frame, keep=not frequent)
            if after:
                run_hook(after, args, result, state)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reading ----------------------------------------------------------

    def inclusive(self, *names: str) -> float:
        """Total time of the named spans, not counting nesting among them."""
        return sum(
            e[1] for (n, parent), e in self.agg.items()
            if n in names and parent not in names
        )

    def calls(self, name: str) -> int:
        return int(sum(e[0] for (n, _), e in self.agg.items() if n == name))

    def self_time(self, *names: str) -> float:
        return sum(e[2] for (n, _), e in self.agg.items() if n in names)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def dump(self) -> dict:
        return {
            "run": self.run_id,
            "absent": self.absent,
            "hook_errors": self.hook_errors,
            "spans": self.spans,
            "aggregated": [
                {"name": n, "parent": p, "count": e[0], "total_s": e[1], "self_s": e[2]}
                for (n, p), e in sorted(self.agg.items(), key=lambda kv: -kv[1][1])
            ],
            "counters": self.counters,
        }


# ---------------------------------------------------------------------------
# Hooks: (before(tracer, args) -> state, after(tracer, args, result, state)).
# They read sizes off arguments and results; none of them changes either.

def _after_map_tokens(t, args, ids, _):
    t.count("corpus.tokens", len(ids) - 1)
    t.count("corpus.unk", ids.count(UNK_ID))


def _after_extract(t, args, events, _):
    t.count("extraction.events", len(events))
    t.count("extraction.features", sum(len(e.features) for e in events))


def _store_size(t, store) -> None:
    links = store.num_links
    if links >= t.counters.get("counts.links", 0):
        t.counters["counts.links"] = links
        t.counters["counts.features"] = len(store)


def _after_accumulate(t, args, store, _):
    _store_size(t, store)


def _after_save(t, args, result, _):
    _store_size(t, args[0])
    t.count("counts.file_bytes", os.path.getsize(args[1]))


def _after_load(t, args, store, _):
    _store_size(t, store)


def _after_merge(t, args, result, _):
    t.count("counts.file_bytes", os.path.getsize(args[1]))


def _after_intersect(t, args, sub, _):
    t.captured["intersected"] = sub
    t.sample("counts.kept_link_share", sub.num_links / max(args[0].num_links, 1))


def _after_process_batch(t, args, acc, _):
    t.count("adjustment.floored_events", acc.floored_events)


def _after_theta_gradient(t, args, grads, _):
    acc, model = args[0], args[1]
    rows = model.rows
    t.sample("adjustment.rows_walked", len(acc.alpha))
    t.sample("adjustment.links_walked", sum(len(rows[f]) for f in acc.alpha))
    t.sample("adjustment.grad_slots", len(grads))
    t.sample("adjustment.grad_norm", math.sqrt(math.fsum(g * g for g in grads.values())))


def _before_adagrad(t, args):
    return args[0].theta.copy()


def _after_adagrad(t, args, result, theta_before):
    t.sample("adjustment.update_norm", float(np.linalg.norm(args[0].theta - theta_before)))


def _after_materialize(t, args, model, _):
    t.count("model.links_processed", args[0].num_links)
    t.counters["model.links"] = sum(len(r) for r in model.rows.values())


def _after_renormalize(t, args, model, _):
    links = sum(len(r) for r in model.rows.values())
    t.count("model.links_processed", links)
    t.counters["model.links"] = links


def _after_save_model(t, args, result, _):
    t.count("model.file_bytes", os.path.getsize(args[1]))


def _after_load_model(t, args, model, _):
    t.counters["model.links"] = sum(len(r) for r in model.rows.values())


# span name -> the metrics its hook measures
HOOK_METRICS = {
    "corpus.map_tokens": ("corpus.tokens", "corpus.oov_rate"),
    "extraction.extract_events": (
        "extraction.events", "extraction.features_per_event", "extraction.us_per_event",
    ),
    "counts.accumulate": ("counts.features", "counts.links"),
    "counts.save": ("counts.features", "counts.links", "counts.file_bytes"),
    "counts.load": ("counts.features", "counts.links"),
    "counts.merge_files": ("counts.file_bytes",),
    "counts.intersect": ("counts.kept_link_share",),
    "adjustment.process_batch": ("adjustment.floored_events",),
    "adjustment.theta_gradient": (
        "adjustment.rows_walked_per_batch", "adjustment.links_walked_per_batch",
        "adjustment.grad_slots_per_batch", "adjustment.grad_norm",
    ),
    "adjustment.adagrad": ("adjustment.update_norm",),
    "model.materialize": ("model.us_per_link", "model.links"),
    "model.renormalize": ("model.us_per_link", "model.links"),
    "model.save": ("model.file_bytes",),
    "model.load": ("model.links",),
}

HOOKS = {
    "corpus.map_tokens": (None, _after_map_tokens),
    "extraction.extract_events": (None, _after_extract),
    "counts.accumulate": (None, _after_accumulate),
    "counts.save": (None, _after_save),
    "counts.load": (None, _after_load),
    "counts.merge_files": (None, _after_merge),
    "counts.intersect": (None, _after_intersect),
    "adjustment.process_batch": (None, _after_process_batch),
    "adjustment.theta_gradient": (None, _after_theta_gradient),
    "adjustment.adagrad": (_before_adagrad, _after_adagrad),
    "model.materialize": (None, _after_materialize),
    "model.renormalize": (None, _after_renormalize),
    "model.save": (None, _after_save_model),
    "model.load": (None, _after_load_model),
}


# ---------------------------------------------------------------------------
# Meta-feature pass

def metafeature_pass(store, vocab, mode, table_size: int) -> dict[str, float] | None:
    """Hash every link of `store` once with LinkHasher.link, as materialize does.

    The first loop is timed and keeps only the item count; the second,
    untimed, collects the distinct hashes for occupancy and collisions.
    Returns None when the hashing API this pass calls no longer exists.
    """
    try:
        from snmlm.extraction import render_feature
        from snmlm.metafeatures import LinkHasher, feature_type, fingerprint
    except ImportError:
        return None
    words = vocab.words

    def hashers():
        fps: dict[int, int] = {}
        for f, row in store.rows.items():
            hasher = LinkHasher(
                render_feature(f, vocab), feature_type(f), store.feature_counts[f], mode
            )
            for w, c in row.items():
                fp = fps.get(w)
                if fp is None:
                    fp = fps[w] = fingerprint(words[w])
                yield hasher.link(fp, c)

    links = 0
    items = 0
    try:
        t0 = time.process_time()
        for link_items in hashers():
            links += 1
            items += len(link_items)
        hash_s = time.process_time() - t0
        distinct = {h for link_items in hashers() for h, _ in link_items}
    except (AttributeError, TypeError, ValueError):
        return None  # the hashing API changed shape
    per_slot: dict[int, int] = {}
    for h in distinct:
        slot = h % table_size
        per_slot[slot] = per_slot.get(slot, 0) + 1
    return {
        "metafeatures.hash_s": hash_s,
        "metafeatures.us_per_link": 1e6 * hash_s / max(links, 1),
        "metafeatures.items_per_link": items / max(links, 1),
        "metafeatures.slots_touched": len(per_slot),
        "metafeatures.table_occupancy": len(per_slot) / table_size,
        "metafeatures.collisions": sum(n for n in per_slot.values() if n > 1),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics

def _tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples beyond it.

    With 10 samples or fewer no percentile has, and the median stands in.
    """
    n = len(values)
    if n < 11:
        return 50.0, _median(values)
    k = n - 11
    return 100.0 * (k + 1) / n, sorted(values)[k]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# metric -> span names it is measured from; a metric whose span names are
# all absent is reported as absent.
SOURCES = {
    "corpus.read_s": ("corpus.from_file", "corpus.map_tokens"),
    "corpus.vocab_s": ("corpus.build_vocab",),
    "corpus.tokens": ("corpus.map_tokens",),
    "corpus.oov_rate": ("corpus.map_tokens",),
    "extraction.extract_s": ("extraction.extract_events",),
    "extraction.events": ("extraction.extract_events",),
    "extraction.features_per_event": ("extraction.extract_events",),
    "extraction.us_per_event": ("extraction.extract_events",),
    "extraction.expand_tags_s": ("extraction.expand_tags",),
    "counts.accumulate_s": ("counts.add_event", "counts.accumulate"),
    "counts.us_per_event": ("counts.add_event", "counts.accumulate"),
    "counts.features": ("counts.accumulate", "counts.save", "counts.load"),
    "counts.links": ("counts.accumulate", "counts.save", "counts.load"),
    "counts.save_s": ("counts.save",),
    "counts.merge_s": ("counts.merge_files",),
    "counts.load_s": ("counts.load",),
    "counts.file_bytes": ("counts.save", "counts.merge_files"),
    "counts.intersect_s": ("counts.intersect",),
    "counts.kept_link_share": ("counts.intersect",),
    "adjustment.accumulate_s": ("adjustment.add_event",),
    "adjustment.theta_gradient_s": ("adjustment.theta_gradient",),
    "adjustment.adagrad_s": ("adjustment.adagrad",),
    "adjustment.batches": ("adjustment.process_batch",),
    "adjustment.batch_ms_p50": ("adjustment.process_batch",),
    "adjustment.batch_ms_tail": ("adjustment.process_batch",),
    "adjustment.batch_tail_pct": ("adjustment.process_batch",),
    "adjustment.rows_walked_per_batch": ("adjustment.theta_gradient",),
    "adjustment.links_walked_per_batch": ("adjustment.theta_gradient",),
    "adjustment.grad_slots_per_batch": ("adjustment.theta_gradient",),
    "adjustment.grad_norm": ("adjustment.theta_gradient",),
    "adjustment.floored_events": ("adjustment.process_batch",),
    "adjustment.update_norm": ("adjustment.adagrad",),
    "adjustment.save_s": ("adjustment.save",),
    "model.materialize_s": ("model.materialize",),
    "model.renormalize_s": ("model.renormalize",),
    "model.us_per_link": ("model.materialize", "model.renormalize"),
    "model.links": ("model.materialize", "model.renormalize", "model.load"),
    "model.perplexity_s": ("model.perplexity",),
    "model.save_s": ("model.save",),
    "model.load_s": ("model.load",),
    "model.file_bytes": ("model.save",),
    "cli.self_s": ("cli.main",),
    "cli.commands": ("cli.main",),
}


def layer_metrics(t: Tracer, mf: dict[str, float] | None) -> dict[str, float | None]:
    """Every per-layer metric of the traced iteration; None marks absent."""
    c = t.counters
    extract_s = t.inclusive("extraction.extract_events")
    accumulate_s = t.inclusive("counts.add_event", "counts.accumulate")
    events_added = t.calls("counts.add_event")
    materialize_s = t.inclusive("model.materialize")
    renormalize_s = t.inclusive("model.renormalize")
    batch_ms = [1e3 * d for d in t.durations("adjustment.process_batch")]
    tail_pct, tail_ms = _tail(batch_ms)
    out: dict[str, float | None] = {
        "corpus.read_s": t.inclusive("corpus.from_file", "corpus.map_tokens"),
        "corpus.vocab_s": t.inclusive("corpus.build_vocab"),
        "corpus.tokens": c.get("corpus.tokens", 0),
        "corpus.oov_rate": _ratio(c.get("corpus.unk", 0), c.get("corpus.tokens", 0)),
        "extraction.extract_s": extract_s,
        "extraction.events": c.get("extraction.events", 0),
        "extraction.features_per_event": _ratio(
            c.get("extraction.features", 0), c.get("extraction.events", 0)
        ),
        "extraction.us_per_event": 1e6 * _ratio(extract_s, c.get("extraction.events", 0)),
        "extraction.expand_tags_s": t.inclusive("extraction.expand_tags"),
        "counts.accumulate_s": accumulate_s,
        "counts.us_per_event": 1e6 * _ratio(accumulate_s, events_added),
        "counts.features": c.get("counts.features", 0),
        "counts.links": c.get("counts.links", 0),
        "counts.save_s": t.inclusive("counts.save"),
        "counts.merge_s": t.inclusive("counts.merge_files"),
        "counts.load_s": t.inclusive("counts.load"),
        "counts.file_bytes": c.get("counts.file_bytes", 0),
        "counts.intersect_s": t.inclusive("counts.intersect"),
        "counts.kept_link_share": _median(t.samples.get("counts.kept_link_share", [])),
        "adjustment.accumulate_s": t.inclusive("adjustment.add_event"),
        "adjustment.theta_gradient_s": t.inclusive("adjustment.theta_gradient"),
        "adjustment.adagrad_s": t.inclusive("adjustment.adagrad"),
        "adjustment.batches": len(batch_ms),
        "adjustment.batch_ms_p50": _median(batch_ms),
        "adjustment.batch_ms_tail": tail_ms,
        "adjustment.batch_tail_pct": tail_pct,
        "adjustment.rows_walked_per_batch": _median(t.samples.get("adjustment.rows_walked", [])),
        "adjustment.links_walked_per_batch": _median(t.samples.get("adjustment.links_walked", [])),
        "adjustment.grad_slots_per_batch": _median(t.samples.get("adjustment.grad_slots", [])),
        "adjustment.floored_events": c.get("adjustment.floored_events", 0),
        "adjustment.grad_norm": _median(t.samples.get("adjustment.grad_norm", [])),
        "adjustment.update_norm": _median(t.samples.get("adjustment.update_norm", [])),
        "adjustment.save_s": t.inclusive("adjustment.save"),
        "model.materialize_s": materialize_s,
        "model.renormalize_s": renormalize_s,
        "model.us_per_link": 1e6 * _ratio(
            materialize_s + renormalize_s, c.get("model.links_processed", 0)
        ),
        "model.links": c.get("model.links", 0),
        "model.perplexity_s": t.inclusive("model.perplexity"),
        "model.save_s": t.inclusive("model.save"),
        "model.load_s": t.inclusive("model.load"),
        "model.file_bytes": c.get("model.file_bytes", 0),
        "cli.self_s": t.self_time(
            "cli.main", "cli.build_vocab", "cli.count", "cli.train", "cli.eval"
        ),
        "cli.commands": t.calls("cli.main"),
    }
    for name, names in SOURCES.items():
        if not any(n in t.present for n in names):
            out[name] = None
    for span in t.hook_errors:
        for name in HOOK_METRICS[span]:
            out[name] = None
    mf_names = (
        "metafeatures.hash_s", "metafeatures.us_per_link", "metafeatures.items_per_link",
        "metafeatures.slots_touched", "metafeatures.table_occupancy", "metafeatures.collisions",
    )
    for name in mf_names:
        out[name] = None if mf is None else mf[name]
    per_call = _ratio(materialize_s, t.calls("model.materialize"))
    out["metafeatures.materialize_share"] = (
        None if mf is None or not per_call else mf["metafeatures.hash_s"] / per_call
    )
    return out
