"""The library names that the benchmark tracer looks up, and the calls it reads.

`perfbench/tracing.py` wraps functions and methods of `snmlm` at dotted
paths listed in its `TARGETS`; a path that no longer resolves turns the
metrics measured through it absent, and a hook that cannot read a call's
arguments or result fails, either of which fails the benchmark's own tests.
These guards fail in the tier-1 suite instead, in about a second. They go
together with `TARGETS` once the library reports its own spans (ROADMAP
item 1).
"""

import json
import math
import random
from pathlib import Path

import snmlm.model
from snmlm import adjustment, corpus, counts, extraction
from snmlm.metafeatures import Mode

from snm_testutil import FIVE_GRAM_CONFIG, MarkovChain, make_vocab, random_events, random_store

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_namespace() -> dict:
    """The tracer module's globals, run from its source without importing it.

    Nothing is written next to it: no bytecode cache, no module in sys.modules.
    """
    namespace = {"__name__": "perfbench_tracing", "__file__": str(_TRACING)}
    exec(compile(_TRACING.read_text(encoding="utf-8"), str(_TRACING), "exec"), namespace)
    return namespace


def test_every_traced_path_resolves():
    tracing = _tracing_namespace()
    paths = [path for path, _, _ in tracing["TARGETS"]]
    assert len(paths) == 34
    assert [p for p in paths if tracing["_resolve"](p) is None] == []


def test_train_calls_what_the_tracer_hooks_read(monkeypatch):
    # The tracer times the row build through `snmlm.adjustment.materialize`
    # and reads `args[0].num_links` and `.rows` of its result; its hook on
    # `renormalize` reads `.rows` of a result that holds none.
    calls = {"materialize": [], "renormalize": []}
    for name, found in calls.items():
        def spy(*args, _run=getattr(adjustment, name), _found=found):
            result = _run(*args)
            _found.append((args, result))
            return result
        monkeypatch.setattr(adjustment, name, spy)
    rng = random.Random(7)
    vocab = make_vocab(12)
    store, feats = random_store(rng, vocab, 6)
    adj = adjustment.AdjustmentModel(512, batch_size=4)
    history, model = adjustment.train(random_events(rng, store, feats, 10), store, adj, 2, vocab)
    assert len(history) == 3
    assert calls["renormalize"] == []
    [(args, result)] = calls["materialize"]
    assert args[0].num_links == store.num_links
    assert result is model and model.rows


def test_an_in_memory_run_reports_every_layer_metric():
    # The library calls of the in-memory workload, traced: every hook must
    # read what it reads of the store and model (`rows`, `feature_counts`,
    # `num_links`, `len`), and every per-layer metric come out a number.
    tracing = _tracing_namespace()
    chain = MarkovChain(12, seed=4)
    train, dev = (chain.sentences(random.Random(seed), n) for seed, n in ((1, 60), (2, 12)))
    config = extraction.parse_config(FIVE_GRAM_CONFIG)
    tracer = tracing["Tracer"]("tier-1")
    tracer.install()
    try:
        vocab = corpus.build_vocab(t for s in train for t in s)
        store = counts.accumulate([e for s in train for e in extraction.extract_events(
            corpus.map_tokens(s, vocab), config)])
        events = [e for s in dev for e in extraction.extract_events(
            corpus.map_tokens(s, vocab), config)]
        intersected = store.intersect({f for e in events for f in e.features})
        adj = adjustment.AdjustmentModel(512, batch_size=8)
        _, trained = adjustment.train(events, intersected, adj, 1, vocab)
        snmlm.model.perplexity(trained, events)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert tracer.hook_errors == {}
    assert tracer.captured["intersected"] is intersected
    metrics = tracing["layer_metrics"](tracer, tracing["metafeature_pass"](
        intersected, vocab, Mode.FULL, 512))
    spec = json.loads((_TRACING.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    # The trace.* metrics time the traced run against the untraced ones.
    assert set(metrics) == {m["name"] for m in spec["per_layer"]
                            if not m["name"].startswith("trace.")}
    assert [k for k, v in metrics.items()
            if not (isinstance(v, (int, float)) and math.isfinite(v))] == []
