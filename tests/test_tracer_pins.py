"""The library names that the benchmark tracer looks up, and the calls it reads.

`perfbench/tracing.py` wraps functions and methods of `snmlm` at dotted
paths listed in its `TARGETS`; a path that no longer resolves turns the
metrics measured through it absent, and a hook that cannot read a call's
arguments or result fails, either of which fails the benchmark's own tests.
These guards fail in the tier-1 suite instead, in about a second. They go
together with `TARGETS` once the library reports its own spans (ROADMAP
item 1).
"""

import random
from pathlib import Path

from snmlm import adjustment

from snm_testutil import make_vocab, random_events, random_store

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
