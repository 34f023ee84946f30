"""The library names that the benchmark tracer looks up.

`perfbench/tracing.py` wraps functions and methods of `snmlm` at dotted
paths listed in its `TARGETS`; a path that no longer resolves turns the
metrics measured through it absent, which fails the benchmark's own tests.
This guard fails in the tier-1 suite instead, in well under a second. It
goes together with `TARGETS` once the library reports its own spans
(ROADMAP item 1).
"""

from pathlib import Path

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
