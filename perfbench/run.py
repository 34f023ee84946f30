"""Stage-timed benchmark of the snmlm count -> fit -> eval pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload markov5-train --seed 1 --seconds 15 --trace 0

One run is one fresh single-threaded process, pinned to one CPU. It makes
(or reuses from ``.perfbench-cache/``) the seed's inputs, times set-up in
fresh child processes, then runs the workload's count, fit and eval stages
once and again until ``--seconds`` have passed, runs the output checks, and
prints one JSON object as its last line of standard output:
``correct``, ``attempted`` and ``failed`` count stages and output checks
(failed / attempted is the run's failed share), and ``metrics`` holds the
end-to-end metrics named in BENCHMARK.json, or with ``--trace 1`` the
per-layer metrics, measured from one extra traced iteration.

Times are CPU seconds of the measured process, reported at reference machine
speed with the help of a speed probe on the same CPU (see speedprobe.py).
Stage and total times are medians over the run's iterations; a stage that
takes under two seconds is repeated within an iteration and its median
taken.
Exit status is 2 when the program cannot be imported from ``src/`` of the
checkout, 1 when no iteration completed; neither prints a result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench-cache"

STAGES = ("count", "fit", "eval")
# A stage shorter than MIN_STAGE_S is repeated (at most MAX_REPEATS times)
# and its median taken, so that short stages are not dominated by noise.
MIN_STAGE_S = 2.0
MAX_REPEATS = 25
SETUP_REPEATS = 5
TIME_SCALE = {"s", "ms", "us"}  # units of per-layer times, reported at reference speed

SETUP_PROBE = """\
import sys
import snmlm, snmlm.cli
from snmlm.extraction import load_config
load_config(sys.argv[1])
"""


def import_program() -> None:
    """Import snmlm from this checkout's src/ only; exit 2 if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import snmlm
    except ImportError as exc:
        print(f"perfbench: cannot import snmlm from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(snmlm.__file__).resolve().parent != SRC / "snmlm":
        print(f"perfbench: snmlm imported from {snmlm.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


class Interval(NamedTuple):
    """CPU seconds measured, and the wall-clock interval they were measured in."""

    start: float
    end: float
    seconds: float


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(config_path: Path) -> Interval:
    """Median CPU seconds of a fresh process that imports snmlm and parses
    the workload's config, then exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    start = time.perf_counter()
    for _ in range(SETUP_REPEATS):
        c0 = _children_cpu()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(config_path)],
            env=env, cwd=ROOT, check=True, timeout=60,
        )
        samples.append(_children_cpu() - c0)
    return Interval(start, time.perf_counter(), statistics.median(samples))


class Run:
    """Stage and check bookkeeping of one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.iterations: list[dict[str, Interval]] = []
        self.digests: list[str] = []

    def iteration(self, tracer=None) -> dict[str, Interval] | None:
        """Time one count -> fit -> eval pass; None if a stage failed."""
        wl = self.workload
        wl.reset()
        gc.collect()
        times = {}
        for stage in STAGES:
            samples = []
            self.attempted += 1
            start = time.perf_counter()
            try:
                while not samples or (
                    tracer is None
                    and len(samples) < MAX_REPEATS
                    and sum(samples) < MIN_STAGE_S
                ):
                    span = tracer.span(f"stage.{stage}") if tracer else contextlib.nullcontext()
                    t0 = time.process_time()
                    with span:
                        getattr(wl, stage)()
                    samples.append(time.process_time() - t0)
            except Exception:
                self.failed += 1
                print(f"perfbench: stage {stage} failed:", file=sys.stderr)
                traceback.print_exc()
                return None
            times[stage] = Interval(start, time.perf_counter(), statistics.median(samples))
        self.digests.append(wl.digest())
        return times

    def check(self, results: dict[str, str | None]) -> None:
        for name, reason in results.items():
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                print(f"perfbench: check {name} failed: {reason}", file=sys.stderr)


def smoke_runs(name: str, reference: float) -> tuple[str | None, list[str]]:
    """Run the default seed's smoke-size inputs twice, untimed.

    Returns the test-perplexity check against the committed smoke reference,
    a numerics guard that holds whichever seed the run was given, and the
    two runs' output digests, for the determinism check.
    """
    from inputs import DEFAULT_SEED, cached_inputs
    from workloads import WORKLOADS

    inputs = cached_inputs(CACHE, name, DEFAULT_SEED, "smoke")
    reason, digests = None, []
    for _ in range(2):
        workdir = Path(tempfile.mkdtemp(dir=CACHE, prefix="smoke-"))
        try:
            wl = WORKLOADS[name](inputs, workdir)
            wl.reset()
            for stage in STAGES:
                getattr(wl, stage)()
            digests.append(wl.digest())
            reason = reason or wl.checks(reference)["test_ppl"]
        except Exception as exc:
            return f"smoke pipeline failed: {exc!r}", digests
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return reason, digests


def scaled_stages(iteration: dict[str, Interval], probe) -> dict[str, float]:
    """Stage seconds at reference speed, plus their total."""
    out = {s: probe.scale(iv.seconds, iv.start, iv.end) for s, iv in iteration.items()}
    out["total"] = sum(out[s] for s in STAGES)
    return out


def benchmark(args, spec: dict) -> dict | None:
    from inputs import DEFAULT_SEED, cached_inputs
    from speedprobe import SpeedProbe
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS
    import checks

    refs = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))["test_ppl"]
    reference = refs[args.size][args.workload] if args.seed == DEFAULT_SEED else None

    inputs = cached_inputs(CACHE, args.workload, args.seed, args.size)
    workdir = Path(tempfile.mkdtemp(dir=CACHE, prefix="run-"))
    try:
        run = Run(WORKLOADS[args.workload](inputs, workdir))
        peak_rss_mb = None
        traced = tracer = layers = None
        with SpeedProbe(workdir / "speed.txt") as probe:
            setup = measure_setup(inputs / "extractor.cfg")
            start = time.perf_counter()
            while not run.iterations or time.perf_counter() - start < args.seconds:
                times = run.iteration()
                if times is None:
                    break
                run.iterations.append(times)
                if peak_rss_mb is None:
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if args.trace and run.iterations and run.failed == 0:
                tracer = Tracer(f"{args.workload}/{args.seed}/{os.getpid()}")
                trace_start = time.perf_counter()
                tracer.install()
                try:
                    traced = run.iteration(tracer)
                finally:
                    tracer.uninstall()
                if traced is not None:
                    layers = layer_metrics(tracer, run.workload.metafeatures(tracer))
                trace_end = time.perf_counter()
        if not run.iterations:
            return None

        results = run.workload.checks(reference) if run.failed == 0 else {}
        results["smoke_reference"], smoke_digests = smoke_runs(
            args.workload, refs["smoke"][args.workload]
        )
        results["deterministic"] = checks.check_same_digests(smoke_digests, run.digests)
        run.check(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [scaled_stages(it, probe) for it in run.iterations]

    def median_of(key: str) -> float:
        return statistics.median(it[key] for it in untraced)

    if args.trace:
        names = spec["per_layer"]
        values = {}
        if layers is not None:
            factor = probe.factor(trace_start, trace_end)
            units = {m["name"]: m["unit"] for m in names}
            values = {
                k: v / factor if v is not None and units.get(k) in TIME_SCALE else v
                for k, v in layers.items()
            }
            values["trace.overhead_s"] = scaled_stages(traced, probe)["total"] - median_of("total")
            values["trace.overhead_share"] = values["trace.overhead_s"] / median_of("total")
            values["trace.speed_factor"] = factor
            dump = tracer.dump()
            dump["metrics"] = values
            (CACHE / f"trace-{args.workload}-{args.seed}.json").write_text(
                json.dumps(dump, indent=1), encoding="utf-8"
            )
    else:
        names = spec["end_to_end"]
        values = {
            "total_s": median_of("total"),
            "count_s": median_of("count"),
            "fit_s": median_of("fit"),
            "eval_s": median_of("eval"),
            "setup_s": probe.scale(setup.seconds, setup.start, setup.end),
            "peak_rss_mb": peak_rss_mb,
            "test_ppl": getattr(run.workload, "ppl", None),
        }
    metrics = {}
    for m in names:
        value = values.get(m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if value is None:
            metrics[m["name"]]["absent"] = True
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: tiny inputs for the benchmark's own tests")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        p.error(f"unknown workload {args.workload!r}")
    # Pin native thread pools before numpy is first imported, with snmlm.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_program()
    from speedprobe import pin_to_one_cpu

    pin_to_one_cpu()
    result = benchmark(args, spec)
    if result is None:
        print("perfbench: no iteration completed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
