"""Run every workload over several seeds and summarize each metric.

Usage, from the root of a checkout::

    python3 perfbench/summarize.py --seeds 1-10 --out baseline.json

Runs ``perfbench/run.py`` once per (workload, seed) with ``--trace 0``,
one at a time, and once more with ``--trace 1`` at the first seed. For
every end-to-end metric it reports the sample count, median, quartiles
(``statistics.quantiles(values, n=4)``), the spread (quartile distance
over the median, to compare with the metric's bound), and the highest
percentile with at least ten samples beyond it, which needs 11 or more
seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    n = len(values)
    out = {"n": n, "median": statistics.median(values), "values": values}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else None)
    if n >= 11:
        k = n - 11
        out["tail_pct"] = 100.0 * (k + 1) / n
        out["tail"] = sorted(values)[k]
    return out


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--workload", action="append", help="default: every workload")
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    report = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        runs = [run_once(name, s, spec["run_seconds"], 0) for s in seeds]
        traced = run_once(name, seeds[0], spec["run_seconds"], 1)
        entry = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": {
                m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                for m in spec["end_to_end"]
            },
            "traced_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        report["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            print(f"{name:22s} {metric:12s} median {s['median']:.6g}  "
                  f"spread {s.get('spread', float('nan')):.4f}", flush=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
