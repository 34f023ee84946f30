"""The benchmark's own tests: python3 -m pytest perfbench

They check that every workload runs end to end at smoke size, that the
generator reproduces the acceptance suite's Markov source, and that each
output check fails on a deliberately corrupted output.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CACHE = ROOT / ".perfbench-cache"
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m


def test_run_without_program_fails_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_generator_matches_acceptance_markov_source():
    sys.path.insert(0, str(ROOT / "tests"))
    from snm_testutil import MarkovChain

    chain = MarkovChain(100, seed=424242)
    got = inputs.generate("markov5-train", inputs.DEFAULT_SEED, "full")
    assert got["config"] == inputs.FIVE_GRAM_CONFIG
    for name, seed, count in (("train", 1, 50_000), ("dev", 2, 2_000), ("test", 3, 2_000)):
        assert got[name] == chain.sentences(random.Random(seed), count), name


def _workload(name: str, size: str, tmp_path: Path):
    inp = inputs.cached_inputs(CACHE, name, inputs.DEFAULT_SEED, size)
    wl = workloads.WORKLOADS[name](inp, tmp_path)
    wl.reset()
    for stage in ("count", "fit", "eval"):
        getattr(wl, stage)()
    return wl


def test_markov5_default_seed_is_the_roadmap_baseline(tmp_path):
    assert workloads.Markov5Train.epochs == 1
    wl = _workload("markov5-train", "full", tmp_path)
    assert wl.ppl == 6.952025399677819


def test_model_and_count_checks_fail_on_corrupted_outputs(tmp_path):
    wl = _workload("markov5-train", "smoke", tmp_path)
    ok = wl.checks(None)
    assert ok == dict.fromkeys(ok), ok

    rows, norms = wl.model.rows, dict(wl.model.normalizers)
    assert checks.check_normalizers(rows, norms) is None
    f = next(iter(norms))
    norms[f] *= 1 + 1e-9
    assert checks.check_normalizers(rows, norms) is not None

    store = wl.store
    assert checks.check_store(store, wl.expected_events) is None
    assert checks.check_store(store, wl.expected_events + 1) is not None
    f = next(iter(store.feature_counts))
    store.feature_counts[f] += 1
    assert checks.check_store(store, wl.expected_events) is not None

    history = [s.dev_ppl for s in wl.history]
    assert checks.check_dev_ppl_fell(history) is None
    assert checks.check_dev_ppl_fell(history[::-1]) is not None


def test_count_file_checks_fail_on_corrupted_files(tmp_path):
    wl = _workload("skipgram-count-files", "smoke", tmp_path)
    ok = wl.checks(None)
    assert ok == dict.fromkeys(ok), ok

    merged = wl.counts_path
    one_pass = tmp_path / "one-pass.counts"
    lines = merged.read_text(encoding="utf-8").splitlines(keepends=True)
    reordered = tmp_path / "reordered.counts"
    reordered.write_text("".join(lines[:2] + [lines[3], lines[2]] + lines[4:]), encoding="utf-8")
    assert checks.check_same_bytes(merged, one_pass) is None
    assert checks.check_same_bytes(reordered, one_pass) is not None

    expected = wl.expected_rows()
    assert checks.check_count_file(merged, expected) is None
    empty_row = next(i for i, line in enumerate(lines) if line.startswith("[]\t"))
    fs, word, c = lines[empty_row].rstrip("\n").split("\t")
    lines[empty_row] = f"{fs}\t{word}\t{int(c) + 1}\n"
    bumped = tmp_path / "bumped.counts"
    bumped.write_text("".join(lines), encoding="utf-8")
    assert checks.check_count_file(bumped, expected) is not None


def test_ppl_and_digest_checks_fail_on_changed_values():
    ref = 6.952025399677819
    assert checks.check_ppl(ref, ref) is None
    assert checks.check_ppl(ref * (1 + 1e-12), ref) is None
    assert checks.check_ppl(ref * (1 + 1e-6), ref) is not None
    assert checks.check_ppl(float("nan"), None) is not None
    assert checks.check_ppl(ref, None, printed="6.95203") is None
    assert checks.check_ppl(ref, None, printed="6.95204") is not None
    assert checks.check_same_digests(["a", "a"], ["b"]) is None
    assert checks.check_same_digests(["a", "a"], ["b", "c"]) is not None
    assert checks.check_same_digests(["a", "b"]) is not None
    assert checks.check_same_digests(["a"], ["b"]) is not None


def test_missing_wrapped_name_is_absent_not_zero(tmp_path, monkeypatch):
    monkeypatch.setattr(
        tracing, "TARGETS",
        [t for t in tracing.TARGETS if t[1] != "adjustment.theta_gradient"]
        + [("snmlm.adjustment.no_such_function", "adjustment.theta_gradient", False)],
    )

    def renamed_internal(tracer, args, result, state):
        raise AttributeError("'AdjustmentModel' object has no attribute 'theta'")

    monkeypatch.setitem(tracing.HOOKS, "adjustment.adagrad", (None, renamed_internal))
    inp = inputs.cached_inputs(CACHE, "markov5-train", inputs.DEFAULT_SEED, "smoke")
    wl = workloads.WORKLOADS["markov5-train"](inp, tmp_path)
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        wl.reset()
        for stage in ("count", "fit", "eval"):
            getattr(wl, stage)()
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, None)
    assert tracer.absent == ["snmlm.adjustment.no_such_function"]
    assert metrics["adjustment.theta_gradient_s"] is None
    assert metrics["metafeatures.hash_s"] is None
    assert metrics["model.materialize_s"] > 0
    assert set(tracer.hook_errors) == {"adjustment.adagrad"}
    assert metrics["adjustment.update_norm"] is None
    assert metrics["adjustment.adagrad_s"] > 0
