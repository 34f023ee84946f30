"""What holds in a fresh interpreter.

Every import of the package sits at module level, so the module graph is the
one the import lines show; each module imports first on its own; and a whole
CLI pipeline writes the same bytes under any string-hash seed.
"""

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import snmlm

_PACKAGE = Path(snmlm.__file__).parent
_MODULES = sorted(p.stem for p in _PACKAGE.glob("*.py") if p.stem != "__init__")


def _run(args, cwd=None, **env) -> subprocess.CompletedProcess:
    """Run Python in a fresh interpreter that imports this checkout's package."""
    path = os.pathsep.join(filter(None, [str(_PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


def test_no_import_inside_a_function():
    found = set()
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found.update(
                    f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    assert sorted(found) == []


@pytest.mark.parametrize("module", _MODULES)
def test_module_imports_first(module):
    done = _run(["-W", "error", "-c", f"import snmlm.{module}"])
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# Hash-seed independence

# Paths are relative to the working directory, so the printed ones match.
_PIPELINE = """
from pathlib import Path

from snmlm.cli import main

wd = Path()
tags = ["--tag", "web", "--tag", "news"]
common = ["--config", wd / "snm.cfg", "--vocab", wd / "vocab.txt"]


def run(*argv):
    code = main([str(a) for a in argv])
    assert code == 0, (argv, code)


run("build-vocab", wd / "web.txt", wd / "news.txt", "-o", wd / "vocab.txt")
run("count", wd / "web.txt", wd / "news.txt", *tags, *common, "-o", wd / "counts.tsv")
run("count", wd / "web.txt", wd / "news.txt", "--tag", "a", "--tag", "b", *common,
    "-o", wd / "ab-counts.tsv")
run("intersect", "--counts", wd / "counts.tsv", "--dev", wd / "dev.txt", *tags, *common,
    "-o", wd / "dev-counts.tsv")
for mode in ("full", "feature_only", "unlexicalized"):
    run("train", "--counts", wd / "counts.tsv", "--dev", wd / "dev.txt", *tags, *common,
        "--mode", mode, "--table-size", "4K", "--batch-size", "64", "--epochs", "2",
        "--adjustment-out", wd / f"{mode}.adj", "--model-out", wd / f"{mode}.model")
    run("eval", "--model", wd / f"{mode}.model", "--test", wd / "test.txt", *tags, *common)
for mode in ("full", "unlexicalized"):
    run("inspect", "web:[w1 skip-* w2]", "--counts", wd / "counts.tsv",
        "--vocab", wd / "vocab.txt", "--target", "w3", "--mode", mode)
run("inspect", "news:[w1]", "--model", wd / "full.model", "--vocab", wd / "vocab.txt")
"""

_CONFIG = """\
ngram_extractor {
  min_n: 0
  max_n: 3
}
skip_ngram_extractor {
  max_context_words: 3
  max_skip_length: 3
  tie_skip_length: true
}
"""


def _write_inputs(wd: Path) -> None:
    rng = random.Random(7)
    for name, n in (("web", 150), ("news", 150), ("dev", 40), ("test", 40)):
        lines = [
            " ".join(f"w{min(rng.randrange(12), rng.randrange(12))}"
                     for _ in range(rng.randrange(2, 9)))
            for _ in range(n)
        ]
        (wd / f"{name}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (wd / "snm.cfg").write_text(_CONFIG, encoding="utf-8")


def test_pipeline_output_is_independent_of_the_hash_seed(tmp_path):
    outputs = []
    for seed in ("1", "2"):
        wd = tmp_path / f"seed-{seed}"
        wd.mkdir()
        _write_inputs(wd)
        done = _run(["-c", _PIPELINE], cwd=wd, PYTHONHASHSEED=seed)
        assert done.returncode == 0, done.stderr
        files = {p.name: p.read_bytes() for p in sorted(wd.iterdir())}
        outputs.append((done.stdout, files))
    (out1, files1), (out2, files2) = outputs
    assert "ppl" in out1 and "C_fw=" in out1 and "M_f*=" in out1
    assert len(files1) == 15
    assert out1 == out2
    assert files1.keys() == files2.keys()
    for name in files1:
        assert files1[name] == files2[name], name
