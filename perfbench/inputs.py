"""Seeded corpus generators and the per-seed corpus cache.

Everything the benchmarked program receives is made here from the workload
seed: plain-text corpora (one sentence per line) and an extractor config.
Generation runs in its own process before any timing starts, and its output
is cached on disk per (workload, seed, generator version), so it is never
timed and never inflates the measured process's memory.

Run as a script to fill one cache entry::

    python3 perfbench/inputs.py --workload markov5-train --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import itertools
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# The seed whose markov5-train inputs are exactly the ROADMAP baseline
# workload (chain seed 424242, sentence seeds 1/2/3).
DEFAULT_SEED = 1

FIVE_GRAM_CONFIG = """\
// straight 5-gram features
ngram_extractor {
  min_n: 0
  max_n: 4
}
"""

# Orders 0..3 plus one remote word, a tied gap of 1..6 words and one to
# three adjacent words: about 11.8 features per event on 6..12-word
# sentences, against 4.4 for the 5-gram config.
SKIPGRAM_CONFIG = """\
// 4-gram features plus tied skip-grams
ngram_extractor {
  min_n: 0
  max_n: 3
}
skip_ngram_extractor {
  max_context_words: 4
  min_remote_words: 1
  max_remote_words: 1
  min_skip_length: 1
  max_skip_length: 6
  tie_skip_length: true
}
"""

TRIGRAM_CONFIG = """\
// straight trigram features
ngram_extractor {
  min_n: 0
  max_n: 2
}
"""


class MarkovChain:
    """A fixed sparse second-order chain over V words.

    A copy of the acceptance suite's source: the same (vocab size, seed)
    pair and sentence generator seed give the same sentences.
    """

    def __init__(self, n_words: int, seed: int, branching: int = 5):
        self.n_words = n_words
        self.seed = seed
        self.branching = branching
        self._tables: dict[tuple[int, int], tuple[list[int], list[float]]] = {}

    def _dist(self, ctx: tuple[int, int]):
        entry = self._tables.get(ctx)
        if entry is None:
            r = random.Random(self.seed + ctx[0] * 131 + ctx[1] * 31)
            successors = r.sample(range(self.n_words), self.branching)
            weights = [r.uniform(0.5, 2.0) for _ in successors]
            total = sum(weights)
            entry = self._tables[ctx] = (successors, [w / total for w in weights])
        return entry

    def sentences(self, rng: random.Random, count: int) -> list[list[str]]:
        out = []
        for _ in range(count):
            length = rng.randint(6, 12)
            sent = []
            prev = (-1, -2)
            for _ in range(length):
                successors, weights = self._dist(prev)
                w = rng.choices(successors, weights=weights)[0]
                sent.append(f"w{w:03d}")
                prev = (prev[1], w)
            out.append(sent)
        return out


class ZipfSource:
    """First-order source over a Zipf-weighted vocabulary.

    Each next word comes, with probability `p_chain`, from a small
    successor set of the previous word, and otherwise from a global
    Zipf(`exponent`) unigram over a seed-dependent ranking of the words.
    The unigram part gives low-order count rows thousands of links; the
    successor part gives the adjustment something to learn. Sources with
    different seeds share the word names but not their statistics.
    """

    def __init__(
        self,
        n_words: int,
        seed: int,
        exponent: float = 1.1,
        branching: int = 8,
        p_chain: float = 0.6,
    ):
        self.n_words = n_words
        self.seed = seed
        self.branching = branching
        self.p_chain = p_chain
        ranking = list(range(n_words))
        random.Random(seed).shuffle(ranking)
        self._ranked = ranking
        self._cum = list(
            itertools.accumulate(1.0 / (r + 1) ** exponent for r in range(n_words))
        )
        self._tables: dict[int, list[int]] = {}

    def _zipf(self, rng: random.Random) -> int:
        x = rng.random() * self._cum[-1]
        return self._ranked[min(bisect.bisect(self._cum, x), self.n_words - 1)]

    def _successors(self, prev: int) -> list[int]:
        entry = self._tables.get(prev)
        if entry is None:
            r = random.Random(self.seed * 7919 + prev)
            entry = self._tables[prev] = r.sample(range(self.n_words), self.branching)
        return entry

    def sentences(self, rng: random.Random, count: int) -> list[list[str]]:
        out = []
        for _ in range(count):
            length = rng.randint(6, 12)
            prev = -1
            sent = []
            for _ in range(length):
                if prev >= 0 and rng.random() < self.p_chain:
                    w = rng.choice(self._successors(prev))
                else:
                    w = self._zipf(rng)
                sent.append(f"z{w:04d}")
                prev = w
            out.append(sent)
        return out


def _sentence_seeds(seed: int) -> tuple[int, int, int]:
    """Train/dev/test generator seeds; DEFAULT_SEED gives 1, 2, 3."""
    return 3 * seed - 2, 3 * seed - 1, 3 * seed


# Sizes per workload: "full" is what the benchmark times, "smoke" runs in
# seconds for the benchmark's own tests.
SIZES = {
    "markov5-train": {
        "full": {"train": 50_000, "dev": 2_000, "test": 2_000},
        "smoke": {"train": 2_000, "dev": 200, "test": 200},
    },
    "skipgram-count-files": {
        "full": {"train": 4_000, "dev": 150, "test": 1_000, "shards": 4},
        "smoke": {"train": 800, "dev": 20, "test": 50, "shards": 3},
    },
    "tagged-wide-train": {
        "full": {"a": 4_000, "b": 8_000, "dev": 250, "test": 1_000},
        "smoke": {"a": 400, "b": 800, "dev": 60, "test": 60},
    },
}


def generate(workload: str, seed: int, size: str) -> dict[str, object]:
    """Corpora (name -> sentences) and the extractor config text."""
    sizes = SIZES[workload][size]
    s_train, s_dev, s_test = _sentence_seeds(seed)
    if workload == "markov5-train":
        chain = MarkovChain(100, 424242)
        return {
            "config": FIVE_GRAM_CONFIG,
            "train": chain.sentences(random.Random(s_train), sizes["train"]),
            "dev": chain.sentences(random.Random(s_dev), sizes["dev"]),
            "test": chain.sentences(random.Random(s_test), sizes["test"]),
        }
    if workload == "skipgram-count-files":
        chain = MarkovChain(100, 515151)
        train = chain.sentences(random.Random(s_train), sizes["train"])
        n = sizes["shards"]
        step = -(-len(train) // n)
        out: dict[str, object] = {
            "config": SKIPGRAM_CONFIG,
            "train": train,
            "dev": chain.sentences(random.Random(s_dev), sizes["dev"]),
            "test": chain.sentences(random.Random(s_test), sizes["test"]),
        }
        for i in range(n):
            out[f"shard{i}"] = train[i * step : (i + 1) * step]
        return out
    if workload == "tagged-wide-train":
        matched = ZipfSource(2000, 606061)
        mismatched = ZipfSource(2000, 707071)
        return {
            "config": TRIGRAM_CONFIG,
            "a": matched.sentences(random.Random(s_train), sizes["a"]),
            "b": mismatched.sentences(random.Random(s_train + 10**6), sizes["b"]),
            "dev": matched.sentences(random.Random(s_dev), sizes["dev"]),
            "test": matched.sentences(random.Random(s_test), sizes["test"]),
        }
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload: str, seed: int, size: str, out: Path) -> None:
    data = generate(workload, seed, size)
    out.mkdir(parents=True, exist_ok=True)
    for name, value in data.items():
        if name == "config":
            (out / "extractor.cfg").write_text(value, encoding="utf-8")
        else:
            text = "".join(" ".join(s) + "\n" for s in value)
            (out / f"{name}.txt").write_text(text, encoding="utf-8")


def _generator_version() -> str:
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]


def cached_inputs(cache_root: Path, workload: str, seed: int, size: str) -> Path:
    """Directory holding the inputs; generated in a child process if absent."""
    final = cache_root / f"inputs-{workload}-{size}-{seed}-{_generator_version()}"
    if final.is_dir():
        return final
    cache_root.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=cache_root, prefix=".gen-"))
    try:
        subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--size", size, "--out", str(tmp)],
            check=True,
        )
        os.replace(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def read_sentences(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh if line.strip()]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="write one workload's inputs")
    p.add_argument("--workload", required=True, choices=sorted(SIZES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    write_inputs(args.workload, args.seed, args.size, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
