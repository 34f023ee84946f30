"""The three benchmark workloads, each split into count, fit and eval stages.

Stages call the program only through its public modules, looked up at call
time (``snmlm.cli.main``, ``snmlm.adjustment.train`` ...), so that the
traced run's wrappers see every call. Nothing here copies program logic.

Why these workloads:

- markov5-train: the ROADMAP baseline, in memory through the library. Fit
  dominates (materialize, per-batch theta gradient, renormalize all
  re-hash every link), so a precomputed link design matrix shows here.
- skipgram-count-files: the CLI on sharded text with tied skip-grams
  (about 12 features per event) and no adjustment epochs. Extraction,
  counting and count-file write / merge / read dominate, so interned
  features and validated file I/O show here; fit-side changes should not.
- tagged-wide-train: the CLI with two corpus-tagged Zipf sources over
  2000 words. Tag expansion doubles dev features and low-order rows hold
  thousands of links, so the per-batch whole-row walk dominates fit, and
  a large model file is written and read back.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import snmlm.adjustment
import snmlm.cli
import snmlm.corpus
import snmlm.counts
import snmlm.extraction
import snmlm.metafeatures
import snmlm.model

import checks
from inputs import read_sentences
from tracing import metafeature_pass

TABLE_SIZE = 204800


class StageError(Exception):
    """A stage of the program failed."""


def _events_in(path: Path) -> int:
    """Events a text yields: one per token plus one for </S>, per sentence."""
    return sum(len(s) + 1 for s in read_sentences(path))


def _sha256_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


class Markov5Train:
    """50k/2k/2k Markov sentences, 5-gram, FULL mode, batch 2048, in memory."""

    name = "markov5-train"
    epochs = 1

    def __init__(self, inputs: Path, workdir: Path):
        self.train = read_sentences(inputs / "train.txt")
        self.dev = read_sentences(inputs / "dev.txt")
        self.test = read_sentences(inputs / "test.txt")
        self.expected_events = sum(len(s) + 1 for s in self.train)
        self.config = snmlm.extraction.parse_config(
            (inputs / "extractor.cfg").read_text(encoding="utf-8")
        )

    def reset(self) -> None:
        """Drop the previous iteration's outputs before the next one."""
        self.store = self.intersected = self.model = self.test_events = None

    def _events(self, sentences, vocab):
        config = self.config
        return [
            e
            for s in sentences
            for e in snmlm.extraction.extract_events(snmlm.corpus.map_tokens(s, vocab), config)
        ]

    def count(self) -> None:
        self.vocab = snmlm.corpus.build_vocab(t for s in self.train for t in s)
        self.store = snmlm.counts.accumulate(self._events(self.train, self.vocab))

    def fit(self) -> None:
        dev_events = self._events(self.dev, self.vocab)
        self.test_events = self._events(self.test, self.vocab)
        keep = {f for e in dev_events for f in e.features}
        keep.update(f for e in self.test_events for f in e.features)
        self.intersected = self.store.intersect(keep)
        adj = snmlm.adjustment.AdjustmentModel(
            TABLE_SIZE, batch_size=2048, mode=snmlm.metafeatures.Mode.FULL
        )
        self.history, self.model = snmlm.adjustment.train(
            dev_events, self.intersected, adj, self.epochs, self.vocab
        )

    def eval(self) -> None:
        self.ppl = snmlm.model.perplexity(self.model, self.test_events).ppl

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr(sorted(self.store.feature_counts.values())).encode())
        h.update(repr(list(self.model.rows.items())).encode())
        h.update(repr(list(self.model.normalizers.items())).encode())
        h.update(repr([s.dev_ppl for s in self.history] + [self.ppl]).encode())
        return h.hexdigest()

    def checks(self, reference: float | None) -> dict[str, str | None]:
        return {
            "test_ppl": checks.check_ppl(self.ppl, reference),
            "normalizers": checks.check_normalizers(self.model.rows, self.model.normalizers),
            "counts": checks.check_store(self.store, self.expected_events),
            "dev_ppl_fell": checks.check_dev_ppl_fell([s.dev_ppl for s in self.history]),
        }

    def metafeatures(self, tracer) -> dict | None:
        return metafeature_pass(
            self.intersected, self.vocab, snmlm.metafeatures.Mode.FULL, TABLE_SIZE
        )


class _CliWorkload:
    """Shared plumbing of the workloads that drive `snmlm.cli.main`."""

    tags: tuple[str, ...] = ()

    def __init__(self, inputs: Path, workdir: Path):
        self.inputs = inputs
        self.work = workdir
        self.cfg = str(inputs / "extractor.cfg")
        self.vocab_path = str(workdir / "vocab.txt")
        self.model_path = workdir / "model.tsv"
        self.adj_path = workdir / "adj.bin"
        self.tag_args = [a for t in self.tags for a in ("--tag", t)]

    def reset(self) -> None:
        """Outputs live in files that the next iteration overwrites."""

    def cli(self, *argv: str) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = snmlm.cli.main(list(argv))
        if rc != 0:
            raise StageError(f"snmlm {argv[0]} exited {rc}: {err.getvalue().strip()}")
        return out.getvalue()

    def train_args(self, counts_path: Path) -> list[str]:
        return [
            "train", "--counts", str(counts_path), "--dev", str(self.inputs / "dev.txt"),
            "--config", self.cfg, "--vocab", self.vocab_path, "--table-size", str(TABLE_SIZE),
            "--adjustment-out", str(self.adj_path), "--model-out", str(self.model_path),
            *self.tag_args,
        ]

    def eval(self) -> None:
        out = self.cli(
            "eval", "--model", str(self.model_path), "--test", str(self.inputs / "test.txt"),
            "--config", self.cfg, "--vocab", self.vocab_path, *self.tag_args,
        )
        self.printed_ppl = next(
            line.split()[1] for line in out.splitlines() if line.startswith("ppl:")
        )

    def digest(self) -> str:
        files = [Path(self.vocab_path), self.counts_path, self.adj_path, self.model_path]
        return _sha256_files(files) + self.printed_ppl

    def _load_outputs(self):
        """The saved model and its test perplexity, recomputed via the library."""
        vocab = snmlm.corpus.Vocabulary.load(self.vocab_path)
        config = snmlm.extraction.load_config(self.cfg)
        model = snmlm.model.load_model(self.model_path, vocab)
        events = []
        for sent in read_sentences(self.inputs / "test.txt"):
            for e in snmlm.extraction.extract_events(snmlm.corpus.map_tokens(sent, vocab), config):
                events.append(snmlm.extraction.expand_tags(e, self.tags) if self.tags else e)
        return model, snmlm.model.perplexity(model, events).ppl

    def common_checks(self, reference: float | None) -> dict[str, str | None]:
        model, self.ppl = self._load_outputs()
        return {
            "test_ppl": checks.check_ppl(self.ppl, reference, self.printed_ppl),
            "normalizers": checks.check_normalizers(model.rows, model.normalizers),
            "counts": checks.check_count_file(self.counts_path, self.expected_rows()),
        }

    def metafeatures(self, tracer) -> dict | None:
        store = tracer.captured.get("intersected")
        if store is None:
            return None
        vocab = snmlm.corpus.Vocabulary.load(self.vocab_path)
        return metafeature_pass(store, vocab, snmlm.metafeatures.Mode.FULL, TABLE_SIZE)


class SkipgramCountFiles(_CliWorkload):
    """Sharded `count`, `merge_files`, `train --epochs 0` on a small dev slice, `eval`."""

    name = "skipgram-count-files"

    def __init__(self, inputs: Path, workdir: Path):
        super().__init__(inputs, workdir)
        self.shards = sorted(inputs.glob("shard*.txt"))
        self.shard_counts = [workdir / f"{p.stem}.counts" for p in self.shards]
        self.counts_path = workdir / "merged.counts"

    def count(self) -> None:
        self.cli("build-vocab", *map(str, self.shards), "-o", self.vocab_path)
        for text, out in zip(self.shards, self.shard_counts):
            self.cli("count", str(text), "--config", self.cfg, "--vocab", self.vocab_path,
                     "-o", str(out))
        snmlm.counts.merge_files([str(p) for p in self.shard_counts], str(self.counts_path))

    def fit(self) -> None:
        self.cli(*self.train_args(self.counts_path), "--epochs", "0")

    def expected_rows(self) -> dict[str, int]:
        return {"[]": _events_in(self.inputs / "train.txt")}

    def checks(self, reference: float | None) -> dict[str, str | None]:
        result = self.common_checks(reference)
        one_pass = self.work / "one-pass.counts"
        self.cli("count", str(self.inputs / "train.txt"), "--config", self.cfg,
                 "--vocab", self.vocab_path, "-o", str(one_pass))
        result["merged_equals_one_pass"] = checks.check_same_bytes(self.counts_path, one_pass)
        return result


class TaggedWideTrain(_CliWorkload):
    """`count --tag a --tag b`, `train --tag ...` with small batches, `eval --tag ...`."""

    name = "tagged-wide-train"
    tags = ("a", "b")
    epochs = 1
    batch_size = 128
    gamma = 0.02

    def __init__(self, inputs: Path, workdir: Path):
        super().__init__(inputs, workdir)
        self.sources = [inputs / f"{t}.txt" for t in self.tags]
        self.counts_path = workdir / "tagged.counts"

    def count(self) -> None:
        self.cli("build-vocab", *map(str, self.sources), "--min-count", "2",
                 "-o", self.vocab_path)
        self.cli("count", *map(str, self.sources), *self.tag_args, "--config", self.cfg,
                 "--vocab", self.vocab_path, "-o", str(self.counts_path))

    def fit(self) -> None:
        out = self.cli(
            *self.train_args(self.counts_path), "--epochs", str(self.epochs),
            "--batch-size", str(self.batch_size), "--gamma", str(self.gamma),
        )
        self.dev_ppls = [
            float(line.rsplit("ppl=", 1)[1].split()[0])
            for line in out.splitlines() if line.startswith("epoch ")
        ]

    def expected_rows(self) -> dict[str, int]:
        return {f"{t}:[]": _events_in(p) for t, p in zip(self.tags, self.sources)}

    def checks(self, reference: float | None) -> dict[str, str | None]:
        result = self.common_checks(reference)
        result["dev_ppl_fell"] = checks.check_dev_ppl_fell(self.dev_ppls)
        return result


WORKLOADS = {w.name: w for w in (Markov5Train, SkipgramCountFiles, TaggedWideTrain)}
