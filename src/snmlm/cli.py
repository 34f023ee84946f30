"""Command-line pipeline driver.

Subcommands cover each stage: build-vocab, count, intersect, train, eval,
inspect. Every stage is deterministic given identical inputs and flags.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .adjustment import AdjustmentModel, train
from .corpus import Vocabulary, build_vocab, corpus_lines, iter_file_tokens, natural
from .counts import CountStore, HeldOut, HeldText, count_files
from .errors import DataError, MarkerWordError, SnmError
# `expand_tags`, `extract_events` and `materialize` are not called here;
# perfbench/tracing.py looks them up in this module until ROADMAP item 1
# removes the pins.
from .extraction import (  # noqa: F401
    expand_tags, extract_events, is_tag, load_config, parse_feature, render_feature,
)
from .metafeatures import Mode, explain
from .model import SnmModel, load_model, materialize, perplexity, save_model  # noqa: F401

_MODES = {m.value: m for m in Mode}
_SUFFIXES = {"k": 1 << 10, "K": 1 << 10, "m": 1 << 20, "M": 1 << 20}
# The flags that name files commands read, besides the positional `corpus`.
_INPUT_FLAGS = ("counts", "dev", "config", "vocab")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def parse_table_size(text: str) -> int:
    """ASCII digits with an optional K/M suffix (multiples of 1024)."""
    text = text.strip()
    factor = _SUFFIXES.get(text[-1:], 1)
    digits = text[:-1] if factor > 1 else text
    try:
        return natural(digits) * factor
    except ValueError:
        raise UsageError(f"bad table size {digits!r}") from None


def _tags(args, files=None) -> tuple[str, ...]:
    """The --tag values, checked before any file is read; one per file of `files`, or none."""
    tags = tuple(args.tag)
    if files is not None and tags and len(tags) != len(files):
        raise UsageError(f"got {len(tags)} --tag values for {len(files)} corpus files")
    for tag in tags:
        if not is_tag(tag):
            raise UsageError(f"bad corpus tag {tag!r}: no whitespace or brackets, no leading '#'")
    return tags


def _at_line(exc: DataError, path, held: HeldOut, sums: np.ndarray) -> DataError:
    """`exc` named at the line of `path` holding the first event with no feature of positive `sums`.

    ``sums[r]`` is the count or normalizer of row r of ``held.layout``.
    With no such event, `exc` is returned as it is.
    """
    first = np.flatnonzero(np.bincount(held.event[sums[held.row] > 0],
                                       minlength=held.num_events) == 0)
    return DataError(f"{path}:{held.line[first[0]]}: {exc}") if len(first) else exc


def _check_tags_cover(feature_tags, tags, source: str) -> None:
    """Every tag on the source's features must be among `tags`; with no tags, none may be.

    `feature_tags` holds the tag of each feature, None for an untagged one.
    Extra tags are allowed: they match no row, and a model keeps only the
    rows seen on dev, so it can lack a source's tag.
    """
    feature_tags = set(feature_tags)
    missing = feature_tags - (set(tags) if tags else {None})
    if None in feature_tags and len(feature_tags) > 1:
        raise SnmError(f"{source} mixes untagged and corpus-tagged features; no --tag set fits")
    if missing and not tags:
        raise SnmError(f"{source} uses corpus-tagged features; pass --tag once per "
                       "training source so features can be expanded")
    if None in missing:
        raise SnmError(f"{source} is not corpus-tagged; drop the --tag flags")
    if missing:
        raise SnmError(f"{source} has features tagged {', '.join(map(repr, sorted(missing)))}"
                       "; pass --tag for every training source")


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file; one that does not exist yet is compared resolved."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return Path(a).resolve() == Path(b).resolve()


def _check_outputs(args, *flags: str) -> None:
    """Check the output paths of `flags` before any input is read, so a bad path fails at once.

    An output must be a file that can be created in an existing directory
    (else SnmError), and must name neither an input nor another output
    (else UsageError, naming both flags).
    """
    named = [("corpus", path) for path in getattr(args, "corpus", ())]
    named += [(f"--{k}", getattr(args, k)) for k in _INPUT_FLAGS if hasattr(args, k)]
    for flag in flags:
        path = getattr(args, flag[2:].replace("-", "_"))
        out = Path(path)
        if out.is_dir():
            raise SnmError(f"{path}: is a directory, not an output file")
        if not out.parent.is_dir():
            raise SnmError(f"{path}: directory {str(out.parent)!r} does not exist")
        for other_flag, other in named:
            if _same_file(path, other):
                raise UsageError(f"{flag} and {other_flag} name the same file {path!r}")
        named.append((flag, path))


def _dev_rows(args, tags: tuple[str, ...]):
    """The vocab, the dev text, and the count rows of its features."""
    vocab = Vocabulary.load(args.vocab)
    text = HeldText.read(args.dev, vocab, load_config(args.config), tags)
    store = CountStore.load(args.counts, vocab, keep=text.names(vocab))
    _check_tags_cover(store.file_features, tags, args.counts)
    return vocab, text, store


# ---------------------------------------------------------------------------
# Subcommands

def cmd_build_vocab(args) -> int:
    if args.min_count < 1:
        raise UsageError(f"--min-count must be >= 1, got {args.min_count}")
    _check_outputs(args, "--output")
    try:
        vocab = build_vocab(iter_file_tokens(args.corpus), min_count=args.min_count)
    except MarkerWordError as exc:  # named at the corpus line that first has the word
        where = next((f"{path}:{lineno}: " for path in args.corpus
                      for lineno, tokens in corpus_lines(path) if exc.word in tokens), "")
        raise MarkerWordError(exc.word, where) from None
    vocab.save(args.output)
    print(f"vocabulary: {len(vocab)} words -> {args.output}")
    return 0


def cmd_count(args) -> int:
    tags = _tags(args, args.corpus)
    _check_outputs(args, "--output")
    vocab = Vocabulary.load(args.vocab)
    counts = count_files(args.corpus, tags or [None] * len(args.corpus), vocab,
                         load_config(args.config))
    counts.save(args.output, vocab)
    print(
        f"counts: {len(counts)} features, {counts.num_links} links, "
        f"{counts.total_events} events -> {args.output}"
    )
    return 0


def cmd_intersect(args) -> int:
    tags = _tags(args)
    _check_outputs(args, "--output")
    vocab, _, sub = _dev_rows(args, tags)
    sub.save(args.output, vocab)
    print(
        f"intersected: {len(sub)}/{sum(sub.file_features.values())} features kept, "
        f"{sub.num_links} links -> {args.output}"
    )
    return 0


def cmd_train(args) -> int:
    table_size = parse_table_size(args.table_size)
    try:
        AdjustmentModel.check(table_size, args.gamma, args.delta0, args.batch_size)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.epochs < 0:
        raise UsageError("epochs must be >= 0")
    tags = _tags(args)
    _check_outputs(args, "--adjustment-out", "--model-out")
    # Only the dev rows are trained on and saved, so only they are stored.
    vocab, text, store = _dev_rows(args, tags)
    dev = text.held_out(store.layout)
    # Freed before training: held on through it, the dev text's arrays made
    # the benchmark's tagged-wide-train fit 13-20% slower (stages in one process).
    del text
    if not dev.num_events:
        raise SnmError(f"{args.dev}: empty development set")
    # A new store on the same rows: perfbench/tracing.py captures the training
    # store from this call. ROADMAP item 1 removes the pin.
    intersected = store.intersect(store.layout.features)
    del store

    # Built after the inputs are read: built before them, the weight table
    # raised the peak RSS of two `train` runs in one process by 5 MB on a
    # 300K-row count file.
    adj = AdjustmentModel(table_size, gamma=args.gamma, delta0=args.delta0,
                          batch_size=args.batch_size, mode=_MODES[args.mode])
    print(
        f"training: table_size={adj.table_size} gamma={adj.gamma} "
        f"delta0={adj.delta0} batch_size={adj.batch_size} epochs={args.epochs} "
        f"mode={adj.mode.value}"
    )
    try:
        _, model = train(dev, intersected, adj, args.epochs, vocab, log=print)
    except DataError as exc:
        raise _at_line(exc, args.dev, dev, intersected.row_sums) from None
    adj.save(args.adjustment_out)
    save_model(model, args.model_out, vocab)
    print(f"adjustment -> {args.adjustment_out}")
    print(f"model -> {args.model_out}")
    return 0


def cmd_eval(args) -> int:
    tags = _tags(args)
    vocab = Vocabulary.load(args.vocab)
    config = load_config(args.config)
    model = load_model(args.model, vocab)
    _check_tags_cover({f.tag for f in model.layout.features}, tags, args.model)
    test = HeldText.read(args.test, vocab, config, tags).held_out(model.layout)
    if not test.num_events:
        raise SnmError(f"{args.test}: empty test set")
    try:
        report = perplexity(model, test)
    except DataError as exc:
        raise _at_line(exc, args.test, test, model.row_sums) from None
    print(f"events: {report.num_events}")
    print(f"ppl: {report.ppl:.6g}")
    print(f"oov_rate: {report.oov_rate:.6f}")
    print(f"floored_events: {report.floored_events}")
    return 0


def cmd_inspect(args) -> int:
    if args.target is not None and not args.counts:
        raise UsageError("--target needs --counts: a link's meta-features come from its counts")
    vocab = Vocabulary.load(args.vocab)
    source, load = (args.counts, CountStore.load) if args.counts else (args.model, SnmModel.load)
    try:
        feature = parse_feature(args.feature, vocab)
    except DataError:
        # A bad count or model file is reported ahead of a bad feature argument.
        load(source, vocab, keep=())
        raise
    # Only the asked row is checked and stored; the trailer vouches for the rest.
    kept = load(source, vocab, keep={render_feature(feature, vocab)})
    if not len(kept.layout):
        print(f"feature {args.feature!r} not found in {source}")
        return 0
    values = kept.counts if args.counts else kept.cells
    row = dict(zip(kept.layout.words.tolist(), values.tolist()))
    total, total_name = kept.row_sums[0].item(), "C_f*" if args.counts else "M_f*"
    print(f"feature {args.feature}  {total_name}={total!r}")
    for w, v in sorted(row.items(), key=lambda kv: (-kv[1], vocab.words[kv[0]])):
        # A count also shows its share of the row.
        print(f"  {vocab.words[w]}\t{v!r}" + (f"\t{v / total:.6g}" if args.counts else ""))
    if args.target is None:
        return 0
    wid = vocab.index.get(args.target)
    c_fw = row.get(wid, 0)
    if not c_fw:
        print(f"link target {args.target!r} not found in this row")
        return 0
    print(f"link ({args.feature}, {args.target})  C_fw={c_fw}")
    for label, h, wt in explain(feature, wid, total, c_fw, _MODES[args.mode], vocab):
        print(f"  {h:016x}  {wt:.6f}  {label}")
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="snmlm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build a vocabulary from corpus files")
    p.add_argument("corpus", nargs="+", help="tokenized text files")
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("count", help="extract features and count links")
    p.add_argument("corpus", nargs="+", help="tokenized training files")
    p.add_argument("--tag", action="append", default=[],
                   help="corpus tag, one per training file, in order")
    p.add_argument("--config", required=True, help="extractor config file")
    p.add_argument("--vocab", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("intersect", help="keep count rows seen in dev data")
    p.add_argument("--counts", required=True)
    p.add_argument("--dev", required=True, help="development corpus file")
    p.add_argument("--config", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--tag", action="append", default=[],
                   help="training corpus tags to expand dev features with")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("train", help="train the adjustment model on dev data")
    p.add_argument("--counts", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--table-size", default="200K",
                   help="weight table size; K/M suffixes are multiples of 1024")
    p.add_argument("--gamma", type=float, default=0.1,
                   help="AdaGrad learning-rate scale")
    p.add_argument("--delta0", type=float, default=1.0,
                   help="AdaGrad initial accumulator")
    p.add_argument("--batch-size", type=int, default=2048)
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--mode", choices=sorted(_MODES), default=Mode.FULL.value)
    p.add_argument("--tag", action="append", default=[])
    p.add_argument("--adjustment-out", required=True)
    p.add_argument("--model-out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate perplexity on a test corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--tag", action="append", default=[])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="dump a matrix row or link decomposition")
    p.add_argument("feature", help="canonical feature string, e.g. '[the quick]'")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--counts")
    src.add_argument("--model")
    p.add_argument("--vocab", required=True)
    p.add_argument("--target", help="dump meta-features of the link to this word")
    p.add_argument("--mode", choices=sorted(_MODES), default=Mode.FULL.value)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except UsageError as exc:
        print(f"snmlm: error: {exc}", file=sys.stderr)
        return 1
    except (SnmError, OSError, ValueError) as exc:
        print(f"snmlm: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
