"""Command-line pipeline driver.

Subcommands cover each stage: build-vocab, count, intersect, train, eval,
inspect. Every stage is deterministic given identical inputs and flags.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .adjustment import AdjustmentModel, train
from .corpus import TaggedCorpus, Vocabulary, build_vocab, iter_file_tokens, natural
from .counts import CountStore, accumulate
from .errors import DataError, SnmError
from .extraction import (
    Event,
    ExtractorConfig,
    expand_tags,
    extract_events,
    is_tag,
    load_config,
    parse_feature,
)
from .metafeatures import Mode, explain
# `materialize` is not called here; perfbench/tracing.py looks it up in this
# module until ROADMAP item 1 removes the pin.
from .model import load_model, materialize, perplexity, save_model  # noqa: F401

_MODES = {m.value: m for m in Mode}
_SUFFIXES = {"k": 1 << 10, "K": 1 << 10, "m": 1 << 20, "M": 1 << 20}


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
            raise UsageError(f"bad corpus tag {tag!r}: no whitespace or brackets")
    return tags


def _corpus_events(path, vocab: Vocabulary, config: ExtractorConfig, tags) -> list[Event]:
    """Extract evaluation-side events, expanding corpus tags when given."""
    events: list[Event] = []
    for sent in TaggedCorpus.from_file(path, vocab).sentences:
        for e in extract_events(sent, config):
            events.append(expand_tags(e, tags) if tags else e)
    return events


def _training_events(paths, tags, vocab: Vocabulary, config: ExtractorConfig):
    """Stream the events of each training file, with its corpus tag if `tags` has one."""
    for path, tag in zip(paths, tags or [None] * len(paths)):
        for sent in TaggedCorpus.from_file(path, vocab).sentences:
            yield from extract_events(sent, config, tag=tag)


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


def _check_output(path: str) -> None:
    """Raise SnmError unless `path` names a file that can be created in an existing directory.

    Commands run it before reading any input, so a bad path fails at once.
    """
    out = Path(path)
    if out.is_dir():
        raise SnmError(f"{path}: is a directory, not an output file")
    if not out.parent.is_dir():
        raise SnmError(f"{path}: directory {str(out.parent)!r} does not exist")


def _held_out(args, tags: tuple[str, ...]):
    """The vocab, the dev events, and the count rows of the dev features."""
    vocab = Vocabulary.load(args.vocab)
    dev_events = _corpus_events(args.dev, vocab, load_config(args.config), tags)
    store = CountStore.load(args.counts, vocab, keep={f for e in dev_events for f in e.features})
    _check_tags_cover(store.file_features, tags, args.counts)
    return vocab, dev_events, store


# ---------------------------------------------------------------------------
# Subcommands

def cmd_build_vocab(args) -> int:
    _check_output(args.output)
    vocab = build_vocab(iter_file_tokens(args.corpus), min_count=args.min_count)
    vocab.save(args.output)
    print(f"vocabulary: {len(vocab)} words -> {args.output}")
    return 0


def cmd_count(args) -> int:
    tags = _tags(args, args.corpus)
    _check_output(args.output)
    vocab = Vocabulary.load(args.vocab)
    # The config, and with it the features it interned, lives only as long as
    # the event stream: its tables are freed before the save's peak.
    events = _training_events(args.corpus, tags, vocab, load_config(args.config))
    store = accumulate(events)
    store.save(args.output, vocab)
    print(
        f"counts: {len(store)} features, {store.num_links} links, "
        f"{store.total_events} events -> {args.output}"
    )
    return 0


def cmd_intersect(args) -> int:
    tags = _tags(args)
    _check_output(args.output)
    vocab, _, sub = _held_out(args, tags)
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
    _check_output(args.adjustment_out)
    _check_output(args.model_out)
    # Only the dev rows are trained on and saved, so only they are stored.
    vocab, dev_events, store = _held_out(args, tags)
    if not dev_events:
        raise SnmError(f"{args.dev}: empty development set")
    # A copy of `store`: perfbench/tracing.py captures the training store from
    # this call. ROADMAP item 1 removes the pin.
    intersected = store.intersect(store.rows)
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
    _, model = train(dev_events, intersected, adj, args.epochs, vocab, log=print)
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
    _check_tags_cover({f.tag for f in model.rows}, tags, "model")
    events = _corpus_events(args.test, vocab, config, tags)
    report = perplexity(model, events)
    print(f"events: {report.num_events}")
    print(f"ppl: {report.ppl:.6g}")
    print(f"oov_rate: {report.oov_rate:.6f}")
    print(f"floored_events: {report.floored_events}")
    return 0


def cmd_inspect(args) -> int:
    if args.target is not None and not args.counts:
        raise UsageError("--target needs --counts: a link's meta-features come from its counts")
    vocab = Vocabulary.load(args.vocab)
    if args.counts:
        try:
            feature = parse_feature(args.feature, vocab)
        except DataError:
            # A bad count file is reported ahead of a bad feature argument.
            CountStore.load(args.counts, vocab, keep=())
            raise
        # Every line is still validated; only the asked row is stored.
        store = CountStore.load(args.counts, vocab, keep={feature})
        source, rows, sums, total_name = args.counts, store.rows, store.feature_counts, "C_f*"
    else:
        model = load_model(args.model, vocab)
        feature = parse_feature(args.feature, vocab)
        source, rows, sums, total_name = args.model, model.rows, model.normalizers, "M_f*"
    if feature not in rows:
        print(f"feature {args.feature!r} not found in {source}")
        return 0
    total = sums[feature]
    print(f"feature {args.feature}  {total_name}={total!r}")
    for w, v in sorted(rows[feature].items(), key=lambda kv: (-kv[1], vocab.words[kv[0]])):
        # A count also shows its share of the row.
        print(f"  {vocab.words[w]}\t{v!r}" + (f"\t{v / total:.6g}" if args.counts else ""))
    if args.target is None:
        return 0
    wid = vocab.index.get(args.target)
    c_fw = rows[feature].get(wid, 0)
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
