"""Command-line pipeline driver.

Subcommands cover each stage: build-vocab, count, intersect, train, eval,
inspect. Every stage is deterministic given identical inputs and flags.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .adjustment import AdjustmentModel, train
from .corpus import TaggedCorpus, Vocabulary, build_vocab, iter_file_tokens
from .counts import CountStore, accumulate
from .errors import SnmError
from .extraction import (
    Event,
    ExtractorConfig,
    expand_tags,
    extract_events,
    load_config,
    parse_feature,
)
from .metafeatures import Mode, explain_metafeatures
from .model import load_model, materialize, perplexity, save_model

_MODES = {m.value: m for m in Mode}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def parse_table_size(text: str) -> int:
    """Integer with an optional K/M suffix (multiples of 1024)."""
    text = text.strip()
    factor = 1
    if text and text[-1] in "kK":
        factor, text = 1024, text[:-1]
    elif text and text[-1] in "mM":
        factor, text = 1024 * 1024, text[:-1]
    try:
        value = int(text) * factor
    except ValueError:
        raise UsageError(f"bad table size {text!r}") from None
    return value


@dataclass
class PipelineConfig:
    """Validated knobs of a training run."""

    table_size: int
    gamma: float = 0.1
    delta0: float = 1.0
    batch_size: int = 2048
    epochs: int = 1
    mode: Mode = Mode.FULL
    tags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.table_size < 1:
            raise UsageError("table size must be >= 1")
        if self.batch_size < 1:
            raise UsageError("batch size must be >= 1")
        if self.epochs < 0:
            raise UsageError("epochs must be >= 0")
        if self.gamma <= 0 or self.delta0 <= 0:
            raise UsageError("gamma and delta0 must be positive")
        for tag in self.tags:
            _check_tag(tag)


def _check_tag(tag: str) -> None:
    if not tag or any(ch.isspace() for ch in tag) or "[" in tag or "]" in tag:
        raise UsageError(f"bad corpus tag {tag!r}: no whitespace or brackets")


def _resolve_tags(files, tags) -> list[str]:
    if not tags:
        return [""] * len(files)
    if len(tags) != len(files):
        raise UsageError(
            f"got {len(tags)} --tag values for {len(files)} corpus files"
        )
    for tag in tags:
        _check_tag(tag)
    return list(tags)


def _corpus_events(
    path, vocab: Vocabulary, config: ExtractorConfig, tags: tuple[str, ...]
) -> list[Event]:
    """Extract evaluation-side events, expanding corpus tags when given."""
    corpus = TaggedCorpus.from_file(path, vocab)
    events: list[Event] = []
    for sent in corpus.sentences:
        for e in extract_events(sent, config):
            events.append(expand_tags(e, tags) if tags else e)
    return events


def _training_events(paths, tags, vocab: Vocabulary, config: ExtractorConfig):
    """Stream the events of each training file, with its corpus tag."""
    for path, tag in zip(paths, tags):
        corpus = TaggedCorpus.from_file(path, vocab, tag)
        for sent in corpus.sentences:
            yield from extract_events(sent, config, tag=tag or None)


def _check_tag_consistency(features, tags, source: str) -> None:
    """Tagged rows need --tag for expansion; untagged rows must not get one."""
    has_tagged = any(f.tag is not None for f in features)
    has_untagged = any(f.tag is None for f in features)
    if has_tagged and not has_untagged and not tags:
        raise SnmError(
            f"{source} uses corpus-tagged features; pass --tag once per "
            "training source so features can be expanded"
        )
    if has_untagged and not has_tagged and tags:
        raise SnmError(
            f"{source} is not corpus-tagged; drop the --tag flags"
        )


# ---------------------------------------------------------------------------
# Subcommands

def cmd_build_vocab(args) -> int:
    vocab = build_vocab(iter_file_tokens(args.corpus), min_count=args.min_count)
    vocab.save(args.output)
    print(f"vocabulary: {len(vocab)} words -> {args.output}")
    return 0


def cmd_count(args) -> int:
    vocab = Vocabulary.load(args.vocab)
    tags = _resolve_tags(args.corpus, args.tag)
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
    vocab = Vocabulary.load(args.vocab)
    config = load_config(args.config)
    store = CountStore.load(args.counts, vocab)
    _check_tag_consistency(store.rows, tuple(args.tag), args.counts)
    dev_events = _corpus_events(args.dev, vocab, config, tuple(args.tag))
    dev_features = set()
    for e in dev_events:
        dev_features.update(e.features)
    sub = store.intersect(dev_features)
    sub.save(args.output, vocab)
    print(
        f"intersected: {len(sub)}/{len(store)} features kept, "
        f"{sub.num_links} links -> {args.output}"
    )
    return 0


def cmd_train(args) -> int:
    cfg = PipelineConfig(
        table_size=parse_table_size(args.table_size),
        gamma=args.gamma,
        delta0=args.delta0,
        batch_size=args.batch_size,
        epochs=args.epochs,
        mode=_MODES[args.mode],
        tags=tuple(args.tag),
    )
    vocab = Vocabulary.load(args.vocab)
    config = load_config(args.config)
    store = CountStore.load(args.counts, vocab)
    _check_tag_consistency(store.rows, cfg.tags, args.counts)
    dev_events = _corpus_events(args.dev, vocab, config, cfg.tags)
    if not dev_events:
        raise SnmError(f"{args.dev}: empty development set")
    dev_features = set()
    for e in dev_events:
        dev_features.update(e.features)
    intersected = store.intersect(dev_features)
    # Only the dev rows are trained on and saved; the full store can go.
    del store, dev_features

    adj = AdjustmentModel(
        cfg.table_size,
        gamma=cfg.gamma,
        delta0=cfg.delta0,
        batch_size=cfg.batch_size,
        mode=cfg.mode,
    )
    print(
        f"training: table_size={cfg.table_size} gamma={cfg.gamma} "
        f"delta0={cfg.delta0} batch_size={cfg.batch_size} epochs={cfg.epochs} "
        f"mode={cfg.mode.value}"
    )
    if cfg.epochs == 0:
        model = materialize(intersected, adj, vocab)
    else:
        _, model = train(
            dev_events,
            intersected,
            adj,
            cfg.epochs,
            vocab,
            renorm_each_batch=args.renorm_each_batch,
            log=print,
        )
    adj.save(args.adjustment_out)
    save_model(model, args.model_out, vocab)
    print(f"adjustment -> {args.adjustment_out}")
    print(f"model -> {args.model_out}")
    return 0


def cmd_eval(args) -> int:
    vocab = Vocabulary.load(args.vocab)
    config = load_config(args.config)
    model = load_model(args.model, vocab)
    tags = tuple(args.tag)
    _check_tag_consistency(model.rows, tags, "model")
    events = _corpus_events(args.test, vocab, config, tags)
    report = perplexity(model, events)
    print(f"events: {report.num_events}")
    print(f"ppl: {report.ppl:.6g}")
    print(f"oov_rate: {report.oov_rate:.6f}")
    print(f"floored_events: {report.floored_events}")
    return 0


def cmd_inspect(args) -> int:
    vocab = Vocabulary.load(args.vocab)
    if args.counts:
        store = CountStore.load(args.counts, vocab)
        feature = parse_feature(args.feature, vocab)
        if feature not in store.rows:
            print(f"feature {args.feature!r} not found in {args.counts}")
            return 0
        c_f = store.feature_counts[feature]
        print(f"feature {args.feature}  C_f*={c_f}")
        row = sorted(
            store.rows[feature].items(), key=lambda kv: (-kv[1], vocab.words[kv[0]])
        )
        for w, c in row:
            print(f"  {vocab.words[w]}\t{c}\t{c / c_f:.6g}")
        if args.target is not None:
            wid = vocab.index.get(args.target)
            c_fw = store.rows[feature].get(wid, 0) if wid is not None else 0
            if not c_fw:
                print(f"link target {args.target!r} not found in this row")
                return 0
            print(f"link ({args.feature}, {args.target})  C_fw={c_fw}")
            mode = _MODES[args.mode]
            for label, h, wt in explain_metafeatures(
                feature, wid, c_f, c_fw, mode, vocab
            ):
                print(f"  {h:016x}  {wt:.6f}  {label}")
    else:
        model = load_model(args.model, vocab)
        feature = parse_feature(args.feature, vocab)
        if feature not in model.rows:
            print(f"feature {args.feature!r} not found in {args.model}")
            return 0
        print(f"feature {args.feature}  M_f*={model.normalizers[feature]!r}")
        row = sorted(
            model.rows[feature].items(), key=lambda kv: (-kv[1], vocab.words[kv[0]])
        )
        for w, value in row:
            print(f"  {vocab.words[w]}\t{value!r}")
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
    p.add_argument("--renorm-each-batch", action="store_true",
                   help="renormalize after every batch instead of per epoch")
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
