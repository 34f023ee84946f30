"""Acceptance suite: one test per shipping criterion, in a fixed order.

Each criterion prints a single PASS/FAIL line (visible with ``pytest -s``
or in captured output). Scaled-down experiments use fixed seeds, so every
number asserted here is reproducible bit-for-bit.
"""

import functools
import math
import random
import time

import numpy as np
import pytest

from snmlm.adjustment import (
    AdjustmentModel,
    BatchAccumulator,
    batch_theta_gradient,
    train,
)
from snmlm.cli import main as cli_main
from snmlm.corpus import build_vocab
from snmlm.counts import accumulate
from snmlm.extraction import Feature, extract_events, parse_config, render_feature
from snmlm.metafeatures import Mode, buckets
from snmlm.model import materialize, perplexity, renormalize, score_event

from snm_testutil import (
    FIVE_GRAM_CONFIG,
    MarkovChain,
    extract_corpus_events,
    make_vocab,
    naive_theta_gradient,
    random_events,
    random_store,
    random_theta,
)


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"[acceptance] {name}: FAIL ({exc})")
                raise
            print(f"[acceptance] {name}: PASS ({detail})")
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# 1: analytic gradients match central finite differences

@criterion("gradient-oracle")
def test_01_gradient_matches_finite_differences():
    started = time.monotonic()
    rng = random.Random(1001)
    checked = 0
    worst = 0.0
    for instance in range(100):
        vocab = make_vocab(rng.randint(8, 50))
        store, feats = random_store(
            rng, vocab, rng.randint(3, 10), max_row=6, max_count=30
        )
        adj = AdjustmentModel(4096)
        random_theta(adj, seed=instance, scale=0.3)
        model = materialize(store, adj, vocab)
        event = random_events(rng, store, feats, 1, max_features=4)[0]

        acc = BatchAccumulator()
        acc.add_event(event, model)
        analytic = batch_theta_gradient(acc, model, adj)

        eps = 1e-5
        for k in rng.sample(sorted(analytic), min(4, len(analytic))):
            saved = adj.theta[k]
            adj.theta[k] = saved + eps
            hi = score_event(materialize(store, adj, vocab), event).log_prob
            adj.theta[k] = saved - eps
            lo = score_event(materialize(store, adj, vocab), event).log_prob
            adj.theta[k] = saved
            fd = (hi - lo) / (2 * eps)
            tolerance = 1e-5 * abs(fd) + 1e-7
            diff = abs(analytic[k] - fd)
            assert diff <= tolerance, (instance, k, analytic[k], fd)
            worst = max(worst, diff / tolerance)
            checked += 1
    elapsed = time.monotonic() - started
    assert checked >= 100
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    return (
        f"{checked} derivatives over 100 instances, worst diff at "
        f"{worst:.2e} of tolerance, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 2: mini-batch trick equals naive per-event gradient summation

@criterion("batch-trick-equivalence")
def test_02_batch_trick_equals_naive_summation():
    started = time.monotonic()
    rng = random.Random(2002)
    worst = 0.0
    for batch_no in range(50):
        vocab = make_vocab(rng.randint(10, 50))
        store, feats = random_store(
            rng, vocab, rng.randint(4, 10), max_row=6, max_count=25
        )
        adj = AdjustmentModel(2048)
        random_theta(adj, seed=batch_no, scale=0.25)
        model = materialize(store, adj, vocab)
        events = random_events(rng, store, feats, rng.randint(1, 64))

        acc = BatchAccumulator()
        for e in events:
            acc.add_event(e, model)
        trick = batch_theta_gradient(acc, model, adj)
        naive = naive_theta_gradient(events, model, adj, store, vocab)

        for k in set(trick) | set(naive):
            diff = abs(trick.get(k, 0.0) - naive.get(k, 0.0))
            worst = max(worst, diff)
            assert diff <= 1e-12, (batch_no, k, diff)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    return f"50 batches, worst elementwise diff {worst:.2e}, {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3 & 9: scaled-down learning experiment on a second-order Markov source

@pytest.fixture(scope="module")
def markov_experiment():
    """Shared corpus, counts, and events for the learning experiments.

    Intersecting with dev *and* test features changes no training result
    (updates only ever touch rows of dev-event features) while letting
    test scoring see exactly the rows the full matrix would provide.
    """
    started = time.monotonic()
    chain = MarkovChain(100, seed=424242)
    train_sents = chain.sentences(random.Random(1), 50_000)
    dev_sents = chain.sentences(random.Random(2), 2_000)
    test_sents = chain.sentences(random.Random(3), 2_000)
    vocab = build_vocab((t for s in train_sents for t in s), min_count=1)
    config = parse_config(FIVE_GRAM_CONFIG)
    store = accumulate(extract_corpus_events(train_sents, vocab, config))
    dev_events = extract_corpus_events(dev_sents, vocab, config)
    test_events = extract_corpus_events(test_sents, vocab, config)
    keep = {f for e in dev_events for f in e.features}
    keep.update(f for e in test_events for f in e.features)
    inter = store.intersect(keep)
    unadjusted = materialize(inter, AdjustmentModel(16), vocab)
    ppl_unadjusted = perplexity(unadjusted, test_events).ppl
    return {
        "vocab": vocab,
        "counts": inter,
        "dev_events": dev_events,
        "test_events": test_events,
        "ppl_unadjusted": ppl_unadjusted,
        "setup_seconds": time.monotonic() - started,
    }


@pytest.fixture(scope="module")
def full_mode_run(markov_experiment):
    ex = markov_experiment
    started = time.monotonic()
    adj = AdjustmentModel(204800, batch_size=2048, mode=Mode.FULL)
    history, model = train(ex["dev_events"], ex["counts"], adj, 1, ex["vocab"])
    ppl = perplexity(model, ex["test_events"]).ppl
    return {
        "history": history,
        "ppl": ppl,
        "nonzero": adj.nonzero_params,
        "train_seconds": time.monotonic() - started,
    }


@criterion("adjustment-learning")
def test_03_adjusted_model_beats_unadjusted(markov_experiment, full_mode_run):
    ex, run = markov_experiment, full_mode_run
    elapsed = ex["setup_seconds"] + run["train_seconds"]
    assert run["history"][1].dev_ppl < run["history"][0].dev_ppl
    assert run["ppl"] < ex["ppl_unadjusted"]
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    return (
        f"test ppl {ex['ppl_unadjusted']:.3f} -> {run['ppl']:.3f} "
        f"after 1 epoch, {elapsed:.0f}s"
    )


# ---------------------------------------------------------------------------
# 4: corpus-tagged mixing beats pooled counting on mismatched sources

@criterion("corpus-tag-mixing")
def test_04_corpus_tagged_beats_pooled():
    started = time.monotonic()
    matched = MarkovChain(50, seed=99)
    mismatched = MarkovChain(50, seed=777)
    a_sents = matched.sentences(random.Random(11), 2_000)
    b_sents = mismatched.sentences(random.Random(12), 20_000)
    dev_sents = matched.sentences(random.Random(13), 1_000)
    test_sents = matched.sentences(random.Random(14), 1_000)

    vocab = build_vocab((t for s in a_sents + b_sents for t in s), min_count=1)
    config = parse_config(FIVE_GRAM_CONFIG)

    tagged = accumulate(
        extract_corpus_events(a_sents, vocab, config, tag="a")
        + extract_corpus_events(b_sents, vocab, config, tag="b")
    )
    pooled = tagged.strip_tags()

    dev_plain = extract_corpus_events(dev_sents, vocab, config)
    test_plain = extract_corpus_events(test_sents, vocab, config)
    from snmlm.extraction import expand_tags

    dev_tagged = [expand_tags(e, ["a", "b"]) for e in dev_plain]
    test_tagged = [expand_tags(e, ["a", "b"]) for e in test_plain]

    def run(store, dev_ev, test_ev):
        keep = {f for e in dev_ev for f in e.features}
        keep.update(f for e in test_ev for f in e.features)
        inter = store.intersect(keep)
        adj = AdjustmentModel(204800, batch_size=2048, mode=Mode.FULL)
        _, model = train(dev_ev, inter, adj, 1, vocab)
        return perplexity(model, test_ev).ppl

    ppl_pooled = run(pooled, dev_plain, test_plain)
    ppl_tagged = run(tagged, dev_tagged, test_tagged)
    elapsed = time.monotonic() - started

    gain = (ppl_pooled - ppl_tagged) / ppl_pooled
    assert ppl_tagged < ppl_pooled
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    return (
        f"pooled {ppl_pooled:.3f} vs tagged {ppl_tagged:.3f}, "
        f"gain {100 * gain:.1f}%, {elapsed:.0f}s"
    )


# ---------------------------------------------------------------------------
# 5: normalization

@criterion("normalization")
def test_05_probabilities_sum_to_one():
    rng = random.Random(5005)
    vocab = make_vocab(600)
    store, feats = random_store(rng, vocab, 60, max_row=40, max_count=50)

    unadjusted = materialize(store, AdjustmentModel(16), vocab)
    for f, norm in unadjusted.normalizers.items():
        assert abs(norm - 1.0) <= 1e-12

    adj = AdjustmentModel(8192)
    model = materialize(store, adj, vocab)
    random_theta(adj, seed=55, scale=0.4)
    renormalize(model, adj)

    events = random_events(rng, store, feats, 1000)
    worst = 0.0
    for e in events:
        reachable = set()
        for f in e.features:
            reachable.update(model.rows[f])
        total = math.fsum(
            math.exp(score_event(model, e._replace(target=w)).log_prob)
            for w in reachable
        )
        worst = max(worst, abs(total - 1.0))
        assert abs(total - 1.0) <= 1e-9
    return f"1000 adjusted events, worst |sum-1| = {worst:.2e}"


# ---------------------------------------------------------------------------
# 6: extraction goldens

@criterion("extraction-goldens")
def test_06_extraction_goldens():
    words = "The quick brown fox jumps over the lazy dog".split()
    vocab = build_vocab(words, min_count=1)
    from snmlm.corpus import map_tokens

    sent = map_tokens(words, vocab)
    untied = parse_config(
        """
        ngram_extractor { min_n: 0 max_n: 0 }
        skip_ngram_extractor {
          max_context_words: 4
          min_remote_words: 1
          max_remote_words: 1
          min_skip_length: 2
          max_skip_length: 2
          tie_skip_length: false
        }
        """
    )
    events = extract_events(sent, untied)
    dog = next(e for e in events if vocab.words[e.target] == "dog")
    rendered = {render_feature(f, vocab) for f in dog.features}
    assert "[brown skip-2 over the lazy]" in rendered

    tied = parse_config(
        """
        ngram_extractor { min_n: 0 max_n: 0 }
        skip_ngram_extractor {
          max_context_words: 4
          min_remote_words: 1
          max_remote_words: 1
          min_skip_length: 1
          max_skip_length: 10
          tie_skip_length: true
        }
        """
    )
    events = extract_events(sent, tied)
    dog = next(e for e in events if vocab.words[e.target] == "dog")
    rendered = {render_feature(f, vocab) for f in dog.features}
    assert "[brown skip-* over the lazy]" in rendered

    five = parse_config(
        "// straight 5-gram\nngram_extractor {\n  min_n: 0\n  max_n: 4\n}\n"
    )
    assert (five.ngram.min_n, five.ngram.max_n) == (0, 4)
    assert five.skip == ()

    skip10 = parse_config(
        """
        ngram_extractor { min_n: 0 max_n: 9 }
        skip_ngram_extractor {
          max_context_words: 4
          min_remote_words: 1
          max_remote_words: 1
          min_skip_length: 1
          max_skip_length: 10
          tie_skip_length: true
        }
        skip_ngram_extractor {
          max_context_words: 5
          min_skip_length: 1
          max_skip_length: 1
          tie_skip_length: false
        }
        """
    )
    assert (skip10.ngram.min_n, skip10.ngram.max_n) == (0, 9)
    first, second = skip10.skip
    assert first.tie_skip_length and first.max_skip_length == 10
    assert (second.min_remote_words, second.max_remote_words) == (1, 4)
    assert not second.tie_skip_length
    return "skip feature, tied form, and both sample configs verified"


# ---------------------------------------------------------------------------
# 7: count bucketing

@criterion("count-bucketing")
def test_07_bucketing():
    got = buckets(6)
    assert [b for b, _ in got] == [2, 3]
    assert got[0][1] == pytest.approx(0.41504, abs=1e-5)
    assert got[1][1] == pytest.approx(0.58496, abs=1e-5)
    assert got[0][1] + got[1][1] == 1.0
    for power in (1, 2, 4, 8, 1024, 2**20):
        assert buckets(power) == [(int(math.log2(power)), 1.0)]
    return "count 6 split and powers of two verified"


# ---------------------------------------------------------------------------
# 8: perplexity identities

@criterion("perplexity-identities")
def test_08_perplexity_identities():
    from snmlm.extraction import Event

    def ev(features, target):
        return Event(features=tuple(features), target=target)

    # uniform model over V=4: every probability is exactly 0.25 and the
    # log/exp round trip lands exactly on 4.0 in binary64
    vocab = make_vocab(4)
    empty = Feature(())
    events = [ev([empty], w) for w in range(3, 7)]
    model = materialize(accumulate(events), AdjustmentModel(16), vocab)
    assert perplexity(model, events).ppl == 4.0

    for n in (2, 3, 5, 10, 33, 100):
        vocab_n = make_vocab(n)
        events_n = [ev([empty], w) for w in range(3, 3 + n)]
        model_n = materialize(accumulate(events_n), AdjustmentModel(16), vocab_n)
        assert perplexity(model_n, events_n).ppl == pytest.approx(n, rel=1e-12)

    # two events with probabilities 1/2 and 1/8
    vocab = make_vocab(10)
    f_half, f_eighth = Feature((3,)), Feature((4,))
    training = [ev([f_half], 5), ev([f_half], 6)]
    training += [ev([f_eighth], w) for w in range(3, 11)]
    model = materialize(accumulate(training), AdjustmentModel(16), vocab)
    report = perplexity(model, [ev([f_half], 5), ev([f_eighth], 3)])
    assert report.ppl == pytest.approx(4.0, abs=1e-12)
    return "uniform = V exactly; {1/2, 1/8} case = 4 within 1e-12"


# ---------------------------------------------------------------------------
# 9: unlexicalized mode stays near the full model with a tiny weight count

@criterion("mode-ablation")
def test_09_unlexicalized_mode(markov_experiment, full_mode_run):
    ex = markov_experiment
    started = time.monotonic()
    adj = AdjustmentModel(204800, batch_size=2048, mode=Mode.UNLEXICALIZED)
    _, model = train(ex["dev_events"], ex["counts"], adj, 1, ex["vocab"])
    ppl_unlex = perplexity(model, ex["test_events"]).ppl
    elapsed = time.monotonic() - started

    assert adj.nonzero_params <= 1500, adj.nonzero_params
    ppl_full = full_mode_run["ppl"]
    rel = abs(ppl_unlex - ppl_full) / ppl_full
    assert rel <= 0.15, f"unlex {ppl_unlex:.3f} vs full {ppl_full:.3f}"
    return (
        f"{adj.nonzero_params} nonzero params, ppl {ppl_unlex:.3f} "
        f"vs full {ppl_full:.3f} ({100 * rel:.1f}% apart), {elapsed:.0f}s"
    )


# ---------------------------------------------------------------------------
# 10: whole-pipeline determinism

@criterion("pipeline-determinism")
def test_10_pipeline_rerun_is_bit_identical(tmp_path):
    chain = MarkovChain(20, seed=31337)
    train_sents = chain.sentences(random.Random(21), 120)
    dev_sents = chain.sentences(random.Random(22), 30)

    def write(path, sents):
        path.write_text(
            "".join(" ".join(s) + "\n" for s in sents), encoding="utf-8"
        )

    write(tmp_path / "train.txt", train_sents)
    write(tmp_path / "dev.txt", dev_sents)
    (tmp_path / "extractor.cfg").write_text(FIVE_GRAM_CONFIG, encoding="utf-8")

    def run(suffix):
        paths = {
            name: tmp_path / f"{name}{suffix}"
            for name in ("vocab", "counts", "inter", "adj", "model")
        }
        assert cli_main([
            "build-vocab", str(tmp_path / "train.txt"),
            "-o", str(paths["vocab"]),
        ]) == 0
        assert cli_main([
            "count", str(tmp_path / "train.txt"),
            "--config", str(tmp_path / "extractor.cfg"),
            "--vocab", str(paths["vocab"]), "-o", str(paths["counts"]),
        ]) == 0
        assert cli_main([
            "intersect", "--counts", str(paths["counts"]),
            "--dev", str(tmp_path / "dev.txt"),
            "--config", str(tmp_path / "extractor.cfg"),
            "--vocab", str(paths["vocab"]), "-o", str(paths["inter"]),
        ]) == 0
        assert cli_main([
            "train", "--counts", str(paths["counts"]),
            "--dev", str(tmp_path / "dev.txt"),
            "--config", str(tmp_path / "extractor.cfg"),
            "--vocab", str(paths["vocab"]),
            "--table-size", "200K", "--epochs", "2", "--batch-size", "64",
            "--adjustment-out", str(paths["adj"]),
            "--model-out", str(paths["model"]),
        ]) == 0
        return paths

    first = run("_1")
    second = run("_2")
    for name in ("vocab", "counts", "inter", "adj", "model"):
        assert first[name].read_bytes() == second[name].read_bytes(), name
    return "vocab, counts, intersection, adjustment, and model files identical"
