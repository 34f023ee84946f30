"""The link design against the per-link reference hasher.

`compute_metafeatures` and `explain_metafeatures` (built on the scalar
`LinkHasher` in `snm_testutil`) are the oracle: the design must give every
link the same (slot, weight) items, sum them in the same order, label them
the same way, and push a batch gradient only through the rows of the batch;
`snmlm.metafeatures.LinkHasher` must give every link the same items.
"""

import random

import numpy as np
import pytest

from snmlm import metafeatures
from snmlm.adjustment import AdjustmentModel, BatchAccumulator, batch_theta_gradient, train
from snmlm.corpus import build_vocab
from snmlm.counts import CountStore, accumulate
from snmlm.extraction import Feature, parse_config, render_feature
from snmlm.metafeatures import LinkDesign, Mode, explain, feature_type, fingerprint
from snmlm.model import load_model, materialize, renormalize, save_model

from snm_testutil import (
    FIVE_GRAM_CONFIG,
    MarkovChain,
    compute_metafeatures,
    explain_metafeatures,
    extract_corpus_events,
    make_vocab,
    naive_theta_gradient,
    random_events,
    random_store,
    random_theta,
)

# Link counts with one log2 bucket (powers of two) and with two.
_COUNTS = [1, 2, 3, 4, 5, 6, 8, 13, 16, 100, 1024, 1025]


@pytest.fixture(params=[5, 8192], ids=["blocks-of-5", "one-block"])
def block_size(request, monkeypatch):
    """Also run with tiny slot blocks, so links span several of them."""
    monkeypatch.setattr(metafeatures, "_CHUNK", request.param)
    return request.param


def _mixed_store(vocab) -> CountStore:
    """N-gram, skip-gram (fixed and tied gap) and tagged rows."""
    feats = [
        Feature(()),
        Feature((3,)),
        Feature((3, 4)),
        Feature((5, 6, 7)),
        Feature((3, 4), skip_pos=1, skip_len=2),
        Feature((5, 6, 7), skip_pos=1, skip_len=None),
        Feature((), tag="web"),
        Feature((4, 5), tag="news"),
        Feature((6, 7), skip_pos=1, skip_len=1, tag="web"),
    ]
    rng = random.Random(7)
    store = CountStore()
    for f in feats:
        words = rng.sample(range(3, len(vocab)), rng.randint(1, 6))
        store.rows[f] = {w: rng.choice(_COUNTS) for w in words}
    # one single-link row per count, so feature counts hit both bucket kinds
    for i, c in enumerate(_COUNTS):
        store.rows[Feature((8, 3 + i))] = {9: c}
    for f, row in store.rows.items():
        store.feature_counts[f] = sum(row.values())
    return store


def _design_items(design: LinkDesign, i: int) -> list[tuple[int, float]]:
    links = np.array([i])
    items = zip(design.link_slots(links)[:, 0].tolist(), design.weights(links)[:, 0].tolist())
    return sorted((s, wt) for s, wt in items if wt != 0.0)


def _reference_items(design, store, vocab, i) -> list[tuple[int, float]]:
    f, w = design.link(i)
    mfs = compute_metafeatures(
        f, w, store.feature_counts[f], store.rows[f][w], design.mode, vocab
    )
    return sorted((mf.hash % design.table_size, mf.weight) for mf in mfs if mf.weight != 0.0)


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("table_size", [1, 204800])
def test_design_items_equal_reference_hasher(mode, table_size, block_size):
    vocab = make_vocab(20)
    store = _mixed_store(vocab)
    fcounts = list(store.feature_counts.values())
    assert any(c & (c - 1) == 0 for c in fcounts)
    assert any(c & (c - 1) != 0 for c in fcounts)
    design = LinkDesign.build(store, mode, table_size, vocab)
    assert design.num_links == store.num_links
    seen = set()
    for i in range(design.num_links):
        seen.add(design.link(i))
        assert _design_items(design, i) == _reference_items(design, store, vocab, i)
    assert seen == {(f, w) for f, row in store.rows.items() for w in row}


def _explained_links(vocab):
    """(f, w, feature count, link count) of every row of the mixed store.

    Each row (n-gram, skip and tagged features) comes with its own counts,
    then with every pairing of single- and two-bucket feature and link
    counts.
    """
    store = _mixed_store(vocab)
    pairs = [(1, 1), (8, 2), (8, 5), (13, 8), (13, 6), (1025, 1024)]
    kinds = {(fc & (fc - 1) == 0, c & (c - 1) == 0) for fc, c in pairs}
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
    for f, row in store.rows.items():
        yield from ((f, w, store.feature_counts[f], c) for w, c in row.items())
        yield from ((f, next(iter(row)), fc, c) for fc, c in pairs)


@pytest.mark.parametrize("mode", list(Mode))
def test_explain_equals_reference_labels_hashes_and_weights(mode):
    vocab = make_vocab(20)
    for f, w, fc, c in _explained_links(vocab):
        got = explain(f, w, fc, c, mode, vocab)
        assert got == explain_metafeatures(f, w, fc, c, mode, vocab)
        assert all(type(h) is int and type(wt) is float for _, h, wt in got)


@pytest.mark.parametrize("mode", list(Mode))
def test_scalar_link_hasher_equals_reference(mode):
    vocab = make_vocab(20)
    for f, w, fc, c in _explained_links(vocab):
        hasher = metafeatures.LinkHasher(render_feature(f, vocab), feature_type(f), fc, mode)
        got = hasher.link(fingerprint(vocab.words[w]), c)
        assert got == [(mf.hash, mf.weight) for mf in compute_metafeatures(f, w, fc, c, mode, vocab)]


@pytest.mark.parametrize("mode", list(Mode))
def test_adjustments_equal_per_link_running_sum(mode, block_size):
    vocab = make_vocab(20)
    store = _mixed_store(vocab)
    adj = AdjustmentModel(4096, mode=mode)
    random_theta(adj, seed=12)
    design = LinkDesign.build(store, mode, adj.table_size, vocab)
    a = design.adjustments(adj.theta)
    for i in range(design.num_links):
        f, w = design.link(i)
        expected = 0.0
        for mf in compute_metafeatures(
            f, w, store.feature_counts[f], store.rows[f][w], mode, vocab
        ):
            expected += adj.theta[mf.hash % adj.table_size] * mf.weight
        assert a[i] == expected


def test_batch_gradient_visits_only_batch_rows(monkeypatch, block_size):
    rng = random.Random(19)
    vocab = make_vocab(25)
    store, feats = random_store(rng, vocab, 12)
    adj = AdjustmentModel(2048)
    random_theta(adj, seed=4, scale=0.2)
    model = materialize(store, adj, vocab)
    events = random_events(rng, store, feats[:6], 4)
    acc = BatchAccumulator()
    for e in events:
        acc.add_event(e, model)

    visited = []
    push = LinkDesign.push

    def recording_push(self, links, g):
        visited.extend(links.tolist())
        return push(self, links, g)

    monkeypatch.setattr(LinkDesign, "push", recording_push)
    grads = batch_theta_gradient(acc, model, adj)

    design = model.design
    expected = []
    for f in acc.alpha:
        r = design.row_index[f]
        expected.extend(range(design.offsets[r], design.offsets[r + 1]))
    assert sorted(visited) == sorted(expected)
    assert len(set(acc.alpha)) < len(store.rows)
    naive = naive_theta_gradient(events, model, adj, store, vocab)
    for k in set(grads) | set(naive):
        assert grads.get(k, 0.0) == pytest.approx(naive.get(k, 0.0), abs=1e-12)


def test_train_builds_the_design_once(monkeypatch):
    chain = MarkovChain(15, seed=13)
    train_s = chain.sentences(random.Random(4), 200)
    dev_s = chain.sentences(random.Random(5), 40)
    vocab = build_vocab((t for s in train_s for t in s), min_count=1)
    cfg = parse_config(FIVE_GRAM_CONFIG)
    store = accumulate(extract_corpus_events(train_s, vocab, cfg))
    dev_events = extract_corpus_events(dev_s, vocab, cfg)
    inter = store.intersect({f for e in dev_events for f in e.features})

    builds = []
    build = LinkDesign.build.__func__

    def counting_build(cls, *args):
        builds.append(args)
        return build(cls, *args)

    monkeypatch.setattr(LinkDesign, "build", classmethod(counting_build))
    adj = AdjustmentModel(16384, batch_size=64)
    assert len(dev_events) > 2 * adj.batch_size
    history, _ = train(dev_events, inter, adj, 2, vocab)
    assert len(history) == 3
    assert len(builds) == 1


def test_training_calls_reject_a_model_without_its_design(tmp_path):
    # Only materialize builds a design; a model read from a file, or hashed
    # for another mode or table size, cannot be trained on.
    rng = random.Random(31)
    vocab = make_vocab(25)
    store, feats = random_store(rng, vocab, 10)
    adj = AdjustmentModel(2048)
    random_theta(adj, seed=6, scale=0.2)
    model = materialize(store, adj, vocab)
    save_model(model, tmp_path / "model.tsv", vocab)
    loaded = load_model(tmp_path / "model.tsv", vocab)
    events = random_events(rng, store, feats, 6)
    cases = [
        (loaded, adj, "no link design"),
        (model, AdjustmentModel(2048, mode=Mode.UNLEXICALIZED), "mode full and 2048 slots"),
        (model, AdjustmentModel(1024), "mode full and 2048 slots"),
    ]
    for m, other, message in cases:
        acc = BatchAccumulator()
        for e in events:
            acc.add_event(e, m)
        with pytest.raises(ValueError, match=message):
            batch_theta_gradient(acc, m, other)
        with pytest.raises(ValueError, match=message):
            renormalize(m, other)
    # With the hashing it was built for, the same model trains.
    acc = BatchAccumulator()
    for e in events:
        acc.add_event(e, model)
    assert batch_theta_gradient(acc, model, adj)
