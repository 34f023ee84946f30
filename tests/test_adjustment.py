import math
import random
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snmlm.adjustment import (
    AdjustmentModel,
    BatchAccumulator,
    EpochStats,
    apply_adagrad,
    batch_theta_gradient,
    compile_events,
    process_batch,
    theta_gradient,
    train,
)
from snmlm.corpus import build_vocab
from snmlm.counts import accumulate
from snmlm.errors import DataError
from snmlm.extraction import Event, Feature, expand_tags, parse_config
from snmlm.metafeatures import Mode, buckets
from snmlm.model import adjusted_cells, materialize, perplexity, score_event

from snm_testutil import (
    FIVE_GRAM_CONFIG,
    MarkovChain,
    adagrad_oracle,
    adjust,
    array_theta_gradient,
    build_matrix,
    build_model,
    compute_metafeatures,
    event_link_gradient,
    extract_corpus_events,
    link_weights,
    make_vocab,
    naive_theta_gradient,
    random_events,
    random_store,
    random_theta,
)


def _ev(features, target):
    return Event(features=tuple(features), target=target)


# ---------------------------------------------------------------------------
# The adjustment function

def test_zero_weights_give_zero_adjustment():
    rng = random.Random(0)
    vocab = make_vocab(20)
    store, feats = random_store(rng, vocab, 6)
    adj = AdjustmentModel(512)
    for f in feats[:3]:
        for w in store.rows[f]:
            assert adjust(adj, f, w, store, vocab) == 0.0


def test_single_weight_flows_through():
    vocab = build_vocab(["a", "b"], min_count=1)
    a, b = vocab.index["a"], vocab.index["b"]
    f = Feature((a,))
    store = accumulate([_ev([f], b)])
    adj = AdjustmentModel(1 << 20)
    target_mf = compute_metafeatures(f, b, 1, 1, Mode.FULL, vocab)[3]
    assert target_mf.weight == 1.0
    adj.theta[target_mf.hash % adj.table_size] = 0.5
    assert adjust(adj, f, b, store, vocab) == pytest.approx(0.5)


def test_bucket_split_count_contributes_weighted_sum():
    # a link with count 6 sees its count descriptor split across two
    # buckets; hand-evaluate against the bucket weights. The feature
    # count is 16 so its single bucket (4) cannot alias the link
    # buckets (2 and 3), which share the plain integer-bucket hashes.
    vocab = build_vocab(["a", "b"], min_count=1)
    a, b = vocab.index["a"], vocab.index["b"]
    f = Feature((a,))
    store = accumulate([_ev([f], b)] * 6 + [_ev([f], a)] * 10)
    assert store.rows[f][b] == 6 and store.feature_counts[f] == 16
    adj = AdjustmentModel(1 << 22, mode=Mode.UNLEXICALIZED)
    (lo, w_lo), (hi, w_hi) = buckets(6)
    mfs = compute_metafeatures(f, b, 16, 6, Mode.UNLEXICALIZED, vocab)
    # unlexicalized base: [type, count:2^4]; link buckets follow at 2 and 5
    k_lo = mfs[2].hash % adj.table_size
    k_hi = mfs[5].hash % adj.table_size
    assert len({k_lo, k_hi, mfs[0].hash % adj.table_size,
                mfs[1].hash % adj.table_size}) == 4
    adj.theta[k_lo] = 0.4
    adj.theta[k_hi] = -0.2
    expected = 0.4 * w_lo + (-0.2) * w_hi
    assert adjust(adj, f, b, store, vocab) == pytest.approx(expected, rel=1e-12)


def test_weight_tying_under_unlexicalized_mode():
    # same type, same bucketed counts: equal adjustments for any weights
    vocab = make_vocab(10)
    f1, f2 = Feature((3,)), Feature((4,))
    events = [_ev([f1], 5), _ev([f1], 6), _ev([f2], 7), _ev([f2], 8)]
    store = accumulate(events)
    adj = AdjustmentModel(4096, mode=Mode.UNLEXICALIZED)
    random_theta(adj, seed=31)
    values = {
        adjust(adj, f, w, store, vocab)
        for f, w in [(f1, 5), (f1, 6), (f2, 7), (f2, 8)]
    }
    assert len(values) == 1


# ---------------------------------------------------------------------------
# Per-link gradients

@pytest.fixture
def single_feature_setup():
    vocab = build_vocab(["a", "b", "c"], min_count=1)
    a, b, c = (vocab.index[t] for t in "abc")
    f = Feature((a,))
    store = accumulate([_ev([f], b), _ev([f], b), _ev([f], c)])
    model = build_model(store, AdjustmentModel(64), vocab)
    return vocab, store, model, f, b, c


def test_single_feature_gradient_identities(single_feature_setup):
    vocab, store, model, f, b, c = single_feature_setup
    e = _ev([f], b)
    score = score_event(model, e)
    c_b = 2 / 3
    g_target = event_link_gradient(e, f, b, model, score.y_t, score.y)
    g_other = event_link_gradient(e, f, c, model, score.y_t, score.y)
    assert g_target == pytest.approx(1 - c_b, rel=1e-12)
    assert g_other == pytest.approx(-(1 / 3), rel=1e-12)


def test_gradient_is_zero_for_absent_feature(single_feature_setup):
    vocab, store, model, f, b, c = single_feature_setup
    e = _ev([f], b)
    other = Feature((b,))
    assert event_link_gradient(e, other, b, model, 1.0, 1.0) == 0.0


def test_link_gradient_matches_finite_difference():
    rng = random.Random(23)
    vocab = make_vocab(15)
    store, feats = random_store(rng, vocab, 6)
    adj = AdjustmentModel(2048)
    random_theta(adj, seed=3, scale=0.2)
    model = build_model(store, adj, vocab)
    e = random_events(rng, store, feats, 1, max_features=2)[0]
    score = score_event(model, e)
    f = e.features[0]
    for w in list(model.rows[f])[:4]:
        g = event_link_gradient(e, f, w, model, score.y_t, score.y)
        eps = 1e-6
        saved = model.rows[f][w]
        for sign in (1.0,):
            model.rows[f][w] = saved * math.exp(eps)
            model.normalizers[f] += model.rows[f][w] - saved
            hi = score_event(model, e).log_prob
            model.rows[f][w] = saved * math.exp(-eps)
            model.normalizers[f] += model.rows[f][w] - saved * math.exp(eps)
            lo = score_event(model, e).log_prob
            model.rows[f][w] = saved
            model.normalizers[f] += saved - saved * math.exp(-eps)
        fd = (hi - lo) / (2 * eps)
        assert g == pytest.approx(fd, rel=1e-4, abs=1e-7)


# ---------------------------------------------------------------------------
# Batches

def test_batch_of_one_reduces_to_per_link_gradients():
    rng = random.Random(5)
    vocab = make_vocab(12)
    store, feats = random_store(rng, vocab, 5)
    adj = AdjustmentModel(1024)
    random_theta(adj, seed=8, scale=0.2)
    design, cells, row_sums = build_matrix(store, adj, vocab)
    model = materialize(design, cells, row_sums)
    e = random_events(rng, store, feats, 1, max_features=3)[0]
    score = score_event(model, e)

    acc = BatchAccumulator()
    acc.add_event(e, model)

    expected: dict[int, float] = {}
    for f in e.features:
        for w in model.rows[f]:
            g = event_link_gradient(e, f, w, model, score.y_t, score.y)
            if g == 0.0:
                continue
            for k, wt in link_weights(adj, f, w, store, vocab):
                expected[k] = expected.get(k, 0.0) + g * wt
    for grads in (batch_theta_gradient(acc, design, cells),
                  array_theta_gradient([e], design, cells, row_sums)):
        for k in set(grads) | set(expected):
            assert grads.get(k, 0.0) == pytest.approx(expected.get(k, 0.0), abs=1e-12)


def test_batch_trick_equals_naive_summation():
    rng = random.Random(19)
    vocab = make_vocab(25)
    store, feats = random_store(rng, vocab, 8)
    adj = AdjustmentModel(2048)
    random_theta(adj, seed=4, scale=0.2)
    design, cells, row_sums = build_matrix(store, adj, vocab)
    model = materialize(design, cells, row_sums)
    events = random_events(rng, store, feats, 5)

    acc = BatchAccumulator()
    for e in events:
        acc.add_event(e, model)
    naive = naive_theta_gradient(events, model, adj, store, vocab)
    for trick in (batch_theta_gradient(acc, design, cells),
                  array_theta_gradient(events, design, cells, row_sums)):
        for k in set(trick) | set(naive):
            assert trick.get(k, 0.0) == pytest.approx(naive.get(k, 0.0), abs=1e-12)


def test_array_gradient_equals_dict_gradient_bit_for_bit():
    # Random batches mixing reachable and unreachable targets, in every mode.
    rng = random.Random(41)
    for instance in range(30):
        vocab = make_vocab(rng.randint(10, 40))
        store, feats = random_store(rng, vocab, rng.randint(3, 12))
        adj = AdjustmentModel(rng.choice([64, 2048]), mode=rng.choice(list(Mode)))
        random_theta(adj, seed=instance, scale=0.3)
        design, cells, row_sums = build_matrix(store, adj, vocab)
        model = materialize(design, cells, row_sums)
        events = random_events(rng, store, feats, rng.randint(1, 40))
        events += random_events(rng, store, feats, rng.randint(0, 5), reachable_targets=False)
        rng.shuffle(events)
        acc = BatchAccumulator()
        for e in events:
            acc.add_event(e, model)
        step = theta_gradient(compile_events(events, design.layout), design, cells, row_sums)
        assert step.floored_events == acc.floored_events
        assert dict(zip(step.slots.tolist(), step.grads.tolist())) == batch_theta_gradient(
            acc, design, cells
        )


def test_batch_accumulator_keys_are_batch_local():
    rng = random.Random(29)
    vocab = make_vocab(15)
    store, feats = random_store(rng, vocab, 6)
    model = build_model(store, AdjustmentModel(256), vocab)
    events = random_events(rng, store, feats, 10)
    acc = BatchAccumulator()
    for e in events:
        acc.add_event(e, model)
    seen_feats = {f for e in events for f in e.features}
    seen_links = {(f, e.target) for e in events for f in e.features}
    assert set(acc.alpha) <= seen_feats
    assert set(acc.link_grads) <= seen_links


def test_unreachable_target_event_contributes_no_gradient():
    vocab = build_vocab(["a", "b"], min_count=1)
    a, b = vocab.index["a"], vocab.index["b"]
    f = Feature((a,))
    store = accumulate([_ev([f], b)])
    design, cells, row_sums = build_matrix(store, AdjustmentModel(64), vocab)
    acc = BatchAccumulator()
    acc.add_event(_ev([f], a), materialize(design, cells, row_sums))  # 'a' never follows the context
    assert acc.floored_events == 1
    assert not acc.alpha and not acc.link_grads
    step = theta_gradient(compile_events([_ev([f], a)], design.layout), design, cells, row_sums)
    assert step.floored_events == 1
    assert len(step.slots) == 0 and len(step.grads) == 0


def test_adagrad_first_step():
    adj = AdjustmentModel(8, gamma=0.1, delta0=1.0)
    g = 0.75
    apply_adagrad(adj, np.array([3]), np.array([g]))
    assert adj.grad_sq[3] == pytest.approx(g * g)
    assert adj.theta[3] == pytest.approx(0.1 * g / math.sqrt(1.0 + g * g), rel=1e-12)


def test_adagrad_rates_never_increase():
    rng = random.Random(101)
    adj = AdjustmentModel(16, gamma=0.1, delta0=1.0)
    last_rate = {k: adj.gamma / math.sqrt(adj.delta0) for k in range(16)}
    for _ in range(50):
        slots = rng.sample(range(16), 5)
        grads = [rng.uniform(-2, 2) for _ in slots]
        before = adj.grad_sq.copy()
        apply_adagrad(adj, np.array(slots), np.array(grads))
        assert np.all(adj.grad_sq >= before)
        for k in range(16):
            rate = adj.gamma / math.sqrt(adj.delta0 + adj.grad_sq[k])
            assert rate <= last_rate[k] + 1e-15
            last_rate[k] = rate


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_apply_adagrad_equals_the_two_line_update_bit_for_bit(data):
    size = data.draw(st.integers(1, 40), label="table size")
    slots = np.array(data.draw(st.lists(st.integers(0, size - 1), unique=True), label="slots"),
                     dtype=np.int64)
    floats = st.floats(-1e6, 1e6)
    grads = np.array(data.draw(st.lists(floats, min_size=len(slots), max_size=len(slots)),
                               label="gradients"), dtype=np.float64)
    positive = st.floats(1e-8, 1e3)
    gamma, delta0 = data.draw(positive, label="gamma"), data.draw(positive, label="delta0")
    want, got = (AdjustmentModel(size, gamma=gamma, delta0=delta0) for _ in range(2))
    want.theta = np.array(data.draw(st.lists(floats, min_size=size, max_size=size),
                                    label="theta"), dtype=np.float64)
    want.grad_sq = np.array(data.draw(st.lists(st.floats(0.0, 1e6), min_size=size,
                                               max_size=size), label="grad_sq"), dtype=np.float64)
    got.theta, got.grad_sq = want.theta.copy(), want.grad_sq.copy()
    for _ in range(data.draw(st.integers(1, 3), label="steps")):
        adagrad_oracle(want, slots, grads)
        apply_adagrad(got, slots, grads)
        assert got.theta.tobytes() == want.theta.tobytes()
        assert got.grad_sq.tobytes() == want.grad_sq.tobytes()


def test_process_batch_rejects_empty():
    vocab = make_vocab(5)
    store, _ = random_store(random.Random(1), vocab, 3)
    adj = AdjustmentModel(64)
    design, cells, row_sums = build_matrix(store, adj, vocab)
    events = random_events(random.Random(2), store, list(store.rows), 3)
    for empty in (compile_events([], design.layout),
                  compile_events(events, design.layout).batch(1, 1)):
        with pytest.raises(DataError):
            process_batch(empty, design, cells, row_sums, adj)
    assert not adj.grad_sq.any()


# ---------------------------------------------------------------------------
# Training

def test_empty_dev_set_leaves_model_unchanged():
    vocab = make_vocab(10)
    store, _ = random_store(random.Random(2), vocab, 4)
    adj = AdjustmentModel(128)
    history, model = train([], store, adj, 3, vocab)
    assert history == []
    assert adj.nonzero_params == 0
    fresh = build_model(store, AdjustmentModel(128), vocab)
    assert model.rows == fresh.rows


def test_zero_epochs_give_the_model_of_the_given_weights():
    rng = random.Random(3)
    vocab = make_vocab(12)
    store, feats = random_store(rng, vocab, 5)
    adj = AdjustmentModel(256)
    random_theta(adj, seed=12, scale=0.2)
    theta = adj.theta.copy()
    history, model = train(random_events(rng, store, feats, 9), store, adj, 0, vocab)
    assert history == []
    assert np.array_equal(adj.theta, theta) and not adj.grad_sq.any()
    fresh = build_model(store, adj, vocab)
    assert list(model.rows.items()) == list(fresh.rows.items())
    assert list(model.normalizers.items()) == list(fresh.normalizers.items())
    with pytest.raises(ValueError, match="epochs must be >= 0, got -1"):
        train([], store, adj, -1, vocab)


def test_one_epoch_improves_dev_likelihood():
    chain = MarkovChain(30, seed=77)
    train_s = chain.sentences(random.Random(1), 1500)
    dev_s = chain.sentences(random.Random(2), 200)
    vocab = build_vocab((t for s in train_s for t in s), min_count=1)
    cfg = parse_config(FIVE_GRAM_CONFIG)
    store = accumulate(extract_corpus_events(train_s, vocab, cfg))
    dev_events = extract_corpus_events(dev_s, vocab, cfg)
    keep = {f for e in dev_events for f in e.features}
    inter = store.intersect(keep)
    adj = AdjustmentModel(65536, batch_size=512)
    history, model = train(dev_events, inter, adj, 2, vocab)
    assert len(history) == 3
    assert history[0].epoch == 0 and history[0].nonzero_params == 0
    assert history[1].dev_log_likelihood > history[0].dev_log_likelihood
    assert history[1].dev_ppl < history[0].dev_ppl
    assert history[-1].dev_ppl == pytest.approx(perplexity(model, dev_events).ppl)


def test_theta_zero_history_is_unadjusted_baseline():
    chain = MarkovChain(15, seed=17)
    train_s = chain.sentences(random.Random(6), 300)
    dev_s = chain.sentences(random.Random(7), 50)
    vocab = build_vocab((t for s in train_s for t in s), min_count=1)
    cfg = parse_config(FIVE_GRAM_CONFIG)
    store = accumulate(extract_corpus_events(train_s, vocab, cfg))
    dev_events = extract_corpus_events(dev_s, vocab, cfg)
    inter = store.intersect({f for e in dev_events for f in e.features})
    unadjusted = build_model(inter, AdjustmentModel(64), vocab)
    baseline = perplexity(unadjusted, dev_events)
    history, _ = train(dev_events, inter, AdjustmentModel(16384), 1, vocab)
    assert history[0].dev_ppl == pytest.approx(baseline.ppl, rel=1e-12)


def _dict_reference_train(dev_events, counts, adj, epochs, vocab):
    """`train` as the per-event dict walk it replaced.

    Each epoch runs on a dict model that `materialize` builds from the
    epoch's cells. Each batch goes through `BatchAccumulator` and
    `batch_theta_gradient`, and the gradient dict through the AdaGrad
    formula; each epoch is scored by `perplexity`, one event at a time.
    """
    design, cells, row_sums = build_matrix(counts, adj, vocab)
    model = materialize(design, cells, row_sums)

    def stats(epoch):
        report = perplexity(model, dev_events)
        return EpochStats(epoch, report.log_prob_sum, report.ppl, adj.nonzero_params)

    history = [stats(0)]
    for epoch in range(1, epochs + 1):
        for i in range(0, len(dev_events), adj.batch_size):
            acc = BatchAccumulator()
            for e in dev_events[i : i + adj.batch_size]:
                acc.add_event(e, model)
            grads = batch_theta_gradient(acc, design, cells)
            ks = np.fromiter(grads.keys(), dtype=np.int64, count=len(grads))
            gs = np.fromiter(grads.values(), dtype=np.float64, count=len(grads))
            adj.grad_sq[ks] += gs * gs
            adj.theta[ks] += adj.gamma * gs / np.sqrt(adj.delta0 + adj.grad_sq[ks])
        cells, row_sums = adjusted_cells(design, adj.theta)
        model = materialize(design, cells, row_sums)
        history.append(stats(epoch))
    return history, model


def _held_out(tagged: bool):
    """Counts and dev events of Markov text; some dev words never occur in training."""
    cfg = parse_config(FIVE_GRAM_CONFIG)
    tags = ("a", "b") if tagged else (None,)
    train_s = [MarkovChain(30, seed=50 + i).sentences(random.Random(i), 300)
               for i in range(len(tags))]
    dev_s = MarkovChain(30, seed=50).sentences(random.Random(8), 50)
    # A wider source: its words w030..w035 are targets no training row links to.
    dev_s += MarkovChain(36, seed=9).sentences(random.Random(9), 12)
    vocab = build_vocab((t for s in [*sum(train_s, []), *dev_s] for t in s), min_count=1)
    counts = accumulate(
        e for tag, sents in zip(tags, train_s) for e in extract_corpus_events(sents, vocab, cfg, tag)
    )
    dev = extract_corpus_events(dev_s, vocab, cfg)
    if tagged:
        dev = [expand_tags(e, tags) for e in dev]
    return vocab, counts.intersect({f for e in dev for f in e.features}), dev


@pytest.mark.parametrize("tagged", [False, True], ids=["untagged", "tagged"])
@pytest.mark.parametrize("mode", list(Mode))
def test_train_equals_dict_reference_bit_for_bit(mode, tagged):
    vocab, counts, dev = _held_out(tagged)
    batch_size = 97
    assert len(dev) > 2 * batch_size and len(dev) % batch_size
    floored = [e for e in dev if not any(e.target in counts.rows.get(f, ()) for f in e.features)]
    assert 0 < len(floored) < len(dev)
    assert all(f.tag for e in dev for f in e.features) == tagged

    ref = AdjustmentModel(1 << 14, batch_size=batch_size, mode=mode)
    ref_history, ref_model = _dict_reference_train(dev, counts, ref, 2, vocab)
    adj = AdjustmentModel(1 << 14, batch_size=batch_size, mode=mode)
    history, model = train(dev, counts, adj, 2, vocab)

    assert history == ref_history
    assert ref_history[2].dev_ppl < ref_history[0].dev_ppl
    assert np.array_equal(adj.theta, ref.theta) and adj.nonzero_params > 0
    assert np.array_equal(adj.grad_sq, ref.grad_sq)
    assert list(model.rows.items()) == list(ref_model.rows.items())
    assert list(model.normalizers.items()) == list(ref_model.normalizers.items())


def test_train_rejects_an_event_with_no_known_feature():
    vocab = make_vocab(10)
    store, feats = random_store(random.Random(4), vocab, 4)
    events = random_events(random.Random(5), store, feats, 3)
    events.append(_ev([Feature((9, 9, 9, 9))], 5))
    with pytest.raises(DataError, match="event has no features known to the model"):
        train(events, store, AdjustmentModel(64), 1, vocab)


# ---------------------------------------------------------------------------
# Persistence

def test_adjustment_file_roundtrip(tmp_path):
    adj = AdjustmentModel(512, gamma=0.25, delta0=2.0, mode=Mode.UNLEXICALIZED)
    random_theta(adj, seed=44)
    path = tmp_path / "adj.bin"
    adj.save(path)
    loaded = AdjustmentModel.load(path)
    assert loaded.table_size == 512
    assert loaded.gamma == 0.25
    assert loaded.delta0 == 2.0
    assert loaded.mode is Mode.UNLEXICALIZED
    assert np.array_equal(loaded.theta, adj.theta)


def test_adjustment_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not an adjustment model")
    with pytest.raises(DataError):
        AdjustmentModel.load(path)

    good = tmp_path / "adj.bin"
    AdjustmentModel(4, mode=Mode.FEATURE_ONLY).save(good)
    data = good.read_bytes()
    magic, header = 7, 26  # header: table size, gamma, delta0, mode, scheme
    assert len(data) == magic + header + 4 * 8
    nan_weight = bytearray(data)
    nan_weight[-8:] = struct.pack("<d", math.nan)
    zero_table = bytearray(data[: magic + header])
    zero_table[magic : magic + 8] = struct.pack("<Q", 0)
    nan_gamma = bytearray(data)
    nan_gamma[magic + 8 : magic + 16] = struct.pack("<d", math.nan)
    cases = {
        "truncated header": data[: magic + header - 1],
        "non-finite weight nan in slot 3": bytes(nan_weight),
        "table size must be >= 1, got 0": bytes(zero_table),
        "gamma and delta0 must be finite and positive, got nan, 1.0": bytes(nan_gamma),
    }
    for message, content in cases.items():
        path.write_bytes(content)
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
            AdjustmentModel.load(path)


def test_nonzero_param_count():
    adj = AdjustmentModel(64)
    assert adj.nonzero_params == 0
    adj.theta[5] = 1.0
    adj.theta[9] = -2.0
    assert adj.nonzero_params == 2
