import math
import random
import re

import numpy as np
import pytest

from snmlm.adjustment import AdjustmentModel
from snmlm.corpus import build_vocab
from snmlm.counts import accumulate
from snmlm.errors import DataError
from snmlm.extraction import Event, Feature
from snmlm.metafeatures import Mode
from snmlm.model import (
    PROB_FLOOR,
    adjusted_cells,
    load_model,
    materialize,
    perplexity,
    save_model,
    score_event,
)

from snm_testutil import (
    build_matrix,
    build_model,
    compute_metafeatures,
    make_vocab,
    model_of,
    random_events,
    random_store,
    random_theta,
)


def _ev(features, target):
    return Event(features=tuple(features), target=target)


@pytest.fixture
def abc_store():
    vocab = build_vocab(["a", "b", "c"], min_count=1)
    a, b, c = (vocab.index[t] for t in "abc")
    fa = Feature((a,))
    store = accumulate([_ev([fa], b), _ev([fa], b), _ev([fa], c)])
    return vocab, store, fa


def test_unadjusted_model_is_relative_frequencies(abc_store):
    vocab, store, fa = abc_store
    model = build_model(store, AdjustmentModel(64), vocab)
    b = vocab.index["b"]
    c = vocab.index["c"]
    assert model.rows[fa][b] == pytest.approx(2 / 3, rel=1e-15)
    assert model.rows[fa][c] == pytest.approx(1 / 3, rel=1e-15)
    assert model.normalizers[fa] == pytest.approx(1.0, rel=1e-12)


def test_ln2_adjustment_doubles_one_link(abc_store):
    vocab, store, fa = abc_store
    b = vocab.index["b"]
    adj = AdjustmentModel(1 << 20)
    # drive exactly one link through its target-identity descriptor,
    # which has weight 1 and is unique to links predicting b
    target_mf = compute_metafeatures(fa, b, 3, 2, Mode.FULL, vocab)[4]
    assert target_mf.weight == 1.0
    adj.theta[target_mf.hash % adj.table_size] = math.log(2.0)
    c_b = 2 / 3
    model = build_model(store, adj, vocab)
    assert model.rows[fa][b] == pytest.approx(2 * c_b, rel=1e-12)
    assert model.normalizers[fa] == pytest.approx(1.0 + c_b, rel=1e-12)


def test_normalizers_match_bruteforce_row_sums():
    rng = random.Random(13)
    vocab = make_vocab(40)
    store, _ = random_store(rng, vocab, 25)
    adj = AdjustmentModel(4096)
    random_theta(adj, seed=13)
    model = build_model(store, adj, vocab)
    for f, row in model.rows.items():
        brute = math.fsum(row.values())
        assert abs(model.normalizers[f] - brute) <= 1e-12 * max(brute, 1.0)


def test_materialize_rejects_divergent_adjustments(abc_store):
    vocab, store, fa = abc_store
    adj = AdjustmentModel(8)
    adj.theta[:] = 30.0  # many colliding descriptors push |A| beyond 50
    with pytest.raises(DataError, match="diverged"):
        build_model(store, adj, vocab)


def test_score_single_feature_is_relative_frequency(abc_store):
    vocab, store, fa = abc_store
    model = build_model(store, AdjustmentModel(64), vocab)
    b = vocab.index["b"]
    score = score_event(model, _ev([fa], b))
    assert score.log_prob == pytest.approx(math.log(2 / 3), rel=1e-12)
    assert 0 < score.y_t <= score.y


def test_score_two_features_is_uniform_interpolation():
    vocab = build_vocab(["a", "b"], min_count=1)
    a, b = vocab.index["a"], vocab.index["b"]
    f1, f2 = Feature((a,)), Feature((b,))
    events = [_ev([f1], a), _ev([f1], b), _ev([f1], b), _ev([f2], a)]
    model = build_model(accumulate(events), AdjustmentModel(64), vocab)
    score = score_event(model, _ev([f1, f2], a))
    c1, c2 = 1 / 3, 1.0
    assert math.exp(score.log_prob) == pytest.approx((c1 + c2) / 2, rel=1e-12)


def test_adjusted_event_matches_exhaustive_summation():
    rng = random.Random(99)
    vocab = make_vocab(30)
    store, feats = random_store(rng, vocab, 10)
    adj = AdjustmentModel(2048)
    random_theta(adj, seed=7)
    model = build_model(store, adj, vocab)
    efeats = tuple(rng.sample(feats, 3))
    target = next(iter(store.rows[efeats[0]]))
    score = score_event(model, _ev(efeats, target))
    num = math.fsum(model.rows[f].get(target, 0.0) for f in efeats)
    den = math.fsum(
        model.rows[f].get(w, 0.0) for f in efeats for w in range(len(vocab))
    )
    assert math.exp(score.log_prob) == pytest.approx(num / den, rel=1e-12)


def test_unknown_features_are_dropped():
    vocab = build_vocab(["a", "b"], min_count=1)
    a, b = vocab.index["a"], vocab.index["b"]
    f = Feature((a,))
    model = build_model(accumulate([_ev([f], b)]), AdjustmentModel(64), vocab)
    known = score_event(model, _ev([f], b))
    with_unknown = score_event(model, _ev([f, Feature((b, b))], b))
    assert with_unknown == known
    with pytest.raises(DataError, match="no features known"):
        score_event(model, _ev([Feature((b, b))], b))


def test_unreachable_target_is_floored():
    vocab = build_vocab(["a", "b"], min_count=1)
    a, b = vocab.index["a"], vocab.index["b"]
    f = Feature((a,))
    model = build_model(accumulate([_ev([f], b)]), AdjustmentModel(64), vocab)
    score = score_event(model, _ev([f], a))
    assert score.floored
    assert score.log_prob == math.log(PROB_FLOOR)
    report = perplexity(model, [_ev([f], a), _ev([f], b)])
    assert report.floored_events == 1


# ---------------------------------------------------------------------------
# Perplexity identities

def _uniform_model(n_words):
    vocab = make_vocab(n_words)
    empty = Feature(())
    events = [_ev([empty], w) for w in range(3, 3 + n_words)]
    model = build_model(accumulate(events), AdjustmentModel(16), vocab)
    return vocab, model, events


def test_uniform_model_ppl_equals_vocab_size_exactly():
    # exp and log compose exactly for this size in binary64
    _, model, events = _uniform_model(4)
    assert perplexity(model, events).ppl == 4.0


@pytest.mark.parametrize("n", [2, 3, 5, 7, 10, 16, 33, 50])
def test_uniform_model_ppl_equals_vocab_size(n):
    _, model, events = _uniform_model(n)
    assert perplexity(model, events).ppl == pytest.approx(n, rel=1e-12)


def test_certain_model_has_ppl_one():
    vocab = build_vocab(["a"], min_count=1)
    a = vocab.index["a"]
    f = Feature((a,))
    model = build_model(accumulate([_ev([f], a)] * 3), AdjustmentModel(16), vocab)
    assert perplexity(model, [_ev([f], a)] * 5).ppl == 1.0


def test_two_event_half_and_eighth_gives_four():
    vocab = make_vocab(10)
    f1, f2 = Feature((3,)), Feature((4,))
    events = [_ev([f1], 5), _ev([f1], 6)]
    events += [_ev([f2], w) for w in range(3, 11)]
    model = build_model(accumulate(events), AdjustmentModel(16), vocab)
    report = perplexity(model, [_ev([f1], 5), _ev([f2], 3)])
    assert report.ppl == pytest.approx(4.0, abs=1e-12)


def test_perplexity_of_empty_stream_is_an_error(abc_store):
    vocab, store, _ = abc_store
    model = build_model(store, AdjustmentModel(16), vocab)
    with pytest.raises(DataError):
        perplexity(model, [])


def test_oov_rate_in_report():
    vocab = build_vocab(["a"], min_count=1)
    a = vocab.index["a"]
    empty = Feature(())
    events = [_ev([empty], a), _ev([empty], 2), _ev([empty], a), _ev([empty], 2)]
    model = build_model(accumulate(events), AdjustmentModel(16), vocab)
    report = perplexity(model, events)
    assert report.oov_rate == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Renormalization

def test_renormalize_matches_materialize_exactly():
    # An epoch end recomputes the cells on the design built before the first
    # epoch; they equal the cells of a design built for the new weights.
    rng = random.Random(3)
    vocab = make_vocab(25)
    store, _ = random_store(rng, vocab, 15)
    adj = AdjustmentModel(2048)
    design, _, _ = build_matrix(store, adj, vocab)
    random_theta(adj, seed=21)
    cells, row_sums = adjusted_cells(design, adj.theta)
    _, fresh_cells, fresh_sums = build_matrix(store, adj, vocab)
    assert np.array_equal(cells, fresh_cells) and np.array_equal(row_sums, fresh_sums)
    model = materialize(design, cells, row_sums)
    fresh = build_model(store, adj, vocab)
    assert list(model.rows.items()) == list(fresh.rows.items())
    assert list(model.normalizers.items()) == list(fresh.normalizers.items())


def test_renormalize_is_idempotent():
    # Recomputing the cells, or the model of them, from the same weights
    # changes nothing, and building the model leaves the cells as they were.
    rng = random.Random(4)
    vocab = make_vocab(20)
    store, _ = random_store(rng, vocab, 10)
    adj = AdjustmentModel(1024)
    random_theta(adj, seed=5)
    design, cells, row_sums = build_matrix(store, adj, vocab)
    saved = cells.copy(), row_sums.copy()
    model = materialize(design, cells, row_sums)
    assert np.array_equal(cells, saved[0]) and np.array_equal(row_sums, saved[1])
    again_cells, again_sums = adjusted_cells(design, adj.theta)
    assert np.array_equal(again_cells, cells) and np.array_equal(again_sums, row_sums)
    again = materialize(design, again_cells, again_sums)
    assert again.rows == model.rows
    assert again.normalizers == model.normalizers


def test_probability_conservation_after_renormalize():
    rng = random.Random(6)
    vocab = make_vocab(50)
    store, feats = random_store(rng, vocab, 20)
    adj = AdjustmentModel(4096)
    random_theta(adj, seed=11)
    model = build_model(store, adj, vocab)
    for e in random_events(rng, store, feats, 50):
        total = math.fsum(
            math.exp(score_event(model, e._replace(target=w)).log_prob)
            for w in range(len(vocab))
            if any(w in model.rows[f] for f in e.features)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


def test_increasing_adjustment_increases_probability():
    vocab = build_vocab(["a", "b", "c"], min_count=1)
    a, b, c = (vocab.index[t] for t in "abc")
    f = Feature((a,))
    events = [_ev([f], b), _ev([f], b), _ev([f], c)]
    store = accumulate(events)
    adj = AdjustmentModel(1 << 20)
    design, cells, row_sums = build_matrix(store, adj, vocab)
    model = materialize(design, cells, row_sums)
    before = math.exp(score_event(model, _ev([f], b)).log_prob)
    target_mf = compute_metafeatures(f, b, 3, 2, Mode.FULL, vocab)[4]
    adj.theta[target_mf.hash % adj.table_size] = 0.7
    model = materialize(design, *adjusted_cells(design, adj.theta))
    after = math.exp(score_event(model, _ev([f], b)).log_prob)
    assert after > before


def test_score_event_is_pure():
    rng = random.Random(8)
    vocab = make_vocab(20)
    store, feats = random_store(rng, vocab, 8)
    adj = AdjustmentModel(512)
    random_theta(adj, seed=2)
    model = build_model(store, adj, vocab)
    e = random_events(rng, store, feats, 1)[0]
    assert score_event(model, e) == score_event(model, e)


# ---------------------------------------------------------------------------
# Model files

def test_model_file_roundtrip(tmp_path):
    rng = random.Random(17)
    vocab = make_vocab(15)
    store, _ = random_store(rng, vocab, 8)
    adj = AdjustmentModel(1024)
    random_theta(adj, seed=9)
    model = build_model(store, adj, vocab)
    path = tmp_path / "model.tsv"
    save_model(model, path, vocab)
    loaded = load_model(path, vocab)
    assert loaded.rows == model.rows
    assert loaded.normalizers == model.normalizers
    again = tmp_path / "model2.tsv"
    save_model(loaded, again, vocab)
    assert path.read_bytes() == again.read_bytes()


def test_model_file_golden_bytes(tmp_path):
    vocab = build_vocab(["a", "b", "c"], min_count=1)
    a, b, c = (vocab.index[t] for t in "abc")
    skip = Feature((a, b), skip_pos=1, skip_len=3, tag="web")
    empty = Feature((), tag="web")
    # 0.1 + 0.2 needs all 17 significant digits to read back.
    rows = {skip: {c: 0.1 + 0.2, b: 1 / 3}, empty: {a: 2.0, 1: 1e-05}}
    model = model_of(rows, {empty: 2.00001, skip: 0.6333333333333333})
    path = tmp_path / "model.tsv"
    save_model(model, path, vocab)
    assert path.read_bytes() == (
        b"#snm-model v1\n"
        b"#vocab-size 6\n"
        b"web:[]\t</S>\t1e-05\n"
        b"web:[]\ta\t2.0\n"
        b"web:[a skip-3 b]\tb\t0.3333333333333333\n"
        b"web:[a skip-3 b]\tc\t0.30000000000000004\n"
        b"#normalizers\n"
        b"web:[]\t2.00001\n"
        b"web:[a skip-3 b]\t0.6333333333333333\n"
    )
    loaded = load_model(path, vocab)
    assert loaded.rows == rows
    assert loaded.normalizers == model.normalizers
    again = tmp_path / "again.tsv"
    save_model(loaded, again, vocab)
    assert again.read_bytes() == path.read_bytes()


def test_model_file_rejects_bad_header(tmp_path):
    vocab = make_vocab(3)
    path = tmp_path / "bad.tsv"
    path.write_text("what\n", encoding="utf-8")
    with pytest.raises(DataError, match="header"):
        load_model(path, vocab)


@pytest.mark.parametrize("scale, loads", [
    (1 + 1e-10, True), (1 - 1e-10, True), (1 + 1e-8, False), (1 - 1e-8, False), (0.5, False),
])
def test_model_file_normalizer_is_its_row_sum_within_1e_9(tmp_path, scale, loads):
    vocab = build_vocab(["a", "b"], min_count=1)
    path = tmp_path / "model.tsv"
    norm = (0.1 + 0.2 + 1 / 3) * scale
    path.write_text(
        f"#snm-model v1\n#vocab-size {len(vocab)}\n"
        f"[]\ta\t{0.1 + 0.2!r}\n[]\tb\t{1 / 3!r}\n#normalizers\n[]\t{norm!r}\n",
        encoding="utf-8",
    )
    if loads:
        assert load_model(path, vocab).normalizers == {Feature(()): norm}
    else:
        with pytest.raises(DataError, match=re.escape(f"{path}:6: normalizer {norm!r} of '[]' "
                                                      "is not its row's sum")):
            load_model(path, vocab)


def test_model_file_rejects_a_row_summing_past_the_largest_float(tmp_path):
    vocab = build_vocab(["a", "b"], min_count=1)
    path = tmp_path / "model.tsv"
    path.write_text(f"#snm-model v1\n#vocab-size {len(vocab)}\n"
                    "[]\ta\t1e308\n[]\tb\t1e308\n#normalizers\n[]\t1e308\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}:6: normalizer 1e308 of '[]' "
                                                  "is not its row's sum inf")):
        load_model(path, vocab)
