"""The link design against the per-link reference hasher.

`compute_metafeatures` and `explain_metafeatures` (built on the scalar
`LinkHasher` in `snm_testutil`) are the oracle: the design must give every
link the same (slot, weight) items, sum them in the same order, label them
the same way, and push a batch gradient only through the rows of the batch;
`snmlm.metafeatures.LinkHasher` must give every link the same items. A
design hashes at most once, and only when its slots or weights are read:
an all-zero weight table is never hashed.
"""

import random

import numpy as np
import pytest

from snmlm import metafeatures
from snmlm.adjustment import (
    AdjustmentModel, BatchAccumulator, batch_theta_gradient, compile_events, process_batch, train,
)
from snmlm.cli import main
from snmlm.corpus import SPECIAL_TOKENS, Vocabulary, build_vocab
from snmlm.counts import CountStore, accumulate
from snmlm.errors import DataError
from snmlm.extraction import Event, Feature, parse_config, render_feature
from snmlm.metafeatures import LinkDesign, Mode, explain, feature_type, fingerprint
from snmlm.model import adjusted_cells, load_model, materialize, perplexity, save_model

from snm_testutil import (
    FIVE_GRAM_CONFIG,
    MarkovChain,
    array_theta_gradient,
    build_matrix,
    compute_metafeatures,
    count_row_builds,
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
    rows = {}
    for f in feats:
        words = rng.sample(range(3, len(vocab)), rng.randint(1, 6))
        rows[f] = {w: rng.choice(_COUNTS) for w in words}
    # one single-link row per count, so feature counts hit both bucket kinds
    for i, c in enumerate(_COUNTS):
        rows[Feature((8, 3 + i))] = {9: c}
    return CountStore.from_rows(rows, sum(sum(row.values()) for row in rows.values()))


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


def test_design_of_a_loaded_store_equals_the_design_of_its_dict_rows(tmp_path, block_size):
    # Word ids in reverse string order, as a vocabulary file may give them.
    vocab = Vocabulary([*SPECIAL_TOKENS, *reversed(make_vocab(20).words[3:])])
    path = tmp_path / "counts.tsv"
    _mixed_store(vocab).save(path, vocab)
    loaded = CountStore.load(path, vocab)
    # The file's rows, in file order: words by string, not by id.
    rows = {f: dict(sorted(row.items(), key=lambda kv: vocab.words[kv[0]]))
            for f, row in loaded.rows.items()}
    assert any(list(row) != sorted(row) for row in rows.values())
    for mode in Mode:
        got, want = (LinkDesign.build(s, mode, 4096, vocab)
                     for s in (loaded, CountStore.from_rows(rows, loaded.total_events)))
        assert got.layout.features == want.layout.features
        arrays = [(got.layout.offsets, want.layout.offsets), (got.layout.words, want.layout.words),
                  (got.rel_freq, want.rel_freq), *zip(got.slots, want.slots, strict=True)]
        for a, b in arrays:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


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
    design, cells, row_sums = build_matrix(store, adj, vocab)
    model = materialize(design, cells, row_sums)
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
    expected = []
    for f in acc.alpha:
        r = design.layout.row_index[f]
        expected.extend(range(design.layout.offsets[r], design.layout.offsets[r + 1]))
    assert len(set(acc.alpha)) < len(store.rows)
    naive = naive_theta_gradient(events, model, adj, store, vocab)
    # The dict reference, then the array gradient that training runs.
    for gradient in (lambda: batch_theta_gradient(acc, design, cells),
                     lambda: array_theta_gradient(events, design, cells, row_sums)):
        visited.clear()
        grads = gradient()
        assert sorted(visited) == sorted(expected)
        for k in set(grads) | set(naive):
            assert grads.get(k, 0.0) == pytest.approx(naive.get(k, 0.0), abs=1e-12)


def test_compiled_events_locate_every_known_occurrence():
    rng = random.Random(23)
    vocab = make_vocab(20)
    store = _mixed_store(vocab)
    design = LinkDesign.build(store, Mode.FULL, 512, vocab)
    feats = list(store.rows)
    unknown = Feature((3, 3, 3, 3))
    events = []
    for _ in range(40):
        fs = rng.sample(feats, rng.randint(1, 4)) + [unknown] * rng.randint(0, 1)
        rng.shuffle(fs)
        events.append(Event(tuple(fs), rng.randrange(len(vocab) + 5)))
    # A target id past the vocabulary must not alias the next row's first link.
    layout = design.layout
    events.append(Event((feats[0],), len(vocab) + int(layout.words[layout.offsets[1]])))
    dev = compile_events(events, layout)
    expected = []
    for i, e in enumerate(events):
        for f in e.features:
            if f in store.rows:
                r = layout.row_index[f]
                links = range(layout.offsets[r], layout.offsets[r + 1])
                hit = [j for j in links if layout.words[j] == e.target]
                expected.append((i, r, hit[0] if hit else -1))
    assert list(zip(dev.event.tolist(), dev.row.tolist(), dev.link.tolist())) == expected
    assert 0 < (dev.link >= 0).sum() < len(dev.link)
    assert dev.num_events == len(events) and dev.starts[-1] == len(expected)
    part = dev.batch(10, 25)
    lo, hi = dev.starts[10], dev.starts[25]
    assert part.num_events == 15 and part.starts[0] == 0
    assert part.event.tolist() == (dev.event[lo:hi] - 10).tolist()
    assert part.link.tolist() == dev.link[lo:hi].tolist()
    # An event left with no known feature is compiled, and raises where it is scored.
    lost = events + [Event((unknown,), 3)]
    assert compile_events(lost, layout).num_events == len(lost)
    model = materialize(design, *adjusted_cells(design, np.zeros(512)))
    with pytest.raises(DataError, match="event has no features known to the model"):
        perplexity(model, lost)
    with pytest.raises(DataError, match="event has no features known to the model"):
        train(lost, store, AdjustmentModel(512), 1, vocab)


@pytest.mark.parametrize("mode", list(Mode))
def test_a_zero_table_gives_the_relative_frequencies_bit_for_bit(monkeypatch, mode, block_size):
    vocab = make_vocab(20)
    design = LinkDesign.build(_mixed_store(vocab), mode, 4096, vocab)
    calls = []
    adjustments = LinkDesign.adjustments

    def spy(self, theta):
        calls.append(theta)
        return adjustments(self, theta)

    monkeypatch.setattr(LinkDesign, "adjustments", spy)
    one = np.zeros(4096)
    one[design.link_slots(np.array([0]))[0, 0]] = 0.5
    for theta, adjusted in ((np.zeros(4096), 0), (np.full(4096, -0.0), 0), (one, 1)):
        cells, row_sums = adjusted_cells(design, theta)
        assert len(calls) == adjusted
        calls.clear()
        want = np.exp(adjustments(design, theta)) * design.rel_freq
        want_sums = np.bincount(design.layout.row, want, minlength=len(design.layout.features))
        assert (cells.tobytes(), row_sums.tobytes()) == (want.tobytes(), want_sums.tobytes())
    assert not np.array_equal(cells, design.rel_freq)


def test_train_builds_the_design_once(monkeypatch, tmp_path):
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
    # Hashing a design computes its descriptors once and fingerprints through them.
    hashes = []
    for name in ("_descriptors", "fingerprints"):
        def spy(*args, _run=getattr(metafeatures, name), _name=name):
            hashes.append(_name)
            return _run(*args)
        monkeypatch.setattr(metafeatures, name, spy)

    adj = AdjustmentModel(16384, batch_size=64)
    assert len(dev_events) > 2 * adj.batch_size
    history, _ = train(dev_events, inter, adj, 0, vocab)
    assert (history, len(builds), hashes) == ([], 1, [])
    history, _ = train(dev_events, inter, adj, 2, vocab)
    assert len(history) == 3
    assert len(builds) == 2
    assert hashes == ["_descriptors", "fingerprints", "fingerprints"]

    hashes.clear()
    design = LinkDesign.build(inter, Mode.FULL, adj.table_size, vocab)
    assert hashes == []
    first = design.adjustments(adj.theta)
    assert hashes == ["_descriptors", "fingerprints", "fingerprints"]
    assert design.adjustments(adj.theta).tobytes() == first.tobytes()
    assert len(hashes) == 3

    # The command line, with no epochs, hashes nothing.
    for name, sentences in (("train", train_s), ("dev", dev_s)):
        (tmp_path / f"{name}.txt").write_text("".join(" ".join(s) + "\n" for s in sentences),
                                              encoding="utf-8")
    (tmp_path / "snm.cfg").write_text(FIVE_GRAM_CONFIG, encoding="utf-8")
    common = ["--config", tmp_path / "snm.cfg", "--vocab", tmp_path / "vocab.txt"]
    for argv in (["build-vocab", tmp_path / "train.txt", "-o", tmp_path / "vocab.txt"],
                 ["count", tmp_path / "train.txt", *common, "-o", tmp_path / "counts.tsv"],
                 ["train", "--counts", tmp_path / "counts.tsv", "--dev", tmp_path / "dev.txt",
                  *common, "--epochs", "0", "--adjustment-out", tmp_path / "adj.bin",
                  "--model-out", tmp_path / "model.tsv"]):
        assert main(list(map(str, argv))) == 0
    assert len(builds) == 4
    assert len(hashes) == 3


def test_a_run_shares_one_layout_and_builds_each_row_array_once(monkeypatch, tmp_path):
    # The count store, its design and the trained model hold one `Rows`, so
    # the rows of the links, of the features and of each shape and tag are
    # each built once in a run, and once for a model read back from its file.
    rng = random.Random(41)
    vocab = make_vocab(15)
    built = count_row_builds(monkeypatch)
    store, feats = random_store(rng, vocab, 8)
    events = random_events(rng, store, feats, 12)
    adj = AdjustmentModel(1024, batch_size=4)
    assert LinkDesign.build(store, adj.mode, adj.table_size, vocab).layout is store.layout
    _, model = train(events, store, adj, 1, vocab)
    assert model.layout is store.layout
    save_model(model, tmp_path / "model.tsv", vocab)
    assert built == {"row": 1, "row_index": 1, "groups": 1}

    built.update(row=0, row_index=0, groups=0)
    loaded = load_model(tmp_path / "model.tsv", vocab)
    assert perplexity(loaded, events).ppl == perplexity(model, events).ppl
    save_model(loaded, tmp_path / "again.tsv", vocab)
    assert built == {"row": 1, "row_index": 1, "groups": 1}
    assert (tmp_path / "again.tsv").read_bytes() == (tmp_path / "model.tsv").read_bytes()


def test_process_batch_rejects_a_design_for_other_hashing():
    # The design fixes the slots every gradient lands in: weights of another
    # mode or table size cannot be trained on it.
    rng = random.Random(31)
    vocab = make_vocab(25)
    store, feats = random_store(rng, vocab, 10)
    adj = AdjustmentModel(2048)
    random_theta(adj, seed=6, scale=0.2)
    design, cells, row_sums = build_matrix(store, adj, vocab)
    batch = compile_events(random_events(rng, store, feats, 6), design.layout)
    for other in (AdjustmentModel(2048, mode=Mode.UNLEXICALIZED), AdjustmentModel(1024)):
        with pytest.raises(ValueError, match="link design is for mode full and 2048 slots"):
            process_batch(batch, design, cells, row_sums, other)
        assert not other.grad_sq.any()
    # With the hashing it was built for, the same design trains.
    assert len(process_batch(batch, design, cells, row_sums, adj).slots)
    assert adj.grad_sq.any()
