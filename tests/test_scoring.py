"""Scoring on arrays against the per-event `score_event` walk, and the model's dict views.

`perplexity` and the epoch statistics of `train` compile held-out events and
add their sums with `np.bincount`; `_loop_report` is the per-event walk they
replaced. Both must agree bit for bit, and raise the same errors. `snmlm
train` and `snmlm eval` must not build the dict views of a model or of a
count store, and a model's views, when read, must be the dicts its arrays
stand for.
"""

import contextlib
import io
import math
import random

import pytest

import snmlm.cli
import snmlm.extraction
import snmlm.metafeatures
import snmlm.model
from snmlm.adjustment import AdjustmentModel, train
from snmlm.cli import main
from snmlm.corpus import UNK_ID, TaggedCorpus, Vocabulary
from snmlm.counts import CountStore, HeldOut, HeldText, Rows
from snmlm.errors import DataError
from snmlm.extraction import Event, Feature, expand_tags, extract_events, load_config
from snmlm.metafeatures import LinkDesign, Mode
from snmlm.model import (
    EvalReport, adjusted_cells, compile_events, load_model, perplexity, score_event,
)

from snm_testutil import (
    FIVE_GRAM_CONFIG,
    MarkovChain,
    build_model,
    count_row_builds,
    make_vocab,
    materialized_dicts,
    model_of,
    random_events,
    random_store,
    random_theta,
)


def _loop_report(model, events) -> EvalReport:
    """`score_event` of each event, the log-probabilities added by `math.fsum`."""
    scores = [score_event(model, e) for e in events]
    if not scores:
        raise DataError("perplexity undefined on an empty event stream")
    total = math.fsum(s.log_prob for s in scores)
    return EvalReport(len(scores), total, math.exp(-total / len(scores)),
                      sum(e.target == UNK_ID for e in events), sum(s.floored for s in scores))


def _outcome(run):
    try:
        return run()
    except DataError as exc:
        return f"DataError: {exc}"


def _store_and_events(seed: int):
    """A store whose empty row links <UNK>, and events with floored and <UNK> targets and
    features the store lacks; every event has a known feature."""
    rng = random.Random(seed)
    vocab = make_vocab(20)
    store, feats = random_store(rng, vocab, 12)
    rows = store.rows
    rows[Feature(())][UNK_ID] = 3
    store = CountStore.from_rows(rows, store.total_events + 3)
    unknown = [Feature((4, 4)), Feature((5,), tag="web")]
    events = random_events(rng, store, feats, 30)
    events += random_events(rng, store, feats, 10, reachable_targets=False)
    events += [Event(e.features, UNK_ID) for e in random_events(rng, store, feats, 6)]
    events = [Event(tuple(rng.sample(e.features + tuple(unknown), len(e.features) + 2)), e.target)
              for e in events]
    rng.shuffle(events)
    return vocab, store, events


def test_perplexity_equals_a_score_event_loop():
    vocab, store, events = _store_and_events(41)
    adj = AdjustmentModel(1024)
    random_theta(adj, seed=5, scale=0.3)
    model = build_model(store, adj, vocab)
    report = perplexity(model, events)
    assert report == _loop_report(model, events)
    assert perplexity(model, compile_events(events, model.layout)) == report
    assert 0 < report.floored_events < report.num_events and 0 < report.oov_targets
    # An event with no known feature, and an empty stream.
    lost = Event((Feature((4, 4)),), 3)
    for case in (events + [lost] + events, []):
        expected = _outcome(lambda: _loop_report(model, case))
        assert expected.startswith("DataError: ")
        assert _outcome(lambda: perplexity(model, case)) == expected


def test_a_row_summing_to_zero_is_no_known_feature():
    a, b = Feature((3,)), Feature((4,))
    model = model_of({Feature(()): {3: 0.5, 4: 0.5}, a: {3: 0.0}, b: {3: 0.0, 5: 0.0}},
                     {Feature(()): 1.0, a: 0.0, b: 0.0})
    scored = [Event((a, Feature(())), 3), Event((Feature(()), b), 5)]
    assert perplexity(model, scored) == _loop_report(model, scored)
    expected = "DataError: event has no features known to the model"
    for zero in ([Event((a,), 3)], [Event((b, a), 5)]):
        assert _outcome(lambda: _loop_report(model, scored + zero)) == expected
        assert _outcome(lambda: perplexity(model, scored + zero)) == expected


def test_events_compiled_against_other_rows_are_rejected():
    vocab, store, events = _store_and_events(45)
    layout = store.layout
    other = Rows(layout.features, layout.offsets, layout.words)
    _, model = train(events, store, AdjustmentModel(2048), 1, vocab)
    assert model.layout is layout
    assert perplexity(model, compile_events(events, layout)) == perplexity(model, events)
    for run in (lambda held: train(held, store, AdjustmentModel(2048), 1, vocab),
                lambda held: perplexity(model, held)):
        with pytest.raises(ValueError, match="compiled against other rows"):
            run(compile_events(events, other))


def test_training_no_epoch_searches_no_target_link():
    vocab, store, events = _store_and_events(47)
    held = compile_events(events, store.layout)
    history, model = train(held, store, AdjustmentModel(2048), 0, vocab)
    assert history == [] and "link" not in held.__dict__
    assert perplexity(model, held) == _loop_report(model, events)
    assert "link" in held.__dict__


def test_epoch_statistics_equal_a_score_event_loop():
    vocab, store, events = _store_and_events(43)

    def run(epochs):
        return train(events, store, AdjustmentModel(2048, batch_size=7), epochs, vocab)

    history, _ = run(2)
    assert len(history) == 3
    for stats in history:
        _, model = run(stats.epoch)
        ref = _loop_report(model, events)
        assert (stats.dev_log_likelihood, stats.dev_ppl) == (ref.log_prob_sum, ref.ppl)
    lost = events + [Event((Feature((4, 4)),), 3)]
    expected = _outcome(lambda: _loop_report(run(0)[1], lost))
    assert expected.startswith("DataError: ")
    assert _outcome(lambda: train(lost, store, AdjustmentModel(2048), 1, vocab)) == expected


# ---------------------------------------------------------------------------
# The command line

def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([str(a) for a in argv]) == 0
    return out.getvalue()


def _text(chain: MarkovChain, seed: int, count: int) -> str:
    """Sentences of the chain, a blank line after every third.

    Word w000 is spelled "0", which sorts before "</S>" though its id
    follows: a model file's word order is not id order.
    """
    sentences = chain.sentences(random.Random(seed), count)
    return "".join(" ".join("0" if w == "w000" else w for w in s) + "\n" + "\n" * (i % 3 == 0)
                   for i, s in enumerate(sentences))


def _pipeline(wd, tags):
    """Count and train on a generated corpus; returns the argv of its eval."""
    sources = [wd / f"train{i}.txt" for i in range(max(len(tags), 1))]
    for i, path in enumerate(sources):
        path.write_text(_text(MarkovChain(40, seed=5), i, 300), encoding="utf-8")
    for name, seed in (("dev", 10), ("test", 11)):
        (wd / f"{name}.txt").write_text(_text(MarkovChain(45, seed=6), seed, 60), encoding="utf-8")
    (wd / "snm.cfg").write_text(FIVE_GRAM_CONFIG, encoding="utf-8")
    tag_args = [a for t in tags for a in ("--tag", t)]
    common = ["--config", wd / "snm.cfg", "--vocab", wd / "vocab.txt", *tag_args]
    _cli("build-vocab", *sources, "--min-count", "3", "-o", wd / "vocab.txt")
    _cli("count", *sources, *common, "-o", wd / "counts.tsv")
    _cli("train", "--counts", wd / "counts.tsv", "--dev", wd / "dev.txt", *common,
         "--table-size", "4096", "--batch-size", "16", "--epochs", "2",
         "--adjustment-out", wd / "adj.bin", "--model-out", wd / "model.tsv")
    return ["eval", "--model", wd / "model.tsv", "--test", wd / "test.txt", *common]


@pytest.mark.parametrize("tags", [(), ("a", "b")])
def test_eval_prints_what_a_score_event_loop_gives(tmp_path, tags):
    argv = _pipeline(tmp_path, tags)
    printed = _cli(*argv)
    vocab = Vocabulary.load(tmp_path / "vocab.txt")
    config = load_config(tmp_path / "snm.cfg")
    events = [expand_tags(e, tags) if tags else e
              for s in TaggedCorpus.from_file(tmp_path / "test.txt", vocab).sentences
              for e in extract_events(s, config)]
    report = _loop_report(load_model(tmp_path / "model.tsv", vocab), events)
    assert report.oov_targets and report.num_events == len(events)
    assert printed == (f"events: {report.num_events}\nppl: {report.ppl:.6g}\n"
                       f"oov_rate: {report.oov_rate:.6f}\n"
                       f"floored_events: {report.floored_events}\n")


@pytest.mark.parametrize("tags", [(), ("a", "b")])
def test_train_and_eval_build_no_dict_views(tmp_path, monkeypatch, tags):
    models, stores = [], []
    init = CountStore.__init__

    def new_store(store, *args):
        init(store, *args)
        stores.append(store)
    monkeypatch.setattr(CountStore, "__init__", new_store)

    def spy(name):
        run = getattr(snmlm.cli, name)

        def wrapper(model, *args):
            models.append(model)
            return run(model, *args)
        monkeypatch.setattr(snmlm.cli, name, wrapper)

    spy("save_model")
    spy("perplexity")
    _cli(*_pipeline(tmp_path, tags))
    trained, loaded = models
    assert [m for m in models if {"rows", "normalizers"} & set(vars(m))] == []
    # The counted rows that `snmlm count` saves, the dev rows loaded, and their copy that trains.
    assert len(stores) == 3
    assert [s for s in stores if {"rows", "feature_counts"} & set(vars(s))] == []

    # The dicts the old `materialize` built, from the count rows of the dev features.
    vocab = Vocabulary.load(tmp_path / "vocab.txt")
    dev = HeldText.read(tmp_path / "dev.txt", vocab, load_config(tmp_path / "snm.cfg"), tags)
    store = CountStore.load(tmp_path / "counts.tsv", vocab, keep=dev.names(vocab))
    adj = AdjustmentModel.load(tmp_path / "adj.bin")
    design = LinkDesign.build(store, Mode.FULL, adj.table_size, vocab)
    rows, normalizers = materialized_dicts(design, *adjusted_cells(design, adj.theta))
    # Cells are positive, so float equality is bit equality.
    for model in (trained, loaded, load_model(tmp_path / "model.tsv", vocab)):
        assert list(model.normalizers.items()) == list(normalizers.items())
        assert list(model.rows) == list(rows)
        assert [list(r.items()) for r in model.rows.values()] == [list(r.items())
                                                                  for r in rows.values()]


@pytest.mark.parametrize("tags", [(), ("a", "b")])
def test_train_reuses_the_row_strings_it_loaded(tmp_path, monkeypatch, tags):
    # `snmlm train` hashes and saves the strings `CountStore.load(keep=)`
    # kept; it renders no row string, and groups its rows once.
    rendered, strings, hashed = [], [], []
    render = snmlm.extraction.render_feature
    for module in (snmlm.extraction, snmlm.model, snmlm.cli):
        monkeypatch.setattr(module, "render_feature",
                            lambda f, vocab: rendered.append(f) or render(f, vocab))
    row_strings = Rows.strings

    def spy(rows, vocab):
        strings.append((rows, row_strings(rows, vocab)))
        return strings[-1][1]

    monkeypatch.setattr(Rows, "strings", spy)
    descriptors = snmlm.metafeatures._descriptors
    monkeypatch.setattr(snmlm.metafeatures, "_descriptors",
                        lambda layout, *args: hashed.append(layout) or descriptors(layout, *args))
    built = count_row_builds(monkeypatch)
    _pipeline(tmp_path, tags)
    assert rendered == []
    [layout] = hashed  # it trained, so it hashed once
    assert built["groups"] == 1 and "groups" in vars(layout)
    # The counted rows saved, then the trained rows hashed and saved: each time, their names.
    assert [out is rows.names for rows, out in strings] == [True, True, True]
    assert all(rows is layout for rows, _ in strings[1:])
    vocab = Vocabulary.load(tmp_path / "vocab.txt")
    assert layout.names == [render(f, vocab) for f in layout.features]
    assert load_model(tmp_path / "model.tsv", vocab).layout.features == layout.features


@pytest.mark.parametrize("tags", [(), ("a", "b")])
def test_train_and_eval_score_the_rows_own_features(tmp_path, monkeypatch, tags):
    # Held-out text is compiled against the very rows that score it: the
    # dev text against the training store's, the test text against the model's.
    scored = []

    def spy(name):
        run = getattr(snmlm.cli, name)

        def wrapper(*args, **kwargs):
            held, rows = (args[0], args[1]) if name == "train" else (args[1], args[0])
            scored.append((held, rows))
            return run(*args, **kwargs)
        monkeypatch.setattr(snmlm.cli, name, wrapper)

    spy("train")
    spy("perplexity")
    _cli(*_pipeline(tmp_path, tags))
    assert len(scored) == 2
    for held, rows in scored:
        assert isinstance(held, HeldOut) and held.num_events > 0 and len(held.row) > 0
        assert held.layout is rows.layout
