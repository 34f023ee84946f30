import hashlib
import math
import re

import pytest

import snmlm.counts
from snmlm.adjustment import AdjustmentModel
from snmlm.cli import UsageError, main, parse_table_size
from snmlm.corpus import Vocabulary
from snmlm.counts import CountStore, merge_files
from snmlm.errors import DataError
from snmlm.metafeatures import Mode
from snmlm.model import load_model

from snm_testutil import oracle_load_counts, oracle_merge_counts, outcome, seal

TINY_CORPUS = """\
green tea is hot
red tea is cold
green tea is sweet
"""

NGRAM_CFG = """\
// straight 5-gram features
ngram_extractor {
  min_n: 0
  max_n: 4
}
"""

GOLDEN_VOCAB = """\
<S>
</S>
<UNK>
cold
green
hot
is
red
sweet
tea
"""

GOLDEN_COUNTS = seal("""\
#snm-counts v2
#total-events 15
[<S> green tea is]\thot\t1
[<S> green tea is]\tsweet\t1
[<S> green tea]\tis\t2
[<S> green]\ttea\t2
[<S> red tea is]\tcold\t1
[<S> red tea]\tis\t1
[<S> red]\ttea\t1
[<S>]\tgreen\t2
[<S>]\tred\t1
[]\t</S>\t3
[]\tcold\t1
[]\tgreen\t2
[]\thot\t1
[]\tis\t3
[]\tred\t1
[]\tsweet\t1
[]\ttea\t3
[cold]\t</S>\t1
[green tea is hot]\t</S>\t1
[green tea is sweet]\t</S>\t1
[green tea is]\thot\t1
[green tea is]\tsweet\t1
[green tea]\tis\t2
[green]\ttea\t2
[hot]\t</S>\t1
[is cold]\t</S>\t1
[is hot]\t</S>\t1
[is sweet]\t</S>\t1
[is]\tcold\t1
[is]\thot\t1
[is]\tsweet\t1
[red tea is cold]\t</S>\t1
[red tea is]\tcold\t1
[red tea]\tis\t1
[red]\ttea\t1
[sweet]\t</S>\t1
[tea is cold]\t</S>\t1
[tea is hot]\t</S>\t1
[tea is sweet]\t</S>\t1
[tea is]\tcold\t1
[tea is]\thot\t1
[tea is]\tsweet\t1
[tea]\tis\t3
""", Vocabulary(GOLDEN_VOCAB.splitlines()))


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "tiny.txt").write_text(TINY_CORPUS, encoding="utf-8")
    (tmp_path / "ngram.cfg").write_text(NGRAM_CFG, encoding="utf-8")
    return tmp_path


def _p(path):
    return str(path)


def test_build_vocab_golden(workdir, capsys):
    out = workdir / "vocab.txt"
    assert main(["build-vocab", _p(workdir / "tiny.txt"), "-o", _p(out)]) == 0
    assert out.read_text(encoding="utf-8") == GOLDEN_VOCAB


def test_build_vocab_min_count_one_keeps_all_tokens(workdir):
    out = workdir / "vocab.txt"
    main(["build-vocab", _p(workdir / "tiny.txt"), "--min-count", "1", "-o", _p(out)])
    words = set(out.read_text(encoding="utf-8").splitlines())
    assert set(TINY_CORPUS.split()) <= words


@pytest.mark.parametrize("value", ["0", "-1"])
def test_build_vocab_min_count_below_1_is_a_usage_error(tmp_path, capsys, value):
    # The corpus does not exist: reading it would exit 2, not 1.
    assert main(["build-vocab", _p(tmp_path / "missing.txt"), "--min-count", value,
                 "-o", _p(tmp_path / "vocab.txt")]) == 1
    assert f"--min-count must be >= 1, got {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_build_vocab_missing_file_exits_2(workdir, capsys):
    rc = main(["build-vocab", _p(workdir / "nope.txt"), "-o", _p(workdir / "v")])
    assert rc == 2
    assert "nope.txt" in capsys.readouterr().err


def test_build_vocab_names_where_the_corpus_first_has_a_marker_word(tmp_path, capsys):
    # Kept, `skip-3` would make the 2-gram `[skip-3 a]` read back as a skip feature.
    a, b, out = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "vocab.txt"
    a.write_text("a skip-x skip-07\nskip- a\n", encoding="utf-8")
    b.write_text("a\n\nskip-3 a\nskip-3\n", encoding="utf-8")
    assert main(["build-vocab", _p(a), _p(b), "-o", _p(out)]) == 2
    assert capsys.readouterr().err == (
        f"snmlm: {b}:3: vocabulary word 'skip-3' reads as a skip marker\n")
    assert not out.exists()
    # A word below --min-count is not kept, so it is read as <UNK>.
    assert main(["build-vocab", _p(a), _p(b), "--min-count", "3", "-o", _p(out)]) == 0
    assert out.read_text(encoding="utf-8") == "<S>\n</S>\n<UNK>\na\n"
    assert main(["build-vocab", _p(a), "-o", _p(out)]) == 0
    assert out.read_text(encoding="utf-8") == "<S>\n</S>\n<UNK>\na\nskip-\nskip-07\nskip-x\n"


def test_count_golden(workdir):
    vocab = workdir / "vocab.txt"
    counts = workdir / "counts.tsv"
    main(["build-vocab", _p(workdir / "tiny.txt"), "-o", _p(vocab)])
    assert main([
        "count", _p(workdir / "tiny.txt"),
        "--config", _p(workdir / "ngram.cfg"),
        "--vocab", _p(vocab), "-o", _p(counts),
    ]) == 0
    assert counts.read_text(encoding="utf-8") == GOLDEN_COUNTS


def test_count_with_tags_prefixes_every_feature(workdir):
    vocab = workdir / "vocab.txt"
    counts = workdir / "counts.tsv"
    (workdir / "other.txt").write_text("red tea is hot\n", encoding="utf-8")
    main(["build-vocab", _p(workdir / "tiny.txt"), _p(workdir / "other.txt"),
          "-o", _p(vocab)])
    assert main([
        "count", _p(workdir / "tiny.txt"), _p(workdir / "other.txt"),
        "--tag", "web", "--tag", "target",
        "--config", _p(workdir / "ngram.cfg"),
        "--vocab", _p(vocab), "-o", _p(counts),
    ]) == 0
    body = [
        line for line in counts.read_text(encoding="utf-8").splitlines()
        if not line.startswith("#")
    ]
    assert body
    assert all(line.startswith(("web:[", "target:[")) for line in body)


def test_count_tag_arity_mismatch_is_usage_error(workdir, capsys):
    vocab = workdir / "vocab.txt"
    main(["build-vocab", _p(workdir / "tiny.txt"), "-o", _p(vocab)])
    rc = main([
        "count", _p(workdir / "tiny.txt"),
        "--tag", "a", "--tag", "b",
        "--config", _p(workdir / "ngram.cfg"),
        "--vocab", _p(vocab), "-o", _p(workdir / "c.tsv"),
    ])
    assert rc == 1


def test_count_config_parse_failure_exits_2(workdir, capsys):
    vocab = workdir / "vocab.txt"
    main(["build-vocab", _p(workdir / "tiny.txt"), "-o", _p(vocab)])
    (workdir / "bad.cfg").write_text(
        "ngram_extractor { min_n: 5 max_n: 4 }", encoding="utf-8"
    )
    rc = main([
        "count", _p(workdir / "tiny.txt"),
        "--config", _p(workdir / "bad.cfg"),
        "--vocab", _p(vocab), "-o", _p(workdir / "c.tsv"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"snmlm: {workdir / 'bad.cfg'}:1: min_n > max_n\n"


def test_untagged_concat_equals_merge_of_per_file_runs(workdir):
    from snmlm.counts import merge_files

    f1 = workdir / "tiny.txt"
    f2 = workdir / "other.txt"
    f2.write_text("red tea is hot\ngreen tea is cold\n", encoding="utf-8")
    both = workdir / "both.txt"
    both.write_text(
        f1.read_text(encoding="utf-8") + f2.read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    vocab = workdir / "vocab.txt"
    main(["build-vocab", _p(both), "-o", _p(vocab)])
    for src, dst in [(both, "concat.tsv"), (f1, "c1.tsv"), (f2, "c2.tsv")]:
        assert main([
            "count", _p(src), "--config", _p(workdir / "ngram.cfg"),
            "--vocab", _p(vocab), "-o", _p(workdir / dst),
        ]) == 0
    merge_files([workdir / "c1.tsv", workdir / "c2.tsv"], workdir / "merged.tsv")
    assert (workdir / "merged.tsv").read_bytes() == (workdir / "concat.tsv").read_bytes()


@pytest.fixture
def pipeline(workdir):
    (workdir / "dev.txt").write_text(
        "green tea is cold\nred tea is sweet\n", encoding="utf-8"
    )
    (workdir / "test.txt").write_text("green tea is hot\n", encoding="utf-8")
    vocab = workdir / "vocab.txt"
    counts = workdir / "counts.tsv"
    main(["build-vocab", _p(workdir / "tiny.txt"), "-o", _p(vocab)])
    main(["count", _p(workdir / "tiny.txt"), "--config", _p(workdir / "ngram.cfg"),
          "--vocab", _p(vocab), "-o", _p(counts)])
    return workdir


def test_intersect_subcommand_keeps_dev_rows(pipeline):
    wd = pipeline
    assert main([
        "intersect", "--counts", _p(wd / "counts.tsv"), "--dev", _p(wd / "dev.txt"),
        "--config", _p(wd / "ngram.cfg"), "--vocab", _p(wd / "vocab.txt"),
        "-o", _p(wd / "inter.tsv"),
    ]) == 0
    vocab = Vocabulary.load(wd / "vocab.txt")
    full = CountStore.load(wd / "counts.tsv", vocab)
    sub = CountStore.load(wd / "inter.tsv", vocab)
    assert 0 < len(sub) < len(full)
    for f, row in sub.rows.items():
        assert row == full.rows[f]


def test_train_epochs_zero_emits_unadjusted_model(pipeline):
    wd = pipeline
    assert main([
        "train", "--counts", _p(wd / "counts.tsv"), "--dev", _p(wd / "dev.txt"),
        "--config", _p(wd / "ngram.cfg"), "--vocab", _p(wd / "vocab.txt"),
        "--table-size", "4096", "--epochs", "0",
        "--adjustment-out", _p(wd / "adj.bin"), "--model-out", _p(wd / "model.tsv"),
    ]) == 0
    vocab = Vocabulary.load(wd / "vocab.txt")
    model = load_model(wd / "model.tsv", vocab)
    for f, norm in model.normalizers.items():
        assert norm == pytest.approx(1.0, rel=1e-12)


def test_train_logs_decreasing_dev_ppl(pipeline, capsys):
    wd = pipeline
    assert main([
        "train", "--counts", _p(wd / "counts.tsv"), "--dev", _p(wd / "dev.txt"),
        "--config", _p(wd / "ngram.cfg"), "--vocab", _p(wd / "vocab.txt"),
        "--table-size", "200K", "--epochs", "2", "--batch-size", "4",
        "--adjustment-out", _p(wd / "adj.bin"), "--model-out", _p(wd / "model.tsv"),
    ]) == 0
    out = capsys.readouterr().out
    # the run log echoes the accepted configuration
    assert "batch_size=4" in out and "gamma=0.1" in out and "delta0=1.0" in out
    ppls = [
        float(part.split("=")[1])
        for line in out.splitlines() if line.startswith("epoch")
        for part in line.split() if part.startswith("ppl=")
    ]
    assert len(ppls) == 3
    assert ppls[1] < ppls[0]


def test_train_empty_dev_exits_2(pipeline, capsys):
    wd = pipeline
    (wd / "empty.txt").write_text("", encoding="utf-8")
    rc = main([
        "train", "--counts", _p(wd / "counts.tsv"), "--dev", _p(wd / "empty.txt"),
        "--config", _p(wd / "ngram.cfg"), "--vocab", _p(wd / "vocab.txt"),
        "--adjustment-out", _p(wd / "adj.bin"), "--model-out", _p(wd / "model.tsv"),
    ])
    assert rc == 2
    assert "empty" in capsys.readouterr().err


# The commands that read corpus text, each reading the file `bad` as one.
_CORPUS_READERS = {
    "build-vocab": lambda wd, bad: ["build-vocab", bad, "-o", wd / "out.txt"],
    "count": lambda wd, bad: ["count", bad, "--config", wd / "ngram.cfg",
                              "--vocab", wd / "vocab.txt", "-o", wd / "out.tsv"],
    "intersect --dev": lambda wd, bad: ["intersect", "--counts", wd / "counts.tsv", "--dev", bad,
                                        "--config", wd / "ngram.cfg", "--vocab", wd / "vocab.txt",
                                        "-o", wd / "out.tsv"],
    "train --dev": lambda wd, bad: ["train", "--counts", wd / "counts.tsv", "--dev", bad,
                                    "--config", wd / "ngram.cfg", "--vocab", wd / "vocab.txt",
                                    "--adjustment-out", wd / "out.bin", "--model-out",
                                    wd / "out.tsv"],
    "eval --test": lambda wd, bad: ["eval", "--model", wd / "model.tsv", "--test", bad,
                                    "--config", wd / "ngram.cfg", "--vocab", wd / "vocab.txt"],
}


@pytest.mark.parametrize("command", sorted(_CORPUS_READERS))
def test_s_inside_a_corpus_line_is_rejected_at_its_line(pipeline, capsys, command):
    wd = pipeline
    _trained_model_lines(wd)
    bad = wd / "bad.txt"
    # <S> may start a line, which is then framed already.
    bad.write_text("<S> green tea\n\nred <S> tea\n", encoding="utf-8")
    capsys.readouterr()
    assert main([_p(a) for a in _CORPUS_READERS[command](wd, bad)]) == 2
    assert capsys.readouterr() == ("", f"snmlm: {bad}:3: <S> inside a sentence\n")
    assert not any(wd.glob("out.*"))


def test_an_event_with_no_known_feature_is_named_at_its_line(pipeline, capsys):
    # With min_n 1 no empty feature covers every event: a context never
    # counted, or never seen on dev, leaves an event with no known feature.
    wd = pipeline
    (wd / "one.cfg").write_text("ngram_extractor { min_n: 1 max_n: 2 }\n", encoding="utf-8")
    common = ["--config", _p(wd / "one.cfg"), "--vocab", _p(wd / "vocab.txt")]
    assert main(["count", _p(wd / "tiny.txt"), *common, "-o", _p(wd / "one.tsv")]) == 0
    train = ["train", "--counts", _p(wd / "one.tsv"), "--dev", _p(wd / "dev.txt"), *common,
             "--table-size", "1024", "--adjustment-out", _p(wd / "adj.bin"),
             "--model-out", _p(wd / "model.tsv")]
    message = "event has no features known to the model"
    # Each line has one event more than it has tokens.
    (wd / "dev.txt").write_text("green tea is cold\nred tea\n\nzz zz\n", encoding="utf-8")
    capsys.readouterr()
    assert main(train) == 2
    assert capsys.readouterr().err == f"snmlm: {wd / 'dev.txt'}:4: {message}\n"
    assert not (wd / "model.tsv").exists()
    (wd / "dev.txt").write_text("green tea is cold\n", encoding="utf-8")
    assert main(train) == 0
    # [hot] was not on dev, so the model has no row for it.
    (wd / "test.txt").write_text("green tea is cold\ngreen tea\n\nhot cold\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--model", _p(wd / "model.tsv"), "--test", _p(wd / "test.txt"),
                 *common]) == 2
    assert capsys.readouterr() == ("", f"snmlm: {wd / 'test.txt'}:4: {message}\n")
    # A count file and a model with no row of any context of the text: the
    # first event is named. `intersect` scores no event: it keeps no row.
    (wd / "few.tsv").write_text(seal("#snm-counts v2\n#total-events 3\n[tea]\tis\t3\n",
                                     Vocabulary.load(wd / "vocab.txt")), encoding="utf-8")
    size = len(Vocabulary.load(wd / "vocab.txt"))
    (wd / "few.model").write_text(seal(f"#snm-model v2\n#vocab-size {size}\n[tea]\tis\t1.0\n",
                                       Vocabulary.load(wd / "vocab.txt")), encoding="utf-8")
    (wd / "text.txt").write_text("\nhot cold\nred\n", encoding="utf-8")
    error = f"snmlm: {wd / 'text.txt'}:2: {message}\n"
    train[train.index("--counts") + 1], train[train.index("--dev") + 1] = (
        _p(wd / "few.tsv"), _p(wd / "text.txt"))
    (wd / "model.tsv").unlink()
    assert main(train) == 2
    assert capsys.readouterr().err == error
    assert not (wd / "model.tsv").exists()
    assert main(["eval", "--model", _p(wd / "few.model"), "--test", _p(wd / "text.txt"),
                 *common]) == 2
    assert capsys.readouterr() == ("", error)
    assert main(["intersect", "--counts", _p(wd / "few.tsv"), "--dev", _p(wd / "text.txt"),
                 *common, "-o", _p(wd / "inter.tsv")]) == 0
    printed = capsys.readouterr().out
    assert printed == f"intersected: 0/1 features kept, 0 links -> {wd / 'inter.tsv'}\n"


def test_eval_names_an_empty_test_file_and_an_untagged_model(pipeline, capsys):
    wd = pipeline
    _trained_model_lines(wd)
    (wd / "test.txt").write_text("\n \n", encoding="utf-8")
    capsys.readouterr()
    assert _eval_model(wd) == 2
    assert capsys.readouterr() == ("", f"snmlm: {wd / 'test.txt'}: empty test set\n")
    assert main(["eval", "--model", _p(wd / "model.tsv"), "--test", _p(wd / "tiny.txt"),
                 "--config", _p(wd / "ngram.cfg"), "--vocab", _p(wd / "vocab.txt"),
                 "--tag", "web"]) == 2
    assert capsys.readouterr().err == (
        f"snmlm: {wd / 'model.tsv'} is not corpus-tagged; drop the --tag flags\n")


def test_eval_reports_hand_computed_ppl(pipeline, capsys):
    # unadjusted model; the test sentence is the first training sentence.
    # P(green) = mean of c over known features, etc.; computed by hand
    # from the golden counts via uniform interpolation of the rows.
    wd = pipeline
    main([
        "train", "--counts", _p(wd / "counts.tsv"), "--dev", _p(wd / "dev.txt"),
        "--config", _p(wd / "ngram.cfg"), "--vocab", _p(wd / "vocab.txt"),
        "--epochs", "0", "--table-size", "1024",
        "--adjustment-out", _p(wd / "adj.bin"), "--model-out", _p(wd / "model.tsv"),
    ])
    assert main([
        "eval", "--model", _p(wd / "model.tsv"), "--test", _p(wd / "test.txt"),
        "--config", _p(wd / "ngram.cfg"), "--vocab", _p(wd / "vocab.txt"),
    ]) == 0
    out = capsys.readouterr().out
    ppl = float(next(l for l in out.splitlines() if l.startswith("ppl:")).split()[1])
    # the unadjusted model uniformly interpolates c(w|f) over the event's
    # rows that survived dev intersection; per-event hand count from the
    # golden counts (dev = "green tea is cold", "red tea is sweet"):
    p_green = (2 / 15 + 2 / 3) / 2          # [], [<S>]
    p_tea = (3 / 15 + 1.0 + 1.0) / 3        # [], [green], [<S> green]
    p_is = (3 / 15 + 1.0 + 1.0 + 1.0) / 4   # [], [tea], [green tea], [<S> green tea]
    # [], [is], [tea is], [green tea is], [<S> green tea is]
    p_hot = (1 / 15 + 1 / 3 + 1 / 3 + 1 / 2 + 1 / 2) / 5
    # dev never saw "hot" contexts, so only the empty row is known
    p_end = 3 / 15
    expected = math.exp(
        -(math.log(p_green) + math.log(p_tea) + math.log(p_is)
          + math.log(p_hot) + math.log(p_end)) / 5
    )
    assert ppl == pytest.approx(expected, rel=1e-4)


def _trained_model_lines(wd) -> list[str]:
    assert main([
        "train", "--counts", _p(wd / "counts.tsv"), "--dev", _p(wd / "dev.txt"),
        "--config", _p(wd / "ngram.cfg"), "--vocab", _p(wd / "vocab.txt"),
        "--epochs", "0", "--table-size", "1024",
        "--adjustment-out", _p(wd / "adj.bin"), "--model-out", _p(wd / "model.tsv"),
    ]) == 0
    return (wd / "model.tsv").read_text(encoding="utf-8").splitlines()


def _eval_model(wd) -> int:
    return main([
        "eval", "--model", _p(wd / "model.tsv"), "--test", _p(wd / "test.txt"),
        "--config", _p(wd / "ngram.cfg"), "--vocab", _p(wd / "vocab.txt"),
    ])


def _trailer_start(lines: list[str]) -> int:
    """The index of a model file's first trailer line, the one after its rows."""
    return next(i for i, line in enumerate(lines) if line.startswith("#rows "))


def test_eval_rejects_nan_normalizer(pipeline, capsys):
    # A normalizer is its row's sum, so a NaN one can come only from a NaN
    # cell, which is named at its line.
    wd = pipeline
    lines = _trained_model_lines(wd)
    feature, word, _ = lines[3].split("\t")
    lines[3] = f"{feature}\t{word}\tnan"
    (wd / "model.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert _eval_model(wd) == 2
    captured = capsys.readouterr()
    assert "model.tsv:4: value must be finite and non-negative, got nan" in captured.err
    assert "ppl" not in captured.out


def test_eval_rejects_normalizer_without_link_rows(pipeline, capsys):
    # A normalizer line of the old format, in row order: it is no row.
    wd = pipeline
    lines = _trained_model_lines(wd)
    end = _trailer_start(lines)
    lines[2:end] = sorted(lines[2:end] + ["[hot tea]\t1.0"])
    (wd / "model.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert _eval_model(wd) == 2
    lineno = lines.index("[hot tea]\t1.0") + 1
    assert capsys.readouterr().err == (f"snmlm: {wd / 'model.tsv'}:{lineno}: "
                                       "expected 3 tab-separated fields\n")


@pytest.mark.parametrize("edit", ["no vocab size", "rows reversed", "trailer reversed"])
def test_eval_rejects_a_model_file_that_save_model_never_writes(pipeline, capsys, edit):
    wd = pipeline
    lines = _trained_model_lines(wd)
    end = _trailer_start(lines)
    assert lines[1].startswith("#vocab-size ") and end > 4 and lines[-1].startswith("#sha256 ")
    if edit == "no vocab size":
        del lines[1]
        lineno, message = 2, "#vocab-size must come once, before the first row"
    elif edit == "rows reversed":
        lines[2:end] = reversed(lines[2:end])
        lineno, message = 4, "rows out of order"
    else:
        lines[end:] = reversed(lines[end:])
        lineno, message = end + 1, "expected a #rows line of the trailer, got '#sha256 "
    (wd / "model.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert _eval_model(wd) == 2
    captured = capsys.readouterr()
    assert f"model.tsv:{lineno}: {message}" in captured.err
    assert "ppl" not in captured.out


def test_eval_rejects_a_trained_model_with_two_cells_of_a_row_swapped(pipeline, capsys):
    # The row's sum, and so every check of its normalizer, is unchanged:
    # only the digest of the trailer sees the swap.
    wd = pipeline
    lines = _trained_model_lines(wd)
    assert _eval_model(wd) == 0
    i = next(i for i in range(2, _trailer_start(lines) - 1)
             if lines[i].split("\t")[0] == lines[i + 1].split("\t")[0]
             and lines[i].split("\t")[2] != lines[i + 1].split("\t")[2])
    (f, w, a), (_, v, b) = lines[i].split("\t"), lines[i + 1].split("\t")
    lines[i : i + 2] = [f"{f}\t{w}\t{b}", f"{f}\t{v}\t{a}"]
    (wd / "model.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert _eval_model(wd) == 2
    assert capsys.readouterr() == ("", f"snmlm: {wd / 'model.tsv'}:{len(lines)}: changed after "
                                       "it was written: the lines before this one do not have "
                                       "this SHA-256\n")


def test_eval_rejects_a_model_read_with_another_vocabulary_of_its_size(pipeline, capsys):
    # The same words in another order: every row reads, under other word ids.
    wd = pipeline
    lines = _trained_model_lines(wd)
    words = GOLDEN_VOCAB.splitlines()
    (wd / "vocab.txt").write_text("\n".join(words[:3] + words[:2:-1]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert _eval_model(wd) == 2
    assert capsys.readouterr() == ("", f"snmlm: {wd / 'model.tsv'}:{len(lines) - 1}: "
                                       "written with another vocabulary\n")


# Each text input, by the file it is read from, and a command that reads it.
_TEXT_INPUTS = {
    "counts": ("counts.tsv", lambda wd: [
        "inspect", "[]", "--counts", _p(wd / "counts.tsv"), "--vocab", _p(wd / "vocab.txt")]),
    "model": ("model.tsv", lambda wd: [
        "inspect", "[]", "--model", _p(wd / "model.tsv"), "--vocab", _p(wd / "vocab.txt")]),
    "vocabulary": ("vocab.txt", lambda wd: [
        "inspect", "[]", "--counts", _p(wd / "counts.tsv"), "--vocab", _p(wd / "vocab.txt")]),
    "corpus": ("tiny.txt", lambda wd: [
        "count", _p(wd / "tiny.txt"), "--config", _p(wd / "ngram.cfg"),
        "--vocab", _p(wd / "vocab.txt"), "-o", _p(wd / "out.tsv")]),
    "config": ("ngram.cfg", lambda wd: [
        "count", _p(wd / "tiny.txt"), "--config", _p(wd / "ngram.cfg"),
        "--vocab", _p(wd / "vocab.txt"), "-o", _p(wd / "out.tsv")]),
}


@pytest.mark.parametrize("kind", sorted(_TEXT_INPUTS))
def test_a_byte_that_is_not_utf8_is_reported_with_its_file_and_line(pipeline, capsys, kind):
    wd = pipeline
    _trained_model_lines(wd)
    name, argv = _TEXT_INPUTS[kind]
    path = wd / name
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
    path.write_bytes(b"\n".join(lines))
    message = f"{path}:3: byte 0xff at column 2 is not UTF-8 (invalid start byte)"
    capsys.readouterr()
    assert main(argv(wd)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"snmlm: {message}\n"
    assert captured.out == ""
    assert not (wd / "out.tsv").exists()
    if kind == "counts":
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            merge_files([path, path], wd / "merged.tsv")


# Per text input, the line given a lone CR, and the line a 0xff on the line
# after it is named at: count and model files are read as written, so a CR
# ends no line there; every other text input is read with universal newlines.
_LONE_CR = {"counts": (5, 6), "model": (5, 6), "vocabulary": (2, 4), "corpus": (2, 4),
            "config": (2, 4)}


@pytest.mark.parametrize("kind", sorted(_TEXT_INPUTS))
def test_a_byte_that_is_not_utf8_is_named_at_the_line_its_reader_counts(pipeline, capsys, kind):
    wd = pipeline
    _trained_model_lines(wd)
    name, argv = _TEXT_INPUTS[kind]
    path = wd / name
    cr, lineno = _LONE_CR[kind]
    lines = path.read_bytes().split(b"\n")
    lines[cr - 1] = lines[cr - 1][:1] + b"\r" + lines[cr - 1][1:]
    lines[cr] = lines[cr][:1] + b"\xff" + lines[cr][1:]
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main(argv(wd)) == 2
    assert capsys.readouterr().err == (f"snmlm: {path}:{lineno}: byte 0xff at column 2 "
                                       "is not UTF-8 (invalid start byte)\n")


def test_eval_rejects_vocab_of_another_size(pipeline, capsys):
    wd = pipeline
    _trained_model_lines(wd)
    vocab = wd / "vocab.txt"
    vocab.write_text(vocab.read_text(encoding="utf-8") + "extra\n", encoding="utf-8")
    size = len(Vocabulary.load(vocab))
    capsys.readouterr()
    assert _eval_model(wd) == 2
    captured = capsys.readouterr()
    assert f"model.tsv:2: model was built with {size - 1} words, vocab has {size}" in captured.err
    assert "ppl" not in captured.out


def test_eval_tagged_model_without_tags_exits_2(workdir, capsys):
    wd = workdir
    (wd / "dev.txt").write_text("green tea is cold\n", encoding="utf-8")
    vocab = wd / "vocab.txt"
    main(["build-vocab", _p(wd / "tiny.txt"), "-o", _p(vocab)])
    main(["count", _p(wd / "tiny.txt"), "--tag", "web",
          "--config", _p(wd / "ngram.cfg"), "--vocab", _p(vocab),
          "-o", _p(wd / "counts.tsv")])
    main(["train", "--counts", _p(wd / "counts.tsv"), "--dev", _p(wd / "dev.txt"),
          "--config", _p(wd / "ngram.cfg"), "--vocab", _p(vocab),
          "--tag", "web", "--epochs", "0", "--table-size", "1024",
          "--adjustment-out", _p(wd / "adj.bin"),
          "--model-out", _p(wd / "model.tsv")])
    rc = main([
        "eval", "--model", _p(wd / "model.tsv"), "--test", _p(wd / "tiny.txt"),
        "--config", _p(wd / "ngram.cfg"), "--vocab", _p(vocab),
    ])
    assert rc == 2
    assert "corpus-tagged" in capsys.readouterr().err
    # Untagged dev features keep no row of a tagged count file; the check
    # still sees every row.
    inputs = ["--counts", _p(wd / "counts.tsv"), "--dev", _p(wd / "dev.txt"),
              "--config", _p(wd / "ngram.cfg"), "--vocab", _p(vocab)]
    assert main(["intersect", *inputs, "-o", _p(wd / "inter.tsv")]) == 2
    assert "corpus-tagged" in capsys.readouterr().err
    assert main(["train", *inputs, "--adjustment-out", _p(wd / "adj2.bin"),
                 "--model-out", _p(wd / "model2.tsv")]) == 2
    assert "corpus-tagged" in capsys.readouterr().err
    rc = main([
        "eval", "--model", _p(wd / "model.tsv"), "--test", _p(wd / "tiny.txt"),
        "--config", _p(wd / "ngram.cfg"), "--vocab", _p(vocab), "--tag", "web",
    ])
    assert rc == 0


def test_train_with_tags_against_untagged_counts_exits_2(pipeline, capsys):
    wd = pipeline
    rc = main([
        "train", "--counts", _p(wd / "counts.tsv"), "--dev", _p(wd / "dev.txt"),
        "--config", _p(wd / "ngram.cfg"), "--vocab", _p(wd / "vocab.txt"),
        "--tag", "web", "--table-size", "1024",
        "--adjustment-out", _p(wd / "adj.bin"), "--model-out", _p(wd / "model.tsv"),
    ])
    assert rc == 2
    assert "not corpus-tagged" in capsys.readouterr().err


@pytest.fixture
def tagged(workdir):
    """Counts of two sources tagged web and tgt, and a model trained on them."""
    wd = workdir
    (wd / "other.txt").write_text("red tea is hot\ngreen tea is cold\n", encoding="utf-8")
    (wd / "dev.txt").write_text("green tea is cold\nred tea is sweet\n", encoding="utf-8")
    main(["build-vocab", _p(wd / "tiny.txt"), _p(wd / "other.txt"), "-o", _p(wd / "vocab.txt")])
    assert main([
        "count", _p(wd / "tiny.txt"), _p(wd / "other.txt"), "--tag", "web", "--tag", "tgt",
        "--config", _p(wd / "ngram.cfg"), "--vocab", _p(wd / "vocab.txt"),
        "-o", _p(wd / "counts.tsv"),
    ]) == 0
    assert main([*_TAGGED_COMMANDS["train"](wd), "--tag", "web", "--tag", "tgt"]) == 0
    return wd


_TAGGED_COMMANDS = {
    "train": lambda wd: [
        "train", "--counts", _p(wd / "counts.tsv"), "--dev", _p(wd / "dev.txt"),
        "--config", _p(wd / "ngram.cfg"), "--vocab", _p(wd / "vocab.txt"),
        "--epochs", "0", "--table-size", "1024",
        "--adjustment-out", _p(wd / "adj.bin"), "--model-out", _p(wd / "model.tsv"),
    ],
    "intersect": lambda wd: [
        "intersect", "--counts", _p(wd / "counts.tsv"), "--dev", _p(wd / "dev.txt"),
        "--config", _p(wd / "ngram.cfg"), "--vocab", _p(wd / "vocab.txt"),
        "-o", _p(wd / "inter.tsv"),
    ],
    "eval": lambda wd: [
        "eval", "--model", _p(wd / "model.tsv"), "--test", _p(wd / "tiny.txt"),
        "--config", _p(wd / "ngram.cfg"), "--vocab", _p(wd / "vocab.txt"),
    ],
}


@pytest.mark.parametrize("tags", [["web"], ["web", "tgr"]], ids=" ".join)
@pytest.mark.parametrize("command", sorted(_TAGGED_COMMANDS))
def test_tag_set_lacking_a_source_tag_exits_2(tagged, capsys, command, tags):
    # Without the tgt rows, eval printed a perplexity of the web source alone
    # and train trained on it; the missing tag is named instead.
    wd = tagged
    before = {p.name: p.read_bytes() for p in wd.iterdir()}
    capsys.readouterr()
    assert main([*_TAGGED_COMMANDS[command](wd), *(a for t in tags for a in ("--tag", t))]) == 2
    captured = capsys.readouterr()
    assert "counts.tsv" in captured.err or command == "eval"
    assert "'tgt'" in captured.err
    assert captured.out == ""
    assert {p.name: p.read_bytes() for p in wd.iterdir()} == before


@pytest.mark.parametrize("tags", [[], ["web", "tgt"]], ids=str)
def test_counts_mixing_tagged_and_untagged_rows_exit_2(tagged, capsys, tags):
    # A merge of a tagged and an untagged count file: no tag set reaches all rows.
    from snmlm.counts import merge_files

    wd = tagged
    main(["count", _p(wd / "tiny.txt"), "--config", _p(wd / "ngram.cfg"),
          "--vocab", _p(wd / "vocab.txt"), "-o", _p(wd / "untagged.tsv")])
    merge_files([wd / "counts.tsv", wd / "untagged.tsv"], wd / "mixed.tsv")
    argv = _TAGGED_COMMANDS["intersect"](wd)
    argv[argv.index("--counts") + 1] = _p(wd / "mixed.tsv")
    capsys.readouterr()
    assert main([*argv, *(a for t in tags for a in ("--tag", t))]) == 2
    assert "mixes untagged and corpus-tagged features" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(_TAGGED_COMMANDS))
def test_extra_tag_matches_no_row_and_is_allowed(tagged, capsys, command):
    wd = tagged
    tags = ["--tag", "web", "--tag", "tgt"]
    capsys.readouterr()
    assert main([*_TAGGED_COMMANDS[command](wd), *tags]) == 0
    exact = capsys.readouterr().out
    assert main([*_TAGGED_COMMANDS[command](wd), *tags, "--tag", "typo"]) == 0
    assert capsys.readouterr().out == exact


def test_inspect_unigram_row(pipeline, capsys):
    wd = pipeline
    assert main([
        "inspect", "[]", "--counts", _p(wd / "counts.tsv"),
        "--vocab", _p(wd / "vocab.txt"),
    ]) == 0
    out = capsys.readouterr().out
    assert "C_f*=15" in out
    assert "tea\t3" in out


def test_inspect_unknown_feature_exits_0(pipeline, capsys):
    wd = pipeline
    assert main([
        "inspect", "[cold cold]", "--counts", _p(wd / "counts.tsv"),
        "--vocab", _p(wd / "vocab.txt"),
    ]) == 0
    assert "not found" in capsys.readouterr().out


def test_inspect_rejects_a_bad_total_events_line(pipeline, capsys):
    wd = pipeline
    bad = wd / "bad.tsv"
    bad.write_text("#snm-counts v2\n#total-events x7\n[]\ttea\t1\n", encoding="utf-8")
    capsys.readouterr()
    assert main([
        "inspect", "[]", "--counts", _p(bad), "--vocab", _p(wd / "vocab.txt"),
    ]) == 2
    captured = capsys.readouterr()
    assert "bad.tsv:2:" in captured.err
    assert "C_f*" not in captured.out
    # The count file is checked ahead of the feature argument.
    assert main([
        "inspect", "[zz]", "--counts", _p(bad), "--vocab", _p(wd / "vocab.txt"),
    ]) == 2
    assert "bad.tsv:2:" in capsys.readouterr().err


def _w_vocab(wd):
    (wd / "w.txt").write_text("w\n", encoding="utf-8")
    main(["build-vocab", _p(wd / "w.txt"), "-o", _p(wd / "w-vocab.txt")])
    return wd / "w-vocab.txt"


def test_inspect_names_the_line_of_an_unparsable_feature(workdir, capsys):
    vocab = _w_vocab(workdir)
    bad = workdir / "bad.tsv"
    bad.write_text("#snm-counts v2\n#total-events 1\n[zz]\tw\t1\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["inspect", "[]", "--counts", _p(bad), "--vocab", _p(vocab)]) == 2
    err = capsys.readouterr().err
    assert "bad.tsv:3: unknown token 'zz'" in err


def _eval_bad_model(workdir, capsys, body: str, edit=None) -> str:
    """Run `eval` on a model file of `body` after the preamble, as `edit(text, vocab)` changes it."""
    vocab = _w_vocab(workdir)
    words = Vocabulary.load(vocab)
    bad = workdir / "bad-model.tsv"
    text = f"#snm-model v2\n#vocab-size {len(words)}\n{body}"
    bad.write_bytes((edit(text, words) if edit else text).encode("utf-8"))
    capsys.readouterr()
    assert main([
        "eval", "--model", _p(bad), "--test", _p(workdir / "tiny.txt"),
        "--config", _p(workdir / "ngram.cfg"), "--vocab", _p(vocab),
    ]) == 2
    captured = capsys.readouterr()
    assert "ppl" not in captured.out
    return captured.err


def test_eval_names_the_line_of_an_unparsable_feature(workdir, capsys):
    err = _eval_bad_model(workdir, capsys, "[zz]\tw\t1.0\n")
    assert "bad-model.tsv:3: unknown token 'zz'" in err


def test_eval_names_the_line_of_an_unparsable_normalizer(workdir, capsys):
    # A normalizer line of the old format is no row, whatever it names.
    err = _eval_bad_model(workdir, capsys, "[]\tw\t1.0\n[zz]\t1.0\n")
    assert "bad-model.tsv:4: expected 3 tab-separated fields" in err


def _resealed(text: str) -> str:
    """A sealed `text` with its #sha256 line made anew for the lines before it."""
    body = text[:text.rindex("#sha256 ")]
    return body + f"#sha256 {hashlib.sha256(body.encode()).hexdigest()}\n"


def _without_line_2(text: str, vocab) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(lines[:1] + lines[2:])


# Bad model bodies (after the header and #vocab-size lines) and the line and
# message each is rejected with; a fourth item edits the whole text, the
# vocabulary given. Values are what `float` reads, less `_`, surrounding
# whitespace and non-ASCII text; a link comes once. A bad row is named
# before the trailer is read, so those bodies are not sealed. The old
# `#normalizers` section, whatever it holds, is named at its first line. A
# model file is read as written: one whose lines end in CRLF or CR has no
# header line.
_BAD_MODEL_LINES = {
    "underscore value": ("[]\tw\t1_0.5\n", 3, "bad value '1_0.5'"),
    "spaced value": ("[]\tw\t 1.0\n", 3, "bad value ' 1.0'"),
    "non-ASCII value": ("[]\tw\t\u0661.5\n", 3, "bad value '\u0661.5'"),
    "underscore normalizer": ("[]\tw\t1.0\n#normalizers\n[]\t1_0\n", 4,
                              "unknown directive '#normalizers'"),
    "spaced normalizer": ("[]\tw\t1.0\n#normalizers\n[]\t1.0\x0c\n", 4,
                          "unknown directive '#normalizers'"),
    "repeated link": ("[]\t</S>\t1.0\n[]\tw\t1.0\n[]\tw\t2.0\n", 5, "rows out of order"),
    "repeated normalizer": ("[]\tw\t1.0\n#normalizers\n[]\t1.0\n[]\t1.0\n", 4,
                            "unknown directive '#normalizers'"),
    "unsorted links": ("[]\tw\t1.0\n[]\t</S>\t1.0\n", 4, "rows out of order"),
    "unsorted rows": ("[w]\tw\t1.0\n[]\tw\t1.0\n", 4, "rows out of order"),
    "unsorted normalizers": ("[]\tw\t1.0\n[w]\tw\t1.0\n#normalizers\n[w]\t1.0\n[]\t1.0\n", 5,
                             "unknown directive '#normalizers'"),
    "repeated vocab size": ("#vocab-size 4\n[]\tw\t1.0\n", 3,
                            "#vocab-size must come once, before the first row"),
    "late vocab size": ("[]\tw\t1.0\n#vocab-size 4\n", 4,
                        "#vocab-size must come once, before the first row"),
    "spaced tag": ("t x:[]\tw\t1.0\n", 3, "bad corpus tag 't x' in feature 't x:[]'"),
    "unknown directive": ("[]\tw\t1.0\n#anything at all\n", 4,
                          "unknown directive '#anything at all'"),
    "misspelt normalizers": ("[]\tw\t1.0\n#normalizer\n[]\t1.0\n", 4,
                             "unknown directive '#normalizer'"),
    "second normalizers": ("[]\tw\t1.0\n#normalizers\n[]\t1.0\n#normalizers\n", 4,
                           "unknown directive '#normalizers'"),
    "no directive line": ("[]\tw\t1.0\n", 2, "#vocab-size must come once, before the first row",
                          _without_line_2),
    "blank line": ("[]\tw\t1.0\n\n", 4, "expected 3 tab-separated fields"),
    "normalizer not its row's sum": ("[]\t</S>\t0.5\n[]\tw\t1.0\n#normalizers\n[]\t1.0\n", 5,
                                     "unknown directive '#normalizers'"),
    "blank normalizer line": ("[]\tw\t1.0\n#normalizers\n\n[]\t1.0\n", 4,
                              "unknown directive '#normalizers'"),
    "CRLF line endings": ("[]\tw\t1.0\n", 1, "not a model file (bad header)",
                          lambda text, vocab: seal(text, vocab).replace("\n", "\r\n")),
    "CR line endings": ("[]\tw\t1.0\n", 1, "not a model file (bad header)",
                        lambda text, vocab: seal(text, vocab).replace("\n", "\r")),
    "v1 header": ("[]\tw\t1.0\n#normalizers\n[]\t1.0\n", 1,
                  "a v1 model file has no trailer; train it again",
                  lambda text, vocab: text.replace(" v2\n", " v1\n", 1)),
    "no trailer": ("[]\tw\t1.0\n", 4, "no trailer: the file ends after its rows"),
    "digest mismatch": ("[]\t</S>\t0.5\n[]\tw\t1.0\n", 8, "changed after it was written",
                        lambda text, vocab: seal(text, vocab).replace("\t1.0\n", "\t2.0\n")),
    "wrong #rows": ("[]\tw\t1.0\n", 4, "the file has 1 rows, not 2",
                    lambda text, vocab: _resealed(seal(text, vocab).replace("#rows 1\n",
                                                                            "#rows 2\n"))),
}


@pytest.mark.parametrize("kind", sorted(_BAD_MODEL_LINES))
def test_eval_rejects_bad_model_lines(workdir, capsys, kind):
    body, lineno, message, *edit = _BAD_MODEL_LINES[kind]
    err = _eval_bad_model(workdir, capsys, body, *edit)
    assert f"bad-model.tsv:{lineno}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("block_lines", [1, 2])
@pytest.mark.parametrize("kind", sorted(_BAD_MODEL_LINES))
def test_bad_model_lines_are_named_alike_after_a_block_boundary(workdir, capsys, monkeypatch,
                                                                kind, block_lines):
    # Link rows are read a block at a time: the line each case names comes
    # after a block boundary when it is a row.
    monkeypatch.setattr(snmlm.counts, "_BLOCK_LINES", block_lines)
    body, lineno, message, *edit = _BAD_MODEL_LINES[kind]
    err = _eval_bad_model(workdir, capsys, body, *edit)
    assert f"bad-model.tsv:{lineno}: {message}" in err
    assert "Traceback" not in err


# Each kind of bad count line, put in place of the row "[hot] </S> 1", or of
# the line a third item names: no dev sentence and no inspected row holds the
# feature [hot], so a reader that stores only the rows it is asked for still
# has to reject it. Counts and totals are ASCII digits only, though `int`
# reads more.
_BAD_ROWS = {
    "unknown word": ("[hot]\tzzz\t1", "unknown word 'zzz'"),
    "bad count": ("[hot]\t</S>\tx", "bad count 'x'"),
    "zero count": ("[hot]\t</S>\t0", "count must be positive"),
    "two fields": ("[hot]\t</S>", "expected 3 tab-separated fields"),
    "unknown token": ("[hox]\t</S>\t1", "unknown token 'hox'"),
    "empty token": ("[hot  is]\t</S>\t1", "malformed feature string"),
    "trailing marker": ("[hot skip-2]\t</S>\t1", "skip marker without adjacent words"),
    "double marker": ("[hot skip-2 skip-3 is]\t</S>\t1", "multiple skip markers"),
    "row order": ("[cold]\t</S>\t1", "rows out of order"),
    "late total": ("#total-events 15", "#total-events must come once"),
    "underscore count": ("[hot]\t</S>\t1_000", "bad count '1_000'"),
    "non-ASCII count": ("[hot]\t</S>\t\u0663", "bad count '\u0663'"),
    "signed count": ("[hot]\t</S>\t+1", "bad count '+1'"),
    "spaced count": ("[hot]\t</S>\t1 ", "bad count '1 '"),
    "underscore total": ("#total-events 1_5", "bad event total '1_5'", "#total-events 15"),
    "non-ASCII total": ("#total-events \u0661\u0665", "bad event total '\u0661\u0665'",
                        "#total-events 15"),
    "long skip marker": ("[hot skip-" + "9" * 5000 + " is]\t</S>\t1",
                         "skip length 99999999... has 5000 digits, more than 18"),
    "huge count": ("[hot]\t</S>\t9223372036854775808",
                   "count 9223372036854775808 is more than the event total 15"),
    "huge total": ("#total-events 99999999999999999999999",
                   "event total 99999999999999999999999 is more than 2^63-1", "#total-events 15"),
    "spaced tag": ("t x:[hot]\t</S>\t1", "bad corpus tag 't x' in feature 't x:[hot]'"),
    "bracketed tag": ("a]:[hot]\t</S>\t1", "bad corpus tag 'a]' in feature 'a]:[hot]'"),
    "unknown directive": ("#anything at all", "unknown directive '#anything at all'"),
}
_KEEPING_COMMANDS = {
    "train": lambda wd, counts: [
        "train", "--counts", counts, "--dev", _p(wd / "dev.txt"),
        "--config", _p(wd / "ngram.cfg"), "--vocab", _p(wd / "vocab.txt"),
        "--epochs", "0", "--table-size", "1024",
        "--adjustment-out", _p(wd / "adj.bin"), "--model-out", _p(wd / "model.tsv"),
    ],
    "intersect": lambda wd, counts: [
        "intersect", "--counts", counts, "--dev", _p(wd / "dev.txt"),
        "--config", _p(wd / "ngram.cfg"), "--vocab", _p(wd / "vocab.txt"),
        "-o", _p(wd / "inter.tsv"),
    ],
    "inspect": lambda wd, counts: [
        "inspect", "[]", "--counts", counts, "--vocab", _p(wd / "vocab.txt"),
    ],
}


@pytest.mark.parametrize("command", sorted(_KEEPING_COMMANDS))
@pytest.mark.parametrize("kind", sorted(_BAD_ROWS))
def test_bad_count_rows_outside_the_kept_rows_exit_2(pipeline, capsys, command, kind):
    wd = pipeline
    lines = (wd / "counts.tsv").read_text(encoding="utf-8").splitlines()
    bad_line, message, *replaced = _BAD_ROWS[kind]
    lineno = lines.index(replaced[0] if replaced else "[hot]\t</S>\t1") + 1
    lines[lineno - 1] = bad_line
    bad = wd / "bad.tsv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(_KEEPING_COMMANDS[command](wd, _p(bad))) == 2
    captured = capsys.readouterr()
    assert f"bad.tsv:{lineno}: {message}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not any((wd / name).exists() for name in ("model.tsv", "adj.bin", "inter.tsv"))


@pytest.mark.parametrize("kind", sorted(_BAD_ROWS))
def test_bad_count_rows_are_named_alike_after_a_block_boundary(pipeline, monkeypatch, kind):
    # Blocks of 1 and 2 lines, and a first block that ends just before the bad row.
    wd = pipeline
    lines = (wd / "counts.tsv").read_text(encoding="utf-8").splitlines()
    bad_line, message, *replaced = _BAD_ROWS[kind]
    lineno = lines.index(replaced[0] if replaced else "[hot]\t</S>\t1") + 1
    lines[lineno - 1] = bad_line
    bad, out, oracle_out = wd / "bad.tsv", wd / "merged.tsv", wd / "oracle.tsv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    vocab = Vocabulary.load(wd / "vocab.txt")
    expected = outcome(lambda: oracle_load_counts(bad, vocab))
    assert expected.startswith(f"DataError: {bad}:{lineno}: {message}")
    expected_merge = outcome(lambda: oracle_merge_counts([bad], oracle_out))
    for block_lines in (1, 2, max(lineno - 3, 1)):
        monkeypatch.setattr(snmlm.counts, "_BLOCK_LINES", block_lines)
        assert outcome(lambda: CountStore.load(bad, vocab)) == expected
        assert outcome(lambda: CountStore.load(bad, vocab, keep=())) == expected
        # A merge reads words and feature strings as text, so it rejects only bad rows.
        assert outcome(lambda: merge_files([bad], out)) == expected_merge
        assert out.exists() == oracle_out.exists()
        if out.exists():
            assert out.read_bytes() == oracle_out.read_bytes()


def test_row_sum_past_int64_exits_2(pipeline, capsys):
    # Each count fits in int64; the feature count they sum to does not.
    wd = pipeline
    bad = wd / "bad.tsv"
    bad.write_text(
        "#snm-counts v2\n#total-events 9223372036854775807\n"
        "[]\tcold\t9223372036854775807\n[]\thot\t9223372036854775807\n",
        encoding="utf-8",
    )
    inspect_target = _KEEPING_COMMANDS["inspect"](wd, _p(bad)) + ["--target", "cold"]
    for argv in [*(run(wd, _p(bad)) for run in _KEEPING_COMMANDS.values()), inspect_target]:
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert ("bad.tsv:4: row sum of [] is more than the event total 9223372036854775807"
                in captured.err)
        assert "Traceback" not in captured.err
        assert captured.out == ""
    assert not any((wd / name).exists() for name in ("model.tsv", "adj.bin", "inter.tsv"))


@pytest.mark.parametrize("command", sorted(_KEEPING_COMMANDS))
def test_a_total_below_a_row_sum_exits_2_at_that_row(pipeline, capsys, command):
    # With min_n: 0 the [] row counts every event, so it sums to the total.
    wd = pipeline
    lines = (wd / "counts.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "#total-events 15"
    lines[1] = "#total-events 14"
    lineno = lines.index("[]\ttea\t3") + 1  # the [] row's last link
    bad = wd / "bad.tsv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(_KEEPING_COMMANDS[command](wd, _p(bad))) == 2
    assert capsys.readouterr().err == (
        f"snmlm: {bad}:{lineno}: row sum of [] is more than the event total 14\n"
    )


@pytest.mark.parametrize("command", sorted(_KEEPING_COMMANDS))
def test_a_v1_or_other_vocabulary_count_file_exits_2(pipeline, capsys, command):
    # A v1 file has no trailer; a sealed file names the vocabulary it was
    # counted with, and one with an extra word reads every row alike.
    wd = pipeline
    lines = (wd / "counts.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    old = wd / "old.tsv"
    old.write_text("#snm-counts v1\n" + "".join(lines[1:-5]), encoding="utf-8")
    capsys.readouterr()
    assert main(_KEEPING_COMMANDS[command](wd, _p(old))) == 2
    assert capsys.readouterr().err == (
        f"snmlm: {old}:1: a v1 count file has no trailer; count it again\n")
    (wd / "vocab.txt").write_text(GOLDEN_VOCAB + "zebra\n", encoding="utf-8")
    assert main(_KEEPING_COMMANDS[command](wd, _p(wd / "counts.tsv"))) == 2
    assert capsys.readouterr().err == (
        f"snmlm: {wd / 'counts.tsv'}:{len(lines) - 1}: written with another vocabulary\n")
    assert not any((wd / name).exists() for name in ("model.tsv", "adj.bin", "inter.tsv"))


def test_inspect_model_with_target_is_a_usage_error(tmp_path, capsys):
    # The link decomposition needs the link count, which only a count file
    # has. None of the files exist: reading any of them would exit 2, not 1.
    missing = _p(tmp_path / "missing")
    assert main([
        "inspect", "[]", "--model", missing, "--vocab", missing, "--target", "tea",
    ]) == 1
    assert "--target needs --counts" in capsys.readouterr().err


def test_inspect_link_shows_split_buckets(pipeline, capsys):
    # build a corpus where the inspected link count is 6
    wd = pipeline
    (wd / "six.txt").write_text("green tea\n" * 6 + "red tea\n" * 2, encoding="utf-8")
    main(["build-vocab", _p(wd / "six.txt"), "-o", _p(wd / "v6.txt")])
    main(["count", _p(wd / "six.txt"), "--config", _p(wd / "ngram.cfg"),
          "--vocab", _p(wd / "v6.txt"), "-o", _p(wd / "c6.tsv")])
    assert main([
        "inspect", "[green]", "--counts", _p(wd / "c6.tsv"),
        "--vocab", _p(wd / "v6.txt"), "--target", "tea",
    ]) == 0
    out = capsys.readouterr().out
    assert "C_fw=6" in out
    weights = [
        float(line.split()[1])
        for line in out.splitlines()
        if line.strip().endswith(("count:2^2", "count:2^3")) and "&" not in line
    ]
    assert len(weights) >= 2
    assert sum(weights[:2]) == pytest.approx(1.0)


def test_inspect_fox_link_decomposition(tmp_path, capsys):
    (tmp_path / "fox.txt").write_text(
        "the quick brown fox\nthe quick brown fox\n", encoding="utf-8"
    )
    (tmp_path / "ngram.cfg").write_text(NGRAM_CFG, encoding="utf-8")
    main(["build-vocab", _p(tmp_path / "fox.txt"), "-o", _p(tmp_path / "v.txt")])
    main(["count", _p(tmp_path / "fox.txt"), "--config", _p(tmp_path / "ngram.cfg"),
          "--vocab", _p(tmp_path / "v.txt"), "-o", _p(tmp_path / "c.tsv")])
    assert main([
        "inspect", "[the quick brown]", "--counts", _p(tmp_path / "c.tsv"),
        "--vocab", _p(tmp_path / "v.txt"), "--target", "fox",
    ]) == 0
    out = capsys.readouterr().out
    assert "3-gram" in out
    assert "[the quick brown] & fox" in out
    assert "count:2^1" in out


# ---------------------------------------------------------------------------
# Settings plumbing

def test_table_size_suffixes():
    assert parse_table_size("204800") == 204800
    assert parse_table_size("200K") == 204800
    assert parse_table_size("20M") == 20971520
    assert parse_table_size("200M") == 209715200
    with pytest.raises(UsageError):
        parse_table_size("lots")


@pytest.mark.parametrize("size", ["2_0K", "\u0663K", "-5", "+5", " 5 0", "K"])
def test_table_size_digits_are_ascii(size):
    # `int` reads the first four.
    with pytest.raises(UsageError, match="bad table size"):
        parse_table_size(size)


@pytest.mark.parametrize("size", ["200K", "20M", "200M"])
def test_pipeline_config_accepts_published_table_sizes(size):
    # AdjustmentModel is the one check of a training run's settings.
    adj = AdjustmentModel(parse_table_size(size))
    assert adj.table_size >= 204800
    assert adj.mode is Mode.FULL


@pytest.mark.parametrize(
    "flags",
    [
        ["--table-size", "0"],
        ["--batch-size", "0"],
        ["--epochs", "-1"],
        ["--tag", "bad tag"],
        ["--gamma", "nan"],
        ["--gamma", "inf"],
        ["--gamma", "0"],
        ["--delta0", "nan"],
        ["--delta0", "inf"],
        ["--delta0", "0"],
    ],
    ids=" ".join,
)
def test_train_rejects_bad_settings_before_reading_files(tmp_path, capsys, flags):
    # None of the inputs exist: reading any of them would exit 2, not 1.
    missing = _p(tmp_path / "missing")
    rc = main([
        "train", "--counts", missing, "--dev", missing, "--config", missing,
        "--vocab", missing, "--adjustment-out", _p(tmp_path / "adj.bin"),
        "--model-out", _p(tmp_path / "model.tsv"), *flags,
    ])
    assert rc == 1
    assert "snmlm: error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == []


# Per output flag, a command that writes it to `out`, reading only `missing`.
_OUTPUT_FLAGS = {
    "--adjustment-out": lambda missing, out, wd: [
        "train", "--counts", missing, "--dev", missing, "--config", missing, "--vocab", missing,
        "--adjustment-out", out, "--model-out", _p(wd / "m.tsv"),
    ],
    "--model-out": lambda missing, out, wd: [
        "train", "--counts", missing, "--dev", missing, "--config", missing, "--vocab", missing,
        "--adjustment-out", _p(wd / "adj.bin"), "--model-out", out,
    ],
    "count -o": lambda missing, out, wd: [
        "count", missing, "--config", missing, "--vocab", missing, "-o", out,
    ],
    "intersect -o": lambda missing, out, wd: [
        "intersect", "--counts", missing, "--dev", missing, "--config", missing,
        "--vocab", missing, "-o", out,
    ],
    "build-vocab -o": lambda missing, out, wd: ["build-vocab", missing, "-o", out],
}


@pytest.mark.parametrize("which", list(_OUTPUT_FLAGS))
@pytest.mark.parametrize("bad", ["no such directory", "a directory"])
def test_train_rejects_bad_output_paths_before_reading_files(tmp_path, capsys, which, bad):
    # None of the inputs exist: reading any of them would name them instead.
    missing = _p(tmp_path / "missing")
    (tmp_path / "out").mkdir()
    target = tmp_path / "nowhere" / "file" if bad == "no such directory" else tmp_path / "out"
    assert main(_OUTPUT_FLAGS[which](missing, _p(target), tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"snmlm: {_p(target)}: ") and "missing" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert list((tmp_path / "out").iterdir()) == []


def _train_to(wd, adjustment, model):
    return ["train", "--counts", _p(wd / "counts.tsv"), "--dev", _p(wd / "dev.txt"),
            "--config", _p(wd / "ngram.cfg"), "--vocab", _p(wd / "vocab.txt"),
            "--adjustment-out", _p(adjustment), "--model-out", _p(model)]


# Commands whose output names one of their inputs or another output, in
# another spelling or through a hard link where the case says so, and the
# flags the message names.
_SELF_OVERWRITES = {
    "train, both outputs": (lambda wd: _train_to(wd, wd / "x", wd / "x"),
                            "--model-out and --adjustment-out"),
    "train, model over counts": (lambda wd: _train_to(wd, wd / "adj.bin", wd / "counts.tsv"),
                                 "--model-out and --counts"),
    "train, adjustment over config": (
        lambda wd: _train_to(wd, wd / "sub" / ".." / "ngram.cfg", wd / "model.tsv"),
        "--adjustment-out and --config"),
    "count over vocab": (lambda wd: [
        "count", _p(wd / "tiny.txt"), "--config", _p(wd / "ngram.cfg"),
        "--vocab", _p(wd / "vocab.txt"), "-o", _p(wd / "vocab.txt"),
    ], "--output and --vocab"),
    "count over a corpus file": (lambda wd: [
        "count", _p(wd / "dev.txt"), _p(wd / "tiny.txt"), "--config", _p(wd / "ngram.cfg"),
        "--vocab", _p(wd / "vocab.txt"), "-o", _p(wd / "tiny.txt"),
    ], "--output and corpus"),
    "intersect over counts, hard-linked": (lambda wd: [
        "intersect", "--counts", _p(wd / "counts.tsv"), "--dev", _p(wd / "dev.txt"),
        "--config", _p(wd / "ngram.cfg"), "--vocab", _p(wd / "vocab.txt"),
        "-o", _p(wd / "link.tsv"),
    ], "--output and --counts"),
    "build-vocab over its corpus": (
        lambda wd: ["build-vocab", _p(wd / "tiny.txt"), "-o", _p(wd / "tiny.txt")],
        "--output and corpus"),
}


@pytest.mark.parametrize("case", list(_SELF_OVERWRITES))
def test_no_command_writes_over_its_own_input_or_output(pipeline, capsys, case):
    wd = pipeline
    (wd / "sub").mkdir()
    (wd / "link.tsv").hardlink_to(wd / "counts.tsv")
    argv, flags = _SELF_OVERWRITES[case]
    before = {p.name: p.read_bytes() for p in wd.iterdir() if p.is_file()}
    capsys.readouterr()
    assert main(argv(wd)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"snmlm: error: {flags} name the same file ")
    assert captured.out == ""
    # Every input keeps its bytes, and no output is written.
    assert {p.name: p.read_bytes() for p in wd.iterdir() if p.is_file()} == before


_TAG_COMMANDS = {
    "count": lambda missing, out: ["count", missing, "-o", out],
    "intersect": lambda missing, out: ["intersect", "--counts", missing, "--dev", missing,
                                       "-o", out],
    "train": lambda missing, out: ["train", "--counts", missing, "--dev", missing,
                                   "--adjustment-out", out, "--model-out", out],
    "eval": lambda missing, out: ["eval", "--model", missing, "--test", missing],
}


@pytest.mark.parametrize("tag", ["", "a b", "web]", "#web"])
@pytest.mark.parametrize("command", sorted(_TAG_COMMANDS))
def test_bad_tag_is_a_usage_error_before_reading_files(tmp_path, capsys, command, tag):
    # None of the inputs exist: reading any of them would exit 2, not 1.
    missing = _p(tmp_path / "missing")
    argv = _TAG_COMMANDS[command](missing, _p(tmp_path / "out"))
    assert main([*argv, "--config", missing, "--vocab", missing, "--tag", tag]) == 1
    assert f"bad corpus tag {tag!r}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_usage_error_exit_code():
    assert main(["count"]) == 1
    assert main(["definitely-not-a-command"]) == 1


# Vocab files a reader must reject, with the line it names.
_BAD_VOCABS = {
    "repeated word": ("<S>\n</S>\n<UNK>\ngreen\nred\ngreen\n", 6,
                      "duplicate vocabulary entry 'green'"),
    "specials out of order": ("<S>\n<UNK>\n</S>\ngreen\n", 2,
                              "vocabulary must start with the special tokens <S> </S> <UNK>"),
    "blank line": ("<S>\n</S>\n<UNK>\ngreen\n\nred\n", 5, "vocabulary entry is empty"),
    "whitespace": ("<S>\n</S>\n<UNK>\ngreen tea\n", 4,
                   "vocabulary entry 'green tea' contains whitespace"),
    "skip marker": ("<S>\n</S>\n<UNK>\ngreen\nskip-12\n", 5,
                    "vocabulary word 'skip-12' reads as a skip marker"),
    "tied skip marker": ("<S>\n</S>\n<UNK>\nskip-*\ngreen\n", 4,
                         "vocabulary word 'skip-*' reads as a skip marker"),
}


@pytest.mark.parametrize("kind", sorted(_BAD_VOCABS))
def test_count_names_the_line_of_a_bad_vocab_entry(workdir, capsys, kind):
    text, lineno, message = _BAD_VOCABS[kind]
    (workdir / "vocab.txt").write_text(text, encoding="utf-8")
    assert main([
        "count", _p(workdir / "tiny.txt"), "--config", _p(workdir / "ngram.cfg"),
        "--vocab", _p(workdir / "vocab.txt"), "-o", _p(workdir / "counts.tsv"),
    ]) == 2
    captured = capsys.readouterr()
    assert f"vocab.txt:{lineno}: {message}" in captured.err
    assert "Traceback" not in captured.err
    assert not (workdir / "counts.tsv").exists()
