import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (harmonic, levenshtein_dp, make_dataset, pair_scores, preprocess, random_dag,
                      raw_scores_text, write_dataset)
from stsbench import bench, cli, ontosim
from stsbench.bench import (
    BenchmarkPlan,
    MeasureSpec,
    PairScorer,
    PlanError,
    Resources,
    best_config,
    score_dataset,
    throughput,
    validate_plan,
)
from stsbench.core import Dataset, read_raw_scores
from stsbench.ontosim import Taxonomy
from stsbench.preprocess import PreprocessConfig, full_grid
from stsbench.stats import uniform_split


def test_known_measure():
    for mid in ("qgram", "jaccard", "block", "liblock", "levenshtein", "overlap",
                "wbsm-rada", "wbsm-jc", "ubsm-rada", "ubsm-jc", "com",
                "swem:mean", "swem:max", "swem:min", "swem:sum"):
        assert mid in bench.MEASURES
    assert "cosine" not in bench.MEASURES
    assert "swem:median" not in bench.MEASURES


def test_scorer_matches_direct_composition(rng):
    ds = make_dataset(rng, 20)
    cfg = PreprocessConfig(char_filter="default", stopwords="nltk2018")
    scorer = PairScorer("liblock", cfg, Resources())
    expected = tuple(pair_scores(preprocess(pair.s1, cfg), preprocess(pair.s2, cfg))["liblock"] for pair in ds.pairs)
    assert score_dataset(scorer, ds).scores == expected


def test_scorer_resource_requirements():
    cfg = PreprocessConfig()
    with pytest.raises(PlanError, match="word-vector"):
        PairScorer("swem:mean", cfg, Resources())
    with pytest.raises(PlanError, match="taxonomy"):
        PairScorer("wbsm-rada", cfg, Resources())
    with pytest.raises(PlanError, match="unknown measure"):
        PairScorer("bogus", cfg, Resources())


def _emptied_dataset(rng):
    """Pair 1 has a stop-word-only side, pair 2 two of them, and pair 3 one
    whose annotation leaves it a concept code in the ``ner=annotations`` view
    only; pair 0 is untouched."""
    import dataclasses
    from stsbench.core import Annotation, RawSentence
    ds = make_dataset(rng, 5)
    pairs = list(ds.pairs)
    pairs[1] = dataclasses.replace(pairs[1], s1=RawSentence("the of and"))
    pairs[2] = dataclasses.replace(pairs[2], s1=RawSentence("the of"), s2=RawSentence("and the"))
    pairs[3] = dataclasses.replace(pairs[3], s1=RawSentence("the of and", (Annotation(0, 3, "C5"),)))
    return dataclasses.replace(ds, pairs=tuple(pairs))


def _all_resources():
    from conftest import VOCAB
    from stsbench.vecsim import VectorModel
    vrng = np.random.default_rng(3)
    return Resources(vectors=VectorModel(8, {w: vrng.normal(size=8) for w in VOCAB}),
                     taxonomy=Taxonomy(random_dag(np.random.default_rng(5), 30)),
                     lexicon={w: frozenset({f"c{i % 30}"}) for i, w in enumerate(VOCAB)})


@pytest.mark.parametrize("measure", list(bench.MEASURES))
def test_every_measure_scores_empty_sequences_by_the_rule(measure, rng):
    # one empty side scores 0.0 and two score 1.0; pair 3 is empty in the
    # ner=none view only, so com, which reads both views, counts it too
    ds = _emptied_dataset(rng)
    scorer = PairScorer(measure, PreprocessConfig(stopwords="nltk2018"), _all_resources())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run = score_dataset(scorer, ds)
    empty = 2 if measure.startswith("ubsm") else 3
    assert [str(w.message) for w in caught] == [
        f"{measure} on 'synthetic' ({scorer.config.label()}): {empty} "
        "pair(s) with an empty token sequence scored by the empty-input rule"]
    assert run.scores[1:3] == (0.0, 1.0)
    assert all(0.0 <= s <= 1.0 for s in run.scores)
    if empty == 3 and measure != "com":
        assert run.scores[3] == 0.0


def test_grid_scores_emptied_sentences_by_rule(tmp_path, rng):
    import dataclasses
    from stsbench.core import RawSentence
    ds = make_dataset(rng, 8)
    pairs = list(ds.pairs)
    stop_only = RawSentence("The of and")
    pairs[2] = dataclasses.replace(pairs[2], s1=stop_only)
    pairs[5] = dataclasses.replace(pairs[5], s1=stop_only, s2=RawSentence("and the"))
    path = tmp_path / "data.tsv"
    write_dataset(dataclasses.replace(ds, pairs=tuple(pairs)), path)
    plan = BenchmarkPlan({"data": path}, [MeasureSpec(m, full_grid()) for m in bench.STRING_MEASURES],
                         out_dir=tmp_path / "out")
    with pytest.warns(UserWarning, match="2 pair\\(s\\) with an empty token sequence"):
        runs, report = bench.run(plan)
    assert len(runs) == len(report.rows) == 6 * 48
    for run in runs:
        assert all(0.0 <= s <= 1.0 for s in run.scores)
        if run.preprocess_config.endswith("sw=nltk2018"):
            assert (run.scores[2], run.scores[5]) == (0.0, 1.0)


def _plan(tmp_path, rng, measures, n_pairs=25, **kwargs):
    ds = make_dataset(rng, n_pairs)
    path = tmp_path / "data.tsv"
    write_dataset(ds, path)
    return BenchmarkPlan(
        datasets={"data": path},
        measures=measures,
        out_dir=tmp_path / "out",
        **kwargs,
    ), ds


def _onto_files(tmp_path, extra_lexicon=""):
    from conftest import VOCAB
    tax_path = tmp_path / "tax.tsv"
    tax_path.write_text("\n".join(f"{c}\t{p}" for c, p in random_dag(np.random.default_rng(5), 30)) + "\n")
    lex_path = tmp_path / "lex.tsv"
    lex_path.write_text("\n".join(f"{w}\tc{i % 30}" for i, w in enumerate(VOCAB)) + "\n" + extra_lexicon)
    return tax_path, lex_path


def test_validate_plan_errors(tmp_path, rng):
    plan, _ = _plan(tmp_path, rng, [MeasureSpec("block", [PreprocessConfig()])])
    validate_plan(plan)
    with pytest.raises(PlanError, match="no datasets"):
        validate_plan(BenchmarkPlan({}, plan.measures))
    with pytest.raises(PlanError, match="no measures"):
        validate_plan(BenchmarkPlan(plan.datasets, []))
    with pytest.raises(PlanError, match="no such file"):
        validate_plan(BenchmarkPlan({"x": tmp_path / "nope.tsv"}, plan.measures))
    dup = MeasureSpec("block", [PreprocessConfig(), PreprocessConfig()])
    with pytest.raises(PlanError, match="duplicate"):
        validate_plan(BenchmarkPlan(plan.datasets, [dup]))
    with pytest.raises(PlanError, match="unknown dataset"):
        validate_plan(BenchmarkPlan(plan.datasets, plan.measures,
                                    annotations={"other": tmp_path / "a.tsv"}))


def test_run_writes_reports_and_raw_scores(tmp_path, rng):
    plan, ds = _plan(tmp_path, rng, [
        MeasureSpec("block", [PreprocessConfig()]),
        MeasureSpec("jaccard", [PreprocessConfig()]),
    ])
    runs, report = bench.run(plan)
    assert len(runs) == 2
    assert len(report.rows) == 2
    for row in report.rows:
        assert row.h == pytest.approx(harmonic(row.r, row.rho), abs=1e-12)
    for run in runs:
        path = plan.out_dir / bench._run_file_name(run)
        assert path.is_file()
        assert read_raw_scores(path, run.dataset_name, run.measure_id,
                               run.preprocess_config) == run
    csv_path = plan.out_dir / "report.csv"
    report.write_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "dataset,method,config,r,rho,h"
    assert len(lines) == 3
    assert "block" in report.format_table()


def test_levenshtein_run_matches_dp_bit_for_bit(tmp_path, rng):
    import dataclasses
    from stsbench.core import RawSentence
    ds = make_dataset(rng, 20)
    pairs = list(ds.pairs)
    # punctuation-only sides empty under every char filter: one side, then both
    pairs[3] = dataclasses.replace(pairs[3], s1=RawSentence(". , ;"))
    pairs[7] = dataclasses.replace(pairs[7], s1=RawSentence("( ) !"), s2=RawSentence("? :"))
    # repeats within one kernel call: a sentence shared by three pairs, a
    # pair repeated and a pair with its sides swapped
    pairs[11] = dataclasses.replace(pairs[11], s2=pairs[10].s1)
    pairs[12] = dataclasses.replace(pairs[12], s1=pairs[10].s1)
    pairs[14] = dataclasses.replace(pairs[13], human_score=pairs[14].human_score)
    pairs[16] = dataclasses.replace(pairs[15], s1=pairs[15].s2, s2=pairs[15].s1)
    ds = dataclasses.replace(ds, pairs=tuple(pairs))
    path = tmp_path / "data.tsv"
    write_dataset(ds, path)
    configs = [PreprocessConfig(char_filter=cf) for cf in ("none", "default", "biosses", "blagec2019")]
    plan = BenchmarkPlan({"data": path}, [MeasureSpec("levenshtein", configs)], out_dir=tmp_path / "out")
    with pytest.warns(UserWarning, match="empty token sequence"):
        runs, _ = bench.run(plan)
    assert len(runs) == len(configs)
    for run, cfg in zip(runs, configs):
        expected = []
        for pair in ds.pairs:
            a, b = (" ".join(preprocess(s, cfg)) for s in (pair.s1, pair.s2))
            longest = max(len(a), len(b))
            expected.append(1.0 - levenshtein_dp(a, b) / longest if longest else 1.0)
        assert run.scores == tuple(expected)
        assert read_raw_scores(plan.out_dir / bench._run_file_name(run)).scores == run.scores
        if cfg.char_filter != "none":
            assert (run.scores[3], run.scores[7]) == (0.0, 1.0)


def test_run_with_swem_rescales_to_unit_interval(tmp_path, rng):
    vec = tmp_path / "vectors.txt"
    from conftest import VOCAB
    vrng = np.random.default_rng(3)
    with vec.open("w") as fh:
        for w in VOCAB:
            fh.write(w + " " + " ".join(f"{v:.6f}" for v in vrng.normal(size=8)) + "\n")
    plan, _ = _plan(tmp_path, rng, [MeasureSpec("swem:mean", [PreprocessConfig()])],
                    vectors=vec)
    runs, _ = bench.run(plan)
    assert all(0.0 <= s <= 1.0 for s in runs[0].scores)


def test_swem_scores_a_sentence_with_no_vector_as_an_empty_one_without_warning(rng):
    # a sentence of tokens with no vector ("zzz") pools to nothing and scores
    # as an empty sequence does, with no warning: 0 against a sentence with a
    # vector, reported as 0.5, and 1 against itself
    import dataclasses
    from conftest import VOCAB
    from stsbench.core import RawSentence
    from stsbench.vecsim import VectorModel
    ds = make_dataset(rng, 3)
    pairs = list(ds.pairs)
    pairs[1] = dataclasses.replace(pairs[1], s1=RawSentence("zzz"))
    pairs[2] = dataclasses.replace(pairs[2], s1=RawSentence("zzz yyy"), s2=RawSentence("zzz yyy"))
    ds = dataclasses.replace(ds, pairs=tuple(pairs))
    vrng = np.random.default_rng(3)
    model = VectorModel(8, {w: vrng.normal(size=8) for w in VOCAB})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = score_dataset(PairScorer("swem:mean", PreprocessConfig(), Resources(vectors=model)), ds)
    assert run.scores[1:] == (0.5, 1.0) and run.scores[0] not in (0.5, 1.0)


def test_run_ontology_measures(tmp_path, rng):
    tax_path, lex_path = _onto_files(tmp_path)
    plan, _ = _plan(tmp_path, rng, [
        MeasureSpec("wbsm-rada", [PreprocessConfig()]),
        MeasureSpec("ubsm-jc", [PreprocessConfig()]),
        MeasureSpec("com", [PreprocessConfig()]),
    ], taxonomy=tax_path, lexicon=lex_path)
    runs, report = bench.run(plan)
    assert len(runs) == 3
    for run in runs:
        assert all(0.0 <= s <= 1.0 for s in run.scores)


def test_best_config(tmp_path, rng):
    plan, _ = _plan(tmp_path, rng, [
        MeasureSpec("block", [PreprocessConfig(), PreprocessConfig(lowercase=False)]),
    ])
    _, report = bench.run(plan)
    import warnings
    with warnings.catch_warnings():
        # the two configs may tie on all-lower-case synthetic data
        warnings.simplefilter("ignore")
        best, h = best_config(report, "block")
    assert best in {c.label() for c in plan.measures[0].configs}
    hs = [row.h for row in report.rows if row.measure_id == "block" and row.config == best]
    assert h == sum(hs) / len(hs)
    with pytest.raises(ValueError, match="no rows"):
        best_config(report, "jaccard")


def test_grid_reports_every_measure_when_one_is_degenerate_everywhere(tmp_path, capsys):
    from stsbench.core import RawSentence, SentencePair
    # identical sentences score 1 under every config, so every h is nan
    pairs = [SentencePair(RawSentence(t), RawSentence(t), h)
             for t, h in (("Cell growth.", 0.2), ("protein binding", 0.5), ("gene", 0.9))]
    path = tmp_path / "d.tsv"
    write_dataset(Dataset("d", tuple(pairs)), path)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["grid", "--dataset", f"d={path}", "--measure", "block", "--measure", "qgram",
                       "--out", str(out)])
    assert rc == 0
    assert len(list(out.iterdir())) == 2 * 48 + 1
    assert capsys.readouterr().out.splitlines() == [
        "block: no best config (every config degenerate)", "qgram: no best config (every config degenerate)"]
    assert [str(w.message) for w in caught if "no best config" in str(w.message)] == [
        f"{m}: every config was degenerate; no best config" for m in ("block", "qgram")]


def test_grid_prints_each_measure_best_config_once(tmp_path, rng, capsys):
    # one measure at two NER modes sweeps two grids but has one best config
    path = tmp_path / "d.tsv"
    write_dataset(make_dataset(rng, 20), path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # no sentence has annotations
        rc = cli.main(["grid", "--dataset", f"d={path}", "--measure", "block",
                       "--measure", "block @ ner=annotations", "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("block:")]
    assert len(lines) == 1 and lines[0].startswith("block: best config ")


def test_best_config_tie_warns():
    rows = [
        bench.ReportRow("d", "block", "cfgA", 0.5, 0.5, 0.5),
        bench.ReportRow("d", "block", "cfgB", 0.5, 0.5, 0.5),
    ]
    with pytest.warns(UserWarning, match="tie"):
        assert best_config(bench.EvalReport(rows), "block") == ("cfgA", 0.5)


def test_throughput(rng):
    ds = make_dataset(rng, 30)
    scorer = PairScorer("block", PreprocessConfig(), Resources())
    rate = throughput(scorer, ds, repeats=3)
    assert rate > 0
    with pytest.raises(ValueError, match="repeats"):
        throughput(scorer, ds, repeats=2)


def test_plan_file_parsing(tmp_path):
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text(
        "# demo plan\n"
        "dataset.main = data.tsv\n"
        "annotations.main = ann.tsv\n"
        "measure = block\n"
        "measure = liblock @ char_filter=default, stopwords=nltk2018\n"
        "lowercase = no\n"
        "out = results\n",
        encoding="utf-8",
    )
    raw = cli.parse_plan_file(plan_file)
    assert raw["datasets"] == {"main": "data.tsv"}
    assert raw["annotations"] == {"main": "ann.tsv"}
    assert len(raw["measures"]) == 2
    assert raw["options"]["lowercase"] == "no"

    plan = cli.build_plan(_plan_args(plan_file))
    assert plan.measures[0].configs[0].lowercase is False
    inline = plan.measures[1].configs[0]
    assert inline.char_filter == "default"
    assert inline.stopwords == "nltk2018"
    assert inline.lowercase is False  # inherits the plan-level option


def _plan_args(plan_file):
    """The parsed command line of ``--plan plan_file`` and no other flag."""
    import argparse
    return argparse.Namespace(dataset=[], annotations=[], measure=[], plan=str(plan_file), **dict.fromkeys(
        ("vectors", "taxonomy", "lexicon", "out", "ner", "tokenizer", "lowercase", "char_filter", "stopwords")))


def test_input_files_that_are_not_utf8_fail_at_their_line_before_any_scoring(tmp_path, rng, capsys,
                                                                          monkeypatch):
    data = tmp_path / "data.tsv"
    write_dataset(make_dataset(rng, 5), data)
    (tmp_path / "taxonomy.tsv").write_text("c1\tc0\n", encoding="utf-8")
    (tmp_path / "lexicon.tsv").write_text("w\tc1\n", encoding="utf-8")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"line one\r\nline \xff two\r\n")
    monkeypatch.setattr(bench, "score_runs", lambda *a: pytest.fail("scored"))
    ontology = ["--measure", "wbsm-rada", "--taxonomy", str(tmp_path / "taxonomy.tsv"),
                "--lexicon", str(tmp_path / "lexicon.tsv")]
    for argv in (["--plan", str(bad)], ["--dataset", f"d={bad}", "--measure", "block"],
                 ["--dataset", f"d={data}", "--annotations", f"d={bad}", "--measure", "block"],
                 ["--dataset", f"d={data}", *ontology, "--taxonomy", str(bad)],
                 ["--dataset", f"d={data}", *ontology, "--lexicon", str(bad)],
                 ["--dataset", f"d={data}", "--measure", "swem:mean", "--vectors", str(bad)]):
        for command in ("run", "grid"):
            out = tmp_path / "out"
            assert cli.main([command, *argv, "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: {bad}:2: not UTF-8 text\n"
            assert not out.exists()
    assert cli.main(["validate", "--dataset", f"d={data}", *ontology, "--taxonomy", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {bad}:2: not UTF-8 text\n"


def test_packaged_lists_that_are_not_utf8_fail_at_their_line(tmp_path, monkeypatch):
    from stsbench import preprocess
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"a\nb\nc \xff\n")
    monkeypatch.setattr(preprocess, "_resource_path", lambda kind, name: bad)
    for load in (preprocess.load_stopwords, preprocess.load_char_filter):
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}:3: not UTF-8 text$"):
            load("not-utf8")


def test_a_form_feed_in_a_plan_value_stays_on_its_line(tmp_path, capsys):
    plan_file = tmp_path / "plan.txt"
    # split at the form feed, line 2 would end a line early and make a comment of the rest
    plan_file.write_text("measure = block\nout = a\x0c# b\nno key here\n", encoding="utf-8")
    assert cli.main(["validate", "--plan", str(plan_file)]) == 1
    assert capsys.readouterr().err == f"error: {plan_file}:3: expected key = value\n"


def test_a_dataset_of_one_pair_fails_before_any_scoring(tmp_path, rng, capsys, monkeypatch):
    big, small = tmp_path / "big.tsv", tmp_path / "small.tsv"
    write_dataset(make_dataset(rng, 5), big)
    write_dataset(make_dataset(rng, 1), small)
    monkeypatch.setattr(bench, "score_runs", lambda *a: pytest.fail("scored"))
    for command in ("run", "grid"):
        out = tmp_path / "out"
        rc = cli.main([command, "--dataset", f"big={big}", "--dataset", f"small={small}",
                       "--measure", "block", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == ("error: dataset 'small' of 1 pair is too small: "
                                           "Pearson and Spearman need at least 2 pairs\n")
        assert not out.exists()


def test_single_dataset_commands_reject_two_datasets_before_any_load(tmp_path, rng, capsys, monkeypatch):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    for path in (a, b):
        write_dataset(make_dataset(rng, 5), path)
    loaded = []
    monkeypatch.setattr(bench, "load_dataset", lambda *args, **kw: loaded.append(args))
    for command in ("significance", "error-analysis", "throughput"):
        rc = cli.main([command, "--dataset", f"a={a}", "--dataset", f"b={b}", "--measure", "block",
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: this command needs exactly one dataset, got 2\n"
    assert loaded == []
    assert not (tmp_path / "out").exists()


def test_single_dataset_commands_reject_two_datasets_before_any_resource_load(tmp_path, rng, capsys, monkeypatch):
    tax_path, lex_path = _onto_files(tmp_path)
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    for path in (a, b):
        write_dataset(make_dataset(rng, 5), path)
    loads = []
    load_taxonomy = ontosim.load_taxonomy
    monkeypatch.setattr(ontosim, "load_taxonomy", lambda *args: loads.append(args) or load_taxonomy(*args))
    for command in ("significance", "error-analysis", "throughput"):
        rc = cli.main([command, "--dataset", f"a={a}", "--dataset", f"b={b}", "--measure", "wbsm-rada",
                       "--taxonomy", str(tax_path), "--lexicon", str(lex_path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: this command needs exactly one dataset, got 2\n"
    assert loads == []
    assert not (tmp_path / "out").exists()


def test_error_analysis_refuses_a_dataset_of_one_pair_before_scoring(tmp_path, rng, capsys, monkeypatch):
    path = tmp_path / "d.tsv"
    write_dataset(make_dataset(rng, 1), path)
    monkeypatch.setattr(bench, "score_runs", lambda *a: pytest.fail("scored"))
    out = tmp_path / "out"
    assert cli.main(["error-analysis", "--dataset", f"d={path}", "--measure", "block", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: dataset 'd' of 1 pair is too small: "
                                       "error analysis needs at least 2 pairs\n")
    assert not out.exists()


def test_single_measure_commands_reject_two_measures_before_any_load(tmp_path, rng, capsys, monkeypatch):
    tax_path, lex_path = _onto_files(tmp_path)
    path = tmp_path / "d.tsv"
    write_dataset(make_dataset(rng, 5), path)
    monkeypatch.setattr(bench, "load_dataset", lambda *a, **kw: pytest.fail("dataset loaded"))
    monkeypatch.setattr(ontosim, "load_taxonomy", lambda *a: pytest.fail("taxonomy loaded"))
    for command in ("error-analysis", "throughput"):
        rc = cli.main([command, "--dataset", f"d={path}", "--measure", "block", "--measure", "wbsm-rada",
                       "--taxonomy", str(tax_path), "--lexicon", str(lex_path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {command} needs exactly one measure\n"
    assert not (tmp_path / "out").exists()


def test_grid_sweeps_each_entry_at_its_own_ner_mode(tmp_path):
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("grid = yes\nmeasure = block @ ner=annotations\nmeasure = liblock\n"
                         "measure = jaccard @ lowercase=no\n", encoding="utf-8")
    block, liblock, jaccard = cli.build_plan(_plan_args(plan_file)).measures
    assert block.configs == full_grid(ner="annotations")
    # the other inline fields are swept anyway; entries of one NER mode share its grid
    assert liblock.configs == full_grid() and jaccard.configs is liblock.configs
    with open(plan_file, "a", encoding="utf-8") as fh:
        fh.write("ner = annotations\n")
    assert {cfg.ner for spec in cli.build_plan(_plan_args(plan_file)).measures for cfg in spec.configs} == {
        "annotations"}


def test_plan_file_with_bom(tmp_path, rng, capsys):
    path = tmp_path / "d.tsv"
    write_dataset(make_dataset(rng, 5), path)
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text(f"dataset.d = {path}\nmeasure = block\n", encoding="utf-8-sig")
    assert cli.main(["validate", "--plan", str(plan_file)]) == 0
    assert "plan OK" in capsys.readouterr().out


def test_plan_file_bad_lines(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("just some words\n", encoding="utf-8")
    with pytest.raises(PlanError, match="key = value"):
        cli.parse_plan_file(p)


def test_repeated_dataset_names_are_rejected_before_any_load(tmp_path, rng, capsys, monkeypatch):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    for path in (a, b):
        write_dataset(make_dataset(rng, 5), path)
    loaded = []
    monkeypatch.setattr(bench, "load_dataset", lambda *args, **kw: loaded.append(args))
    for flag in ("dataset", "annotations"):
        rc = cli.main(["validate", "--dataset", f"d={a}", f"--{flag}", f"d={a}", f"--{flag}", f"d={b}",
                       "--measure", "block"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: --{flag} gives 'd' twice\n"
    plan_file = tmp_path / "plan.txt"
    for key in ("dataset.d", "annotations.d", "lowercase"):
        plan_file.write_text(f"dataset.d = {a}\nmeasure = block\nmeasure = jaccard\n"
                             f"{key} = {a}\n{key} = {b}\n", encoding="utf-8")
        line = 4 if key == "dataset.d" else 5  # the line that repeats the key
        assert cli.main(["validate", "--plan", str(plan_file)]) == 1
        assert capsys.readouterr().err == f"error: {plan_file}:{line}: repeated key {key!r}\n"
    assert loaded == []


def test_flags_override_plan_entries_of_the_same_name(tmp_path):
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("dataset.d = a.tsv\nannotations.d = a.ann\nlowercase = no\nmeasure = block\n",
                         encoding="utf-8")
    args = _plan_args(plan_file)
    args.dataset, args.annotations, args.lowercase = ["d=b.tsv"], ["d=b.ann"], "yes"
    plan = cli.build_plan(args)
    assert plan.datasets == {"d": Path("b.tsv")} and plan.annotations == {"d": Path("b.ann")}
    assert plan.measures[0].configs[0].lowercase is True


def test_negative_human_score_fails_at_its_line(tmp_path, capsys):
    path = tmp_path / "neg.tsv"
    path.write_text("s1\ts2\tscore\na b\tc d\t0.5\ne f\tg h\t-0.5\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = cli.main(["run", "--dataset", f"d={path}", "--measure", "block", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {path}:3: human score -0.5 outside [0, 1]\n"
    assert not out.exists()


def test_cli_end_to_end(tmp_path, rng, capsys):
    ds = make_dataset(rng, 20)
    path = tmp_path / "d.tsv"
    write_dataset(ds, path)
    out = tmp_path / "out"
    rc = cli.main(["run", "--dataset", f"d={path}", "--measure", "block",
                   "--measure", "liblock", "--out", str(out)])
    assert rc == 0
    assert (out / "report.csv").is_file()
    captured = capsys.readouterr().out
    assert "block" in captured and "liblock" in captured

    rc = cli.main(["validate", "--dataset", f"d={path}", "--measure", "block"])
    assert rc == 0
    assert "plan OK" in capsys.readouterr().out

    rc = cli.main(["throughput", "--dataset", f"d={path}", "--measure", "block"])
    assert rc == 0
    assert "pairs/sec" in capsys.readouterr().out

    rc = cli.main(["significance", "--dataset", f"d={path}", "--measure", "block",
                   "--measure", "jaccard", "--splits", "4", "--out", str(out)])
    assert rc == 0
    assert (out / "significance.csv").is_file()

    rc = cli.main(["error-analysis", "--dataset", f"d={path}", "--measure", "liblock",
                   "--out", str(out)])
    assert rc == 0
    kde_lines = (out / "error_kde.csv").read_text().splitlines()
    assert kde_lines[0] == "x,density"
    assert len(kde_lines) == 513


def test_cli_parser_contract(monkeypatch):
    seen = []
    for name in ("_cmd_run", "_cmd_significance", "_cmd_error_analysis", "_cmd_throughput", "_cmd_validate"):
        monkeypatch.setattr(cli, name, lambda args, **kwargs: seen.append(args) or 0)
    common = ["--plan", "p.txt", "--dataset", "a=a.tsv", "--dataset", "b=b.tsv",
              "--annotations", "a=a.ann", "--measure", "block", "--measure", "jaccard @ lowercase=no",
              "--vectors", "v.txt", "--taxonomy", "t.tsv", "--lexicon", "l.tsv", "--out", "o",
              "--ner", "annotations", "--tokenizer", "treebank-rules", "--lowercase", "no",
              "--char-filter", "biosses", "--stopwords", "nltk2018"]
    expected = {"plan": "p.txt", "dataset": ["a=a.tsv", "b=b.tsv"], "annotations": ["a=a.ann"],
                "measure": ["block", "jaccard @ lowercase=no"], "vectors": "v.txt", "taxonomy": "t.tsv",
                "lexicon": "l.tsv", "out": "o", "ner": "annotations", "tokenizer": "treebank-rules",
                "lowercase": "no", "char_filter": "biosses", "stopwords": "nltk2018"}
    own = {"significance": {"splits": 10}, "throughput": {"repeats": 3}}
    for cmd in ("run", "grid", "significance", "error-analysis", "throughput", "validate"):
        assert cli.main([cmd, *common]) == 0
        args = vars(seen.pop())
        del args["func"]
        assert args == {"command": cmd, **expected, **own.get(cmd, {})}
        for flag in ("--bogus", "--splits", "--repeats"):
            if flag.lstrip("-") in own.get(cmd, {}):
                continue
            with pytest.raises(SystemExit) as exc:
                cli.main([cmd, flag, "4"])
            assert exc.value.code == 2
    assert not seen


def test_python_m_stsbench_runs_from_a_checkout(tmp_path):
    path = tmp_path / "d.tsv"
    write_dataset(make_dataset(np.random.default_rng(0), 4), path)
    plan = tmp_path / "plan.txt"
    plan.write_text(f"dataset.d = {path}\nmeasure = block\n")
    src = str(Path(bench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "stsbench", "validate", "--plan", str(plan)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "plan OK: 1 dataset(s), 1 measure(s), 1 run(s)"


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [example] = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    exec(compile(example, "README.md", "exec"), {})
    [printed] = capsys.readouterr().out.split()
    assert 0.0 <= float(printed) <= 1.0


def test_readme_command_lines_run(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^## Command line\n\n```sh\n(.*?)^```", readme, flags=re.M | re.S)
    [plan] = re.findall(r"^```\n(# plan.txt\n.*?)^```", readme, flags=re.M | re.S)
    monkeypatch.chdir(tmp_path)
    write_dataset(make_dataset(np.random.default_rng(5), 20), "biosses.tsv")
    Path("plan.txt").write_text(plan, encoding="utf-8")
    raw = cli.parse_plan_file("plan.txt")
    dataset = Path(raw["datasets"]["biosses"])
    dataset.parent.mkdir(parents=True, exist_ok=True)
    write_dataset(make_dataset(np.random.default_rng(6), 20), dataset)
    first_word = dataset.read_text(encoding="utf-8").split(" ", 1)[0]
    Path(raw["annotations"]["biosses"]).write_text(f"0\ts1\t0\t{len(first_word)}\tC0001\n", encoding="utf-8")
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert commands
    for command in commands:
        assert command[0] == "stsbench"
        assert cli.main(command[1:]) == 0, command


def test_cli_error_paths(tmp_path, capsys):
    rc = cli.main(["run", "--dataset", "d=/nonexistent.tsv", "--measure", "block"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    rc = cli.main(["validate", "--measure", "block"])
    assert rc == 1


def test_cli_grid_scores_a_stop_word_only_sentence_with_every_family(tmp_path, capsys):
    # the first sentence is all stop words: under a stop list it is empty,
    # which the ontology and SWEM measures score by the empty-input rule
    from conftest import VOCAB
    path = tmp_path / "t.tsv"
    path.write_text("the of and\tgene cell\t0.5\ngene kinase\tcell\t0.1\nprotein binding\tprotein\t0.9\n",
                    encoding="utf-8")
    tax_path, lex_path = _onto_files(tmp_path)
    vec_path = tmp_path / "vectors.txt"
    vrng = np.random.default_rng(3)
    vec_path.write_text("".join(w + " " + " ".join(f"{v:.6f}" for v in vrng.normal(size=8)) + "\n"
                                for w in VOCAB))
    measures = ("wbsm-rada", "ubsm-jc", "com", "swem:mean")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main(["grid", "--dataset", f"t={path}", *(f"--measure={m}" for m in measures),
                       "--taxonomy", str(tax_path), "--lexicon", str(lex_path), "--vectors", str(vec_path),
                       "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    assert len(list(out.iterdir())) == len(measures) * 48 + 1
    cfg = PreprocessConfig(stopwords="nltk2018").label().replace("=", "-").replace(",", "_")
    for m in measures:
        assert read_raw_scores(out / f"t__{m.replace(':', '-')}__{cfg}.csv").scores[0] == 0.0


@pytest.mark.parametrize("name", ["../esc", "sub/x", "a\\b", "..", ".", ""])
def test_dataset_names_must_be_one_file_name_component(name, tmp_path, capsys, monkeypatch):
    # rejected before anything loads, so nothing is scored or written
    data = tmp_path / "d.tsv"
    write_dataset(make_dataset(np.random.default_rng(0), 4), data)
    monkeypatch.setattr(bench, "load_plan_datasets", lambda *a: pytest.fail("loaded before the name check"))
    out = tmp_path / "deep" / "out"
    rc = cli.main(["run", "--dataset", f"{name}={data}", "--measure", "block", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: dataset name {name!r} is not one file-name component\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["d.tsv"]


def test_significance_keeps_every_config(tmp_path, rng):
    ds = make_dataset(rng, 40)
    path = tmp_path / "d.tsv"
    write_dataset(ds, path)
    out = tmp_path / "out"
    rc = cli.main(["significance", "--dataset", f"d={path}", "--measure", "block",
                   "--measure", "block @ lowercase=no", "--splits", "4", "--out", str(out)])
    assert rc == 0
    rows = (out / "significance.csv").read_text().splitlines()
    assert len(rows) == 3
    labels = [PreprocessConfig().label(), PreprocessConfig(lowercase=False).label()]
    assert rows[1].startswith(f'"block @ {labels[0]}",')
    assert rows[2].startswith(f'"block @ {labels[1]}",')


def test_significance_degenerate_split_is_an_empty_cell(tmp_path, capsys):
    path = tmp_path / "d.tsv"
    write_dataset(make_dataset(np.random.default_rng(0), 20), path)
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match=r"qgram on 'd' pairs\[0:4\] .*zero variance"):
        rc = cli.main(["significance", "--dataset", f"d={path}", "--measure", "block",
                       "--measure", "qgram", "--splits", "5", "--out", str(out)])
    assert rc == 0
    assert (out / "significance.csv").read_text().splitlines() == ["method,block,qgram", "block,,", "qgram,,"]
    assert "some comparisons were degenerate" in capsys.readouterr().out


def test_significance_rejects_one_pair_splits_before_scoring(tmp_path, capsys, monkeypatch):
    path = tmp_path / "d.tsv"
    write_dataset(make_dataset(np.random.default_rng(0), 20), path)
    args = ["significance", "--dataset", f"d={path}", "--measure", "jaccard",
            "--measure", "block", "--out", str(tmp_path / "out")]
    with monkeypatch.context() as m:
        m.setattr(bench, "score_runs", lambda *a: pytest.fail("scored before the --splits check"))
        assert cli.main([*args, "--splits", "11"]) == 1
    assert ("error: --splits 11 is too many for dataset 'd' of 20 pairs: "
            "each split needs at least 2 pairs, so at most 10 splits") in capsys.readouterr().err
    assert cli.main([*args, "--splits", "10"]) == 0
    assert (tmp_path / "out" / "significance.csv").is_file()


@pytest.mark.parametrize("splits", ["1", "0", "-1"])
def test_significance_rejects_fewer_than_one_split_before_scoring(tmp_path, capsys, monkeypatch, splits):
    path = tmp_path / "d.tsv"
    write_dataset(make_dataset(np.random.default_rng(0), 20), path)
    monkeypatch.setattr(bench, "score_runs", lambda *a: pytest.fail("scored before the --splits check"))
    assert cli.main(["significance", "--dataset", f"d={path}", "--measure", "jaccard",
                     "--splits", splits, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (f"error: --splits {splits} is too few: a paired t-test needs at least "
                                       "2 split scores, so it must be at least 2, and at most 10 for "
                                       "dataset 'd' of 20 pairs\n")


@pytest.mark.parametrize("repeats", ["2", "0", "-1"])
def test_throughput_rejects_fewer_than_three_repeats_before_any_load(tmp_path, capsys, monkeypatch, repeats):
    path = tmp_path / "d.tsv"
    write_dataset(make_dataset(np.random.default_rng(0), 20), path)
    monkeypatch.setattr(bench, "validate_plan", lambda *a: pytest.fail("loaded before the --repeats check"))
    assert cli.main(["throughput", "--dataset", f"d={path}", "--measure", "block",
                     "--repeats", repeats]) == 1
    assert capsys.readouterr().err == f"error: repeats must be >= 3, got {repeats}\n"


def test_significance_rejects_a_dataset_too_small_to_split(tmp_path, capsys, monkeypatch):
    path = tmp_path / "d.tsv"
    write_dataset(make_dataset(np.random.default_rng(0), 3), path)
    monkeypatch.setattr(bench, "score_runs", lambda *a: pytest.fail("scored before the --splits check"))
    assert cli.main(["significance", "--dataset", f"d={path}", "--measure", "jaccard",
                     "--splits", "1", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ("error: dataset 'd' of 3 pairs is too small for a significance test: "
                                       "a paired t-test needs at least 2 splits of at least 2 pairs each\n")


def test_significance_names_a_dataset_of_one_pair_in_the_singular(tmp_path, capsys, monkeypatch):
    path = tmp_path / "one.tsv"
    write_dataset(make_dataset(np.random.default_rng(0), 1), path)
    monkeypatch.setattr(bench, "score_runs", lambda *a: pytest.fail("scored before the size check"))
    assert cli.main(["significance", "--dataset", f"d={path}", "--measure", "block",
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ("error: dataset 'd' of 1 pair is too small for a significance test: "
                                       "a paired t-test needs at least 2 splits of at least 2 pairs each\n")


def test_significance_warns_once_per_dataset(tmp_path, rng):
    tax_path, lex_path = _onto_files(tmp_path)
    path = tmp_path / "d.tsv"
    write_dataset(make_dataset(rng, 20), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["significance", "--dataset", f"d={path}", "--measure", "ubsm-rada",
                       "--taxonomy", str(tax_path), "--lexicon", str(lex_path),
                       "--splits", "4", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert [str(w.message).split(":")[0] for w in caught
            if "no sentence has annotations" in str(w.message)] == ["ubsm-rada on 'd'"]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(8, 30), k=st.integers(1, 4),
       measure=st.sampled_from(bench.STRING_MEASURES), config=st.sampled_from(full_grid()))
def test_sliced_h_equals_h_of_the_part_scored_alone(seed, n, k, measure, config):
    ds = make_dataset(np.random.default_rng(seed), n)
    scorer = PairScorer(measure, config, Resources())
    human = ds.human_scores()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # degenerate parts and emptied sentences warn
        whole = next(bench.score_runs([scorer], [ds]))
        for part in uniform_split(n, k):
            alone = Dataset(ds.name, ds.pairs[part])
            [[row_alone]] = bench.report_rows(*next(bench.score_runs([scorer], [alone])), alone.human_scores())
            [[row_sliced]] = bench.report_rows(*whole, human, [part])
            assert np.float64(row_sliced.h).tobytes() == np.float64(row_alone.h).tobytes()


def test_plan_rejects_unknown_keys(tmp_path, rng, capsys):
    path = tmp_path / "d.tsv"
    write_dataset(make_dataset(rng, 10), path)
    for line in ("tokeniser = treebank-rules", "threads = 4"):
        plan_file = tmp_path / "plan.txt"
        plan_file.write_text(f"dataset.d = {path}\nmeasure = block\n{line}\n", encoding="utf-8")
        assert cli.main(["validate", "--plan", str(plan_file)]) == 1
        key = line.split(" = ")[0]
        assert f"unknown plan key {key!r}" in capsys.readouterr().err


def test_unknown_plan_key_is_an_error_at_its_line(tmp_path, capsys):
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("dataset.d = d.tsv\n# a comment\nmeasure = block\ntokeniser = treebank-rules\n",
                         encoding="utf-8")
    assert cli.main(["validate", "--plan", str(plan_file)]) == 1
    assert capsys.readouterr().err == f"error: {plan_file}:4: unknown plan key 'tokeniser'\n"


def test_report_csv_quotes_dataset_names(tmp_path):
    import csv
    report = bench.EvalReport([bench.ReportRow("a,b", "block", "cfg", 0.5, 0.25, 1 / 3)])
    path = tmp_path / "report.csv"
    report.write_csv(path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["a,b", "block", "cfg", "0.500000", "0.250000", "0.333333"]
    # an ordinary name is written as before: unquoted, with the config label quoted
    report = bench.EvalReport([bench.ReportRow("d", "block", PreprocessConfig().label(), 0.5, 0.25, 1 / 3)])
    report.write_csv(path)
    assert path.read_bytes().splitlines()[1] == (
        b'd,block,"ner=none,tok=whitespace,lc=yes,cf=none,sw=none",0.500000,0.250000,0.333333')


def test_validate_checks_lexicon_against_taxonomy(tmp_path, rng, capsys):
    path = tmp_path / "d.tsv"
    write_dataset(make_dataset(rng, 10), path)
    tax_path, lex_path = _onto_files(tmp_path, extra_lexicon="zebra\tmissing-concept\n")
    rc = cli.main(["validate", "--dataset", f"d={path}", "--measure", "wbsm-rada",
                   "--taxonomy", str(tax_path), "--lexicon", str(lex_path)])
    assert rc == 1
    assert "'missing-concept'" in capsys.readouterr().err


def test_scorers_share_one_word_measure_per_kind(tmp_path, rng, monkeypatch):
    built = []

    class Counting(ontosim.WordSimMeasure):
        def __init__(self, kind, *args):
            built.append(kind)
            super().__init__(kind, *args)

    monkeypatch.setattr(ontosim, "WordSimMeasure", Counting)
    tax_path, lex_path = _onto_files(tmp_path)
    configs = [PreprocessConfig(), PreprocessConfig(lowercase=False)]
    plan, _ = _plan(tmp_path, rng, [MeasureSpec(m, configs) for m in ("wbsm-rada", "ubsm-rada", "com", "wbsm-jc")],
                    taxonomy=tax_path, lexicon=lex_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the unannotated concept view warns
        bench.run(plan)
    assert sorted(built) == ["jiang-conrath", "rada"]


def test_annotations_view_without_annotations_warns_once(tmp_path, rng):
    tax_path, lex_path = _onto_files(tmp_path)
    measures = [MeasureSpec("ubsm-rada", [PreprocessConfig(), PreprocessConfig(lowercase=False)]),
                MeasureSpec("wbsm-rada", [PreprocessConfig()])]
    plan, _ = _plan(tmp_path, rng, measures, taxonomy=tax_path, lexicon=lex_path)
    with pytest.warns(UserWarning, match="no sentence has annotations") as caught:
        bench.run(plan)
    assert [str(w.message).split(":")[0] for w in caught
            if "no sentence has annotations" in str(w.message)] == ["ubsm-rada on 'data'"]

    ann_path = tmp_path / "ann.tsv"
    ann_path.write_text("0\ts1\t0\t1\tC0001\n", encoding="utf-8")
    plan.annotations = {"data": ann_path}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bench.run(plan)
    assert not [w for w in caught if "annotations" in str(w.message)]


def test_ubsm_and_com_score_their_views_bit_for_bit(tmp_path, rng):
    from dataclasses import replace
    # each sentence's first word is annotated with a code "c-<i>": treebank
    # rules split it at the hyphen, so the two tokenizers give equal ner=none
    # tables but different ner=annotations ones
    tax_path, lex_path = _onto_files(tmp_path, extra_lexicon="".join(f"c-{i}\tc{i}\n" for i in range(30)))
    configs = [PreprocessConfig(), PreprocessConfig(tokenizer="treebank-rules"),
               PreprocessConfig(lowercase=False)]
    plan, ds = _plan(tmp_path, rng, [MeasureSpec(m, configs) for m in ("ubsm-rada", "com")],
                     taxonomy=tax_path, lexicon=lex_path)
    ann_path = tmp_path / "ann.tsv"
    ann_path.write_text("".join(f"{row}\t{side}\t0\t{len(s.text.split()[0])}\tC-{(row + j) % 30}\n"
                                for row, p in enumerate(ds.pairs)
                                for j, (side, s) in enumerate((("s1", p.s1), ("s2", p.s2)))),
                        encoding="utf-8")
    plan.annotations = {"data": ann_path}
    runs, _ = bench.run(plan)
    [annotated] = bench.load_plan_datasets(plan).values()

    words = ontosim.WordSimMeasure("rada", ontosim.load_taxonomy(tax_path), ontosim.load_lexicon(lex_path))

    def view(cfg, ner):
        return [(preprocess(p.s1, replace(cfg, ner=ner)), preprocess(p.s2, replace(cfg, ner=ner)))
                for p in annotated.pairs]

    def wbsm(cfg, ner):
        return [ontosim.wbsm(a, b, words) for a, b in view(cfg, ner)]

    assert view(configs[0], "none") == view(configs[1], "none")
    assert view(configs[0], "annotations") != view(configs[1], "annotations")
    expected = {}
    for cfg in configs:
        expected["ubsm-rada", cfg.label()] = wbsm(cfg, "annotations")
        expected["com", cfg.label()] = [ontosim.com(w, u)
                                        for w, u in zip(wbsm(cfg, "none"), wbsm(cfg, "annotations"))]
    for m in ("ubsm-rada", "com"):  # a memo keyed on the ner=none tables would give these equal rows
        assert expected[m, configs[0].label()] != expected[m, configs[1].label()]
    assert len(runs) == 2 * len(configs)
    for run in runs:
        want = expected[run.measure_id, run.preprocess_config]
        assert np.array(run.scores).tobytes() == np.array(want).tobytes()


_WBSM_FIRST = ("wbsm-rada", "ubsm-rada", "com"), [0, 1, 2]
_COM_FIRST = ("com", "ubsm-rada", "wbsm-rada"), [2, 0, 1]  # runs come in scoring order


@pytest.mark.parametrize("annotated, calls, n_rows, measures, order", [
    pytest.param(False, 20, 1, *_WBSM_FIRST, id="False-20-1"),
    pytest.param(True, 40, 3, *_WBSM_FIRST, id="True-40-3"),
    pytest.param(False, 20, 1, *_COM_FIRST, id="False-20-1-com-first"),
    pytest.param(True, 40, 3, *_COM_FIRST, id="True-40-3-com-first"),
])
def test_wbsm_measures_score_each_table_once(tmp_path, monkeypatch, annotated, calls, n_rows, measures, order):
    # wbsm-rada, ubsm-rada and com share one kernel: without annotations both
    # views are one table, scored once, and com's combined row, 0.5 * w +
    # 0.5 * w, is that row w bit for bit, so the matrix has one row. Listed
    # first, com's own reads fill the rows that the other two reuse, and its
    # run comes when its last view, ner=annotations, is scored
    from dataclasses import replace
    from stsbench.core import Annotation, SentencePair
    tax_path, lex_path = _onto_files(tmp_path)
    plan, ds = _plan(tmp_path, np.random.default_rng(3), [MeasureSpec(m, [PreprocessConfig()])
                                                           for m in measures],
                     n_pairs=20, taxonomy=tax_path, lexicon=lex_path)
    if annotated:
        ds = Dataset(ds.name, tuple(SentencePair(replace(p.s1, annotations=(Annotation(0, 1, "C0001"),)), p.s2,
                                                 p.human_score) for p in ds.pairs))
    scorers = validate_plan(plan)
    counted = []
    svs = ontosim.semantic_vector_sim
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the unannotated concept view warns
        alone = [[run.scores for _, run, _, _ in next(bench.score_runs([s], [ds]))[1]] for s in scorers]
        monkeypatch.setattr(ontosim, "semantic_vector_sim", lambda *a: counted.append(1) or svs(*a))
        matrix, runs = next(bench.score_runs(scorers, [ds]))
    assert (len(counted), len(matrix)) == (calls, n_rows)
    assert [k for k, _, _, _ in runs] == order
    assert [[run.scores] for _, run, _, _ in runs] == [alone[k] for k in order]


# Templates that make the grid's options matter on ``make_dataset`` text:
# capitals for lower-casing, punctuation for the tokenizers and char
# filters (``%`` only for ``cf=biosses``), stop words for the stop-word lists.
_MARKED = ("The {}.", "{} of IL-2 (5%)", "{}-binding, not [x]", "A {}: p<0.05", "{}")


def _marked_dataset(rng, n_pairs: int, name: str, templates=_MARKED) -> Dataset:
    """``make_dataset`` pairs in marked templates, the second sentence led by a
    random prefix of the first, each human score the Jaccard index of the two
    word sets, so that no grid config's correlations are degenerate."""
    from stsbench.core import RawSentence, SentencePair
    pairs = []
    for pair in make_dataset(rng, n_pairs, name).pairs:
        w1 = pair.s1.text.split()
        w2 = w1[:int(rng.integers(len(w1) + 1))] + pair.s2.text.split()
        s1, s2 = (RawSentence(templates[int(rng.integers(len(templates)))].format(
            w[0].capitalize() + " " + " ".join(w[1:]) if rng.random() < 0.5 else " ".join(w)))
                  for w in (w1, w2))
        pairs.append(SentencePair(s1, s2, len(set(w1) & set(w2)) / len(set(w1) | set(w2))))
    return Dataset(name, tuple(pairs))


# sha256 over the name and bytes of every file of the grid run below: each
# raw-score CSV and report.csv. A change that moves one byte of a score, a
# statistic or their formatting changes it.
GRID_DIGEST = "3780ae4b0a3b615663c43d7e6b78665c6690517c749c40b91f0cbd3b80173892"


def test_grid_output_digest(tmp_path):
    import hashlib
    rng = np.random.default_rng(11)
    args = ["grid", "--out", str(tmp_path / "out")]
    for name, n in (("a", 30), ("b", 20)):
        path = tmp_path / f"{name}.tsv"
        write_dataset(_marked_dataset(rng, n, name), path)
        args += ["--dataset", f"{name}={path}"]
    for m in bench.STRING_MEASURES:  # the five token measures and levenshtein
        args += ["--measure", m]
    assert cli.main(args) == 0
    digest = hashlib.sha256()
    files = sorted((tmp_path / "out").iterdir())
    assert len(files) == 2 * 6 * 48 + 1
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == GRID_DIGEST


# sha256 over the stdout of the three commands below, the output directory
# written as OUT, and over significance.csv and error_kde.csv, whose bytes
# GRID_DIGEST does not cover.
COMMANDS_DIGEST = "6f943c0d5c6bf0ca43eafd0faca5c7001cd5abf739dbbf8ab6eba1bb72b781c0"


def test_grid_stdout_significance_and_error_kde_digest(tmp_path, capsys):
    import hashlib
    path = tmp_path / "a.tsv"
    write_dataset(_marked_dataset(np.random.default_rng(12), 40, "a"), path)
    data = ["--dataset", f"a={path}"]
    fixed = ["--char-filter", "default", "--stopwords", "nltk2018"]
    measures = [a for m in bench.STRING_MEASURES for a in ("--measure", m)]
    digest = hashlib.sha256()
    for argv, written in (
        (["grid", *data, "--measure", "block", "--measure", "jaccard", "--measure", "levenshtein"], None),
        (["significance", *data, *measures, "--measure", "block @ lowercase=no", *fixed, "--splits", "5"],
         "significance.csv"),
        (["error-analysis", *data, "--measure", "liblock", *fixed], "error_kde.csv"),
    ):
        out = tmp_path / argv[0]
        assert cli.main([*argv, "--out", str(out)]) == 0
        digest.update(capsys.readouterr().out.replace(str(out), "OUT").encode())
        if written:
            digest.update((out / written).read_bytes())
    assert digest.hexdigest() == COMMANDS_DIGEST


def test_grid_scores_each_distinct_token_table_once(tmp_path, monkeypatch):
    from collections import Counter
    from dataclasses import replace
    from stsbench import strsim
    from stsbench.preprocess import token_tables
    # no symbol that only cf=biosses deletes, so cf=default and cf=biosses agree
    ds = _marked_dataset(np.random.default_rng(3), 15, "d", ("The {}.", "{}-binding, not [x]", "{}"))
    path = tmp_path / "d.tsv"
    write_dataset(ds, path)
    calls = Counter()
    lev_pairs = Counter()  # each pair of texts that Levenshtein scored
    for name in ("token_pair_scores", "levenshtein_pair_scores"):
        def counted(*args, _fn=getattr(strsim, name), _name=name):
            calls[_name] += 1
            if _name == "levenshtein_pair_scores":
                texts, pairs = args
                lev_pairs.update((texts[a], texts[b]) for a, b in pairs)
            return _fn(*args)
        monkeypatch.setattr(strsim, name, counted)
    plan = BenchmarkPlan({"d": path}, [MeasureSpec(m, full_grid()) for m in bench.STRING_MEASURES],
                         out_dir=tmp_path / "out")
    runs, _ = bench.run(plan)
    files = {(r.measure_id, r.preprocess_config): plan.out_dir / bench._run_file_name(r) for r in runs}

    sentences = list(dict.fromkeys(s for p in ds.pairs for s in (p.s1, p.s2)))
    index = {s: i for i, s in enumerate(sentences)}
    tables = {cfg: (t.lengths.tobytes(), t.ids.tobytes()) for cfg, t in token_tables(sentences, full_grid())}
    distinct = len(set(tables.values()))
    assert distinct < 48
    # Levenshtein scores each distinct pair of texts once, and a table only if it brings a new one
    seen, new_tables = set(), 0
    for cfg in full_grid():
        texts = [" ".join(preprocess(s, cfg)) for s in sentences]
        keys = {(texts[index[p.s1]], texts[index[p.s2]]) for p in ds.pairs}
        new_tables += not keys <= seen
        seen |= keys
    assert calls == {"token_pair_scores": distinct, "levenshtein_pair_scores": new_tables}
    assert set(lev_pairs) == seen and set(lev_pairs.values()) == {1}
    assert len(seen) < distinct * len(ds.pairs)  # tables that differ share pairs
    for cfg in full_grid():
        if cfg.char_filter == "default":
            twin = replace(cfg, char_filter="biosses")
            assert tables[cfg] == tables[twin]
            for m in bench.STRING_MEASURES:
                assert files[m, cfg.label()].read_bytes() == files[m, twin.label()].read_bytes()


def _grid_files(plan: BenchmarkPlan) -> dict[tuple[str, str, str], tuple[Path, str, int]]:
    """Run a plan: for each (dataset, measure, config label), the run's
    raw-score file, its text and the row of its dataset's score matrix."""
    runs, _ = bench.run(plan)
    scorers = validate_plan(plan)
    rows = {}
    for name, ds in bench.load_plan_datasets(plan).items():
        rows.update({(name, k): row for k, _, row, _ in next(bench.score_runs(scorers, [ds]))[1]})
    order = [(k, name) for k in range(len(scorers)) for name in plan.datasets]
    return {(name, run.measure_id, run.preprocess_config):
            (plan.out_dir / bench._run_file_name(run), raw_scores_text(run.scores), rows[name, k])
            for (k, name), run in zip(order, runs)}


def _linked_grid_plan(tmp_path, measures=bench.STRING_MEASURES) -> BenchmarkPlan:
    # no symbol that only cf=biosses deletes, so cf=default and cf=biosses share rows
    rng = np.random.default_rng(3)
    paths = {}
    for name, n in (("a", 15), ("b", 10)):
        paths[name] = tmp_path / f"{name}.tsv"
        write_dataset(_marked_dataset(rng, n, name, ("The {}.", "{}-binding, not [x]", "{}")), paths[name])
    return BenchmarkPlan(paths, [MeasureSpec(m, full_grid()) for m in measures], out_dir=tmp_path / "out")


def test_grid_links_the_files_of_one_score_row(tmp_path):
    files = _grid_files(_linked_grid_plan(tmp_path))
    assert len(files) == 2 * 6 * 48
    inodes = {}  # (dataset, row) -> the inodes of its files
    for (name, _, _), (path, text, row) in files.items():
        assert path.read_bytes() == text.encode()
        inodes.setdefault((name, row), set()).add(path.stat().st_ino)
    # one inode per row of a dataset, none shared by two rows or two datasets
    assert all(len(group) == 1 for group in inodes.values())
    assert len(set().union(*inodes.values())) == len(inodes) < len(files)


def test_rewriting_an_out_dir_never_writes_through_a_link(tmp_path):
    from dataclasses import replace
    plan = _linked_grid_plan(tmp_path, ("qgram",))
    first = _grid_files(plan)
    cfg = next(c for c in full_grid() if c.char_filter == "biosses" and c.tokenizer == "treebank-rules")
    twin, default = (first["a", "qgram", c.label()][0] for c in (cfg, replace(cfg, char_filter="default")))
    assert twin.stat().st_ino == default.stat().st_ino
    before = {path: path.read_bytes() for path, _, _ in first.values()}
    # dataset a again, now with '%' in its text, a token that only cf=biosses deletes
    write_dataset(_marked_dataset(np.random.default_rng(4), 15, "a"), plan.datasets["a"])
    only_a = replace(plan, datasets={"a": plan.datasets["a"]})
    second = _grid_files(replace(only_a, measures=[MeasureSpec("qgram", [cfg])]))
    [(path, text, _)] = second.values()
    assert path == twin and twin.read_bytes() == text.encode() != before[twin]
    # the file that shared twin's inode keeps its bytes, as does every other
    assert all(path.read_bytes() == data for path, data in before.items() if path != twin)
    for path, text, _ in _grid_files(only_a).values():
        assert path.read_bytes() == text.encode()
    assert default.read_bytes() != twin.read_bytes()


def test_grid_without_hard_links_writes_the_same_bytes(tmp_path, monkeypatch):
    import errno
    from dataclasses import replace
    plan = _linked_grid_plan(tmp_path)
    linked = [path for path, _, _ in _grid_files(plan).values()]

    def refuse(*args):
        raise OSError(errno.EPERM, "operation not permitted")
    monkeypatch.setattr(os, "link", refuse)
    copied = [path for path, _, _ in _grid_files(replace(plan, out_dir=tmp_path / "copied")).values()]
    assert [p.name for p in copied] == [p.name for p in linked]
    assert [p.read_bytes() for p in copied] == [p.read_bytes() for p in linked]
    assert len({p.stat().st_ino for p in copied}) == len(copied)


def test_pair_memo_scores_each_distinct_pair_once_per_kernel(tmp_path, monkeypatch):
    # the first pairs come again with a full stop after each sentence: under
    # cf=default that table differs from cf=none's, yet every one of its pairs
    # was scored under cf=none; the other sentences are equal under every filter
    from collections import Counter
    from conftest import VOCAB
    from stsbench import strsim, vecsim
    from stsbench.core import RawSentence, SentencePair
    base = make_dataset(np.random.default_rng(4), 12, "d")
    ds = Dataset("d", base.pairs + tuple(SentencePair(RawSentence(p.s1.text + "."), RawSentence(p.s2.text + "."),
                                                      p.human_score) for p in base.pairs[:4]))
    tax_path, lex_path = _onto_files(tmp_path)
    vrng = np.random.default_rng(3)
    resources = Resources(vectors=vecsim.VectorModel(8, {w: vrng.normal(size=8) for w in VOCAB}),
                          taxonomy=ontosim.load_taxonomy(tax_path), lexicon=ontosim.load_lexicon(lex_path))
    configs = [PreprocessConfig(char_filter=cf) for cf in ("none", "default", "blagec2019")]
    kernels = {"levenshtein": "levenshtein", "wbsm-rada": "rada", "ubsm-rada": "rada", "com": "rada",
               "wbsm-jc": "jiang-conrath", "swem:mean": "swem:mean", "swem:max": "swem:max"}
    scorers = [PairScorer(m, cfg, resources) for m in kernels for cfg in configs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the unannotated concept view warns
        alone = [next(bench.score_runs([s], [ds]))[1][0][1].scores for s in scorers]

    scored = Counter()  # (kernel, first sequence, second sequence)
    lev_calls = []
    lev, wbsm, swem = strsim.levenshtein_pair_scores, ontosim.wbsm, vecsim.swem_sim

    def counted_lev(texts, pairs):
        lev_calls.append(len(pairs))
        scored.update(("levenshtein", texts[a], texts[b]) for a, b in pairs)
        return lev(texts, pairs)

    monkeypatch.setattr(strsim, "levenshtein_pair_scores", counted_lev)
    monkeypatch.setattr(ontosim, "wbsm", lambda a, b, words: scored.update([(words.kind, a, b)]) or wbsm(a, b, words))
    monkeypatch.setattr(vecsim, "swem_sim", lambda a, b, model, mode: scored.update([("swem:" + mode, a, b)])
                        or swem(a, b, model, mode))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, runs = next(bench.score_runs(scorers, [ds]))

    views = {cfg: [(preprocess(p.s1, cfg), preprocess(p.s2, cfg)) for p in ds.pairs] for cfg in configs}
    none, default, _ = views.values()
    assert default != none and set(default) < set(none)
    expected = {(k, *(tuple(map(" ".join, pair)) if k == "levenshtein" else pair))
                for k in set(kernels.values()) for cfg in configs for pair in views[cfg]}
    assert set(scored) == expected and set(scored.values()) == {1}
    # cf=none brings every pair, so the other tables make no Levenshtein call
    assert lev_calls == [len(set(none))]
    assert len(runs) == len(scorers)
    for k, run, _, _ in runs:
        assert np.array(run.scores).tobytes() == np.array(alone[k]).tobytes()


def test_scoring_a_plan_of_datasets_gives_each_what_it_gets_alone(tmp_path, monkeypatch):
    # a: no "%", so cf=default and cf=biosses give it equal tables, and no
    # annotations, so the ner=annotations view is its text; b: "%" and
    # annotations; c: no annotations either, and a sentence of a and of b
    from collections import Counter
    from dataclasses import replace
    from conftest import VOCAB
    from stsbench import strsim, vecsim
    from stsbench.core import Annotation, RawSentence, SentencePair
    from stsbench.preprocess import token_tables
    rng = np.random.default_rng(8)
    a = _marked_dataset(rng, 12, "a", ("The {}.", "{}-binding, not [x]", "{}"))
    a = Dataset("a", a.pairs + (SentencePair(RawSentence("The of"), RawSentence("gene of"), 0.4),))
    b = _marked_dataset(rng, 10, "b")
    b = Dataset("b", tuple(SentencePair(replace(p.s1, annotations=(Annotation(0, 1, f"C{i % 3}"),)), p.s2,
                                        p.human_score) for i, p in enumerate(b.pairs)))
    c = Dataset("c", (SentencePair(a.pairs[0].s1, b.pairs[0].s2, 0.7),) + make_dataset(rng, 8, "c").pairs)
    datasets = [a, b, c]

    tax_path, lex_path = _onto_files(tmp_path)
    resources = Resources(vectors=vecsim.VectorModel(8, {w: rng.normal(size=8) for w in VOCAB}),
                          taxonomy=ontosim.load_taxonomy(tax_path), lexicon=ontosim.load_lexicon(lex_path))
    configs = [PreprocessConfig(tokenizer=tok, char_filter=cf, stopwords=sw)
               for tok in ("whitespace", "treebank-rules") for cf in ("none", "default", "biosses")
               for sw in ("none", "nltk2018")]
    concept = [replace(cfg, ner="annotations") for cfg in configs[:4]]
    scorers = ([PairScorer(m, cfg, resources) for m in bench.STRING_MEASURES for cfg in configs]
               + [PairScorer(m, cfg, resources) for m in ("jaccard", "levenshtein") for cfg in concept]
               + [PairScorer(m, cfg, resources) for m in ("com", "swem:mean") for cfg in configs[:2]])

    def twin(ds, cfg):  # the tables of cfg and of its cf=biosses twin on ds
        return [[(preprocess(p.s1, c), preprocess(p.s2, c)) for p in ds.pairs]
                for c in (cfg, replace(cfg, char_filter="biosses"))]

    collapsing = configs[2]  # tok=whitespace, cf=default, sw=none
    assert twin(a, collapsing)[0] == twin(a, collapsing)[1] and twin(b, collapsing)[0] != twin(b, collapsing)[1]
    assert a.pairs[0].s1 in {s for p in c.pairs for s in (p.s1, p.s2)}

    def scored(group):
        """Each dataset's matrix, runs and empty counts, bit for bit, and the warnings in order."""
        out = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for ds, (matrix, runs) in zip(group, bench.score_runs(scorers, group)):
                bench.report_rows(matrix, runs, ds.human_scores())
                out.append((matrix.shape, matrix.tobytes(),
                            [(k, run.dataset_name, run.measure_id, run.preprocess_config,
                              np.array(run.scores).tobytes(), row, empty) for k, run, row, empty in runs]))
        return out, [str(w.message) for w in caught]

    calls = Counter()
    kernel = strsim.token_pair_scores
    monkeypatch.setattr(strsim, "token_pair_scores", lambda *args: calls.update(["token"]) or kernel(*args))
    alone = [scored([ds]) for ds in datasets]
    alone_calls = calls.pop("token")
    together, caught = scored(datasets)
    assert together == [out for (out,), _ in alone]
    assert caught == [message for _, messages in alone for message in messages]
    assert sum("no sentence has annotations" in m for m in caught) == 3 * 2  # jaccard, levenshtein, com on a, c
    assert any("empty-input rule" in m for m in caught)
    # the runs of the collapsing config and its twin share a row on a, not on b
    at = {(run[3], run[2], name): run[5] for (_, _, runs), name in zip(together, "abc") for run in runs}
    for name, shared in (("a", True), ("b", False)):
        assert (at[collapsing.label(), "levenshtein", name]
                == at[replace(collapsing, char_filter="biosses").label(), "levenshtein", name]) == shared, name
    # one token kernel call per distinct table of the plan's sentences
    sentences = list(dict.fromkeys(s for ds in datasets for p in ds.pairs for s in (p.s1, p.s2)))
    tables = {(t.lengths.tobytes(), t.ids.tobytes()) for _, t in token_tables(sentences, configs + concept)}
    assert calls["token"] == len(tables) < alone_calls


def test_equal_stage_maps_share_one_key_and_build_once(monkeypatch):
    import functools
    import itertools
    from dataclasses import replace
    from stsbench import preprocess as module
    from stsbench.preprocess import token_tables
    # no symbol that only cf=biosses deletes, so cf=default and cf=biosses map every token alike
    ds = _marked_dataset(np.random.default_rng(3), 15, "d", ("The {}.", "{}-binding, not [x]", "{}"))
    sentences = list(dict.fromkeys(s for p in ds.pairs for s in (p.s1, p.s2)))
    tables = dict(token_tables(sentences, full_grid()))
    for cfg in full_grid():
        if cfg.char_filter == "default":
            assert tables[cfg].key == tables[replace(cfg, char_filter="biosses")].key
    contents = {cfg: (t.lengths.tobytes(), t.ids.tobytes()) for cfg, t in tables.items()}
    for a, b in itertools.combinations(full_grid(), 2):
        if contents[a] != contents[b]:
            assert tables[a].key != tables[b].key
    keys = list(dict.fromkeys(t.key for t in tables.values()))
    assert len(keys) < 48

    # score_runs expands each key's table to ids once, and scores it once
    built = []
    expand = module.TokenTable.__dict__["_expanded"].func
    counted = functools.cached_property(lambda table: built.append(table.key) or expand(table))
    counted.__set_name__(module.TokenTable, "_expanded")
    monkeypatch.setattr(module.TokenTable, "_expanded", counted)
    matrix, runs = next(bench.score_runs([PairScorer("qgram", cfg, Resources()) for cfg in full_grid()], [ds]))
    assert built == keys
    assert len(matrix) == len(keys) and len(runs) == 48


def test_reused_scores_warn_once_per_config(tmp_path):
    from stsbench.core import RawSentence, SentencePair
    # every measure scores each pair 1 under every config, so every
    # config's correlations are degenerate; "The of" empties under a stop list
    pairs = [SentencePair(RawSentence(t), RawSentence(t), h)
             for t, h in (("Cell growth.", 0.2), ("The of", 0.5), ("gene", 0.9))]
    path = tmp_path / "d.tsv"
    write_dataset(Dataset("d", tuple(pairs)), path)
    measures = ("qgram", "levenshtein")
    plan = BenchmarkPlan({"d": path}, [MeasureSpec(m, full_grid()) for m in measures],
                         out_dir=tmp_path / "out")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bench.run(plan)
    expected = []
    for cfg in full_grid():
        for m in measures:
            where = f"{m} on 'd' ({cfg.label()})"
            if cfg.stopwords != "none":
                expected.append(f"{where}: 1 pair(s) with an empty token sequence scored by the empty-input rule")
            expected.append(f"{where}: zero variance: correlation undefined; reporting nan")
    assert [str(w.message) for w in caught] == expected
