import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, random_dag
from stsbench import bench, cli, ontosim
from stsbench.bench import (
    BenchmarkPlan,
    MeasureSpec,
    PairScorer,
    PlanError,
    Resources,
    best_config,
    known_measure,
    score_dataset,
    throughput,
    validate_plan,
)
from stsbench.core import Dataset, read_raw_scores, write_dataset
from stsbench.ontosim import Taxonomy
from stsbench.preprocess import PreprocessConfig, full_grid, preprocess
from stsbench.stats import harmonic, uniform_split
from stsbench.strsim import liblock_sim


def test_known_measure():
    for mid in ("qgram", "jaccard", "block", "liblock", "levenshtein", "overlap",
                "wbsm-rada", "wbsm-jc", "ubsm-rada", "ubsm-jc", "com",
                "swem:mean", "swem:max", "swem:min", "swem:sum"):
        assert known_measure(mid)
    assert not known_measure("cosine")
    assert not known_measure("swem:median")


def test_scorer_matches_direct_composition(rng):
    ds = make_dataset(rng, 20)
    cfg = PreprocessConfig(char_filter="default", stopwords="nltk2018")
    scorer = PairScorer("liblock", cfg, Resources())
    expected = tuple(liblock_sim(preprocess(pair.s1, cfg), preprocess(pair.s2, cfg)) for pair in ds.pairs)
    assert score_dataset(scorer, ds).scores == expected


def test_scorer_resource_requirements():
    cfg = PreprocessConfig()
    with pytest.raises(PlanError, match="word-vector"):
        PairScorer("swem:mean", cfg, Resources())
    with pytest.raises(PlanError, match="taxonomy"):
        PairScorer("wbsm-rada", cfg, Resources())
    with pytest.raises(PlanError, match="unknown measure"):
        PairScorer("bogus", cfg, Resources())


def test_score_dataset_reports_failing_pair(rng):
    ds = make_dataset(rng, 5)
    # a stop-word-only sentence pre-processes to nothing; string measures
    # score it by the empty-input rule, the ontology measures still error
    import dataclasses
    from stsbench.core import RawSentence
    pairs = list(ds.pairs)
    pairs[3] = dataclasses.replace(pairs[3], s1=RawSentence("the of and"))
    ds = dataclasses.replace(ds, pairs=tuple(pairs))
    from conftest import VOCAB
    resources = Resources(taxonomy=Taxonomy(random_dag(np.random.default_rng(5), 30)),
                          lexicon={w: frozenset({f"c{i % 30}"}) for i, w in enumerate(VOCAB)})
    scorer = PairScorer("wbsm-rada", PreprocessConfig(stopwords="nltk2018"), resources)
    with pytest.raises(RuntimeError, match="pair 3"):
        score_dataset(scorer, ds)


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
        best = best_config(report, "block")
    assert best in {c.label() for c in plan.measures[0].configs}
    with pytest.raises(ValueError, match="no rows"):
        best_config(report, "jaccard")


def test_best_config_tie_warns():
    rows = [
        bench.ReportRow("d", "block", "cfgA", 0.5, 0.5, 0.5),
        bench.ReportRow("d", "block", "cfgB", 0.5, 0.5, 0.5),
    ]
    with pytest.warns(UserWarning, match="tie"):
        assert best_config(bench.EvalReport(rows), "block") == "cfgA"


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

    parser_args = type("A", (), {})()
    for k in ("dataset", "annotations", "measure"):
        setattr(parser_args, k, [])
    for k in ("plan", "vectors", "taxonomy", "lexicon", "out",
              "ner", "tokenizer", "lowercase", "char_filter", "stopwords"):
        setattr(parser_args, k, None)
    parser_args.plan = str(plan_file)
    plan = cli.build_plan(parser_args)
    assert plan.measures[0].configs[0].lowercase is False
    inline = plan.measures[1].configs[0]
    assert inline.char_filter == "default"
    assert inline.stopwords == "nltk2018"
    assert inline.lowercase is False  # inherits the plan-level option


def test_plan_file_bad_lines(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("just some words\n", encoding="utf-8")
    with pytest.raises(PlanError, match="key = value"):
        cli.parse_plan_file(p)


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


def test_cli_error_paths(tmp_path, capsys):
    rc = cli.main(["run", "--dataset", "d=/nonexistent.tsv", "--measure", "block"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    rc = cli.main(["validate", "--measure", "block"])
    assert rc == 1


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
        whole = score_dataset(scorer, ds)
        for part in uniform_split(n, k):
            alone = Dataset(ds.name, ds.pairs[part])
            h_alone = bench.report_row(score_dataset(scorer, alone), alone.human_scores()).h
            h_sliced = bench.report_row(whole, human, part).h
            assert np.float64(h_sliced).tobytes() == np.float64(h_alone).tobytes()


def test_plan_rejects_unknown_keys(tmp_path, rng, capsys):
    path = tmp_path / "d.tsv"
    write_dataset(make_dataset(rng, 10), path)
    for line in ("tokeniser = treebank-rules", "threads = 4"):
        plan_file = tmp_path / "plan.txt"
        plan_file.write_text(f"dataset.d = {path}\nmeasure = block\n{line}\n", encoding="utf-8")
        assert cli.main(["validate", "--plan", str(plan_file)]) == 1
        key = line.split(" = ")[0]
        assert f"unknown plan key {key!r}" in capsys.readouterr().err


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
