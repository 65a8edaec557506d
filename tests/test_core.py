import math
import re
import warnings

import numpy as np
import pytest

from stsbench.core import (
    Annotation,
    BenchmarkRun,
    Dataset,
    DatasetError,
    RawSentence,
    SentencePair,
    attach_annotations,
    load_annotations,
    load_dataset,
    raw_scores_text,
    raw_scores_texts,
    read_lines,
    read_raw_scores,
    write_dataset,
    write_raw_scores,
)


def test_annotation_validation():
    Annotation(0, 4, "C123")
    with pytest.raises(DatasetError):
        Annotation(-1, 4, "C123")
    with pytest.raises(DatasetError):
        Annotation(5, 4, "C123")
    with pytest.raises(DatasetError):
        Annotation(0, 4, "")


def test_annotation_code_with_whitespace_is_an_error_at_its_line(tmp_path):
    # a substituted code must stay one token; "C 15" would tokenize as c, 15
    for code in ("C 15", " C15", "C15\x0c", "C\u200915"):
        with pytest.raises(DatasetError, match="holds whitespace"):
            Annotation(0, 4, code)
    p = tmp_path / "ann.tsv"
    p.write_text("0\ts1\t0\t5\tC1\n1\ts2\t0\t4\tC 15\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=r"ann\.tsv:2: concept code 'C 15' holds whitespace"):
        load_annotations(p)


def test_raw_sentence_span_checks():
    RawSentence("hello world", (Annotation(0, 5, "C1"), Annotation(6, 11, "C2")))
    with pytest.raises(DatasetError):
        RawSentence("short", (Annotation(0, 99, "C1"),))
    with pytest.raises(DatasetError):
        RawSentence("overlapping", (Annotation(0, 5, "C1"), Annotation(3, 8, "C2")))


def test_pair_score_bounds():
    s = RawSentence("x")
    SentencePair(s, s, 0.0)
    SentencePair(s, s, 1.0)
    with pytest.raises(DatasetError):
        SentencePair(s, s, 1.5)
    with pytest.raises(DatasetError):
        SentencePair(s, s, -0.1)


def test_empty_containers_rejected():
    with pytest.raises(DatasetError):
        Dataset("d", ())
    with pytest.raises(DatasetError):
        BenchmarkRun("d", "block", "cfg", ())


def _write(tmp_path, text, name="data.tsv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_dataset_basic(tmp_path):
    p = _write(tmp_path, "a b\tc d\t0.5\ne f\tg h\t1\n")
    ds = load_dataset(p)
    assert ds.name == "data"
    assert len(ds) == 2
    assert ds.pairs[0].s1.text == "a b"
    assert ds.human_scores() == [0.5, 1.0]


def test_load_dataset_header_autodetect(tmp_path):
    p = _write(tmp_path, "sentence1\tsentence2\tscore\na\tb\t0.3\n")
    ds = load_dataset(p, name="named")
    assert ds.name == "named"
    assert len(ds) == 1
    assert ds.pairs[0].human_score == 0.3


def test_load_dataset_header_on_first_non_blank_line(tmp_path):
    p = _write(tmp_path, "\n\r\nsentence1\tsentence2\tscore\na\tb\t0.3\n")
    ds = load_dataset(p)
    assert [(q.s1.text, q.s2.text, q.human_score) for q in ds.pairs] == [("a", "b", 0.3)]
    # only the first non-blank line can be a header
    p = _write(tmp_path, "\na\tb\t0.3\nsentence1\tsentence2\tscore\n")
    with pytest.raises(DatasetError, match=":3: score 'score' is not a number"):
        load_dataset(p)


def test_byte_order_mark_is_not_text(tmp_path):
    p = _write(tmp_path, "\ufeffAlpha beta\tgamma\t0.5\n")
    assert load_dataset(p).pairs[0].s1.text == "Alpha beta"
    p = _write(tmp_path, "\ufeffsentence1\tsentence2\tscore\na\tb\t0.3\n")
    assert len(load_dataset(p)) == 1
    p = _write(tmp_path, "\ufeff0\ts1\t0\t5\tC1\n", name="ann.tsv")
    assert load_annotations(p) == {(0, "s1"): [Annotation(0, 5, "C1")]}


def test_read_lines_ends_lines_at_lf_crlf_and_cr_only(tmp_path):
    p = tmp_path / "t.txt"
    p.write_bytes("\ufeffa\r\nb\x0cc\rd\u2028e\x85f\n\ng".encode())
    assert list(read_lines(p)) == [(1, "a"), (2, "b\x0cc"), (3, "d\u2028e\x85f"), (4, ""), (5, "g")]


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_read_lines_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, end):
    p = tmp_path / "t.txt"
    # the bad byte lies past the first chunk that a text stream decodes
    p.write_bytes("\ufeff".encode() + f"é a\tb\t0.5{end}".encode() * 3000 + f"c\td\t1 \xff{end}".encode("latin-1"))
    for read in (list, load_dataset):
        with pytest.raises(DatasetError, match=rf"^{re.escape(str(p))}:3001: not UTF-8 text$"):
            read(read_lines(p) if read is list else p)
    ann = tmp_path / "ann.tsv"
    ann.write_bytes(b"0\ts1\t0\t1\t\xc3(\n")
    with pytest.raises(DatasetError, match=rf"^{re.escape(str(ann))}:1: not UTF-8 text$"):
        load_annotations(ann)


def test_load_dataset_reads_crlf_and_cr_line_ends(tmp_path):
    for end in ("\r\n", "\r"):
        p = tmp_path / "d.tsv"
        p.write_bytes(end.join(["s1\ts2\tscore", "a\tb\t0.5", "", "c\td\t1"]).encode())
        ds = load_dataset(p)
        assert [(q.s1.text, q.s2.text, q.human_score) for q in ds.pairs] == [("a", "b", 0.5), ("c", "d", 1.0)]


def test_load_dataset_extra_columns_warn(tmp_path):
    p = _write(tmp_path, "a\tb\t0.5\tignored\n")
    with pytest.warns(UserWarning, match="extra trailing columns"):
        ds = load_dataset(p)
    assert len(ds) == 1


def test_load_dataset_minmax_normalization(tmp_path):
    p = _write(tmp_path, "a\tb\t0\nc\td\t2\ne\tf\t4\n")
    with pytest.warns(UserWarning, match="normalizing"):
        ds = load_dataset(p)
    assert ds.human_scores() == [0.0, 0.5, 1.0]


def test_load_dataset_constant_out_of_range_scores(tmp_path):
    p = _write(tmp_path, "a\tb\t3\nc\td\t3\n")
    with pytest.warns(UserWarning):
        ds = load_dataset(p)
    assert ds.human_scores() == [1.0, 1.0]


def test_load_dataset_negative_score_fails_at_its_line(tmp_path):
    p = _write(tmp_path, "s1\ts2\tscore\na\tb\t0.5\nc\td\t-0.5\ne\tf\t-1\n")
    with pytest.raises(DatasetError, match=r"^.*data\.tsv:3: human score -0\.5 outside \[0, 1\]$"):
        load_dataset(p)
    # above 1 the column is min-max normalized, negative scores and all
    with pytest.warns(UserWarning, match="normalizing"):
        assert load_dataset(_write(tmp_path, "a\tb\t-1\nc\td\t3\n")).human_scores() == [0.0, 1.0]


def test_load_dataset_errors(tmp_path):
    with pytest.raises(DatasetError, match=":2:"):
        load_dataset(_write(tmp_path, "a\tb\t0.5\nonly-one-field\n"))
    with pytest.raises(DatasetError, match="not a number"):
        load_dataset(_write(tmp_path, "a\tb\t0.1\nc\td\tNaNope\n", "n.tsv"))
    with pytest.raises(DatasetError, match="no sentence pairs"):
        load_dataset(_write(tmp_path, "s1\ts2\tscore\n", "empty.tsv"))


@pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
def test_load_dataset_rejects_non_finite_scores(tmp_path, score):
    # the error names the file and line, before any min-max normalization
    # (which would warn about a column from [1.0, inf] and then fail on nan)
    p = _write(tmp_path, f"a\tb\t2\nc\td\t{score}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DatasetError, match=rf"data\.tsv:2: score '{score}' is not a finite number"):
            load_dataset(p)
    # a non-finite score on the first line is a data row, not a header
    with pytest.raises(DatasetError, match=":1: .* is not a finite number"):
        load_dataset(_write(tmp_path, f"a\tb\t{score}\n"))


def test_dataset_round_trip(tmp_path):
    p = _write(tmp_path, "a b\tc\t0.25\nd\te f\t0.75\n")
    ds = load_dataset(p)
    out = tmp_path / "copy.tsv"
    write_dataset(ds, out)
    again = load_dataset(out, name=ds.name)
    assert again == ds


def test_annotations_load_and_attach(tmp_path):
    data = _write(tmp_path, "Lung tumour grows\tKras is active\t0.5\n")
    ann = _write(tmp_path, "# comment\n0\ts1\t0\t11\tC0280089\n0\ts2\t0\t4\tC1537502\n", "ann.tsv")
    ds = attach_annotations(load_dataset(data), load_annotations(ann))
    assert ds.pairs[0].s1.annotations == (Annotation(0, 11, "C0280089"),)
    assert ds.pairs[0].s2.annotations == (Annotation(0, 4, "C1537502"),)


def test_annotations_errors(tmp_path):
    with pytest.raises(DatasetError, match="5 fields"):
        load_annotations(_write(tmp_path, "0\ts1\t0\t4\n", "a1.tsv"))
    with pytest.raises(DatasetError, match="s1 or s2"):
        load_annotations(_write(tmp_path, "0\ts3\t0\t4\tC1\n", "a2.tsv"))
    with pytest.raises(DatasetError, match="overlapping"):
        load_annotations(_write(tmp_path, "0\ts1\t0\t4\tC1\n0\ts1\t2\t6\tC2\n", "a3.tsv"))
    with pytest.raises(DatasetError):
        load_annotations(_write(tmp_path, "0\ts1\tzero\t4\tC1\n", "a4.tsv"))


def test_attach_unknown_row(tmp_path):
    ds = load_dataset(_write(tmp_path, "a\tb\t0.5\n"))
    with pytest.raises(DatasetError, match="unknown row"):
        attach_annotations(ds, {(3, "s1"): [Annotation(0, 1, "C1")]})


def test_raw_scores_round_trip_bit_exact(tmp_path):
    scores = (0.1 + 0.2, 1 / 3, math.pi / 4, 0.0, 1.0)
    run = BenchmarkRun("d", "block", "cfg", scores)
    p = tmp_path / "scores.csv"
    write_raw_scores(run, p, raw_scores_text(run.scores))
    back = read_raw_scores(p, "d", "block", "cfg")
    assert back.scores == scores
    assert back == run


def test_write_raw_scores_links_like_and_unlinks_first(tmp_path):
    run = BenchmarkRun("d", "block", "cfg", (0.5, 1 / 3))
    text = raw_scores_text(run.scores)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_raw_scores(run, first, text)
    write_raw_scores(run, second, text, like=first)
    assert second.stat().st_ino == first.stat().st_ino
    # a rewrite replaces the file under its name and leaves the linked one as it was
    other = BenchmarkRun("d", "block", "cfg", (0.25, 0.75))
    write_raw_scores(other, second, raw_scores_text(other.scores))
    assert second.stat().st_ino != first.stat().st_ino
    assert read_raw_scores(first, "d", "block", "cfg") == run
    assert read_raw_scores(second, "d", "block", "cfg") == other
    # a link that cannot be made is a plain write; a write that fails names the path
    write_raw_scores(run, tmp_path / "third.csv", text, like=tmp_path / "missing.csv")
    assert (tmp_path / "third.csv").read_bytes() == text.encode()
    with pytest.raises(DatasetError, match="cannot write raw scores to .*nodir"):
        write_raw_scores(run, tmp_path / "nodir" / "x.csv", text, like=first)


def test_raw_scores_texts_render_each_float_by_its_bits(tmp_path):
    # 0.0 == -0.0, so a render keyed on the value gives one of them the other's text
    tiny = 5e-324
    rows = [(0.0, -0.0, math.nan, tiny, 1.0, 1 / 3),
            (-0.0, 0.0, 1 / 3, 1.0, tiny, math.nan),
            (1 / 3, 1 / 3, -0.0, -0.0, 0.1 + 0.2, 0.0)]
    texts = raw_scores_texts(np.array(rows))
    assert texts == [raw_scores_text(row) for row in rows]
    assert texts[1].splitlines()[1:3] == ["0,-0", "1,0"]
    for row, text in zip(rows, texts):
        p = tmp_path / "scores.csv"
        write_raw_scores(BenchmarkRun("d", "block", "cfg", row), p, text)
        back = np.array(read_raw_scores(p).scores)
        assert np.array_equal(back, np.array(row), equal_nan=True)
        assert np.signbit(back).tolist() == np.signbit(row).tolist()


def test_raw_scores_header_check(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("index,value\n0,0.5\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="unexpected header"):
        read_raw_scores(p)


def test_raw_scores_bad_row_names_its_file_and_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("pair_index,score\n0,0.5\n1,abc\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=r"bad\.csv:3: score 'abc' is not a number"):
        read_raw_scores(p)
    p.write_text("pair_index,score\n0,0.5\n1\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=r"bad\.csv:3: malformed row \['1'\]"):
        read_raw_scores(p)
