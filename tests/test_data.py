"""Loading, binning, and tally checks against hand-computed counts."""

from __future__ import annotations

import io
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairbins import data as data_mod
from fairbins.data import (
    BinSpec,
    BinStats,
    BinningError,
    ColumnSchema,
    Dataset,
    RowValidationError,
    SchemaError,
    compute_bin_stats,
    load_dataset,
    quantile_bin,
    validate_overlap,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture()
def tiny():
    return load_dataset(FIXTURES / "tiny.csv")


def test_load_tiny_shape(tiny):
    assert len(tiny) == 40
    assert set(tiny.group.tolist()) == {1, 2}
    assert all(0.0 <= s <= 1.0 for s in tiny.score)


def test_tiny_tallies_match_hand_counts(tiny):
    spec = BinSpec(edges=(0.0, 0.5, 1.0))
    stats = compute_bin_stats(tiny, spec)
    assert stats.n.tolist() == [[10, 10], [10, 10]]
    assert stats.npos.tolist() == [[2, 8], [4, 6]]
    assert stats.group_totals.tolist() == [20, 20]
    assert stats.group_pos.tolist() == [10, 10]
    assert stats.total == 40


def test_comment_lines_skipped():
    text = "# seed=7\nscore,label,group\n0.2,0,a\n0.8,1,b\n"
    obs = load_dataset(io.StringIO(text))
    assert obs.group.tolist() == [1, 2]


def test_missing_column_reports_available():
    text = "s,label,group\n0.2,0,a\n"
    with pytest.raises(SchemaError, match="score"):
        load_dataset(io.StringIO(text))


def test_custom_schema_and_delimiter():
    text = "p,y,sex\n0.3,1,f\n0.6,0,m\n"
    obs = load_dataset(io.StringIO(text), ColumnSchema(score="p", label="y", group="sex"))
    assert list(zip(obs.score.tolist(), obs.label.tolist(), obs.group.tolist())) == [
        (0.3, 1, 1), (0.6, 0, 2)]


def test_bad_rows_identified():
    with pytest.raises(RowValidationError, match="row 1"):
        load_dataset(io.StringIO("score,label,group\n0.2,0,a\n1.5,0,b\n"))
    with pytest.raises(RowValidationError, match="not binary"):
        load_dataset(io.StringIO("score,label,group\n0.2,2,a\n0.3,0,b\n"))
    with pytest.raises(RowValidationError, match="not a number"):
        load_dataset(io.StringIO("score,label,group\nx,0,a\n0.3,0,b\n"))


def test_single_group_rejected():
    with pytest.raises(SchemaError, match="at least 2 groups"):
        load_dataset(io.StringIO("score,label,group\n0.2,0,a\n0.3,1,a\n"))


def test_numeric_groups_sort_numerically():
    text = "score,label,group\n0.1,0,10\n0.2,0,2\n0.3,1,10\n"
    obs = load_dataset(io.StringIO(text))
    # 2 < 10 numerically, so "2" becomes group 1
    assert obs.group.tolist() == [2, 1, 2]


def test_binspec_assignment_half_open():
    spec = BinSpec(edges=(0.0, 0.5, 1.0))
    assert spec.assign([0.0, 0.49, 0.5, 0.99, 1.0]).tolist() == [0, 0, 1, 1, 1]
    assert spec.midpoints.tolist() == [0.25, 0.75]


def test_binspec_rejects_bad_edges():
    with pytest.raises(ValueError):
        BinSpec(edges=(0.0, 1.0))
    with pytest.raises(ValueError):
        BinSpec(edges=(0.0, 0.5, 0.5, 1.0))
    with pytest.raises(ValueError):
        BinSpec(edges=(0.1, 0.5, 1.0))


def test_quantile_bin_tiny(tiny):
    spec = quantile_bin(tiny, 2)
    assert spec.nbins == 2
    assert spec.edges[0] == 0.0 and spec.edges[-1] == 1.0
    stats = compute_bin_stats(tiny, spec)
    assert stats.n.sum(axis=0).tolist() == [20, 20]


def test_quantile_bin_too_few_distinct():
    obs = Dataset(score=[0.2, 0.2, 0.8], label=[0, 1, 1], group=[1, 2, 1])
    with pytest.raises(BinningError) as e:
        quantile_bin(obs, 5)
    assert e.value.achievable == 2


def test_quantile_bin_collapses_ties():
    # heavy mass at one value forces duplicate quantile edges
    obs = Dataset(
        score=[0.4] * 30 + [0.1, 0.2, 0.7, 0.8, 0.9], label=[0] * 30 + [1] * 5,
        group=[1] * 30 + [2] * 5,
    )
    spec = quantile_bin(obs, 5)
    assert spec.nbins >= 2
    counts = np.bincount(spec.assign(obs.score), minlength=spec.nbins)
    assert (counts > 0).all()


def test_stats_json_round_trip(tiny):
    stats = compute_bin_stats(tiny, BinSpec(edges=(0.0, 0.5, 1.0)))
    text = stats.to_json()
    assert '"n": [\n' in text or '"n": [10' in text.replace("\n        ", " ")
    back = BinStats.from_json(text)
    assert np.array_equal(back.n, stats.n)
    assert np.array_equal(back.npos, stats.npos)
    assert np.array_equal(back.midpoints, stats.midpoints)
    assert back.edges == stats.edges


def test_json_emits_integers_for_integral_counts(tiny):
    stats = compute_bin_stats(tiny, BinSpec(edges=(0.0, 0.5, 1.0)))
    text = stats.to_json()
    assert "10.0" not in text and " 10," in text


def test_overlap_report(tiny):
    stats = compute_bin_stats(tiny, BinSpec(edges=(0.0, 0.5, 1.0)))
    assert validate_overlap(stats).passed
    sparse = BinStats(
        n=np.array([[5.0, 0.0], [3.0, 2.0]]),
        npos=np.array([[1.0, 0.0], [1.0, 1.0]]),
        midpoints=np.array([0.25, 0.75]),
    )
    report = validate_overlap(sparse)
    assert not report.passed
    assert report.missing == ((1, 1),)
    assert "(bin 1, group 1)" in report.describe()


@settings(max_examples=60, deadline=None)
@given(
    scores=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=20, max_size=80
    ),
    nbins=st.integers(min_value=2, max_value=8),
)
def test_quantile_bin_partitions_all_scores(scores, nbins):
    obs = Dataset(score=scores, label=[0] * len(scores),
                  group=[1 + (i % 2) for i in range(len(scores))])
    try:
        spec = quantile_bin(obs, nbins)
    except BinningError:
        return
    idx = spec.assign(scores)
    assert ((0 <= idx) & (idx < spec.nbins)).all()
    counts = np.bincount(idx, minlength=spec.nbins)
    assert counts.sum() == len(scores)
    assert (counts > 0).all()


@settings(max_examples=200, deadline=None)
@given(
    scores=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=300
    ),
    digits=st.sampled_from([None, 0, 1, 2]),
    nbins=st.integers(min_value=2, max_value=60),
)
def test_quantile_edges_match_numpy_bit_for_bit(scores, digits, nbins):
    # quantile_bin computes numpy's quantiles and unique values itself, to
    # keep numpy.ma out of the process; rounding makes ties
    s = np.array(scores) if digits is None else np.round(scores, digits)
    ordered = np.sort(s)
    q = np.arange(1, nbins) / nbins
    interior = data_mod._sorted_quantiles(ordered, q)
    assert interior.tobytes() == np.quantile(s, q).tobytes()
    edges = np.concatenate(([0.0], interior, [1.0]))
    assert data_mod._distinct(np.sort(edges)).tobytes() == np.unique(edges).tobytes()
    assert data_mod._distinct(ordered).size == np.unique(s).size


# Each input's outcome, a (scores, labels, groups) triple or the error, was
# recorded from the earlier row-at-a-time loader, whose behaviour this keeps.
PARITY_CASES = {
    "earlier_of_two_bad_rows": (
        "score,label,group\n0.2,0,a\n0.3,1,\nx,0,b\n",
        (RowValidationError, "row 1: empty group"),
    ),
    "score_error_before_label_error": (
        "score,label,group\n0.2,0,a\nabc,2,b\n",
        (RowValidationError, "row 1: score 'abc' is not a number"),
    ),
    "padded_label_and_group": (
        "score,label,group\n0.2, 1 , a \n0.4,0 ,b\n0.6,  0,a\n",
        ([0.2, 0.4, 0.6], [1, 0, 0], [1, 2, 1]),
    ),
    "nan_score": (
        "score,label,group\n0.2,0,a\nnan,0,b\n",
        (RowValidationError, "row 1: score nan outside [0, 1]"),
    ),
    "inf_score": (
        "score,label,group\n0.2,0,a\ninf,0,b\n",
        (RowValidationError, "row 1: score inf outside [0, 1]"),
    ),
    "short_row_missing_group": (
        "score,label,group\n0.2,0,a\n0.3,1\n",
        (RowValidationError, "row 1: empty group"),
    ),
    "short_row_missing_label": (
        "score,label,group\n0.2,0,a\n0.3\n",
        (RowValidationError, "row 1: label None is not binary"),
    ),
    "blank_lines": (
        "score,label,group\n\n0.2,0,a\n\n0.8,1,b\n",
        ([0.2, 0.8], [0, 1], [1, 2]),
    ),
    "blank_lines_do_not_count_as_rows": (
        "score,label,group\n\n0.2,0,a\n\n0.8,5,b\n",
        (RowValidationError, "row 1: label '5' is not binary"),
    ),
    "crlf_line_endings": (
        "score,label,group\r\n0.2,0,a\r\n0.8,1,b\r\n",
        ([0.2, 0.8], [0, 1], [1, 2]),
    ),
    "comment_after_a_bare_carriage_return": (
        "score,label,group\r0.1,0,a\r#c\n0.2,1,b\n",
        ([0.1, 0.2], [0, 1], [1, 2]),
    ),
    "quoted_group_with_delimiter": (
        'score,label,group\n0.2,0,"x,y"\n0.8,1,z\n0.5,1,"x,y"\n',
        ([0.2, 0.8, 0.5], [0, 1, 1], [1, 2, 1]),
    ),
}


@pytest.mark.parametrize("name", sorted(PARITY_CASES))
def test_loader_matches_row_at_a_time_behaviour(name, tmp_path):
    text, want = PARITY_CASES[name]
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    if isinstance(want[0], type):
        with pytest.raises(want[0]) as e:
            load_dataset(path)
        assert str(e.value) == want[1]
    else:
        data = load_dataset(path)
        assert (data.score.tolist(), data.label.tolist(), data.group.tolist()) == want


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=1, max_value=4),
        ),
        min_size=1, max_size=120,
    ),
    nbins=st.integers(min_value=2, max_value=6),
)
def test_bin_stats_equal_a_row_by_row_tally(rows, nbins):
    score, label, group = (list(col) for col in zip(*rows))
    spec = BinSpec(edges=tuple(np.linspace(0.0, 1.0, nbins + 1)))
    stats = compute_bin_stats(Dataset(score, label, group), spec)
    n = np.zeros((max(group), nbins))
    npos = np.zeros((max(group), nbins))
    for s, y, g, b in zip(score, label, group, spec.assign(score)):
        n[g - 1, b] += 1
        npos[g - 1, b] += y
    assert np.array_equal(stats.n, n) and np.array_equal(stats.npos, npos)


NAMES = ("score", "label", "group", "note")
# each name's tokens, the valid ones first
TOKENS = {
    "score": ["0", "1", "0.25", " 0.5", "0.75 ", "1.5", "-0.1", "nan", "x", "", " "],
    "label": ["0", "1", " 1 ", "0 ", "2", "", "x"],
    "group": ["a", "b", " a ", "10", "2", "", " "],
    "note": ["", " ", "n", "x y", "#", "score", "\t"],
}
VALID = {"score": 5, "label": 4, "group": 5, "note": 7}


# ways to write a field that only csv.reader parses
QUOTINGS = ['"{}"', '"{},z"', '"{}""q"""', '"{}\nn"']


@st.composite
def plain_inputs(draw, switch=False):
    """Comma-separated text with no quote and no carriage return: padded,
    empty, missing and extra fields, comment and blank lines, repeated
    header names, and maybe no final newline. With ``switch``, one to three
    rows after the header hold a quoted field and maybe end in a carriage
    return, before the ``\n`` or as the only end of the row, which then
    starts the next line; so the parse changes to ``csv.reader`` partway
    through."""
    header = list(draw(st.permutations(NAMES)))
    header += draw(st.lists(st.sampled_from(NAMES), max_size=2))  # repeats
    if draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from(NAMES[:3])))  # a missing column
    every_token = sorted({t for tokens in TOKENS.values() for t in tokens})
    lines = draw(st.lists(st.just("#c"), max_size=2))
    lines.append(",".join(header) if draw(st.integers(0, 19)) else "")
    first_body = len(lines)

    def valid_fields():
        return [draw(st.sampled_from(TOKENS[name][:VALID[name]])) for name in header]

    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append("# a, comment")
        elif kind == 1:
            lines.append("")
        elif kind == 2:  # any tokens, any length
            lines.append(",".join(draw(st.lists(st.sampled_from(every_token), max_size=6))))
        else:
            fields = valid_fields()
            if kind == 3:  # a short or long row
                cut = draw(st.integers(-2, 2))
                fields = fields[:len(fields) + cut] if cut < 0 else fields + ["x"] * cut
            lines.append(",".join(fields))
    for _ in range(draw(st.integers(1, 3)) if switch else 0):
        fields = valid_fields() or [""]
        j = draw(st.integers(0, len(fields) - 1))
        fields[j] = draw(st.sampled_from(QUOTINGS)).format(fields[j])
        row = ",".join(fields) + draw(st.sampled_from(["", "\r"]))
        at = draw(st.integers(first_body, len(lines)))
        if row.endswith("\r") and at < len(lines) and draw(st.booleans()):
            lines[at] = row + lines[at]  # a bare "\r" ends the row
        else:
            lines.insert(at, row)
    return "\n".join(lines) + ("\n" if draw(st.booleans()) else "")


def load_outcome(text: str):
    """The error load_dataset raises on text, or what it returns."""
    try:
        data = load_dataset(io.StringIO(text))
    except Exception as e:
        return type(e), str(e)
    return (data.header, data.score.tolist(), data.label.tolist(), data.group.tolist(),
            list(data.records), type(data.records))


def file_lines(source):
    """The lines a file opened with newline="" reads, one chunk each."""
    return io.StringIO(source.read(), newline="")


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(plain_inputs(), plain_inputs(switch=True)),
       chunk=st.sampled_from([1, 2, 3, 7, data_mod._CHUNK_CHARS]),
       block=st.sampled_from([1, 2, 3, 5, 1 << 14]))
@example(text='note,group,label,score\n#,"a",0,0\n,a,0,0\n,b,0,0', chunk=1, block=1)
# a comment line that starts after a bare carriage return is dropped
@example(text="score,label,group\r0.1,0,a\r#c\n0.2,1,b\n", chunk=data_mod._CHUNK_CHARS,
         block=1 << 14)
def test_plain_parse_equals_the_csv_reader_path(text, chunk, block):
    with mock.patch.object(data_mod, "_BLOCK_LINES", block):
        with mock.patch.object(data_mod, "_CHUNK_CHARS", chunk):
            parsed = load_outcome(text)
        # the reader path is fed, line by line, what a file opened with
        # newline="" reads, as csv.reader expects
        with mock.patch.object(data_mod, "_is_plain", lambda text, lines: False), \
                mock.patch.object(data_mod, "_chunks", file_lines):
            reader = load_outcome(text)
    # comment lines are dropped before the parse, so a quote or carriage
    # return on one of them leaves the rest plain
    body = "".join(line for line in file_lines(io.StringIO(text))
                   if not line.startswith("#"))
    if isinstance(parsed[0], type) or '"' in body or "\r" in body:
        assert parsed == reader
    else:
        assert parsed[-1] is list  # each record is its input line
        assert parsed[:-1] == reader[:-1]
