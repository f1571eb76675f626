"""Exit codes, flag precedence, and artifact round-trips for the CLI."""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import operator
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairbins import cli
from fairbins.cli import DEFAULTS, _resolve, build_parser, main
from fairbins.data import BinSpec, Dataset, _Written
from fairbins.postprocess import TransitionPlan, apply_expected_score

from .conftest import FIXTURES, fresh_python

TINY = str(FIXTURES / "tiny.csv")

FAST = [
    "--bins", "2", "--window", "2", "--precision", "0.0625",
    "--eps-dp", "0.25", "--eps-eodds", "0.25", "--eps-prp", "0.25",
]


def solve_args(d: Path, *extra: str) -> list[str]:
    return [
        "solve", TINY, "--plan-out", str(d / "plan.json"),
        "--report-out", str(d / "report.json"), *FAST, *extra,
    ]


def test_defaults_follow_documented_values():
    assert DEFAULTS["bins"] == 50
    assert DEFAULTS["eps_dp"] == DEFAULTS["eps_eodds"] == DEFAULTS["eps_prp"] == 0.03
    assert DEFAULTS["retention"] == 0.5
    assert DEFAULTS["window"] == 13
    assert DEFAULTS["time_limit"] == 600.0
    assert DEFAULTS["precision"] == 1e-5
    assert DEFAULTS["eval_bins"] == 100


def test_flags_beat_config_beats_defaults(tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"bins": 10, "eps_dp": 0.2}))
    args = build_parser().parse_args(
        ["solve", TINY, "--plan-out", "p", "--report-out", "r",
         "--config", str(config), "--bins", "4"]
    )
    settings = _resolve(args)
    assert settings["bins"] == 4  # flag wins
    assert settings["eps_dp"] == 0.2  # config beats default
    assert settings["window"] == 13  # untouched default


@pytest.mark.parametrize("doc", [{"bin_count": 10}, {"mode": "exact"}],
                         ids=["bin_count", "mode"])
def test_unknown_config_key_is_exit_2(doc, tmp_path, capsys):
    # exact NMDT is the one linearization, so `mode` is no setting
    config = tmp_path / "conf.json"
    config.write_text(json.dumps(doc))
    rc = main(solve_args(tmp_path, "--config", str(config)))
    assert rc == 2
    assert "unknown keys" in capsys.readouterr().err


def test_broken_config_json_is_exit_2(tmp_path):
    config = tmp_path / "conf.json"
    config.write_text("{not json")
    assert main(solve_args(tmp_path, "--config", str(config))) == 2


@pytest.mark.parametrize("command, doc", [
    pytest.param("solve", {"time_limit": None}, id="solve-time_limit-null"),
    pytest.param("solve", {"eps_dp": "x"}, id="solve-eps_dp-string"),
    pytest.param("bin-stats", {"bins": [4]}, id="bin-stats-bins-list"),
    pytest.param("solve", {"gap": True}, id="solve-gap-bool"),
])
def test_config_value_of_the_wrong_type_is_exit_2(command, doc, tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps(doc))
    if command == "solve":
        argv = ["solve", TINY, "--bins", "2", "--window", "2", "--precision", "0.25",
                "--plan-out", str(tmp_path / "plan.json"),
                "--report-out", str(tmp_path / "report.json")]
    else:
        argv = ["bin-stats", TINY]
    assert main([*argv, "--config", str(config)]) == 2
    [key] = doc
    assert f"{key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    pytest.param("bin-stats", '{"bins": 2.7}', id="bins-fraction"),
    pytest.param("apply", '{"seed": 1.5}', id="seed-fraction"),
    pytest.param("audit", '{"eval_bins": 10.9}', id="eval_bins-fraction"),
    pytest.param("solve", '{"window": 1e400}', id="window-inf"),
])
def test_config_count_that_is_no_whole_number_is_exit_2(command, text, tmp_path, capsys):
    # a fraction was once cut to an integer silently, and inf ended in an
    # OverflowError traceback
    config = tmp_path / "conf.json"
    config.write_text(text)
    argv = {
        "bin-stats": ["bin-stats", TINY],
        "apply": ["apply", TINY, "--plan", str(identity_plan_file(tmp_path))],
        "audit": ["audit", TINY],
        "solve": ["solve", TINY, "--plan-out", str(tmp_path / "plan.json"),
                  "--report-out", str(tmp_path / "report.json")],
    }[command]
    assert main([*argv, "--config", str(config)]) == 2
    [key] = json.loads(text)
    assert f"{key} must be a whole number" in capsys.readouterr().err


def test_bin_stats_prints_tallies(capsys):
    rc = main(["bin-stats", TINY, "--bins", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    tallies = {entry["group"]: entry["n"] for entry in doc["groups"]}
    assert tallies == {1: [10, 10], 2: [10, 10]}


def test_solve_writes_identity_plan_at_loose_tolerances(tmp_path):
    rc = main(solve_args(tmp_path))
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "Optimal"
    assert report["incumbentObjective"] == pytest.approx(0.0, abs=1e-9)
    assert report["bestLowerBound"] <= report["incumbentObjective"] + 1e-9
    plan = TransitionPlan.from_json((tmp_path / "plan.json").read_text())
    np.testing.assert_allclose(plan.groups, np.tile(np.eye(2), (2, 1, 1)), atol=1e-9)


def test_missing_column_is_exit_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("score,label\n0.5,1\n")
    rc = main(["solve", str(bad), "--plan-out", str(tmp_path / "p"),
               "--report-out", str(tmp_path / "r"), *FAST])
    assert rc == 2


def test_overlap_failure_is_exit_3(tmp_path, capsys):
    rows = ["score,label,group"]
    rows += [f"0.{i},{i % 2},a" for i in range(1, 10)]
    rows += [f"0.9{i},1,b" for i in range(1, 10)]  # group b only in the top bin
    data = tmp_path / "skew.csv"
    data.write_text("\n".join(rows) + "\n")
    rc = main(["solve", str(data), "--plan-out", str(tmp_path / "p"),
               "--report-out", str(tmp_path / "r"), *FAST])
    assert rc == 3
    assert "bin" in capsys.readouterr().err


def test_bound_stage_infeasibility_is_exit_4(tmp_path):
    rc = main(["solve", TINY, "--plan-out", str(tmp_path / "p"),
               "--report-out", str(tmp_path / "r"), "--bins", "2",
               "--window", "1", "--precision", "0.0625",
               "--eps-dp", "1.0", "--eps-eodds", "0.0", "--eps-prp", "1.0"])
    assert rc == 4
    assert not (tmp_path / "p").exists()


def test_solver_infeasibility_is_exit_5(tmp_path):
    # retention 0 pins every score in place; DP and EOdds are vacuous so the
    # bound stage passes, but the rate-parity rows then contradict the data
    rc = main(["solve", TINY, "--plan-out", str(tmp_path / "p"),
               "--report-out", str(tmp_path / "report.json"), "--bins", "2",
               "--window", "2", "--precision", "0.0625", "--retention", "0.0",
               "--eps-dp", "1.0", "--eps-eodds", "1.0", "--eps-prp", "0.05"])
    assert rc == 5
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "Infeasible"
    assert report["incumbentObjective"] is None
    assert report["bestLowerBound"] is None  # bound is unbounded above
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("flag", ["--eps-dp=nan", "--eps-prp=inf", "--eps-eodds=-inf"])
def test_non_finite_tolerance_is_exit_2(flag, tmp_path, capsys):
    rc = main(solve_args(tmp_path, flag))
    assert rc == 2
    assert "must be finite and nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "plan.json").exists()


def test_precision_past_the_last_double_digit_is_exit_2(tmp_path, capsys):
    # the later --precision wins; 1e-100 would build a MILP of 333 digits
    rc = main(solve_args(tmp_path, "--precision", "1e-100"))
    assert rc == 2
    assert "precision must lie in [2**-52, 1)" in capsys.readouterr().err
    assert not (tmp_path / "plan.json").exists()
    # refused before the input is read: a missing file is never opened
    rc = main(["frontier", str(tmp_path / "missing.csv"), *FAST, "--precision", "1e-100",
               "--grid-dp", "0.25", "--grid-eodds", "0.25", "--grid-prp", "0.25",
               "--output", str(tmp_path / "front.csv")])
    assert rc == 2
    assert "precision must lie in [2**-52, 1)" in capsys.readouterr().err


def test_non_finite_frontier_grid_is_exit_2_before_any_solve(tmp_path, capsys):
    out = tmp_path / "front.csv"
    rc = main(["frontier", TINY, *FAST, "--grid-dp", "0.25", "--grid-eodds",
               "0.25,nan", "--grid-prp", "0.25", "--output", str(out)])
    assert rc == 2
    assert "eps_eodds must be finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_time_budgets_must_be_positive(value, tmp_path, capsys):
    rc = main(solve_args(tmp_path, "--time-limit", value))
    assert rc == 2
    assert "time_limit must be a positive number of seconds" in capsys.readouterr().err
    config = tmp_path / "conf.json"
    # json.dumps writes NaN as a bare token, which json.loads reads back
    config.write_text(json.dumps({"time_limit": float(value)}))
    assert main(solve_args(tmp_path, "--config", str(config))) == 2
    out = tmp_path / "front.csv"
    rc = main(["frontier", TINY, *FAST, "--grid-dp", "0.25", "--grid-eodds", "0.25",
               "--grid-prp", "0.25", "--budget-per-solve", value, "--output", str(out)])
    assert rc == 2
    assert "--budget-per-solve must be a positive number of seconds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-0.1", "-inf", "nan"])
def test_gap_must_be_nonnegative(value, tmp_path, capsys):
    rc = main(solve_args(tmp_path, f"--gap={value}"))
    assert rc == 2
    assert "gap must be a nonnegative number" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"gap": float(value)}))
    assert main(solve_args(tmp_path, "--config", str(config))) == 2
    out = tmp_path / "front.csv"
    rc = main(["frontier", TINY, *FAST, "--grid-dp", "0.25", "--grid-eodds", "0.25",
               "--grid-prp", "0.25", f"--gap={value}", "--output", str(out)])
    assert rc == 2
    assert "gap must be a nonnegative number" in capsys.readouterr().err
    assert not out.exists()


def _strict_json(text: str):
    """The document `text` holds, refusing the NaN and Infinity tokens that
    `json.loads` alone would accept."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_infinite_time_limit_is_allowed(tmp_path):
    # "no limit" and "any gap" are allowed, and the report writes them as null
    assert main(solve_args(tmp_path, "--time-limit", "inf", "--gap", "inf")) == 0
    settings = _strict_json((tmp_path / "report.json").read_text())["settings"]
    assert settings["time_limit"] is None and settings["gap"] is None
    assert settings["bins"] == 2 and settings["precision"] == 0.0625


def test_a_window_wider_than_any_float_is_written_as_given(tmp_path):
    # only an infinite setting becomes null; an int past the float range
    # is compared, not converted
    window = 10**400
    assert main(solve_args(tmp_path, "--window", str(window))) == 0
    settings = _strict_json((tmp_path / "report.json").read_text())["settings"]
    assert settings["window"] == window


def identity_plan_file(d: Path) -> Path:
    plan = TransitionPlan(edges=(0.0, 0.5, 1.0), groups=np.tile(np.eye(2), (2, 1, 1)))
    path = d / "identity.json"
    path.write_text(plan.to_json())
    return path


def test_apply_expected_keeps_scores_for_identity_plan(tmp_path):
    plan = identity_plan_file(tmp_path)
    out = tmp_path / "out.csv"
    rc = main(["apply", TINY, "--plan", str(plan), "--mode", "expected",
               "--seed", "5", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# seed=5"
    assert lines[1].split(",")[-2:] == ["new_score", "new_bin"]
    for line in lines[2:]:
        cells = line.split(",")
        assert float(cells[-2]) == pytest.approx(float(cells[0]), abs=1e-12)


def test_apply_stochastic_seed_contract(tmp_path):
    plan_path = tmp_path / "half.json"
    plan_path.write_text(TransitionPlan(
        edges=(0.0, 0.5, 1.0),
        groups=np.full((2, 2, 2), 0.5),
    ).to_json())
    outs = []
    for name, seed in (("a.csv", "9"), ("b.csv", "9"), ("c.csv", "10")):
        out = tmp_path / name
        rc = main(["apply", TINY, "--plan", str(plan_path), "--mode",
                   "stochastic", "--seed", seed, "--output", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_apply_group_mismatch_is_exit_6(tmp_path, capsys):
    plan_path = tmp_path / "one_group.json"
    plan_path.write_text(TransitionPlan(
        edges=(0.0, 0.5, 1.0), groups=np.tile(np.eye(2), (1, 1, 1)),
    ).to_json())
    rc = main(["apply", TINY, "--plan", str(plan_path), "--mode", "expected",
               "--output", str(tmp_path / "out.csv")])
    assert rc == 6
    assert "group" in capsys.readouterr().err


@pytest.mark.parametrize("row, message", [
    ([1.7, -0.7], "entries must lie in"),
    ([0.6, 0.3], "rows sum to 1"),
    ([np.nan, np.nan], "entries must be finite"),
    # a tuple stands for the plan's edges, framing identity rows
    pytest.param((0.0, np.nan, 1.0), "edges must be finite", id="edges-nan"),
    pytest.param((0.0, 0.7, 0.5, 1.0), "strictly increasing", id="edges-unordered"),
    pytest.param((0.0, 0.5, 0.9), "must span [0, 1]", id="edges-short-of-1"),
    pytest.param((-0.1, 0.5, 1.0), "must span [0, 1]", id="edges-below-0"),
])
def test_apply_rejects_an_invalid_plan_with_exit_6(row, message, tmp_path, capsys):
    if isinstance(row, tuple):
        edges, groups = row, np.tile(np.eye(len(row) - 1), (2, 1, 1))
    else:
        edges, groups = (0.0, 0.5, 1.0), np.tile(np.eye(2), (2, 1, 1))
        groups[0, 0] = row
    plan_path = tmp_path / "bad.json"
    plan_path.write_text(TransitionPlan(edges=edges, groups=groups).to_json())
    out = tmp_path / "out.csv"
    rc = main(["apply", TINY, "--plan", str(plan_path), "--mode", "expected",
               "--output", str(out)])
    assert rc == 6
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_audit_native_binning_matches_frozen_values(tmp_path):
    out = tmp_path / "audit.json"
    rc = main(["audit", TINY, "--eval-bins", "2", "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["epsDP"] == pytest.approx(0.0, abs=1e-12)
    assert doc["epsEOdds"] == pytest.approx(0.2, abs=1e-12)
    assert doc["epsPRP"] == pytest.approx(0.2, abs=1e-12)
    assert doc["rocAuc"] == pytest.approx(0.70, abs=1e-9)
    assert doc["prAuc"] == pytest.approx(0.64, abs=1e-9)


def test_audit_reads_transformed_column(tmp_path):
    plan = identity_plan_file(tmp_path)
    out = tmp_path / "applied.csv"
    main(["apply", TINY, "--plan", str(plan), "--mode", "expected",
          "--output", str(out)])
    audit = tmp_path / "audit.json"
    rc = main(["audit", str(out), "--eval-bins", "2", "--score-column",
               "new_score", "--output", str(audit)])
    assert rc == 0
    assert json.loads(audit.read_text())["rocAuc"] == pytest.approx(0.70, abs=1e-9)


def test_frontier_single_cell_csv(tmp_path):
    out = tmp_path / "front.csv"
    rc = main(["frontier", TINY, *FAST, "--grid-dp", "0.25", "--grid-eodds",
               "0.25", "--grid-prp", "0.25", "--budget-per-solve", "60",
               "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("auc,epsDP,epsEOdds,epsPRP,configured_dp")
    assert lines[1].split(",")[7] == "Optimal"


def test_frontier_splits_the_time_limit_over_the_grid(tmp_path):
    # without --budget-per-solve, the time limit is split over the grid
    args = ["frontier", TINY, *FAST, "--grid-dp", "0.25", "--grid-eodds", "0.25",
            "--grid-prp", "0.25"]
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"time_limit": 0.000001}))
    out = tmp_path / "front.csv"

    def status(*extra: str) -> str:
        assert main([*args, *extra, "--output", str(out)]) == 0
        return out.read_text().splitlines()[1].split(",")[7]

    assert status("--time-limit", "0.000001") == "TimeLimit"
    assert status("--config", str(config)) == "TimeLimit"
    # --budget-per-solve wins when both are given
    assert status("--time-limit", "0.000001", "--budget-per-solve", "60") == "Optimal"


def test_tradeoff_and_compare_commands(tmp_path, capsys):
    front = tmp_path / "front.csv"
    main(["frontier", TINY, *FAST, "--grid-dp", "0.25", "--grid-eodds", "0.25",
          "--grid-prp", "0.1,0.25", "--budget-per-solve", "60",
          "--output", str(front)])
    rc = main(["tradeoff", "--frontier", str(front), "--operating",
               "0.7,0.1,0.3,0.3", "--cost", "auc", "--benefit", "prp"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["found"] is True
    assert doc["point"]["epsPRP"] < 0.3

    rc = main(["compare", "--frontier-a", str(front), "--frontier-b", str(front),
               "--auc-min", "0.5"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["winner"] == "tie"

    rc = main(["tradeoff", "--frontier", str(front), "--operating", "bad",
               "--cost", "auc", "--benefit", "prp"])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["tradeoff", "--operating", "0.7,0.1,0.3,0.3", "--cost", "auc", "--benefit", "prp",
     "--frontier"],
    ["compare", "--auc-min", "0.5", "--frontier-a"],
], ids=["tradeoff", "compare"])
def test_a_short_frontier_row_is_exit_2(argv, tmp_path, capsys):
    # csv fills a short row's missing fields with None, which once reached
    # float() and ended in a TypeError traceback
    front = tmp_path / "front.csv"
    front.write_text("auc,epsDP,epsEOdds,epsPRP,configured_dp,configured_eodds,"
                     "configured_prp,status,gap,seconds,nondominated\n"
                     "0.9,0.05,0.05,0.05,0.06\n")
    extra = ["--frontier-b", str(front)] if argv[0] == "compare" else []
    assert main([*argv, str(front), *extra]) == 2
    assert "line 2 has 5 of 11 fields" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    pytest.param(["tradeoff", "--operating", "nan,0.1,0.1,0.1", "--cost", "auc",
                  "--benefit", "prp"], "--operating", id="operating-nan"),
    pytest.param(["tradeoff", "--operating", "0.7,0.1,inf,0.1", "--cost", "auc",
                  "--benefit", "prp"], "--operating", id="operating-inf"),
    pytest.param(["compare", "--auc-min", "nan"], "--auc-min", id="auc-min-nan"),
    pytest.param(["compare", "--auc-min=-inf"], "--auc-min", id="auc-min-inf"),
])
def test_non_finite_query_value_is_exit_2(argv, flag, tmp_path, capsys):
    # a NaN operating point once found nothing without a word, and a NaN
    # floor was written into the comparison as `NaN`, which is no JSON
    front = tmp_path / "front.csv"
    assert main(["frontier", TINY, *FAST, "--grid-dp", "0.25", "--grid-eodds", "0.25",
                 "--grid-prp", "0.25", "--output", str(front)]) == 0
    frontiers = (["--frontier", str(front)] if argv[0] == "tradeoff"
                 else ["--frontier-a", str(front), "--frontier-b", str(front)])
    out = tmp_path / "out.json"
    assert main([*argv, *frontiers, "--output", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_runs_are_byte_identical(tmp_path):
    blobs = []
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        assert main(solve_args(d)) == 0
        out = d / "applied.csv"
        assert main(["apply", TINY, "--plan", str(d / "plan.json"), "--mode",
                     "expected", "--seed", "3", "--output", str(out)]) == 0
        audit = d / "audit.json"
        assert main(["audit", str(out), "--eval-bins", "2", "--score-column",
                     "new_score", "--output", str(audit)]) == 0
        front = d / "front.csv"
        assert main(["frontier", TINY, *FAST, "--grid-dp", "0.25",
                     "--grid-eodds", "0.25", "--grid-prp", "0.25",
                     "--budget-per-solve", "60", "--output", str(front)]) == 0
        blobs.append(tuple(p.read_bytes() for p in
                           ((d / "plan.json"), out, audit, front)))
    assert blobs[0] == blobs[1]


# Bytes that `apply` wrote before its data path moved to column arrays (and,
# for expected mode, before it wrote each row's record string instead of
# re-serializing its fields); no output may change by a single byte.
PINNED_PLAN = TransitionPlan(
    edges=(0.0, 0.25, 0.5, 0.75, 1.0),
    groups=np.array([
        [[0.5, 0.5, 0.0, 0.0], [0.0, 0.7, 0.3, 0.0],
         [0.0, 0.2, 0.6, 0.2], [0.0, 0.0, 0.0, 1.0]],
        [[1.0, 0.0, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25],
         [0.0, 0.0, 0.1, 0.9], [0.0, 0.4, 0.0, 0.6]],
    ]),
)
PINNED_SHA256 = {
    "expected": "fe8a404634039c773d53cbea29a89d3c322bbf813e1020015bd265a49c3cf448",
    "stochastic": "5ac4fcb7d7dad78c3819b35e8dcd0e863b0f07984d4479aa6b4c4ff8cfd6a299",
    "interpolated": "929b2cbbdd97d5b02224c518923b03b0c814f36a55c5ffa6ea1393f2f57392fe",
}


@pytest.mark.parametrize("mode", sorted(PINNED_SHA256))
def test_apply_random_modes_write_pinned_bytes(mode, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(PINNED_PLAN.to_json())
    out = tmp_path / "out.csv"
    assert main(["apply", TINY, "--plan", str(plan), "--mode", mode, "--seed", "2024",
                 "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SHA256[mode]


def test_apply_rewrites_each_record_and_appends_two_fields(tmp_path):
    source = tmp_path / "in.csv"
    source.write_bytes(
        b'# scored by model v3\r\nscore,label,group,note\r\n0.1,0,"x,y",first\r\n\r\n'
        b'0.6,1,z,"say ""hi"""\r\n0.35,1,"x,y",\r\n0.9,0,z,"two\nlines"\r\n'
    )
    plan = tmp_path / "plan.json"
    plan.write_text(TransitionPlan(
        edges=(0.0, 0.5, 1.0),
        groups=np.array([[[0.25, 0.75], [0.5, 0.5]], [[0.0, 1.0], [0.9, 0.1]]]),
    ).to_json())
    out = tmp_path / "out.csv"
    assert main(["apply", str(source), "--plan", str(plan), "--mode", "stochastic",
                 "--seed", "3", "--output", str(out)]) == 0
    assert out.read_bytes() == (
        b'# seed=3\nscore,label,group,note,new_score,new_bin\n0.1,0,"x,y",first,0.25,0\n'
        b'0.6,1,z,"say ""hi""",0.25,0\n0.35,1,"x,y",,0.75,1\n0.9,0,z,"two\nlines",0.25,0\n'
    )


@st.composite
def field_rows(draw):
    """Field tuples with commas, quotes, carriage returns, newlines and empty
    fields, among them a row whose only field is empty; a row that splits
    back into its fields at commas may come as its line, as a plain input
    row does."""
    rows = draw(st.lists(st.lists(st.text(',"\r\nab ', max_size=4), min_size=1, max_size=4)
                         .map(tuple), min_size=1, max_size=12))
    rows.insert(draw(st.integers(0, len(rows))), ("",))
    records = []
    for row in rows:
        line = ",".join(row)
        plain = line and not any(c in line for c in '"\r\n') and line.split(",") == list(row)
        records.append(line if plain and draw(st.booleans()) else row)
    return rows, records


@settings(max_examples=100, deadline=None)
@given(rows_records=field_rows(),
       scores=st.lists(st.floats(0.0, 1.0), min_size=13, max_size=13),
       mode=st.sampled_from(["stochastic", "expected"]),
       block=st.sampled_from([1, 2, 5]))
def test_apply_writes_what_csv_writer_wrote_for_each_record(rows_records, scores, mode, block,
                                                            tmp_path_factory):
    rows, records = rows_records
    score = np.array(scores[:len(rows)])
    group = np.arange(len(rows)) % 2 + 1
    header = ["score", "a,b", 'say "hi"']
    data = Dataset(score, np.zeros(len(rows)), group, header=header, records=_Written(records))
    d = tmp_path_factory.mktemp("apply")
    plan = d / "identity.json"
    identity = TransitionPlan(edges=(0.0, 0.5, 1.0), groups=np.tile(np.eye(2), (2, 1, 1)))
    plan.write_text(identity.to_json())
    out = d / "out.csv"
    # the writer's blocks are patched small, so that the rows span blocks
    with mock.patch.object(cli, "load_dataset", lambda *args: data), \
            mock.patch.object(cli, "_BLOCK_LINES", block):
        assert main(["apply", "in.csv", "--plan", str(plan), "--mode", mode,
                     "--seed", "4", "--output", str(out)]) == 0
    spec = BinSpec((0.0, 0.5, 1.0))
    if mode == "stochastic":
        # under the identity plan each row keeps its bin and scores its midpoint
        bins = spec.assign(score)
        new_scores = [repr(m) for m in spec.midpoints[bins].tolist()]
    else:
        expected = apply_expected_score(identity, data)
        bins = spec.assign(expected)
        new_scores = list(map(repr, expected.tolist()))

    def line(fields) -> str:
        # a "\r\n" terminator makes the writer quote a field holding "\r" as
        # well as one holding "\n"; the line then ends in "\n" as the file does
        want = io.StringIO()
        csv.writer(want, lineterminator="\r\n").writerow(fields)
        return want.getvalue()[:-2] + "\n"

    body = map(line, map(operator.add, rows, zip(new_scores, bins.tolist())))
    want = "# seed=4\n" + line(header + ["new_score", "new_bin"]) + "".join(body)
    assert out.read_bytes() == want.encode()


def test_apply_output_with_a_carriage_return_in_a_field_reads_back(tmp_path):
    source = tmp_path / "in.csv"
    source.write_bytes(b'score,label,group,note\n0.2,0,a,"x\ry"\n0.8,1,b,z\n')
    plan = tmp_path / "plan.json"
    plan.write_text(TransitionPlan(edges=(0.0, 0.5, 1.0),
                                   groups=np.tile(np.eye(2), (2, 1, 1))).to_json())
    out = tmp_path / "out.csv"
    assert main(["apply", str(source), "--plan", str(plan), "--output", str(out)]) == 0
    assert b'0.2,0,a,"x\ry",' in out.read_bytes()
    assert main(["audit", str(out), "--score-column", "new_score", "--eval-bins", "2",
                 "--output", str(tmp_path / "audit.json")]) == 0


def _program(*argv: str) -> subprocess.CompletedProcess:
    """Run the CLI as its own process, as `python -m fairbins.cli`."""
    return fresh_python("-m", "fairbins.cli", *argv)


def test_program_prints_complete_json_to_stdout():
    # the collector is frozen before exit; stdout is still flushed
    run = _program("bin-stats", TINY, "--bins", "2")
    assert run.returncode == 0
    tallies = {entry["group"]: entry["n"] for entry in json.loads(run.stdout)["groups"]}
    assert tallies == {1: [10, 10], 2: [10, 10]}


def test_program_reports_handled_errors(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text("{")
    run = _program("apply", TINY, "--plan", str(plan), "--output", str(tmp_path / "o.csv"))
    assert (run.returncode, run.stdout) == (6, "")
    assert "is malformed" in run.stderr
    run = _program(*solve_args(tmp_path, "--gap", "-1"))
    assert (run.returncode, run.stdout) == (2, "")
    assert "gap must be a nonnegative number" in run.stderr


def test_program_frontier_writes_what_main_writes(tmp_path):
    argv = ["frontier", TINY, *FAST, "--grid-dp", "0.25", "--grid-eodds", "0.25",
            "--grid-prp", "0.2,0.25", "--budget-per-solve", "60", "--output"]
    assert _program(*argv, str(tmp_path / "process.csv")).returncode == 0
    assert main([*argv, str(tmp_path / "in_process.csv")]) == 0
    assert (tmp_path / "process.csv").read_bytes() == (tmp_path / "in_process.csv").read_bytes()


@pytest.mark.parametrize("argv, code", [
    (["bin-stats", TINY, "--bins", "2"], 0),
    (["audit", TINY, "--eval-bins", "0"], 2),  # a refused setting
    (["bin-stats", TINY, "--bins", "1"], 2),  # a data error
    (["bin-stats", str(FIXTURES / "missing.csv")], 2),  # an unreadable file
    (["bin-stats"], None),  # argparse exits on its own
])
def test_main_as_the_program_freezes_the_collector_on_every_way_out(argv, code, capsys):
    with mock.patch.object(sys, "argv", ["fairbins", *argv]), \
            mock.patch.object(gc, "freeze") as freeze:
        if code is None:
            with pytest.raises(SystemExit):
                main()
        else:
            assert main() == code
    freeze.assert_called_once_with()


def test_main_with_argv_never_freezes_the_collector(tmp_path):
    frozen = gc.get_freeze_count()
    assert main(["bin-stats", TINY, "--bins", "2", "--output", str(tmp_path / "s.json")]) == 0
    assert main(["audit", TINY, "--eval-bins", "0"]) == 2
    assert gc.get_freeze_count() == frozen
