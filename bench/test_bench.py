"""Tests for the benchmark's own code.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
from layers import PER_LAYER, per_layer
from run import END_TO_END
from spans import Span, Tracer, self_times
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import fairbins.cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# --- spans and self time -------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a", "x", 0.0, 10.0),
        Span("b", "x", 1.0, 4.0, parent=0),
        Span("d", "x", 2.0, 3.0, parent=1),
        Span("c", "x", 5.0, 6.0, parent=0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_nests_calls_through_wrapped_attributes_and_restores_them():
    mod = types.ModuleType("fakepkg.mod")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    for f in (inner, outer):
        f.__module__ = "fakepkg.mod"
        setattr(mod, f.__name__, f)
    ticks = iter(range(100))
    with Tracer({"mod.inner": lambda a, k, r: {"arg": a[0]}},
                clock=lambda: float(next(ticks))) as tracer:
        tracer.wrap_functions(mod, "fakepkg")
        assert mod.outer(3) == 8
    assert mod.outer is outer and mod.inner is inner
    names = [(s.name, s.site, s.parent) for s in tracer.spans]
    assert names == [("mod.outer", "mod", None), ("mod.inner", "mod", 0)]
    assert tracer.spans[1].info == {"arg": 3}
    assert self_times(tracer.spans) == [2.0, 1.0]  # outer 0..3, inner 1..2


def test_per_layer_reports_every_metric_and_splits_lp_spans_by_caller():
    def lp(site, start, end, parent, pivots):
        return Span("lp.solve_lp", site, start, end, parent,
                    {"pivots": pivots, "status": "Optimal", "rows": 3, "cols": 4,
                     "objective": 0.5})

    spans = [
        Span("cli.main", "cli", 0.0, 10.0),
        Span("bounds.tighten", "frontier", 1.0, 3.0, parent=0),
        lp("bounds", 1.0, 2.0, 1, 100),
        Span("bnb.solve_milp", "frontier", 4.0, 9.0, parent=0,
             info={"nodes": 2, "gap": 0.0}),
        lp("bnb", 4.0, 6.0, 3, 40),
        lp("bnb", 6.0, 8.0, 3, 20),
    ]
    m = per_layer(spans, untraced_wall=9.0, traced_wall=10.5, cpu_s=1.0,
                  import_s=0.2, prp_excess=0.01)
    assert set(m) == {name for name, _, _ in PER_LAYER}
    assert m["lp.calls"] == 3 and m["lp.pivots"] == 160
    assert m["bounds.lp_calls"] == 1 and m["bounds.ms_per_pivot"] == 10.0
    assert m["bnb.lp_calls"] == 2 and m["bnb.pivots_per_lp"] == 30.0
    assert m["bnb.root_pivots"] == 40 and m["bnb.root_s"] == 2.0
    assert m["bnb.self_s"] == 1.0 and m["bnb.nodes_per_s"] == 0.4
    assert m["cli.self_s"] == 3.0
    assert m["trace.overhead_s"] == 1.5 and m["trace.unaccounted_s"] == 0.5
    assert m["frontier.sweep_s"] == 0.0


# --- metric names and BENCHMARK.json ------------------------------------

def test_metric_names_and_units_are_well_formed_and_unique():
    names = [n for n, _, _ in PER_LAYER] + [n for n, _ in END_TO_END]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in [u for _, u, _ in PER_LAYER] + [u for _, u in END_TO_END]:
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


# --- inputs ---------------------------------------------------------------

def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    a = inputs.csv_text(*inputs.synthetic_rows(inputs.stream(1, 0), 500))
    assert a == inputs.csv_text(*inputs.synthetic_rows(inputs.stream(1, 0), 500))
    assert a != inputs.csv_text(*inputs.synthetic_rows(inputs.stream(2, 0), 500))
    assert a != inputs.csv_text(*inputs.synthetic_rows(inputs.stream(1, 1), 500))
    assert a != inputs.csv_text(*inputs.synthetic_rows(1, 500))


def test_banded_plan_is_row_stochastic_within_its_band():
    edges = np.linspace(0.0, 1.0, 11)
    plan = inputs.banded_plan(inputs.stream(3, 1), edges, 2, 4)
    assert np.allclose(plan.sum(axis=2), 1.0)
    assert np.all(np.diagonal(plan, axis1=1, axis2=2) >= 0.5 - 1e-12)
    src, dst = np.meshgrid(np.arange(10), np.arange(10), indexing="ij")
    assert np.all(plan[:, np.abs(src - dst) >= 4] == 0.0)


# --- output checks reject corrupted outputs ------------------------------

FRONTIER = """auc,epsDP,epsEOdds,epsPRP,configured_dp,configured_eodds,configured_prp,status,gap,seconds,nondominated
0.9,0.04,0.06000000000000005,0.1,0.06,0.06,0.06,Optimal,0.0,,1
0.91,0.03,0.059,0.09,0.06,0.06,0.08,Optimal,0.0,,1
"""
GRID = [(0.06, 0.06, 0.06), (0.06, 0.06, 0.08)]


@pytest.mark.parametrize("corrupt", [
    lambda t: t.replace("Optimal,0.0,,1\n0.91", "TimeLimit,0.5,,1\n0.91"),
    lambda t: t.replace("0.04,0.06000000000000005", "0.0601,0.06000000000000005"),
    lambda t: t.replace(",0.059,", ",0.0610,"),
    lambda t: t.rsplit("0.91", 1)[0],
    lambda t: t.replace("0.91,0.03,0.059,0.09,0.06,0.06,0.08,Optimal",
                        ",,,,0.06,0.06,0.08,Infeasible"),
])
def test_frontier_check(corrupt):
    assert checks.check_frontier(FRONTIER, GRID) == []
    assert checks.frontier_prp_excess(FRONTIER) == pytest.approx([0.04, 0.01])
    assert checks.check_frontier(corrupt(FRONTIER), GRID)


def test_bin_stats_check():
    stats = json.dumps({"edges": [0.0, 0.3, 0.6, 1.0],
                        "groups": [{"group": 1, "n": [5, 5, 5], "npos": [1, 2, 3]},
                                   {"group": 2, "n": [4, 4, 4], "npos": [1, 2, 5]}]})
    assert checks.check_bin_stats(stats.replace("5]}]", "2]}]"), 27, 3) == []
    assert checks.check_bin_stats(stats.replace("5]}]", "2]}]"), 28, 3)
    assert checks.check_bin_stats(stats.replace("5]}]", "2]}]"), 27, 4)
    assert checks.check_bin_stats(stats, 27, 3)  # more positives than members


@pytest.fixture(scope="module")
def applied(tmp_path_factory):
    """A small data_apply run through the real CLI, in this process."""
    work = tmp_path_factory.mktemp("apply")
    w = WORKLOADS["data_apply"](work, 7)
    w.rows = 20_000  # about 200 rows per (group, bin): enough to see a biased draw
    w.prepare()
    for cmd in [w.setup(), *w.commands()]:
        assert fairbins.cli.main(cmd.argv) == 0
        assert cmd.check() == [], cmd.argv
    return w


ROW = 3  # the data row _edit_column changes


def _edit_column(text: str, column: int, edit) -> str:
    lines = text.split("\n")
    cells = lines[2 + ROW].split(",")  # after the seed comment and the header
    cells[column] = edit(cells[column])
    lines[2 + ROW] = ",".join(cells)
    return "\n".join(lines)


def test_expected_check(applied):
    text = (applied.work / "expected.csv").read_text()
    rows = (applied.score, applied.label, applied.group, applied.edges, applied.plan)
    assert checks.check_expected(text, *rows, seed=0) == []
    bumped = _edit_column(text, 3, lambda s: repr(float(s) + 1e-9))
    assert checks.check_expected(bumped, *rows, seed=0)
    assert checks.check_expected(_edit_column(text, 0, lambda s: "0.5"), *rows, seed=0)
    assert checks.check_expected(text.replace("seed=0", "seed=1"), *rows, seed=0)


def test_stochastic_check(applied):
    text = (applied.work / "stochastic.csv").read_text()
    rows = (applied.score, applied.label, applied.group, applied.edges, applied.plan)
    assert checks.check_stochastic(text, *rows, seed=7) == []
    mids = (applied.edges[:-1] + applied.edges[1:]) / 2
    header, table = checks.read_applied(text)
    far = (checks._source_bins(applied.edges, table[ROW:ROW + 1, 0])[0] + 10) % 50
    unreachable = _edit_column(_edit_column(text, 4, lambda s: str(far)),
                               3, lambda s: repr(float(mids[far])))
    assert checks.check_stochastic(unreachable, *rows, seed=7)
    # every row kept its own bin: each draw is possible, the frequencies are not
    src = checks._source_bins(applied.edges, table[:, 0])
    stay = "\n".join(
        [header, "score,label,group,new_score,new_bin"]
        + [f"{s!r},{int(y)},{int(g)},{mids[b]!r},{b}" for (s, y, g), b in
           zip(table[:, :3].tolist(), src.tolist())]) + "\n"
    assert checks.check_stochastic(stay, *rows, seed=7)


def test_audit_check(applied):
    audit = (applied.work / "audit.json").read_text()
    expected = (applied.work / "expected.csv").read_text()
    assert checks.check_audit(audit, expected, 100) == []
    doc = json.loads(audit)
    doc["epsPRP"] += 1e-6
    assert checks.check_audit(json.dumps(doc), expected, 100)
    assert checks.check_audit(audit, _edit_column(expected, 3, lambda s: "0.999"), 100)


# --- the harness itself ---------------------------------------------------

def test_run_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "data_apply", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_runner_flags_a_stable_output_that_changes_between_runs(tmp_path):
    from run import Runner
    from workloads import Command

    out = tmp_path / "out.csv"
    cmd = Command(["frontier"], lambda: [], stable=out)
    store = tmp_path / "digests" / "w-1.json"
    out.write_text("a\n")
    first = Runner(deadline=0.0, digests=store)
    assert first.verify(cmd, 0, "") and first.verify(cmd, 0, "")
    first.save_digests()
    out.write_text("b\n")
    assert not first.verify(cmd, 0, "")
    second = Runner(deadline=0.0, digests=store)
    assert not second.verify(cmd, 0, "")
    assert not second.verify(cmd, 2, "boom")
    assert (second.attempted, second.failed) == (2, 2)
