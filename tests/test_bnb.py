"""Branch-and-bound checks against exhaustive enumeration."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from fairbins import bnb
from fairbins.bnb import MilpProblem, MilpStatus, solve_milp
from fairbins.lp import (SENSE_EQ, SENSE_GE, SENSE_LE, LpProblem, LpResult, LpStatus,
                         point_violation, solve_lp)

from .oracle_helpers import enumerate_milp

_CODE = {"<": SENSE_LE, "=": SENSE_EQ, ">": SENSE_GE}


def _milp(c, a, senses, rhs, lo, hi, binary_ids):
    lp = LpProblem(
        c=np.array(c, float),
        a=np.array(a, float),
        senses=np.array([_CODE[s] for s in senses], np.int8),
        rhs=np.array(rhs, float),
        lo=np.array(lo, float),
        hi=np.array(hi, float),
    )
    return MilpProblem(lp=lp, binary_cols=np.array(binary_ids))


KNAPSACK = dict(
    c=[-0.6, -0.5, -0.4],
    a=[[0.5, 0.4, 0.3]],
    senses="<",
    rhs=[0.7],
    lo=[0, 0, 0],
    hi=[1, 1, 1],
    binary_ids=[0, 1, 2],
)


def test_knapsack_fixture():
    # frozen oracle: optimum -0.9 at (0, 1, 1)
    report = solve_milp(_milp(**KNAPSACK), time_limit=30, gap_target=0.0)
    assert report.status == MilpStatus.OPTIMAL
    assert report.incumbent_objective == pytest.approx(-0.9, abs=1e-8)
    assert report.gap == 0.0
    assert report.best_lower_bound == report.incumbent_objective
    assert report.incumbent is not None
    assert np.round(report.incumbent).tolist() == [0, 1, 1]


def test_mixed_integer_continuous():
    # one continuous column rides along with two binaries
    p = _milp(
        c=[-1.0, -1.0, -0.25],
        a=[[1.0, 1.0, 1.0]],
        senses="<",
        rhs=[1.6],
        lo=[0, 0, 0],
        hi=[1, 1, 1],
        binary_ids=[0, 1],
    )
    report = solve_milp(p, time_limit=30, gap_target=0.0)
    assert report.status == MilpStatus.OPTIMAL
    # take one binary whole, fill the rest with the continuous column
    assert report.incumbent_objective == pytest.approx(-1.15, abs=1e-8)


def test_infeasible_status():
    p = _milp(
        c=[1, 1],
        a=[[1, 1]],
        senses=">",
        rhs=[3],
        lo=[0, 0],
        hi=[1, 1],
        binary_ids=[0, 1],
    )
    report = solve_milp(p, time_limit=30, gap_target=0.0)
    assert report.status == MilpStatus.INFEASIBLE
    assert report.incumbent is None


def test_time_limit_reports_without_incumbent():
    report = solve_milp(_milp(**KNAPSACK), time_limit=0.0, gap_target=0.0)
    assert report.status == MilpStatus.TIME_LIMIT
    assert report.incumbent is None
    assert report.gap == np.inf


# tighter budget: the root relaxation sits at -0.775 while the best whole
# pattern is (1, 0, 0) at -0.6, leaving a real gap to play with
LOOSE_KNAPSACK = {**KNAPSACK, "rhs": [0.6]}


def test_time_limit_inside_a_node_lp_keeps_the_node_open():
    # a fake clock that runs out while the first child node's LP pivots
    now = [0.0]
    deadlines = []

    def node_lp(problem, **kwargs):
        deadlines.append(kwargs["deadline"])
        if len(deadlines) == 2:
            now[0] = kwargs["deadline"] + 1.0
        return solve_lp(problem, **kwargs)

    with mock.patch("time.monotonic", lambda: now[0]), \
            mock.patch.object(bnb, "solve_lp", node_lp):
        report = solve_milp(_milp(**LOOSE_KNAPSACK), time_limit=30.0, gap_target=0.0)
    root = solve_lp(_milp(**LOOSE_KNAPSACK).lp)
    assert deadlines == [30.0, 30.0]
    assert report.status == MilpStatus.TIME_LIMIT
    assert report.nodes_explored == 2
    # the interrupted child keeps the root's bound, so the bound stays valid
    assert report.best_lower_bound == root.objective
    assert report.incumbent is None


def test_gap_limit_with_seeded_incumbent():
    initial = np.array([1.0, 0.0, 0.0])
    report = solve_milp(
        _milp(**LOOSE_KNAPSACK), time_limit=30, gap_target=0.5, initial=initial
    )
    assert report.status == MilpStatus.GAP_LIMIT
    assert report.incumbent_objective == pytest.approx(-0.6)
    assert 0.0 < report.gap <= 0.5


def test_infeasible_initial_is_rejected():
    bad = np.array([1.0, 1.0, 1.0])  # violates the knapsack row
    report = solve_milp(_milp(**KNAPSACK), time_limit=30, gap_target=0.0, initial=bad)
    assert report.status == MilpStatus.OPTIMAL
    assert report.incumbent_objective == pytest.approx(-0.9, abs=1e-8)


def test_infeasible_root_with_a_verified_incumbent_raises():
    # an Infeasible root verdict contradicts the adopted initial point, so it
    # is solver trouble, not an infeasible MILP
    initial = np.array([0.0, 1.0, 1.0])

    def infeasible_root(lp_problem, **kwargs):
        return LpResult(LpStatus.INFEASIBLE, np.inf, np.zeros(lp_problem.ncols), 0)

    with mock.patch.object(bnb, "solve_lp", infeasible_root), \
            pytest.raises(RuntimeError, match="infeasible"):
        solve_milp(_milp(**KNAPSACK), time_limit=30, gap_target=0.0, initial=initial)


def test_deterministic_replay():
    a = solve_milp(_milp(**KNAPSACK), time_limit=30, gap_target=0.0)
    b = solve_milp(_milp(**KNAPSACK), time_limit=30, gap_target=0.0)
    assert a.status == b.status
    assert a.incumbent_objective == b.incumbent_objective
    assert a.best_lower_bound == b.best_lower_bound
    assert a.nodes_explored == b.nodes_explored
    assert np.array_equal(a.incumbent, b.incumbent)


def _random_instance(rng: np.random.Generator):
    nb = int(rng.integers(3, 8))
    nc = int(rng.integers(0, 3))
    n = nb + nc
    m = int(rng.integers(1, 5))
    a = np.round(rng.normal(size=(m, n)), 2)
    senses = rng.choice(["<", ">"], size=m).tolist()
    pattern = rng.integers(0, 2, size=n).astype(float)
    pattern[nb:] = rng.uniform(0, 1, size=nc)
    margin = rng.uniform(0.05, 0.5, size=m)
    ax = a @ pattern
    rhs = [ax[i] + margin[i] if senses[i] == "<" else ax[i] - margin[i] for i in range(m)]
    return dict(
        c=np.round(rng.normal(size=n), 2).tolist(),
        a=a.tolist(),
        senses="".join(senses),
        rhs=rhs,
        lo=[0.0] * n,
        hi=[1.0] * n,
        binary_ids=list(range(nb)),
    )


def test_thirty_random_instances_match_enumeration():
    rng = np.random.default_rng(77)
    for _ in range(30):
        inst = _random_instance(rng)
        problem = _milp(**inst)
        report = solve_milp(problem, time_limit=60, gap_target=0.0)
        best_obj, _ = enumerate_milp(
            inst["c"],
            inst["a"],
            list(inst["senses"]),
            inst["rhs"],
            inst["lo"],
            inst["hi"],
            inst["binary_ids"],
        )
        assert report.status == MilpStatus.OPTIMAL
        assert report.incumbent_objective == pytest.approx(best_obj, abs=1e-6)
        z = report.incumbent[problem.binary_cols]
        assert np.abs(z - np.round(z)).max() <= 1e-6
        from fairbins.lp import point_violation

        assert point_violation(problem.lp, report.incumbent) < 1e-6


def test_an_integral_node_point_that_breaks_a_row_is_not_adopted():
    # the root LP is made to answer with the box minimum: integral, cheaper
    # than the optimum, and off the rows. It must not become the incumbent
    problem = _milp(**_random_instance(np.random.default_rng(77)))
    honest = solve_milp(problem, time_limit=60, gap_target=0.0)
    c = problem.lp.c
    bad = np.where(c < 0, problem.lp.hi, problem.lp.lo)
    assert c @ bad < honest.incumbent_objective - 1e-3
    assert point_violation(problem.lp, bad) > 1e-3
    calls = []

    def lying_root(lp_problem, **kwargs):
        calls.append(lp_problem)
        if len(calls) == 1:
            return LpResult(LpStatus.OPTIMAL, float(c @ bad), bad.copy(), 0)
        return solve_lp(lp_problem, **kwargs)

    with mock.patch.object(bnb, "solve_lp", lying_root):
        report = solve_milp(problem, time_limit=60, gap_target=0.0)
    assert len(calls) > 1
    assert report.status == MilpStatus.OPTIMAL
    assert report.incumbent_objective == pytest.approx(honest.incumbent_objective, abs=1e-9)
    assert point_violation(problem.lp, report.incumbent) <= 1e-7


# (status, nodes_explored, repr(incumbent_objective), repr(best_lower_bound))
# of KNAPSACK, LOOSE_KNAPSACK and the thirty instances above, recorded once
# cold LPs started from the slack basis; the same under 1 and 2 OpenBLAS
# threads
PINNED_TREES = [
    ('Optimal', 1, '-0.9', '-0.9'),
    ('Optimal', 11, '-0.6', '-0.6'),
    ('Optimal', 3, '-0.9', '-0.9'),
    ('Optimal', 1, '-3.0900000000000003', '-3.0900000000000003'),
    ('Optimal', 3, '0.03', '0.03'),
    ('Optimal', 7, '-5.630000000000001', '-5.630000000000001'),
    ('Optimal', 5, '-2.92', '-2.92'),
    ('Optimal', 5, '-1.1900000000000002', '-1.1900000000000002'),
    ('Optimal', 3, '-2.13', '-2.13'),
    ('Optimal', 1, '-5.46', '-5.46'),
    ('Optimal', 1, '-3.38', '-3.38'),
    ('Optimal', 1, '-0.05', '-0.05'),
    ('Optimal', 5, '-0.5899999999999999', '-0.5899999999999999'),
    ('Optimal', 5, '-2.0300000000000002', '-2.0300000000000002'),
    ('Optimal', 1, '-1.97', '-1.97'),
    ('Optimal', 5, '1.08', '1.08'),
    ('Optimal', 1, '-1.560089325728759', '-1.560089325728759'),
    ('Optimal', 1, '-6.300000000000001', '-6.300000000000001'),
    ('Optimal', 1, '-2.75', '-2.75'),
    ('Optimal', 3, '-2.6', '-2.6'),
    ('Optimal', 13, '-0.7346455384115775', '-0.7346455384115775'),
    ('Optimal', 3, '-0.86', '-0.86'),
    ('Optimal', 3, '-1.7422268905909912', '-1.7422268905909912'),
    ('Optimal', 5, '-2.37', '-2.37'),
    ('Optimal', 1, '-0.22061492798873414', '-0.22061492798873414'),
    ('Optimal', 1, '-1.2799999999999998', '-1.2799999999999998'),
    ('Optimal', 1, '-1.02', '-1.02'),
    ('Optimal', 3, '-1.6466084426628351', '-1.6466084426628351'),
    ('Optimal', 7, '1.57', '1.57'),
    ('Optimal', 3, '-0.37', '-0.37'),
    ('Optimal', 1, '-2.93', '-2.93'),
    ('Optimal', 1, '-2.69', '-2.69'),
]


def test_trees_are_pinned():
    rng = np.random.default_rng(77)
    instances = [KNAPSACK, LOOSE_KNAPSACK] + [_random_instance(rng) for _ in range(30)]
    seen = []
    for inst in instances:
        limit = 30 if inst in (KNAPSACK, LOOSE_KNAPSACK) else 60
        calls = []

        def counting(lp_problem, **kwargs):
            calls.append(lp_problem)
            return solve_lp(lp_problem, **kwargs)

        with mock.patch.object(bnb, "solve_lp", counting):
            r = solve_milp(_milp(**inst), time_limit=limit, gap_target=0.0)
        # each explored node is one LP: a leaf needs no second one
        assert r.nodes_explored == len(calls)
        seen.append((r.status.value, r.nodes_explored, repr(r.incumbent_objective),
                     repr(r.best_lower_bound)))
    assert seen == PINNED_TREES


def test_a_near_integral_root_branches_on_its_sliver():
    # the root answers with binary 1 at 1 - 1e-9: not integral, and not
    # rounded away either. The root branches on that binary, and no LP pins
    # every binary to the root's rounded pattern
    problem = _milp(**KNAPSACK)
    bins = problem.binary_cols
    honest = solve_lp(problem.lp)
    nudged = np.round(honest.x)
    nudged[1] = 1.0 - 1e-9
    calls = []

    def near_integral_root(lp_problem, **kwargs):
        calls.append(lp_problem)
        if len(calls) == 1:
            obj = float(problem.lp.c @ nudged)
            return LpResult(LpStatus.OPTIMAL, obj, nudged.copy(), 0, honest.basis)
        return solve_lp(lp_problem, **kwargs)

    with mock.patch.object(bnb, "solve_lp", near_integral_root):
        report = solve_milp(problem, time_limit=30, gap_target=0.0)
    assert [(c.lo[bins].tolist(), c.hi[bins].tolist()) for c in calls[1:3]] == [
        ([0.0, 0.0, 0.0], [1.0, 0.0, 1.0]),
        ([0.0, 1.0, 0.0], [1.0, 1.0, 1.0]),
    ]
    pattern = np.round(nudged[bins]).tolist()
    assert not any(c.lo[bins].tolist() == c.hi[bins].tolist() == pattern for c in calls)
    best_obj, _ = enumerate_milp(
        KNAPSACK["c"], KNAPSACK["a"], list(KNAPSACK["senses"]), KNAPSACK["rhs"],
        KNAPSACK["lo"], KNAPSACK["hi"], KNAPSACK["binary_ids"],
    )
    assert report.status == MilpStatus.OPTIMAL
    assert report.incumbent_objective == pytest.approx(best_obj, abs=1e-9)


def test_a_pinned_leaf_a_hair_off_its_pins_is_adopted_rounded():
    # every binary is pinned at the root, and its LP answers with binary 2
    # 1e-12 below its pin: the rounded point is verified and adopted, and no
    # further LP runs
    problem = _milp(**{**KNAPSACK, "lo": [0, 1, 1], "hi": [0, 1, 1]})
    honest = solve_lp(problem.lp)
    assert honest.x.tolist() == [0.0, 1.0, 1.0]
    off = honest.x.copy()
    off[2] -= 1e-12
    calls = []

    def hair_off(lp_problem, **kwargs):
        calls.append(lp_problem)
        return LpResult(LpStatus.OPTIMAL, float(problem.lp.c @ off), off.copy(), 0, honest.basis)

    with mock.patch.object(bnb, "solve_lp", hair_off):
        report = solve_milp(problem, time_limit=30, gap_target=0.0)
    assert len(calls) == report.nodes_explored == 1
    assert report.status == MilpStatus.OPTIMAL
    assert report.incumbent.tolist() == [0.0, 1.0, 1.0]
    assert report.incumbent_objective == float(problem.lp.c @ honest.x)


@pytest.mark.parametrize("status", [LpStatus.ITERATION_LIMIT, LpStatus.NUMERICAL],
                         ids=lambda status: status.value)
def test_a_pinned_leaf_without_an_answer_caps_the_bound(status):
    # the LP over the fully pinned box (1, 0, 0), the optimum of
    # LOOSE_KNAPSACK, stops at its pivot cap or on a singular basis; no
    # binary is left to split on, so the node stays unresolved and its bound
    # keeps the reported gap honest
    pinned = np.array([1.0, 0.0, 0.0])
    leaves = []

    def capped_leaf(lp_problem, **kwargs):
        if np.array_equal(lp_problem.lo, pinned) and np.array_equal(lp_problem.hi, pinned):
            leaves.append(lp_problem)
            return LpResult(status, np.nan, np.full(3, np.nan), 0)
        return solve_lp(lp_problem, **kwargs)

    with mock.patch.object(bnb, "solve_lp", capped_leaf):
        report = solve_milp(_milp(**LOOSE_KNAPSACK), time_limit=30, gap_target=0.0)
    assert len(leaves) == 1
    assert report.status == MilpStatus.GAP_LIMIT
    assert report.incumbent_objective == pytest.approx(-0.5, abs=1e-9)
    assert report.best_lower_bound <= -0.6 + 1e-9
    assert report.gap == pytest.approx(
        (report.incumbent_objective - report.best_lower_bound) / 0.5)
