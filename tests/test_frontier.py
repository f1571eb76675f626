"""Frontier filtering, trade-off queries, model comparison, and sweeps."""

from __future__ import annotations

import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairbins import bounds, frontier
from fairbins.bnb import solve_milp
from fairbins.bounds import BoundsError
from fairbins.frontier import (
    FrontierPoint,
    compare_models,
    frontier_csv,
    non_dominated,
    parse_frontier_csv,
    solve_once,
    sweep,
    tradeoff_query,
)
from fairbins.lp import LpStatus, solve_lp
from fairbins.model import ModelConfig, build_model
from fairbins.postprocess import auc_from_bins

from .conftest import tiny_stats


def point(auc, dp, eodds, prp, status="Optimal", gap=0.0, seconds=0.0,
          configured=(0.03, 0.03, 0.03)):
    return FrontierPoint(
        configured=configured, status=status, gap=gap, solve_seconds=seconds,
        auc=auc, eps_dp=dp, eps_eodds=eodds, eps_prp=prp,
    )


def brute_non_dominated(points):
    """Independent oracle: unique metric tuples with no dominator."""
    metrics = {(p.auc, p.eps_dp, p.eps_eodds, p.eps_prp) for p in points
               if p.auc is not None}

    def dominated(m):
        for q in metrics:
            if q == m:
                continue
            if (q[0] >= m[0] and q[1] <= m[1] and q[2] <= m[2] and q[3] <= m[3]
                    and q != m):
                if q[0] > m[0] or q[1] < m[1] or q[2] < m[2] or q[3] < m[3]:
                    return True
        return False

    return {m for m in metrics if not dominated(m)}


def test_full_domination_drops_the_worse_point():
    a = point(0.9, 0.01, 0.01, 0.01)
    b = point(0.8, 0.02, 0.02, 0.02)
    assert non_dominated([b, a]) == [a]


def test_incomparable_points_both_survive():
    a = point(0.9, 0.01, 0.02, 0.01)
    b = point(0.8, 0.02, 0.01, 0.01)
    assert non_dominated([a, b]) == [a, b]  # auc-descending order


def test_duplicates_collapse_to_one():
    a = point(0.9, 0.01, 0.01, 0.01)
    b = point(0.9, 0.01, 0.01, 0.01)
    assert len(non_dominated([a, b])) == 1


def test_points_without_metrics_are_ignored():
    bad = FrontierPoint(configured=(0.0, 0.0, 0.0), status="Infeasible",
                        gap=float("inf"), solve_seconds=0.0)
    good = point(0.7, 0.1, 0.1, 0.1)
    assert non_dominated([bad, good]) == [good]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 80))
def test_non_domination_matches_brute_force(seed, count):
    rng = np.random.default_rng(seed)
    pts = [
        point(round(float(a), 3), round(float(d), 3), round(float(e), 3),
              round(float(p), 3))
        for a, d, e, p in zip(rng.random(count), rng.random(count),
                              rng.random(count), rng.random(count))
    ]
    got = {(p.auc, p.eps_dp, p.eps_eodds, p.eps_prp) for p in non_dominated(pts)}
    assert got == brute_non_dominated(pts)


OPERATING = point(0.9, 0.02, 0.02, 0.02)


def test_tradeoff_buys_benefit_with_cost_only():
    a = point(0.88, 0.02, 0.02, 0.01)
    blocked = point(0.89, 0.03, 0.02, 0.005)  # held axis dp worsens
    improved = point(0.92, 0.01, 0.02, 0.02)  # cost does not worsen
    got = tradeoff_query([a, blocked, improved], OPERATING, cost="auc",
                         benefit="prp")
    assert got is a


def test_tradeoff_prefers_best_benefit_then_least_cost():
    small_gain_cheap = point(0.895, 0.02, 0.02, 0.010)
    small_gain_dear = point(0.880, 0.02, 0.02, 0.010)
    big_gain_dear = point(0.850, 0.02, 0.02, 0.005)
    frontier = [small_gain_cheap, small_gain_dear, big_gain_dear]
    assert tradeoff_query(frontier, OPERATING, "auc", "prp") is big_gain_dear
    # drop the big gain: equal benefits fall back to the cheaper cost
    frontier = [small_gain_dear, small_gain_cheap]
    assert tradeoff_query(frontier, OPERATING, "auc", "prp") is small_gain_cheap


def test_tradeoff_returns_none_when_nothing_qualifies():
    assert tradeoff_query([OPERATING], OPERATING, "auc", "dp") is None
    assert tradeoff_query([], OPERATING, "eodds", "prp") is None


def test_tradeoff_eps_axis_as_cost():
    q = point(0.90, 0.03, 0.02, 0.004)  # dp worsens, prp improves
    assert tradeoff_query([q], OPERATING, cost="dp", benefit="prp") is q
    # auc is a held axis here; a worse auc disqualifies
    r = point(0.89, 0.03, 0.02, 0.004)
    assert tradeoff_query([r], OPERATING, cost="dp", benefit="prp") is None


def test_tradeoff_validates_axes():
    with pytest.raises(ValueError, match="different"):
        tradeoff_query([], OPERATING, "auc", "auc")
    with pytest.raises(ValueError, match="unknown axis"):
        tradeoff_query([], OPERATING, "auc", "f1")


def test_compare_scaled_copies():
    a = [point(0.9, 0.01, 0.01, 0.01)]
    b = [point(0.9, 0.02, 0.02, 0.02)]
    rec = compare_models(a, b, auc_min=0.85)
    assert rec.winner == "A"
    assert rec.distance_a == pytest.approx(math.sqrt(3) * 0.01)
    assert rec.distance_b == pytest.approx(math.sqrt(3) * 0.02)
    assert rec.point_a is a[0] and rec.point_b is b[0]


def test_compare_norm_beats_single_axis_concentration():
    a = [point(0.9, 0.03, 0.0, 0.0)]
    b = [point(0.9, 0.02, 0.02, 0.02)]
    rec = compare_models(a, b, auc_min=0.5)
    assert rec.winner == "A"
    assert rec.distance_b == pytest.approx(math.sqrt(3) * 0.02)
    assert rec.distance_a == pytest.approx(0.03)


def test_compare_filter_exhaustion_and_tie():
    a = [point(0.9, 0.01, 0.01, 0.01)]
    rec = compare_models(a, a, auc_min=0.95)
    assert rec.winner is None
    assert rec.distance_a is None and rec.distance_b is None
    assert '"noAdmissiblePoint": true' in rec.to_json()
    tie = compare_models(a, list(a), auc_min=0.5)
    assert tie.winner == "tie"
    one_sided = compare_models(a, [point(0.7, 0.0, 0.0, 0.0)], auc_min=0.85)
    assert one_sided.winner == "A"


def test_csv_round_trip_including_infeasible_rows():
    pts = [
        point(0.9, 0.01, 0.02, 0.03, status="GapLimit", gap=0.125, seconds=3.0,
              configured=(0.05, 0.05, 0.05)),
        FrontierPoint(configured=(0.0, 0.0, 0.0), status="Infeasible",
                      gap=float("inf"), solve_seconds=1.0),
    ]
    text = frontier_csv(pts)
    lines = text.strip().splitlines()
    assert lines[0] == ("auc,epsDP,epsEOdds,epsPRP,configured_dp,"
                        "configured_eodds,configured_prp,status,gap,seconds,"
                        "nondominated")
    assert len(lines) == 3
    # timing never reaches the file, so identical reruns stay byte-identical
    assert all(line.split(",")[9] == "" for line in lines[1:])
    back = parse_frontier_csv(text)
    assert back[0] == pts[0]._replace(solve_seconds=0.0)
    assert back[1].auc is None and back[1].status == "Infeasible"
    assert math.isinf(back[1].gap)
    with pytest.raises(ValueError, match="missing columns"):
        parse_frontier_csv("auc,gap\n0.5,0.0\n")


@pytest.mark.parametrize("fields", [5, 13])
def test_a_row_with_too_few_or_too_many_fields_names_its_line(fields):
    # a long row is as malformed as a short one; blank lines are skipped
    header, row = frontier_csv([point(0.9, 0.01, 0.02, 0.03)]).splitlines()
    bad = ",".join((row.split(",") * 2)[:fields])
    assert parse_frontier_csv(f"{header}\n{row}\n\n{row}\n")[1] == point(0.9, 0.01, 0.02, 0.03)
    with pytest.raises(ValueError, match=f"line 3 has {fields} of 11 fields"):
        parse_frontier_csv(f"{header}\n{row}\n{bad}\n")


def test_single_cell_sweep_matches_direct_solve():
    stats = tiny_stats()
    config = ModelConfig(eps_dp=0.1, eps_eodds=0.1, eps_prp=0.1,
                         retention=0.5, window=2)
    direct = solve_once(stats, config, power=-4, time_limit=60.0)
    pts = sweep(stats, [0.1], [0.1], [0.1], retention=0.5, window=2,
                power=-4, budget_per_solve=60.0)
    assert len(pts) == 1
    p = pts[0]
    assert p.status == "Optimal"
    assert p.configured == (0.1, 0.1, 0.1)
    from fairbins.postprocess import expected_assignment_stats, fairness_violations
    pushed = expected_assignment_stats(direct.plan, stats)
    v = fairness_violations(pushed)
    assert p.auc == auc_from_bins(pushed, pooled=True)
    assert (p.eps_dp, p.eps_eodds, p.eps_prp) == (v.dp, v.eodds, v.prp)


def test_vacuous_tolerances_keep_base_auc():
    stats = tiny_stats()
    pts = sweep(stats, [1.0], [1.0], [1.0], retention=0.5, window=2,
                power=-4, budget_per_solve=60.0)
    assert pts[0].status == "Optimal"
    assert pts[0].auc == pytest.approx(auc_from_bins(stats, pooled=True), abs=1e-9)
    assert pts[0].eps_dp == pytest.approx(0.0, abs=1e-9)


def test_sweep_shares_bounds_and_orders_output():
    stats = tiny_stats()
    pts = sweep(stats, [0.25], [0.25], [0.25, 0.1], retention=0.5, window=2,
                power=-4, budget_per_solve=60.0)
    assert [p.configured[2] for p in pts] == [0.1, 0.25]
    assert all(p.status == "Optimal" for p in pts)


def test_loosening_prp_never_raises_objective():
    stats = tiny_stats()
    base = ModelConfig(eps_dp=0.25, eps_eodds=0.25, eps_prp=0.1,
                       retention=0.5, window=2)
    tight = solve_once(stats, base, power=-4, time_limit=60.0)
    loose = solve_once(
        stats,
        ModelConfig(eps_dp=0.25, eps_eodds=0.25, eps_prp=0.25,
                    retention=0.5, window=2),
        power=-4, time_limit=60.0, bounds=tight.bounds,
    )
    assert loose.report.incumbent_objective <= tight.report.incumbent_objective + 1e-9


def test_sweep_records_infeasible_triples():
    stats = tiny_stats()
    # width-1 window freezes every score in place, so any odds tolerance
    # below the raw 0.2 gap is impossible and the bound stage proves it
    pts = sweep(stats, [1.0], [0.0], [1.0], retention=0.5, window=1,
                power=-4, budget_per_solve=60.0)
    assert pts[0].status == "Infeasible"
    assert not pts[0].has_metrics
    text = frontier_csv(pts)
    assert parse_frontier_csv(text)[0].auc is None


@pytest.mark.parametrize("trouble, message", [
    ({"objective": 1.0}, "cross"),
    ({"status": LpStatus.ITERATION_LIMIT}, "ended IterationLimit"),
])
def test_sweep_raises_bound_trouble_that_proves_nothing(trouble, message):
    # a crossed rate box or a bound LP cut off by its limit is numerical
    # trouble, not a proof that the triple is infeasible
    stats = tiny_stats()
    config = ModelConfig(eps_dp=0.1, eps_eodds=0.1, eps_prp=0.1, retention=0.5, window=2)
    first_min_rate_lp = 2 * len(build_model(stats, config).links) + 1
    calls = []

    def troubled(problem, **kwargs):
        res = solve_lp(problem, **kwargs)
        calls.append(res)
        if len(calls) == first_min_rate_lp:
            res = res._replace(**trouble)
        return res

    with mock.patch.object(bounds, "solve_lp", troubled), \
            pytest.raises(BoundsError, match=message):
        sweep(stats, [0.1], [0.1], [0.1], retention=0.5, window=2, power=-2,
              budget_per_solve=60.0)


def test_multi_cell_sweep_matches_independent_solves():
    # every root after the sweep's first warm-starts from the previous
    # root's basis, across (dp, eodds) pairs too; every point must still
    # match a solve of its own
    stats = tiny_stats()
    grid = ([0.25], [0.1, 0.25], [0.1, 0.15, 0.25])
    calls = []

    def recording(*args, **kwargs):
        report = solve_milp(*args, **kwargs)
        calls.append((kwargs["root_start"], report))
        return report

    with mock.patch.object(frontier, "solve_milp", recording):
        pts = sweep(stats, *grid, retention=0.5, window=2, power=-4,
                    budget_per_solve=60.0)
    assert [p.configured for p in pts] == list(product(*grid))
    assert len(calls) == len(pts)
    # only the first root starts cold, the rest from the root before
    starts = [start for start, _ in calls]
    assert [s is None for s in starts] == [True] + [False] * 5
    assert all(s is calls[i - 1][1].root_basis for i, s in enumerate(starts) if s is not None)
    for p, (_, report) in zip(pts, calls):
        dp, eodds, prp = p.configured
        direct = solve_once(
            stats, ModelConfig(eps_dp=dp, eps_eodds=eodds, eps_prp=prp, retention=0.5, window=2),
            power=-4, time_limit=60.0,
        ).report
        assert p.status == report.status.value == direct.status.value
        assert report.incumbent_objective == pytest.approx(direct.incumbent_objective, abs=1e-9)
