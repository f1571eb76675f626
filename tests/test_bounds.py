"""Bound tightening vs the brute-force grid oracle."""

from __future__ import annotations

import importlib.util
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from fairbins import bounds as bounds_mod
from fairbins import frontier as frontier_mod
from fairbins.bounds import BoundsError, tighten, tighten_mass_bounds, tighten_rate_bounds
from fairbins.data import Dataset, compute_bin_stats, quantile_bin
from fairbins.frontier import sweep
from fairbins.lp import FEAS_TOL, LpProblem, point_violation, solve_lp
from fairbins.model import ModelConfig, build_model
from fairbins.nmdt import power_for_precision

from .conftest import tiny_stats
from .oracle_helpers import grid_rate_bounds, scipy_milp

LOOSE = ModelConfig(eps_dp=10.0, eps_eodds=10.0, eps_prp=10.0, retention=0.5, window=2)


def test_mass_bounds_loose_tolerances():
    m = build_model(tiny_stats(), LOOSE)
    v_lo, v_hi = tighten_mass_bounds(m)
    # each bin holds 10; half may leave, half of the neighbor may arrive
    assert v_lo == pytest.approx(np.full((2, 2), 5.0), abs=1e-5)
    assert v_hi == pytest.approx(np.full((2, 2), 15.0), abs=1e-5)


def test_rate_bounds_match_grid_oracle():
    # frozen oracle (retention 0.5, no cross-group coupling):
    # g1: dest0 (0.2, 0.5), dest1 (0.5, 0.8); g2: dest0 (0.4, 0.5), dest1 (0.5, 0.6)
    stats = tiny_stats()
    m = build_model(stats, LOOSE)
    tb = tighten(m)
    expected = {
        (0, 0): (0.2, 0.5),
        (0, 1): (0.5, 0.8),
        (1, 0): (0.4, 0.5),
        (1, 1): (0.5, 0.6),
    }
    for (g, bp), (lo, hi) in expected.items():
        assert tb.t_lo[g, bp] == pytest.approx(lo, abs=1e-3)
        assert tb.t_hi[g, bp] == pytest.approx(hi, abs=1e-3)
        grid_lo, grid_hi = grid_rate_bounds(
            list(stats.n[g]), list(stats.npos[g]), bp, retention=0.5
        )
        assert tb.t_lo[g, bp] <= grid_lo + 1e-6
        assert tb.t_hi[g, bp] >= grid_hi - 1e-6


def test_bounds_contain_identity_rates():
    stats = tiny_stats()
    m = build_model(stats, LOOSE)
    tb = tighten(m)
    rates = stats.npos / stats.n
    assert np.all(tb.t_lo <= rates + 1e-9)
    assert np.all(tb.t_hi >= rates - 1e-9)
    assert np.all(tb.v_lo <= stats.n + 1e-9)
    assert np.all(tb.v_hi >= stats.n - 1e-9)


def test_exact_odds_shrinks_mass_range():
    # verified against scipy: forcing both odds sides equal narrows every
    # destination's mass range from [5, 15] to [7.5, 12.5]
    tight = build_model(
        tiny_stats(),
        ModelConfig(eps_dp=10.0, eps_eodds=0.0, eps_prp=10.0, retention=0.5, window=2),
    )
    lo1, hi1 = tighten_mass_bounds(tight)
    assert lo1 == pytest.approx(np.full((2, 2), 7.5), abs=1e-5)
    assert hi1 == pytest.approx(np.full((2, 2), 12.5), abs=1e-5)


def test_window_one_pins_everything():
    stats = tiny_stats()
    m = build_model(stats, ModelConfig(eps_dp=10.0, eps_eodds=10.0, eps_prp=10.0, window=1))
    tb = tighten(m)
    rates = stats.npos / stats.n
    assert tb.v_lo == pytest.approx(stats.n, abs=1e-5)
    assert tb.v_hi == pytest.approx(stats.n, abs=1e-5)
    assert tb.t_lo == pytest.approx(rates, abs=1e-5)
    assert tb.t_hi == pytest.approx(rates, abs=1e-5)


def test_full_release_mass_raises():
    m = build_model(tiny_stats(), ModelConfig(eps_dp=10.0, eps_eodds=10.0, eps_prp=10.0, retention=1.0, window=2))
    v_lo, v_hi = tighten_mass_bounds(m)
    assert v_lo.min() == 0.0
    with pytest.raises(BoundsError, match="zero"):
        tighten_rate_bounds(m, v_lo, v_hi)


def test_bounds_deterministic():
    m = build_model(tiny_stats(), LOOSE)
    a = tighten(m)
    b = tighten(m)
    assert np.array_equal(a.t_lo, b.t_lo)
    assert np.array_equal(a.t_hi, b.t_hi)
    assert np.array_equal(a.v_lo, b.v_lo)
    assert np.array_equal(a.v_hi, b.v_hi)


def _bench_file_stats(seed: int, k: int, nbins: int):
    """Bin statistics of the benchmark's `k`-th input file for `seed`, drawn
    by the benchmark's own generator."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    obs = Dataset(*inputs.synthetic_rows(inputs.stream(seed, k), 5000))
    return compute_bin_stats(obs, quantile_bin(obs, nbins))


@pytest.mark.parametrize("stats, config", [
    (tiny_stats, ModelConfig(eps_dp=0.1, eps_eodds=0.1, eps_prp=0.1, retention=0.5, window=2)),
    (lambda: _bench_file_stats(1, 0, 4),
     ModelConfig(eps_dp=0.06, eps_eodds=0.06, eps_prp=0.06, retention=0.5, window=3)),
], ids=["tiny", "bench-seed-1-file-0"])
def test_warm_chained_tightening_matches_cold_solves(stats, config):
    model = build_model(stats(), config)
    runs = {}
    for warm in (True, False):
        starts, pivots = [], []

        def recording(problem, **kwargs):
            if not warm:
                kwargs.pop("start", None)
            starts.append(kwargs.get("start") is not None)
            res = solve_lp(problem, **kwargs)
            pivots.append(res.iterations)
            return res

        with mock.patch.object(bounds_mod, "solve_lp", recording):
            runs[warm] = (tighten(model), starts, sum(pivots))
    (chained, starts, warm_pivots), (cold, _, cold_pivots) = runs[True], runs[False]
    for name in ("v_lo", "v_hi", "t_lo", "t_hi"):
        np.testing.assert_allclose(getattr(chained, name), getattr(cold, name),
                                   rtol=0, atol=1e-9)
    # the mass LPs and the rate LPs are one chain each: every LP after a
    # chain's first starts from its predecessor
    GB = model.stats.ngroups * model.stats.nbins
    assert starts == ([False] + [True] * (2 * GB - 1)) * 2
    assert warm_pivots < cold_pivots


def test_crossed_rate_bounds_raise():
    # a min LP that answers above its max LP is numerical trouble; the box
    # must not be collapsed into a pinned rate that may cut off the optimum
    m = build_model(tiny_stats(), LOOSE)
    v_lo, v_hi = tighten_mass_bounds(m)
    calls = []

    def crossing(problem, **kwargs):
        res = solve_lp(problem, **kwargs)
        calls.append(res)
        if len(calls) == 3:  # the min LP of the second (group, dest) pair
            res = res._replace(objective=1.0)
        return res

    with mock.patch.object(bounds_mod, "solve_lp", crossing), \
            pytest.raises(BoundsError, match="cross") as caught:
        tighten_rate_bounds(m, v_lo, v_hi)
    assert (caught.value.group, caught.value.dest) == (m.links[1].group, m.links[1].dest)


def test_a_rate_box_narrower_than_the_linearization_takes_raises():
    # padded min and max 1e-13 apart: not crossed, yet too narrow to split
    # into digits, so it is the same numerical trouble as a crossed box
    m = build_model(tiny_stats(), LOOSE)
    v_lo, v_hi = tighten_mass_bounds(m)
    calls = []

    def narrowing(problem, **kwargs):
        res = solve_lp(problem, **kwargs)
        calls.append(res)
        if len(calls) == 4:  # the max LP of the second (group, dest) pair
            res = res._replace(objective=-(calls[2].objective + 1e-13 - 2e-7))
        return res

    with mock.patch.object(bounds_mod, "solve_lp", narrowing), \
            pytest.raises(BoundsError, match="cross") as caught:
        tighten_rate_bounds(m, v_lo, v_hi)
    assert (caught.value.group, caught.value.dest) == (m.links[1].group, m.links[1].dest)


BENCH = ModelConfig(eps_dp=0.06, eps_eodds=0.06, eps_prp=0.06, retention=0.5, window=3)


@pytest.mark.parametrize("stats, config", [
    (tiny_stats, ModelConfig(eps_dp=0.1, eps_eodds=0.1, eps_prp=0.1, retention=0.5, window=2)),
    (lambda: _bench_file_stats(1, 0, 4), BENCH),
    (lambda: _bench_file_stats(9, 7, 4), BENCH),
], ids=["tiny", "bench-seed-1-file-0", "bench-seed-9-file-7"])
def test_every_rate_bound_is_attained_by_a_real_plan(stats, config):
    model = build_model(stats(), config)
    nx = model.nx
    answers = []

    def recording(problem, **kwargs):
        res = solve_lp(problem, **kwargs)
        if problem.ncols == nx + 1:  # a rate LP: [scaled plan columns, phi]
            answers.append(res)
        return res

    with mock.patch.object(bounds_mod, "solve_lp", recording):
        tb = tighten(model)
    assert len(answers) == 2 * len(model.links)
    rows = model.linear_rows(include_rate_rows=False)
    polytope = LpProblem(np.zeros(model.ncols), rows.a, rows.senses, rows.rhs,
                         model.lo, model.hi)
    for k, res in enumerate(answers):
        link = model.links[k // 2]
        # undo the substitution: x = y / phi, and each mass through its link
        point = np.zeros(model.ncols)
        point[:nx] = res.x[:nx] / res.x[nx]
        for other in model.links:
            point[other.v_col] = other.n @ point[other.x_cols]
        assert point_violation(polytope, point) <= FEAS_TOL
        rate = (link.npos @ point[link.x_cols]) / point[link.v_col]
        reported = (tb.t_lo, tb.t_hi)[k % 2][link.group, link.dest]
        padded = rate - bounds_mod._PAD if k % 2 == 0 else rate + bounds_mod._PAD
        assert abs(np.clip(padded, 0.0, 1.0) - reported) <= 1e-9


def test_bench_seed_9_file_7_sweeps_to_optimal():
    # its rate bounds once moved in their last digits and sent the cold root
    # LP of the first point to a wrong Infeasible verdict
    grid = (0.06,), (0.06,), (0.06, 0.08)
    points = sweep(_bench_file_stats(9, 7, 4), *grid, budget_per_solve=300, retention=0.5,
                   window=3, power=power_for_precision(0.25))
    assert [p.configured for p in points] == [(0.06, 0.06, 0.06), (0.06, 0.06, 0.08)]
    for p in points:
        assert (p.status, p.gap) == ("Optimal", 0.0)
        assert p.eps_dp <= p.configured[0] + 1e-6
        assert p.eps_eodds <= p.configured[1] + 1e-6


def test_bench_seed_11_file_0_sweeps_to_the_highs_optimum():
    # its root LP once ended Infeasible after 2,679 pivots, and the sweep
    # then reported INFEASIBLE although the completion start had handed
    # branch and bound a verified incumbent
    outcomes, solve_once = [], frontier_mod.solve_once

    def recording(*args, **kwargs):
        outcomes.append(solve_once(*args, **kwargs))
        return outcomes[-1]

    grid = (0.06,), (0.06,), (0.06, 0.08)
    with mock.patch.object(frontier_mod, "solve_once", recording):
        points = sweep(_bench_file_stats(11, 0, 4), *grid, budget_per_solve=300,
                       retention=0.5, window=3, power=power_for_precision(0.25))
    assert [(p.status, p.gap) for p in points] == [("Optimal", 0.0)] * 2
    assert len(outcomes) == 2
    ch = {-1: "<", 0: "=", 1: ">"}
    for out in outcomes:
        lp, binaries = out.milp.problem.lp, out.milp.problem.binary_cols
        status, best = scipy_milp(lp.c, lp.a, [ch[int(s)] for s in lp.senses], lp.rhs,
                                  lp.lo, lp.hi, binaries.tolist())
        assert status == "optimal"
        assert out.report.incumbent_objective == pytest.approx(best, rel=1e-9)
        assert out.report.incumbent_objective == pytest.approx(0.0056905264, abs=1e-10)
