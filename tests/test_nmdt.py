"""Linearization checks: digit layout, envelopes, residual guarantees."""

from __future__ import annotations

import numpy as np
import pytest

from fairbins.bnb import MilpStatus, solve_milp
from fairbins.bounds import tighten
from fairbins.lp import point_violation
from fairbins.model import ModelConfig, build_model, plan_matrices
from fairbins.nmdt import (
    completion_start,
    build_milp,
    certified_rate_slack,
    initial_point,
    link_residuals,
    power_for_precision,
    residual_caps,
)

from .conftest import tiny_stats
from .oracle_helpers import enumerate_milp, scipy_milp

TIGHT = ModelConfig(eps_dp=0.1, eps_eodds=0.1, eps_prp=0.1, retention=0.5, window=2)
LOOSE = ModelConfig(eps_dp=0.25, eps_eodds=0.25, eps_prp=0.25, retention=0.5, window=2)


@pytest.fixture(scope="module")
def tight_parts():
    m = build_model(tiny_stats(), TIGHT)
    return m, tighten(m)


def test_power_for_precision():
    assert power_for_precision(0.0625) == -4
    assert power_for_precision(1e-5) == -17
    assert power_for_precision(0.5) == -1
    with pytest.raises(ValueError):
        power_for_precision(0.0)
    with pytest.raises(ValueError):
        power_for_precision(1.5)


def test_power_for_precision_stops_at_the_last_double_digit():
    # 1e-100 once gave power -333, a 10,766x5,396 MILP at 4 bins, although
    # no digit past 2**-52 can change a rate held in a double
    assert power_for_precision(2.0**-52) == -52
    for precision in (2.0**-53, 1e-100, 5e-324, float("nan")):
        with pytest.raises(ValueError, match=r"2\*\*-52"):
            power_for_precision(precision)


def test_layout_counts(tight_parts):
    m, tb = tight_parts
    nm = build_milp(m, tb, power=-6)
    links = len(nm.links)
    assert links == 4
    assert len(nm.problem.binary_cols) == 6 * links
    # per link: scaled rate, remainder, 6 digits, 6 digit products and the
    # remainder product
    assert nm.problem.lp.ncols == m.ncols + 15 * links
    assert all(c.r >= m.ncols for c in nm.links)


def test_mode_and_power_validation(tight_parts):
    m, tb = tight_parts
    # exact is the one linearization, so there is no mode left to pick
    with pytest.raises(TypeError, match="mode"):
        build_milp(m, tb, power=-6, mode="exact")
    with pytest.raises(ValueError, match="power"):
        build_milp(m, tb, power=0)


def test_a_rate_box_without_width_is_refused(tight_parts):
    # every link has digits, and digits rescale the rate by its box width
    m, tb = tight_parts
    t_hi = tb.t_hi.copy()
    t_hi[1, 0] = tb.t_lo[1, 0] + 1e-13
    with pytest.raises(ValueError, match="group 2, bin 0"):
        build_milp(m, tb._replace(t_hi=t_hi), power=-6)


def test_identity_point_feasible_in_exact_mode():
    m = build_model(tiny_stats(), LOOSE)
    tb = tighten(m)
    nm = build_milp(m, tb, power=-8)
    assert point_violation(nm.problem.lp, initial_point(nm)) < 1e-9


def test_optimum_matches_enumeration(tight_parts):
    # frozen from the scipy-backed enumeration oracle at two digits
    m, tb = tight_parts
    ch = {-1: "<", 0: "=", 1: ">"}
    nm = build_milp(m, tb, power=-2)
    rep = solve_milp(
        nm.problem, time_limit=120, gap_target=0.0, initial=initial_point(nm)
    )
    assert rep.status == MilpStatus.OPTIMAL
    assert rep.incumbent_objective == pytest.approx(0.041666667, abs=1e-7)
    lp = nm.problem.lp
    obj, _ = enumerate_milp(
        lp.c,
        lp.a,
        [ch[int(s)] for s in lp.senses],
        lp.rhs,
        lp.lo,
        lp.hi,
        nm.problem.binary_cols.tolist(),
    )
    assert rep.incumbent_objective == pytest.approx(obj, abs=1e-7)


def test_four_digit_optimum_matches_highs(tight_parts):
    # 16 binaries are too many to enumerate; HiGHS' own branch and bound
    # judges the search from no initial point instead
    m, tb = tight_parts
    ch = {-1: "<", 0: "=", 1: ">"}
    nm = build_milp(m, tb, power=-4)
    rep = solve_milp(nm.problem, time_limit=120, gap_target=0.0)
    assert rep.status == MilpStatus.OPTIMAL
    lp = nm.problem.lp
    status, best = scipy_milp(lp.c, lp.a, [ch[int(s)] for s in lp.senses], lp.rhs, lp.lo, lp.hi,
                              nm.problem.binary_cols.tolist())
    assert status == "optimal"
    assert rep.incumbent_objective == pytest.approx(best, rel=1e-9)
    assert rep.best_lower_bound == pytest.approx(best, rel=1e-9)


def test_residuals_within_caps(tight_parts):
    m, tb = tight_parts
    nm = build_milp(m, tb, power=-6)
    rep = solve_milp(
        nm.problem, time_limit=300, gap_target=0.0, initial=initial_point(nm)
    )
    assert rep.status == MilpStatus.OPTIMAL
    res = link_residuals(nm, rep.incumbent)
    caps = residual_caps(nm)
    assert np.all(np.abs(res) <= caps + 1e-5)


def test_certified_slack_formula(tight_parts):
    m, tb = tight_parts
    nm = build_milp(m, tb, power=-6)
    caps = residual_caps(nm)
    manual = max(
        cap / tb.v_lo[c.group, c.dest] for cap, c in zip(caps, nm.links)
    )
    assert certified_rate_slack(nm) == pytest.approx(manual)
    finer = build_milp(m, tb, power=-10)
    assert certified_rate_slack(finer) < certified_rate_slack(nm)


def test_realized_rates_off_by_at_most_slack(tight_parts):
    m, tb = tight_parts
    nm = build_milp(m, tb, power=-8)
    rep = solve_milp(
        nm.problem, time_limit=300, gap_target=0.0, initial=initial_point(nm)
    )
    stats = m.stats
    plan = plan_matrices(m, rep.incumbent)
    arrived = np.einsum("gb,gbp->gp", stats.n, plan)
    pos_in = np.einsum("gb,gbp->gp", stats.npos, plan)
    realized = pos_in / arrived
    slack = certified_rate_slack(nm)
    for cols in nm.links:
        modeled = rep.incumbent[cols.t_col]
        assert abs(realized[cols.group, cols.dest] - modeled) <= slack + 1e-5


def test_completion_start_returns_identity_when_it_is_feasible():
    m = build_model(tiny_stats(), LOOSE)
    tb = tighten(m)
    nm = build_milp(m, tb, power=-4)
    warm = completion_start(nm)
    assert warm is not None
    # loose tolerances admit the identity plan, whose movement cost is zero
    assert float(nm.problem.lp.c @ warm) == pytest.approx(0.0, abs=1e-12)


def test_completion_start_builds_incumbent_past_infeasible_identity():
    m, tb = tight_parts_direct()
    nm = build_milp(m, tb, power=-6)
    assert point_violation(nm.problem.lp, initial_point(nm)) > 1e-6
    warm = completion_start(nm)
    assert warm is not None
    assert point_violation(nm.problem.lp, warm) <= 1e-7
    zvals = warm[nm.problem.binary_cols]
    assert np.all(np.abs(zvals - np.round(zvals)) <= 1e-9)


def test_completion_start_plan_meets_the_configured_tolerances():
    from fairbins.postprocess import (
        expected_assignment_stats,
        extract_plan,
        fairness_violations,
    )

    m, tb = tight_parts_direct()
    nm = build_milp(m, tb, power=-6)
    warm = completion_start(nm)
    plan = extract_plan(warm, m)
    moved = expected_assignment_stats(plan, m.stats)
    rep = fairness_violations(moved)
    slack = certified_rate_slack(nm)
    assert rep.dp <= TIGHT.eps_dp + 1e-6
    assert rep.eodds <= TIGHT.eps_eodds + 1e-6
    assert rep.prp <= TIGHT.eps_prp + slack + 1e-6


def tight_parts_direct():
    m = build_model(tiny_stats(), TIGHT)
    return m, tighten(m)
