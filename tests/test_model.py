"""Model assembly checks on the canonical 40-row fixture."""

from __future__ import annotations

import numpy as np
import pytest

from fairbins.data import BinSpec, compute_bin_stats, load_dataset
from fairbins.lp import point_violation, LpProblem
from fairbins.model import (
    FairnessModel,
    ModelBuildError,
    ModelConfig,
    build_model,
    identity_plan,
    plan_matrices,
)

from .conftest import tiny_stats


def test_column_layout_and_window():
    stats = tiny_stats()
    m = build_model(stats, ModelConfig(window=2, retention=0.5))
    # B=2 with window 2: every (g, b, b') pair materialized
    assert m.nx == 2 * 2 * 2
    assert m.ncols == m.nx + 4 + 4
    narrow = build_model(stats, ModelConfig(window=1))
    assert narrow.nx == 4
    assert all(b == bp for _, b, bp in narrow.x_cols)


def test_retention_sets_diagonal_floor():
    m = build_model(tiny_stats(), ModelConfig(window=2, retention=0.3))
    for (g, b, bp), j in m.x_index.items():
        assert m.lo[j] == (0.7 if b == bp else 0.0)


def test_identity_plan_satisfies_transport_rows():
    m = build_model(tiny_stats(), ModelConfig(window=2, retention=0.5))
    x = identity_plan(m)
    rows = m.rows_transport
    resid = rows.a @ x - rows.rhs
    assert np.abs(resid).max() < 1e-12
    # induced masses and rates match the raw tallies
    assert x[m.v_col(0, 0)] == 10.0
    assert x[m.t_col(0, 0)] == pytest.approx(0.2)
    assert x[m.t_col(1, 1)] == pytest.approx(0.6)


def test_identity_violations_match_hand_computation():
    # frozen oracle: identity plan violates nothing on DP, 0.2 on both
    # odds sides, 0.2 on the rate gap at tolerance 0
    m = build_model(
        tiny_stats(), ModelConfig(eps_dp=0.0, eps_eodds=0.0, eps_prp=0.0, window=2)
    )
    x = identity_plan(m)
    dp = (m.rows_parity.a @ x - m.rows_parity.rhs).max()
    odds = (m.rows_odds.a @ x - m.rows_odds.rhs).max()
    gap = (m.rows_rate_gap.a @ x - m.rows_rate_gap.rhs).max()
    assert dp == pytest.approx(0.0, abs=1e-12)
    assert odds == pytest.approx(0.2, abs=1e-12)
    assert gap == pytest.approx(0.2, abs=1e-12)


def test_identity_feasible_at_loose_tolerances():
    m = build_model(
        tiny_stats(), ModelConfig(eps_dp=0.25, eps_eodds=0.25, eps_prp=0.25, window=2)
    )
    x = identity_plan(m)
    rows = m.linear_rows(include_rate_rows=True)
    p = LpProblem(m.objective, rows.a, rows.senses, rows.rhs, m.lo, m.hi)
    assert point_violation(p, x) < 1e-9


def test_objective_prices_distance_moved():
    stats = tiny_stats()
    m = build_model(stats, ModelConfig(window=2))
    j = m.x_index[(0, 0, 1)]
    # 10 of 40 rows moving half the score scale
    assert m.objective[j] == pytest.approx((10 / 40) * 0.5)
    assert m.objective[m.x_index[(0, 0, 0)]] == 0.0


def test_plan_matrices_round_trip():
    m = build_model(tiny_stats(), ModelConfig(window=2))
    x = identity_plan(m)
    plan = plan_matrices(m, x)
    assert plan.shape == (2, 2, 2)
    assert np.allclose(plan[0], np.eye(2))


def test_empty_cell_rejected():
    stats = tiny_stats()
    stats.n[0, 1] = 0.0
    stats.npos[0, 1] = 0.0
    with pytest.raises(ModelBuildError, match=r"\(1, 1\)"):
        build_model(stats, ModelConfig(window=2))


def test_one_sided_group_rejected():
    stats = tiny_stats()
    stats.npos[1, :] = 0.0
    with pytest.raises(ModelBuildError, match="group 2"):
        build_model(stats, ModelConfig(window=2))


def test_config_validation():
    with pytest.raises(ValueError, match="retention"):
        ModelConfig(retention=1.5)
    with pytest.raises(ValueError, match="window"):
        ModelConfig(window=0)
    with pytest.raises(ValueError, match="eps_dp"):
        ModelConfig(eps_dp=-0.1)


@pytest.mark.parametrize("name", ["eps_dp", "eps_eodds", "eps_prp"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_tolerances_must_be_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
        ModelConfig(**{name: value})
