"""Bound tightening vs the brute-force grid oracle."""

from __future__ import annotations

import importlib.util
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from fairbins import bounds as bounds_mod
from fairbins.bounds import BoundsError, tighten, tighten_mass_bounds, tighten_rate_bounds
from fairbins.data import Dataset, compute_bin_stats, quantile_bin
from fairbins.lp import solve_lp
from fairbins.model import ModelConfig, build_model

from .conftest import tiny_stats
from .oracle_helpers import grid_rate_bounds

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
    # every mass LP after the first starts from its predecessor, and every
    # max rate LP from its min LP
    GB = model.stats.ngroups * model.stats.nbins
    assert starts == [False] + [True] * (2 * GB - 1) + [False, True] * GB
    assert warm_pivots < cold_pivots
