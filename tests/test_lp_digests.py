"""Byte-level digests of every LP the model layers build.

The digests pin the exact arrays (`c, a, senses, rhs, lo, hi`) handed to
the simplex, so a refactor of the row builders cannot move a bit of any
LP input unnoticed. Bounds are fixed rather than LP-derived and the LP
calls are stubbed, so no simplex runs and the digests do not depend on
the BLAS thread count. A deliberate change to a row's coefficients must
re-record the digests below and say so in the change log.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from fairbins import bounds as bounds_mod
from fairbins import nmdt as nmdt_mod
from fairbins.bounds import TightBounds, tighten_mass_bounds, tighten_rate_bounds
from fairbins.data import compute_bin_stats, quantile_bin
from fairbins.lp import LpResult, LpStatus, point_violation
from fairbins.model import ModelConfig, build_model
from fairbins.nmdt import build_milp, completion_start, initial_point

from .conftest import biased_synthetic

CONFIG = ModelConfig(eps_dp=0.05, eps_eodds=0.05, eps_prp=0.05, retention=0.5, window=3)
NBINS = 5
POWER = -3

DIGESTS = {
    "linear_rows":
        "24174a80fc20098907166df28d3c843048d42ff3d364eacf9b26d9f629815910",
    "mass_lps":
        "9667ebc194a9d7f74844ee21991011f0c56284bfac976cc7c76f1e2af166a0dd",
    "rate_lps":
        "748dfa377fa15ef664b6ff9d92bc76d430b02c327dce0e2e6db0cc2245bee9c6",
    "milp":
        "5166861ebc35b9a9b08df9f30c37c7120178e1c126069edd7070eb365076e889",
    "completion":
        "9a448466bb50ab208de8c7a95f4c8ebc70e2141d0f75db30e5e0650ba2323d77",
}


def _update(h, arr) -> None:
    arr = np.ascontiguousarray(arr)
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())


def _digest(problems) -> str:
    h = hashlib.sha256()
    for p in problems:
        for arr in (p.c, p.a, p.senses, p.rhs, p.lo, p.hi):
            _update(h, arr)
    return h.hexdigest()


@pytest.fixture(scope="module")
def model():
    obs = biased_synthetic()
    return build_model(compute_bin_stats(obs, quantile_bin(obs, NBINS)), CONFIG)


@pytest.fixture(scope="module")
def fixed_bounds(model):
    """Mass boxes from the model's own box bounds, rate boxes a fixed band
    around the empirical rates, and one link narrowed to 1e-7, the narrowest
    box `tighten` returns: its ±1e-7 padding widens every box it does not
    find crossed."""
    G, B = model.stats.ngroups, model.stats.nbins
    v = slice(model.v_start, model.t_start)
    rate = model.stats.npos / model.stats.n
    t_lo = np.clip(rate - 0.15, 0.0, 1.0)
    t_hi = np.clip(rate + 0.15, 0.0, 1.0)
    t_hi[1, 0] = t_lo[1, 0] + 1e-7
    return TightBounds(
        v_lo=model.lo[v].reshape(G, B),
        v_hi=model.hi[v].reshape(G, B),
        t_lo=t_lo,
        t_hi=t_hi,
    )


def _recording(monkeypatch, module, status):
    """Stub `module.solve_lp`: record each problem, answer with `status`."""
    seen = []

    def fake(problem, **_):
        seen.append(problem)
        return LpResult(status, 0.0, np.zeros(problem.ncols), 0)

    monkeypatch.setattr(module, "solve_lp", fake)
    return seen


def test_linear_rows_digest(model):
    rows = model.linear_rows(include_rate_rows=True)
    h = hashlib.sha256()
    for arr in (rows.a, rows.senses, rows.rhs):
        _update(h, arr)
    assert h.hexdigest() == DIGESTS["linear_rows"]


def test_mass_bound_lp_digest(model, monkeypatch):
    seen = _recording(monkeypatch, bounds_mod, LpStatus.OPTIMAL)
    tighten_mass_bounds(model)
    assert len(seen) == 2 * model.stats.ngroups * model.stats.nbins
    assert _digest(seen) == DIGESTS["mass_lps"]


def test_rate_bound_lp_digest(model, fixed_bounds, monkeypatch):
    seen = _recording(monkeypatch, bounds_mod, LpStatus.OPTIMAL)
    tighten_rate_bounds(model, fixed_bounds.v_lo, fixed_bounds.v_hi)
    assert len(seen) == 2 * model.stats.ngroups * model.stats.nbins
    assert _digest(seen) == DIGESTS["rate_lps"]


def test_milp_lp_digest(model, fixed_bounds):
    nm = build_milp(model, fixed_bounds, power=POWER)
    assert _digest([nm.problem.lp]) == DIGESTS["milp"]


def test_first_elastic_completion_lp_digest(model, fixed_bounds, monkeypatch):
    nm = build_milp(model, fixed_bounds, power=POWER)
    # the identity lift must fail, or completion never builds an LP
    assert point_violation(nm.problem.lp, initial_point(nm)) > 1e-3
    seen = _recording(monkeypatch, nmdt_mod, LpStatus.INFEASIBLE)
    assert completion_start(nm) is None
    assert len(seen) == 1
    assert _digest(seen) == DIGESTS["completion"]
