"""Simplex kernel checks: frozen fixtures, scipy cross-checks, determinism,
bit-for-bit parity with the reference pivot loop, and warm starts."""

from __future__ import annotations

import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairbins import bnb, lp
from fairbins.bnb import solve_milp
from fairbins.bounds import tighten
from fairbins.data import compute_bin_stats, quantile_bin
from fairbins.frontier import sweep
from fairbins.lp import (
    _AT_LO,
    _AT_UP,
    _BASIC,
    _PIVOT_TOL,
    _REFACTOR_EVERY,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    LpProblem,
    LpStatus,
    point_violation,
    solve_lp,
)
from fairbins.model import ModelConfig, build_model
from fairbins.nmdt import _completion_lp, _feasible_rate_targets, build_milp

from .conftest import biased_synthetic, tiny_stats
from .oracle_helpers import scipy_lp
from .test_acceptance import FLAGSHIP_CONFIG
from .test_bounds import _bench_file_stats


def _problem(c, a, senses, rhs, lo, hi):
    code = {"<": SENSE_LE, "=": SENSE_EQ, ">": SENSE_GE}
    return LpProblem(
        c=np.array(c, dtype=float),
        a=np.array(a, dtype=float),
        senses=np.array([code[s] for s in senses], dtype=np.int8),
        rhs=np.array(rhs, dtype=float),
        lo=np.array(lo, dtype=float),
        hi=np.array(hi, dtype=float),
    )


def test_vertex_fixture():
    # frozen oracle: objective -10.0 at (2, 2)
    p = _problem([-2, -3], [[1, 1], [1, 2]], "<<", [4, 6], [0, 0], [10, 10])
    res = solve_lp(p)
    assert res.status == LpStatus.OPTIMAL
    assert res.objective == pytest.approx(-10.0, abs=1e-9)
    assert res.x == pytest.approx([2.0, 2.0], abs=1e-8)


def test_equality_and_ge_rows():
    p = _problem(
        [1, 1, 0],
        [[1, 2, 1], [1, 0, 0]],
        "=>",
        [4, 1],
        [0, 0, 0],
        [10, 10, 10],
    )
    res = solve_lp(p)
    assert res.status == LpStatus.OPTIMAL
    # x0 = 1 forced, rest of the mass lands on the slack-free x2
    assert res.objective == pytest.approx(1.0, abs=1e-8)
    assert point_violation(p, res.x) < 1e-8


def test_infeasible_detected():
    p = _problem([1], [[1], [1]], "<>", [1, 2], [0], [10])
    assert solve_lp(p).status == LpStatus.INFEASIBLE


def test_bound_conflict_is_infeasible():
    p = _problem([1], [[1]], "<", [5], [3], [2])
    assert solve_lp(p).status == LpStatus.INFEASIBLE


def test_an_unboxed_column_is_refused():
    # the ray the cost [-1, 0] would follow along x0 = x1 is never built
    for lo, hi in [([0, 0], [np.inf, 1]), ([-np.inf, 0], [1, 1]), ([0, np.nan], [1, 1]),
                   ([0, 0], [1, np.nan])]:
        with pytest.raises(ValueError, match="finite box"):
            _problem([-1, 0], [[1, -1]], "<", [0], lo, hi)


def test_upper_bounds_bind_via_flips():
    # optimum sits on variable bounds, not on a row; exercises bound flips
    p = _problem([-1, -1], [[1, 1]], "<", [10], [0, 0], [2, 3])
    res = solve_lp(p)
    assert res.status == LpStatus.OPTIMAL
    assert res.objective == pytest.approx(-5.0, abs=1e-9)
    assert res.x == pytest.approx([2.0, 3.0])


def test_negative_rhs_rows():
    p = _problem([1, 1], [[-1, -1]], "<", [-3], [0, 0], [10, 10])
    res = solve_lp(p)
    assert res.status == LpStatus.OPTIMAL
    assert res.objective == pytest.approx(3.0, abs=1e-8)


def test_no_rows_trivial_path():
    p = _problem([1, -2], np.zeros((0, 2)), "", [], [0, -1], [5, 4])
    res = solve_lp(p)
    assert res.status == LpStatus.OPTIMAL
    assert res.x == pytest.approx([0.0, 4.0])
    with pytest.raises(ValueError, match="finite box"):
        _problem([-1], np.zeros((0, 1)), "", [], [0], [np.inf])


@pytest.mark.parametrize("cross", [1e-9, 1.0])
def test_a_crossed_box_gets_one_verdict_with_or_without_rows(cross):
    # within FEAS_TOL a crossed box is met, beyond it no point is; adding a
    # row that every point meets changes neither verdict
    lo, hi = [0.0, 1.0 + cross], [1.0, 1.0]
    bare = solve_lp(_problem([1, 1], np.zeros((0, 2)), "", [], lo, hi))
    rowed = solve_lp(_problem([1, 1], [[1, 1]], "<", [10], lo, hi))
    assert bare.status == rowed.status
    assert bare.x.shape == rowed.x.shape == (2,)
    if cross > lp.FEAS_TOL:
        assert bare.status == LpStatus.INFEASIBLE
        assert np.isnan(bare.x).all() and np.isnan(rowed.x).all()
    else:
        assert bare.status == LpStatus.OPTIMAL
        assert bare.objective == pytest.approx(rowed.objective, abs=1e-8)


# Beale's classic degenerate instance, which cycles under naive Dantzig
# pivoting from the origin. Its optimum (x2 = 1, objective -0.05) stays
# inside the box [0, 10]^4.
_BEALE_C = [-0.75, 150.0, -0.02, 6.0]
_BEALE_A = [
    [0.25, -60.0, -1.0 / 25.0, 9.0],
    [0.5, -90.0, -1.0 / 50.0, 3.0],
    [0.0, 0.0, 1.0, 0.0],
]


def test_beale_cycling_example():
    c, a = _BEALE_C, _BEALE_A
    rhs = [0.0, 0.0, 1.0]
    lo = [0.0] * 4
    hi = [10.0] * 4
    res = solve_lp(_problem(c, a, "<<<", rhs, lo, hi))
    assert res.status == LpStatus.OPTIMAL
    assert res.objective == pytest.approx(-0.05, abs=1e-9)
    status, obj, _ = scipy_lp(c, a, ["<", "<", "<"], rhs, lo, hi)
    assert status == "optimal"
    assert res.objective == pytest.approx(obj, abs=1e-9)


def test_deterministic_resolve():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(14, 9))
    p = LpProblem(
        c=rng.normal(size=9),
        a=a,
        senses=np.array([SENSE_LE] * 10 + [SENSE_EQ] * 2 + [SENSE_GE] * 2, dtype=np.int8),
        rhs=np.concatenate([np.abs(a[:10]).sum(axis=1), a[10:] @ np.full(9, 0.5)]),
        lo=np.zeros(9),
        hi=np.ones(9),
    )
    first = solve_lp(p)
    second = solve_lp(p)
    assert first.status == second.status == LpStatus.OPTIMAL
    assert first.objective == second.objective
    assert np.array_equal(first.x, second.x)
    assert first.iterations == second.iterations


def _random_bounded(rng: np.random.Generator, m: int | None = None, n: int | None = None):
    m = int(rng.integers(2, 12)) if m is None else m
    n = int(rng.integers(2, 10)) if n is None else n
    a = np.round(rng.normal(size=(m, n)), 3)
    senses = rng.choice([SENSE_LE, SENSE_EQ, SENSE_GE], size=m, p=[0.6, 0.2, 0.2])
    interior = rng.uniform(0.1, 0.9, size=n)
    rhs = a @ interior  # every instance keeps `interior` feasible
    slack = rng.uniform(0.05, 1.5, size=m)
    rhs = rhs + np.where(senses == SENSE_LE, slack, np.where(senses == SENSE_GE, -slack, 0.0))
    return LpProblem(
        c=np.round(rng.normal(size=n), 3),
        a=a,
        senses=senses.astype(np.int8),
        rhs=rhs,
        lo=np.zeros(n),
        hi=np.ones(n),
    )


def test_hundred_random_lps_match_scipy():
    rng = np.random.default_rng(2024)
    sense_char = {SENSE_LE: "<", SENSE_EQ: "=", SENSE_GE: ">"}
    for _ in range(100):
        p = _random_bounded(rng)
        mine = solve_lp(p)
        status, obj, _ = scipy_lp(
            p.c, p.a, [sense_char[int(s)] for s in p.senses], p.rhs, p.lo, p.hi
        )
        assert status == "optimal"
        assert mine.status == LpStatus.OPTIMAL
        assert mine.objective == pytest.approx(obj, abs=1e-6)
        assert point_violation(p, mine.x) < 1e-7


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_lp_optimum_never_beats_scipy(seed):
    p = _random_bounded(np.random.default_rng(seed))
    mine = solve_lp(p)
    assert mine.status == LpStatus.OPTIMAL
    sense_char = {SENSE_LE: "<", SENSE_EQ: "=", SENSE_GE: ">"}
    status, obj, _ = scipy_lp(
        p.c, p.a, [sense_char[int(s)] for s in p.senses], p.rhs, p.lo, p.hi
    )
    assert status == "optimal"
    assert abs(mine.objective - obj) < 1e-6


def _padded(eng: lp._Engine) -> np.ndarray:
    """The engine matrix with its slack columns written out: `[a / scale | I]`."""
    return np.hstack([eng.a, np.eye(eng.m)])


class _ReferenceEngine(lp._Engine):
    """The engine over the padded matrix `[a / scale | I]`, with the plain
    form of its pivot loop: a per-position pricing select, per-pivot
    gathers and a full outer-product update. The dual's reduced costs,
    pivot rows and entering columns read the padded matrix too. The
    production engine keeps its slack columns implicit and does the same
    arithmetic, so every result must match this one to the last bit.

    The basic values are the one product left to the production engine:
    `a @ nb[:n]` and the padded `A @ nb` sum the same terms, but BLAS
    groups a sum of n terms differently from one of n + m, and the last
    bits differ on about one small LP in twelve."""

    def __init__(self, *args):
        super().__init__(*args)
        self.A = _padded(self)

    def reduced(self, c: np.ndarray) -> np.ndarray:
        return c - self.A.T @ (self.Binv.T @ self.cB)

    def price(self, y: np.ndarray) -> np.ndarray:
        return y @ self.A

    def column(self, q: int) -> np.ndarray:
        return self.Binv @ self.A[:, q]

    def run(self, c: np.ndarray) -> LpStatus:
        since_refactor = 0
        fixed = (self.hi - self.lo) <= 0.0
        while self.iterations < self.max_iters:
            self.iterations += 1
            y = self.Binv.T @ c[self.basis]
            d = c - self.A.T @ y
            eff = np.where(self.pos == _AT_LO, d, np.where(self.pos == _AT_UP, -d, -np.abs(d)))
            eff[(self.pos == _BASIC) | fixed] = 0.0
            q = int(np.argmin(eff))
            if eff[q] >= -lp.OPT_TOL:
                return LpStatus.OPTIMAL

            if self.pos[q] == _AT_LO:
                dirn = 1.0
            elif self.pos[q] == _AT_UP:
                dirn = -1.0
            else:
                dirn = 1.0 if d[q] < 0.0 else -1.0

            w = self.Binv @ self.A[:, q]
            delta = dirn * w
            blo = self.lo[self.basis]
            bhi = self.hi[self.basis]
            ratios = np.full(self.m, np.inf)
            dec = delta > _PIVOT_TOL
            inc = delta < -_PIVOT_TOL
            ratios[dec] = np.maximum(self.xB[dec] - blo[dec], 0.0) / delta[dec]
            ratios[inc] = np.maximum(bhi[inc] - self.xB[inc], 0.0) / -delta[inc]
            theta_basic = float(ratios.min()) if self.m else np.inf
            theta_flip = (self.hi[q] - self.val[q]) if dirn > 0 else (self.val[q] - self.lo[q])

            if not np.isfinite(min(theta_basic, theta_flip)):
                return LpStatus.NUMERICAL

            if theta_basic <= theta_flip:
                # ties resolved toward the lowest variable index
                tied = np.flatnonzero(ratios <= theta_basic)
                leave = int(tied[np.argmin(self.basis[tied])])
                lv = int(self.basis[leave])
                self.xB -= theta_basic * delta
                entering = self.val[q] + dirn * theta_basic
                if delta[leave] > 0:
                    self.pos[lv] = _AT_LO
                    self.val[lv] = self.lo[lv]
                else:
                    self.pos[lv] = _AT_UP
                    self.val[lv] = self.hi[lv]
                self.basis[leave] = q
                self.xB[leave] = entering
                self.pos[q] = _BASIC

                pivot = w[leave]
                row = self.Binv[leave] / pivot
                rest = w.copy()
                rest[leave] = 0.0
                self.Binv -= np.outer(rest, row)
                self.Binv[leave] = row
                since_refactor += 1
                if since_refactor >= _REFACTOR_EVERY:
                    since_refactor = 0
                    if not self.factor():
                        return LpStatus.NUMERICAL
            else:
                # the entering variable rides to its other bound; basis unchanged
                self.val[q] = self.hi[q] if dirn > 0 else self.lo[q]
                self.pos[q] = _AT_UP if dirn > 0 else _AT_LO
                self.xB -= theta_flip * delta
        return LpStatus.ITERATION_LIMIT


class _CountingEngine(lp._Engine):
    refactors = 0

    def factor(self) -> bool:
        _CountingEngine.refactors += 1
        return super().factor()


def _fingerprint(problem: LpProblem, start: lp.LpBasis | None = None) -> tuple:
    try:
        res = solve_lp(problem, start=start)
    except RuntimeError as e:
        return ("raised", str(e))
    return (res.status, res.iterations, repr(res.objective), res.x.tobytes())


def _assert_same_bits(problem: LpProblem, start: lp.LpBasis | None = None) -> tuple:
    """Solve with the production loop and the reference loop; every bit of
    the result must agree. Returns the production fingerprint."""
    mine = _fingerprint(problem, start)
    with mock.patch.object(lp, "_Engine", _ReferenceEngine):
        reference = _fingerprint(problem, start)
    assert mine == reference
    return mine


_KINDS = ("box", "fixed")


@st.composite
def _parity_lps(draw):
    """Small LPs over both column kinds, boxed and fixed. `degenerate` uses
    integer rows whose right-hand sides pass exactly through an integer
    point, so many rows are tight at once; `infeasible` adds two
    contradicting rows."""
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, 8))
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=n, max_size=n))
    senses = np.array(
        draw(st.lists(st.sampled_from([SENSE_LE, SENSE_EQ, SENSE_GE]), min_size=m, max_size=m)),
        dtype=np.int8,
    )
    degenerate = draw(st.booleans())
    case = draw(st.sampled_from(["plain", "infeasible"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    width = rng.integers(1, 4, size=n).astype(float)
    lo = rng.integers(-2, 1, size=n).astype(float)
    hi = lo + width
    x0 = lo + rng.integers(0, 2, size=n) * width
    for j, kind in enumerate(kinds):
        if kind == "fixed":
            lo[j] = hi[j] = x0[j]
    if degenerate:
        a = rng.integers(-3, 4, size=(m, n)).astype(float)
        rhs = a @ x0
    else:
        a = np.round(rng.normal(size=(m, n)), 2)
        slack = np.round(rng.uniform(0.0, 1.0, size=m), 2)
        rhs = a @ x0 + np.where(senses == SENSE_LE, slack, np.where(senses == SENSE_GE, -slack, 0.0))
    c = np.round(rng.normal(size=n), 2)
    if case == "infeasible":
        v = rng.integers(1, 4, size=n).astype(float)
        a = np.vstack([a, v, v])
        senses = np.concatenate([senses, np.array([SENSE_LE, SENSE_GE], dtype=np.int8)])
        rhs = np.concatenate([rhs, [v @ x0, v @ x0 + 1.0]])
    return LpProblem(c=c, a=a, senses=senses, rhs=rhs, lo=lo, hi=hi)


@settings(max_examples=200, deadline=None)
@given(problem=_parity_lps())
def test_pivot_loop_matches_reference_bit_for_bit(problem):
    _assert_same_bits(problem)


def _degenerate_cone(seed: int, m: int, n: int) -> LpProblem:
    # every row passes through the origin, so the start is a vertex where
    # all m rows are tight and pivots stall for long runs
    rng = np.random.default_rng(seed)
    return LpProblem(
        c=rng.integers(-5, 6, size=n).astype(float),
        a=rng.integers(-3, 4, size=(m, n)).astype(float),
        senses=np.full(m, SENSE_LE, dtype=np.int8),
        rhs=np.zeros(m),
        lo=np.zeros(n),
        hi=np.ones(n),
    )


def _from_the_origin(problem: LpProblem) -> lp.LpBasis:
    # the slack basis with every structural column at its lower bound: a
    # warm start from the origin, the vertex where every row of
    # `_degenerate_cone` is tight. It is primal feasible, so the primal
    # polish does all the work, stalling there as the cone's rows allow
    m, n = problem.a.shape
    pos = np.concatenate([np.full(n, _AT_LO), np.full(m, _BASIC)]).astype(np.int8)
    return lp.LpBasis(n + np.arange(m), pos)


def test_the_slack_start_is_dual_feasible():
    # boxed and fixed columns at each cost sign, and one of each at cost 0
    lo = np.array([0.0, 0.0, -1.0, -1.0, 0.0, 2.0, 2.0, 2.0])
    hi = np.array([1.0, 1.0, 3.0, 3.0, 1.0, 2.0, 2.0, 2.0])
    c = np.array([1.0, -1.0, 1.0, -1.0, 0.0, 1.0, -1.0, 0.0])
    rng = np.random.default_rng(3)
    a = rng.integers(-3, 4, size=(6, 8)).astype(float)
    senses = np.array([SENSE_LE, SENSE_GE, SENSE_EQ] * 2, dtype=np.int8)
    problem = LpProblem(c, a, senses, rng.integers(-2, 3, size=6).astype(float), lo, hi)
    m, n = a.shape
    eng = lp._Engine(problem, 0, None)
    cost = np.concatenate([c, np.zeros(m)])
    eng.slack_start(cost)
    assert np.array_equal(eng.basis, n + np.arange(m))
    assert np.array_equal(eng.Binv, np.eye(m))
    # the reduced costs of the true costs have the sign each position needs
    d = cost - _padded(eng).T @ (eng.Binv.T @ cost[eng.basis])
    movable = eng.hi > eng.lo
    assert np.all(d[(eng.pos == _AT_LO) & movable] >= 0.0)
    assert np.all(d[(eng.pos == _AT_UP) & movable] <= 0.0)
    assert np.all(d[eng.basis] == 0.0)
    assert set(eng.pos[:n].tolist()) == {_AT_LO, _AT_UP}
    # the start point sits in every column's box
    x = eng.point()[:n]
    assert np.all((lo <= x) & (x <= hi))


def test_deadline_stops_pivoting_and_changes_no_bits_before_it():
    problem = _degenerate_cone(0, 80, 30)
    stopped = solve_lp(problem, deadline=time.monotonic() - 1.0)
    assert stopped.status == LpStatus.TIME_LIMIT
    assert stopped.iterations == 0
    far = solve_lp(problem, deadline=time.monotonic() + 3600.0)
    assert (far.status, far.iterations, repr(far.objective), far.x.tobytes()) == _fingerprint(problem)


def test_beale_example_matches_reference_bit_for_bit():
    problem = _problem(_BEALE_C, _BEALE_A, "<<<", [0, 0, 1], [0] * 4, [10] * 4)
    # from the origin, Dantzig's cycling start, not the cold start at the
    # bounds the costs prefer
    status, pivots, *_ = _assert_same_bits(problem, _from_the_origin(problem))
    assert status == LpStatus.OPTIMAL
    assert pivots == 7


def test_degenerate_primal_matches_reference_bit_for_bit():
    # every one of the primal's 158 basis changes here is a zero step
    problem = _degenerate_cone(0, 60, 40)
    # the warm start may take as many pivots as the primal needs
    with mock.patch.object(lp, "_WARM_SHARE", 100.0):
        mine = _assert_same_bits(problem, _from_the_origin(problem))
    assert mine[0] == LpStatus.OPTIMAL


def test_refactor_crossing_matches_reference_bit_for_bit():
    problem = _degenerate_cone(1, 100, 60)
    start = _from_the_origin(problem)
    _CountingEngine.refactors = 0
    with mock.patch.object(lp, "_WARM_SHARE", 100.0):
        with mock.patch.object(lp, "_Engine", _CountingEngine):
            solve_lp(problem, start=start)
        # one factorization installs the start; two more are periodic
        assert _CountingEngine.refactors >= 3
        assert _assert_same_bits(problem, start)[0] == LpStatus.OPTIMAL


def test_a_singular_periodic_refactor_ends_numerical():
    # the cold solve of this cone crosses at least two periodic refactors;
    # the second finds the basis singular, and no pseudo-inverse steps in.
    # A warm start would hide the verdict: its failure falls back to cold
    inv, calls = np.linalg.inv, []

    def second_fails(matrix):
        calls.append(matrix.shape)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(matrix)

    with mock.patch.object(lp.np.linalg, "inv", second_fails):
        res = solve_lp(_degenerate_cone(1, 200, 120))
    assert len(calls) == 2
    assert res.status == LpStatus.NUMERICAL
    assert np.isnan(res.objective) and res.basis is None
    assert res.iterations >= 2 * _REFACTOR_EVERY


class _DriftingEngine(lp._Engine):
    """Moves the basic values off the optimum that the primal polish (the
    run with structural costs) reports, as drift of an updated inverse
    would."""

    def run(self, c: np.ndarray) -> LpStatus:
        status = super().run(c)
        if status == LpStatus.OPTIMAL and c[: self.nstruct].any():
            self.xB = self.xB + 1e-3
        return status


def test_a_cold_optimum_that_breaks_a_row_ends_numerical():
    p = _problem([-2, -3], [[1, 1], [1, 2]], "<<", [4, 6], [0, 0], [10, 10])
    with mock.patch.object(lp, "_Engine", _DriftingEngine):
        res = solve_lp(p)
    assert point_violation(p, res.x) > lp.FEAS_TOL
    assert res.status == LpStatus.NUMERICAL
    assert np.isnan(res.objective) and res.basis is None


def test_the_engine_matrix_depends_on_a_alone():
    # the engine holds the row-scaled constraint matrix and no slack column:
    # other right-hand sides, bounds and costs leave it as it is
    p = _random_bounded(np.random.default_rng(5))
    other = LpProblem(-p.c, p.a, p.senses, -p.rhs - 1.0, p.lo - 1.0, p.hi + 2.0)
    eng = lp._Engine(p, 0, None)
    assert eng.a.shape == p.a.shape
    assert eng.a.tobytes() == (p.a / np.abs(p.a).max(axis=1)[:, None]).tobytes()
    assert eng.a.tobytes() == lp._Engine(other, 0, None).a.tobytes()
    assert not hasattr(eng, "A")

    config = ModelConfig(eps_dp=0.1, eps_eodds=0.1, eps_prp=0.1, retention=0.5, window=2)
    model = build_model(tiny_stats(), config)
    milp = build_milp(model, tighten(model), power=-3).problem
    given, scaled = milp.lp.a.tobytes(), lp._Engine(milp.lp, 0, None).a.tobytes()
    engines = []

    class Recording(lp._Engine):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

    with mock.patch.object(lp, "_Engine", Recording):
        report = solve_milp(milp, time_limit=120, gap_target=0.0)
    assert report.nodes_explored > 5
    # every engine, cold or warm, holds the same m x n matrix, and none
    # writes to the MILP's own
    assert len(engines) >= report.nodes_explored
    assert all(eng.a.shape == milp.lp.a.shape for eng in engines)
    assert all(eng.a.tobytes() == scaled for eng in engines)
    assert milp.lp.a.tobytes() == given


def test_fixed_column_leaving_the_basis_matches_reference_bit_for_bit():
    # the equality rows start on their slacks, fixed at zero: the dual moves
    # two of them out of the basis, where they must not be priced again, and
    # the repeated rows keep theirs basic into the primal polish
    rng = np.random.default_rng(132)
    a = rng.integers(-3, 4, size=(6, 8)).astype(float)
    a = np.vstack([a, a[:2]])
    x0 = rng.integers(0, 2, size=8).astype(float)
    problem = LpProblem(
        c=rng.integers(-5, 6, size=8).astype(float),
        a=a,
        senses=np.array([SENSE_EQ] * 3 + [SENSE_LE] * 3 + [SENSE_EQ] * 2, dtype=np.int8),
        rhs=a @ x0,
        lo=np.zeros(8),
        hi=np.ones(8),
    )
    assert _assert_same_bits(problem)[0] == LpStatus.OPTIMAL


def test_node_lps_match_reference_bit_for_bit():
    config = ModelConfig(eps_dp=0.1, eps_eodds=0.1, eps_prp=0.1, retention=0.5, window=2)
    model = build_model(tiny_stats(), config)
    milp = build_milp(model, tighten(model), power=-3).problem
    nodes = []

    def recording(problem, **kwargs):
        nodes.append(problem)
        return solve_lp(problem, **kwargs)

    with mock.patch.object(bnb, "solve_lp", recording):
        solve_milp(milp, time_limit=120, gap_target=0.0)
    assert len(nodes) > 5
    statuses = {_assert_same_bits(node)[0] for node in nodes}
    assert statuses == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}
    # branching fixes binaries by setting lo == hi on their columns
    assert any(np.any((node.lo == node.hi) & (milp.lp.lo != milp.lp.hi)) for node in nodes)


_SENSE_CHAR = {SENSE_LE: "<", SENSE_EQ: "=", SENSE_GE: ">"}


def _fixed_child(problem: LpProblem, fixes, shift=0.0) -> LpProblem:
    """`problem` with each (column, where) pinned at its lower bound, its
    upper bound or an interior value, and `shift` added to the right-hand
    sides."""
    lo, hi = problem.lo.copy(), problem.hi.copy()
    for j, where in fixes:
        lo[j] = hi[j] = {"lo": lo[j], "hi": hi[j], "mid": (lo[j] + hi[j]) / 2.0}[where]
    return LpProblem(problem.c, problem.a, problem.senses, problem.rhs + shift, lo, hi)


@st.composite
def _warm_cases(draw):
    problem = draw(_parity_lps())
    cols = draw(st.permutations(range(problem.ncols)))
    k = draw(st.integers(0, min(3, problem.ncols)))
    wheres = draw(st.lists(st.sampled_from(["lo", "hi", "mid"]), min_size=k, max_size=k))
    # a start is promised any problem of its shape, so the right-hand
    # sides may move too
    shift = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, -0.5, 1.5]),
                          min_size=problem.nrows, max_size=problem.nrows))
    return problem, list(zip(cols[:k], wheres)), np.array(shift)


@settings(max_examples=150, deadline=None)
@given(case=_warm_cases())
def test_warm_start_after_fixing_columns_matches_scipy(case):
    problem, fixes, shift = case
    parent = solve_lp(problem)
    assume(parent.status == LpStatus.OPTIMAL)
    assert parent.basis is not None
    child = _fixed_child(problem, fixes, shift)
    warm = solve_lp(child, start=parent.basis)
    status, obj, _ = scipy_lp(
        child.c, child.a, [_SENSE_CHAR[int(s)] for s in child.senses], child.rhs,
        child.lo, child.hi,
    )
    assert status in ("optimal", "infeasible")
    assert warm.status.value.lower() == status
    if status == "optimal":
        assert warm.objective == pytest.approx(obj, abs=1e-6)
        assert point_violation(child, warm.x) <= 1e-7
        # like the cold solve, the warm one keeps every column in its box
        assert np.all(warm.x >= child.lo - 1e-11) and np.all(warm.x <= child.hi + 1e-11)
        assert warm.basis is not None


@settings(max_examples=150, deadline=None)
@given(problem=_parity_lps(), seed=st.integers(0, 2**32 - 1))
def test_warm_start_after_changing_the_costs_matches_the_cold_answer(problem, seed):
    # a start is also promised to hold when only the costs change: the old
    # optimum stays primal feasible, and the primal loop re-optimizes it
    first = solve_lp(problem)
    assume(first.status == LpStatus.OPTIMAL)
    c = np.round(np.random.default_rng(seed).normal(size=problem.ncols), 2)
    other = LpProblem(c, problem.a, problem.senses, problem.rhs, problem.lo, problem.hi)
    warm, cold = solve_lp(other, start=first.basis), solve_lp(other)
    assert warm.status == cold.status
    if cold.status == LpStatus.OPTIMAL:
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert point_violation(other, warm.x) <= 1e-7
        assert warm.basis is not None


@st.composite
def _same_shape_pairs(draw):
    """Two LPs of one shape that share nothing else: the second has its own
    matrix, costs, right-hand sides, senses and box (some columns fixed),
    so it may well be infeasible."""
    m, n = draw(st.integers(1, 10)), draw(st.integers(1, 8))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2))
    first, second = (_random_bounded(np.random.default_rng(seed), m, n) for seed in seeds)
    lo = np.array(draw(st.lists(st.integers(-2, 0), min_size=n, max_size=n)), dtype=float)
    width = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=float)
    return first, LpProblem(second.c, second.a, second.senses, second.rhs, lo, lo + width)


@settings(max_examples=200, deadline=None)
@given(pair=_same_shape_pairs())
def test_a_start_from_another_lp_of_the_same_shape_gives_the_cold_answer(pair):
    first, other = pair
    parent = solve_lp(first)
    assume(parent.status == LpStatus.OPTIMAL)
    warm, cold = solve_lp(other, start=parent.basis), solve_lp(other)
    assert warm.status == cold.status
    if cold.status == LpStatus.OPTIMAL:
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert point_violation(other, warm.x) <= lp.FEAS_TOL


def _branched_lp(m: int | None = None, n: int | None = None) -> tuple[LpProblem, lp.LpBasis]:
    # a random box LP and its child with the most fractional column pinned
    # at zero; the warm start needs a few dual pivots on it
    p = _random_bounded(np.random.default_rng(7), m, n)
    parent = solve_lp(p)
    j = int(np.argmin(np.abs(parent.x - 0.5)))
    child = _fixed_child(p, [(j, "lo")])
    return child, parent.basis


def test_warm_start_takes_fewer_pivots_than_cold():
    # on the default 3x2 child both take 4 pivots; this one is 20x15
    child, basis = _branched_lp(20, 15)
    warm, cold = solve_lp(child, start=basis), solve_lp(child)
    assert warm.status == cold.status == LpStatus.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
    assert 2 <= warm.iterations < cold.iterations


def test_warm_start_past_its_pivot_cap_falls_back_to_the_cold_answer():
    child, basis = _branched_lp()
    cold = solve_lp(child)
    m, n = child.a.shape
    # a budget of one pivot: too few for this warm start
    with mock.patch.object(lp, "_WARM_SHARE", 1.5 / (m + n)):
        capped = solve_lp(child, start=basis)
    assert capped.status == cold.status
    assert repr(capped.objective) == repr(cold.objective)
    assert capped.x.tobytes() == cold.x.tobytes()
    assert capped.iterations == cold.iterations + 1


def test_warm_start_on_a_singular_basis_falls_back_to_the_cold_answer():
    child, basis = _branched_lp()
    broken = lp.LpBasis(np.full_like(basis.basic, basis.basic[0]), basis.pos)
    res, cold = solve_lp(child, start=broken), solve_lp(child)
    assert (res.status, res.iterations, res.x.tobytes()) == (
        cold.status, cold.iterations, cold.x.tobytes()
    )


def test_factor_matches_the_full_inverse():
    rng = np.random.default_rng(8)
    m, n = 7, 10
    p = _random_bounded(rng, m, n)
    eng = lp._Engine(p, 0, None)
    eng.slack_start(np.concatenate([p.c, np.zeros(m)]))
    bases = []
    # k = 0: all slacks, a 0x0 block; k = m: all structural; each with the
    # structural columns first and in shuffled slots
    for k in range(m + 1):
        for _ in range(3):
            basis = np.concatenate([rng.choice(n, k, replace=False),
                                    n + rng.choice(m, m - k, replace=False)])
            bases.append(basis.copy())
            rng.shuffle(basis)
            bases.append(basis)
    for basis in bases:
        eng.basis = basis.astype(np.intp)
        assert eng.factor()
        A = _padded(eng)
        full = np.linalg.inv(A[:, basis])
        assert np.abs(eng.Binv - full).max() <= 1e-10 * np.abs(full).max()
        nb = eng.val.copy()
        nb[basis] = 0.0
        xB = full @ (eng.rhs - A @ nb)
        assert np.abs(eng.xB - xB).max() <= 1e-10 * max(1.0, np.abs(xB).max())


def _dyadic_lp() -> LpProblem:
    # row-scaled entries are 0, 1/2 or 1, so elimination is exact: rows 0
    # and 1 agree on columns 0 and 1, and columns 0 and 1 differ only on rows
    # 2 and 3
    a = np.array([[1, 2, 0, 1], [1, 2, 1, 0], [2, 0, 1, 1], [0, 2, 1, 2]], dtype=float)
    return LpProblem(np.array([-1.0, -1.0, 1.0, -1.0]), a, np.full(4, SENSE_LE, np.int8),
                     np.full(4, 3.0), np.zeros(4), np.ones(4))


@pytest.mark.parametrize("basic", [
    [0, 5, 5, 6],  # a repeated slack: the structural block is 2x1
    [0, 0, 6, 7],  # a repeated structural column
    [0, 1, 6, 7],  # distinct columns whose block on rows 0 and 1 is singular
])
def test_a_repeated_or_singular_basis_is_refused(basic):
    p = _dyadic_lp()
    start = lp.LpBasis(np.array(basic), np.full(8, _AT_LO, np.int8))
    # the start fits the problem, so it is `factor` that refuses it
    assert not lp._Engine(p, 0, None).install(start)
    res, cold = solve_lp(p, start=start), solve_lp(p)
    assert cold.status == LpStatus.OPTIMAL
    assert (res.status, res.iterations, res.x.tobytes()) == (
        cold.status, cold.iterations, cold.x.tobytes()
    )


def test_only_the_structural_block_is_inverted():
    # a warm start from the origin (all slacks basic) and the periodic
    # factorizations of the primal that follows: each inverts a k x k
    # matrix, k the structural columns then in the basis
    problem = _degenerate_cone(1, 100, 60)
    inv, shapes, structural = np.linalg.inv, [], []

    def recording(matrix):
        shapes.append(matrix.shape)
        return inv(matrix)

    class Counting(lp._Engine):
        def factor(self) -> bool:
            structural.append(int((self.basis < self.nstruct).sum()))
            return super().factor()

    with mock.patch.object(lp, "_WARM_SHARE", 100.0), \
            mock.patch.object(lp, "_Engine", Counting), \
            mock.patch.object(lp.np.linalg, "inv", recording):
        res = solve_lp(problem, start=_from_the_origin(problem))
    assert res.status == LpStatus.OPTIMAL
    assert shapes == [(k, k) for k in structural]
    assert structural[0] == 0 and 0 < max(structural) < problem.nrows


@pytest.mark.parametrize("seed, m, n", [(0, 20, 15), (2, 20, 15), (4, 30, 20)])
def test_the_refactor_count_runs_across_the_dual_and_the_primal(seed, m, n):
    # a start from another LP's optimum with other costs and tighter <= rows
    # is neither primal nor dual feasible, so both legs exchange columns;
    # the count since the last factorization must carry from one to the next
    p = _covering(seed, m, n)
    first = solve_lp(p)
    rng = np.random.default_rng(100 + seed)
    other = LpProblem(-p.c + rng.integers(-1, 2, size=n), p.a, p.senses,
                      p.rhs - np.where(p.senses == SENSE_LE, 1.5, 0.0), p.lo, p.hi)
    legs, runs = [], []

    class Counting(lp._Engine):
        since = most = 0

        def factor(self) -> bool:
            self.since = 0
            return super().factor()

        def exchange(self, *args) -> bool:
            self.since += 1
            self.most = max(self.most, self.since)
            legs[-1] += 1
            return super().exchange(*args)

        def dual(self, c):
            legs.append(0)
            return super().dual(c)

        def run(self, c):
            legs.append(0)
            runs.append(self)
            return super().run(c)

    with mock.patch.object(lp, "_Engine", Counting), mock.patch.object(lp, "_REFACTOR_EVERY", 5):
        res = solve_lp(other, start=first.basis)
    [eng] = runs  # the warm start answered
    assert legs[0] >= 3 and legs[1] >= 3
    assert eng.most <= 5
    status, obj, _ = scipy_lp(other.c, other.a, [_SENSE_CHAR[int(s)] for s in other.senses],
                              other.rhs, other.lo, other.hi)
    assert status == "optimal" and res.status == LpStatus.OPTIMAL
    assert res.objective == pytest.approx(obj, rel=1e-9)


def test_warm_infeasible_child_is_confirmed():
    # x0 + x1 >= 1.5 over the unit box; pinning x0 at 0 leaves x1 <= 1 short
    p = _problem([1, 1], [[1, 1]], ">", [1.5], [0, 0], [1, 1])
    parent = solve_lp(p)
    child = _fixed_child(p, [(0, "lo")])
    res = solve_lp(child, start=parent.basis)
    assert res.status == LpStatus.INFEASIBLE
    assert res.iterations <= 2


def test_warm_started_nodes_take_fewer_pivots_than_cold_nodes():
    config = ModelConfig(eps_dp=0.1, eps_eodds=0.1, eps_prp=0.1, retention=0.5, window=2)
    model = build_model(tiny_stats(), config)
    milp = build_milp(model, tighten(model), power=-2).problem
    runs = {}
    for warm in (True, False):
        pivots = []

        def recording(problem, **kwargs):
            if not warm:
                kwargs.pop("start", None)
            res = solve_lp(problem, **kwargs)
            pivots.append(res.iterations)
            return res

        with mock.patch.object(bnb, "solve_lp", recording):
            report = solve_milp(milp, time_limit=120, gap_target=0.0)
        runs[warm] = (report, pivots)
    (warm_report, warm_pivots), (cold_report, cold_pivots) = runs[True], runs[False]
    assert warm_report.status == cold_report.status
    assert warm_report.incumbent_objective == pytest.approx(
        cold_report.incumbent_objective, abs=1e-9
    )
    # the roots are the same cold solve; only the node LPs differ
    assert warm_pivots[0] == cold_pivots[0]
    assert sum(warm_pivots[1:]) < sum(cold_pivots[1:])


def test_warm_infeasibility_needs_a_certificate():
    # after x0 is pinned at 1 the row needs x1 >= 5e7: a move only the
    # 1e-8 coefficient, below the dual pivot tolerance, can make. The dual
    # simplex sees no entering column, but the row's finite ranges show the
    # bounds can still be met, so the cold solve decides
    p = _problem([-1, 1], [[1, 1e-8]], ">", [1.5], [0, 0], [2, 1e8])
    parent = solve_lp(p)
    child = _fixed_child(p, [(0, "mid")])
    res = solve_lp(child, start=parent.basis)
    assert res.status == LpStatus.OPTIMAL
    assert res.x == pytest.approx([1.0, 5e7])


def test_the_uncertified_child_solved_cold_is_optimal():
    # the child LP above with no start: the cold dual also stalls on the
    # 1e-8 pivot, cannot certify the row, and looks again with _PIVOT_TOL
    p = _problem([-1, 1], [[1, 1e-8]], ">", [1.5], [0, 0], [2, 1e8])
    child = _fixed_child(p, [(0, "mid")])
    res = solve_lp(child)
    assert res.status == LpStatus.OPTIMAL
    assert res.x == pytest.approx([1.0, 5e7])


def _covering(seed: int, m: int, n: int) -> LpProblem:
    # alternating <= and >= rows over small integers and costs: the slack
    # start breaks the >= rows, and many reduced costs are zero. The
    # negative-cost columns start at their upper bound, 6, which the <=
    # rows push them off
    rng = np.random.default_rng(seed)
    c = rng.integers(-1, 3, size=n).astype(float)
    senses = np.where(np.arange(m) % 2, SENSE_GE, SENSE_LE).astype(np.int8)
    return LpProblem(c, rng.integers(0, 3, size=(m, n)).astype(float), senses,
                     np.where(senses == SENSE_LE, 6.0, 3.0), np.zeros(n),
                     np.where(c < 0, 6.0, 1.0))


def test_degenerate_dual_matches_scipy():
    # the dual starts with half the rows broken, over many zero reduced
    # costs, and keeps its one pricing rule to the optimum
    problem = _covering(0, 60, 40)
    res = solve_lp(problem)
    status, obj, _ = scipy_lp(problem.c, problem.a, [_SENSE_CHAR[int(s)] for s in problem.senses],
                              problem.rhs, problem.lo, problem.hi)
    assert status == "optimal"
    assert res.status == LpStatus.OPTIMAL
    assert res.objective == pytest.approx(obj, rel=1e-9)
    assert point_violation(problem, res.x) <= lp.FEAS_TOL


@pytest.mark.xfail(strict=True, reason="ROADMAP item 16")
def test_the_flagship_elastic_completion_lp_does_not_stall():
    # the flagship at power -12: its cold root LP's rate columns seed the
    # completion targets, and the realized rates of the first elastic LP
    # seed a second one. That one is a zero-ratio dual from start to end:
    # every pivot is degenerate, no basis repeats, and the pivot cap ends it
    obs = biased_synthetic()
    stats = compute_bin_stats(obs, quantile_bin(obs, 10))
    model = build_model(stats, FLAGSHIP_CONFIG)
    nm = build_milp(model, tighten(model), power=-12)
    root = solve_lp(nm.problem.lp)
    assert root.status == LpStatus.OPTIMAL

    def rates(rate):
        out = np.zeros((stats.ngroups, stats.nbins))
        for link in model.links:
            out[link.group, link.dest] = rate(link)
        return out

    targets = _feasible_rate_targets(nm, rates(lambda link: root.x[link.t_col]))
    first = solve_lp(_completion_lp(nm, targets))
    assert first.status == LpStatus.OPTIMAL
    assert first.objective == pytest.approx(3.5267996868983, rel=1e-12)
    x = first.x
    # the realized rates, as `completion_start` computes them between rounds
    realized = rates(lambda link: float(x[link.x_cols] @ link.npos)
                     / max(float(x[link.v_col]), 1e-12))
    problem = _completion_lp(nm, _feasible_rate_targets(nm, realized))
    status, obj, _ = scipy_lp(problem.c, problem.a, [_SENSE_CHAR[int(s)] for s in problem.senses],
                              problem.rhs, problem.lo, problem.hi)
    assert status == "optimal"
    res = solve_lp(problem)
    assert res.status == LpStatus.OPTIMAL
    assert res.objective == pytest.approx(obj, abs=1e-9)


def test_warm_node_lps_agree_with_cold_ones():
    config = ModelConfig(eps_dp=0.1, eps_eodds=0.1, eps_prp=0.1, retention=0.5, window=2)
    model = build_model(tiny_stats(), config)
    milp = build_milp(model, tighten(model), power=-3).problem
    warm = []

    def recording(problem, **kwargs):
        res = solve_lp(problem, **kwargs)
        if kwargs.get("start") is not None:
            warm.append((problem, res))
        return res

    with mock.patch.object(bnb, "solve_lp", recording):
        solve_milp(milp, time_limit=120, gap_target=0.0)
    assert len(warm) > 5
    for problem, res in warm:
        cold = solve_lp(problem)
        assert cold.status == res.status
        if cold.status == LpStatus.OPTIMAL:
            assert res.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)


def test_bench_node_lps_match_scipy():
    # every Optimal node LP of the twelve seed-2 benchmark sweeps (bins 4,
    # window 3, precision 0.25) against HiGHS; among them is the 174x100
    # node LP that once stopped at 0.0053801, 1.1e-3 above its optimum
    answers = []

    def recording(problem, **kwargs):
        res = solve_lp(problem, **kwargs)
        answers.append((problem, res))
        return res

    with mock.patch.object(bnb, "solve_lp", recording):
        for k in range(12):
            sweep(_bench_file_stats(2, k, 4), [0.06], [0.06], [0.06, 0.08], retention=0.5,
                  window=3, power=-2, budget_per_solve=300)
    optimal = [(p, res) for p, res in answers if res.status == LpStatus.OPTIMAL]
    assert len(optimal) > 150
    # HiGHS's value of the LP that once said 0.0053801
    assert any(res.objective == pytest.approx(0.0053741585406517, rel=1e-9)
               for _, res in optimal)
    for p, res in optimal:
        status, obj, _ = scipy_lp(p.c, p.a, [_SENSE_CHAR[int(s)] for s in p.senses], p.rhs,
                                  p.lo, p.hi)
        assert status == "optimal"
        assert res.objective == pytest.approx(obj, rel=1e-9)
