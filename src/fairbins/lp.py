"""Bounded-variable revised simplex over dense arrays.

Every linear program in this package funnels through `solve_lp`, including
each branch-and-bound node. The pivot rules are fully deterministic:
identical inputs produce identical pivot sequences, values, and statuses.

Each pivot does three matrix-vector products: the duals `Binv.T @ c_B`,
the reduced costs through `A.T @ y`, and the entering column
`Binv @ A[:, q]`. The dense basis inverse then takes a rank-1 update on
the rows where that column is nonzero, and is refactored from scratch
every 100 basis changes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "SENSE_LE",
    "SENSE_EQ",
    "SENSE_GE",
    "LpStatus",
    "LpProblem",
    "LpResult",
    "solve_lp",
    "point_violation",
]

SENSE_LE = -1
SENSE_EQ = 0
SENSE_GE = 1

_BASIC, _AT_LO, _AT_UP, _FREE = 0, 1, 2, 3
_PIVOT_TOL = 1e-9
_DEGENERATE_STEP = 1e-10
_BLAND_AFTER = 60
_REFACTOR_EVERY = 100


class LpStatus(str, Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    ITERATION_LIMIT = "IterationLimit"
    TIME_LIMIT = "TimeLimit"


_STOPPED = (LpStatus.ITERATION_LIMIT, LpStatus.TIME_LIMIT)


@dataclass
class LpProblem:
    """min c.x  subject to  a @ x (<=, =, >=) rhs  and  lo <= x <= hi.

    Senses are per-row: SENSE_LE, SENSE_EQ, or SENSE_GE. Maximization is
    the caller's job (negate c). The solver never mutates the arrays.
    """

    c: np.ndarray
    a: np.ndarray
    senses: np.ndarray
    rhs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        self.senses = np.asarray(self.senses, dtype=np.int8)
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        m, n = self.a.shape
        if self.c.shape != (n,) or self.lo.shape != (n,) or self.hi.shape != (n,):
            raise ValueError(f"column arrays disagree with a of shape {self.a.shape}")
        if self.senses.shape != (m,) or self.rhs.shape != (m,):
            raise ValueError(f"row arrays disagree with a of shape {self.a.shape}")

    @property
    def nrows(self) -> int:
        return self.a.shape[0]

    @property
    def ncols(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class LpResult:
    status: LpStatus
    objective: float
    x: np.ndarray
    iterations: int


def point_violation(problem: LpProblem, x: np.ndarray) -> float:
    """Worst constraint or bound violation of a candidate point."""
    x = np.asarray(x, dtype=float)
    ax = problem.a @ x
    resid = ax - problem.rhs
    row = np.where(
        problem.senses == SENSE_LE,
        resid,
        np.where(problem.senses == SENSE_GE, -resid, np.abs(resid)),
    )
    worst = float(np.max(row, initial=0.0))
    worst = max(worst, float(np.max(problem.lo - x, initial=0.0)))
    worst = max(worst, float(np.max(x - problem.hi, initial=0.0)))
    return worst


class _Engine:
    """Two-phase simplex state: full column matrix, basis, dense inverse."""

    def __init__(self, problem: LpProblem, feas_tol: float, opt_tol: float, max_iters: int,
                 deadline: float | None):
        self.problem = problem
        self.feas_tol = feas_tol
        self.opt_tol = opt_tol
        self.max_iters = max_iters
        self.deadline = deadline
        self.iterations = 0

        m, n = problem.a.shape
        self.m, self.nstruct = m, n

        # row equilibration only; column scaling would distort the bounds
        scale = np.abs(problem.a).max(axis=1) if n else np.zeros(m)
        scale = np.where(scale > 1e-12, scale, 1.0)
        a = problem.a / scale[:, None]
        self.rhs = problem.rhs / scale

        ntot = n + 2 * m
        self.A = np.zeros((m, ntot))
        self.A[:, :n] = a
        rows = np.arange(m)
        self.A[rows, n + rows] = 1.0

        self.lo = np.full(ntot, -np.inf)
        self.hi = np.full(ntot, np.inf)
        self.lo[:n] = problem.lo
        self.hi[:n] = problem.hi
        slack = n + rows
        self.lo[slack[problem.senses != SENSE_GE]] = 0.0
        self.hi[slack[problem.senses != SENSE_LE]] = 0.0

        # nonbasic start: finite lower bound, else finite upper, else free at 0
        self.pos = np.full(ntot, _AT_LO, dtype=np.int8)
        self.val = np.zeros(ntot)
        head = slice(0, n + m)
        fin_lo = np.isfinite(self.lo[head])
        fin_hi = np.isfinite(self.hi[head])
        self.pos[head] = np.where(fin_lo, _AT_LO, np.where(fin_hi, _AT_UP, _FREE))
        start = np.where(fin_lo, np.nan_to_num(self.lo[head], neginf=0.0), 0.0)
        start = np.where(~fin_lo & fin_hi, np.nan_to_num(self.hi[head], posinf=0.0), start)
        self.val[head] = start

        resid = self.rhs - self.A[:, head] @ self.val[head]
        sigma = np.where(resid >= 0.0, 1.0, -1.0)
        art = n + m + rows
        self.A[rows, art] = sigma
        self.lo[art] = 0.0

        self.basis = art.copy()
        self.pos[art] = _BASIC
        self.xB = np.abs(resid)
        self.Binv = np.diag(sigma)

    def refactor(self) -> None:
        cols = self.A[:, self.basis]
        try:
            self.Binv = np.linalg.inv(cols)
        except np.linalg.LinAlgError:
            self.Binv = np.linalg.pinv(cols)
        nb = self.val.copy()
        nb[self.basis] = 0.0
        self.xB = self.Binv @ (self.rhs - self.A @ nb)

    def point(self) -> np.ndarray:
        full = self.val.copy()
        full[self.basis] = self.xB
        return full

    def run(self, c: np.ndarray) -> LpStatus:
        A, lo, hi, val, pos, basis = self.A, self.lo, self.hi, self.val, self.pos, self.basis
        xB, Binv = self.xB, self.Binv
        opt_tol, deadline = self.opt_tol, self.deadline
        fixed = (hi - lo) <= 0.0
        # pricing weight per column: +1 at the lower bound, -1 at the upper,
        # 0 when basic or fixed; nonbasic free columns are priced by -|d|.
        # Multiplying by +-1 is exact, so eff equals a per-position select of
        # d, -d and 0 (up to the sign of a zero) and picks the same column;
        # only the columns that move in a pivot have their weight rewritten.
        sign = np.where(pos == _AT_LO, 1.0, np.where(pos == _AT_UP, -1.0, 0.0))
        sign[fixed] = 0.0
        free = ((pos == _FREE) & ~fixed).nonzero()[0]
        # per-slot cost and bounds of the basic variables, kept in step with
        # the basis instead of gathered every pivot
        cB, blo, bhi = c[basis], lo[basis], hi[basis]
        ratios = np.empty(self.m)
        degenerate = 0
        bland = False
        since_refactor = 0
        while self.iterations < self.max_iters:
            if deadline is not None and time.monotonic() > deadline:
                return LpStatus.TIME_LIMIT
            self.iterations += 1
            y = Binv.T @ cB
            d = c - A.T @ y
            eff = sign * d
            if free.size:
                eff[free] = -np.abs(d[free])
            if bland:
                eligible = (eff < -opt_tol).nonzero()[0]
                if eligible.size == 0:
                    return LpStatus.OPTIMAL
                q = int(eligible[0])
            else:
                q = int(eff.argmin())
                if eff[q] >= -opt_tol:
                    return LpStatus.OPTIMAL

            entering_free = sign[q] == 0.0
            if entering_free:
                dirn = 1.0 if d[q] < 0.0 else -1.0
            else:
                dirn = float(sign[q])

            w = Binv @ A[:, q]
            delta = w if dirn > 0 else -w
            dec = (delta > _PIVOT_TOL).nonzero()[0]
            inc = (delta < -_PIVOT_TOL).nonzero()[0]
            ratios.fill(np.inf)
            ratios[dec] = np.maximum(xB[dec] - blo[dec], 0.0) / delta[dec]
            ratios[inc] = np.maximum(bhi[inc] - xB[inc], 0.0) / -delta[inc]
            theta_basic = float(ratios.min())
            theta_flip = (hi[q] - val[q]) if dirn > 0 else (val[q] - lo[q])

            if not math.isfinite(min(theta_basic, theta_flip)):
                return LpStatus.UNBOUNDED

            if theta_basic <= theta_flip:
                # ties resolved toward the lowest variable index: anti-cycling aid
                tied = (ratios <= theta_basic).nonzero()[0]
                leave = int(tied[0]) if tied.size == 1 else int(tied[basis[tied].argmin()])
                lv = int(basis[leave])
                xB -= theta_basic * delta
                entering = val[q] + dirn * theta_basic
                if delta[leave] > 0:
                    pos[lv] = _AT_LO
                    val[lv] = lo[lv]
                    sign[lv] = 0.0 if fixed[lv] else 1.0
                else:
                    pos[lv] = _AT_UP
                    val[lv] = hi[lv]
                    sign[lv] = 0.0 if fixed[lv] else -1.0
                basis[leave] = q
                xB[leave] = entering
                pos[q] = _BASIC
                sign[q] = 0.0
                if entering_free:
                    free = free[free != q]
                cB[leave], blo[leave], bhi[leave] = c[q], lo[q], hi[q]

                # rank-1 update of the inverse on the rows where w is nonzero:
                # elsewhere it subtracts zeros, which can flip the sign of a
                # zero entry but changes no bit of any product read from Binv
                row = Binv[leave] / w[leave]
                nz = w.nonzero()[0]
                Binv[nz] -= w[nz, None] * row
                Binv[leave] = row
                since_refactor += 1
                if since_refactor >= _REFACTOR_EVERY:
                    since_refactor = 0
                    self.refactor()
                    xB, Binv = self.xB, self.Binv
                step = theta_basic
            else:
                # the entering variable rides to its other bound; basis unchanged
                val[q] = hi[q] if dirn > 0 else lo[q]
                pos[q] = _AT_UP if dirn > 0 else _AT_LO
                sign[q] = -dirn
                xB -= theta_flip * delta
                step = theta_flip

            if step <= _DEGENERATE_STEP:
                degenerate += 1
                if degenerate >= _BLAND_AFTER:
                    bland = True
            else:
                degenerate = 0
                bland = False
        return LpStatus.ITERATION_LIMIT


def _trivial_solve(problem: LpProblem) -> LpResult:
    if np.any(problem.lo > problem.hi):
        return LpResult(LpStatus.INFEASIBLE, np.nan, np.array([]), 0)
    x = np.where(np.isfinite(problem.lo), problem.lo, np.where(np.isfinite(problem.hi), problem.hi, 0.0))
    down = (problem.c < 0) & np.isfinite(problem.hi)
    x = np.where(down, problem.hi, x)
    unbounded = ((problem.c < 0) & ~np.isfinite(problem.hi)) | (
        (problem.c > 0) & ~np.isfinite(problem.lo)
    )
    if np.any(unbounded):
        return LpResult(LpStatus.UNBOUNDED, -np.inf, x, 0)
    return LpResult(LpStatus.OPTIMAL, float(problem.c @ x), x, 0)


def solve_lp(
    problem: LpProblem,
    *,
    feas_tol: float = 1e-7,
    opt_tol: float = 1e-7,
    max_iters: int | None = None,
    deadline: float | None = None,
) -> LpResult:
    """Minimize over the bounded polyhedron; two-phase, deterministic.

    Past `deadline`, a `time.monotonic()` reading, pivoting stops with
    status TIME_LIMIT; without one, only `max_iters` bounds the work.
    """
    m, n = problem.a.shape
    if m == 0:
        return _trivial_solve(problem)
    if np.any(problem.lo > problem.hi + feas_tol):
        return LpResult(LpStatus.INFEASIBLE, np.nan, np.full(n, np.nan), 0)
    if max_iters is None:
        max_iters = 5000 + 25 * (m + n)

    eng = _Engine(problem, feas_tol, opt_tol, max_iters, deadline)
    ntot = n + 2 * eng.m

    phase1 = np.zeros(ntot)
    phase1[n + eng.m :] = 1.0
    st = eng.run(phase1)
    if st in _STOPPED:
        return LpResult(st, np.nan, eng.point()[:n], eng.iterations)
    if st == LpStatus.UNBOUNDED:
        raise RuntimeError("phase-1 objective is bounded below; pivot logic broke")

    # judge phase 1 by the same yardstick callers apply to the answer: the
    # structural point's worst row violation, not the artificial sum, which
    # scales with rhs magnitude and can bless real infeasibility
    x1 = eng.point()[:n]
    if point_violation(problem, x1) > feas_tol:
        # stopping inside the optimality tolerance can strand artificial
        # mass on a feasible problem; grind the tolerance down and let the
        # verdict rest on true phase-1 optimality
        eng.opt_tol = min(opt_tol, 1e-12)
        st = eng.run(phase1)
        eng.opt_tol = opt_tol
        if st in _STOPPED:
            return LpResult(st, np.nan, eng.point()[:n], eng.iterations)
        if st == LpStatus.UNBOUNDED:
            raise RuntimeError("phase-1 objective is bounded below; pivot logic broke")
        x1 = eng.point()[:n]
        if point_violation(problem, x1) > feas_tol:
            return LpResult(LpStatus.INFEASIBLE, np.nan, x1, eng.iterations)

    eng.lo[n + eng.m :] = 0.0
    eng.hi[n + eng.m :] = 0.0
    eng.val[n + eng.m :] = 0.0

    phase2 = np.zeros(ntot)
    phase2[:n] = problem.c
    st = eng.run(phase2)
    x = eng.point()[:n]
    if st == LpStatus.UNBOUNDED:
        return LpResult(st, -np.inf, x, eng.iterations)
    obj = float(problem.c @ x)
    return LpResult(st, obj, x, eng.iterations)
