"""Bounded-variable revised simplex over dense arrays.

Every linear program in this package funnels through `solve_lp`, including
each branch-and-bound node. The pivot rules are fully deterministic:
identical inputs produce identical pivot sequences, values, and statuses.

Each solve's engine holds one matrix, the constraint matrix row-scaled
(`a / scale`, m x n). The slack of row `i`, engine column `n + i`, is the
unit vector `e_i` and is never stored, so every product reads `a` and
adds the slack part by hand. Each pivot does three matrix-vector
products: the duals `y = Binv.T @ c_B`, the reduced costs
`c - [a.T @ y, y]`, and the entering column `Binv @ a[:, q]`, which for a
slack is the column `Binv[:, q - n]`. The dual's pivot row is
`[Binv[r] @ a, Binv[r]]`. The dense basis inverse then takes a rank-1
update on the rows where the entering column is nonzero, and is factored
afresh every 100 basis changes, counted across the dual and primal loops
of a solve. A singular basis there, a pivot too small to take, or a ratio
test with no finite step (every column has a finite box, so only roundoff
can find a ray) ends the solve with status NUMERICAL.

A factorization inverts only the structural block of the basis. Let `x`
be the basis slots holding structural columns, `s` those holding slacks,
`S` the rows whose slack is basic and `T` the other rows; a nonsingular
basis has as many rows in `T` as slots in `x`. With `M = a[T, basis[x]]`
(row-scaled), the inverse is `M^-1` on `(x, T)`, `-a[S, basis[x]] @ M^-1`
on `(s, T)`, a unit entry at each `(s_i, S_i)`, and zero elsewhere. A
repeated slack makes `M` non-square and a repeated structural column
makes it singular, so either is refused like any singular basis.

Every solve runs one path: a bounded dual simplex from a dual feasible
basis restores primal feasibility (Koberstein, *The dual simplex method*,
2005), and the primal loop then polishes the answer to optimality on the
true costs. A cold solve starts from the slack basis, B = I, with each
structural column at the bound its cost prefers: every column is boxed,
so each reduced cost, the column's own cost, has the sign its position
needs, and nothing is shifted.

Each loop keeps one pricing rule. The dual takes the row of largest
bound violation and Harris' ratio test; the primal takes the most
negative reduced cost and breaks ratio ties toward the lowest basic
column. Neither turns to an anti-cycling rule. What ends a loop that
stalls is the solve's pivot cap, 5000 + 25 * (rows + columns) pivots
counted across its dual and primal loops (a warm start gets one pivot
per row and column before the cold solve takes over), and a capped
solve is reported as ITERATION_LIMIT, never as an answer.

A solve may also start from any basis (`LpResult.basis`) of a problem
with the same number of rows and columns; nothing else need match. The
optimal basis of a problem that differs in its costs alone stays primal
feasible, so the primal loop re-optimizes from it; that of one that
differs in its bounds or right-hand sides alone stays dual feasible, so
the dual simplex restores primal feasibility in a few pivots. A basis of
a problem with another matrix may be neither: the dual's ratio test
prices each dual infeasible reduced cost as a zero ratio, and the primal
loop repairs the costs once the basis is primal feasible. The dual
keeps its reduced costs up to date from the pivot row it already
computes, and recomputes them at each factorization.

An infeasibility verdict of the dual must survive a fresh factorization
and be certified by `_Engine.certifies`; one that is not is looked at
once more with the smaller pivot tolerance `_PIVOT_TOL`. Every optimum,
cold or warm, must satisfy the problem's own rows and bounds to
`FEAS_TOL` (1e-7). A warm answer that cannot vouch for itself (a pivot
cap, a failed check, a singular basis) falls back to the cold solve, the
same routine from the slack basis; a cold answer that cannot is NUMERICAL.

`LpBasis` and `LpResult` are named tuples; `LpProblem` is a plain class.
"""

from __future__ import annotations

import math
import time
from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = [
    "FEAS_TOL",
    "OPT_TOL",
    "SENSE_LE",
    "SENSE_EQ",
    "SENSE_GE",
    "LpStatus",
    "LpProblem",
    "LpBasis",
    "LpResult",
    "solve_lp",
    "point_violation",
]

SENSE_LE = -1
SENSE_EQ = 0
SENSE_GE = 1

# every layer judges LP answers by these: a point is feasible when no row or
# bound is violated by more than FEAS_TOL, and a basis optimal when no
# reduced cost prices below -OPT_TOL
FEAS_TOL = 1e-7
OPT_TOL = 1e-7

_BASIC, _AT_LO, _AT_UP = 0, 1, 2
# the smallest |pivot| the primal ratio test takes, and the dual's second
# look at an infeasibility verdict it could not certify
_PIVOT_TOL = 1e-9
_REFACTOR_EVERY = 100
_DUAL_PIVOT_TOL = 1e-7
# the reduced cost by which the dual ratio test may overstep its smallest
# ratio to take a larger pivot; a larger slack leaves the primal polish
# reduced costs it accepts (down to -OPT_TOL) but that cost percents of the
# objective over ranges of thousands
_HARRIS_TOL = 1e-9
# a dual-simplex basis counts as primal feasible only when no basic variable
# is further than this outside its bounds (in engine units: row-scaled for
# slacks). `FEAS_TOL` would be too loose here: it hands the primal polish a
# basis outside its box, and admits points that are in fact infeasible.
_DUAL_FEAS_TOL = 1e-11
# pivots a warm start may spend, as a multiple of rows plus columns, before
# the cold solve takes over
_WARM_SHARE = 1.0


class LpStatus(str, Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    ITERATION_LIMIT = "IterationLimit"
    TIME_LIMIT = "TimeLimit"
    NUMERICAL = "Numerical"  # a singular basis, a tiny pivot or an unverified optimum


class LpProblem:
    """min c.x  subject to  a @ x (<=, =, >=) rhs  and  lo <= x <= hi.

    Senses are per-row: SENSE_LE, SENSE_EQ, or SENSE_GE. Maximization is
    the caller's job (negate c). Every column needs a finite box: an
    infinite or NaN `lo` or `hi` raises ValueError. The solver never
    mutates the arrays.
    """

    def __init__(self, c, a, senses, rhs, lo, hi):
        self.c = np.asarray(c, dtype=float)
        self.a = np.atleast_2d(np.asarray(a, dtype=float))
        self.senses = np.asarray(senses, dtype=np.int8)
        self.rhs = np.asarray(rhs, dtype=float)
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        m, n = self.a.shape
        if self.c.shape != (n,) or self.lo.shape != (n,) or self.hi.shape != (n,):
            raise ValueError(f"column arrays disagree with a of shape {self.a.shape}")
        if self.senses.shape != (m,) or self.rhs.shape != (m,):
            raise ValueError(f"row arrays disagree with a of shape {self.a.shape}")
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise ValueError("every column needs a finite box: lo and hi must be finite")

    @property
    def nrows(self) -> int:
        return self.a.shape[0]

    @property
    def ncols(self) -> int:
        return self.a.shape[1]


class LpBasis(NamedTuple):
    """A basis to restart from: the basic column of each row slot, and the
    position code of every engine column, the n structural columns and
    then the m slacks."""

    basic: np.ndarray
    pos: np.ndarray


class LpResult(NamedTuple):
    """A solve's answer. An OPTIMAL point meets the problem's rows and
    bounds to `FEAS_TOL`, cold or warm; NUMERICAL means the simplex could
    not vouch for any answer (a singular basis, a pivot too small to take,
    a ratio test with no finite step, or an optimum that failed that
    check). A boxed LP is never unbounded."""

    status: LpStatus
    objective: float
    x: np.ndarray
    iterations: int
    basis: LpBasis | None = None  # set when Optimal and the problem has rows


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
    """Simplex state over the row-scaled matrix `a`, whose slack columns
    stay implicit: bounds, basis and a dense basis inverse. `slack_start`
    sets the cold start, `install` a warm one; `dual` then restores
    primal feasibility and `run` optimizes."""

    def __init__(self, problem: LpProblem, max_iters: int, deadline: float | None):
        self.problem = problem
        self.pivot_tol = _DUAL_PIVOT_TOL
        self.max_iters = max_iters
        self.deadline = deadline
        self.iterations = 0

        m, n = problem.a.shape
        self.m, self.nstruct = m, n
        # row equilibration only; column scaling would distort the bounds
        scale = np.abs(problem.a).max(axis=1) if n else np.zeros(m)
        self.scale = np.where(scale > 1e-12, scale, 1.0)
        self.a = problem.a / self.scale[:, None]
        self.rhs = problem.rhs / self.scale

        ge, le = problem.senses == SENSE_GE, problem.senses == SENSE_LE
        self.lo = np.concatenate([problem.lo, np.where(ge, -np.inf, 0.0)])
        self.hi = np.concatenate([problem.hi, np.where(le, np.inf, 0.0)])

    def place(self, up: np.ndarray | bool) -> None:
        """Put every column at a bound: its upper one where `up` asks for
        it or where only the upper one is finite (a >= row's slack), else
        its lower one. No column is free: every one has a finite side."""
        at_up = np.isfinite(self.hi) & (up | ~np.isfinite(self.lo))
        self.pos = np.where(at_up, _AT_UP, _AT_LO).astype(np.int8)
        self.val = np.where(at_up, self.hi, self.lo)

    def slack_start(self, c: np.ndarray) -> None:
        """Set the cold start for costs `c`: the slack basis, B = I, with
        each structural column at the bound its cost prefers (see `place`).
        A slack costs nothing, so every nonbasic reduced cost, a column's
        own cost, has the sign its position needs: the start is dual
        feasible for `c` itself. B = I is exact, so it counts as a fresh
        factorization."""
        self.place(c < 0.0)
        self.basis = self.nstruct + np.arange(self.m)
        self.pos[self.basis] = _BASIC
        self.Binv = np.eye(self.m)
        self.updates, self.fresh = 0, True
        self.solve_basics()

    def point(self) -> np.ndarray:
        full = self.val.copy()
        full[self.basis] = self.xB
        return full

    def snapshot(self) -> LpBasis:
        return LpBasis(self.basis.copy(), self.pos.copy())

    def install(self, start: LpBasis) -> bool:
        """Set the warm start `start` and factor its basis: each nonbasic
        column sits at the bound its code names, or at its other bound
        where that one is infinite (a slack's open side). False when the
        basis does not fit this problem or its matrix is singular."""
        if start.basic.shape != (self.m,) or start.pos.shape != self.lo.shape:
            return False
        self.place(start.pos == _AT_UP)
        self.basis = start.basic.astype(np.intp)
        self.pos[self.basis] = _BASIC
        return self.factor()

    def factor(self) -> bool:
        """Invert the basis matrix afresh by its structural block (see the
        module docstring) and recompute the basic values; False on a
        singular basis."""
        # fresh: Binv and xB come from a factorization, not from updates
        self.updates, self.fresh = 0, True
        basis, n = self.basis, self.nstruct
        x, s = (basis < n).nonzero()[0], (basis >= n).nonzero()[0]
        S = basis[s] - n
        other = np.ones(self.m, dtype=bool)
        other[S] = False
        T = other.nonzero()[0]
        cols = self.a[:, basis[x]]
        try:
            inner = np.linalg.inv(cols[T])
        except np.linalg.LinAlgError:  # singular, or not square: a slack repeats
            return False
        Binv = self.Binv = np.zeros((self.m, self.m))
        Binv[x[:, None], T] = inner
        Binv[s[:, None], T] = -cols[S] @ inner
        Binv[s, S] = 1.0
        self.solve_basics()
        return bool(np.isfinite(Binv).all() and np.isfinite(self.xB).all())

    def solve_basics(self) -> None:
        """Basic values from the current inverse and nonbasic values."""
        nb = self.val.copy()
        nb[self.basis] = 0.0
        n = self.nstruct
        self.xB = self.Binv @ (self.rhs - (self.a @ nb[:n] + nb[n:]))

    def reduced(self, c: np.ndarray) -> np.ndarray:
        """Reduced costs of costs `c` at the current basis."""
        y = self.Binv.T @ self.cB
        return c - np.concatenate([self.a.T @ y, y])

    def price(self, y: np.ndarray) -> np.ndarray:
        """`y @ [a | I]`: a row of the inverse priced over every column."""
        return np.concatenate([y @ self.a, y])

    def column(self, q: int) -> np.ndarray:
        """The entering column `Binv @ [a | I][:, q]`; for a slack a copy of
        the inverse's column, not a view of the array `exchange` rewrites."""
        n = self.nstruct
        return self.Binv @ self.a[:, q] if q < n else self.Binv[:, q - n].copy()

    def begin(self, c: np.ndarray) -> None:
        """Pricing state of a pivot loop over costs `c`: a weight per column
        (+1 at the lower bound, -1 at the upper, 0 when basic or fixed),
        and the cost and bounds of each basic slot, kept in step with the
        basis by `exchange` instead of gathered every pivot. The count of
        updates since the last factorization carries over: only `factor`
        and `slack_start` reset it."""
        pos, basis = self.pos, self.basis
        self.c, self.fixed = c, (self.hi - self.lo) <= 0.0
        self.sign = np.where(pos == _AT_LO, 1.0, np.where(pos == _AT_UP, -1.0, 0.0))
        self.sign[self.fixed] = 0.0
        self.cB, self.blo, self.bhi = c[basis], self.lo[basis], self.hi[basis]

    def exchange(self, r: int, q: int, step: float, w: np.ndarray, up: bool) -> bool:
        """Column `q`, the entering column `w` (`column(q)`), takes basic
        slot `r` after moving by `step` (the basic values move by
        `-step * w`); the leaving column rests at its upper bound when
        `up`, else at its lower one. The inverse takes a rank-1 update and
        is factored afresh every `_REFACTOR_EVERY` exchanges; False when
        that factorization finds the basis singular."""
        basis, pos, val, sign, xB, Binv = (
            self.basis, self.pos, self.val, self.sign, self.xB, self.Binv)
        lv = int(basis[r])
        entering = val[q] + step
        xB -= step * w
        pos[lv] = _AT_UP if up else _AT_LO
        val[lv] = self.hi[lv] if up else self.lo[lv]
        sign[lv] = 0.0 if self.fixed[lv] else (-1.0 if up else 1.0)
        basis[r] = q
        xB[r] = entering
        pos[q] = _BASIC
        sign[q] = 0.0
        self.cB[r], self.blo[r], self.bhi[r] = self.c[q], self.lo[q], self.hi[q]

        # rank-1 update of the inverse on the rows where w is nonzero:
        # elsewhere it subtracts zeros, which can flip the sign of a
        # zero entry but changes no bit of any product read from Binv
        row = Binv[r] / w[r]
        nz = w.nonzero()[0]
        Binv[nz] -= w[nz, None] * row
        Binv[r] = row
        self.fresh = False
        self.updates += 1
        return self.updates < _REFACTOR_EVERY or self.factor()

    def dual(self, c: np.ndarray) -> LpStatus:
        """Dual simplex on costs `c` until every basic variable is within
        `_DUAL_FEAS_TOL` of its bounds (OPTIMAL here means primal feasible).

        The leaving row has the largest bound violation. The entering column
        comes from the nonbasic, non-fixed columns that can move the leaving
        variable toward its bound with |alpha_j| above `pivot_tol`, by
        Harris' two-pass ratio test (Harris, Math. Prog. 5, 1973): of the
        columns whose ratio |d_j / alpha_j| is at most the smallest ratio
        that `_HARRIS_TOL` more reduced cost would allow, the one with the
        largest |alpha_j|, then the lowest index. The loop ends at the
        first basis that is primal feasible, or at the pivot cap
        (ITERATION_LIMIT) or the deadline (TIME_LIMIT); no rule breaks a
        run of zero-ratio pivots before the cap. INFEASIBLE means no
        column can move the leaving variable, also on a fresh
        factorization; the row is left in `proof_row`. NUMERICAL means a
        pivot too small to take or a singular factorization."""
        self.begin(c)
        sign, blo, bhi = self.sign, self.blo, self.bhi
        xB, Binv = self.xB, self.Binv
        deadline, tol = self.deadline, self.pivot_tol
        d = self.reduced(c)
        while True:
            below = blo - xB
            viol = np.maximum(below, xB - bhi)
            r = int(viol.argmax())
            if viol[r] <= _DUAL_FEAS_TOL:
                return LpStatus.OPTIMAL
            if self.iterations >= self.max_iters:
                return LpStatus.ITERATION_LIMIT
            if deadline is not None and time.monotonic() > deadline:
                return LpStatus.TIME_LIMIT
            # s = +1: the leaving variable rises to its lower bound; -1: it
            # falls to its upper bound. x_B[r] moves by -alpha_j per unit of
            # x_j, so column j helps when s * alpha_j opposes its direction.
            rises = bool(below[r] > 0.0)
            s = 1.0 if rises else -1.0
            alpha = s * self.price(Binv[r])
            cand = (sign * alpha < -tol).nonzero()[0]
            if cand.size == 0:
                if self.fresh:
                    self.proof_row = r
                    return LpStatus.INFEASIBLE
                # the violation may be drift of the updated inverse: look
                # again from a fresh factorization before calling it a proof
                if not self.factor():
                    return LpStatus.NUMERICAL
                xB, Binv = self.xB, self.Binv
                d = self.reduced(c)
                continue
            self.iterations += 1
            size = np.abs(alpha[cand])
            dj = np.maximum(sign[cand] * d[cand], 0.0)
            ratios = dj / size
            near = (ratios <= ((dj + _HARRIS_TOL) / size).min()).nonzero()[0]
            q = int(cand[near[size[near].argmax()]])

            w = self.column(q)
            if abs(w[r]) <= tol:
                return LpStatus.NUMERICAL
            target = blo[r] if rises else bhi[r]
            step = (xB[r] - target) / w[r]
            # the pivot row prices the basis change: d -= (d_q / alpha_rq) alpha_r
            d -= (d[q] / alpha[q]) * alpha
            d[q] = 0.0
            if not self.exchange(r, q, step, w, not rises):
                return LpStatus.NUMERICAL
            xB, Binv = self.xB, self.Binv
            if self.fresh:
                d = self.reduced(c)

    def certifies(self, r: int) -> bool:
        """Whether row slot `r`, re-derived from a fresh factorization,
        still proves the bounds unmeetable: its basic variable stays more
        than `FEAS_TOL` (in the problem's units) outside its bounds even
        when every nonbasic column moves across its whole range to help. As
        in the dual ratio test, a slack with |alpha_j| at most the pivot
        tolerance counts as zero when its range is unbounded; every finite
        range counts in full. False too when the fresh row of the inverse
        does not reproduce the unit row on the basic columns, relative to
        the row's own size."""
        if not self.factor():
            return False
        v = int(self.basis[r])
        short = self.lo[v] - self.xB[r]
        s = 1.0 if short > 0.0 else -1.0
        if s < 0.0:
            short = self.xB[r] - self.hi[v]
        # slack values are in row-scaled units
        n = self.nstruct
        unit = 1.0 if v < n else self.scale[v - n]
        if not short * unit > FEAS_TOL:
            return False
        y = self.Binv[r]
        alpha = self.price(y)
        e_r = np.zeros(self.m)
        e_r[r] = 1.0
        if np.abs(alpha[self.basis] - e_r).max() > 1e-9 * max(1.0, np.abs(y).max()):
            return False  # the fresh inverse is too inaccurate to trust
        nb = (self.pos != _BASIC).nonzero()[0]
        # s * x_B[r] gains -s * alpha_j * (x_j - val_j) as x_j leaves val_j
        a = -s * alpha[nb]
        moving = a != 0.0
        a, nb = a[moving], nb[moving]
        val = self.val[nb]
        gain = np.maximum(a * (self.lo[nb] - val), a * (self.hi[nb] - val))
        gain[np.isinf(gain) & (np.abs(a) <= self.pivot_tol)] = 0.0
        return bool((short - gain.sum()) * unit > FEAS_TOL)

    def run(self, c: np.ndarray) -> LpStatus:
        self.begin(c)
        lo, hi, val, pos, sign = self.lo, self.hi, self.val, self.pos, self.sign
        blo, bhi, basis, xB = self.blo, self.bhi, self.basis, self.xB
        opt_tol, deadline = OPT_TOL, self.deadline
        # multiplying by the +-1 weights is exact, so eff equals a
        # per-position select of d, -d and 0 (up to the sign of a zero) and
        # picks the same column; only the columns that move in a pivot have
        # their weight rewritten.
        ratios = np.empty(self.m)
        while self.iterations < self.max_iters:
            if deadline is not None and time.monotonic() > deadline:
                return LpStatus.TIME_LIMIT
            self.iterations += 1
            d = self.reduced(c)
            eff = sign * d
            q = int(eff.argmin())
            if eff[q] >= -opt_tol:
                return LpStatus.OPTIMAL

            dirn = float(sign[q])
            w = self.column(q)
            delta = w if dirn > 0 else -w
            dec = (delta > _PIVOT_TOL).nonzero()[0]
            inc = (delta < -_PIVOT_TOL).nonzero()[0]
            ratios.fill(np.inf)
            ratios[dec] = np.maximum(xB[dec] - blo[dec], 0.0) / delta[dec]
            ratios[inc] = np.maximum(bhi[inc] - xB[inc], 0.0) / -delta[inc]
            theta_basic = float(ratios.min())
            theta_flip = (hi[q] - val[q]) if dirn > 0 else (val[q] - lo[q])

            if not math.isfinite(min(theta_basic, theta_flip)):
                return LpStatus.NUMERICAL  # a boxed LP has no ray: roundoff made this one

            if theta_basic <= theta_flip:
                # ties resolved toward the lowest variable index
                tied = (ratios <= theta_basic).nonzero()[0]
                leave = int(tied[0]) if tied.size == 1 else int(tied[basis[tied].argmin()])
                if not self.exchange(leave, q, dirn * theta_basic, w, not delta[leave] > 0):
                    return LpStatus.NUMERICAL
                xB = self.xB
            else:
                # the entering variable rides to its other bound; basis unchanged
                val[q] = hi[q] if dirn > 0 else lo[q]
                pos[q] = _AT_UP if dirn > 0 else _AT_LO
                sign[q] = -dirn
                xB -= theta_flip * delta
        return LpStatus.ITERATION_LIMIT


def solve_lp(
    problem: LpProblem,
    *,
    deadline: float | None = None,
    start: LpBasis | None = None,
) -> LpResult:
    """Minimize over the boxed polyhedron: dual, then primal, simplex.

    Answers are judged by `FEAS_TOL` and `OPT_TOL`: an OPTIMAL result's
    point meets the problem's rows and bounds to `FEAS_TOL`, and an
    optimum that does not is reported as NUMERICAL, as is a solve that
    meets a singular basis or an infeasibility verdict it cannot certify.
    A box with `lo` above `hi` by more than `FEAS_TOL` is INFEASIBLE, its
    point all NaN, whether or not the problem has rows.
    Past `deadline`, a `time.monotonic()` reading, pivoting stops with
    status TIME_LIMIT; without one, only the cap of 5000 + 25 * (rows +
    columns) pivots bounds the work, and status ITERATION_LIMIT reports
    reaching it.
    With `start`, a basis of any problem with the same number of rows and
    columns, a warm start is tried first. Its answer is kept only when it
    checks out, a verified optimum or a certified infeasibility, or when
    the deadline stops it; otherwise the cold solve runs as if there were
    no start, and the result counts the pivots of both.
    """
    m, n = problem.a.shape
    if np.any(problem.lo > problem.hi + FEAS_TOL):
        return LpResult(LpStatus.INFEASIBLE, np.nan, np.full(n, np.nan), 0)
    if m == 0:  # no rows: each column at the bound its cost prefers
        x = np.where(problem.c < 0, problem.hi, problem.lo)
        return LpResult(LpStatus.OPTIMAL, float(problem.c @ x), x, 0)
    max_iters = 5000 + 25 * (m + n)
    spent = 0
    if start is not None:
        warm = _solve(problem, start, min(max_iters, int(_WARM_SHARE * (m + n))), deadline)
        if warm.status in (LpStatus.OPTIMAL, LpStatus.INFEASIBLE, LpStatus.TIME_LIMIT):
            return warm
        spent = warm.iterations
    res = _solve(problem, None, max_iters, deadline)
    return res._replace(iterations=res.iterations + spent) if spent else res


def _solve(
    problem: LpProblem, start: LpBasis | None, max_iters: int, deadline: float | None
) -> LpResult:
    """Dual simplex from `start`, or from the slack basis without one, then
    a primal polish on the true costs, within `max_iters` pivots. An
    optimum is kept only when its point meets the problem's rows and
    bounds to `FEAS_TOL`; an infeasible
    verdict only when `certifies` confirms it, at the second try with
    pivot tolerance `_PIVOT_TOL`. NUMERICAL when the start does not fit
    or is singular, or the answer cannot be vouched for."""
    m, n = problem.a.shape
    eng = _Engine(problem, max_iters, deadline)
    cost = np.concatenate([problem.c, np.zeros(m)])
    if start is None:
        eng.slack_start(cost)
    elif not eng.install(start):
        return LpResult(LpStatus.NUMERICAL, np.nan, np.full(n, np.nan), 0)
    st = eng.dual(cost)
    if st == LpStatus.INFEASIBLE and not eng.certifies(eng.proof_row):
        eng.pivot_tol = _PIVOT_TOL
        st = eng.dual(cost)
        if st == LpStatus.INFEASIBLE and not eng.certifies(eng.proof_row):
            st = LpStatus.NUMERICAL
    if st == LpStatus.OPTIMAL:
        st = eng.run(cost)
    x = eng.point()[:n]
    if st == LpStatus.OPTIMAL:
        if point_violation(problem, x) <= FEAS_TOL:
            return LpResult(st, float(problem.c @ x), x, eng.iterations, eng.snapshot())
        st = LpStatus.NUMERICAL
    return LpResult(st, np.nan, x, eng.iterations)
