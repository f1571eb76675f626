"""Best-bound branch and bound over the binary columns of a bounded LP.

All node LPs of one MILP share one simplex matrix, built once, and a
store of the basis inverses of the last few node LPs (`lp._Shared`).
The root LP is solved cold, or warm from `root_start`: the optimal root
basis of a MILP with the same matrix and costs, which `SolveReport.root_basis`
hands back. Every other node carries its parent's optimal basis and
warm-starts from it, from a copy of the parent's inverse when it is still
stored; after fixing one binary that takes a few dual simplex pivots
instead of a full two-phase solve. `solve_lp` checks each warm answer and
falls back to a cold solve when it cannot. Heap entries hold only the
`LpBasis`. An integral node point or a pinned pattern point becomes the
incumbent only when it meets the MILP's rows and bounds to `FEAS_TOL`; an
integral node that fails is split like a node whose LP hit its pivot cap.
The kernel is deterministic, so a given problem always explores the same
tree in the same order. The search certifies optimality through bound
exhaustion: when no open node can beat the incumbent, the lower bound is
lifted to the incumbent value and the reported gap is exactly zero.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lp import (FEAS_TOL, OPT_TOL, LpBasis, LpProblem, LpResult, LpStatus, _Shared,
                 point_violation, solve_lp)

__all__ = ["MilpStatus", "MilpProblem", "SolveReport", "solve_milp"]

_INT_TOL = 1e-6


class MilpStatus(str, Enum):
    OPTIMAL = "Optimal"
    GAP_LIMIT = "GapLimit"
    TIME_LIMIT = "TimeLimit"
    INFEASIBLE = "Infeasible"


@dataclass
class MilpProblem:
    """A bounded LP plus the columns that must come out 0/1."""

    lp: LpProblem
    binary_cols: np.ndarray

    def __post_init__(self):
        self.binary_cols = np.asarray(self.binary_cols, dtype=int)


@dataclass(frozen=True)
class SolveReport:
    status: MilpStatus
    incumbent: np.ndarray | None
    incumbent_objective: float
    best_lower_bound: float
    gap: float
    nodes_explored: int
    wall_seconds: float
    root_basis: LpBasis | None = None  # the root LP's optimal basis, if any


def _is_integral(values: np.ndarray) -> bool:
    return bool(np.all(np.abs(values - np.round(values)) <= _INT_TOL))


def solve_milp(
    milp: MilpProblem,
    time_limit: float,
    gap_target: float,
    *,
    initial: np.ndarray | None = None,
    root_start: LpBasis | None = None,
) -> SolveReport:
    t0 = time.monotonic()
    # node LPs stop at the deadline too: one degenerate LP can otherwise
    # run for minutes past the limit
    deadline = t0 + time_limit
    lp = milp.lp
    bins = milp.binary_cols

    def elapsed() -> float:
        return time.monotonic() - t0

    def restricted(fixes: tuple[tuple[int, float], ...]) -> LpProblem:
        lo = lp.lo.copy()
        hi = lp.hi.copy()
        for col, val in fixes:
            lo[col] = val
            hi[col] = val
        return LpProblem(lp.c, lp.a, lp.senses, lp.rhs, lo, hi)

    incumbent: np.ndarray | None = None
    best_obj = np.inf
    if initial is not None:
        initial = np.asarray(initial, dtype=float).copy()
        if _is_integral(initial[bins]):
            # adopt the snapped point, not the handed-in one: a binary at
            # 1e-8 would otherwise leak fractional credit into the incumbent
            initial[bins] = np.round(initial[bins])
            if point_violation(lp, initial) <= FEAS_TOL:
                incumbent = initial
                best_obj = float(lp.c @ initial)

    nodes = 0
    shared = _Shared(lp)

    def solve_node(fixes, start: LpBasis | None = None) -> LpResult:
        nonlocal nodes
        nodes += 1
        return solve_lp(restricted(fixes), deadline=deadline, start=start, _shared=shared)

    root = solve_node((), root_start)
    if root.status == LpStatus.INFEASIBLE:
        if incumbent is not None:
            raise RuntimeError(
                "relaxation reported infeasible, yet the initial point meets its rows"
            )
        return SolveReport(
            MilpStatus.INFEASIBLE, None, np.inf, np.inf, 0.0, nodes, elapsed()
        )
    if root.status == LpStatus.UNBOUNDED:
        raise RuntimeError("relaxation is unbounded; the model lost its box bounds")

    # heap entries: (bound, insertion counter, fixes, cached root result or
    # None, the parent's optimal basis to warm-start from or None)
    root_bound = root.objective if root.status == LpStatus.OPTIMAL else -np.inf
    heap: list[tuple[float, int, tuple, LpResult | None, LpBasis | None]] = [
        (root_bound, 0, (), root, None)
    ]
    counter = 1

    def branch(bound: float, fixes: tuple, col: int, start: LpBasis | None) -> None:
        nonlocal counter
        for value in (0.0, 1.0):
            heapq.heappush(heap, (bound, counter, fixes + ((col, value),), None, start))
            counter += 1

    def split(bound: float, fixes: tuple, start: LpBasis | None) -> None:
        # a node whose LP gave no usable answer: keep completeness by
        # splitting on the first unfixed binary, reusing the parent bound
        # since this node's own value is unknown
        fixed_cols = {c for c, _ in fixes}
        open_cols = [c for c in bins.tolist() if c not in fixed_cols]
        if open_cols:
            branch(bound, fixes, open_cols[0], start)

    status = MilpStatus.OPTIMAL
    lower = root_bound

    while True:
        if elapsed() > time_limit:
            status = MilpStatus.TIME_LIMIT
            lower = heap[0][0] if heap else best_obj
            break
        if not heap:
            if incumbent is None:
                return SolveReport(
                    MilpStatus.INFEASIBLE, None, np.inf, np.inf, 0.0, nodes, elapsed()
                )
            status = MilpStatus.OPTIMAL
            lower = best_obj
            break
        lower = heap[0][0]
        if incumbent is not None:
            if lower >= best_obj - OPT_TOL:
                status = MilpStatus.OPTIMAL
                lower = best_obj
                break
            gap_now = (best_obj - lower) / max(abs(best_obj), 1e-9)
            if gap_now <= gap_target:
                status = MilpStatus.GAP_LIMIT
                break

        bound, _, fixes, cached, start = heapq.heappop(heap)
        res = cached if cached is not None else solve_node(fixes, start)
        if res.status == LpStatus.INFEASIBLE:
            continue
        if res.status == LpStatus.TIME_LIMIT:
            # the node stays open, so its bound still caps the reported one
            heapq.heappush(heap, (bound, counter, fixes, None, start))
            counter += 1
            continue
        if res.status == LpStatus.ITERATION_LIMIT:
            split(bound, fixes, start)
            continue

        if res.objective >= best_obj - OPT_TOL:
            continue
        zvals = res.x[bins]
        off = np.abs(zvals - np.round(zvals))
        if np.all(off <= _INT_TOL):
            if np.max(off, initial=0.0) == 0.0:
                # an incumbent is adopted only once it meets the rows
                if point_violation(lp, res.x) <= FEAS_TOL:
                    incumbent = res.x
                    best_obj = res.objective
                else:
                    split(bound, fixes, start)
            else:
                # near-integral is not integral: a 1e-6 sliver of a binary can
                # prop up a cheaper objective than any 0/1 point admits. Pin
                # the rounded pattern as an incumbent heuristic, then branch
                # anyway so the subtree's true optimum stays reachable.
                pattern = np.round(zvals)
                res2 = solve_node(tuple(zip(bins.tolist(), pattern.tolist())), res.basis)
                if (
                    res2.status == LpStatus.OPTIMAL
                    and res2.objective < best_obj - OPT_TOL
                    and point_violation(lp, res2.x) <= FEAS_TOL
                ):
                    incumbent = res2.x
                    best_obj = res2.objective
                fixed_cols = {c for c, _ in fixes}
                open_off = np.where(
                    np.isin(bins, list(fixed_cols)), -1.0, off
                )
                pick = int(np.argmax(open_off))
                if open_off[pick] < 0.0:
                    # every binary is already pinned; res2 was this subtree's
                    # only integer point, so the node is exhausted
                    continue
                branch(res.objective, fixes, int(bins[pick]), res.basis)
        else:
            frac_ids = np.flatnonzero(off > _INT_TOL)
            pick = frac_ids[np.argmin(np.abs(zvals[frac_ids] - 0.5))]
            branch(res.objective, fixes, int(bins[pick]), res.basis)

    if status == MilpStatus.OPTIMAL and incumbent is not None:
        gap = 0.0
    elif incumbent is not None and np.isfinite(lower):
        gap = (best_obj - lower) / max(abs(best_obj), 1e-9)
        gap = max(gap, 0.0)
    else:
        gap = np.inf
    return SolveReport(status, incumbent, best_obj, lower, gap, nodes, elapsed(), root.basis)
