"""Best-bound branch and bound over the binary columns of a bounded LP.

A node is its column box, the `lo`/`hi` handed to `LpProblem`: the LP's
own box at the root, with binaries pinned (`lo == hi`) below it; a binary
is open while `lo < hi`. Node LPs go through the public `solve_lp`
alone. The root LP is solved cold, or warm from `root_start`: the
optimal root basis of a MILP with the same matrix and costs, which
`SolveReport.root_basis` hands back. Every other node warm-starts from
its parent's optimal basis, factored afresh; `solve_lp` checks each warm
answer and falls back to a cold solve when it cannot. Each popped node
costs one LP. A node whose LP
leaves any open binary off 0/1 branches on the one farthest from 0/1; one
whose open binaries all come out exactly 0 or 1 is a leaf. A leaf's point,
like `initial`, becomes the incumbent only with every binary rounded and
the rounded point meeting the MILP's rows and bounds to `FEAS_TOL`. A node leaves the search only
once its box is resolved: pruned by bound, infeasible, or its point
adopted. One that is not, with no open binary left to split on, is set
aside; its bound caps the reported one and the search ends `GapLimit`.
The kernel is deterministic, so a given problem always explores the same
tree in the same order. When no open node can beat the incumbent, the
lower bound is lifted to the incumbent value and the reported gap is
exactly zero. `SolveReport` is a named tuple; `MilpProblem` a plain class.
"""

from __future__ import annotations

import heapq
import time
from enum import Enum
from typing import NamedTuple

import numpy as np

from .lp import FEAS_TOL, OPT_TOL, LpBasis, LpProblem, LpStatus, point_violation, solve_lp

__all__ = ["MilpStatus", "MilpProblem", "SolveReport", "solve_milp"]


class MilpStatus(str, Enum):
    OPTIMAL = "Optimal"
    GAP_LIMIT = "GapLimit"
    TIME_LIMIT = "TimeLimit"
    INFEASIBLE = "Infeasible"


class MilpProblem:
    """A bounded LP plus the columns that must come out 0/1."""

    def __init__(self, lp: LpProblem, binary_cols):
        self.lp = lp
        self.binary_cols = np.asarray(binary_cols, dtype=int)


class SolveReport(NamedTuple):
    status: MilpStatus
    incumbent: np.ndarray | None
    incumbent_objective: float
    best_lower_bound: float
    gap: float
    nodes_explored: int
    wall_seconds: float
    root_basis: LpBasis | None = None  # the root LP's optimal basis, if any


def _pinned(lo: np.ndarray, hi: np.ndarray, cols, values) -> tuple[np.ndarray, np.ndarray]:
    """A copy of the box (lo, hi) with `cols` pinned to `values`."""
    lo, hi = lo.copy(), hi.copy()
    lo[cols] = hi[cols] = values
    return lo, hi


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

    def verified(x: np.ndarray) -> np.ndarray | None:
        # adopt the rounded point, not the given one: a binary at 1e-8
        # would otherwise leak fractional credit into the incumbent
        x = np.asarray(x, dtype=float).copy()
        x[bins] = np.round(x[bins])
        return x if point_violation(lp, x) <= FEAS_TOL else None

    incumbent = None if initial is None else verified(initial)
    best_obj = np.inf if incumbent is None else float(lp.c @ incumbent)

    nodes = 0

    # heap entries: (bound, insertion counter, the node's column box lo and
    # hi, the parent's optimal basis to warm-start from or None)
    heap: list[tuple[float, int, np.ndarray, np.ndarray, LpBasis | None]] = [
        (-np.inf, 0, lp.lo, lp.hi, root_start)
    ]
    counter = 1
    # the least bound of the nodes set aside unresolved: no usable LP answer
    # or no verified integral point, and no open binary left to split on
    stuck = np.inf
    root_basis: LpBasis | None = None

    def push(bound: float, lo: np.ndarray, hi: np.ndarray, start: LpBasis | None) -> None:
        nonlocal counter
        heapq.heappush(heap, (bound, counter, lo, hi, start))
        counter += 1

    def branch(bound: float, lo, hi, col: int, start: LpBasis | None) -> None:
        for value in (0.0, 1.0):
            push(bound, *_pinned(lo, hi, col, value), start)

    def split(bound: float, lo, hi, start: LpBasis | None) -> None:
        # a node with no usable LP answer or no verified point: keep
        # completeness by splitting on the first open binary, reusing the
        # parent bound since this node's own value is unknown
        nonlocal stuck
        open_bins = lo[bins] < hi[bins]
        if open_bins.any():
            branch(bound, lo, hi, int(bins[np.argmax(open_bins)]), start)
        else:
            stuck = min(stuck, bound)

    while True:
        lower = min(heap[0][0] if heap else best_obj, stuck)
        gap = np.inf
        if incumbent is not None:
            gap = max((best_obj - lower) / max(abs(best_obj), 1e-9), 0.0)
        if elapsed() > time_limit:
            status = MilpStatus.TIME_LIMIT
            break
        if not heap and incumbent is None and stuck == np.inf:
            return SolveReport(
                MilpStatus.INFEASIBLE, None, np.inf, np.inf, 0.0, nodes, elapsed()
            )
        if incumbent is not None and lower >= best_obj - OPT_TOL:
            status = MilpStatus.OPTIMAL
            lower, gap = best_obj, 0.0
            break
        # an empty heap here means unresolved nodes were set aside, and
        # their bound is the proven one
        if not heap or (incumbent is not None and gap <= gap_target):
            status = MilpStatus.GAP_LIMIT
            break

        bound, _, lo, hi, start = heapq.heappop(heap)
        nodes += 1
        res = solve_lp(LpProblem(lp.c, lp.a, lp.senses, lp.rhs, lo, hi), deadline=deadline,
                       start=start)
        if nodes == 1:  # the root
            root_basis = res.basis
            if res.status == LpStatus.INFEASIBLE and incumbent is not None:
                raise RuntimeError(
                    "relaxation reported infeasible, yet the initial point meets its rows"
                )
        if res.status == LpStatus.INFEASIBLE:
            continue
        if res.status == LpStatus.TIME_LIMIT:
            # the node stays open, so its bound still caps the reported one
            push(bound, lo, hi, start)
            continue
        if res.status in (LpStatus.ITERATION_LIMIT, LpStatus.NUMERICAL):
            split(bound, lo, hi, start)
            continue

        if res.objective >= best_obj - OPT_TOL:
            continue
        zvals = res.x[bins]
        off = np.where(lo[bins] < hi[bins], np.abs(zvals - np.round(zvals)), 0.0)
        if off.max(initial=0.0) > 0.0:
            # branch on the open binary farthest from 0/1. Near-integral is
            # not integral: a 1e-6 sliver of a binary can prop up a cheaper
            # objective than any 0/1 point admits, so the sliver is branched
            # on, never rounded away and adopted
            branch(res.objective, lo, hi, int(bins[off.argmax()]), res.basis)
        else:
            x = verified(res.x)
            if x is None:
                split(bound, lo, hi, start)
            else:
                incumbent, best_obj = x, float(lp.c @ x)

    return SolveReport(status, incumbent, best_obj, lower, gap, nodes, elapsed(), root_basis)
