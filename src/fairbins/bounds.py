"""Pre-solve tightening of mass and rate bounds.

Mass bounds come from plain min/max LPs over the plan polytope: transport
rows plus the two linear fairness families. Rank and rate-gap rows are
left out because they constrain the very rates being bounded.

Rate bounds need more care: the positive rate at a destination is a ratio
of two plan-linear quantities, rate = npos · x / n · x over the link's
sources. The Charnes–Cooper substitution y = x / (n · x), phi = 1 / (n · x)
makes it the linear objective npos · y over a polytope, so each bound is
one exact LP. Its rows are derived from the model's own rows, with no
fairness coefficient written here:

1. each mass column is substituted through its link (v = n · x), which
   empties the mass-definition rows, and those are dropped;
2. every row is homogenized: a · x (sense) rhs becomes a · y - rhs·phi
   (sense) 0, so the row-stochasticity rows carry into the scaled space;
3. every plan column with a positive lower bound (the retention floors)
   gets y - lo·phi >= 0;
4. each (group, dest) LP adds its own norm row n · y = 1.

Without step 2's transport rows or step 3's floors the scaled polytope
would admit rate values no real plan can produce.

The LPs run as a warm chain: where two LPs share their rows, right-hand
sides and bounds and differ only in the objective, the later one passes
the earlier one's optimal basis to `solve_lp` as `start=`. That basis is
still feasible, so the primal simplex re-optimizes from it instead of
restoring feasibility from the slack basis. All 2·G·B mass LPs share one polytope, so each starts
from the one before it. The rate LPs of different (group, dest) pairs
differ in their norm row, so each pair's min LP is solved cold and its
max LP starts from it. `solve_lp` verifies every warm answer and falls
back to a cold solve otherwise, so the bounds are those of cold solves up
to roundoff. A padded rate box whose min exceeds its max is numerical
trouble, not a point, and raises `BoundsError`; so does one no wider than
`MIN_RATE_SPAN`, which the linearization cannot split into digits. The
padding makes every box that does not cross at least 1e-7 wide.
`TightBounds` is a named tuple.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .lp import SENSE_EQ, SENSE_GE, LpBasis, LpProblem, LpStatus, solve_lp
from .model import FairnessModel, LinearRows, RateLink, concat_rows

__all__ = ["BoundsError", "MIN_RATE_SPAN", "TightBounds", "tighten_mass_bounds",
           "tighten_rate_bounds", "tighten"]

_PAD = 1e-7
# the narrowest rate box the NMDT linearization takes: its digits rescale the
# rate by the box width
MIN_RATE_SPAN = 1e-12


class BoundsError(RuntimeError):
    """A bound subproblem failed; carries the (group, dest) it belongs to and
    the status its LP ended with, or None where no LP failed (a crossed rate
    box, an arriving mass that can reach zero). Only ``LpStatus.INFEASIBLE``
    proves that the configured constraints admit no plan."""

    def __init__(self, message: str, group: int | None = None, dest: int | None = None,
                 status: LpStatus | None = None):
        super().__init__(message)
        self.group = group
        self.dest = dest
        self.status = status


class TightBounds(NamedTuple):
    v_lo: np.ndarray
    v_hi: np.ndarray
    t_lo: np.ndarray
    t_hi: np.ndarray


def _min_max(
    kind: str, link: RateLink, c: np.ndarray, rows: LinearRows, lo: np.ndarray, hi: np.ndarray,
    start: LpBasis | None,
) -> tuple[float, float, LpBasis | None]:
    """Min and max of `c` over `rows` and the box, the max LP started from
    the min LP's basis; also returns the max LP's basis for the next chain."""
    values = []
    for sign in (1.0, -1.0):
        res = solve_lp(LpProblem(sign * c, rows.a, rows.senses, rows.rhs, lo, hi), start=start)
        if res.status != LpStatus.OPTIMAL:
            raise BoundsError(
                f"{kind} bound subproblem for group {link.group + 1}, bin {link.dest} "
                f"ended {res.status.value}",
                group=link.group,
                dest=link.dest,
                status=res.status,
            )
        values.append(sign * res.objective)
        start = res.basis
    return values[0], values[1], start


def tighten_mass_bounds(model: FairnessModel) -> tuple[np.ndarray, np.ndarray]:
    """Min/max arriving mass per (group, dest) over the linear plan rows."""
    G, B = model.stats.ngroups, model.stats.nbins
    width = model.t_start  # x and v columns only; rates play no part here
    rows = model.linear_rows(include_rate_rows=False)
    rows = LinearRows(rows.a[:, :width], rows.senses, rows.rhs)
    lo = model.lo[:width]
    hi = model.hi[:width]

    v_lo = np.zeros((G, B))
    v_hi = np.zeros((G, B))
    start = None
    for link in model.links:
        c = np.zeros(width)
        c[link.v_col] = 1.0
        low, high, start = _min_max("mass", link, c, rows, lo, hi, start)
        v_lo[link.group, link.dest] = low
        v_hi[link.group, link.dest] = high
    v_lo = np.maximum(v_lo - _PAD, 0.0)
    v_hi = v_hi + _PAD
    return v_lo, v_hi


def _scaled_base(model: FairnessModel) -> LinearRows:
    """Rows shared by every rate-bound LP, over [scaled plan columns, phi]."""
    nx = model.nx
    rows = model.linear_rows(include_rate_rows=False)
    a = rows.a[:, :nx].copy()
    for link in model.links:
        a[:, link.x_cols] += np.outer(rows.a[:, link.v_col], link.n)
    a = np.column_stack([a, -rows.rhs])
    keep = np.any(a != 0.0, axis=1)  # the mass definitions cancel to 0 = 0

    floors = np.flatnonzero(model.lo[:nx] > 0.0)
    a_floor = np.zeros((len(floors), nx + 1))
    a_floor[np.arange(len(floors)), floors] = 1.0
    a_floor[:, nx] = -model.lo[floors]

    return LinearRows(
        np.vstack([a[keep], a_floor]),
        np.concatenate([rows.senses[keep], np.full(len(floors), SENSE_GE, np.int8)]),
        np.zeros(int(keep.sum()) + len(floors)),
    )


def tighten_rate_bounds(
    model: FairnessModel,
    v_lo: np.ndarray,
    v_hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact min/max positive rate per (group, dest) via homogenized LPs."""
    if np.any(v_lo <= 0.0):
        g, bp = np.argwhere(v_lo <= 0.0)[0]
        raise BoundsError(
            f"arriving mass for group {g + 1}, bin {bp} can reach zero; "
            "its positive rate is unbounded as a ratio",
            group=int(g),
            dest=int(bp),
        )
    G, B = model.stats.ngroups, model.stats.nbins
    width = model.nx + 1
    phi = model.nx
    base = _scaled_base(model)

    t_lo = np.zeros((G, B))
    t_hi = np.zeros((G, B))
    for link in model.links:
        g, bp = link.group, link.dest
        norm = np.zeros((1, width))
        norm[0, link.x_cols] = link.n
        rows = concat_rows(width, [base, LinearRows(norm, np.array([SENSE_EQ], np.int8),
                                                    np.ones(1))])
        lo = np.zeros(width)
        hi = np.full(width, 1.0 / v_lo[g, bp])
        lo[phi] = 1.0 / v_hi[g, bp]
        c = np.zeros(width)
        c[link.x_cols] = link.npos
        t_lo[g, bp], t_hi[g, bp], _ = _min_max("rate", link, c, rows, lo, hi, None)

    t_lo = np.clip(t_lo - _PAD, 0.0, 1.0)
    t_hi = np.clip(t_hi + _PAD, 0.0, 1.0)
    crossed = np.argwhere(~(t_hi - t_lo > MIN_RATE_SPAN))
    if len(crossed):
        g, bp = crossed[0]
        raise BoundsError(
            f"rate bounds for group {g + 1}, bin {bp} cross, or lie within {MIN_RATE_SPAN} of "
            f"each other, after padding ({float(t_lo[g, bp])!r}, {float(t_hi[g, bp])!r}); the "
            "min and max LPs disagree",
            group=int(g),
            dest=int(bp),
        )
    return t_lo, t_hi


def tighten(model: FairnessModel) -> TightBounds:
    v_lo, v_hi = tighten_mass_bounds(model)
    t_lo, t_hi = tighten_rate_bounds(model, v_lo, v_hi)
    return TightBounds(v_lo=v_lo, v_hi=v_hi, t_lo=t_lo, t_hi=t_hi)
