"""Pre-solve tightening of mass and rate bounds.

Mass bounds come from plain min/max LPs over the plan polytope: transport
rows plus the two linear fairness families. Rank and rate-gap rows are
left out because they constrain the very rates being bounded.

Rate bounds need more care: the positive rate at a destination is a ratio
of two plan-linear quantities. Scaling every plan column by the reciprocal
of the destination's arriving mass (kept as an explicit homogenization
column) turns the ratio into a linear objective over a polytope, so each
bound is one exact LP. The plan's row-stochasticity rows must be carried
into the scaled space too, or the scaled polytope admits rate values no
real plan can produce.

The LPs run as a warm chain: where two LPs share their rows, right-hand
sides and bounds and differ only in the objective, the later one passes
the earlier one's optimal basis to `solve_lp` as `start=`. That basis is
still feasible, so the primal simplex re-optimizes from it instead of
rerunning phase 1. All 2·G·B mass LPs share one polytope, so each starts
from the one before it. The rate LPs of different (group, dest) pairs
differ in their normalization row, so each pair's min LP is solved cold
and its max LP starts from it. `solve_lp` verifies every warm answer and
falls back to a cold solve otherwise, so the bounds are those of cold
solves up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import SENSE_EQ, SENSE_GE, SENSE_LE, LpProblem, LpStatus, solve_lp
from .model import FairnessModel, LinearRows, _RowBag, _window_span, concat_rows

__all__ = ["BoundsError", "TightBounds", "tighten_mass_bounds", "tighten_rate_bounds", "tighten"]

_PAD = 1e-7


class BoundsError(RuntimeError):
    """A bound subproblem failed; carries the (group, dest) it belongs to."""

    def __init__(self, message: str, group: int | None = None, dest: int | None = None):
        super().__init__(message)
        self.group = group
        self.dest = dest


@dataclass(frozen=True)
class TightBounds:
    v_lo: np.ndarray
    v_hi: np.ndarray
    t_lo: np.ndarray
    t_hi: np.ndarray


def tighten_mass_bounds(model: FairnessModel) -> tuple[np.ndarray, np.ndarray]:
    """Min/max arriving mass per (group, dest) over the linear plan rows."""
    G, B = model.stats.ngroups, model.stats.nbins
    rows = model.linear_rows(include_rate_rows=False)
    width = model.t_start  # x and v columns only; rates play no part here
    a = rows.a[:, :width]
    lo = model.lo[:width]
    hi = model.hi[:width]

    v_lo = np.zeros((G, B))
    v_hi = np.zeros((G, B))
    start = None
    for g in range(G):
        for bp in range(B):
            c = np.zeros(width)
            c[model.v_col(g, bp)] = 1.0
            for sign, out in ((1.0, v_lo), (-1.0, v_hi)):
                res = solve_lp(LpProblem(sign * c, a, rows.senses, rows.rhs, lo, hi), start=start)
                if res.status != LpStatus.OPTIMAL:
                    raise BoundsError(
                        f"mass bound subproblem for group {g + 1}, bin {bp} "
                        f"ended {res.status.value}",
                        group=g,
                        dest=bp,
                    )
                out[g, bp] = sign * res.objective
                start = res.basis
    v_lo = np.maximum(v_lo - _PAD, 0.0)
    v_hi = v_hi + _PAD
    return v_lo, v_hi


def _scaled_base(model: FairnessModel) -> tuple[LinearRows, int, int]:
    """Rows shared by every rate-bound LP, over [cc-plan columns, phi]."""
    nx = model.nx
    width = nx + 1
    phi = nx
    stats = model.stats
    G, B = stats.ngroups, stats.nbins
    cfg = model.config
    rows = _RowBag(width)

    for g in range(G):
        for b in range(B):
            coeffs = {
                model.x_index[(g, b, bp)]: 1.0
                for bp in _window_span(b, B, cfg.window)
            }
            coeffs[phi] = -1.0
            rows.add(coeffs, SENSE_EQ, 0.0)
            rows.add(
                {model.x_index[(g, b, b)]: 1.0, phi: -(1.0 - cfg.retention)},
                SENSE_GE,
                0.0,
            )

    pairs = [(g, h) for g in range(G) for h in range(g + 1, G)]
    for g, h in pairs:
        for bp in range(B):
            base: dict[int, float] = {}
            for b in _window_span(bp, B, cfg.window):
                base[model.x_index[(g, b, bp)]] = float(stats.n[g, b]) / stats.group_totals[g]
                base[model.x_index[(h, b, bp)]] = -float(stats.n[h, b]) / stats.group_totals[h]
            rows.add({**base, phi: -cfg.eps_dp}, SENSE_LE, 0.0)
            rows.add({c: -v for c, v in base.items()} | {phi: -cfg.eps_dp}, SENSE_LE, 0.0)
            for weights, denom in ((stats.npos, stats.group_pos), (stats.nneg, stats.group_neg)):
                base = {}
                for b in _window_span(bp, B, cfg.window):
                    base[model.x_index[(g, b, bp)]] = float(weights[g, b]) / denom[g]
                    base[model.x_index[(h, b, bp)]] = -float(weights[h, b]) / denom[h]
                rows.add({**base, phi: -cfg.eps_eodds}, SENSE_LE, 0.0)
                rows.add({c: -v for c, v in base.items()} | {phi: -cfg.eps_eodds}, SENSE_LE, 0.0)

    return rows.freeze(), phi, width


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
    stats = model.stats
    G, B = stats.ngroups, stats.nbins
    base, phi, width = _scaled_base(model)

    t_lo = np.zeros((G, B))
    t_hi = np.zeros((G, B))
    for g in range(G):
        for bp in range(B):
            sources = list(_window_span(bp, B, model.config.window))
            norm = _RowBag(width)
            norm.add(
                {model.x_index[(g, b, bp)]: float(stats.n[g, b]) for b in sources}, SENSE_EQ, 1.0
            )
            rows = concat_rows(width, [base, norm.freeze()])

            lo = np.zeros(width)
            hi = np.full(width, 1.0 / v_lo[g, bp])
            lo[phi] = 1.0 / v_hi[g, bp]

            c = np.zeros(width)
            for b in sources:
                c[model.x_index[(g, b, bp)]] = float(stats.npos[g, b])
            start = None
            for sign, out in ((1.0, t_lo), (-1.0, t_hi)):
                res = solve_lp(LpProblem(sign * c, rows.a, rows.senses, rows.rhs, lo, hi),
                               start=start)
                if res.status != LpStatus.OPTIMAL:
                    raise BoundsError(
                        f"rate bound subproblem for group {g + 1}, bin {bp} "
                        f"ended {res.status.value}",
                        group=g,
                        dest=bp,
                    )
                out[g, bp] = sign * res.objective
                start = res.basis

    t_lo = np.clip(t_lo - _PAD, 0.0, 1.0)
    t_hi = np.clip(t_hi + _PAD, 0.0, 1.0)
    bad = t_lo > t_hi
    if np.any(bad):
        mid = (t_lo[bad] + t_hi[bad]) / 2.0
        t_lo[bad] = mid
        t_hi[bad] = mid
    return t_lo, t_hi


def tighten(model: FairnessModel) -> TightBounds:
    v_lo, v_hi = tighten_mass_bounds(model)
    t_lo, t_hi = tighten_rate_bounds(model, v_lo, v_hi)
    return TightBounds(v_lo=v_lo, v_hi=v_hi, t_lo=t_lo, t_hi=t_hi)
