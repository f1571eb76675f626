"""Dyadic linearization of the rate-mass products.

Each (group, destination) ties rate * mass to the positives arriving
there. Every such link has digits: the rate is rescaled to [0, 1] over its
tightened range, which must be wider than `MIN_RATE_SPAN`, and split into
binary dyadic digits plus a small continuous remainder; each digit-mass
product gets a standard 4-row envelope, and so does the remainder-mass
product. The MILP is therefore a valid relaxation of the rate-mass
products, and any whole-digit solution carries a residual no larger than
span * 2^power * (v_hi - v_lo) / 4 per link.

`power` is the (negative) exponent of the finest digit; more digits mean
tighter products and more binaries. `LinkCols` and `NmdtMilp` are named tuples.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bnb import MilpProblem
from .bounds import MIN_RATE_SPAN, TightBounds
from .lp import (
    FEAS_TOL,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    LpProblem,
    LpStatus,
    point_violation,
    solve_lp,
)
from .model import FairnessModel, _RowBag, concat_rows, identity_plan

__all__ = [
    "LinkCols",
    "NmdtMilp",
    "power_for_precision",
    "build_milp",
    "initial_point",
    "completion_start",
    "link_residuals",
    "residual_caps",
    "certified_rate_slack",
]

# elastic completion LPs `completion_start` runs before it gives up
_COMPLETION_ROUNDS = 12
# the finest precision: a finer digit cannot change a rate held in a double
_FINEST_PRECISION = 2.0**-52


def power_for_precision(precision: float) -> int:
    """Smallest digit count whose remainder box is finer than `precision`,
    which lies in [2**-52, 1): a finer digit cannot change a rate in [0, 1]
    held in a double."""
    if not _FINEST_PRECISION <= precision < 1.0:
        raise ValueError(
            f"precision must lie in [2**-52, 1), got {precision}: digits finer than "
            "2**-52 cannot change a rate held in a double"
        )
    return -math.ceil(math.log2(1.0 / precision))


class LinkCols(NamedTuple):
    """One link's columns: the rate `t_col` and mass `v_col` it multiplies,
    the scaled rate `lam` with its remainder `dlam`, the digits `z`, the
    digit-mass products `w` and the remainder-mass product `r`."""

    group: int
    dest: int
    t_col: int
    v_col: int
    lam: int
    dlam: int
    z: tuple[int, ...]
    w: tuple[int, ...]
    r: int


class NmdtMilp(NamedTuple):
    problem: MilpProblem
    model: FairnessModel
    bounds: TightBounds
    power: int
    links: tuple[LinkCols, ...]


def build_milp(model: FairnessModel, bounds: TightBounds, *, power: int) -> NmdtMilp:
    if power >= 0:
        raise ValueError(f"power must be negative, got {power}")
    ndigits = -power
    step = 2.0**power
    G, B = model.stats.ngroups, model.stats.nbins
    for arr in (bounds.v_lo, bounds.v_hi, bounds.t_lo, bounds.t_hi):
        if arr.shape != (G, B):
            raise ValueError(f"bounds shaped {arr.shape}, model needs {(G, B)}")

    layout: list[LinkCols] = []
    cursor = model.ncols
    for link in model.links:
        g, bp = link.group, link.dest
        if not bounds.t_hi[g, bp] - bounds.t_lo[g, bp] > MIN_RATE_SPAN:
            raise ValueError(
                f"rate box for group {g + 1}, bin {bp} is not wider than {MIN_RATE_SPAN}: "
                f"[{float(bounds.t_lo[g, bp])!r}, {float(bounds.t_hi[g, bp])!r}]"
            )
        lam = cursor
        dlam = cursor + 1
        z = tuple(range(cursor + 2, cursor + 2 + ndigits))
        w = tuple(range(cursor + 2 + ndigits, cursor + 2 + 2 * ndigits))
        r = cursor + 2 + 2 * ndigits
        cursor = r + 1
        layout.append(LinkCols(g, bp, link.t_col, link.v_col, lam, dlam, z, w, r))

    width = cursor
    lo = np.zeros(width)
    hi = np.ones(width)
    lo[: model.ncols] = model.lo
    hi[: model.ncols] = model.hi

    extra = _RowBag(width)
    for link, cols in zip(model.links, layout):
        g, bp = cols.group, cols.dest
        v_lo, v_hi = bounds.v_lo[g, bp], bounds.v_hi[g, bp]
        t_lo, t_hi = bounds.t_lo[g, bp], bounds.t_hi[g, bp]
        lo[cols.v_col], hi[cols.v_col], lo[cols.t_col], hi[cols.t_col] = v_lo, v_hi, t_lo, t_hi
        span = t_hi - t_lo
        hi[cols.dlam] = step
        for wl in cols.w:
            hi[wl] = v_hi
        hi[cols.r] = step * v_hi

        # rate column is an affine image of the scaled digit sum
        extra.add({cols.t_col: 1.0, cols.lam: -span}, SENSE_EQ, t_lo)
        expansion = {cols.lam: 1.0, cols.dlam: -1.0}
        for j, zl in enumerate(cols.z):
            expansion[zl] = -(2.0 ** (power + j))
        extra.add(expansion, SENSE_EQ, 0.0)

        for zl, wl in zip(cols.z, cols.w):
            extra.add({wl: 1.0, zl: -v_hi}, SENSE_LE, 0.0)
            extra.add({wl: 1.0, zl: -v_lo}, SENSE_GE, 0.0)
            extra.add({wl: 1.0, cols.v_col: -1.0, zl: -v_lo}, SENSE_LE, -v_lo)
            extra.add({wl: 1.0, cols.v_col: -1.0, zl: -v_hi}, SENSE_GE, -v_hi)

        extra.add({cols.r: 1.0, cols.dlam: -v_lo}, SENSE_GE, 0.0)
        extra.add({cols.r: 1.0, cols.v_col: -step, cols.dlam: -v_hi}, SENSE_GE, -step * v_hi)
        extra.add({cols.r: 1.0, cols.v_col: -step, cols.dlam: -v_lo}, SENSE_LE, -step * v_lo)
        extra.add({cols.r: 1.0, cols.dlam: -v_hi}, SENSE_LE, 0.0)

        balance = {int(c): -float(p) for c, p in zip(link.x_cols, link.npos)}
        balance[cols.v_col] = t_lo
        for j, wl in enumerate(cols.w):
            balance[wl] = span * (2.0 ** (power + j))
        balance[cols.r] = span
        extra.add(balance, SENSE_EQ, 0.0)

    rows = concat_rows(width, [model.linear_rows(include_rate_rows=True), extra.freeze()])
    c = np.zeros(width)
    c[: model.ncols] = model.objective

    binary_cols = np.array([zl for cols in layout for zl in cols.z], dtype=int)
    return NmdtMilp(
        problem=MilpProblem(
            lp=LpProblem(c=c, a=rows.a, senses=rows.senses, rhs=rows.rhs, lo=lo, hi=hi),
            binary_cols=binary_cols,
        ),
        model=model,
        bounds=bounds,
        power=power,
        links=tuple(layout),
    )


def _lift(nm: NmdtMilp, plan: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """The full MILP point of `plan` with each link's rate set to `rates`.

    Each link's rate is lifted into its digits, digit products and
    remainder: the digits floor the scaled rate onto the dyadic grid, the
    remainder carries the rest, and each product is its factors' product.
    """
    tb = nm.bounds
    step = 2.0**nm.power
    levels = 2**-nm.power
    x = np.zeros(nm.problem.lp.ncols)
    x[: nm.model.ncols] = plan
    for cols in nm.links:
        g, bp = cols.group, cols.dest
        x[cols.t_col] = rates[g, bp]
        lam = (rates[g, bp] - tb.t_lo[g, bp]) / (tb.t_hi[g, bp] - tb.t_lo[g, bp])
        k = int(min(math.floor(lam / step + 1e-12), levels - 1))
        dlam = lam - k * step
        v = x[cols.v_col]
        x[cols.lam] = lam
        x[cols.dlam] = dlam
        for j, (zc, wc) in enumerate(zip(cols.z, cols.w)):
            bit = (k >> j) & 1
            x[zc] = float(bit)
            x[wc] = bit * v
        x[cols.r] = dlam * v
    return x


def initial_point(nm: NmdtMilp) -> np.ndarray:
    """The identity plan at its own rates, clipped to their boxes and lifted.

    The lift satisfies every linearization row, so this point is feasible
    exactly when the identity plan meets the fairness rows.
    """
    base = identity_plan(nm.model)
    tb = nm.bounds
    t_start = nm.model.t_start
    rates = base[t_start : t_start + tb.t_lo.size].reshape(tb.t_lo.shape)
    return _lift(nm, base, np.clip(rates, tb.t_lo, tb.t_hi))


# the rate boxes are padded outward when tightened; targets must stay off
# the pad or they pin rates no plan can realize
_BOX_INSET = 2e-7
# targets keep this far inside the PRP gap band
_BAND_MARGIN = 1e-10


def _feasible_rate_targets(nm: NmdtMilp, seed: np.ndarray) -> np.ndarray:
    """Pull seed rates inside the boxes, the ranking order, and the gap band.

    Clip, sort, and band-squeeze interact, so a few rounds are run; the
    final pass re-applies the ordering, leaving at worst a band overshoot
    `_BAND_MARGIN` absorbs.
    """
    tb = nm.bounds
    eps = nm.model.config.eps_prp
    mid = (tb.t_lo + tb.t_hi) / 2.0
    box_lo = np.minimum(tb.t_lo + _BOX_INSET, mid)
    box_hi = np.maximum(tb.t_hi - _BOX_INSET, mid)
    band = max(eps - _BAND_MARGIN, 0.0)
    r = np.clip(seed, box_lo, box_hi)
    for _ in range(6):
        r = np.maximum.accumulate(r, axis=1)
        r = np.clip(r, box_lo, box_hi)
        r = np.clip(r, r.max(axis=0) - band, r.min(axis=0) + band)
        r = np.clip(r, box_lo, box_hi)
    r = np.maximum.accumulate(r, axis=1)
    return np.clip(r, box_lo, box_hi)


def _completion_lp(nm: NmdtMilp, rates: np.ndarray) -> LpProblem:
    """Elastic LP over the plan block with every link's rate pinned to
    `rates`, minimizing the signed slack added to each balance row.

    The rates sit both in the balance equalities and in the rate-column
    bounds. Each slack of a link is boxed by its `v_hi`, which cuts no
    point: npos.x and rate * v both lie in [0, v], so their difference is
    at most v_hi.
    """
    model, tb = nm.model, nm.bounds
    n, extra = model.ncols, 2 * len(model.links)
    balance = _RowBag(n + extra)
    for i, link in enumerate(model.links):
        coeffs = dict(zip(link.x_cols.tolist(), link.npos.tolist()))
        balance.add({**coeffs, n + 2 * i: -1.0, n + 2 * i + 1: 1.0}, SENSE_EQ, 0.0)
    rows = concat_rows(n + extra, [model.linear_rows(include_rate_rows=False), balance.freeze()])
    first = rows.nrows - len(model.links)
    lo = np.concatenate([model.lo, np.zeros(extra)])
    hi = np.concatenate([model.hi, np.repeat([tb.v_hi[k.group, k.dest] for k in model.links], 2)])
    for i, link in enumerate(model.links):
        # written, not added: `+=` on a zero row would turn the -0.0 of a
        # rate pinned at exactly 0 into +0.0
        rows.a[first + i, link.v_col] = -rates[link.group, link.dest]
        lo[link.v_col] = tb.v_lo[link.group, link.dest]
        hi[link.v_col] = tb.v_hi[link.group, link.dest]
        lo[link.t_col] = hi[link.t_col] = rates[link.group, link.dest]
    c = np.concatenate([np.zeros(n), np.ones(extra)])
    return LpProblem(c=c, a=rows.a, senses=rows.senses, rhs=rows.rhs, lo=lo, hi=hi)


def completion_start(nm: NmdtMilp) -> np.ndarray | None:
    """Whole-digit feasible point built without branching, or None.

    The identity lift is tried first; when the data is biased enough that
    staying put breaks a fairness row, per-link rates are pinned instead:
    targets start at the empirical positive fractions, get repaired into
    the rate rows, and an elastic LP loop moves them onto rates the mass
    constraints can actually realize. The hard completion, the last
    elastic LP with its slacks boxed to [0, 0] and the movement costs,
    picks the cheapest plan at those rates, and `_lift` writes its digits,
    digit products and remainders as it does for the identity. Each LP
    starts from the optimal basis of the one before.
    """
    lp = nm.problem.lp
    x0 = initial_point(nm)
    if point_violation(lp, x0) <= FEAS_TOL:
        return x0

    model = nm.model
    stats = model.stats
    seed = np.divide(
        stats.npos.astype(float),
        stats.n.astype(float),
        out=np.zeros((stats.ngroups, stats.nbins)),
        where=stats.n > 0,
    )
    targets = _feasible_rate_targets(nm, seed)
    start = None
    for _ in range(_COMPLETION_ROUNDS):
        elastic = _completion_lp(nm, targets)
        res = solve_lp(elastic, start=start)
        if res.status != LpStatus.OPTIMAL:
            return None
        start = res.basis
        if res.objective <= 1e-9:
            break
        x = res.x
        realized = np.zeros((stats.ngroups, stats.nbins))
        for link in model.links:
            num = float(x[link.x_cols] @ link.npos)
            realized[link.group, link.dest] = num / max(float(x[link.v_col]), 1e-12)
        targets = _feasible_rate_targets(nm, realized)
    else:
        return None

    hi = np.where(elastic.c > 0.0, 0.0, elastic.hi)  # slacks boxed to [0, 0]
    c = np.concatenate([model.objective, np.zeros(elastic.ncols - model.ncols)])
    res = solve_lp(LpProblem(c, elastic.a, elastic.senses, elastic.rhs, elastic.lo, hi),
                   start=start)
    if res.status != LpStatus.OPTIMAL:
        return None

    full = _lift(nm, res.x[: model.ncols], targets)
    if point_violation(lp, full) <= FEAS_TOL:
        return full
    return None


def link_residuals(nm: NmdtMilp, x: np.ndarray) -> np.ndarray:
    """Per-link gap between rate * mass and the arriving positives."""
    out = np.zeros(len(nm.links))
    for i, (link, cols) in enumerate(zip(nm.model.links, nm.links)):
        out[i] = x[cols.t_col] * x[cols.v_col] - float(x[link.x_cols] @ link.npos)
    return out


def residual_caps(nm: NmdtMilp) -> np.ndarray:
    """Largest |residual| a whole-digit solution can carry, per link."""
    step = 2.0**nm.power
    out = np.zeros(len(nm.links))
    for i, cols in enumerate(nm.links):
        g, bp = cols.group, cols.dest
        span = nm.bounds.t_hi[g, bp] - nm.bounds.t_lo[g, bp]
        out[i] = span * step * (nm.bounds.v_hi[g, bp] - nm.bounds.v_lo[g, bp]) / 4.0
    return out


def certified_rate_slack(nm: NmdtMilp) -> float:
    """Worst-case drift between the rate columns and realized rates."""
    caps = residual_caps(nm)
    worst = 0.0
    for cap, cols in zip(caps, nm.links):
        worst = max(worst, cap / nm.bounds.v_lo[cols.group, cols.dest])
    return worst
