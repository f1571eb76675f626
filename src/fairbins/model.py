"""Fairness-constrained transition-plan model over binned scores.

Decision variables, per group g and source bin b: the fraction of the
bin's members sent to each destination bin within the move window.
Derived columns per (group, destination): total arriving mass, and the
positive rate among arrivals. The rate couples to the plan through a
bilinear product; this module owns every linear piece plus the link
descriptions, and leaves the linearization to the MILP layer.
`LinearRows`, `RateLink` and `FairnessModel` are named tuples; `ModelConfig`
is a plain class.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

import numpy as np

from .data import BinStats
from .lp import SENSE_EQ, SENSE_LE

__all__ = [
    "ModelBuildError",
    "ModelConfig",
    "LinearRows",
    "RateLink",
    "FairnessModel",
    "build_model",
    "identity_plan",
    "plan_matrices",
]


class ModelBuildError(ValueError):
    """The bin statistics cannot support the requested model."""


class ModelConfig:
    """Tolerances and plan-structure knobs.

    `retention` is the largest fraction of a bin allowed to leave it, so
    every diagonal plan entry gets the lower bound 1 - retention. `window`
    caps movement: a transfer from bin b to b' exists only when
    |b - b'| < window, so window=1 pins the plan to the identity.
    """

    def __init__(self, eps_dp: float = 0.03, eps_eodds: float = 0.03, eps_prp: float = 0.03,
                 retention: float = 0.5, window: int = 13):
        for name, value in (("eps_dp", eps_dp), ("eps_eodds", eps_eodds), ("eps_prp", eps_prp)):
            # written so that NaN fails too: every comparison with it is False
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if not 0.0 <= retention <= 1.0:
            raise ValueError(f"retention must lie in [0, 1], got {retention}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.eps_dp, self.eps_eodds, self.eps_prp = eps_dp, eps_eodds, eps_prp
        self.retention, self.window = retention, window


class LinearRows(NamedTuple):
    a: np.ndarray
    senses: np.ndarray
    rhs: np.ndarray

    @property
    def nrows(self) -> int:
        return self.a.shape[0]


def concat_rows(ncols: int, parts: Iterable[LinearRows]) -> LinearRows:
    """Stack row blocks, zero-padding narrower blocks out to `ncols` columns."""
    parts = list(parts)
    a = np.zeros((sum(p.nrows for p in parts), ncols))
    top = 0
    for p in parts:
        a[top : top + p.nrows, : p.a.shape[1]] = p.a
        top += p.nrows
    return LinearRows(
        a,
        np.concatenate([np.zeros(0, np.int8)] + [p.senses for p in parts]),
        np.concatenate([np.zeros(0)] + [p.rhs for p in parts]),
    )


class _RowBag:
    """Dense rows from sparse coefficient dicts, one `add` per row."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: list[np.ndarray] = []
        self._senses: list[int] = []
        self._rhs: list[float] = []

    def add(self, coeffs: dict[int, float], sense: int, rhs: float) -> None:
        row = np.zeros(self.ncols)
        for col, coef in coeffs.items():
            row[col] += coef
        self._rows.append(row)
        self._senses.append(sense)
        self._rhs.append(rhs)

    def freeze(self) -> LinearRows:
        return LinearRows(
            np.array(self._rows, dtype=float).reshape(len(self._rows), self.ncols),
            np.array(self._senses, dtype=np.int8),
            np.array(self._rhs, dtype=float),
        )


class RateLink(NamedTuple):
    """Bilinear tie for one (group, destination): rate * mass = positives in.

    `x_cols` are the plan columns of the sources inside the window, `n` and
    `npos` their `stats.n` and `stats.npos` weights: the arriving mass is
    v = n · x and the positives in are rate · v = npos · x.
    """

    group: int
    dest: int
    v_col: int
    t_col: int
    x_cols: np.ndarray
    n: np.ndarray
    npos: np.ndarray


class FairnessModel(NamedTuple):
    stats: BinStats
    config: ModelConfig
    x_cols: tuple[tuple[int, int, int], ...]
    x_index: dict[tuple[int, int, int], int]
    v_start: int
    t_start: int
    ncols: int
    rows_transport: LinearRows
    rows_parity: LinearRows
    rows_odds: LinearRows
    rows_rank: LinearRows
    rows_rate_gap: LinearRows
    links: tuple[RateLink, ...]
    objective: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @property
    def nx(self) -> int:
        return len(self.x_cols)

    def v_col(self, group: int, dest: int) -> int:
        return self.v_start + group * self.stats.nbins + dest

    def t_col(self, group: int, dest: int) -> int:
        return self.t_start + group * self.stats.nbins + dest

    def linear_rows(self, *, include_rate_rows: bool) -> LinearRows:
        parts = [self.rows_transport, self.rows_parity, self.rows_odds]
        if include_rate_rows:
            parts += [self.rows_rank, self.rows_rate_gap]
        return concat_rows(self.ncols, parts)


def _window_span(center: int, nbins: int, window: int) -> range:
    return range(max(0, center - window + 1), min(nbins, center + window))


def build_model(stats: BinStats, config: ModelConfig) -> FairnessModel:
    G, B = stats.ngroups, stats.nbins
    if G < 2:
        raise ModelBuildError(f"need at least 2 groups, got {G}")
    empty = [(b, g + 1) for b in range(B) for g in range(G) if stats.n[g, b] <= 0]
    if empty:
        raise ModelBuildError(
            f"every bin must contain every group; empty (bin, group) pairs: {empty}"
        )
    for g in range(G):
        if stats.group_pos[g] <= 0 or stats.group_neg[g] <= 0:
            raise ModelBuildError(
                f"group {g + 1} needs both positives and negatives "
                f"(pos={stats.group_pos[g]:.0f}, neg={stats.group_neg[g]:.0f})"
            )

    x_cols: list[tuple[int, int, int]] = []
    for g in range(G):
        for b in range(B):
            for bp in _window_span(b, B, config.window):
                x_cols.append((g, b, bp))
    x_index = {trip: j for j, trip in enumerate(x_cols)}
    nx = len(x_cols)
    v_start = nx
    t_start = nx + G * B
    ncols = nx + 2 * G * B

    def vcol(g: int, bp: int) -> int:
        return v_start + g * B + bp

    def tcol(g: int, bp: int) -> int:
        return t_start + g * B + bp

    links = []
    for g in range(G):
        for bp in range(B):
            sources = _window_span(bp, B, config.window)
            links.append(
                RateLink(
                    group=g,
                    dest=bp,
                    v_col=vcol(g, bp),
                    t_col=tcol(g, bp),
                    x_cols=np.array([x_index[(g, b, bp)] for b in sources]),
                    n=np.array([float(stats.n[g, b]) for b in sources]),
                    npos=np.array([float(stats.npos[g, b]) for b in sources]),
                )
            )

    transport = _RowBag(ncols)
    for g in range(G):
        for b in range(B):
            coeffs = {x_index[(g, b, bp)]: 1.0 for bp in _window_span(b, B, config.window)}
            transport.add(coeffs, SENSE_EQ, 1.0)
    for link in links:
        transport.add(dict(zip(link.x_cols.tolist(), link.n)) | {link.v_col: -1.0}, SENSE_EQ, 0.0)

    pairs = [(g, h) for g in range(G) for h in range(g + 1, G)]
    totals = stats.group_totals

    parity = _RowBag(ncols)
    for g, h in pairs:
        for bp in range(B):
            base = {vcol(g, bp): 1.0 / totals[g], vcol(h, bp): -1.0 / totals[h]}
            parity.add(base, SENSE_LE, config.eps_dp)
            parity.add({c: -v for c, v in base.items()}, SENSE_LE, config.eps_dp)

    odds = _RowBag(ncols)
    for g, h in pairs:
        for bp in range(B):
            for weights, denom in ((stats.npos, stats.group_pos), (stats.nneg, stats.group_neg)):
                base: dict[int, float] = {}
                for b in _window_span(bp, B, config.window):
                    base[x_index[(g, b, bp)]] = float(weights[g, b]) / denom[g]
                    base[x_index[(h, b, bp)]] = -float(weights[h, b]) / denom[h]
                odds.add(base, SENSE_LE, config.eps_eodds)
                odds.add({c: -v for c, v in base.items()}, SENSE_LE, config.eps_eodds)

    rank = _RowBag(ncols)
    for g in range(G):
        for bp in range(B - 1):
            rank.add({tcol(g, bp): 1.0, tcol(g, bp + 1): -1.0}, SENSE_LE, 0.0)

    rate_gap = _RowBag(ncols)
    for g, h in pairs:
        for bp in range(B):
            rate_gap.add({tcol(g, bp): 1.0, tcol(h, bp): -1.0}, SENSE_LE, config.eps_prp)
            rate_gap.add({tcol(g, bp): -1.0, tcol(h, bp): 1.0}, SENSE_LE, config.eps_prp)

    mids = stats.midpoints
    total = stats.total
    objective = np.zeros(ncols)
    for j, (g, b, bp) in enumerate(x_cols):
        objective[j] = (stats.n[g, b] / total) * abs(mids[b] - mids[bp])

    lo = np.zeros(ncols)
    hi = np.ones(ncols)
    for (g, b, bp), j in x_index.items():
        if b == bp:
            lo[j] = 1.0 - config.retention
    for link in links:
        lo[link.v_col] = float(stats.n[link.group, link.dest]) * (1.0 - config.retention)
        hi[link.v_col] = sum(link.n.tolist())

    return FairnessModel(
        stats=stats,
        config=config,
        x_cols=tuple(x_cols),
        x_index=x_index,
        v_start=v_start,
        t_start=t_start,
        ncols=ncols,
        rows_transport=transport.freeze(),
        rows_parity=parity.freeze(),
        rows_odds=odds.freeze(),
        rows_rank=rank.freeze(),
        rows_rate_gap=rate_gap.freeze(),
        links=tuple(links),
        objective=objective,
        lo=lo,
        hi=hi,
    )


def identity_plan(model: FairnessModel) -> np.ndarray:
    """The do-nothing plan with its induced masses and rates."""
    x = np.zeros(model.ncols)
    for (g, b, bp), j in model.x_index.items():
        if b == bp:
            x[j] = 1.0
    stats = model.stats
    for g in range(stats.ngroups):
        for bp in range(stats.nbins):
            x[model.v_col(g, bp)] = stats.n[g, bp]
            x[model.t_col(g, bp)] = stats.npos[g, bp] / stats.n[g, bp]
    return x


def plan_matrices(model: FairnessModel, solution: np.ndarray) -> np.ndarray:
    """Dense (group, source, dest) transition tensor from a solution vector."""
    G, B = model.stats.ngroups, model.stats.nbins
    plan = np.zeros((G, B, B))
    for (g, b, bp), j in model.x_index.items():
        plan[g, b, bp] = solution[j]
    return plan
