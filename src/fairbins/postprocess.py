"""From solver output to transition plans, transformed scores, and metrics.

`ViolationReport` and `MetricsReport` are named tuples; `TransitionPlan` is
a plain class."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .data import BinSpec, BinStats, Dataset

if TYPE_CHECKING:  # the model layer is imported only by the one function that reads it
    from .model import FairnessModel

__all__ = [
    "PlanError",
    "MetricsError",
    "TransitionPlan",
    "ViolationReport",
    "MetricsReport",
    "extract_plan",
    "apply_stochastic",
    "apply_interpolated",
    "apply_expected_score",
    "expected_assignment_stats",
    "fairness_violations",
    "auc_from_bins",
    "pr_auc_from_bins",
    "audit_stats",
]

# how far a plan entry may fall below 0 or past 1, or a row sum stray from 1,
# before the plan counts as broken: ten times the LP feasibility tolerance,
# the roundoff a solved plan column may carry
_PLAN_TOL = 1e-6


class PlanError(ValueError):
    """A plan is malformed or does not fit the data it is applied to."""


class MetricsError(ValueError):
    """A requested metric is undefined for the supplied counts."""


class TransitionPlan:
    """Per-group row-stochastic transition matrices over shared bin edges:
    `groups` is (G, B, B), rows indexed by source bin."""

    def __init__(self, edges, groups):
        self.edges = tuple(float(e) for e in edges)
        self.groups = np.asarray(groups, dtype=float)
        if self.groups.ndim != 3 or self.groups.shape[1] != self.groups.shape[2]:
            raise PlanError(f"plan tensor must be (G, B, B), got {self.groups.shape}")
        if len(self.edges) != self.groups.shape[1] + 1:
            raise PlanError(
                f"{len(self.edges)} edges cannot frame {self.groups.shape[1]} bins"
            )

    @property
    def ngroups(self) -> int:
        return self.groups.shape[0]

    @property
    def nbins(self) -> int:
        return self.groups.shape[1]

    @property
    def spec(self) -> BinSpec:
        return BinSpec(edges=self.edges)

    def validate(self, *, retention: float | None = None, window: int | None = None) -> None:
        try:
            BinSpec(self.edges)
        except ValueError as e:  # edges that are not finite, ordered and over [0, 1]
            raise PlanError(f"plan {e}") from None
        # every comparison with NaN is False, so the checks below would pass it
        if not np.isfinite(self.groups).all():
            raise PlanError("plan entries must be finite numbers")
        sums = self.groups.sum(axis=2)
        if np.abs(sums - 1.0).max() > _PLAN_TOL:
            raise PlanError(
                f"plan rows sum to 1 within {_PLAN_TOL}; worst {sums.min()}..{sums.max()}"
            )
        if self.groups.min() < -_PLAN_TOL or self.groups.max() > 1 + _PLAN_TOL:
            raise PlanError("plan entries must lie in [0, 1]")
        if retention is not None:
            diag = np.diagonal(self.groups, axis1=1, axis2=2)
            if diag.min() < 1.0 - retention - _PLAN_TOL:
                raise PlanError(
                    f"diagonal {diag.min():.6f} breaks the retention floor "
                    f"{1.0 - retention:.6f}"
                )
        if window is not None:
            B = self.nbins
            src, dst = np.meshgrid(np.arange(B), np.arange(B), indexing="ij")
            outside = np.abs(src - dst) >= window
            if np.abs(self.groups[:, outside]).max(initial=0.0) > _PLAN_TOL:
                raise PlanError(f"plan moves mass beyond the width-{window} window")

    def to_json(self) -> str:
        doc = {
            "edges": list(self.edges),
            "groups": [
                {"group": g + 1, "rows": self.groups[g].tolist()}
                for g in range(self.ngroups)
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TransitionPlan":
        doc = json.loads(text)
        entries = sorted(doc["groups"], key=lambda d: d["group"])
        return cls(
            edges=tuple(doc["edges"]),
            groups=np.array([d["rows"] for d in entries], dtype=float),
        )


def extract_plan(solution: np.ndarray, model: FairnessModel) -> TransitionPlan:
    """Read the plan block out of a solution, clean roundoff, renormalize."""
    from .model import plan_matrices

    if not model.stats.edges:
        raise PlanError("model statistics carry no bin edges")
    raw = plan_matrices(model, solution)
    if raw.min() < -_PLAN_TOL:
        raise PlanError(f"plan entry {raw.min():.3e} below zero beyond tolerance")
    raw = np.maximum(raw, 0.0)
    sums = raw.sum(axis=2)
    if np.abs(sums - 1.0).max() > 1e-4:
        worst = float(np.abs(sums - 1.0).max())
        raise PlanError(f"plan row off unit mass by {worst:.3e}; solver output is broken")
    return TransitionPlan(edges=model.stats.edges, groups=raw / sums[:, :, None])


def _assignments(plan: TransitionPlan, data: Dataset):
    scores, groups = data.score, data.group
    if len(data) and (groups.min() < 1 or groups.max() > plan.ngroups):
        bad = groups[(groups < 1) | (groups > plan.ngroups)][0]
        raise PlanError(f"group {bad} not covered by a {plan.ngroups}-group plan")
    if len(data) and (scores.min() < plan.edges[0] or scores.max() > plan.edges[-1]):
        raise PlanError("scores fall outside the plan's bin edges")
    return scores, groups, plan.spec.assign(scores)


def _draw_bins(
    plan: TransitionPlan, groups: np.ndarray, bins: np.ndarray, seed: int | None
) -> np.ndarray:
    """Per row, how many entries of its cumulative plan row lie at or below a
    uniform draw. Entries are non-negative, so each cumulative row is sorted
    and a binary search per (group, source bin) cell finds that count."""
    u = np.random.default_rng(seed).random(len(groups))
    cums = np.cumsum(plan.groups, axis=2).reshape(-1, plan.nbins)
    cell = (groups - 1) * plan.nbins + bins
    cuts = np.cumsum(np.bincount(cell, minlength=len(cums)))[:-1]
    dest = np.empty(len(groups), dtype=np.intp)
    for c, rows in enumerate(np.split(np.argsort(cell), cuts)):
        dest[rows] = np.searchsorted(cums[c], u[rows], side="right")
    return np.minimum(dest, plan.nbins - 1)


def apply_stochastic(plan: TransitionPlan, data: Dataset, seed: int | None = None) -> np.ndarray:
    """Draw each row's new bin from its source-bin plan row."""
    _, groups, bins = _assignments(plan, data)
    return _draw_bins(plan, groups, bins, seed)


def _interpolate(plan: TransitionPlan, scores, src_bins, dst_bins) -> np.ndarray:
    e = np.asarray(plan.edges)
    al, au = e[src_bins], e[src_bins + 1]
    bl, bu = e[dst_bins], e[dst_bins + 1]
    return bl + (scores - al) / (au - al) * (bu - bl)


def apply_interpolated(plan: TransitionPlan, data: Dataset, seed: int | None = None) -> np.ndarray:
    """Draw new bins, then carry each score's within-bin position across."""
    scores, groups, bins = _assignments(plan, data)
    dest = _draw_bins(plan, groups, bins, seed)
    return _interpolate(plan, scores, bins, dest)


def apply_expected_score(plan: TransitionPlan, data: Dataset) -> np.ndarray:
    """Deterministic map: plan-weighted average of interpolated destinations,
    (P @ lo) + f * (P @ width) for a score at fraction f of its source bin."""
    scores, groups, bins = _assignments(plan, data)
    e = np.asarray(plan.edges)
    lo, width = e[:-1], np.diff(e)
    frac = (scores - lo[bins]) / width[bins]
    g = groups - 1
    return (plan.groups @ lo)[g, bins] + frac * (plan.groups @ width)[g, bins]


def expected_assignment_stats(plan: TransitionPlan, stats: BinStats) -> BinStats:
    """Push per-bin counts through the plan; totals stay exact per group."""
    if stats.nbins != plan.nbins or stats.ngroups != plan.ngroups:
        raise PlanError(
            f"plan is {plan.ngroups}x{plan.nbins}, statistics are "
            f"{stats.ngroups}x{stats.nbins}"
        )
    n_hat = np.einsum("gb,gbp->gp", stats.n, plan.groups)
    npos_hat = np.einsum("gb,gbp->gp", stats.npos, plan.groups)
    return BinStats(n=n_hat, npos=npos_hat, midpoints=stats.midpoints, edges=plan.edges)


class ViolationReport(NamedTuple):
    dp: float
    eodds: float
    prp: float
    dp_bins: np.ndarray
    eodds_bins: np.ndarray
    prp_bins: np.ndarray
    prp_excluded: tuple[tuple[int, int], ...] = ()  # (bin, group), PRP undefined
    odds_excluded_groups: tuple[int, ...] = ()  # groups with one-sided labels


def fairness_violations(stats: BinStats) -> ViolationReport:
    """Worst-case per-destination-bin gaps across all group pairs."""
    G, B = stats.ngroups, stats.nbins
    pairs = [(g, h) for g in range(G) for h in range(g + 1, G)]

    share = stats.n / stats.group_totals[:, None]
    dp_bins = np.zeros(B)
    for g, h in pairs:
        dp_bins = np.maximum(dp_bins, np.abs(share[g] - share[h]))

    odds_excluded = tuple(
        g + 1 for g in range(G) if stats.group_pos[g] <= 0 or stats.group_neg[g] <= 0
    )
    eodds_bins = np.zeros(B)
    with np.errstate(invalid="ignore", divide="ignore"):
        tpr = np.where(stats.group_pos[:, None] > 0, stats.npos / stats.group_pos[:, None], np.nan)
        fpr = np.where(stats.group_neg[:, None] > 0, stats.nneg / stats.group_neg[:, None], np.nan)
    for g, h in pairs:
        if (g + 1) in odds_excluded or (h + 1) in odds_excluded:
            continue
        eodds_bins = np.maximum(eodds_bins, np.abs(tpr[g] - tpr[h]))
        eodds_bins = np.maximum(eodds_bins, np.abs(fpr[g] - fpr[h]))

    prp_bins = np.zeros(B)
    excluded = [(b, g + 1) for b in range(B) for g in range(G) if stats.n[g, b] <= 0]
    with np.errstate(invalid="ignore", divide="ignore"):
        rate = np.where(stats.n > 0, stats.npos / np.where(stats.n > 0, stats.n, 1.0), np.nan)
    for g, h in pairs:
        diff = np.abs(rate[g] - rate[h])
        prp_bins = np.maximum(prp_bins, np.where(np.isnan(diff), 0.0, diff))

    return ViolationReport(
        dp=float(dp_bins.max(initial=0.0)),
        eodds=float(eodds_bins.max(initial=0.0)),
        prp=float(prp_bins.max(initial=0.0)),
        dp_bins=dp_bins,
        eodds_bins=eodds_bins,
        prp_bins=prp_bins,
        prp_excluded=tuple(excluded),
        odds_excluded_groups=odds_excluded,
    )


def _roc_auc(pos: np.ndarray, neg: np.ndarray) -> float:
    P, N = pos.sum(), neg.sum()
    if P <= 0 or N <= 0:
        raise MetricsError(
            f"ROC AUC undefined with {P:.0f} positives and {N:.0f} negatives"
        )
    tpr = np.concatenate(([0.0], np.cumsum(pos[::-1]) / P))
    fpr = np.concatenate(([0.0], np.cumsum(neg[::-1]) / N))
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))


def _pr_auc(pos: np.ndarray, neg: np.ndarray) -> float:
    P = pos.sum()
    if P <= 0:
        raise MetricsError("PR AUC undefined without positives")
    tp = np.cumsum(pos[::-1])
    fp = np.cumsum(neg[::-1])
    recall = np.concatenate(([0.0], tp / P))
    with np.errstate(invalid="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
    return float(np.sum(np.diff(recall) * precision))


def auc_from_bins(stats: BinStats, pooled: bool = True):
    """Trapezoidal ROC area over cumulative bins, highest threshold first.

    Ties inside a bin get half credit, matching the rank statistic.
    """
    if pooled:
        return _roc_auc(stats.npos.sum(axis=0), stats.nneg.sum(axis=0))
    return {g + 1: _roc_auc(stats.npos[g], stats.nneg[g]) for g in range(stats.ngroups)}


def pr_auc_from_bins(stats: BinStats, pooled: bool = True):
    """Step-wise average precision over cumulative-bin thresholds."""
    if pooled:
        return _pr_auc(stats.npos.sum(axis=0), stats.nneg.sum(axis=0))
    return {g + 1: _pr_auc(stats.npos[g], stats.nneg[g]) for g in range(stats.ngroups)}


class MetricsReport(NamedTuple):
    eps_dp: float
    eps_eodds: float
    eps_prp: float
    roc_auc: float | None
    pr_auc: float | None
    dp_bins: list[float]
    eodds_bins: list[float]
    prp_bins: list[float]
    prp_excluded: list[list[int]]
    flags: list[str]

    def to_json(self) -> str:
        return json.dumps(
            {
                "epsDP": self.eps_dp,
                "epsEOdds": self.eps_eodds,
                "epsPRP": self.eps_prp,
                "rocAuc": self.roc_auc,
                "prAuc": self.pr_auc,
                "perBin": {
                    "dp": self.dp_bins,
                    "eodds": self.eodds_bins,
                    "prp": self.prp_bins,
                },
                "prpExcluded": self.prp_excluded,
                "flags": self.flags,
            },
            indent=2,
            sort_keys=True,
        )


def audit_stats(stats: BinStats) -> MetricsReport:
    """Violations plus pooled AUCs, with undefined metrics nulled and flagged."""
    v = fairness_violations(stats)
    flags = []
    for b, g in v.prp_excluded:
        flags.append(f"prp undefined at bin {b} group {g}")
    for g in v.odds_excluded_groups:
        flags.append(f"odds undefined for group {g}")
    try:
        roc = auc_from_bins(stats, pooled=True)
    except MetricsError as e:
        roc = None
        flags.append(str(e))
    try:
        pr = pr_auc_from_bins(stats, pooled=True)
    except MetricsError as e:
        pr = None
        flags.append(str(e))
    return MetricsReport(
        eps_dp=v.dp,
        eps_eodds=v.eodds,
        eps_prp=v.prp,
        roc_auc=roc,
        pr_auc=pr,
        dp_bins=[float(x) for x in v.dp_bins],
        eodds_bins=[float(x) for x in v.eodds_bins],
        prp_bins=[float(x) for x in v.prp_bins],
        prp_excluded=[list(p) for p in v.prp_excluded],
        flags=flags,
    )
