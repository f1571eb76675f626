"""Grid sweeps, non-dominated filtering, trade-off and comparison queries.

A frontier point lives in (AUC, DP gap, EOdds gap, PRP gap) space. Points
record the violations a plan actually achieves under expected assignment,
not the tolerances it was solved with; the configured triple rides along.
`FrontierPoint`, `SolveOutcome` and `ComparisonRecord` are named tuples.
"""

from __future__ import annotations

import csv
import io
import json
import time
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from .bnb import MilpStatus, SolveReport, solve_milp
from .bounds import BoundsError, TightBounds, tighten
from .data import BinStats
from .lp import LpBasis, LpStatus
from .model import FairnessModel, ModelConfig, build_model
from .nmdt import NmdtMilp, build_milp, certified_rate_slack, completion_start
from .postprocess import (
    TransitionPlan,
    auc_from_bins,
    expected_assignment_stats,
    extract_plan,
    fairness_violations,
)

__all__ = [
    "FrontierPoint",
    "SolveOutcome",
    "ComparisonRecord",
    "solve_once",
    "sweep",
    "non_dominated",
    "tradeoff_query",
    "compare_models",
    "frontier_csv",
    "parse_frontier_csv",
]

AXES = ("auc", "dp", "eodds", "prp")


class FrontierPoint(NamedTuple):
    configured: tuple[float, float, float]
    status: str
    gap: float
    solve_seconds: float
    auc: float | None = None
    eps_dp: float | None = None
    eps_eodds: float | None = None
    eps_prp: float | None = None

    @property
    def has_metrics(self) -> bool:
        return self.auc is not None

    def axis(self, name: str) -> float:
        if name == "auc":
            return float(self.auc)
        if name == "dp":
            return float(self.eps_dp)
        if name == "eodds":
            return float(self.eps_eodds)
        if name == "prp":
            return float(self.eps_prp)
        raise ValueError(f"unknown axis {name!r}; expected one of {AXES}")

    def to_dict(self) -> dict:
        return {
            "auc": self.auc,
            "epsDP": self.eps_dp,
            "epsEOdds": self.eps_eodds,
            "epsPRP": self.eps_prp,
            "configured": list(self.configured),
            "status": self.status,
            "gap": self.gap,
            "seconds": self.solve_seconds,
        }


class SolveOutcome(NamedTuple):
    """Everything one tolerance triple produces: report, plan, certificates."""

    report: SolveReport
    plan: TransitionPlan | None
    model: FairnessModel
    bounds: TightBounds
    milp: NmdtMilp
    rate_slack: float


def solve_once(
    stats: BinStats,
    config: ModelConfig,
    *,
    power: int,
    time_limit: float = 600.0,
    gap_target: float = 0.0,
    bounds: TightBounds | None = None,
    root_start: LpBasis | None = None,
) -> SolveOutcome:
    """Model, tighten, linearize, branch; hand back the plan if one exists.

    `root_start` is the optimal root basis of a MILP with the same matrix
    and costs (`SolveReport.root_basis`); the root LP warm-starts from it.
    """
    model = build_model(stats, config)
    if bounds is None:
        bounds = tighten(model)
    nm = build_milp(model, bounds, power=power)
    warm = completion_start(nm)
    report = solve_milp(nm.problem, time_limit, gap_target, initial=warm, root_start=root_start)
    plan = None
    if report.incumbent is not None:
        plan = extract_plan(report.incumbent, model)
    return SolveOutcome(
        report=report,
        plan=plan,
        model=model,
        bounds=bounds,
        milp=nm,
        rate_slack=certified_rate_slack(nm),
    )


def _evaluate(plan: TransitionPlan, stats: BinStats):
    pushed = expected_assignment_stats(plan, stats)
    v = fairness_violations(pushed)
    return float(auc_from_bins(pushed, pooled=True)), v.dp, v.eodds, v.prp


def sweep(
    stats: BinStats,
    dp_grid: Sequence[float],
    eodds_grid: Sequence[float],
    prp_grid: Sequence[float],
    *,
    budget_per_solve: float,
    retention: float = 0.5,
    window: int = 13,
    power: int = -17,
    gap_target: float = 0.0,
) -> list[FrontierPoint]:
    """One solve per tolerance triple over the full grid product, each with
    a time limit of `budget_per_solve` seconds.

    Bound tightening depends only on the DP and EOdds tolerances, so it is
    computed once per (dp, eodds) pair and shared across the PRP axis. The
    MILPs of one pair differ only in the right-hand sides of the PRP
    rate-gap rows, so each root LP after the pair's first warm-starts from
    the previous root's optimal basis.
    """
    if not (dp_grid and eodds_grid and prp_grid):
        raise ValueError("every tolerance grid axis needs at least one value")
    # every configuration is validated before the first solve
    configs = [
        ModelConfig(eps_dp=eps_dp, eps_eodds=eps_eodds, eps_prp=eps_prp,
                    retention=retention, window=window)
        for eps_dp, eps_eodds, eps_prp in product(dp_grid, eodds_grid, prp_grid)
    ]

    cache: dict[tuple[float, float], TightBounds | None] = {}
    roots: dict[tuple[float, float], LpBasis | None] = {}
    points: list[FrontierPoint] = []
    for config in configs:
        key = (config.eps_dp, config.eps_eodds)
        t0 = time.monotonic()
        if key not in cache:
            try:
                cache[key] = tighten(build_model(stats, config))
            except BoundsError as e:
                # only a bound LP that proved infeasibility makes a point;
                # other trouble is an error here as it is for one solve
                if e.status != LpStatus.INFEASIBLE:
                    raise
                cache[key] = None
        report = plan = None
        if cache[key] is not None:
            out = solve_once(
                stats, config, power=power, time_limit=budget_per_solve,
                gap_target=gap_target, bounds=cache[key], root_start=roots.get(key),
            )
            roots[key] = out.report.root_basis
            report, plan = out.report, out.plan
        elapsed = time.monotonic() - t0
        auc, dp, eodds, prp = (None,) * 4 if plan is None else _evaluate(plan, stats)
        points.append(FrontierPoint(
            configured=(config.eps_dp, config.eps_eodds, config.eps_prp),
            status=MilpStatus.INFEASIBLE.value if report is None else report.status.value,
            gap=float("inf") if report is None else report.gap,
            solve_seconds=elapsed,
            auc=auc,
            eps_dp=dp,
            eps_eodds=eodds,
            eps_prp=prp,
        ))
    points.sort(key=lambda p: p.configured)
    return points


def _dominates(q: FrontierPoint, p: FrontierPoint) -> bool:
    if q.auc < p.auc or q.eps_dp > p.eps_dp or q.eps_eodds > p.eps_eodds \
            or q.eps_prp > p.eps_prp:
        return False
    return (q.auc > p.auc or q.eps_dp < p.eps_dp or q.eps_eodds < p.eps_eodds
            or q.eps_prp < p.eps_prp)


def _metric_key(p: FrontierPoint):
    return (-p.auc, p.eps_dp, p.eps_eodds, p.eps_prp)


def non_dominated(points: Sequence[FrontierPoint]) -> list[FrontierPoint]:
    """Drop dominated and duplicate points; order by AUC then tolerances."""
    scored = sorted((p for p in points if p.has_metrics), key=_metric_key)
    keep: list[FrontierPoint] = []
    seen: set[tuple] = set()
    for p in scored:
        key = _metric_key(p)
        if key in seen:
            continue
        if any(_dominates(q, p) for q in scored if q is not p):
            continue
        seen.add(key)
        keep.append(p)
    return keep


def tradeoff_query(
    frontier: Sequence[FrontierPoint],
    operating: FrontierPoint,
    cost: str,
    benefit: str,
) -> FrontierPoint | None:
    """Find a frontier point buying `benefit` by giving up only `cost`."""
    for name in (cost, benefit):
        if name not in AXES:
            raise ValueError(f"unknown axis {name!r}; expected one of {AXES}")
    if cost == benefit:
        raise ValueError("cost and benefit must be different axes")

    def better(name: str, a: float, b: float) -> bool:  # a strictly better than b
        return a > b if name == "auc" else a < b

    held = [a for a in AXES if a not in (cost, benefit)]
    candidates = []
    for p in frontier:
        if not p.has_metrics:
            continue
        if any(better(a, operating.axis(a), p.axis(a)) for a in held):
            continue  # a held axis got worse
        if not better(benefit, p.axis(benefit), operating.axis(benefit)):
            continue
        if not better(cost, operating.axis(cost), p.axis(cost)):
            continue  # cost must strictly worsen
        candidates.append(p)
    if not candidates:
        return None

    def rank(p: FrontierPoint):
        gain = p.axis(benefit) - operating.axis(benefit)
        if benefit != "auc":
            gain = -gain
        worsening = abs(p.axis(cost) - operating.axis(cost))
        return (-gain, worsening, _metric_key(p))

    return min(candidates, key=rank)


class ComparisonRecord(NamedTuple):
    auc_min: float
    distance_a: float | None
    distance_b: float | None
    point_a: FrontierPoint | None
    point_b: FrontierPoint | None
    winner: str | None  # "A", "B", "tie", or None when neither qualifies

    def to_json(self) -> str:
        def side(dist, point):
            if dist is None:
                return {"noAdmissiblePoint": True}
            return {"distance": dist, "point": point.to_dict()}

        return json.dumps(
            {
                "aucMin": self.auc_min,
                "A": side(self.distance_a, self.point_a),
                "B": side(self.distance_b, self.point_b),
                "winner": self.winner,
            },
            indent=2,
            sort_keys=True,
        )


def compare_models(
    frontier_a: Sequence[FrontierPoint],
    frontier_b: Sequence[FrontierPoint],
    auc_min: float,
) -> ComparisonRecord:
    """Smaller violation norm wins, among points clearing the AUC floor."""

    def best(frontier):
        admissible = [p for p in frontier if p.has_metrics and p.auc >= auc_min]
        if not admissible:
            return None, None
        dists = [
            float(np.hypot(np.hypot(p.eps_dp, p.eps_eodds), p.eps_prp))
            for p in admissible
        ]
        i = int(np.argmin(dists))
        return dists[i], admissible[i]

    da, pa = best(frontier_a)
    db, pb = best(frontier_b)
    if da is None and db is None:
        winner = None
    elif da is None:
        winner = "B"
    elif db is None:
        winner = "A"
    elif da == db:
        winner = "tie"
    else:
        winner = "A" if da < db else "B"
    return ComparisonRecord(
        auc_min=auc_min, distance_a=da, distance_b=db,
        point_a=pa, point_b=pb, winner=winner,
    )


_CSV_COLUMNS = [
    "auc", "epsDP", "epsEOdds", "epsPRP",
    "configured_dp", "configured_eodds", "configured_prp",
    "status", "gap", "seconds", "nondominated",
]


def frontier_csv(points: Sequence[FrontierPoint]) -> str:
    """Serialize a sweep. The seconds cell stays empty: wall time is a
    measurement, not a function of the inputs, and the file must come out
    byte-identical when the same seed is run twice. Timing lives on the
    in-memory points and in the solve report instead."""
    survivors = {id(p) for p in non_dominated(points)}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for p in points:
        fmt = lambda x: "" if x is None else repr(float(x))
        writer.writerow([
            fmt(p.auc), fmt(p.eps_dp), fmt(p.eps_eodds), fmt(p.eps_prp),
            repr(float(p.configured[0])), repr(float(p.configured[1])),
            repr(float(p.configured[2])),
            p.status, repr(float(p.gap)), "",
            "1" if id(p) in survivors else "0",
        ])
    return buf.getvalue()


def parse_frontier_csv(text: str) -> list[FrontierPoint]:
    reader = csv.DictReader(io.StringIO(text))
    missing = set(_CSV_COLUMNS) - set(reader.fieldnames or [])
    if missing:
        raise ValueError(f"frontier CSV is missing columns {sorted(missing)}")
    points = []
    for row in reader:
        if None in row.values():  # a short row: csv fills its missing fields with None
            given = sum(value is not None for value in row.values())
            raise ValueError(f"frontier CSV line {reader.line_num} has {given} of "
                             f"{len(reader.fieldnames)} fields")
        opt = lambda key: None if row[key] == "" else float(row[key])
        points.append(FrontierPoint(
            configured=(
                float(row["configured_dp"]),
                float(row["configured_eodds"]),
                float(row["configured_prp"]),
            ),
            status=row["status"],
            gap=float(row["gap"]),
            solve_seconds=float(row["seconds"] or 0.0),
            auc=opt("auc"),
            eps_dp=opt("epsDP"),
            eps_eodds=opt("epsEOdds"),
            eps_prp=opt("epsPRP"),
        ))
    return points
