"""Output checks. Each returns a list of problems; an empty list means the
output is correct. They read only what the program wrote and what the
benchmark generated, and recompute what they compare against with numpy,
not with the program's own functions."""

from __future__ import annotations

import csv
import io
import json

import numpy as np

EPS_SLACK = 1e-6  # realized DP and EOdds may exceed the configured value by this much
EXPECTED_TOL = 1e-12  # expected-score recomputation, absolute
AUDIT_TOL = 1e-9  # audit metrics against an independent recount, absolute


def check_bin_stats(text: str, rows: int, nbins: int) -> list[str]:
    """bin-stats: the tallies cover every row once, in ``nbins`` bins."""
    try:
        doc = json.loads(text)
        n = np.array([g["n"] for g in doc["groups"]], dtype=float)
        npos = np.array([g["npos"] for g in doc["groups"]], dtype=float)
    except (ValueError, KeyError, TypeError) as e:
        return [f"bin-stats output is not readable: {e}"]
    problems = []
    if n.shape[1:] != (nbins,) or len(doc.get("edges") or ()) != nbins + 1:
        problems.append(f"bin-stats has shape {n.shape}, expected {nbins} bins")
    if n.sum() != rows:
        problems.append(f"bin-stats counts sum to {n.sum():.0f}, expected {rows}")
    if np.any(npos > n) or np.any(npos < 0):
        problems.append("bin-stats has a positive count outside 0..members in a bin")
    return problems


def frontier_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def check_frontier(text: str, grid: list[tuple[float, float, float]]) -> list[str]:
    """frontier: one row per grid point, each Optimal with gap 0 and realized
    DP and EOdds within the configured tolerances."""
    try:
        rows = frontier_rows(text)
        configured = sorted(
            (float(r["configured_dp"]), float(r["configured_eodds"]), float(r["configured_prp"]))
            for r in rows
        )
    except (KeyError, TypeError, ValueError) as e:
        return [f"frontier CSV is not readable: {e}"]
    if configured != sorted(grid):
        return [f"frontier covers {configured}, expected {sorted(grid)}"]
    problems = []
    for r in rows:
        point = (r["configured_dp"], r["configured_eodds"], r["configured_prp"])
        if r["status"] != "Optimal" or r["gap"] != "0.0":
            problems.append(f"point {point} ended {r['status']} with gap {r['gap']}")
            continue
        for realized, cap in (("epsDP", "configured_dp"), ("epsEOdds", "configured_eodds")):
            try:
                value = float(r[realized])
            except ValueError:
                problems.append(f"point {point} has no realized {realized}")
                continue
            if value > float(r[cap]) + EPS_SLACK:
                problems.append(f"point {point} realizes {realized} {value} above {r[cap]}")
    return problems


def frontier_prp_excess(text: str) -> list[float]:
    """Realized PRP minus its configured tolerance, for each point with a plan."""
    return [float(r["epsPRP"]) - float(r["configured_prp"])
            for r in frontier_rows(text) if r["epsPRP"]]


def read_applied(text: str) -> tuple[str, np.ndarray]:
    """Split an ``apply`` output into its comment line and a float table
    with columns score, label, group, new_score, new_bin."""
    first, header, body = text.split("\n", 2)
    if header != "score,label,group,new_score,new_bin":
        raise ValueError(f"unexpected header {header!r}")
    table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    return first, table


def _source_bins(edges: np.ndarray, score: np.ndarray) -> np.ndarray:
    return np.clip(np.searchsorted(edges, score, side="right") - 1, 0, len(edges) - 2)


def _same_rows(table: np.ndarray, score, label, group) -> list[str]:
    if table.shape != (len(score), 5):
        return [f"output has shape {table.shape}, expected ({len(score)}, 5)"]
    if not (np.array_equal(table[:, 0], score) and np.array_equal(table[:, 1], label)
            and np.array_equal(table[:, 2], group)):
        return ["output rows differ from the input rows"]
    return []


def check_expected(text: str, score, label, group, edges, plan, seed: int) -> list[str]:
    """apply --mode expected: each new score is the plan-weighted mean of
    where the score lands in every destination bin."""
    try:
        first, table = read_applied(text)
    except ValueError as e:
        return [f"expected output is not readable: {e}"]
    problems = _same_rows(table, score, label, group)
    if problems:
        return problems
    if first != f"# seed={seed}":
        problems.append(f"expected output starts {first!r}")
    src = _source_bins(edges, score)
    lo, width = edges[:-1], np.diff(edges)
    frac = (score - lo[src]) / width[src]
    g = group.astype(int) - 1
    want = (plan @ lo)[g, src] + frac * (plan @ width)[g, src]
    err = float(np.max(np.abs(table[:, 3] - want)))
    if err > EXPECTED_TOL:
        problems.append(f"new_score is off the recomputed expected score by {err:.3e}")
    if not np.array_equal(table[:, 4], _source_bins(edges, table[:, 3])):
        problems.append("new_bin is not the bin of new_score")
    return problems


def check_stochastic(text: str, score, label, group, edges, plan, seed: int) -> list[str]:
    """apply --mode stochastic: every row lands on a bin its plan row can
    reach, scored at that bin's midpoint, and the landing frequencies of
    each (group, source bin) match the plan row within 7 standard errors."""
    try:
        first, table = read_applied(text)
    except ValueError as e:
        return [f"stochastic output is not readable: {e}"]
    problems = _same_rows(table, score, label, group)
    if problems:
        return problems
    if first != f"# seed={seed}":
        problems.append(f"stochastic output starts {first!r}")
    nbins = plan.shape[1]
    dest = table[:, 4].astype(int)
    if dest.min() < 0 or dest.max() >= nbins:
        return problems + ["new_bin outside the plan's bins"]
    mids = (edges[:-1] + edges[1:]) / 2.0
    if not np.array_equal(table[:, 3], mids[dest]):
        problems.append("new_score is not the midpoint of new_bin")
    g = group.astype(int) - 1
    src = _source_bins(edges, score)
    if np.any(plan[g, src, dest] <= 0.0):
        problems.append("a row landed on a bin its plan row gives no mass")
    cell = (g * nbins + src) * nbins + dest
    landed = np.bincount(cell, minlength=plan.size).reshape(plan.shape)
    m = np.maximum(landed.sum(axis=2, keepdims=True), 1)
    worst = np.abs(landed / m - plan) - 7.0 * np.sqrt(plan * (1.0 - plan) / m) - 5.0 / m
    if np.any(worst > 0.0):
        problems.append("landing frequencies disagree with the plan")
    return problems


def _audit_recount(score, label, group, eval_bins: int) -> dict[str, float | int]:
    edges = np.linspace(0.0, 1.0, eval_bins + 1)
    b = _source_bins(edges, score)
    g = group.astype(int) - 1
    ngroups = int(g.max()) + 1
    n = np.bincount(g * eval_bins + b, minlength=ngroups * eval_bins).reshape(ngroups, -1)
    pos = np.bincount(g * eval_bins + b, weights=label, minlength=ngroups * eval_bins)
    pos = pos.reshape(ngroups, -1)
    neg = n - pos
    share = n / n.sum(axis=1, keepdims=True)
    tpr = pos / pos.sum(axis=1, keepdims=True)
    fpr = neg / neg.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        rate = np.where(n > 0, pos / n, np.nan)

    def spread(m):  # worst pairwise gap per bin, then over bins
        gaps = np.abs(m[:, None, :] - m[None, :, :])
        return float(np.nan_to_num(gaps, nan=0.0).max())

    pooled_pos, pooled_neg = pos.sum(axis=0)[::-1], neg.sum(axis=0)[::-1]
    t = np.concatenate(([0.0], np.cumsum(pooled_pos) / pooled_pos.sum()))
    f = np.concatenate(([0.0], np.cumsum(pooled_neg) / pooled_neg.sum()))
    return {
        "epsDP": spread(share),
        "epsEOdds": max(spread(tpr), spread(fpr)),
        "epsPRP": spread(rate),
        "rocAuc": float(np.sum(np.diff(f) * (t[1:] + t[:-1]) / 2.0)),
    }


def check_audit(audit_text: str, applied_text: str, eval_bins: int) -> list[str]:
    """audit of an applied file: the audit's violations and ROC AUC match a
    recount of every row's new score into the same evaluation bins. (The
    audit report carries no counts of its own to sum.)"""
    try:
        audit = json.loads(audit_text)
        _, table = read_applied(applied_text)
    except ValueError as e:
        return [f"audit inputs are not readable: {e}"]
    recount = _audit_recount(table[:, 3], table[:, 1], table[:, 2], eval_bins)
    problems = []
    for key in ("epsDP", "epsEOdds", "epsPRP", "rocAuc"):
        got = audit.get(key)
        if not isinstance(got, float) or abs(got - recount[key]) > AUDIT_TOL:
            problems.append(f"audit {key} is {got}, recount gives {recount[key]}")
    return problems
