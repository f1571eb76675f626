"""Independent oracles the test suite checks the implementation against.

Everything in this file is deliberately written without importing the package
under test: plain arithmetic, brute-force enumeration, and scipy's HiGHS LP
solver. Expected values frozen into the tests were computed by running
``python tests/oracle_helpers.py`` before the implementation existed.
"""

from __future__ import annotations

import itertools

import numpy as np

# ---------------------------------------------------------------------------
# Canonical 40-row fixture: two groups, two bins with edges [0, 0.5, 1].
# Group 1: low bin 10 rows / 2 positive, high bin 10 rows / 8 positive.
# Group 2: low bin 10 rows / 4 positive, high bin 10 rows / 6 positive.
# The sorted 20th/21st scores are 0.29/0.71, so the empirical median is 0.50
# and a 2-bin quantile split lands exactly on the intended edges.
# ---------------------------------------------------------------------------


def tiny_rows() -> list[tuple[float, int, int]]:
    rows = []
    low_1 = [round(0.10 + 0.02 * i, 2) for i in range(10)]
    rows += [(s, 1 if s >= 0.26 else 0, 1) for s in low_1]
    high_1 = [round(0.72 + 0.02 * i, 2) for i in range(10)]
    rows += [(s, 0 if s <= 0.74 else 1, 1) for s in high_1]
    low_2 = [round(0.11 + 0.02 * i, 2) for i in range(10)]
    rows += [(s, 1 if s >= 0.23 else 0, 2) for s in low_2]
    high_2 = [round(0.71 + 0.02 * i, 2) for i in range(10)]
    rows += [(s, 1 if s >= 0.79 else 0, 2) for s in high_2]
    return rows


def tally(rows, edges):
    """Count totals/positives per (group, bin) by direct comparison."""
    groups = sorted({g for _, _, g in rows})
    nbins = len(edges) - 1
    n = {g: [0] * nbins for g in groups}
    npos = {g: [0] * nbins for g in groups}
    for score, label, g in rows:
        b = nbins - 1
        for k in range(nbins):
            if edges[k] <= score < edges[k + 1]:
                b = k
                break
        n[g][b] += 1
        npos[g][b] += label
    return n, npos


# ---------------------------------------------------------------------------
# AUC oracles.
# ---------------------------------------------------------------------------


def rank_auc(pos: list[float], neg: list[float]) -> float:
    """Mann-Whitney statistic with half credit for ties, from per-bin counts.

    Bins are ordered low to high; a positive in a higher bin than a negative
    counts 1, the same bin counts 1/2.
    """
    wins = 0.0
    for bp, p in enumerate(pos):
        for bn, q in enumerate(neg):
            if bp > bn:
                wins += p * q
            elif bp == bn:
                wins += 0.5 * p * q
    return wins / (sum(pos) * sum(neg))


def step_pr_auc(pos: list[float], neg: list[float]) -> float:
    """Average precision over cumulative-bin thresholds, highest bin first."""
    total_pos = sum(pos)
    area = 0.0
    tp = 0.0
    fp = 0.0
    prev_recall = 0.0
    for b in range(len(pos) - 1, -1, -1):
        tp += pos[b]
        fp += neg[b]
        recall = tp / total_pos
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


# ---------------------------------------------------------------------------
# Grid-search oracle for the incoming positive rate of a destination bin in
# the 2-bin fixture. With two bins, retention floor xi and a window that
# permits movement, each group's plan has two free parameters: the off-
# diagonal masses a (bin1->bin2) and c (bin2->bin1), both in [0, xi].
# ---------------------------------------------------------------------------


def grid_rate_bounds(n_g, npos_g, dest, retention, step=0.01):
    """Brute-force min/max of incoming-positive rate for one group, B=2.

    Valid only when the cross-group tolerance rows are vacuous, so the
    target group's plan may vary freely.
    """
    lo, hi = 2.0, -1.0
    ticks = int(round(retention / step))
    for i in range(ticks + 1):
        for j in range(ticks + 1):
            a = i * step
            c = j * step
            x = [[1.0 - a, a], [c, 1.0 - c]]
            mass = x[0][dest] * n_g[0] + x[1][dest] * n_g[1]
            pos = x[0][dest] * npos_g[0] + x[1][dest] * npos_g[1]
            if mass <= 0:
                continue
            rate = pos / mass
            lo = min(lo, rate)
            hi = max(hi, rate)
    return lo, hi


# ---------------------------------------------------------------------------
# LP / MILP reference solvers (scipy HiGHS). Used only as the oracle side of
# dual-route checks; the package's own simplex is always the implementation
# side.
# ---------------------------------------------------------------------------


def scipy_lp(c, a_rows, senses, rhs, lo, hi):
    """Solve min c.x with rows a.x (</=/>) rhs and box bounds, via HiGHS.

    Returns (status, objective, x) with status in {optimal, infeasible, other}.
    """
    from scipy.optimize import linprog

    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row, sense, b in zip(a_rows, senses, rhs):
        if sense == "<":
            a_ub.append(row)
            b_ub.append(b)
        elif sense == ">":
            a_ub.append([-v for v in row])
            b_ub.append(-b)
        else:
            a_eq.append(row)
            b_eq.append(b)
    res = linprog(
        c,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=list(zip(lo, hi)),
        method="highs",
    )
    if res.status == 0:
        return "optimal", res.fun, res.x
    if res.status == 2:
        return "infeasible", None, None
    return "other", None, None


def scipy_milp(c, a_rows, senses, rhs, lo, hi, binary_ids):
    """Solve min c.x with rows a.x (</=/>) rhs, box bounds and the columns
    `binary_ids` integral, by HiGHS' own branch and bound.

    Returns (status, objective) with status in {optimal, infeasible, other}.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    rhs = np.asarray(rhs, dtype=float)
    row_lo = np.array([-np.inf if s == "<" else b for s, b in zip(senses, rhs)])
    row_hi = np.array([np.inf if s == ">" else b for s, b in zip(senses, rhs)])
    integrality = np.zeros(len(c))
    integrality[list(binary_ids)] = 1
    res = milp(c, constraints=LinearConstraint(np.asarray(a_rows), row_lo, row_hi),
               integrality=integrality, bounds=Bounds(lo, hi))
    if res.status == 0:
        return "optimal", res.fun
    if res.status == 2:
        return "infeasible", None
    return "other", None


def _hard_feasible(a_rows, senses, rhs, lo, hi, x, tol=1e-9):
    """Check x against hard box bounds: clip into [lo, hi], then require the
    rows to still hold. HiGHS treats bounds as soft within its primal
    tolerance, so a pattern can come back "optimal" on a point that leans a
    few 1e-8 outside a box; a simplex with hard bounds rightly rejects it."""
    xc = np.clip(np.asarray(x, dtype=float), lo, hi)
    resid = np.asarray(a_rows, dtype=float) @ xc - np.asarray(rhs, dtype=float)
    for r, sense in zip(resid, senses):
        if sense == "<":
            bad = r > tol
        elif sense == ">":
            bad = r < -tol
        else:
            bad = abs(r) > tol
        if bad:
            return False
    return True


def enumerate_milp(c, a_rows, senses, rhs, lo, hi, binary_ids, hard_boxes=False):
    """Exhaustive MILP oracle: fix every binary pattern, solve the LP, keep
    the best. Returns (best_objective, best_x) or (None, None) if every
    pattern is infeasible. With hard_boxes, a pattern only counts when its
    point survives _hard_feasible."""
    best_obj, best_x = None, None
    lo = list(lo)
    hi = list(hi)
    for pattern in itertools.product((0.0, 1.0), repeat=len(binary_ids)):
        for var, val in zip(binary_ids, pattern):
            lo[var] = val
            hi[var] = val
        status, obj, x = scipy_lp(c, a_rows, senses, rhs, lo, hi)
        if status != "optimal":
            continue
        if hard_boxes and not _hard_feasible(a_rows, senses, rhs, lo, hi, x):
            continue
        if best_obj is None or obj < best_obj - 1e-12:
            best_obj, best_x = obj, x
    return best_obj, best_x


def main():
    rows = tiny_rows()
    edges = [0.0, 0.5, 1.0]
    n, npos = tally(rows, edges)
    print("tallies n:", n)
    print("tallies npos:", npos)

    pooled_pos = [npos[1][b] + npos[2][b] for b in range(2)]
    pooled_neg = [n[1][b] + n[2][b] - pooled_pos[b] for b in range(2)]
    print("pooled pos/neg per bin:", pooled_pos, pooled_neg)
    print("rank AUC:", rank_auc(pooled_pos, pooled_neg))
    print("step PR AUC:", step_pr_auc(pooled_pos, pooled_neg))

    for g in (1, 2):
        for dest in (0, 1):
            b = grid_rate_bounds(n[g], npos[g], dest, retention=0.5)
            print(f"rate bounds g={g} dest={dest}:", b)

    # identity-plan realized violations
    dp = max(abs(n[1][b] / 20 - n[2][b] / 20) for b in range(2))
    tpr = max(abs(npos[1][b] / 10 - npos[2][b] / 10) for b in range(2))
    fpr = max(
        abs((n[1][b] - npos[1][b]) / 10 - (n[2][b] - npos[2][b]) / 10)
        for b in range(2)
    )
    prp = max(abs(npos[1][b] / n[1][b] - npos[2][b] / n[2][b]) for b in range(2))
    print("identity violations:", dp, max(tpr, fpr), prp)

    # CC toy: max x/(x+1) on [0,1]
    xs = np.linspace(0, 1, 101)
    print("toy fractional max:", max(x / (x + 1) for x in xs))

    # small LP vertex fixture
    print(
        "lp fixture:",
        scipy_lp(
            [-2, -3],
            [[1, 1], [1, 2]],
            ["<", "<"],
            [4, 6],
            [0, 0],
            [10, 10],
        ),
    )
    # small MILP fixture
    print(
        "milp fixture:",
        enumerate_milp(
            [-0.6, -0.5, -0.4],
            [[0.5, 0.4, 0.3]],
            ["<"],
            [0.7],
            [0, 0, 0],
            [1, 1, 1],
            [0, 1, 2],
        ),
    )


if __name__ == "__main__":
    main()
