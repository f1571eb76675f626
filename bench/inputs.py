"""Seeded benchmark inputs: scored CSVs and a banded transition plan.

The rows follow the two-group generator the test suite uses for its
solver fixtures (group 1 at 60 % with base rate 0.45, group 2 at 40 % with
base rate 0.40 and slightly worse separation, beta scores), drawn here in
one vectorized pass so that half a million rows take well under a second.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def stream(seed: int, k: int) -> np.random.SeedSequence:
    """The ``k``-th child stream of ``seed``, independent of ``seed`` itself.

    (A list seed is no substitute: ``default_rng([s, 0])`` draws exactly
    what ``default_rng(s)`` draws.)
    """
    return np.random.SeedSequence(seed, spawn_key=(k,))


def synthetic_rows(
    seed: np.random.SeedSequence, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (score, label, group) arrays for ``n`` rows drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    group = np.where(rng.random(n) < 0.6, 1, 2)
    label = (rng.random(n) < np.where(group == 1, 0.45, 0.40)).astype(np.int64)
    # beta(a, b) per (group, label), as in the suite's fixture generator
    a = np.select(
        [(group == 1) & (label == 1), group == 1, label == 1], [5.0, 2.0, 4.4], 2.12
    )
    b = np.select(
        [(group == 1) & (label == 1), group == 1, label == 1], [2.0, 5.0, 2.25], 4.45
    )
    score = rng.beta(a, b)
    return score, label, group


def csv_text(score: np.ndarray, label: np.ndarray, group: np.ndarray) -> str:
    """The CSV the program reads: shortest round-trip floats, one row a line."""
    lines = ["score,label,group"]
    lines += [f"{s!r},{y},{g}" for s, y, g in zip(score.tolist(), label.tolist(), group.tolist())]
    return "\n".join(lines) + "\n"


def write_csv(path: Path, seed: np.random.SeedSequence, n: int) -> int:
    """Write ``n`` seeded rows to ``path`` and return the file's size in bytes."""
    text = csv_text(*synthetic_rows(seed, n))
    path.write_text(text)
    return len(text)


def quantile_edges(score: np.ndarray, nbins: int) -> np.ndarray:
    """Edges at the empirical k/nbins quantiles, framed by 0 and 1."""
    interior = np.quantile(score, np.arange(1, nbins) / nbins)
    edges = np.unique(np.concatenate(([0.0], interior, [1.0])))
    if len(edges) != nbins + 1:
        raise ValueError(f"quantile ties left {len(edges) - 1} of {nbins} bins")
    return edges


def banded_plan(
    seed: np.random.SeedSequence, edges: np.ndarray, ngroups: int, band: int
) -> np.ndarray:
    """A (G, B, B) row-stochastic plan that keeps at least half of each bin
    and moves the rest to bins fewer than ``band`` places away."""
    rng = np.random.default_rng(seed)
    nbins = len(edges) - 1
    src, dst = np.meshgrid(np.arange(nbins), np.arange(nbins), indexing="ij")
    inside = np.abs(src - dst) < band
    off = rng.random((ngroups, nbins, nbins)) * (inside & (src != dst))
    off *= 0.5 / off.sum(axis=2, keepdims=True)
    keep = 1.0 - off.sum(axis=2)
    return off + keep[:, :, None] * np.eye(nbins)[None]


def plan_json(edges: np.ndarray, plan: np.ndarray) -> str:
    """Serialize in the program's plan format (edges plus per-group rows)."""
    doc = {
        "edges": [float(e) for e in edges],
        "groups": [{"group": g + 1, "rows": plan[g].tolist()} for g in range(len(plan))],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
