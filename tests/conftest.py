"""Shared fixtures: the canonical 40-row dataset and its bin statistics."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import fairbins
from fairbins.data import BinSpec, Dataset, compute_bin_stats, load_dataset

FIXTURES = Path(__file__).parent / "fixtures"


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter, with this package on its path, on `args`."""
    src = str(Path(fairbins.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def tiny_stats():
    obs = load_dataset(FIXTURES / "tiny.csv")
    return compute_bin_stats(obs, BinSpec(edges=(0.0, 0.5, 1.0)))


def biased_synthetic(seed: int = 20240822, n: int = 5000) -> Dataset:
    """Two-group beta scores with a deliberate gap in base rate and separation.

    Calibrated so the identity plan breaks all three fairness tolerances at
    0.05 while the optimal correction stays cheap: group 2 is rarer, has a
    lower base rate, and its scores separate slightly worse.
    """
    rng = np.random.default_rng(seed)
    score, label, group = [], [], []
    for _ in range(n):
        g = 1 if rng.random() < 0.6 else 2
        if g == 1:
            y = int(rng.random() < 0.45)
            s = rng.beta(5.0, 2.0) if y else rng.beta(2.0, 5.0)
        else:
            y = int(rng.random() < 0.40)
            s = rng.beta(4.4, 2.25) if y else rng.beta(2.12, 4.45)
        score.append(float(s))
        label.append(y)
        group.append(g)
    return Dataset(score, label, group)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and "::" in nodeid:
                rows.append((nodeid.split("::")[-1], outcome))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, outcome in sorted(set(rows)):
            mark = "PASS" if outcome == "passed" else "FAIL"
            terminalreporter.write_line(f"{mark}  {name}")
