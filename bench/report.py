"""Run every workload over several seeds and summarize the end-to-end metrics.

    python3 bench/report.py                      # seeds 1..10, all workloads
    python3 bench/report.py --seeds 1,2,3 --workloads data_apply --trace
    python3 bench/report.py --out bench/baseline.json

For each workload and metric it prints the median, the quartiles, the
spread (interquartile range over the median, which ``BENCHMARK.json``
bounds) and the sample count, plus ``fail_ratio``: failed commands over
attempted ones. ``--trace`` adds one traced run per workload on the first
seed and prints its per-layer metrics. ``--out`` writes the summary, the
raw values and the machine's provenance as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One ``run.py`` call; returns (its result line, its input sizes)."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    sizes = next(json.loads(line.split(" ", 1)[1].rsplit(" ", 1)[0])
                 for line in lines if line.startswith("inputs: "))
    for line in lines:
        if line.startswith("FAILED "):
            print(f"  {workload} seed {seed}: {line}")
    return json.loads(lines[-1]), sizes


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def provenance(seeds: list[int]) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    cpu = "unknown"
    try:
        cpu = next(line.split(":", 1)[1].strip() for line in
                   Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default (one per core)"),
        "git_rev": rev,
        "seeds": seeds,
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    seconds = bench["run_seconds"]
    doc = {"provenance": provenance(seeds), "run_seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        raw: dict[str, list[float]] = {name: [] for name in bounds}
        attempted = failed = 0
        for seed in seeds:
            result, sizes = run_once(workload, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name in bounds:
                raw[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {raw[name][-1]:.4g}" for name in bounds), flush=True)
        entry = {"input_bytes": sizes, "attempted": attempted, "failed": failed,
                 "fail_ratio": failed / attempted,
                 "metrics": {name: summarize(v) for name, v in raw.items()}, "raw": raw}
        print(f"== {workload}: fail_ratio {entry['fail_ratio']} ({failed} of {attempted})")
        for name, s in entry["metrics"].items():
            print(f"   {name} [{units[name]}] median {s['median']:.4g} "
                  f"q1 {s['q1']:.4g} q3 {s['q3']:.4g} n {s['n']} "
                  f"spread {s['spread']:.3f} (bound {bounds[name]})")
        if args.trace:
            result, _ = run_once(workload, seeds[0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"   traced run on seed {seeds[0]}:")
            for name, value in entry["per_layer"].items():
                print(f"     {name} {value:.6g} {units[name]}")
        doc["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
