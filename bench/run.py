"""Benchmark for the fairbins CLI: one workload, one seed, one run.

    python3 bench/run.py --workload bnb_frontier --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``. The
workloads run as a closed loop with one client: each CLI command is a
fresh ``python -m fairbins.cli`` process, one at a time, with numpy's
default BLAS threading.

``--trace 0`` measures the end-to-end metrics. Set-up runs ``bin-stats``
at least three times and for at least two seconds (``setup_s`` is the
median); then the workload's commands run in a loop until ``--seconds``
have passed, at least once (``wall_s`` is the median over loop iterations
of the summed command wall time). ``peak_rss_mb`` is the largest
``ru_maxrss`` of any process the run started.

``--trace 1`` gives the per-layer metrics instead: the set-up command and
the workload's commands run in this process, once untraced and once with
spans around the wrapped functions (see ``spans.py`` and ``layers.py``).

Every command's output is checked. Outputs that must be deterministic are
also compared with the same output of every earlier run of the same seed
against the same program source, through digests kept under
``.bench_work/digests``. The last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from layers import PER_LAYER, PROBES, per_layer
from spans import Tracer
from workloads import WORKLOADS, Command, Workload

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_RUNS, SETUP_SECONDS, SETUP_MAX_RUNS = 3, 2.0, 15
RUN_LIMIT_S = 170.0  # a command still running this long after the run began is killed

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


@dataclass
class Proc:
    seconds: float
    rss_mb: float
    code: int


class Runner:
    """Starts CLI processes one at a time and checks what they write."""

    def __init__(self, deadline: float, digests: Path):
        self.deadline = deadline
        self.digests = digests
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.procs: list[Proc] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._known = json.loads(digests.read_text()) if digests.is_file() else {}

    def spawn(self, argv: list[str], log: Path) -> Proc:
        t0 = time.perf_counter()
        with open(log, "wb") as out:
            p = subprocess.Popen([sys.executable, "-m", "fairbins.cli", *argv],
                                 cwd=ROOT, env=self.env, stdout=out, stderr=subprocess.STDOUT)
            killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), p.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(p.pid, 0)
            finally:
                killer.cancel()
        seconds = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        proc = Proc(seconds, usage.ru_maxrss / 1024.0, p.returncode)
        self.procs.append(proc)
        return proc

    def verify(self, cmd: Command, code: int, log: str) -> bool:
        """Count one attempted command; record why it failed, if it did."""
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}: {log.strip()[-500:]}"]
        else:
            problems = cmd.check()
            if cmd.stable is not None:
                digest = hashlib.sha256(cmd.stable.read_bytes()).hexdigest()
                if self._known.setdefault(cmd.stable.name, digest) != digest:
                    problems.append(f"{cmd.stable.name} differs from an earlier write "
                                    "for this seed")
        self.failed += bool(problems)
        self.problems += [f"{cmd.argv[0]}: {p}" for p in problems]
        return not problems

    def save_digests(self) -> None:
        self.digests.parent.mkdir(parents=True, exist_ok=True)
        self.digests.write_text(json.dumps(self._known, indent=1, sort_keys=True))

    def run(self, cmd: Command, work: Path) -> Proc:
        log = work / "command.log"
        proc = self.spawn(cmd.argv, log)
        self.verify(cmd, proc.code, log.read_text(errors="replace"))
        return proc


def measure(workload: Workload, runner: Runner, seconds: float) -> dict[str, float]:
    setup: list[float] = []
    while len(setup) < SETUP_RUNS or (sum(setup) < SETUP_SECONDS and len(setup) < SETUP_MAX_RUNS):
        setup.append(runner.run(workload.setup(), workload.work).seconds)
    commands = workload.commands()
    walls = []
    start = time.monotonic()
    while not walls or (time.monotonic() - start < seconds and time.monotonic() < runner.deadline):
        walls.append(sum(runner.run(cmd, workload.work).seconds for cmd in commands))
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(p.rss_mb for p in runner.procs),
    }


def _in_process(argv: list[str]) -> tuple[int, str]:
    """Run one CLI call in this process; returns (exit code, captured output)."""
    import fairbins.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = fairbins.cli.main(argv)
        except Exception:  # a crash in the program is a failed command, not a harness error
            traceback.print_exc()
            code = 1
    return code, out.getvalue()


def _pass(runner: Runner, cmds: list[Command]) -> float:
    wall = 0.0
    for cmd in cmds:
        t0 = time.perf_counter()
        code, log = _in_process(cmd.argv)
        wall += time.perf_counter() - t0
        runner.verify(cmd, code, log)
    return wall


def _import_seconds(runner: Runner) -> float:
    code = ("import time; t = time.perf_counter(); import fairbins.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=runner.env,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def traced(workload: Workload, runner: Runner) -> dict[str, float]:
    sys.path.insert(0, str(SRC))
    import fairbins.bnb
    import fairbins.bounds
    import fairbins.cli
    import fairbins.frontier
    import fairbins.nmdt

    cmds = [workload.setup(), *workload.commands()]
    cpu0 = time.process_time()
    untraced_wall = _pass(runner, cmds)
    cpu_s = time.process_time() - cpu0
    with Tracer(PROBES) as tracer:
        for module in (fairbins.cli, fairbins.frontier, fairbins.bounds):
            tracer.wrap_functions(module, "fairbins")
        for module in (fairbins.nmdt, fairbins.bnb):
            tracer.wrap(module, "solve_lp")
        traced_wall = _pass(runner, cmds)
    return per_layer(tracer.spans, untraced_wall=untraced_wall, traced_wall=traced_wall,
                     cpu_s=cpu_s, import_s=_import_seconds(runner),
                     prp_excess=workload.prp_excess())


def _source_digest() -> str:
    """Names the program version: a hash of every file under ``src/``."""
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fairbins" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'fairbins'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        workload.prepare()
        runner = Runner(deadline, WORK / "digests" / _source_digest()
                        / f"{args.workload}-{args.seed}.json")
        if args.trace:
            values = traced(workload, runner)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            values = measure(workload, runner, args.seconds)
            units = dict(END_TO_END)
        runner.save_digests()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in runner.problems:
        print(f"FAILED {problem}")
    print(f"inputs: {json.dumps(workload.input_bytes, sort_keys=True)} (bytes)")
    print(f"fail_ratio: {runner.failed / runner.attempted!r} "
          f"({runner.failed} of {runner.attempted} commands)")
    for name, unit in units.items():
        print(f"{name}: {values[name]!r} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
