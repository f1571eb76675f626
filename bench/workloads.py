"""The workloads: their inputs, the commands they run, and the checks
on what those commands write.

Every workload first runs ``bin-stats`` on its input at its bin count (the
set-up step), then its main commands. Each command is a ``fairbins`` CLI
argument list; the runner decides whether it runs as a fresh process or
in-process under the tracer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import inputs


@dataclass
class Command:
    """One CLI call. ``check`` validates what it wrote; ``stable`` names the
    output that must come out byte-identical whenever the same program
    runs the command on the same seed."""

    argv: list[str]
    check: Callable[[], list[str]]
    stable: Path | None = None


@dataclass
class Workload:
    """Inputs come from child streams of the run's seed, never from the seed
    itself, which ``apply --mode stochastic`` gets as its own seed: rows
    drawn from that stream would correlate with its draws."""

    work: Path
    seed: int
    input_bytes: dict[str, int] = field(default_factory=dict)

    def prepare(self) -> None:
        """Write the seeded inputs into ``work``."""
        raise NotImplementedError

    def setup(self) -> Command:
        raise NotImplementedError

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def prp_excess(self) -> float:
        """Largest realized PRP of the written plans minus the configured
        tolerance; 0 for a workload that solves nothing."""
        return 0.0

    def _bin_stats(self, source: Path, rows: int, nbins: int) -> Command:
        out = self.work / "stats.json"
        return Command(
            ["bin-stats", str(source), "--bins", str(nbins), "--output", str(out)],
            lambda: checks.check_bin_stats(out.read_text(), rows, nbins),
        )


class BnbFrontier(Workload):
    """``frontier`` sweeps over twelve independent small inputs.

    One input's branch-and-bound tree varies a lot from seed to seed (at
    precision 0.125, 91 node LPs on one seed and 310 on another), so a run
    sums twelve inputs drawn from child streams of its seed to keep the
    wall time steady across seeds.
    """

    name = "bnb_frontier"
    why = ("branch-and-bound heavy: node LPs are nearly all of the time; "
           "the only workload that runs the frontier sweep and its tightening cache")
    rows, files, bins = 5000, 12, 4
    grid = [(0.06, 0.06, 0.06), (0.06, 0.06, 0.08)]
    flags = ["--bins", "4", "--window", "3", "--precision", "0.25",
             "--grid-dp", "0.06", "--grid-eodds", "0.06", "--grid-prp", "0.06,0.08",
             "--budget-per-solve", "300"]

    def _input(self, k: int) -> Path:
        return self.work / f"scores_{k}.csv"

    def _output(self, k: int) -> Path:
        return self.work / f"frontier_{k}.csv"

    def prepare(self) -> None:
        for k in range(self.files):
            self.input_bytes[self._input(k).name] = inputs.write_csv(
                self._input(k), inputs.stream(self.seed, k), self.rows)

    def setup(self) -> Command:
        return self._bin_stats(self._input(0), self.rows, self.bins)

    def commands(self) -> list[Command]:
        def frontier(k: int) -> Command:
            out = self._output(k)
            return Command(
                ["frontier", str(self._input(k)), *self.flags, "--output", str(out)],
                lambda: checks.check_frontier(out.read_text(), self.grid),
                stable=out,
            )
        return [frontier(k) for k in range(self.files)]

    def prp_excess(self) -> float:
        outputs = [self._output(k) for k in range(self.files) if self._output(k).is_file()]
        return max((x for out in outputs for x in checks.frontier_prp_excess(out.read_text())),
                   default=0.0)


class DataApply(Workload):
    """``apply`` (expected, then stochastic) with a stored plan, then
    ``audit`` of the expected output: no LP, only load, apply and CSV I/O."""

    name = "data_apply"
    why = ("no LP at all: loading, applying a plan and rewriting a CSV the size "
           "of the input are the whole run")
    rows, bins, eval_bins, band = 500_000, 50, 100, 4

    def prepare(self) -> None:
        self.score, self.label, self.group = inputs.synthetic_rows(
            inputs.stream(self.seed, 0), self.rows)
        source = self.work / "scores.csv"
        text = inputs.csv_text(self.score, self.label, self.group)
        source.write_text(text)
        self.input_bytes[source.name] = len(text)
        self.edges = inputs.quantile_edges(self.score, self.bins)
        self.plan = inputs.banded_plan(
            inputs.stream(self.seed, 1), self.edges, 2, self.band)
        plan_text = inputs.plan_json(self.edges, self.plan)
        (self.work / "plan.json").write_text(plan_text)
        self.input_bytes["plan.json"] = len(plan_text)

    def setup(self) -> Command:
        return self._bin_stats(self.work / "scores.csv", self.rows, self.bins)

    def commands(self) -> list[Command]:
        source, plan = str(self.work / "scores.csv"), str(self.work / "plan.json")
        expected = self.work / "expected.csv"
        stochastic = self.work / "stochastic.csv"
        audit = self.work / "audit.json"
        rows = (self.score, self.label, self.group, self.edges, self.plan)
        return [
            Command(["apply", source, "--plan", plan, "--mode", "expected",
                     "--output", str(expected)],
                    lambda: checks.check_expected(expected.read_text(), *rows, seed=0),
                    stable=expected),
            Command(["apply", source, "--plan", plan, "--mode", "stochastic",
                     "--seed", str(self.seed), "--output", str(stochastic)],
                    lambda: checks.check_stochastic(stochastic.read_text(), *rows,
                                                    seed=self.seed),
                    stable=stochastic),
            Command(["audit", str(expected), "--score-column", "new_score",
                     "--eval-bins", str(self.eval_bins), "--output", str(audit)],
                    lambda: checks.check_audit(audit.read_text(), expected.read_text(),
                                               self.eval_bins)),
        ]


WORKLOADS = {w.name: w for w in (BnbFrontier, DataApply)}
