"""Command-line interface tying the pipeline together.

Exit codes, kept distinct so scripts can branch on failure class:
  0  solved (optimal, gap-limit, or time-limit with an incumbent) / success
  2  bad input data, bad flags, or a broken config file
  3  a bin is missing members of some group (overlap failure)
  4  bound tightening failed: a bound LP ended Infeasible, IterationLimit or
     Numerical, or the bounds found leave no usable box
  5  the solver proved infeasibility or ran out of time with no plan
  6  plan and dataset disagree (edges, groups, or malformed plan)

The solver layers are imported inside the commands that run them, so
`bin-stats`, `apply` and `audit` load only the data and post-processing
layers.

Run as the program (`main()` with no argv), `main` freezes the garbage
collector once the command is done, on every way out: the interpreter
then skips its final collection over the objects numpy and the command
made, most of a process's exit time. Freezing skips no atexit handler,
stream flush or file close.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import sys
from itertools import islice
from pathlib import Path

import numpy as np

from .data import (
    _BLOCK_LINES,
    BinSpec,
    ColumnSchema,
    compute_bin_stats,
    csv_line,
    load_dataset,
    quantile_bin,
    validate_overlap,
)
from .postprocess import (
    PlanError,
    TransitionPlan,
    apply_expected_score,
    apply_interpolated,
    apply_stochastic,
    audit_stats,
)

DEFAULTS = {
    "bins": 50,
    "eps_dp": 0.03,
    "eps_eodds": 0.03,
    "eps_prp": 0.03,
    "retention": 0.5,
    "window": 13,
    "precision": 1e-5,
    "time_limit": 600.0,
    "gap": 0.0,
    "seed": 0,
    "eval_bins": 100,
}
# settings that count something: a config value for one must be a whole number
_WHOLE = ("bins", "window", "seed", "eval_bins")


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _resolve(args: argparse.Namespace) -> dict:
    """Settings precedence: flags beat the config file, which beats defaults."""
    merged = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise CliError(2, f"cannot read config {config_path}: {e}")
        if not isinstance(loaded, dict):
            raise CliError(2, f"config {config_path} must hold a JSON object")
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise CliError(2, f"config {config_path} has unknown keys {sorted(unknown)}")
        for key, value in loaded.items():
            # bool is an int subclass, but `true` is no number of bins
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise CliError(2, f"config {config_path}: {key} must be a number, "
                                  f"got {json.dumps(value)}")
            if key in _WHOLE and not (isinstance(value, int) or value.is_integer()):
                raise CliError(2, f"config {config_path}: {key} must be a whole number, "
                                  f"got {json.dumps(value)}")
        merged.update(loaded)
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).write_text(text)


def _schema(args: argparse.Namespace) -> ColumnSchema:
    return ColumnSchema(
        score=getattr(args, "score_column", None) or "score",
        label=getattr(args, "label_column", None) or "label",
        group=getattr(args, "group_column", None) or "group",
    )


def _binned_stats(path: str, nbins: int, schema: ColumnSchema):
    data = load_dataset(path, schema)
    spec = quantile_bin(data, nbins)
    return data, spec, compute_bin_stats(data, spec)


def _require_overlap(stats) -> None:
    report = validate_overlap(stats)
    if not report.passed:
        raise CliError(3, f"overlap check failed: {report.describe()}")


def _model_config(settings: dict):
    from .model import ModelConfig

    return ModelConfig(
        eps_dp=settings["eps_dp"],
        eps_eodds=settings["eps_eodds"],
        eps_prp=settings["eps_prp"],
        retention=settings["retention"],
        window=int(settings["window"]),
    )


def _seconds(value, name: str) -> float:
    """A time budget: positive seconds, or inf for none. NaN is refused, as
    every deadline comparison with it is False and the limit would vanish."""
    seconds = float(value)
    if not seconds > 0.0:
        raise CliError(2, f"{name} must be a positive number of seconds, got {value}")
    return seconds


def _gap(value) -> float:
    """A relative gap target: nonnegative, or inf. NaN is refused, as every
    comparison with it is False and the target would never be met."""
    gap = float(value)
    if not gap >= 0.0:
        raise CliError(2, f"gap must be a nonnegative number, got {value}")
    return gap


def cmd_bin_stats(args: argparse.Namespace) -> int:
    settings = _resolve(args)
    _, _, stats = _binned_stats(args.input, int(settings["bins"]), _schema(args))
    report = validate_overlap(stats)
    if not report.passed:
        print(f"warning: {report.describe()}", file=sys.stderr)
    _write(args.output, stats.to_json())
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    from .frontier import solve_once
    from .nmdt import power_for_precision

    settings = _resolve(args)
    power = power_for_precision(float(settings["precision"]))
    gap_target = _gap(settings["gap"])
    _, _, stats = _binned_stats(args.input, int(settings["bins"]), _schema(args))
    _require_overlap(stats)
    config = _model_config(settings)
    out = solve_once(
        stats,
        config,
        power=power,
        time_limit=_seconds(settings["time_limit"], "time_limit"),
        gap_target=gap_target,
    )
    report = out.report
    finite = lambda x: None if not np.isfinite(x) else float(x)
    doc = {
        "status": report.status.value,
        "incumbentObjective": None if report.incumbent is None
        else report.incumbent_objective,
        "bestLowerBound": finite(report.best_lower_bound),
        "gap": finite(report.gap),
        "nodesExplored": report.nodes_explored,
        "wallSeconds": report.wall_seconds,
        "certifiedRateSlack": out.rate_slack,
        # an infinite time limit or gap would be a token no JSON parser reads
        "settings": {k: None if settings[k] == math.inf else settings[k] for k in
                     ("bins", "eps_dp", "eps_eodds", "eps_prp", "retention",
                      "window", "precision", "time_limit", "gap")},
    }
    _write(args.report_out, json.dumps(doc, indent=2, sort_keys=True))
    if out.plan is None:
        print(f"{report.status.value}: no plan "
              f"(lower bound {report.best_lower_bound:.9g})", file=sys.stderr)
        return 5
    _write(args.plan_out, out.plan.to_json())
    print(f"{report.status.value}: objective {report.incumbent_objective:.9g}, "
          f"lower bound {report.best_lower_bound:.9g}, gap {report.gap:.3g}, "
          f"{report.nodes_explored} nodes")
    return 0


def _read_plan(path: str) -> TransitionPlan:
    try:
        plan = TransitionPlan.from_json(Path(path).read_text())
    except OSError as e:
        raise CliError(6, f"cannot read plan {path}: {e}")
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, PlanError):
            raise
        raise CliError(6, f"plan {path} is malformed: {e}")
    # a negative entry or a row off unit mass would be applied silently:
    # scores leave [0, 1] and the cumulative rows the draws search go unsorted
    plan.validate()
    return plan


def cmd_apply(args: argparse.Namespace) -> int:
    settings = _resolve(args)
    seed = int(settings["seed"])
    plan = _read_plan(args.plan)
    data = load_dataset(args.input, _schema(args))
    mode = args.mode or "expected"
    # a line is its record, then "," and the repr of its new score, then a
    # line end looked up by its new bin: ",{bin}\n", or in stochastic mode,
    # where the new score is the bin's midpoint, ",{midpoint!r},{bin}\n"
    if mode == "stochastic":
        bins = apply_stochastic(plan, data, seed)
        scores = None
        ends = [f",{m!r},{b}\n" for b, m in enumerate(plan.spec.midpoints.tolist())]
    elif mode in ("interpolated", "expected"):
        scores = (apply_interpolated(plan, data, seed) if mode == "interpolated"
                  else apply_expected_score(plan, data))
        bins = plan.spec.assign(scores)
        ends = [f",{b}\n" for b in range(plan.nbins)]
    else:
        raise CliError(2, f"unknown apply mode {mode!r}")

    width = 2 if scores is None else 4  # record, [",", score,] line end
    records = iter(data.records)
    with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(f"# seed={seed}\n{csv_line(data.header + ['new_score', 'new_bin'])}\n")
        # one join per block of lines, so only one block's strings are alive
        for start in range(0, len(bins), _BLOCK_LINES):
            block = slice(start, start + _BLOCK_LINES)
            new_bins = bins[block].tolist()
            parts = [","] * (width * len(new_bins))
            parts[0::width] = islice(records, len(new_bins))
            if scores is not None:
                parts[2::width] = map(repr, scores[block].tolist())
            parts[width - 1::width] = map(ends.__getitem__, new_bins)
            fh.write("".join(parts))
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    settings = _resolve(args)
    k = int(settings["eval_bins"])
    if k < 2:
        raise CliError(2, f"eval_bins must be at least 2, got {k}")
    data = load_dataset(args.input, _schema(args))
    spec = BinSpec(edges=tuple(np.linspace(0.0, 1.0, k + 1)))
    stats = compute_bin_stats(data, spec)
    _write(args.output, audit_stats(stats).to_json())
    return 0


def _grid(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise CliError(2, f"{flag} expects comma-separated numbers, got {text!r}")
    if not values:
        raise CliError(2, f"{flag} needs at least one value")
    return values


def cmd_frontier(args: argparse.Namespace) -> int:
    from .frontier import frontier_csv, sweep
    from .nmdt import power_for_precision

    settings = _resolve(args)
    grids = (_grid(args.grid_dp, "--grid-dp"), _grid(args.grid_eodds, "--grid-eodds"),
             _grid(args.grid_prp, "--grid-prp"))
    if args.budget_per_solve is not None:
        budget = _seconds(args.budget_per_solve, "--budget-per-solve")
    else:
        # each cell's solve gets an even share of the time limit
        budget = _seconds(settings["time_limit"], "time_limit") / math.prod(map(len, grids))
    power = power_for_precision(float(settings["precision"]))
    gap_target = _gap(settings["gap"])
    _, _, stats = _binned_stats(args.input, int(settings["bins"]), _schema(args))
    _require_overlap(stats)
    points = sweep(
        stats,
        *grids,
        retention=float(settings["retention"]),
        window=int(settings["window"]),
        power=power,
        budget_per_solve=budget,
        gap_target=gap_target,
    )
    _write(args.output, frontier_csv(points))
    return 0


def _operating_point(text: str):
    from .frontier import FrontierPoint

    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        values = []
    # every comparison with NaN is False, so the query would find nothing
    if len(values) != 4 or not all(map(math.isfinite, values)):
        raise CliError(2, f"--operating expects four finite numbers auc,dp,eodds,prp, "
                          f"got {text!r}")
    auc, dp, eodds, prp = values
    return FrontierPoint(
        configured=(dp, eodds, prp), status="Operating", gap=0.0,
        solve_seconds=0.0, auc=auc, eps_dp=dp, eps_eodds=eodds, eps_prp=prp,
    )


def _read_frontier(path: str):
    from .frontier import parse_frontier_csv

    try:
        return parse_frontier_csv(Path(path).read_text())
    except OSError as e:
        raise CliError(2, f"cannot read frontier {path}: {e}")
    except ValueError as e:
        raise CliError(2, f"frontier {path}: {e}")


def cmd_tradeoff(args: argparse.Namespace) -> int:
    from .frontier import tradeoff_query

    frontier = _read_frontier(args.frontier)
    try:
        found = tradeoff_query(frontier, _operating_point(args.operating),
                               args.cost, args.benefit)
    except ValueError as e:
        raise CliError(2, str(e))
    doc = {"found": found is not None,
           "point": None if found is None else found.to_dict()}
    _write(args.output, json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .frontier import compare_models

    # a NaN or infinite floor would be written as a JSON token no parser reads
    if not math.isfinite(args.auc_min):
        raise CliError(2, f"--auc-min must be finite, got {args.auc_min}")
    record = compare_models(
        _read_frontier(args.frontier_a),
        _read_frontier(args.frontier_b),
        args.auc_min,
    )
    _write(args.output, record.to_json())
    return 0


def _add_schema_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--score-column", dest="score_column")
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--group-column", dest="group_column")


def _add_settings_flags(p: argparse.ArgumentParser, *, solver: bool) -> None:
    p.add_argument("--config", help="JSON file of default overrides")
    p.add_argument("--bins", type=int, help="quantile bins for modelling")
    if solver:
        p.add_argument("--eps-dp", dest="eps_dp", type=float)
        p.add_argument("--eps-eodds", dest="eps_eodds", type=float)
        p.add_argument("--eps-prp", dest="eps_prp", type=float)
        p.add_argument("--retention", type=float,
                       help="maximum probability mass a bin may give away")
        p.add_argument("--window", type=int,
                       help="bins move strictly less than this many places")
        p.add_argument("--precision", type=float,
                       help="rate discretization step, e.g. 1e-5")
        p.add_argument("--time-limit", dest="time_limit", type=float)
        p.add_argument("--gap", type=float, help="stop at this relative gap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairbins",
        description="Rewrite binned classifier scores to meet group-fairness "
                    "tolerances at the smallest expected score movement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bin-stats", help="bin a dataset and print the tallies")
    p.add_argument("input")
    p.add_argument("--output")
    _add_settings_flags(p, solver=False)
    _add_schema_flags(p)
    p.set_defaults(func=cmd_bin_stats)

    p = sub.add_parser("solve", help="solve for a transition plan")
    p.add_argument("input")
    p.add_argument("--plan-out", dest="plan_out", required=True)
    p.add_argument("--report-out", dest="report_out", required=True)
    _add_settings_flags(p, solver=True)
    _add_schema_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("apply", help="transform scores with a stored plan")
    p.add_argument("input")
    p.add_argument("--plan", required=True)
    p.add_argument("--mode", choices=("stochastic", "interpolated", "expected"))
    p.add_argument("--seed", type=int)
    p.add_argument("--output")
    p.add_argument("--config")
    _add_schema_flags(p)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("audit", help="re-bin a dataset and report metrics")
    p.add_argument("input")
    p.add_argument("--eval-bins", dest="eval_bins", type=int)
    p.add_argument("--output")
    p.add_argument("--config")
    _add_schema_flags(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("frontier", help="sweep tolerance grids into a CSV")
    p.add_argument("input")
    p.add_argument("--grid-dp", dest="grid_dp", required=True)
    p.add_argument("--grid-eodds", dest="grid_eodds", required=True)
    p.add_argument("--grid-prp", dest="grid_prp", required=True)
    p.add_argument("--budget-per-solve", dest="budget_per_solve", type=float)
    p.add_argument("--output")
    _add_settings_flags(p, solver=True)
    _add_schema_flags(p)
    p.set_defaults(func=cmd_frontier)

    p = sub.add_parser("tradeoff", help="query a stored frontier for a trade")
    p.add_argument("--frontier", required=True)
    p.add_argument("--operating", required=True,
                   help="comma-separated auc,dp,eodds,prp")
    p.add_argument("--cost", required=True, choices=("auc", "dp", "eodds", "prp"))
    p.add_argument("--benefit", required=True,
                   choices=("auc", "dp", "eodds", "prp"))
    p.add_argument("--output")
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("compare", help="compare two stored frontiers")
    p.add_argument("--frontier-a", dest="frontier_a", required=True)
    p.add_argument("--frontier-b", dest="frontier_b", required=True)
    p.add_argument("--auc-min", dest="auc_min", type=float, required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; `argv` defaults to the process's own command line.
    Only then, as the program, does it freeze the collector on its way out."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except ValueError as e:  # every data, model and plan error is one
        print(f"error: {e}", file=sys.stderr)
        return 6 if isinstance(e, PlanError) else 2
    except RuntimeError as e:
        from .bounds import BoundsError

        if not isinstance(e, BoundsError):
            raise
        print(f"error: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
