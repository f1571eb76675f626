"""Per-layer metrics from the spans of one traced pass.

Spans are named ``<module>.<function>`` after the module that defines the
function. LP spans are split by calling module through ``Span.site``:
``bounds`` (tightening), ``nmdt`` (completion start) and ``bnb`` (root,
rounding and node LPs).
"""

from __future__ import annotations

import statistics

from spans import Span, self_times

# (name, unit, better) for every per-layer metric, in report order
PER_LAYER = [
    ("data.load_s", "s", "lower"),
    ("data.bin_s", "s", "lower"),
    ("data.stats_s", "s", "lower"),
    ("data.load_us_per_row", "us", "lower"),
    ("model.build_s", "s", "lower"),
    ("model.rows", "count", "lower"),
    ("model.cols", "count", "lower"),
    ("model.nnz", "count", "lower"),
    ("model.dense_mb", "MB", "lower"),
    ("bounds.tighten_s", "s", "lower"),
    ("bounds.mass_s", "s", "lower"),
    ("bounds.rate_s", "s", "lower"),
    ("bounds.lp_calls", "count", "lower"),
    ("bounds.pivots", "count", "lower"),
    ("bounds.ms_per_pivot", "ms", "lower"),
    ("lp.calls", "count", "lower"),
    ("lp.pivots", "count", "lower"),
    ("lp.s", "s", "lower"),
    ("lp.ms_per_pivot", "ms", "lower"),
    ("lp.max_rows", "count", "lower"),
    ("lp.max_cols", "count", "lower"),
    ("lp.iteration_limit_calls", "count", "lower"),
    ("lp.infeasible_calls", "count", "lower"),
    ("nmdt.build_s", "s", "lower"),
    ("nmdt.rows", "count", "lower"),
    ("nmdt.cols", "count", "lower"),
    ("nmdt.binaries", "count", "lower"),
    ("nmdt.completion_s", "s", "lower"),
    ("nmdt.completion_lp_calls", "count", "lower"),
    ("nmdt.completion_found", "count", "higher"),
    ("bnb.solve_s", "s", "lower"),
    ("bnb.self_s", "s", "lower"),
    ("bnb.nodes", "count", "lower"),
    ("bnb.nodes_per_s", "1/s", "higher"),
    ("bnb.lp_calls", "count", "lower"),
    ("bnb.pivots_per_lp", "count", "lower"),
    ("bnb.ms_per_pivot", "ms", "lower"),
    ("bnb.root_s", "s", "lower"),
    ("bnb.root_pivots", "count", "lower"),
    ("bnb.root_bound", "score", "higher"),
    ("bnb.gap", "ratio", "lower"),
    ("postprocess.extract_s", "s", "lower"),
    ("postprocess.apply_expected_s", "s", "lower"),
    ("postprocess.apply_stochastic_s", "s", "lower"),
    ("postprocess.audit_s", "s", "lower"),
    ("postprocess.evaluate_s", "s", "lower"),
    ("postprocess.prp_excess", "ratio", "lower"),
    ("frontier.sweep_s", "s", "lower"),
    ("frontier.self_s", "s", "lower"),
    ("frontier.points", "count", "higher"),
    ("frontier.tighten_calls", "count", "lower"),
    ("frontier.solve_calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("proc.import_s", "s", "lower"),
    ("proc.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
]


def _problem(args, kwargs):
    return args[0] if args else kwargs["problem"]


def _lp_info(args, kwargs, result) -> dict:
    problem = _problem(args, kwargs)
    return {"pivots": result.iterations, "status": result.status.value,
            "rows": problem.nrows, "cols": problem.ncols, "objective": result.objective}


def _model_info(args, kwargs, model) -> dict:
    parts = [model.rows_transport, model.rows_parity, model.rows_odds,
             model.rows_rank, model.rows_rate_gap]
    rows = sum(p.nrows for p in parts)
    return {"rows": rows, "cols": model.ncols,
            "nnz": sum(int((p.a != 0).sum()) for p in parts),
            "dense_mb": rows * model.ncols * 8 / 1e6}


def _milp_info(args, kwargs, nm) -> dict:
    lp = nm.problem.lp
    return {"rows": lp.nrows, "cols": lp.ncols, "binaries": len(nm.problem.binary_cols)}


PROBES = {
    "data.load_dataset": lambda a, k, r: {"rows": len(r)},
    "model.build_model": _model_info,
    "nmdt.build_milp": _milp_info,
    "nmdt.completion_start": lambda a, k, r: {"found": r is not None},
    "lp.solve_lp": _lp_info,
    "bnb.solve_milp": lambda a, k, r: {"nodes": r.nodes_explored, "gap": float(r.gap)},
    "frontier.sweep": lambda a, k, r: {"points": len(r)},
}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def per_layer(spans: list[Span], *, untraced_wall: float, traced_wall: float,
              cpu_s: float, import_s: float, prp_excess: float) -> dict[str, float]:
    """Every metric of ``PER_LAYER`` from one traced pass; a layer the
    workload never calls reads 0."""
    selfs = self_times(spans)

    def pick(name: str, site: str | None = None) -> list[int]:
        return [i for i, s in enumerate(spans)
                if s.name == name and (site is None or s.site == site)]

    def secs(idx: list[int]) -> float:
        return sum(spans[i].seconds for i in idx)

    def info(idx: list[int], key: str) -> list:
        return [spans[i].info[key] for i in idx]

    def under(idx: list[int], parents: list[int]) -> list[int]:
        return [i for i in idx if spans[i].parent in set(parents)]

    loads = pick("data.load_dataset")
    models, milps = pick("model.build_model"), pick("nmdt.build_milp")
    lps = pick("lp.solve_lp")
    bound_lps, bnb_lps = pick("lp.solve_lp", "bounds"), pick("lp.solve_lp", "bnb")
    completions = pick("nmdt.completion_start")
    solves, sweeps = pick("bnb.solve_milp"), pick("frontier.sweep")
    roots = [min(under(bnb_lps, [i])) for i in solves if under(bnb_lps, [i])]
    lp_pivots = sum(info(lps, "pivots"))
    nodes = sum(info(solves, "nodes"))
    statuses = info(lps, "status")

    def most(idx: list[int], key: str) -> float:
        return max(info(idx, key), default=0)

    return {
        "data.load_s": secs(loads),
        "data.bin_s": secs(pick("data.quantile_bin")),
        "data.stats_s": secs(pick("data.compute_bin_stats") + pick("data.validate_overlap")),
        "data.load_us_per_row": _ratio(secs(loads), sum(info(loads, "rows")), 1e6),
        "model.build_s": secs(models),
        "model.rows": most(models, "rows"),
        "model.cols": most(models, "cols"),
        "model.nnz": most(models, "nnz"),
        "model.dense_mb": most(models, "dense_mb"),
        "bounds.tighten_s": secs(pick("bounds.tighten")),
        "bounds.mass_s": secs(pick("bounds.tighten_mass_bounds")),
        "bounds.rate_s": secs(pick("bounds.tighten_rate_bounds")),
        "bounds.lp_calls": len(bound_lps),
        "bounds.pivots": sum(info(bound_lps, "pivots")),
        "bounds.ms_per_pivot": _ratio(secs(bound_lps), sum(info(bound_lps, "pivots")), 1e3),
        "lp.calls": len(lps),
        "lp.pivots": lp_pivots,
        "lp.s": secs(lps),
        "lp.ms_per_pivot": _ratio(secs(lps), lp_pivots, 1e3),
        "lp.max_rows": most(lps, "rows"),
        "lp.max_cols": most(lps, "cols"),
        "lp.iteration_limit_calls": statuses.count("IterationLimit"),
        "lp.infeasible_calls": statuses.count("Infeasible"),
        "nmdt.build_s": secs(milps),
        "nmdt.rows": most(milps, "rows"),
        "nmdt.cols": most(milps, "cols"),
        "nmdt.binaries": most(milps, "binaries"),
        "nmdt.completion_s": secs(completions),
        "nmdt.completion_lp_calls": len(pick("lp.solve_lp", "nmdt")),
        "nmdt.completion_found": sum(info(completions, "found")),
        "bnb.solve_s": secs(solves),
        "bnb.self_s": sum(selfs[i] for i in solves),
        "bnb.nodes": nodes,
        "bnb.nodes_per_s": _ratio(nodes, secs(solves)),
        "bnb.lp_calls": len(bnb_lps),
        "bnb.pivots_per_lp": _ratio(sum(info(bnb_lps, "pivots")), len(bnb_lps)),
        "bnb.ms_per_pivot": _ratio(secs(bnb_lps), sum(info(bnb_lps, "pivots")), 1e3),
        "bnb.root_s": secs(roots),
        "bnb.root_pivots": sum(info(roots, "pivots")),
        "bnb.root_bound": statistics.fmean(info(roots, "objective")) if roots else 0.0,
        "bnb.gap": most(solves, "gap"),
        "postprocess.extract_s": secs(pick("postprocess.extract_plan")),
        "postprocess.apply_expected_s": secs(pick("postprocess.apply_expected_score")),
        "postprocess.apply_stochastic_s": secs(pick("postprocess.apply_stochastic")),
        "postprocess.audit_s": secs(pick("postprocess.audit_stats")),
        "postprocess.evaluate_s": secs(pick("frontier._evaluate")),
        "postprocess.prp_excess": prp_excess,
        "frontier.sweep_s": secs(sweeps),
        "frontier.self_s": sum(selfs[i] for i in sweeps),
        "frontier.points": sum(info(sweeps, "points")),
        "frontier.tighten_calls": len(under(pick("bounds.tighten"), sweeps)),
        "frontier.solve_calls": len(under(pick("frontier.solve_once"), sweeps)),
        "cli.self_s": sum(selfs[i] for i, s in enumerate(spans) if s.name.startswith("cli.")),
        "proc.import_s": import_s,
        "proc.cpu_s": cpu_s,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unaccounted_s": traced_wall - sum(s.seconds for s in spans if s.parent is None),
    }
