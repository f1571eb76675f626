"""Guards on the package's shape.

The solver's tolerances and iteration caps are constants of `fairbins.lp`,
the one yardstick every layer judges LP answers by: no public function or
method takes one as a parameter. The fairness rows are written once, in
`fairbins.model`: bound tightening derives its LPs from them. Branch and
bound knows only the LP layer, never the model it is handed, and never
solves a rounded pattern as an LP of its own; every NMDT link has digits,
and exact NMDT is the one linearization: nothing selects another.
The simplex factors a basis in one place, never swaps in a pseudo-inverse
or a stored inverse, and starts every LP from a basis, never from
artificial columns; every LP
column has a finite box, so no LP is unbounded. The data
commands load no layer of the solver, and `bin-stats` no masked arrays.
No module imports `dataclasses`: records are named tuples, which compile
one small constructor at import, or plain classes, which compile nothing."""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np

import fairbins
from fairbins import bnb, bounds, cli, frontier, lp, nmdt, postprocess
from fairbins.postprocess import TransitionPlan

from .conftest import fresh_python

TINY = str(Path(__file__).parent / "fixtures" / "tiny.csv")
SOLVER = {"lp", "bounds", "bnb", "nmdt", "model", "frontier"}

KNOBS = {"feas_tol", "opt_tol", "max_iters", "max_rounds", "tol"}


def _public_callables():
    """(name, callable) for every function in a module's `__all__`, and for
    the constructor (`__init__`, or a named tuple's `__new__`) and public
    methods each exported class defines."""
    for info in pkgutil.iter_modules(fairbins.__path__):
        module = importlib.import_module(f"fairbins.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr in vars(obj):
                    member = getattr(obj, attr)
                    if (attr in ("__init__", "__new__") or not attr.startswith("_")) and (
                        inspect.isfunction(member) or inspect.ismethod(member)
                    ):
                        yield f"{info.name}.{name}.{attr}", member


def test_no_public_callable_takes_a_tolerance_or_iteration_cap():
    seen, offenders = set(), []
    for name, fn in _public_callables():
        seen.add(name)
        taken = KNOBS & set(inspect.signature(fn).parameters)
        if taken:
            offenders.append(f"{name}{sorted(taken)}")
    assert {"lp.solve_lp", "bnb.solve_milp", "nmdt.completion_start",
            "postprocess.TransitionPlan.validate", "lp.LpResult.__new__"} <= seen
    assert offenders == []
    assert lp.FEAS_TOL == lp.OPT_TOL == 1e-7
    assert {"FEAS_TOL", "OPT_TOL"} <= set(lp.__all__)


def test_bounds_writes_no_model_row_itself():
    # a row builder, the move window, the plan-column index or the config
    # in bounds.py would mean a second, hand-built copy of the model's rows
    source = inspect.getsource(bounds)
    found = [name for name in ("_RowBag", "_window_span", "x_index", "model.config")
             if name in source]
    assert found == []


def _package_imports(nodes) -> list[str]:
    """The modules of the package that the import statements among ``nodes`` name."""
    imported = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    return [name for name in imported if name.startswith((".", "fairbins"))]


def test_bnb_knows_no_model():
    # branch and bound takes any bounded LP with binary columns: an import
    # from the package other than the LP layer, or a name of the model or
    # its linearization, would tie it to one model
    source = inspect.getsource(bnb)
    assert _package_imports(ast.walk(ast.parse(source))) == [".lp"]
    found = [name for name in ("nmdt", "LinkCols", "FairnessModel") if name in source]
    assert found == []


def test_one_leaf_rule_and_one_link_shape():
    # a leaf is judged by its own LP point, never by a second LP over the
    # box with every binary pinned; and no link is a digitless "fixed" one
    assert "fixed" not in nmdt.LinkCols._fields
    tree = ast.parse(inspect.getsource(bnb))
    pins = [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "_pinned"]
    assert pins
    assert [ast.unparse(node) for node in pins if "bins" in map(ast.unparse, node.args)] == []


def test_one_linearization():
    # every link carries its remainder product: no parameter, field or flag
    # picks a second MILP, and no grid quantizer serves one
    taking = [fn.__name__ for fn in (nmdt.build_milp, frontier.solve_once, frontier.sweep)
              if "mode" in inspect.signature(fn).parameters]
    assert taking == []
    assert "mode" not in nmdt.NmdtMilp._fields
    assert not hasattr(nmdt, "_grid_quantize")
    [commands] = [action.choices for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    flags = {name: {flag for action in sub._actions for flag in action.option_strings}
             for name, sub in commands.items()}
    assert "--mode" not in flags["solve"] | flags["frontier"]
    assert "--mode" in flags["apply"]  # how a stored plan moves scores


def test_every_lp_is_boxed():
    # every column has a finite box, so no LP has a ray: the simplex keeps
    # no free-column position, and no status reports an unbounded LP
    for lo, hi in [(-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0), (0.0, np.nan)]:
        try:
            lp.LpProblem([1.0], [[1.0]], [lp.SENSE_LE], [1.0], [lo], [hi])
        except ValueError:
            continue
        raise AssertionError(f"LpProblem took the box [{lo}, {hi}]")
    assert "UNBOUNDED" not in lp.LpStatus.__members__
    assert not hasattr(lp, "_FREE")


def test_lp_factors_in_one_place():
    # one factorization: no pseudo-inverse fallback, no second refactor
    # method, and a single call site of the dense inverse
    tree = ast.parse(inspect.getsource(lp))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert {"pinv", "refactor"} & names == set()
    inv_calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and ast.unparse(node.func) in ("np.linalg.inv", "numpy.linalg.inv")]
    assert len(inv_calls) == 1


def test_lp_keeps_no_basis_inverses():
    # every warm start factors its basis: no store of inverses, and no
    # residual test deciding whether to adopt one
    assert not {"_inverts", "_INVERSES_KEPT", "_INVERSE_TOL"} & set(vars(lp))
    tree = ast.parse(inspect.getsource(lp))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "deque" not in imported
    p = lp.LpProblem(np.ones(2), np.ones((1, 2)), np.zeros(1, np.int8), np.ones(1),
                     np.zeros(2), np.ones(2))
    assert not hasattr(lp._Engine(p, 0, None), "inverses")
    assert list(inspect.signature(lp._Engine.install).parameters) == ["self", "start"]


def _fresh(script: str) -> list[str]:
    """The words a fresh interpreter prints when it runs `script`."""
    run = fresh_python("-c", script)
    run.check_returncode()
    return run.stdout.split()


def _loaded_modules(runs: list[list[str]]) -> list[str]:
    """The modules a fresh interpreter holds after `main` ran each argv in `runs`."""
    return _fresh("import sys\nfrom fairbins.cli import main\n"
                  f"assert [main(argv) for argv in {runs!r}] == {[0] * len(runs)!r}\n"
                  "print(' '.join(sys.modules))")


def test_data_commands_load_no_solver(tmp_path):
    # bin-stats, apply and audit run on every scored row a model emits; the
    # solver layers' import alone would cost each of them tens of ms
    plan = tmp_path / "plan.json"
    plan.write_text(TransitionPlan(edges=(0.0, 0.5, 1.0),
                                   groups=np.tile(np.eye(2), (2, 1, 1))).to_json())
    out = str(tmp_path / "out.csv")
    runs = [["bin-stats", TINY, "--bins", "2", "--output", str(tmp_path / "stats.json")],
            ["apply", TINY, "--plan", str(plan), "--output", out],
            ["audit", out, "--eval-bins", "2", "--output", str(tmp_path / "audit.json")]]
    loaded = _loaded_modules(runs)
    assert {"fairbins.data", "fairbins.postprocess"} <= set(loaded)
    assert sorted(SOLVER & {name.removeprefix("fairbins.") for name in loaded
                            if name.startswith("fairbins.")}) == []


def test_data_commands_import_only_the_data_layers():
    # at module level the modules the data commands load import only each
    # other; the solver layers are imported inside the code that runs them
    module_level = {m.__name__: _package_imports(ast.parse(inspect.getsource(m)).body)
                    for m in (cli, postprocess)}
    assert module_level == {"fairbins.cli": [".data", ".postprocess"],
                            "fairbins.postprocess": [".data"]}


def test_no_module_imports_dataclasses():
    # a dataclass generates and compiles its methods at import, about 0.5 to
    # 1 ms a class in every process; numpy itself does not load the module
    assert _fresh("import sys, numpy, fairbins.cli, fairbins.frontier\n"
                  "print('dataclasses' in sys.modules)") == ["False"]


def test_bin_stats_loads_no_masked_arrays(tmp_path):
    # np.quantile and np.unique import numpy.ma on first use, about 15 ms
    # in every bin-stats, solve and frontier process
    loaded = _loaded_modules([["bin-stats", TINY, "--bins", "2",
                               "--output", str(tmp_path / "stats.json")]])
    assert "fairbins.data" in loaded
    assert "numpy.ma" not in loaded


def test_every_lp_starts_from_a_basis():
    # the engine holds the row-scaled a alone, m x n, and its columns are
    # those n and one implicit slack per row, with no artificial column;
    # no crash basis or phase-1 cost stands in for the slack start
    rng = np.random.default_rng(0)
    m, n = 5, 7
    p = lp.LpProblem(rng.normal(size=n), rng.normal(size=(m, n)), np.zeros(m, np.int8),
                     np.zeros(m), np.zeros(n), np.ones(n))
    eng = lp._Engine(p, 0, None)
    assert eng.a.shape == (m, n)
    eng.slack_start(np.concatenate([p.c, np.zeros(m)]))
    assert np.array_equal(eng.basis, n + np.arange(m)) and eng.pos.shape == (n + m,)
    assert not hasattr(lp, "_Shared")
    tree = ast.parse(inspect.getsource(lp))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "crash" not in defined
    assert not {name for name in names if "phase" in name.lower()}


def test_the_layers_above_the_simplex_use_only_its_public_names():
    # bnb, bounds and nmdt reach the simplex through `solve_lp` and its
    # records: none imports a private name of `fairbins.lp`
    for module in (bnb, bounds, nmdt):
        tree = ast.parse(inspect.getsource(module))
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 and (node.module, node.level) in (("lp", 1), ("fairbins.lp", 0))
                 for alias in node.names]
        assert "LpProblem" in names, module.__name__
        assert [name for name in names if name.startswith("_")] == [], module.__name__
    assert "_shared" not in inspect.signature(lp.solve_lp).parameters
