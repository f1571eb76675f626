"""Guards on the package's shape.

The solver's tolerances and iteration caps are constants of `fairbins.lp`,
the one yardstick every layer judges LP answers by: no public function or
method takes one as a parameter. The fairness rows are written once, in
`fairbins.model`: bound tightening derives its LPs from them."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import fairbins
from fairbins import bounds, lp

KNOBS = {"feas_tol", "opt_tol", "max_iters", "max_rounds", "tol"}


def _public_callables():
    """(name, callable) for every function in a module's `__all__`, and for
    the constructor and public methods each exported class defines."""
    for info in pkgutil.iter_modules(fairbins.__path__):
        module = importlib.import_module(f"fairbins.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr in vars(obj):
                    member = getattr(obj, attr)
                    if (attr == "__init__" or not attr.startswith("_")) and (
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
            "postprocess.TransitionPlan.validate"} <= seen
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
