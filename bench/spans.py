"""In-memory spans around wrapped module attributes.

The benchmark traces the program from the outside: it replaces a function
bound as a module attribute with a wrapper that records one span per call
(name, start, end, parent) and puts the original back afterwards. Nothing
in the program changes. A call made through a binding that was not
wrapped (a module-internal helper, say) is not a span of its own; its time
lands in the self time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    """One wrapped call. ``name`` is ``<defining module>.<function>``; ``site``
    is the module whose attribute was called, which tells the callers of a
    shared function (``lp.solve_lp`` from ``bounds``, ``nmdt`` or ``bnb``)
    apart. ``info`` holds small facts read off the result when it returned."""

    name: str
    site: str
    start: float
    end: float = 0.0
    parent: int | None = None
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Calls run on one thread, so children of one span never overlap and
    their durations add up to the covered part.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, child)]


def short_module(qualified: str) -> str:
    return qualified.rsplit(".", 1)[-1]


class Tracer:
    """Wraps module attributes, records spans while active, then restores.

    ``probes`` maps a span name to a function of (args, kwargs, result)
    that returns the facts to keep in ``Span.info``; it must not keep a
    reference to large results.
    """

    def __init__(self, probes: dict[str, Callable[..., dict]] | None = None,
                 clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self.probes = probes or {}
        self._clock = clock
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str) -> None:
        original = getattr(module, attr)
        name = f"{short_module(original.__module__)}.{original.__name__}"
        site = short_module(module.__name__)
        probe = self.probes.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(name, site, self._clock(),
                        parent=self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = self._clock()
                self._stack.pop()
            if probe is not None:
                span.info = probe(args, kwargs, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def wrap_functions(self, module, package: str) -> None:
        """Wrap every plain function that ``module`` binds and ``package`` defines."""
        for attr, obj in sorted(vars(module).items()):
            if inspect.isfunction(obj) and obj.__module__.startswith(package + "."):
                self.wrap(module, attr)

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
