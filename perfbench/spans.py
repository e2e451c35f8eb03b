"""In-memory span tracing around the public entry points of a package.

A span records its name, start, end and the index of its parent span.  The
tracer wraps a function object in every module of the package that binds
it (``seamkit.unwrap.cut_mesh`` is also bound as ``seamkit.metrics.cut_mesh``),
so a call is traced whichever name the caller used.  Wrapping is undone when
the ``installed`` context exits.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict


class Tracer:
    """Collects spans and layer counts for the op in progress."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` wrapped in a span; ``observe(counts, args, kwargs, result)``
        reads layer counts from the call after it returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, self.clock(), None, parent])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = self.clock()
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return traced


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its child spans cover.

    Children of one span run one after another (the traced code is single
    threaded), so the time they cover is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    return [(end - start) - child for (_, start, end, _), child in zip(spans, child_time)]


def op_summary(tracer: Tracer) -> dict[str, float]:
    """``<name>.calls``, ``<name>.self_s`` and ``<name>.total_s`` per span name,
    plus the layer counts observed during the op."""
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _), self_s in zip(tracer.spans, self_times(tracer.spans)):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        out[f"{name}.total_s"] += end - start
    out.update(tracer.counts)
    return dict(out)


def _package_modules(package: str):
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


@contextlib.contextmanager
def installed(tracer: Tracer, targets, package: str):
    """Wrap each target in every module of ``package`` that binds it.

    ``targets`` maps ``"<module>.<function>"`` (module relative to the package)
    to an observer or None.  The span name is that key.
    """
    modules = _package_modules(package)
    replaced = []  # (module, attribute, original)
    try:
        for key, observe in targets.items():
            mod_name, _, fn_name = key.rpartition(".")
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = tracer.wrap(key, original, observe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        replaced.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, original in reversed(replaced):
            setattr(mod, attr, original)
