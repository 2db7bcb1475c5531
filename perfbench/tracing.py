"""Spans around the package's layer entry points, installed from outside.

`Tracer.install` replaces each function named in LAYERS by a wrapper, in
its own module and wherever another `onefac` module holds a reference to
it, so calls inside the package are traced too.  A span is (name, start,
end, parent index); spans stay in memory until `summary` and `dump`.
Only layer entry points are wrapped: per-edge and per-element helpers
such as `canonicalize_factor` or `gf.mul` run millions of times a round,
and wrapping them would cost more than they do.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys

LAYERS = {
    "families": ("plan", "family_profiles"),
    "starters": ("find_profiles", "find_starter", "assemble",
                 "check_starter_conditions", "certificate_indecomposable"),
    "core": ("validate_factorization", "is_simple"),
    "docio": ("serialize", "parse", "mf_from_document"),
    "gf": ("agl_orbit_factorization",),
    "verify": ("find_subfactorization",),
}


class Tracer:
    def __init__(self, clock):
        self.spans: list = []
        self._stack: list[int] = []
        self._clock = clock

    def install(self) -> None:
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "onefac" or name.startswith("onefac.")]
        for mod_name, names in LAYERS.items():
            mod = importlib.import_module(f"onefac.{mod_name}")
            for name in names:
                original = getattr(mod, name)
                wrapped = self._wrap(f"{mod_name}.{name}", original)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time.

        Self time is a span's duration minus the durations of its direct
        children; children nest inside their parent on one thread.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([list(s) for s in self.spans], fh)
