"""Spans around the calls into each ckkernel layer, recorded from outside.

`Tracer.install` replaces every public function of the layer modules at
every module binding the program calls through (for example
`ckkernel.lfunction.eigenforms` is a separate binding of
`ckkernel.qexpansion.eigenforms`), plus `QExpansion.__mul__`.  Each call
records one span (name, start, end, parent) in flat arrays; self time is
derived from the spans after the run.  Nothing inside `src/` changes.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

LAYERS = ("cli", "kernel", "ntheory", "specfun", "qexpansion", "lfunction", "petersson")


def public_functions(module) -> dict[str, object]:
    """Functions defined in `module` and public: in `__all__`, or unprefixed without one."""
    names = getattr(module, "__all__", None)
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and (name in names if names is not None else not name.startswith("_"))
    }


class Tracer:
    """In-memory span recorder with per-function counting hooks."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        # counts gathered at the same boundaries as the spans
        self.counters: dict[str, int] = {}
        self.keys: dict[str, set] = {}

    def wrap(self, name: str, fn, hook=None):
        """Return `fn` wrapped so each call records a span named `name`."""
        nid = len(self.names)
        self.names.append(name)
        name_id, start_ns, end_ns, parent, stack = (
            self.name_id, self.start_ns, self.end_ns, self.parent, self._stack
        )
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(start_ns)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end_ns.append(0)
            stack.append(i)
            start_ns.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_ns[i] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def install(self, package, hooks: dict) -> None:
        """Wrap every public layer function at every binding in `package`."""
        modules = [package] + [sys.modules[f"{package.__name__}.{m}"] for m in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for fname, fn in public_functions(mod).items():
                span = f"{layer}.{fname}"
                wrappers[id(fn)] = self.wrap(span, fn, hooks.get(span))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, wrapper)
        qexp = package.qexpansion.QExpansion
        self._undo.append((qexp, "__mul__", qexp.__mul__))
        qexp.__mul__ = self.wrap("qexpansion.mul", qexp.__mul__, hooks.get("qexpansion.mul"))

    def uninstall(self) -> None:
        """Restore every binding `install` replaced."""
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, inclusive ns, and self ns (minus child spans).

        Inclusive ns would count a function that re-enters itself through a
        traced binding twice; none of the traced functions does.
        """
        n = len(self.start_ns)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end_ns[i] - self.start_ns[i]
        out = {name: {"calls": 0, "ns": 0, "self_ns": 0} for name in self.names}
        for i in range(n):
            dur = self.end_ns[i] - self.start_ns[i]
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["ns"] += dur
            row["self_ns"] += dur - child_ns[i]
        return out

    def dump(self, path, stamp: dict) -> None:
        """Write the spans (times from the first span's start), names and counters as JSON."""
        base = self.start_ns[0] if self.start_ns else 0
        doc = {
            "stamp": stamp,
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "start_ns": [t - base for t in self.start_ns],
            "end_ns": [t - base for t in self.end_ns],
            "parent": self.parent.tolist(),
            "counters": self.counters,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
