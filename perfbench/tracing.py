"""Span tracing of beamtrack from outside the program.

``Tracer.install`` replaces every public function of the traced modules,
and the oracle methods of ``channel.PowerOracle``, with a wrapper that
records one span per call: name, parent span, start and end.  Every
module namespace and method table that holds a reference to a wrapped
function is patched too, because ``harness._RUNNERS``,
``experiments.METHOD_RUNNERS`` and ``from ... import`` bindings capture
the function objects at import time.  ``uninstall`` restores them all.

Spans are kept in memory in flat integer arrays and written out when the
run ends.  A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import array
import functools
import inspect
import time
from pathlib import Path

import numpy as np

LAYERS = (
    "frames",
    "sensors",
    "fusion",
    "mechanical",
    "channel",
    "electrical",
    "harness",
    "config",
    "experiments",
    "cli",
)

ORACLE_METHODS = ("__call__", "sample_pair", "true_nrsp")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array.array("q")
        self.span_parent = array.array("q")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name: str):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _set(self, holder, key, value):
        """Replace ``holder[key]`` (a dict) or ``holder.key``, remembering the original."""
        if isinstance(holder, dict):
            self._patches.append((holder, key, holder[key]))
            holder[key] = value
        else:
            self._patches.append((holder, key, getattr(holder, key)))
            setattr(holder, key, value)

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        modules = [getattr(self.package, layer) for layer in LAYERS]
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        oracle = self.package.channel.PowerOracle
        for attr in ORACLE_METHODS:
            method = vars(oracle)[attr]
            self._set(oracle, attr, self._wrap(method, f"channel.PowerOracle.{attr}"))

        for module in [self.package] + modules:
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                if id(obj) in wrapped:
                    self._set(namespace, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            self._set(obj, key, wrapped[id(value)])

    def uninstall(self) -> None:
        patches, self._patches = self._patches, []
        for holder, key, original in reversed(patches):
            self._set(holder, key, original)
        self._patches.clear()

    # ------------------------------------------------------------ analysis

    def spans(self) -> "Spans":
        return Spans(
            self.names,
            np.array(self.span_name, dtype=np.int64),
            np.array(self.span_parent, dtype=np.int64),
            np.array(self.span_start, dtype=np.int64),
            np.array(self.span_end, dtype=np.int64),
        )


class Spans:
    """Columnar view of recorded spans with self times and ancestry queries."""

    def __init__(self, names, name, parent, start, end):
        self.names = names
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.duration = end - start
        has_parent = parent >= 0
        child_total = np.bincount(
            parent[has_parent], weights=self.duration[has_parent], minlength=len(name)
        )
        self.self_ns = self.duration - child_total

    def ids(self, *span_names: str) -> list[int]:
        return [self.names.index(n) for n in span_names if n in self.names]

    def mask(self, *span_names: str) -> np.ndarray:
        return np.isin(self.name, self.ids(*span_names))

    def layer_mask(self, layer: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == layer]
        return np.isin(self.name, ids)

    def under(self, ancestor: np.ndarray) -> np.ndarray:
        """Spans that have a span of the ``ancestor`` mask above them."""
        # a parent is recorded before its children, so one forward pass works
        marked = ancestor.tolist()
        inside = [False] * len(marked)
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0 and (marked[p] or inside[p]):
                inside[i] = True
        return np.array(inside, dtype=bool)

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.name)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i]}\t{self.end[i]}\n"
                )
