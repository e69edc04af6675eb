"""In-memory span recording for the traced benchmark run.

A Tracer rebinds the module attributes through which spincat's layers call
each other (``spincat.scan.cat_crb``, ``spincat.metrology.qfi_pure``, ...)
to wrappers that record one span per call: name, start, end, parent span
and request id. Spans are held in flat arrays while the pass runs and
aggregated afterwards; nothing in the library itself changes, and every
attribute is restored when the tracer is closed.

A layer is the part of a span name before the first dot, which is the
spincat module the wrapped callable lives in. A span's self time is its
duration minus the time covered by its direct children; since calls nest
on one thread, the self times of all spans add up to the root span.
"""
from __future__ import annotations

import dataclasses
import time
from array import array

import numpy as np

import spincat.catstate
import spincat.cli
import spincat.closedform
import spincat.coherent
import spincat.metrology
import spincat.scan

ROOT = "bench.pass"


def _qfi_label(state, g):
    return f"d{state.j.dim}"


def _find_hl_label(spec):
    return f"2j{spec.j.two_j}_{spec.generator.value}"


def _sweep_label(case, resolution=50):
    return case.value


# (owner, attribute, span name, label) for every call edge between layers
# that the fixed workloads take. A label turns one span name into several,
# e.g. one qfi_pure name per Hilbert-space dimension.
_PATCHES = (
    (spincat.cli, "grid_scan", "scan.grid_scan", None),
    (spincat.cli, "find_hl", "scan.find_hl", _find_hl_label),
    (spincat.cli, "sweep_family", "closedform.sweep_family", _sweep_label),
    (spincat.scan.GridResult, "to_csv", "scan.to_csv", None),
    (spincat.scan.GridResult, "min_point", "scan.min_point", None),
    (spincat.scan, "CoherentParams", "coherent.CoherentParams", None),
    (spincat.scan, "CatParams", "catstate.CatParams", None),
    (spincat.scan, "cat_crb", "metrology.cat_crb", None),
    (spincat.closedform, "CoherentParams", "coherent.CoherentParams", None),
    (spincat.closedform, "CatParams", "catstate.CatParams", None),
    (spincat.closedform, "cat_crb", "metrology.cat_crb", None),
    (spincat.metrology, "cat_state", "catstate.cat_state", None),
    (spincat.metrology, "qfi_pure", "metrology.qfi_pure", _qfi_label),
    (spincat.metrology, "build_operators", "dicke.build_operators", None),
    (spincat.catstate, "coherent_state", "coherent.coherent_state", None),
    (spincat.catstate, "DickeVector", "dicke.DickeVector", None),
    (spincat.coherent, "DickeVector", "dicke.DickeVector", None),
)


class Tracer:
    """Records spans for calls made while it is installed.

    Use as a context manager around one pass: entering rebinds the patched
    attributes and opens the root span, leaving closes the root span and
    restores every original attribute.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._requests = 0
        self._saved: list[tuple[object, str, object]] = []
        self._saved_families: dict = {}
        self._root = -1

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, label=None):
        """Span-recording stand-in for fn.

        A span opened directly under the root starts a new request; its
        descendants share that request id.
        """
        nid = self._id(name)
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid if label is None else tracer._id(f"{name}.{label(*args, **kwargs)}"))
            parent = stack[-1]
            parents.append(parent)
            if len(stack) == 2:
                tracer._requests += 1
            requests.append(tracer._requests)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        for owner, attr, name, label in _PATCHES:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), label))
        families = spincat.closedform.FAMILIES
        self._saved_families = dict(families)
        for case, defn in self._saved_families.items():
            families[case] = dataclasses.replace(
                defn, formula=self.wrap("closedform.formula", defn.formula)
            )
        self._root = len(self.start)
        self.name.append(self._id(ROOT))
        self.parent.append(-1)
        self.request.append(0)
        self.end.append(0.0)
        self._stack.append(self._root)
        self.start.append(time.perf_counter())
        return self

    def __exit__(self, *exc) -> None:
        self.end[self._root] = time.perf_counter()
        self._stack.pop()
        spincat.closedform.FAMILIES.update(self._saved_families)
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)

    def write_csv(self, path) -> None:
        """Dump every span, one row each, times in seconds from the root start."""
        t0 = self.start[self._root]
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,request\n")
            for i, (nid, s, e, p, r) in enumerate(
                zip(self.name, self.start, self.end, self.parent, self.request)
            ):
                fh.write(f"{i},{names[nid]},{s - t0:.9f},{e - t0:.9f},{p},{r}\n")


class SpanSummary:
    """Per-name counts, inclusive times and self times of a finished trace."""

    def __init__(self, tracer: Tracer):
        names = np.frombuffer(tracer.name, dtype=np.int32)
        parents = np.frombuffer(tracer.parent, dtype=np.int32)
        dur = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(
            tracer.start, dtype=np.float64
        )
        n = len(dur)
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - covered
        k = len(tracer.names)
        self.names = list(tracer.names)
        self.wall_s = float(dur[tracer._root])
        self.calls = np.bincount(names, minlength=k)
        self.total_s = np.bincount(names, weights=dur, minlength=k)
        self.self_s = np.bincount(names, weights=self_time, minlength=k)
        self._names_arr = names
        self._parents = parents

    def _index(self, name: str) -> int | None:
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def count(self, name: str) -> int:
        i = self._index(name)
        return 0 if i is None else int(self.calls[i])

    def total(self, name: str) -> float:
        i = self._index(name)
        return 0.0 if i is None else float(self.total_s[i])

    def mean_us(self, name: str) -> float:
        calls = self.count(name)
        return 1e6 * self.total(name) / calls if calls else 0.0

    def with_prefix(self, prefix: str) -> list[str]:
        return [n for n in self.names if n.startswith(prefix)]

    def layer_self_s(self, layer: str) -> float:
        return float(
            sum(self.self_s[i] for i, n in enumerate(self.names) if n.split(".")[0] == layer)
        )

    def children_under(self, child: str, parent: str) -> int:
        """How many spans named child have a direct parent named parent."""
        ci, pi = self._index(child), self._index(parent)
        if ci is None or pi is None:
            return 0
        mask = self._names_arr == ci
        par = self._parents[mask]
        return int(np.count_nonzero(self._names_arr[par[par >= 0]] == pi))
