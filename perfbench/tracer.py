"""Span tracer that wraps the public functions and methods of cvsheet modules.

The wrappers live only in the benchmark: nothing under ``src/`` is edited.
``from .x import y`` re-binds a function in the importing module (for
example ``nashmoser.c_matrix`` or ``norms.diff_time``), so every module
attribute in ``cvsheet.*`` that *is* a target function is replaced, not
only the defining one.  Methods are patched on their class, which also
works for the frozen ``Grid`` dataclass.

Spans are kept in flat in-memory arrays (name id, start, end, parent) and
written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# The benchmark's layers, in the order they are reported.
LAYERS = ("grid", "mhd", "front", "stability", "linearized", "evolve",
          "scenarios", "compat", "nashmoser", "smoothing", "norms")

# Special methods that do a layer's work (the rest are dataclass glue).
_DUNDERS = ("__init__", "__post_init__", "__call__")

# Stencils whose argument and result sizes give the computed bytes moved.
# ``Grid.d2_boundary`` is left out: it calls ``Grid.d2``, which is counted.
STENCILS = ("grid.Grid.d1", "grid.Grid.d2", "grid.diff_time")


def _public(name: str) -> bool:
    return not name.startswith("_") or name in _DUNDERS


def discover_targets(package: str = "cvsheet", layers=LAYERS):
    """(qualified name, owner, attribute, raw attribute) of every target.

    Owner is a module for functions and a class for methods; the raw
    attribute keeps a staticmethod/classmethod wrapper so it can be
    rebuilt around the traced function.
    """
    targets = []
    for layer in layers:
        mod = sys.modules[f"{package}.{layer}"]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                if _public(name):
                    targets.append((f"{layer}.{name}", mod, name, obj))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, raw in vars(obj).items():
                    if not _public(attr):
                        continue
                    fn = raw.__func__ if isinstance(
                        raw, (staticmethod, classmethod)) else raw
                    if inspect.isfunction(fn):
                        targets.append((f"{layer}.{name}.{attr}", obj, attr,
                                        raw))
    return targets


class Tracer:
    """Install wrappers, record spans while enabled, restore on uninstall."""

    def __init__(self, package: str = "cvsheet", layers=LAYERS):
        self.package = package
        self.layers = tuple(layers)
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name_id = array("q")
        self.nbytes = array("q")        # stencil argument + result bytes
        self._stack = array("q", [-1])
        self._saved: list = []
        self.enabled = False

    # -- recording --------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        start, end, parent, name_id = (self.start, self.end, self.parent,
                                       self.name_id)
        nbytes, stack, clock = self.nbytes, self._stack, time.perf_counter_ns
        tracer = self
        # the array argument of a stencil: after self for Grid methods
        arg = (1 if qualname.startswith("grid.Grid.") else 0) \
            if qualname in STENCILS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(start)
            parent.append(stack[-1])
            name_id.append(nid)
            end.append(0)
            nbytes.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if arg is not None:
                nbytes[idx] = np.asarray(args[arg]).nbytes + out.nbytes
            return out

        return traced

    def install(self) -> "Tracer":
        """Replace every binding of every target with its traced wrapper."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package
                                         or n.startswith(self.package + "."))]
        for qualname, owner, attr, raw in discover_targets(self.package,
                                                           self.layers):
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(qualname, raw.__func__))
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            wrapped = self._wrap(qualname, raw)
            if inspect.isclass(owner):
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        self._saved.append((mod, key, raw))
                        setattr(mod, key, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def __enter__(self):
        self.enabled = True
        return self

    def __exit__(self, *exc):
        self.enabled = False
        return False

    # -- analysis ---------------------------------------------------------

    def spans(self) -> "Spans":
        """Snapshot of every span recorded so far."""
        return Spans(self.names, *(np.asarray(col, dtype=np.int64) for col in
                                   (self.name_id, self.start, self.end,
                                    self.parent, self.nbytes)))


class Spans:
    """Flat span table with self times and ancestor queries."""

    def __init__(self, names, name_id, start, end, parent, nbytes):
        self.names = list(names)
        self.name_id = name_id
        self.start = start
        self.end = end
        self.parent = parent
        self.nbytes = nbytes
        self._ids = {n: i for i, n in enumerate(self.names)}
        dur = end - start
        has = parent >= 0
        covered = np.bincount(parent[has], weights=dur[has],
                              minlength=len(dur)).astype(np.int64)
        # span duration minus the part its direct children cover
        self.self_ns = dur - covered

    def __len__(self) -> int:
        return len(self.start)

    def mask(self, name: str) -> np.ndarray:
        return self.name_id == self._ids.get(name, -1)

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def self_s(self, name: str) -> float:
        return float(self.self_ns[self.mask(name)].sum()) * 1e-9

    def module_self_s(self, layer: str) -> float:
        ids = [i for i, n in enumerate(self.names)
               if n.split(".", 1)[0] == layer]
        return float(self.self_ns[np.isin(self.name_id, ids)].sum()) * 1e-9

    def within(self, ancestor: str) -> np.ndarray:
        """Spans that have a span called ``ancestor`` above them."""
        nid = self._ids.get(ancestor, -1)
        names = self.name_id.tolist()
        inside = [False] * len(names)
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0:
                inside[i] = inside[p] or names[p] == nid
        return np.asarray(inside, dtype=bool)

    def count_within(self, names, ancestor: str) -> int:
        sel = np.isin(self.name_id, [self._ids.get(n, -1) for n in names])
        return int((sel & self.within(ancestor)).sum())

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names),
                            name_id=self.name_id, start_ns=self.start,
                            end_ns=self.end, parent=self.parent,
                            nbytes=self.nbytes)
