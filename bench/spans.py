"""Span tracer that wraps the library's public functions from outside.

``Tracer.install`` replaces every attribute of every loaded ``rsdual`` module
that is bound to a public function of a traced layer module with one timing
wrapper per function. Rebinding every such attribute, not only the one in the
defining module, is what catches calls between layers, because the modules
import each other's functions by name. The LAPACK entry points the library
calls, and ``eigh``, are wrapped on ``scipy.linalg`` and ``numpy.linalg``,
where the library looks them up, as the ``linalg`` pseudo-layer; ``eigh`` of
either module counts as ``linalg.eigh``. ``restore`` puts every original
function object back.

The caller sets ``op`` to an operation's id while it runs and back to -1
after. Only calls made while an operation runs are recorded, so inputs and
reference values computed between operations do not count. Each recorded
span keeps its name, start, end, parent span and operation id in memory
(about 40 bytes a span); ``write`` saves them all when the run ends. Calls,
self time and raised exceptions are summed per function as spans close.
Self time is the span's duration minus the time its child spans cover.
"""

from array import array
import functools
import inspect
import sys
import time
import types

import numpy as np
import scipy.linalg

LAYERS = ("coupling", "sun", "lax", "projective", "double", "reduction", "verify")
# (module, functions) of the linalg pseudo-layer
LINALG = (
    (scipy.linalg, ("schur", "expm", "eigh")),
    (np.linalg, ("qr", "det", "eigvals", "eigh")),
)


def _traced_functions():
    """(span name, function) for the public functions of each layer module.

    Generator functions are left out: their bodies run later, on next(), in
    whatever span the caller has open.
    """
    found = []
    for layer in LAYERS:
        module = sys.modules[f"rsdual.{layer}"]
        for attr, value in vars(module).items():
            if (
                isinstance(value, types.FunctionType)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
                and not inspect.isgeneratorfunction(value)
            ):
                found.append((f"{layer}.{attr}", value))
    return found


class Tracer:
    def __init__(self):
        self.names = []
        self.calls = []
        self.self_s = []
        self.raised = []
        self.edges = {}  # (parent name id, name id) -> calls
        self.span_count = 0
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []  # open spans: [span index, name id, child seconds]
        self.op = -1
        self.patched = []  # (owner, attribute, original)

    # -- installing -----------------------------------------------------------

    def install(self):
        wrappers = {}
        for name, fn in _traced_functions():
            wrappers[id(fn)] = (fn, self._wrap(fn, self._name_id(name)))
        for modname, module in list(sys.modules.items()):
            if modname != "rsdual" and not modname.startswith("rsdual."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        ids = {}
        for module, attrs in LINALG:
            for attr in attrs:
                if attr not in ids:
                    ids[attr] = self._name_id(f"linalg.{attr}")
                self._patch(module, attr, self._wrap(getattr(module, attr), ids[attr]))

    def restore(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched = []

    def _patch(self, owner, attr, wrapper):
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _name_id(self, name):
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.raised.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, name_id):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            index = tracer._open(name_id, parent)
            frame = [index, name_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                # counted once, by the innermost traced function it leaves
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    tracer.raised[name_id] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.self_s[name_id] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                tracer.span_start[index] = start
                tracer.span_end[index] = end

        return functools.wraps(fn)(traced)

    def _open(self, name_id, parent):
        self.calls[name_id] += 1
        key = (parent[1] if parent else -1, name_id)
        self.edges[key] = self.edges.get(key, 0) + 1
        index = self.span_count
        self.span_count += 1
        self.span_name.append(name_id)
        self.span_parent.append(parent[0] if parent else -1)
        self.span_op.append(self.op)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        return index

    # -- results --------------------------------------------------------------

    def totals(self):
        """name -> (calls, self seconds, raised) over every span."""
        return {
            name: (self.calls[i], self.self_s[i], self.raised[i])
            for i, name in enumerate(self.names)
        }

    def edge_calls(self, parent, child):
        """Calls of ``child`` made directly from ``parent``."""
        ids = {name: i for i, name in enumerate(self.names)}
        if parent not in ids or child not in ids:
            return 0
        return self.edges.get((ids[parent], ids[child]), 0)

    def write(self, path, **extra):
        """Save every span, and ``extra`` arrays, as a .npz file; times are
        perf_counter seconds."""
        np.savez(
            path,
            **extra,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int32),
            parent=np.array(self.span_parent, dtype=np.int64),
            op=np.array(self.span_op, dtype=np.int64),
            start=np.array(self.span_start, dtype=np.float64),
            end=np.array(self.span_end, dtype=np.float64),
        )
