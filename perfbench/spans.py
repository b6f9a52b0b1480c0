"""Outside-in layer spans for the benchmark's traced run.

While installed, every public module-level function of the six layer
modules is replaced, in every meroconn module namespace that binds it, by a
wrapper that records one span per call: function, start, end, parent span
and job id.  Class methods (GaussRat, Poly, RatFun) are left alone: they run
10^5-10^6 times per job and wrapping them would distort the timings.
Private helpers are not wrapped either, so their time counts as self time
of the nearest wrapped caller.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("exactalg", "bundle", "connection", "wronskian", "monodromy", "cli")


class Tracer:
    def __init__(self):
        self.names = []            # function id -> "layer.function"
        self.fid = array("i")      # one entry per span
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")   # index of the parent span, -1 at the root
        self.job = array("i")
        self.job_id = -1
        self._stack = []
        self._wrappers = {}        # id(original) -> (original, wrapper)

    def _wrap(self, fn, name):
        fid = len(self.names)
        self.names.append(name)
        fids, starts, ends = self.fid, self.start, self.end
        parents, jobs, stack = self.parent, self.job, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer functions for the duration of the block and put
        the originals back afterwards, also on error.  Installing again
        reuses the same wrappers, so spans of all installs add up."""
        if not self._wrappers:
            for layer in LAYERS:
                mod = importlib.import_module(f"meroconn.{layer}")
                for name, obj in vars(mod).items():
                    if (not name.startswith("_") and inspect.isfunction(obj)
                            and obj.__module__ == mod.__name__):
                        self._wrappers[id(obj)] = (
                            obj, self._wrap(obj, f"{layer}.{name}"))
        patched = []
        try:
            for modname, mod in list(sys.modules.items()):
                if modname != "meroconn" and not modname.startswith("meroconn."):
                    continue
                for attr, val in list(vars(mod).items()):
                    hit = self._wrappers.get(id(val))
                    if hit is not None and hit[0] is val:
                        setattr(mod, attr, hit[1])
                        patched.append((mod, attr, val))
            yield self
        finally:
            for mod, attr, val in reversed(patched):
                setattr(mod, attr, val)

    def columns(self):
        """Spans as numpy columns: fid, start, end, parent, job."""
        return (np.frombuffer(self.fid, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.job, dtype=np.int32))

    def save(self, path):
        fid, start, end, parent, job = self.columns()
        np.savez_compressed(path, names=np.array(self.names), fid=fid,
                            start=start, end=end, parent=parent, job=job)

    def totals(self):
        """{'layer.function': (calls, self seconds)} over all spans; self
        time is a span's duration minus the time its child spans cover."""
        fid, start, end, parent, _ = self.columns()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(fid, minlength=len(self.names))
        self_s = np.bincount(fid, weights=self_time, minlength=len(self.names))
        return {name: (int(calls[k]), float(self_s[k]))
                for k, name in enumerate(self.names)}
