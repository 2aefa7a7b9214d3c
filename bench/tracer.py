"""In-memory span tracing of ssgp's public functions, installed from outside.

The tracer replaces each target function at every `ssgp.*` module attribute
that holds it (so `testbed.mle_fit`, `sampler.mle_fit` and `gp.mle_fit` are
all covered) and restores them on exit.  Each call records a span: name,
parent span, start, end and whether it raised.  Spans are stored in flat
arrays so a traced chain of 6000 scans costs a few MB, not a few hundred.
Self time is a span's duration minus the durations of its direct children.
"""

import functools
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Span name -> (module, attribute) of the public function it wraps.
TARGETS = {
    "designs.maximin_lhd": ("ssgp.designs", "maximin_lhd"),
    "linalg.corr_cholesky": ("ssgp.linalg", "corr_cholesky"),
    "linalg.solve_with_chol": ("ssgp.linalg", "solve_with_chol"),
    "gp.nll": ("ssgp.gp", "neg_log_profile_likelihood"),
    "gp.mle_fit": ("ssgp.gp", "mle_fit"),
    "gp.predict_batch": ("ssgp.gp", "predict_batch"),
    "sampler.run_chain": ("ssgp.sampler", "run_chain"),
    "sampler.update_mu": ("ssgp.sampler", "update_mu"),
    "sampler.update_sigma2": ("ssgp.sampler", "update_sigma2"),
    "sampler.update_phi": ("ssgp.sampler", "update_phi"),
    "sampler.update_gamma": ("ssgp.sampler", "update_gamma"),
    "report.select_variables": ("ssgp.report", "select_variables"),
    "io.save_json": ("ssgp.io", "save_json"),
}

# Spans whose arguments and results are kept for per-layer counts.
KEEP_CALLS = ("gp.mle_fit", "sampler.run_chain")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack = [-1]
        self._patches = None
        self.missing = []
        # span name -> [(span index, args, kwargs, result)] for KEEP_CALLS
        self.calls = defaultdict(list)
        # corr_cholesky: requested nugget, nugget_used, matrix order
        self.chol_requested = array("d")
        self.chol_used = array("d")
        self.chol_order = array("i")
        # save_json: size of each file written
        self.saved_bytes = array("q")

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.raised.append(0)
        self.end.append(np.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code (one operation)."""
        idx = self._open(self._name_id(name))
        try:
            yield idx
        except BaseException:
            self.raised[idx] = 1
            raise
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        name_id = self._name_id(name)
        keep = name in KEEP_CALLS
        chol = name == "linalg.corr_cholesky"
        save = name == "io.save_json"
        if chol:
            sig = inspect.signature(fn)
            nugget_pos = list(sig.parameters).index("nugget")
            nugget_default = sig.parameters["nugget"].default

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self._close(idx)
            if chol:
                if len(args) > nugget_pos:
                    requested = args[nugget_pos]
                else:
                    requested = kwargs.get("nugget", nugget_default)
                self.chol_requested.append(requested)
                self.chol_used.append(result[1])
                self.chol_order.append(result[0].shape[0])
            elif save:
                self.saved_bytes.append(os.path.getsize(args[0] if args else kwargs["path"]))
            elif keep:
                self.calls[name].append((idx, args, kwargs, result))
            return result

        return functools.update_wrapper(traced, fn)

    def _plan(self):
        # (module, attribute, original, wrapper) for every ssgp module
        # attribute that holds a target function; built on first install.
        if self._patches is None:
            self._patches = []
            modules = [m for k, m in sys.modules.items() if k == "ssgp" or k.startswith("ssgp.")]
            for name, (module, attr) in TARGETS.items():
                fn = getattr(sys.modules.get(module), attr, None)
                if fn is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, key, fn, wrapper))
        return self._patches

    @contextmanager
    def installed(self):
        """Route calls through the wrappers for the duration of the block."""
        plan = self._plan()
        for mod, key, _, wrapper in plan:
            setattr(mod, key, wrapper)
        try:
            yield self
        finally:
            for mod, key, fn, _ in plan:
                setattr(mod, key, fn)

    def table(self):
        """Per-span arrays: name id, parent, duration, self time, raised."""
        name = np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        raised = np.asarray(self.raised, dtype=bool)
        return name, parent, dur, dur - child, raised

    def ids(self, name):
        """Name id of a span name, or -1 if it never occurred."""
        return self._ids.get(name, -1)
