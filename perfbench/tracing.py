"""Span tracer installed around entroctx's layer boundaries from outside.

The benchmark never edits the package. Instead it replaces each traced
function in every entroctx module namespace that binds it (the defining
module, each module that imported it by name, and the package root), so
calls made inside the package go through the wrapper as well. The
untraced run installs nothing.

A span is (name, start, end, parent, operation); spans live in compact
in-memory arrays and are written out once, at the end of the run. A
span's self time is its duration minus what its direct children cost
it: their durations plus the tracer's own work around each of them.
That work is measured per span (bookkeeping and attribute hooks run
between two extra timestamps) and, for the few instructions no
timestamp can cover, calibrated once per run on an empty wrapped call.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from array import array

# (layer, function) pairs recorded as spans. The layer is the defining
# module. Small helpers called thousands of times per operation (label
# builders, key parsers) are left inside their caller's self time.
SPANS = (
    ("pauli", "eigenprojectors"),
    ("statevec", "prepare_state"),
    ("statevec", "apply_gate"),
    ("contexts", "joint_distribution_coarse"),
    ("contexts", "joint_distribution_fine"),
    ("contexts", "coarsen"),
    ("entropy", "shannon_entropy"),
    ("entropy", "entropies_from_counts"),
    ("entropy", "evaluate_m_cycle"),
    ("ncmodels", "lp_feasibility"),
    ("sampling", "sample_counts"),
    ("sampling", "apply_noise"),
    ("sampling", "fit_depolarizing"),
    ("reports", "write_counts"),
    ("reports", "read_counts"),
    ("reports", "write_report"),
    ("pipeline", "sweep"),
    ("pipeline", "exact_m"),
    ("pipeline", "run_experiment"),
    ("pipeline", "write_sampled_counts"),
    ("pipeline", "ingest_counts"),
    ("pipeline", "ingest_counts_files"),
    ("pipeline", "reproduce_reference"),
)

# Functions that are only counted, not timed: the fit objective runs
# about a thousand times per fit and its time belongs to the fit.
COUNTERS = (("sampling", "_entropy_mismatch"),)

LAYERS = (
    "pauli",
    "statevec",
    "contexts",
    "entropy",
    "sampling",
    "ncmodels",
    "reports",
    "pipeline",
)

_DISTRIBUTIONS = {"joint_distribution_coarse": "coarse", "joint_distribution_fine": "fine"}


class Tracer:
    """In-memory span recorder; `active` gates recording per operation."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_attr = array("q")
        # Tracer time spent around the span, outside [start, end].
        self.span_cost = array("q")
        # Uncovered wrapper time per span, charged to its parent.
        self.per_child_ns = 0.0
        self.counts: dict[str, int] = {}
        self.distinct: set = set()
        self.stack: list[int] = []
        self.active = False
        self.op = -1
        self._wrappers: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _call(self, name_id, attr_of, fn, args, kwargs):
        enter = time.perf_counter_ns()
        stack = self.stack
        sid = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_op.append(self.op)
        self.span_start.append(0)
        self.span_end.append(0)
        self.span_attr.append(0)
        self.span_cost.append(0)
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.span_start[sid] = t0
            self.span_end[sid] = t1
        if attr_of is not None:
            self.span_attr[sid] = attr_of(self, args, kwargs)
        self.span_cost[sid] = time.perf_counter_ns() - enter - (t1 - t0)
        return result

    def _wrap_span(self, name: str, fn, attr_of):
        name_id = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self._call(name_id, attr_of, fn, args, kwargs)

        return traced

    def _wrap_counter(self, name: str, fn):
        self.counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def calibrate(self) -> None:
        """Set per_child_ns: what a wrapped call costs its caller beyond a
        plain call and beyond the span's own duration and cost."""
        calls, repeats = 2000, 9
        # Two positional arguments, like the traced entry points.
        def leaf(a, b):
            return None

        def body(f, n):
            for _ in range(n):
                f(n, f)

        samples = []
        for _ in range(repeats):
            probe = Tracer()
            probe.active = True
            traced_body = probe._wrap_span("body", body, None)
            traced_leaf = probe._wrap_span("leaf", leaf, None)
            t0 = time.perf_counter_ns()
            body(leaf, calls)
            plain_ns = time.perf_counter_ns() - t0
            traced_body(traced_leaf, calls)
            outer_self = probe.summary()["self_ns"]["body"]
            samples.append((outer_self - plain_ns) / calls)
        self.per_child_ns = statistics.median(samples)

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Rebind every traced function in every entroctx namespace.

        The wrappers are made on the first call and reused after an
        uninstall, so spans keep one name table.
        """
        if not self._wrappers:
            plan = [(layer, fn, True) for layer, fn in SPANS]
            plan += [(layer, fn, False) for layer, fn in COUNTERS]
            for layer, fn_name, timed in plan:
                original = getattr(sys.modules[f"{package.__name__}.{layer}"], fn_name)
                name = f"{layer}.{fn_name}"
                if timed:
                    wrapper = self._wrap_span(name, original, _attr_hook(fn_name))
                else:
                    wrapper = self._wrap_counter(name, original)
                self._wrappers[id(original)] = wrapper
        modules = [
            m
            for key, m in sys.modules.items()
            if key == package.__name__ or key.startswith(package.__name__ + ".")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        """Dump the spans as one .npz: names plus per-span columns."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
            attr=np.frombuffer(self.span_attr, dtype=np.int64),
            cost_ns=np.frombuffer(self.span_cost, dtype=np.int64),
            per_child_ns=self.per_child_ns,
        )

    def summary(self) -> dict:
        """Per span name: calls, total self ns, and per-span attributes."""
        import numpy as np

        name = np.frombuffer(self.span_name, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.int64) - np.frombuffer(
            self.span_start, dtype=np.int64
        )
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        attr = np.frombuffer(self.span_attr, dtype=np.int64)
        cost = np.frombuffer(self.span_cost, dtype=np.int64)
        charged = dur + cost + self.per_child_ns
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], charged[has_parent])
        self_ns = dur - child
        k = len(self.names)
        return {
            "calls": dict(zip(self.names, np.bincount(name, minlength=k).tolist())),
            "self_ns": dict(
                zip(self.names, np.bincount(name, weights=self_ns, minlength=k).tolist())
            ),
            "name": name,
            "self_ns_per_span": self_ns,
            "attr": attr,
        }


def _lp_size(tracer, args, kwargs) -> int:
    return int(kwargs["n"] if "n" in kwargs else args[1])


def _file_bytes(tracer, args, kwargs) -> int:
    return os.path.getsize(args[0])


def _distribution_key(kind):
    def note(tracer, args, kwargs) -> int:
        # Keyed by value: a re-prepared state with the same amplitudes is
        # the same evaluation, and so is a context rebuilt from the same
        # observables (Pauli strings are frozen dataclasses, hashed by
        # their letters).
        state, context = args[0], args[1]
        tracer.distinct.add(
            (tracer.op, state.amplitudes.tobytes(), context.observables, kind)
        )
        return 0

    return note


def _attr_hook(fn_name: str):
    """Per-span integer recorded after the call, or None."""
    if fn_name == "lp_feasibility":
        return _lp_size
    if fn_name in ("write_counts", "read_counts"):
        return _file_bytes
    if fn_name in _DISTRIBUTIONS:
        return _distribution_key(_DISTRIBUTIONS[fn_name])
    return None
