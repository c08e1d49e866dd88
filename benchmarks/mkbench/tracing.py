"""Per-layer tracing from outside the package.

The traced run replaces public functions of minorkern's modules with thin
wrappers that record one span per call: metric name, parent span, start,
end and a work count (draws, points, bytes, ...).  Spans stay in memory and
are written out once, when the run ends.  Nothing under ``src/`` changes.

A layer's self time is its span's duration minus the durations of the spans
it directly contains.  Calls are sequential (one thread), so children never
overlap and the subtraction is exact up to the wrappers' own cost.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


def _arg(i, name):
    """Read positional argument i or keyword `name` of a call."""
    def get(args, kwargs):
        return kwargs[name] if name in kwargs else args[i]
    return get


def _draws(i):
    get = _arg(i, "draws")
    return lambda args, kwargs, res: float(get(args, kwargs))


def _table_size(args, kwargs, res):
    # eta_table: (kmax + 1) * points; density: points
    return float(np.size(res))


def _csv_out_bytes(args, kwargs, res):
    return float(len(res))


def _csv_in_bytes(args, kwargs, res):
    return float(len(_arg(0, "text")(args, kwargs)))


def _cells(args, kwargs, res):
    return float(np.size(_arg(0, "grids")(args, kwargs)))


# species gap from which an upward kernel entry takes the bilinear series
FAR_GAP = 12


def _kernel_f_variant(args, kwargs):
    p1, p2 = _arg(1, "p1")(args, kwargs), _arg(2, "p2")(args, kwargs)
    gap = p2.s - p1.s
    if gap <= 0:
        return "down"
    return "up_near" if gap < FAR_GAP else "up_far"


def _projection_variant(args, kwargs):
    return _arg(0, "ensemble")(args, kwargs).kind


CALLS = ("calls", "self_s")

# (module, attribute, metric base, variants or None, quantities reported,
#  work count of one call or None).  A function that another module imports
# under its own name is listed once per name, under the same metric.
TARGETS = [
    ("orthopoly", "eta_table", "orthopoly.eta_table", None, CALLS + ("values",), _table_size),
    ("orthopoly", "log_norm_constant", "orthopoly.log_norm_constant", None, CALLS, None),
    ("orthopoly", "log_poly", "orthopoly.log_poly", None, CALLS, None),
    ("kernel", "correlation", "kernel.correlation", None, CALLS, None),
    ("kernel", "kernel_F", "kernel.kernel_F", ("down", "up_near", "up_far"), CALLS, None),
    ("kernel", "kernel_K", "kernel.kernel_K", None, CALLS, None),
    ("kernel", "density", "kernel.density", None, ("points", "self_s"), _table_size),
    ("cli", "density", "kernel.density", None, ("points", "self_s"), _table_size),
    ("samplers", "sample_gue_minor_batch", "samplers.sample_gue_minor_batch", None,
     ("draws", "self_s"), _draws(1)),
    ("samplers", "sample_lue_batch", "samplers.sample_lue_batch", None, ("draws", "self_s"), _draws(2)),
    ("rsklab", "sample_lue_batch", "samplers.sample_lue_batch", None, ("draws", "self_s"), _draws(2)),
    ("samplers", "sample_projection_batch", "samplers.sample_projection_batch",
     ("gaussian", "jacobi"), ("draws", "self_s"), _draws(3)),
    ("samplers", "chains_to_csv", "samplers.chains_to_csv", None, ("bytes", "self_s"), _csv_out_bytes),
    ("samplers", "chains_from_csv", "samplers.chains_from_csv", None, ("bytes", "self_s"), _csv_in_bytes),
    ("validate", "empirical_density", "validate.empirical_density", None, CALLS, None),
    ("validate", "compare", "validate.compare", None, CALLS, None),
    ("validate", "ks_two_sample", "validate.ks_two_sample", None, CALLS, None),
    ("rsklab", "ks_two_sample", "validate.ks_two_sample", None, CALLS, None),
    ("scaling", "convergence_report", "scaling.convergence_report", None, CALLS, None),
    ("scaling", "scaled_finite_kernel", "scaling.scaled_finite_kernel", None, CALLS, None),
    ("scaling", "limit_kernel", "scaling.limit_kernel", None, CALLS, None),
    ("scaling", "airy_kernel", "scaling.airy_kernel", None, CALLS, None),
    ("scaling", "extended_airy", "scaling.extended_airy", None, CALLS, None),
    ("scaling", "hard_edge_kernel", "scaling.hard_edge_kernel", None, CALLS, None),
    ("scaling", "bead_kernel", "scaling.bead_kernel", None, CALLS, None),
    ("rsklab", "lpp_eigenvalue_bridge_test", "rsklab.lpp_eigenvalue_bridge_test", None, CALLS, None),
    ("rsklab", "last_passage_batch", "rsklab.last_passage_batch", None, ("cells", "self_s"), _cells),
    ("rsklab", "sample_wishart_chain_batch", "rsklab.sample_wishart_chain_batch", None,
     ("draws", "self_s"), _draws(3)),
    ("rsklab", "sample_lattice", "rsklab.sample_lattice", None, CALLS, None),
    ("rsklab", "rsk_shape_sequence", "rsklab.rsk_shape_sequence", None, CALLS, None),
    ("rsklab", "eval_discrete_joint", "rsklab.eval_discrete_joint", None, CALLS, None),
    ("cli", "main", "cli.main", None, CALLS, None),
]

_CLASSIFIERS = {"kernel.kernel_F": _kernel_f_variant,
                "samplers.sample_projection_batch": _projection_variant}

UNITS = {"calls": "count", "self_s": "s", "values": "count", "points": "count",
         "draws": "count", "cells": "count", "bytes": "B"}

# span name -> quantities reported for it
SPAN_QUANTITIES = {
    name: qtys
    for _, _, base, variants, qtys, _ in TARGETS
    for name in ([f"{base}.{v}" for v in variants] if variants else [base])
}


def metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in a fixed order."""
    return [(f"{name}.{q}", UNITS[q]) for name, qtys in SPAN_QUANTITIES.items() for q in qtys]


class Tracer:
    """Span recorder; wrappers record only while `enabled` is true."""

    def __init__(self):
        self.names = list(SPAN_QUANTITIES)
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.qty = array("d")
        self.stack: list[int] = []
        self.enabled = False
        self._restore: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        """Wrap every target attribute of the package's modules.  A target
        the package no longer has (say, an import routed elsewhere) is
        skipped, and its metrics read 0."""
        for mod_name, attr, base, _, _, qty in TARGETS:
            fn = getattr(getattr(package, mod_name, None), attr, None)
            if fn is None:
                continue
            mod = getattr(package, mod_name)
            self._restore.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, base, _CLASSIFIERS.get(base), qty))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def _wrap(self, fn, base, classify, qty):
        tracer = self
        stack = self.stack
        ids = self.ids
        base_id = ids.get(base)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            nid = ids[f"{base}.{classify(args, kwargs)}"] if classify else base_id
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.qty.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf())
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf()
                stack.pop()
            if qty is not None:
                tracer.qty[idx] = qty(args, kwargs, res)
            return res

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def spans(self) -> int:
        return len(self.start)

    def layer_metrics(self, rounds: int) -> dict[str, dict]:
        """Per-layer metrics per round: calls, self time and work counts."""
        n_names = len(self.names)
        nid = np.frombuffer(self.name_id, dtype=np.int32) if len(self.name_id) else np.zeros(0, np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros(len(dur))
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(nid, minlength=n_names).astype(float)
        self_s = np.bincount(nid, weights=self_time, minlength=n_names)
        work = np.bincount(nid, weights=np.asarray(self.qty), minlength=n_names)
        per = {"calls": calls, "self_s": self_s}
        out = {}
        for i, name in enumerate(self.names):
            for q in SPAN_QUANTITIES[name]:
                vals = per.get(q, work)
                out[f"{name}.{q}"] = {"value": float(vals[i]) / rounds, "unit": UNITS[q]}
        return out

    def write(self, path) -> None:
        """Write every recorded span (the raw trace) as a numpy archive."""
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int32), start=np.asarray(self.start),
            end=np.asarray(self.end), qty=np.asarray(self.qty))
