"""Spans around the public calls into each rapflow module, recorded from outside.

The tracer never edits rapflow: it swaps module attributes and class methods
for thin wrappers while a traced pass runs, and puts the originals back
afterwards.  A module-level function is replaced wherever a rapflow module
holds a reference to it (``cli`` imports ``almost_period_scan`` by name, for
example), so calls through any of those names are seen.

Each span records its name, start and end (perf_counter_ns), the index of its
parent span, the operation id current when it opened, the process minor-fault
count (getrusage) at both boundaries, and optional work attributes computed
from the call's arguments and result after the span has closed.  Spans stay
in memory until :meth:`Tracer.dump` writes them out at the end of the run.
"""

from __future__ import annotations

import json
import resource
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

_POS_TOL = 1e-9


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    """In-memory span recorder for the main thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._main = threading.main_thread()
        self.op: str | None = None
        self.active = False
        self.rhs_evals = 0

    # -- recording ----------------------------------------------------------

    def wrap(self, name, fn, attrs=None):
        """Wrapper that records one span per call of ``fn``.

        Calls made while the tracer is inactive (the benchmark's own checks)
        or from threads other than the main thread pass straight through, so
        a threaded scan is timed as a whole by its caller's span.
        """
        tracer = self

        def traced(*args, **kwargs):
            if (not tracer.active
                    or threading.current_thread() is not tracer._main):
                return fn(*args, **kwargs)
            span = {"name": name, "op": tracer.op,
                    "parent": tracer._stack[-1] if tracer._stack else None,
                    "minflt0": _minflt(), "rhs0": tracer.rhs_evals,
                    "start": time.perf_counter_ns()}
            idx = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                span["minflt1"] = _minflt()
                span["rhs1"] = tracer.rhs_evals
                tracer._stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def counting_bind(self, bind):
        """``Expression.bind`` replacement whose callables count their calls."""
        tracer = self

        def counted_bind(expr, params=None):
            f = bind(expr, params)

            def counted(t, x):
                if tracer.active:
                    tracer.rhs_evals += 1
                return f(t, x)

            return counted

        return counted_bind

    # -- installing ---------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, rapflow):
        """Swap in the span wrappers of :func:`spans_for` and the rhs counter."""
        functions, methods = spans_for(rapflow)
        modules = [m for name, m in sys.modules.items()
                   if m is not None
                   and (name == "rapflow" or name.startswith("rapflow."))]
        for name, module, attr, attrs in functions:
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        for name, cls, attr, attrs in methods:
            self._patch(cls, attr, self.wrap(name, getattr(cls, attr), attrs))
        expression = rapflow.expr.Expression
        self._patch(expression, "bind", self.counting_bind(expression.bind))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def self_costs(self):
        """Per-span (self seconds, self minor faults): own minus children's."""
        child_ns = [0] * len(self.spans)
        child_flt = [0] * len(self.spans)
        for s in self.spans:
            p = s["parent"]
            if p is not None:
                child_ns[p] += s["end"] - s["start"]
                child_flt[p] += s["minflt1"] - s["minflt0"]
        out = []
        for i, s in enumerate(self.spans):
            own_ns = s["end"] - s["start"] - child_ns[i]
            own_flt = s["minflt1"] - s["minflt0"] - child_flt[i]
            out.append((own_ns * 1e-9, own_flt))
        return out

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# work attributes, computed from arguments and results outside the span


def _eval_array_attrs(args, kwargs, result):
    return {"points": int(np.size(result))}


def _trajectory_cells(args, kwargs, result):
    return {"cells": len(result.values) - 1}


def _values_at_attrs(args, kwargs, result):
    traj, ts = args[0], np.atleast_1d(np.asarray(args[1], float))
    pos = (ts - traj.t0) / traj.dt
    off = int(np.count_nonzero(np.abs(pos - np.rint(pos)) > _POS_TOL))
    return {"points": int(ts.size), "offgrid_points": off}


def _points(args, kwargs, result):
    return {"points": len(result.values)}


def _scan_attrs(args, kwargs, result):
    """Shifts, compared samples and admissions of one almost_period_scan."""
    traj = args[0]
    taus = np.asarray(result.taus, float)
    mode = kwargs.get("mode", args[4] if len(args) > 4 else "global")
    window = kwargs.get("window", args[5] if len(args) > 5 else None)
    t_end = traj.t0 + (len(traj.values) - 1) * traj.dt
    if mode == "remote":
        w_lo, w_hi = max(float(window[0]), traj.t0), float(window[1])
    else:
        w_lo, w_hi = traj.t0, t_end
    hi = np.minimum(w_hi, t_end - taus)
    first = np.ceil((w_lo - traj.t0) / traj.dt - _POS_TOL)
    last = np.floor((hi - traj.t0) / traj.dt + _POS_TOL)
    compared = np.clip(last - first + 1, 0, None)
    k = taus / traj.dt
    offgrid = np.abs(k - np.rint(k)) > _POS_TOL * np.maximum(1.0, np.abs(k))
    return {"shifts": int(taus.size),
            "comparisons": float(np.sum(compared)),
            "offgrid_shifts": int(np.count_nonzero(offgrid)),
            "admitted": int(np.count_nonzero(result.admitted)),
            "assessable": int(np.count_nonzero(result.assessable))}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def spans_for(rapflow):
    """(functions, methods) span tables for the rapflow package."""
    cat, cls, dyn = rapflow.catalog, rapflow.classify, rapflow.dynamics
    ser, cli, expr = rapflow.serialize, rapflow.cli, rapflow.expr
    functions = [
        ("dynamics.integrate", dyn, "integrate", _trajectory_cells),
        ("dynamics.iterate", dyn, "iterate", _trajectory_cells),
        ("dynamics.sample_function", dyn, "sample_function", _points),
        ("dynamics.contraction_gap", dyn, "contraction_gap", None),
        ("classify.scan", cls, "almost_period_scan", _scan_attrs),
        ("classify.remote.tail_sup", cls, "tail_sup", None),
        ("classify.remote.tau_periodic", cls, "remote_tau_periodic_test", None),
        ("classify.remote.stationary", cls, "remote_stationary_test", None),
        ("classify.asymptotic.stationary", cls, "asymptotic_stationary_test",
         None),
        ("classify.asymptotic.tau_periodic", cls,
         "asymptotic_tau_periodic_test", None),
        ("classify.classify_trajectory", cls, "classify_trajectory", None),
        ("catalog.catalog", cat, "catalog", None),
        ("catalog.get", cat, "get", None),
        ("catalog.recommended_config", cat, "recommended_config", None),
        ("catalog.oracle_value", cat, "oracle_value", None),
        ("catalog.make_beverton_holt", cat, "make_beverton_holt", None),
        ("serialize.classification_json", ser, "classification_json",
         _text_bytes),
        ("serialize.almost_period_set_csv", ser, "almost_period_set_csv",
         _text_bytes),
        ("serialize.trajectory_csv", ser, "trajectory_csv", _text_bytes),
        ("serialize.trajectory_json", ser, "trajectory_json", _text_bytes),
        ("serialize.write_text", ser, "write_text", None),
        ("cli.main", cli, "main", None),
    ]
    methods = [
        ("expr.eval_array", expr.Expression, "eval_array", _eval_array_attrs),
        ("dynamics.values_at", dyn.Trajectory, "values_at", _values_at_attrs),
        ("catalog.trajectory", cat.AnalyticExample, "trajectory", None),
    ]
    return functions, methods


_WORK = ("points", "offgrid_points", "cells", "shifts", "comparisons",
         "offgrid_shifts", "admitted", "assessable", "bytes")


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass.

    Every metric is present; a layer that did no work on the workload reads
    0 for its times, counts and rates.
    """
    costs = tracer.self_costs()
    by_name: dict = defaultdict(Counter)
    for s, (own_s, own_flt) in zip(tracer.spans, costs):
        c = by_name[s["name"]]
        c["self_s"] += own_s
        c["minflt"] += own_flt
        c["wall_s"] += (s["end"] - s["start"]) * 1e-9
        c["rhs_evals"] += s["rhs1"] - s["rhs0"]
        for key in _WORK:
            c[key] += s.get(key, 0)

    def total(prefix, field="self_s"):
        """Sum of field over spans named prefix or prefix.<anything>."""
        return sum((c[field] for name, c in by_name.items()
                    if name == prefix or name.startswith(prefix + ".")), 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    m["expr.rhs_evals"] = tracer.rhs_evals
    m["expr.eval_array_ns_per_point"] = ratio(
        total("expr.eval_array") * 1e9, total("expr.eval_array", "points"))
    m["expr.self_s"] = total("expr")

    integ_s, cells = total("dynamics.integrate"), total("dynamics.integrate",
                                                         "cells")
    m["dynamics.integrate.self_s"] = integ_s
    m["dynamics.integrate.cells_per_s"] = ratio(cells, integ_s)
    m["dynamics.integrate.rhs_evals_per_cell"] = ratio(
        total("dynamics.integrate", "rhs_evals"), cells)
    iter_s = total("dynamics.iterate")
    m["dynamics.iterate.self_s"] = iter_s
    m["dynamics.iterate.steps_per_s"] = ratio(
        total("dynamics.iterate", "cells"), iter_s)
    va_pts = total("dynamics.values_at", "points")
    m["dynamics.values_at.self_s"] = total("dynamics.values_at")
    m["dynamics.values_at.points"] = int(va_pts)
    m["dynamics.values_at.offgrid_share"] = ratio(
        total("dynamics.values_at", "offgrid_points"), va_pts)
    m["dynamics.values_at.minor_faults"] = int(
        total("dynamics.values_at", "minflt"))
    m["dynamics.sample_function.self_s"] = total("dynamics.sample_function")

    scan_s, shifts = total("classify.scan"), total("classify.scan", "shifts")
    m["classify.scan.self_s"] = scan_s
    m["classify.scan.shifts"] = int(shifts)
    m["classify.scan.comparisons_per_s"] = ratio(
        total("classify.scan", "comparisons"), scan_s)
    m["classify.scan.offgrid_shift_share"] = ratio(
        total("classify.scan", "offgrid_shifts"), shifts)
    m["classify.scan.admitted_ratio"] = ratio(
        total("classify.scan", "admitted"),
        total("classify.scan", "assessable"))
    m["classify.scan.minor_faults"] = int(total("classify.scan", "minflt"))
    m["classify.remote.self_s"] = total("classify.remote")
    m["classify.asymptotic.self_s"] = total("classify.asymptotic")
    m["classify.classify_trajectory.self_s"] = total(
        "classify.classify_trajectory")
    m["classify.classify_trajectory.wall_s"] = total(
        "classify.classify_trajectory", "wall_s")

    m["catalog.self_s"] = total("catalog")
    m["catalog.trajectory.wall_s"] = total("catalog.trajectory", "wall_s")

    ser_s, ser_bytes = total("serialize"), total("serialize", "bytes")
    m["serialize.self_s"] = ser_s
    m["serialize.bytes"] = int(ser_bytes)
    m["serialize.mb_per_s"] = ratio(ser_bytes / 1e6, ser_s)

    m["cli.self_s"] = total("cli")
    m["trace.wall_s"] = traced_wall_s
    m["trace.attributed_share"] = ratio(sum(own for own, _ in costs),
                                        traced_wall_s)
    return m
