"""Span tracing of anisodnl's public functions, from outside the program.

``Tracer.install`` replaces each traced function with a wrapper in every
namespace that holds it: the defining module and every ``anisodnl``
module that imported it by name (``anisodnl.solver.vpm_distance`` is the
same function as ``anisodnl.analysis.vpm_distance``).  ``uninstall`` puts
the originals back.  ``src/`` is never edited.

A span is (name, start, end, parent, op).  Spans stay in memory until
``write_spans``.  The self time of a span is its duration minus the time
its child spans cover; self times of all spans of an op add up to the
op's root span, less the benchmark's own speed samples.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

# Layer name -> (module, attribute) of each traced public function.
FUNCTIONS = {
    "cli.main": ("anisodnl.cli", "main"),
    "presets.get_preset": ("anisodnl.presets", "get_preset"),
    "presets.problem_from_config": ("anisodnl.presets", "problem_from_config"),
    "model.check_admissibility": ("anisodnl.model", "check_admissibility"),
    "solver.regularization_cascade": ("anisodnl.solver",
                                      "regularization_cascade"),
    "solver.solve_problem": ("anisodnl.solver", "solve_problem"),
    "solver.implicit_step": ("anisodnl.solver", "implicit_step"),
    "analysis.vpm_distance": ("anisodnl.analysis", "vpm_distance"),
    "analysis.comparison_check": ("anisodnl.analysis", "comparison_check"),
    "analysis.degiorgi_constants": ("anisodnl.analysis", "degiorgi_constants"),
    "analysis.measure_levels": ("anisodnl.analysis", "measure_levels"),
    "analysis.steklov": ("anisodnl.analysis", "steklov"),
    "analysis.exp_mollify": ("anisodnl.analysis", "exp_mollify"),
    "analysis.series_lp_norm": ("anisodnl.analysis", "series_lp_norm"),
    "discretization.field_to_csv": ("anisodnl.discretization",
                                    "field_to_csv"),
    "discretization.integrate_power": ("anisodnl.discretization",
                                       "integrate_power"),
    "discretization.calibrate_troisi_constant": ("anisodnl.discretization",
                                                 "calibrate_troisi_constant"),
}

# scipy's public sparse and dense/banded solve entry points; every call
# the program makes to one of them is a ``solver.linsolve`` span.
LINSOLVE = {
    scipy.sparse.linalg: ("spsolve", "spsolve_triangular", "splu", "spilu",
                          "factorized", "cg", "gmres", "minres", "bicgstab"),
    scipy.linalg: ("solve", "solve_banded", "solveh_banded", "lu_factor",
                   "lu_solve", "cho_factor", "cho_solve", "solve_triangular"),
}
LINSOLVE_NAME = "solver.linsolve"

LAYERS = tuple(FUNCTIONS) + (LINSOLVE_NAME,)
ROOT = "bench.op"
# spans of the benchmark's own speed samples (see speed.py); their time is
# left out of every layer
PROBE = "bench.speed_probe"

# Counts recorded at layer boundaries, with their units.  The two
# "nodes-computed" counts are derived from grid sizes, not measured.
COUNTERS = {
    "solver.steps": "count",
    "solver.newton_iters": "count",
    "solver.fallback_steps": "count",
    "solver.clamped_steps": "count",
    "solver.step_failures": "count",
    "solver.unknown_iters": "nodes-computed",
    "solver.linsolve.unknowns": "nodes-computed",
    "discretization.field_to_csv.bytes": "bytes",
    "cli.bytes_written": "bytes",
}
# Ratios derived from the layer times and counts.
DERIVED = {
    "solver.converged_step_ratio": "ratio",
    "solver.s_per_iter": "s",
    "solver.linsolve.share": "ratio",
    "trace.overhead_frac": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    units.update(DERIVED)
    return units


class _FactorProxy:
    """A factor object (scipy SuperLU) whose ``solve`` is traced."""

    def __init__(self, tracer: "Tracer", inner):
        self._tracer = tracer
        self._inner = inner

    def solve(self, *args, **kwargs):
        return self._tracer.call(LINSOLVE_NAME, self._inner.solve, args,
                                 kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    """Records spans and counts of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        # op id -> counter name -> value
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._stack: list[int] = []
        self._op = -1
        self.updating = False
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        # a speed sample (speed.py) arriving while ``updating`` is set
        # would land between a span's record and its stack entry; it waits
        self.updating = True
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, time.perf_counter(), None, parent, self._op]
        self.spans.append(span)
        self._stack.append(idx)
        self.updating = False
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.updating = True
            span[2] = time.perf_counter()
            self._stack.pop()
            self.updating = False
            self._on_error(name, args, exc)
            raise
        self.updating = True
        span[2] = time.perf_counter()
        self._stack.pop()
        self.updating = False
        return self._on_result(name, args, result)

    def op(self, op_id: int, fn, *args):
        """Run fn(*args) as the root span of one op."""
        self._op = op_id
        try:
            return self.call(ROOT, fn, args, {})
        finally:
            self._op = -1

    def _on_result(self, name, args, result):
        c = self.counts[self._op]
        if name == "solver.implicit_step":
            fld, rep = result
            c["solver.steps"] += 1
            c["solver.newton_iters"] += rep.iterations
            c["solver.fallback_steps"] += bool(rep.fallback)
            c["solver.clamped_steps"] += bool(rep.clamped)
            c["solver.unknown_iters"] += rep.iterations * fld.values.size
        elif name == LINSOLVE_NAME:
            # size of the right-hand side (or of the matrix, for a
            # factorization): the last positional argument
            if args and np.ndim(args[-1]) > 0:
                c["solver.linsolve.unknowns"] += np.shape(args[-1])[0]
            if hasattr(result, "solve"):
                return _FactorProxy(self, result)
            if callable(result):
                return self._wrap(LINSOLVE_NAME, result)
        elif name == "discretization.field_to_csv":
            c["discretization.field_to_csv.bytes"] += len(result.encode())
        return result

    def _on_error(self, name, args, exc):
        if name == "solver.implicit_step":
            # a StepFailure carries the residual history of the failed step
            hist = getattr(exc, "residual_history", None)
            if hist is not None:
                c = self.counts[self._op]
                c["solver.step_failures"] += 1
                c["solver.newton_iters"] += len(hist) - 1
                c["solver.unknown_iters"] += ((len(hist) - 1)
                                              * args[0].values.size)

    # -- patching ----------------------------------------------------------

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapper

    def _patch_everywhere(self, name, original, home):
        wrapper = self._wrap(name, original)
        owners = [home] + [m for n, m in sorted(sys.modules.items())
                           if n == "anisodnl" or n.startswith("anisodnl.")]
        for mod in owners:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, (mod_name, attr) in FUNCTIONS.items():
            home = importlib.import_module(mod_name)
            self._patch_everywhere(name, getattr(home, attr), home)
        for home, attrs in LINSOLVE.items():
            for attr in attrs:
                fn = getattr(home, attr, None)
                if fn is not None:
                    self._patch_everywhere(LINSOLVE_NAME, fn, home)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def layer_times(self, scale: dict[int, float]) -> dict[str, dict]:
        """calls, busy_s and self_s per layer over the spans of the ops in
        ``scale``, each op's times multiplied by its scale factor.

        Busy time counts only the outermost span of a name, so a function
        reached again below itself is not counted twice.  Time in PROBE
        spans is left out of every layer, ``ROOT`` included.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        probe_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
            if s[0] == PROBE:
                p = s[3]
                while p >= 0:
                    probe_time[p] += s[2] - s[1]
                    p = spans[p][3]
        out = {n: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
               for n in LAYERS + (ROOT,)}
        for i, (name, start, end, parent, op) in enumerate(spans):
            if op not in scale or name == PROBE:
                continue
            f = scale[op]
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += f * ((end - start) - child_time[i])
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                rec["busy_s"] += f * ((end - start) - probe_time[i])
        return out

    def counts_for(self, ops) -> dict[str, float]:
        total = defaultdict(float)
        for op in ops:
            for name, value in self.counts.get(op, {}).items():
                total[name] += value
        return total

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")
