"""Layer tracing from outside the package.

``Tracer.install`` replaces the layer-boundary functions of skewtent with
timing wrappers, in every namespace that holds them (the package, each
module that imported the name, and the benchmark's own modules), so that
calls between modules are traced too, for example ``symbolic.is_maximal``
calling the module global ``compare``.  Spans are kept in memory as
(name, parent, start, end) and written when the run ends.  Nothing in
``src/`` changes, and an untraced run never installs the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Layer boundaries traced, by module.  Every per-layer metric is computed
# from spans and counts at these functions.
TRACED = {
    "theta": ("theta_eval", "theta_grad", "theta_hessian", "diagonal_stationary_beta"),
    "tentmap": ("kneading_prefix", "entropy_lap", "lap_counts"),
    "symbolic": ("compare_prefix", "compare", "is_maximal", "in_class_M"),
    "algebraic": ("compose_branch_condition", "isolate_real_roots",
                  "diagonal_critical_points", "slope_at_diagonal"),
    "curves": ("raster", "write_pgm", "write_csv", "kneading_bisect_beta",
               "trace_isentrope", "counterexample_scan"),
    "cli": ("main",),
}
SPEC_BUILDERS = ("from_seq", "from_text", "from_kneading_prefix")


def _count_theta_eval(c, args, result, exc):
    if exc is not None:
        c["theta.theta_eval.refused"] += exc.__class__.__name__ == "ConvergenceError"
    else:
        c["theta.theta_eval.terms"] += result.terms_used


def _count_kneading_prefix(c, args, result, exc):
    if exc is None:
        c["tentmap.kneading_prefix.symbols"] += len(result)


def _count_lap_counts(c, args, result, exc):
    if exc is None:
        c["tentmap.lap_counts.pieces"] = max(c["tentmap.lap_counts.pieces"], result[-1])


def _count_in_class_M(c, args, result, exc):
    if exc is None:
        c["symbolic.in_class_M.unknown"] += result == "unknown"


def _count_compose(c, args, result, exc):
    if exc is None:
        c["algebraic.compose_branch_condition.monomials"] += len(result.coeffs)


def _count_critical_points(c, args, result, exc):
    if exc is None:
        c["algebraic.diagonal_critical_points.roots"] += len(result)
        c["algebraic.diagonal_critical_points.exact"] += sum(
            r.__class__.__name__ == "Fraction" for r in result)


def _count_raster(c, args, result, exc):
    if exc is None:
        c["curves.raster.pixels"] += len(result.values)
        c["curves.raster.nan_pixels"] += sum(math.isnan(v) for v in result.values)


def _count_trace(c, args, result, exc):
    if exc is None:
        c["curves.trace_isentrope.nodes"] += len(result)
        c["curves.trace_isentrope.ok"] += sum(p.kneading_ok for p in result)


def _count_scan(c, args, result, exc):
    if exc is None:
        c["curves.counterexample_scan.roots"] += len(result)


def _count_write_pgm(c, args, result, exc):
    if exc is None:
        path = Path(args[1])
        c["curves.write_pgm.bytes"] += path.stat().st_size + path.with_suffix(".json").stat().st_size


def _count_write_csv(c, args, result, exc):
    if exc is None:
        c["curves.write_csv.bytes"] += Path(args[1]).stat().st_size


COUNTERS = {
    "theta.theta_eval": _count_theta_eval,
    "tentmap.kneading_prefix": _count_kneading_prefix,
    "tentmap.lap_counts": _count_lap_counts,
    "symbolic.in_class_M": _count_in_class_M,
    "algebraic.compose_branch_condition": _count_compose,
    "algebraic.diagonal_critical_points": _count_critical_points,
    "curves.raster": _count_raster,
    "curves.trace_isentrope": _count_trace,
    "curves.counterexample_scan": _count_scan,
    "curves.write_pgm": _count_write_pgm,
    "curves.write_csv": _count_write_csv,
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = Counter()
        self.paused = False
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        tracer = self
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[idx] = perf_counter()
                stack.pop()
                if count is not None:
                    count(tracer.counts, args, None, exc)
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if count is not None:
                count(tracer.counts, args, result, None)
            return result

        return traced

    @contextmanager
    def pause(self):
        """Oracle checks call the library too; they record no spans."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    # -- patching -------------------------------------------------------------

    def prepare(self, extra_namespaces=()):
        """Build the wrappers and find every namespace that holds a traced
        function; ``install`` and ``uninstall`` then only swap attributes."""
        from skewtent import theta

        modules = {layer: importlib.import_module(f"skewtent.{layer}") for layer in TRACED}
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "skewtent" or n.startswith("skewtent."))]
        namespaces.extend(extra_namespaces)
        for layer, fnames in TRACED.items():
            for fname in fnames:
                orig = getattr(modules[layer], fname)
                wrapped = self.wrap(f"{layer}.{fname}", orig)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            self._patches.append((ns, attr, orig, wrapped))
        spec_cls = theta.ThetaSpec
        for meth in SPEC_BUILDERS:
            cm = spec_cls.__dict__[meth]
            wrapped = classmethod(self.wrap("theta.spec_build", cm.__func__))
            self._patches.append((spec_cls, meth, cm, wrapped))

    def install(self):
        for ns, attr, _orig, wrapped in self._patches:
            setattr(ns, attr, wrapped)

    def uninstall(self):
        for ns, attr, orig, _wrapped in self._patches:
            setattr(ns, attr, orig)

    # -- results --------------------------------------------------------------

    def write(self, directory: str) -> None:
        """Spans as raw arrays (int32 name id, int32 parent index or -1,
        float64 start, float64 end) plus a JSON index of the names."""
        os.makedirs(directory, exist_ok=True)
        for field in ("span_name", "span_parent", "span_start", "span_end"):
            with open(os.path.join(directory, field + ".bin"), "wb") as fh:
                getattr(self, field).tofile(fh)
        with open(os.path.join(directory, "names.json"), "w") as fh:
            json.dump({"names": self.names, "spans": len(self.span_name),
                       "byteorder": sys.byteorder}, fh)

    def summary(self, ranges=()) -> dict:
        """Per-name calls and self time, and the nested-call counts that the
        per-call ratios need.  ``ranges`` holds (first span, end span,
        clock scale) per task; self times are normalised by it."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        factor = [1.0] * n
        for lo, hi, f in ranges:
            factor[lo:hi] = [f] * (hi - lo)
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            name = self.names[names[i]]
            calls[name] += 1
            self_s[name] += (ends[i] - starts[i] - child[i]) * factor[i]

        def nested(inner: str, outer: str) -> int:
            inner_ids = {k for k, v in enumerate(self.names) if v == inner}
            outer_ids = {k for k, v in enumerate(self.names) if v == outer}
            total = 0
            for i in range(n):
                if names[i] in inner_ids:
                    p = parents[i]
                    while p >= 0 and names[p] not in outer_ids:
                        p = parents[p]
                    total += p >= 0
            return total

        return {
            "calls": calls,
            "self_s": self_s,
            "counts": self.counts,
            "grad_in_stationary": nested("theta.theta_grad", "theta.diagonal_stationary_beta"),
            "probes_in_bisect": nested("tentmap.kneading_prefix", "curves.kneading_bisect_beta"),
            "theta_in_scan": nested("theta.theta_eval", "curves.counterexample_scan"),
        }
