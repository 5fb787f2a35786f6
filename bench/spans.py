"""In-memory span tracing of helmstab's layers, applied from outside the package.

`Tracer.patched()` replaces the public functions of each layer module with
wrappers that record a span (name, start, end, parent) per call.  Modules
import each other's functions by name (`from .modal1d import x_mode`), so a
function is replaced in every `helmstab.*` namespace that holds it; that is
what makes calls between layers visible.  The originals are restored when
the context exits, so untraced passes in the same process run the plain code.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time
from collections import defaultdict

import numpy as np

# Layer modules: every traced function is replaced in each of their namespaces.
LAYERS = ("cli", "bounds", "solver", "modal1d", "eigenbasis", "oracle")

# (module, attribute) of each traced function.  The span is named
# "<module>.<attribute>".
TRACED = (
    ("cli", "run"),
    ("bounds", "certify"),
    ("bounds", "sweep"),
    ("solver", "solve_vertical_data"),
    ("solver", "lift_horizontal_data"),
    ("solver", "solve_source"),
    ("solver", "source_l2_norm"),
    ("solver", "evaluate"),
    ("solver", "energy_parseval"),
    ("solver", "energy_quadrature"),
    ("solver", "residual_traces"),
    ("modal1d", "x_mode"),
    ("modal1d", "y_mode_lifting"),
    ("eigenbasis", "project"),
    ("eigenbasis", "data_norms"),
    ("eigenbasis", "basis_value"),
    ("oracle", "fdm_solve"),
    ("oracle", "compare"),
    ("oracle", "fdm_energy"),
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class _CountedSource:
    """Source profile callable that counts its calls and the points it maps."""

    def __init__(self, fx, tracer):
        self._fx = fx
        self._tracer = tracer

    def __call__(self, t):
        self._tracer.count("solver.source.fx_calls")
        self._tracer.count("solver.source.fx_points", np.size(t))
        return self._fx(t)


class _TracedLU:
    """SuperLU factor whose `solve` is recorded as the oracle's solve span."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span("oracle.lu_solve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Span and counter store for one traced pass.

    Spans are `[name, start, end, parent]` lists, parent being the index of
    the enclosing span or -1 for a root.  Counters hold work counts taken at
    the same boundaries.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.certify_us: list[float] = []
        self.mode_keys: set = set()
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.hook_errors: set[str] = set()
        self._stack: list[int] = []

    def close_tree(self):
        """Check the finished span tree, fold it into the totals, drop it.

        Returns the tree's problems (see `check_span_tree`).  Folding one
        operation at a time keeps memory flat on passes of ~1e5 spans.
        """
        problems = check_span_tree(self.spans)
        dur, selfs = self_times(self.spans)
        for i, (name, _, _, _) in enumerate(self.spans):
            self.calls[name] += 1
            self.total[name] += dur[i]
            self.self_time[name] += selfs[i]
        self.spans.clear()
        return problems

    def summary(self):
        """Totals and counters of the pass, for `layer_metrics`."""
        built = self.calls["modal1d.x_mode"] + self.calls["modal1d.y_mode_lifting"]
        return {
            "calls": dict(self.calls), "total": dict(self.total),
            "self": dict(self.self_time), "counters": dict(self.counters),
            "certify_us": self.certify_us,
            "mode_reuse": 1.0 - len(self.mode_keys) / built if built else None,
            "hook_errors": sorted(self.hook_errors),
        }

    def count(self, name, amount=1):
        self.counters[name] += amount

    @contextlib.contextmanager
    def span(self, name):
        record = [name, 0.0, None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        # The body of span() inlined: this wrapper runs ~1e5 times per pass.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = self._guarded(name, before, args, kwargs) or (args, kwargs)
            record = [name, 0.0, None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                self._guarded(name, after, args, kwargs, result, record[2] - record[1])
            return result

        return wrapper

    def _guarded(self, name, hook, *args):
        """Run a counting hook; a hook that no longer fits the function's
        signature or result is noted, and never fails the traced call."""
        try:
            return hook(*args)
        except Exception as exc:  # the traced program must run on regardless
            self.hook_errors.add(f"{name}: {exc!r}")
            return None

    def _after_bounds_certify(self, args, kwargs, cert, seconds):
        self.certify_us.append(seconds * 1e6)
        if not cert.passed:
            self.count("bounds.certify.failed")

    def _mode_key(self, name, args, kwargs):
        key = (name, args, tuple(sorted(kwargs.items())))
        try:
            hash(key)
        except TypeError:
            key = repr(key)
        self.mode_keys.add(key)

    # After-hooks run once the span has closed, so their own cost lands in
    # the caller's self time, not in the traced function's.
    def _after_modal1d_x_mode(self, args, kwargs, result, seconds):
        self._mode_key("x_mode", args, kwargs)

    def _after_modal1d_y_mode_lifting(self, args, kwargs, result, seconds):
        self._mode_key("y_mode_lifting", args, kwargs)

    def _after_eigenbasis_project(self, args, kwargs, result, seconds):
        depth = _arg(args, kwargs, 2, "max_mode")
        key = "eigenbasis.project.depth_max"
        self.counters[key] = max(self.counters[key], depth)

    def _after_eigenbasis_basis_value(self, args, kwargs, result, seconds):
        self.count("eigenbasis.basis_value.points", np.size(_arg(args, kwargs, 2, "t")))

    def _after_solver_evaluate(self, args, kwargs, result, seconds):
        points = np.atleast_2d(np.asarray(_arg(args, kwargs, 1, "points"), dtype=float))
        terms = len(_arg(args, kwargs, 0, "u").terms)
        self.count("solver.evaluate.point_terms", len(points) * terms)

    def _after_solver_energy_quadrature(self, args, kwargs, result, seconds):
        self.count("solver.energy_quadrature.nodes", _arg(args, kwargs, 1, "grid_n", 65) ** 2)

    def _before_solver_source_l2_norm(self, args, kwargs):
        f = [(n, _CountedSource(fx, self)) for n, fx in args[0]]
        return (f, *args[1:]), kwargs

    def _source_profile_init(self, init):
        tracer = self

        @functools.wraps(init)
        def wrapper(profile, fx, *args, **kwargs):
            with tracer.span("solver.SourceProfile"):
                init(profile, _CountedSource(fx, tracer), *args, **kwargs)

        return wrapper

    def _splu(self, splu):
        tracer = self

        @functools.wraps(splu)
        def wrapper(matrix, *args, **kwargs):
            tracer.count("oracle.unknowns", matrix.shape[0])
            tracer.count("oracle.nnz", matrix.nnz)
            with tracer.span("oracle.splu"):
                lu = splu(matrix, *args, **kwargs)
            return _TracedLU(lu, tracer)

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers in every helmstab namespace; restore on exit.

        A traced name the package no longer has is skipped, so its metrics
        read 0 instead of the traced run failing.
        """
        import helmstab
        import scipy.sparse.linalg

        namespaces = [helmstab] + [importlib.import_module(f"helmstab.{m}") for m in LAYERS]
        undo = []

        def replace_everywhere(original, wrapper, extra=()):
            for ns in (*namespaces, *extra):
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        undo.append((ns, attr, value))
                        setattr(ns, attr, wrapper)

        for module, attr in TRACED:
            original = getattr(sys.modules[f"helmstab.{module}"], attr, None)
            if callable(original):
                replace_everywhere(original, self._wrap(f"{module}.{attr}", original))
        profile = getattr(sys.modules["helmstab.solver"], "SourceProfile", None)
        if profile is not None:
            undo.append((profile, "__init__", profile.__init__))
            profile.__init__ = self._source_profile_init(profile.__init__)
        # Wrapped in scipy's namespace too, so `spla.splu` and imports made
        # inside functions see the wrapper.
        splu = scipy.sparse.linalg.splu
        replace_everywhere(splu, self._splu(splu), extra=(scipy.sparse.linalg,))
        try:
            yield self
        finally:
            for obj, attr, value in reversed(undo):
                setattr(obj, attr, value)


# -- analysis ----------------------------------------------------------------


def self_times(spans):
    """Per-span durations and self times (duration minus child durations).

    Children of one parent run one after another in a single thread, so the
    sum of their durations is the part of the parent they cover.
    """
    dur = [end - start for _, start, end, _ in spans]
    covered = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            covered[parent] += dur[i]
    return dur, [d - c for d, c in zip(dur, covered)]


def check_span_tree(spans, tolerance=1e-6):
    """Problems with a span list; empty when the trees are well formed.

    Well formed: every span closed and nested inside its parent, every self
    time >= 0, and per root the self times sum to the root's duration.
    """
    problems = []
    for i, (name, start, end, parent) in enumerate(spans):
        if end is None:
            problems.append(f"span {i} ({name}) never closed")
        elif parent >= 0:
            _, pstart, pend, _ = spans[parent]
            if not (parent < i and pstart <= start and pend is not None and end <= pend):
                problems.append(f"span {i} ({name}) is not inside its parent {parent}")
    if problems:
        return problems
    dur, selfs = self_times(spans)
    root_of = []
    per_root = defaultdict(float)
    for i, (name, _, _, parent) in enumerate(spans):
        root = i if parent < 0 else root_of[parent]
        root_of.append(root)
        per_root[root] += selfs[i]
        if selfs[i] < -tolerance:
            problems.append(f"span {i} ({name}) has negative self time {selfs[i]:.3e}s")
    for root, total in per_root.items():
        if abs(total - dur[root]) > tolerance + 1e-9 * len(spans):
            problems.append(
                f"root {root} ({spans[root][0]}): self times sum to {total:.9f}s, "
                f"root lasted {dur[root]:.9f}s"
            )
    return problems


def percentile(values, q):
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(summaries):
    """Per-layer metrics averaged over traced passes (`Tracer.summary()`s).

    Times and counts are per pass; certify latencies pool every call.  A
    layer that did not run reports 0.
    """
    passes = max(len(summaries), 1)
    calls, total, self_s = defaultdict(float), defaultdict(float), defaultdict(float)
    counters = defaultdict(float)
    certify_us, reuse = [], []
    for summary in summaries:
        for into, key in ((calls, "calls"), (total, "total"), (self_s, "self")):
            for name, value in summary[key].items():
                into[name] += value / passes
        for name, value in summary["counters"].items():
            if name.endswith("_max"):
                counters[name] = max(counters[name], value)
            else:
                counters[name] += value / passes
        certify_us.extend(summary["certify_us"])
        if summary["mode_reuse"] is not None:
            reuse.append(summary["mode_reuse"])

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    modes = calls["modal1d.x_mode"] + calls["modal1d.y_mode_lifting"]
    mode_s = total["modal1d.x_mode"] + total["modal1d.y_mode_lifting"]
    return {
        "cli.run.s": total["cli.run"],
        "cli.run.self_s": self_s["cli.run"],
        "bounds.certify.calls": calls["bounds.certify"],
        "bounds.certify.self_s": self_s["bounds.certify"],
        "bounds.certify.us_p50": percentile(certify_us, 50),
        "bounds.certify.us_p99": percentile(certify_us, 99),
        "bounds.certify.failed": counters["bounds.certify.failed"],
        "modal1d.x_mode.calls": calls["modal1d.x_mode"],
        "modal1d.x_mode.s": total["modal1d.x_mode"],
        "modal1d.y_mode_lifting.calls": calls["modal1d.y_mode_lifting"],
        "modal1d.y_mode_lifting.s": total["modal1d.y_mode_lifting"],
        "modal1d.us_per_mode": ratio(mode_s, modes, 1e6),
        "modal1d.mode_reuse": sum(reuse) / len(reuse) if reuse else 0.0,
        "eigenbasis.project.calls": calls["eigenbasis.project"],
        "eigenbasis.project.s": total["eigenbasis.project"],
        "eigenbasis.project.depth_max": counters["eigenbasis.project.depth_max"],
        "eigenbasis.data_norms.s": total["eigenbasis.data_norms"],
        "eigenbasis.basis_value.calls": calls["eigenbasis.basis_value"],
        "eigenbasis.basis_value.points": counters["eigenbasis.basis_value.points"],
        "solver.evaluate.calls": calls["solver.evaluate"],
        "solver.evaluate.s": total["solver.evaluate"],
        "solver.evaluate.point_terms": counters["solver.evaluate.point_terms"],
        "solver.evaluate.ns_per_point_term": ratio(
            total["solver.evaluate"], counters["solver.evaluate.point_terms"], 1e9),
        "solver.energy_quadrature.s": total["solver.energy_quadrature"],
        "solver.energy_quadrature.nodes": counters["solver.energy_quadrature.nodes"],
        "solver.energy_parseval.s": total["solver.energy_parseval"],
        "solver.residual_traces.s": total["solver.residual_traces"],
        "solver.residual_traces.self_s": self_s["solver.residual_traces"],
        "solver.residual_traces.warnings": counters["solver.residual_traces.warnings"],
        "solver.solve_source.s": total["solver.solve_source"],
        "solver.SourceProfile.calls": calls["solver.SourceProfile"],
        "solver.SourceProfile.s": total["solver.SourceProfile"],
        "solver.source_l2_norm.s": total["solver.source_l2_norm"],
        "solver.source.fx_calls": counters["solver.source.fx_calls"],
        "solver.source.points_per_fx_call": ratio(
            counters["solver.source.fx_points"], counters["solver.source.fx_calls"]),
        "oracle.fdm_solve.s": total["oracle.fdm_solve"],
        "oracle.assembly_s": (total["oracle.fdm_solve"] - total["oracle.splu"]
                              - total["oracle.lu_solve"]),
        "oracle.factor_s": total["oracle.splu"],
        "oracle.unknowns": counters["oracle.unknowns"],
        "oracle.nnz": counters["oracle.nnz"],
        "oracle.compare.s": total["oracle.compare"],
    }

