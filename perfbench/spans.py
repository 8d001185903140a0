"""Per-layer spans around foliate's public entry points, recorded from outside.

:func:`traced` replaces each entry point listed in :data:`ENTRY_POINTS` with a
wrapper that records a span -- name, start, end, parent span and task id --
wherever foliate binds it (every ``foliate.*`` module namespace, or the class
that defines a method or cached property), and puts every original object
back on exit.  Nothing under ``src/`` changes.

Wrappers record only while :attr:`Tracer.active` is set, which the runner
sets around each public call and the gallery build, so oracle code that
touches foliate objects after a call adds no spans.

Spans of one task are folded into :class:`LayerTotals` when the task ends
(self time = duration minus the time spent in child spans), so memory
stays bounded however many spans a run records; the spans of the first task
of each kind are kept raw for the output file.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("sid", "parent", "name", "task", "start", "end", "child_s",
                 "points", "steps", "pole_steps")

    def __init__(self, sid, parent, name, task, start, points=0):
        self.sid, self.parent, self.name, self.task = sid, parent, name, task
        self.start, self.end, self.child_s = start, math.nan, 0.0
        self.points, self.steps, self.pole_steps = points, 0, 0

    @property
    def self_s(self) -> float:
        """Duration minus the time spent in child spans."""
        return (self.end - self.start) - self.child_s

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Stack of open spans plus the finished spans of the current task.

    Spans nest strictly (an exit out of stack order raises), so children are
    disjoint and inside their parent, and each closing span adds its
    duration to its parent's ``child_s``.
    """

    def __init__(self):
        self.active = False
        self.task = "setup"
        self.finished: list[Span] = []
        self._stack: list[Span] = []
        self._next = 0

    def enter(self, name: str, points: int = 0) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(self._next, parent, name, self.task, perf_counter(),
                    points)
        self._next += 1
        self._stack.append(span)
        return span

    def exit(self, span: Span) -> None:
        span.end = perf_counter()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].child_s += span.end - span.start
        self.finished.append(span)

    def drain(self) -> list[Span]:
        out, self.finished = self.finished, []
        return out

    def profile(self, fn):
        """Wrap a curvature profile ``R(t)`` handed to the ODE entry points."""
        return _wrap_call(self, "geodesics.R_fn", fn)


# -- what gets wrapped ---------------------------------------------------------

def _batch(p) -> int:
    shape = np.shape(p)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _arg(index: int, name: str, default=None):
    def get(args, kwargs):
        if len(args) > index:
            return args[index]
        return kwargs.get(name, default)
    return get


def _points_of(index, name):
    get = _arg(index, name)
    return lambda a, k: _batch(get(a, k))


def _grid_of(index, name, dims):
    """Node count of a product grid: nodes_per_circle ** (grid dimension)."""
    nodes, structure = _arg(index, name, 48), _arg(0, "W")
    return lambda a, k: int(nodes(a, k)) ** dims(structure(a, k))


def _steps(result) -> int:
    return len(result.times) - 1


def _riccati_counts(result, span: Span) -> None:
    span.steps = _steps(result)
    h = np.diff(result.times)
    span.pole_steps = int(np.count_nonzero(h < result.base_dt * (1.0 - 1e-9)))


def _with_steps(result, span: Span) -> None:
    span.steps = _steps(result)


EXTRINSIC = ("span", "span_gram", "proj_tan", "proj_nor", "q_tan", "q_nor",
             "dproj_tan", "c_tan", "c_nor")

# (module, attribute path, span name, points(args, kwargs), result hook)
ENTRY_POINTS = [
    ("expr", "eval_jet", "expr.eval_jet", _points_of(1, "p"), None),
    ("manifold", "ChartedManifold.metric_jet", "manifold.metric_jet",
     _points_of(1, "p"), None),
    ("manifold", "PointGeometry.__init__", "manifold.point_geometry",
     _points_of(2, "p"), None),
    ("manifold", "PointGeometry.gamma", "manifold.gamma", None, None),
    ("manifold", "PointGeometry.dgamma", "manifold.dgamma", None, None),
    ("manifold", "PointGeometry.riemann", "manifold.riemann", None, None),
    ("almost_product", "AdaptedPoint.__init__", "almost_product.adapted_point",
     _points_of(2, "p"), None),
    ("almost_product", "AdaptedPoint.frames", "almost_product.frames",
     None, None),
    *[("almost_product", f"AdaptedPoint.{attr}", "almost_product.extrinsic",
       None, None) for attr in EXTRINSIC],
    ("almost_product", "mixed_invariants", "almost_product.mixed_invariants",
     _points_of(1, "P"), None),
    ("almost_product", "co_nullity", "almost_product.co_nullity", None, None),
    ("almost_product", "co_nullity_weighted", "almost_product.co_nullity",
     None, None),
    ("weighted", "min_partial_ricci", "weighted.min_partial_ricci",
     None, None),
    ("geodesics", "integrate_geodesic", "geodesics.integrate_geodesic",
     None, _with_steps),
    ("geodesics", "riccati_flow", "geodesics.riccati_flow",
     None, _riccati_counts),
    ("geodesics", "jacobi_flow", "geodesics.jacobi_flow", None, _with_steps),
    ("geodesics", "riccati_ode", "geodesics.riccati_ode",
     None, _riccati_counts),
    ("geodesics", "jacobi_ode", "geodesics.jacobi_ode", None, _with_steps),
    ("geodesics", "lemma47_envelope", "geodesics.lemma47_envelope",
     None, _with_steps),
    ("geodesics", "random_admissible_R", "geodesics.random_admissible_R",
     None, None),
    ("geodesics", "vt_machinery", "geodesics.vt_machinery", None, None),
    ("identities", "pointwise_suite", "identities.pointwise_suite",
     lambda a, k: len(np.atleast_2d(_arg(1, "points")(a, k))), None),
    ("identities", "integral_formula_1", "identities.integral_formula_1",
     _grid_of(1, "nodes_per_circle", lambda W: W.dim), None),
    ("identities", "integral_formula_2_leafwise",
     "identities.integral_formula_2_leafwise",
     _grid_of(3, "nodes_per_circle", lambda W: W.nu), None),
    ("identities", "quadrature_integral", "identities.quadrature_integral",
     _grid_of(2, "nodes_per_circle", lambda W: W.dim), None),
    ("gallery", "builtin", "gallery.build", None, None),
]


def _wrap_call(tracer: Tracer, name: str, fn, points=None, hook=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span = tracer.enter(name, points(args, kwargs) if points else 0)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit(span)
        if hook is not None:
            hook(out, span)
        return out

    wrapper.__perfbench_original__ = fn
    return wrapper


def _foliate_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "foliate" or n.startswith("foliate."))]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every entry point; return ``(owner, attribute, original)`` patches."""
    patches = []
    modules = _foliate_modules()
    for mod_name, path, span_name, points, hook in ENTRY_POINTS:
        owner = sys.modules[f"foliate.{mod_name}"]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        if isinstance(original, functools.cached_property):
            wrapped = functools.cached_property(
                _wrap_call(tracer, span_name, original.func, points, hook))
            wrapped.__set_name__(owner, attr)
        else:
            wrapped = _wrap_call(tracer, span_name, original, points, hook)
        # a method lives in its class; a function in every module binding it
        targets = [(owner, attr)] if cls_path else [
            (mod, key) for mod in modules
            for key, value in vars(mod).items() if value is original]
        for target, key in targets:
            setattr(target, key, wrapped)
            patches.append((target, key, original))
    return patches


def restore(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def unrestored(patches) -> list[str]:
    """Names of patched attributes that are not the original object, plus
    any wrapper still reachable from a foliate module or class."""
    bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in patches
           if vars(o).get(a) is not orig]
    for mod in _foliate_modules():
        for key, value in vars(mod).items():
            holders = [value] + (list(vars(value).values())
                                 if isinstance(value, type) else [])
            for v in holders:
                target = v.func if isinstance(v, functools.cached_property) else v
                if hasattr(target, "__perfbench_original__"):
                    bad.append(f"{mod.__name__}.{key}")
    return sorted(set(bad))


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    patches = install(tracer)
    try:
        yield patches
    finally:
        restore(patches)


# -- self time and per-layer totals ------------------------------------------

class LayerTotals:
    """Per-name sums over every task folded in with :meth:`add`."""

    ODE_NAMES = ("geodesics.riccati_ode", "geodesics.jacobi_ode")
    QUADRATURE = "identities.quadrature_integral"

    def __init__(self, quad_chunk: int):
        self.quad_chunk = quad_chunk
        self.calls = defaultdict(int)
        self.points = defaultdict(int)
        self.steps = defaultdict(int)
        self.self_s = defaultdict(float)
        self.pole_steps = 0
        self.ode_rhs_profile_calls = 0
        self.ode_steps = 0
        self.quad_builds = 0
        self.quad_chunks = 0

    def add(self, spans) -> None:
        by_id = {s.sid: s for s in spans}
        for s in spans:
            self.calls[s.name] += 1
            self.points[s.name] += s.points
            self.steps[s.name] += s.steps
            self.self_s[s.name] += s.self_s
            self.pole_steps += s.pole_steps
            parent = by_id.get(s.parent)
            if s.name in self.ODE_NAMES:
                self.ode_steps += s.steps
            elif (s.name == "geodesics.R_fn" and parent is not None
                  and parent.name in self.ODE_NAMES):
                self.ode_rhs_profile_calls += 1
            elif s.name == self.QUADRATURE:
                self.quad_chunks += -(-s.points // self.quad_chunk)
            elif s.name == "manifold.point_geometry":
                while parent is not None and parent.name != self.QUADRATURE:
                    parent = by_id.get(parent.parent)
                self.quad_builds += parent is not None

    def metrics(self) -> dict[str, float]:
        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for name, unit, _ in PER_LAYER:
            layer, _, field = name.rpartition(".")
            if field in ("calls", "builds"):
                out[name] = self.calls[layer]
            elif field in ("points", "steps"):
                out[name] = getattr(self, field)[layer]
            elif field == "self_s":
                out[name] = self.self_s[layer]
        jet = "expr.eval_jet"
        out[f"{jet}.us_per_point"] = 1e6 * ratio(self.self_s[jet],
                                                 self.points[jet])
        mj = "manifold.metric_jet"
        out[f"{mj}.points_per_call"] = ratio(self.points[mj], self.calls[mj])
        out["geodesics.rhs_evals_per_step"] = ratio(self.ode_rhs_profile_calls,
                                                    self.ode_steps)
        out["geodesics.riccati.pole_steps"] = self.pole_steps
        out["identities.quadrature.geometry_builds_per_chunk"] = ratio(
            self.quad_builds, self.quad_chunks)
        return out


def _layer_rows():
    rows = []

    def add(layer, fields):
        for field in fields:
            unit = {"self_s": "s", "us_per_point": "us",
                    "points_per_call": "points/call"}.get(field, "count")
            better = "higher" if field == "points_per_call" else "lower"
            rows.append((f"{layer}.{field}", unit, better))

    add("expr.eval_jet", ("calls", "points", "self_s", "us_per_point"))
    add("manifold.metric_jet", ("calls", "points", "self_s",
                                "points_per_call"))
    add("manifold.point_geometry", ("builds", "points"))
    for layer in ("gamma", "dgamma", "riemann"):
        add(f"manifold.{layer}", ("self_s",))
    add("almost_product.adapted_point", ("builds",))
    add("almost_product.frames", ("calls", "self_s"))
    add("almost_product.extrinsic", ("self_s",))
    add("almost_product.mixed_invariants", ("calls", "points", "self_s"))
    add("almost_product.co_nullity", ("self_s",))
    add("weighted.min_partial_ricci", ("calls", "self_s"))
    for fn in ("integrate_geodesic", "riccati_flow", "jacobi_flow"):
        add(f"geodesics.{fn}", ("calls", "steps", "self_s"))
    for fn in ("riccati_ode", "jacobi_ode", "lemma47_envelope",
               "random_admissible_R", "vt_machinery"):
        add(f"geodesics.{fn}", ("self_s",))
    add("geodesics.R_fn", ("calls", "self_s"))
    rows.append(("geodesics.rhs_evals_per_step", "evals/step", "lower"))
    rows.append(("geodesics.riccati.pole_steps", "count", "lower"))
    for fn in ("pointwise_suite", "integral_formula_1",
               "integral_formula_2_leafwise"):
        add(f"identities.{fn}", ("calls", "points", "self_s"))
    rows.append(("identities.quadrature.geometry_builds_per_chunk",
                 "builds/chunk", "lower"))
    add("gallery.build", ("self_s",))
    rows.append(("trace.overhead_s", "s", "lower"))
    rows.append(("trace.overhead_ratio", "ratio", "lower"))
    return rows


# (metric name, unit, better) for every per-layer metric the traced run prints
PER_LAYER = _layer_rows()
