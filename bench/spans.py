"""Spans and counters at egregium's module boundaries, recorded from outside.

`Tracer.install()` replaces public functions of the egregium modules with
wrappers that time each call; the program itself is not edited.  A span's
self time is its duration minus the time of the spans it encloses.  Spans
are aggregated in memory per (invocation, parent span, span name) instead of
kept one by one, because grid workloads make about a million calls; the
aggregate is written out when the child ends.

Counters need no span: `jets.apply_function` is counted but not timed, so
jet arithmetic stays inside the self time of `exprlang.evaluate_jet`, and
`quad.field_evals` counts calls of the integrand handed to `quad.integrate`.
"""

from __future__ import annotations

import time

from egregium import catalog, cli, curves, exprlang, geodesics, intrinsic, jets, quad, surfaces

# (owner, attribute, span name)
SPANS = (
    (cli, "build_parser", "cli.build_parser"),
    (cli, "_emit", "cli.emit"),
    (exprlang, "parse", "exprlang.parse"),
    (catalog, "build_curve", "catalog.build_curve"),
    (catalog, "build_surface", "catalog.build_surface"),
    (catalog, "build_metric", "catalog.build_metric"),
    (surfaces, "embedding_jets", "surfaces.embedding_jets"),
    (surfaces, "normal_parametric", "surfaces.normal_parametric"),
    (surfaces, "first_fundamental_form", "surfaces.first_fundamental_form"),
    (surfaces, "second_order_scalars", "surfaces.second_order_scalars"),
    (surfaces, "gauss_curvature_parametric", "surfaces.gauss_curvature_parametric"),
    (surfaces, "principal_curvatures", "surfaces.principal_curvatures"),
    (intrinsic.MetricField, "at", "intrinsic.metric_at"),
    (intrinsic, "formula_egregia", "intrinsic.formula_egregia"),
    (intrinsic, "flatness_residual", "intrinsic.flatness_residual"),
    (curves, "curvature_graph", "curves.curvature_graph"),
    (curves, "curvature_parametric", "curves.curvature_parametric"),
    (curves, "curvature_implicit", "curves.curvature_implicit"),
    (curves, "frame_graph", "curves.frame_graph"),
    (curves, "frame_parametric", "curves.frame_parametric"),
)

ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.invocation = None
        self.stack = []  # [name, time covered by child spans] per open span
        self.spans = {}  # (invocation, parent, name) -> [calls, total_s, self_s]
        self.counts = {}  # (invocation, name) -> count
        self.connect_depth = 0
        self._saved = []

    def count(self, name, amount=1):
        key = (self.invocation, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name, fn):
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                key = (self.invocation, parent, name)
                record = spans.get(key)
                if record is None:
                    record = spans[key] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]

        wrapper.__wrapped__ = fn
        return wrapper

    def root(self, invocation, main):
        """`main` wrapped as the root span of one invocation."""
        self.invocation = invocation
        return self.span(ROOT, main)

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self.span(name, getattr(owner, attr)))

        jet_eval = self.span("exprlang.evaluate_jet", exprlang.evaluate)
        float_eval = self.span("exprlang.evaluate_float", exprlang.evaluate)

        def evaluate(ast, bindings):
            for value in bindings.values():
                if not isinstance(value, (float, int)):
                    return jet_eval(ast, bindings)
            return float_eval(ast, bindings)

        self._patch(exprlang, "evaluate", evaluate)

        apply_function = jets.apply_function

        def counted_apply(name, x):
            self.count("jets.apply_function")
            return apply_function(name, x)

        self._patch(jets, "apply_function", counted_apply)

        grid_points = intrinsic.grid_points

        def counted_grid(*args, **kwargs):
            points = grid_points(*args, **kwargs)
            self.count("intrinsic.grid_points", len(points))
            return points

        self._patch(intrinsic, "grid_points", counted_grid)

        integrate = self.span("quad.integrate", quad.integrate)

        def traced_integrate(metric, field, *args, **kwargs):
            def counted_field(u, v):
                self.count("quad.field_evals")
                return field(u, v)
            return integrate(metric, counted_field, *args, **kwargs)

        self._patch(quad, "integrate", traced_integrate)

        integrate_geodesic = self.span("geodesics.integrate_geodesic",
                                       geodesics.integrate_geodesic)

        def traced_integrate_geodesic(*args, **kwargs):
            path = integrate_geodesic(*args, **kwargs)
            self.count("geodesics.rk4_steps", len(path.states) - 1)
            if self.connect_depth:
                self.count("geodesics.shots")
            return path

        self._patch(geodesics, "integrate_geodesic", traced_integrate_geodesic)

        connect = self.span("geodesics.connect_geodesic", geodesics.connect_geodesic)

        def traced_connect(*args, **kwargs):
            self.connect_depth += 1
            try:
                return connect(*args, **kwargs)
            finally:
                self.connect_depth -= 1

        self._patch(geodesics, "connect_geodesic", traced_connect)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self):
        """JSON-ready aggregate; an invocation is a (pass, index) pair."""
        return {
            "spans": [[inv[0], inv[1], parent, name, *record]
                      for (inv, parent, name), record in self.spans.items()],
            "counts": [[inv[0], inv[1], name, value]
                       for (inv, name), value in self.counts.items()],
        }
