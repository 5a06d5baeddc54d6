"""Plane-curve operations: examples with independent oracles, plus the
cross-representation and convergence invariants."""

import math
import re

import pytest

from conftest import CORPUS_1V
from egregium import cli, curves, exprlang, quad
from egregium.curves import (GraphCurve, ImplicitCurve, ParametricCurve,
                             arc_length, arclength_reparametrize,
                             curvature_graph, curvature_implicit,
                             curvature_parametric, frame_graph,
                             frame_parametric, menger_curvature,
                             osculating_circle)
from egregium.errors import (CoincidentPoints, InputError, NotOnCurve,
                             SingularGradient, SingularPoint, ZeroCurvature)
from egregium.exprlang import parse


def _substitute_neg_t(ast):
    """x(t) -> x(-t), for the reversal-covariance check."""
    if isinstance(ast, exprlang.Constant):
        return ast
    if isinstance(ast, exprlang.Variable):
        if ast.name == "t":
            return exprlang.Unary("neg", ast)
        return ast
    if isinstance(ast, exprlang.Unary):
        return exprlang.Unary(ast.op, _substitute_neg_t(ast.child))
    return exprlang.Binary(ast.op, _substitute_neg_t(ast.left),
                           _substitute_neg_t(ast.right))


class TestArcLength:
    def test_flat_segment(self):
        assert arc_length(GraphCurve(parse("0")), 0.0, 3.0) == pytest.approx(
            3.0, abs=1e-12)

    def test_diagonal(self):
        got = arc_length(GraphCurve(parse("x")), 0.0, 1.0)
        assert got == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_circular_arc(self):
        # arc of the unit circle between asin(-1/2) and asin(1/2): pi/3
        got = arc_length(GraphCurve(parse("sqrt(1-x^2)")), -0.5, 0.5)
        assert got == pytest.approx(math.pi / 3.0, abs=1e-12)

    def test_monotone_in_upper_bound(self):
        curve = GraphCurve(parse("sin(x)"))
        values = [arc_length(curve, 0.0, b) for b in (0.5, 1.0, 1.5, 2.0)]
        assert values == sorted(values)

    def test_rejects_reversed_bounds(self):
        with pytest.raises(InputError):
            arc_length(GraphCurve(parse("x")), 1.0, 0.0)


class TestFrameGraph:
    def test_horizontal(self):
        frame = frame_graph(parse("5"), 2.0)
        assert frame.T == (1.0, 0.0)
        assert frame.N == (0.0, 1.0)

    def test_diagonal(self):
        frame = frame_graph(parse("x"), 0.0)
        r = 1.0 / math.sqrt(2.0)
        assert frame.T == pytest.approx((r, r), abs=1e-15)
        assert frame.N == pytest.approx((-r, r), abs=1e-15)

    def test_parabola_normal(self):
        frame = frame_graph(parse("x^2"), 1.0)
        s = math.sqrt(5.0)
        assert frame.N == pytest.approx((-2.0 / s, 1.0 / s), abs=1e-15)
        # orthogonal to the finite-difference tangent
        h = 1e-6
        chord = (2 * h, (1 + h) ** 2 - (1 - h) ** 2)
        dot = frame.N[0] * chord[0] + frame.N[1] * chord[1]
        assert abs(dot) / math.hypot(*chord) <= 1e-9

    def test_orthonormal_everywhere(self, rng):
        for text in ("x^2", "sin(x)", "exp(x/2)", "x^3-x"):
            ast = parse(text)
            for _ in range(25):
                x = rng.uniform(-2.0, 2.0)
                frame = frame_graph(ast, x)
                assert abs(math.hypot(*frame.T) - 1.0) <= 1e-12
                assert abs(math.hypot(*frame.N) - 1.0) <= 1e-12
                dot = frame.T[0] * frame.N[0] + frame.T[1] * frame.N[1]
                assert abs(dot) <= 1e-12


class TestCurvatureGraph:
    def test_any_line_is_flat(self):
        assert curvature_graph(parse("3 - 2*x"), 0.7).value == 0.0

    def test_circle_radius_two(self):
        c = curvature_graph(parse("sqrt(4-x^2)"), 0.0)
        assert abs(c.value) == pytest.approx(0.5, abs=1e-12)

    def test_parabola_vertex_matches_menger_limit(self):
        c = curvature_graph(parse("x^2"), 0.0)
        assert c.value == pytest.approx(2.0, abs=1e-14)
        for h in (1e-2, 1e-3):
            m = menger_curvature((-h, h * h), (0.0, 0.0), (h, h * h))
            assert abs(m - 2.0) <= 3.0 * h


class TestCurvatureParametric:
    def test_circle_constant(self):
        cx, cy = parse("2*cos(t)"), parse("2*sin(t)")
        for t in (0.0, 0.7, 2.0, 4.5):
            assert curvature_parametric(cx, cy, t).value == pytest.approx(
                0.5, abs=1e-12)

    def test_line_is_flat(self):
        assert curvature_parametric(parse("t"), parse("2*t"), 1.3).value == 0.0

    def test_ellipse_vertex(self):
        cx, cy = parse("2*cos(t)"), parse("sin(t)")
        c = curvature_parametric(cx, cy, 0.0)
        assert c.value == pytest.approx(2.0, abs=1e-12)
        # Menger limit oracle on curve samples
        def point(t):
            return (2.0 * math.cos(t), math.sin(t))
        for h in (1e-2, 1e-3):
            m = menger_curvature(point(-h), point(0.0), point(h))
            assert abs(m - 2.0) <= 10.0 * h

    def test_singular_point(self):
        with pytest.raises(SingularPoint):
            curvature_parametric(parse("t^2"), parse("t^3"), 0.0)

    def test_reversal_flips_sign(self, rng):
        pairs = [("2*cos(t)", "sin(t)"), ("t", "t^2"),
                 ("t*cos(t)", "t+sin(t)")]
        for xt, yt in pairs:
            xa, ya = parse(xt), parse(yt)
            xr, yr = _substitute_neg_t(xa), _substitute_neg_t(ya)
            for _ in range(10):
                t = rng.uniform(0.2, 1.5)
                fwd = curvature_parametric(xa, ya, t).value
                rev = curvature_parametric(xr, yr, -t).value
                assert rev == pytest.approx(-fwd, abs=1e-12, rel=1e-12)


class TestCurvatureImplicit:
    def test_circle_radius_two(self):
        c = curvature_implicit(parse("x^2+y^2-4"), 2.0, 0.0)
        assert c.value == pytest.approx(0.5, abs=1e-12)

    def test_line_is_flat(self):
        c = curvature_implicit(parse("3*x + 2*y - 6"), 2.0, 0.0)
        assert c.value == 0.0

    def test_ellipse_matches_parametric(self):
        w = parse("x^2/4 + y^2 - 1")
        c_imp = curvature_implicit(w, 2.0, 0.0)
        c_par = curvature_parametric(parse("2*cos(t)"), parse("sin(t)"), 0.0)
        assert abs(c_imp.value - abs(c_par.value)) <= 1e-10

    def test_off_curve_point_rejected(self):
        with pytest.raises(NotOnCurve):
            curvature_implicit(parse("x^2+y^2-4"), 1.0, 0.0)

    def test_singular_gradient_rejected(self):
        with pytest.raises(SingularGradient):
            curvature_implicit(parse("x^2+y^2"), 0.0, 0.0)


class TestMenger:
    def test_collinear(self):
        assert menger_curvature((0, 0), (1, 0), (2, 0)) == 0.0

    def test_unit_circumcircle(self):
        # perpendicular bisectors of these meet at the origin, radius 1
        assert menger_curvature((1, 0), (0, 1), (-1, 0)) == pytest.approx(
            1.0, abs=1e-14)

    def test_equilateral(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)]
        # circumradius of side-1 equilateral triangle is 1/sqrt(3)
        assert menger_curvature(*pts) == pytest.approx(math.sqrt(3.0),
                                                       abs=1e-12)

    def test_coincident_points(self):
        with pytest.raises(CoincidentPoints):
            menger_curvature((0, 0), (0, 0), (1, 1))

    @pytest.mark.parametrize("make_point,kappa", [
        # ellipse (2 cos t, sin t) at t=1: a*b/(a^2 sin^2 t + b^2 cos^2 t)^1.5
        (lambda t: (2.0 * math.cos(t), math.sin(t)),
         2.0 / (4.0 * math.sin(1.0) ** 2 + math.cos(1.0) ** 2) ** 1.5),
        (lambda t: (t, t * t), 2.0 / 5.0 ** 1.5),  # parabola at x=1
        (lambda t: (t, math.sin(t)),
         math.sin(1.0) / (1.0 + math.cos(1.0) ** 2) ** 1.5),
    ])
    def test_convergence_ratios_decrease(self, make_point, kappa):
        base = 1.0
        errors = []
        for h in (1e-2, 1e-3, 1e-4):
            m = menger_curvature(make_point(base - h), make_point(base),
                                 make_point(base + h))
            errors.append(abs(m - kappa))
        assert errors[0] > errors[1] > errors[2]


class TestOsculatingCircle:
    def test_circle_osculates_itself(self):
        curve = ParametricCurve(parse("2*cos(t)"), parse("2*sin(t)"))
        center, radius = osculating_circle(curve, 0.9)
        assert center == pytest.approx((0.0, 0.0), abs=1e-12)
        assert radius == pytest.approx(2.0, abs=1e-12)

    def test_parabola_vertex(self):
        center, radius = osculating_circle(GraphCurve(parse("x^2")), 0.0)
        assert center == pytest.approx((0.0, 0.5), abs=1e-14)
        assert radius == pytest.approx(0.5, abs=1e-14)

    def test_implicit_circle(self):
        curve = ImplicitCurve(parse("x^2+y^2-4"))
        center, radius = osculating_circle(curve, (0.0, 2.0))
        assert center == pytest.approx((0.0, 0.0), abs=1e-12)
        assert radius == pytest.approx(2.0, abs=1e-12)

    def test_line_degenerates(self):
        with pytest.raises(ZeroCurvature):
            osculating_circle(GraphCurve(parse("1+2*x")), 0.3)

    def test_implicit_line_degenerates(self):
        with pytest.raises(ZeroCurvature):
            osculating_circle(ImplicitCurve(parse("x+y-1")), (0.25, 0.75))

    def test_implicit_off_curve_point(self):
        with pytest.raises(NotOnCurve):
            osculating_circle(ImplicitCurve(parse("x^2+y^2-4")), (1.0, 1.0))

    def test_menger_of_bracketing_samples_converges(self):
        curve = GraphCurve(parse("sin(x)"))
        x0 = 0.8
        _, radius = osculating_circle(curve, x0)
        def point(x):
            return (x, math.sin(x))
        errors = [abs(menger_curvature(point(x0 - h), point(x0), point(x0 + h))
                      - 1.0 / radius)
                  for h in (1e-2, 1e-3, 1e-4)]
        assert errors[0] > errors[1] > errors[2]


class TestArclengthReparametrize:
    def test_unit_circle_is_already_unit_speed(self):
        curve = ParametricCurve(parse("cos(t)"), parse("sin(t)"))
        table = arclength_reparametrize(curve, 0.0, math.pi, 20)
        for s, t in table:
            assert s == pytest.approx(t, abs=1e-12)

    def test_straight_double_speed(self):
        curve = ParametricCurve(parse("2*t"), parse("0"))
        table = arclength_reparametrize(curve, 0.0, 1.0, 10)
        for s, t in table:
            assert s == pytest.approx(2.0 * t, abs=1e-12)

    def test_strictly_increasing_and_unit_speed(self):
        curve = ParametricCurve(parse("2*cos(t)"), parse("sin(t)"))
        table = arclength_reparametrize(curve, 0.0, math.pi / 2.0, 301)
        svals = [s for s, _ in table]
        tvals = [t for _, t in table]
        assert all(b > a for a, b in zip(svals, svals[1:]))
        # ds/dt from a 4th-order stencil on the table; the reparametrized
        # velocity (x', y')/(ds/dt) must have unit norm at the samples
        h = tvals[1] - tvals[0]
        for i in range(2, len(table) - 2):
            ds_dt = (-svals[i + 2] + 8.0 * svals[i + 1] - 8.0 * svals[i - 1]
                     + svals[i - 2]) / (12.0 * h)
            t = tvals[i]
            speed = math.hypot(-2.0 * math.sin(t), math.cos(t))
            assert abs(speed / ds_dt - 1.0) <= 1e-8

    def test_ellipse_quarter_matches_graph_arclength(self):
        curve = ParametricCurve(parse("2*cos(t)"), parse("sin(t)"))
        t0, t1 = 0.3, 1.2
        table = arclength_reparametrize(curve, t0, t1, 33)
        span = table[-1][0] - table[0][0]
        # the same arc, graphed as y = sqrt(1 - x^2/4) between the abscissas
        graph = GraphCurve(parse("sqrt(1 - x^2/4)"))
        expected = arc_length(graph, 2.0 * math.cos(t1), 2.0 * math.cos(t0),
                              order=16)
        assert span == pytest.approx(expected, abs=1e-9)

    def test_quarter_span_against_direct_quadrature(self):
        curve = ParametricCurve(parse("2*cos(t)"), parse("sin(t)"))
        table = arclength_reparametrize(curve, 0.0, math.pi / 2.0, 9)
        nodes, weights = quad.gauss_legendre(40)
        mid, half = math.pi / 4.0, math.pi / 4.0
        expected = sum(w * math.hypot(-2.0 * math.sin(mid + half * x),
                                      math.cos(mid + half * x)) * half
                       for x, w in zip(nodes, weights))
        assert table[-1][0] == pytest.approx(expected, abs=1e-9)

    def test_singular_curve_rejected(self):
        curve = ParametricCurve(parse("t^2"), parse("t^3"))
        with pytest.raises(SingularPoint):
            arclength_reparametrize(curve, -0.5, 0.5, 9)


class TestCrossRepresentation:
    def _agree(self, samples, tol=1e-9):
        for c_graph, c_param, c_impl in samples:
            assert abs(abs(c_graph) - abs(c_param)) <= tol
            assert abs(abs(c_param) - abs(c_impl)) <= tol

    def test_circle_all_three(self):
        graph = parse("sqrt(4-x^2)")
        w = parse("x^2+y^2-4")
        cx, cy = parse("2*cos(t)"), parse("2*sin(t)")
        samples = []
        for k in range(50):
            t = 0.1 + (math.pi - 0.2) * k / 49.0
            x, y = 2.0 * math.cos(t), 2.0 * math.sin(t)
            samples.append((curvature_graph(graph, x).value,
                            curvature_parametric(cx, cy, t).value,
                            curvature_implicit(w, x, y).value))
        self._agree(samples)

    def test_ellipse_all_three(self):
        graph = parse("sqrt(1-x^2/4)")
        w = parse("x^2/4+y^2-1")
        cx, cy = parse("2*cos(t)"), parse("sin(t)")
        samples = []
        for k in range(50):
            t = 0.1 + (math.pi - 0.2) * k / 49.0
            x, y = 2.0 * math.cos(t), math.sin(t)
            samples.append((curvature_graph(graph, x).value,
                            curvature_parametric(cx, cy, t).value,
                            curvature_implicit(w, x, y).value))
        self._agree(samples)

    def test_parabola_all_three(self):
        graph = parse("x^2")
        w = parse("y - x^2")
        cx, cy = parse("t"), parse("t^2")
        samples = []
        for k in range(50):
            t = -1.5 + 3.0 * k / 49.0
            samples.append((curvature_graph(graph, t).value,
                            curvature_parametric(cx, cy, t).value,
                            curvature_implicit(w, t, t * t).value))
        self._agree(samples)


def _nodes(ast):
    """The nodes of a tree, parents first."""
    yield ast
    for child in (getattr(ast, "child", None), getattr(ast, "left", None),
                  getattr(ast, "right", None)):
        if child is not None:
            yield from _nodes(child)


def _value_slot_is_exact(ast):
    """Whether a jet's value slot has the bits of the float walk: no
    division, and no power with a variable in its exponent."""
    return not any(
        isinstance(node, exprlang.Binary)
        and (node.op == "/" or node.op == "^" and any(
            isinstance(leaf, exprlang.Variable) for leaf in _nodes(node.right)))
        for node in _nodes(ast))


def _curve_rows(capsys, *argv):
    assert cli.main(["curve", *argv]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if not line.startswith("#")]
    return [tuple(map(float, line.split(","))) for line in lines[1:]]


def _assert_value(got, ast, bindings):
    want = exprlang.evaluate(ast, bindings)
    if _value_slot_is_exact(ast):
        assert got.hex() == want.hex()
    else:
        assert abs(got - want) <= 2.0 * math.ulp(max(abs(want), 1.0))


def _in_t(text):
    return re.sub(r"\bx\b", "t", text)


# each corpus expression as x(t), the next one as y(t), on both boxes; two
# even functions have zero velocity at t = 0, which an even number of
# points on a symmetric box steps over
PAIRS_1V = [(_in_t(x_text), _in_t(y_text), (max(xa, ya), min(xb, yb)))
            for (x_text, (xa, xb)), (y_text, (ya, yb))
            in zip(CORPUS_1V, CORPUS_1V[1:] + CORPUS_1V[:1])]


class TestCurveCommandColumns:
    """The `curve` command reads each row from one kernel call: x and y are
    the float walk's values, bit for bit where the value slot is exact and
    within 2 ulps elsewhere, and T, N and kappa are those of `frame_*` and
    `curvature_*` at the same t, bit for bit."""

    @pytest.mark.parametrize("text, box", CORPUS_1V)
    def test_graph(self, capsys, text, box):
        f = parse(text)
        rows = _curve_rows(capsys, "--graph", text,
                           "--range", f"{box[0]}:{box[1]}", "--n", "32")
        assert len(rows) == 32
        for t, x, y, *rest in rows:
            assert x == t
            _assert_value(y, f, {"x": t})
            frame = frame_graph(f, t)
            want = (*frame.T, *frame.N, curvature_graph(f, t).value)
            assert [v.hex() for v in rest] == [v.hex() for v in want]

    @pytest.mark.parametrize("x_text, y_text, box", PAIRS_1V)
    def test_parametric(self, capsys, x_text, y_text, box):
        cx, cy = parse(x_text), parse(y_text)
        rows = _curve_rows(capsys, "--parametric", x_text, y_text,
                           "--range", f"{box[0]}:{box[1]}", "--n", "32")
        assert len(rows) == 32
        for t, x, y, *rest in rows:
            _assert_value(x, cx, {"t": t})
            _assert_value(y, cy, {"t": t})
            frame = frame_parametric(cx, cy, t)
            want = (*frame.T, *frame.N,
                    curvature_parametric(cx, cy, t).value)
            assert [v.hex() for v in rest] == [v.hex() for v in want]
