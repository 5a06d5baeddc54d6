"""Quadrature of scalar fields against the metric area element."""

import math
import struct

import pytest

from egregium import catalog, geodesics, intrinsic, quad
from egregium.errors import DegenerateMetric, InputError, RegionNotSimple
from egregium.intrinsic import MetricField, formula_egregia
from egregium.quad import Rect, StarRegion, integrate

FLAT = MetricField.from_expressions("1", "0", "1")
SPHERE = MetricField.from_expressions("1", "0", "sin(u)^2")
TORUS = MetricField.from_expressions("1", "0", "(2+cos(u))^2")


def kappa_field(metric):
    return lambda u, v: formula_egregia(metric, u, v)


class TestRect:
    def test_flat_area(self):
        result = integrate(FLAT, lambda u, v: 1.0, Rect(0, 2, 0, 3), order=8)
        assert result.value == pytest.approx(6.0, abs=1e-12)

    def test_empty_rect_rejected(self):
        with pytest.raises(InputError):
            Rect(1.0, 1.0, 0.0, 1.0)

    def test_sphere_total_curvature(self):
        result = integrate(SPHERE, kappa_field(SPHERE),
                           Rect(1e-5, math.pi - 1e-5, 0.0, 2.0 * math.pi),
                           order=48)
        assert result.value == pytest.approx(4.0 * math.pi, abs=1e-6)

    def test_torus_total_curvature_cancels(self):
        result = integrate(TORUS, kappa_field(TORUS),
                           Rect(0.0, 2.0 * math.pi, 0.0, 2.0 * math.pi),
                           order=48)
        assert abs(result.value) <= 1e-6

    def test_additivity(self):
        field = lambda u, v: math.sin(u) * math.exp(v / 3.0)
        whole = integrate(FLAT, field, Rect(0, 2, 0, 1), order=32).value
        left = integrate(FLAT, field, Rect(0, 0.8, 0, 1), order=32).value
        right = integrate(FLAT, field, Rect(0.8, 2, 0, 1), order=32).value
        assert abs(whole - (left + right)) <= 1e-10

    def test_order_convergence_monotone(self):
        field = lambda u, v: math.cos(3.0 * u) * math.sin(2.0 * v) + 1.0
        reference = integrate(FLAT, field, Rect(0, 2, 0, 2), order=64).value
        errors = [abs(integrate(FLAT, field, Rect(0, 2, 0, 2), order=n).value
                      - reference) for n in (4, 8, 16)]
        assert errors[0] > errors[1] > errors[2]

    def test_error_estimate_bounds_refinement(self):
        field = lambda u, v: math.cos(3.0 * u) * math.sin(2.0 * v) + 1.0
        res = integrate(FLAT, field, Rect(0, 2, 0, 2), order=16)
        doubled = integrate(FLAT, field, Rect(0, 2, 0, 2), order=32)
        assert abs(doubled.value - res.value) <= res.error + 1e-15

    def test_pole_cutoff_convergence(self):
        errors = []
        for delta in (1e-3, 1e-4, 1e-5):
            res = integrate(SPHERE, kappa_field(SPHERE),
                            Rect(delta, math.pi - delta, 0.0, 2.0 * math.pi),
                            order=32)
            errors.append(abs(res.value - 4.0 * math.pi))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] <= 1e-8


def segment(a, b):
    """The straight side from a to b, as a star region takes it."""
    du, dv = b[0] - a[0], b[1] - a[1]
    return lambda t: (a[0] + t * du, a[1] + t * dv, du, dv)


def polygon(*vertices):
    return StarRegion(tuple(segment(a, b) for a, b in
                            zip(vertices, vertices[1:] + vertices[:1])))


class TestStarRegion:
    @pytest.mark.parametrize("vertices", [
        ((0.0, 0.0), (2.0, 0.0), (0.0, 3.0)),
        ((0.3, -0.2), (1.7, 0.4), (-0.5, 2.9)),
    ])
    def test_flat_triangle_area(self, vertices):
        (ax, ay), (bx, by), (cx, cy) = vertices
        shoelace = 0.5 * abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
        for corners in (vertices, vertices[::-1]):
            result = integrate(FLAT, lambda u, v: 1.0, polygon(*corners),
                               order=16)
            assert abs(result.value - shoelace) <= 1e-14

    def test_polynomial_exactness(self):
        # integral of u^2 v^2 (degree 4) over the reference triangle: 1/180;
        # a ray carries r times a quartic in r, which 3 nodes integrate
        region = polygon((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        result = integrate(FLAT, lambda u, v: u * u * v * v, region, order=6)
        assert result.value == pytest.approx(1.0 / 180.0, abs=1e-15)

    def test_circular_arc_converges_to_the_sector(self):
        # the sector of radius 1.5 between angles 0 and 1.2: two radii and
        # an arc, star-shaped about the centroid of its three corners
        radius, angle = 1.5, 1.2

        def arc(t):
            c, s = math.cos(angle * t), math.sin(angle * t)
            return (radius * c, radius * s, -radius * angle * s,
                    radius * angle * c)
        corner = (radius * math.cos(angle), radius * math.sin(angle))
        region = StarRegion((segment((0.0, 0.0), (radius, 0.0)), arc,
                             segment(corner, (0.0, 0.0))))
        sector = 0.5 * angle * radius ** 2
        errors = [abs(integrate(FLAT, lambda u, v: 1.0, region,
                                order=n).value - sector)
                  for n in (2, 4, 8)]
        assert errors[0] > errors[1] > errors[2]
        assert integrate(FLAT, lambda u, v: 1.0, region,
                         order=16).value == pytest.approx(sector, abs=1e-14)

    def test_square_matches_rect(self):
        region = polygon((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
        field = lambda u, v: math.sin(u + 2.0 * v)
        got = integrate(FLAT, field, region, order=16).value
        want = integrate(FLAT, field, Rect(0, 1, 0, 1), order=32).value
        assert got == pytest.approx(want, abs=1e-12)

    def test_not_star_shaped_rejected(self, metric_calls):
        # an arrowhead: the reflex corner (0.2, 0.2) hides the side from
        # (2, 0) to it from the centroid (0.55, 0.55)
        region = polygon((0.0, 0.0), (2.0, 0.0), (0.2, 0.2), (0.0, 2.0))
        with pytest.raises(RegionNotSimple):
            integrate(SPHERE, kappa_field(SPHERE), region, order=16,
                      grid_field=intrinsic.kappa_from_metric)
        assert metric_calls == {"at": 0, "grid": 0}

    def test_metric_area_element(self):
        # hyperbolic area of a chart triangle vs an independent composite
        # Simpson evaluation of the same double integral
        hyper = MetricField.from_expressions("(2/(1-u^2-v^2))^2", "0",
                                             "(2/(1-u^2-v^2))^2")
        region = polygon((0.0, 0.0), (0.3, 0.0), (0.0, 0.3))
        got = integrate(hyper, lambda u, v: 1.0, region, order=16).value

        def lam2(u, v):
            return (2.0 / (1.0 - u * u - v * v)) ** 2

        def simpson(f, a, b, n):
            h = (b - a) / n
            acc = f(a) + f(b)
            for i in range(1, n):
                acc += f(a + i * h) * (4.0 if i % 2 else 2.0)
            return acc * h / 3.0

        want = simpson(
            lambda u: simpson(lambda v: lam2(u, v), 0.0, 0.3 - u, 200),
            0.0, 0.3, 200)
        assert got == pytest.approx(want, rel=1e-8)


# --- all nodes of a pass at once ---------------------------------------------

def _bits(result):
    return struct.pack("dd", result.value, result.error)


def _outcome(fn):
    try:
        return _bits(fn())
    except Exception as exc:
        return (type(exc), str(exc))


@pytest.fixture
def metric_calls(monkeypatch):
    """Calls of MetricField.at and MetricField.grid."""
    calls = {"at": 0, "grid": 0}
    for name in calls:
        original = getattr(MetricField, name)

        def counting(self, u, v, name=name, original=original):
            calls[name] += 1
            return original(self, u, v)
        monkeypatch.setattr(MetricField, name, counting)
    return calls


FULL = 2.0 * math.pi


class TestGridPath:
    """With `grid_field` a pass evaluates its nodes through MetricField.grid
    and keeps the bits of the node-by-node pass, value and error."""

    @pytest.mark.parametrize("name, region", [
        ("sphere_metric", Rect(1e-4, math.pi - 1e-4, 0.0, FULL)),
        ("torus_metric", Rect(0.0, FULL, 0.0, FULL)),
        ("torus", Rect(0.0, FULL, 0.0, FULL)),
        (("exp(u*v)", "0.3*sin(u)", "1+u^2"), Rect(-0.5, 0.7, -0.6, 0.4)),
    ])
    @pytest.mark.parametrize("order", [7, 32])
    def test_gauss_bonnet_bits_equal_node_by_node(self, metric_calls, name,
                                                  region, order):
        metric = (MetricField.from_expressions(*name) if isinstance(name, tuple)
                  else catalog.build_metric(catalog.lookup(name)))
        field = kappa_field(metric)
        got = integrate(metric, field, region, order=order,
                        grid_field=intrinsic.kappa_from_metric)
        assert metric_calls == {"at": 0, "grid": 2}
        want = integrate(metric, field, region, order=order)
        assert metric_calls["grid"] == 2 and metric_calls["at"] > 0
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("name, vertices", [
        ("sphere_isothermal", ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5))),
        ("hyperbolic_disk", ((0.1, 0.0), (0.4, 0.1), (0.0, 0.3))),
    ])
    def test_excess_integral_bits_equal_node_by_node(self, monkeypatch, name,
                                                     vertices):
        metric = catalog.build_metric(catalog.lookup(name))
        triangle = geodesics.build_triangle(metric, *vertices)
        got = geodesics.excess_from_triangle(metric, triangle)
        monkeypatch.setattr(MetricField, "grid", lambda self, u, v: None)
        want = geodesics.excess_from_triangle(metric, triangle)
        assert struct.pack("dd", *got) == struct.pack("dd", *want)

    def test_chunks_keep_the_bits(self, monkeypatch, metric_calls):
        monkeypatch.setattr(quad, "GRID_CHUNK", 10)
        region = Rect(0.0, FULL, 0.0, FULL)
        got = integrate(TORUS, kappa_field(TORUS), region, order=7,
                        grid_field=intrinsic.kappa_from_metric)
        # 49 nodes in five chunks, then the 9 of the half order in one
        assert metric_calls == {"at": 0, "grid": 6}
        want = integrate(TORUS, kappa_field(TORUS), region, order=7)
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("chunk", [quad.GRID_CHUNK, 2])
    def test_degenerate_node_raises_the_node_by_node_error(
            self, monkeypatch, metric_calls, chunk):
        # E = u^2 + v^2 vanishes at the centre node of the 3-point rule
        # only, the fifth node, which is in the third chunk of two
        monkeypatch.setattr(quad, "GRID_CHUNK", chunk)
        metric = MetricField.from_expressions("u^2+v^2", "0", "1")
        region = Rect(-1.0, 1.0, -1.0, 1.0)

        def run(grid_field):
            return integrate(metric, kappa_field(metric), region, order=3,
                             grid_field=grid_field)
        got = _outcome(lambda: run(intrinsic.kappa_from_metric))
        assert metric_calls["grid"] == (1 if chunk > 9 else 3)
        assert got == _outcome(lambda: run(None))
        assert got == (DegenerateMetric,
                       "metric not positive definite at (0.0, 0.0): "
                       "E=0.0, F=0.0, G=1.0")
