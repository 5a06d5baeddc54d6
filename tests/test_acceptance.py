"""Acceptance criteria, one test per criterion, at the stated tolerances.

The terminal summary (see conftest) prints one PASS/FAIL line per
criterion after the run.
"""

import math
import random
import time

import pytest

from egregium import curves, geodesics, intrinsic, jets, quad, surfaces
from egregium.exprlang import evaluate, parse
from egregium.geodesics import (GeodesicState, RevolutionSurface,
                                clairaut_drift, integrate_geodesic,
                                triangle_excess)
from egregium.intrinsic import (MetricField, curvature_geodesic_polar,
                                curvature_isothermal, egregium_check,
                                flatness_residual, formula_egregia,
                                grid_points)
from egregium.surfaces import (GraphSurface, ParametricSurface,
                               euler_normal_section, gauss_curvature_graph,
                               gauss_curvature_implicit,
                               gauss_curvature_parametric, gauss_map_quotient,
                               principal_curvatures)

from conftest import (CORPUS_1V, CORPUS_2V, CORPUS_3V, eval_floats,
                      jet_eval_1, jet_eval_2, jet_eval_3, rel_err, sample)


def test_criterion_01_circle_three_representations():
    """Circle of radius 2 yields |c| = 0.5 in all three representations at
    50 points, agreement within 1e-9, in under a second."""
    t_start = time.monotonic()
    graph = parse("sqrt(4-x^2)")
    w = parse("x^2+y^2-4")
    cx, cy = parse("2*cos(t)"), parse("2*sin(t)")
    for k in range(50):
        t = 0.1 + (math.pi - 0.2) * k / 49.0
        x, y = 2.0 * math.cos(t), 2.0 * math.sin(t)
        c_graph = abs(curves.curvature_graph(graph, x).value)
        c_param = abs(curves.curvature_parametric(cx, cy, t).value)
        c_impl = abs(curves.curvature_implicit(w, x, y).value)
        for c in (c_graph, c_param, c_impl):
            assert abs(c - 0.5) <= 1e-9
        assert abs(c_graph - c_param) <= 1e-9
        assert abs(c_param - c_impl) <= 1e-9
    assert time.monotonic() - t_start < 1.0


def test_criterion_02_menger_convergence_at_parabola_vertex():
    """Menger curvature of symmetric parabola samples converges to 2 with
    observed order >= 1 across h = 1e-2, 1e-3, 1e-4."""
    errors = []
    for h in (1e-2, 1e-3, 1e-4):
        m = curves.menger_curvature((-h, h * h), (0.0, 0.0), (h, h * h))
        errors.append(abs(m - 2.0))
    order_12 = math.log10(errors[0] / errors[1])
    order_23 = math.log10(errors[1] / errors[2])
    assert order_12 >= 1.0
    assert order_23 >= 1.0


def test_criterion_03_sphere_triple_agreement():
    """Sphere of radius 2 as graph cap, implicit and parametric: all three
    curvature formulas give 0.25 within 1e-9 on shared points."""
    radius = 2.0
    graph = parse("sqrt(4 - x^2 - y^2)")
    w = parse("x^2 + y^2 + z^2 - 4")
    param = ParametricSurface(parse("2*sin(p)*cos(q)"),
                              parse("2*sin(p)*sin(q)"), parse("2*cos(p)"))
    for k in range(50):
        p = 0.1 + 0.9 * k / 49.0
        q = 0.05 + 6.2 * k / 49.0
        x = radius * math.sin(p) * math.cos(q)
        y = radius * math.sin(p) * math.sin(q)
        z = radius * math.cos(p)
        k_graph = gauss_curvature_graph(graph, x, y)
        k_impl = gauss_curvature_implicit(w, x, y, z)
        k_param = gauss_curvature_parametric(param, p, q)
        for value in (k_graph, k_impl, k_param):
            assert abs(value - 0.25) <= 1e-9


def test_criterion_04_theorema_egregium_catenoid_helicoid():
    """Catenoid/helicoid isometric pair: metric residuals <= 1e-10 and
    intrinsic-vs-extrinsic curvature defect <= 1e-8 on a 20x20 grid, with
    kappa = -1/cosh(p)^4 verified at 10 spot points."""
    catenoid = ParametricSurface(parse("cosh(p)*cos(q)"),
                                 parse("cosh(p)*sin(q)"), parse("p"))
    helicoid = ParametricSurface(parse("sinh(p)*cos(q)"),
                                 parse("sinh(p)*sin(q)"), parse("q"))
    grid = grid_points((-1.0, 1.0), (0.0, 2.0 * math.pi * 0.999), 20, 20)
    report = egregium_check(catenoid, helicoid, grid,
                            tol_metric=1e-10, tol_kappa=1e-8)
    assert report.residuals.max <= 1e-10
    assert report.max_defect <= 1e-8
    induced = MetricField.from_surface(catenoid)
    for k in range(10):
        p = -0.9 + 1.8 * k / 9.0
        got = formula_egregia(induced, p, 0.37 + k)
        assert abs(got - (-1.0 / math.cosh(p) ** 4)) <= 1e-10


def test_criterion_05_bridge_identity():
    """flatness_residual = 4 (EG - F^2)^2 kappa within 1e-8 relative on the
    sphere, hyperbolic, cone and three random polynomial metrics, 100
    points each."""
    rng = random.Random(271828)

    def poly():
        c = [rng.uniform(-0.08, 0.08) for _ in range(5)]
        return (f"({c[0]!r})*u + ({c[1]!r})*v + ({c[2]!r})*u*v"
                f" + ({c[3]!r})*u^2 + ({c[4]!r})*v^2")

    cases = [
        (MetricField.from_expressions("1", "0", "sin(u)^2"),
         ((0.3, 2.8), (0.0, 6.28))),
        (MetricField.from_expressions("(2/(1-u^2-v^2))^2", "0",
                                      "(2/(1-u^2-v^2))^2"),
         ((-0.6, 0.6), (-0.6, 0.6))),
        (MetricField.from_expressions("1", "0", "0.25*u^2"),
         ((0.2, 2.0), (0.0, 6.28))),
    ]
    for _ in range(3):
        cases.append((MetricField.from_expressions(
            f"1 + {poly()}", f"0 + {poly()}", f"1 + {poly()}"),
            ((-0.8, 0.8), (-0.8, 0.8))))

    for metric, box in cases:
        for _ in range(100):
            u = rng.uniform(*box[0])
            v = rng.uniform(*box[1])
            residual = flatness_residual(metric, u, v)
            disc = metric.at(u, v).disc
            bridged = 4.0 * disc * disc * formula_egregia(metric, u, v)
            assert abs(residual - bridged) <= 1e-8 * max(1.0, abs(residual))


def test_criterion_06_special_coordinate_forms():
    """Isothermal (stereographic sphere, Poincare disk) and geodesic-polar
    (sin^2 p, sinh^2 p) formulas each match the general expression within
    1e-9 and hit their constant-curvature targets."""
    # stereographic sphere of radius 2: kappa = 1/4
    lam = parse("2*4/(4+u^2+v^2)")
    m_sphere = MetricField.from_expressions("(2*4/(4+u^2+v^2))^2", "0",
                                            "(2*4/(4+u^2+v^2))^2")
    # Poincare disk: kappa = -1
    mu = parse("2/(1-u^2-v^2)")
    m_disk = MetricField.from_expressions("(2/(1-u^2-v^2))^2", "0",
                                          "(2/(1-u^2-v^2))^2")
    for (u, v) in ((0.0, 0.0), (0.3, 0.1), (-0.4, 0.5), (0.2, -0.2)):
        iso = curvature_isothermal(lam, u, v)
        assert abs(iso - 0.25) <= 1e-9
        assert abs(iso - formula_egregia(m_sphere, u, v)) <= 1e-9
        disk = curvature_isothermal(mu, u, v)
        assert abs(disk - (-1.0)) <= 1e-9
        assert abs(disk - formula_egregia(m_disk, u, v)) <= 1e-9

    g_sin = parse("sin(p)^2")
    m_sin = MetricField.from_expressions("1", "0", "sin(u)^2")
    g_sinh = parse("sinh(p)^2")
    m_sinh = MetricField.from_expressions("1", "0", "sinh(u)^2")
    for p in (0.4, 0.7, 1.0, 1.4):
        polar = curvature_geodesic_polar(g_sin, p, 0.2)
        assert abs(polar - 1.0) <= 1e-9
        assert abs(polar - formula_egregia(m_sin, p, 0.2)) <= 1e-9
        polar_h = curvature_geodesic_polar(g_sinh, p, 0.2)
        assert abs(polar_h - (-1.0)) <= 1e-9
        assert abs(polar_h - formula_egregia(m_sinh, p, 0.2)) <= 1e-9


def test_criterion_07_gauss_map_quotient_definition():
    """Area quotient through the normal map at eps = 1e-2 matches the
    closed-form curvature within 5 percent on sphere, paraboloid and
    saddle, and the defect shrinks at eps = 1e-3."""
    sphere = ParametricSurface(parse("2*sin(p)*cos(q)"),
                               parse("2*sin(p)*sin(q)"), parse("2*cos(p)"))
    paraboloid = GraphSurface(parse("(x^2+y^2)/2"))
    saddle = GraphSurface(parse("x*y"))
    cases = [
        (sphere, (1.0, 0.5), 0.25),
        (paraboloid, (0.3, 0.2), 1.0 / (1.0 + 0.09 + 0.04) ** 2),
        (saddle, (0.0, 0.0), -1.0),
    ]
    for surf, (p, q), kappa in cases:
        coarse = gauss_map_quotient(surf, p, q, 1e-2)
        fine = gauss_map_quotient(surf, p, q, 1e-3)
        assert abs(coarse - kappa) <= 0.05 * abs(kappa)
        assert abs(fine - kappa) < abs(coarse - kappa)


def test_criterion_08_gauss_bonnet_totals():
    """Total curvature: full sphere = 4 pi and full torus = 0, both within
    1e-6, in under five seconds."""
    t_start = time.monotonic()
    sphere = MetricField.from_expressions("1", "0", "sin(u)^2")
    result = quad.integrate(
        sphere, lambda u, v: formula_egregia(sphere, u, v),
        quad.Rect(1e-4, math.pi - 1e-4, 0.0, 2.0 * math.pi), order=48)
    assert abs(result.value - 4.0 * math.pi) <= 1e-6

    torus = MetricField.from_expressions("1", "0", "(2+cos(u))^2")
    result = quad.integrate(
        torus, lambda u, v: formula_egregia(torus, u, v),
        quad.Rect(0.0, 2.0 * math.pi, 0.0, 2.0 * math.pi), order=48)
    assert abs(result.value) <= 1e-6
    assert time.monotonic() - t_start < 5.0


def test_criterion_09_triangle_excess():
    """Unit-sphere octant: excess and integral both pi/2 within 1e-3; flat
    triangle: both zero within 1e-10.  Under ten seconds with shooting."""
    t_start = time.monotonic()
    sphere = MetricField.from_expressions("(2/(1+u^2+v^2))^2", "0",
                                          "(2/(1+u^2+v^2))^2")
    excess, integral = triangle_excess(sphere, (0.0, 0.0), (1.0, 0.0),
                                       (0.0, 1.0))
    assert abs(excess - math.pi / 2.0) <= 1e-3
    assert abs(integral - math.pi / 2.0) <= 1e-3

    flat = MetricField.from_expressions("1", "0", "1")
    excess_f, integral_f = triangle_excess(flat, (0.0, 0.0), (0.8, 0.1),
                                           (0.2, 0.7))
    assert abs(excess_f) <= 1e-10
    assert abs(integral_f) <= 1e-10
    assert time.monotonic() - t_start < 10.0


def test_criterion_10_clairaut_relation():
    """r sin(theta) drifts by at most 1e-5 over geodesic length 10 on the
    sphere and the torus."""
    sphere_surf = ParametricSurface(parse("sin(p)*cos(q)"),
                                    parse("sin(p)*sin(q)"), parse("cos(p)"))
    rev = RevolutionSurface(sphere_surf, parse("sin(p)"))
    metric = MetricField.from_surface(sphere_surf)
    ang = math.pi / 6.0
    path = integrate_geodesic(
        metric,
        GeodesicState(math.pi / 2.0, 0.0, math.cos(ang), math.sin(ang)),
        10.0, 1e-3)
    assert clairaut_drift(rev, path) <= 1e-5

    torus_surf = ParametricSurface(parse("(2+cos(p))*cos(q)"),
                                   parse("(2+cos(p))*sin(q)"),
                                   parse("sin(p)"))
    rev_t = RevolutionSurface(torus_surf, parse("2+cos(p)"))
    metric_t = MetricField.from_surface(torus_surf)
    path_t = integrate_geodesic(
        metric_t, GeodesicState(0.4, 0.0, 0.5, 0.25), 10.0, 1e-3)
    assert clairaut_drift(rev_t, path_t) <= 1e-5


def test_criterion_11_mean_curvature_witness():
    """Catenoid mean curvature vanishes (<= 1e-9) at every grid sample;
    Euler's normal-section endpoints and the umbilic case hold exactly."""
    catenoid = ParametricSurface(parse("cosh(p)*cos(q)"),
                                 parse("cosh(p)*sin(q)"), parse("p"))
    for (p, q) in grid_points((-1.0, 1.0), (0.0, 2.0 * math.pi), 12, 12):
        pc = principal_curvatures(catenoid, p, q)
        assert abs(pc.mean) <= 1e-9

    assert euler_normal_section(2.0, 0.5, 0.0) == 2.0
    assert euler_normal_section(2.0, 0.5, math.pi / 2.0) == pytest.approx(
        0.5, abs=1e-15)
    for theta in (0.0, 0.4, 1.1, 2.0):
        assert euler_normal_section(0.7, 0.7, theta) == pytest.approx(
            0.7, abs=1e-15)


def test_criterion_12_ad_soundness():
    """Jet first/second partials agree with central differences within
    1e-7 / 1e-4 relative across the whole expression corpus at 100 random
    points."""
    rng = random.Random(314159)
    for text, box in CORPUS_1V:
        for _ in range(100):
            x = sample(rng, box)
            _, d1, d2 = jet_eval_1(text, x)
            _, fd1, fd2 = jets.fd_oracle(lambda t: eval_floats(text, x=t), x,
                                         1e-4)
            assert rel_err(d1, fd1) <= 1e-7
            assert rel_err(d2, fd2) <= 1e-4
    for text, boxes in CORPUS_2V:
        for _ in range(100):
            x, y = sample(rng, boxes[0]), sample(rng, boxes[1])
            jet = jet_eval_2(text, x, y)
            fd = jets.fd_oracle(lambda a, b: eval_floats(text, x=a, y=b),
                                (x, y), 1e-4)
            for name in ("du", "dv"):
                assert rel_err(getattr(jet, name), getattr(fd, name)) <= 1e-7
            for name in ("duu", "duv", "dvv"):
                assert rel_err(getattr(jet, name), getattr(fd, name)) <= 1e-4
    for text, boxes in CORPUS_3V:
        for _ in range(100):
            x, y, z = (sample(rng, b) for b in boxes)
            jet = jet_eval_3(text, x, y, z)
            fd = jets.fd_oracle(
                lambda a, b, c: eval_floats(text, x=a, y=b, z=c),
                (x, y, z), 1e-4)
            # (v, dx, dy, dz, dxx, dxy, dxz, dyy, dyz, dzz)
            for i in (1, 2, 3):
                assert rel_err(jet[i], fd[i]) <= 1e-7
            for i in range(4, 10):
                assert rel_err(jet[i], fd[i]) <= 1e-4
