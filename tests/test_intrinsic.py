"""Intrinsic curvature: the closed-form expression in E, F, G, the special
coordinate forms, the flatness criterion with its bridge identity, and
isometry verification."""

import math
import struct

import pytest

from egregium import intrinsic, jets, surfaces
from egregium.errors import DegenerateMetric, DomainError, NotIsometric
from egregium.exprlang import parse
from egregium.intrinsic import (MetricField, curvature_geodesic_polar,
                                curvature_isothermal, egregium_check,
                                flatness_residual, formula_egregia,
                                grid_points, verify_isometry)
from egregium.surfaces import ParametricSurface, gauss_curvature_parametric


def metric(e, f, g):
    return MetricField.from_expressions(e, f, g)


SPHERE_METRIC = metric("1", "0", "sin(u)^2")
HYPERBOLIC = metric("(2/(1-u^2-v^2))^2", "0", "(2/(1-u^2-v^2))^2")
CONE = metric("1", "0", "0.25*u^2")

CATENOID = ParametricSurface(parse("cosh(p)*cos(q)"),
                             parse("cosh(p)*sin(q)"), parse("p"))
HELICOID = ParametricSurface(parse("sinh(p)*cos(q)"),
                             parse("sinh(p)*sin(q)"), parse("q"))


class TestFormulaEgregia:
    def test_flat_metric(self):
        assert formula_egregia(metric("1", "0", "1"), 0.3, 0.7) == 0.0

    def test_sphere_metric_radius_two(self):
        m = metric("4", "0", "4*sin(u)^2")
        assert formula_egregia(m, math.pi / 3.0, 0.3) == pytest.approx(
            0.25, abs=1e-12)

    def test_exponential_metric(self, rng):
        m = metric("1", "0", "exp(2*u)")
        for _ in range(10):
            u, v = rng.uniform(-1, 1), rng.uniform(0, 1)
            got = formula_egregia(m, u, v)
            polar = curvature_geodesic_polar(parse("exp(2*p)"), u, v)
            assert got == pytest.approx(-1.0, abs=1e-12)
            assert got == pytest.approx(polar, abs=1e-12)

    def test_matches_extrinsic_on_induced_metric(self, rng):
        induced = MetricField.from_surface(CATENOID)
        for _ in range(10):
            p, q = rng.uniform(-1, 1), rng.uniform(0, 6.28)
            k_int = formula_egregia(induced, p, q)
            k_ext = gauss_curvature_parametric(CATENOID, p, q)
            assert abs(k_int - k_ext) <= 1e-12

    def test_degenerate_metric_rejected(self):
        with pytest.raises(DegenerateMetric):
            formula_egregia(metric("1", "1", "1"), 0.0, 0.0)

    def test_pq_spelling_accepted(self):
        m = metric("1", "0", "sin(p)^2")
        assert formula_egregia(m, 1.0, 0.2) == pytest.approx(1.0, abs=1e-12)


class TestIsothermal:
    def test_constant_factor_is_flat(self):
        assert curvature_isothermal(parse("3"), 0.2, 0.4) == 0.0

    def test_stereographic_sphere(self):
        lam = parse("2/(1+u^2+v^2)")
        got = curvature_isothermal(lam, 0.0, 0.0)
        assert got == pytest.approx(1.0, abs=1e-12)
        m = metric("(2/(1+u^2+v^2))^2", "0", "(2/(1+u^2+v^2))^2")
        assert formula_egregia(m, 0.0, 0.0) == pytest.approx(got, abs=1e-9)

    def test_hyperbolic_disk(self):
        lam = parse("2/(1-u^2-v^2)")
        got = curvature_isothermal(lam, 0.3, 0.1)
        assert got == pytest.approx(-1.0, abs=1e-12)
        assert formula_egregia(HYPERBOLIC, 0.3, 0.1) == pytest.approx(
            got, abs=1e-9)

    def test_agrees_with_general_formula(self, rng):
        lam = parse("1 + u^2/4 + exp(v/2)")
        lam2 = parse("(1 + u^2/4 + exp(v/2))^2")
        m = MetricField(lam2, parse("0"), lam2)
        for _ in range(10):
            u, v = rng.uniform(-1, 1), rng.uniform(-1, 1)
            assert curvature_isothermal(lam, u, v) == pytest.approx(
                formula_egregia(m, u, v), abs=1e-9, rel=1e-9)

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(DomainError):
            curvature_isothermal(parse("u"), -1.0, 0.0)


class TestGeodesicPolar:
    def test_euclidean_polar(self):
        assert curvature_geodesic_polar(parse("p^2"), 1.3, 0.4) == pytest.approx(
            0.0, abs=1e-14)

    def test_sphere(self):
        got = curvature_geodesic_polar(parse("sin(p)^2"), 1.0, 0.0)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_hyperbolic(self):
        got = curvature_geodesic_polar(parse("sinh(p)^2"), 0.7, 0.0)
        assert got == pytest.approx(-1.0, abs=1e-12)

    def test_agrees_with_general_formula(self, rng):
        g = parse("sin(p)^2")
        m = metric("1", "0", "sin(u)^2")
        for _ in range(10):
            p = rng.uniform(0.3, 2.8)
            assert curvature_geodesic_polar(g, p, 0.1) == pytest.approx(
                formula_egregia(m, p, 0.1), abs=1e-9)

    def test_nonpositive_g_rejected(self):
        with pytest.raises(DomainError):
            curvature_geodesic_polar(parse("p"), -2.0, 0.0)


def random_polynomial_metric(rng):
    """Small positive-definite perturbation of the flat metric."""
    def poly():
        c = [rng.uniform(-0.08, 0.08) for _ in range(5)]
        return (f"({c[0]!r})*u + ({c[1]!r})*v + ({c[2]!r})*u*v"
                f" + ({c[3]!r})*u^2 + ({c[4]!r})*v^2")
    return metric(f"1 + {poly()}", f"0 + {poly()}", f"1 + {poly()}")


class TestFlatness:
    def test_plane_metric(self):
        assert flatness_residual(metric("1", "0", "1"), 0.1, 0.2) == 0.0

    def test_cone_metric_is_flat(self, rng):
        for _ in range(20):
            u = rng.uniform(0.2, 2.0)
            v = rng.uniform(0.0, 6.0)
            assert abs(flatness_residual(CONE, u, v)) <= 1e-12
            assert abs(curvature_geodesic_polar(parse("0.25*p^2"), u, v)) \
                <= 1e-12

    def test_sphere_residual_value(self):
        # residual = 4 (EG - F^2)^2 kappa with kappa = 1
        got = flatness_residual(SPHERE_METRIC, math.pi / 4.0, 0.0)
        want = 4.0 * math.sin(math.pi / 4.0) ** 4
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("name,make,box", [
        ("sphere", lambda rng: SPHERE_METRIC, ((0.3, 2.8), (0.0, 6.28))),
        ("hyperbolic", lambda rng: HYPERBOLIC, ((-0.6, 0.6), (-0.6, 0.6))),
        ("cone", lambda rng: CONE, ((0.2, 2.0), (0.0, 6.28))),
        ("poly0", random_polynomial_metric, ((-0.8, 0.8), (-0.8, 0.8))),
        ("poly1", random_polynomial_metric, ((-0.8, 0.8), (-0.8, 0.8))),
        ("poly2", random_polynomial_metric, ((-0.8, 0.8), (-0.8, 0.8))),
    ])
    def test_bridge_identity(self, name, make, box, rng):
        m = make(rng)
        for _ in range(100):
            u = rng.uniform(*box[0])
            v = rng.uniform(*box[1])
            residual = flatness_residual(m, u, v)
            mj = m.at(u, v)
            bridged = 4.0 * mj.disc ** 2 * formula_egregia(m, u, v)
            assert abs(residual - bridged) <= 1e-8 * max(1.0, abs(residual))


class TestMetricField:
    def test_induced_partials_match_fd(self, rng):
        induced = MetricField.from_surface(CATENOID)

        def entry(which):
            def value(p, q):
                mj = induced.at(p, q)
                return getattr(mj, which)
            return value

        for _ in range(5):
            p, q = rng.uniform(-1, 1), rng.uniform(0, 6.28)
            mj = induced.at(p, q)
            for which, slots in (("E", ("Eu", "Ev")), ("F", ("Fu", "Fv")),
                                 ("G", ("Gu", "Gv"))):
                fd = jets.fd_oracle(entry(which), (p, q), 1e-4)
                for slot, fd_val in zip(slots, (fd.du, fd.dv)):
                    got = getattr(mj, slot)
                    assert abs(got - fd_val) <= 1e-4 * max(1.0, abs(fd_val))

    def test_induced_bracket_matches_fd(self, rng):
        # -E_vv + 2 F_uv - G_uu assembled from second differences of the
        # metric entries
        induced = MetricField.from_surface(CATENOID)
        for _ in range(5):
            p, q = rng.uniform(-0.8, 0.8), rng.uniform(0.5, 5.5)
            mj = induced.at(p, q)
            fd_e = jets.fd_oracle(lambda a, b: induced.at(a, b).E, (p, q), 1e-4)
            fd_f = jets.fd_oracle(lambda a, b: induced.at(a, b).F, (p, q), 1e-4)
            fd_g = jets.fd_oracle(lambda a, b: induced.at(a, b).G, (p, q), 1e-4)
            want = -fd_e.dvv + 2.0 * fd_f.duv - fd_g.duu
            assert abs(mj.bracket - want) <= 1e-4 * max(1.0, abs(want))

    def test_positive_definiteness_enforced(self):
        with pytest.raises(DegenerateMetric):
            metric("1", "0", "u").at(-0.5, 0.0)

    @pytest.mark.parametrize("field", [
        SPHERE_METRIC, HYPERBOLIC, CONE, metric("1", "1", "1"),
        metric("exp(u*v)", "0.3*sin(u)", "1+u^2"),
        MetricField.from_surface(CATENOID)])
    def test_first_order_is_the_first_nine_fields_of_at(self, field):
        # the points reach both the regular and the degenerate cases
        for u, v in ((0.3, 0.2), (-0.4, 1.1), (0.9, -0.6), (1.2, 0.5),
                     (0.0, 0.0)):
            try:
                want = struct.pack("9d", *field.at(u, v)[:9])
            except DegenerateMetric as exc:
                with pytest.raises(DegenerateMetric) as err:
                    field.first_order(u, v)
                assert str(err.value) == str(exc)
                continue
            assert struct.pack("9d", *field.first_order(u, v)) == want
            assert struct.pack("3d", *field.values(u, v)) == want[:24]


class TestVerifyIsometry:
    def test_plane_and_unrolled_cylinder(self):
        plane = ParametricSurface(parse("p"), parse("q"), parse("0"))
        cylinder = ParametricSurface(parse("cos(p)"), parse("sin(p)"),
                                     parse("q"))
        grid = grid_points((0.0, 6.0), (-1.0, 1.0), 8, 8)
        res = verify_isometry(plane, cylinder, grid)
        assert res.max <= 1e-12

    def test_catenoid_helicoid(self):
        grid = grid_points((-1.0, 1.0), (0.0, 6.28), 8, 8)
        res = verify_isometry(CATENOID, HELICOID, grid)
        assert res.max <= 1e-10

    def test_sphere_vs_plane_not_isometric(self):
        plane = ParametricSurface(parse("p"), parse("q"), parse("0"))
        ball = ParametricSurface(parse("sin(p)*cos(q)"),
                                 parse("sin(p)*sin(q)"), parse("cos(p)"))
        grid = grid_points((0.5, 1.5), (0.5, 1.5), 5, 5)
        res = verify_isometry(plane, ball, grid)
        assert res.max > 0.1


class TestEgregiumCheck:
    def test_plane_cylinder_pair(self):
        plane = ParametricSurface(parse("p"), parse("q"), parse("0"))
        cylinder = ParametricSurface(parse("cos(p)"), parse("sin(p)"),
                                     parse("q"))
        grid = grid_points((0.0, 6.0), (-1.0, 1.0), 6, 6)
        report = egregium_check(plane, cylinder, grid)
        assert report.max_defect <= 1e-10
        for (_, _, k_int, k_ext, _) in report.rows:
            assert abs(k_int) <= 1e-12 and abs(k_ext) <= 1e-12

    def test_catenoid_helicoid_pair(self):
        grid = grid_points((-1.0, 1.0), (0.0, 6.28), 8, 8)
        report = egregium_check(CATENOID, HELICOID, grid)
        assert report.residuals.max <= 1e-10
        assert report.max_defect <= 1e-8
        assert report.passed
        for (p, _, k_int, _, _) in report.rows:
            assert k_int == pytest.approx(-1.0 / math.cosh(p) ** 4, abs=1e-10)

    def test_sphere_rotated_in_longitude(self, rng):
        ball = ParametricSurface(parse("sin(p)*cos(q)"),
                                 parse("sin(p)*sin(q)"), parse("cos(p)"))
        turned = ParametricSurface(parse("sin(p)*cos(q+1)"),
                                   parse("sin(p)*sin(q+1)"), parse("cos(p)"))
        grid = grid_points((0.4, 2.7), (0.0, 6.0), 6, 6)
        report = egregium_check(ball, turned, grid)
        assert report.max_defect <= 1e-10

    def test_non_isometric_pair_refused(self):
        plane = ParametricSurface(parse("p"), parse("q"), parse("0"))
        ball = ParametricSurface(parse("sin(p)*cos(q)"),
                                 parse("sin(p)*sin(q)"), parse("cos(p)"))
        grid = grid_points((0.5, 1.5), (0.5, 1.5), 4, 4)
        with pytest.raises(NotIsometric):
            egregium_check(plane, ball, grid)


class TestEgregiumAtScale:
    @pytest.mark.parametrize("name,surf,box", [
        ("plane", ParametricSurface(parse("p"), parse("q"), parse("0")),
         ((-1.0, 1.0), (-1.0, 1.0))),
        ("sphere", ParametricSurface(parse("2*sin(p)*cos(q)"),
                                     parse("2*sin(p)*sin(q)"),
                                     parse("2*cos(p)")),
         ((0.3, 2.8), (0.0, 6.28))),
        ("cylinder", ParametricSurface(parse("cos(q)"), parse("sin(q)"),
                                       parse("p")),
         ((-1.0, 1.0), (0.0, 6.28))),
        ("cone", ParametricSurface(parse("p*cos(q)"), parse("p*sin(q)"),
                                   parse("0.75*p")),
         ((0.3, 2.0), (0.0, 6.28))),
        ("torus", ParametricSurface(parse("(2+cos(p))*cos(q)"),
                                    parse("(2+cos(p))*sin(q)"),
                                    parse("sin(p)")),
         ((0.0, 6.28), (0.0, 6.28))),
        ("catenoid", CATENOID, ((-1.0, 1.0), (0.0, 6.28))),
        ("helicoid", HELICOID, ((-1.0, 1.0), (0.0, 6.28))),
        ("ellipsoid", ParametricSurface(parse("2*sin(p)*cos(q)"),
                                        parse("1.5*sin(p)*sin(q)"),
                                        parse("cos(p)")),
         ((0.3, 2.8), (0.0, 6.28))),
        # sheared charts make F nonzero, exercising the cross terms
        ("sheared_torus", ParametricSurface(parse("(2+cos(p+0.5*q))*cos(q)"),
                                            parse("(2+cos(p+0.5*q))*sin(q)"),
                                            parse("sin(p+0.5*q)")),
         ((0.0, 6.28), (0.0, 6.28))),
        ("sheared_sphere", ParametricSurface(
            parse("2*sin(p+0.3*q)*cos(q)"), parse("2*sin(p+0.3*q)*sin(q)"),
            parse("2*cos(p+0.3*q)")),
         ((0.4, 1.8), (0.0, 1.4))),
    ])
    def test_intrinsic_equals_extrinsic_on_grid(self, name, surf, box):
        induced = MetricField.from_surface(surf)
        for (p, q) in grid_points(box[0], box[1], 20, 20):
            k_int = formula_egregia(induced, p, q)
            k_ext = gauss_curvature_parametric(surf, p, q)
            assert abs(k_int - k_ext) <= 1e-8, (name, p, q)

    def test_sheared_chart_against_closed_forms(self):
        # reparametrization leaves kappa at a point unchanged: the sheared
        # torus at (p, q) sits where the plain torus is at (p + q/2, q)
        sheared = ParametricSurface(parse("(2+cos(p+0.5*q))*cos(q)"),
                                    parse("(2+cos(p+0.5*q))*sin(q)"),
                                    parse("sin(p+0.5*q)"))
        induced = MetricField.from_surface(sheared)
        fff = surfaces.first_fundamental_form(sheared, 1.0, 2.0)
        assert abs(fff.F) > 0.1  # the chart really is skewed
        for (p, q) in ((0.0, 0.0), (1.0, 2.0), (3.0, 4.5), (5.0, 1.0)):
            want = math.cos(p + 0.5 * q) / (2.0 + math.cos(p + 0.5 * q))
            assert formula_egregia(induced, p, q) == pytest.approx(
                want, abs=1e-11)

    def test_sheared_metric_partials_match_fd(self, rng):
        sheared = ParametricSurface(parse("(2+cos(p+0.5*q))*cos(q)"),
                                    parse("(2+cos(p+0.5*q))*sin(q)"),
                                    parse("sin(p+0.5*q)"))
        induced = MetricField.from_surface(sheared)
        for _ in range(5):
            p, q = rng.uniform(0, 6.28), rng.uniform(0, 6.28)
            mj = induced.at(p, q)
            fd_f = jets.fd_oracle(lambda a, b: induced.at(a, b).F, (p, q),
                                  1e-4)
            assert abs(mj.Fu - fd_f.du) <= 1e-4 * max(1.0, abs(fd_f.du))
            assert abs(mj.Fv - fd_f.dv) <= 1e-4 * max(1.0, abs(fd_f.dv))
