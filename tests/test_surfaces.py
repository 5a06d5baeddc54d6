"""Extrinsic surface geometry: normals, fundamental form, curvature in all
three representations, principal curvatures, sections, and the normal-map
area quotient."""

import math

import pytest

from egregium import jets, surfaces
from egregium.errors import (DegenerateAngle, DegenerateParametrization,
                             DomainError, NotOnSurface, SingularGradient)
from egregium.exprlang import evaluate, parse
from egregium.surfaces import (GraphSurface, ParametricSurface,
                               euler_normal_section, first_fundamental_form,
                               gauss_curvature_graph, gauss_curvature_implicit,
                               gauss_curvature_parametric, gauss_map_quotient,
                               meusnier, normal_graph, normal_parametric,
                               principal_curvatures, second_order_scalars)


def sphere(radius=1.0):
    r = repr(float(radius))
    return ParametricSurface(parse(f"{r}*sin(p)*cos(q)"),
                             parse(f"{r}*sin(p)*sin(q)"),
                             parse(f"{r}*cos(p)"))


def sphere_inward(radius=1.0):
    # colatitude as the second coordinate, so the normal points inward
    r = repr(float(radius))
    return ParametricSurface(parse(f"{r}*sin(q)*cos(p)"),
                             parse(f"{r}*sin(q)*sin(p)"),
                             parse(f"{r}*cos(q)"))


def torus(rmaj=2.0, rmin=1.0):
    big, small = repr(float(rmaj)), repr(float(rmin))
    return ParametricSurface(parse(f"({big}+{small}*cos(p))*cos(q)"),
                             parse(f"({big}+{small}*cos(p))*sin(q)"),
                             parse(f"{small}*sin(p)"))


CATENOID = ParametricSurface(parse("cosh(p)*cos(q)"),
                             parse("cosh(p)*sin(q)"), parse("p"))
PLANE = ParametricSurface(parse("p"), parse("q"), parse("0"))
CYLINDER2 = ParametricSurface(parse("2*cos(q)"), parse("2*sin(q)"), parse("p"))


class TestNormalGraph:
    def test_horizontal_plane(self):
        nd = normal_graph(parse("4"), 0.3, -0.2)
        assert (nd.X, nd.Y, nd.Z) == (0.0, 0.0, 1.0)

    def test_tilted_plane(self):
        nd = normal_graph(parse("x"), 0.0, 0.0)
        r = 1.0 / math.sqrt(2.0)
        assert (nd.X, nd.Y, nd.Z) == pytest.approx((-r, 0.0, r), abs=1e-15)

    def test_paraboloid_off_center(self):
        nd = normal_graph(parse("(x^2+y^2)/2"), 1.0, 0.0)
        r = 1.0 / math.sqrt(2.0)
        assert (nd.X, nd.Y, nd.Z) == pytest.approx((-r, 0.0, r), abs=1e-15)
        # orthogonal to both finite-difference coordinate tangents
        h = 1e-6
        f = lambda x, y: (x * x + y * y) / 2.0
        tx = (2 * h, 0.0, f(1 + h, 0.0) - f(1 - h, 0.0))
        ty = (0.0, 2 * h, f(1.0, h) - f(1.0, -h))
        for tv in (tx, ty):
            dot = nd.X * tv[0] + nd.Y * tv[1] + nd.Z * tv[2]
            assert abs(dot) / math.sqrt(sum(c * c for c in tv)) <= 1e-9

    def test_positive_third_component(self, rng):
        f = parse("sin(x)*cos(y)")
        for _ in range(20):
            nd = normal_graph(f, rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert nd.Z > 0.0


class TestNormalParametric:
    def test_plane(self):
        nd = normal_parametric(PLANE, 0.4, -0.7)
        assert (nd.X, nd.Y, nd.Z) == (0.0, 0.0, 1.0)

    def test_sphere_normal_is_radial(self, rng):
        surf = sphere(2.0)
        for _ in range(20):
            p, q = rng.uniform(0.2, 2.9), rng.uniform(0.0, 6.28)
            nd = normal_parametric(surf, p, q)
            pos = (2.0 * math.sin(p) * math.cos(q),
                   2.0 * math.sin(p) * math.sin(q), 2.0 * math.cos(p))
            for ni, xi in zip((nd.X, nd.Y, nd.Z), pos):
                assert abs(ni - xi / 2.0) <= 1e-12

    def test_graph_as_parametric_agrees(self, rng):
        f = parse("sin(x)*cos(y)")
        graph = GraphSurface(f)
        for _ in range(20):
            x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
            nd_g = normal_graph(f, x, y)
            nd_p = normal_parametric(graph, x, y)
            assert (nd_g.X, nd_g.Y, nd_g.Z) == pytest.approx(
                (nd_p.X, nd_p.Y, nd_p.Z), abs=1e-12)

    def test_tangency(self, rng):
        surf = torus()
        for _ in range(20):
            p, q = rng.uniform(0, 6.28), rng.uniform(0, 6.28)
            xj, yj, zj = surfaces.embedding_jets(surf, p, q)
            nd = normal_parametric(surf, p, q)
            dot_p = nd.X * xj.du + nd.Y * yj.du + nd.Z * zj.du
            dot_q = nd.X * xj.dv + nd.Y * yj.dv + nd.Z * zj.dv
            assert abs(dot_p) <= 1e-12 and abs(dot_q) <= 1e-12

    def test_degenerate_parametrization(self):
        pinched = ParametricSurface(parse("p"), parse("p"), parse("0"))
        with pytest.raises(DegenerateParametrization):
            normal_parametric(pinched, 0.0, 0.0)

    def test_unit_norm(self):
        nd = normal_parametric(torus(), 0.9, 2.2)
        assert abs(nd.X ** 2 + nd.Y ** 2 + nd.Z ** 2 - 1.0) <= 1e-12
        assert nd.delta == pytest.approx(
            math.sqrt(nd.A ** 2 + nd.B ** 2 + nd.C ** 2), abs=1e-13)


class TestFirstFundamentalForm:
    def test_plane(self):
        fff = first_fundamental_form(PLANE, 0.0, 0.0)
        assert (fff.E, fff.F, fff.G) == (1.0, 0.0, 1.0)

    def test_cylinder_is_flat_metric(self, rng):
        cyl = ParametricSurface(parse("cos(q)"), parse("sin(q)"), parse("p"))
        for _ in range(10):
            fff = first_fundamental_form(cyl, rng.uniform(-1, 1),
                                         rng.uniform(0, 6.28))
            assert (fff.E, fff.F, fff.G) == pytest.approx((1.0, 0.0, 1.0),
                                                          abs=1e-14)

    def test_sphere_closed_form(self, rng):
        surf = sphere(2.0)
        for _ in range(10):
            p = rng.uniform(0.3, 2.8)
            fff = first_fundamental_form(surf, p, rng.uniform(0, 6.28))
            assert fff.E == pytest.approx(4.0, abs=1e-12)
            assert fff.F == pytest.approx(0.0, abs=1e-12)
            assert fff.G == pytest.approx(4.0 * math.sin(p) ** 2, abs=1e-12)

    def test_partials_against_fd_oracle(self, rng):
        surf = torus()

        def make_component(role):
            def component(p, q):
                return evaluate(getattr(surf, role), {"p": p, "q": q})
            return component

        comps = [make_component(r) for r in ("x", "y", "z")]

        def metric_entry(which):
            def entry(p, q):
                h = 1e-5
                derivs = []
                for c in comps:
                    dp = (c(p + h, q) - c(p - h, q)) / (2 * h)
                    dq = (c(p, q + h) - c(p, q - h)) / (2 * h)
                    derivs.append((dp, dq))
                if which == "E":
                    return sum(dp * dp for dp, _ in derivs)
                if which == "F":
                    return sum(dp * dq for dp, dq in derivs)
                return sum(dq * dq for _, dq in derivs)
            return entry

        for _ in range(5):
            p, q = rng.uniform(0, 6.28), rng.uniform(0, 6.28)
            fff = first_fundamental_form(surf, p, q)
            for which, slots in (("E", ("E_p", "E_q")), ("F", ("F_p", "F_q")),
                                 ("G", ("G_p", "G_q"))):
                fd = jets.fd_oracle(metric_entry(which), (p, q), 1e-4)
                for slot, fd_val in zip(slots, (fd.du, fd.dv)):
                    got = getattr(fff, slot)
                    assert abs(got - fd_val) <= 1e-4 * max(1.0, abs(fd_val))


class TestSecondOrderScalars:
    def test_plane_all_zero(self):
        so = second_order_scalars(PLANE, 0.2, 0.4)
        for name in ("D", "D1", "D2", "m", "m1", "m2", "n", "n1", "n2"):
            assert getattr(so, name) == 0.0

    def test_sphere_equator_n1_vanishes(self):
        so = second_order_scalars(sphere(1.0), math.pi / 2.0, 0.5)
        # n' = G_p / 2 = sin(p) cos(p) vanishes on the equator
        assert abs(so.n1) <= 1e-12

    def test_cylinder_ruling_has_zero_d(self):
        cyl = ParametricSurface(parse("cos(q)"), parse("sin(q)"), parse("p"))
        so = second_order_scalars(cyl, 0.3, 1.1)
        assert so.D == 0.0

    @pytest.mark.parametrize("surf,box", [
        (torus(), ((0.0, 6.28), (0.0, 6.28))),
        (CATENOID, ((-1.0, 1.0), (0.0, 6.28))),
        (sphere(1.5), ((0.3, 2.8), (0.0, 6.28))),
    ])
    def test_mn_families_match_metric_partials(self, surf, box, rng):
        for _ in range(10):
            p = rng.uniform(*box[0])
            q = rng.uniform(*box[1])
            so = second_order_scalars(surf, p, q)
            fff = first_fundamental_form(surf, p, q)
            checks = [
                (so.m, 0.5 * fff.E_p),
                (so.m1, 0.5 * fff.E_q),
                (so.m2, fff.F_q - 0.5 * fff.G_p),
                (so.n, fff.F_p - 0.5 * fff.E_q),
                (so.n1, 0.5 * fff.G_p),
                (so.n2, 0.5 * fff.G_q),
            ]
            for got, want in checks:
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


class TestGaussCurvatureGraph:
    def test_plane(self):
        assert gauss_curvature_graph(parse("1 + 2*x - 0.5*y"), 0.3, 0.9) == 0.0

    def test_paraboloid_origin(self):
        kappa = gauss_curvature_graph(parse("(x^2+y^2)/2"), 0.0, 0.0)
        assert kappa == pytest.approx(1.0, abs=1e-14)
        pc = principal_curvatures(
            GraphSurface(parse("(x^2+y^2)/2")), 0.0, 0.0)
        assert pc.gaussian == pytest.approx(kappa, abs=1e-12)

    def test_monkey_saddle_origin(self):
        assert gauss_curvature_graph(parse("x^3 - 3*x*y^2"), 0.0, 0.0) == 0.0


class TestGaussCurvatureImplicit:
    def test_sphere(self):
        w = parse("x^2+y^2+z^2-4")
        kappa = gauss_curvature_implicit(w, 0.0, 0.0, 2.0)
        assert kappa == pytest.approx(0.25, abs=1e-14)

    def test_plane(self):
        assert gauss_curvature_implicit(parse("z"), 0.4, -0.1, 0.0) == 0.0

    def test_cylinder(self):
        w = parse("x^2+y^2-4")
        assert gauss_curvature_implicit(w, 2.0, 0.0, 1.7) == 0.0

    def test_off_surface_rejected(self):
        with pytest.raises(NotOnSurface):
            gauss_curvature_implicit(parse("x^2+y^2+z^2-4"), 1.0, 0.0, 0.0)

    def test_singular_gradient_rejected(self):
        with pytest.raises(SingularGradient):
            gauss_curvature_implicit(parse("x^2+y^2+z^2"), 0.0, 0.0, 0.0)

    def test_scaling_invariance(self, rng):
        # kappa is invariant under W -> lambda W
        for lam in (-2.0, 0.5, 10.0):
            w = parse(f"({lam!r})*(x^2+y^2+z^2-4)")
            base = parse("x^2+y^2+z^2-4")
            for _ in range(10):
                p = rng.uniform(0.3, 2.8)
                q = rng.uniform(0.0, 6.28)
                x = 2.0 * math.sin(p) * math.cos(q)
                y = 2.0 * math.sin(p) * math.sin(q)
                z = 2.0 * math.cos(p)
                k1 = gauss_curvature_implicit(base, x, y, z)
                k2 = gauss_curvature_implicit(w, x, y, z)
                assert abs(k1 - k2) <= 1e-10

    def test_coordinate_relabeling(self):
        # the same ellipsoid with axes permuted has the same curvature at
        # the corresponding point
        w1 = parse("x^2/4 + y^2 + z^2 - 1")
        w2 = parse("z^2/4 + x^2 + y^2 - 1")
        k1 = gauss_curvature_implicit(w1, 2.0, 0.0, 0.0)
        k2 = gauss_curvature_implicit(w2, 0.0, 0.0, 2.0)
        assert k1 == pytest.approx(k2, abs=1e-13)


class TestGaussCurvatureParametric:
    def test_plane(self):
        assert gauss_curvature_parametric(PLANE, 0.1, 0.2) == 0.0

    def test_sphere_radius_two(self, rng):
        surf = sphere(2.0)
        for _ in range(20):
            kappa = gauss_curvature_parametric(surf, rng.uniform(0.2, 2.9),
                                               rng.uniform(0.0, 6.28))
            assert kappa == pytest.approx(0.25, abs=1e-12)

    def test_torus_outer_equator(self):
        kappa = gauss_curvature_parametric(torus(2.0, 1.0), 0.0, 1.3)
        assert kappa == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_scaling_law(self, rng):
        # scaling the embedding by lambda scales kappa by 1/lambda^2
        for lam in (0.5, 3.0):
            for surf, scaled, box in [
                (sphere(1.0), sphere(lam), ((0.3, 2.8), (0.0, 6.28))),
                (torus(2.0, 1.0), torus(2.0 * lam, lam),
                 ((0.0, 6.28), (0.0, 6.28))),
            ]:
                for _ in range(5):
                    p = rng.uniform(*box[0])
                    q = rng.uniform(*box[1])
                    k = gauss_curvature_parametric(surf, p, q)
                    ks = gauss_curvature_parametric(scaled, p, q)
                    assert ks == pytest.approx(k / lam ** 2, abs=1e-10,
                                               rel=1e-9)


class TestTripleAgreement:
    def test_sphere_cap_three_ways(self):
        radius = 2.0
        graph = parse("sqrt(4 - x^2 - y^2)")
        implicit = parse("x^2 + y^2 + z^2 - 4")
        param = sphere(radius)
        for k in range(50):
            p = 0.15 + 0.8 * k / 49.0
            q = 0.1 + 6.0 * k / 49.0
            x = radius * math.sin(p) * math.cos(q)
            y = radius * math.sin(p) * math.sin(q)
            z = radius * math.cos(p)
            k_graph = gauss_curvature_graph(graph, x, y)
            k_impl = gauss_curvature_implicit(implicit, x, y, z)
            k_param = gauss_curvature_parametric(param, p, q)
            assert abs(k_graph - 0.25) <= 1e-9
            assert abs(k_graph - k_impl) <= 1e-9
            assert abs(k_param - k_impl) <= 1e-9

    def test_generic_graph_three_ways(self, rng):
        # a lopsided graph exercises every term of all three formulas
        f = parse("sin(x)*cos(y) + x^2/4")
        w = parse("z - (sin(x)*cos(y) + x^2/4)")
        param = GraphSurface(f)
        for _ in range(25):
            x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
            z = evaluate(f, {"x": x, "y": y})
            k_graph = gauss_curvature_graph(f, x, y)
            k_param = gauss_curvature_parametric(param, x, y)
            k_impl = gauss_curvature_implicit(w, x, y, z)
            assert abs(k_graph - k_param) <= 1e-12 * max(1.0, abs(k_graph))
            assert abs(k_graph - k_impl) <= 1e-10 * max(1.0, abs(k_graph))

    def test_gradient_square_identity(self, rng):
        # (1 + z_x^2 + z_y^2) C^2 = A^2 + B^2 + C^2 for graph surfaces
        f = parse("sin(x)*cos(y) + x^2/4")
        graph = GraphSurface(f)
        for _ in range(20):
            x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
            _, _, fj = surfaces.embedding_jets(graph, x, y)
            nd = normal_parametric(graph, x, y)
            lhs = (1.0 + fj.du ** 2 + fj.dv ** 2) * nd.C ** 2
            rhs = nd.A ** 2 + nd.B ** 2 + nd.C ** 2
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestPrincipalCurvatures:
    def test_direction_overflow_is_a_domain_error(self):
        # a row of II - kI near 1e154 used to overflow `vec[0] ** 2` into a
        # bare OverflowError
        surf = GraphSurface(parse("1e154*x^2+y^2"))
        with pytest.raises(DomainError, match=r"^principal direction for "
                                              r"k=.* overflows"):
            principal_curvatures(surf, 1e-160, -1.0)

    def test_plane_umbilic_zero(self):
        pc = principal_curvatures(PLANE, 0.0, 0.0)
        assert (pc.k_min, pc.k_max) == (0.0, 0.0)
        assert pc.umbilic and pc.dir_min is None

    def test_sphere_inward_oriented_positive_umbilic(self, rng):
        surf = sphere_inward(2.0)
        for _ in range(10):
            pc = principal_curvatures(surf, rng.uniform(0, 6.28),
                                      rng.uniform(0.3, 2.8))
            assert pc.umbilic
            # the pair splits by sqrt(roundoff) at an umbilic; the mean and
            # product stay sharp
            assert pc.k_min == pytest.approx(0.5, abs=5e-8)
            assert pc.k_max == pytest.approx(0.5, abs=5e-8)
            assert pc.mean == pytest.approx(0.5, abs=1e-12)
            assert pc.gaussian == pytest.approx(0.25, abs=1e-12)

    def test_cylinder_radius_two(self, rng):
        for _ in range(10):
            pc = principal_curvatures(CYLINDER2, rng.uniform(-1, 1),
                                      rng.uniform(0, 6.28))
            assert pc.k_min == pytest.approx(0.0, abs=1e-12)
            assert pc.k_max == pytest.approx(0.5, abs=1e-12)
            # flat direction runs along the ruling (the p-axis)
            assert abs(pc.dir_min[1]) <= 1e-9
            assert abs(abs(pc.dir_min[0]) - 1.0) <= 1e-9

    def test_product_and_mean_identities(self, rng):
        cases = [(torus(), ((0.0, 6.28), (0.0, 6.28))),
                 (CATENOID, ((-1.0, 1.0), (0.0, 6.28)))]
        for surf, box in cases:
            for _ in range(15):
                p = rng.uniform(*box[0])
                q = rng.uniform(*box[1])
                pc = principal_curvatures(surf, p, q)
                kappa = gauss_curvature_parametric(surf, p, q)
                assert abs(pc.gaussian - kappa) <= 1e-9 * max(1.0, abs(kappa))

    def test_directions_metric_orthogonal(self, rng):
        surf = torus()
        for _ in range(15):
            p, q = rng.uniform(0.3, 2.8), rng.uniform(0, 6.28)
            pc = principal_curvatures(surf, p, q)
            if pc.umbilic:
                continue
            fff = first_fundamental_form(surf, p, q)
            a, b = pc.dir_min, pc.dir_max
            inner = (fff.E * a[0] * b[0] + fff.F * (a[0] * b[1] + a[1] * b[0])
                     + fff.G * a[1] * b[1])
            assert abs(inner) <= 1e-9

    def test_catenoid_is_minimal(self):
        for i in range(10):
            p = -1.0 + 2.0 * i / 9.0
            for j in range(10):
                q = 6.2 * j / 9.0
                pc = principal_curvatures(CATENOID, p, q)
                assert abs(pc.mean) <= 1e-9


class TestEulerNormalSection:
    def test_endpoints(self):
        assert euler_normal_section(2.0, 0.5, 0.0) == 2.0
        assert euler_normal_section(2.0, 0.5, math.pi / 2.0) == pytest.approx(
            0.5, abs=1e-15)

    def test_umbilic_constant(self):
        for theta in (0.0, 0.3, 1.0, 2.2):
            assert euler_normal_section(0.7, 0.7, theta) == pytest.approx(
                0.7, abs=1e-15)

    def test_interpolates_between_extremes(self):
        k = euler_normal_section(2.0, 0.5, math.pi / 4.0)
        assert k == pytest.approx(1.25, abs=1e-14)


class TestMeusnier:
    def test_normal_plane_identity(self):
        assert meusnier(0.7, math.pi / 2.0) == pytest.approx(0.7, abs=1e-15)

    def test_unit_sphere_oblique(self):
        # every normal section of the unit sphere has curvature 1
        k_theta = euler_normal_section(1.0, 1.0, 0.9)
        assert meusnier(k_theta, math.pi / 6.0) == pytest.approx(2.0,
                                                                 abs=1e-12)

    def test_degenerate_angle(self):
        with pytest.raises(DegenerateAngle):
            meusnier(1.0, 0.0)


class TestGaussMapQuotient:
    def test_plane_is_zero(self):
        assert gauss_map_quotient(PLANE, 0.1, 0.2, 1e-2) == 0.0

    def test_sphere_radius_two(self):
        got = gauss_map_quotient(sphere(2.0), 1.0, 0.5, 1e-2)
        assert abs(got - 0.25) <= 5e-3

    def test_saddle_negative(self):
        got = gauss_map_quotient(GraphSurface(parse("x*y")), 0.0, 0.0, 1e-2)
        assert abs(got - (-1.0)) <= 5e-2

    def test_defect_shrinks_with_eps(self):
        surf = sphere(2.0)
        e1 = abs(gauss_map_quotient(surf, 1.0, 0.5, 1e-2) - 0.25)
        e2 = abs(gauss_map_quotient(surf, 1.0, 0.5, 1e-3) - 0.25)
        assert e2 < e1
