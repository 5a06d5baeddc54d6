"""Geodesic integration, conservation laws, boundary-value shooting, and
the angle-excess law."""

import math
import struct

import pytest

from egregium import catalog, geodesics, intrinsic, surfaces
from egregium.errors import (DegenerateMetric, InputError, NoConvergence,
                             NotRevolution, StepTooLarge)
from egregium.exprlang import parse
from egregium.geodesics import (GeodesicState, RevolutionSurface,
                                build_triangle, clairaut_drift,
                                connect_geodesic, energy_drift,
                                integrate_geodesic, triangle_excess)
from egregium.intrinsic import MetricField
from egregium.surfaces import ParametricSurface

import oracle

FLAT = MetricField.from_expressions("1", "0", "1")
SPHERE = MetricField.from_expressions("1", "0", "sin(u)^2")
SPHERE_ISO = MetricField.from_expressions("(2/(1+u^2+v^2))^2", "0",
                                          "(2/(1+u^2+v^2))^2")
HYPERBOLIC = MetricField.from_expressions("(2/(1-u^2-v^2))^2", "0",
                                          "(2/(1-u^2-v^2))^2")

SPHERE_SURF = ParametricSurface(parse("sin(p)*cos(q)"),
                                parse("sin(p)*sin(q)"), parse("cos(p)"))
TORUS_SURF = ParametricSurface(parse("(2+cos(p))*cos(q)"),
                               parse("(2+cos(p))*sin(q)"), parse("sin(p)"))


class TestIntegrateGeodesic:
    def test_flat_metric_gives_straight_line(self):
        start = GeodesicState(0.0, 0.0, 0.6, 0.8)
        path = integrate_geodesic(FLAT, start, 2.0, 1e-2)
        for s, st in zip(path.s, path.states):
            assert st.u == pytest.approx(0.6 * s, abs=1e-12)
            assert st.v == pytest.approx(0.8 * s, abs=1e-12)

    @pytest.mark.parametrize("k", range(1, 400))
    def test_plans_the_fewest_steps_that_cover_the_length(self, k):
        # k / 100 over 0.01 rounds above k for k = 7, 14, 28, ..., and its
        # ceiling planned one step more
        start = GeodesicState(0.0, 0.0, 1.0, 0.0)
        path = integrate_geodesic(FLAT, start, k / 100, 0.01)
        assert len(path.states) - 1 == k

    def test_equator_is_a_geodesic(self):
        start = GeodesicState(math.pi / 2.0, 0.0, 0.0, 1.0)
        path = integrate_geodesic(SPHERE, start, math.pi, 1e-3)
        drift = max(abs(st.u - math.pi / 2.0) for st in path.states)
        assert drift <= 1e-8

    def test_generic_great_circle_planarity(self):
        # embedded samples of any unit-sphere geodesic lie in a plane
        # through the origin: check via the normal of a least-squares fit
        start = GeodesicState(math.pi / 2.0, 0.0,
                              math.cos(0.6), math.sin(0.6))
        path = integrate_geodesic(SPHERE, start, 2.5, 1e-3)
        pts = [(math.sin(st.u) * math.cos(st.v),
                math.sin(st.u) * math.sin(st.v), math.cos(st.u))
               for st in path.states[:: len(path.states) // 50]]
        import numpy as np
        mat = np.array(pts)
        # smallest singular vector of the sample matrix = plane normal
        _, sigma, vt = np.linalg.svd(mat, full_matrices=False)
        residual = sigma[-1] / math.sqrt(len(pts))
        assert residual <= 1e-6
        normal = vt[-1]
        for p in pts:
            assert abs(float(np.dot(normal, p))) <= 1e-6

    def test_energy_conserved_on_corpus_metrics(self):
        cases = [
            (FLAT, GeodesicState(0.0, 0.0, 1.0, 0.2)),
            (SPHERE, GeodesicState(1.2, 0.0, 0.3, 0.9)),
            (SPHERE_ISO, GeodesicState(0.1, -0.2, 0.8, 0.1)),
            (HYPERBOLIC, GeodesicState(0.0, 0.1, 0.5, 0.2)),
        ]
        for metric, start in cases:
            path = integrate_geodesic(metric, start, 1.0, 1e-3)
            assert energy_drift(path) <= 1e-7

    def test_reversibility(self):
        start = GeodesicState(1.0, 0.2, 0.4, 0.7)
        fwd = integrate_geodesic(SPHERE, start, 1.5, 1e-3)
        turn = fwd.end
        back = integrate_geodesic(
            SPHERE, GeodesicState(turn.u, turn.v, -turn.pu, -turn.pv),
            1.5, 1e-3)
        assert abs(back.end.u - start.u) <= 1e-6
        assert abs(back.end.v - start.v) <= 1e-6

    def test_step_guard(self):
        start = GeodesicState(0.3, 0.0, 1.0, 1.0)
        with pytest.raises(StepTooLarge) as caught:
            integrate_geodesic(SPHERE, start, 20.0, 2.0)
        assert str(caught.value) == \
            "energy drift 292.75130710516606 after 1 steps of 2.0"

    @pytest.mark.parametrize("metric, step, message", [
        (SPHERE, 0.05,
         "energy drift 0.0022506512718718638 after 57 steps of 0.05"),
        (HYPERBOLIC, 0.3,
         "energy drift 0.00013737245964509485 after 9 steps of 0.3")])
    def test_step_guard_reads_every_eighth_state(self, metric, step,
                                                 message):
        # the guard reads the states after 1, 9, 17, ... steps and the last
        start = GeodesicState(0.3, 0.0, 1.0, 1.0)
        with pytest.raises(StepTooLarge) as caught:
            integrate_geodesic(metric, start, 20.0, step)
        assert str(caught.value) == message

    @pytest.mark.parametrize("metric, start", [
        (FLAT, GeodesicState(0.0, 0.0, 1.0, 0.2)),
        (SPHERE, GeodesicState(1.2, 0.0, 0.3, 0.9)),
        (SPHERE_ISO, GeodesicState(0.1, -0.2, 0.8, 0.1)),
        (HYPERBOLIC, GeodesicState(0.0, 0.1, 0.5, 0.2)),
        (MetricField.from_surface(TORUS_SURF),
         GeodesicState(0.4, 0.0, 0.5, 0.25))])
    def test_energy_drift_reads_the_states_the_metric_gives(self, metric,
                                                            start):
        # the integrator's first stages give E, F, G at every state, and
        # the right-hand side at a side's refined end gives its own, with
        # the bits of evaluating the metric there again
        path = integrate_geodesic(metric, start, 1.3, 1e-2)
        side = connect_geodesic(metric, (start.u, start.v),
                                (path.states[90].u, path.states[90].v))
        rhs = geodesics._right_hand_side(metric)
        for path in (path, side):
            assert len(path.energies) == len(path.states)
            assert struct.pack("d", energy_drift(path)) == \
                struct.pack("d", oracle.energy_drift(metric, path))
            # so do the accelerations the dense output reads
            assert list(path.accelerations) == [rhs(*st)[:2]
                                                for st in path.states]

    def test_energy_drift_of_a_single_state_is_zero(self):
        # endpoints closer than tol give a path of one state at rest
        metric = catalog.build_metric(catalog.lookup("sphere_isothermal"))
        path = connect_geodesic(metric, (0.0, 0.0), (0.0, 1e-8))
        assert len(path.states) == len(path.energies) == 1
        assert energy_drift(path) == 0.0

    def test_rejects_nonpositive_step(self):
        with pytest.raises(InputError):
            integrate_geodesic(FLAT, GeodesicState(0, 0, 1, 0), 1.0, 0.0)

    @pytest.mark.parametrize("length", [1e12, -1e12, math.inf])
    def test_step_budget_refuses_before_integrating(self, monkeypatch,
                                                    length):
        def no_step(*args):
            raise AssertionError("integrated past the step budget")

        # the loop takes every step _compiled_step gives, and the start's
        # first stage comes from _right_hand_side
        monkeypatch.setattr(geodesics, "_compiled_step", no_step)
        monkeypatch.setattr(geodesics, "_right_hand_side", no_step)
        with pytest.raises(InputError, match=r"budget of 1000000 steps$"):
            integrate_geodesic(FLAT, GeodesicState(0, 0, 1, 0), length, 1e-9)


def _reference_rk4_step(metric, y, dt):
    """An RK4 step written plainly: connection coefficients from the
    fields of MetricField.at, tuple arithmetic per stage."""
    def rhs(state):
        u, v, pu, pv = state
        m = metric.at(u, v)
        inv = 0.5 / m.disc
        cuu = (m.G * m.Eu - 2.0 * m.F * m.Fu + m.F * m.Ev) * inv
        cuv = (m.G * m.Ev - m.F * m.Gu) * inv
        cvv = (2.0 * m.G * m.Fv - m.G * m.Gu - m.F * m.Gv) * inv
        duu = (2.0 * m.E * m.Fu - m.E * m.Ev - m.F * m.Eu) * inv
        duv = (m.E * m.Gu - m.F * m.Ev) * inv
        dvv = (m.E * m.Gv - 2.0 * m.F * m.Fv + m.F * m.Gu) * inv
        return (pu, pv,
                -(cuu * pu * pu + 2.0 * cuv * pu * pv + cvv * pv * pv),
                -(duu * pu * pu + 2.0 * duv * pu * pv + dvv * pv * pv))

    k1 = rhs(y)
    k2 = rhs(tuple(y[i] + 0.5 * dt * k1[i] for i in range(4)))
    k3 = rhs(tuple(y[i] + 0.5 * dt * k2[i] for i in range(4)))
    k4 = rhs(tuple(y[i] + dt * k3[i] for i in range(4)))
    return tuple(y[i] + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                 for i in range(4))


@pytest.mark.parametrize("metric", [
    SPHERE, SPHERE_ISO, HYPERBOLIC,
    MetricField.from_expressions("exp(u*v)", "0.3*sin(u)", "1+u^2"),
    MetricField.from_surface(TORUS_SURF)])
def test_rk4_step_matches_reference_bitwise(metric):
    # velocities of the unit circle, then zero, signed-zero and subnormal
    velocities = [(math.cos(i), math.sin(1.7 * i)) for i in range(40)] + [
        (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (5e-324, -5e-324),
        (-3e-320, 1e-310), (2.2250738585072014e-308, -0.0)]
    for i, (pu, pv) in enumerate(velocities):
        y = (0.3 + 0.02 * i, 0.2 - 0.03 * i, pu, pv)
        dt = (0.013 + 0.0071 * i) * (-1.0 if i % 3 == 0 else 1.0)
        assert _outcome(_rk4_step, metric, y, dt) == \
            _outcome(_reference_rk4_step, metric, y, dt)


def _rk4_step(metric, y, dt):
    """The compiled RK4 step from y, its first stage evaluated here."""
    rhs = geodesics._right_hand_side(metric)
    return geodesics._compiled_step(geodesics.RK4)(rhs, y, dt, rhs(*y))


def _outcome(step, *args):
    try:
        return struct.pack("4d", *step(*args))
    except DegenerateMetric as exc:
        return str(exc)


# the tableaus with their order and their nodes c_k, those of Dormand and
# Prince's 8(5,3) pair in closed form
R6 = math.sqrt(6.0)
TABLEAUS = pytest.mark.parametrize("tableau, order, nodes", [
    (geodesics.RK4, 4, (0.0, 0.5, 0.5, 1.0)),
    (geodesics.DOP8, 8, (0.0, (6.0 - R6) / 67.5, (6.0 - R6) / 45.0,
                         (6.0 - R6) / 30.0, (6.0 + R6) / 30.0, 1.0 / 3.0,
                         0.25, 4.0 / 13.0, 127.0 / 195.0, 0.6, 6.0 / 7.0,
                         1.0))], ids=["RK4", "DOP8"])


class TestTableaus:
    @TABLEAUS
    def test_rows_sum_to_their_nodes(self, tableau, order, nodes):
        rows = tableau[0]
        assert [len(row) for row in rows] == list(range(1, len(nodes)))
        for row, c in zip(rows, nodes[1:]):
            assert math.fsum(row) == pytest.approx(c, abs=1e-14)

    @TABLEAUS
    def test_weights_meet_the_quadrature_conditions(self, tableau, order,
                                                    nodes):
        # sum b_k c_k^(q-1) = 1/q for q = 1..order, the quadrature
        # conditions of the order; q = 1 says the weights sum to 1
        _, weights, divisor = tableau
        assert len(weights) == len(nodes)
        for q in range(1, order + 1):
            assert math.fsum(b / divisor * c ** (q - 1) for b, c in zip(
                weights, nodes)) == pytest.approx(1.0 / q, abs=1e-15)

    @pytest.mark.parametrize("tableau, steps, fold", [
        (geodesics.RK4, 8, 14.0), (geodesics.RK4, 16, 14.0),
        (geodesics.DOP8, 4, 200.0), (geodesics.DOP8, 8, 200.0)],
        ids=["RK4-8", "RK4-16", "DOP8-4", "DOP8-8"])
    def test_halving_the_step_shrinks_the_end_error_by_its_order(
            self, tableau, steps, fold):
        # a side of SPHERE_ISO integrated at steps and 2 * steps against
        # 256 steps; order p gives 2^p, 16 for RK4 and 256 for order 8
        # (RK4 at 4 steps trips the energy guard)
        start = GeodesicState(-0.5, -0.5, 0.3, 0.45)

        def end(n):
            path = integrate_geodesic(SPHERE_ISO, start, 2.0, 2.0 / n,
                                      tableau=tableau)
            assert len(path.states) == n + 1
            return path.end

        ref = end(256)
        coarse, fine = (max(abs(x - r) for x, r in zip(end(n), ref))
                        for n in (steps, 2 * steps))
        assert 1e-12 < coarse and coarse >= fold * fine


class TestClairaut:
    def test_sphere_equatorial(self):
        rev = RevolutionSurface(SPHERE_SURF, parse("sin(p)"))
        metric = MetricField.from_surface(SPHERE_SURF)
        start = GeodesicState(math.pi / 2.0, 0.0, 0.0, 1.0)
        path = integrate_geodesic(metric, start, math.pi, 1e-3)
        assert clairaut_drift(rev, path) <= 1e-9

    def test_sphere_meridian(self):
        rev = RevolutionSurface(SPHERE_SURF, parse("sin(p)"))
        metric = MetricField.from_surface(SPHERE_SURF)
        start = GeodesicState(math.pi / 2.0, 0.3, 1.0, 0.0)
        path = integrate_geodesic(metric, start, 1.0, 1e-3)
        assert clairaut_drift(rev, path) <= 1e-9

    def test_sphere_generic_long_run(self):
        rev = RevolutionSurface(SPHERE_SURF, parse("sin(p)"))
        metric = MetricField.from_surface(SPHERE_SURF)
        ang = math.pi / 6.0
        start = GeodesicState(math.pi / 2.0, 0.0, math.cos(ang), math.sin(ang))
        path = integrate_geodesic(metric, start, 10.0, 1e-3)
        assert clairaut_drift(rev, path) <= 1e-5

    def test_torus_generic_long_run(self):
        rev = RevolutionSurface(TORUS_SURF, parse("2+cos(p)"))
        metric = MetricField.from_surface(TORUS_SURF)
        start = GeodesicState(0.4, 0.0, 0.5, 0.25)
        path = integrate_geodesic(metric, start, 10.0, 1e-3)
        assert clairaut_drift(rev, path) <= 1e-5

    def test_wrong_profile_rejected(self):
        rev = RevolutionSurface(SPHERE_SURF, parse("cos(p)"))
        metric = MetricField.from_surface(SPHERE_SURF)
        path = integrate_geodesic(
            metric, GeodesicState(1.0, 0.0, 0.3, 0.5), 0.5, 1e-2)
        with pytest.raises(NotRevolution):
            clairaut_drift(rev, path)


class TestConnectGeodesic:
    def test_flat_metric_straight_segment(self):
        path = connect_geodesic(FLAT, (0.0, 0.0), (1.0, 2.0))
        assert abs(path.end.u - 1.0) <= 1e-6
        assert abs(path.end.v - 2.0) <= 1e-6
        for s, st in zip(path.s, path.states):
            # stays on the chord
            assert abs(st.u * 2.0 - st.v) <= 1e-9

    def test_sphere_equatorial_arc(self):
        path = connect_geodesic(SPHERE, (math.pi / 2.0, 0.0),
                                (math.pi / 2.0, 0.5))
        assert abs(path.end.u - math.pi / 2.0) <= 1e-6
        assert abs(path.end.v - 0.5) <= 1e-6
        assert path.s[-1] == pytest.approx(0.5, abs=1e-6)
        for st in path.states:
            assert abs(st.u - math.pi / 2.0) <= 1e-8

    def test_antipodal_points_refused(self):
        with pytest.raises(NoConvergence):
            connect_geodesic(SPHERE, (math.pi / 2.0, 0.0),
                             (math.pi / 2.0, math.pi))

    def test_endpoints_match_within_tolerance(self):
        for target in ((0.6, 0.4), (-0.3, 0.5), (0.2, -0.6)):
            path = connect_geodesic(SPHERE_ISO, (0.0, 0.0), target, tol=1e-7)
            assert math.hypot(path.end.u - target[0],
                              path.end.v - target[1]) <= 1e-6

    @pytest.mark.parametrize("a, b", [
        ((0.6, 0.1), (0.1, 0.5)), ((0.0, 0.0), (1.0, 0.0)),
        ((0.0, 0.0), (0.6, 0.1)), ((0.1, 0.5), (0.0, 0.0)),
        ((0.7, -0.2), (0.1, 0.9)), ((-0.5, -0.5), (0.7, -0.2)),
        ((0.1, 0.9), (-0.5, -0.5))])
    def test_arclength_is_the_great_circle_length(self, a, b):
        # the side ends one order-8 step from its nearest sample, at the
        # closest approach on the Hermite curve: no gap to b along the
        # side, and at most the tol/2 the shooting allows beside it, so
        # the length is read to the end state, and to b where the miss is
        # below 1e-9
        path = connect_geodesic(SPHERE_ISO, a, b)
        end = path.end
        gap = (b[0] - end.u, b[1] - end.v)
        speed = math.hypot(end.pu, end.pv)
        assert abs(gap[0] * end.pu + gap[1] * end.pv) / speed <= 1e-12
        assert abs(end.pu * gap[1] - end.pv * gap[0]) / speed <= 0.5e-6
        assert abs(path.s[-1] - _great_circle(a, (end.u, end.v))) <= 1e-10
        if math.hypot(*gap) <= 1e-9:
            assert abs(path.s[-1] - _great_circle(a, b)) <= 1e-8

    @pytest.mark.parametrize("delta", [0.1 + 0.005 * k for k in range(21)])
    @pytest.mark.parametrize("a, b", [
        ((math.pi / 2.0, 0.0), (math.pi / 2.0, math.pi)),
        ((math.pi / 2.0 - 0.3, 0.0), (math.pi / 2.0 + 0.3, math.pi))])
    def test_conjugate_refusal_matches_the_probe_shot(self, a, b, delta):
        # near the antipode the secant's slope and the probe shot both
        # find the endpoint insensitive to the angle; both give way
        # between delta = 0.185 and 0.19
        b = (b[0], b[1] - delta)
        try:
            connect_geodesic(SPHERE, a, b)
            refused = False
        except NoConvergence:
            refused = True
        assert refused == oracle.probe_refuses(SPHERE, a, b)
        assert refused == (delta < 0.1875)

    @pytest.mark.parametrize("G, vertices, refused", [
        ("1", ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), False),
        ("sin(u)^2", ((math.pi / 2.0, 0.0), (math.pi / 2.0, math.pi - 0.15),
                      (1.2, 0.5)), True),
        ("sin(u)^2", ((math.pi / 2.0, 0.0), (math.pi / 2.0, math.pi - 0.25),
                      (1.2, 0.5)), False)])
    def test_scaling_the_metric_keeps_the_verdict_and_the_angles(
            self, G, vertices, refused):
        # the miss is a coordinate distance and so is the conjugate
        # check's bound, so a constant factor on the metric moves neither
        # the refusal near the antipode nor a triangle's angles; the flat
        # triangle was refused at 10000 times the unit metric
        angles = []
        for scale in ("0.0001", "1", "10000"):
            metric = MetricField.from_expressions(scale, "0",
                                                  f"{scale}*{G}")
            if refused:
                with pytest.raises(NoConvergence, match="conjugate locus"):
                    build_triangle(metric, *vertices)
            else:
                angles.append(build_triangle(metric, *vertices).angles)
        for scaled in angles:
            assert scaled == pytest.approx(angles[1], abs=1e-12)


class TestShootingWork:
    def test_secant_on_coarse_shots_returns_one_fine_shot(self,
                                                          monkeypatch):
        # shots counted as bench/spans.py counts them, through the
        # integrator, each with the right-hand side evaluations it makes
        shots, evaluations = [], [0]
        integrate = geodesics.integrate_geodesic
        connect = geodesics.connect_geodesic
        right_hand_side = geodesics._right_hand_side

        def counted_right_hand_side(metric):
            rhs = right_hand_side(metric)

            def counted(*y):
                evaluations[0] += 1
                return rhs(*y)
            return counted

        def counted_integrate(*args, **kwargs):
            before = evaluations[0]
            path = integrate(*args, **kwargs)
            shots[-1].append((args[3], evaluations[0] - before))
            return path

        def counted_connect(*args, **kwargs):
            shots.append([])
            return connect(*args, **kwargs)

        monkeypatch.setattr(geodesics, "integrate_geodesic",
                            counted_integrate)
        monkeypatch.setattr(geodesics, "connect_geodesic", counted_connect)
        monkeypatch.setattr(geodesics, "_right_hand_side",
                            counted_right_hand_side)
        tri = build_triangle(SPHERE_ISO, (0.0, 0.0), (0.6, 0.1), (0.1, 0.5))
        assert sum(n for side in shots for _, n in side) <= 3973
        assert len(shots) == 3
        for side, path in zip(shots, tri.sides):
            steps = [step for step, _ in side]
            fine = min(steps)
            assert steps.count(fine) == 1
            assert max(steps) == pytest.approx(
                geodesics.FINE_STEPS / geodesics.COARSE_STEPS * fine)
            # the planned steps, the fine shot last: eleven evaluations a
            # step and one at each state for the next step's first stage
            assert [n for _, n in side] == (
                [1 + 12 * geodesics.COARSE_STEPS] * (len(side) - 1)
                + [1 + 12 * geodesics.FINE_STEPS])
            # the returned side is the fine shot, cut at the approach
            gaps = [t - s for s, t in zip(path.s[:-2], path.s[1:-1])]
            assert gaps == pytest.approx([fine] * len(gaps),
                                         rel=1.0 / geodesics.FINE_STEPS)


def _great_circle(a, b):
    """Distance on the unit sphere between two points of the stereographic
    chart of SPHERE_ISO."""
    def lift(u, v):
        d = 1.0 + u * u + v * v
        return 2.0 * u / d, 2.0 * v / d, (1.0 - u * u - v * v) / d
    (px, py, pz), (qx, qy, qz) = lift(*a), lift(*b)
    cross = math.sqrt((py * qz - pz * qy) ** 2 + (pz * qx - px * qz) ** 2
                      + (px * qy - py * qx) ** 2)
    return math.atan2(cross, px * qx + py * qy + pz * qz)


class TestDenseOutput:
    def test_reproduces_the_states_at_the_knots(self):
        path = connect_geodesic(SPHERE_ISO, (0.6, 0.1), (0.1, 0.5))
        length = path.s[-1]
        for k in (0, 1, 17, len(path.s) - 2, len(path.s) - 1):
            st = path.states[k]
            u, v, du, dv = path.dense(path.s[k] / length)
            assert (u, v) == pytest.approx((st.u, st.v), abs=1e-13)
            assert (du, dv) == pytest.approx(
                (length * st.pu, length * st.pv), abs=1e-12)
        assert path.dense(0.0) == (path.start.u, path.start.v,
                                   length * path.start.pu,
                                   length * path.start.pv)

    def test_follows_the_great_circle_between_knots(self):
        # on the unit sphere the side is an arc of length s[-1]: a point
        # at fraction t lies at distance t s[-1] from the start
        a = (0.0, 0.0)
        path = connect_geodesic(SPHERE_ISO, a, (1.0, 0.0))
        for t in (0.001, 0.25, 0.5003, 0.999):
            u, v, du, dv = path.dense(t)
            assert _great_circle(a, (u, v)) == pytest.approx(
                t * path.s[-1], abs=1e-10)
            # unit metric speed along the arclength, up to RK4's drift
            lam = 2.0 / (1.0 + u * u + v * v)
            assert lam * math.hypot(du, dv) == pytest.approx(path.s[-1],
                                                             rel=1e-9)


class TestTriangles:
    def test_flat_triangle_zero_both_sides(self):
        excess, integral = triangle_excess(FLAT, (0.0, 0.0), (0.7, 0.1),
                                           (0.2, 0.8))
        assert abs(excess) <= 1e-10
        assert abs(integral) <= 1e-10

    def test_octant_right_angles(self):
        tri = build_triangle(SPHERE_ISO, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        for angle in tri.angles:
            assert angle == pytest.approx(math.pi / 2.0, abs=1e-6)

    def test_octant_excess_law(self):
        excess, integral = triangle_excess(SPHERE_ISO, (0.0, 0.0),
                                           (1.0, 0.0), (0.0, 1.0))
        assert excess == pytest.approx(math.pi / 2.0, abs=1e-3)
        assert integral == pytest.approx(math.pi / 2.0, abs=1e-3)
        assert abs(excess - integral) <= 1e-3

    def test_small_triangle_first_order_law(self):
        # diameter ~0.1 triangle: excess ~ kappa * area within 2 percent
        pts = ((0.0, 0.0), (0.1, 0.0), (0.0, 0.08))
        excess, integral = triangle_excess(SPHERE_ISO, *pts)
        assert integral != 0.0
        assert abs(excess - integral) <= 0.02 * abs(integral)

    def test_hyperbolic_triangle_negative_excess(self):
        excess, integral = triangle_excess(HYPERBOLIC, (0.0, 0.0),
                                           (0.3, 0.0), (0.0, 0.3))
        assert excess < 0.0
        assert abs(excess - integral) <= 1e-3

    def test_sides_connect_vertices(self):
        tri = build_triangle(SPHERE_ISO, (0.0, 0.0), (0.5, 0.1), (0.1, 0.6))
        verts = tri.vertices
        for i, side in enumerate(tri.sides):
            a = verts[i]
            b = verts[(i + 1) % 3]
            assert math.hypot(side.start.u - a[0], side.start.v - a[1]) \
                <= 1e-6
            assert math.hypot(side.end.u - b[0], side.end.v - b[1]) <= 1e-6
