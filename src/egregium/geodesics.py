"""Geodesics of a metric field: integration, boundary-value connection,
Clairaut's relation on surfaces of revolution, and the angle-excess law
for geodesic triangles.

Connection coefficients come from the metric's first partials
(`MetricField.first_order`), in one fused right-hand side over plain
floats; the integrator is classical fixed-step RK4 with an energy-drift
guard instead of adaptive stepping, so fixtures are deterministic.  A
path's dense output is the cubic Hermite interpolant of its states
(Hairer, Norsett and Wanner, Solving ODEs I, section II.6), and the excess
law integrates the curvature over the region these curves bound, with all
quadrature nodes of a pass evaluated at once.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from . import exprlang, intrinsic, quad, surfaces
from .errors import InputError, NoConvergence, NotRevolution, StepTooLarge

ENERGY_DRIFT_LIMIT = 1e-4

# RK4 steps one integration may plan.  The benchmark's longest geodesic
# takes 1,800 steps; 10^6 steps are about a minute of integration and keep
# every state in memory, so a longer plan is refused before it starts.
MAX_GEODESIC_STEPS = 10**6

# secant iterations one shooting solve may take
MAX_SECANT_ITERATIONS = 50

# Gauss-Legendre nodes per triangle side in the excess integral; each ray
# from the centroid takes half as many
EXCESS_ORDER = 16


@dataclass(frozen=True)
class GeodesicState:
    u: float
    v: float
    pu: float
    pv: float


@dataclass(frozen=True)
class GeodesicPath:
    """Sampled trajectory; `s` is cumulative arclength per sample."""
    s: tuple
    states: tuple

    @property
    def start(self):
        return self.states[0]

    @property
    def end(self):
        return self.states[-1]

    def dense(self, t):
        """(u, v, du/dt, dv/dt) at the fraction t in [0, 1] of the path's
        arclength, from the cubic Hermite interpolant of its states at the
        knots `s`.  The interpolant's slopes are the states' (pu, pv), which
        are d(u, v)/ds on a unit-speed path such as `connect_geodesic`
        returns; the path must hold two states or more."""
        s = self.s
        scale = s[-1] - s[0]
        tau = s[0] + t * scale
        i = min(max(bisect_right(s, tau) - 1, 0), len(s) - 2)
        h = s[i + 1] - s[i]
        x = (tau - s[i]) / h
        a, b = self.states[i], self.states[i + 1]
        # Hermite basis at x and its derivative in x
        x2, x3 = x * x, x * x * x
        h00, h10 = 2.0 * x3 - 3.0 * x2 + 1.0, (x3 - 2.0 * x2 + x) * h
        h01, h11 = 3.0 * x2 - 2.0 * x3, (x3 - x2) * h
        d00, d10 = (6.0 * x2 - 6.0 * x) / h, 3.0 * x2 - 4.0 * x + 1.0
        d11 = 3.0 * x2 - 2.0 * x
        return (h00 * a.u + h10 * a.pu + h01 * b.u + h11 * b.pu,
                h00 * a.v + h10 * a.pv + h01 * b.v + h11 * b.pv,
                scale * (d00 * (a.u - b.u) + d10 * a.pu + d11 * b.pu),
                scale * (d00 * (a.v - b.v) + d10 * a.pv + d11 * b.pv))


@dataclass(frozen=True)
class GeodesicTriangle:
    vertices: tuple
    sides: tuple  # three GeodesicPath
    angles: tuple  # radians at each vertex


@dataclass(frozen=True)
class RevolutionSurface:
    """Parametric surface declared as a surface of revolution with parallel
    radius r(p); the q-coordinate is the rotation angle."""
    surface: surfaces.ParametricSurface
    radius: exprlang.ExprAst


def _acceleration(first_order, u, v, pu, pv):
    """(u'', v'') of the geodesic system at a state: the connection
    coefficients (c for the u equation, d for the v equation) from the
    metric's first partials, contracted with the velocity."""
    E, F, G, Eu, Ev, Fu, Fv, Gu, Gv = first_order(u, v)
    inv = 0.5 / (E * G - F * F)
    cuu = (G * Eu - 2.0 * F * Fu + F * Ev) * inv
    cuv = (G * Ev - F * Gu) * inv
    cvv = (2.0 * G * Fv - G * Gu - F * Gv) * inv
    duu = (2.0 * E * Fu - E * Ev - F * Eu) * inv
    duv = (E * Gu - F * Ev) * inv
    dvv = (E * Gv - 2.0 * F * Fv + F * Gu) * inv
    return (-(cuu * pu * pu + 2.0 * cuv * pu * pv + cvv * pv * pv),
            -(duu * pu * pu + 2.0 * duv * pu * pv + dvv * pv * pv))


def _rk4_step(metric, y, dt):
    """One classical RK4 step of the geodesic system from state y; stage k
    has slopes (pu_k, pv_k, au_k, av_k)."""
    first_order = metric.first_order
    u, v, pu, pv = y
    h = 0.5 * dt
    au, av = _acceleration(first_order, u, v, pu, pv)
    pu2, pv2 = pu + h * au, pv + h * av
    au2, av2 = _acceleration(first_order, u + h * pu, v + h * pv, pu2, pv2)
    pu3, pv3 = pu + h * au2, pv + h * av2
    au3, av3 = _acceleration(first_order, u + h * pu2, v + h * pv2, pu3, pv3)
    pu4, pv4 = pu + dt * au3, pv + dt * av3
    au4, av4 = _acceleration(first_order, u + dt * pu3, v + dt * pv3, pu4,
                             pv4)
    d6 = dt / 6.0
    return (u + d6 * (pu + 2.0 * pu2 + 2.0 * pu3 + pu4),
            v + d6 * (pv + 2.0 * pv2 + 2.0 * pv3 + pv4),
            pu + d6 * (au + 2.0 * au2 + 2.0 * au3 + au4),
            pv + d6 * (av + 2.0 * av2 + 2.0 * av3 + av4))


def _metric_speed2(metric, u, v, pu, pv):
    E, F, G = metric.values(u, v)
    return E * pu * pu + 2.0 * F * pu * pv + G * pv * pv


def integrate_geodesic(metric, start, length, step):
    """Fixed-step RK4 trajectory of the geodesic system over the given
    arclength; metric speed is conserved along the way (guarded)."""
    if step <= 0.0:
        raise InputError(f"step must be positive, got {step!r}")
    if abs(length) / step > MAX_GEODESIC_STEPS:
        raise InputError(f"length {length!r} at step {step!r} needs more "
                         f"than the budget of {MAX_GEODESIC_STEPS} steps")
    # an infinite length fails the budget above; NaN passes both comparisons
    for flag, value in (("--length", length), ("--step", step)):
        if not math.isfinite(value):
            raise InputError(f"{flag} must be finite, got {value!r}")
    speed0 = math.sqrt(_metric_speed2(metric, start.u, start.v,
                                      start.pu, start.pv))
    if speed0 <= 0.0:
        raise InputError("initial velocity must be nonzero")
    n_steps = max(1, math.ceil(abs(length) / step))
    dt = (length / speed0) / n_steps
    energy0 = speed0 * speed0

    y = (start.u, start.v, start.pu, start.pv)
    s_values = [0.0]
    states = [start]
    for k in range(n_steps):
        y = _rk4_step(metric, y, dt)
        if k % 8 == 0 or k == n_steps - 1:
            energy = _metric_speed2(metric, *y)
            if abs(energy - energy0) > ENERGY_DRIFT_LIMIT * energy0:
                raise StepTooLarge(
                    f"energy drift {abs(energy - energy0) / energy0!r} after "
                    f"{k + 1} steps of {step!r}")
        s_values.append(abs(dt) * (k + 1) * speed0)
        states.append(GeodesicState(*y))
    return GeodesicPath(tuple(s_values), tuple(states))


def energy_drift(metric, path):
    """Max relative metric-speed drift along a path."""
    e0 = _metric_speed2(metric, path.start.u, path.start.v,
                        path.start.pu, path.start.pv)
    worst = 0.0
    for st in path.states:
        e = _metric_speed2(metric, st.u, st.v, st.pu, st.pv)
        worst = max(worst, abs(e - e0) / e0)
    return worst


def clairaut_drift(revolution, path):
    """Max deviation of r(p) sin(theta) from its initial value along a
    geodesic, theta being the metric angle with the meridian."""
    surface = revolution.surface
    probe = [path.states[0], path.states[len(path.states) // 2],
             path.states[-1]]
    for st in probe:
        fff = surfaces.first_fundamental_form(surface, st.u, st.v)
        r = exprlang.evaluate(revolution.radius, {"p": st.u, "u": st.u})
        if (abs(fff.F) > 1e-8 * (1.0 + fff.E + fff.G)
                or abs(fff.G - r * r) > 1e-8 * (1.0 + abs(fff.G))):
            raise NotRevolution(
                f"declared profile radius does not match the metric at "
                f"({st.u}, {st.v})")

    metric = intrinsic.MetricField.from_surface(surface)
    first = None
    worst = 0.0
    for st in path.states:
        E, F, G = metric.values(st.u, st.v)
        speed = math.sqrt(E * st.pu ** 2 + 2.0 * F * st.pu * st.pv
                          + G * st.pv ** 2)
        r = exprlang.evaluate(revolution.radius, {"p": st.u, "u": st.u})
        value = r * (math.sqrt(G) * st.pv / speed)
        if first is None:
            first = value
        else:
            worst = max(worst, abs(value - first))
    return worst


def _closest_approach(path, target):
    best_i, best_d2 = 0, float("inf")
    for i, st in enumerate(path.states):
        d2 = (st.u - target[0]) ** 2 + (st.v - target[1]) ** 2
        if d2 < best_d2:
            best_i, best_d2 = i, d2
    return best_i, math.sqrt(best_d2)


def _chord_metric_length(metric, a, b, samples=33):
    total = 0.0
    prev = a
    for i in range(1, samples):
        t = i / (samples - 1)
        cur = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
        mid = (0.5 * (prev[0] + cur[0]), 0.5 * (prev[1] + cur[1]))
        seg = (cur[0] - prev[0], cur[1] - prev[1])
        total += metric.norm(mid[0], mid[1], seg)
        prev = cur
    return total


def _shoot(metric, a, angle, length, step):
    direction = (math.cos(angle), math.sin(angle))
    norm = metric.norm(a[0], a[1], direction)
    start = GeodesicState(a[0], a[1], direction[0] / norm, direction[1] / norm)
    return integrate_geodesic(metric, start, length, step)


def connect_geodesic(metric, a, b, tol=1e-6):
    """Geodesic from a to b by shooting: secant iteration on the initial
    direction angle, bracketed around the straight-chord direction.

    Raises NoConvergence (with the best residual) when the iteration stalls
    or the endpoint stays insensitive to the angle, as happens at conjugate
    points.
    """
    a = (float(a[0]), float(a[1]))
    b = (float(b[0]), float(b[1]))
    chord = (b[0] - a[0], b[1] - a[1])
    if math.hypot(*chord) < tol:
        state = GeodesicState(a[0], a[1], 0.0, 0.0)
        return GeodesicPath((0.0,), (state,))
    # the straight chord is itself a competitor curve, so the geodesic
    # distance never exceeds its metric length
    length = 1.25 * _chord_metric_length(metric, a, b)
    step = max(length / 800.0, 1e-4)
    phi0 = math.atan2(chord[1], chord[0])

    goal = 0.5 * tol
    bracket = math.pi / 3.0
    phi_lo, phi_hi = phi0 - bracket, phi0 + bracket
    x0, x1 = phi0, phi0 + 0.05 * bracket
    f0, path0, i0 = _lateral_miss(metric, a, b, x0, length, step)
    best = (abs(f0), x0, path0, i0)
    f1, path1, i1 = _lateral_miss(metric, a, b, x1, length, step)
    if abs(f1) < best[0]:
        best = (abs(f1), x1, path1, i1)
    for _ in range(MAX_SECANT_ITERATIONS):
        if best[0] <= goal:
            break
        denom = f1 - f0
        if abs(denom) < 1e-15 * (1.0 + abs(f1)):
            raise NoConvergence(
                "secant step degenerate: endpoint insensitive to direction",
                best_residual=best[0])
        x2 = x1 - f1 * (x1 - x0) / denom
        x2 = min(max(x2, phi_lo), phi_hi)
        f2, path2, i2 = _lateral_miss(metric, a, b, x2, length, step)
        if abs(f2) < best[0]:
            best = (abs(f2), x2, path2, i2)
        x0, f0, x1, f1 = x1, f1, x2, f2
    if best[0] > goal:
        raise NoConvergence(
            f"shooting did not reach the target within {tol!r}",
            best_residual=best[0])

    residual, angle, path, idx = best
    _reject_conjugate(metric, a, b, angle, length, step, tol)
    truncated = GeodesicPath(path.s[:idx + 1], path.states[:idx + 1])
    return _refine_endpoint(metric, truncated, b)


def _lateral_miss(metric, a, b, angle, length, step):
    """Shot from a at the given angle: signed perpendicular deviation from b
    at closest approach, the path, and the closest sample's index."""
    path = _shoot(metric, a, angle, length, step)
    i, _ = _closest_approach(path, b)
    st = path.states[i]
    # the along-track gap is discretization residue and is fixed later
    speed = math.hypot(st.pu, st.pv)
    lateral = (st.pu * (b[1] - st.v) - st.pv * (b[0] - st.u)) / speed
    return lateral, path, i


def _reject_conjugate(metric, a, b, angle, length, step, tol):
    # near a conjugate point every nearby angle still hits the target, so
    # the lateral deviation stops responding to the direction
    probe = 1e-3
    lateral = abs(_lateral_miss(metric, a, b, angle + probe, length, step)[0])
    if lateral < 0.05 * probe * length:
        raise NoConvergence(
            "endpoint insensitive to shooting angle (conjugate locus)",
            best_residual=lateral)


def _refine_endpoint(metric, path, b):
    """One fractional RK4 step from the final state so that it lands on b.
    The step goes backwards when the final sample is past b, so the refined
    state replaces that sample as the last knot, at the arclength of the
    step taken with its sign."""
    st = path.end
    gap = (b[0] - st.u, b[1] - st.v)
    speed2 = st.pu ** 2 + st.pv ** 2
    if speed2 == 0.0:
        return path
    dt = (gap[0] * st.pu + gap[1] * st.pv) / speed2
    y = _rk4_step(metric, (st.u, st.v, st.pu, st.pv), dt)
    ds = math.sqrt(_metric_speed2(metric, *y)) * dt
    kept = max(1, len(path.s) - 1)
    return GeodesicPath(path.s[:kept] + (path.s[-1] + ds,),
                        path.states[:kept] + (GeodesicState(*y),))


def _vertex_angle(metric, vertex, d1, d2):
    E, F, G = metric.values(vertex[0], vertex[1])

    def inner(wa, wb):
        return (E * wa[0] * wb[0] + F * (wa[0] * wb[1] + wa[1] * wb[0])
                + G * wa[1] * wb[1])

    cosang = inner(d1, d2) / math.sqrt(inner(d1, d1) * inner(d2, d2))
    return math.acos(min(1.0, max(-1.0, cosang)))


def _side_directions(path):
    first = path.states[0]
    last = path.states[-1]
    return (first.pu, first.pv), (-last.pu, -last.pv)


def build_triangle(metric, a, b, c, tol=1e-6):
    """Geodesic triangle with metric angles at the vertices; vertices closer
    than `tol` are refused, since a side of zero length has no direction."""
    for p, q in ((a, b), (b, c), (c, a)):
        if math.hypot(p[0] - q[0], p[1] - q[1]) < tol:
            raise InputError(f"triangle vertices {tuple(p)!r} and "
                             f"{tuple(q)!r} are closer than tol={tol!r}")
    side_ab = connect_geodesic(metric, a, b, tol=tol)
    side_bc = connect_geodesic(metric, b, c, tol=tol)
    side_ca = connect_geodesic(metric, c, a, tol=tol)
    ab_start, ab_end = _side_directions(side_ab)
    bc_start, bc_end = _side_directions(side_bc)
    ca_start, ca_end = _side_directions(side_ca)
    angle_a = _vertex_angle(metric, a, ab_start, ca_end)
    angle_b = _vertex_angle(metric, b, bc_start, ab_end)
    angle_c = _vertex_angle(metric, c, ca_start, bc_end)
    return GeodesicTriangle((tuple(a), tuple(b), tuple(c)),
                            (side_ab, side_bc, side_ca),
                            (angle_a, angle_b, angle_c))


def triangle_excess(metric, a, b, c, tol=1e-6):
    """Both sides of the angle-excess law: (A + B + C - pi, integral of
    kappa over the enclosed region)."""
    triangle = build_triangle(metric, a, b, c, tol=tol)
    return excess_from_triangle(metric, triangle)


def excess_from_triangle(metric, triangle):
    """Excess law for an already-connected triangle."""
    excess = sum(triangle.angles) - math.pi
    region = quad.StarRegion(tuple(side.dense for side in triangle.sides))
    result = quad.integrate(
        metric, lambda uu, vv: intrinsic.formula_egregia(metric, uu, vv),
        region, order=EXCESS_ORDER, grid_field=intrinsic.kappa_from_metric)
    return excess, result.value
