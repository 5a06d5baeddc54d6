"""Geodesics of a metric field: integration, boundary-value connection,
Clairaut's relation on surfaces of revolution, and the angle-excess law
for geodesic triangles.

Connection coefficients come from the metric's first partials; the
integrator is classical fixed-step RK4 with an energy-drift guard instead
of adaptive stepping, so fixtures are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import exprlang, intrinsic, quad, surfaces
from .errors import (InputError, NoConvergence, NotRevolution,
                     RegionNotSimple, StepTooLarge)

ENERGY_DRIFT_LIMIT = 1e-4

# RK4 steps one integration may plan.  The benchmark's longest geodesic
# takes 1,800 steps; 10^6 steps are about a minute of integration and keep
# every state in memory, so a longer plan is refused before it starts.
MAX_GEODESIC_STEPS = 10**6


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

    def points(self):
        return [(st.u, st.v) for st in self.states]


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


def christoffel(metric, u, v):
    """The six connection coefficients from metric first partials."""
    m = metric.at(u, v)
    inv = 0.5 / m.disc
    guu_u = (m.G * m.Eu - 2.0 * m.F * m.Fu + m.F * m.Ev) * inv
    guu_v = (m.G * m.Ev - m.F * m.Gu) * inv
    gvv_u = (2.0 * m.G * m.Fv - m.G * m.Gu - m.F * m.Gv) * inv
    huu_u = (2.0 * m.E * m.Fu - m.E * m.Ev - m.F * m.Eu) * inv
    huu_v = (m.E * m.Gu - m.F * m.Ev) * inv
    hvv_u = (m.E * m.Gv - 2.0 * m.F * m.Fv + m.F * m.Gu) * inv
    return guu_u, guu_v, gvv_u, huu_u, huu_v, hvv_u


def _rhs(metric, state):
    u, v, pu, pv = state
    cuu, cuv, cvv, duu, duv, dvv = christoffel(metric, u, v)
    au = -(cuu * pu * pu + 2.0 * cuv * pu * pv + cvv * pv * pv)
    av = -(duu * pu * pu + 2.0 * duv * pu * pv + dvv * pv * pv)
    return pu, pv, au, av


def _rk4_step(metric, y, dt):
    """One classical RK4 step of the geodesic system from state y."""
    k1 = _rhs(metric, y)
    y2 = tuple(y[i] + 0.5 * dt * k1[i] for i in range(4))
    k2 = _rhs(metric, y2)
    y3 = tuple(y[i] + 0.5 * dt * k2[i] for i in range(4))
    k3 = _rhs(metric, y3)
    y4 = tuple(y[i] + dt * k3[i] for i in range(4))
    k4 = _rhs(metric, y4)
    return tuple(y[i] + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                 for i in range(4))


def _metric_speed2(metric, u, v, pu, pv):
    E, F, G = metric.values(u, v)
    return E * pu * pu + 2.0 * F * pu * pv + G * pv * pv


def integrate_geodesic(metric, start, length, step):
    """Fixed-step RK4 trajectory of the geodesic system over the given
    arclength; metric speed is conserved along the way (guarded)."""
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step!r}")
    if abs(length) / step > MAX_GEODESIC_STEPS:
        raise InputError(f"length {length!r} at step {step!r} needs more "
                         f"than the budget of {MAX_GEODESIC_STEPS} steps")
    speed0 = math.sqrt(_metric_speed2(metric, start.u, start.v,
                                      start.pu, start.pv))
    if speed0 <= 0.0:
        raise ValueError("initial velocity must be nonzero")
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


def connect_geodesic(metric, a, b, tol=1e-6, step=None, max_iter=50):
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
    if step is None:
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
    for _ in range(max_iter):
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
    """One fractional RK4 step so the final state lands on b."""
    st = path.end
    gap = (b[0] - st.u, b[1] - st.v)
    speed2 = st.pu ** 2 + st.pv ** 2
    if speed2 == 0.0:
        return path
    dt = (gap[0] * st.pu + gap[1] * st.pv) / speed2
    y = _rk4_step(metric, (st.u, st.v, st.pu, st.pv), dt)
    ds = math.sqrt(_metric_speed2(metric, *y)) * abs(dt)
    return GeodesicPath(path.s + (path.s[-1] + ds,),
                        path.states + (GeodesicState(*y),))


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
    """Geodesic triangle with metric angles at the vertices."""
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


def _thin(points, target=120):
    if len(points) <= target:
        return list(points)
    stride = (len(points) - 1) / target
    picked = [points[round(i * stride)] for i in range(target)]
    picked.append(points[-1])
    return picked


def triangle_excess(metric, a, b, c, tol=1e-6, boundary_points=150):
    """Both sides of the angle-excess law: (A + B + C - pi, integral of
    kappa over the enclosed region)."""
    triangle = build_triangle(metric, a, b, c, tol=tol)
    return excess_from_triangle(metric, triangle,
                                boundary_points=boundary_points)


def excess_from_triangle(metric, triangle, boundary_points=150):
    """Excess law for an already-connected triangle."""
    excess = sum(triangle.angles) - math.pi

    boundary = []
    for side in triangle.sides:
        boundary.extend(_thin(side.points(), boundary_points)[:-1])
    cx = sum(p[0] for p in boundary) / len(boundary)
    cy = sum(p[1] for p in boundary) / len(boundary)

    triangles = []
    orientation = 0.0
    for i in range(len(boundary)):
        p1 = boundary[i]
        p2 = boundary[(i + 1) % len(boundary)]
        area2 = ((p1[0] - cx) * (p2[1] - cy) - (p1[1] - cy) * (p2[0] - cx))
        if abs(area2) < 1e-300:
            continue
        if orientation == 0.0:
            orientation = math.copysign(1.0, area2)
        elif math.copysign(1.0, area2) != orientation:
            raise RegionNotSimple(
                "triangle sides cross or the region is not star-shaped "
                "about its centroid")
        triangles.append(((cx, cy), p1, p2))

    region = quad.TriFan(tuple(triangles))
    result = quad.integrate(
        metric, lambda uu, vv: intrinsic.formula_egregia(metric, uu, vv),
        region, order=1)
    return excess, result.value
