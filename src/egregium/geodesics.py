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

Shooting (Stoer and Bulirsch, Introduction to Numerical Analysis, section
7.3) runs a secant on the initial angle over shots at a quarter of the final
step, then returns one shot at the final step.  A miss is read at the closest
approach on the shot's Hermite interpolant, where the side ends; the
secant's last slope judges the conjugate locus.
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

# RK4 steps over a shot's length: the secant runs on coarse shots, and the
# side returned is one fine shot, whose knots the dense output reads
COARSE_STEPS, FINE_STEPS = 200, 800

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

    def at(self, s):
        """(u, v, du/ds, dv/ds) at the arclength s on the cubic Hermite
        interpolant of two or more states at the knots `s`, whose slopes
        (pu, pv) are d(u, v)/ds on a unit-speed path (a shot)."""
        knots = self.s
        i = min(max(bisect_right(knots, s) - 1, 0), len(knots) - 2)
        h = knots[i + 1] - knots[i]
        x = (s - knots[i]) / h
        a, b = self.states[i], self.states[i + 1]
        # Hermite basis at x and its derivative in x
        x2, x3 = x * x, x * x * x
        h00, h10 = 2.0 * x3 - 3.0 * x2 + 1.0, (x3 - 2.0 * x2 + x) * h
        h01, h11 = 3.0 * x2 - 2.0 * x3, (x3 - x2) * h
        d00, d10 = (6.0 * x2 - 6.0 * x) / h, 3.0 * x2 - 4.0 * x + 1.0
        d11 = 3.0 * x2 - 2.0 * x
        return (h00 * a.u + h10 * a.pu + h01 * b.u + h11 * b.pu,
                h00 * a.v + h10 * a.pv + h01 * b.v + h11 * b.pv,
                d00 * (a.u - b.u) + d10 * a.pu + d11 * b.pu,
                d00 * (a.v - b.v) + d10 * a.pv + d11 * b.pv)

    def dense(self, t):
        """(u, v, du/dt, dv/dt) of `at` at the fraction t of the arclength."""
        scale = self.s[-1] - self.s[0]
        u, v, du, dv = self.at(self.s[0] + t * scale)
        return u, v, scale * du, scale * dv


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


def _nearest_sample(path, target):
    d2 = [(st.u - target[0]) ** 2 + (st.v - target[1]) ** 2
          for st in path.states]
    return d2.index(min(d2))


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
    direction angle, bracketed around the straight-chord direction, over
    shots of COARSE_STEPS steps; then one shot of FINE_STEPS steps from the
    best angle is the side, and where it misses, the secant goes on at that
    step with the slope it carries.  A miss is read, and the side ends, at
    the closest approach to b on the shot's Hermite interpolant.

    Raises NoConvergence (with the best residual) when the iteration stalls
    or the last secant slope shows the endpoint insensitive to the angle,
    as happens at conjugate points.
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
    step = max(length / COARSE_STEPS, 1e-4)
    fine = max(length / FINE_STEPS, 1e-4)
    phi0 = math.atan2(chord[1], chord[0])

    goal = 0.5 * tol
    bracket = math.pi / 3.0
    phi_lo, phi_hi = phi0 - bracket, phi0 + bracket
    x0, x1 = phi0, phi0 + 0.05 * bracket
    f0, shot0 = _lateral_miss(metric, a, b, x0, length, step)
    best = (abs(f0), x0, shot0)
    f1, shot1 = _lateral_miss(metric, a, b, x1, length, step)
    if abs(f1) < best[0]:
        best = (abs(f1), x1, shot1)
    dx, df = x1 - x0, f1 - f0
    for _ in range(MAX_SECANT_ITERATIONS):
        if best[0] <= goal:
            if step == fine:
                break
            step, x1 = fine, best[1]
            f1, shot = _lateral_miss(metric, a, b, x1, length, step)
            best = (abs(f1), x1, shot)
            continue
        if abs(df) < 1e-15 * (1.0 + abs(f1)):
            raise NoConvergence(
                "secant step degenerate: endpoint insensitive to direction",
                best_residual=best[0])
        x2 = min(max(x1 - f1 * dx / df, phi_lo), phi_hi)
        f2, shot = _lateral_miss(metric, a, b, x2, length, step)
        if abs(f2) < best[0]:
            best = (abs(f2), x2, shot)
        dx, df, x1, f1 = x2 - x1, f2 - f1, x2, f2
    else:
        raise NoConvergence(
            f"shooting did not reach the target within {tol!r}",
            best_residual=best[0])
    # near a conjugate point the miss stops responding to the angle
    if abs(df) < 0.05 * length * abs(dx):
        raise NoConvergence(
            "endpoint insensitive to shooting angle (conjugate locus)",
            best_residual=best[0])
    return _refine_endpoint(metric, *best[2])


def _lateral_miss(metric, a, b, angle, length, step):
    """Shot from a at the given angle: its signed perpendicular miss of b
    at the closest approach, which Newton projection on the Hermite
    interpolant finds, and (path, nearest sample, arclength there)."""
    path = _shoot(metric, a, angle, length, step)
    i = _nearest_sample(path, b)
    s = path.s[i]
    # each step shrinks the error by about the miss times the curvature
    for _ in range(8):
        u, v, du, dv = path.at(s)
        s += ((b[0] - u) * du + (b[1] - v) * dv) / (du * du + dv * dv)
        s = min(max(s, path.s[0]), path.s[-1])
    u, v, du, dv = path.at(s)
    lateral = (du * (b[1] - v) - dv * (b[0] - u)) / math.hypot(du, dv)
    return lateral, (path, i, s)


def _refine_endpoint(metric, path, i, s):
    """The path to sample i, its state replaced by an RK4 step of s - s[i]."""
    st = path.states[i]
    y = _rk4_step(metric, (st.u, st.v, st.pu, st.pv), s - path.s[i])
    kept = max(1, i)
    return GeodesicPath(path.s[:kept] + (s,),
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
