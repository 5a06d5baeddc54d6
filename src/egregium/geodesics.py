"""Geodesics of a metric field: integration, boundary-value connection,
Clairaut's relation on surfaces of revolution, and the angle-excess law
for geodesic triangles.

The right-hand side contracts connection coefficients from the metric's
first partials in one emitted function per metric, which also returns the
E, F, G it read (`MetricField.first_order_function`).  The integrator takes
fixed steps, not adaptive ones, so fixtures are deterministic, and each
step's first stage feeds an energy-drift guard.  Each step is compiled
from a Butcher tableau: `integrate_geodesic` takes classical RK4 steps at
the caller's step, shots the order-8 steps of Dormand and Prince's 8(5,3)
pair (Hairer, Norsett and Wanner, Solving ODEs I, section II.5), so a side
takes 60 steps where RK4 took 400.  A path's dense output is the quintic
Hermite interpolant of its states and the accelerations the first stages
gave (ibid., section II.6), and the excess law integrates the curvature
over the region these curves bound, all quadrature nodes at once.

Shooting (Stoer and Bulirsch, Introduction to Numerical Analysis, section
7.3) runs a secant on the initial angle over shots of a quarter of the
final step count, then returns one shot at the final step.  A miss is read
at the closest approach on the shot's Hermite interpolant, where the side
ends, and the secant's last slope judges the conjugate locus.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

from . import exprlang, intrinsic, quad, surfaces
from .errors import (DomainError, InputError, NoConvergence, NotRevolution,
                     StepTooLarge)

ENERGY_DRIFT_LIMIT = 1e-4

# Steps one integration may plan.  The benchmark's longest geodesic takes
# 1,800 RK4 steps; 10^6 of them are about a minute of integration and keep
# every state in memory, so a longer plan is refused before it starts.
MAX_GEODESIC_STEPS = 10**6

# secant iterations one shooting solve may take
MAX_SECANT_ITERATIONS = 50

# order-8 steps over a shot's length: the secant runs on coarse shots, and
# the side returned is one fine shot, whose knots the dense output reads
COARSE_STEPS, FINE_STEPS = 15, 60

# Gauss-Legendre nodes per triangle side in the excess integral; each ray
# from the centroid takes half as many
EXCESS_ORDER = 16

# (u'', v'', E, F, G) of the geodesic system at (u, v, pu, pv): connection
# coefficients (c for the u equation, d for the v equation) from the metric's
# first partials, contracted with the velocity
_CONTRACTION = """\
inv = 0.5 / (E * G - F * F)
cuu = (G * Eu - 2.0 * F * Fu + F * Ev) * inv
cuv = (G * Ev - F * Gu) * inv
cvv = (2.0 * G * Fv - G * Gu - F * Gv) * inv
duu = (2.0 * E * Fu - E * Ev - F * Eu) * inv
duv = (E * Gu - F * Ev) * inv
dvv = (E * Gv - 2.0 * F * Fv + F * Gu) * inv
return (-(cuu * pu * pu + 2.0 * cuv * pu * pv + cvv * pv * pv),
        -(duu * pu * pu + 2.0 * duv * pu * pv + dvv * pv * pv), E, F, G)
"""


class GeodesicState(NamedTuple):
    u: float
    v: float
    pu: float
    pv: float


@dataclass(frozen=True)
class GeodesicPath:
    """Sampled trajectory; `s` is cumulative arclength per sample, and
    `energies` and `accelerations` the metric speed^2 and (u'', v'') at
    each state."""
    s: tuple
    states: tuple
    energies: tuple
    accelerations: tuple

    @property
    def start(self):
        return self.states[0]

    @property
    def end(self):
        return self.states[-1]

    def at(self, s):
        """(u, v, du/ds, dv/ds) at the arclength s on the quintic Hermite
        interpolant of two or more states at the knots `s`, whose slopes
        (pu, pv) are d(u, v)/ds and whose accelerations are d^2(u, v)/ds^2
        on a unit-speed path (a shot)."""
        knots = self.s
        i = min(max(bisect_right(knots, s) - 1, 0), len(knots) - 2)
        h = knots[i + 1] - knots[i]
        x = (s - knots[i]) / h
        a, b = self.states[i], self.states[i + 1]
        (aau, aav), (bau, bav) = self.accelerations[i:i + 2]
        # quintic Hermite basis at x: value, slope and acceleration at 0
        # (h0, h1, h2) and at 1 (h5, h4, h3), slopes scaled by h and
        # accelerations by h^2, and its derivative in s
        x2, y = x * x, 1.0 - x
        x3, y2 = x2 * x, y * y
        half = 0.5 * h
        h5 = x3 * (10.0 - 15.0 * x + 6.0 * x2)
        h0 = 1.0 - h5
        h1 = x * y * y2 * (1.0 + 3.0 * x) * h
        h4 = -x3 * y * (4.0 - 3.0 * x) * h
        h2, h3 = x2 * y * y2 * half * h, x3 * y2 * half * h
        d5 = 30.0 * x2 * y2 / h
        d1 = y2 * (1.0 + 5.0 * x) * (1.0 - 3.0 * x)
        d4 = x2 * (x * (28.0 - 15.0 * x) - 12.0)
        d2 = x * y2 * (2.0 - 5.0 * x) * half
        d3 = x2 * y * (3.0 - 5.0 * x) * half
        return (h0 * a.u + h5 * b.u + h1 * a.pu + h4 * b.pu
                + h2 * aau + h3 * bau,
                h0 * a.v + h5 * b.v + h1 * a.pv + h4 * b.pv
                + h2 * aav + h3 * bav,
                d5 * (b.u - a.u) + d1 * a.pu + d4 * b.pu + d2 * aau + d3 * bau,
                d5 * (b.v - a.v) + d1 * a.pv + d4 * b.pv + d2 * aav + d3 * bav)

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


def _right_hand_side(metric):
    return metric.first_order_function(_CONTRACTION, ("pu", "pv"))


# A Runge-Kutta method is its Butcher tableau (Hairer, Norsett and Wanner,
# Solving ODEs I, section II.1), (rows, weights, divisor): the rows a_ij of
# stages 2 to s over the stages before them, zeros written out, and the
# weights b_j of the s stages over one divisor.  Classical RK4 weighs its
# stages 1, 2, 2, 1 over 6, as its formula rounds them.
RK4 = (((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)), (1.0, 2.0, 2.0, 1.0), 6.0)

# Dormand and Prince's 8(5,3) pair (Prince and Dormand, J. Comput. Appl.
# Math. 7 (1981); ibid., section II.5), its order-8 part; dt / 1.0 is exact
_DOP8_ROWS = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
     0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
     0.10726203044637328, -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
)
_DOP8_WEIGHTS = (
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
DOP8 = (_DOP8_ROWS, _DOP8_WEIGHTS, 1.0)


@cache
def _compiled_step(tableau):
    """`step(rhs, y, dt, first)` of the tableau, from state y whose first
    stage (u'', v'') is first[:2], compiled at its first call: stage k has
    slopes (puk, pvk, auk, avk), and each sum runs over the nonzero
    coefficients of its row as float literals, a 1.0 as the bare slope."""
    rows, weights, divisor = tableau

    def combination(row, slope):
        return " + ".join(f"{slope}{j}" if a == 1.0 else f"{a!r} * {slope}{j}"
                          for j, a in enumerate(row, 1) if a)

    lines = ["def step(rhs, y, dt, first):",
             "    u, v, pu1, pv1 = y",
             "    au1, av1 = first[0], first[1]"]
    for k, row in enumerate(rows, 2):
        lines += [
            f"    pu{k} = pu1 + dt * ({combination(row, 'au')})",
            f"    pv{k} = pv1 + dt * ({combination(row, 'av')})",
            f"    au{k}, av{k}, _, _, _ = rhs(",
            f"        u + dt * ({combination(row, 'pu')}),",
            f"        v + dt * ({combination(row, 'pv')}), pu{k}, pv{k})"]
    lines.append(f"    h = dt / {divisor!r}")
    lines.append("    return (" + ",\n            ".join(
        f"{base} + h * ({combination(weights, slope)})"
        for base, slope in (("u", "pu"), ("v", "pv"), ("pu1", "au"),
                            ("pv1", "av"))) + ")")
    namespace = {}
    exec(compile("\n".join(lines) + "\n", f"<{len(weights)}-stage step>",
                 "exec"), namespace)
    return namespace["step"]


def _metric_speed2(first, pu, pv):
    """E pu^2 + 2F pu pv + G pv^2, with E, F, G of a right-hand side."""
    _, _, E, F, G = first
    return E * pu * pu + 2.0 * F * pu * pv + G * pv * pv


def integrate_geodesic(metric, start, length, step, *, tableau=RK4):
    """Fixed-step trajectory of the geodesic system over the given
    arclength, in the fewest equal steps of at most `step`, each one of the
    tableau's method (classical RK4 by default); metric speed is conserved
    along the way (guarded by the E, F, G of each step's first stage)."""
    if step <= 0.0:
        raise InputError(f"step must be positive, got {step!r}")
    if abs(length) / step > MAX_GEODESIC_STEPS:
        raise InputError(f"length {length!r} at step {step!r} needs more "
                         f"than the budget of {MAX_GEODESIC_STEPS} steps")
    # an infinite length fails the budget above; NaN passes both comparisons
    for flag, value in (("--length", length), ("--step", step)):
        if not math.isfinite(value):
            raise InputError(f"{flag} must be finite, got {value!r}")
    rhs = _right_hand_side(metric)
    first = rhs(float(start.u), float(start.v), start.pu, start.pv)
    energy = _metric_speed2(first, start.pu, start.pv)
    speed0 = math.sqrt(energy)
    if speed0 <= 0.0:
        raise InputError("initial velocity must be nonzero")
    if speed0 == math.inf:
        raise DomainError(f"metric speed of the initial velocity "
                          f"{(start.pu, start.pv)!r} overflows")
    # the ceiling of a quotient that rounds up past an integer is one more
    n_steps = max(1, math.ceil(abs(length) / step))
    if n_steps > 1 and (n_steps - 1) * step >= abs(length):
        n_steps -= 1
    dt = (length / speed0) / n_steps
    energy0 = speed0 * speed0
    advance = _compiled_step(tableau)

    y = start
    s_values, states, energies = [0.0], [start], [energy]
    accelerations = [first[:2]]
    for k in range(n_steps):
        y = advance(rhs, y, dt, first)
        first = rhs(*y)  # the next step's first stage
        energy = _metric_speed2(first, y[2], y[3])
        if k % 8 == 0 or k == n_steps - 1:
            if abs(energy - energy0) > ENERGY_DRIFT_LIMIT * energy0:
                raise StepTooLarge(
                    f"energy drift {abs(energy - energy0) / energy0!r} after "
                    f"{k + 1} steps of {step!r}")
        s_values.append(abs(dt) * (k + 1) * speed0)
        states.append(GeodesicState._make(y))
        energies.append(energy)
        accelerations.append(first[:2])
    return GeodesicPath(tuple(s_values), tuple(states), tuple(energies),
                        tuple(accelerations))


def energy_drift(path):
    """Max relative metric-speed drift along a path, read from the speed^2
    its integration kept at each state; a path of one state has none."""
    e0 = path.energies[0]
    worst = 0.0
    for e in path.energies[1:]:
        worst = max(worst, abs(e - e0) / e0)
    return worst


def clairaut_drift(revolution, path):
    """Max deviation of r(p) sin(theta) from its initial value along a
    geodesic, theta being the metric angle with the meridian."""
    surface = revolution.surface
    # r(p) lowered once; r is its value slot
    radius = exprlang.lower_jet2((revolution.radius,), {"p": 0, "u": 0})
    probe = [path.states[0], path.states[len(path.states) // 2],
             path.states[-1]]
    for st in probe:
        fff = surfaces.first_fundamental_form(surface, st.u, st.v)
        r = radius(st.u)[0][0]
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
        r = radius(st.u)[0][0]
        value = r * (math.sqrt(G) * st.pv / speed)
        if first is None:
            first = value
        else:
            worst = max(worst, abs(value - first))
    return worst


def _nearest_sample(path, target):
    try:
        d2 = [(st.u - target[0]) ** 2 + (st.v - target[1]) ** 2
              for st in path.states]
    except OverflowError:
        # float ** raises where * would give inf
        raise DomainError(f"squared distance from a shot to {target!r} "
                          f"overflows") from None
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
    return integrate_geodesic(metric, start, length, step, tableau=DOP8)


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
        return GeodesicPath((0.0,), (state,), (0.0,), ((0.0, 0.0),))
    # the straight chord is itself a competitor curve, so the geodesic
    # distance never exceeds its metric length
    length = 1.25 * _chord_metric_length(metric, a, b)
    # a step one ulp above length / N, so that `integrate_geodesic` plans
    # N steps where a quotient rounded up would plan N + 1
    step = max(math.nextafter(length / COARSE_STEPS, math.inf), 1e-4)
    fine = max(math.nextafter(length / FINE_STEPS, math.inf), 1e-4)
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
    # near a conjugate point the miss stops responding to the angle; it is
    # a coordinate distance, bounded in the chord's coordinates as well
    if abs(df) < 0.0625 * math.hypot(*chord) * abs(dx):
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
    """The path to sample i, its state replaced by an order-8 step of
    s - s[i] whose end state keeps the speed^2 and acceleration the
    right-hand side gives there."""
    rhs = _right_hand_side(metric)
    y = _compiled_step(DOP8)(rhs, path.states[i], s - path.s[i],
                             path.accelerations[i])
    first = rhs(*y)
    kept = max(1, i)
    return GeodesicPath(
        path.s[:kept] + (s,), path.states[:kept] + (GeodesicState._make(y),),
        path.energies[:kept] + (_metric_speed2(first, y[2], y[3]),),
        path.accelerations[:kept] + (first[:2],))


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
