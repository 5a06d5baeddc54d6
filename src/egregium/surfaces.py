"""Extrinsic geometry of surfaces embedded in 3-space.

Covers unit normals, the first fundamental form with its derivatives, the
second-order scalars, and Gaussian curvature in the three representations
(graph, implicit, parametric), plus principal and mean curvature, normal
and oblique sections, and the area-quotient evaluation of curvature through
the normal map onto the auxiliary unit sphere.

Each per-point quantity is computed from one `embedding_jets` result by a
`*_from_jets` or `*_from_forms` function; the public per-point functions
evaluate the embedding once and delegate to them.  The kernel that grids
run (`embedding_jets`, `normal_from_jets`, `fff_from_jets`,
`second_order_from_jets`, `gauss_from_forms`, `principal_values`) takes
floats, or 1-D float64 arrays with one element per point whose elements
hold the bits of the per-point values; over arrays a check raises where
some point fails it.

Orientation convention: parametric normal is (x_p x x_q) / |x_p x x_q|;
graph surfaces use the normal with positive third component.  Gaussian
curvature itself is orientation-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy import ndarray

from . import exprlang, jets
from .errors import (DegenerateAngle,
                     DegenerateParametrization, DomainError, InputError,
                     NotOnSurface, SingularGradient)

EPS_REG = 1e-12
UMBILIC_REL_TOL = 1e-8

# triangles in the fan of `gauss_map_quotient`
GAUSS_MAP_FAN = 12


# a graph may name its chart coordinates x, y or p, q
_GRAPH_SEEDS = {"x": 0, "y": 1, "p": 0, "q": 1}
_PARAMETRIC_SEEDS = {"p": 0, "q": 1}
_P, _Q = exprlang.Variable("p"), exprlang.Variable("q")
_IMPLICIT_SEEDS = ({"x": 0, "y": 1, "z": 2}, {"x": 0, "z": 1, "y": 2},
                   {"y": 0, "z": 1, "x": 2})


@dataclass(frozen=True)
class GraphSurface:
    """z = f(x, y); the expression uses variables x, y."""
    f: exprlang.ExprAst
    # the embedding (p, q, f) lowered once by exprlang.lower_jet2;
    # (p, q) -> [slots of p, q, f]
    lowered: object = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lowered", exprlang.lower_jet2(
            (_P, _Q, self.f), _GRAPH_SEEDS))


@dataclass(frozen=True)
class ParametricSurface:
    """(p, q) -> (x, y, z); each component expression uses variables p, q."""
    x: exprlang.ExprAst
    y: exprlang.ExprAst
    z: exprlang.ExprAst
    # the components lowered once; (p, q) -> [slots of x, y, z]
    lowered: object = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lowered", exprlang.lower_jet2(
            (self.x, self.y, self.z), _PARAMETRIC_SEEDS))


@dataclass(frozen=True)
class ImplicitSurface:
    """W(x, y, z) = 0; regular points only."""
    w: exprlang.ExprAst
    # W lowered once per pair of seeded coordinates, the third held:
    # (x, y | z), (x, z | y) and (y, z | x); together they give all ten
    # partials
    lowered: object = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lowered", tuple(
            exprlang.lower_jet2((self.w,), seeds)
            for seeds in _IMPLICIT_SEEDS))


SurfaceDef = GraphSurface | ParametricSurface | ImplicitSurface


@dataclass(frozen=True)
class NormalData:
    """Unnormalized normal (A, B, C), its norm delta, and the unit normal."""
    A: float
    B: float
    C: float
    delta: float
    X: float
    Y: float
    Z: float


@dataclass(frozen=True)
class FirstFundamentalForm:
    """E, F, G with first partials and the one second-order combination
    (-E_qq + 2 F_pq - G_pp) every downstream formula consumes."""
    E: float
    F: float
    G: float
    E_p: float
    E_q: float
    F_p: float
    F_q: float
    G_p: float
    G_q: float
    bracket: float


@dataclass(frozen=True)
class SecondOrderScalars:
    """D-family from the embedding's second derivatives and the m/n-family
    from tangent projections; primes are numbered (D1 = D', D2 = D'')."""
    D: float
    D1: float
    D2: float
    m: float
    m1: float
    m2: float
    n: float
    n1: float
    n2: float


@dataclass(frozen=True)
class PrincipalCurvatures:
    """Extremal normal-section curvatures, signed against the fixed normal.

    Directions are metric-unit tangent vectors in (p, q) coordinates, or
    None at umbilic points where they are undetermined.
    """
    k_min: float
    k_max: float
    dir_min: tuple[float, float] | None
    dir_max: tuple[float, float] | None
    umbilic: bool

    @property
    def gaussian(self):
        return self.k_min * self.k_max

    @property
    def mean(self):
        return 0.5 * (self.k_min + self.k_max)


def embedding_jets(surface, p, q):
    """2-jets of the three embedding components at (p, q), floats, or 1-D
    float64 arrays of points with every slot an array; a graph z = f(x, y)
    is embedded as (p, q, f(p, q))."""
    if isinstance(surface, (GraphSurface, ParametricSurface)):
        return tuple(map(jets.JetSlots._make, surface.lowered(p, q)))
    raise TypeError(f"cannot view {type(surface).__name__} as parametric")


def _cross(xj, yj, zj):
    """x_p x x_q from the embedding's 2-jets, floats or arrays."""
    a, a1 = xj.du, xj.dv
    b, b1 = yj.du, yj.dv
    c, c1 = zj.du, zj.dv
    return b * c1 - c * b1, c * a1 - a * c1, a * b1 - b * a1


def _fails(test):
    """A check's comparison at a point, or over arrays at some point; NaN
    passes, as it does in a comparison."""
    return test.any() if type(test) is ndarray else test


def normal_from_jets(xj, yj, zj):
    """Normal data from the embedding's 2-jets, floats or arrays."""
    A, B, C = _cross(xj, yj, zj)
    norm2 = A * A + B * B + C * C
    delta = np.sqrt(norm2) if type(norm2) is ndarray else math.sqrt(norm2)
    if _fails(delta < EPS_REG):
        raise DegenerateParametrization(
            f"coordinate tangents are dependent (|x_p x x_q| = {delta!r})")
    return NormalData(A, B, C, delta, A / delta, B / delta, C / delta)


def normal_parametric(surface, p, q):
    """Unit normal (x_p x x_q) / delta with the unnormalized components."""
    return normal_from_jets(*embedding_jets(surface, p, q))


def normal_graph(f, x, y):
    """Unit normal of z = f(x, y) with positive third component."""
    return normal_parametric(GraphSurface(f), x, y)


def first_fundamental_form(surface, p, q):
    """E, F, G of the induced metric, with the partials the intrinsic
    formulas consume.

    The second-order combination -E_qq + 2 F_pq - G_pp collapses, after the
    third-derivative terms cancel, to 2 (x_pp . x_qq - |x_pq|^2), so 2-jets
    of the embedding determine everything returned here.
    """
    return fff_from_jets(*embedding_jets(surface, p, q))


def fff_from_jets(xj, yj, zj):
    """First fundamental form from the embedding's 2-jets, floats or
    arrays."""
    comps = (xj, yj, zj)
    E = sum(c.du * c.du for c in comps)
    F = sum(c.du * c.dv for c in comps)
    G = sum(c.dv * c.dv for c in comps)
    E_p = 2.0 * sum(c.du * c.duu for c in comps)
    E_q = 2.0 * sum(c.du * c.duv for c in comps)
    F_p = sum(c.duu * c.dv + c.du * c.duv for c in comps)
    F_q = sum(c.duv * c.dv + c.du * c.dvv for c in comps)
    G_p = 2.0 * sum(c.dv * c.duv for c in comps)
    G_q = 2.0 * sum(c.dv * c.dvv for c in comps)
    bracket = 2.0 * sum(c.duu * c.dvv - c.duv * c.duv for c in comps)
    if _fails((E <= 0.0) | (G <= 0.0) | (E * G - F * F <= EPS_REG)):
        raise DegenerateParametrization(
            f"first fundamental form not positive definite: "
            f"E={E!r}, F={F!r}, G={G!r}")
    return FirstFundamentalForm(E, F, G, E_p, E_q, F_p, F_q, G_p, G_q, bracket)


def second_order_scalars(surface, p, q):
    """D, D', D'' against the unnormalized normal, and m..n'' from tangent
    projections of the second derivatives."""
    comps = embedding_jets(surface, p, q)
    return second_order_from_jets(comps, normal_from_jets(*comps))


def second_order_from_jets(comps, nd):
    """Second-order scalars from the embedding's 2-jets and their normal,
    floats or arrays."""
    ABC = (nd.A, nd.B, nd.C)
    tp = tuple(c.du for c in comps)
    tq = tuple(c.dv for c in comps)
    spp = tuple(c.duu for c in comps)
    spq = tuple(c.duv for c in comps)
    sqq = tuple(c.dvv for c in comps)

    def dot(u, w):
        return u[0] * w[0] + u[1] * w[1] + u[2] * w[2]

    return SecondOrderScalars(
        D=dot(ABC, spp), D1=dot(ABC, spq), D2=dot(ABC, sqq),
        m=dot(tp, spp), m1=dot(tp, spq), m2=dot(tp, sqq),
        n=dot(tq, spp), n1=dot(tq, spq), n2=dot(tq, sqq),
    )


def gauss_curvature_graph(f, x, y):
    """kappa = (T V - U^2) / (1 + t^2 + u^2)^2 for z = f(x, y)."""
    _, _, fj = embedding_jets(GraphSurface(f), x, y)
    t, u = fj.du, fj.dv
    T, U, V = fj.duu, fj.duv, fj.dvv
    w = 1.0 + t * t + u * u
    return (T * V - U * U) / (w * w)


def gauss_curvature_parametric(surface, p, q):
    """kappa = (D D'' - D'^2) / (E G - F^2)^2."""
    comps = embedding_jets(surface, p, q)
    return gauss_from_jets(comps, fff_from_jets(*comps))


def gauss_from_jets(comps, fff):
    """Parametric curvature from the embedding's 2-jets and their first
    form, floats or arrays."""
    nd = normal_from_jets(*comps)
    return gauss_from_forms(fff, second_order_from_jets(comps, nd))


def gauss_from_forms(fff, so):
    """Parametric curvature from the first form and the second-order
    scalars, floats or arrays."""
    disc = fff.E * fff.G - fff.F * fff.F
    return (so.D * so.D2 - so.D1 * so.D1) / (disc * disc)


def point_tolerance(grad_norm):
    return 1e-9 * (1.0 + grad_norm)


def gauss_curvature_implicit(w, x, y, z):
    """Nine-element symmetric formula over W's first and second partials,
    divided by |grad W|^4; invariant under W -> lambda W."""
    return gauss_from_implicit(ImplicitSurface(w), x, y, z)


def implicit_partials(surface, x, y, z):
    """W and its partials (v, dx, dy, dz, dxx, dxy, dxz, dyy, dyz, dzz) at
    (x, y, z), from the three lowered passes."""
    xy, xz, yz = surface.lowered
    ((v, dx, dy, dxx, dxy, dyy),) = xy(x, y, z)
    ((_, _, dz, _, dxz, dzz),) = xz(x, z, y)
    ((_, _, _, _, dyz, _),) = yz(y, z, x)
    return v, dx, dy, dz, dxx, dxy, dxz, dyy, dyz, dzz


def gauss_from_implicit(surface, x, y, z):
    """`gauss_curvature_implicit` of an ImplicitSurface."""
    v, P, Q, R, P1, R2, Q2, Q1, P2, R1 = implicit_partials(surface, x, y, z)
    grad2 = P * P + Q * Q + R * R
    grad_norm = math.sqrt(grad2)
    if grad_norm < EPS_REG:
        raise SingularGradient(f"gradient vanishes at ({x}, {y}, {z})")
    if abs(v) > point_tolerance(grad_norm):
        raise NotOnSurface(
            f"|W({x}, {y}, {z})| = {abs(v)!r} exceeds the membership tolerance")
    # single-prime family P1, Q1, R1 = W_xx, W_yy, W_zz; double-prime
    # family P2, Q2, R2 = W_yz, W_xz, W_xy
    num = (P * P * (Q1 * R1 - P2 * P2)
           + Q * Q * (P1 * R1 - Q2 * Q2)
           + R * R * (P1 * Q1 - R2 * R2)
           + 2.0 * Q * R * (Q2 * R2 - P1 * P2)
           + 2.0 * P * R * (P2 * R2 - Q1 * Q2)
           + 2.0 * P * Q * (P2 * Q2 - R1 * R2))
    return num / (grad2 * grad2)


def principal_curvatures(surface, p, q):
    """Roots of the characteristic polynomial of the second form against
    the first form, with metric-unit principal directions."""
    comps = embedding_jets(surface, p, q)
    fff = fff_from_jets(*comps)
    nd = normal_from_jets(*comps)
    return principal_from_forms(fff, nd, second_order_from_jets(comps, nd))


def principal_values(fff, nd, so):
    """(k_min, k_max) from the first form, normal and second-order scalars,
    without their directions; floats, or arrays over a grid."""
    e = so.D / nd.delta
    f = so.D1 / nd.delta
    g = so.D2 / nd.delta
    E, F, G = fff.E, fff.F, fff.G
    disc = E * G - F * F
    mean = (e * G - 2.0 * f * F + g * E) / (2.0 * disc)
    gauss = (e * g - f * f) / disc
    radic = mean * mean - gauss
    if type(radic) is ndarray:
        root = np.sqrt(np.maximum(radic, 0.0))
    else:
        root = math.sqrt(max(radic, 0.0))
    return mean - root, mean + root


def principal_from_forms(fff, nd, so):
    """Principal curvatures from the first form, normal and second-order
    scalars."""
    k_min, k_max = principal_values(fff, nd, so)
    if abs(k_max - k_min) <= UMBILIC_REL_TOL * (1.0 + abs(k_max)):
        return PrincipalCurvatures(k_min, k_max, None, None, True)
    e = so.D / nd.delta
    f = so.D1 / nd.delta
    g = so.D2 / nd.delta
    E, F, G = fff.E, fff.F, fff.G

    def direction(k):
        # null vector of (II - k I); pick the better conditioned row
        r1 = (e - k * E, f - k * F)
        r2 = (f - k * F, g - k * G)
        row = r1 if math.hypot(*r1) >= math.hypot(*r2) else r2
        vec = (-row[1], row[0])
        try:
            norm = math.sqrt(E * vec[0] ** 2 + 2.0 * F * vec[0] * vec[1]
                             + G * vec[1] ** 2)
        except OverflowError:
            # float ** raises where * would give inf
            raise DomainError(f"principal direction for k={k!r} overflows "
                              f"in the first form") from None
        return (vec[0] / norm, vec[1] / norm)

    return PrincipalCurvatures(k_min, k_max, direction(k_min),
                               direction(k_max), False)


def euler_normal_section(k_min_dirwise, k_max_dirwise, theta):
    """Normal-section curvature at angle theta from the minimal-radius
    (maximal-curvature) principal direction."""
    c, s = math.cos(theta), math.sin(theta)
    return k_min_dirwise * c * c + k_max_dirwise * s * s


def meusnier(k_normal_section, omega):
    """Oblique-section curvature: the normal-section value divided by
    sin(omega), omega being the angle with the normal plane."""
    s = math.sin(omega)
    if s <= EPS_REG:
        raise DegenerateAngle(
            f"section plane at omega={omega!r} collapses onto the tangent plane")
    if not 0.0 < omega <= math.pi / 2.0 + EPS_REG:
        raise InputError(f"omega must lie in (0, pi/2], got {omega!r}")
    return k_normal_section / s


def _spherical_triangle_area(n1, n2, n3):
    """Signed spherical excess via l'Huilier; sign from the vertex handedness."""
    def angle(u, w):
        cross = (u[1] * w[2] - u[2] * w[1],
                 u[2] * w[0] - u[0] * w[2],
                 u[0] * w[1] - u[1] * w[0])
        dot = u[0] * w[0] + u[1] * w[1] + u[2] * w[2]
        return math.atan2(math.hypot(*cross), dot)

    a = angle(n2, n3)
    b = angle(n1, n3)
    c = angle(n1, n2)
    s = 0.5 * (a + b + c)
    t = (math.tan(0.5 * s) * math.tan(0.5 * (s - a))
         * math.tan(0.5 * (s - b)) * math.tan(0.5 * (s - c)))
    excess = 4.0 * math.atan(math.sqrt(max(t, 0.0)))
    triple = (n1[0] * (n2[1] * n3[2] - n2[2] * n3[1])
              - n1[1] * (n2[0] * n3[2] - n2[2] * n3[0])
              + n1[2] * (n2[0] * n3[1] - n2[1] * n3[0]))
    return math.copysign(excess, triple) if triple != 0.0 else 0.0


def gauss_map_quotient(surface, p, q, eps):
    """Signed area of the normal image of a small triangle fan around
    (p, q), divided by the fan's surface area.

    Converges to the parametric curvature as eps -> 0; the sign records
    whether the normal map preserves or reverses orientation.
    """
    def sample(pp, qq):
        xj, yj, zj = embedding_jets(surface, pp, qq)
        nd = normal_from_jets(xj, yj, zj)
        return (xj.v, yj.v, zj.v), (nd.X, nd.Y, nd.Z)

    x0, n0 = sample(p, q)
    ring = []
    for i in range(GAUSS_MAP_FAN):
        ang = 2.0 * math.pi * i / GAUSS_MAP_FAN
        ring.append(sample(p + eps * math.cos(ang), q + eps * math.sin(ang)))

    surf_area = 0.0
    sphere_area = 0.0
    for i in range(GAUSS_MAP_FAN):
        (xi, ni) = ring[i]
        (xk, nk) = ring[(i + 1) % GAUSS_MAP_FAN]
        e1 = (xi[0] - x0[0], xi[1] - x0[1], xi[2] - x0[2])
        e2 = (xk[0] - x0[0], xk[1] - x0[1], xk[2] - x0[2])
        cross = (e1[1] * e2[2] - e1[2] * e2[1],
                 e1[2] * e2[0] - e1[0] * e2[2],
                 e1[0] * e2[1] - e1[1] * e2[0])
        # area projected on the tangent plane, signed against the normal
        surf_area += 0.5 * (cross[0] * n0[0] + cross[1] * n0[1]
                            + cross[2] * n0[2])
        sphere_area += _spherical_triangle_area(n0, ni, nk)
    if abs(surf_area) < EPS_REG:
        raise DegenerateParametrization(
            f"fan of radius {eps!r} spans no area at ({p}, {q})")
    return sphere_area / surf_area
