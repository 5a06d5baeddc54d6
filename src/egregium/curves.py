"""Plane-curve geometry in the three representations.

Signed curvature follows the counterclockwise convention: the unit normal
N is the unit tangent T rotated by +pi/2, so a graph curve has curvature
f'' / (1 + f'^2)^(3/2).  Implicit curvature is reported as a magnitude with
a gradient-side tag, since the implicit derivation pins only its square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import exprlang, jets, quad
from .errors import (CoincidentPoints, InputError, NotOnCurve,
                     SingularGradient, SingularPoint, ZeroCurvature)

EPS_REG = 1e-12

# Gauss-Legendre points per sample interval of `arclength_reparametrize`
REPARAMETRIZE_ORDER = 16

CCW_NORMAL = "ccw-normal"
GRADIENT_SIDE = "gradient-side"


@dataclass(frozen=True)
class GraphCurve:
    """y = f(x); the expression uses variable x."""
    f: exprlang.ExprAst
    # f lowered once by exprlang.lower_jet2; x -> [slots of f]
    lowered: object = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lowered",
                           exprlang.lower_jet2((self.f,), {"x": 0}))


@dataclass(frozen=True)
class ParametricCurve:
    """t -> (x(t), y(t)); both expressions use variable t."""
    x: exprlang.ExprAst
    y: exprlang.ExprAst
    # both lowered once; t -> [slots of x, y]
    lowered: object = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lowered",
                           exprlang.lower_jet2((self.x, self.y), {"t": 0}))


@dataclass(frozen=True)
class ImplicitCurve:
    """W(x, y) = 0 at regular points."""
    w: exprlang.ExprAst
    # W lowered once; (x, y) -> [slots of W]
    lowered: object = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lowered",
                           exprlang.lower_jet2((self.w,), {"x": 0, "y": 1}))


CurveDef = GraphCurve | ParametricCurve | ImplicitCurve


@dataclass(frozen=True)
class SignedCurvature:
    value: float
    convention: str


@dataclass(frozen=True)
class UnitFrame:
    T: tuple[float, float]
    N: tuple[float, float]


def _jets(curve, *coords):
    """The slots of the curve's lowered expressions at a point; a function
    of one variable reads its derivatives from du and duu."""
    return tuple(map(jets.JetSlots._make, curve.lowered(*coords)))


def arc_length(curve, x1, x2, order=8, panels=8):
    """Length of a graph curve between two abscissas by composite
    Gauss-Legendre quadrature of sqrt(1 + f'(x)^2)."""
    if not isinstance(curve, GraphCurve):
        raise TypeError("arc_length expects a graph curve")
    if not x2 > x1:
        raise InputError(f"need x1 < x2, got {x1!r}, {x2!r}")
    nodes, weights = quad.gauss_legendre(order)
    total = 0.0
    width = (x2 - x1) / panels
    for k in range(panels):
        a = x1 + k * width
        mid = a + 0.5 * width
        half = 0.5 * width
        for xi, wi in zip(nodes, weights):
            (fj,) = _jets(curve, mid + half * xi)
            total += wi * math.sqrt(1.0 + fj.du * fj.du) * half
    return total


def frame_graph(f, x):
    """Unit tangent (1, f') and normal (-f', 1), both normalized."""
    return _graph_frame(*_jets(GraphCurve(f), x))


def _graph_frame(fj):
    s = math.sqrt(1.0 + fj.du * fj.du)
    return UnitFrame((1.0 / s, fj.du / s), (-fj.du / s, 1.0 / s))


def frame_parametric(x_ast, y_ast, t):
    """Unit tangent along increasing t, with N the tangent rotated +pi/2."""
    return _param_frame(*_jets(ParametricCurve(x_ast, y_ast), t), t)


def _param_frame(xj, yj, t):
    speed = math.hypot(xj.du, yj.du)
    if speed < EPS_REG:
        raise SingularPoint(f"velocity vanishes at t={t!r}")
    tangent = (xj.du / speed, yj.du / speed)
    return UnitFrame(tangent, (-tangent[1], tangent[0]))


def curvature_graph(f, x):
    """c = f'' / (1 + f'^2)^(3/2)."""
    return SignedCurvature(_graph_curvature(*_jets(GraphCurve(f), x)),
                           CCW_NORMAL)


def _graph_curvature(fj):
    w = 1.0 + fj.du * fj.du
    return fj.duu / (w * math.sqrt(w))


def curvature_parametric(x_ast, y_ast, t):
    """c = (x' y'' - y' x'') / (x'^2 + y'^2)^(3/2); reversing t flips it."""
    xj, yj = _jets(ParametricCurve(x_ast, y_ast), t)
    return SignedCurvature(_param_curvature(xj, yj, t), CCW_NORMAL)


def _param_curvature(xj, yj, t):
    speed2 = xj.du * xj.du + yj.du * yj.du
    if speed2 < EPS_REG * EPS_REG:
        raise SingularPoint(f"velocity vanishes at t={t!r}")
    num = xj.du * yj.duu - yj.du * xj.duu
    return num / (speed2 * math.sqrt(speed2))


def _implicit_parts(curve, x, y):
    """W's jet, |grad W|^2, |grad W| and the curvature numerator
    W_xx W_y^2 - 2 W_xy W_x W_y + W_yy W_x^2 at an on-curve regular point."""
    (wj,) = _jets(curve, x, y)
    grad2 = wj.du * wj.du + wj.dv * wj.dv
    grad_norm = math.sqrt(grad2)
    if grad_norm < EPS_REG:
        raise SingularGradient(f"gradient vanishes at ({x}, {y})")
    if abs(wj.v) > 1e-9 * (1.0 + grad_norm):
        raise NotOnCurve(
            f"|W({x}, {y})| = {abs(wj.v)!r} exceeds the membership tolerance")
    num = (wj.duu * wj.dv * wj.dv - 2.0 * wj.duv * wj.du * wj.dv
           + wj.dvv * wj.du * wj.du)
    return wj, grad2, grad_norm, num


def curvature_implicit(w, x, y):
    """|c| = |W_xx W_y^2 - 2 W_xy W_x W_y + W_yy W_x^2| / |grad W|^3
    at an on-curve regular point."""
    _, grad2, grad_norm, num = _implicit_parts(ImplicitCurve(w), x, y)
    return SignedCurvature(_implicit_curvature(grad2, grad_norm, num),
                           GRADIENT_SIDE)


def _implicit_curvature(grad2, grad_norm, num):
    return abs(num) / (grad2 * grad_norm)


def menger_curvature(p1, p2, p3):
    """4 Area / (|p1p2| |p1p3| |p2p3|), the reciprocal circumradius;
    zero exactly when the points are collinear."""
    d12 = math.dist(p1, p2)
    d13 = math.dist(p1, p3)
    d23 = math.dist(p2, p3)
    if min(d12, d13, d23) < EPS_REG:
        raise CoincidentPoints(f"points {p1}, {p2}, {p3} are not pairwise distinct")
    twice_area = abs((p2[0] - p1[0]) * (p3[1] - p1[1])
                     - (p2[1] - p1[1]) * (p3[0] - p1[0]))
    return 2.0 * twice_area / (d12 * d13 * d23)


def osculating_circle(curve, at):
    """Center and radius of the limit circle through three coalescing
    points; degenerates to a line (ZeroCurvature) on straight stretches.

    `at` is the abscissa for graphs, the parameter for parametric curves,
    and an (x, y) point for implicit curves.
    """
    if isinstance(curve, GraphCurve):
        (fj,) = _jets(curve, at)
        c = _graph_curvature(fj)
        if abs(c) < EPS_REG:
            raise ZeroCurvature(f"curvature vanishes at {at!r}")
        point = (at, fj.v)
        s = math.sqrt(1.0 + fj.du * fj.du)
        normal = (-fj.du / s, 1.0 / s)
        radius = 1.0 / abs(c)
        center = (point[0] + normal[0] / c, point[1] + normal[1] / c)
        return center, radius
    if isinstance(curve, ParametricCurve):
        xj, yj = _jets(curve, at)
        c = _param_curvature(xj, yj, at)
        if abs(c) < EPS_REG:
            raise ZeroCurvature(f"curvature vanishes at t={at!r}")
        speed = math.hypot(xj.du, yj.du)
        normal = (-yj.du / speed, xj.du / speed)  # tangent rotated +pi/2
        center = (xj.v + normal[0] / c, yj.v + normal[1] / c)
        return center, 1.0 / abs(c)
    if isinstance(curve, ImplicitCurve):
        x, y = at
        wj, grad2, grad_norm, num = _implicit_parts(curve, x, y)
        if abs(num) < EPS_REG * grad2 * grad_norm:
            raise ZeroCurvature(f"curvature vanishes at ({x}, {y})")
        # center sits opposite the gradient scaled by |grad|^2 / numerator,
        # which is invariant under W -> -W
        scale = grad2 / num
        center = (x - scale * wj.du, y - scale * wj.dv)
        return center, grad2 * grad_norm / abs(num)
    raise TypeError(f"unknown curve {type(curve).__name__}")


def arclength_reparametrize(curve, t0, t1, samples):
    """Table of (s, t) pairs with strictly increasing cumulative arclength.

    After reparametrization by s the curve has unit speed: its intrinsic
    one-dimensional metric is trivial, every plane curve straightens.
    """
    if not isinstance(curve, ParametricCurve):
        raise TypeError("arclength_reparametrize expects a parametric curve")
    if not t1 > t0:
        raise InputError(f"need t0 < t1, got {t0!r}, {t1!r}")
    nodes, weights = quad.gauss_legendre(REPARAMETRIZE_ORDER)

    def speed(t):
        xj, yj = _jets(curve, t)
        sp = math.hypot(xj.du, yj.du)
        if sp < EPS_REG:
            raise SingularPoint(f"velocity vanishes at t={t!r}")
        return sp

    speed(t0)
    table = [(0.0, t0)]
    s = 0.0
    for k in range(1, samples):
        a = t0 + (t1 - t0) * (k - 1) / (samples - 1)
        b = t0 + (t1 - t0) * k / (samples - 1)
        speed(b)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        s += sum(wi * speed(mid + half * xi) * half
                 for xi, wi in zip(nodes, weights))
        table.append((s, b))
    return table
