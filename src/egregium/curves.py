"""Plane-curve geometry in the three representations.

Signed curvature follows the counterclockwise convention: the unit normal
N is the unit tangent T rotated by +pi/2, so a graph curve has curvature
f'' / (1 + f'^2)^(3/2).  Implicit curvature is reported as a magnitude with
a gradient-side tag, since the implicit derivation pins only its square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import exprlang, jets, quad
from .errors import (CoincidentPoints, NotOnCurve, SingularGradient,
                     SingularPoint, ZeroCurvature)

EPS_REG = 1e-12

CCW_NORMAL = "ccw-normal"
GRADIENT_SIDE = "gradient-side"


@dataclass(frozen=True)
class GraphCurve:
    """y = f(x); the expression uses variable x."""
    f: exprlang.ExprAst


@dataclass(frozen=True)
class ParametricCurve:
    """t -> (x(t), y(t)); both expressions use variable t."""
    x: exprlang.ExprAst
    y: exprlang.ExprAst


@dataclass(frozen=True)
class ImplicitCurve:
    """W(x, y) = 0 at regular points."""
    w: exprlang.ExprAst


CurveDef = GraphCurve | ParametricCurve | ImplicitCurve


@dataclass(frozen=True)
class SignedCurvature:
    value: float
    convention: str


@dataclass(frozen=True)
class UnitFrame:
    T: tuple[float, float]
    N: tuple[float, float]


def _graph_jet(f, x):
    return jets.coerce(exprlang.evaluate(f, {"x": jets.Jet2_1.variable(x)}),
                       jets.Jet2_1)


def _param_jets(x_ast, y_ast, t):
    tj = jets.Jet2_1.variable(t)
    return (jets.coerce(exprlang.evaluate(x_ast, {"t": tj}), jets.Jet2_1),
            jets.coerce(exprlang.evaluate(y_ast, {"t": tj}), jets.Jet2_1))


def _implicit_jet(w, x, y):
    return jets.coerce(exprlang.evaluate(w, {
        "x": jets.Jet2_2.variable_u(x),
        "y": jets.Jet2_2.variable_v(y),
    }), jets.Jet2_2)


def arc_length(curve, x1, x2, order=8, panels=8):
    """Length of a graph curve between two abscissas by composite
    Gauss-Legendre quadrature of sqrt(1 + f'(x)^2)."""
    if not isinstance(curve, GraphCurve):
        raise TypeError("arc_length expects a graph curve")
    if not x2 > x1:
        raise ValueError(f"need x1 < x2, got {x1!r}, {x2!r}")
    nodes, weights = quad.gauss_legendre(order)
    total = 0.0
    width = (x2 - x1) / panels
    for k in range(panels):
        a = x1 + k * width
        mid = a + 0.5 * width
        half = 0.5 * width
        for xi, wi in zip(nodes, weights):
            fj = _graph_jet(curve.f, mid + half * xi)
            total += wi * math.sqrt(1.0 + fj.d1 * fj.d1) * half
    return total


def frame_graph(f, x):
    """Unit tangent (1, f') and normal (-f', 1), both normalized."""
    return _graph_frame(_graph_jet(f, x))


def _graph_frame(fj):
    s = math.sqrt(1.0 + fj.d1 * fj.d1)
    return UnitFrame((1.0 / s, fj.d1 / s), (-fj.d1 / s, 1.0 / s))


def frame_parametric(x_ast, y_ast, t):
    """Unit tangent along increasing t, with N the tangent rotated +pi/2."""
    return _param_frame(*_param_jets(x_ast, y_ast, t), t)


def _param_frame(xj, yj, t):
    speed = math.hypot(xj.d1, yj.d1)
    if speed < EPS_REG:
        raise SingularPoint(f"velocity vanishes at t={t!r}")
    tangent = (xj.d1 / speed, yj.d1 / speed)
    return UnitFrame(tangent, (-tangent[1], tangent[0]))


def curvature_graph(f, x):
    """c = f'' / (1 + f'^2)^(3/2)."""
    return SignedCurvature(_graph_curvature(_graph_jet(f, x)), CCW_NORMAL)


def _graph_curvature(fj):
    w = 1.0 + fj.d1 * fj.d1
    return fj.d2 / (w * math.sqrt(w))


def curvature_parametric(x_ast, y_ast, t):
    """c = (x' y'' - y' x'') / (x'^2 + y'^2)^(3/2); reversing t flips it."""
    xj, yj = _param_jets(x_ast, y_ast, t)
    return SignedCurvature(_param_curvature(xj, yj, t), CCW_NORMAL)


def _param_curvature(xj, yj, t):
    speed2 = xj.d1 * xj.d1 + yj.d1 * yj.d1
    if speed2 < EPS_REG * EPS_REG:
        raise SingularPoint(f"velocity vanishes at t={t!r}")
    num = xj.d1 * yj.d2 - yj.d1 * xj.d2
    return num / (speed2 * math.sqrt(speed2))


def _implicit_parts(w, x, y):
    """W's jet, |grad W|^2, |grad W| and the curvature numerator
    W_xx W_y^2 - 2 W_xy W_x W_y + W_yy W_x^2 at an on-curve regular point."""
    wj = _implicit_jet(w, x, y)
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
    _, grad2, grad_norm, num = _implicit_parts(w, x, y)
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
        fj = _graph_jet(curve.f, at)
        c = _graph_curvature(fj)
        if abs(c) < EPS_REG:
            raise ZeroCurvature(f"curvature vanishes at {at!r}")
        point = (at, fj.v)
        s = math.sqrt(1.0 + fj.d1 * fj.d1)
        normal = (-fj.d1 / s, 1.0 / s)
        radius = 1.0 / abs(c)
        center = (point[0] + normal[0] / c, point[1] + normal[1] / c)
        return center, radius
    if isinstance(curve, ParametricCurve):
        xj, yj = _param_jets(curve.x, curve.y, at)
        c = _param_curvature(xj, yj, at)
        if abs(c) < EPS_REG:
            raise ZeroCurvature(f"curvature vanishes at t={at!r}")
        speed = math.hypot(xj.d1, yj.d1)
        normal = (-yj.d1 / speed, xj.d1 / speed)  # tangent rotated +pi/2
        center = (xj.v + normal[0] / c, yj.v + normal[1] / c)
        return center, 1.0 / abs(c)
    if isinstance(curve, ImplicitCurve):
        x, y = at
        wj, grad2, grad_norm, num = _implicit_parts(curve.w, x, y)
        if abs(num) < EPS_REG * grad2 * grad_norm:
            raise ZeroCurvature(f"curvature vanishes at ({x}, {y})")
        # center sits opposite the gradient scaled by |grad|^2 / numerator,
        # which is invariant under W -> -W
        scale = grad2 / num
        center = (x - scale * wj.du, y - scale * wj.dv)
        return center, grad2 * grad_norm / abs(num)
    raise TypeError(f"unknown curve {type(curve).__name__}")


def arclength_reparametrize(curve, t0, t1, samples, order=16):
    """Table of (s, t) pairs with strictly increasing cumulative arclength.

    After reparametrization by s the curve has unit speed: its intrinsic
    one-dimensional metric is trivial, every plane curve straightens.
    """
    if not isinstance(curve, ParametricCurve):
        raise TypeError("arclength_reparametrize expects a parametric curve")
    if not t1 > t0:
        raise ValueError(f"need t0 < t1, got {t0!r}, {t1!r}")
    nodes, weights = quad.gauss_legendre(order)

    def speed(t):
        xj, yj = _param_jets(curve.x, curve.y, t)
        sp = math.hypot(xj.d1, yj.d1)
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
