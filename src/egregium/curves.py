"""Plane-curve geometry in the three representations.

Signed curvature follows the counterclockwise convention: the unit normal
N is the unit tangent T rotated by +pi/2, so a graph curve has curvature
f'' / (1 + f'^2)^(3/2).  Implicit curvature is reported as a magnitude with
a gradient-side tag, since the implicit derivation pins only its square.

Frames, curvatures, osculating circles and the `curve` command's rows are
read from two kernels over one jet per expression: `curve_columns` (point,
frame and signed curvature of graph and parametric curves, the point from
the value slots) and `implicit_columns` (frame and |kappa|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def lowered(self):
        """f lowered once by exprlang.lower_jet2; x -> [slots of f]"""
        return exprlang.lower_jet2((self.f,), {"x": 0})


@dataclass(frozen=True)
class ParametricCurve:
    """t -> (x(t), y(t)); both expressions use variable t."""
    x: exprlang.ExprAst
    y: exprlang.ExprAst

    @cached_property
    def lowered(self):
        """Both lowered once; t -> [slots of x, y]"""
        return exprlang.lower_jet2((self.x, self.y), {"t": 0})


@dataclass(frozen=True)
class ImplicitCurve:
    """W(x, y) = 0 at regular points."""
    w: exprlang.ExprAst

    @cached_property
    def lowered(self):
        """W lowered once; (x, y) -> [slots of W]"""
        return exprlang.lower_jet2((self.w,), {"x": 0, "y": 1})


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


def curve_columns(curve, t):
    """(x, y, Tx, Ty, Nx, Ny, kappa) of a graph or parametric curve at t,
    the abscissa of a graph, from one jet per expression.  The point is
    read from the value slots; N is the unit tangent rotated +pi/2 and
    kappa the signed curvature."""
    if isinstance(curve, GraphCurve):
        (fj,) = _jets(curve, t)
        w = 1.0 + fj.du * fj.du
        s = math.sqrt(w)
        return (t, fj.v, 1.0 / s, fj.du / s, -fj.du / s, 1.0 / s,
                fj.duu / (w * s))
    if not isinstance(curve, ParametricCurve):
        raise TypeError(f"unknown curve {type(curve).__name__}")
    xj, yj = _jets(curve, t)
    speed = _speed(xj, yj, t)
    speed2 = xj.du * xj.du + yj.du * yj.du
    kappa = (xj.du * yj.duu - yj.du * xj.duu) / (speed2 * math.sqrt(speed2))
    tx, ty = xj.du / speed, yj.du / speed
    return xj.v, yj.v, tx, ty, -ty, tx, kappa


def _speed(xj, yj, t):
    """|(x'(t), y'(t))|, or SingularPoint where it vanishes."""
    speed = math.hypot(xj.du, yj.du)
    if speed < EPS_REG:
        raise SingularPoint(f"velocity vanishes at t={t!r}")
    return speed


def frame_graph(f, x):
    """Unit tangent (1, f') and normal (-f', 1), both normalized."""
    columns = curve_columns(GraphCurve(f), x)
    return UnitFrame(columns[2:4], columns[4:6])


def frame_parametric(x_ast, y_ast, t):
    """Unit tangent along increasing t, with N the tangent rotated +pi/2."""
    columns = curve_columns(ParametricCurve(x_ast, y_ast), t)
    return UnitFrame(columns[2:4], columns[4:6])


def curvature_graph(f, x):
    """c = f'' / (1 + f'^2)^(3/2)."""
    return SignedCurvature(curve_columns(GraphCurve(f), x)[6], CCW_NORMAL)


def curvature_parametric(x_ast, y_ast, t):
    """c = (x' y'' - y' x'') / (x'^2 + y'^2)^(3/2); reversing t flips it."""
    return SignedCurvature(
        curve_columns(ParametricCurve(x_ast, y_ast), t)[6], CCW_NORMAL)


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


def implicit_columns(curve, x, y):
    """(Tx, Ty, Nx, Ny, |kappa|) of an implicit curve at an on-curve regular
    point, from one jet of W: N is the unit gradient and T is N rotated
    -pi/2."""
    wj, grad2, grad_norm, num = _implicit_parts(curve, x, y)
    norm = math.hypot(wj.du, wj.dv)
    return (-wj.dv / norm, wj.du / norm, wj.du / norm, wj.dv / norm,
            abs(num) / (grad2 * grad_norm))


def curvature_implicit(w, x, y):
    """|c| = |W_xx W_y^2 - 2 W_xy W_x W_y + W_yy W_x^2| / |grad W|^3
    at an on-curve regular point."""
    return SignedCurvature(implicit_columns(ImplicitCurve(w), x, y)[4],
                           GRADIENT_SIDE)


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
    x, y, _, _, nx, ny, c = curve_columns(curve, at)
    if abs(c) < EPS_REG:
        where = f"t={at!r}" if isinstance(curve, ParametricCurve) else repr(at)
        raise ZeroCurvature(f"curvature vanishes at {where}")
    return (x + nx / c, y + ny / c), 1.0 / abs(c)


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
        return _speed(*_jets(curve, t), t)

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
