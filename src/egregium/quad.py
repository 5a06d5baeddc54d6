"""Numerical integration of scalar fields against the metric area element.

Rectangles use tensor Gauss-Legendre; triangulated regions use a symmetric
7-point degree-5 rule per triangle, refined by uniform subdivision.  Panel
sums are accumulated in a fixed order so results are reproducible bit for
bit, whether the nodes are evaluated one by one or many at a time over
arrays.  Singular chart edges (sphere poles) are handled by shrinking the
rectangle with an explicit cutoff, not by adaptive refinement; corpus
integrands vanish there, so cutoffs are benign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class Rect:
    u0: float
    u1: float
    v0: float
    v1: float

    def __post_init__(self):
        if not (self.u1 > self.u0 and self.v1 > self.v0):
            raise InputError(f"empty rectangle {self!r}")


@dataclass(frozen=True)
class TriFan:
    """Parameter-space triangles; each is three (u, v) vertices."""
    triangles: tuple

    def __post_init__(self):
        for tri in self.triangles:
            if abs(_tri_area(tri)) < 1e-300:
                raise InputError(f"degenerate triangle {tri!r}")


Region = Rect | TriFan


def _tri_area(tri):
    (ax, ay), (bx, by), (cx, cy) = tri
    return 0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


@lru_cache(maxsize=None)
def gauss_legendre(n):
    """Nodes and weights on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return tuple(nodes.tolist()), tuple(weights.tolist())


# symmetric 7-point rule, exact for total degree 5 (barycentric data)
_SQRT15 = math.sqrt(15.0)
_TRI7 = (
    (1.0 / 3.0, 1.0 / 3.0, 9.0 / 40.0),
    ((6.0 - _SQRT15) / 21.0, (6.0 - _SQRT15) / 21.0, (155.0 - _SQRT15) / 1200.0),
    ((6.0 - _SQRT15) / 21.0, (9.0 + 2.0 * _SQRT15) / 21.0, (155.0 - _SQRT15) / 1200.0),
    ((9.0 + 2.0 * _SQRT15) / 21.0, (6.0 - _SQRT15) / 21.0, (155.0 - _SQRT15) / 1200.0),
    ((6.0 + _SQRT15) / 21.0, (6.0 + _SQRT15) / 21.0, (155.0 + _SQRT15) / 1200.0),
    ((6.0 + _SQRT15) / 21.0, (9.0 - 2.0 * _SQRT15) / 21.0, (155.0 + _SQRT15) / 1200.0),
    ((9.0 - 2.0 * _SQRT15) / 21.0, (6.0 + _SQRT15) / 21.0, (155.0 + _SQRT15) / 1200.0),
)


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float  # |I(order) - I(order/2)|


def integrate(metric, field, region, order=32, grid_field=None):
    """Integral of field(u, v) * sqrt(EG - F^2) over the region.

    For rectangles `order` is the tensor Gauss-Legendre point count per
    axis; for triangle fans it is the uniform subdivision count per side.
    The reported error compares against the half-order evaluation.

    `grid_field`, if given, is the same integrand as a function of metric
    data (`intrinsic.kappa_from_metric` for the Gaussian curvature).  Each
    pass then evaluates its nodes through `metric.grid`, up to GRID_CHUNK
    at once, and sums them in the order of the node-by-node pass, so the
    result has its bits; where `metric.grid` returns None, those nodes are
    evaluated by `field` and `metric.area_element` one by one, and the
    first failing node raises its error.
    """
    coarse_order = max(1, order // 2)
    value = _integrate_once(metric, field, region, order, grid_field)
    if coarse_order == order:
        return QuadResult(value, 0.0)
    coarse = _integrate_once(metric, field, region, coarse_order, grid_field)
    return QuadResult(value, abs(value - coarse))


# Nodes evaluated at once through `metric.grid`: at most this many, so that
# memory stays bounded whatever the order.
GRID_CHUNK = 1 << 14


def _integrate_once(metric, field, region, order, grid_field):
    if isinstance(region, Rect):
        rule = _rect_rule
    elif isinstance(region, TriFan):
        rule = _fan_rule
    else:
        raise TypeError(f"unknown region {type(region).__name__}")
    # the rule yields each node (u, v) and is sent back (field, area
    # element) there; a second walk of the same rule reads the nodes ahead
    summation = rule(region, order)
    values = (None if grid_field is None else
              _grid_values(metric, field, grid_field, rule(region, order)))
    try:
        u, v = next(summation)
        while True:
            u, v = summation.send(
                (field(u, v), metric.area_element(u, v)) if values is None
                else next(values))
    except StopIteration as done:
        return done.value


def _grid_values(metric, field, grid_field, walk):
    """(field, area element) at the nodes `walk` yields, in their order, as
    Python floats: GRID_CHUNK nodes at a time through `metric.grid`, or node
    by node where it returns None, so that the first failing node raises
    its own error."""
    nodes = _nodes(walk)
    while chunk := list(islice(nodes, GRID_CHUNK)):
        u, v = (np.array(coords) for coords in zip(*chunk))
        with np.errstate(all="ignore"):
            m = metric.grid(u, v)
            # the per-point path's float operations, element by element
            pairs = None if m is None else list(
                zip(grid_field(m).tolist(), np.sqrt(m.disc).tolist()))
        yield from pairs or ((field(u, v), metric.area_element(u, v))
                             for u, v in chunk)


def _nodes(walk):
    """The nodes a rule yields, in order, when every node is sent zeros."""
    try:
        node = next(walk)
        while True:
            yield node
            node = walk.send((0.0, 0.0))
    except StopIteration:
        return


# The rules below are generators that walk the nodes of a region in a fixed
# order, receive (f, a), the integrand and the area element at each node,
# and return the sum of w * f * a over them.


def _rect_rule(rect, order):
    nodes, weights = gauss_legendre(order)
    su = 0.5 * (rect.u1 - rect.u0)
    mu = 0.5 * (rect.u1 + rect.u0)
    sv = 0.5 * (rect.v1 - rect.v0)
    mv = 0.5 * (rect.v1 + rect.v0)
    total = 0.0
    for xi, wi in zip(nodes, weights):
        u = mu + su * xi
        row = 0.0
        for yj, wj in zip(nodes, weights):
            f, a = yield u, mv + sv * yj
            row += wj * f * a
        total += wi * row
    return total * su * sv


def _fan_rule(fan, subdivisions):
    n = max(1, subdivisions)
    total = 0.0
    for tri in fan.triangles:
        acc = 0.0
        # uniform refinement into n^2 congruent sub-triangles
        for i in range(n):
            for j in range(n - i):
                l0 = (i / n, j / n)
                l1 = ((i + 1) / n, j / n)
                l2 = (i / n, (j + 1) / n)
                acc += yield from _tri7(tri, (l0, l1, l2))
                if j < n - i - 1:
                    l3 = ((i + 1) / n, (j + 1) / n)
                    acc += yield from _tri7(tri, (l1, l3, l2))
        total += acc
    return total


def _tri7(tri, local):
    (ax, ay), (bx, by), (cx, cy) = tri

    def embed(lmb):
        s, t = lmb
        return (ax + s * (bx - ax) + t * (cx - ax),
                ay + s * (by - ay) + t * (cy - ay))

    p0, p1, p2 = (embed(l) for l in local)
    area = abs(_tri_area((p0, p1, p2)))
    acc = 0.0
    for (l1, l2, w) in _TRI7:
        l0 = 1.0 - l1 - l2
        f, a = yield (l0 * p0[0] + l1 * p1[0] + l2 * p2[0],
                      l0 * p0[1] + l1 * p1[1] + l2 * p2[1])
        acc += w * f * a
    return acc * area
