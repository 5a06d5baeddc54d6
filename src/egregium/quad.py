"""Numerical integration of scalar fields against the metric area element.

Rectangles use tensor Gauss-Legendre.  A region bounded by curved sides,
star-shaped about the centroid c of its vertices, is the image of
(r, t) -> c + r (side(t) - c), r in [0, 1] and t along each side, and
takes tensor Gauss-Legendre in (r, t): the sides enter as the curves they
are, not as chords (Sommariva and Vianello, J. Comput. Appl. Math. 231,
2009).  Each rule lists its nodes once, in summation order, and panel sums
are accumulated in that fixed order, so results are reproducible bit for
bit whether the nodes are evaluated one by one or many at a time over
arrays.  Singular chart edges (sphere poles) are handled by shrinking the
rectangle with an explicit cutoff, not by adaptive refinement; corpus
integrands vanish there, so cutoffs are benign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EVALUATION_ERRORS, InputError, RegionNotSimple


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
class StarRegion:
    """The region bounded by a closed chain of sides, star-shaped about the
    centroid of its vertices; each side is a callable t -> (u, v, du/dt,
    dv/dt) on [0, 1], and a side's vertex is its point at t = 0."""
    sides: tuple


Region = Rect | StarRegion


@lru_cache(maxsize=None)
def gauss_legendre(n):
    """Nodes and weights on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return tuple(nodes.tolist()), tuple(weights.tolist())


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float  # |I(order) - I(order/2)|


def integrate(metric, field, region, order=32, grid_field=None):
    """Integral of field(u, v) * sqrt(EG - F^2) over the region.

    For rectangles `order` is the tensor Gauss-Legendre point count per
    axis; for star regions it is the point count along each side, with
    half as many along each ray from the centroid.
    The reported error compares against the half-order evaluation.

    `grid_field`, if given, is the same integrand as a function of metric
    data (`intrinsic.kappa_from_metric` for the Gaussian curvature).  Each
    pass then calls `metric.at` on arrays of up to GRID_CHUNK nodes at
    once, whose values have the bits of the node-by-node pass; where that
    raises, the chunk's nodes are evaluated by `field` and
    `metric.area_element` one by one, and the first failing node raises
    its error.
    """
    coarse_order = max(1, order // 2)
    value = _integrate_once(metric, field, region, order, grid_field)
    if coarse_order == order:
        return QuadResult(value, 0.0)
    coarse = _integrate_once(metric, field, region, coarse_order, grid_field)
    return QuadResult(value, abs(value - coarse))


# Nodes evaluated at once through `metric.at`: at most this many, so that
# memory stays bounded whatever the order.
GRID_CHUNK = 1 << 14


def _integrate_once(metric, field, region, order, grid_field):
    if isinstance(region, Rect):
        rule = _rect_rule
    elif isinstance(region, StarRegion):
        rule = _star_rule
    else:
        raise TypeError(f"unknown region {type(region).__name__}")
    us, vs, outer, inner, finish = rule(region, order)
    values = _values(metric, field, grid_field, us, vs)
    total = 0.0
    for wo in outer:
        part = 0.0
        for wi, (f, a) in zip(inner, values):
            part += wi * f * a
        total += wo * part
    return finish(total)


def _values(metric, field, grid_field, us, vs):
    """(field, area element) at the nodes (us[i], vs[i]), in order, as
    Python floats: GRID_CHUNK nodes at a time through `metric.at` over
    arrays if `grid_field` is given, and node by node without it or where
    that raises, so that the first failing node raises its own error."""
    for start in range(0, len(us), GRID_CHUNK):
        u, v = us[start:start + GRID_CHUNK], vs[start:start + GRID_CHUNK]
        pairs = None
        if grid_field is not None:
            try:
                with np.errstate(all="ignore"):
                    m = metric.at(np.array(u), np.array(v))
                    # the per-node float operations, element by element
                    pairs = list(zip(grid_field(m).tolist(),
                                     np.sqrt(m.disc).tolist()))
            except EVALUATION_ERRORS:
                pass
        yield from pairs or ((field(s, t), metric.area_element(s, t))
                             for s, t in zip(u, v))


# A rule returns the nodes of a region in summation order, as two lists of
# coordinates, with outer weights, inner weights and a finishing step: the
# integral is finish(sum over i of outer[i] * sum over j of inner[j] * f a),
# f and a being the integrand and the area element at node i * len(inner) + j,
# each inner sum accumulated first.


def _rect_rule(rect, order):
    nodes, weights = gauss_legendre(order)
    su = 0.5 * (rect.u1 - rect.u0)
    mu = 0.5 * (rect.u1 + rect.u0)
    sv = 0.5 * (rect.v1 - rect.v0)
    mv = 0.5 * (rect.v1 + rect.v0)
    us = [mu + su * xi for xi in nodes]
    vs = [mv + sv * yj for yj in nodes]
    return ([u for u in us for _ in vs], vs * len(us), weights, weights,
            lambda total: total * su * sv)


def _star_rule(region, order):
    # the map (r, t) -> c + r (side(t) - c) covers the region once, with
    # Jacobian r cross(side(t) - c, side'(t)); `order` nodes run along each
    # side and half as many along each ray
    nodes, weights = _unit_rule(order)
    radii, radial_weights = _unit_rule(max(1, order // 2))
    corners = [side(0.0) for side in region.sides]
    cu = sum(p[0] for p in corners) / len(corners)
    cv = sum(p[1] for p in corners) / len(corners)
    rays = []
    for side in region.sides:
        for t, w in zip(nodes, weights):
            u, v, du, dv = side(t)
            u, v = u - cu, v - cv
            rays.append((u, v, w * (u * dv - v * du)))
    signs = {math.copysign(1.0, jac) for _, _, jac in rays if jac != 0.0}
    if len(signs) > 1:
        raise RegionNotSimple("the sides cross, or the region is not "
                              "star-shaped about the centroid of its vertices")
    us = [cu + r * u for u, _, _ in rays for r in radii]
    vs = [cv + r * v for _, v, _ in rays for r in radii]
    flip = signs == {-1.0}
    return (us, vs, [jac for _, _, jac in rays],
            [w * r for r, w in zip(radii, radial_weights)],
            lambda total: -total if flip else total)


def _unit_rule(order):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    nodes, weights = gauss_legendre(order)
    return [0.5 + 0.5 * x for x in nodes], [0.5 * w for w in weights]
