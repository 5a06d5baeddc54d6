"""Intrinsic curvature machinery over metric coefficient fields.

A MetricField supplies E, F, G with the derivative data the closed-form
curvature expression consumes: the six first partials plus the single
second-order combination (-E_vv + 2 F_uv - G_uu).  Metrics come either
from text expressions in (u, v) (the (p, q) spelling is accepted too) or
induced from a graph or parametric embedding, in which case all partials are
obtained by differentiating through the composition with jet arithmetic;
no symbolic differentiation is performed anywhere.  `MetricField.at` takes
a point, or 1-D float64 arrays of points whose elements hold the bits of
the per-point values, and raises where some point fails;
`MetricField.first_order` computes the first partials alone, which is all
the geodesic equations and the metric's lengths and angles read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from numpy import ndarray

from . import exprlang, jets, surfaces
from .errors import DegenerateMetric, DomainError, NotIsometric

EPS_REG = 1e-12

# a metric may name its coordinates u, v or p, q
_SEEDS = {"u": 0, "v": 1, "p": 0, "q": 1}


class MetricJet(NamedTuple):
    """E, F, G, their first partials, and bracket = -E_vv + 2F_uv - G_uu."""
    E: float
    F: float
    G: float
    Eu: float
    Ev: float
    Fu: float
    Fv: float
    Gu: float
    Gv: float
    bracket: float

    @property
    def disc(self):
        return self.E * self.G - self.F * self.F


class MetricField:
    """Positive-definite coefficient field ds^2 = E du^2 + 2F du dv + G dv^2.

    Expression metrics are lowered once by `exprlang.lower_jet2`, at the
    first call; every `at` call runs the lowered programs, at a point or
    once over arrays of points.  `first_order` runs one first-order program
    of all three, emitted and compiled at its first call.
    """

    def __init__(self, e_ast, f_ast, g_ast):
        self._asts = (e_ast, f_ast, g_ast)
        self._jets = exprlang.lower_jet2(self._asts, _SEEDS)
        self._first = None
        self._surface = None

    @classmethod
    def from_expressions(cls, e_text, f_text, g_text):
        return cls(exprlang.parse(e_text), exprlang.parse(f_text),
                   exprlang.parse(g_text))

    @classmethod
    def from_surface(cls, surface):
        m = cls.__new__(cls)
        m._jets = m._first = None
        m._surface = surface
        return m

    def at(self, u, v):
        """Metric data at (u, v), floats or 1-D float64 arrays; raises
        DegenerateMetric off the cone, or for a surface
        DegenerateParametrization, over arrays where some point does."""
        if self._surface is not None:
            return metric_from_fff(
                surfaces.first_fundamental_form(self._surface, u, v))
        e, f, g = self._jets(u, v)
        _check(e[0], f[0], g[0], u, v)
        return _metric_jet(e, f, g)

    def first_order(self, u, v):
        """(E, F, G, Eu, Ev, Fu, Fv, Gu, Gv) at (u, v): the first nine fields
        of `at`, bit for bit and after the same check, computed without
        second derivatives.  A surface's first partials need its second
        derivatives, so there they come from `at`."""
        if self._surface is not None:
            return self.at(u, v)[:9]
        if self._first is None:
            self._first = exprlang.lower_jet2(self._asts, _SEEDS, order=1)
        (E, Eu, Ev), (F, Fu, Fv), (G, Gu, Gv) = self._first(u, v)
        _check(E, F, G, u, v)
        return E, F, G, Eu, Ev, Fu, Fv, Gu, Gv

    def values(self, u, v):
        return self.first_order(u, v)[:3]

    def norm(self, u, v, vec):
        """Metric length of a tangent vector at (u, v)."""
        E, F, G = self.values(u, v)
        return math.sqrt(E * vec[0] ** 2 + 2.0 * F * vec[0] * vec[1]
                         + G * vec[1] ** 2)

    def area_element(self, u, v):
        E, F, G = self.values(u, v)
        return math.sqrt(E * G - F * F)


def _metric_jet(e, f, g):
    """The MetricJet of the 2-jet slots of E, F and G, floats or arrays."""
    return MetricJet(e[0], f[0], g[0], e[1], e[2], f[1], f[2], g[1], g[2],
                     -e[5] + 2.0 * f[4] - g[3])


def metric_from_fff(fff):
    """Metric data of the first fundamental form of a surface; floats, or
    arrays over a grid."""
    return MetricJet(fff.E, fff.F, fff.G, fff.E_p, fff.E_q, fff.F_p, fff.F_q,
                     fff.G_p, fff.G_q, fff.bracket)


def _check(E, F, G, u, v):
    if type(E) is ndarray:
        failed = ((E <= 0.0) | (G <= 0.0) | (E * G - F * F <= EPS_REG)).any()
    else:
        # short-circuits: geodesics run this at every RK4 stage
        failed = E <= 0.0 or G <= 0.0 or E * G - F * F <= EPS_REG
    if failed:
        raise DegenerateMetric(
            f"metric not positive definite at ({u}, {v}): "
            f"E={E!r}, F={F!r}, G={G!r}")


def residual_from_metric(m):
    """E [...] + F [...] + G [...] + 2 (EG - F^2) [-E_vv + 2 F_uv - G_uu],
    from metric data of floats or arrays."""
    e_term = m.Ev * m.Gv - 2.0 * m.Fu * m.Gv + m.Gu * m.Gu
    f_term = (m.Eu * m.Gv - m.Ev * m.Gu - 2.0 * m.Ev * m.Fv
              + 4.0 * m.Fu * m.Fv - 2.0 * m.Fu * m.Gu)
    g_term = m.Eu * m.Gu - 2.0 * m.Eu * m.Fv + m.Ev * m.Ev
    second = 2.0 * (m.E * m.G - m.F * m.F) * m.bracket
    return m.E * e_term + m.F * f_term + m.G * g_term + second


def formula_egregia(metric, u, v):
    """Gaussian curvature from E, F, G alone:

    kappa = 1 / (4 (EG - F^2)^2) * { E [...] + F [...] + G [...]
            + 2 (EG - F^2) [-E_vv + 2 F_uv - G_uu] }.
    """
    return kappa_from_metric(metric.at(u, v))


def kappa_from_metric(m):
    """`formula_egregia` from metric data of floats or arrays."""
    disc = m.disc
    return residual_from_metric(m) / (4.0 * disc * disc)


def flatness_residual(metric, u, v):
    """Second-order differential expression whose vanishing characterizes
    local isometry to the Euclidean plane; numerically it equals
    4 (EG - F^2)^2 times the curvature."""
    return residual_from_metric(metric.at(u, v))


def curvature_isothermal(lam_ast, u, v):
    """kappa = -(1/lambda^2) (d^2 log lambda / du^2 + d^2 log lambda / dv^2)
    for the conformal metric ds^2 = lambda^2 (du^2 + dv^2)."""
    lam = _slots(lam_ast, u, v)
    if lam.v <= 0.0:
        raise DomainError(f"conformal factor must be positive, got {lam.v!r}")
    _, _, _, duu, _, dvv = jets.compose_slots(
        lam, *jets.FUNCTION_TABLES["log"](lam.v))
    return -(duu + dvv) / (lam.v * lam.v)


def curvature_geodesic_polar(g_ast, p, q):
    """kappa = -(1/sqrt(G)) d^2 sqrt(G) / dp^2 for ds^2 = dp^2 + G dq^2."""
    gj = _slots(g_ast, p, q)
    if gj.v <= 0.0:
        raise DomainError(f"G must be positive, got {gj.v!r}")
    root, _, _, duu, _, _ = jets.compose_slots(
        gj, *jets.FUNCTION_TABLES["sqrt"](gj.v))
    return -duu / root


def _slots(ast, u, v):
    """The 2-jet of one expression in (u, v) or (p, q) at a point."""
    (slots,) = exprlang.lower_jet2((ast,), _SEEDS)(u, v)
    return jets.JetSlots._make(slots)


@dataclass(frozen=True)
class MetricResiduals:
    max_dE: float
    max_dF: float
    max_dG: float

    @property
    def max(self):
        return max(self.max_dE, self.max_dF, self.max_dG)


def verify_isometry(surface_a, surface_b, grid):
    """Max mismatch of the two induced metrics over a shared (p, q) grid,
    the identity map being the correspondence."""
    return _residuals(
        (surfaces.first_fundamental_form(surface_a, p, q),
         surfaces.first_fundamental_form(surface_b, p, q)) for (p, q) in grid)


def _residuals(form_pairs):
    de = df = dg = 0.0
    for fa, fb in form_pairs:
        de = max(de, abs(fa.E - fb.E))
        df = max(df, abs(fa.F - fb.F))
        dg = max(dg, abs(fa.G - fb.G))
    return MetricResiduals(de, df, dg)


@dataclass(frozen=True)
class EgregiumReport:
    """Pointwise intrinsic vs extrinsic curvature over a grid, valid only
    because the metric residuals passed the isometry tolerance first."""
    rows: tuple  # (u, v, kappa_intrinsic, kappa_extrinsic, defect)
    residuals: MetricResiduals
    max_defect: float
    passed: bool


def egregium_check(surface_a, surface_b, grid, tol_metric=1e-8,
                   tol_kappa=1e-7):
    """Verify curvature invariance across an isometric pair.

    Refuses (NotIsometric) when the metrics disagree beyond tol_metric;
    otherwise reports intrinsic and extrinsic curvature at every grid point
    with the maximal pairwise defect across both surfaces.
    """
    # one embedding evaluation per surface and point serves the isometry
    # check and, once it has passed over the whole grid, both curvatures
    points = []
    for (p, q) in grid:
        comps_a = surfaces.embedding_jets(surface_a, p, q)
        fff_a = surfaces.fff_from_jets(*comps_a)
        comps_b = surfaces.embedding_jets(surface_b, p, q)
        fff_b = surfaces.fff_from_jets(*comps_b)
        points.append((p, q, comps_a, fff_a, comps_b, fff_b))
    residuals = _residuals((pt[3], pt[5]) for pt in points)
    if residuals.max > tol_metric:
        raise NotIsometric(
            f"metric residuals {residuals} exceed tolerance {tol_metric!r}")
    rows = []
    max_defect = 0.0
    for (u, v, comps_a, fff_a, comps_b, fff_b) in points:
        k_int = kappa_from_metric(metric_from_fff(fff_a))
        k_int_b = kappa_from_metric(metric_from_fff(fff_b))
        k_ext_a = surfaces.gauss_from_jets(comps_a, fff_a)
        k_ext_b = surfaces.gauss_from_jets(comps_b, fff_b)
        ks = (k_int, k_int_b, k_ext_a, k_ext_b)
        defect = max(ks) - min(ks)
        max_defect = max(max_defect, defect)
        rows.append((u, v, k_int, k_ext_a, defect))
    return EgregiumReport(tuple(rows), residuals, max_defect,
                          max_defect <= tol_kappa)


def grid_points(u_range, v_range, nu, nv):
    """Row-major rectangular grid, endpoints included."""
    u0, u1 = u_range
    v0, v1 = v_range
    pts = []
    for i in range(nu):
        u = u0 + (u1 - u0) * i / (nu - 1) if nu > 1 else u0
        for j in range(nv):
            v = v0 + (v1 - v0) * j / (nv - 1) if nv > 1 else v0
            pts.append((u, v))
    return pts
