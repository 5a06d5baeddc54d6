"""An oracle independent of the jet engine: sympy reads each metric catalog
entry's E, F and G, differentiates them symbolically, and gives the Gaussian
curvature by Brioschi's formula."""

import pytest
import sympy
from sympy.parsing.sympy_parser import (convert_xor, parse_expr,
                                        standard_transformations)

from egregium import catalog, intrinsic

U, V = sympy.symbols("u v", real=True)

METRICS = sorted(name for name, entry in catalog.ENTRIES.items()
                 if entry.kind == "metric")

# fractions of each chart range: interior points, away from the edges
FRACTIONS = ((0.3, 0.6), (0.5, 0.25), (0.75, 0.8))


def _read(text):
    """An expression of the catalog's grammar, `^` being the power."""
    return parse_expr(text, local_dict={"u": U, "v": V},
                      transformations=standard_transformations
                      + (convert_xor,))


def brioschi(E, F, G):
    """K = (det M1 - det M2) / (EG - F^2)^2 in the partials of E, F, G."""
    def d(f, *wrt):
        return sympy.diff(f, *wrt)
    m1 = sympy.Matrix([
        [-d(E, V, V) / 2 + d(F, U, V) - d(G, U, U) / 2, d(E, U) / 2,
         d(F, U) - d(E, V) / 2],
        [d(F, V) - d(G, U) / 2, E, F],
        [d(G, V) / 2, F, G]])
    m2 = sympy.Matrix([
        [0, d(E, V) / 2, d(G, U) / 2],
        [d(E, V) / 2, E, F],
        [d(G, U) / 2, F, G]])
    return (m1.det() - m2.det()) / (E * G - F * F) ** 2


@pytest.mark.parametrize("name", METRICS)
def test_formula_egregia_matches_brioschi(name):
    entry = catalog.lookup(name)
    texts = catalog.resolve(entry)
    kappa = brioschi(*(_read(texts[role]) for role in ("E", "F", "G")))
    metric = catalog.build_metric(entry)
    (u0, u1), (v0, v1) = entry.ranges
    for fu, fv in FRACTIONS:
        u, v = u0 + fu * (u1 - u0), v0 + fv * (v1 - v0)
        want = float(kappa.subs({U: u, V: v}).evalf(30))
        got = intrinsic.formula_egregia(metric, u, v)
        # relative, except where the curvature is zero (flat charts, the
        # torus at cos(u) = 0)
        assert abs(got - want) <= 1e-9 * max(abs(want), 1e-6), (name, u, v)
