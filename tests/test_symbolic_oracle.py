"""An oracle independent of the jet engine: sympy differentiates the
expression corpus, whose lowered jets must hold its partials, and reads each
metric catalog entry's E, F and G, whose Gaussian curvature it gives by
Brioschi's formula."""

import pytest
import sympy
from sympy.parsing.sympy_parser import (convert_xor, parse_expr,
                                        standard_transformations)

from egregium import catalog, intrinsic

from conftest import (CORPUS_1V, CORPUS_2V, CORPUS_3V, jet_eval_1, jet_eval_2,
                      jet_eval_3, sample)

SYMBOLS = {name: sympy.Symbol(name, real=True) for name in "uvxyz"}
U, V = SYMBOLS["u"], SYMBOLS["v"]

METRICS = sorted(name for name, entry in catalog.ENTRIES.items()
                 if entry.kind == "metric")

# fractions of each chart range: interior points, away from the edges
FRACTIONS = ((0.3, 0.6), (0.5, 0.25), (0.75, 0.8))


def _read(text):
    """An expression of the catalog's grammar, `^` being the power."""
    return parse_expr(text, local_dict=SYMBOLS,
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


# each corpus entry with one box per variable, and its lowered jet: the
# value, the first partials, then the second partials d_i d_j for i <= j
CORPUS = [(text, (box,)) for text, box in CORPUS_1V] + CORPUS_2V + CORPUS_3V
LOWERED = {1: jet_eval_1, 2: jet_eval_2, 3: jet_eval_3}


@pytest.mark.parametrize("text, boxes", CORPUS)
def test_lowered_partials_match_sympy(text, boxes, rng):
    f = _read(text)
    variables = [SYMBOLS[name] for name in "xyz"[:len(boxes)]]
    partials = [f, *(sympy.diff(f, x) for x in variables),
                *(sympy.diff(f, x, y) for i, x in enumerate(variables)
                  for y in variables[i:])]
    for _ in range(10):
        point = [sample(rng, box) for box in boxes]
        got = LOWERED[len(boxes)](text, *point)
        assert len(got) == len(partials)
        at = dict(zip(variables, point))
        for k, partial in enumerate(partials):
            want = float(partial.evalf(30, subs=at))
            assert abs(got[k] - want) <= 1e-9 * max(abs(want), 1e-6), (
                text, point, k)
