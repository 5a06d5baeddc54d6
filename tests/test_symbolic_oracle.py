"""An oracle independent of the jet engine: sympy differentiates the
expression corpus, whose lowered jets must hold its partials, reads each
metric catalog entry's E, F and G, whose Gaussian curvature it gives by
Brioschi's formula, and gives each surface catalog entry's Gaussian
curvature from the first and second fundamental forms of its embedding."""

import numpy as np
import pytest
import sympy
from sympy.parsing.sympy_parser import (convert_xor, parse_expr,
                                        standard_transformations)

from egregium import catalog, intrinsic, surfaces

from conftest import (CORPUS_1V, CORPUS_2V, CORPUS_3V, jet_eval_1, jet_eval_2,
                      jet_eval_3, sample)

SYMBOLS = {name: sympy.Symbol(name, real=True) for name in "uvxyzpq"}
U, V = SYMBOLS["u"], SYMBOLS["v"]

METRICS = sorted(name for name, entry in catalog.ENTRIES.items()
                 if entry.kind == "metric")
SURFACES = sorted(name for name, entry in catalog.ENTRIES.items()
                  if entry.kind == "surface")

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


def fundamental_forms_kappa(texts):
    """K = (LN - M^2) / (EG - F^2) of an embedding, and its two chart
    coordinates; a graph z = f(x, y) embeds as (x, y, f)."""
    if "graph" in texts:
        s, t = SYMBOLS["x"], SYMBOLS["y"]
        r = sympy.Matrix([s, t, _read(texts["graph"])])
    else:
        s, t = SYMBOLS["p"], SYMBOLS["q"]
        r = sympy.Matrix([_read(texts[axis]) for axis in "xyz"])
    rs, rt = r.diff(s), r.diff(t)
    normal = rs.cross(rt)
    normal = normal / sympy.sqrt(normal.dot(normal))
    E, F, G = rs.dot(rs), rs.dot(rt), rt.dot(rt)
    L = r.diff(s, s).dot(normal)
    M = r.diff(s, t).dot(normal)
    N = r.diff(t, t).dot(normal)
    return (L * N - M * M) / (E * G - F * F), (s, t)


@pytest.mark.parametrize("name", SURFACES)
def test_surface_kernel_matches_fundamental_forms(name):
    entry = catalog.lookup(name)
    kappa, (s, t) = fundamental_forms_kappa(catalog.resolve(entry))
    surface = catalog.build_surface(entry)
    (p0, p1), (q0, q1) = entry.ranges
    points = [(p0 + fp * (p1 - p0), q0 + fq * (q1 - q0))
              for fp, fq in FRACTIONS]
    with np.errstate(all="ignore"):
        over_arrays = surfaces.gauss_curvature_parametric(
            surface, np.array([p for p, _ in points]),
            np.array([q for _, q in points]))
    for (p, q), from_arrays in zip(points, over_arrays.tolist()):
        want = float(kappa.evalf(30, subs={s: p, t: q}))
        at_point = surfaces.gauss_curvature_parametric(surface, p, q)
        # relative, except where the curvature is zero (plane, cylinder,
        # cone, the torus at cos(p) = 0)
        for got in (at_point, from_arrays):
            assert abs(got - want) <= 1e-9 * max(abs(want), 1e-6), (
                name, p, q)


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
