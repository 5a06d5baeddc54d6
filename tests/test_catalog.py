"""Catalog integrity: every entry evaluates without error on its declared
range, and parameter substitution behaves."""

import pytest

from egregium import catalog, curves, intrinsic, surfaces
from egregium.errors import InputError


def _axis_samples(lo, hi, n=7):
    # stay strictly inside the declared range
    pad = 1e-6 * (hi - lo)
    return [lo + pad + (hi - lo - 2 * pad) * i / (n - 1) for i in range(n)]


@pytest.mark.parametrize("name", sorted(catalog.ENTRIES))
def test_entry_evaluates_on_declared_range(name):
    entry = catalog.ENTRIES[name]
    if entry.kind == "curve":
        curve = catalog.build_curve(entry)
        (lo, hi), = entry.ranges
        for t in _axis_samples(lo, hi):
            if isinstance(curve, curves.GraphCurve):
                curves.curvature_graph(curve.f, t)
            else:
                curves.curvature_parametric(curve.x, curve.y, t)
        return
    (ulo, uhi), (vlo, vhi) = entry.ranges
    if entry.kind == "surface":
        surf = catalog.build_surface(entry)
        for u in _axis_samples(ulo, uhi):
            for v in _axis_samples(vlo, vhi):
                surfaces.gauss_curvature_parametric(surf, u, v)
        return
    metric = catalog.build_metric(entry)
    for u in _axis_samples(ulo, uhi):
        for v in _axis_samples(vlo, vhi):
            intrinsic.formula_egregia(metric, u, v)


def test_parameter_override():
    entry = catalog.lookup("sphere")
    surf = catalog.build_surface(entry, {"radius": 3.0})
    kappa = surfaces.gauss_curvature_parametric(surf, 1.0, 0.5)
    assert kappa == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_unknown_parameter_rejected():
    with pytest.raises(InputError):
        catalog.build_surface(catalog.lookup("sphere"), {"bogus": 1.0})


def test_unknown_entry_rejected():
    with pytest.raises(InputError):
        catalog.lookup("mobius")


def test_ellipsoid_has_implicit_companion():
    defs = catalog.resolve(catalog.lookup("ellipsoid"))
    assert "implicit" in defs
    surf = catalog.build_surface(catalog.lookup("ellipsoid"))
    from egregium.exprlang import evaluate, parse
    import math
    w = parse(defs["implicit"])
    # a parametric point satisfies the implicit equation
    p, q = 0.8, 1.3
    x = 2.0 * math.sin(p) * math.cos(q)
    y = 1.5 * math.sin(p) * math.sin(q)
    z = 1.0 * math.cos(p)
    assert abs(evaluate(w, {"x": x, "y": y, "z": z})) <= 1e-12
