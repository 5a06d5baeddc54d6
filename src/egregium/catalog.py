"""Named curves, surfaces and metrics with documented analytic curvature.

Definitions are stored as text templates; numeric parameters (radius,
Rmaj, ...) are substituted as constants before parsing, so a resolved
entry is an ordinary expression set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import curves, exprlang, intrinsic, surfaces
from .errors import InputError


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str  # curve | surface | metric
    definition: dict  # role -> expression template
    params: dict = field(default_factory=dict)  # name -> default value
    ranges: tuple = ()  # default parameter ranges, one (lo, hi) per axis
    kappa_note: str = ""
    revolution_radius: str | None = None  # r(p) template, when applicable


_CURVES = (
    CatalogEntry(
        "circle", "curve",
        {"x": "{radius}*cos(t)", "y": "{radius}*sin(t)"},
        {"radius": 1.0}, ((0.0, 6.283185307179586),),
        kappa_note="constant 1/radius"),
    CatalogEntry(
        "circle2", "curve",
        {"x": "2*cos(t)", "y": "2*sin(t)"},
        {}, ((0.0, 6.283185307179586),),
        kappa_note="constant 0.5"),
    CatalogEntry(
        "parabola", "curve",
        {"graph": "x^2"},
        {}, ((-1.0, 1.0),),
        kappa_note="2/(1+4*x^2)^(3/2), equals 2 at the vertex"),
    CatalogEntry(
        "ellipse", "curve",
        {"x": "{a}*cos(t)", "y": "{b}*sin(t)"},
        {"a": 2.0, "b": 1.0}, ((0.0, 6.283185307179586),),
        kappa_note="a*b/(a^2 sin^2 t + b^2 cos^2 t)^(3/2)"),
    CatalogEntry(
        "line", "curve",
        {"graph": "{slope}*x + {offset}"},
        {"slope": 1.0, "offset": 0.0}, ((-1.0, 1.0),),
        kappa_note="identically 0"),
)

_SURFACES = (
    CatalogEntry(
        "plane", "surface",
        {"x": "p", "y": "q", "z": "0"},
        {}, ((-1.0, 1.0), (-1.0, 1.0)),
        kappa_note="identically 0"),
    CatalogEntry(
        "sphere", "surface",
        {"x": "{radius}*sin(p)*cos(q)", "y": "{radius}*sin(p)*sin(q)",
         "z": "{radius}*cos(p)"},
        {"radius": 1.0}, ((0.2, 2.941592653589793), (0.0, 6.283185307179586)),
        kappa_note="constant 1/radius^2",
        revolution_radius="{radius}*sin(p)"),
    CatalogEntry(
        "cylinder", "surface",
        {"x": "{radius}*cos(q)", "y": "{radius}*sin(q)", "z": "p"},
        {"radius": 1.0}, ((-1.0, 1.0), (0.0, 6.283185307179586)),
        kappa_note="identically 0",
        revolution_radius="{radius}"),
    CatalogEntry(
        "cone", "surface",
        {"x": "p*cos(q)", "y": "p*sin(q)", "z": "{slope}*p"},
        {"slope": 0.75}, ((0.2, 2.0), (0.0, 6.283185307179586)),
        kappa_note="identically 0 away from the apex",
        revolution_radius="p"),
    CatalogEntry(
        "torus", "surface",
        {"x": "({Rmaj}+{r}*cos(p))*cos(q)", "y": "({Rmaj}+{r}*cos(p))*sin(q)",
         "z": "{r}*sin(p)"},
        {"Rmaj": 2.0, "r": 1.0},
        ((0.0, 6.283185307179586), (0.0, 6.283185307179586)),
        kappa_note="cos(p)/(r*(Rmaj+r*cos(p)))",
        revolution_radius="{Rmaj}+{r}*cos(p)"),
    CatalogEntry(
        "paraboloid", "surface",
        {"graph": "(x^2+y^2)/2"},
        {}, ((-1.0, 1.0), (-1.0, 1.0)),
        kappa_note="1/(1+x^2+y^2)^2, equals 1 at the origin"),
    CatalogEntry(
        "saddle", "surface",
        {"graph": "x*y"},
        {}, ((-1.0, 1.0), (-1.0, 1.0)),
        kappa_note="-1/(1+x^2+y^2)^2, equals -1 at the origin"),
    CatalogEntry(
        "monkey_saddle", "surface",
        {"graph": "x^3 - 3*x*y^2"},
        {}, ((-1.0, 1.0), (-1.0, 1.0)),
        kappa_note="0 at the origin"),
    CatalogEntry(
        "catenoid", "surface",
        {"x": "cosh(p)*cos(q)", "y": "cosh(p)*sin(q)", "z": "p"},
        {}, ((-1.0, 1.0), (0.0, 6.283185307179586)),
        kappa_note="-1/cosh(p)^4; mean curvature identically 0"),
    CatalogEntry(
        "helicoid", "surface",
        {"x": "sinh(p)*cos(q)", "y": "sinh(p)*sin(q)", "z": "q"},
        {}, ((-1.0, 1.0), (0.0, 6.283185307179586)),
        kappa_note="-1/cosh(p)^4"),
    CatalogEntry(
        "ellipsoid", "surface",
        {"x": "{a}*sin(p)*cos(q)", "y": "{b}*sin(p)*sin(q)",
         "z": "{c}*cos(p)",
         "implicit": "x^2/{a}^2 + y^2/{b}^2 + z^2/{c}^2 - 1"},
        {"a": 2.0, "b": 1.5, "c": 1.0},
        ((0.2, 2.941592653589793), (0.0, 6.283185307179586)),
        kappa_note="positive, varies with latitude"),
    CatalogEntry(
        "sphere_cap", "surface",
        {"graph": "sqrt({radius}^2 - x^2 - y^2)"},
        {"radius": 1.0}, ((-0.5, 0.5), (-0.5, 0.5)),
        kappa_note="constant 1/radius^2 on the upper cap"),
)

_METRICS = (
    CatalogEntry(
        "flat", "metric",
        {"E": "1", "F": "0", "G": "1"},
        {}, ((0.0, 1.0), (0.0, 1.0)),
        kappa_note="identically 0"),
    CatalogEntry(
        "polar", "metric",
        {"E": "1", "F": "0", "G": "u^2"},
        {}, ((0.2, 2.0), (0.0, 6.283185307179586)),
        kappa_note="identically 0 (Euclidean polar chart)"),
    CatalogEntry(
        "cone_metric", "metric",
        {"E": "1", "F": "0", "G": "{slope}^2*u^2"},
        {"slope": 0.5}, ((0.2, 2.0), (0.0, 6.283185307179586)),
        kappa_note="identically 0 away from the apex"),
    CatalogEntry(
        "sphere_metric", "metric",
        {"E": "{radius}^2", "F": "0", "G": "{radius}^2*sin(u)^2"},
        {"radius": 1.0}, ((0.3, 2.8), (0.0, 6.283185307179586)),
        kappa_note="constant 1/radius^2"),
    CatalogEntry(
        "sphere_isothermal", "metric",
        {"E": "(2*{radius}^2/({radius}^2+u^2+v^2))^2", "F": "0",
         "G": "(2*{radius}^2/({radius}^2+u^2+v^2))^2"},
        {"radius": 1.0}, ((-1.0, 1.0), (-1.0, 1.0)),
        kappa_note="constant 1/radius^2 (stereographic chart)"),
    CatalogEntry(
        "hyperbolic_disk", "metric",
        {"E": "(2/(1-u^2-v^2))^2", "F": "0", "G": "(2/(1-u^2-v^2))^2"},
        {}, ((-0.6, 0.6), (-0.6, 0.6)),
        kappa_note="constant -1 on the unit disk"),
    CatalogEntry(
        "exponential", "metric",
        {"E": "1", "F": "0", "G": "exp(2*u)"},
        {}, ((-1.0, 1.0), (0.0, 1.0)),
        kappa_note="constant -1"),
    CatalogEntry(
        "torus_metric", "metric",
        {"E": "{r}^2", "F": "0", "G": "({Rmaj}+{r}*cos(u))^2"},
        {"Rmaj": 2.0, "r": 1.0},
        ((0.0, 6.283185307179586), (0.0, 6.283185307179586)),
        kappa_note="cos(u)/(r*(Rmaj+r*cos(u)))"),
)

ENTRIES = {e.name: e for e in _CURVES + _SURFACES + _METRICS}


def lookup(name):
    try:
        return ENTRIES[name]
    except KeyError:
        known = ", ".join(sorted(ENTRIES))
        raise InputError(f"unknown catalog entry {name!r}; known: {known}") \
            from None


def _substitute(template, params):
    text = template
    for key, value in params.items():
        # parenthesized so negative values keep their binding under ^
        text = text.replace("{" + key + "}", f"({float(value)!r})")
    if "{" in text:
        raise InputError(f"unresolved parameter in template {template!r}")
    return text


def resolve(entry, overrides=None):
    """Substitute parameters into the entry's templates and parse them; an
    override must name a parameter of the entry and be finite."""
    params = dict(entry.params)
    for key, value in (overrides or {}).items():
        if key not in params:
            raise InputError(
                f"{entry.name!r} takes no parameter {key!r}; "
                f"available: {sorted(params) or 'none'}")
        value = float(value)
        if not math.isfinite(value):
            # its text would not parse as a constant of the expression
            raise InputError(f"{entry.name!r} parameter {key!r} must be "
                             f"finite, got {value!r}")
        params[key] = value
    return {role: _substitute(tpl, params)
            for role, tpl in entry.definition.items()}


def build_curve(entry, overrides=None):
    defs = resolve(entry, overrides)
    if "graph" in defs:
        return curves.GraphCurve(exprlang.parse(defs["graph"]))
    return curves.ParametricCurve(exprlang.parse(defs["x"]),
                                  exprlang.parse(defs["y"]))


def build_surface(entry, overrides=None):
    defs = resolve(entry, overrides)
    if "graph" in defs:
        return surfaces.GraphSurface(exprlang.parse(defs["graph"]))
    return surfaces.ParametricSurface(exprlang.parse(defs["x"]),
                                      exprlang.parse(defs["y"]),
                                      exprlang.parse(defs["z"]))


def build_metric(entry, overrides=None):
    if entry.kind == "metric":
        defs = resolve(entry, overrides)
        return intrinsic.MetricField.from_expressions(defs["E"], defs["F"],
                                                      defs["G"])
    return intrinsic.MetricField.from_surface(build_surface(entry, overrides))
