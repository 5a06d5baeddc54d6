"""Command-line front end.

Subcommands: curve, surface, egregia, flatness, gaussbonnet, triangle,
geodesic, catalog.  Output is CSV (schema `# egregium-csv v1`, 17
significant digits) or JSON (rows array plus a summary object); identical
configuration yields byte-identical output.  Exit codes: 0 success, 2
input or parse error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import (catalog, curves, exprlang, geodesics, intrinsic, jets, quad,
               surfaces)
from .errors import InputError, NumericError

CSV_SCHEMA = "# egregium-csv v1"

_VALUE_FLAGS = {"--range", "--urange", "--vrange", "--prange", "--qrange",
                "--start", "--vertices", "--at"}

_PARAM_FLAGS = ("radius", "Rmaj", "r", "a", "b", "c", "slope")

# full-chart ranges for total-curvature runs; entry ranges elsewhere
_FULL_RANGES = {
    "sphere": ((0.0, math.pi), (0.0, 2.0 * math.pi)),
    "sphere_metric": ((0.0, math.pi), (0.0, 2.0 * math.pi)),
    "torus": ((0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)),
    "torus_metric": ((0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)),
}

# charts that degenerate at the ends of their u-range need a cutoff
_DEFAULT_CUTOFF = {"sphere": 1e-4, "sphere_metric": 1e-4}


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(args, columns, rows, summary):
    lines = []
    if args.format == "csv":
        lines.append(CSV_SCHEMA)
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        for key in sorted(summary):
            lines.append(f"# {key}={_fmt(summary[key])}")
        text = "\n".join(lines) + "\n"
    else:
        payload = {"rows": [dict(r) for r in rows], "summary": summary}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_pair(text, what, sep=":"):
    parts = text.split(sep)
    if len(parts) != 2:
        raise InputError(f"expected {what} as lo{sep}hi, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise InputError(f"non-numeric {what} {text!r}") from None


def _parse_grid(text):
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise InputError(f"expected grid as NxM, got {text!r}")
    try:
        nu, nv = int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"non-integer grid {text!r}") from None
    if nu < 2 or nv < 2:
        raise InputError("grid resolution must be at least 2 per axis")
    return nu, nv


def _parse_point(text, count, what):
    parts = text.split(",")
    if len(parts) != count:
        raise InputError(f"expected {count} comma-separated values for "
                         f"{what}, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise InputError(f"non-numeric {what} {text!r}") from None


def _overrides(args):
    out = {}
    for name in _PARAM_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            out[name] = value
    return out


def _metric_from_args(args):
    """(metric, catalog entry, surface) from the input flags; the surface is
    None for --metric input and metric catalog entries."""
    if getattr(args, "metric", None):
        parts = [p.strip() for p in args.metric.split(",")]
        if len(parts) != 3:
            raise InputError(
                f"--metric wants three comma-separated expressions, "
                f"got {args.metric!r}")
        return intrinsic.MetricField.from_expressions(*parts), None, None
    if getattr(args, "catalog", None):
        entry = catalog.lookup(args.catalog)
        if entry.kind != "surface":
            return catalog.build_metric(entry, _overrides(args)), entry, None
        surface = catalog.build_surface(entry, _overrides(args))
    else:
        entry, surface = None, _expression_surface(args)
        if surface is None:
            raise InputError("no metric given: use --metric, --catalog, "
                             "--graph or --parametric")
    return intrinsic.MetricField.from_surface(surface), entry, surface


def _expression_surface(args):
    """Surface from --graph or --parametric, or None if neither is given."""
    if getattr(args, "graph", None):
        return surfaces.GraphSurface(exprlang.parse(args.graph))
    if getattr(args, "parametric", None):
        sx, sy, sz = (exprlang.parse(t) for t in args.parametric)
        return surfaces.ParametricSurface(sx, sy, sz)
    return None


def _surface_from_args(args):
    if getattr(args, "catalog", None):
        entry = catalog.lookup(args.catalog)
        if entry.kind != "surface":
            raise InputError(f"catalog entry {args.catalog!r} is not a surface")
        return catalog.build_surface(entry, _overrides(args)), entry
    surface = _expression_surface(args)
    if surface is None:
        raise InputError(
            "no surface given: use --catalog, --graph or --parametric")
    return surface, None


def _ranges(args, entry, full_chart=False):
    defaults = None
    if entry is not None:
        if full_chart and entry.name in _FULL_RANGES:
            defaults = _FULL_RANGES[entry.name]
        elif len(entry.ranges) == 2:
            defaults = entry.ranges
    if defaults is None:
        defaults = ((-1.0, 1.0), (-1.0, 1.0))
    u_range = _parse_pair(args.urange, "range") if args.urange else defaults[0]
    v_range = _parse_pair(args.vrange, "range") if args.vrange else defaults[1]
    return u_range, v_range


def cmd_curve(args):
    rows = []
    columns = ["param", "x", "y", "Tx", "Ty", "Nx", "Ny", "kappa"]
    if args.implicit:
        curve = curves.ImplicitCurve(exprlang.parse(args.implicit))
        if not args.at:
            raise InputError("--implicit needs at least one --at x,y point")
        for i, text in enumerate(args.at):
            x, y = _parse_point(text, 2, "--at")
            kappa = curves.curvature_implicit(curve.w, x, y)
            wj = exprlang.evaluate(curve.w, {
                "x": jets.Jet2_2.variable_u(x),
                "y": jets.Jet2_2.variable_v(y),
            })
            norm = math.hypot(wj.du, wj.dv)
            tangent = (-wj.dv / norm, wj.du / norm)
            normal = (wj.du / norm, wj.dv / norm)
            rows.append({"param": float(i), "x": x, "y": y,
                         "Tx": tangent[0], "Ty": tangent[1],
                         "Nx": normal[0], "Ny": normal[1],
                         "kappa": kappa.value})
        _emit(args, columns, rows, {"n": len(rows)})
        return

    if args.catalog:
        entry = catalog.lookup(args.catalog)
        if entry.kind != "curve":
            raise InputError(f"catalog entry {args.catalog!r} is not a curve")
        curve = catalog.build_curve(entry, _overrides(args))
        default_range = entry.ranges[0]
    elif args.graph:
        curve = curves.GraphCurve(exprlang.parse(args.graph))
        default_range = (-1.0, 1.0)
    elif args.parametric:
        cx, cy = (exprlang.parse(t) for t in args.parametric)
        curve = curves.ParametricCurve(cx, cy)
        default_range = (0.0, 1.0)
    else:
        raise InputError("no curve given: use --catalog, --graph, "
                         "--parametric or --implicit")

    lo, hi = _parse_pair(args.range, "range") if args.range else default_range
    n = args.n
    if n < 1:
        raise InputError(f"--n must be at least 1, got {n}")
    for i in range(n):
        t = lo + (hi - lo) * i / (n - 1) if n > 1 else lo
        if isinstance(curve, curves.GraphCurve):
            frame = curves.frame_graph(curve.f, t)
            kappa = curves.curvature_graph(curve.f, t)
            y = exprlang.evaluate(curve.f, {"x": t})
            point = (t, y)
        else:
            kappa = curves.curvature_parametric(curve.x, curve.y, t)
            frame = curves.frame_parametric(curve.x, curve.y, t)
            point = (exprlang.evaluate(curve.x, {"t": t}),
                     exprlang.evaluate(curve.y, {"t": t}))
        rows.append({"param": t, "x": point[0], "y": point[1],
                     "Tx": frame.T[0], "Ty": frame.T[1],
                     "Nx": frame.N[0], "Ny": frame.N[1],
                     "kappa": kappa.value})
    _emit(args, columns, rows, {"n": len(rows)})


def cmd_surface(args):
    surface, entry = _surface_from_args(args)
    u_range, v_range = _ranges(args, entry)
    nu, nv = _parse_grid(args.grid)
    columns = ["p", "q", "x", "y", "z", "X", "Y", "Z", "E", "F", "G",
               "kappa", "k_min", "k_max", "mean"]
    rows = []
    for (p, q) in intrinsic.grid_points(u_range, v_range, nu, nv):
        comps = surfaces.embedding_jets(surface, p, q)
        nd = surfaces.normal_from_jets(*comps)
        fff = surfaces.fff_from_jets(*comps)
        so = surfaces.second_order_from_jets(comps, nd)
        kappa = surfaces.gauss_from_forms(fff, so)
        pc = surfaces.principal_from_forms(fff, nd, so)
        xj, yj, zj = comps
        rows.append({"p": p, "q": q, "x": xj.v, "y": yj.v, "z": zj.v,
                     "X": nd.X, "Y": nd.Y, "Z": nd.Z,
                     "E": fff.E, "F": fff.F, "G": fff.G,
                     "kappa": kappa, "k_min": pc.k_min, "k_max": pc.k_max,
                     "mean": pc.mean})
    _emit(args, columns, rows, {"n": len(rows)})


def cmd_egregia(args):
    metric, entry, surface = _metric_from_args(args)
    if surface is None:
        # --metric input or a metric entry may still be checked against an
        # embedding given by --graph or --parametric
        surface = _expression_surface(args)
    u_range, v_range = _ranges(args, entry)
    nu, nv = _parse_grid(args.grid)
    rows = []
    max_defect = 0.0
    for (u, v) in intrinsic.grid_points(u_range, v_range, nu, nv):
        k_int = intrinsic.formula_egregia(metric, u, v)
        row = {"u": u, "v": v, "kappa_intrinsic": k_int}
        if surface is not None:
            k_ext = surfaces.gauss_curvature_parametric(surface, u, v)
            row["kappa_extrinsic"] = k_ext
            row["defect"] = abs(k_int - k_ext)
            max_defect = max(max_defect, row["defect"])
        rows.append(row)
    columns = ["u", "v", "kappa_intrinsic"]
    summary = {"n": len(rows)}
    if surface is not None:
        columns += ["kappa_extrinsic", "defect"]
        summary["max_defect"] = max_defect
    _emit(args, columns, rows, summary)


def _require_positive(value, name):
    if not value > 0.0:
        raise InputError(f"{name} must be positive, got {value!r}")
    return value


def cmd_flatness(args):
    metric, entry, _ = _metric_from_args(args)
    _require_positive(args.tol, "--tol")
    u_range, v_range = _ranges(args, entry)
    nu, nv = _parse_grid(args.grid)
    rows = []
    worst = 0.0
    for (u, v) in intrinsic.grid_points(u_range, v_range, nu, nv):
        res = intrinsic.flatness_residual(metric, u, v)
        worst = max(worst, abs(res))
        rows.append({"u": u, "v": v, "residual": res})
    verdict = "FLAT" if worst <= args.tol else "NOT FLAT"
    _emit(args, ["u", "v", "residual"], rows,
          {"max_residual": worst, "verdict": verdict})


def cmd_gaussbonnet(args):
    metric, entry, _ = _metric_from_args(args)
    _require_positive(args.order, "--order")
    u_range, v_range = _ranges(args, entry, full_chart=True)
    cutoff = args.pole_cutoff
    if cutoff is None:
        cutoff = _DEFAULT_CUTOFF.get(entry.name, 0.0) if entry else 0.0
    region = quad.Rect(u_range[0] + cutoff, u_range[1] - cutoff,
                       v_range[0], v_range[1])
    result = quad.integrate(
        metric, lambda u, v: intrinsic.formula_egregia(metric, u, v),
        region, order=args.order)
    rows = [{"total": result.value, "error": result.error}]
    _emit(args, ["total", "error"], rows,
          {"total": result.value, "error": result.error})


def cmd_triangle(args):
    metric, _, _ = _metric_from_args(args)
    _require_positive(args.tol, "--tol")
    parts = args.vertices.split(";")
    if len(parts) != 3:
        raise InputError(
            f"expected three semicolon-separated vertices, got {args.vertices!r}")
    va, vb, vc = (_parse_point(p, 2, "vertex") for p in parts)
    triangle = geodesics.build_triangle(metric, va, vb, vc, tol=args.tol)
    excess, integral = geodesics.excess_from_triangle(metric, triangle)
    rows = [{"vertex_u": vert[0], "vertex_v": vert[1], "angle": ang}
            for vert, ang in zip(triangle.vertices, triangle.angles)]
    _emit(args, ["vertex_u", "vertex_v", "angle"], rows,
          {"excess": excess, "integral": integral,
           "difference": abs(excess - integral)})


def cmd_geodesic(args):
    metric, _, _ = _metric_from_args(args)
    _require_positive(args.max_rows, "--max-rows")
    u, v, pu, pv = _parse_point(args.start, 4, "--start")
    path = geodesics.integrate_geodesic(
        metric, geodesics.GeodesicState(u, v, pu, pv), args.length, args.step)
    stride = max(1, len(path.states) // args.max_rows)
    rows = []
    for i in range(0, len(path.states), stride):
        st = path.states[i]
        rows.append({"s": path.s[i], "u": st.u, "v": st.v,
                     "pu": st.pu, "pv": st.pv})
    drift = geodesics.energy_drift(metric, path)
    _emit(args, ["s", "u", "v", "pu", "pv"], rows,
          {"energy_drift": drift, "n_steps": len(path.states) - 1})


def cmd_catalog(args):
    rows = []
    for name in sorted(catalog.ENTRIES):
        entry = catalog.ENTRIES[name]
        params = " ".join(f"{k}={v}" for k, v in sorted(entry.params.items()))
        rows.append({"name": name, "kind": entry.kind,
                     "params": params or "-", "kappa": entry.kappa_note})
    _emit(args, ["name", "kind", "params", "kappa"], rows, {"n": len(rows)})


def _add_common(parser):
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", default=None, help="output path (default stdout)")


def _add_input_flags(parser, metric=False):
    parser.add_argument("--catalog", default=None)
    parser.add_argument("--graph", default=None)
    parser.add_argument("--parametric", nargs=3, default=None,
                        metavar=("X", "Y", "Z"))
    if metric:
        parser.add_argument("--metric", default=None,
                            help="three comma-separated expressions E,F,G")
    for name in _PARAM_FLAGS:
        parser.add_argument(f"--{name}", type=float, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="egregium",
        description="curvature engine for plane curves, embedded surfaces "
                    "and intrinsic metrics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve", help="tangent, normal and curvature along a curve")
    p.add_argument("--catalog", default=None)
    p.add_argument("--graph", default=None)
    p.add_argument("--parametric", nargs=2, default=None, metavar=("X", "Y"))
    p.add_argument("--implicit", default=None)
    p.add_argument("--at", action="append", default=None,
                   help="x,y evaluation point for implicit curves")
    p.add_argument("--range", default=None, help="lo:hi parameter range")
    p.add_argument("--n", type=int, default=50)
    for name in _PARAM_FLAGS:
        p.add_argument(f"--{name}", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("surface", help="normals, metric and curvatures on a grid")
    _add_input_flags(p)
    p.add_argument("--grid", default="10x10")
    p.add_argument("--urange", "--prange", dest="urange", default=None)
    p.add_argument("--vrange", "--qrange", dest="vrange", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("egregia", help="intrinsic curvature from E, F, G")
    _add_input_flags(p, metric=True)
    p.add_argument("--grid", default="10x10")
    p.add_argument("--urange", "--prange", dest="urange", default=None)
    p.add_argument("--vrange", "--qrange", dest="vrange", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_egregia)

    p = sub.add_parser("flatness", help="local-flatness residual and verdict")
    _add_input_flags(p, metric=True)
    p.add_argument("--grid", default="10x10")
    p.add_argument("--urange", "--prange", dest="urange", default=None)
    p.add_argument("--vrange", "--qrange", dest="vrange", default=None)
    p.add_argument("--tol", type=float, default=1e-8)
    _add_common(p)
    p.set_defaults(func=cmd_flatness)

    p = sub.add_parser("gaussbonnet", help="total curvature over a region")
    _add_input_flags(p, metric=True)
    p.add_argument("--urange", "--prange", dest="urange", default=None)
    p.add_argument("--vrange", "--qrange", dest="vrange", default=None)
    p.add_argument("--order", type=int, default=48)
    p.add_argument("--pole-cutoff", type=float, default=None,
                   help="shrink the u-range ends; defaults per catalog entry")
    _add_common(p)
    p.set_defaults(func=cmd_gaussbonnet)

    p = sub.add_parser("triangle", help="geodesic triangle angle excess")
    _add_input_flags(p, metric=True)
    p.add_argument("--vertices", required=True,
                   help="u1,v1;u2,v2;u3,v3")
    p.add_argument("--tol", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("geodesic", help="integrate a geodesic")
    _add_input_flags(p, metric=True)
    p.add_argument("--start", required=True, help="u,v,pu,pv")
    p.add_argument("--length", type=float, default=1.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--max-rows", type=int, default=200)
    _add_common(p)
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("catalog", help="list catalog entries")
    _add_common(p)
    p.set_defaults(func=cmd_catalog)

    return parser


def _merge_value_flags(argv):
    """Join `--flag value` into `--flag=value` for values that may start
    with '-' (ranges, vertices, velocities)."""
    merged = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _VALUE_FLAGS and i + 1 < len(argv):
            merged.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            merged.append(token)
            i += 1
    return merged


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(_merge_value_flags(argv))
    try:
        args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
