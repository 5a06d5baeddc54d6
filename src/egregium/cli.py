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
from functools import cache
from itertools import chain
from types import SimpleNamespace

from . import catalog, curves, exprlang, geodesics, intrinsic, quad, surfaces
from .errors import EVALUATION_ERRORS, InputError, NumericError

CSV_SCHEMA = "# egregium-csv v1"

_PARAM_FLAGS = ("radius", "Rmaj", "r", "a", "b", "c", "slope")

# flags whose value may start with '-' in a form argparse does not read as
# a negative number (-1e-3, -inf, -0.5:1), so `main` passes them joined
_VALUE_FLAGS = {"--range", "--urange", "--vrange", "--prange", "--qrange",
                "--start", "--vertices", "--at", "--length", "--step",
                "--tol", "--pole-cutoff",
                *(f"--{name}" for name in _PARAM_FLAGS)}

# the number of expressions --parametric takes, per subcommand
_PARAMETRIC_VALUES = {"curve": 2, **dict.fromkeys(
    ("surface", "egregia", "flatness", "gaussbonnet", "triangle",
     "geodesic"), 3)}

# full-chart ranges for total-curvature runs; entry ranges elsewhere
_FULL_RANGES = {
    "sphere": ((0.0, math.pi), (0.0, 2.0 * math.pi)),
    "sphere_metric": ((0.0, math.pi), (0.0, 2.0 * math.pi)),
    "torus": ((0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)),
    "torus_metric": ((0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)),
}

# Grid points one invocation may plan, and also its budget of curve points
# (--n) and of quadrature nodes per pass (--order squared).  The benchmark's
# largest grid has 4,400 points and the README's examples 10,000.  10^6
# points take tens of seconds of surface kernel and several hundred MB of
# rows and text; more is refused before any work starts.
MAX_GRID_POINTS = 10**6

# charts that degenerate at the ends of their u-range need a cutoff
_DEFAULT_CUTOFF = {"sphere": 1e-4, "sphere_metric": 1e-4}


# how the CSV writer and json print a non-finite float
_NONFINITE_TEXT = ("inf", "nan", "Infinity", "NaN")


def _emit(args, columns, rows, summary):
    """Write the rows (tuples in column order) and summary as CSV or JSON;
    NumericError, and nothing written, if any of their floats is
    non-finite."""
    if args.format == "csv":
        text = _csv_text(columns, rows, summary)
    else:
        payload = {"rows": [dict(zip(columns, row)) for row in rows],
                   "summary": summary}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    # scanning the floats costs about a tenth of formatting them, so scan
    # only when the text shows a non-finite spelling (a string may too)
    if any(word in text for word in _NONFINITE_TEXT):
        _require_finite(columns, rows, summary)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write --output {args.output!r}: "
                             f"{exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _csv_text(columns, rows, summary):
    """The CSV document: a float with 17 significant digits, any other
    value (names, ints, bools) as str()."""
    lines = [CSV_SCHEMA, ",".join(columns)]
    if set(map(type, chain.from_iterable(rows))) == {float}:
        fmt = _format_for(rows[0])
        lines += [fmt % row for row in rows]
    else:
        lines += [_format_for(row) % row for row in rows]
    lines += [f"# {key}=" + _format_for((value,)) % (value,)
              for key, value in sorted(summary.items())]
    return "\n".join(lines) + "\n"


def _format_for(values):
    """The %-format string that writes the tuple `values` as one CSV row;
    %.17g and an f-string's .17g share one formatter."""
    return ",".join("%.17g" if isinstance(value, float) else "%s"
                    for value in values)


def _require_finite(columns, rows, summary):
    """NumericError naming the first non-finite float, in row order and
    then in the summary, with the leading coordinates of its row."""
    for row in rows:
        for name, value in zip(columns, row):
            if isinstance(value, float) and not math.isfinite(value):
                at = ", ".join(f"{c}={v!r}" for c, v in zip(columns[:2], row))
                raise NumericError(f"non-finite {name}={value!r} at {at}")
    for key in sorted(summary):
        value = summary[key]
        if isinstance(value, float) and not math.isfinite(value):
            raise NumericError(f"non-finite summary {key}={value!r}")


def _grid_rows(points, columns):
    """Row tuples over grid points: the two coordinates, then the values
    `columns(u, v)` returns.  It runs once over arrays of all points, and
    where that raises, because some point fails, at each point in grid
    order instead, so that the first failing point raises its own error."""
    import numpy as np
    us = [pt[0] for pt in points]
    vs = [pt[1] for pt in points]
    try:
        with np.errstate(all="ignore"):
            values = columns(np.array(us), np.array(vs))
    except EVALUATION_ERRORS:
        return [(u, v, *columns(u, v)) for u, v in points]
    # lists of floats first, so the arrays are freed before the rows exist
    values = [column.tolist() for column in values]
    return list(zip(us, vs, *values))


def _parse_pair(text, flag):
    parts = text.split(":")
    if len(parts) != 2:
        raise InputError(f"expected {flag} as lo:hi, got {text!r}")
    return _finite(parts, flag, text)


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
    if nu * nv > MAX_GRID_POINTS:
        raise InputError(f"grid {nu}x{nv} has {nu * nv} points, more than "
                         f"the budget of {MAX_GRID_POINTS}")
    return nu, nv


def _parse_point(text, count, flag):
    parts = text.split(",")
    if len(parts) != count:
        raise InputError(f"expected {count} comma-separated values for "
                         f"{flag}, got {text!r}")
    return _finite(parts, flag, text)


def _finite(parts, flag, text):
    """The floats of `parts`, the pieces of the value `text` of `flag`."""
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise InputError(f"non-numeric {flag} {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise InputError(f"{flag} must be finite, got {text!r}")
    return values


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
    u_range = _parse_pair(*args.urange) if args.urange else defaults[0]
    v_range = _parse_pair(*args.vrange) if args.vrange else defaults[1]
    return u_range, v_range


def cmd_curve(args):
    columns = ["param", "x", "y", "Tx", "Ty", "Nx", "Ny", "kappa"]
    if args.implicit:
        curve = curves.ImplicitCurve(exprlang.parse(args.implicit))
        if not args.at:
            raise InputError("--implicit needs at least one --at x,y point")
        rows = []
        for i, text in enumerate(args.at):
            x, y = _parse_point(text, 2, "--at")
            rows.append((float(i), x, y,
                         *curves.implicit_columns(curve, x, y)))
        _emit(args, columns, rows, {"n": len(rows)})
        return

    if args.n > MAX_GRID_POINTS:
        raise InputError(f"--n {args.n} asks for more curve points than the "
                         f"budget of {MAX_GRID_POINTS}")
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

    lo, hi = _parse_pair(args.range, "--range") if args.range else default_range
    n = args.n
    if n < 1:
        raise InputError(f"--n must be at least 1, got {n}")
    ts = [lo + (hi - lo) * i / (n - 1) for i in range(n)] if n > 1 else [lo]
    rows = [(t, *curves.curve_columns(curve, t)) for t in ts]
    _emit(args, columns, rows, {"n": n})


def cmd_surface(args):
    surface, entry = _surface_from_args(args)
    u_range, v_range = _ranges(args, entry)
    nu, nv = _parse_grid(args.grid)
    columns = ["p", "q", "x", "y", "z", "X", "Y", "Z", "E", "F", "G",
               "kappa", "k_min", "k_max", "mean"]

    def kernel(p, q):
        comps = surfaces.embedding_jets(surface, p, q)
        nd = surfaces.normal_from_jets(*comps)
        fff = surfaces.fff_from_jets(*comps)
        so = surfaces.second_order_from_jets(comps, nd)
        k_min, k_max = surfaces.principal_values(fff, nd, so)
        xj, yj, zj = comps
        return (xj.v, yj.v, zj.v, nd.X, nd.Y, nd.Z, fff.E, fff.F, fff.G,
                surfaces.gauss_from_forms(fff, so), k_min, k_max,
                0.5 * (k_min + k_max))

    rows = _grid_rows(intrinsic.grid_points(u_range, v_range, nu, nv), kernel)
    _emit(args, columns, rows, {"n": len(rows)})


def cmd_egregia(args):
    metric, entry, surface = _metric_from_args(args)
    induced = surface is not None
    if surface is None:
        # --metric input or a metric entry may still be checked against an
        # embedding given by --graph or --parametric
        surface = _expression_surface(args)
    u_range, v_range = _ranges(args, entry)
    nu, nv = _parse_grid(args.grid)
    columns = ["u", "v", "kappa_intrinsic"]
    if surface is not None:
        columns += ["kappa_extrinsic", "defect"]

    def kernel(u, v):
        # a given metric is checked first, then the embedding's first form,
        # then its normal; one embedding evaluation serves both curvatures
        if not induced:
            k_int = intrinsic.formula_egregia(metric, u, v)
            if surface is None:
                return (k_int,)
        comps = surfaces.embedding_jets(surface, u, v)
        fff = surfaces.fff_from_jets(*comps)
        if induced:
            k_int = intrinsic.kappa_from_metric(fff)
        k_ext = surfaces.gauss_from_jets(comps, fff)
        return k_int, k_ext, abs(k_int - k_ext)

    rows = _grid_rows(intrinsic.grid_points(u_range, v_range, nu, nv), kernel)
    summary = {"n": len(rows)}
    if surface is not None:
        # the defect is the last column
        summary["max_defect"] = max([0.0] + [row[-1] for row in rows])
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

    rows = _grid_rows(
        intrinsic.grid_points(u_range, v_range, nu, nv),
        lambda u, v: (intrinsic.flatness_residual(metric, u, v),))
    worst = max([0.0] + [abs(row[2]) for row in rows])
    verdict = "FLAT" if worst <= args.tol else "NOT FLAT"
    _emit(args, ["u", "v", "residual"], rows,
          {"max_residual": worst, "verdict": verdict})


def cmd_gaussbonnet(args):
    metric, entry, _ = _metric_from_args(args)
    _require_positive(args.order, "--order")
    if args.order ** 2 > MAX_GRID_POINTS:
        raise InputError(f"--order {args.order} gives {args.order ** 2} "
                         f"quadrature nodes per pass, more than the budget "
                         f"of {MAX_GRID_POINTS}")
    u_range, v_range = _ranges(args, entry, full_chart=True)
    cutoff = args.pole_cutoff
    if cutoff is None:
        cutoff = _DEFAULT_CUTOFF.get(entry.name, 0.0) if entry else 0.0
    elif not 0.0 <= cutoff < math.inf:
        raise InputError(f"--pole-cutoff must be finite and non-negative, "
                         f"got {cutoff!r}")
    region = quad.Rect(u_range[0] + cutoff, u_range[1] - cutoff,
                       v_range[0], v_range[1])
    result = quad.integrate(
        metric, lambda u, v: intrinsic.formula_egregia(metric, u, v),
        region, order=args.order, grid_field=intrinsic.kappa_from_metric)
    rows = [(result.value, result.error)]
    _emit(args, ["total", "error"], rows,
          {"total": result.value, "error": result.error})


def cmd_triangle(args):
    metric, _, _ = _metric_from_args(args)
    _require_positive(args.tol, "--tol")
    parts = args.vertices.split(";")
    if len(parts) != 3:
        raise InputError(
            f"expected three semicolon-separated vertices, got {args.vertices!r}")
    va, vb, vc = (_parse_point(p, 2, "--vertices") for p in parts)
    triangle = geodesics.build_triangle(metric, va, vb, vc, tol=args.tol)
    excess, integral = geodesics.excess_from_triangle(metric, triangle)
    rows = [(vert[0], vert[1], ang)
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
    # every stride-th state, at most --max-rows of them
    stride = -(-len(path.states) // args.max_rows)
    rows = []
    for i in range(0, len(path.states), stride):
        st = path.states[i]
        rows.append((path.s[i], st.u, st.v, st.pu, st.pv))
    drift = geodesics.energy_drift(path)
    _emit(args, ["s", "u", "v", "pu", "pv"], rows,
          {"energy_drift": drift, "n_steps": len(path.states) - 1})


def cmd_catalog(args):
    rows = []
    for name in sorted(catalog.ENTRIES):
        entry = catalog.ENTRIES[name]
        params = " ".join(f"{k}={v}" for k, v in sorted(entry.params.items()))
        rows.append((name, entry.kind, params or "-", entry.kappa_note))
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


class _RangeFlag(argparse.Action):
    """Stores (value, flag as typed), so that an error in the range names
    the spelling given, --prange or --urange."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, (values, option_string))


def _add_range_flags(parser):
    parser.add_argument("--urange", "--prange", dest="urange",
                        action=_RangeFlag)
    parser.add_argument("--vrange", "--qrange", dest="vrange",
                        action=_RangeFlag)


def _curve_flags(p):
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


def _grid_flags(p, metric=True):
    _add_input_flags(p, metric)
    p.add_argument("--grid", default="10x10")
    _add_range_flags(p)


def _flatness_flags(p):
    _grid_flags(p)
    p.add_argument("--tol", type=float, default=1e-8)


def _gaussbonnet_flags(p):
    _add_input_flags(p, metric=True)
    _add_range_flags(p)
    p.add_argument("--order", type=int, default=48)
    p.add_argument("--pole-cutoff", type=float, default=None,
                   help="shrink the u-range ends; defaults per catalog entry")


def _triangle_flags(p):
    _add_input_flags(p, metric=True)
    p.add_argument("--vertices", required=True,
                   help="u1,v1;u2,v2;u3,v3")
    p.add_argument("--tol", type=float, default=1e-6)


def _geodesic_flags(p):
    _add_input_flags(p, metric=True)
    p.add_argument("--start", required=True, help="u,v,pu,pv")
    p.add_argument("--length", type=float, default=1.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--max-rows", type=int, default=200)


# subcommand -> (help line, flags before --format/--output, handler), in
# the order the help lists them
_COMMANDS = {
    "curve": ("tangent, normal and curvature along a curve", _curve_flags,
              cmd_curve),
    "surface": ("normals, metric and curvatures on a grid",
                lambda p: _grid_flags(p, metric=False), cmd_surface),
    "egregia": ("intrinsic curvature from E, F, G", _grid_flags, cmd_egregia),
    "flatness": ("local-flatness residual and verdict", _flatness_flags,
                 cmd_flatness),
    "gaussbonnet": ("total curvature over a region", _gaussbonnet_flags,
                    cmd_gaussbonnet),
    "triangle": ("geodesic triangle angle excess", _triangle_flags,
                 cmd_triangle),
    "geodesic": ("integrate a geodesic", _geodesic_flags, cmd_geodesic),
    "catalog": ("list catalog entries", lambda p: None, cmd_catalog),
}


class _ParseError(Exception):
    """An argparse error met by a single-subcommand parser."""


class _SubcommandParser(argparse.ArgumentParser):
    """Raises _ParseError where argparse would print usage and exit, so the
    caller can let the full parser report the error; `add_subparsers`
    gives the subcommand parsers this class too."""

    def error(self, message):
        raise _ParseError(message)


def build_parser(command=None):
    """The argument parser with every subcommand, or with `command` given,
    a _SubcommandParser that holds only that subcommand.  Every
    `add_argument` constructs an argparse HelpFormatter: all eight
    subcommands take about 3.5 ms to build, one about 0.5 ms."""
    cls = argparse.ArgumentParser if command is None else _SubcommandParser
    parser = cls(
        prog="egregium",
        description="curvature engine for plane curves, embedded surfaces "
                    "and intrinsic metrics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags, handler) in _COMMANDS.items():
        if command is None or name == command:
            p = sub.add_parser(name, help=help_text)
            add_flags(p)
            _add_common(p)
            p.set_defaults(func=handler)
    return parser


class _Expression(str):
    """An expression after --parametric that starts with '-', passed to
    argparse behind a space, so that argparse reads it as a value and not
    as a flag; `main` takes the space off again."""


def _mark(token):
    if token.startswith("-") and token not in ("-h", "--help"):
        return _Expression(" " + token)
    return token


@cache
def _flag_names(command):
    names = {"-h", "--help"}
    flags = SimpleNamespace(add_argument=lambda *n, **_: names.update(n))
    _COMMANDS[command][1](flags)
    _add_common(flags)
    return names


def _merge_value_flags(argv):
    """Join `--flag value` into `--flag=value` for values that may start
    with '-' (ranges, vertices, velocities, floats), and mark the
    expressions that follow --parametric, which may start with '-' too.
    A flag may be abbreviated to any prefix that argparse reads as it."""
    count = _PARAMETRIC_VALUES.get(argv[0]) if argv else None
    names = _flag_names(argv[0]) if argv and argv[0] in _COMMANDS else ()
    merged = []
    i = 0
    while i < len(argv):
        token = flag = argv[i]
        if token.startswith("--") and token not in names:
            matches = [name for name in names if name.startswith(token)]
            flag = matches[0] if len(matches) == 1 else token
        if flag in _VALUE_FLAGS and i + 1 < len(argv):
            merged.append(f"{token}={argv[i + 1]}")
            i += 2
        elif flag == "--parametric" and count and i + count < len(argv):
            merged += [token, *map(_mark, argv[i + 1:i + 1 + count])]
            i += 1 + count
        else:
            merged.append(token)
            i += 1
    return merged


def main(argv=None):
    argv = _merge_value_flags(sys.argv[1:] if argv is None else list(argv))
    args = None
    if (argv and argv[0] in _COMMANDS and "-h" not in argv
            and "--help" not in argv):
        try:
            args = build_parser(argv[0]).parse_args(argv)
        except _ParseError:
            pass  # the full parser prints the usage and message, exit 2
    if args is None:
        # help, and every error, come from the full parser, so their text
        # lists every subcommand
        args = build_parser().parse_args(argv)
    if getattr(args, "parametric", None):
        args.parametric = [value[1:] if type(value) is _Expression else value
                           for value in args.parametric]
    try:
        args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
