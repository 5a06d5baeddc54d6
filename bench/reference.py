"""Output checks against references that do not come from egregium.

* grid_surface: closed-form embeddings with hand-derived partials, the
  textbook first and second fundamental forms built from them, and the
  catalog's `kappa_note` curvature formulas.
* metric_ode: spherical and hyperbolic trigonometry for triangle angles and
  areas, the great circle for sphere geodesics, the two first integrals
  (energy, Clairaut) for torus geodesics, 4 pi and 0 for Gauss-Bonnet.
* one_shot: sympy derivatives of the generated expressions, the Brioschi
  determinant form of the curvature, and for malformed text: exit 2, one
  `error:` line on stderr, nothing on stdout.

`check(inv, rc, stdout, stderr)` returns None when the invocation meets its
contract, else a one-line reason.  Tolerances are relative to 1 + |want|.
"""

from __future__ import annotations

import math

import workloads

TOL_VALUE = 1e-9  # positions, metric coefficients, normals
TOL_CURVATURE = 1e-7  # K and mean curvature (second derivatives, cancellation)
TOL_PRINCIPAL = 1e-6  # k_min/k_max lose half the digits near umbilics
TOL_GEODESIC = 1e-7  # fixed-step RK4 at 900 steps against the exact solution
TOL_TRIANGLE = 1e-4  # shooting tolerance 1e-6 and a polygonal boundary
TOL_SLOPE = 1e-3  # row-to-row difference quotients; 3e-5 seen at the seed commit
FLAT_TOL = 1e-8  # the CLI's default flatness --tol


class Mismatch(Exception):
    pass


def close(got, want, tol, what):
    if not abs(got - want) <= tol * (1.0 + abs(want)):
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


def parse_csv(text):
    lines = text.splitlines()
    if len(lines) < 2 or lines[0] != "# egregium-csv v1":
        raise Mismatch("output is not egregium CSV")
    columns = lines[1].split(",")
    rows, summary = [], {}
    for line in lines[2:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            summary[key] = value
        else:
            rows.append(dict(zip(columns, map(float, line.split(",")))))
    return columns, rows, summary


def _expect_columns(columns, want):
    if columns != list(want):
        raise Mismatch(f"columns {columns}, want {list(want)}")


def _grid(urange, vrange, nu, nv):
    (u0, u1), (v0, v1) = urange, vrange
    return [(u0 + (u1 - u0) * i / (nu - 1), v0 + (v1 - v0) * j / (nv - 1))
            for i in range(nu) for j in range(nv)]


def _expect_grid(rows, names, urange, vrange, grid):
    points = _grid(urange, vrange, *grid)
    if len(rows) != len(points):
        raise Mismatch(f"{len(rows)} rows, want {len(points)}")
    for row, (u, v) in zip(rows, points):
        close(row[names[0]], u, TOL_VALUE, names[0])
        close(row[names[1]], v, TOL_VALUE, names[1])


# ------------------------------------------------------------------ surfaces

def dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def surface_geometry(P, Pp, Pq, Ppp, Ppq, Pqq):
    """Textbook quantities from the embedding and its partials, with the
    normal x_p x x_q / |x_p x x_q|."""
    E, F, G = dot(Pp, Pp), dot(Pp, Pq), dot(Pq, Pq)
    raw = cross(Pp, Pq)
    delta = math.sqrt(dot(raw, raw))
    n = (raw[0] / delta, raw[1] / delta, raw[2] / delta)
    e, f, g = dot(n, Ppp), dot(n, Ppq), dot(n, Pqq)
    disc = E * G - F * F
    K = (e * g - f * f) / disc
    H = (e * G - 2.0 * f * F + g * E) / (2.0 * disc)
    root = math.sqrt(max(H * H - K, 0.0))
    return {"x": P[0], "y": P[1], "z": P[2], "X": n[0], "Y": n[1], "Z": n[2],
            "E": E, "F": F, "G": G, "kappa": K, "mean": H,
            "k_min": H - root, "k_max": H + root}


def _torus(prm, p, q):
    R, r = prm["Rmaj"], prm["r"]
    cp, sp, cq, sq = math.cos(p), math.sin(p), math.cos(q), math.sin(q)
    w = R + r * cp
    return ((w * cq, w * sq, r * sp), (-r * sp * cq, -r * sp * sq, r * cp),
            (-w * sq, w * cq, 0.0), (-r * cp * cq, -r * cp * sq, -r * sp),
            (r * sp * sq, -r * sp * cq, 0.0), (-w * cq, -w * sq, 0.0))


def _sphere(prm, p, q):
    R = prm["radius"]
    cp, sp, cq, sq = math.cos(p), math.sin(p), math.cos(q), math.sin(q)
    return ((R * sp * cq, R * sp * sq, R * cp), (R * cp * cq, R * cp * sq, -R * sp),
            (-R * sp * sq, R * sp * cq, 0.0), (-R * sp * cq, -R * sp * sq, -R * cp),
            (-R * cp * sq, R * cp * cq, 0.0), (-R * sp * cq, -R * sp * sq, 0.0))


def _catenoid(prm, p, q):
    ch, sh, cq, sq = math.cosh(p), math.sinh(p), math.cos(q), math.sin(q)
    return ((ch * cq, ch * sq, p), (sh * cq, sh * sq, 1.0), (-ch * sq, ch * cq, 0.0),
            (ch * cq, ch * sq, 0.0), (-sh * sq, sh * cq, 0.0), (-ch * cq, -ch * sq, 0.0))


def _helicoid(prm, p, q):
    ch, sh, cq, sq = math.cosh(p), math.sinh(p), math.cos(q), math.sin(q)
    return ((sh * cq, sh * sq, q), (ch * cq, ch * sq, 0.0), (-sh * sq, sh * cq, 1.0),
            (sh * cq, sh * sq, 0.0), (-ch * sq, ch * cq, 0.0), (-sh * cq, -sh * sq, 0.0))


def _graph_frame(f, fx, fy, fxx, fxy, fyy, x, y):
    return ((x, y, f), (1.0, 0.0, fx), (0.0, 1.0, fy),
            (0.0, 0.0, fxx), (0.0, 0.0, fxy), (0.0, 0.0, fyy))


def _quadric_sine(prm, x, y):
    a, b, c, d, e, f = (prm[k] for k in "abcdef")
    s = e * x + f * y
    sn, cs = math.sin(s), math.cos(s)
    return _graph_frame(a * x * x + b * x * y + c * y * y + d * sn,
                        2 * a * x + b * y + d * e * cs, b * x + 2 * c * y + d * f * cs,
                        2 * a - d * e * e * sn, b - d * e * f * sn, 2 * c - d * f * f * sn,
                        x, y)


SURFACES = {"torus": _torus, "sphere": _sphere, "catenoid": _catenoid,
            "helicoid": _helicoid, "graph": _quadric_sine}

# catalog kappa_note formulas; the graph uses (f_xx f_yy - f_xy^2)/(1+|grad f|^2)^2
KAPPA_NOTE = {
    "torus": lambda prm, p, q: math.cos(p) / (prm["r"] * (prm["Rmaj"] + prm["r"] * math.cos(p))),
    "sphere": lambda prm, p, q: 1.0 / prm["radius"] ** 2,
    "catenoid": lambda prm, p, q: -1.0 / math.cosh(p) ** 4,
    "helicoid": lambda prm, p, q: -1.0 / math.cosh(p) ** 4,
    "graph": lambda prm, p, q: _graph_kappa(_quadric_sine(prm, p, q)),
}


def _graph_kappa(frame):
    fx, fy = frame[1][2], frame[2][2]
    fxx, fxy, fyy = frame[3][2], frame[4][2], frame[5][2]
    return (fxx * fyy - fxy * fxy) / (1.0 + fx * fx + fy * fy) ** 2


SURFACE_COLUMNS = ("p", "q", "x", "y", "z", "X", "Y", "Z", "E", "F", "G",
                   "kappa", "k_min", "k_max", "mean")
_TOLS = {"kappa": TOL_CURVATURE, "mean": TOL_CURVATURE,
         "k_min": TOL_PRINCIPAL, "k_max": TOL_PRINCIPAL}


def _check_surface_rows(rows, frame_at):
    for row in rows:
        want = surface_geometry(*frame_at(row["p"], row["q"]))
        for key, value in want.items():
            close(row[key], value, _TOLS.get(key, TOL_VALUE), f"{key} at p={row['p']!r}")


def _check_surface_grid(ref, text):
    columns, rows, _ = parse_csv(text)
    _expect_columns(columns, SURFACE_COLUMNS)
    _expect_grid(rows, ("p", "q"), ref["urange"], ref["vrange"], ref["grid"])
    shape, prm = ref["shape"], ref["params"]
    _check_surface_rows(rows, lambda p, q: SURFACES[shape](prm, p, q))
    for row in rows:
        close(row["kappa"], KAPPA_NOTE[shape](prm, row["p"], row["q"]),
              TOL_CURVATURE, "kappa against the catalog formula")


def _check_egregia_grid(ref, text):
    columns, rows, summary = parse_csv(text)
    _expect_columns(columns, ("u", "v", "kappa_intrinsic", "kappa_extrinsic", "defect"))
    _expect_grid(rows, ("u", "v"), ref["urange"], ref["vrange"], ref["grid"])
    shape, prm = ref["shape"], ref["params"]
    worst = 0.0
    for row in rows:
        want = KAPPA_NOTE[shape](prm, row["u"], row["v"])
        close(row["kappa_intrinsic"], want, TOL_CURVATURE, "kappa_intrinsic")
        close(row["kappa_extrinsic"], want, TOL_CURVATURE, "kappa_extrinsic")
        close(row["defect"], abs(row["kappa_intrinsic"] - row["kappa_extrinsic"]),
              TOL_VALUE, "defect")
        worst = max(worst, row["defect"])
    close(float(summary["max_defect"]), worst, TOL_VALUE, "max_defect")


# ---------------------------------------------------------------- metric_ode

def _stereographic(u, v, radius):
    """Point on the unit sphere for the chart of sphere_isothermal."""
    u, v = u / radius, v / radius
    d = 1.0 + u * u + v * v
    return (2.0 * u / d, 2.0 * v / d, (2.0 - d) / d)


def spherical_angles(a, b, c):
    def angle(p, q, r):
        tq = tuple(qi - dot(p, q) * pi for pi, qi in zip(p, q))
        tr = tuple(ri - dot(p, r) * pi for pi, ri in zip(p, r))
        return math.atan2(math.sqrt(dot(cross(tq, tr), cross(tq, tr))), dot(tq, tr))
    return angle(a, b, c), angle(b, c, a), angle(c, a, b)


def hyperbolic_angles(a, b, c):
    """Poincare disk, curvature -1: law of cosines on the side lengths."""
    def cosh_dist(p, q):
        d2 = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
        return 1.0 + 2.0 * d2 / ((1.0 - p[0] ** 2 - p[1] ** 2) * (1.0 - q[0] ** 2 - q[1] ** 2))

    ca, cb, cc = cosh_dist(b, c), cosh_dist(c, a), cosh_dist(a, b)
    sa, sb, sc = (math.sqrt(x * x - 1.0) for x in (ca, cb, cc))
    return (math.acos((cb * cc - ca) / (sb * sc)), math.acos((ca * cc - cb) / (sa * sc)),
            math.acos((ca * cb - cc) / (sa * sb)))


def _check_triangle(ref, text):
    columns, rows, summary = parse_csv(text)
    _expect_columns(columns, ("vertex_u", "vertex_v", "angle"))
    verts = ref["vertices"]
    if ref["kind"] == "triangle_sphere":
        angles = spherical_angles(*(_stereographic(u, v, ref["radius"]) for u, v in verts))
    else:
        angles = hyperbolic_angles(*verts)
    if len(rows) != 3:
        raise Mismatch(f"{len(rows)} triangle rows")
    for row, (u, v), want in zip(rows, verts, angles):
        close(row["vertex_u"], u, TOL_VALUE, "vertex_u")
        close(row["vertex_v"], v, TOL_VALUE, "vertex_v")
        close(row["angle"], want, TOL_TRIANGLE, "vertex angle")
    excess = sum(angles) - math.pi  # = K * area for constant K = +-1
    close(float(summary["excess"]), excess, TOL_TRIANGLE, "angle excess")
    close(float(summary["integral"]), excess, TOL_TRIANGLE, "curvature integral")


def _angle_gap(a, b):
    return abs(math.remainder(a - b, 2.0 * math.pi))


def _check_path(ref, rows, speed):
    """Rows are evenly spaced in arclength s, a whole number of steps of
    about --step apart, from 0 to within one spacing of --length, and the
    chart coordinates move as the state says: du/ds = pu / speed, and the
    same for v (trapezoidal difference quotients between rows)."""
    if len(rows) < 2 or rows[0]["s"] != 0.0:
        raise Mismatch("geodesic rows must start at s = 0 and hold two rows or more")
    spacing = rows[1]["s"]
    steps = round(spacing / ref["step"])
    if steps < 1 or abs(spacing / steps - ref["step"]) > 0.01 * ref["step"]:
        raise Mismatch(f"row spacing {spacing!r} is not a whole number of steps "
                       f"of {ref['step']!r}")
    for a, b in zip(rows, rows[1:]):
        ds = b["s"] - a["s"]
        if abs(ds - spacing) > 1e-9 * ref["length"]:
            raise Mismatch(f"rows at s={a['s']!r} and s={b['s']!r} are not evenly spaced")
        for x, p in (("u", "pu"), ("v", "pv")):
            close((b[x] - a[x]) / ds, 0.5 * (a[p] + b[p]) / speed, TOL_SLOPE,
                  f"d{x}/ds between s={a['s']!r} and s={b['s']!r}")
    last = rows[-1]["s"]
    if not ref["length"] - spacing * (1.0 + 1e-9) < last <= ref["length"] * (1.0 + 1e-12):
        raise Mismatch(f"geodesic ends at s={last!r}, want {ref['length']!r}")


def _check_geodesic_sphere(ref, text):
    columns, rows, summary = parse_csv(text)
    _expect_columns(columns, ("s", "u", "v", "pu", "pv"))
    R = ref["params"]["radius"]
    u0, v0, pu0, pv0 = ref["start"]

    def frame(u, v):
        return ((R * math.sin(u) * math.cos(v), R * math.sin(u) * math.sin(v), R * math.cos(u)),
                (R * math.cos(u) * math.cos(v), R * math.cos(u) * math.sin(v), -R * math.sin(u)),
                (-R * math.sin(u) * math.sin(v), R * math.sin(u) * math.cos(v), 0.0))

    P0, Pu, Pv = frame(u0, v0)
    V0 = tuple(a * pu0 + b * pv0 for a, b in zip(Pu, Pv))
    speed = math.sqrt(dot(V0, V0))
    T0 = tuple(x / speed for x in V0)
    _check_path(ref, rows, speed)
    for row in rows:
        th = row["s"] / R
        P = tuple(p * math.cos(th) + R * t * math.sin(th) for p, t in zip(P0, T0))
        V = tuple(speed * (-p / R * math.sin(th) + t * math.cos(th)) for p, t in zip(P0, T0))
        u = math.acos(max(-1.0, min(1.0, P[2] / R)))
        v = math.atan2(P[1], P[0])
        _, Pu, Pv = frame(u, v)
        close(row["u"], u, TOL_GEODESIC, f"u at s={row['s']!r}")
        if _angle_gap(row["v"], v) > TOL_GEODESIC * (1.0 + abs(v)):
            raise Mismatch(f"v at s={row['s']!r}: got {row['v']!r}, want {v!r} mod 2 pi")
        close(row["pu"], dot(V, Pu) / (R * R), TOL_GEODESIC, "pu")
        close(row["pv"], dot(V, Pv) / (R * R * math.sin(u) ** 2), TOL_GEODESIC, "pv")


def _check_geodesic_torus(ref, text):
    columns, rows, summary = parse_csv(text)
    _expect_columns(columns, ("s", "u", "v", "pu", "pv"))
    R, r = ref["params"]["Rmaj"], ref["params"]["r"]

    def integrals(row):
        G = (R + r * math.cos(row["u"])) ** 2
        return r * r * row["pu"] ** 2 + G * row["pv"] ** 2, G * row["pv"]

    if not rows:
        raise Mismatch("no geodesic rows")
    energy0, clairaut0 = integrals(rows[0])
    for name, value in zip(("u", "v", "pu", "pv"), ref["start"]):
        close(rows[0][name], value, TOL_VALUE, f"start {name}")
    _check_path(ref, rows, math.sqrt(energy0))
    for row in rows:
        energy, clairaut = integrals(row)
        close(energy, energy0, TOL_GEODESIC, f"energy at s={row['s']!r}")
        close(clairaut, clairaut0, TOL_GEODESIC, f"Clairaut constant at s={row['s']!r}")


def _check_gaussbonnet(ref, text):
    columns, rows, summary = parse_csv(text)
    _expect_columns(columns, ("total", "error"))
    close(rows[0]["total"], ref["total"], 1e-6, "total curvature")


# ------------------------------------------------------------------ one_shot

class OneShot:
    """Per-template sympy derivatives, lambdified once per run."""

    def __init__(self, seed):
        import sympy

        self.sp = sympy
        self.fns = [self._build(t) for t in workloads.one_shot_templates(seed)]

    def _expr(self, node, syms, coefs):
        sp = self.sp
        op = node[0]
        if op == "var":
            return syms[node[1]]
        if op == "coef":
            return coefs[node[1]]
        a = self._expr(node[1], syms, coefs)
        if op in workloads.BINARY:
            b = self._expr(node[2], syms, coefs)
            return a + b if op == "add" else a - b if op == "sub" else a * b
        return {
            "sin": sp.sin, "cos": sp.cos, "atan": sp.atan, "tanh": sp.tanh,
            "expsin": lambda x: sp.exp(sp.sin(x)), "sqrt1": lambda x: sp.sqrt(1 + x ** 2),
            "log1": lambda x: sp.log(1 + x ** 2), "recip1": lambda x: 1 / (1 + x ** 2),
            "sq": lambda x: x ** 2, "neg": lambda x: -x,
        }[op](a)

    def _build(self, tpl):
        """One function per tree: its value and first and second partials."""
        sp = self.sp
        # real symbols keep sympy's assumption queries from expanding
        # nested hyperbolic functions without end
        syms = {name: sp.Symbol(name, real=True) for name in "xytuv"}
        coefs = sp.symbols(f"c0:{tpl.n_coefs}", real=True)
        variables = {"curve_graph": "x", "curve_parametric": "t", "curve_implicit": "x",
                     "surface_graph": "xy"}.get(tpl.kind, "uv")
        args = tuple(syms[n] for n in variables)
        fns = []
        for tree in tpl.trees[:1] if tpl.kind == "curve_implicit" else tpl.trees:
            g = self._expr(tree, syms, coefs)
            if len(args) == 1:
                exprs = [g, g.diff(args[0]), g.diff(args[0], 2)]
            else:
                a, b = args
                exprs = [g, g.diff(a), g.diff(b), g.diff(a, 2), g.diff(a, b), g.diff(b, 2)]
            fns.append(sp.lambdify(args + tuple(coefs), exprs, modules="math"))
        return fns

    def check(self, ref, text):
        fns = [lambda *a, f=f: f(*a, *ref["coefs"]) for f in self.fns[ref["template"]]]
        kind = ref["kind"]
        columns, rows, summary = parse_csv(text)
        if kind.startswith("curve_"):
            _expect_columns(columns, ("param", "x", "y", "Tx", "Ty", "Nx", "Ny", "kappa"))
            getattr(self, "_" + kind)(ref, rows, fns[0])
        elif kind == "surface_graph":
            _expect_columns(columns, SURFACE_COLUMNS)
            _expect_grid(rows, ("p", "q"), ref["urange"], ref["vrange"], ref["grid"])
            _check_surface_rows(rows, lambda p, q: _graph_frame(*fns[0](p, q), p, q))
        else:
            value = "kappa_intrinsic" if kind == "egregia_metric" else "residual"
            _expect_columns(columns, ("u", "v", value))
            _expect_grid(rows, ("u", "v"), ref["urange"], ref["vrange"], ref["grid"])
            worst = 0.0
            for row in rows:
                u, v = row["u"], row["v"]
                if "flat" in ref:
                    numerator, disc = brioschi(*_flat_metric(*ref["flat"], u))
                else:
                    numerator, disc = brioschi(*_metric(*(f(u, v) for f in fns)))
                if kind == "egregia_metric":
                    close(row[value], numerator / (disc * disc), TOL_CURVATURE, "kappa_intrinsic")
                else:
                    want = 4.0 * numerator
                    close(row[value], want, TOL_CURVATURE, "flatness residual")
                    worst = max(worst, abs(want))
            if kind == "flatness_metric":
                verdict = "FLAT" if worst <= FLAT_TOL else "NOT FLAT"
                if summary.get("verdict") != verdict:
                    raise Mismatch(f"verdict {summary.get('verdict')!r}, want {verdict!r}")

    @staticmethod
    def _curve_points(ref):
        lo, hi = ref["range"]
        n = ref["n"]
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]

    @staticmethod
    def _expect_rows(rows, count):
        if len(rows) != count:
            raise Mismatch(f"{len(rows)} rows, want {count}")

    def _curve_graph(self, ref, rows, fn):
        ts = self._curve_points(ref)
        self._expect_rows(rows, len(ts))
        for row, t in zip(rows, ts):
            f, f1, f2 = fn(t)
            s = math.sqrt(1.0 + f1 * f1)
            _expect_curve_row(row, t, (t, f), (1.0 / s, f1 / s), (-f1 / s, 1.0 / s), f2 / s ** 3)

    def _curve_parametric(self, ref, rows, fn):
        ts = self._curve_points(ref)
        self._expect_rows(rows, len(ts))
        for row, t in zip(rows, ts):
            # polar curve with radius r = 6/5 + tanh(g)/2
            g, g1, g2 = fn(t)
            th = math.tanh(g)
            sech2 = 1.0 - th * th
            r, r1 = 1.2 + 0.5 * th, 0.5 * sech2 * g1
            r2 = 0.5 * sech2 * (g2 - 2.0 * th * g1 * g1)
            c, s = math.cos(t), math.sin(t)
            x1, y1 = r1 * c - r * s, r1 * s + r * c
            x2, y2 = r2 * c - 2.0 * r1 * s - r * c, r2 * s + 2.0 * r1 * c - r * s
            speed = math.hypot(x1, y1)
            T = (x1 / speed, y1 / speed)
            _expect_curve_row(row, t, (r * c, r * s), T, (-T[1], T[0]),
                              (x1 * y2 - y1 * x2) / speed ** 3)

    def _curve_implicit(self, ref, rows, fn):
        k = ref["k"]
        self._expect_rows(rows, len(ref["at"]))
        for i, (row, (x, y)) in enumerate(zip(rows, ref["at"])):
            _, f1, f2 = fn(x)
            norm = math.hypot(f1, k)
            slope = f1 / k  # the zero set is the graph y = -f(x)/k
            kappa = abs(f2 / k) / (1.0 + slope * slope) ** 1.5
            _expect_curve_row(row, float(i), (x, y), (-k / norm, f1 / norm),
                              (f1 / norm, k / norm), kappa)


def _metric(a, b, c):
    """E = 1 + a^2, F = tanh(b)/2, G = 1 + c^2 and the partials Brioschi
    needs, by the chain rule from each tree's (value, d/du, d/dv, d2/du2,
    d2/dudv, d2/dv2)."""
    th = math.tanh(b[0])
    sech2 = 1.0 - th * th
    return (1.0 + a[0] ** 2, 0.5 * th, 1.0 + c[0] ** 2,
            2.0 * a[0] * a[1], 2.0 * a[0] * a[2],
            0.5 * sech2 * b[1], 0.5 * sech2 * b[2],
            2.0 * c[0] * c[1], 2.0 * c[0] * c[2],
            2.0 * (a[2] ** 2 + a[0] * a[5]),
            0.5 * sech2 * (b[4] - 2.0 * th * b[1] * b[2]),
            2.0 * (c[1] ** 2 + c[0] * c[3]))


def _flat_metric(a, b, u):
    """E = 1, F = 0, G = (a u + b)^2 with its partials."""
    w = a * u + b
    return 1.0, 0.0, w * w, 0.0, 0.0, 0.0, 0.0, 2.0 * a * w, 0.0, 0.0, 0.0, 2.0 * a * a


def brioschi(E, F, G, Eu, Ev, Fu, Fv, Gu, Gv, Evv, Fuv, Guu):
    """Numerator and EG - F^2 of Brioschi's formula K = numerator / disc^2."""
    def det3(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    first = det3(((-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev),
                  (Fv - 0.5 * Gu, E, F), (0.5 * Gv, F, G)))
    second = det3(((0.0, 0.5 * Ev, 0.5 * Gu), (0.5 * Ev, E, F), (0.5 * Gu, F, G)))
    return first - second, E * G - F * F


def _expect_curve_row(row, param, point, T, N, kappa):
    close(row["param"], param, TOL_VALUE, "param")
    close(row["x"], point[0], TOL_VALUE, "x")
    close(row["y"], point[1], TOL_VALUE, "y")
    for key, got in zip(("Tx", "Ty", "Nx", "Ny"), T + N):
        close(row[key], got, TOL_VALUE, key)
    close(row["kappa"], kappa, TOL_CURVATURE, f"kappa at {param!r}")


# ------------------------------------------------------------------ dispatch

CHECKS = {
    "surface_grid": _check_surface_grid,
    "egregia_grid": _check_egregia_grid,
    "triangle_sphere": _check_triangle,
    "triangle_hyperbolic": _check_triangle,
    "geodesic_sphere_metric": _check_geodesic_sphere,
    "geodesic_torus_metric": _check_geodesic_torus,
    "gaussbonnet": _check_gaussbonnet,
}


class Checker:
    def __init__(self, workload, seed):
        self.one_shot = OneShot(seed) if workload == "one_shot" else None

    def check(self, inv, rc, stdout, stderr):
        """None when the invocation meets its contract, else the reason."""
        if "Traceback" in stderr:
            return "traceback on stderr"
        if rc != inv.expect:
            last = stderr.strip().splitlines()[-1:] or [""]
            return f"exit {rc}, expected {inv.expect}: {last[0][:200]}"
        if inv.expect == 2:
            lines = stderr.splitlines()
            if stdout or len(lines) != 1 or not lines[0].startswith("error: "):
                return "bad input must give exactly one 'error:' line and no output"
            return None
        try:
            kind = inv.ref["kind"]
            if kind in CHECKS:
                CHECKS[kind](inv.ref, stdout)
            else:
                self.one_shot.check(inv.ref, stdout)
        except Mismatch as exc:
            return str(exc)[:300]
        except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"[:300]
        return None
