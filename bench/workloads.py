"""Seeded workload generators.

A workload is a list of passes; pass `k` of workload `w` under seed `s` is a
list of `Invocation`s generated from the string seed "w/s/k", so the same
seed gives the same argv everywhere (child processes, the verifier, a later
commit).  Every pass of a workload has the same composition and nearly the
same cost, but different parameters and expression text, so no argv repeats
inside one process and a cache keyed by input text cannot make later passes
cheaper than the first.

This module depends only on the standard library: it never imports
egregium, and the expression trees it builds for `one_shot` are its own.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field

WORKLOADS = ("grid_surface", "metric_ode", "one_shot")

# Tail percentile of the invocation latencies (nearest rank), fixed per
# workload so that a run reports the same statistic however many passes its
# time budget allows.  Each is the highest whole percentile with at least ten
# invocations beyond it at the seed commit's pass counts, and it falls inside
# the workload's slowest group of like invocations (bench/README.md).
TAIL_PERCENTILE = {"grid_surface": 83, "metric_ode": 84, "one_shot": 99}

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Invocation:
    argv: tuple
    expect: int  # exit code the CLI contract requires
    ref: dict = field(default_factory=dict, compare=False)  # reference data


def generate(workload, seed, pass_index):
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    if workload == "grid_surface":
        return _grid_surface(rng)
    if workload == "metric_ode":
        return _metric_ode(rng)
    if workload == "one_shot":
        return _one_shot(one_shot_templates(seed), rng)
    raise ValueError(f"unknown workload {workload!r}")


def _r(value):
    return repr(float(value))


def _span(rng, lo, hi, min_width):
    """Seeded sub-interval of [lo, hi] at least `min_width` wide."""
    width = rng.uniform(min_width, hi - lo)
    start = rng.uniform(lo, hi - width)
    return start, start + width


# ---------------------------------------------------------------- grid_surface

# Grid points per invocation, chosen so that every invocation takes about
# 0.45 s at the seed commit (one latency cluster, so the median and the tail
# percentile do not sit on a gap between kinds); the grid's shape is seeded.
POINTS = {
    ("surface", "torus"): 1550, ("surface", "sphere"): 1750,
    ("surface", "catenoid"): 1750, ("surface", "helicoid"): 1850,
    ("surface", "graph"): 1300,
    ("egregia", "torus"): 3300, ("egregia", "sphere"): 3100,
    ("egregia", "catenoid"): 4400, ("egregia", "helicoid"): 4200,
    ("egregia", "graph"): 2400,
}

# Graph surface z = a x^2 + b x y + c y^2 + d sin(e x + f y).
# Coefficients are parenthesized so the text never starts with "-", which
# argparse would read as an option.
GRAPH_TEMPLATE = "({a})*x^2 + ({b})*x*y + ({c})*y^2 + ({d})*sin(({e})*x + ({f})*y)"


def _grid_surface(rng):
    out = []
    for command in ("surface", "egregia"):
        for shape in ("torus", "sphere", "catenoid", "helicoid", "graph"):
            points = POINTS[command, shape]
            nu = rng.randint(round(0.8 * math.sqrt(points)), round(1.25 * math.sqrt(points)))
            out.append(_grid_invocation(rng, command, shape, nu, round(points / nu)))
    return out


def _grid_invocation(rng, command, shape, nu, nv):
    """`surface` or `egregia` on a catalog or graph surface, seeded
    parameters and ranges."""
    params = {}
    if shape == "torus":
        params = {"Rmaj": rng.uniform(2.0, 4.0), "r": rng.uniform(0.5, 1.2)}
        urange = _span(rng, 0.0, TWO_PI, 2.0)
        vrange = _span(rng, 0.0, TWO_PI, 2.0)
    elif shape == "sphere":
        params = {"radius": rng.uniform(0.5, 3.0)}
        urange = _span(rng, 0.2, math.pi - 0.2, 1.5)
        vrange = _span(rng, 0.0, TWO_PI, 2.0)
    elif shape == "graph":
        params = {k: rng.uniform(-1.0, 1.0) for k in "abcdef"}
        urange = _span(rng, -1.5, 1.5, 1.0)
        vrange = _span(rng, -1.5, 1.5, 1.0)
    else:
        urange = _span(rng, -1.5, 1.5, 1.0)
        vrange = _span(rng, 0.0, TWO_PI, 2.0)
    argv = [command]
    if shape == "graph":
        argv += ["--graph", GRAPH_TEMPLATE.format(**{k: _r(v) for k, v in params.items()})]
    else:
        argv += ["--catalog", shape]
        for key, value in params.items():
            argv += [f"--{key}", _r(value)]
    argv += ["--grid", f"{nu}x{nv}",
             "--urange", f"{_r(urange[0])}:{_r(urange[1])}",
             "--vrange", f"{_r(vrange[0])}:{_r(vrange[1])}"]
    return Invocation(tuple(argv), 0, {
        "kind": f"{command}_grid", "shape": shape,
        "params": {k: float(_r(v)) for k, v in params.items()},
        "grid": (nu, nv),
        "urange": tuple(float(_r(x)) for x in urange),
        "vrange": tuple(float(_r(x)) for x in vrange)})


# ------------------------------------------------------------------ metric_ode

# Fixed triangle shapes in polar chart coordinates (rho, theta).  Both
# metrics are rotation invariant about the chart origin, and the sphere chart
# also scales with the radius, so a seeded rotation and radius change every
# vertex without changing the amount of shooting work.
SPHERE_TRIANGLE = ((0.3, 0.2), (0.35, 2.3), (0.28, 4.2))
HYPERBOLIC_TRIANGLE = ((0.3, 0.4), (0.33, 2.5), (0.27, 4.4))

# Geodesic and Gauss-Bonnet runs take about 0.15 s each at the seed commit
# and form one latency cluster that holds the median.  One geodesic per
# metric and pass has twice the steps; with the two triangles (3 to 4 s)
# those are the slowest samples, so the tail percentile (ten samples beyond
# it) falls inside that group of like invocations rather than on the
# noisiest few of the 0.15 s cluster.
GEODESIC_STEPS = 900
GEODESICS_PER_METRIC = 4
GAUSSBONNET_PER_METRIC = 3


def _rotated(shape, phi, scale=1.0):
    verts = [(scale * rho * math.cos(theta + phi), scale * rho * math.sin(theta + phi))
             for rho, theta in shape]
    return [(float(_r(u)), float(_r(v))) for u, v in verts]


def _vertices_arg(verts):
    return ";".join(f"{_r(u)},{_r(v)}" for u, v in verts)


def _metric_ode(rng):
    out = []
    radius = rng.uniform(0.8, 1.6)
    verts = _rotated(SPHERE_TRIANGLE, rng.uniform(0.0, TWO_PI), radius)
    out.append(Invocation(
        ("triangle", "--catalog", "sphere_isothermal", "--radius", _r(radius),
         "--vertices", _vertices_arg(verts)), 0,
        {"kind": "triangle_sphere", "radius": float(_r(radius)), "vertices": verts}))
    verts = _rotated(HYPERBOLIC_TRIANGLE, rng.uniform(0.0, TWO_PI))
    out.append(Invocation(
        ("triangle", "--catalog", "hyperbolic_disk", "--vertices", _vertices_arg(verts)), 0,
        {"kind": "triangle_hyperbolic", "vertices": verts}))

    for i in range(GEODESICS_PER_METRIC):
        # Heading within 55 degrees of due east from near the equator keeps
        # the great circle at least 0.5 rad away from the chart's poles.
        radius = rng.uniform(0.5, 2.0)
        u0 = rng.uniform(math.pi / 2 - 0.3, math.pi / 2 + 0.3)
        v0 = rng.uniform(0.0, TWO_PI)
        beta = rng.uniform(-0.96, 0.96) + rng.choice((0.0, math.pi))
        start = (u0, v0, math.sin(beta), math.cos(beta) / math.sin(u0))
        length = rng.uniform(1.5, 3.0) * radius
        out.append(_geodesic("sphere_metric", {"radius": radius}, start, length,
                             GEODESIC_STEPS * (2 if i == 0 else 1)))
    for i in range(GEODESICS_PER_METRIC):
        params = {"Rmaj": rng.uniform(2.0, 3.5), "r": rng.uniform(0.5, 1.0)}
        beta = rng.uniform(0.0, TWO_PI)
        start = (rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI),
                 math.sin(beta), math.cos(beta))
        out.append(_geodesic("torus_metric", params, start, rng.uniform(2.0, 5.0),
                             GEODESIC_STEPS * (2 if i == 0 else 1)))

    for _ in range(GAUSSBONNET_PER_METRIC):
        radius = rng.uniform(0.5, 3.0)
        out.append(Invocation(
            ("gaussbonnet", "--catalog", "sphere_metric", "--radius", _r(radius)), 0,
            {"kind": "gaussbonnet", "total": 4.0 * math.pi}))
    for _ in range(GAUSSBONNET_PER_METRIC):
        rmaj, r = rng.uniform(2.0, 3.5), rng.uniform(0.5, 1.0)
        out.append(Invocation(
            ("gaussbonnet", "--catalog", "torus_metric", "--Rmaj", _r(rmaj), "--r", _r(r)), 0,
            {"kind": "gaussbonnet", "total": 0.0}))
    return out


def _geodesic(name, params, start, length, steps):
    start = tuple(float(_r(x)) for x in start)
    length = float(_r(length))
    step = float(_r(length / steps))
    argv = ["geodesic", "--catalog", name]
    for key, value in params.items():
        argv += [f"--{key}", _r(value)]
    argv += ["--start", ",".join(_r(x) for x in start),
             "--length", _r(length), "--step", _r(step)]
    return Invocation(tuple(argv), 0, {
        "kind": f"geodesic_{name}",
        "params": {k: float(_r(v)) for k, v in params.items()},
        "start": start, "length": length, "step": step})


# -------------------------------------------------------------------- one_shot
#
# Expression trees are tuples: ("var", name), ("coef", slot), or
# (op, child...) with op in UNARY or BINARY.  Coefficient slots are filled
# per pass, so one template yields a different expression text every pass.
# Every operator is total on the reals, so no generated expression leaves the
# domain of an elementary function.

UNARY = {
    "sin": "sin({})", "cos": "cos({})", "atan": "atan({})", "tanh": "tanh({})",
    "expsin": "exp(sin({}))", "sqrt1": "sqrt(1 + ({})^2)",
    "log1": "log(1 + ({})^2)", "recip1": "1/(1 + ({})^2)", "sq": "({})^2",
    "neg": "(-{})",
}
BINARY = {"add": "+", "sub": "-", "mul": "*"}

ONE_SHOT_KINDS = ("curve_graph", "curve_parametric", "curve_implicit",
                  "egregia_metric", "flatness_metric", "surface_graph")
TEMPLATES_PER_KIND = 6
INSTANCES_PER_PASS = 2  # expressions per template and pass
FLAT_METRICS_PER_KIND = 2  # flatness templates whose metric is flat
MALFORMED_PER_PASS = 9  # one in eight of the pass's 72 template invocations
# Each pass also runs a few `surface --graph` invocations of the fixed
# GRAPH_TEMPLATE (seeded coefficients) on an 8x8 grid, about 25 ms each.  They
# are the slowest samples by design, so the tail percentile falls inside a
# group whose cost does not depend on the seed, not on host noise or on
# whichever random template happens to be largest.
HEAVY_PER_PASS = 4
HEAVY_GRID = (8, 8)
MAX_TREE_SIZE = 6


def random_tree(rng, size, variables, slots):
    """Tree with `size` operator nodes; appends one slot per coefficient."""
    if size == 0:
        roll = rng.random()
        if roll < 0.15:
            slots.append(len(slots))
            return ("coef", slots[-1])
        var = ("var", rng.choice(variables))
        if roll < 0.6:
            slots.append(len(slots))
            return ("mul", ("coef", slots[-1]), var)
        return var
    if rng.random() < 0.45:
        op = rng.choice(sorted(UNARY))
        return (op, random_tree(rng, size - 1, variables, slots))
    left = rng.randint(0, size - 1)
    op = rng.choice(sorted(BINARY))
    return (op, random_tree(rng, left, variables, slots),
            random_tree(rng, size - 1 - left, variables, slots))


def tree_text(node, coefs):
    op = node[0]
    if op == "var":
        return node[1]
    if op == "coef":
        return _r(coefs[node[1]])
    if op in BINARY:
        return f"({tree_text(node[1], coefs)} {BINARY[op]} {tree_text(node[2], coefs)})"
    return UNARY[op].format(tree_text(node[1], coefs))


def tree_value(node, coefs, env):
    """Float value of a tree, computed with the math module."""
    op = node[0]
    if op == "var":
        return env[node[1]]
    if op == "coef":
        return coefs[node[1]]
    a = tree_value(node[1], coefs, env)
    if op in BINARY:
        b = tree_value(node[2], coefs, env)
        return a + b if op == "add" else a - b if op == "sub" else a * b
    return {
        "sin": math.sin, "cos": math.cos, "atan": math.atan, "tanh": math.tanh,
        "expsin": lambda x: math.exp(math.sin(x)),
        "sqrt1": lambda x: math.sqrt(1.0 + x ** 2),
        "log1": lambda x: math.log(1.0 + x ** 2),
        "recip1": lambda x: 1.0 / (1.0 + x ** 2),
        "sq": lambda x: x ** 2, "neg": lambda x: -x,
    }[op](a)


@dataclass(frozen=True)
class Template:
    kind: str
    trees: tuple  # one tree per expression role, see _one_shot
    n_coefs: int
    flat: bool = False


def one_shot_templates(seed):
    """The run's expression templates: seeded trees of 1 to MAX_TREE_SIZE operators."""
    rng = random.Random(f"one_shot/{seed}/templates")
    out = []
    for kind in ONE_SHOT_KINDS:
        for i in range(TEMPLATES_PER_KIND):
            slots = []
            # every kind gets each size from 1 to MAX_TREE_SIZE once, so the
            # seed changes structure but not how much expression there is
            size = 1 + i % MAX_TREE_SIZE

            def tree(variables):
                return random_tree(rng, size, variables, slots)

            flat = kind == "flatness_metric" and i < FLAT_METRICS_PER_KIND
            if kind == "curve_graph":
                trees = (tree(("x",)),)
            elif kind == "curve_parametric":
                trees = (tree(("t",)),)  # polar radius r(t)
            elif kind == "curve_implicit":
                trees = (tree(("x",)), tree(("x", "y")))  # f(x), h(x, y)
            elif kind == "surface_graph":
                trees = (tree(("x", "y")),)
            elif flat:
                trees = ()
            else:
                trees = tuple(tree(("u", "v")) for _ in range(3))
            out.append(Template(kind, trees, len(slots), flat))
    return out


_VARIABLE_TOKEN = re.compile(r"(?<![A-Za-z_0-9.])[xyztuvpq](?![A-Za-z_0-9(])")


def corrupt(text, rng):
    """A variant of `text` that the expression grammar rejects."""
    choices = ["trailing", "char"]
    if ")" in text:
        choices.append("unclosed")
    spots = [m.start() for m in _VARIABLE_TOKEN.finditer(text)]
    if spots:
        choices += ["implicit_mul", "unknown_ident"]
    how = rng.choice(choices)
    if how == "trailing":
        return text + " +"
    if how == "char":
        at = rng.randint(0, len(text))
        return text[:at] + "@" + text[at:]
    if how == "unclosed":
        at = text.rindex(")")
        return text[:at] + text[at + 1:]
    at = rng.choice(spots)
    if how == "implicit_mul":
        return text[:at] + "2" + text[at:]
    return text[:at] + "w" + text[at + 1:]


def _one_shot(templates, rng):
    out = []
    count = INSTANCES_PER_PASS * len(templates)
    bad = set(rng.sample(range(count), MALFORMED_PER_PASS))
    for index in range(count):
        tpl = templates[index % len(templates)]
        coefs = [float(_r(rng.uniform(0.5, 1.5))) for _ in range(tpl.n_coefs)]
        texts, ref = _one_shot_case(tpl, coefs, rng)
        ref.update(template=index % len(templates), coefs=coefs)
        if index in bad:
            role = rng.randrange(len(texts))
            texts[role] = corrupt(texts[role], rng)
            out.append(Invocation(tuple(_one_shot_argv(tpl, texts, ref)), 2,
                                  {"kind": "malformed"}))
        else:
            out.append(Invocation(tuple(_one_shot_argv(tpl, texts, ref)), 0, ref))
    for _ in range(HEAVY_PER_PASS):
        out.append(_grid_invocation(rng, "surface", "graph", *HEAVY_GRID))
    return out


def _one_shot_case(tpl, coefs, rng):
    kind = tpl.kind
    ref = {"kind": kind}
    if kind.startswith("curve_"):
        lo, hi = _span(rng, -1.0, 1.0, 0.5)
        ref["n"] = rng.randint(4, 9)
        ref["range"] = (float(_r(lo)), float(_r(hi)))
    else:
        ref["grid"] = (rng.randint(2, 4), rng.randint(2, 4))
        lo, hi = _span(rng, -1.0, 1.0, 0.5)
        lo2, hi2 = _span(rng, -1.0, 1.0, 0.5)
        ref["urange"] = (float(_r(lo)), float(_r(hi)))
        ref["vrange"] = (float(_r(lo2)), float(_r(hi2)))

    if kind == "curve_graph":
        texts = [tree_text(tpl.trees[0], coefs)]
    elif kind == "curve_parametric":
        radius = f"(1.2 + 0.5*tanh({tree_text(tpl.trees[0], coefs)}))"
        texts = [f"{radius}*cos(t)", f"{radius}*sin(t)"]
    elif kind == "curve_implicit":
        # W = (k y + f(x)) (1.5 + sin h(x, y)): its zero set is y = -f(x)/k,
        # and the second factor never vanishes.
        k = float(_r(rng.uniform(0.5, 2.0)))
        f_tree, h_tree = tpl.trees
        texts = [f"({_r(k)}*y + {tree_text(f_tree, coefs)})*(1.5 + sin({tree_text(h_tree, coefs)}))"]
        xs = [float(_r(rng.uniform(-1.0, 1.0))) for _ in range(rng.randint(2, 5))]
        ref["k"] = k
        ref["at"] = [(x, float(_r(-tree_value(f_tree, coefs, {"x": x}) / k))) for x in xs]
    elif kind == "surface_graph":
        texts = [tree_text(tpl.trees[0], coefs)]
    elif tpl.flat:
        # ds^2 = du^2 + (a u + b)^2 dv^2 is a polar chart of the plane
        a, b = float(_r(rng.uniform(0.2, 1.0))), float(_r(rng.uniform(1.5, 2.5)))
        ref["flat"] = (a, b)
        texts = ["1", "0", f"({_r(a)}*u + {_r(b)})^2"]
    else:
        # E, G >= 1 and |F| < 1/2, so the metric is positive definite
        e1, e2, e3 = (tree_text(t, coefs) for t in tpl.trees)
        texts = [f"1 + ({e1})^2", f"0.5*tanh({e2})", f"1 + ({e3})^2"]
    return texts, ref


def _one_shot_argv(tpl, texts, ref):
    kind = tpl.kind
    if kind.startswith("curve_"):
        argv = ["curve"]
        if kind == "curve_graph":
            argv += ["--graph", texts[0]]
        elif kind == "curve_parametric":
            argv += ["--parametric", texts[0], texts[1]]
        else:
            argv += ["--implicit", texts[0]]
            for x, y in ref["at"]:
                argv += ["--at", f"{_r(x)},{_r(y)}"]
        if kind != "curve_implicit":
            lo, hi = ref["range"]
            argv += ["--range", f"{_r(lo)}:{_r(hi)}", "--n", str(ref["n"])]
        return argv
    if kind == "surface_graph":
        argv = ["surface", "--graph", texts[0]]
    else:
        argv = ["egregia" if kind == "egregia_metric" else "flatness",
                "--metric", ",".join(texts)]
    nu, nv = ref["grid"]
    return argv + ["--grid", f"{nu}x{nv}",
                   "--urange", "{}:{}".format(*map(_r, ref["urange"])),
                   "--vrange", "{}:{}".format(*map(_r, ref["vrange"]))]
