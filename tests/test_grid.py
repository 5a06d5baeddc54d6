"""Grid evaluation against the per-point path, which stays the reference.

Lowered programs over float64 arrays hold the bits of scalar calls; the
surface kernel and `MetricField.at` over arrays hold the bits of their calls
at each point, and raise where some point raises; and a CLI run that takes
the grid path prints what the per-point loop prints, byte for byte, errors
included: same exit code, same class and message, same first failing
point."""

import contextlib
import dataclasses
import math
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egregium import catalog, exprlang, intrinsic, surfaces
from egregium.cli import main
from egregium.errors import (EVALUATION_ERRORS, DegenerateMetric,
                             DegenerateParametrization)
from egregium.exprlang import Binary, Unary, Variable, parse

from conftest import CORPUS_2V
from test_lowering import METRIC_SEEDS, points, trees


def bits(values):
    return tuple(struct.pack("d", x) for x in values)


def scalar_outcome(run, us, vs):
    """Slot bits point by point, or the first point's failure."""
    out = []
    for u, v in zip(us, vs):
        try:
            out.append([bits(slots) for slots in run(u, v)])
        except Exception as exc:
            return (type(exc), str(exc))
    return out


def grid_outcome(run, us, vs):
    """Slot bits per point from one call over arrays, or "raised"."""
    try:
        columns = run(np.array(us), np.array(vs))
    except EVALUATION_ERRORS:
        return "raised"
    for slots in columns:
        for slot in slots:
            assert isinstance(slot, np.ndarray) and slot.shape == (len(us),)
    return [[bits(slot[i] for slot in slots) for slots in columns]
            for i in range(len(us))]


def assert_grid_matches_scalar(asts, seeds, us, vs):
    run = exprlang.lower_jet2(asts, seeds)
    want = scalar_outcome(run, us, vs)
    got = grid_outcome(run, us, vs)
    if isinstance(want, tuple):
        # some point fails; the caller re-runs per point for its error
        assert got == "raised"
    else:
        assert got == want


# --- lowered programs over arrays ------------------------------------------

@pytest.mark.parametrize("text, box", CORPUS_2V)
@given(fractions=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                          min_size=1, max_size=6))
def test_corpus_grid_matches_scalar_bitwise(text, box, fractions):
    (u0, u1), (v0, v1) = box
    us = [u0 + (u1 - u0) * fu for fu, _ in fractions]
    vs = [v0 + (v1 - v0) * fv for _, fv in fractions]
    assert_grid_matches_scalar([parse(text)], {"x": 0, "y": 1}, us, vs)


point_lists = st.lists(st.tuples(points, points), min_size=1, max_size=5)


@settings(max_examples=1000)
@given(tree=trees, pts=point_lists)
def test_random_trees_grid_matches_scalar(tree, pts):
    # signed zeros among the points; 0, 1, integer, fractional and
    # negative exponents among the trees
    assert_grid_matches_scalar([tree], METRIC_SEEDS, [u for u, _ in pts],
                               [v for _, v in pts])


@given(trees=st.lists(trees, min_size=2, max_size=3), pts=point_lists)
def test_random_tree_lists_grid_matches_scalar(trees, pts):
    assert_grid_matches_scalar(trees + trees[:1], METRIC_SEEDS,
                               [u for u, _ in pts], [v for _, v in pts])


def test_constant_slots_are_broadcast():
    run = exprlang.lower_jet2([parse("u^0"), parse("-0*1"), parse("v")],
                              METRIC_SEEDS)
    one, zero, v = run(np.array([0.5, 2.0]), np.array([-0.0, 3.0]))
    assert bits(one[0]) == bits([1.0, 1.0])
    assert bits(zero[0]) == bits([-0.0, -0.0])
    assert bits(v[0]) == bits([-0.0, 3.0])


# --- the geometry kernel and MetricField.at over arrays ----------------------

def axes(points):
    return (np.array([p for p, _ in points]), np.array([q for _, q in points]))


SURFACES = [
    ("torus", lambda: catalog.build_surface(catalog.lookup("torus"))),
    ("catenoid", lambda: catalog.build_surface(catalog.lookup("catenoid"))),
    ("graph", lambda: surfaces.GraphSurface(parse("x^2 - x*y + sin(y)/3"))),
    ("sphere", lambda: catalog.build_surface(catalog.lookup("sphere"),
                                             {"radius": 2.0})),
]


def kernel(surface, p, q):
    """The `surface` command's columns from the kernel, floats or arrays."""
    comps = surfaces.embedding_jets(surface, p, q)
    nd = surfaces.normal_from_jets(*comps)
    fff = surfaces.fff_from_jets(*comps)
    so = surfaces.second_order_from_jets(comps, nd)
    return ([c.v for c in comps] + [nd.X, nd.Y, nd.Z]
            + [getattr(fff, f) for f in fff._fields]
            + [surfaces.gauss_from_forms(fff, so),
               *surfaces.principal_values(fff, nd, so)])


@pytest.mark.parametrize("name, build", SURFACES, ids=[s[0] for s in SURFACES])
def test_surface_grid_matches_per_point_functions(name, build):
    surface = build()
    grid = intrinsic.grid_points((0.2, 1.4), (-1.0, 2.0), 6, 5)
    with np.errstate(all="ignore"):
        columns = kernel(surface, *axes(grid))
    for i, (p, q) in enumerate(grid):
        comps = surfaces.embedding_jets(surface, p, q)
        nd = surfaces.normal_from_jets(*comps)
        fff = surfaces.fff_from_jets(*comps)
        pc = surfaces.principal_curvatures(surface, p, q)
        want = ([c.v for c in comps] + [nd.X, nd.Y, nd.Z]
                + [getattr(fff, f) for f in fff._fields]
                + [surfaces.gauss_curvature_parametric(surface, p, q),
                   pc.k_min, pc.k_max])
        assert bits(column[i] for column in columns) == bits(want)


METRICS = [
    ("sphere_isothermal", lambda: catalog.build_metric(
        catalog.lookup("sphere_isothermal"), {})),
    ("torus_metric", lambda: catalog.build_metric(
        catalog.lookup("torus_metric"), {})),
    ("expression", lambda: intrinsic.MetricField.from_expressions(
        "exp(2*u)*(1+v^2)", "0.1*u*v", "1+u^2.5+sqrt(1+v^2)")),
    ("induced", lambda: intrinsic.MetricField.from_surface(
        catalog.build_surface(catalog.lookup("catenoid")))),
]


@pytest.mark.parametrize("name, build", METRICS, ids=[m[0] for m in METRICS])
def test_metric_grid_matches_at(name, build):
    metric = build()
    grid = intrinsic.grid_points((0.1, 0.9), (-0.5, 0.7), 5, 4)
    with np.errstate(all="ignore"):
        mj = metric.at(*axes(grid))
    for i, (u, v) in enumerate(grid):
        assert bits(column[i] for column in mj) == bits(metric.at(u, v))


@pytest.mark.parametrize("metric, u", [
    (("1", "0", "u"), [0.5, -0.5, 1.0]),           # DegenerateMetric
    (("1", "0", "log(u)"), [2.0, 1.5, -1.0]),     # DomainError
    (("1", "0", "x"), [1.0, 2.0, 3.0]),            # UnboundVariable
])
def test_metric_grid_raises_where_at_raises(metric, u):
    m = intrinsic.MetricField.from_expressions(*metric)
    passing, errors = [], set()
    for a in u:
        try:
            m.at(a, 0.0)
            passing.append(a)
        except EVALUATION_ERRORS as exc:
            errors.add(type(exc))
    (error,) = errors
    with np.errstate(all="ignore"):
        with pytest.raises(error):
            m.at(np.array(u), np.zeros(len(u)))
        if passing:
            m.at(np.array(passing), np.zeros(len(passing)))


def test_nan_passes_the_checks_at_points_and_over_arrays():
    # a comparison with NaN is false, so NaN fails no check, at a point or
    # at an element
    metric = intrinsic.MetricField.from_expressions("1", "0", "1+0*u")
    with np.errstate(all="ignore"):
        mj = metric.at(np.array([1.0, math.nan]), np.zeros(2))
    assert math.isnan(metric.at(math.nan, 0.0).G)
    assert bits(column[1] for column in mj) == bits(metric.at(math.nan, 0.0))


def flat(result):
    """The floats or arrays of a kernel result, in field order."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    if isinstance(result, (tuple, list)):
        return [x for part in result for x in flat(part)]
    return [result]


DISPATCH_TREES = [parse("exp(2*u)*(1+v^2)"), parse("0.1*u*v"),
                  parse("sqrt(1+u^2+v^2)")]


def torus_normal(p, q):
    torus = catalog.build_surface(catalog.lookup("torus"))
    return surfaces.normal_from_jets(*surfaces.embedding_jets(torus, p, q))


DISPATCH = {
    "MetricField.at": lambda: intrinsic.MetricField.from_expressions(
        "exp(2*u)*(1+v^2)", "0.1*u*v", "1+u^2.5+sqrt(1+v^2)").at,
    "lower_jet2 order 2": lambda: exprlang.lower_jet2(DISPATCH_TREES,
                                                      METRIC_SEEDS),
    "normal_from_jets": lambda: torus_normal,
}


@pytest.mark.parametrize("name", DISPATCH)
def test_a_point_of_any_scalar_type_takes_the_point_path(name):
    # int, float and np.float64 coordinates give the same bits, which are
    # those of element 0 over one-element arrays
    call = DISPATCH[name]()
    want = bits(flat(call(1, 2)))
    assert bits(flat(call(1.0, 2.0))) == want
    assert bits(flat(call(np.float64(1.0), np.float64(2.0)))) == want
    with np.errstate(all="ignore"):
        columns = flat(call(np.array([1.0]), np.array([2.0])))
    assert bits(column[0] for column in columns) == want


def test_order_1_takes_scalars_of_any_type_and_refuses_arrays():
    # MetricField.first_order runs the emitted order-1 program at a point
    metric = intrinsic.MetricField(*DISPATCH_TREES)
    e, f, g = exprlang.lower_jet2(DISPATCH_TREES, METRIC_SEEDS)(1.0, 2.0)
    want = bits([e[0], f[0], g[0], e[1], e[2], f[1], f[2], g[1], g[2]])
    for u, v in ((1, 2), (1.0, 2.0), (np.float64(1.0), np.float64(2.0))):
        assert bits(metric.first_order(u, v)) == want
    with pytest.raises(TypeError):
        metric.first_order(np.array([1.0, 1.5]), np.array([2.0, 2.5]))


def test_surface_grid_raises_at_a_degenerate_point():
    # the cone's apex at p = 0 has no normal and a degenerate first form
    cone = surfaces.ParametricSurface(parse("p*cos(q)"), parse("p*sin(q)"),
                                      parse("p"))
    p, q = np.array([1.0, 0.0, 0.5]), np.array([0.3, 0.3, 0.3])
    with np.errstate(all="ignore"):
        comps = surfaces.embedding_jets(cone, p, q)
        for check in (surfaces.normal_from_jets, surfaces.fff_from_jets):
            with pytest.raises(DegenerateParametrization):
                check(*comps)
        kernel(cone, p[[0, 2]], q[[0, 2]])
        # tangents of length 1e-4: the normal passes, the first form fails
        flat = surfaces.ParametricSurface(parse("0.0001*p"), parse("0.0001*q"),
                                          parse("0"))
        comps = surfaces.embedding_jets(flat, p, q)
        surfaces.normal_from_jets(*comps)
        with pytest.raises(DegenerateParametrization):
            surfaces.fff_from_jets(*comps)


# --- CLI: grid path against the per-point loop ------------------------------

def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def points_only(original):
    """`original` refusing arrays with an evaluation error, so that a grid
    run falls back to its per-point loop."""
    def refuse(owner, u, v):
        if type(u) is np.ndarray:
            raise DegenerateMetric("arrays refused")
        return original(owner, u, v)
    return refuse


def both_paths(argv):
    """(grid path, per-point loop) results of one CLI run: every grid
    command starts with `embedding_jets` or `MetricField.at`."""
    grid = run_cli(argv)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surfaces, "embedding_jets",
                   points_only(surfaces.embedding_jets))
        mp.setattr(intrinsic.MetricField, "at",
                   points_only(intrinsic.MetricField.at))
        per_point = run_cli(argv)
    return grid, per_point


def renamed(ast, names):
    """The tree with its variables renamed by `names`."""
    if isinstance(ast, Variable):
        return Variable(names.get(ast.name, ast.name))
    if isinstance(ast, Unary):
        return Unary(ast.op, renamed(ast.child, names))
    if isinstance(ast, Binary):
        return Binary(ast.op, renamed(ast.left, names),
                      renamed(ast.right, names))
    return ast


# metric trees use u, v, p, q and rarely the unbound x; as a graph u is the
# rarely unbound name
GRAPH_NAMES = {"u": "x", "v": "y", "x": "u"}
RANGES = ("-1:1", "0:2", "-2:0.5", "0.5:1.5")


def _commands(tree, urange, vrange):
    # bracketed, so that no argument starts with "-"
    text = f"({exprlang.to_text(tree)})"
    graph = f"({exprlang.to_text(renamed(tree, GRAPH_NAMES))})"
    grid = ("--grid", "3x2", "--urange", urange, "--vrange", vrange)
    return [
        ("flatness", "--metric", f"1+u^2,{text},2") + grid,
        ("egregia", "--metric", f"1,0,{text}") + grid,
        ("egregia", "--metric", f"{text},0,1", "--graph", "x*y") + grid,
        ("egregia", "--graph", graph) + grid,
        ("surface", "--graph", graph, "--format", "json") + grid,
        ("surface", "--parametric", graph.replace("x", "p").replace(
            "y", "q"), "q", "p*q") + grid,
    ]


@settings(max_examples=100)
@given(tree=trees, urange=st.sampled_from(RANGES),
       vrange=st.sampled_from(RANGES))
def test_cli_grid_path_prints_what_the_loop_prints(tree, urange, vrange):
    for argv in _commands(tree, urange, vrange):
        grid, per_point = both_paths(argv)
        assert grid == per_point, argv
        assert grid[0] in (0, 2, 3), argv
        if grid[0]:
            assert grid[1] == "" and grid[2].count("\n") == 1, argv


@pytest.mark.parametrize("argv", [
    # the log fails at the last point, the metric is degenerate at the
    # first: the loop reports the degenerate metric
    ("egregia", "--metric", "1,0,u+0.5+0*log(1.5-u-v)", "--grid", "3x3"),
    # the log fails at the first point, before anything else
    ("egregia", "--metric", "1,0,u^2+v^2+0*log(1-u*v)", "--grid", "3x3"),
    # at the apex p = 0 both the normal and the first form degenerate:
    # surface reports the normal and egregia the form, as their loops do
    ("surface", "--parametric", "p*cos(q)", "p*sin(q)", "p", "--grid", "3x3",
     "--urange", "0:1"),
    ("egregia", "--parametric", "p*cos(q)", "p*sin(q)", "p", "--grid", "3x3",
     "--urange", "0:1"),
    # tangents of length 1e-4: |x_p x x_q| = 1e-8 passes the normal's test,
    # EG - F^2 = 1e-16 fails the first form's
    ("surface", "--parametric", "0.0001*p", "0.0001*q", "0", "--grid", "2x2"),
    ("egregia", "--parametric", "0.0001*p", "0.0001*q", "0", "--grid", "2x2"),
    ("flatness", "--parametric", "0.0001*p", "0.0001*q", "0", "--grid",
     "2x2"),
    ("flatness", "--metric", "1,0,log(v)", "--grid", "2x2"),
    ("surface", "--parametric", "x", "q", "0", "--grid", "2x2"),
])
def test_cli_failures_match_the_loop(argv):
    grid, per_point = both_paths(argv)
    assert grid == per_point
    assert grid[0] in (2, 3)


def test_first_failing_point_decides():
    code, _, err = run_cli(("egregia", "--metric", "1,0,u+0.5+0*log(1.5-u-v)",
                            "--grid", "3x3"))
    assert (code, err) == (3, "numeric failure: metric not positive definite "
                              "at (-1.0, -1.0): E=1.0, F=0.0, G=-0.5\n")


# --- counting ----------------------------------------------------------------

@pytest.fixture
def calls(monkeypatch):
    """Calls of `embedding_jets` and `MetricField.at`, by the type of their
    first coordinate."""
    counts = {}
    for owner, name in ((surfaces, "embedding_jets"),
                        (intrinsic.MetricField, "at")):
        original = getattr(owner, name)

        def counting(first, u, v, _name=name, _original=original):
            key = _name, type(u).__name__
            counts[key] = counts.get(key, 0) + 1
            return _original(first, u, v)

        monkeypatch.setattr(owner, name, counting)
    return counts


# one evaluation over arrays: a given metric's and the embedding's, and an
# induced metric's `at` evaluates the embedding
@pytest.mark.parametrize("argv, want", [
    (("egregia", "--metric", "1,0,exp(2*u)", "--graph", "x*y"),
     {("at", "ndarray"): 1, ("embedding_jets", "ndarray"): 1}),
    (("flatness", "--catalog", "cone_metric"), {("at", "ndarray"): 1}),
    (("flatness", "--catalog", "torus"),
     {("at", "ndarray"): 1, ("embedding_jets", "ndarray"): 1}),
])
def test_one_grid_evaluation_per_invocation(calls, argv, want):
    code, _, err = run_cli(argv + ("--grid", "4x3"))
    assert code == 0, err
    assert calls == want


def test_failing_grid_falls_back_to_per_point_calls(calls):
    code, out, err = run_cli(("egregia", "--metric", "1,0,u", "--grid",
                              "3x3"))
    assert code == 3 and out == ""
    assert err == ("numeric failure: metric not positive definite at "
                   "(-1.0, -1.0): E=1.0, F=0.0, G=-1.0\n")
    assert calls == {("at", "ndarray"): 1, ("at", "float"): 1}
