"""Lowered 2-jet evaluation (`exprlang.lower_jet2`) of one, two or three
coordinates against the tree-walking interpreter over `oracle.Jet2_2`, which
stays the oracle: bit-identical slots or the same exception, one lowering
per metric, surface or curve, and byte-identical library and CLI output
with the interpreter patched in.  Also the parse depth limit that keeps
every recursive walk inside Python's recursion limit."""

import ast
import io
import math
import re
import struct
import tokenize
from ast import literal_eval

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egregium import (catalog, curves, exprlang, geodesics, intrinsic, jets,
                      surfaces)
from egregium.cli import main
from egregium.errors import NumericError
from egregium.exprlang import (MAX_DEPTH, Binary, Constant, ParseError, Unary,
                               Variable, parse)

import oracle
from conftest import CORPUS_1V, CORPUS_2V, CORPUS_3V

METRIC_SEEDS = {"u": 0, "v": 1, "p": 0, "q": 1}
# the three passes of an implicit surface: two coordinates seeded, one held
IMPLICIT_PASSES = ({"x": 0, "y": 1, "z": 2}, {"x": 0, "z": 1, "y": 2},
                   {"y": 0, "z": 1, "x": 2})


def _reference_jet(index, value):
    """Coordinate `index` as `lower_jet2` seeds it: 0 along u, 1 along v,
    any later one held as a jet with zero derivatives."""
    if index == 0:
        return oracle.Jet2_2.variable_u(value)
    if index == 1:
        return oracle.Jet2_2.variable_v(value)
    return oracle.Jet2_2(value)


def interpreted(asts, seeds, order=2):
    """`lower_jet2`'s contract met by walking the trees at every call, and
    over arrays at every point; at order 1 the 2-jets are truncated to
    their first three slots."""
    width = 6 if order == 2 else 3

    def at(*coords):
        seeded = [_reference_jet(i, c) for i, c in enumerate(coords)]
        bindings = {name: seeded[i] for name, i in seeds.items()}
        values = [oracle.evaluate(ast, bindings) for ast in asts]
        # a constant tree evaluates to a float: a jet without derivatives
        return [(value.slots if isinstance(value, oracle.Jet2_2)
                 else (float(value), 0.0, 0.0, 0.0, 0.0, 0.0))[:width]
                for value in values]

    def run(*coords):
        if not isinstance(coords[0], np.ndarray):
            return at(*coords)
        points = [at(*pt) for pt in zip(*(c.tolist() for c in coords))]
        return [tuple(np.array(slot) for slot in zip(*(pt[k] for pt in points)))
                for k in range(len(asts))]
    return run


def outcome(fn, *coords):
    """Slot bit patterns, or the exception class and message."""
    try:
        return [tuple(struct.pack("d", s) for s in slots)
                for slots in fn(*coords)]
    except Exception as exc:
        return (type(exc), str(exc))


def assert_same(asts, seeds, *coords):
    want = outcome(interpreted(asts, seeds), *coords)
    got = outcome(exprlang.lower_jet2(asts, seeds), *coords)
    assert got == want


# --- property tests --------------------------------------------------------

@pytest.mark.parametrize("text, box", CORPUS_2V)
@given(fu=st.floats(0.0, 1.0), fv=st.floats(0.0, 1.0))
def test_corpus_matches_interpreter_bitwise(text, box, fu, fv):
    (u0, u1), (v0, v1) = box
    assert_same([parse(text)], {"x": 0, "y": 1},
                u0 + (u1 - u0) * fu, v0 + (v1 - v0) * fv)


@pytest.mark.parametrize("text, box", CORPUS_1V)
@given(f=st.floats(0.0, 1.0))
def test_one_coordinate_corpus_matches_interpreter_bitwise(text, box, f):
    lo, hi = box
    assert_same([parse(text)], {"x": 0}, lo + (hi - lo) * f)


@pytest.mark.parametrize("passes", range(3))
@pytest.mark.parametrize("text, boxes", CORPUS_3V)
@given(f=st.tuples(*[st.floats(0.0, 1.0)] * 3))
def test_three_coordinate_corpus_matches_interpreter_bitwise(text, boxes,
                                                             passes, f):
    seeds = IMPLICIT_PASSES[passes]
    point = {name: lo + (hi - lo) * fi
             for name, (lo, hi), fi in zip("xyz", boxes, f)}
    coords = sorted(point, key=seeds.get)
    assert_same([parse(text)], seeds, *(point[name] for name in coords))


# constants that reach every branch: zero divisors (both signs), the power
# rule's exponents 0, 1, integers up to and past the limit of 64 (negative
# ones too, and 7 and -5, whose n (n - 1) v^(n - 2) term rounds), fractional
# ones, and values big enough to overflow
CONSTANTS = (0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 2.5, -1.5, 3.0, 64.0, 65.0,
             1e300)
EXPONENTS = (0.0, 1.0, -2.0, 2.0, 2.5, 65.0, -0.5, 3.0, 7.0, -5.0, 64.0)

leaves = st.one_of(
    st.sampled_from(CONSTANTS).map(Constant),
    # x is unbound under the metric seeds; rare, or most trees would raise
    st.sampled_from(("u", "v", "p", "q") * 4 + ("x",)).map(Variable),
)


def _extend(children):
    return st.one_of(
        st.builds(Unary, st.sampled_from(("neg",) + tuple(sorted(
            exprlang.FUNCTION_NAMES))), children),
        st.builds(Binary, st.sampled_from("+-*/^"), children, children),
        st.builds(Binary, st.just("^"), children,
                  st.sampled_from(EXPONENTS).map(Constant)),
        # constant subtrees, some of which raise when folded
        st.builds(Binary, st.sampled_from("+-*/^"),
                  st.sampled_from(CONSTANTS).map(Constant),
                  st.sampled_from(CONSTANTS).map(Constant)),
    )


trees = st.recursive(leaves, _extend, max_leaves=10)
points = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, 2.0)),
                   st.floats(-3.0, 3.0))


@settings(max_examples=1500)
@given(tree=trees, u=points, v=points)
def test_random_trees_match_interpreter(tree, u, v):
    assert_same([tree], METRIC_SEEDS, u, v)


@given(trees=st.lists(trees, min_size=2, max_size=3), u=points, v=points)
# equal trees whose bits differ are not merged
@example(trees=[Constant(0.0), Constant(-0.0)], u=0.0, v=0.0)
def test_random_tree_lists_match_interpreter(trees, u, v):
    # the first tree to raise decides, even when a later one equals it
    assert_same(trees + trees[:1], METRIC_SEEDS, u, v)


@pytest.mark.parametrize("seeds, arity", [
    ({"u": 0, "v": 0, "p": 0, "q": 0}, 1),
    # one or two names on the held coordinate
    ({"u": 0, "v": 1, "p": 2, "q": 2}, 3),
    ({"u": 2, "v": 0, "p": 1, "q": 0}, 3),
])
@settings(max_examples=500)
@given(tree=trees, coords=st.tuples(points, points, points))
def test_random_trees_of_one_and_three_coordinates_match_interpreter(
        seeds, arity, tree, coords):
    assert_same([tree], seeds, *coords[:arity])


# --- order 1: the first three slots of order 2 -----------------------------

def first_order(asts, seeds):
    """(*coords) -> [(v, du, dv), ...]: `exprlang.first_order_function` of
    `asts` with a body that returns their jets, at float() of the
    coordinates as `MetricField.first_order` calls it."""
    names = [(f"v{i}", f"du{i}", f"dv{i}") for i in range(len(asts))]
    body = f"return [{', '.join('(%s, %s, %s)' % jet for jet in names)}]"

    def run(*coords):
        params = [f"x{i}" for i in range(len(coords))]
        function = exprlang.first_order_function(asts, seeds, names, body,
                                                 params, {})
        return function(*map(float, coords))

    return run


def assert_first_order_is_truncation(asts, seeds, *coords):
    """Order-1 slots carry the bits of the first three order-2 slots, or
    both orders raise the same exception class and message."""
    full = outcome(exprlang.lower_jet2(asts, seeds), *coords)
    first = outcome(first_order(asts, seeds), *coords)
    if isinstance(full, list):
        full = [slots[:3] for slots in full]
    assert first == full


@pytest.mark.parametrize("text, box", CORPUS_2V)
@given(fu=st.floats(0.0, 1.0), fv=st.floats(0.0, 1.0))
def test_first_order_corpus_truncates_order_two(text, box, fu, fv):
    (u0, u1), (v0, v1) = box
    assert_first_order_is_truncation([parse(text)], {"x": 0, "y": 1},
                                     u0 + (u1 - u0) * fu, v0 + (v1 - v0) * fv)


@pytest.mark.parametrize("passes", range(3))
@pytest.mark.parametrize("text, boxes", CORPUS_3V)
@given(f=st.tuples(*[st.floats(0.0, 1.0)] * 3))
def test_first_order_three_coordinates_truncate_order_two(text, boxes,
                                                          passes, f):
    seeds = IMPLICIT_PASSES[passes]
    point = {name: lo + (hi - lo) * fi
             for name, (lo, hi), fi in zip("xyz", boxes, f)}
    coords = sorted(point, key=seeds.get)
    assert_first_order_is_truncation([parse(text)], seeds,
                                     *(point[name] for name in coords))


@settings(max_examples=1500)
@given(trees=st.lists(trees, min_size=1, max_size=3), u=points, v=points)
@example(trees=[Constant(0.0), Constant(-0.0)], u=0.0, v=0.0)
def test_first_order_random_trees_truncate_order_two(trees, u, v):
    assert_first_order_is_truncation(trees + trees[:1], METRIC_SEEDS, u, v)


@pytest.mark.parametrize("seeds, arity", [
    ({"u": 0, "v": 0, "p": 0, "q": 0}, 1),
    ({"u": 0, "v": 1, "p": 2, "q": 2}, 3),
    ({"u": 2, "v": 0, "p": 1, "q": 0}, 3),
])
@settings(max_examples=300)
@given(tree=trees, coords=st.tuples(points, points, points))
def test_first_order_random_trees_of_one_and_three_coordinates(
        seeds, arity, tree, coords):
    assert_first_order_is_truncation([tree], seeds, *coords[:arity])


def test_first_order_takes_no_arrays_and_no_other_order():
    # the order-1 jets come from `first_order_function` at a point, and
    # `lower_jet2` lowers to order 2 alone
    run = first_order([parse("u*v")], METRIC_SEEDS)
    assert run(2.0, 3.0) == [(6.0, 3.0, 2.0)]
    metric = intrinsic.MetricField.from_expressions("1+u^2", "0", "1+v^2")
    with pytest.raises(TypeError):
        metric.first_order(np.array([2.0, 1.0]), np.array([3.0, 1.0]))
    with pytest.raises(TypeError):
        exprlang.lower_jet2([parse("u")], METRIC_SEEDS, order=1)


@pytest.mark.parametrize("text, u, v, error", [
    ("u/0", 1.0, 0.5, "division by zero"),
    # operands are evaluated before the operation that fails
    ("log(u-2)/0", 1.0, 0.5, "log of non-positive value -1.0"),
    ("log(u-2)^0", 1.0, 0.5, "log of non-positive value -1.0"),
    ("(0-2)^log(u-2)", 1.0, 0.5, "log of non-positive value -1.0"),
    ("log(u-2)^log(v-2)", 1.0, 0.5, "log of non-positive value -1.0"),
    ("(u-2)^log(v-2)", 1.0, 0.5, "log of non-positive value -1.5"),
    ("0/log(u-2)", 1.0, 0.5, "log of non-positive value -1.0"),
    ("u/(1-1)", 1.0, 0.5, "division by zero"),
    # a constant that raises when folded raises in evaluation order
    ("log(u-2) + 1/0", 1.0, 0.5, "log of non-positive value -1.0"),
    ("1/0 + log(u-2)", 1.0, 0.5, "division by zero"),
    ("sqrt(0-1) * u", 1.0, 0.5, "sqrt of non-positive value -1.0"),
    # libm's domain error at +-inf, in a folded constant and in a jet
    ("sin(1e308*10)+u", 1.0, 0.5, "sin is undefined at inf"),
    ("sin(u*1e308*10)", 1.0, 0.5, "sin is undefined at inf"),
    ("cos(u*1e308*10)", -1.0, 0.5, "cos is undefined at -inf"),
    ("tan(v*1e308*10)", 1.0, 0.5, "tan is undefined at inf"),
    ("u^-2", 0.0, 0.5, "negative power of jet with zero value"),
    ("u^2.5", -1.0, 0.5, "fractional power of non-positive base -1.0"),
    ("u^65", -1.0, 0.5, "fractional power of non-positive base -1.0"),
    ("(u+10)^64", 1e300, 0.5, "power 1e+300**64.0 overflows"),
    # only the second derivative overflows: order 1 raises too
    ("u^-2", 1e-100, 0.5, "power 1e-100**-2.0 overflows"),
    ("u^-0.5", 1e-130, 0.5, "power 1e-130**-0.5 overflows"),
    ("(0-2)^u", 1.0, 0.5, "power with non-positive base -2.0"),
    ("u^v", 0.0, 0.5, "jet power with non-positive base 0.0"),
    ("2^u", 2000.0, 0.5, "exp overflows at this argument"),
    ("2/(u-u)", 1.0, 0.5, "jet divided by jet with zero value"),
    ("x + u", 1.0, 0.5, "unbound variable 'x'"),
    ("u + x", 1.0, 0.5, "unbound variable 'x'"),
    ("u + log(0-1)*v", 1.0, 0.5, "log of non-positive value -1.0"),
])
def test_errors_match_interpreter(text, u, v, error):
    asts = [parse(text)]
    assert_same(asts, METRIC_SEEDS, u, v)
    assert_first_order_is_truncation(asts, METRIC_SEEDS, u, v)
    want = outcome(interpreted(asts, METRIC_SEEDS), u, v)
    for run in (first_order(asts, METRIC_SEEDS),
                exprlang.lower_jet2(asts, METRIC_SEEDS)):
        assert outcome(run, u, v) == want
        with pytest.raises(Exception) as err:
            run(u, v)
        assert str(err.value) == error


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize("text, seeds, coords, want", [
    # constants: folded, and bound to the program when not finite
    ("1e999", METRIC_SEEDS, (1.0, 2.0), (INF, 0.0, 0.0)),
    ("-1e999", METRIC_SEEDS, (1.0, 2.0), (-INF, 0.0, 0.0)),
    ("-0.0", METRIC_SEEDS, (1.0, 2.0), (-0.0, 0.0, 0.0)),
    ("1e999*u", METRIC_SEEDS, (2.0, 1.0), (INF, INF, NAN)),
    ("u - 1e999", METRIC_SEEDS, (2.0, 1.0), (-INF, 1.0, 0.0)),
    ("v*-0.0", METRIC_SEEDS, (2.0, 3.0), (-0.0, -0.0, -0.0)),
    # x*0.0 is computed, not folded to 0.0: it keeps the sign and NaN
    ("0*u", METRIC_SEEDS, (-2.0, 1.0), (-0.0, 0.0, 0.0)),
    ("0*u", METRIC_SEEDS, (INF, 1.0), (NAN, 0.0, 0.0)),
    ("u*v*0 + 0*u", METRIC_SEEDS, (-1.0, 2.0), (-0.0, 0.0, 0.0)),
    # coordinates after the first two are held with zero derivatives
    ("p*u + v", {"u": 0, "v": 1, "p": 2}, (2.0, 3.0, 5.0), (13.0, 5.0, 1.0)),
    ("p*q - u", {"u": 0, "v": 1, "p": 2, "q": 3}, (2, 3, 5, 7),
     (33.0, -1.0, 0.0)),
])
def test_first_order_bits(text, seeds, coords, want):
    asts = [parse(text)]
    got = outcome(first_order(asts, seeds), *coords)
    assert got == outcome(interpreted(asts, seeds, order=1), *coords)
    (slots,) = first_order(asts, seeds)(*coords)
    assert [math.isnan(w) or struct.pack("d", s) == struct.pack("d", w)
            for s, w in zip(slots, want)] == [True] * 3
    assert [math.isnan(s) for s in slots] == [math.isnan(w) for w in want]


# identifiers of the emitted functions that no expression provides
EMITTED_KEYWORDS = {"def", "program", "if", "or", "return", "try", "except"}


def test_emitted_source_takes_no_text_from_the_expression(monkeypatch):
    texts = ("sin(x)*exp(y) + log(x+2)^y - tan(z/y) + 1e999*sqrt(x)",
             "atan(t)^2.5 - cosh(x)/sinh(y) + tanh(z) - 1/(1-1)",
             "2^cos(x) - (0-3)^y + q")
    seeds = {"x": 0, "y": 1, "z": 2, "t": 3}
    sources = compiled_sources(monkeypatch)
    run = first_order([parse(text) for text in texts + texts[:1]], seeds)
    with pytest.raises(NumericError):
        run(0.5, 0.25, 2.0, 3.0)
    (source,) = sources
    assert_generated_only(source)


@pytest.mark.parametrize("texts", [
    ("sin(u)*exp(v) + log(u+2)^v - tan(u/v) + 1e999*sqrt(u)",
     "atan(p)^2.5 - cosh(q)/sinh(u) - 1/(1-1)", "2^cos(u) - (0-3)^v + x"),
    ("1", "0", "sin(u)^2"),
    ("(2/(1-u^2-v^2))^2", "0", "(2/(1-u^2-v^2))^2")])
def test_emitted_right_hand_side_takes_no_text_from_the_expression(
        monkeypatch, texts):
    # the geodesic right-hand side: the order-1 program, the metric's
    # check and the contraction, in one emitted function
    sources = compiled_sources(monkeypatch)
    geodesics._right_hand_side(intrinsic.MetricField.from_expressions(*texts))
    (source,) = sources
    assert_generated_only(source)


def compiled_sources(monkeypatch):
    """The list that receives the source of each emitted function."""
    sources = []
    compiled = exprlang._FirstOrderSource.compiled

    def capture(self, source):
        sources.append(source)
        return compiled(self, source)

    monkeypatch.setattr(exprlang._FirstOrderSource, "compiled", capture)
    return sources


def assert_generated_only(source):
    """The source holds no identifier of the expression language, only
    generated names and keywords, no strings, and only float literals."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    names = {tok.string for tok in tokens if tok.type == tokenize.NAME}
    assert not names & (exprlang.VARIABLE_NAMES | exprlang.FUNCTION_NAMES)
    assert all(re.fullmatch(r"[csk]\d+", name)
               for name in names - EMITTED_KEYWORDS)
    assert not [tok for tok in tokens if tok.type == tokenize.STRING]
    numbers = [tok.string for tok in tokens if tok.type == tokenize.NUMBER]
    assert numbers and all(type(literal_eval(number)) is float
                           for number in numbers)


def test_equal_trees_are_lowered_once(monkeypatch):
    lowered = []
    original = exprlang._lower_with

    def counting(ast, seeds, nodes):
        lowered.append(ast)
        return original(ast, seeds, nodes)

    monkeypatch.setattr(exprlang, "_lower_with", counting)
    e = parse("(2/(1-u^2-v^2))^2")
    run = exprlang.lower_jet2((e, parse("0"), parse("(2/(1-u^2-v^2))^2")),
                              METRIC_SEEDS)
    # the trees are lowered at the first call
    ej, fj, gj = run(0.3, 0.2)
    run(0.5, 0.1)
    roots = [ast for ast in lowered if ast in (e, Constant(0.0))]
    assert len(roots) == 2
    assert ej == gj and fj == (0.0,) * 6


# --- inline forms of tables in the order-1 program ---------------------------

# the floats where tables raise, overflow, underflow or keep a sign
EDGE_FLOATS = (0.0, -0.0, INF, -INF, NAN, 5e-324, -5e-324, 1e-310, -1e-310,
               2.2250738585072014e-308, 1e-160, -1e-160, 1e160, -1e160)
FORM_INPUTS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(),
                        st.floats(-1e3, 1e3))


def inline_pair(emitter, table):
    """x -> (f, f') of `table` through the inline form that `emitter` has
    for it, as an order-1 program computes them."""
    f0, f1 = emitter._call(table, "c0")
    assert emitter.lines[0] == "try:"
    lines = emitter.lines + [f"return {f0}, {f1}"]
    return emitter.compiled("def program(c0):\n" + "".join(
        f"    {line}\n" for line in lines))


def pair_outcome(fn, x):
    """The bits of (f, f') at x, or the type and message of the error.  A
    NaN is only NaN: the sign of a product of NaNs depends on whether
    CPython has specialized the multiplication yet."""
    try:
        return [math.isnan(y) or struct.pack("d", y) for y in fn(x)[:2]]
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(n=st.integers(2, jets.INT_EXP_LIMIT), x=FORM_INPUTS)
def test_power_form_matches_its_table(n, x):
    emitter = exprlang._FirstOrderSource()
    emitter.pow_c(("c0", 1.0, 0.0), float(n))  # makes the table and form
    table = emitter._powers[float(n)]
    assert pair_outcome(inline_pair(emitter, table), x) == \
        pair_outcome(table, x)


@pytest.mark.parametrize("table", [
    jets.recip_table, jets.FUNCTION_TABLES["sin"],
    jets.FUNCTION_TABLES["cos"]], ids=["recip", "sin", "cos"])
@settings(max_examples=300)
@given(x=FORM_INPUTS)
def test_function_forms_match_their_tables(table, x):
    run = inline_pair(exprlang._FirstOrderSource(), table)
    assert pair_outcome(run, x) == pair_outcome(table, x)


@pytest.mark.parametrize("name", ["sphere_isothermal", "hyperbolic_disk",
                                  "sphere_metric", "torus_metric"])
def test_right_hand_sides_call_tables_only_where_a_form_raises(
        monkeypatch, name):
    namespaces = []
    compiled = exprlang._FirstOrderSource.compiled

    def capture(self, source):
        namespaces.append((source, self.namespace))
        return compiled(self, source)

    monkeypatch.setattr(exprlang._FirstOrderSource, "compiled", capture)
    geodesics._right_hand_side(
        catalog.build_metric(catalog.lookup(name)))
    ((source, namespace),) = namespaces
    tree = ast.parse(source)
    handled = {id(node) for handler in ast.walk(tree)
               if isinstance(handler, ast.ExceptHandler)
               for node in ast.walk(handler)}
    callees = [namespace[node.func.id] for node in ast.walk(tree)
               if isinstance(node, ast.Call) and id(node) not in handled]
    tables = [f for f in callees if f.__module__ == jets.__name__]
    assert callees and not tables
    assert source.count("except") >= 2


# --- one lowering per object, no tree walk per point -------------------------

@pytest.fixture
def counters(monkeypatch):
    counts = {"lower": 0, "evaluate": 0}
    lower, evaluate = exprlang.lower_jet2, exprlang.evaluate

    def counting_lower(asts, seeds):
        counts["lower"] += 1
        return lower(asts, seeds)

    def counting_evaluate(ast, bindings):
        counts["evaluate"] += 1
        return evaluate(ast, bindings)

    monkeypatch.setattr(exprlang, "lower_jet2", counting_lower)
    monkeypatch.setattr(exprlang, "evaluate", counting_evaluate)
    return counts


def test_metric_field_lowers_once_and_never_walks(counters):
    metric = intrinsic.MetricField.from_expressions(
        "(2/(1+u^2+v^2))^2", "0", "(2/(1+u^2+v^2))^2")
    for i in range(50):
        intrinsic.formula_egregia(metric, 0.01 * i, -0.02 * i)
    assert counters == {"lower": 1, "evaluate": 0}


def test_surfaces_lower_once_and_never_walk(counters):
    graph = surfaces.GraphSurface(parse("x^2 - x*y + sin(y)/3"))
    torus = surfaces.ParametricSurface(parse("(2+cos(p))*cos(q)"),
                                       parse("(2+cos(p))*sin(q)"),
                                       parse("sin(p)"))
    for i in range(50):
        surfaces.principal_curvatures(graph, 0.01 * i, 0.3)
        surfaces.gauss_curvature_parametric(torus, 0.01 * i, 0.3)
    assert counters == {"lower": 2, "evaluate": 0}


def test_curves_lower_once_and_never_walk(counters):
    graph = curves.GraphCurve(parse("x^3 - x + sin(x)/3"))
    ellipse = curves.ParametricCurve(parse("2*cos(t)"), parse("sin(t)"))
    circle = curves.ImplicitCurve(parse("x^2 + y^2 - 4"))
    for i in range(50):
        curves.osculating_circle(graph, 0.5 + 0.01 * i)
        curves.osculating_circle(ellipse, 0.01 * i)
        curves.osculating_circle(circle, (2.0, 0.0) if i % 2 else (0.0, 2.0))
    curves.arc_length(graph, 0.0, 1.0)
    curves.arclength_reparametrize(ellipse, 0.0, 1.0, 5)
    assert counters == {"lower": 3, "evaluate": 0}


ELLIPSOID = catalog.resolve(catalog.lookup("ellipsoid"))


def _ellipsoid_point(p, q):
    """A point of the catalog ellipsoid (a, b, c) = (2, 1.5, 1)."""
    return (2.0 * math.sin(p) * math.cos(q), 1.5 * math.sin(p) * math.sin(q),
            math.cos(p))


def test_implicit_surfaces_lower_once_and_never_walk(counters):
    surface = surfaces.ImplicitSurface(parse(ELLIPSOID["implicit"]))
    for i in range(50):
        point = _ellipsoid_point(0.3 + 0.04 * i, 0.1 * i)
        surfaces.gauss_from_implicit(surface, *point)
    # one lowering per pair of seeded coordinates
    assert counters == {"lower": 3, "evaluate": 0}


def test_cli_metric_run_lowers_once(capsys, counters):
    assert main(["egregia", "--metric", "1,0,exp(2*u)", "--grid", "6x6"]) == 0
    capsys.readouterr()
    assert counters == {"lower": 1, "evaluate": 0}


@pytest.mark.parametrize("argv, first_order", [
    (("egregia", "--metric", "1,0,exp(2*u)", "--grid", "3x3"), False),
    (("flatness", "--metric", "1,0,(1+u)^2.5", "--grid", "3x3"), False),
    # a failing grid falls back to MetricField.at, still order 2
    (("egregia", "--metric", "1,0,log(u)", "--grid", "3x3"), False),
    (("egregia", "--metric", "1,0,exp(2*u)", "--graph", "x^2+y^2",
      "--grid", "2x2"), False),
    (("geodesic", "--metric", "1,0,exp(2*u)", "--start", "0,0,1,1",
      "--length", "0.1", "--step", "0.01"), True),
    (("gaussbonnet", "--catalog", "sphere_metric", "--order", "4"), False),
    (("triangle", "--catalog", "hyperbolic_disk", "--vertices",
      "0,0;0.2,0;0,0.2", "--tol", "1e-5"), True),
])
def test_only_geodesic_commands_lower_first_order_programs(
        capsys, monkeypatch, argv, first_order):
    emitted = []
    original = exprlang.first_order_function

    def counting(asts, *args):
        emitted.append(asts)
        return original(asts, *args)

    monkeypatch.setattr(exprlang, "first_order_function", counting)
    main(list(argv))
    capsys.readouterr()
    assert bool(emitted) == first_order


@pytest.fixture
def embedding_calls(monkeypatch):
    calls = []
    original = surfaces.embedding_jets

    def counting(surface, p, q):
        calls.append((p, q))
        return original(surface, p, q)

    monkeypatch.setattr(surfaces, "embedding_jets", counting)
    return calls


CATENOID = surfaces.ParametricSurface(
    parse("cosh(p)*cos(q)"), parse("cosh(p)*sin(q)"), parse("p"))
HELICOID = surfaces.ParametricSurface(
    parse("sinh(p)*cos(q)"), parse("sinh(p)*sin(q)"), parse("q"))
GRID = intrinsic.grid_points((-0.5, 0.5), (0.0, 1.0), 3, 2)


def test_egregium_check_evaluates_each_embedding_once_per_point(
        embedding_calls):
    report = intrinsic.egregium_check(CATENOID, HELICOID, GRID)
    assert report.passed
    assert len(embedding_calls) == 2 * len(GRID)


def test_egregium_check_refuses_before_any_curvature(monkeypatch,
                                                     embedding_calls):
    curvatures = []
    original = surfaces.second_order_from_jets
    monkeypatch.setattr(surfaces, "second_order_from_jets",
                        lambda *a: curvatures.append(a) or original(*a))
    # equal metrics on the first grid row only; the mismatch comes last
    stretched = surfaces.ParametricSurface(
        parse("cosh(p)*cos(q)"), parse("cosh(p)*sin(q)"),
        parse("p + (p+0.5)^3"))
    with pytest.raises(intrinsic.NotIsometric):
        intrinsic.egregium_check(CATENOID, stretched, GRID)
    assert len(embedding_calls) == 2 * len(GRID)
    assert curvatures == []


# --- library and CLI output with the interpreter patched in as the oracle ---

LIBRARY_RUNS = [
    *[(surfaces.gauss_curvature_implicit,
       (parse(ELLIPSOID["implicit"]), *_ellipsoid_point(p, q)))
      for p, q in ((0.8, 1.3), (0.3, 0.0), (2.0, 4.0), (1.5707963, 0.7))],
    # off the surface: the membership check fails the same way
    (surfaces.gauss_curvature_implicit,
     (parse(ELLIPSOID["implicit"]), 1.0, 1.0, 1.0)),
    *[(intrinsic.curvature_isothermal, (parse(lam), u, v))
      for lam in ("2/(1+u^2+v^2)", "exp(u)*(1+v^2)^0.5", "2/(1-p^2-q^2)")
      for u, v in ((0.0, 0.0), (0.3, -0.2), (0.7, 0.6))],
    (intrinsic.curvature_isothermal, (parse("u"), -1.0, 0.0)),
    *[(intrinsic.curvature_geodesic_polar, (parse(g), p, 0.3))
      for g in ("sin(p)^2", "sinh(p)^2", "p^2") for p in (0.4, 1.1)],
]


@pytest.mark.parametrize("fn, args", LIBRARY_RUNS,
                         ids=lambda value: getattr(value, "__name__", ""))
def test_library_results_equal_interpreted_results(monkeypatch, fn, args):
    def result():
        try:
            return struct.pack("d", fn(*args))
        except Exception as exc:
            return (type(exc), str(exc))

    lowered = result()
    monkeypatch.setattr(exprlang, "lower_jet2", interpreted)
    assert result() == lowered


AB_RUNS = [
    ("egregia", "--metric",
     "(2/(1+u^2+v^2))^2,0.1*u*v,(2/(1+u^2+v^2))^2+u^2", "--grid", "4x4"),
    ("egregia", "--metric", "1,0,log(u)", "--grid", "3x3"),
    ("flatness", "--catalog", "cone_metric", "--grid", "4x4"),
    ("flatness", "--metric", "1,0,(1+u)^2.5", "--grid", "3x3"),
    ("geodesic", "--catalog", "torus_metric", "--start", "0.4,0,0.3,1",
     "--length", "0.5", "--step", "0.01", "--max-rows", "7"),
    ("gaussbonnet", "--catalog", "sphere_metric", "--order", "6"),
    ("triangle", "--catalog", "hyperbolic_disk", "--vertices",
     "0,0;0.2,0;0,0.2", "--tol", "1e-5"),
    ("surface", "--graph", "x^2 - x*y + sin(y)/3", "--grid", "4x3"),
    ("surface", "--parametric", "(2+cos(p))*cos(q)", "(2+cos(p))*sin(q)",
     "sin(p)", "--grid", "3x4", "--format", "json"),
    ("egregia", "--catalog", "catenoid", "--grid", "3x3"),
    ("curve", "--graph", "x^3 - x/3 + 2^x", "--n", "7"),
    ("curve", "--parametric", "2*cos(t)/3", "sin(t)^1.5", "--range",
     "0.1:3", "--n", "6"),
    ("curve", "--implicit", "x^2/4 + y^2 - 1", "--at", "2,0", "--at",
     "0,1", "--at", "1.2,0.8", "--format", "json"),
]


def _run(capsys, argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", AB_RUNS, ids=lambda argv: argv[0])
def test_cli_output_equals_interpreted_output(capsys, monkeypatch, argv):
    lowered = _run(capsys, argv)
    calls = []
    monkeypatch.setattr(exprlang, "lower_jet2",
                        lambda asts, seeds, order=2: calls.append(order)
                        or interpreted(asts, seeds, order))
    monkeypatch.setattr(exprlang, "first_order_function",
                        lambda *args: calls.append("fused")
                        or interpreted_function(*args))
    assert _run(capsys, argv) == lowered
    assert calls
    # geodesics run on first-order programs and on the fused right-hand
    # side, so those are checked too
    assert ("fused" in calls) == (argv[0] in ("geodesic", "triangle"))
    assert lowered[0] in (0, 3)


def interpreted_function(asts, seeds, names, body, params, namespace):
    """`exprlang.first_order_function`'s contract met by the interpreted
    order-1 jets and `body` as written."""
    jets = ", ".join(f"({', '.join(jet)})" for _, jet in zip(asts, names))
    source = (f"def function({', '.join(params)}):\n"
              f"    [{jets}] = interpreted_jets({params[0]}, {params[1]})\n"
              + "".join(f"    {line}\n" for line in body.splitlines()))
    scope = dict(namespace, interpreted_jets=interpreted(asts, seeds, 1))
    exec(source, scope)
    return scope["function"]


# --- parse depth limit -------------------------------------------------------

def _deep_texts(levels):
    """Bracket nesting, function nesting, a left-deep chain, unary minus
    and an exponent tower, each `levels` deep."""
    return [
        "(" * (levels - 1) + "u" + ")" * (levels - 1),
        "sin(" * (levels - 1) + "u" + ")" * (levels - 1),
        "u" + "+v" * (levels - 1),
        "-" * (levels - 1) + "u",
        "u" + "^u" * (levels - 1),
    ]


@pytest.mark.parametrize("index", range(5))
def test_deepest_accepted_expression_evaluates(index):
    ast = parse(_deep_texts(MAX_DEPTH)[index])
    # both evaluators and the printer walk the tree recursively
    assert_same([ast], METRIC_SEEDS, 0.5, 0.25)
    assert_first_order_is_truncation([ast], METRIC_SEEDS, 0.5, 0.25)
    assert exprlang.to_text(ast)


def _balanced_sum(terms):
    """The terms summed as a balanced tree, so that many nodes stay within
    MAX_DEPTH."""
    if len(terms) == 1:
        return terms[0]
    half = len(terms) // 2
    return f"({_balanced_sum(terms[:half])})+({_balanced_sum(terms[half:])})"


def _count_nodes(ast):
    if isinstance(ast, (Constant, Variable)):
        return 1
    if isinstance(ast, Unary):
        return 1 + _count_nodes(ast.child)
    return 1 + _count_nodes(ast.left) + _count_nodes(ast.right)


def test_wide_expression_lowers_at_order_one():
    ast = parse(_balanced_sum([f"{i}*sin(u*{i % 7 + 1})*v^{i % 4}/(2+u^2)"
                               for i in range(100)]))
    assert _count_nodes(ast) > 1000
    for u, v in ((0.5, 0.25), (-1.5, 2.0)):
        assert_first_order_is_truncation([ast], METRIC_SEEDS, u, v)


@pytest.mark.parametrize("index", range(5))
def test_one_level_deeper_is_a_parse_error(index):
    with pytest.raises(ParseError) as err:
        parse(_deep_texts(MAX_DEPTH + 1)[index])
    assert err.value.message == "expression nested too deeply"


@pytest.mark.parametrize("e", [
    "(" * 300 + "u" + ")" * 300 + "+1",
    "1" + "+u" * 3000,
    # neither the brackets (50) nor the chain (60) alone is too deep
    "(" * 50 + "u" + "+u" * 60 + ")" * 50,
])
def test_cli_rejects_deep_expressions(capsys, e):
    code, out, err = _run(capsys, ["egregia", "--metric", f"1,0,{e}"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: expression nested too deeply at offset ")
    assert err.count("\n") == 1
