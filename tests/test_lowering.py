"""Lowered bivariate evaluation (`exprlang.lower_jet2`) against the
tree-walking interpreter, which stays the oracle: bit-identical slots or the
same exception, one lowering per metric or surface, and byte-identical CLI
output with the interpreter patched in.  Also the parse depth limit that
keeps every recursive walk inside Python's recursion limit."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egregium import exprlang, intrinsic, jets, surfaces
from egregium.cli import main
from egregium.exprlang import (MAX_DEPTH, Binary, Constant, ParseError, Unary,
                               Variable, parse)

from conftest import CORPUS_2V

METRIC_SEEDS = {"u": "u", "v": "v", "p": "u", "q": "v"}


def interpreted(asts, seeds):
    """`lower_jet2`'s contract met by walking the trees at every call, and
    over arrays at every point."""
    def at(u, v):
        U, V = jets.Jet2_2.variable_u(u), jets.Jet2_2.variable_v(v)
        bindings = {name: U if d == "u" else V for name, d in seeds.items()}
        return [jets.coerce(exprlang.evaluate(ast, bindings), jets.Jet2_2).slots
                for ast in asts]

    def run(u, v):
        if not isinstance(u, np.ndarray):
            return at(u, v)
        points = [at(a, b) for a, b in zip(u.tolist(), v.tolist())]
        return [tuple(np.array(slot) for slot in zip(*(pt[k] for pt in points)))
                for k in range(len(asts))]
    return run


def outcome(fn, u, v):
    """Slot bit patterns, or the exception class and message."""
    try:
        return [tuple(struct.pack("d", s) for s in slots) for slots in fn(u, v)]
    except Exception as exc:
        return (type(exc), str(exc))


def assert_same(asts, seeds, u, v):
    want = outcome(interpreted(asts, seeds), u, v)
    got = outcome(exprlang.lower_jet2(asts, seeds), u, v)
    assert got == want


# --- property tests --------------------------------------------------------

@pytest.mark.parametrize("text, box", CORPUS_2V)
@given(fu=st.floats(0.0, 1.0), fv=st.floats(0.0, 1.0))
def test_corpus_matches_interpreter_bitwise(text, box, fu, fv):
    (u0, u1), (v0, v1) = box
    assert_same([parse(text)], {"x": "u", "y": "v"},
                u0 + (u1 - u0) * fu, v0 + (v1 - v0) * fv)


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
def test_random_tree_lists_match_interpreter(trees, u, v):
    # the first tree to raise decides, even when a later one equals it
    assert_same(trees + trees[:1], METRIC_SEEDS, u, v)


@pytest.mark.parametrize("text, u, v, error", [
    ("u/0", 1.0, 0.5, "division by zero"),
    # operands are evaluated before the operation that fails
    ("log(u-2)/0", 1.0, 0.5, "log of non-positive value -1.0"),
    ("log(u-2)^0", 1.0, 0.5, "log of non-positive value -1.0"),
    ("(0-2)^log(u-2)", 1.0, 0.5, "log of non-positive value -1.0"),
    ("log(u-2)^log(v-2)", 1.0, 0.5, "log of non-positive value -1.0"),
    ("0/log(u-2)", 1.0, 0.5, "log of non-positive value -1.0"),
    ("u/(1-1)", 1.0, 0.5, "division by zero"),
    # a constant that raises when folded raises in evaluation order
    ("log(u-2) + 1/0", 1.0, 0.5, "log of non-positive value -1.0"),
    ("1/0 + log(u-2)", 1.0, 0.5, "division by zero"),
    ("sqrt(0-1) * u", 1.0, 0.5, "sqrt of non-positive value -1.0"),
    ("sin(1e308*10)+u", 1.0, 0.5, "math domain error"),
    ("u^-2", 0.0, 0.5, "negative power of jet with zero value"),
    ("u^2.5", -1.0, 0.5, "fractional power of non-positive base -1.0"),
    ("u^65", -1.0, 0.5, "fractional power of non-positive base -1.0"),
    ("(u+10)^64", 1e300, 0.5, "power 1e+300**64.0 overflows"),
    ("(0-2)^u", 1.0, 0.5, "power with non-positive base -2.0"),
    ("u^v", 0.0, 0.5, "jet power with non-positive base 0.0"),
    ("2^u", 2000.0, 0.5, "exp overflows at this argument"),
    ("2/(u-u)", 1.0, 0.5, "jet divided by jet with zero value"),
    ("x + u", 1.0, 0.5, "unbound variable 'x'"),
])
def test_errors_match_interpreter(text, u, v, error):
    assert_same([parse(text)], METRIC_SEEDS, u, v)
    with pytest.raises(Exception) as err:
        exprlang.lower_jet2([parse(text)], METRIC_SEEDS)(u, v)
    assert str(err.value) == error


def test_equal_trees_are_lowered_once(monkeypatch):
    lowered = []
    original = exprlang._lower

    def counting(ast, seeds):
        lowered.append(ast)
        return original(ast, seeds)

    monkeypatch.setattr(exprlang, "_lower", counting)
    e = parse("(2/(1-u^2-v^2))^2")
    run = exprlang.lower_jet2((e, parse("0"), parse("(2/(1-u^2-v^2))^2")),
                              METRIC_SEEDS)
    # the trees are lowered at the first call
    ej, fj, gj = run(0.3, 0.2)
    run(0.5, 0.1)
    roots = [ast for ast in lowered if ast in (e, Constant(0.0))]
    assert len(roots) == 2
    assert ej == gj and fj == (0.0,) * 6


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


def test_cli_metric_run_lowers_once(capsys, counters):
    assert main(["egregia", "--metric", "1,0,exp(2*u)", "--grid", "6x6"]) == 0
    capsys.readouterr()
    assert counters == {"lower": 1, "evaluate": 0}


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


# --- CLI output with the interpreter patched in as the oracle ---------------

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
                        lambda asts, seeds: calls.append(1)
                        or interpreted(asts, seeds))
    assert _run(capsys, argv) == lowered
    assert calls
    assert lowered[0] in (0, 3)


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
    assert exprlang.to_text(ast)


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
