"""The CLI contract under drawn argv.

Every subcommand runs on flags, numbers and expression text drawn by
hypothesis: expressions are random grammar trees printed by
`exprlang.to_text`, or malformed text, and numbers reach nan, +-inf, 1e308,
0 and negatives.  Whatever the argv, `main` returns 0, 2 or 3 without
raising, no traceback reaches stderr, an error writes nothing to stdout,
and exit 0 prints no inf or nan.  `--output` is drawn too: absent, a file,
which must then hold the bytes the run prints to stdout without it, or a
path that cannot be opened, which is bad input.  Sizes stay small (grids
up to 4x4, --n up to 9, --order up to 8, geodesics of at most 200 steps),
except for drawn over-budget sizes, which must be refused as bad input
before any work starts.
"""

import contextlib
import io
import math
import os
import re
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from egregium import catalog, cli, exprlang
from egregium.cli import main
from egregium.exprlang import Binary, Constant, Unary, Variable

FUZZ = settings(suppress_health_check=[HealthCheck.too_slow])

# literals of the expression grammar: non-negative, up to 1e999 (inf)
LITERALS = st.one_of(st.floats(0.0, 4.0), st.sampled_from(
    (0.0, 1.0, 2.0, 0.5, 1e308, 1e-320, math.inf)))
VARIABLES = sorted(exprlang.VARIABLE_NAMES)
OPERATORS = ("neg", *sorted(exprlang.FUNCTION_NAMES))
GARBAGE = st.text(alphabet="xyuvt+-*/^().,e019 sinlog", max_size=10)

# a non-finite spelling in CSV or JSON output
NONFINITE = re.compile(r"\b(inf|nan|Infinity|NaN)\b")

CURVES = sorted(n for n, e in catalog.ENTRIES.items() if e.kind == "curve")
SURFACES = sorted(n for n, e in catalog.ENTRIES.items()
                  if e.kind == "surface")
METRICS = sorted(n for n, e in catalog.ENTRIES.items() if e.kind == "metric")


@st.composite
def mostly(draw, good, bad):
    """Draws from `good` four times in five, else from `bad` (`one_of`
    would draw from each of its distinct strategies equally often)."""
    return draw(bad if draw(st.integers(0, 4)) == 4 else good)


# mostly moderate values, then the edges of the float range and negatives
# in exponent form, which argparse would read as flags
SPECIAL = (0.0, -0.0, 1e308, -1e308, 1e-320, 5e-324, 1e16, math.inf,
           -math.inf, math.nan, -1e-05, -2.5e-07, -1e+16)
NUMBERS = mostly(st.floats(-3.0, 3.0), st.one_of(
    st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True)))


def number(value):
    return repr(float(value))


def _trees(variables):
    """Text of a random grammar tree over `variables`."""
    leaves = st.one_of(st.builds(Constant, LITERALS),
                       st.builds(Variable, st.sampled_from(variables)))
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(Unary, st.sampled_from(OPERATORS), children),
            st.builds(Binary, st.sampled_from("+-*/^"), children,
                      children)),
        max_leaves=5).map(exprlang.to_text)


def _expressions(variables):
    """Text of a random grammar tree over `variables`, or over any
    variable, or malformed text."""
    return mostly(_trees(variables), st.one_of(_trees(VARIABLES), GARBAGE))


EXPRESSIONS = {names: _expressions(names)
               for names in ("x", "t", "xy", "pq", "uv")}


def optional(tokens):
    """The argv tokens drawn from `tokens`, or none."""
    return st.one_of(st.just([]), tokens)


def flag(name, values):
    """`--name=value`, or `--name value` as two tokens."""
    return st.tuples(values, st.booleans()).map(
        lambda drawn: [f"--{name}={drawn[0]}"] if drawn[1]
        else [f"--{name}", str(drawn[0])])


RANGE = mostly(st.tuples(NUMBERS, NUMBERS).map(sorted),
               st.tuples(NUMBERS, NUMBERS)).map(
    lambda p: f"{number(p[0])}:{number(p[1])}")


def point(count):
    return st.lists(NUMBERS, min_size=count, max_size=count).map(
        lambda xs: ",".join(map(number, xs)))


PARAMS = st.lists(st.sampled_from(cli._PARAM_FLAGS).flatmap(
    lambda name: flag(name, NUMBERS.map(number))), max_size=2).map(
    lambda flags: [token for tokens in flags for token in tokens])
FORMAT = st.sampled_from(([], ["--format=json"], ["--format=csv"]))
# where --output points: no flag, a file in a temporary directory, that
# directory itself, or a path under a directory that does not exist
OUTPUT = st.sampled_from((None, "file", "directory", "missing"))


def over_budget(draw, small, huge):
    """(value, True) drawn from `huge` one time in eight, else
    (value, False) from `small`."""
    if draw(st.integers(0, 7)) == 7:
        return draw(huge), True
    return draw(small), False


def sizes(lo, hi):
    """Sizes from lo to hi, and now and then -1 to lo - 1."""
    return mostly(st.integers(lo, hi), st.integers(-1, lo - 1))


TOLERANCE = mostly(st.floats(1e-10, 1e-4), NUMBERS).map(number)


@st.composite
def surface_input(draw, metric):
    """Tokens naming a surface, or with `metric` also a metric."""
    kinds = ["catalog", "graph", "parametric"]
    if metric:
        kinds += ["metric", "positive metric"]
    kind = draw(st.sampled_from(kinds))
    if kind == "catalog":
        names = SURFACES + (METRICS * 2 if metric else []) + ["nosuch"]
        return [f"--catalog={draw(st.sampled_from(names))}"] + draw(PARAMS)
    if kind == "graph":
        return [f"--graph={draw(EXPRESSIONS['xy'])}"]
    if kind == "parametric":
        return ["--parametric"] + [draw(EXPRESSIONS["pq"]) for _ in range(3)]
    parts = [draw(EXPRESSIONS["uv"]) for _ in range(3)]
    if kind == "positive metric":
        # positive definite wherever it evaluates
        parts = [f"exp({parts[0]})", "0", f"exp({parts[2]})"]
    tokens = [f"--metric={','.join(parts)}"]
    if draw(st.booleans()):
        tokens.append(f"--graph={draw(EXPRESSIONS['xy'])}")
    return tokens


@st.composite
def curve_argv(draw):
    kind = draw(st.sampled_from(["catalog", "graph", "parametric",
                                 "implicit"]))
    if kind == "catalog":
        names = CURVES + SURFACES[:1] + ["nosuch"]
        tokens = [f"--catalog={draw(st.sampled_from(names))}"] + draw(PARAMS)
    elif kind == "graph":
        tokens = [f"--graph={draw(EXPRESSIONS['x'])}"]
    elif kind == "parametric":
        tokens = ["--parametric"] + [draw(EXPRESSIONS["t"])
                                     for _ in range(2)]
    else:
        tokens = [f"--implicit={draw(EXPRESSIONS['xy'])}"]
        tokens += [f"--at={draw(point(2))}"
                   for _ in range(draw(st.integers(0, 2)))]
    n, refused = over_budget(draw, sizes(1, 9),
                             st.integers(10**6 + 1, 10**12))
    tokens.append(f"--n={n}")
    tokens += draw(optional(flag("range", RANGE)))
    # --implicit reads its points from --at and ignores --n
    return ["curve"] + tokens, refused and kind != "implicit"


@st.composite
def grid_argv(draw):
    command = draw(st.sampled_from(["surface", "egregia", "flatness"]))
    tokens = draw(surface_input(metric=command != "surface"))
    (nu, nv), refused = over_budget(
        draw, st.tuples(sizes(2, 4), sizes(2, 4)),
        st.tuples(st.integers(1001, 10**6), st.integers(1001, 10**6)))
    tokens.append(f"--grid={nu}x{nv}")
    tokens += draw(optional(flag("urange", RANGE)))
    tokens += draw(optional(flag("vrange", RANGE)))
    if command == "flatness":
        tokens += draw(optional(flag("tol", TOLERANCE)))
    return [command] + tokens, refused


@st.composite
def gaussbonnet_argv(draw):
    tokens = draw(surface_input(metric=True))
    order, refused = over_budget(draw, sizes(1, 8),
                                 st.integers(1001, 10**9))
    tokens.append(f"--order={order}")
    tokens += draw(optional(flag("urange", RANGE)))
    tokens += draw(optional(flag("vrange", RANGE)))
    tokens += draw(optional(flag("pole-cutoff", mostly(
        st.floats(0.0, 0.1), NUMBERS).map(number))))
    return ["gaussbonnet"] + tokens, refused


@st.composite
def geodesic_argv(draw):
    tokens = draw(surface_input(metric=True))
    tokens.append(f"--start={draw(point(4))}")
    step = draw(st.floats(1e-3, 0.1))
    length, refused = step * draw(st.integers(-200, 200)), False
    kind = draw(st.integers(0, 7))
    if kind == 7:
        # past the step budget
        length, refused = step * draw(st.integers(2 * 10**6, 10**12)), True
    elif kind == 6:
        length = draw(st.sampled_from((math.nan, math.inf, -math.inf,
                                       -2.5e-05)))
    elif kind == 5:
        step = draw(st.sampled_from((math.nan, math.inf, 0.0, -0.01,
                                     -1e-05)))
    tokens += draw(flag("length", st.just(number(length))))
    tokens += draw(flag("step", st.just(number(step))))
    tokens += draw(optional(flag("max-rows", sizes(1, 300))))
    return ["geodesic"] + tokens, refused


@st.composite
def triangle_argv(draw):
    tokens = draw(surface_input(metric=True))
    # vertices within 0.004 of the first keep each shot short
    base = draw(st.tuples(NUMBERS, NUMBERS))
    offsets = draw(st.lists(st.floats(-0.004, 0.004), min_size=4,
                            max_size=4))
    vertices = [base, (base[0] + offsets[0], base[1] + offsets[1]),
                (base[0] + offsets[2], base[1] + offsets[3])]
    tokens.append("--vertices=" + ";".join(
        f"{number(u)},{number(v)}" for u, v in vertices))
    tokens += draw(optional(flag("tol", TOLERANCE)))
    return ["triangle"] + tokens, False


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def check_contract(argv, refused, output=None):
    """The contract on `argv`, run with --output drawn as `output`; with a
    file, the run without --output gives the bytes it must hold."""
    if output in (None, "file"):
        code, out, err = run(argv)
        check_outcome(argv, refused, code, out, err)
    if output is None:
        return
    with tempfile.TemporaryDirectory() as tmp:
        target = {"file": os.path.join(tmp, "rows"), "directory": tmp,
                  "missing": os.path.join(tmp, "missing", "rows")}[output]
        got = run([*argv, "--output", target])
        if output != "file":
            check_outcome(argv, refused, *got)
            assert got[0] != 0, (argv, target)
        elif code == 0:
            assert got == (0, "", ""), (argv, got)
            with open(target, "rb") as handle:
                assert handle.read() == out.encode("utf-8"), argv
        else:
            assert got == (code, out, err), (argv, got)
            assert not os.path.exists(target), argv


def check_outcome(argv, refused, code, out, err):
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    # every drawn value reaches its flag, whatever its spelling
    assert "expected one argument" not in err, (argv, err)
    if code == 0:
        assert not NONFINITE.search(out) and err == "", (argv, out, err)
    else:
        assert out == "" and err.count("\n") == 1, (argv, out, err)
    if refused:
        assert code == 2, (argv, code, err)


@settings(FUZZ, max_examples=200)
@given(curve_argv(), FORMAT, OUTPUT)
def test_curve_keeps_the_contract(drawn, fmt, output):
    check_contract(drawn[0] + fmt, drawn[1], output)


@settings(FUZZ, max_examples=250)
@given(st.one_of(grid_argv(), st.just((["catalog"], False))), FORMAT, OUTPUT)
def test_grid_commands_keep_the_contract(drawn, fmt, output):
    check_contract(drawn[0] + fmt, drawn[1], output)


@settings(FUZZ, max_examples=150)
@given(gaussbonnet_argv(), FORMAT, OUTPUT)
def test_gaussbonnet_keeps_the_contract(drawn, fmt, output):
    check_contract(drawn[0] + fmt, drawn[1], output)


@settings(FUZZ, max_examples=200)
@given(geodesic_argv(), FORMAT, OUTPUT)
def test_geodesic_keeps_the_contract(drawn, fmt, output):
    check_contract(drawn[0] + fmt, drawn[1], output)


@settings(FUZZ, max_examples=60)
@given(triangle_argv(), FORMAT, OUTPUT)
def test_triangle_keeps_the_contract(drawn, fmt, output):
    check_contract(drawn[0] + fmt, drawn[1], output)
