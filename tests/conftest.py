"""Shared fixtures: the expression corpus, sampling helpers, and the
acceptance summary hook (one pass/fail line per criterion)."""

import math
import random

import pytest
from hypothesis import settings

from egregium import exprlang, jets, surfaces

# property tests draw the same examples on every run and machine; no
# per-example deadline, because a shared VM's timing is not the property
settings.register_profile("egregium", derandomize=True, deadline=None)
settings.load_profile("egregium")

# (expression, sample box per variable); domains keep every elementary
# function well inside its real domain
CORPUS_1V = [
    ("x^2 + 3*x - 1", (-2.0, 2.0)),
    ("x^3 - 2*x^2 + 0.5", (-2.0, 2.0)),
    ("sin(x)*exp(x/2)", (-2.0, 2.0)),
    ("1/(1+x^2)", (-3.0, 3.0)),
    ("sqrt(1+x^2)", (-2.0, 2.0)),
    ("log(2+x)", (-1.5, 4.0)),
    ("tan(x)", (-1.2, 1.2)),
    ("atan(x)*sinh(x)", (-2.0, 2.0)),
    ("cosh(x)*tanh(x)", (-2.0, 2.0)),
    ("exp(-(x^2))", (-2.0, 2.0)),
]

CORPUS_2V = [
    ("x^2*y - y^3/3", ((-2.0, 2.0), (-2.0, 2.0))),
    ("sin(x)*cos(y)", ((-3.0, 3.0), (-3.0, 3.0))),
    ("exp(x*y/4)/(2+x^2+y^2)", ((-1.5, 1.5), (-1.5, 1.5))),
    ("sqrt(x^2+y^2+1)", ((-2.0, 2.0), (-2.0, 2.0))),
    ("log(1+x^2+y^2)", ((-2.0, 2.0), (-2.0, 2.0))),
    ("(1+x^2)^(y/2)", ((-1.5, 1.5), (-1.5, 1.5))),
    ("atan(x*y)", ((-2.0, 2.0), (-2.0, 2.0))),
]

CORPUS_3V = [
    ("x*y*z", ((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0))),
    ("x^2+y^2+z^2", ((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0))),
    ("exp(x/2)*sin(y)+z^2", ((-1.5, 1.5), (-3.0, 3.0), (-2.0, 2.0))),
    ("sqrt(x^2+y^2+z^2+1)", ((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0))),
    ("x*y/(1+z^2)", ((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0))),
]


def rel_err(got, want):
    """Error against a scale-aware reference (near-zero values compare
    absolutely)."""
    return abs(got - want) / max(1.0, abs(want))


def sample(rng, box):
    lo, hi = box
    return lo + (hi - lo) * rng.random()


def eval_floats(text, **values):
    return exprlang.evaluate(exprlang.parse(text), values)


def jet_eval_1(text, x):
    """(v, d1, d2) of an expression in x, lowered along one coordinate."""
    (slots,) = exprlang.lower_jet2([exprlang.parse(text)], {"x": 0})(x)
    return slots[0], slots[1], slots[3]


def jet_eval_2(text, x, y):
    """The lowered 2-jet of an expression in x, y."""
    (slots,) = exprlang.lower_jet2([exprlang.parse(text)],
                                   {"x": 0, "y": 1})(x, y)
    return jets.JetSlots._make(slots)


def jet_eval_3(text, x, y, z):
    """(v, dx, dy, dz, dxx, dxy, dxz, dyy, dyz, dzz) of an expression in
    x, y, z, from the three lowered passes of an implicit surface."""
    surface = surfaces.ImplicitSurface(exprlang.parse(text))
    return surfaces.implicit_partials(surface, x, y, z)


@pytest.fixture
def rng():
    return random.Random(20260809)


_ACCEPT_PREFIX = "tests/test_acceptance.py"


def pytest_terminal_summary(terminalreporter):
    reports = []
    for outcome in ("passed", "failed", "error"):
        reports.extend(terminalreporter.stats.get(outcome, []))
    lines = []
    for rep in reports:
        if getattr(rep, "when", "call") != "call":
            continue
        nodeid = rep.nodeid
        if "test_acceptance" not in nodeid:
            continue
        name = nodeid.split("::")[-1]
        verdict = "PASS" if rep.passed else "FAIL"
        lines.append((name, verdict))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, verdict in sorted(lines):
            terminalreporter.write_line(f"{verdict}  {name}")
