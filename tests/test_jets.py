"""Jet arithmetic, through the lowered programs, against analytic values
and the finite-difference oracle."""

import math
import struct

import numpy as np
import pytest

from egregium import exprlang, jets
from egregium.errors import DivisionByZero, DomainError
from egregium.exprlang import Binary, Constant, Variable

import oracle
from conftest import (CORPUS_1V, CORPUS_2V, CORPUS_3V, eval_floats,
                      jet_eval_1, jet_eval_2, jet_eval_3, rel_err, sample)


class TestSeedVariable:
    """Coordinate 0 is seeded along u, coordinate 1 along v, and a later
    coordinate is held with zero derivatives."""

    def test_univariate(self):
        assert jet_eval_1("x", 3.0) == (3.0, 1.0, 0.0)

    def test_bivariate(self):
        x, y = exprlang.lower_jet2([Variable("x"), Variable("y")],
                                   {"x": 0, "y": 1})(0.0, 2.0)
        assert x == (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        assert y == (2.0, 0.0, 1.0, 0.0, 0.0, 0.0)

    def test_trivariate(self):
        (held,) = exprlang.lower_jet2([Variable("z")],
                                      {"x": 0, "y": 1, "z": 2})(0.5, 1.0, -1.0)
        assert held == (-1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        # the three passes together seed z once as a coordinate
        assert jet_eval_3("z", 0.5, 1.0, -1.0) == (
            (-1.0, 0.0, 0.0, 1.0) + (0.0,) * 6)


def _quadratic_1(a, b, c):
    """a + b x + c x x as a tree with constants that stay floats."""
    x = Variable("x")
    return Binary("+", Binary("+", Constant(a), Binary("*", Constant(b), x)),
                  Binary("*", Binary("*", Constant(c), x), x))


class TestArithmetic:
    def test_product_rule_bivariate(self):
        p = jet_eval_2("x*y", 2.0, 3.0)
        assert (p.v, p.du, p.dv) == (6.0, 3.0, 2.0)
        assert (p.duu, p.duv, p.dvv) == (0.0, 1.0, 0.0)

    def test_square(self):
        assert jet_eval_1("x^2", 5.0) == (25.0, 10.0, 2.0)

    def test_reciprocal(self):
        assert jet_eval_1("1/x", 2.0) == (0.5, -0.25, 0.25)

    def test_division_by_zero_jet(self):
        with pytest.raises(DivisionByZero):
            jet_eval_1("1/x", 0.0)

    def test_division_by_zero_constant(self):
        with pytest.raises(DivisionByZero):
            jet_eval_1("x/0", 1.0)

    def test_fractional_power_needs_positive_base(self):
        with pytest.raises(DomainError):
            jet_eval_1("x^0.5", -1.0)

    def test_negative_integer_power(self):
        assert jet_eval_1("x^-1", 2.0) == (0.5, -0.25, 0.25)

    def test_repr_lists_every_slot(self):
        assert repr(oracle.Jet2_2.variable_v(0.5)) == (
            "Jet2_2(v=0.5, du=0.0, dv=1.0, duu=0.0, duv=0.0, dvv=0.0)")
        assert repr(oracle.Jet2_2(-1.0)) == (
            "Jet2_2(v=-1.0, du=0.0, dv=0.0, duu=0.0, duv=0.0, dvv=0.0)")

    def test_polynomial_exactness_4ulp(self, rng):
        # degree <= 2 polynomials propagate exactly, up to 4 ulp
        for _ in range(200):
            a, b, c = (rng.uniform(-4, 4) for _ in range(3))
            x0 = rng.uniform(-3, 3)
            (p,) = exprlang.lower_jet2([_quadratic_1(a, b, c)], {"x": 0})(x0)
            for got, want in ((p[0], a + b * x0 + c * x0 * x0),
                              (p[1], b + 2.0 * c * x0),
                              (p[3], 2.0 * c)):
                assert abs(got - want) <= 4.0 * math.ulp(max(abs(want), 1.0))

    def test_bivariate_quadratic_exactness(self, rng):
        def term(c, *names):
            node = Constant(c)
            for name in names:
                node = Binary("*", node, Variable(name))
            return node

        for _ in range(100):
            coeffs = [rng.uniform(-3, 3) for _ in range(6)]
            a0, a1, a2, a11, a12, a22 = coeffs
            u0, v0 = rng.uniform(-2, 2), rng.uniform(-2, 2)
            tree = Constant(a0)
            for node in (term(a1, "u"), term(a2, "v"), term(a11, "u", "u"),
                         term(a12, "u", "v"), term(a22, "v", "v")):
                tree = Binary("+", tree, node)
            (slots,) = exprlang.lower_jet2([tree], {"u": 0, "v": 1})(u0, v0)
            p = jets.JetSlots._make(slots)
            ulps = lambda w: 4.0 * math.ulp(max(abs(w), 1.0))
            assert abs(p.du - (a1 + 2 * a11 * u0 + a12 * v0)) <= ulps(p.du)
            assert abs(p.dv - (a2 + a12 * u0 + 2 * a22 * v0)) <= ulps(p.dv)
            assert abs(p.duu - 2 * a11) <= ulps(p.duu)
            assert abs(p.duv - a12) <= ulps(p.duv)
            assert abs(p.dvv - 2 * a22) <= ulps(p.dvv)


class TestElementaryFunctions:
    def test_sin_at_zero(self):
        assert jet_eval_1("sin(x)", 0.0) == (0.0, 1.0, 0.0)

    def test_exp_at_zero(self):
        assert jet_eval_1("exp(x)", 0.0) == (1.0, 1.0, 1.0)

    def test_log_at_one(self):
        assert jet_eval_1("log(x)", 1.0) == (0.0, 1.0, -1.0)

    def test_sqrt_at_zero_is_domain_error(self):
        with pytest.raises(DomainError):
            jet_eval_1("sqrt(x)", 0.0)

    def test_log_of_negative_is_domain_error(self):
        with pytest.raises(DomainError):
            jet_eval_1("log(x)", -2.0)

    def test_plain_float_passthrough(self):
        assert jets.apply_function("sin", math.pi / 2) == pytest.approx(1.0)
        assert jets.apply_function("sqrt", 4.0) == 2.0

    @pytest.mark.parametrize("v", [5e-321, 1e-300, 1e-217])
    def test_sqrt_with_underflowing_second_derivative_is_domain_error(
            self, v):
        # v * sqrt(v) underflows to 0 below about 2e-216; -0.25 / 0 used
        # to escape as a bare ZeroDivisionError
        with pytest.raises(DomainError,
                           match="sqrt second derivative overflows"):
            jet_eval_1("sqrt(x)", v)

    @pytest.mark.parametrize("v", [3e-216, 1e-210, 1e-5, 0.5, 2.0, 3.0,
                                   1e300])
    def test_sqrt_table_keeps_its_formula(self, v):
        s = math.sqrt(v)
        want = (s, 0.5 / s, -0.25 / (v * s))
        assert jets.FUNCTION_TABLES["sqrt"](v) == want


def bits(values):
    return [struct.pack("d", x) for x in values]


class TestTabulate:
    """Tables over float64 arrays run the scalar code at each element."""

    @pytest.mark.parametrize("name", sorted(jets.FUNCTION_TABLES))
    def test_elements_have_the_bits_of_scalar_calls(self, name):
        values = [0.25, 0.5, 1.0, 1.5, 2.0, 0.1 + 0.2, 1e-3, 1.3]
        table = jets.FUNCTION_TABLES[name]
        columns = jets.tabulate(table, np.array(values))
        for i, v in enumerate(values):
            assert bits(column[i] for column in columns) == bits(table(v))

    def test_first_failing_element_raises(self):
        with pytest.raises(DomainError,
                           match="log of non-positive value -2.0"):
            jets.tabulate(jets.FUNCTION_TABLES["log"],
                          np.array([1.0, -2.0, -3.0]))

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match="exp overflows"):
            jets.tabulate(jets.FUNCTION_TABLES["exp"], np.array([1.0, 1000.0]))

    def test_reciprocal_of_a_zero_element(self):
        with pytest.raises(DivisionByZero):
            jets.tabulate(jets.recip_table, np.array([2.0, 0.0, 4.0]))

    @pytest.mark.parametrize("e", [2.0, 3.0, 7.0, -2.0, -5.0, 2.5, -0.5])
    def test_power_elements_have_scalar_bits(self, e):
        values = [0.3, 1.7, 2.0, 1e-3, 9.5]
        columns = jets.tabulate(jets.power_table(e), np.array(values))
        for i, v in enumerate(values):
            assert bits(column[i] for column in columns) == \
                bits(jets.power_table(e)(v))


class TestFdOracle:
    def test_square_second_derivative(self):
        _, _, d2 = oracle.fd_oracle(lambda x: x * x, 1.0, 1e-4)
        assert abs(d2 - 2.0) <= 1e-6

    def test_sin_first_derivative(self):
        _, d1, _ = oracle.fd_oracle(math.sin, 0.0, 1e-5)
        assert abs(d1 - 1.0) <= 1e-9

    def test_constant_function(self):
        fd = oracle.fd_oracle(lambda x, y: 7.5, (0.3, -0.2), 1e-4)
        for slot in (fd.du, fd.dv, fd.duu, fd.duv, fd.dvv):
            assert abs(slot) <= 1e-9


def _check_against_fd(jet, fd, firsts, seconds):
    """Slots at the indices `firsts` within 1e-7, `seconds` within 1e-4."""
    for i in firsts:
        assert rel_err(jet[i], fd[i]) <= 1e-7, i
    for i in seconds:
        assert rel_err(jet[i], fd[i]) <= 1e-4, i


class TestCorpusAgainstOracle:
    @pytest.mark.parametrize("text,box", CORPUS_1V)
    def test_univariate(self, text, box, rng):
        for _ in range(20):
            x = sample(rng, box)
            jet = jet_eval_1(text, x)
            fd = oracle.fd_oracle(lambda t: eval_floats(text, x=t), x, 1e-4)
            _check_against_fd(jet, fd, (1,), (2,))

    @pytest.mark.parametrize("text,boxes", CORPUS_2V)
    def test_bivariate(self, text, boxes, rng):
        for _ in range(20):
            x, y = sample(rng, boxes[0]), sample(rng, boxes[1])
            jet = jet_eval_2(text, x, y)
            fd = oracle.fd_oracle(lambda a, b: eval_floats(text, x=a, y=b),
                                  (x, y), 1e-4)
            _check_against_fd(jet, fd, (1, 2), (3, 4, 5))

    @pytest.mark.parametrize("text,boxes", CORPUS_3V)
    def test_trivariate(self, text, boxes, rng):
        for _ in range(20):
            x, y, z = (sample(rng, b) for b in boxes)
            jet = jet_eval_3(text, x, y, z)
            fd = oracle.fd_oracle(
                lambda a, b, c: eval_floats(text, x=a, y=b, z=c),
                (x, y, z), 1e-4)
            _check_against_fd(jet, fd, (1, 2, 3), range(4, 10))
