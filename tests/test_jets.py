"""Jet arithmetic against analytic values and the finite-difference oracle."""

import math
import struct

import numpy as np
import pytest

from egregium import jets
from egregium.errors import DivisionByZero, DomainError

from conftest import (CORPUS_1V, CORPUS_2V, CORPUS_3V, eval_floats,
                      jet_eval_1, jet_eval_2, jet_eval_3, rel_err, sample)


class TestSeedVariable:
    def test_univariate(self):
        j = jets.seed_variable(0, 3.0, 1)
        assert (j.v, j.d1, j.d2) == (3.0, 1.0, 0.0)

    def test_bivariate(self):
        j = jets.seed_variable(0, 0.0, 2)
        assert (j.v, j.du, j.dv) == (0.0, 1.0, 0.0)
        assert (j.duu, j.duv, j.dvv) == (0.0, 0.0, 0.0)

    def test_trivariate(self):
        j = jets.seed_variable(2, -1.0, 3)
        assert j.v == -1.0 and j.dz == 1.0
        assert (j.dx, j.dy) == (0.0, 0.0)
        assert all(s == 0.0 for s in
                   (j.dxx, j.dxy, j.dxz, j.dyy, j.dyz, j.dzz))

    @pytest.mark.parametrize("index,arity", [(1, 1), (2, 2), (3, 3), (-1, 2)])
    def test_index_out_of_range(self, index, arity):
        with pytest.raises(IndexError):
            jets.seed_variable(index, 0.0, arity)


class TestArithmetic:
    def test_product_rule_bivariate(self):
        x = jets.Jet2_2.variable_u(2.0)
        y = jets.Jet2_2.variable_v(3.0)
        p = x * y
        assert (p.v, p.du, p.dv) == (6.0, 3.0, 2.0)
        assert (p.duu, p.duv, p.dvv) == (0.0, 1.0, 0.0)

    def test_square(self):
        x = jets.Jet2_1.variable(5.0)
        s = x ** 2
        assert (s.v, s.d1, s.d2) == (25.0, 10.0, 2.0)

    def test_reciprocal(self):
        x = jets.Jet2_1.variable(2.0)
        r = 1.0 / x
        assert (r.v, r.d1, r.d2) == (0.5, -0.25, 0.25)

    def test_division_by_zero_jet(self):
        with pytest.raises(DivisionByZero):
            jets.Jet2_1.constant(1.0) / jets.Jet2_1.variable(0.0)

    def test_division_by_zero_constant(self):
        with pytest.raises(DivisionByZero):
            jets.Jet2_1.variable(1.0) / 0.0

    def test_fractional_power_needs_positive_base(self):
        with pytest.raises(DomainError):
            jets.Jet2_1.variable(-1.0) ** 0.5

    def test_negative_integer_power(self):
        x = jets.Jet2_1.variable(2.0)
        r = x ** -1
        assert (r.v, r.d1, r.d2) == (0.5, -0.25, 0.25)

    def test_mixed_shapes_rejected(self):
        with pytest.raises(TypeError):
            jets.Jet2_1.variable(1.0) + jets.Jet2_2.variable_u(1.0)

    def test_mixed_shapes_rejected_by_division_and_power(self):
        u = jets.Jet2_2.variable_u(2.0)
        for other in (jets.Jet2_1.variable(1.0), jets.Jet2_3.variable_x(1.0)):
            with pytest.raises(TypeError):
                u / other
            with pytest.raises(TypeError):
                other / u
            with pytest.raises(TypeError):
                u ** other

    def test_repr_lists_every_slot(self):
        assert repr(jets.Jet2_1(1.0, 2.0, 3.0)) == "Jet2_1(v=1.0, d1=2.0, d2=3.0)"
        assert repr(jets.Jet2_2.variable_v(0.5)) == (
            "Jet2_2(v=0.5, du=0.0, dv=1.0, duu=0.0, duv=0.0, dvv=0.0)")
        assert repr(jets.Jet2_3.constant(-1.0)) == (
            "Jet2_3(v=-1.0, dx=0.0, dy=0.0, dz=0.0, dxx=0.0, dxy=0.0, "
            "dxz=0.0, dyy=0.0, dyz=0.0, dzz=0.0)")

    def test_polynomial_exactness_4ulp(self, rng):
        # degree <= 2 polynomials propagate exactly, up to 4 ulp
        for _ in range(200):
            a, b, c = (rng.uniform(-4, 4) for _ in range(3))
            x0 = rng.uniform(-3, 3)
            x = jets.Jet2_1.variable(x0)
            p = a + b * x + c * x * x
            for got, want in ((p.v, a + b * x0 + c * x0 * x0),
                              (p.d1, b + 2.0 * c * x0),
                              (p.d2, 2.0 * c)):
                assert abs(got - want) <= 4.0 * math.ulp(max(abs(want), 1.0))

    def test_bivariate_quadratic_exactness(self, rng):
        for _ in range(100):
            coeffs = [rng.uniform(-3, 3) for _ in range(6)]
            a0, a1, a2, a11, a12, a22 = coeffs
            u0, v0 = rng.uniform(-2, 2), rng.uniform(-2, 2)
            u = jets.Jet2_2.variable_u(u0)
            v = jets.Jet2_2.variable_v(v0)
            p = a0 + a1 * u + a2 * v + a11 * u * u + a12 * u * v + a22 * v * v
            ulps = lambda w: 4.0 * math.ulp(max(abs(w), 1.0))
            assert abs(p.du - (a1 + 2 * a11 * u0 + a12 * v0)) <= ulps(p.du)
            assert abs(p.dv - (a2 + a12 * u0 + 2 * a22 * v0)) <= ulps(p.dv)
            assert abs(p.duu - 2 * a11) <= ulps(p.duu)
            assert abs(p.duv - a12) <= ulps(p.duv)
            assert abs(p.dvv - 2 * a22) <= ulps(p.dvv)


class TestElementaryFunctions:
    def test_sin_at_zero(self):
        j = jets.sin(jets.Jet2_1.variable(0.0))
        assert (j.v, j.d1, j.d2) == (0.0, 1.0, 0.0)

    def test_exp_at_zero(self):
        j = jets.exp(jets.Jet2_1.variable(0.0))
        assert (j.v, j.d1, j.d2) == (1.0, 1.0, 1.0)

    def test_log_at_one(self):
        j = jets.log(jets.Jet2_1.variable(1.0))
        assert (j.v, j.d1, j.d2) == (0.0, 1.0, -1.0)

    def test_sqrt_at_zero_is_domain_error(self):
        with pytest.raises(DomainError):
            jets.sqrt(jets.Jet2_1.variable(0.0))

    def test_log_of_negative_is_domain_error(self):
        with pytest.raises(DomainError):
            jets.log(jets.Jet2_1.variable(-2.0))

    def test_plain_float_passthrough(self):
        assert jets.sin(math.pi / 2) == pytest.approx(1.0)
        assert jets.sqrt(4.0) == 2.0

    @pytest.mark.parametrize("v", [5e-321, 1e-300, 1e-217])
    def test_sqrt_with_underflowing_second_derivative_is_domain_error(
            self, v):
        # v * sqrt(v) underflows to 0 below about 2e-216; -0.25 / 0 used
        # to escape as a bare ZeroDivisionError
        with pytest.raises(DomainError,
                           match="sqrt second derivative overflows"):
            jets.sqrt(jets.Jet2_1.variable(v))

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
        columns = jets.tabulate(lambda v: jets.power_terms(v, e),
                                np.array(values))
        for i, v in enumerate(values):
            assert bits(column[i] for column in columns) == \
                bits(jets.power_terms(v, e))


class TestFdOracle:
    def test_square_second_derivative(self):
        fd = jets.fd_oracle(lambda x: x * x, 1.0, 1e-4)
        assert abs(fd.d2 - 2.0) <= 1e-6

    def test_sin_first_derivative(self):
        fd = jets.fd_oracle(math.sin, 0.0, 1e-5)
        assert abs(fd.d1 - 1.0) <= 1e-9

    def test_constant_function(self):
        fd = jets.fd_oracle(lambda x, y: 7.5, (0.3, -0.2), 1e-4)
        for slot in (fd.du, fd.dv, fd.duu, fd.duv, fd.dvv):
            assert abs(slot) <= 1e-9


def _check_against_fd(jet, fd, firsts, seconds):
    for name in firsts:
        assert rel_err(getattr(jet, name), getattr(fd, name)) <= 1e-7, name
    for name in seconds:
        assert rel_err(getattr(jet, name), getattr(fd, name)) <= 1e-4, name


class TestCorpusAgainstOracle:
    @pytest.mark.parametrize("text,box", CORPUS_1V)
    def test_univariate(self, text, box, rng):
        for _ in range(20):
            x = sample(rng, box)
            jet = jet_eval_1(text, x)
            fd = jets.fd_oracle(lambda t: eval_floats(text, x=t), x, 1e-4)
            _check_against_fd(jet, fd, ("d1",), ("d2",))

    @pytest.mark.parametrize("text,boxes", CORPUS_2V)
    def test_bivariate(self, text, boxes, rng):
        for _ in range(20):
            x, y = sample(rng, boxes[0]), sample(rng, boxes[1])
            jet = jet_eval_2(text, x, y)
            fd = jets.fd_oracle(lambda a, b: eval_floats(text, x=a, y=b),
                                (x, y), 1e-4)
            _check_against_fd(jet, fd, ("du", "dv"), ("duu", "duv", "dvv"))

    @pytest.mark.parametrize("text,boxes", CORPUS_3V)
    def test_trivariate(self, text, boxes, rng):
        for _ in range(20):
            x, y, z = (sample(rng, b) for b in boxes)
            jet = jet_eval_3(text, x, y, z)
            fd = jets.fd_oracle(
                lambda a, b, c: eval_floats(text, x=a, y=b, z=c),
                (x, y, z), 1e-4)
            _check_against_fd(jet, fd, ("dx", "dy", "dz"),
                              ("dxx", "dxy", "dxz", "dyy", "dyz", "dzz"))
