"""Parser and evaluator: grammar, errors with positions, print fixpoint,
and agreement of float evaluation with the lowered jets' values."""

import math

import pytest

from egregium import exprlang, jets
from egregium.errors import DomainError, UnboundVariable
from egregium.exprlang import (Binary, Constant, ParseError, Unary, Variable,
                               parse, to_text)

from conftest import CORPUS_1V, CORPUS_2V, eval_floats, sample


class TestParsing:
    def test_precedence(self):
        assert eval_floats("2+3*4") == 14.0

    def test_unit_circle(self):
        assert eval_floats("x^2 + y^2 - 1", x=1.0, y=0.0) == 0.0

    def test_power_right_associative(self):
        assert eval_floats("2^3^2") == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        assert eval_floats("-2^2") == -4.0

    def test_negative_exponent_in_power(self):
        assert eval_floats("2^-2") == 0.25

    def test_parenthesized(self):
        assert eval_floats("(2+3)*4") == 20.0

    def test_subtraction_left_associative(self):
        assert eval_floats("10-3-2") == 5.0

    def test_number_with_exponent(self):
        assert eval_floats("1.5e2") == 150.0
        assert eval_floats("2.5e-2") == 0.025

    def test_whitespace_ignored(self):
        assert parse(" x + 1 ") == parse("x+1")

    def test_structure(self):
        assert parse("x+2*y") == Binary(
            "+", Variable("x"), Binary("*", Constant(2.0), Variable("y")))


class TestParseErrors:
    def test_dangling_function_call(self):
        with pytest.raises(ParseError) as err:
            parse("sin(")
        assert err.value.offset == 4
        assert "expression" in str(err.value)

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("2x")
        assert err.value.offset == 1

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as err:
            parse("x + foo")
        assert err.value.offset == 4

    def test_rejected_functions(self):
        for name in ("abs", "floor", "min", "max"):
            with pytest.raises(ParseError):
                parse(f"{name}(x)")

    def test_variable_called_as_function(self):
        with pytest.raises(ParseError):
            parse("x(3)")

    def test_function_without_arguments(self):
        with pytest.raises(ParseError):
            parse("sin + 1")

    def test_missing_close_paren(self):
        with pytest.raises(ParseError):
            parse("(1+2")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("1+2)")

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse("1 % 2")
        assert err.value.offset == 2

    def test_offset_within_input(self):
        for text in ("sin(", "2x", "x + foo", "1 % 2", "(("):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert 0 <= err.value.offset <= len(text)


class TestPrintFixpoint:
    CASES = [t for t, _ in CORPUS_1V] + [t for t, _ in CORPUS_2V] + [
        "-x^2", "x^-2", "(-x)^2", "2^3^2", "-(x*y)", "x--2", "1/(2/x)",
        "x/(y*z)", "-sin(-x)", "x^(y+1)",
        # an infinite constant prints as a literal that parses back to it
        "1e999", "x^1e999", "-1e999*x",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_print_parse(self, text):
        tree = parse(text)
        assert parse(to_text(tree)) == tree


class TestEvaluation:
    def test_product_rule_through_eval(self):
        jet = exprlang.evaluate(parse("x*y"), {
            "x": jets.Jet2_2.variable_u(2.0),
            "y": jets.Jet2_2.variable_v(3.0),
        })
        assert jet.duv == 1.0

    def test_cosh_jet(self):
        (jet,) = exprlang.lower_jet2([parse("cosh(t)")], {"t": 0})(0.0)
        assert (jet[0], jet[1], jet[3]) == (1.0, 0.0, 1.0)

    def test_pythagoras(self):
        assert eval_floats("sqrt(x^2+y^2)", x=3.0, y=4.0) == 5.0

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            eval_floats("x + y", x=1.0)

    def test_domain_error_bubbles(self):
        with pytest.raises(DomainError):
            eval_floats("log(x)", x=-1.0)

    @pytest.mark.parametrize("text,box", CORPUS_1V)
    def test_float_equals_jet_value_univariate(self, text, box, rng):
        tree = parse(text)
        run = exprlang.lower_jet2([tree], {"x": 0})
        for _ in range(100):
            x = sample(rng, box)
            plain = exprlang.evaluate(tree, {"x": x})
            (jet,) = run(x)
            assert abs(plain - jet[0]) <= 2.0 * math.ulp(max(abs(plain), 1.0))

    @pytest.mark.parametrize("text,boxes", CORPUS_2V)
    def test_float_equals_jet_value_bivariate(self, text, boxes, rng):
        tree = parse(text)
        run = exprlang.lower_jet2([tree], {"x": 0, "y": 1})
        for _ in range(100):
            x, y = sample(rng, boxes[0]), sample(rng, boxes[1])
            plain = exprlang.evaluate(tree, {"x": x, "y": y})
            (jet,) = run(x, y)
            assert abs(plain - jet[0]) <= 2.0 * math.ulp(max(abs(plain), 1.0))

    def test_free_variables(self):
        assert exprlang.free_variables(parse("x*sin(y)+2")) == {"x", "y"}
