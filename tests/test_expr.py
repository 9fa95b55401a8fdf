import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpgfem.expr import (
    ExprDomainError,
    ExprSyntaxError,
    compile_expr,
    evaluate,
    parse,
    unparse,
)

RNG = np.random.default_rng(915)


def ev(text: str, x: float = 0.0, y: float = 0.0) -> float:
    return evaluate(parse(text), x, y)


class TestEvaluation:
    def test_precedence(self):
        assert ev("2+3*4") == 14.0

    def test_sin_pi_half(self):
        assert abs(ev("sin(pi/2)") - 1.0) <= 1e-15

    def test_power_and_log(self):
        assert ev("x^2*y - ln(1)", 3.0, 2.0) == pytest.approx(18.0, abs=1e-12)

    def test_difference_at_equal_points(self):
        assert ev("x-y", 1.0, 1.0) == 0.0

    def test_exp_ln_inverse(self):
        assert ev("exp(ln(5))") == pytest.approx(5.0, rel=1e-12)

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        assert ev("-2^2") == -4.0

    def test_left_associativity(self):
        assert ev("8/4/2") == 1.0
        assert ev("2-3-4") == -5.0

    def test_parentheses(self):
        assert ev("(2+3)*4") == 20.0
        assert ev("2^(1+1)") == 4.0

    def test_scientific_notation_literals(self):
        assert ev("1e-3") == 1e-3
        assert ev("2.5E+2") == 250.0

    def test_unary_minus_chains(self):
        assert ev("--3") == 3.0
        assert ev("2--3") == 5.0

    def test_all_functions(self):
        assert ev("cos(0)") == 1.0
        assert ev("sqrt(9)") == 3.0
        assert ev("abs(0-2)") == 2.0
        assert ev("exp(0)") == 1.0


class TestErrors:
    def test_division_by_zero_is_domain_error(self):
        with pytest.raises(ExprDomainError):
            ev("1/ (x-1)", 1.0, 0.0)

    @pytest.mark.parametrize("text", ["ln(0-1)", "sqrt(0-4)", "ln(0)", "exp(1000)",
                                      "sin(1e308*10)", "cos(-1e308*10)"])
    def test_function_domain_errors(self, text):
        with pytest.raises(ExprDomainError) as err:
            ev(text)
        assert isinstance(err.value.pos, int)

    @pytest.mark.parametrize("text", [
        "2+", "(2", "sin(", "2 @ 3", "foo(1)", "", "2 2", "x y", "sin", ")",
    ])
    def test_syntax_errors_carry_position(self, text):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert isinstance(err.value.pos, int)
        assert 0 <= err.value.pos <= len(text)

    def test_unknown_variable_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("z + 1")


class TestRoundTrip:
    CASES = [
        "2+3*4",
        "x^2*y - ln(1+x*x)",
        "sin(pi*x)*cos(pi*y)",
        "-x + 2*(y - 1)",
        "sqrt(abs(x - y)) + exp(0.5*x)",
        "1/(1 + x^2 + y^2)",
        "2^x^2",
        "x*y*(1 - x)*(1 - y)",
        "abs(-3.5) - cos(x/2)",
        "pi*(x + y)/4",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_unparse_parse_identity(self, text):
        tree = parse(text)
        assert parse(unparse(tree)) == tree

    @pytest.mark.parametrize("text", CASES)
    def test_unparse_evaluates_identically(self, text):
        tree = parse(text)
        again = parse(unparse(tree))
        for _ in range(10):
            x, y = RNG.uniform(0.05, 1.0, size=2)
            assert evaluate(tree, x, y) == evaluate(again, x, y)


class TestAgainstClosures:
    # ten expression strings paired with hand-coded closures
    PAIRS = [
        ("x + y", lambda x, y: x + y),
        ("x*y - 3", lambda x, y: x * y - 3.0),
        ("x^2 + y^3", lambda x, y: x**2 + y**3),
        ("sin(pi*x)*cos(pi*y)", lambda x, y: math.sin(math.pi * x) * math.cos(math.pi * y)),
        ("exp(x - y)", lambda x, y: math.exp(x - y)),
        ("ln(1 + x*x)", lambda x, y: math.log(1.0 + x * x)),
        ("sqrt(x*x + y*y)", lambda x, y: math.hypot(x, y)),
        ("abs(x - y)/2", lambda x, y: abs(x - y) / 2.0),
        ("-x/(1 + y)", lambda x, y: -x / (1.0 + y)),
        ("2^x * x^2", lambda x, y: 2.0**x * x**2),
    ]

    @pytest.mark.parametrize("text,closure", PAIRS)
    def test_matches_closure_on_100_points(self, text, closure):
        fn = compile_expr(text)
        pts = RNG.uniform(0.01, 2.0, size=(100, 2))
        for x, y in pts:
            want = closure(x, y)
            got = fn(x, y)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


class TestProperties:
    @given(st.floats(min_value=0.0, max_value=1e6,
                     allow_nan=False, allow_infinity=False))
    def test_literal_round_trip(self, value):
        assert ev(repr(value)) == value

    @given(st.floats(min_value=-100.0, max_value=100.0),
           st.floats(min_value=-100.0, max_value=100.0))
    def test_addition_commutes_with_python(self, x, y):
        assert ev("x + y", x, y) == x + y

    def test_evaluation_is_deterministic(self):
        tree = parse("sin(x)*exp(y) + x^3")
        vals = {evaluate(tree, 0.3, 0.7) for _ in range(20)}
        assert len(vals) == 1
