import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpgfem.expr import (
    FUNCTIONS,
    MAX_DEPTH,
    BinOp,
    Call,
    ExprDomainError,
    ExprSyntaxError,
    Neg,
    Num,
    Var,
    compile_expr,
    evaluate,
    parse,
)


DIGITS = "".join(c for c in map(chr, range(0x110000)) if c.isdigit())


# -- frozen reference: the canonical printer, which only these checks use

def unparse(node) -> str:
    """Canonical parenthesized form; parse(unparse(t)) equals t."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{unparse(node.arg)})"
    if isinstance(node, BinOp):
        return f"({unparse(node.left)}{node.op}{unparse(node.right)})"
    return f"{node.func}({unparse(node.arg)})"


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

    @pytest.mark.parametrize("text, pos", [("2²", 1), ("①", 0), ("x*₇", 2),
                                           ("1.5²", 3)])
    def test_non_decimal_digit_is_syntax_error(self, text, pos):
        # str.isdigit accepts these, float() does not
        with pytest.raises(ExprSyntaxError, match="unexpected character") as err:
            parse(text)
        assert err.value.pos == pos

    def test_decimal_digits_of_any_script_parse(self):
        assert ev("٣*x", 2.0) == 6.0

    # any text, and text of the characters str.isdigit accepts (decimal
    # digits of every script, superscripts, circled digits, ...) among the
    # other characters of a number
    @given(st.text() | st.text(st.sampled_from(DIGITS + ".eE+-*/() x")))
    def test_parse_fails_only_with_syntax_error(self, text):
        try:
            parse(text)
        except ExprSyntaxError:
            pass


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


class TestNestingBound:
    @pytest.mark.parametrize("text", [
        "+".join(["x"] * 3000),
        "-" * 3000 + "x",
        "(" * 3000 + "x" + ")" * 3000,
    ])
    def test_deep_nesting_is_syntax_error(self, text):
        with pytest.raises(ExprSyntaxError, match="nesting deeper than") as err:
            compile_expr(text)
        assert 0 <= err.value.pos < len(text)

    @pytest.mark.parametrize("make", [
        lambda n: "+".join(["x"] * n),                  # tree height n
        lambda n: "-" * (n - 1) + "x",                  # n - 1 minuses, height n
        lambda n: "(" * n + "x" + ")" * n,              # n parentheses
        lambda n: "sin(" * (n - 1) + "x" + ")" * (n - 1),
        lambda n: "1^" * (n - 1) + "1",
    ])
    def test_bound_is_exact(self, make):
        assert math.isfinite(compile_expr(make(MAX_DEPTH))(0.5, 0.5))
        with pytest.raises(ExprSyntaxError):
            compile_expr(make(MAX_DEPTH + 1))


class TestCompiledCode:
    def test_overflowing_literal(self):
        assert compile_expr("1e999*x")(1.0, 0.0) == math.inf

    def test_node_names_do_not_reach_the_source(self):
        # a hand-built tree with foreign names evaluates as the tree walker
        # does: a variable other than x reads y, an unknown function is abs
        tree = Call("__import__('os')", BinOp("-", Var("y);x=(1"), Num(5.0)))
        assert evaluate(tree, 1.0, 2.0) == 3.0


def reference_evaluate(node, x, y):
    """The recursive tree walker that evaluated expressions before they
    were compiled, kept as the reference for the compiled code."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return float(x) if node.name == "x" else float(y)
    if isinstance(node, Neg):
        return -reference_evaluate(node.arg, x, y)
    if isinstance(node, BinOp):
        a = reference_evaluate(node.left, x, y)
        b = reference_evaluate(node.right, x, y)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if b == 0.0:
                raise ExprDomainError("division by zero", node.pos)
            return a / b
        try:
            return math.pow(a, b)
        except (ValueError, OverflowError) as exc:
            raise ExprDomainError(f"invalid power: {exc}", node.pos) from None
    a = reference_evaluate(node.arg, x, y)
    if node.func in ("sin", "cos"):
        if not math.isfinite(a):
            raise ExprDomainError(f"{node.func} of a non-finite value", node.pos)
        return math.sin(a) if node.func == "sin" else math.cos(a)
    if node.func == "exp":
        try:
            return math.exp(a)
        except OverflowError:
            raise ExprDomainError("exp overflows", node.pos) from None
    if node.func == "ln":
        if a <= 0.0:
            raise ExprDomainError("ln of a non-positive value", node.pos)
        return math.log(a)
    if node.func == "sqrt":
        if a < 0.0:
            raise ExprDomainError("sqrt of a negative value", node.pos)
        return math.sqrt(a)
    return abs(a)


def _outcome(fn, *args):
    """Float bits of the result (NaN as one value), or the exception's
    class, position and message."""
    try:
        value = fn(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), getattr(exc, "pos", None), str(exc)
    if math.isnan(value):
        return "nan"
    return struct.pack("<d", value)


# literals that divide by zero, leave the domain of ln and sqrt, and
# overflow exp and ^; 1e999 is how an overflowing literal parses
LITERALS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, math.pi,
                            710.0, 1e-300, 1e300, 1e308, math.inf]) | st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False)
POS = st.integers(0, 500)
LEAVES = st.builds(Num, LITERALS, POS) | st.builds(Var, st.sampled_from("xy"), POS)


def trees(leaves):
    return st.recursive(leaves, lambda sub: st.one_of(
        st.builds(Neg, sub, POS),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), sub, sub, POS),
        st.builds(Call, st.sampled_from(FUNCTIONS), sub, POS),
    ), max_leaves=12)


TREES = trees(LEAVES)
# one leaf in eight reads x or y, so most subtrees are constant and folded
MOSTLY_CONSTANT_TREES = trees(st.integers(0, 7).flatmap(
    lambda k: st.builds(Var, st.sampled_from("xy"), POS) if k == 0
    else st.builds(Num, LITERALS, POS)))
POINTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e308, -1e308]) | st.floats()


class TestDifferential:
    @given(TREES, POINTS, POINTS)
    def test_compiled_tree_matches_tree_walker(self, tree, x, y):
        assert _outcome(evaluate, tree, x, y) == _outcome(reference_evaluate,
                                                          tree, x, y)

    @given(TREES, POINTS, POINTS)
    def test_compiled_string_matches_tree_walker(self, tree, x, y):
        # unparse writes repr(value); inf has no literal in the grammar
        text = unparse(tree)
        if "inf" in text:
            return
        tree = parse(text)
        assert _outcome(compile_expr(text), x, y) == _outcome(
            reference_evaluate, tree, x, y)

    @given(MOSTLY_CONSTANT_TREES, POINTS, POINTS)
    def test_folded_tree_matches_tree_walker(self, tree, x, y):
        assert _outcome(evaluate, tree, x, y) == _outcome(reference_evaluate,
                                                          tree, x, y)


class TestFolding:
    def test_division_by_zero_compiles_and_raises_at_the_slash(self):
        fn = compile_expr("1/0")
        with pytest.raises(ExprDomainError, match="division by zero") as err:
            fn(0.5, 0.5)
        assert err.value.pos == 1

    def test_constant_ln_argument_raises_at_the_ln(self):
        fn = compile_expr("x*ln(0-2)")
        with pytest.raises(ExprDomainError,
                           match="ln of a non-positive value") as err:
            fn(0.5, 0.5)
        assert err.value.pos == 2

    def test_nan_made_inside_a_sin_argument_still_raises(self):
        fn = compile_expr("sin(1e308*10 - 1e308*10)^0")
        with pytest.raises(ExprDomainError, match="sin of a non-finite value") as err:
            fn(0.5, 0.5)
        assert err.value.pos == 0

    def test_folded_power_tower_is_bit_equal(self):
        fn = compile_expr("2^3^2*x")
        # the constant tower is evaluated once, at compile time
        assert "_pow" not in fn.__code__.co_names
        tree = parse("2^3^2*x")
        for x in (0.3, -1.7, 1e300):
            assert _outcome(fn, x, 0.0) == _outcome(reference_evaluate, tree, x, 0.0)
