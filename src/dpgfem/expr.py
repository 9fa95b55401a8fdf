"""Arithmetic expressions in x and y for config-defined coefficients and loads.

Grammar (token set is normative, see README):

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := atom ("^" factor)?
    atom    := NUMBER | "x" | "y" | "pi" | FUNC "(" expr ")" | "(" expr ")"
    FUNC    := "sin" | "cos" | "exp" | "ln" | "sqrt" | "abs"

"^" binds tighter than unary minus and associates to the right; "+", "-",
"*", "/" associate to the left. Positions are 0-based character offsets
into the source text.

Nesting is bounded so that parsing and compiling stay far below Python's
recursion limit: no more than MAX_DEPTH parentheses, function calls,
unary minuses and exponents may enclose one another, and no tree may be
deeper than MAX_DEPTH nodes (a sum of MAX_DEPTH + 1 terms is too deep).
Past the bound, parsing raises ExprSyntaxError.

`compile_expr` parses a string once and compiles its tree into one
Python function of straight-line code, which evaluates the nodes in the
order of a post-order walk and applies the domain checks, raising
ExprDomainError with the node's position. Subtrees free of x and y are
folded to their values at compile time, and the checks of /, sin, cos, ln
and sqrt are inlined as comparisons; values and errors are those of the
unfolded, checked evaluation. Trees are immutable and the compiled
functions reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt", "abs")
VARIABLES = ("x", "y")
MAX_DEPTH = 100


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"syntax error at position {pos}: {message}")
        self.pos = pos


class ExprDomainError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"domain error at position {pos}: {message}")
        self.pos = pos


def _depth(pos: int, *children: "Node") -> int:
    depth = 1 + max(child.depth for child in children)
    if depth > MAX_DEPTH:
        raise ExprSyntaxError(f"nesting deeper than {MAX_DEPTH} levels", pos)
    return depth


# `depth` is the height of a node's tree; constructing a node deeper than
# MAX_DEPTH raises, so the recursive walks over trees stay shallow.
@dataclass(frozen=True)
class Num:
    value: float
    pos: int = field(default=0, compare=False)
    depth = 1


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = field(default=0, compare=False)
    depth = 1


@dataclass(frozen=True)
class Neg:
    arg: "Node"
    pos: int = field(default=0, compare=False)
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "depth", _depth(self.pos, self.arg))


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"
    pos: int = field(default=0, compare=False)
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "depth", _depth(self.pos, self.left, self.right))


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"
    pos: int = field(default=0, compare=False)
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "depth", _depth(self.pos, self.arg))


Node = Num | Var | Neg | BinOp | Call


@dataclass(frozen=True)
class Token:
    kind: str       # "num", "ident", "op", "lparen", "rparen", "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[Token]:
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdecimal() or (c == "." and i + 1 < n and text[i + 1].isdecimal()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdecimal() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            # exponent part of a float literal
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdecimal():
                    while k < n and text[k].isdecimal():
                        k += 1
                    j = k
            out.append(Token("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("ident", text[i:j], i))
            i = j
            continue
        if c in "+-*/^":
            out.append(Token("op", c, i))
            i += 1
            continue
        if c == "(":
            out.append(Token("lparen", c, i))
            i += 1
            continue
        if c == ")":
            out.append(Token("rparen", c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    out.append(Token("end", "", n))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.level = 0

    def nested(self, parse, pos: int) -> Node:
        """parse() one level deeper, for the group opened at pos."""
        self.level += 1
        if self.level > MAX_DEPTH:
            raise ExprSyntaxError(f"nesting deeper than {MAX_DEPTH} levels", pos)
        node = parse()
        self.level -= 1
        return node

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            got = repr(tok.text) if tok.kind != "end" else "end of input"
            raise ExprSyntaxError(f"expected {what}, got {got}", tok.pos)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.advance()
            node = BinOp(tok.text, node, self.term(), tok.pos)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.advance()
            node = BinOp(tok.text, node, self.factor(), tok.pos)
        return node

    def factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.nested(self.factor, tok.pos), tok.pos)
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            # exponent parsed at factor level: right associative, may be signed
            node = BinOp("^", node, self.nested(self.factor, tok.pos), tok.pos)
        return node

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text), tok.pos)
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name in VARIABLES:
                return Var(name, tok.pos)
            if name == "pi":
                return Num(math.pi, tok.pos)
            if name in FUNCTIONS:
                self.expect("lparen", "'(' after function name")
                arg = self.nested(self.expr, tok.pos)
                self.expect("rparen", "')'")
                return Call(name, arg, tok.pos)
            raise ExprSyntaxError(f"unknown identifier {name!r}", tok.pos)
        if tok.kind == "lparen":
            self.advance()
            node = self.nested(self.expr, tok.pos)
            self.expect("rparen", "')'")
            return node
        got = repr(tok.text) if tok.kind != "end" else "end of input"
        raise ExprSyntaxError(f"expected a value, got {got}", tok.pos)


def parse(text: str) -> Node:
    return _Parser(text).parse()


# Domain rules of the evaluator; `pos` is the position of the node applied.
def _div(a: float, b: float, pos: int) -> float:
    if b == 0.0:
        raise ExprDomainError("division by zero", pos)
    return a / b


def _pow(a: float, b: float, pos: int) -> float:
    try:
        return math.pow(a, b)
    except (ValueError, OverflowError) as exc:
        raise ExprDomainError(f"invalid power: {exc}", pos) from None


def _sin(a: float, pos: int) -> float:
    if not math.isfinite(a):
        raise ExprDomainError("sin of a non-finite value", pos)
    return math.sin(a)


def _cos(a: float, pos: int) -> float:
    if not math.isfinite(a):
        raise ExprDomainError("cos of a non-finite value", pos)
    return math.cos(a)


def _exp(a: float, pos: int) -> float:
    try:
        return math.exp(a)
    except OverflowError:
        raise ExprDomainError("exp overflows", pos) from None


def _ln(a: float, pos: int) -> float:
    if a <= 0.0:
        raise ExprDomainError("ln of a non-positive value", pos)
    return math.log(a)


def _sqrt(a: float, pos: int) -> float:
    if a < 0.0:
        raise ExprDomainError("sqrt of a negative value", pos)
    return math.sqrt(a)


_HELPERS = {"_float": float, "_abs": abs, "_msin": math.sin, "_mcos": math.cos,
            "_mlog": math.log, "_msqrt": math.sqrt, "_div": _div, "_pow": _pow,
            "_sin": _sin, "_cos": _cos, "_exp": _exp, "_ln": _ln, "_sqrt": _sqrt}

# The code of each operation on the names {a} and {b}. A domain check is
# inlined as a conditional whose failing branch calls the checked helper,
# which raises; ^ and exp keep their helper, whose failure set is no
# comparison.
_BINARY = {"+": "{a} + {b}", "-": "{a} - {b}", "*": "{a} * {b}",
           "/": "{a} / {b} if {b} != 0.0 else _div({a}, {b}, {pos:d})",
           "^": "_pow({a}, {b}, {pos:d})"}
_CALLS = {"sin": "_msin({a}) if {a} - {a} == 0.0 else _sin({a}, {pos:d})",
          "cos": "_mcos({a}) if {a} - {a} == 0.0 else _cos({a}, {pos:d})",
          "exp": "_exp({a}, {pos:d})",
          "ln": "_mlog({a}) if {a} > 0.0 else _ln({a}, {pos:d})",
          "sqrt": "_msqrt({a}) if {a} >= 0.0 else _sqrt({a}, {pos:d})",
          "abs": "_abs({a})"}


def _compile(tree: Node):
    """def f(x, y) evaluating `tree`: one assignment per node, in post-order.

    A node whose arguments are all constants is folded: its code is
    evaluated once, here, and its value bound like a literal. A node that
    raises ExprDomainError is not folded, so it raises at the first point,
    as it would unfolded. The source holds only temporaries, constant names
    c0, c1, ..., the operators + - * / and comparisons, helper names and
    integer positions; constant values are bound in the function's
    namespace, so no text of the expression reaches `exec`. x and y are
    converted with float() where the first node reading them is evaluated.
    """
    namespace: dict = {"__builtins__": {}, **_HELPERS}
    consts: set = set()
    lines: list = []
    converted: set = set()

    def constant(value) -> str:
        name = f"c{len(consts)}"
        consts.add(name)
        namespace[name] = value
        return name

    def emit(node: Node) -> str:
        if isinstance(node, Num):
            return constant(node.value)
        if isinstance(node, Var):
            name = "x" if node.name == "x" else "y"
            if name not in converted:
                converted.add(name)
                lines.append(f"{name} = _float({name})")
            return name
        if isinstance(node, BinOp):
            children = (node.left, node.right)
            code = _BINARY.get(node.op, _BINARY["^"])
        else:
            children = (node.arg,)
            code = ("-{a}" if isinstance(node, Neg)
                    else _CALLS.get(node.func, _CALLS["abs"]))
        args = [emit(child) for child in children]
        value = code.format(a=args[0], b=args[-1], pos=node.pos)
        if consts.issuperset(args):
            try:
                return constant(eval(value, namespace))
            except ExprDomainError:
                pass
        name = f"t{len(lines)}"
        lines.append(f"{name} = {value}")
        return name

    result = emit(tree)
    source = "".join(f"    {line}\n" for line in lines)
    exec(f"def f(x, y):\n{source}    return {result}\n", namespace)
    return namespace["f"]


def evaluate(node: Node, x: float, y: float) -> float:
    """Value of the tree at (x, y), computed by its compiled code."""
    return _compile(node)(x, y)


def compile_expr(text: str):
    """Parse and compile once; return a callable (x, y) -> float."""
    return _compile(parse(text))
