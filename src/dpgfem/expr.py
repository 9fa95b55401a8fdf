"""Arithmetic expressions in x and y for config-defined coefficients and loads.

Grammar (token set is normative, see README):

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := atom ("^" factor)?
    atom    := NUMBER | "x" | "y" | "pi" | FUNC "(" expr ")" | "(" expr ")"
    FUNC    := "sin" | "cos" | "exp" | "ln" | "sqrt" | "abs"

"^" binds tighter than unary minus and associates to the right; "+", "-",
"*", "/" associate to the left. Trees are immutable and evaluation is
reentrant. Positions are 0-based character offsets into the source text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt", "abs")
VARIABLES = ("x", "y")


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"syntax error at position {pos}: {message}")
        self.pos = pos


class ExprDomainError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"domain error at position {pos}: {message}")
        self.pos = pos


@dataclass(frozen=True)
class Num:
    value: float
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    arg: "Node"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"
    pos: int = field(default=0, compare=False)


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
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            # exponent part of a float literal
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
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
            return Neg(self.factor(), tok.pos)
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            # exponent parsed at factor level: right associative, may be signed
            node = BinOp("^", node, self.factor(), tok.pos)
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
                arg = self.expr()
                self.expect("rparen", "')'")
                return Call(name, arg, tok.pos)
            raise ExprSyntaxError(f"unknown identifier {name!r}", tok.pos)
        if tok.kind == "lparen":
            self.advance()
            node = self.expr()
            self.expect("rparen", "')'")
            return node
        got = repr(tok.text) if tok.kind != "end" else "end of input"
        raise ExprSyntaxError(f"expected a value, got {got}", tok.pos)


def parse(text: str) -> Node:
    return _Parser(text).parse()


def evaluate(node: Node, x: float, y: float) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return float(x) if node.name == "x" else float(y)
    if isinstance(node, Neg):
        return -evaluate(node.arg, x, y)
    if isinstance(node, BinOp):
        a = evaluate(node.left, x, y)
        b = evaluate(node.right, x, y)
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
    a = evaluate(node.arg, x, y)
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


def unparse(node: Node) -> str:
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


def compile_expr(text: str):
    """Parse once, return a callable (x, y) -> float."""
    tree = parse(text)
    return lambda x, y: evaluate(tree, x, y)
