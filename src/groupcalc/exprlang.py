"""Tiny expression language for deformed arithmetic.

Ordinary operators ``+ - * /`` always mean ordinary arithmetic; the
parenthesized spellings ``(+) (-) (*) (/)`` (or the aliases ⊕ ⊖ ⊗ ⊘) are the
deformed versions under the active group class.  Multiplicative operators
bind tighter than additive ones; everything is left-associative.

Functions: expG, logG, cosG, sinG, deform, dualdeform (arity 1), gint(n),
gpow(x, n).  Numbers are decimal literals with an optional exponent; ``gint``
and ``gpow`` insist their count argument is an integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from . import algebra, groups
from .errors import DomainError, GroupCalcError, ParseError
from .groups import GroupClass

# -- tokens ------------------------------------------------------------------

_DEFORMED_ALIAS = {"⊕": "g+", "⊖": "g-", "⊗": "g*", "⊘": "g/"}
_DEFORMED_ASCII = {"+": "g+", "-": "g-", "*": "g*", "/": "g/"}
_ADDITIVE = {"+", "-", "g+", "g-"}
_MULTIPLICATIVE = {"*", "/", "g*", "g/"}


class Token(NamedTuple):
    kind: str  # "num" | "ident" | "op" | "lparen" | "rparen" | "comma" | "end"
    text: str
    offset: int
    value: float = 0.0


def _tokenize(source: str) -> list[Token]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _DEFORMED_ALIAS:
            tokens.append(Token("op", c, i))
            i += 1
            continue
        if c in "+-*/":
            tokens.append(Token("op", c, i))
            i += 1
            continue
        if c == "(":
            # "(+)" style deformed operator, else a grouping paren
            if i + 2 < n and source[i + 1] in _DEFORMED_ASCII and source[i + 2] == ")":
                tokens.append(Token("op", source[i : i + 3], i))
                i += 3
            else:
                tokens.append(Token("lparen", c, i))
                i += 1
            continue
        if c == ")":
            tokens.append(Token("rparen", c, i))
            i += 1
            continue
        if c == ",":
            tokens.append(Token("comma", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"bad number literal {text!r}", i, ("number",)) from None
            tokens.append(Token("num", text, i, value))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("ident", source[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i, ())
    tokens.append(Token("end", "", n))
    return tokens


def _op_name(tok: Token) -> str:
    if tok.text in _DEFORMED_ALIAS:
        return _DEFORMED_ALIAS[tok.text]
    if len(tok.text) == 3:  # "(+)"
        return _DEFORMED_ASCII[tok.text[1]]
    return tok.text


# -- syntax tree ---------------------------------------------------------------

_FUNCTIONS = {
    "expG": 1,
    "logG": 1,
    "cosG": 1,
    "sinG": 1,
    "deform": 1,
    "dualdeform": 1,
    "gint": 1,
    "gpow": 2,
}


@dataclass(frozen=True)
class Num:
    value: float
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: object
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # "+", "-", "*", "/", "g+", "g-", "g*", "g/"
    left: object
    right: object
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple
    offset: int = field(default=0, compare=False)


Expr = object  # Num | Var | Neg | BinOp | Call


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            got = tok.text or "end of input"
            raise ParseError(f"expected {what}, found {got!r}", tok.offset, (what,))
        return self.advance()

    def parse(self) -> Expr:
        node = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(
                f"unexpected trailing input {tok.text!r}", tok.offset, ("end of input",)
            )
        return node

    def expression(self) -> Expr:
        node = self.term()
        while self.peek().kind == "op" and _op_name(self.peek()) in _ADDITIVE:
            tok = self.advance()
            node = BinOp(_op_name(tok), node, self.term(), tok.offset)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind == "op" and _op_name(self.peek()) in _MULTIPLICATIVE:
            tok = self.advance()
            node = BinOp(_op_name(tok), node, self.factor(), tok.offset)
        return node

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            operand = self.factor()
            if isinstance(operand, Num):  # fold literal
                return Num(-operand.value, tok.offset)
            return Neg(operand, tok.offset)
        if tok.kind == "num":
            self.advance()
            return Num(tok.value, tok.offset)
        if tok.kind == "lparen":
            self.advance()
            node = self.expression()
            self.expect("rparen", "')'")
            return node
        if tok.kind == "ident":
            self.advance()
            if self.peek().kind == "lparen":
                return self.call(tok)
            return Var(tok.text, tok.offset)
        got = tok.text or "end of input"
        raise ParseError(f"expected an operand, found {got!r}", tok.offset, ("number", "function", "'('"))

    def call(self, name_tok: Token) -> Expr:
        name = name_tok.text
        if name not in _FUNCTIONS:
            raise ParseError(f"unknown function {name!r}", name_tok.offset, tuple(sorted(_FUNCTIONS)))
        self.expect("lparen", "'('")
        args = [self.expression()]
        while self.peek().kind == "comma":
            self.advance()
            args.append(self.expression())
        self.expect("rparen", "')'")
        arity = _FUNCTIONS[name]
        if len(args) != arity:
            raise ParseError(
                f"{name} takes {arity} argument(s), got {len(args)}",
                name_tok.offset,
                (f"{arity} argument(s)",),
            )
        return Call(name, tuple(args), name_tok.offset)


def parse(source: str) -> Expr:
    """Parse an expression; raises ParseError with a byte offset on failure."""
    return _Parser(source).parse()


# -- printing ------------------------------------------------------------------

_PRINT_OP = {"g+": "(+)", "g-": "(-)", "g*": "(*)", "g/": "(/)"}


def _precedence(node) -> int:
    if isinstance(node, BinOp):
        return 1 if node.op in _ADDITIVE else 2
    return 3


def print_expr(node: Expr) -> str:
    """Canonical text form; parse(print_expr(parse(s))) == parse(s)."""
    if isinstance(node, Num):
        return format(node.value, ".17g")
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = print_expr(node.operand)
        if _precedence(node.operand) < 3:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, BinOp):
        sym = _PRINT_OP.get(node.op, node.op)
        left = print_expr(node.left)
        right = print_expr(node.right)
        if _precedence(node.left) < _precedence(node):
            left = f"({left})"
        # left-associative: parenthesize a right child of equal precedence
        if _precedence(node.right) <= _precedence(node):
            right = f"({right})"
        return f"{left} {sym} {right}"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(print_expr(a) for a in node.args)})"
    raise TypeError(f"not an expression node: {node!r}")


# -- evaluation ------------------------------------------------------------------


def _as_int(value: float, what: str, offset: int) -> int:
    # an infinity makes int() raise OverflowError, which _eval reports as overflow
    if math.isnan(value) or value != int(value):
        raise DomainError(f"{what} must be an integer, got {value!r} (at offset {offset})")
    return int(value)


def evaluate(node: Expr, cls: GroupClass) -> float:
    """Evaluate under a group class; DomainError carries the failing offset.

    Division by zero and float overflow inside the group operations are
    raised as DomainError too.
    """
    try:
        return _eval(node, cls)
    except DomainError:
        raise
    except ZeroDivisionError:
        raise DomainError(f"division by zero (at offset {node.offset})") from None


def _eval(node: Expr, cls: GroupClass) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        raise DomainError(f"unbound variable {node.name!r} (at offset {node.offset})")
    if isinstance(node, Neg):
        return -_eval(node.operand, cls)
    if isinstance(node, BinOp):
        left = _eval(node.left, cls)
        right = _eval(node.right, cls)
        try:
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                if right == 0.0:
                    raise ZeroDivisionError
                return left / right
            if node.op == "g+":
                return algebra.g_sum(cls, left, right)
            if node.op == "g-":
                return algebra.g_sub(cls, left, right)
            if node.op == "g*":
                return algebra.g_prod(cls, left, right)
            return algebra.g_div(cls, left, right)
        except DomainError as exc:
            raise DomainError(f"{exc} (at offset {node.offset})") from None
        except OverflowError as exc:
            raise DomainError(f"overflow: {exc} (at offset {node.offset})") from None
    if isinstance(node, Call):
        args = [_eval(a, cls) for a in node.args]
        try:
            if node.name == "expG":
                return groups.exp_g(cls, args[0])
            if node.name == "logG":
                return groups.log_g(cls, args[0])
            if node.name == "cosG":
                return groups.cos_g(cls, args[0])
            if node.name == "sinG":
                return groups.sin_g(cls, args[0])
            if node.name == "deform":
                return algebra.deform(cls, args[0])
            if node.name == "dualdeform":
                return algebra.dual_deform(cls, args[0])
            if node.name == "gint":
                n = _as_int(args[0], "gint argument", node.offset)
                return algebra.g_integer(cls, n).value
            n = _as_int(args[1], "gpow exponent", node.offset)
            return algebra.g_pow(cls, args[0], n)
        except DomainError as exc:
            if "(at offset" in str(exc):
                raise
            raise DomainError(f"{exc} (at offset {node.offset})") from None
        except OverflowError as exc:
            raise DomainError(f"overflow: {exc} (at offset {node.offset})") from None
    raise TypeError(f"not an expression node: {node!r}")


def eval_source(source: str, cls: GroupClass) -> float:
    return evaluate(parse(source), cls)


# -- read-eval-print loop -----------------------------------------------------


def run_repl(stdin, stdout, stderr, cls: GroupClass) -> int:
    """One expression per line; ``class <spec>`` switches the active class."""
    for raw in stdin:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("quit", "exit"):
            break
        if line.startswith("class "):
            try:
                cls = groups.parse_class_spec(line[len("class "):])
                print(f"class {cls.spec_string()}", file=stdout)
            except ValueError as exc:
                print(f"error: {exc}", file=stderr)
            continue
        try:
            print(format(eval_source(line, cls), ".12g"), file=stdout)
        except ParseError as exc:
            print(f"parse error at offset {exc.offset}: {exc}", file=stderr)
        except DomainError as exc:
            print(f"domain error: {exc}", file=stderr)
        except GroupCalcError as exc:
            print(f"error: {exc}", file=stderr)
    return 0
