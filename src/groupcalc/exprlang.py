"""Tiny expression language for deformed arithmetic.

Ordinary operators ``+ - * /`` always mean ordinary arithmetic; the
parenthesized spellings ``(+) (-) (*) (/)`` (or the aliases ⊕ ⊖ ⊗ ⊘) are the
deformed versions under the active group class.  Multiplicative operators
bind tighter than additive ones; everything is left-associative.

Functions: expG, logG, cosG, sinG, deform, dualdeform (arity 1), gint(n),
gpow(x, n).  Numbers are decimal literals with an optional exponent; ``gint``
and ``gpow`` insist their count argument is an integer.  An expression may
nest at most ``MAX_DEPTH`` levels deep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from . import algebra, groups
from .errors import REPORTED, DomainError, ParseError, exit_status
from .groups import GroupClass

# -- tokens ------------------------------------------------------------------

_DEFORMED_ALIAS = {"⊕": "g+", "⊖": "g-", "⊗": "g*", "⊘": "g/"}
_DEFORMED_ASCII = {"+": "g+", "-": "g-", "*": "g*", "/": "g/"}
# operator token text -> operator name; one-character token text -> token kind
_OP_NAMES = {c: c for c in "+-*/"} | _DEFORMED_ALIAS
_OP_NAMES |= {f"({c})": name for c, name in _DEFORMED_ASCII.items()}
_SINGLE = {c: "op" for c in _OP_NAMES if len(c) == 1} | {")": "rparen", ",": "comma"}
_ADDITIVE = {"+", "-", "g+", "g-"}
_MULTIPLICATIVE = {"*", "/", "g*", "g/"}

#: most levels of nesting (parentheses, calls, unary minus) and of operators
#: above a leaf that an expression may have; keeps every recursion short
MAX_DEPTH = 100


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
        if c in _SINGLE:
            tokens.append(Token(_SINGLE[c], c, i))
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
    """Recursive descent; each rule returns ``(node, height)``, where height
    counts the operator and call levels below the node, so evaluating and
    printing recurse ``height`` frames deep."""

    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.nesting = 0  # parentheses, calls and unary minus open at pos

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
        node, _ = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(
                f"unexpected trailing input {tok.text!r}", tok.offset, ("end of input",)
            )
        return node

    def expression(self):
        return self.chain(self.term, _ADDITIVE)

    def term(self):
        return self.chain(self.factor, _MULTIPLICATIVE)

    def chain(self, operand, ops):
        """Left-associative run of ``operand``s joined by operators in ``ops``."""
        node, height = operand()
        while self.peek().kind == "op" and _OP_NAMES[self.peek().text] in ops:
            tok = self.advance()
            right, right_height = operand()
            height = _deeper(max(height, right_height), tok)
            node = BinOp(_OP_NAMES[tok.text], node, right, tok.offset)
        return node, height

    def factor(self):
        tok = self.advance()
        if tok.kind == "num":
            return Num(tok.value, tok.offset), 0
        if tok.kind == "ident" and self.peek().kind != "lparen":
            return Var(tok.text, tok.offset), 0
        if not (tok.kind in ("lparen", "ident") or tok.text == "-"):
            got = tok.text or "end of input"
            raise ParseError(
                f"expected an operand, found {got!r}", tok.offset, ("number", "function", "'('")
            )
        self.nesting = _deeper(self.nesting, tok)
        if tok.kind == "lparen":
            node, height = self.expression()
            self.expect("rparen", "')'")
        elif tok.kind == "ident":
            node, height = self.call(tok)
        else:
            node, height = self.factor()
            if isinstance(node, Num):  # fold literal
                node = Num(-node.value, tok.offset)
            else:
                node, height = Neg(node, tok.offset), _deeper(height, tok)
        self.nesting -= 1
        return node, height

    def call(self, name_tok: Token):
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
        nodes, heights = zip(*args)
        return Call(name, nodes, name_tok.offset), _deeper(max(heights), name_tok)


def _deeper(height: int, tok: Token) -> int:
    """One level above ``height``; ParseError at tok past MAX_DEPTH levels."""
    if height >= MAX_DEPTH:
        raise ParseError(f"expression deeper than {MAX_DEPTH} levels", tok.offset, ())
    return height + 1


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


def _as_int(value: float, what: str) -> int:
    # an infinity makes int() raise OverflowError, which _eval reports as overflow
    if math.isnan(value) or value != int(value):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return int(value)


def evaluate(node: Expr, cls: GroupClass) -> float:
    """Evaluate under a group class; DomainError carries the failing offset.

    Division by zero and float overflow inside the group operations are
    raised as DomainError too.
    """
    return _eval(node, cls)


def _eval(node: Expr, cls: GroupClass) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        raise DomainError(f"unbound variable {node.name!r} (at offset {node.offset})")
    if isinstance(node, Neg):
        return -_eval(node.operand, cls)
    if isinstance(node, BinOp):
        op, x, y = node.op, _eval(node.left, cls), _eval(node.right, cls)
    elif isinstance(node, Call):
        args = [_eval(a, cls) for a in node.args]
        op, x, y = node.name, args[0], args[-1]
    else:
        raise TypeError(f"not an expression node: {node!r}")
    # the operands are evaluated: an error below names this node's offset
    try:
        if op == "+":
            return x + y
        if op == "-":
            return x - y
        if op == "*":
            return x * y
        if op == "/":
            return x / y
        if op == "g+":
            return algebra.g_sum(cls, x, y)
        if op == "g-":
            return algebra.g_sub(cls, x, y)
        if op == "g*":
            return algebra.g_prod(cls, x, y)
        if op == "g/":
            return algebra.g_div(cls, x, y)
        if op == "expG":
            return groups.exp_g(cls, x)
        if op == "logG":
            return groups.log_g(cls, x)
        if op == "cosG":
            return groups.cos_g(cls, x)
        if op == "sinG":
            return groups.sin_g(cls, x)
        if op == "deform":
            return algebra.deform(cls, x)
        if op == "dualdeform":
            return algebra.dual_deform(cls, x)
        if op == "gint":
            return algebra.g_integer(cls, _as_int(x, "gint argument")).value
        return algebra.g_pow(cls, x, _as_int(y, "gpow exponent"))
    except DomainError as exc:
        raise DomainError(f"{exc} (at offset {node.offset})") from None
    except OverflowError as exc:
        raise DomainError(f"overflow: {exc} (at offset {node.offset})") from None
    except ZeroDivisionError:
        raise DomainError(f"division by zero (at offset {node.offset})") from None


def eval_source(source: str, cls: GroupClass) -> float:
    return evaluate(parse(source), cls)


# -- read-eval-print loop -----------------------------------------------------


def run_repl(stdin, stdout, stderr, cls: GroupClass) -> int:
    """One expression per line; ``class <spec>`` switches the active class.

    A failing line is reported as the CLI reports it and the session goes on.
    """
    for raw in stdin:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("quit", "exit"):
            break
        try:
            if line.startswith("class "):
                cls = groups.parse_class_spec(line[len("class "):])
                result = f"class {cls.spec_string()}"
            else:
                result = format(eval_source(line, cls), ".12g")
        except REPORTED as exc:
            print(exit_status(exc)[1], file=stderr)
        else:
            print(result, file=stdout)
    return 0
