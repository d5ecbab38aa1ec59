"""Arithmetic expression language for right-hand sides and closed-form curves.

Grammar (whitespace-insensitive, no implicit multiplication)::

    sum     := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # right-associative, binds above unary minus
    atom    := NUMBER | NAME | NAME '(' sum (',' sum)* ')' | '(' sum ')'

``t`` and ``x`` are the time and state variables, ``pi`` and ``e`` are
built-in constants, any other bare name is a named parameter bound at
evaluation time.  Known functions: sin, cos, abs, ln, exp, sqrt, floor.

Errors carry 0-based byte offsets into the source text.  Evaluation raises
:class:`EvalError` on domain violations (log of a non-positive value, square
root of a negative value, division by zero, fractional powers of negative
bases, zero to a negative power); the offending node's source span is
reported.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np


class ParseError(ValueError):
    """Syntax error with a 0-based byte offset and the expected-token set."""

    def __init__(self, message: str, offset: int, expected: tuple = ()):
        self.offset = offset
        self.expected = tuple(expected)
        if expected:
            message = f"{message} at byte {offset} (expected {', '.join(expected)})"
        else:
            message = f"{message} at byte {offset}"
        super().__init__(message)


class EvalError(ArithmeticError):
    """Domain error during evaluation, carrying the offending source span."""

    def __init__(self, message: str, span: tuple):
        self.span = span
        super().__init__(f"{message} at bytes {span[0]}..{span[1]}")


# ---------------------------------------------------------------------------
# AST nodes.  Spans are (start_byte, end_byte) and never take part in
# structural equality, so round-tripping through the printer compares equal.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float
    span: tuple = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Var:
    name: str  # 't' or 'x'
    span: tuple = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Param:
    name: str
    span: tuple = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Neg:
    arg: "Node"
    span: tuple = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple
    span: tuple = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"
    span: tuple = field(default=(0, 0), compare=False, repr=False)


Node = Union[Const, Var, Param, Neg, Call, BinOp]

FUNCTIONS = {"sin": 1, "cos": 1, "abs": 1, "ln": 1, "exp": 1, "sqrt": 1, "floor": 1}
CONSTANTS = {"pi": math.pi, "e": math.e}
VARIABLES = ("t", "x")

_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = set("+-*/^(),")


def _byte_offsets(source: str):
    offs = [0]
    for ch in source:
        offs.append(offs[-1] + len(ch.encode("utf-8")))
    return offs


class _Token:
    __slots__ = ("kind", "text", "start", "end")

    def __init__(self, kind, text, start, end):
        self.kind = kind  # 'num' | 'name' | one of _OPS | 'end'
        self.text = text
        self.start = start  # byte offsets
        self.end = end


def _tokenize(source: str):
    offs = _byte_offsets(source)
    toks = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUMBER.match(source, i)
        if m:
            toks.append(_Token("num", m.group(), offs[i], offs[m.end()]))
            i = m.end()
            continue
        m = _NAME.match(source, i)
        if m:
            toks.append(_Token("name", m.group(), offs[i], offs[m.end()]))
            i = m.end()
            continue
        if ch in _OPS:
            toks.append(_Token(ch, ch, offs[i], offs[i + 1]))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", offs[i])
    toks.append(_Token("end", "", offs[n], offs[n]))
    return toks


_ATOM_EXPECTED = ("number", "name", "'('", "'-'")


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.toks = _tokenize(source)
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def advance(self) -> _Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            got = repr(tok.text) if tok.kind != "end" else "end of input"
            raise ParseError(f"unexpected {got}", tok.start, (f"'{kind}'",))
        return self.advance()

    def parse(self) -> Node:
        node = self.sum()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(
                f"unexpected {tok.text!r}", tok.start,
                ("operator", "end of input"))
        return node

    def sum(self) -> Node:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            node = BinOp(op.kind, node, rhs, (node.span[0], rhs.span[1]))
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.factor()
            node = BinOp(op.kind, node, rhs, (node.span[0], rhs.span[1]))
        return node

    def factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            arg = self.factor()
            return Neg(arg, (tok.start, arg.span[1]))
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            exponent = self.factor()  # right-associative; allows 2^-3
            return BinOp("^", base, exponent, (base.span[0], exponent.span[1]))
        return base

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(float(tok.text), (tok.start, tok.end))
        if tok.kind == "name":
            self.advance()
            if self.peek().kind == "(":
                if tok.text not in FUNCTIONS:
                    raise ParseError(f"unknown function {tok.text!r}", tok.start)
                self.advance()
                args = [self.sum()]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.sum())
                close = self.expect(")")
                arity = FUNCTIONS[tok.text]
                if len(args) != arity:
                    raise ParseError(
                        f"{tok.text} takes {arity} argument(s), got {len(args)}",
                        tok.start)
                return Call(tok.text, tuple(args), (tok.start, close.end))
            if tok.text in CONSTANTS:
                return Const(CONSTANTS[tok.text], (tok.start, tok.end))
            if tok.text in VARIABLES:
                return Var(tok.text, (tok.start, tok.end))
            return Param(tok.text, (tok.start, tok.end))
        if tok.kind == "(":
            self.advance()
            node = self.sum()
            close = self.expect(")")
            return _respan(node, (tok.start, close.end))
        got = repr(tok.text) if tok.kind != "end" else "end of input"
        raise ParseError(f"unexpected {got}", tok.start, _ATOM_EXPECTED)


def _respan(node: Node, span: tuple) -> Node:
    cls = type(node)
    d = {f: getattr(node, f) for f in node.__dataclass_fields__}
    d["span"] = span
    return cls(**d)


# ---------------------------------------------------------------------------
# Evaluation: compiled scalar closures and a vectorized numpy walker share the
# same domain guards.
# ---------------------------------------------------------------------------

def _pow_scalar(b: float, e: float, span: tuple) -> float:
    # Plain-float power raises OverflowError as the handler below expects;
    # numpy scalars would warn and return inf instead, so coerce first.
    b, e = float(b), float(e)
    if b == 0.0 and e < 0.0:
        raise EvalError("zero raised to a negative power", span)
    if b < 0.0 and not float(e).is_integer():
        raise EvalError("fractional power of a negative base", span)
    try:
        return float(b ** e)
    except OverflowError:
        neg = b < 0.0 and float(e).is_integer() and int(e) % 2 == 1
        return -math.inf if neg else math.inf


def _compile(node: Node, params: dict) -> Callable[[float, float], float]:
    if isinstance(node, Const):
        v = node.value
        return lambda t, x: v
    if isinstance(node, Var):
        if node.name == "t":
            return lambda t, x: t
        return lambda t, x: x
    if isinstance(node, Param):
        if node.name not in params:
            raise EvalError(f"unbound parameter {node.name!r}", node.span)
        v = float(params[node.name])
        return lambda t, x: v
    if isinstance(node, Neg):
        f = _compile(node.arg, params)
        return lambda t, x: -f(t, x)
    if isinstance(node, Call):
        a = _compile(node.args[0], params)
        span = node.span
        if node.func == "sin":
            return lambda t, x: math.sin(a(t, x))
        if node.func == "cos":
            return lambda t, x: math.cos(a(t, x))
        if node.func == "abs":
            return lambda t, x: abs(a(t, x))
        if node.func == "exp":
            def _exp(t, x):
                try:
                    return math.exp(a(t, x))
                except OverflowError:
                    return math.inf
            return _exp
        if node.func == "floor":
            return lambda t, x: float(math.floor(a(t, x)))
        if node.func == "ln":
            def _ln(t, x):
                v = a(t, x)
                if v <= 0.0:
                    raise EvalError(f"log of non-positive value {v!r}", span)
                return math.log(v)
            return _ln
        if node.func == "sqrt":
            def _sqrt(t, x):
                v = a(t, x)
                if v < 0.0:
                    raise EvalError(f"square root of negative value {v!r}", span)
                return math.sqrt(v)
            return _sqrt
        raise AssertionError(node.func)
    if isinstance(node, BinOp):
        lf = _compile(node.left, params)
        rf = _compile(node.right, params)
        span = node.span
        if node.op == "+":
            return lambda t, x: lf(t, x) + rf(t, x)
        if node.op == "-":
            return lambda t, x: lf(t, x) - rf(t, x)
        if node.op == "*":
            return lambda t, x: lf(t, x) * rf(t, x)
        if node.op == "/":
            def _div(t, x):
                d = rf(t, x)
                if d == 0.0:
                    raise EvalError("division by zero", span)
                return lf(t, x) / d
            return _div
        if node.op == "^":
            return lambda t, x: _pow_scalar(lf(t, x), rf(t, x), span)
    raise AssertionError(node)


def _eval_np(node: Node, t, x, params: dict):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return t if node.name == "t" else x
    if isinstance(node, Param):
        if node.name not in params:
            raise EvalError(f"unbound parameter {node.name!r}", node.span)
        return float(params[node.name])
    if isinstance(node, Neg):
        return -_eval_np(node.arg, t, x, params)
    if isinstance(node, Call):
        a = _eval_np(node.args[0], t, x, params)
        if node.func == "sin":
            return np.sin(a)
        if node.func == "cos":
            return np.cos(a)
        if node.func == "abs":
            return np.abs(a)
        if node.func == "exp":
            with np.errstate(over="ignore"):
                return np.exp(a)
        if node.func == "floor":
            return np.floor(a)
        if node.func == "ln":
            if np.any(np.asarray(a) <= 0.0):
                raise EvalError("log of non-positive value", node.span)
            return np.log(a)
        if node.func == "sqrt":
            if np.any(np.asarray(a) < 0.0):
                raise EvalError("square root of negative value", node.span)
            return np.sqrt(a)
        raise AssertionError(node.func)
    if isinstance(node, BinOp):
        l = _eval_np(node.left, t, x, params)
        r = _eval_np(node.right, t, x, params)
        if node.op == "+":
            return l + r
        if node.op == "-":
            return l - r
        if node.op == "*":
            with np.errstate(over="ignore", invalid="ignore"):
                return l * r
        if node.op == "/":
            if np.any(np.asarray(r) == 0.0):
                raise EvalError("division by zero", node.span)
            with np.errstate(over="ignore"):
                return l / r
        if node.op == "^":
            lb, rb = np.asarray(l, float), np.asarray(r, float)
            if np.any((lb == 0.0) & (rb < 0.0)):
                raise EvalError("zero raised to a negative power", node.span)
            if np.any((lb < 0.0) & (rb != np.floor(rb))):
                raise EvalError("fractional power of a negative base", node.span)
            with np.errstate(over="ignore", invalid="ignore"):
                out = np.power(lb, rb)
            return out
    raise AssertionError(node)


def _print(node: Node) -> str:
    """Fully parenthesized rendering; reparsing yields a structurally equal tree."""
    if isinstance(node, Const):
        if node.value < 0 or (node.value == 0.0 and math.copysign(1.0, node.value) < 0):
            # Negative literals never come out of the parser (unary minus makes
            # a Neg node); render synthesized ones as a negation so the text
            # reparses to the same value.
            return f"(-{abs(node.value)!r})"
        return repr(node.value)
    if isinstance(node, (Var, Param)):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_print(node.arg)})"
    if isinstance(node, Call):
        return f"{node.func}({', '.join(_print(a) for a in node.args)})"
    if isinstance(node, BinOp):
        return f"({_print(node.left)} {node.op} {_print(node.right)})"
    raise AssertionError(node)


def _param_names(node: Node, out: set):
    if isinstance(node, Param):
        out.add(node.name)
    elif isinstance(node, Neg):
        _param_names(node.arg, out)
    elif isinstance(node, Call):
        for a in node.args:
            _param_names(a, out)
    elif isinstance(node, BinOp):
        _param_names(node.left, out)
        _param_names(node.right, out)


def _transform(node: Node, fn) -> Node:
    """Bottom-up rewrite; fn(node) may return a replacement or None."""
    if isinstance(node, Neg):
        node = Neg(_transform(node.arg, fn), node.span)
    elif isinstance(node, Call):
        node = Call(node.func, tuple(_transform(a, fn) for a in node.args), node.span)
    elif isinstance(node, BinOp):
        node = BinOp(node.op, _transform(node.left, fn),
                     _transform(node.right, fn), node.span)
    repl = fn(node)
    return node if repl is None else repl


class Expression:
    """An immutable parsed expression in the variables t and x."""

    __slots__ = ("root", "source", "_params")

    def __init__(self, root: Node, source: str):
        self.root = root
        self.source = source
        names: set = set()
        _param_names(root, names)
        self._params = frozenset(names)

    @property
    def params(self) -> frozenset:
        """Names of free parameters (everything that is not t, x, pi or e)."""
        return self._params

    def bind(self, params: dict | None = None) -> Callable[[float, float], float]:
        """Compile to a scalar callable ``f(t, x)`` with all parameters fixed."""
        return _compile(self.root, dict(params or {}))

    def eval(self, t: float = 0.0, x: float = 0.0, **params) -> float:
        return float(self.bind(params)(float(t), float(x)))

    def eval_array(self, t, x=0.0, params: dict | None = None) -> np.ndarray:
        """Vectorized evaluation; t and x broadcast against each other."""
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        out = _eval_np(self.root, t, x, dict(params or {}))
        return np.broadcast_to(np.asarray(out, dtype=float),
                               np.broadcast_shapes(t.shape, x.shape)).copy()

    def to_text(self) -> str:
        return _print(self.root)

    def shift_t(self, h: float) -> "Expression":
        """Replace every occurrence of t by (t + h)."""
        if h == 0:
            return self
        op, mag = ("+", float(h)) if h > 0 else ("-", float(-h))

        def rule(node):
            if isinstance(node, Var) and node.name == "t":
                return BinOp(op, Var("t", node.span), Const(mag, node.span),
                             node.span)
            return None

        root = _transform(self.root, rule)
        return Expression(root, _print(root))

    def substitute_param(self, name: str, replacement: "Expression | Node") -> "Expression":
        """Replace a named parameter by another expression (or node)."""
        repl = replacement.root if isinstance(replacement, Expression) else replacement

        def rule(node):
            if isinstance(node, Param) and node.name == name:
                return repl
            return None

        root = _transform(self.root, rule)
        return Expression(root, _print(root))

    def __eq__(self, other):
        return isinstance(other, Expression) and self.root == other.root

    def __hash__(self):
        return hash(self.root)

    def __repr__(self):
        return f"Expression({self.source!r})"


def parse(source: str) -> Expression:
    """Parse source text into an :class:`Expression`.

    Raises :class:`ParseError` with a 0-based byte offset on any syntax
    problem, unknown function name, or function arity mismatch.
    """
    if not isinstance(source, str):
        raise TypeError("expression source must be str")
    return Expression(_Parser(source).parse(), source)
