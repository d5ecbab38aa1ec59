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

Each expression is compiled once per backend into straight-line Python
source: :meth:`Expression.bind` returns a scalar evaluator built on
:mod:`math`, :meth:`Expression.eval_array` evaluates over numpy arrays, and
:meth:`Expression.eval_array_dt` also returns the t-derivative, formed node
by node in the same pass (forward mode).  :meth:`Expression.loop` compiles
a loop written around rhs evaluations with the scalar evaluator's
statements in place of each, so a loop that evaluates the rhs at every
step makes no Python call for it.
The scalar evaluator computes each distinct subexpression once, in the order
the tree evaluates it, and reuses its value where it recurs; one of
parameters alone is computed once per binding, by the factory.  When a power
has t or x in its base or exponent, the evaluator first makes that variable
a Python float, so the power is raised inline with ``**`` and only falls back
to a helper for the cases that need a guard or overflow.
"""

from __future__ import annotations

import math
import re
import textwrap
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
# Evaluation: one emitter writes an expression as straight-line Python source
# for three backends: "scalar" computes on floats with math, one temporary per
# distinct subexpression; "array" on broadcast numpy arrays, one temporary per
# node; "array_dt" is "array" plus each node's t-derivative (forward mode).
# All keep the domain guards, messages, spans and evaluation order of the
# tree.  The source is compiled once per expression and backend as a
# factory whose arguments are the parameter values; binding parameters only
# calls the factory.  The scalar statements are also written into loop
# templates (Expression.loop), once at each rhs evaluation the loop marks.
# ---------------------------------------------------------------------------

def _pow_scalar(b: float, e: float, span: tuple) -> float:
    """b ** e on Python floats, with the domain guards and overflow to inf."""
    if b == 0.0 and e < 0.0:
        raise EvalError("zero raised to a negative power", span)
    if b < 0.0 and not e.is_integer():
        raise EvalError("fractional power of a negative base", span)
    try:
        return b ** e
    except OverflowError:
        neg = b < 0.0 and e.is_integer() and int(e) % 2 == 1
        return -math.inf if neg else math.inf


_UNBOUND = object()  # stands in for a missing parameter in the array backend

_COMMON = {"_EvalError": EvalError, "_inf": math.inf, "_nan": math.nan}
_NAMESPACES = {
    "scalar": dict(_COMMON, _sin=math.sin, _cos=math.cos, _abs=abs,
                   _exp=math.exp, _log=math.log, _sqrt=math.sqrt,
                   _floor=math.floor, _copysign=math.copysign,
                   _float=float, _pow=_pow_scalar),
    "array": dict(_COMMON, _sin=np.sin, _cos=np.cos, _abs=np.abs,
                  _exp=np.exp, _log=np.log, _sqrt=np.sqrt, _floor=np.floor,
                  _power=np.power, _any=np.any, _asarray=np.asarray,
                  _errstate=np.errstate, _UNBOUND=_UNBOUND),
}
_NAMESPACES["array_dt"] = dict(_NAMESPACES["array"], _sign=np.sign)


def _has_vars(node: Node) -> bool:
    return any(isinstance(n, (Var, Param)) for n in _walk(node))


def _params_only(node: Node) -> bool:
    """node holds a parameter and neither t nor x."""
    kinds = {type(n) for n in _walk(node)}
    return Param in kinds and Var not in kinds


def _power_vars(root: Node) -> list:
    """The variables, in sorted order, that occur in the base or exponent of
    some power; the scalar evaluator makes each a Python float on entry."""
    return sorted({v.name for p in _walk(root)
                   if isinstance(p, BinOp) and p.op == "^"
                   for v in _walk(p) if isinstance(v, Var)})


def _literal(value) -> str:
    value = float(value)
    if math.isnan(value):
        return "_nan"
    if math.isinf(value):
        return "_inf" if value > 0 else "(-_inf)"
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


# Derivative texts of the array_dt backend: None stands for a derivative that
# is 0 everywhere and "1.0" for one that is 1 (that of t).  The derivative
# rules pass these helpers names, literals, calls and products, never a sum
# to negate or multiply, so neither needs parentheses.

def _mul(a, b):
    """Text of a * b."""
    if a is None or b is None:
        return None
    return b if a == "1.0" else a if b == "1.0" else f"{a} * {b}"


def _add(a, b, op: str = "+"):
    """Text of a + b, or of a - b with op "-"."""
    if b is None:
        return a
    if a is None:
        return b if op == "+" else f"-{b}"
    return f"{a} {op} {b}"


class _Emitter:
    """Statements of one backend's evaluator.

    With ``fold`` set, a subtree without t, x or parameters is evaluated
    once at compile time by this same backend and emitted as a literal;
    one that raises is left in place to raise when evaluation reaches it.

    The scalar backend emits each distinct subtree once and reuses its value
    where the subtree recurs.  Subtrees are told apart by their printed form,
    which separates 0.0 from -0.0 as node equality does not.  Where a
    repeated subtree would fail, its first occurrence has already raised, so
    the failing node and its span are those of the tree's own evaluation
    order.  With ``hoist`` set, a subtree of parameters and constants only
    goes to ``pre``, the statements the factory runs once per binding.  The
    array backend gives every inner node a temporary and frees each one once
    it is consumed.

    The array_dt backend is the array backend with a derivative mode: after
    each node's value statements, which are the array backend's, it emits
    the node's t-derivative from its operands' values and derivatives, with
    floating-point warnings off; it raises nothing.  An operand's
    temporaries are freed once its parent's derivative is computed.
    """

    def __init__(self, backend: str, args: dict, fold: bool,
                 hoist: bool = False):
        self.backend = backend
        self.array = backend != "scalar"
        self.deriv = backend == "array_dt"
        self.args = args  # parameter name -> argument name in the source
        self.fold = fold
        self.hoist = hoist
        self.lines: list = []
        self.pre: list = []
        self.hoisting = False  # emitting into pre
        self.count = 0
        self.live: list = []  # temporaries not yet consumed, oldest first
        self.memo: dict = {}  # printed subtree -> text of its value (scalar)
        # printed subtree -> its temporary in the factory; never unset, so
        # never dropped from the memo
        self.hoisted: dict = {}
        # text of a value -> text of its t-derivative (array_dt); a missing
        # value's derivative is 0
        self.dt: dict = {"t": "1.0"}

    def temp(self) -> str:
        self.count += 1
        self.live.append(f"v{self.count}")
        return self.live[-1]

    def guard(self, test: str, message: str, span: tuple):
        """Raise EvalError(message, span) when test holds; message is source."""
        self.lines += [f"if {test}:", f"    raise _EvalError({message}, {span!r})"]

    def emit(self, node: Node) -> str:
        """Append the statements computing node; return the text of its value."""
        if isinstance(node, Const):
            return _literal(node.value)
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Param):
            arg = self.args[node.name]
            if self.array:
                self.guard(f"{arg} is _UNBOUND",
                           repr(f"unbound parameter {node.name!r}"), node.span)
            return arg
        if self.array:
            return self.inner(node)
        key = _print(node)
        value = self.hoisted.get(key) or self.memo.get(key)
        if value is not None:
            return value
        if self.hoisting or not (self.hoist and _params_only(node)):
            memo = self.hoisted if self.hoisting else self.memo
            value = memo[key] = self.inner(node)
            return value
        self.hoisting, body, self.lines = True, self.lines, self.pre
        value = self.hoisted[key] = self.inner(node)
        self.hoisting, self.lines = False, body
        return value

    def inner(self, node: Node) -> str:
        """emit for a Neg, Call or BinOp node."""
        if self.fold and not _has_vars(node):
            try:
                value = _build(node, "array" if self.array else "scalar",
                               fold=False)[0]()(0.0, 0.0)
            except (ArithmeticError, ValueError):
                pass
            else:
                return _literal(value)
        out = self.temp()
        depth = len(self.live)
        if isinstance(node, Neg):
            arg = self.emit(node.arg)
            self.lines.append(f"{out} = -{arg}")
            operands = (arg,)
        elif isinstance(node, Call):
            operands = self.call(out, node)
        elif self.array:
            operands = self.array_binop(out, node)
        else:
            self.scalar_binop(out, node)
        derivative = self.derive(out, node, *operands) if self.deriv else None
        spent, self.live[depth:] = self.live[depth:], []
        spent = [v for v in spent if v != derivative]
        if self.array and spent:
            # free consumed arrays at once, so no more of them are alive
            # together than a recursive walk of the tree would hold
            self.lines.append(f"del {', '.join(spent)}")
        if derivative:
            self.live.append(derivative)
        return out

    def derive(self, out: str, node: Node, a: str, r: str = "",
               lb: str = "", rb: str = ""):
        """Append the statement of out's t-derivative; return the temporary
        that holds it, or None when the derivative is 0 or 1 everywhere.  An
        operand's derivative that passes through unchanged, as in u + 1,
        keeps its temporary.

        ``a`` is the value of the first operand and ``r`` that of a binary
        node's second; ``lb`` and ``rb`` are a power's float operands.
        """
        da = self.dt.get(a)
        dr = self.dt.get(r)
        if isinstance(node, Neg):
            text = _add(None, da, "-")
        elif isinstance(node, Call):
            text = {
                "sin": _mul(f"_cos({a})", da),
                "cos": _mul(f"-_sin({a})", da),
                "exp": _mul(out, da),
                "ln": da and f"{da} / {a}",
                "sqrt": da and f"{da} / (2.0 * {out})",
                # 0 at a kink, as sign(0) is 0
                "abs": _mul(f"_sign({a})", da),
                "floor": None,
            }[node.func]
        elif node.op in "+-":
            text = _add(da, dr, node.op)
        elif node.op == "*":
            text = _add(_mul(da, r), _mul(a, dr))
        elif node.op == "/":
            num = _add(da, _mul(out, dr), "-")
            text = num and f"({num}) / {r}"
        elif dr is None:
            # a constant exponent c: c * u^(c-1) * du
            text = (da if r == "1.0" else _mul(f"2.0 * {lb}", da)
                    if r == "2.0" else _mul(f"{rb} * _power({lb}, {rb} - 1.0)", da))
        else:
            # v * (dr * ln u + r * du / u)
            du = da and f"{_mul(rb, da)} / {lb}"
            text = f"{out} * ({_add(_mul(dr, f'_log({lb})'), du)})"
        if text is None or text == "1.0":
            if text:
                self.dt[out] = text
            return None
        if text != out and text in self.live:
            self.dt[out] = text
            return text
        name = self.dt[out] = "d" + out[1:]
        self.lines += ['with _errstate(all="ignore"):', f"    {name} = {text}"]
        return name

    def call(self, out: str, node: Call):
        func, span = node.func, node.span
        if func == "exp" and not self.array:
            # the handler covers the argument too: an OverflowError raised
            # anywhere inside it also gives inf.  A temporary assigned in
            # the try block may be unset after it, so none is reused there.
            outer, self.lines = self.lines, []
            memo = dict(self.memo)
            a = self.emit(node.args[0])
            inner, self.lines = self.lines, outer
            self.memo = memo
            self.lines += ["try:", *("    " + line for line in inner),
                           f"    {out} = _exp({a})",
                           "except OverflowError:", f"    {out} = _inf"]
            return
        a = self.emit(node.args[0])
        lines = self.lines
        if func in ("ln", "sqrt"):
            test, what, fn = (("<= 0.0", "log of non-positive value", "_log")
                              if func == "ln" else
                              ("< 0.0", "square root of negative value", "_sqrt"))
            if self.array:
                self.guard(f"_any(_asarray({a}) {test})", repr(what), span)
            else:
                self.guard(f"{a} {test}", f"{what + ' '!r} + repr({a})", span)
            lines.append(f"{out} = {fn}({a})")
        elif func == "exp":
            lines += ['with _errstate(over="ignore"):', f"    {out} = _exp({a})"]
        elif func == "floor" and not self.array:
            # math.floor rejects inf and nan; as in numpy, each is its own
            # floor.  copysign keeps the sign of a zero, as numpy does
            lines += ["try:", f"    {out} = _copysign(_floor({a}), {a})",
                      "except (OverflowError, ValueError):",
                      f"    {out} = _float({a})"]
        elif func in ("sin", "cos") and not self.array:
            # math.sin and math.cos reject an infinite argument; numpy gives
            # nan
            lines += ["try:", f"    {out} = _{func}({a})",
                      "except ValueError:", f"    {out} = _nan"]
        else:
            lines.append(f"{out} = _{func}({a})")
        return (a,)

    def scalar_binop(self, out: str, node: BinOp):
        lines, span = self.lines, node.span
        if node.op == "/":
            # the denominator is evaluated and checked before the numerator
            r = self.emit(node.right)
            self.guard(f"{r} == 0.0", repr("division by zero"), span)
            l = self.emit(node.left)
            lines.append(f"{out} = {l} / {r}")
            return
        l = self.emit(node.left)
        r = self.emit(node.right)
        # both operands of a power are Python floats: the evaluator makes
        # each variable in one a float on entry, and parameters are bound
        # as floats
        if node.op != "^":
            lines.append(f"{out} = {l} {node.op} {r}")
        elif (isinstance(node.right, Const) and node.right.value >= 0.0
              and node.right.value.is_integer()):
            # a whole, non-negative exponent cannot fail a guard for any
            # base; _pow_scalar gives the signed inf of an overflow
            lines += ["try:", f"    {out} = {l} ** {r}",
                      "except OverflowError:",
                      f"    {out} = _pow({l}, {r}, {span!r})"]
        else:
            # a positive base cannot fail a guard; overflow goes to inf as in
            # _pow_scalar
            lines += [f"if {l} > 0.0:", "    try:", f"        {out} = {l} ** {r}",
                      "    except OverflowError:", f"        {out} = _inf",
                      "else:", f"    {out} = _pow({l}, {r}, {span!r})"]

    def array_binop(self, out: str, node: BinOp):
        lines, span = self.lines, node.span
        l = self.emit(node.left)
        r = self.emit(node.right)
        if node.op in "+-":
            lines.append(f"{out} = {l} {node.op} {r}")
        elif node.op == "*":
            lines += ['with _errstate(over="ignore", invalid="ignore"):',
                      f"    {out} = {l} * {r}"]
        elif node.op == "/":
            self.guard(f"_any(_asarray({r}) == 0.0)", repr("division by zero"),
                       span)
            lines += ['with _errstate(over="ignore"):', f"    {out} = {l} / {r}"]
        else:
            lb, rb = self.temp(), self.temp()
            lines += [f"{lb} = _asarray({l}, float)", f"{rb} = _asarray({r}, float)"]
            self.guard(f"_any(({lb} == 0.0) & ({rb} < 0.0))",
                       repr("zero raised to a negative power"), span)
            self.guard(f"_any(({lb} < 0.0) & ({rb} != _floor({rb})))",
                       repr("fractional power of a negative base"), span)
            lines += ['with _errstate(over="ignore", invalid="ignore"):',
                      f"    {out} = _power({lb}, {rb})"]
            return l, r, lb, rb
        return l, r


# a line of a loop template that evaluates the rhs at t and x into a name
_RHS_LINE = re.compile(r"^( *)(\w+) = f\(t, x\)$", re.M)


def _build(root: Node, backend: str, fold: bool = True,
           template: str | None = None, names: dict | None = None):
    """Compile root for a backend: (factory, parameter names, their spans).

    ``factory(*values)`` takes the parameter values in the order of the
    names and returns the evaluator ``f(t, x)``.  Names are in order of
    first occurrence, left to right, and each span is that occurrence's.
    With a ``template`` (scalar backend only) the factory returns the
    function the template defines instead, each of its lines
    ``<name> = f(t, x)`` replaced by the evaluator's statements and
    ``<name> = <value>``, and ``names`` joins its globals; see
    :meth:`Expression.loop`.
    """
    first: dict = {}
    for p in _param_nodes(root):
        first.setdefault(p.name, p.span)
    args = {name: f"p{i}" for i, name in enumerate(first)}

    def evaluator(hoist: bool, indent: str):
        em = _Emitter(backend, args, fold, hoist)
        if backend == "scalar" and template is None:
            em.lines += [f"{v} = _float({v})" for v in _power_vars(root)]
        result = em.emit(root)
        if em.deriv:
            result += f", {em.dt.get(result, '0.0')}"
        pre = "".join(f"{indent}    {line}\n" for line in em.pre)
        if template is None:
            body = "".join(f"{indent}    {line}\n" for line in em.lines)
            return (f"{indent}def f(t, x):\n{body}"
                    f"{indent}    return {result}\n{indent}return f\n"), pre

        def rhs(m):
            return "\n".join(f"{m[1]}{line}"
                             for line in [*em.lines, f"{m[2]} = {result}"])
        name = re.match(r"def (\w+)\(", template)[1]
        body = _RHS_LINE.sub(rhs, textwrap.indent(template, indent))
        return f"{body}{indent}return {name}\n", pre

    source = f"def _make({', '.join(args.values())}):\n"
    f, pre = evaluator(backend == "scalar", "    ")
    if pre:
        # the parameter-only subtrees are computed here, once; if one
        # fails, f evaluates the whole tree, so it raises what and where
        # the tree does, when it is called
        plain, _ = evaluator(False, "        ")
        source += (f"    try:\n{pre}"
                   f"    except (ArithmeticError, ValueError):\n{plain}")
    source += f
    namespace = dict(_NAMESPACES[backend], **(names or {}))
    exec(compile(source, f"<expression, {backend}>", "exec"), namespace)
    return namespace["_make"], tuple(first), tuple(first.values())


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


def _walk(node: Node):
    """node and all its descendants in preorder, left to right."""
    yield node
    if isinstance(node, Neg):
        yield from _walk(node.arg)
    elif isinstance(node, Call):
        for a in node.args:
            yield from _walk(a)
    elif isinstance(node, BinOp):
        yield from _walk(node.left)
        yield from _walk(node.right)


def _param_nodes(node: Node):
    """Param nodes in preorder, left to right."""
    return (n for n in _walk(node) if isinstance(n, Param))


class Expression:
    """An immutable parsed expression in the variables t and x."""

    __slots__ = ("root", "source", "_params", "_code")

    def __init__(self, root: Node, source: str):
        self.root = root
        self.source = source
        self._params = frozenset(p.name for p in _param_nodes(root))
        self._code = {}  # backend -> what _build returns

    @property
    def params(self) -> frozenset:
        """Names of free parameters (everything that is not t, x, pi or e)."""
        return self._params

    def _compiled(self, backend: str, template: str | None = None,
                  names: dict | None = None):
        key = backend if template is None else (template, *names.items())
        built = self._code.get(key)
        if built is None:
            built = self._code[key] = _build(self.root, backend,
                                             template=template, names=names)
        return built

    @staticmethod
    def _scalar_factory(built, params: dict | None):
        make, names, spans = built
        params = params or {}
        try:
            return make(*[float(params[n]) for n in names])
        except KeyError:
            i = next(i for i, n in enumerate(names) if n not in params)
            raise EvalError(f"unbound parameter {names[i]!r}", spans[i]) from None

    def bind(self, params: dict | None = None) -> Callable[[float, float], float]:
        """Scalar callable ``f(t, x)`` with all parameters fixed."""
        return self._scalar_factory(self._compiled("scalar"), params)

    def loop(self, template: str, params: dict | None = None,
             names: dict | None = None) -> Callable:
        """The function ``template`` defines, with this expression written in.

        ``template`` is the source of one function, starting at column 0
        with ``def``.  Each of its lines ``<name> = f(t, x)`` becomes the
        statements of :meth:`bind`'s evaluator, reading the template's
        variables ``t`` and ``x``, followed by ``<name> = <value>``.  So the
        rhs is evaluated without a call, with the values, errors and spans
        of :meth:`bind`'s evaluator, provided ``t`` and ``x`` hold Python
        floats: unlike it, the statements do not convert them.  The
        template's own names must not be those of the statements'
        temporaries (``v`` or ``p`` followed by digits).  ``names`` are
        further globals the template reads.  Parameters are bound as by
        :meth:`bind`; the template is compiled once per expression,
        template and names.
        """
        return self._scalar_factory(
            self._compiled("scalar", template, names or {}), params)

    def eval_array(self, t, x=0.0, params: dict | None = None) -> np.ndarray:
        """Vectorized evaluation; t and x broadcast against each other."""
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        make, names, _ = self._compiled("array")
        params = params or {}
        out = make(*[float(params[n]) if n in params else _UNBOUND
                     for n in names])(t, x)
        return np.broadcast_to(np.asarray(out, dtype=float),
                               np.broadcast_shapes(t.shape, x.shape)).copy()

    def eval_array_dt(self, t, params: dict | None = None) -> tuple:
        """Values and exact t-derivatives at times t, with x = 0, in one pass.

        The values are those of :meth:`eval_array`, bit for bit, with its
        errors and spans.  Each node's derivative is formed from its
        operands' values and derivatives (forward mode): constants,
        parameters, x and floor have derivative 0, and abs has sign(u)*du,
        so 0 at a kink.  Where the derivative does not exist or overflows,
        as for sqrt at 0, it is not finite; forming it raises nothing.
        """
        t = np.asarray(t, dtype=float)
        make, names, _ = self._compiled("array_dt")
        params = params or {}
        out = make(*[float(params[n]) if n in params else _UNBOUND
                     for n in names])(t, np.asarray(0.0))
        return tuple(np.broadcast_to(np.asarray(v, dtype=float), t.shape).copy()
                     for v in out)

    def prepare_arrays(self) -> None:
        """Compile the evaluators of :meth:`eval_array` and
        :meth:`eval_array_dt` now, so threads that call them later share
        one compilation instead of each making its own."""
        self._compiled("array")
        self._compiled("array_dt")

    def to_text(self) -> str:
        return _print(self.root)

    def __eq__(self, other):
        return isinstance(other, Expression) and self.root == other.root

    def __hash__(self):
        return hash(self.root)

    def __reduce__(self):
        # the compiled code does not pickle; it is rebuilt on first use
        return Expression, (self.root, self.source)

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
