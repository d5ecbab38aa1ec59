import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rapflow import expr
from rapflow.expr import BinOp, Call, Const, EvalError, Neg, Param, ParseError, Var, parse

from _golden import GOLDEN_EXPRESSIONS


# ---------------------------------------------------------------------------
# parsing and precedence
# ---------------------------------------------------------------------------

def test_parse_simple_number():
    e = parse("3.5")
    assert e.root == Const(3.5)


def test_parse_builtin_constants():
    assert parse("pi").root == Const(math.pi)
    assert parse("e").root == Const(math.e)


def test_variables_and_params():
    e = parse("mu*x + t")
    assert e.params == frozenset({"mu"})
    assert parse("t").root == Var("t")
    assert parse("zeta").root == Param("zeta")


@pytest.mark.parametrize("a,b", [
    ("a+b*c", "a+(b*c)"),
    ("a*b+c", "(a*b)+c"),
    ("a-b-c", "(a-b)-c"),
    ("a/b/c", "(a/b)/c"),
    ("2^3^2", "2^(3^2)"),
    ("-x^2", "-(x^2)"),
    ("-a*b", "(-a)*b"),
    ("a--b", "a-(-b)"),
    ("a^-b", "a^(-b)"),
    ("-a^-b", "-(a^(-b))"),
])
def test_precedence(a, b):
    assert parse(a) == parse(b), f"{a!r} should parse like {b!r}"


def test_equal_expressions_hash_alike():
    a, b = parse("x+1"), parse("(x + 1)")
    assert a == b and a.source != b.source
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_power_right_associative_value():
    assert parse("2^3^2").eval() == 512.0
    assert parse("2^-3").eval() == 0.125


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("2t")
    with pytest.raises(ParseError):
        parse("2 x")


@pytest.mark.parametrize("src", ["", "1+", "(1", "sin(", "1)", "*3", "1..2", "a b"])
def test_syntax_errors(src):
    with pytest.raises(ParseError):
        parse(src)


def test_error_byte_offsets():
    with pytest.raises(ParseError) as exc:
        parse("1+#")
    assert exc.value.offset == 2
    with pytest.raises(ParseError) as exc:
        parse("(1+2")
    assert exc.value.offset == 4
    # non-ascii characters count in utf-8 bytes
    with pytest.raises(ParseError) as exc:
        parse("π+π")  # two-byte pi characters
    assert exc.value.offset == 0


def test_error_expected_set():
    with pytest.raises(ParseError) as exc:
        parse("1+*2")
    assert "'('" in exc.value.expected
    assert "number" in exc.value.expected


def test_unknown_function_and_arity():
    with pytest.raises(ParseError) as exc:
        parse("foo(1)")
    assert exc.value.offset == 0
    with pytest.raises(ParseError):
        parse("sin(1,2)")
    with pytest.raises(ParseError):
        parse("tan(t)")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_basic():
    assert parse("x").eval(t=3.0, x=7.0) == 7.0
    assert parse("t-x").eval(t=10.0, x=4.0) == 6.0
    assert parse("floor(2.7)").eval() == 2.0
    assert parse("floor(-2.5)+floor(2.5)").eval() == -1.0


def test_eval_chirp_rhs_at_zero():
    # the time-derivative of sin((t^2+pi^3)^(1/3)) vanishes at t=0
    f = parse("2*t*cos((t^2+pi^3)^(1/3))/(3*(t^2+pi^3)^(2/3))")
    assert f.eval(t=0.0, x=123.0) == 0.0


def test_eval_chirp_curve_at_zero():
    v = parse("x0 + sin((t^2+pi^3)^(1/3))").eval(t=0.0, x0=0.0)
    assert abs(v) <= 1e-15


def test_eval_log_expression():
    v = parse("sin(ln(1+abs(t)))").eval(t=math.exp(math.pi / 2) - 1.0)
    assert abs(v - 1.0) <= 1e-12


def test_unbound_parameter():
    with pytest.raises(EvalError) as exc:
        parse("mu*x").eval(x=1.0)
    assert "mu" in str(exc.value)


@pytest.mark.parametrize("src,kwargs", [
    ("1/x", {"x": 0.0}),
    ("ln(x)", {"x": 0.0}),
    ("ln(x)", {"x": -2.0}),
    ("sqrt(x)", {"x": -1.0}),
    ("x^0.5", {"x": -4.0}),
    ("0^x", {"x": -1.0}),
])
def test_eval_domain_errors(src, kwargs):
    with pytest.raises(EvalError):
        parse(src).eval(**kwargs)


def test_domain_error_span():
    with pytest.raises(EvalError) as exc:
        parse("1 + 1/x").eval(x=0.0)
    start, end = exc.value.span
    assert "1 + 1/x"[start:end] == "1/x"


def test_negative_base_integer_power_ok():
    assert parse("x^3").eval(x=-2.0) == -8.0
    assert parse("x^2").eval(x=-2.0) == 4.0


def test_overflow_goes_to_inf():
    assert parse("exp(x)").eval(x=1e4) == math.inf
    assert math.isinf(parse("x^x").eval(x=1e8))


def test_eval_deterministic():
    f = parse("sin(t)*exp(-x) + t^2/(1+x^2)")
    a = f.eval(t=1.2345, x=0.6789)
    for _ in range(5):
        assert f.eval(t=1.2345, x=0.6789) == a


def test_eval_array_matches_scalar():
    f = parse("sin(t) + mu*x^2")
    ts = np.linspace(-3, 3, 41)
    xs = np.linspace(-2, 2, 41)
    arr = f.eval_array(ts, xs, params={"mu": 0.5})
    g = f.bind({"mu": 0.5})
    for i in range(len(ts)):
        assert arr[i] == pytest.approx(g(ts[i], xs[i]), abs=0.0, rel=0.0)


def test_eval_array_domain_error():
    with pytest.raises(EvalError):
        parse("ln(t)").eval_array(np.array([1.0, 0.5, -0.1]))


# ---------------------------------------------------------------------------
# printing and round trips
# ---------------------------------------------------------------------------

def test_print_fully_parenthesized():
    assert parse("1+2*3").to_text() == "(1.0 + (2.0 * 3.0))"
    assert parse("-x^2").to_text() == "(-(x ^ 2.0))"
    assert parse("sin(t)").to_text() == "sin(t)"


@pytest.mark.parametrize("src", GOLDEN_EXPRESSIONS)
def test_golden_round_trip(src):
    first = parse(src)
    printed = first.to_text()
    again = parse(printed)
    assert again == first, f"round trip changed the tree for {src!r}"
    assert parse(again.to_text()) == again


def test_shift_t():
    f = parse("sin(t) + x")
    g = f.shift_t(2.5)
    for t in (-3.0, 0.0, 1.7):
        assert g.eval(t=t, x=0.25) == f.eval(t=t + 2.5, x=0.25)
    assert f.shift_t(0.0) is f
    h = f.shift_t(-4.0)
    assert h.eval(t=4.0) == f.eval(t=0.0)


def test_substitute_param():
    f = parse("mu*K*x/(K+(mu-1)*x)")
    g = f.substitute_param("K", parse("10+sin(ln(1+t))"))
    assert "K" not in g.params
    K5 = 10 + math.sin(math.log(6.0))
    assert g.eval(t=5.0, x=2.0, mu=2.0) == pytest.approx(
        2.0 * K5 * 2.0 / (K5 + 2.0), rel=1e-15)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
      .map(lambda v: Const(float(v))),
    st.sampled_from([Var("t"), Var("x"), Param("a"), Param("b_2"), Const(math.pi)]),
)


def _trees(children):
    unary = st.one_of(
        children.map(lambda a: Neg(a)),
        st.tuples(st.sampled_from(sorted(expr.FUNCTIONS)), children)
          .map(lambda p: Call(p[0], (p[1],))),
    )
    binary = st.tuples(st.sampled_from("+-*/^"), children, children).map(
        lambda p: BinOp(p[0], p[1], p[2]))
    return st.one_of(unary, binary)


_tree = st.recursive(_leaf, _trees, max_leaves=25)


@given(_tree)
@settings(max_examples=200, deadline=None)
def test_round_trip_random_trees(root):
    e = expr.Expression(root, "<synthetic>")
    printed = e.to_text()
    assert parse(printed).root == root, f"printed form {printed!r} did not round trip"


@given(st.text(max_size=60))
@settings(max_examples=300, deadline=None)
def test_fuzz_parse_never_crashes(s):
    try:
        e = parse(s)
    except ParseError:
        return
    # valid parses must render and reparse
    assert parse(e.to_text()) == e


@given(st.binary(max_size=40))
@settings(max_examples=200, deadline=None)
def test_fuzz_bytes_never_crash(bs):
    s = bs.decode("utf-8", errors="replace")
    try:
        parse(s)
    except ParseError:
        pass
