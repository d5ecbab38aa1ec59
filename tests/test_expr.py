import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    assert parse("2^3^2").bind()(0.0, 0.0) == 512.0
    assert parse("2^-3").bind()(0.0, 0.0) == 0.125


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
    assert parse("x").bind()(3.0, 7.0) == 7.0
    assert parse("t-x").bind()(10.0, 4.0) == 6.0
    assert parse("floor(2.7)").bind()(0.0, 0.0) == 2.0
    assert parse("floor(-2.5)+floor(2.5)").bind()(0.0, 0.0) == -1.0


def test_eval_chirp_rhs_at_zero():
    # the time-derivative of sin((t^2+pi^3)^(1/3)) vanishes at t=0
    f = parse("2*t*cos((t^2+pi^3)^(1/3))/(3*(t^2+pi^3)^(2/3))")
    assert f.bind()(0.0, 123.0) == 0.0


def test_eval_chirp_curve_at_zero():
    v = parse("x0 + sin((t^2+pi^3)^(1/3))").bind({"x0": 0.0})(0.0, 0.0)
    assert abs(v) <= 1e-15


def test_eval_log_expression():
    v = parse("sin(ln(1+abs(t)))").bind()(math.exp(math.pi / 2) - 1.0, 0.0)
    assert abs(v - 1.0) <= 1e-12


def test_unbound_parameter():
    with pytest.raises(EvalError) as exc:
        parse("mu*x").bind()
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
        parse(src).bind()(0.0, kwargs["x"])


def test_domain_error_span():
    with pytest.raises(EvalError) as exc:
        parse("1 + 1/x").bind()(0.0, 0.0)
    start, end = exc.value.span
    assert "1 + 1/x"[start:end] == "1/x"


def test_negative_base_integer_power_ok():
    assert parse("x^3").bind()(0.0, -2.0) == -8.0
    assert parse("x^2").bind()(0.0, -2.0) == 4.0


def test_overflow_goes_to_inf():
    assert parse("exp(x)").bind()(0.0, 1e4) == math.inf
    assert math.isinf(parse("x^x").bind()(0.0, 1e8))


def test_eval_deterministic():
    f = parse("sin(t)*exp(-x) + t^2/(1+x^2)").bind()
    a = f(1.2345, 0.6789)
    for _ in range(5):
        assert f(1.2345, 0.6789) == a


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


def test_bound_parameters_stay_with_their_callable():
    e = parse("mu*x")
    f1, f2 = e.bind({"mu": 1.0}), e.bind({"mu": 2.0})
    assert (f1(0.0, 3.0), f2(0.0, 3.0)) == (3.0, 6.0)


def test_failing_constant_subtree_raises_at_evaluation():
    e = parse("x + 1/(1-1)")
    f = e.bind()
    with pytest.raises(EvalError) as exc:
        f(0.0, 1.0)
    assert exc.value.span == (4, 11)
    with pytest.raises(EvalError) as exc:
        e.eval_array(np.zeros(3), np.ones(3))
    assert exc.value.span == (4, 11)


def test_overflow_inside_an_exp_argument_gives_inf():
    assert parse("exp(floor(t))").bind()(math.inf, 0.0) == math.inf


@pytest.mark.parametrize("src,t,x,expected", [
    ("x^x", 0, 3, 27.0),
    ("(t+1)^2", 1, 0, 4.0),
    ("x^0.5", 0, np.float64(4.0), 2.0),
])
def test_powers_of_int_and_numpy_inputs_are_floats(src, t, x, expected):
    v = parse(src).bind()(t, x)
    assert type(v) is float and v == expected


def test_expression_pickles_after_evaluation():
    e = parse("mu*sin(t) + x")
    assert e.bind({"mu": 0.5})(1.0, 2.0) == 0.5 * math.sin(1.0) + 2.0
    again = pickle.loads(pickle.dumps(e))
    assert again == e and again.source == e.source
    assert again.bind({"mu": 0.5})(1.0, 2.0) == e.bind({"mu": 0.5})(1.0, 2.0)


# ---------------------------------------------------------------------------
# the scalar (math) and array (numpy) backends
# ---------------------------------------------------------------------------

def _rounds(node):
    """Whether math and numpy may round this node apart: sin/cos/exp/ln, ^."""
    return (isinstance(node, Call) and node.func in ("sin", "cos", "exp", "ln")
            or isinstance(node, BinOp) and node.op == "^")


def _children(node):
    if isinstance(node, Neg):
        return (node.arg,)
    if isinstance(node, Call):
        return node.args
    if isinstance(node, BinOp):
        return (node.left, node.right)
    return ()


def _rounding_nodes(node):
    return _rounds(node) + sum(_rounding_nodes(k) for k in _children(node))


def _outcome(fn):
    try:
        return float(fn())
    except EvalError as err:
        return err


_moderate = st.floats(min_value=-100.0, max_value=100.0)


@given(src=st.sampled_from(GOLDEN_EXPRESSIONS), t=_moderate, x=_moderate,
       p=st.floats(min_value=-5.0, max_value=5.0))
@example(src="floor(t)", t=-0.0, x=0.0, p=0.0)
@example(src="floor(t/2)", t=-0.0, x=0.0, p=0.0)
@settings(max_examples=600, deadline=None)
def test_scalar_and_array_backends_agree_on_golden(src, t, x, p):
    e = parse(src)
    params = {name: p for name in e.params}
    scalar = _outcome(lambda: e.bind(params)(t, x))
    array = _outcome(lambda: e.eval_array(t, x, params))
    if isinstance(scalar, EvalError):
        assert isinstance(array, EvalError) and array.span == scalar.span
        return
    assert not isinstance(array, EvalError), array
    rounding = _rounding_nodes(e.root)
    if rounding == 0:
        # same operations in the same order: bit-identical, signed zeros too
        assert np.float64(scalar).tobytes() == np.float64(array).tobytes()
    elif rounding == 1 and _rounds(e.root):
        # one math-vs-numpy call, applied last
        assert scalar == array or abs(scalar - array) <= math.ulp(abs(scalar))
    else:
        # the last-ulp difference of an inner call is scaled by what follows
        # it (4.2e3 ulp measured on the slow-chirp rhs); bound it absolutely
        assert scalar == array or abs(scalar - array) <= 1e-12 * max(1.0, abs(scalar))


@pytest.mark.parametrize("src,scalar_span,array_span", [
    ("ln(x)/ (x-x)", (0, 12), (0, 5)),
    ("sqrt(-1)^ln(0)", (0, 8), (0, 8)),
    ("ln(x)+1/(x-x)", (0, 5), (0, 5)),
    ("(x-x)^-1/sqrt(x)", (9, 16), (0, 8)),
    ("sqrt(x)/ln(x+1)", (8, 15), (0, 7)),
    ("ln(x)*k", (6, 7), (0, 5)),
])
def test_first_failing_node_of_each_backend(src, scalar_span, array_span):
    """Where several nodes fail, each backend names the one it reaches first.

    The scalar backend checks parameters when binding and evaluates a
    quotient's denominator before its numerator; the array backend goes
    left to right.
    """
    e = parse(src)
    with pytest.raises(EvalError) as exc:
        e.bind({})(0.0, -1.0)
    assert exc.value.span == scalar_span
    with pytest.raises(EvalError) as exc:
        e.eval_array(np.array([0.0, 1.0]), np.array([-1.0, 2.0]))
    assert exc.value.span == array_span


@pytest.mark.parametrize("src", ["floor(x)", "sin(x)", "cos(x)",
                                 "floor(t*x)-cos(x)"])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_backends_agree_on_non_finite_arguments(src, x):
    """floor keeps inf, -inf and nan, and sin and cos of an infinite
    argument are nan, in both backends; math.floor, math.sin and math.cos
    reject these arguments."""
    e = parse(src)
    scalar = e.bind()(2.0, x)
    with np.errstate(invalid="ignore"):
        array = float(e.eval_array(2.0, x))
    assert type(scalar) is float
    assert scalar == array or (math.isnan(scalar) and math.isnan(array))


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


# ---------------------------------------------------------------------------
# the scalar backend against a plain recursive evaluator
# ---------------------------------------------------------------------------

def _reference(node, t, x, params):
    """The scalar backend's semantics, node by node on Python floats.

    Written apart from the emitter: no folding, no reuse of repeated
    subtrees, no coercion.  A quotient evaluates its denominator first.
    """
    def ev(n):
        if isinstance(n, Const):
            return n.value
        if isinstance(n, Var):
            return t if n.name == "t" else x
        if isinstance(n, Param):
            return params[n.name]
        if isinstance(n, Neg):
            return -ev(n.arg)
        if isinstance(n, Call):
            if n.func == "exp":
                try:
                    return math.exp(ev(n.args[0]))
                except OverflowError:
                    return math.inf
            a = ev(n.args[0])
            if n.func in ("sin", "cos"):
                try:
                    return getattr(math, n.func)(a)
                except ValueError:
                    return math.nan
            if n.func == "abs":
                return abs(a)
            if n.func == "ln":
                if a <= 0.0:
                    raise EvalError("log of non-positive value " + repr(a),
                                    n.span)
                return math.log(a)
            if n.func == "sqrt":
                if a < 0.0:
                    raise EvalError("square root of negative value " + repr(a),
                                    n.span)
                return math.sqrt(a)
            try:
                # as numpy's floor, the floor of a zero keeps its sign
                return math.copysign(math.floor(a), a)
            except (OverflowError, ValueError):
                return a
        if n.op == "/":
            r = ev(n.right)
            if r == 0.0:
                raise EvalError("division by zero", n.span)
            return ev(n.left) / r
        l, r = ev(n.left), ev(n.right)
        if n.op == "+":
            return l + r
        if n.op == "-":
            return l - r
        if n.op == "*":
            return l * r
        if l == 0.0 and r < 0.0:
            raise EvalError("zero raised to a negative power", n.span)
        if l < 0.0 and not r.is_integer():
            raise EvalError("fractional power of a negative base", n.span)
        try:
            return l ** r
        except OverflowError:
            odd = l < 0.0 and r.is_integer() and int(r) % 2 == 1
            return -math.inf if odd else math.inf

    return ev(node)


def _bits(value):
    """float64 bytes, signed zeros apart; every NaN alike, since a folded
    NaN is emitted as one literal whatever its payload."""
    return "nan" if math.isnan(value) else np.float64(value).tobytes()


def _variables(node):
    """(the variables node reads, those of them inside some power)."""
    read = {n.name for n in expr._walk(node) if isinstance(n, Var)}
    powered = {v.name for n in expr._walk(node)
               if isinstance(n, BinOp) and n.op == "^"
               for v in expr._walk(n) if isinstance(v, Var)}
    return read, powered


# a loop template that evaluates the expression twice
_TWICE = """\
def twice(t, x):
    first = f(t, x)
    second = f(t, x)
    return first, second
"""


def _check_against_reference(e, t, x, params):
    def outcome(fn):
        try:
            return fn()
        except EvalError as err:
            return err

    want = outcome(lambda: _reference(e.root, t, x, params))
    f = e.bind(params)
    got = outcome(lambda: f(t, x))
    # written into a loop at two marks, on floats
    twice = outcome(lambda: e.loop(_TWICE, params)(float(t), float(x)))
    if isinstance(want, EvalError):
        for err in (got, twice):
            assert isinstance(err, EvalError), err
            assert (err.span, str(err)) == (want.span, str(want))
    else:
        assert type(got) is float and _bits(got) == _bits(want)
        assert [_bits(v) for v in twice] == [_bits(want)] * 2
    if not all(float(v).is_integer() and abs(v) <= 3 for v in (t, x)):
        return
    # small whole t and x given as ints and as numpy scalars: int
    # arithmetic on them stays exact, and an int has no -0.0
    for cast in (int, np.float64):
        want = outcome(lambda: _reference(e.root, float(cast(t)),
                                          float(cast(x)), params))
        with np.errstate(all="ignore"):
            other = outcome(lambda: f(cast(t), cast(x)))
        if isinstance(want, EvalError):
            assert isinstance(other, EvalError), other
            assert other.span == want.span
            continue
        assert isinstance(other, (int, float)), other
        read, powered = _variables(e.root)
        if powered:
            assert _bits(other) == _bits(want)
            # only a variable inside a power is made a float: with a numpy
            # scalar x, x + 0^t is a numpy scalar
            if read == powered:
                assert type(other) is float
        else:
            assert other == want or math.isnan(other) and math.isnan(want)


_whole_or_moderate = st.one_of(st.integers(-3, 3).map(float), _moderate)


@given(src=st.sampled_from(GOLDEN_EXPRESSIONS), t=_whole_or_moderate,
       x=_whole_or_moderate, p=st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=600, deadline=None)
def test_scalar_backend_matches_reference_on_golden(src, t, x, p):
    e = parse(src)
    _check_against_reference(e, t, x, {name: p for name in e.params})


_wraps = (lambda s: s, Neg, lambda s: Call("exp", (s,)),
          lambda s: Call("sqrt", (s,)), lambda s: BinOp("^", s, Const(2.0)))


def _repeats(p):
    """A tree in which subtree s occurs twice: BinOp(op, s, s), or s and a
    wrapped s in either order, so a reuse inside an exp argument and one
    outside it are both drawn."""
    op, s, wrap, first = p
    a, b = (s, _wraps[wrap](s)) if first else (_wraps[wrap](s), s)
    return BinOp(op, a, b)


_repeated_tree = st.tuples(st.sampled_from("+-*/^"), _tree,
                           st.integers(0, len(_wraps) - 1),
                           st.booleans()).map(_repeats)


@given(root=st.one_of(_tree, _repeated_tree), t=_whole_or_moderate,
       x=_whole_or_moderate, a=_moderate, b=_moderate)
@example(root=Call("floor", (Neg(Const(0.0)),)), t=0.0, x=0.0, a=0.0, b=0.0)
@example(root=BinOp("+", Var("x"), BinOp("^", Const(0.0), Var("t"))),
         t=1.0, x=1.0, a=0.0, b=0.0)
@settings(max_examples=400, deadline=None)
def test_scalar_backend_matches_reference_on_random_trees(root, t, x, a, b):
    _check_against_reference(expr.Expression(root, "<synthetic>"), t, x,
                              {"a": a, "b_2": b})


def _counting(f, name):
    """Calls of the helper name made by the compiled evaluator f."""
    calls = []
    helper = f.__globals__[name]
    f.__globals__[name] = lambda *a: calls.append(a) or helper(*a)
    return calls


def test_repeated_subtrees_are_computed_once():
    src = "mu*(10+sin(ln(1+t)))*x/((10+sin(ln(1+t)))+(mu-1)*x)"
    f = parse(src).bind({"mu": 2.0})
    logs = _counting(f, "_log")
    assert f(5.0, 3.0) == _reference(parse(src).root, 5.0, 3.0, {"mu": 2.0})
    assert logs == [(6.0,)]


@pytest.mark.parametrize("t", [0.5, 3, np.float64(-2.0)])
def test_powers_of_variables_are_raised_inline(t):
    f = parse("2*t*cos((t^2+pi^3)^(1/3))/(3*(t^2+pi^3)^(2/3))").bind()
    pows = _counting(f, "_pow")
    v = f(t, 0.0)
    assert type(v) is float and pows == []
    g = parse("x^0.5").bind()
    pows = _counting(g, "_pow")
    with pytest.raises(EvalError):
        g(0.0, -4)
    assert pows == [(-4.0, 0.5, (0, 5))]


def test_whole_exponent_overflow_keeps_its_sign():
    assert parse("x^3").bind()(0.0, -1e200) == -math.inf
    assert parse("x^2").bind()(0.0, -1e200) == math.inf


def test_expressions_without_a_power_take_their_inputs_as_given():
    assert type(parse("-x+t").bind()(1, 2)) is int


def test_subtrees_differing_in_a_signed_zero_stay_apart():
    # Const(0.0) == Const(-0.0), but at x = -0.0 the sums differ in sign
    root = BinOp("*", BinOp("+", Var("x"), Const(-0.0)),
                 BinOp("+", Var("x"), Const(0.0)))
    e = expr.Expression(root, "<synthetic>")
    _check_against_reference(e, 1.0, -0.0, {})
    assert math.copysign(1.0, e.bind()(1.0, -0.0)) == -1.0


def test_parameter_only_subtrees_are_computed_once_per_binding():
    src = "x*ln(mu) + sqrt(mu*2)*t - exp(-mu)"
    e = parse(src)
    f = e.bind({"mu": 3.0})
    calls = [_counting(f, name) for name in ("_log", "_sqrt", "_exp")]
    for t, x in ((0.5, 2.0), (-1.0, 7.0)):
        want = _reference(e.root, t, x, {"mu": 3.0})
        assert _bits(f(t, x)) == _bits(want)
    assert calls == [[], [], []]


def test_a_failing_parameter_subtree_raises_where_the_tree_does():
    # binding never raises; a call raises at the first failing node in
    # evaluation order, which may come before the parameter subtree
    e = parse("ln(x) + sqrt(p) + exp(p*2)")
    f = e.bind({"p": -1.0})
    for x, span in ((-1.0, (0, 5)), (2.0, (8, 15))):
        with pytest.raises(EvalError) as exc:
            f(0.0, x)
        assert exc.value.span == span
    assert e.bind({"p": 1.0})(0.0, 1.0) == 1.0 + math.exp(2.0)


# ---------------------------------------------------------------------------
# values and t-derivatives in one pass (eval_array_dt)
# ---------------------------------------------------------------------------

def _check_values_as_eval_array(e, ts, params):
    """eval_array_dt's values are eval_array's at x = 0, bit for bit, and
    it raises what and where eval_array does."""
    def outcome(fn):
        try:
            return fn()
        except EvalError as err:
            return err

    want = outcome(lambda: e.eval_array(ts, 0.0, params))
    got = outcome(lambda: e.eval_array_dt(ts, params))
    if isinstance(want, EvalError):
        assert isinstance(got, EvalError), got
        assert (got.span, str(got)) == (want.span, str(want))
        return
    assert not isinstance(got, EvalError), got
    value, deriv = got
    assert value.tobytes() == want.tobytes()
    assert deriv.shape == want.shape and deriv.dtype == float


@given(src=st.sampled_from(GOLDEN_EXPRESSIONS), t=_whole_or_moderate,
       t2=_moderate, p=st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=400, deadline=None)
def test_eval_array_dt_values_are_eval_array_bits_on_golden(src, t, t2, p):
    e = parse(src)
    with np.errstate(all="ignore"):
        _check_values_as_eval_array(e, np.array([t, t2]),
                                    {name: p for name in e.params})


@given(root=st.one_of(_tree, _repeated_tree), t=_whole_or_moderate,
       t2=_moderate, a=_moderate, b=_moderate)
@settings(max_examples=400, deadline=None)
def test_eval_array_dt_values_are_eval_array_bits_on_random_trees(root, t, t2,
                                                                  a, b):
    with np.errstate(all="ignore"):
        _check_values_as_eval_array(expr.Expression(root, "<synthetic>"),
                                    np.array([t, t2]), {"a": a, "b_2": b})


def _unsmooth_near(root, ts, params):
    """Whether, over the times ts, some node fails, leaves [-1e100, 1e100],
    has a kink, jump or domain edge (an argument of abs, sqrt or ln, a
    denominator or a power's base reaching 0, a floor's argument crossing a
    whole number), or is a power of a base <= 0 and an exponent in t, whose
    derivative formula takes the log of the base."""
    for node in expr._walk(root):
        try:
            vals = [[_reference(k, s, 0.0, params) for s in ts]
                    for k in (node, *_children(node))]
        except EvalError:
            return True
        if not all(math.isfinite(v) and abs(v) <= 1e100 for vs in vals for v in vs):
            return True
        edge = None
        if isinstance(node, Call) and node.func in ("abs", "sqrt", "ln"):
            edge = vals[1]
        elif isinstance(node, BinOp) and node.op in "/^":
            edge = vals[2] if node.op == "/" else vals[1]
        if edge is not None and min(edge) <= 0.0 <= max(edge):
            return True
        if isinstance(node, BinOp) and node.op == "^" and min(vals[1]) <= 0.0 \
                and any(isinstance(v, Var) and v.name == "t"
                        for v in expr._walk(node.right)):
            return True
        if isinstance(node, Call) and node.func == "floor" \
                and len({math.floor(v) for v in vals[1]}) > 1:
            return True
    return False


@given(root=_tree, t=st.floats(min_value=-10.0, max_value=10.0),
       a=st.floats(min_value=-3.0, max_value=3.0),
       b=st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=400, deadline=None)
def test_eval_array_dt_derivative_matches_central_differences(root, t, a, b):
    """The exact derivative against central differences at h, h/2 and h/4.

    Points within 2h of a kink, a jump or a domain edge are skipped, and so
    are points where the differences do not yet converge at these steps
    (the curve turns on a scale below h).  Elsewhere the error of the h/4
    difference is about a third of its gap to the h/2 one, plus the
    round-off of differencing values of size F over h/4.
    """
    params = {"a": a, "b_2": b}
    h = 1e-4 * (1.0 + abs(t))
    ts = [t + k * h / 4 for k in range(-8, 9)]
    if _unsmooth_near(root, ts, params):
        return
    e = expr.Expression(root, "<synthetic>")
    with np.errstate(all="ignore"):
        value, deriv = e.eval_array_dt(np.array([t]), params)
    d = float(deriv[0])
    assert math.isfinite(d), (e.to_text(), t)

    def central(step):
        return ((_reference(root, t + step, 0.0, params)
                 - _reference(root, t - step, 0.0, params)) / (2 * step))

    size = max(abs(_reference(n, s, 0.0, params))
               for n in expr._walk(root) for s in ts)
    rounding = 1e-14 * size / (h / 4)
    d1, d2, d4 = central(h), central(h / 2), central(h / 4)
    if abs(d2 - d4) > 0.5 * abs(d1 - d2) + rounding:
        return
    tol = abs(d2 - d4) + rounding + 1e-9 * (1.0 + abs(d))
    assert abs(d - d4) <= tol, (e.to_text(), t, d, d4, d2, d1)


@pytest.mark.parametrize("src,ts,want", [
    # abs has derivative 0 at its kink, so sin-log keeps 0 at t = 0
    ("sin(ln(1+abs(t)))", [-0.5, 0.0, 0.5],
     [-math.cos(math.log(1.5)) / 1.5, 0.0, math.cos(math.log(1.5)) / 1.5]),
    # floor has derivative 0 everywhere, at its jumps too
    ("floor(t)", [-1.0, 0.0, 0.5, 1.0, 2.0], [0.0] * 5),
    ("3*t^2 + t^1 + t^3", [-1.0, 0.0, 2.0], [-2.0, 1.0, 25.0]),
    ("t^t", [1.0, 2.0], [1.0, 4.0 * (math.log(2.0) + 1.0)]),
    ("2^t", [0.0, 1.0], [math.log(2.0), 2.0 * math.log(2.0)]),
    ("x + a*t + cos(t)", [0.0], [2.5]),
    ("exp(-t)/(1+t)", [0.0], [-2.0]),
])
def test_eval_array_dt_at_chosen_points(src, ts, want):
    value, deriv = parse(src).eval_array_dt(np.array(ts), {"a": 2.5})
    assert np.allclose(deriv, want, rtol=1e-15, atol=0.0)


def test_eval_array_dt_raises_nothing_where_the_derivative_is_not_finite():
    with np.errstate(all="raise"):
        value, deriv = parse("sqrt(t)").eval_array_dt(np.array([0.0, 4.0]))
    assert value.tolist() == [0.0, 2.0]
    assert deriv[0] == math.inf and deriv[1] == 0.25


def test_a_loop_is_compiled_once_per_template_and_names():
    e = parse("mu*x + sin(t)")
    loop = "def run(t, x):\n    y = f(t, x)\n    return y + c\n"
    assert e.loop(loop, {"mu": 2.0}, {"c": 1.0})(0.0, 3.0) == 7.0
    assert e.loop(loop, {"mu": 3.0}, {"c": 1.0})(0.0, 3.0) == 10.0
    assert e.loop(loop, {"mu": 3.0}, {"c": 2.0})(0.0, 3.0) == 11.0
    assert len(e._code) == 2
    with pytest.raises(EvalError, match="unbound parameter 'mu'"):
        e.loop(loop, {}, {"c": 1.0})


def test_eval_array_dt_is_compiled_once_beside_eval_array():
    e = parse("sin(t)")
    e.eval_array(1.0)
    e.eval_array_dt(np.array([1.0]))
    e.eval_array_dt(np.array([2.0]))
    assert sorted(e._code) == ["array", "array_dt"]
    assert e.eval_array_dt(0.5)[1].shape == ()
