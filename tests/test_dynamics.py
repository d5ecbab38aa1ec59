"""Integrator, iterator, and property-check tests against closed forms."""

import math
import re
import textwrap
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from rapflow import dynamics, expr
from rapflow.catalog import get as get_example
from rapflow.catalog import oracle_value
from rapflow.catalog import BH_DRIFTING_RHS, BH_RHS, CHIRP_RHS, make_beverton_holt
from rapflow.dynamics import (
    BlowupError,
    DynamicsError,
    FieldValidationError,
    IntegratorConfig,
    IterationAbortError,
    ScalarField,
    StepUnderflowError,
    Trajectory,
    _dense_coefficients,
    boundedness,
    check_lipschitz_one,
    check_monotone_in_x,
    contraction_gap,
    integrate,
    iterate,
    sample_function,
)
from rapflow.expr import (BinOp, Call, Const, EvalError, Expression, Neg,
                          Param, Var, parse)


def chirp_field():
    return ScalarField(kind="continuous", rhs=CHIRP_RHS, name="slow-chirp")


def relax_sin_field():
    return ScalarField(kind="continuous", rhs="-x+sin(t)", name="relax-sin")


def bh_const_field(mu=2.0, K=10.0):
    return ScalarField(kind="discrete", rhs=BH_RHS, params={"mu": mu, "K": K},
                       state_domain=(0.0, math.inf), time_domain="half-line")


def bh_varying_field(mu=2.0):
    return ScalarField(kind="discrete", rhs=BH_DRIFTING_RHS, params={"mu": mu},
                       state_domain=(0.0, math.inf), time_domain="half-line")


# ---------------------------------------------------------------------------
# continuous integration against closed forms
# ---------------------------------------------------------------------------

def test_linear_decay_endpoint():
    fld = ScalarField(kind="continuous", rhs="-x")
    traj = integrate(fld, 1.0, (0.0, 1.0))
    assert abs(traj.values_at(1.0)[0] - math.exp(-1.0)) <= 1e-9


def test_chirp_matches_closed_form():
    traj = integrate(chirp_field(), 0.0, (0.0, 50.0))
    ts = traj.grid()
    exact = np.sin(np.cbrt(ts**2 + math.pi**3)) - math.sin(np.cbrt(math.pi**3))
    assert np.max(np.abs(traj.values - exact)) <= 1e-6


def test_relax_sin_closed_form():
    traj = integrate(relax_sin_field(), 3.0, (0.0, 30.0))
    ts = traj.grid()
    exact = (np.sin(ts) - np.cos(ts)) / 2 + 3.5 * np.exp(-ts)
    assert np.max(np.abs(traj.values - exact)) <= 1e-7


def test_cocycle_identity():
    fld = relax_sin_field()
    full = integrate(fld, 2.0, (0.0, 2.0))
    leg1 = integrate(fld, 2.0, (0.0, 1.0))
    leg2 = integrate(fld, float(leg1.values_at(1.0)[0]), (1.0, 2.0))
    assert abs(full.values_at(2.0)[0] - leg2.values_at(2.0)[0]) <= 1e-8


def test_order_preservation():
    fld = relax_sin_field()
    lo = integrate(fld, 0.0, (0.0, 10.0))
    hi = integrate(fld, 0.5, (0.0, 10.0))
    assert np.all(hi.values - lo.values > 0)


def test_integration_is_deterministic():
    fld = relax_sin_field()
    a = integrate(fld, 1.25, (0.0, 15.0))
    b = integrate(fld, 1.25, (0.0, 15.0))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.derivs, b.derivs)


def test_config_hash_and_provenance_name_the_integrator():
    # pinned, so that trajectory ids and artifact hashes stay those of
    # earlier versions
    assert IntegratorConfig().config_hash() == "2206a80a9cce"
    assert IntegratorConfig(dt_out=0.05).config_hash() == "1ce89b254269"
    traj = integrate(relax_sin_field(), 1.25, (0.0, 1.0))
    assert traj.provenance["method"] == "dopri5"


def test_blowup_aborts_with_last_good_time():
    fld = ScalarField(kind="continuous", rhs="x^2")
    with pytest.raises(BlowupError) as err:
        integrate(fld, 1.0, (0.0, 1.2))
    assert 0.9 < err.value.t_last < 1.05


def test_pole_in_rhs_aborts():
    fld = ScalarField(kind="continuous", rhs="1/(t-1/2)",
                      time_domain="half-line")
    with pytest.raises(DynamicsError) as err:
        integrate(fld, 0.0, (0.0, 1.0))
    assert isinstance(err.value, (StepUnderflowError, DynamicsError))
    # the pole sits on a grid point
    with pytest.raises(DynamicsError):
        integrate(fld, 0.0, (0.0, 1.0), IntegratorConfig(dt_out=0.25))


@pytest.mark.parametrize("rhs, message", [
    ("(t-1/2)/(t-1/2)", "rhs evaluation failed at t = 0.5: division by zero"),
    ("exp(1e-297/(abs(t-1/2)+1e-300))", "rhs is not finite at t = 0.5, x = "),
])
def test_a_grid_point_the_steps_miss_still_aborts(rhs, message):
    # the steps straddle t = 0.5, where f fails or is not finite; the
    # stored derivative there is evaluated all the same
    fld = ScalarField(kind="continuous", rhs=rhs, time_domain="half-line")
    f = fld.bind()
    assert f(0.4999, 0.0) == f(0.5001, 0.0) == 1.0
    with pytest.raises(DynamicsError, match=re.escape(message)):
        integrate(fld, 0.0, (0.0, 1.0), IntegratorConfig(dt_out=0.25))


def test_a_tolerance_that_underflows_to_zero_still_steps():
    # abs_tol/100 rounds to 0: a zero error estimate passes, any other fails
    cfg = IntegratorConfig(abs_tol=5e-324, rel_tol=0.0)
    fld = ScalarField(kind="continuous", rhs="-x")
    assert not integrate(fld, 0.0, (0.0, 1.0), cfg).values.any()
    with pytest.raises(StepUnderflowError):
        integrate(fld, 1.0, (0.0, 1.0), cfg)


# The Dormand-Prince tableau, its error weights and its continuous
# extension, kept as the reference for the written-out step in
# rapflow.dynamics.
_A = ((), (1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
      (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_B = _A[6] + (0.0,)
# fifth- minus fourth-order weights
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
      -1 / 40)
# weights of k1..k7 in the fifth dense-output coefficient (Hairer, Norsett
# & Wanner, Solving ODEs I, II.6)
_D = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
      -10690763975 / 1880347072, 701980252875 / 199316789632,
      -1453857185 / 822651844, 69997945 / 29380423)


def _tableau_step(f, t, y, h, k1):
    """(y5, err, stages k1..k7) of one step driven by the tableau."""
    k = [k1]
    for i in range(1, 7):
        acc = 0.0
        for j in range(i):
            acc += _A[i][j] * k[j]
        k.append(f(t + _C[i] * h, y + h * acc))
    acc = 0.0
    for b, ki in zip(_B[:6], k):
        acc += b * ki
    y5 = y + h * acc
    acc = 0.0
    for e, ki in zip(_E, k):
        acc += e * ki
    return y5, abs(h * acc), k


def _tableau_dense(h, y, y5, k):
    """(r1, ..., r5) of a step's continuous extension."""
    acc = 0.0
    for d, ki in zip(_D, k):
        if d:
            acc += d * ki
    ydiff = y5 - y
    bspl = h * k[0] - ydiff
    return y, ydiff, bspl, ydiff - h * k[6] - bspl, h * acc


class _GridFailure(Exception):
    """The rhs fails or is not finite at a grid point."""


def _tableau_integrate(fld, u0, t0, t1, cfg):
    """integrate's dopri5 march, on the tableau-driven step and the field's
    bind(), one grid point at a time; returns (values, derivs, stats).

    It aborts as integrate does, with the same errors and messages; where
    the stored derivatives fail it raises _GridFailure.
    """
    f = fld.bind()
    n_cells = max(1, math.ceil((t1 - t0) / cfg.dt_out - 1e-9))
    grid = [t0 + cfg.dt_out * i for i in range(n_cells + 1)]
    t_end = grid[-1]
    abs_tol, rel_tol = cfg.abs_tol * 1e-2, cfg.rel_tol * 1e-2
    t, y, h = t0, float(u0), cfg.dt_out
    try:
        k1 = f(t0, y)
    except EvalError as exc:
        raise DynamicsError(f"rhs evaluation failed at t = {t!r}: {exc}")
    values, slopes = [], []
    accepted = rejected = 0
    min_step = math.inf
    while not values or t < t_end:
        last = t + 1.01 * h >= t_end
        if last:
            h = t_end - t
        try:
            y5, err, k = _tableau_step(f, t, y, h, k1)
        except EvalError as exc:
            raise DynamicsError(
                f"rhs evaluation failed inside [{t!r}, {t + h!r}]: {exc}")
        try:
            ratio = err / (abs_tol + rel_tol * max(abs(y5), abs(y)))
        except ZeroDivisionError:
            ratio = math.inf if err else 0.0
        grow = 10.0 if ratio == 0.0 else min(10.0, max(0.2, 0.9 * ratio ** -0.2))
        h_next = h * grow
        if not ratio <= 1.0:
            rejected += 1
            h = h_next
            if h < 1e-13 * max(1.0, abs(t)):
                if abs(y) > 1e8 or not (math.isfinite(err)
                                        and math.isfinite(y5)):
                    raise BlowupError(t, y)
                raise StepUnderflowError(t)
            continue
        accepted += 1
        min_step = min(min_step, h)
        t_next = t_end if last else t + h
        r1, r2, r3, r4, r5 = _tableau_dense(h, y, y5, k)
        while len(values) < len(grid) and grid[len(values)] <= t_next:
            ti = grid[len(values)]
            s = (ti - t) / h
            u = 1.0 - s
            q = r4 + u * r5
            r = r3 + s * q
            w = r2 + u * r
            if ti == t_next:
                values.append(y5)
            else:
                values.append(y if s == 0.0 else y + s * w)
            slopes.append((w + s * (u * (q - s * r5) - r)) / h)
        if not abs(y5) <= 1e12:
            raise BlowupError(t, y5)
        t, y, k1, h = t_next, y5, k[6], h_next
    values = np.array(values)
    try:
        with np.errstate(all="ignore"):
            derivs = fld.rhs.eval_array(np.array(grid), values,
                                        params=fld.params)
    except EvalError as exc:
        raise _GridFailure(exc)
    if not np.all(np.isfinite(derivs)):
        raise _GridFailure("not finite")
    with np.errstate(all="ignore"):
        defect = float(np.abs(np.array(slopes) - derivs).max())
    stats = {"rhs_evals": 1 + 6 * (accepted + rejected), "accepted": accepted,
             "rejected": rejected, "min_step": min_step, "defect": defect}
    return values, derivs, stats


def _step_function(rhs=None):
    """step(tn, y, h, k1) -> (y5, err, (k1, ..., k7)): the march's step
    template in a function of its own.  With an expression the rhs is
    written in by Expression.loop; without one each stage calls the
    function ``f`` of the returned namespace."""
    source = ("def step(tn, y, h, k1):\n"
              + textwrap.indent(dynamics._DOPRI5_STEP, "    ")
              + "    return y5, err, (k1, k2, k3, k4, k5, k6, k7)\n")
    if rhs is not None:
        return rhs.loop(source)
    namespace = {}
    exec(source, namespace)
    return namespace


@pytest.mark.parametrize("rhs", ["-x+sin(t)", CHIRP_RHS])
@given(t=st.floats(-50.0, 50.0), y=st.floats(-5.0, 5.0),
       h=st.floats(1e-6, 0.5))
@settings(max_examples=300, deadline=None)
def test_dopri5_step_matches_the_tableau_bit_for_bit(rhs, t, y, h):
    fld = ScalarField(kind="continuous", rhs=rhs)
    f = fld.bind()
    k1 = f(t, y)
    y5, err, ks = _step_function(fld.rhs)(t, y, h, k1)
    want_y5, want_err, k = _tableau_step(f, t, y, h, k1)
    assert np.array([y5, err, *ks]).tobytes() == np.array(
        [want_y5, want_err, *k]).tobytes()
    dense = _dense_coefficients(h, y, y5, ks[0], *ks[2:])
    assert np.array(dense).tobytes() == np.array(
        _tableau_dense(h, y, y5, k)[1:]).tobytes()


def _same_bits(a, b):
    # NaN sign bits are not stable across CPython's float fast paths
    return (math.isnan(a) and math.isnan(b)) or (
        np.float64(a).tobytes() == np.float64(b).tobytes())


@given(ks=st.lists(st.floats(-10.0, 10.0)
                   | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
                   min_size=7, max_size=7),
       y=st.sampled_from([0.0, -0.0, 1.5]), h=st.floats(1e-3, 1.0))
@settings(max_examples=300, deadline=None)
def test_dopri5_step_sums_match_the_tableau_on_signed_zeros_and_non_finite(
        ks, y, h):
    # the step template's own sums, with each stage's rhs value preset
    def stages(calls):
        values = iter(ks[1:])

        def f(t, x):
            calls.append((t, x))
            return next(values)
        return f

    got_calls, want_calls = [], []
    step = _step_function()
    step["f"] = stages(got_calls)
    y5, err, got = step["step"](0.0, y, h, ks[0])
    want_y5, want_err, k = _tableau_step(stages(want_calls), 0.0, y, h, ks[0])
    assert _same_bits(y5, want_y5) and _same_bits(err, want_err)
    assert all(_same_bits(a, b) for a, b in zip(got, k))
    assert len(got_calls) == len(want_calls) == 6
    for (ta, xa), (tb, xb) in zip(got_calls, want_calls):
        assert _same_bits(ta, tb) and _same_bits(xa, xb)
    with np.errstate(all="ignore"):
        dense = _dense_coefficients(*np.array([h, y, y5, got[0], *got[2:]]))
    assert all(_same_bits(a, b) for a, b in zip(
        dense, _tableau_dense(h, y, y5, k)[1:]))


# field, config, span, and whether the steps are fewer than the output
# cells, so that one step covers several grid points
_LOOP_CASES = {
    "relax-sin": (relax_sin_field(), IntegratorConfig(dt_out=0.05),
                  (0.0, 20.0), False),
    "slow-chirp": (chirp_field(), IntegratorConfig(dt_out=0.05),
                   (0.0, 20.0), True),
    "rejected-steps": (chirp_field(), IntegratorConfig(
        abs_tol=1e-12, rel_tol=1e-12, dt_out=0.5), (0.0, 20.0), False),
    "negative-t0": (relax_sin_field(), IntegratorConfig(dt_out=0.05),
                    (-7.5, 12.5), False),
}


@pytest.mark.parametrize("case", list(_LOOP_CASES))
def test_integrate_matches_the_tableau_loop(case):
    fld, cfg, (t0, t1), long_steps = _LOOP_CASES[case]
    traj = integrate(fld, 0.75, (t0, t1), cfg)
    values, derivs, stats = _tableau_integrate(fld, 0.75, t0, t1, cfg)
    assert traj.provenance["stats"] == stats
    assert stats["rejected"] > 0
    assert (stats["accepted"] < len(traj) - 1) == long_steps
    assert traj.values.tobytes() == values.tobytes()
    assert traj.derivs.tobytes() == derivs.tobytes()


@pytest.mark.parametrize("chunk", [1, 2, 7])
@pytest.mark.parametrize("case", ["slow-chirp", "rejected-steps"])
def test_chunked_dense_output_matches_the_tableau_loop(monkeypatch, case,
                                                       chunk):
    # a chunk of 7 flushes the step buffer every 7 grid points or every
    # 7 steps, which cuts through steps that cover several points
    monkeypatch.setattr(dynamics, "_CHUNK", chunk)
    fld, cfg, (t0, t1), _ = _LOOP_CASES[case]
    traj = integrate(fld, 0.75, (t0, t1), cfg)
    values, derivs, stats = _tableau_integrate(fld, 0.75, t0, t1, cfg)
    assert traj.provenance["stats"] == stats
    assert traj.values.tobytes() == values.tobytes()
    assert traj.derivs.tobytes() == derivs.tobytes()


def _loop_with_calls(seen):
    """Expression.loop that runs the template as written: each rhs line
    calls bind()'s evaluator, which records the types it is given."""
    def loop(self, template, params=None, names=None):
        f = self.bind(params)

        def g(t, x):
            seen.add((type(t), type(x)))
            return f(t, x)
        namespace = dict(expr._NAMESPACES["scalar"], **(names or {}), f=g)
        exec(template, namespace)
        return namespace[re.match(r"def (\w+)", template)[1]]
    return loop


@pytest.mark.parametrize("u0", [1, 1.0, np.float64(1.0)],
                         ids=["int", "float", "float64"])
@pytest.mark.parametrize("case", ["rejected-steps"])
def test_integrate_calls_the_rhs_on_python_floats(monkeypatch, case, u0):
    # the march runs on Python floats whatever the type of u0: the same
    # bits and stats, and the rhs, called where the compiled loop writes it
    # in, sees floats only
    fld, cfg, span, _ = _LOOP_CASES[case]
    want = integrate(fld, 1.0, span, cfg)
    seen = set()
    got = [integrate(fld, u0, span, cfg)]
    monkeypatch.setattr(Expression, "loop", _loop_with_calls(seen))
    got.append(integrate(fld, u0, span, cfg))
    assert seen == {(float, float)}
    for traj in got:
        assert traj.values.tobytes() == want.values.tobytes()
        assert traj.derivs.tobytes() == want.derivs.tobytes()
        assert traj.provenance == want.provenance


# random right-hand sides: small constants, so that steps stay few
_leaf = st.one_of(
    st.floats(0.0, 3.0).map(Const),
    st.sampled_from([Var("t"), Var("x"), Param("a"), Const(math.pi)]))
_tree = st.recursive(_leaf, lambda children: st.one_of(
    children.map(Neg),
    st.tuples(st.sampled_from(sorted(expr.FUNCTIONS)), children).map(
        lambda p: Call(p[0], (p[1],))),
    st.tuples(st.sampled_from("+-*/^"), children, children).map(
        lambda p: BinOp(*p))), max_leaves=8)


def _field(kind, root, a, low):
    """A field of a random tree, or none if it fails its spot check.  With
    ``low`` 0 the state domain is [0, inf), which the spot check samples
    from 0 up, so roots of x pass it and fail below 0."""
    try:
        return ScalarField(kind=kind, rhs=Expression(root, "<synthetic>"),
                           params={"a": a}, state_domain=(low, math.inf))
    except FieldValidationError:
        assume(False)


def _case(src, **kwargs):
    return dict(dict(root=parse(src).root, a=0.0, low=-math.inf, u0=0.0,
                     t0=0.0, length=1.0, dt=0.05, abs_tol=1e-9, rel_tol=1e-9),
                **kwargs)


@given(root=_tree, a=st.floats(-3.0, 3.0),
       low=st.sampled_from([-math.inf, 0.0]), u0=st.floats(0.0, 3.0),
       t0=st.floats(-20.0, 20.0), length=st.floats(0.05, 3.0),
       dt=st.floats(0.02, 0.5), abs_tol=st.floats(1e-10, 1e-4),
       rel_tol=st.sampled_from([0.0, 1e-9, 1e-6]))
@example(**_case("-x+sin(t)", u0=0.75, length=2.0))
@example(**_case("sqrt(x)-1", low=0.0))  # a stage fails
@example(**_case("1/(t-1/4)", t0=0.25))  # the first evaluation fails
@example(**_case("x^2", u0=3.0))  # blow-up
@example(**_case("1/(t-1/2)"))  # step underflow
@example(**_case("-x", abs_tol=5e-324, rel_tol=0.0))  # a zero tolerance
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_compiled_march_matches_the_tableau_loop_on_random_fields(
        root, a, low, u0, t0, length, dt, abs_tol, rel_tol):
    fld = _field("continuous", root, a, low)
    cfg = IntegratorConfig(abs_tol=abs_tol, rel_tol=rel_tol, dt_out=dt)
    span = (t0, t0 + length)
    try:
        values, derivs, stats = _tableau_integrate(fld, u0, *span, cfg)
    except DynamicsError as want:
        with pytest.raises(DynamicsError) as got:
            integrate(fld, u0, span, cfg)
        assert type(got.value) is type(want)
        assert str(got.value) == str(want)
        return
    except _GridFailure:
        with pytest.raises(DynamicsError, match="^rhs (evaluation failed|is "
                                                "not finite)"):
            integrate(fld, u0, span, cfg)
        return
    traj = integrate(fld, u0, span, cfg)
    assert traj.values.tobytes() == values.tobytes()
    assert traj.derivs.tobytes() == derivs.tobytes()
    assert _same_bits(traj.provenance["stats"].pop("defect"),
                      stats.pop("defect"))
    assert traj.provenance["stats"] == stats


@pytest.mark.parametrize("rhs, domain, u0, span, message", [
    ("sqrt(x)-1", (0.0, math.inf), 0.0, (0.0, 1.0),
     "rhs evaluation failed inside [0.0, 0.01]: square root of negative "
     "value -0.002 at bytes 0..7"),
    ("1/(t-1/4)", (-math.inf, math.inf), 0.0, (0.25, 1.0),
     "rhs evaluation failed at t = 0.25: division by zero at bytes 0..9"),
])
def test_a_failing_rhs_evaluation_names_where_it_failed(rhs, domain, u0, span,
                                                        message):
    fld = ScalarField(kind="continuous", rhs=rhs, state_domain=domain)
    with pytest.raises(DynamicsError) as err:
        integrate(fld, u0, span)
    assert type(err.value) is DynamicsError
    assert str(err.value) == message
    assert isinstance(err.value.__cause__, EvalError)


def test_blowup_emits_no_numpy_warning():
    fld = ScalarField(kind="continuous", rhs="x*x*x")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowupError) as err:
            integrate(fld, 1, (0.0, 1.0))
    assert str(err.value) == (
        "solution magnitude crossed the overflow guard 1e+12 after "
        "t = 0.49999999999901834 (last good value 1008280607026.31)")


def test_steps_save_rhs_calls_over_the_cell_march():
    # a march of one six-call step per output cell made 6 * 40000 calls
    traj = integrate(relax_sin_field(), 3.0, (0.0, 400.0),
                     IntegratorConfig(dt_out=0.01))
    stats = traj.provenance["stats"]
    assert stats["rhs_evals"] < 6 * 40_000 / 2
    assert stats["rhs_evals"] == 1 + 6 * (stats["accepted"] + stats["rejected"])
    assert 0.0 < stats["min_step"] <= 0.01
    assert 0.0 < stats["defect"] < 1e-6


@pytest.mark.parametrize("name, span, dt", [
    ("relax-sin", (0.0, 400.0), 0.01), ("slow-chirp", (0.0, 1.02e5), 0.05)])
def test_dense_output_meets_the_closed_forms(name, span, dt):
    traj = integrate(get_example(name).system(), 0.0, span,
                     IntegratorConfig(dt_out=dt))
    exact = oracle_value(name, traj.grid(), 0.0)
    assert np.max(np.abs(traj.values - exact)) < 1e-8


@pytest.mark.parametrize("rhs, domain", [
    ("-x+sin(t)", "full-line"), ("-x+sin(ln(1+t))", "half-line")])
@given(u1=st.floats(-10.0, 10.0), u2=st.floats(-10.0, 10.0),
       dt=st.floats(0.005, 0.05))
@settings(max_examples=25, deadline=None)
def test_forced_decay_pairs_contract_at_any_output_step(rhs, domain, u1, u2,
                                                        dt):
    fld = ScalarField(kind="continuous", rhs=rhs, time_domain=domain)
    _, _, report = contraction_gap(fld, u1, u2, (0.0, 20.0),
                                   IntegratorConfig(dt_out=dt))
    assert report.verdict == "pass", report.witness


def test_integration_scratch_memory_does_not_grow_with_the_steps():
    # beside its output, values + derivs, integration holds the step buffer
    # and the dense-output temporaries of one chunk; five times the span
    # takes five times the steps and no more scratch
    fld = chirp_field()
    cfg = IntegratorConfig(dt_out=0.025)
    integrate(fld, 0.0, (0.0, 1.0), cfg)
    scratch = []
    for span in (3000.0, 15000.0):
        tracemalloc.start()
        try:
            traj = integrate(fld, 0.0, (0.0, span), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scratch.append(peak - traj.values.nbytes - traj.derivs.nbytes)
    assert len(traj) == 600_001
    assert scratch[1] < 1.05 * scratch[0]
    assert scratch[1] < 16 * 8 * dynamics._CHUNK


def test_integrate_rejects_bad_requests():
    fld = relax_sin_field()
    with pytest.raises(DynamicsError):
        integrate(fld, 0.0, (1.0, 1.0))
    with pytest.raises(DynamicsError):
        integrate(bh_const_field(), 1.0, (0.0, 1.0))
    half = ScalarField(kind="continuous", rhs="-x", time_domain="half-line")
    with pytest.raises(DynamicsError):
        integrate(half, 0.0, (-1.0, 1.0))
    bounded = ScalarField(kind="continuous", rhs="-x", state_domain=(0.0, 1.0))
    with pytest.raises(DynamicsError):
        integrate(bounded, 2.0, (0.0, 1.0))


@pytest.mark.parametrize("settings", [
    dict(abs_tol=math.nan), dict(rel_tol=math.nan), dict(dt_out=math.nan),
    dict(dt_out=math.inf), dict(dt_out=0.0), dict(dt_out=-0.01),
    dict(abs_tol=0.0), dict(rel_tol=-1.0),
])
def test_integrator_config_refuses_settings_that_hang_or_mean_nothing(
        settings):
    # only the constructor is called here, so a regression cannot hang
    with pytest.raises(ValueError):
        IntegratorConfig(**settings)


class _NumpyWithoutEmpty:
    """numpy as rapflow.dynamics sees it, with np.empty failing the test."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(*args, **kwargs):
        raise AssertionError(f"np.empty{args} was called")


_TO_LIMIT = {
    "integrate": lambda span, steps: integrate(
        relax_sin_field(), 0.0, span, IntegratorConfig(dt_out=0.01)),
    "sample_function": lambda span, steps: sample_function(
        "sin(t)", span, 0.01),
    "iterate": lambda span, steps: iterate(
        ScalarField(kind="discrete", rhs="x/2"), 1.0, steps),
    "sine.trajectory": lambda span, steps: get_example("sine").trajectory(
        span=span, dt=0.01),
    "relax-sin.trajectory": lambda span, steps: get_example(
        "relax-sin").trajectory(span=span, dt=0.01),
    "beverton-holt.trajectory": lambda span, steps: get_example(
        "beverton-holt").trajectory(steps=steps),
}


@pytest.mark.parametrize("build", list(_TO_LIMIT))
@pytest.mark.parametrize("span, steps", [
    ((0.0, 1e12), 10**11), ((-1e308, 1e308), 10**300)])
def test_oversized_grids_are_refused_before_allocation(monkeypatch, build,
                                                       span, steps):
    # numpy was asked for 728 TiB, and math.ceil overflowed on the
    # infinite cell count of the widest span
    monkeypatch.setattr(dynamics, "np", _NumpyWithoutEmpty())
    with pytest.raises(ValueError, match="more than the limit of 20000000"):
        _TO_LIMIT[build](span, steps)


@pytest.mark.parametrize("build", list(_TO_LIMIT))
def test_grids_at_the_limit_are_built(monkeypatch, build):
    monkeypatch.setattr(dynamics, "_MAX_SAMPLES", 101)
    assert len(_TO_LIMIT[build]((0.0, 1.0), 100)) == 101
    with pytest.raises(ValueError, match="would hold 102 samples"):
        _TO_LIMIT[build]((0.0, 1.01), 101)


# ---------------------------------------------------------------------------
# discrete iteration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mu", [1.5, 2.0, 3.7])
def test_bh_fixed_point_persists(mu):
    traj = iterate(bh_const_field(mu=mu, K=10.0), 10.0, 50)
    assert np.max(np.abs(traj.values - 10.0)) <= 1e-12


def test_bh_constant_k_closed_form():
    mu, K, x0 = 2.0, 10.0, 1.0
    traj = iterate(bh_const_field(mu=mu, K=K), x0, 60)
    n = np.arange(61)
    exact = K * x0 * mu**n / (K + x0 * (mu**n - 1.0))
    assert np.max(np.abs(traj.values - exact)) <= 1e-10
    assert abs(traj.values[-1] - 10.0) <= 1e-8


def test_iterate_domain_abort():
    fld = ScalarField(kind="discrete", rhs="x-1", state_domain=(0.0, math.inf),
                      time_domain="half-line")
    with pytest.raises(IterationAbortError) as err:
        iterate(fld, 0.5, 10)
    assert err.value.step == 1
    assert str(err.value) == ("iteration aborted at step 1: value -0.5 left "
                              "the state domain [0, inf]")
    with pytest.raises(IterationAbortError) as err:
        iterate(fld, 3.5, 10)
    assert err.value.step == 4


def test_iterate_overflow_abort():
    fld = ScalarField(kind="discrete", rhs="x^2", time_domain="half-line")
    with pytest.raises(IterationAbortError) as err:
        iterate(fld, 2.0, 100)
    # 2, 4, 16, 256, 65536, 2^32, then 2^64 > 1e12
    assert err.value.step == 6
    assert str(err.value) == ("iteration aborted at step 6: value "
                              "1.8446744073709552e+19 exceeds the overflow "
                              "guard")


def test_iterate_names_the_step_whose_evaluation_fails():
    fld = ScalarField(kind="discrete", rhs="1/(5-t)+0*x")
    with pytest.raises(IterationAbortError) as err:
        iterate(fld, 1.0, 10)
    # x_6 = f(5, x_5) divides by zero
    assert err.value.step == 6
    assert str(err.value) == ("iteration aborted at step 6: division by zero "
                              "at bytes 0..7")
    assert isinstance(err.value.__cause__, EvalError)


@pytest.mark.parametrize("n_steps", [10.0, True, "10", None],
                         ids=["float", "bool", "str", "None"])
def test_iterate_takes_a_whole_step_count_only(n_steps):
    fld = ScalarField(kind="discrete", rhs="x/2")
    with pytest.raises(DynamicsError, match="n_steps must be a whole number"):
        iterate(fld, 1.0, n_steps)


def test_iterate_takes_numpy_integers():
    fld = ScalarField(kind="discrete", rhs="x/2")
    traj = iterate(fld, 1.0, np.int64(3))
    assert list(traj.values) == [1.0, 0.5, 0.25, 0.125]
    assert traj.provenance["config"] == "n=3"


def _bind_iterate(fld, u0, n_steps):
    """iterate as a loop of bind() calls: the values, or the abort's step
    and message."""
    f = fld.bind()
    lo, hi = fld.state_domain
    x, values = float(u0), [float(u0)]
    for n in range(n_steps):
        try:
            x = f(float(n), x)
        except EvalError as err:
            return n + 1, str(err)
        if not math.isfinite(x) or abs(x) > 1e12:
            return n + 1, f"value {x!r} exceeds the overflow guard"
        if not lo <= x <= hi:
            return n + 1, f"value {x!r} left the state domain [{lo:g}, {hi:g}]"
        values.append(x)
    return np.array(values)


@given(root=_tree, a=st.floats(-3.0, 3.0),
       low=st.sampled_from([-math.inf, 0.0]), u0=st.floats(0.0, 3.0),
       n_steps=st.integers(1, 60))
@example(root=parse("1/(5-t)+0*x").root, a=0.0, low=-math.inf, u0=1.0,
         n_steps=10)
@example(root=parse("x^2").root, a=0.0, low=-math.inf, u0=2.0, n_steps=10)
@example(root=parse("x-1").root, a=0.0, low=0.0, u0=3.5, n_steps=10)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_compiled_map_loop_matches_a_loop_of_bind_calls(root, a, low, u0,
                                                        n_steps):
    fld = _field("discrete", root, a, low)
    want = _bind_iterate(fld, u0, n_steps)
    if isinstance(want, tuple):
        with pytest.raises(IterationAbortError) as err:
            iterate(fld, u0, n_steps)
        assert err.value.step == want[0]
        assert str(err.value) == (f"iteration aborted at step {want[0]}: "
                                  f"{want[1]}")
        return
    traj = iterate(fld, u0, n_steps)
    assert traj.values.tobytes() == want.tobytes()


def test_sequence_coefficients_are_expressions_in_n():
    fld = ScalarField(kind="discrete", rhs="2*t+0*x", time_domain="half-line")
    traj = iterate(fld, 7.0, 3)
    # x_{n+1} = 2n, so the samples are u0, 0, 2, 4
    assert list(traj.values) == [7.0, 0.0, 2.0, 4.0]
    # a varying capacity: the orbit is the recursion written out by hand
    bh, _ = make_beverton_holt(capacity="10+sin(0.37*t)")
    x, expected = 1.5, [1.5]
    for n in range(500):
        K = 10.0 + math.sin(0.37 * n)
        x = 2.0 * K * x / (K + (2.0 - 1) * x)
        expected.append(x)
    assert iterate(bh, 1.5, 500).values.tobytes() == np.array(expected).tobytes()


# ---------------------------------------------------------------------------
# trajectories and dense output
# ---------------------------------------------------------------------------

def test_values_at_grid_points_are_exact():
    traj = sample_function("sin(t)", (0.0, 6.3), 0.05)
    ts = traj.grid()
    assert np.array_equal(traj.values_at(ts), traj.values)


def test_values_at_between_grid_points():
    traj = sample_function("sin(t)", (0.0, 6.3), 0.05)
    qs = np.linspace(0.013, 6.28, 401)
    assert np.max(np.abs(traj.values_at(qs) - np.sin(qs))) <= 1e-6


def test_values_at_outside_span_raises():
    traj = sample_function("sin(t)", (0.0, 6.3), 0.05)
    with pytest.raises(DynamicsError):
        traj.values_at([-0.5])
    with pytest.raises(DynamicsError):
        traj.values_at([7.0])


def test_discrete_values_at_integer_only():
    traj = iterate(bh_const_field(), 1.0, 10)
    assert traj.values_at(3.0)[0] == traj.values[3]
    with pytest.raises(DynamicsError):
        traj.values_at(3.5)


def _sup(traj, tau, i0, i1, stride=1):
    """One shift over one window of Trajectory.shift_sups."""
    return float(traj.shift_sups([tau], [[i0]], [[i1]], stride)[0, 0])


def _shift_reference(traj, tau, i0, i1):
    ts = traj.t0 + traj.dt * np.arange(i0, i1 + 1)
    return float(np.max(np.abs(traj.values_at(ts + tau)
                               - traj.values[i0:i1 + 1])))


@settings(max_examples=200, deadline=None)
@given(t0=st.floats(-100.0, 100.0), dt=st.floats(0.05, 1.0),
       n=st.integers(8, 300), amp=st.floats(0.01, 100.0),
       level=st.floats(-100.0, 100.0), rate=st.floats(0.01, 1.0),
       phase=st.floats(0.0, 6.3), whole=st.floats(0.0, 1.0),
       place=st.sampled_from(["on", "near", "off"]),
       off=st.floats(1e-6, 1.0 - 1e-6), near=st.floats(-1e-10, 1e-10),
       lo=st.floats(0.0, 1.0), length=st.floats(0.0, 1.0),
       stride=st.integers(1, 4))
def test_shift_sup_matches_values_at(t0, dt, n, amp, level, rate, phase,
                                     whole, place, off, near, lo, length,
                                     stride):
    # shifts within 1e-9*max(1, k) steps of a whole number k of steps are
    # compared on the grid, so "near" stays inside that band and "off"
    # well outside it; values_at decides per point and agrees there
    i = np.arange(n)
    traj = Trajectory(kind="continuous", t0=t0, dt=dt,
                      values=level + amp * np.sin(rate * i + phase),
                      derivs=amp * rate / dt * np.cos(rate * i + phase))
    k = math.floor(whole * (n - 3))
    k = {"on": k, "near": max(0.0, k + near), "off": k + off}[place]
    tau = k * dt
    last = n - 1 - math.ceil(k - 1e-9)
    i0 = math.floor(lo * last)
    i1 = i0 + math.floor(length * (last - i0))
    tol = 1e-12 * (1.0 + float(np.max(np.abs(traj.values))))
    got = _sup(traj, tau, i0, i1)
    assert abs(got - _shift_reference(traj, tau, i0, i1)) <= tol
    strided = _sup(traj, tau, i0, i1, stride)
    ts = traj.t0 + traj.dt * np.arange(i0, i1 + 1, stride)
    ref = float(np.max(np.abs(traj.values_at(ts + tau)
                              - traj.values[i0:i1 + 1:stride])))
    assert abs(strided - ref) <= tol


def _sine_trajectory(t0, dt, n, rate=0.3, phase=0.4):
    i = np.arange(n)
    return Trajectory(kind="continuous", t0=t0, dt=dt,
                      values=2.0 + np.sin(rate * i + phase),
                      derivs=rate / dt * np.cos(rate * i + phase))


def _log_clock_trajectory(t0, dt, n, rate=1.0, scale=1.0):
    """scale*(2 + sin(ln(1 + rate*i))): it varies ever more slowly, so late
    chunks of a shift fall below the sup found near a window's start."""
    clock = np.log1p(rate * np.arange(n))
    return Trajectory(kind="continuous", t0=t0, dt=dt,
                      values=scale * (2.0 + np.sin(clock)),
                      derivs=scale * rate / dt * np.cos(clock) / np.exp(clock))


@settings(max_examples=100, deadline=None)
@given(t0=st.floats(-50.0, 50.0), dt=st.floats(0.05, 1.0),
       n=st.integers(8, 120), chunk=st.integers(1, 9),
       whole=st.floats(0.0, 1.0), off=st.sampled_from([0.0, 0.25, 0.6]),
       lo=st.floats(0.0, 1.0), length=st.floats(0.0, 1.0),
       stride=st.integers(1, 4))
def test_chunked_shift_sup_matches_values_at(t0, dt, n, chunk, whole, off,
                                             lo, length, stride):
    # chunks of a few samples put chunk edges inside every window; the sup
    # still matches the values_at reference, and equals the unchunked one
    # bit for bit
    traj = _sine_trajectory(t0, dt, n)
    tau = (math.floor(whole * (n - 3)) + off) * dt
    last = n - 1 - math.ceil(tau / dt - 1e-9)
    i0 = math.floor(lo * last)
    i1 = i0 + math.floor(length * (last - i0))
    want = _sup(traj, tau, i0, i1, stride)
    with mock.patch.object(dynamics, "_CHUNK", chunk):
        got = _sup(traj, tau, i0, i1, stride)
    assert got == want
    ts = traj.t0 + traj.dt * np.arange(i0, i1 + 1, stride)
    ref = float(np.max(np.abs(traj.values_at(ts + tau)
                              - traj.values[i0:i1 + 1:stride])))
    assert abs(got - ref) <= 1e-12 * 4.0


@pytest.mark.parametrize("chunk", [1, 2, 5, 64])
def test_batched_windows_match_one_window_at_a_time(chunk):
    # nested, overlapping and disjoint windows over on- and off-grid
    # shifts; masked entries read NaN
    traj = _sine_trajectory(-3.0, 0.1, 90)
    taus = np.array([0.0, 0.3, 0.37, 1.0, 2.55, 4.0])
    starts = np.array([[0], [10], [25], [5], [60]])
    ends = np.array([[80], [40], [60], [12], [88]])
    where = np.ones((5, taus.size), bool)
    # the last window has no room for the largest shift
    where[3, 1] = where[4, 5] = False
    with mock.patch.object(dynamics, "_CHUNK", chunk):
        sups = traj.shift_sups(taus, starts, ends, where=where)
    assert np.isnan(sups[3, 1]) and np.isnan(sups[4, 5])
    for w in range(5):
        for j, tau in enumerate(taus):
            if not where[w, j]:
                continue
            i0, i1 = int(starts[w, 0]), int(ends[w, 0])
            assert sups[w, j] == _sup(traj, tau, i0, i1)
            i1 = min(i1, len(traj) - 1 - math.ceil(tau / traj.dt - 1e-9))
            ts = traj.t0 + traj.dt * np.arange(i0, i1 + 1)
            ref = np.max(np.abs(traj.values_at(ts + tau)
                                - traj.values[i0:i1 + 1]))
            assert abs(sups[w, j] - ref) <= 1e-12 * 4.0


@pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
def test_chunked_sup_keeps_a_nan(chunk):
    # a non-finite derivative late in the span makes the off-grid sup NaN,
    # as one max over the whole window does, whichever chunk holds it
    traj = _sine_trajectory(0.0, 0.1, 40)
    traj.derivs[30] = np.nan
    with mock.patch.object(dynamics, "_CHUNK", chunk):
        sups = traj.shift_sups([0.15], [[0], [0]], [[35], [20]])
    assert np.isnan(sups[0, 0]) and not np.isnan(sups[1, 0])


def _shift_sups_loop(traj, taus, starts, ends, stride, where, chunk):
    """shift_sups as one loop over shifts, then chunks, then windows.

    Each shift forms its comparison over the hull of its windows ``chunk``
    samples at a time, and every window takes the max over its own part
    of each chunk.  The inputs must be valid: no checks are made.
    """
    v, d, dt, n = traj.values, traj._hermite_derivs(), traj.dt, len(traj)
    out = np.full(starts.shape, np.nan)
    for j, tau in enumerate(taus):
        k = tau / dt
        whole = round(k)
        if abs(k - whole) <= 1e-9 * max(1.0, k):
            shift, weights, last = whole, None, n - 1 - whole
        else:
            shift = math.floor(k)
            s = k - shift
            weights = ((2 * s - 3) * s * s + 1, (3 - 2 * s) * s * s,
                       dt * ((s - 2) * s + 1) * s, dt * (s - 1) * s * s)
            last = n - 2 - shift
        used = [w for w in range(starts.shape[0]) if where[w, j]]
        if not used:
            continue
        lo = min(starts[w, j] for w in used)
        spans = [(w, (starts[w, j] - lo) // stride,
                  (min(ends[w, j], last) - lo) // stride) for w in used]
        count = max(e1 for _, _, e1 in spans) + 1
        for c0 in range(0, count, chunk):
            c1 = min(count, c0 + chunk)
            a, b = lo + c0 * stride, lo + (c1 - 1) * stride + 1
            p, q = a + shift, b + shift
            if weights is None:
                seg = v[p:q:stride] - v[a:b:stride]
            else:
                seg = v[p:q:stride] * weights[0]
                seg += v[p + 1:q + 1:stride] * weights[1]
                seg += d[p:q:stride] * weights[2]
                seg += d[p + 1:q + 1:stride] * weights[3]
                seg -= v[a:b:stride]
            seg = np.abs(seg)
            for w, e0, e1 in spans:
                x, y = max(e0, c0), min(e1, c1 - 1)
                if x <= y:
                    part = seg[x - c0:y - c0 + 1].max()
                    out[w, j] = (part if x == e0
                                 else np.maximum(out[w, j], part))
    return out


@st.composite
def _kernel_calls(draw):
    """A valid shift_sups call, with the _CHUNK to run it under."""
    n = draw(st.integers(8, 80))
    dt = draw(st.sampled_from([0.1, 0.25, 1.0 / 3.0]))
    t0 = draw(st.floats(-20.0, 20.0))
    slow = draw(st.booleans())
    if slow:
        # slowly varying over many chunks, and compared at two shifts or
        # more: the increment bound skips chunks often
        traj = _log_clock_trajectory(t0, dt, n, draw(st.floats(0.05, 3.0)))
    else:
        traj = _sine_trajectory(t0, dt, n)
    if draw(st.booleans()):
        traj.derivs[draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    stride = draw(st.integers(1, 4))
    # few whole steps, so shifts share offsets (and row p + 1 of one shift
    # is row p of another); unsorted, on, near and off the grid
    frac = st.sampled_from([0.0, 1e-11, -1e-11, 0.25, 0.6])
    taus = [max(0.0, (whole + draw(frac)) * dt) for whole in
            draw(st.lists(st.integers(0, n // 3), min_size=1 + slow,
                          max_size=8))]
    k = np.array(taus) / dt
    on_grid = np.abs(k - np.rint(k)) <= 1e-9 * np.maximum(1.0, k)
    last = np.where(on_grid, n - 1 - np.rint(k), n - 2 - np.floor(k))
    # nested, overlapping or disjoint windows
    starts, ends = [], []
    for _ in range(draw(st.integers(1, 4))):
        i0 = draw(st.integers(0, n - 1))
        starts.append(i0)
        ends.append(draw(st.integers(i0, n - 1)))
    starts, ends = np.array(starts)[:, None], np.array(ends)[:, None]
    shape = (len(starts), len(taus))
    mask = np.array(draw(st.lists(st.booleans(), min_size=shape[0] * shape[1],
                                  max_size=shape[0] * shape[1]))).reshape(shape)
    # the windows of a shift start on one lattice of the stride, which may
    # differ between shifts, and each keeps a comparable index
    lattice = np.array(draw(st.lists(st.integers(0, stride - 1),
                                     min_size=len(taus), max_size=len(taus))))
    where = (mask & (starts % stride == lattice[None, :])
             & (np.minimum(ends, last[None, :]) >= starts))
    return (traj, taus, np.broadcast_to(starts, shape),
            np.broadcast_to(ends, shape), stride, where,
            draw(st.integers(1, 9)))


@settings(max_examples=400, deadline=None)
@given(call=_kernel_calls())
def test_shift_sups_match_the_per_shift_loop_bit_for_bit(call):
    traj, taus, starts, ends, stride, where, chunk = call
    with mock.patch.object(dynamics, "_CHUNK", chunk):
        got = traj.shift_sups(taus, starts, ends, stride, where=where)
    want = _shift_sups_loop(traj, taus, starts, ends, stride, where, chunk)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _skips_counted(monkeypatch):
    """A list that each shift_sups call's bound appends its skips to."""
    skips = []
    real = dynamics._IncrementBound.skips

    def counted(self, c, floor):
        out = real(self, c, floor)
        skips.append(sum(out))
        return out
    monkeypatch.setattr(dynamics._IncrementBound, "skips", counted)
    return skips


def _all_windows(taus, starts, ends):
    taus = np.asarray(taus, float)
    shape = (len(starts), taus.size)
    return (taus, np.broadcast_to(np.array(starts)[:, None], shape),
            np.broadcast_to(np.array(ends)[:, None], shape),
            np.ones(shape, bool))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_derivative_in_a_skippable_chunk_keeps_the_sup(
        monkeypatch, bad):
    # the shifts 2.5 and 5.5 steps read derivs[150] from base indices 147,
    # 148 and 144, 145, in chunks 9 and 8 of 16 indices from 2.  Without
    # the bad derivative both chunks are skipped for both shifts; with it
    # they are compared, and the sups are the per-shift loop's
    monkeypatch.setattr(dynamics, "_CHUNK", 16)
    skips = _skips_counted(monkeypatch)
    traj = _log_clock_trajectory(0.0, 0.1, 200, rate=0.5)
    call = _all_windows([0.25, 0.55], [2], [190])
    clean = traj.shift_sups(*call[:3], where=call[3])
    # skips[c - 1] counts the skips of chunk c
    assert skips[7:9] == [2, 2] and np.all(np.isfinite(clean))
    traj.derivs[150] = bad
    got = traj.shift_sups(*call[:3], where=call[3])
    want = _shift_sups_loop(traj, *call[:3], 1, call[3], 16)
    assert np.array_equal(got, want, equal_nan=True)
    assert not np.all(np.isfinite(got))


def test_values_near_1e300_are_never_skipped(monkeypatch):
    # the same curve skips chunks at scale 1 and none at scale 1e300, where
    # the kernel's sums may overflow; both give the per-shift loop's sups
    monkeypatch.setattr(dynamics, "_CHUNK", 16)
    for scale, skipping in ((1.0, True), (1e300, False)):
        skips = _skips_counted(monkeypatch)
        traj = _log_clock_trajectory(0.0, 0.1, 200, rate=0.5, scale=scale)
        call = _all_windows([0.25, 0.5, 0.55], [2], [190])
        got = traj.shift_sups(*call[:3], where=call[3])
        want = _shift_sups_loop(traj, *call[:3], 1, call[3], 16)
        assert np.array_equal(got, want, equal_nan=True)
        assert (sum(skips) > 0) == skipping


def test_the_bound_reads_increments_past_the_hull(monkeypatch):
    # the window [0, 4] compares v[i + 4] and v[i + 5]; v is flat over the
    # window and jumps between indices 6 and 7, past it.  A bound that saw
    # the window's increments only would skip chunks 1.. and keep sup 0
    monkeypatch.setattr(dynamics, "_CHUNK", 1)
    values = np.where(np.arange(11) >= 7, 1.0, 0.0)
    traj = Trajectory(kind="continuous", t0=0.0, dt=1.0, values=values,
                      derivs=np.zeros(11))
    got = traj.shift_sups([4.0, 5.0], [[0]], [[4]])
    assert got.tolist() == [[1.0, 1.0]]


def test_shift_sups_skip_chunks_of_a_log_clock_rung(monkeypatch):
    # a late window of sin(ln(1 + t)), compared at 20 shifts over 6 chunks,
    # reads far fewer rows than 2 per shift and chunk, and every sup is the
    # one a call per shift gives; a call within one chunk skips nothing
    reads = []
    real = dynamics._row_reader

    def counted(stride, size):
        row = real(stride, size)

        def read(arr, start, n):
            reads.append(n)
            return row(arr, start, n)
        return read
    monkeypatch.setattr(dynamics, "_row_reader", counted)
    traj = sample_function("sin(ln(1+abs(t)))", (0.0, 2.2e4), 0.05)
    taus = 0.1 * np.arange(1, 21)
    i0, i1 = 20_000, 400_000
    chunks = -(-(i1 - i0 + 1) // dynamics._CHUNK)
    got = traj.shift_sups(taus, [[i0]], [[i1]])[0]
    assert chunks == 6 and len(reads) < 2 * taus.size * chunks // 2
    assert got.tolist() == [traj.shift_sups([tau], [[i0]], [[i1]])[0, 0]
                            for tau in taus]
    reads.clear()
    traj.shift_sups(taus, [[i0]], [[i0 + 1000]])
    assert len(reads) == 2 * taus.size


@pytest.mark.parametrize("size", [1, 7, 8, 13, 1000])
def test_scratch_rows_start_on_cache_lines(size):
    rows = dynamics._scratch_rows(2, size)
    assert [r.size for r in rows] == [size, size]
    assert all(r.ctypes.data % 64 == 0 for r in rows)
    rows[0][:] = 1.0
    rows[1][:] = 2.0
    assert np.all(rows[0] == 1.0)


def test_shift_sups_errors_name_the_first_failing_shift():
    traj = _sine_trajectory(0.0, 0.1, 40)
    # the shift 3.85 leaves no comparable point in [38, 39]; 5.0 fits
    with pytest.raises(ValueError, match="comparable"):
        traj.shift_sups([0.1, 3.85], [[38]], [[39]])
    with pytest.raises(ValueError, match="lattice"):
        traj.shift_sups([0.1], [[0], [1]], [[20], [20]], stride=2)
    with pytest.raises(ValueError, match="bad index range"):
        traj.shift_sups([0.1], [[0]], [[40]])
    # a masked entry is not checked
    out = traj.shift_sups([0.1, 3.85], [[0]], [[39]], where=[[True, False]])
    assert np.isnan(out[0, 1]) and out[0, 0] > 0
    disc = iterate(bh_const_field(), 1.0, 30)
    with pytest.raises(DynamicsError, match="integer"):
        disc.shift_sups([1.0, 2.5], [[0]], [[20]])


def test_shift_sup_on_grid_is_exact():
    traj = sample_function("sin(t)+0.3*sin(3.7*t)", (-20.0, 30.0), 0.01)
    for k in (0, 1, 628, 2000):
        direct = np.max(np.abs(traj.values[k:] - traj.values[:len(traj) - k]))
        assert _sup(traj, k * 0.01, 0, len(traj) - 1 - k) == direct


def test_shift_sup_drops_points_past_the_span():
    traj = sample_function("sin(t)", (0.0, 10.0), 0.1)
    n = len(traj)
    # the shifted times of the last points fall past t_end; they are left
    # out rather than raising, on and off the grid
    assert _sup(traj, 0.5, 0, n - 1) == _sup(traj, 0.5, 0, n - 6)
    assert _sup(traj, 0.55, 0, n - 1) == _sup(traj, 0.55, 0, n - 7)
    with pytest.raises(ValueError, match="comparable"):
        _sup(traj, 9.95, n - 1, n - 1)
    with pytest.raises(ValueError):
        _sup(traj, -0.1, 0, 10)
    with pytest.raises(ValueError):
        _sup(traj, 0.1, 0, n)


def test_discrete_shift_sup_rejects_off_grid_shifts():
    traj = iterate(bh_const_field(), 1.0, 40)
    assert _sup(traj, 3.0, 0, 30) == float(
        np.max(np.abs(traj.values[3:34] - traj.values[:31])))
    with pytest.raises(DynamicsError, match="integer"):
        _sup(traj, 2.5, 0, 30)


def test_interp_budget():
    smooth = sample_function("sin(t)", (0.0, 6.3), 0.05)
    assert 0.0 < smooth.interp_budget() < 1e-7
    assert iterate(bh_const_field(), 1.0, 10).interp_budget() == 0.0


@settings(max_examples=60, deadline=None)
@given(t0=st.floats(-100.0, 100.0), dt=st.floats(0.01, 0.5),
       rate=st.floats(0.1, 3.0), steps=st.floats(0.05, 20.0),
       stored=st.booleans())
def test_shift_rise_bounds_the_comparison_between_grid_points(
        t0, dt, rate, steps, stored):
    n = 200
    ts = t0 + dt * np.arange(n)
    tr = Trajectory(kind="continuous", t0=t0, dt=dt,
                    values=np.sin(rate * ts),
                    derivs=rate * np.cos(rate * ts) if stored else None)
    tau = steps * dt
    if tau > tr.t_end - tr.t0 - dt:
        return
    lo, hi = t0 + dt * 20, tr.t_end
    rise = tr.shift_rise(tau, lo, hi)
    if abs(steps - round(steps)) <= 1e-9 * max(1.0, steps):
        assert rise == 0.0
        return
    grid = tr.grid()
    a = grid[(grid >= lo) & (grid + dt + tau <= hi + 1e-9)]
    # 19 points inside each cell [a, a + dt]
    s = (a[:, None] + dt * np.linspace(0.05, 0.95, 19)).ravel()
    gap = np.abs(tr.values_at(s + tau) - tr.values_at(s)).reshape(len(a), -1)
    at_grid = np.abs(tr.values_at(a + dt + tau) - tr.values_at(a + dt))
    ends = np.maximum(np.abs(tr.values_at(a + tau) - tr.values[
        np.rint((a - t0) / dt).astype(int)]), at_grid)
    assert np.all(gap.max(axis=1) <= ends + rise + 1e-12)


def _rise_by_cells(traj, tau, lo, hi):
    """Trajectory.shift_rise over whole arrays, from the Hermite second
    derivative written out at both ends of each cell meeting [lo, hi]."""
    k = tau / traj.dt
    if abs(k - round(k)) <= 1e-9 * max(1.0, k):
        return 0.0
    v = traj.values
    d = traj.derivs if traj.derivs is not None else np.gradient(v, traj.dt)
    c0 = max(0, math.floor((lo - traj.t0) / traj.dt))
    c1 = min(len(v) - 1, math.ceil((hi - traj.t0) / traj.dt))
    if c1 <= c0:
        return 0.0
    dv, d0, d1 = np.diff(v)[c0:c1], d[c0:c1], d[c0 + 1:c1 + 1]
    start = 6.0 * dv - traj.dt * (4.0 * d0 + 2.0 * d1)
    end = -6.0 * dv + traj.dt * (2.0 * d0 + 4.0 * d1)
    return float(np.maximum(np.abs(start), np.abs(end)).max()) / 4.0


@pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
@pytest.mark.parametrize("stored", [True, False])
def test_chunked_shift_rise_matches_the_whole_array_formula(monkeypatch,
                                                            chunk, stored):
    monkeypatch.setattr(dynamics, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    values = np.sin(0.3 * np.arange(40)) + 0.1 * rng.standard_normal(40)
    tr = Trajectory(kind="continuous", t0=-1.5, dt=0.25, values=values,
                    derivs=rng.standard_normal(40) if stored else None)
    for tau, lo, hi in ((0.6, -1.5, 8.25), (0.1, 0.3, 4.9), (2.49, 7.0, 7.1),
                        (0.5, -1.5, 8.25), (1.3, 9.0, 12.0)):
        want = _rise_by_cells(tr, tau, lo, hi)
        assert tr.shift_rise(tau, lo, hi) == pytest.approx(want, rel=1e-12,
                                                           abs=1e-15)


def _noisy_sine(t0, dt, n, rate, noise, seed, stored):
    rng = np.random.default_rng(seed)
    ts = t0 + dt * np.arange(n)
    return Trajectory(kind="continuous", t0=t0, dt=dt,
                      values=np.sin(rate * ts) + noise * rng.standard_normal(n),
                      derivs=rate * np.cos(rate * ts) if stored else None)


@settings(max_examples=60, deadline=None)
@given(t0=st.floats(-100.0, 100.0), dt=st.floats(0.01, 2.0),
       n=st.integers(2, 120), rate=st.floats(0.05, 3.0),
       noise=st.sampled_from([0.0, 0.01, 0.5]), seed=st.integers(0, 99),
       stored=st.booleans())
def test_shift_slope_bounds_the_dense_output_and_is_tight(t0, dt, n, rate,
                                                          noise, seed, stored):
    tr = _noisy_sine(t0, dt, n, rate, noise, seed, stored)
    slope, slack = tr.shift_slope(0.0)
    # 400 points inside each cell: every difference quotient of H is at
    # most max |H'|, and the largest comes close to it
    s = tr.t0 + dt * np.linspace(0.0, n - 1, 400 * (n - 1) + 1)
    quotients = np.abs(np.diff(tr.values_at(s))) / np.diff(s)
    assert quotients.max() <= slope * (1 + 1e-9) + 1e-9
    assert slope <= 1.01 * quotients.max() + 1e-9
    assert 0.0 < slack < 3e-9 * (1.0 + slope * dt)


@settings(max_examples=100, deadline=None)
@given(dt=st.floats(0.01, 2.0), n=st.integers(30, 300),
       rate=st.floats(0.05, 3.0), noise=st.sampled_from([0.0, 0.01, 0.5]),
       seed=st.integers(0, 99), stored=st.booleans(),
       steps=st.floats(0.0, 10.0), move=st.floats(-3.0, 3.0),
       snap=st.sampled_from([0.0, 1e-10, -1e-10, 9e-10]))
def test_shift_sups_move_no_more_than_the_slope_allows(dt, n, rate, noise,
                                                       seed, stored, steps,
                                                       move, snap):
    # over one index range, two shifts' sups differ by at most
    # slope*|tau - tau'| + slack, also for a shift the kernel snaps onto
    # the grid
    tr = _noisy_sine(-3.0, dt, n, rate, noise, seed, stored)
    k = round(steps)
    tau_a = dt * k * (1.0 + snap) if snap else dt * steps
    tau_b = max(0.0, tau_a + dt * move)
    slope, slack = tr.shift_slope(max(tau_a, tau_b))
    last = int(tr.last_compared([tau_a, tau_b]).min())
    if last < 2:
        return
    a, b = tr.shift_sups([tau_a, tau_b], [[0]], [[last]])[0]
    assert abs(a - b) <= slope * abs(tau_a - tau_b) + slack


@pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
@pytest.mark.parametrize("stored", [True, False])
def test_chunked_shift_slope_matches_one_chunk(monkeypatch, chunk, stored):
    tr = _noisy_sine(-1.5, 0.25, 40, 0.3, 0.1, chunk, stored)
    whole = tr.shift_slope(7.0)
    monkeypatch.setattr(dynamics, "_CHUNK", chunk)
    assert tr.shift_slope(7.0) == whole


def test_last_compared_is_the_last_index_the_kernel_compares():
    tr = sample_function("sin(t)", (0.0, 10.0), 0.1)
    n = len(tr)
    taus = [0.5, 0.55, 0.5 + 1e-12, 9.95]
    last = tr.last_compared(taus)
    assert last.tolist() == [n - 6, n - 7, n - 6, n - 101]
    for tau, i in zip(taus, last.tolist()):
        tr.shift_sups([tau], [[i]], [[i]])
        with pytest.raises(ValueError, match="comparable"):
            tr.shift_sups([tau], [[i + 1]], [[i + 1]])
    assert tr.last_compared([0.0]).tolist() == [n - 1]


def test_trajectory_rejects_nonfinite():
    with pytest.raises(ValueError):
        Trajectory(kind="continuous", t0=0.0, dt=0.1,
                   values=np.array([0.0, math.inf, 1.0]))


@pytest.mark.parametrize("t0, dt, match", [
    (0.0, 0.0, "dt must be positive"),
    (0.0, -0.01, "dt must be positive"),
    (0.0, math.inf, "dt must be positive"),
    (math.nan, 0.01, "t0 must be finite"),
    (-math.inf, 0.01, "t0 must be finite"),
])
def test_trajectory_rejects_a_grid_it_cannot_sample(t0, dt, match):
    # a zero step divided by zero, a negative one read as a short span and
    # a nan origin broke the window ladder, all inside classify_trajectory
    values = np.sin(0.01 * np.arange(2000))
    with pytest.raises(ValueError, match=match):
        Trajectory(kind="continuous", t0=t0, dt=dt, values=values)


def test_sample_function_rejects_unbound_param():
    with pytest.raises(FieldValidationError):
        sample_function("a*sin(t)", (0.0, 1.0), 0.1)


def test_sample_function_derivatives():
    # an expression's derivatives are exact: cos(t), bit for bit, where
    # central differences erred by about 1e-10 here and 7e-3 at t = 2e5
    traj = sample_function("sin(t)", (0.0, 6.3), 0.05)
    assert traj.derivs.tobytes() == np.cos(traj.grid()).tobytes()
    traj = sample_function("sin(t)+sin(sqrt(2)*t)", (0.0, 400.0), 0.01)
    ts = traj.grid()
    closed = np.cos(ts) + math.sqrt(2) * np.cos(math.sqrt(2) * ts)
    assert np.max(np.abs(traj.derivs - closed)) <= 1e-15 * (1 + math.sqrt(2))


@pytest.mark.parametrize("fn, span, dt, index, want", [
    # abs has derivative 0 at its kink, as central differences gave
    ("sin(ln(1+abs(t)))", (0.0, 1.0), 0.01, 0, 0.0),
    # floor has derivative 0 at its jumps; a central difference across one
    # gave 1 / 4e-6 = 2.5e5
    ("floor(t)", (0.0, 3.0), 0.5, slice(None), 0.0),
    # sqrt's derivative is finite at t0 = 1e-7, so t0 - h < 0 is never
    # evaluated
    ("sqrt(t)", (1e-7, 1.0), 0.1, 0, 0.5 / math.sqrt(1e-7)),
])
def test_sample_function_derivatives_at_kinks_jumps_and_edges(fn, span, dt,
                                                              index, want):
    traj = sample_function(fn, span, dt)
    assert np.all(traj.derivs[index] == want)


def test_sample_function_falls_back_to_central_differences_where_not_finite():
    # at t = 0 the derivative of sqrt is infinite; only that point takes a
    # central difference, which needs sqrt at -h and raises as before
    with pytest.raises(EvalError, match="square root of negative value"):
        sample_function("sqrt(t)", (0.0, 1.0), 0.1)
    traj = sample_function("abs(t)^0.5", (0.0, 1.0), 0.1)
    assert traj.derivs[0] == 0.0  # |h|^0.5 - |-h|^0.5 over 2h
    assert traj.derivs[1:].tobytes() == (0.5 * traj.grid()[1:] ** -0.5).tobytes()


# Long arrays are filled _CHUNK samples at a time.  A chunk of 7 puts seams
# all through these short inputs; every output must stay bit-equal to the
# whole-array formula below.

def _bits(a):
    return np.asarray(a, float).tobytes()


@pytest.mark.parametrize("fn, span, dt, count", [
    ("sin(t)*exp(-t/5)", (0.0, 2.0), 0.1, 21),       # 3 whole chunks
    ("sin(t)*exp(-t/5)", (-3.3, 1.0), 0.1, 44),      # negative t0, partial
    ("cos(0.7*t)*t+2", (-1.0, 3.9), 0.1, 50),
    ("cos(0.7*t)*t+2", (2.0, 2.5), 0.1, 6),          # one short chunk
    ("3.5", (0.0, 1.3), 0.1, 14),
    ("3.5", (-7.0, 0.4), 0.05, 149),
])
def test_chunked_sampling_matches_the_whole_array_formula(monkeypatch, fn, span,
                                                          dt, count):
    # an expression takes its values and exact derivatives in one pass,
    # through the same chunks
    monkeypatch.setattr(dynamics, "_CHUNK", 7)
    sizes = []
    eval_array_dt = Expression.eval_array_dt

    def recording(self, ts, params=None):
        sizes.append(ts.size)
        return eval_array_dt(self, ts, params)

    monkeypatch.setattr(Expression, "eval_array_dt", recording)
    traj = sample_function(fn, span, dt)
    assert len(traj) == count and max(sizes) <= 7
    values, derivs = eval_array_dt(parse(fn), span[0] + dt * np.arange(count))
    assert _bits(traj.values) == _bits(values)
    assert _bits(traj.derivs) == _bits(derivs)


@pytest.mark.parametrize("fn", [np.sin, lambda t: t, 3.5, None])
def test_sample_function_takes_expressions_only(fn):
    with pytest.raises(TypeError, match="expression in t"):
        sample_function(fn, (0.0, 1.0), 0.1)
    traj = sample_function(parse("t"), (0.0, 1.0), 0.1, name="ramp")
    assert traj.provenance["function"] == "ramp"


def test_chunked_sampling_raises_what_the_whole_grid_raises(monkeypatch):
    # chunk [0, 0.3] overflows to inf and chunk [1.6, 1.9] takes the log of
    # a negative value: the evaluation error wins, as on one whole chunk
    monkeypatch.setattr(dynamics, "_CHUNK", 4)
    with pytest.raises(EvalError, match="log of non-positive"):
        sample_function("exp(1000*(1-t)) + ln(1.5-t)", (0.0, 2.0), 0.1)
    with pytest.raises(DynamicsError, match="not finite on the grid"):
        sample_function("exp(1000*(1-t)) + ln(2.5-t)", (0.0, 2.0), 0.1)


def test_a_curve_that_is_not_finite_raises_without_a_warning():
    # the central difference at t = 0 is inf - inf; the NaN it gives is
    # reported as the curve not being finite, not as a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DynamicsError, match="not finite on the grid"):
            sample_function("exp(1000*(1-t)) + ln(2.5-t)", (0.0, 2.0), 0.1)


@pytest.mark.parametrize("size", [5, 11, 12, 23])
def test_chunked_interp_budget_sees_a_spike_on_every_seam(monkeypatch, size):
    # with chunks of 7 samples overlapping by 4, a spike at index i enters
    # the differences i-4..i, which straddle a seam for most i.  With
    # stored derivatives the budget is the fourth-difference term alone;
    # without them the third differences and the two end second
    # differences of the np.gradient fallback are added
    monkeypatch.setattr(dynamics, "_CHUNK", 7)
    base = np.sin(0.2 * np.arange(size))
    for i in range(size):
        values = base.copy()
        values[i] += 1.0 + i
        traj = Trajectory(kind="continuous", t0=0.0, dt=0.1, values=values,
                          derivs=np.zeros(size))
        want = float(np.max(np.abs(np.diff(values, 4)))) / 384.0
        assert traj.interp_budget() == want
        free = Trajectory(kind="continuous", t0=0.0, dt=0.1, values=values)
        ends = np.abs(np.diff(values, 2)[[0, -1]]).max()
        third = np.abs(np.diff(values, 3)).max()
        assert free.interp_budget() == pytest.approx(
            want + max(third / 24.0, ends / 8.0), rel=1e-12)


def test_chunked_values_at_matches_the_whole_array_formula(monkeypatch):
    monkeypatch.setattr(dynamics, "_CHUNK", 7)
    traj = sample_function("sin(t)+0.3*sin(3.7*t)", (-2.0, 3.0), 0.1)
    grid = traj.grid()
    # on-grid points, points within 1e-9 steps of the grid and off-grid
    # points, mixed: the whole query takes the Hermite formula
    qs = np.concatenate([grid[3:19], grid[20:35] + 3e-11, grid[5:14] - 4e-11,
                         grid[:-1] + 0.037, [grid[0], grid[-1]]])
    pos = (qs - traj.t0) / traj.dt
    idx = np.clip(np.floor(pos + 1e-9).astype(int), 0, len(traj) - 2)
    s = pos - idx
    s2 = s * s
    s3 = s2 * s
    v, d = traj.values, traj.derivs
    want = ((2 * s3 - 3 * s2 + 1) * v[idx] + (-2 * s3 + 3 * s2) * v[idx + 1]
            + traj.dt * ((s3 - 2 * s2 + s) * d[idx] + (s3 - s2) * d[idx + 1]))
    assert _bits(traj.values_at(qs)) == _bits(want)
    assert _bits(traj.values_at(qs[:60].reshape(5, 12))) == _bits(
        want[:60].reshape(5, 12))
    # a query wholly within 1e-9 steps of the grid reads the stored values
    near = np.concatenate([grid[20:35] + 3e-11, grid[3:19]])
    assert _bits(traj.values_at(near)) == _bits(
        np.concatenate([v[20:35], v[3:19]]))


def test_sampling_peak_memory_stays_near_the_output():
    # sampling holds its output, values + derivs, plus O(_CHUNK) scratch
    sample_function("sin(ln(1+abs(t)))", (0.0, 1.0), 0.05)  # warm caches
    tracemalloc.start()
    try:
        traj = sample_function("sin(ln(1+abs(t)))", (0.0, 50000.0), 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) == 1_000_001
    assert peak < 1.5 * (traj.values.nbytes + traj.derivs.nbytes)


# ---------------------------------------------------------------------------
# field construction and shifting
# ---------------------------------------------------------------------------

def test_field_validation_errors():
    with pytest.raises(FieldValidationError):
        ScalarField(kind="continuous", rhs="a*x")  # unbound parameter
    with pytest.raises(FieldValidationError):
        ScalarField(kind="continuous", rhs="-x", state_domain=(2.0, 1.0))
    with pytest.raises(FieldValidationError):
        ScalarField(kind="hybrid", rhs="-x")
    with pytest.raises(FieldValidationError):
        ScalarField(kind="discrete", rhs="x/2", time_domain="full-line")
    with pytest.raises(FieldValidationError):
        ScalarField(kind="continuous", rhs="1/x")  # pole on the spot grid


def test_discrete_fields_default_to_the_half_line():
    halving = ScalarField(kind="discrete", rhs="x/2")
    assert halving.time_domain == "half-line"
    assert ScalarField(kind="continuous", rhs="-x").time_domain == "full-line"
    # the ids of earlier versions, where the half-line was spelled out
    assert halving.field_id == "a0b4c148fdcf"
    assert ScalarField(kind="continuous",
                       rhs="-x+sin(t)").field_id == "e0424ab7d0df"


def test_field_id_stable_and_sensitive():
    a = bh_const_field(mu=2.0)
    b = bh_const_field(mu=2.0)
    c = bh_const_field(mu=3.0)
    assert a.field_id == b.field_id
    assert a.field_id != c.field_id


# ---------------------------------------------------------------------------
# contraction of pairs
# ---------------------------------------------------------------------------

def test_halving_map_contracts_exactly():
    fld = ScalarField(kind="discrete", rhs="x/2", time_domain="half-line")
    times, gaps, report = contraction_gap(fld, 1.0, 3.0, 30)
    assert report.verdict == "pass"
    assert np.array_equal(gaps, 2.0 * 0.5 ** np.arange(31))


def test_bh_pair_contracts():
    times, gaps, report = contraction_gap(bh_varying_field(), 3.0, 12.0, 10_000)
    assert report.verdict == "pass"
    assert gaps[-1] <= 1e-3


def test_forcing_only_pair_keeps_constant_gap():
    cfg = IntegratorConfig(abs_tol=1e-9, rel_tol=0.0)
    times, gaps, report = contraction_gap(chirp_field(), 0.0, 0.5, (0.0, 20.0), cfg)
    assert report.verdict == "pass"
    assert np.max(np.abs(gaps - 0.5)) <= 1e-12


def test_relax_sin_gap_is_geometric():
    times, gaps, report = contraction_gap(relax_sin_field(), 0.0, 1.0, (0.0, 5.0))
    assert report.verdict == "pass"
    assert abs(gaps[-1] - math.exp(-5.0)) <= 1e-8


def test_expanding_map_fails_with_witness():
    fld = ScalarField(kind="discrete", rhs="2*x", time_domain="half-line")
    times, gaps, report = contraction_gap(fld, 1.0, 2.0, 10)
    assert report.verdict == "fail"
    assert report.witness is not None
    assert report.witness["kind"] == "gap increased"


@settings(max_examples=60, deadline=None)
@given(a=st.floats(min_value=-0.9, max_value=0.9),
       u1=st.floats(min_value=-5.0, max_value=5.0),
       u2=st.floats(min_value=-5.0, max_value=5.0))
def test_linear_map_contracts(a, u1, u2):
    fld = ScalarField(kind="discrete", rhs="a*x", params={"a": a},
                      time_domain="half-line")
    times, gaps, report = contraction_gap(fld, u1, u2, 50)
    assert report.verdict == "pass"


# ---------------------------------------------------------------------------
# property checks
# ---------------------------------------------------------------------------

def test_monotone_bh():
    x_grid = np.arange(0.5, 25.0, 0.05)
    report = check_monotone_in_x(bh_varying_field(), np.arange(20.0), x_grid)
    assert report.verdict == "pass"


def test_monotone_direction_and_witness():
    fld = ScalarField(kind="continuous", rhs="-x")
    x_grid = np.linspace(-1.0, 1.0, 21)
    up = check_monotone_in_x(fld, [0.0, 1.0], x_grid)
    assert up.verdict == "fail"
    assert up.witness["f_lo"] > up.witness["f_hi"]
    down = check_monotone_in_x(fld, [0.0, 1.0], x_grid,
                               direction="non-increasing")
    assert down.verdict == "pass"


def test_lipschitz_bh_constant_k():
    x_grid = np.arange(5.0, 20.0 + 1e-9, 0.01)
    report = check_lipschitz_one(bh_const_field(), [0.0], x_grid)
    assert report.verdict == "pass"
    assert abs(report.extreme - 200.0 / 225.0) <= 1e-3


def test_lipschitz_halving_and_doubling():
    halving = ScalarField(kind="discrete", rhs="x/2", time_domain="half-line")
    x_grid = np.linspace(-3.0, 3.0, 61)
    ok = check_lipschitz_one(halving, [0.0], x_grid)
    assert ok.verdict == "pass"
    assert abs(ok.extreme - 0.5) <= 1e-12
    doubling = ScalarField(kind="discrete", rhs="2*x", time_domain="half-line")
    bad = check_lipschitz_one(doubling, [0.0], x_grid)
    assert bad.verdict == "fail"
    assert bad.witness["ratio"] == pytest.approx(2.0, abs=1e-9)


def test_bh_contracts_on_invariant_region():
    # with the drifting capacity in [9, 11] the map takes [5, 22] into itself
    # and is a strict contraction there, even though it expands below x = 5
    x_grid = np.arange(5.0, 22.0 + 1e-9, 0.01)
    report = check_lipschitz_one(bh_varying_field(), np.arange(20.0), x_grid)
    assert report.verdict == "pass"
    assert report.extreme <= 0.946


def test_bh_expands_below_invariant_region():
    x_grid = np.arange(0.5, 3.0, 0.01)
    report = check_lipschitz_one(bh_varying_field(), np.arange(5.0), x_grid)
    assert report.verdict == "fail"
    assert report.extreme > 1.3


def test_boundedness_pass_exact():
    traj = sample_function("3.5", (0.0, 10.0), 0.1)
    report = boundedness(traj, 3.5)
    assert report.verdict == "pass"
    assert report.extreme == 3.5


def test_boundedness_fail_first_crossing():
    traj = sample_function("exp(t)", (0.0, 3.0), 0.001)
    report = boundedness(traj, 10.0)
    assert report.verdict == "fail"
    assert abs(report.witness["t"] - math.log(10.0)) <= 0.0015


def test_boundedness_tail_window():
    traj = sample_function("exp(0-t)+1", (0.0, 10.0), 0.01)
    assert boundedness(traj, 1.01).verdict == "fail"
    assert boundedness(traj, 1.01, tail_from=5.0).verdict == "pass"


def _boundedness_formula(traj, bound, tail_from):
    times, vals = traj.grid(), traj.values
    if tail_from is not None:
        mask = times >= tail_from - 1e-9
        times, vals = times[mask], vals[mask]
    sup = float(np.max(np.abs(vals)))
    witness = None
    if sup > bound:
        k = int(np.argmax(np.abs(vals) > bound))
        witness = {"t": float(times[k]), "value": float(vals[k])}
    return sup, witness, len(vals)


@pytest.mark.parametrize("tail_at", [None, 0, 6, 7, 8, 15.5, 22])
def test_chunked_boundedness_matches_the_whole_array_formula(monkeypatch,
                                                            tail_at):
    # a chunk of 7 puts seams before, at and after the tail's start and
    # the first violation
    monkeypatch.setattr(dynamics, "_CHUNK", 7)
    for hit in range(23):
        vals = np.full(23, -0.0)
        vals[hit], vals[22] = -3.0, 2.5
        traj = Trajectory(kind="continuous", t0=-1.3, dt=0.1, values=vals)
        tail = None if tail_at is None else traj.t0 + traj.dt * tail_at
        for bound in (2.0, 2.75, 3.0):
            rep = boundedness(traj, bound, tail)
            sup, witness, samples = _boundedness_formula(traj, bound, tail)
            assert _bits(rep.extreme) == _bits(sup)
            assert (rep.witness, rep.samples) == (witness, samples)
            assert rep.verdict == ("pass" if witness is None else "fail")
    zero = Trajectory(kind="continuous", t0=0.0, dt=1.0, values=np.full(9, -0.0))
    assert _bits(boundedness(zero, 1.0, 3.0).extreme) == _bits(0.0)
    with pytest.raises(DynamicsError, match="beyond"):
        boundedness(zero, 1.0, 8.5)


def test_boundedness_peak_memory_stays_near_a_chunk():
    # the tail's start and the first violation are found _CHUNK samples at
    # a time, not through full-length times and |values|
    traj = sample_function("sin(ln(1+t))", (0.0, 50000.0), 0.05)
    tracemalloc.start()
    try:
        failing = boundedness(traj, 0.5, tail_from=10000.0)
        passing = boundedness(traj, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert failing.verdict == "fail" and passing.verdict == "pass"
    assert failing.samples == 800_001
    assert peak < traj.values.nbytes / 4
