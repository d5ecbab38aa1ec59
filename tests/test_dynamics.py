"""Integrator, iterator, and property-check tests against closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rapflow.dynamics import (
    BlowupError,
    DynamicsError,
    FieldValidationError,
    IntegratorConfig,
    IterationAbortError,
    ScalarField,
    StepUnderflowError,
    Trajectory,
    _rkf45_step,
    boundedness,
    check_lipschitz_one,
    check_monotone_in_x,
    contraction_gap,
    integrate,
    iterate,
    sample_function,
    shift_field,
)

CHIRP_RHS = "2*t*cos((t^2+pi^3)^(1/3)) / (3*(t^2+pi^3)^(2/3))"
CHIRP_CURVE = "sin((t^2+pi^3)^(1/3))"
BH_RHS = "mu*K*x/(K+(mu-1)*x)"
BH_VARYING_RHS = "mu*(10+sin(ln(1+t)))*x/((10+sin(ln(1+t)))+(mu-1)*x)"


def chirp_field():
    return ScalarField(kind="continuous", rhs=CHIRP_RHS, name="slow-chirp")


def relax_sin_field():
    return ScalarField(kind="continuous", rhs="-x+sin(t)", name="relax-sin")


def bh_const_field(mu=2.0, K=10.0):
    return ScalarField(kind="discrete", rhs=BH_RHS, params={"mu": mu, "K": K},
                       state_domain=(0.0, math.inf), time_domain="half-line")


def bh_varying_field(mu=2.0):
    return ScalarField(kind="discrete", rhs=BH_VARYING_RHS, params={"mu": mu},
                       state_domain=(0.0, math.inf), time_domain="half-line")


# ---------------------------------------------------------------------------
# continuous integration against closed forms
# ---------------------------------------------------------------------------

def test_linear_decay_endpoint():
    fld = ScalarField(kind="continuous", rhs="-x")
    traj = integrate(fld, 1.0, (0.0, 1.0))
    assert abs(traj.value_at(1.0) - math.exp(-1.0)) <= 1e-9


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
    leg2 = integrate(fld, leg1.value_at(1.0), (1.0, 2.0))
    assert abs(full.value_at(2.0) - leg2.value_at(2.0)) <= 1e-8


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


def test_rk4_matches_rkf45():
    tight = IntegratorConfig(method="rkf45", abs_tol=1e-10, rel_tol=1e-10)
    fixed = IntegratorConfig(method="rk4", max_step=1e-3)
    a = integrate(chirp_field(), 0.0, (0.0, 50.0), tight)
    b = integrate(chirp_field(), 0.0, (0.0, 50.0), fixed)
    assert np.max(np.abs(a.values - b.values)) <= 1e-6


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


# The Fehlberg tableau and a step driven by it, kept as the reference for
# the written-out step in rapflow.dynamics.
_A = ((), (1 / 4,), (3 / 32, 9 / 32),
      (1932 / 2197, -7200 / 2197, 7296 / 2197),
      (439 / 216, -8.0, 3680 / 513, -845 / 4104),
      (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40))
_C = (0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2)
_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
_TR = (1 / 360, 0.0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55)


def _tableau_step(f, t, y, h, k1=None):
    k = [0.0] * 6
    k[0] = f(t, y) if k1 is None else k1
    for i in range(1, 6):
        acc = 0.0
        for j in range(i):
            acc += _A[i][j] * k[j]
        k[i] = f(t + _C[i] * h, y + h * acc)
    y5 = y + h * sum(b * ki for b, ki in zip(_B5, k))
    err = abs(h * sum(c * ki for c, ki in zip(_TR, k)))
    return y5, err


def _tableau_integrate(f, u0, t0, t1, cfg):
    """integrate's cell loop for rkf45, on the tableau-driven step."""
    n_cells = max(1, math.ceil((t1 - t0) / cfg.dt_out - 1e-9))
    y = float(u0)
    values, derivs = [y], [f(t0, y)]
    for cell in range(n_cells):
        t, t_target = t0 + cell * cfg.dt_out, t0 + (cell + 1) * cfg.dt_out
        k1 = derivs[-1]
        while t < t_target - 1e-12 * max(1.0, abs(t_target)):
            h = min(cfg.max_step, t_target - t)
            while True:
                y_new, err = _tableau_step(f, t, y, h, k1=k1)
                if math.isfinite(err) and err <= (
                        cfg.abs_tol + cfg.rel_tol * max(abs(y), abs(y_new))):
                    break
                h *= 0.5
            y = y_new
            t = t_target if h >= (t_target - t) - 1e-12 else t + h
            k1 = None
        values.append(y)
        derivs.append(f(t_target, y))
    return np.array(values), np.array(derivs)


@pytest.mark.parametrize("rhs", ["-x+sin(t)", CHIRP_RHS])
@given(t=st.floats(-50.0, 50.0), y=st.floats(-5.0, 5.0),
       h=st.floats(1e-6, 0.5), given_k1=st.booleans())
@settings(max_examples=300, deadline=None)
def test_rkf45_step_matches_the_tableau_bit_for_bit(rhs, t, y, h, given_k1):
    f = ScalarField(kind="continuous", rhs=rhs).bind()
    k1 = f(t, y) if given_k1 else None
    got = _rkf45_step(f, t, y, h, k1=k1)
    want = _tableau_step(f, t, y, h, k1=k1)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def _same_bits(a, b):
    # NaN sign bits are not stable across CPython's float fast paths
    return (math.isnan(a) and math.isnan(b)) or (
        np.float64(a).tobytes() == np.float64(b).tobytes())


@given(ks=st.lists(st.floats(-10.0, 10.0)
                   | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
                   min_size=6, max_size=6),
       y=st.sampled_from([0.0, -0.0, 1.5]), h=st.floats(1e-3, 1.0))
@settings(max_examples=300, deadline=None)
def test_rkf45_step_sums_match_the_tableau_on_signed_zeros_and_non_finite(
        ks, y, h):
    def stages(calls):
        values = iter(ks)

        def f(t, x):
            calls.append((t, x))
            return next(values)
        return f

    got_calls, want_calls = [], []
    got = _rkf45_step(stages(got_calls), 0.0, y, h)
    want = _tableau_step(stages(want_calls), 0.0, y, h)
    assert all(_same_bits(a, b) for a, b in zip(got, want))
    assert len(got_calls) == len(want_calls) == 6
    for (ta, xa), (tb, xb) in zip(got_calls, want_calls):
        assert _same_bits(ta, tb) and _same_bits(xa, xb)


@pytest.mark.parametrize("fld", [relax_sin_field(), chirp_field()],
                         ids=["relax-sin", "slow-chirp"])
def test_integrate_matches_the_tableau_loop(fld):
    cfg = IntegratorConfig(dt_out=0.05)
    traj = integrate(fld, 0.75, (0.0, 20.0), cfg)
    values, derivs = _tableau_integrate(fld.bind(), 0.75, 0.0, 20.0, cfg)
    assert traj.values.tobytes() == values.tobytes()
    assert traj.derivs.tobytes() == derivs.tobytes()


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
    assert "state domain" in str(err.value)


def test_iterate_overflow_abort():
    fld = ScalarField(kind="discrete", rhs="x^2", time_domain="half-line")
    with pytest.raises(IterationAbortError) as err:
        iterate(fld, 2.0, 100)
    assert 1 < err.value.step < 20


def test_seq_params_tabulated_sequence():
    fld = ScalarField(
        kind="discrete", rhs="K+0*x", time_domain="half-line",
        seq_params={"K": lambda n: float(2 * n)})
    traj = iterate(fld, 7.0, 3)
    # x_{n+1} = K_n, so the samples are u0, K_0, K_1, K_2
    assert list(traj.values) == [7.0, 0.0, 2.0, 4.0]
    # a tabulated capacity: the orbit is the recursion written out by hand
    cap = [10.0 + math.sin(0.37 * n) for n in range(500)]
    bh = ScalarField(kind="discrete", rhs=BH_RHS, params={"mu": 2.0},
                     state_domain=(0.0, math.inf), time_domain="half-line",
                     seq_params={"K": lambda n: cap[n]})
    x, expected = 1.5, [1.5]
    for n in range(500):
        K = cap[n]
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
    assert traj.value_at(3.0) == traj.values[3]
    with pytest.raises(DynamicsError):
        traj.value_at(3.5)


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
    got = traj.shift_sup(tau, i0, i1)
    assert abs(got - _shift_reference(traj, tau, i0, i1)) <= tol
    strided = traj.shift_sup(tau, i0, i1, stride)
    ts = traj.t0 + traj.dt * np.arange(i0, i1 + 1, stride)
    ref = float(np.max(np.abs(traj.values_at(ts + tau)
                              - traj.values[i0:i1 + 1:stride])))
    assert abs(strided - ref) <= tol


def test_shift_sup_on_grid_is_exact():
    traj = sample_function("sin(t)+0.3*sin(3.7*t)", (-20.0, 30.0), 0.01)
    for k in (0, 1, 628, 2000):
        direct = np.max(np.abs(traj.values[k:] - traj.values[:len(traj) - k]))
        assert traj.shift_sup(k * 0.01, 0, len(traj) - 1 - k) == direct


def test_shift_sup_drops_points_past_the_span():
    traj = sample_function("sin(t)", (0.0, 10.0), 0.1)
    n = len(traj)
    # the shifted times of the last points fall past t_end; they are left
    # out rather than raising, on and off the grid
    assert traj.shift_sup(0.5, 0, n - 1) == traj.shift_sup(0.5, 0, n - 6)
    assert traj.shift_sup(0.55, 0, n - 1) == traj.shift_sup(0.55, 0, n - 7)
    with pytest.raises(ValueError, match="comparable"):
        traj.shift_sup(9.95, n - 1, n - 1)
    with pytest.raises(ValueError):
        traj.shift_sup(-0.1, 0, 10)
    with pytest.raises(ValueError):
        traj.shift_sup(0.1, 0, n)


def test_discrete_shift_sup_rejects_off_grid_shifts():
    traj = iterate(bh_const_field(), 1.0, 40)
    assert traj.shift_sup(3.0, 0, 30) == float(
        np.max(np.abs(traj.values[3:34] - traj.values[:31])))
    with pytest.raises(DynamicsError, match="integer"):
        traj.shift_sup(2.5, 0, 30)


def test_interp_budget():
    smooth = sample_function("sin(t)", (0.0, 6.3), 0.05)
    assert 0.0 < smooth.interp_budget() < 1e-7
    assert iterate(bh_const_field(), 1.0, 10).interp_budget() == 0.0


def test_scaled_trajectory():
    traj = sample_function("sin(t)", (0.0, 3.0), 0.1)
    doubled = traj.scaled(2.0)
    assert np.array_equal(doubled.values, 2.0 * traj.values)
    assert np.array_equal(doubled.derivs, 2.0 * traj.derivs)
    assert "scaled" in doubled.provenance


def test_trajectory_rejects_nonfinite():
    with pytest.raises(ValueError):
        Trajectory(kind="continuous", t0=0.0, dt=0.1,
                   values=np.array([0.0, math.inf, 1.0]))


def test_sample_function_rejects_unbound_param():
    with pytest.raises(FieldValidationError):
        sample_function("a*sin(t)", (0.0, 1.0), 0.1)


def test_sample_function_derivatives():
    traj = sample_function("sin(t)", (0.0, 6.3), 0.05)
    assert np.max(np.abs(traj.derivs - np.cos(traj.grid()))) <= 1e-9


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


def test_shift_field_evaluation():
    fld = ScalarField(kind="continuous", rhs="sin(t)+x")
    g = shift_field(fld, 2.5)
    assert g.eval(0.0, 1.0) == pytest.approx(math.sin(2.5) + 1.0, abs=1e-15)
    assert g.field_id != fld.field_id


def test_shift_field_restrictions():
    half = ScalarField(kind="continuous", rhs="-x", time_domain="half-line")
    with pytest.raises(FieldValidationError):
        shift_field(half, -1.0)
    with pytest.raises(FieldValidationError):
        shift_field(bh_const_field(), 0.5)


def test_shift_field_seq_params():
    fld = ScalarField(
        kind="discrete", rhs="K+0*x", time_domain="half-line",
        seq_params={"K": lambda n: float(n)})
    g = shift_field(fld, 3)
    assert g.eval(0.0, 0.0) == 3.0
    assert g.eval(2.0, 0.0) == 5.0


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
