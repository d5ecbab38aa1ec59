"""Catalogued examples: oracles, tail bounds, witnesses, and the map factory."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rapflow.catalog import (
    BH_RHS,
    DEFAULT_CAPACITY,
    catalog,
    get,
    make_beverton_holt,
    nonconvergence_witnesses,
    oracle_value,
    tail_bound,
)
from rapflow.dynamics import (DynamicsError, IntegratorConfig, ScalarField,
                              integrate, iterate)
from rapflow.expr import BinOp, Call, Expression, Neg, Param, parse

CLASS_LABELS = {
    "stationary", "tau-periodic", "almost-periodic",
    "asymptotically-stationary", "asymptotically-tau-periodic",
    "remotely-tau-periodic", "remotely-stationary",
    "remotely-almost-periodic",
}

BOUNDED_NAMES = ("sin-log", "slow-chirp", "sin-log-drift")


def test_catalog_names_and_kinds():
    table = catalog()
    assert list(table) == [
        "sine", "two-tone", "sin-log", "sin-log-drift", "slow-chirp",
        "relax-sin", "beverton-holt", "beverton-holt-const"]
    kinds = {name: e.kind for name, e in table.items()}
    assert kinds["sine"] == "curve"
    assert kinds["slow-chirp"] == "ode"
    assert kinds["beverton-holt"] == "map"
    for e in table.values():
        assert e.expected_class in CLASS_LABELS


def test_get_unknown_name():
    with pytest.raises(KeyError):
        get("lorenz")


def test_plain_curves_have_no_system():
    with pytest.raises(ValueError):
        get("sine").system()


def test_oracle_matches_integration():
    entry = get("slow-chirp")
    traj = integrate(entry.system(), 0.3, (0.0, 50.0))
    ts = traj.grid()
    assert np.max(np.abs(traj.values - oracle_value("slow-chirp", ts, u0=0.3))) <= 1e-6

    entry = get("relax-sin")
    traj = integrate(entry.system(), 1.0, (0.0, 20.0))
    ts = traj.grid()
    assert np.max(np.abs(traj.values - oracle_value("relax-sin", ts, u0=1.0))) <= 1e-7


def test_oracle_matches_iteration():
    traj = iterate(get("beverton-holt-const").system(), 1.0, 60)
    exact = oracle_value("beverton-holt-const", np.arange(61), u0=1.0)
    assert np.max(np.abs(traj.values - exact)) <= 1e-10


def test_oracle_curve_values():
    ts = np.linspace(0.0, 30.0, 301)
    assert np.array_equal(oracle_value("sine", ts), np.sin(ts))
    assert np.array_equal(oracle_value("two-tone", ts),
                          np.sin(ts) + np.sin(math.sqrt(2.0) * ts))
    assert np.array_equal(oracle_value("sin-log", ts), np.sin(np.log1p(ts)))


def test_oracle_bh_large_step_is_stable():
    vals = oracle_value("beverton-holt-const", np.array([1e5]), u0=3.0)
    assert vals[0] == pytest.approx(10.0, abs=1e-12)


def test_oracle_rejections():
    with pytest.raises(ValueError):
        oracle_value("beverton-holt", [0.0])
    with pytest.raises(KeyError):
        oracle_value("no-such-example", [0.0])
    with pytest.raises(ValueError):
        oracle_value("beverton-holt-const", [2.5])


# ---------------------------------------------------------------------------
# tail bounds
# ---------------------------------------------------------------------------

def test_sin_log_bound_value():
    assert float(tail_bound("sin-log", 1000.0, 1.0)) == pytest.approx(
        math.log1p(1.0 / 1001.0), abs=1e-15)


def test_chirp_bound_value():
    assert float(tail_bound("slow-chirp", 1000.0, 3.0)) == pytest.approx(
        0.19990, abs=2e-4)


@pytest.mark.parametrize("name", BOUNDED_NAMES)
def test_tail_bound_soundness_on_grid(name):
    ts = np.concatenate([[0.0], np.geomspace(0.01, 1e5, 120)])
    for tau in (0.0, 0.1, 1.0, 3.0, 2 * math.pi, 10.0, 50.0):
        gap = np.abs(oracle_value(name, ts + tau) - oracle_value(name, ts))
        assert np.all(gap <= tail_bound(name, ts, tau) + 1e-12)


@pytest.mark.parametrize("name", BOUNDED_NAMES)
@settings(max_examples=80, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=1e6),
       tau=st.floats(min_value=0.0, max_value=100.0))
@example(t=452263.0, tau=1e-10)
def test_tail_bound_soundness_everywhere(name, t, tau):
    # t + tau rounds, so the oracle compares phi at the shift (t + tau) - t,
    # which can differ from tau by up to half a spacing of doubles near t;
    # the bound is taken at that realised shift
    shifted = t + tau
    gap = abs(float(oracle_value(name, shifted)) - float(oracle_value(name, t)))
    assert gap <= float(tail_bound(name, t, shifted - t)) + 1e-12


def test_tail_bounds_decay():
    ts = np.array([1e2, 1e3, 1e4, 1e5])
    slow = tail_bound("sin-log", ts, 3.0)
    assert np.all(np.diff(slow) < 0)
    assert slow[-1] < 1e-3
    # the chirp bound decays like t^(-1/3), much more slowly
    chirp = tail_bound("slow-chirp", ts, 3.0)
    assert np.all(np.diff(chirp) < 0)
    assert chirp[-1] < 0.05


def test_tail_bound_rejections():
    with pytest.raises(KeyError):
        tail_bound("sine", 1.0, 1.0)
    with pytest.raises(ValueError):
        tail_bound("sin-log", -1.0, 1.0)
    with pytest.raises(ValueError):
        tail_bound("sin-log", 1.0, -1.0)


# ---------------------------------------------------------------------------
# witnesses against convergence of the chirp
# ---------------------------------------------------------------------------

def test_witness_sequences_pin_two_values():
    w = nonconvergence_witnesses(10)
    assert np.all(np.diff(w["zero_times"]) > 0)
    assert np.all(np.diff(w["one_times"]) > 0)
    assert np.max(np.abs(oracle_value("slow-chirp", w["zero_times"]) - 0.0)) <= 1e-10
    assert np.max(np.abs(oracle_value("slow-chirp", w["one_times"]) - 1.0)) <= 1e-10


def test_witness_count_validation():
    with pytest.raises(ValueError):
        nonconvergence_witnesses(0)


# ---------------------------------------------------------------------------
# the Beverton-Holt factory
# ---------------------------------------------------------------------------

def test_make_bh_default_flags():
    fld, flags = make_beverton_holt()
    assert fld.kind == "discrete"
    assert flags["expansion_possible"] is True
    assert flags["certificate_holds"] is False
    assert flags["certificate_ratio"] == pytest.approx(2 * 121 / 81, rel=1e-12)
    assert flags["sup_bound"] == pytest.approx(22.0, rel=1e-12)


def test_make_bh_orbit_eventually_under_sup_bound():
    fld, flags = make_beverton_holt()
    for u0 in (1.0, 5.0, 30.0):
        traj = iterate(fld, u0, 2000)
        assert np.max(traj.values[100:]) <= flags["sup_bound"] * (1 + 1e-6)
        assert np.min(traj.values[100:]) > 0


def test_make_bh_constant_capacity():
    fld, flags = make_beverton_holt(2.0, 10.0, alpha=9.0, beta=11.0)
    traj = iterate(fld, 10.0, 50)
    assert np.max(np.abs(traj.values - 10.0)) <= 1e-12


def test_field_ids_are_pinned():
    ids = {name: e.system().field_id
           for name, e in catalog().items() if e.rhs is not None}
    assert ids == {"slow-chirp": "cfc541fe35ed", "relax-sin": "e0424ab7d0df",
                   "beverton-holt": "c342209bf2ab",
                   "beverton-holt-const": "efc0f049914f"}
    assert make_beverton_holt()[0].field_id == "c342209bf2ab"


def _substitute_k(node, capacity):
    """node with every parameter K replaced by the capacity's tree."""
    if isinstance(node, Param) and node.name == "K":
        return capacity
    if isinstance(node, Neg):
        return Neg(_substitute_k(node.arg, capacity))
    if isinstance(node, Call):
        return Call(node.func,
                    tuple(_substitute_k(a, capacity) for a in node.args))
    if isinstance(node, BinOp):
        return BinOp(node.op, _substitute_k(node.left, capacity),
                     _substitute_k(node.right, capacity))
    return node


def test_make_bh_rhs_is_the_formula_with_the_capacity_for_k():
    for capacity in (DEFAULT_CAPACITY, 10.0, "10+0.5*cos(sqrt(1+t))",
                     "-(-10)", "10-t^0", "2^3+2"):
        fld, _ = make_beverton_holt(capacity=capacity)
        text = capacity if isinstance(capacity, str) else repr(capacity)
        root = _substitute_k(parse(BH_RHS).root, parse(text).root)
        expected = ScalarField(
            kind="discrete", rhs=Expression(root, text), params={"mu": 2.0},
            state_domain=(0.0, math.inf), name="beverton-holt")
        assert fld.rhs == expected.rhs
        assert fld.field_id == expected.field_id


def test_make_bh_validation():
    with pytest.raises(ValueError):
        make_beverton_holt(mu=0.0)
    with pytest.raises(ValueError):
        make_beverton_holt(alpha=12.0, beta=11.0)
    with pytest.raises(ValueError):
        make_beverton_holt(capacity="a*t")
    with pytest.raises(ValueError):
        make_beverton_holt(capacity="15")
    with pytest.raises(ValueError):
        make_beverton_holt(capacity="t")
    for capacity in ("10+x/1000", "10+0*x"):
        with pytest.raises(ValueError, match="t only"):
            make_beverton_holt(capacity=capacity)


# ---------------------------------------------------------------------------
# trajectory production
# ---------------------------------------------------------------------------

def test_every_entry_produces_a_trajectory():
    for name, entry in catalog().items():
        if entry.kind == "curve":
            traj = entry.trajectory(span=(0.0, 10.0), dt=0.1)
        elif entry.kind == "ode":
            traj = entry.trajectory(u0=0.5, span=(0.0, 5.0))
        else:
            traj = entry.trajectory(u0=1.0, steps=50)
        assert len(traj) > 10
        assert np.all(np.isfinite(traj.values))


def test_ode_entries_integrate_at_their_recommended_dt():
    chirp, relax = get("slow-chirp"), get("relax-sin")
    span = (0.0, 5.0)
    traj = chirp.trajectory(span=span)
    assert (traj.dt, len(traj)) == (0.05, 101)
    direct = integrate(chirp.system(), 0.0, span, IntegratorConfig(dt_out=0.05))
    assert traj.values.tobytes() == direct.values.tobytes()
    assert relax.trajectory(span=span).dt == 0.01
    # an explicit dt, or a whole config, overrides the recommendation
    assert chirp.trajectory(span=span, dt=0.25).dt == 0.25
    cfg = IntegratorConfig(dt_out=0.5)
    assert chirp.trajectory(span=span, dt=0.25, config=cfg).dt == 0.5


def test_only_an_argument_left_as_none_takes_the_recommendation():
    # a zero step count or dt was read as "not given" and replaced
    with pytest.raises(DynamicsError, match="n_steps must be >= 1"):
        get("beverton-holt").trajectory(steps=0)
    with pytest.raises(DynamicsError, match="dt must be positive"):
        get("sine").trajectory(span=(0.0, 1.0), dt=0.0)
    with pytest.raises(ValueError, match="dt_out must be finite and positive"):
        get("relax-sin").trajectory(span=(0.0, 1.0), dt=0.0)


def test_recommended_resolution_is_self_consistent():
    for entry in catalog().values():
        rec = entry.recommended
        assert rec, f"{entry.name} has no recommended settings"
        # a trajectory samples at these when no setting is given
        sampling = {"curve": {"span", "dt"}, "ode": {"span", "dt", "u0"},
                    "map": {"u0", "steps"}}[entry.kind]
        assert sampling <= set(rec), entry.name
        if entry.kind == "curve":
            assert rec["span"][1] > rec["span"][0]
        if "windows" in rec:
            for lo, hi in rec["windows"]:
                assert hi > lo > 0


@pytest.mark.parametrize("name, span", [("relax-sin", (0.0, 0.02)),
                                        ("beverton-holt", None),
                                        ("sin-log", (0.0, 1.0))])
def test_a_catalog_text_is_compiled_once(monkeypatch, name, span):
    # the second trajectory builds no back end and no loop again
    from rapflow import expr
    built = []
    real = expr._build

    def counted(*args, **kwargs):
        built.append(args[1])
        return real(*args, **kwargs)
    monkeypatch.setattr(expr, "_build", counted)
    ex = get(name)
    first = ex.trajectory(span=span, steps=50)
    count = len(built)
    again = get(name).trajectory(span=span, steps=50)
    assert len(built) == count
    assert np.array_equal(first.values, again.values)
