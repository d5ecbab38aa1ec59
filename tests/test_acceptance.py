"""Acceptance suite: twelve end-to-end criteria at documented tolerances.

Each test prints one line, 'criterion NN: pass - ...' or
'criterion NN: FAIL - ...', and asserts on it, so a verbose run shows the
full scoreboard.  Criterion 6 states a contraction property over initial
pairs drawn from [1, 25]^2; pairs that both start below the capacity band
land where the map expands, so the property as stated is violated on the
first step.  The test keeps the stated form and is expected to fail; see
the check text for the measured witnesses.
"""
import math

import numpy as np
import pytest
from _golden import GOLDEN_EXPRESSIONS

from rapflow import catalog
from rapflow.classify import (
    almost_period_scan,
    asymptotic_tau_periodic_test,
    classify_trajectory,
    remote_stationary_test,
    remote_tau_periodic_test,
    tail_sup,
)
from rapflow.dynamics import (
    IntegratorConfig,
    ScalarField,
    boundedness,
    contraction_gap,
    integrate,
    iterate,
    sample_function,
)
from rapflow.expr import ParseError, parse

TWO_PI = 2.0 * math.pi


def _criterion(num: int, passed: bool, text: str) -> None:
    line = f"criterion {num:02d}: {'pass' if passed else 'FAIL'} - {text}"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# 1. integrator versus closed form


def test_criterion_01_integrator_matches_closed_form():
    fld = catalog.get("slow-chirp").system()
    traj = integrate(fld, 0.0, (0.0, 200.0),
                     IntegratorConfig(abs_tol=1e-9, rel_tol=1e-9))
    exact = catalog.oracle_value("slow-chirp", traj.grid(), 0.0)
    err = float(np.max(np.abs(traj.values - exact)))
    _criterion(1, err <= 1e-6,
               f"adaptive integration of the chirp field reproduces the "
               f"closed-form solution on [0, 200] (max error {err:.3e})")


# ---------------------------------------------------------------------------
# 2. remote stationarity of the logarithmic-clock curve, with analytic bounds


def test_criterion_02_log_clock_tail_sups_beat_analytic_bounds():
    traj = sample_function("sin(ln(1+t))", (0.0, 10006.0), 0.1, name="sin-log")
    window = (1e3, 1e4)
    details = []
    ok = True
    for tau in (1.0, math.sqrt(2.0), 5.0):
        sup = tail_sup(traj, tau, window)
        bound = float(catalog.tail_bound("sin-log", window[0], tau))
        ok = ok and sup <= bound + 1e-6
        if tau == 1.0:
            ok = ok and sup <= 1.1e-3
        details.append(f"tau={tau:.4g}: sup {sup:.3e} vs bound {bound:.3e}")
    _criterion(2, ok,
               "late-window sups of the logarithmic clock stay under the "
               "analytic bound at the window start (" + "; ".join(details) + ")")


# ---------------------------------------------------------------------------
# 3. remote stationarity of the chirp at a fixed shift


def test_criterion_03_chirp_shift_three_settles_remotely():
    traj = sample_function(catalog.CHIRP_CURVE, (0.0, 100005.0), 0.05,
                           name="slow-chirp")
    curve = remote_tau_periodic_test(traj, 3.0, 0.12,
                                     ((1e3, 1e4), (1e4, 1e5)))
    sups = curve.sups
    non_increasing = bool(np.all(np.diff(sups) <= 0.0))
    ok = curve.verdict == "pass" and sups[-1] <= 0.12 and non_increasing
    _criterion(3, ok,
               f"shift-3 comparison of the chirp falls across geometric "
               f"windows ({', '.join(f'{s:.6f}' for s in sups)}) and ends "
               f"under 0.12")


# ---------------------------------------------------------------------------
# 4. non-convergence witnesses and the failed asymptotic test


def test_criterion_04_witnesses_pin_two_values_and_asymptotics_fail():
    w = catalog.nonconvergence_witnesses(5)
    at_zero = catalog.oracle_value("slow-chirp", w["zero_times"])
    at_one = catalog.oracle_value("slow-chirp", w["one_times"])
    witness_ok = (float(np.max(np.abs(at_zero))) <= 1e-10
                  and float(np.max(np.abs(at_one - 1.0))) <= 1e-10)
    traj = sample_function(catalog.CHIRP_CURVE, (0.0, 1201.0), 0.05,
                           name="slow-chirp")
    rep = asymptotic_tau_periodic_test(traj, 1.0, 0.3)
    ok = witness_ok and rep.verdict == "fail"
    _criterion(4, ok,
               f"five witness times pin the chirp to 0 and to 1 within "
               f"1e-10, and the shift-1 asymptotic test fails at eps=0.3 "
               f"(residue oscillation {rep.residue_osc:.3f})")


# ---------------------------------------------------------------------------
# 5. continuous contraction under three forcings


def test_criterion_05_linear_decay_contracts_under_any_forcing():
    rng = np.random.default_rng(0)
    pairs = rng.uniform(-10.0, 10.0, size=(100, 2))
    cfg = IntegratorConfig(dt_out=0.01)
    decay = math.exp(-20.0)
    worst_ratio = 0.0
    all_monotone = True
    for rhs, domain in (("-x+sin(t)", "full-line"),
                        ("-x+sin(t)+sin(sqrt(2)*t)", "full-line"),
                        ("-x+sin(ln(1+t))", "half-line")):
        fld = ScalarField(kind="continuous", rhs=rhs, time_domain=domain,
                          name="damped")
        for u1, u2 in pairs:
            _, gaps, rep = contraction_gap(fld, float(u1), float(u2),
                                           (0.0, 20.0), cfg)
            all_monotone = all_monotone and rep.verdict == "pass"
            g0 = abs(float(u2 - u1))
            if g0 > 0.0:
                worst_ratio = max(worst_ratio, float(gaps[-1]) / (g0 * decay))
    ok = all_monotone and worst_ratio <= 1.0 + 1e-3
    _criterion(5, ok,
               f"300 forced-decay pairs keep non-increasing gaps and land "
               f"on the exp(-20) envelope (worst ratio {worst_ratio:.9f})")


# ---------------------------------------------------------------------------
# 6. discrete contraction from arbitrary pairs in [1, 25]^2 (expected FAIL)


def test_criterion_06_beverton_holt_contraction_from_wide_pairs():
    bh, _ = catalog.make_beverton_holt()
    rng = np.random.default_rng(0)
    pairs = rng.uniform(1.0, 25.0, size=(100, 2))
    violations = []
    for idx, (v1, v2) in enumerate(pairs):
        _, gaps, _ = contraction_gap(bh, float(v1), float(v2), 10_000)
        g0 = abs(float(v2 - v1))
        widened = bool(np.any(gaps > g0)) or bool(np.any(np.diff(gaps) > 0.0))
        if widened:
            first = int(np.argmax(np.diff(gaps) > 0.0))
            violations.append((idx, float(v1), float(v2), first))
    detail = "; ".join(f"pair {i} = ({a:.3f}, {b:.3f}) widens at step {n}"
                       for i, a, b, n in violations)
    _criterion(6, not violations,
               "100 seeded pairs in [1, 25]^2 never widen their gap over "
               "10^4 steps" + (f" -- violated: {detail}; the map expands "
                               f"below the capacity band, so the stated "
                               f"pair domain is too wide" if violations
                               else ""))


# ---------------------------------------------------------------------------
# 7. separation constancy


def _separation_tail(a, b, tail_from):
    """(drift, last value) of |a - b| at the grid times in [tail_from, t_end]."""
    assert (a.t0, a.dt, len(a.values)) == (b.t0, b.dt, len(b.values))
    sep = np.abs(a.values - b.values)
    tail = sep[math.ceil((tail_from - a.t0) / a.dt - 1e-9):]
    return float(np.max(tail) - np.min(tail)), float(tail[-1])


def test_criterion_07_separations_settle_to_constants():
    bh, _ = catalog.make_beverton_holt()
    a = iterate(bh, 3.0, 100_000)
    b = iterate(bh, 12.0, 100_000)
    drift, _ = _separation_tail(a, b, 1e4)
    fld = ScalarField(kind="continuous", rhs="-x+sin(t)", name="damped")
    cfg = IntegratorConfig(dt_out=0.01)
    c = integrate(fld, 0.5, (0.0, 30.0), cfg)
    d = integrate(fld, -1.5, (0.0, 30.0), cfg)
    drift2, limit2 = _separation_tail(c, d, 20.0)
    ok = drift <= 1e-3 and drift2 <= 1e-6 and abs(limit2) <= 1e-8
    _criterion(7, ok,
               f"late separations are constant: drifting-capacity pair "
               f"(3, 12) drifts {drift:.3e} over [1e4, 1e5]; the "
               f"damped pair's separation constant is {limit2:.3e}")


# ---------------------------------------------------------------------------
# 8. Beverton-Holt orbits: bounded and remotely stationary


def test_criterion_08_beverton_holt_orbits_bounded_and_settling():
    bh, flags = catalog.make_beverton_holt()
    ok = True
    sups = []
    for u0 in (1.0, 5.0, 20.0):
        traj = iterate(bh, u0, 102_000)
        bound_rep = boundedness(traj, flags["sup_bound"])
        battery = remote_stationary_test(traj, 0.05, ((1e3, 1e4), (1e4, 1e5)))
        ok = ok and bound_rep.verdict == "pass" and battery.verdict == "pass"
        sups.append(bound_rep.extreme)
    _criterion(8, ok,
               f"orbits from 1, 5, 20 stay below mu*beta/(mu-1) = 22 "
               f"(sups {', '.join(f'{s:.3f}' for s in sups)}) and pass the "
               f"remote-stationarity battery at eps=0.05 over horizon 1e5")


# ---------------------------------------------------------------------------
# 9. scan sanity against an independent recomputation


def _direct_sups(values: np.ndarray, dt: float, taus: np.ndarray) -> np.ndarray:
    """Shift sups recomputed directly from array slices."""
    n = len(values)
    out = np.empty(len(taus))
    for i, tau in enumerate(taus):
        k = int(round(tau / dt))
        out[i] = 0.0 if k >= n else float(
            np.max(np.abs(values[k:] - values[:n - k])))
    return out


def test_criterion_09_scans_agree_with_direct_recomputation():
    sine = catalog.get("sine").trajectory()
    scan = almost_period_scan(sine, 0.05, (0.0, 100.0), 0.01)
    dens = scan.density()
    sine_ok = dens.n_admitted > 0 and dens.largest_gap <= 6.4
    battery = remote_stationary_test(sine, 0.05,
                                     ((100.0, 200.0), (200.0, 390.0)))
    two = catalog.get("two-tone").trajectory()
    scan2 = almost_period_scan(two, 0.1, (0.0, 200.0), 0.01)
    direct = _direct_sups(two.values, two.dt, scan2.taus)
    admitted_direct = direct <= 0.1
    agree = bool(np.array_equal(admitted_direct, scan2.admitted))
    dens2 = scan2.density()
    dense2 = dens2.n_admitted > 0 and dens2.largest_gap < dens2.scan_range[1]
    ok = sine_ok and battery.verdict == "fail" and agree and dense2
    _criterion(9, ok,
               f"sine shifts are relatively dense at eps=0.05 (gap "
               f"{dens.largest_gap:.3f}) while its stationarity battery "
               f"fails; the two-tone admitted set matches an independent "
               f"recomputation exactly ({dens2.n_admitted} shifts, gap "
               f"{dens2.largest_gap:.1f})")


# ---------------------------------------------------------------------------
# 10. the damped sine response is asymptotically and remotely 2*pi-periodic


def test_criterion_10_damped_sine_response_is_periodic_both_ways():
    fld = ScalarField(kind="continuous", rhs="-x+sin(t)", name="damped")
    traj = integrate(fld, 0.0, (0.0, 1007.0), IntegratorConfig(dt_out=0.01))
    asy = asymptotic_tau_periodic_test(traj, TWO_PI, 1e-4)
    rem = remote_tau_periodic_test(traj, TWO_PI, 1e-6, ((100.0, 1000.0),))
    ok = asy.verdict == "pass" and rem.verdict == "pass"
    _criterion(10, ok,
               f"at shift 2*pi the bounded response passes the asymptotic "
               f"test at 1e-4 (statistic {asy.statistic:.3e}) and the "
               f"remote test at 1e-6 (late sup {rem.sups[-1]:.3e})")


# ---------------------------------------------------------------------------
# 11. hierarchy consistency across the whole catalog


def test_criterion_11_no_catalog_classification_violates_the_hierarchy():
    flagged = []
    for name, ex in catalog.catalog().items():
        source = "curve" if name == "slow-chirp" else None
        traj = ex.trajectory(source=source)
        res = classify_trajectory(traj, catalog.recommended_config(ex))
        if not res.hierarchy_ok():
            flagged.append(name)
    _criterion(11, not flagged,
               "classifying all eight catalogued systems never trips an "
               "internal hierarchy consistency check"
               + (f" -- violations: {', '.join(flagged)}" if flagged else ""))


# ---------------------------------------------------------------------------
# 12. parser: golden round trips and a large fuzz run


def test_criterion_12_parser_round_trips_and_survives_fuzzing():
    stable = 0
    for src in GOLDEN_EXPRESSIONS:
        text1 = parse(src).to_text()
        text2 = parse(text1).to_text()
        stable += text1 == text2
    rng = np.random.default_rng(2026)
    crashes = 0
    for _ in range(100_000):
        n = int(rng.integers(0, 64))
        s = bytes(rng.integers(0, 256, size=n, dtype=np.uint8)).decode("latin-1")
        try:
            parse(s)
        except ParseError:
            pass
        except Exception:
            crashes += 1
    ok = stable == len(GOLDEN_EXPRESSIONS) and crashes == 0
    _criterion(12, ok,
               f"{stable}/{len(GOLDEN_EXPRESSIONS)} golden expressions "
               f"round-trip stably and 100000 random byte strings cause "
               f"{crashes} crashes")
