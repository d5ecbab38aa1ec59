"""Tests for the recurrence classifier.

Expected values fall in three groups: exact identities (tiling a block
makes the block length an exact almost period), closed-form oracles
(shift suprema of explicit curves, frozen after independent computation
at the stated resolution), and structural properties checked over
randomized inputs.
"""

import dataclasses
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rapflow import catalog
from rapflow import classify as classify_module
from rapflow.classify import (
    CLASS_ORDER,
    ClassifyConfig,
    almost_period_scan,
    asymptotic_stationary_test,
    asymptotic_tau_periodic_test,
    classify_trajectory,
    default_probes,
    remote_stationary_test,
    remote_tau_periodic_test,
    tail_sup,
)
from rapflow.classify import (
    _alone,
    _asymptotic_tau_test,
    _auto_windows,
    _battery,
    _geometric_windows,
    _scan,
    _scan_grid,
    _tail_sups,
    _triangle_check,
)
from rapflow.dynamics import (
    DynamicsError,
    ScalarField,
    Trajectory,
    integrate,
    iterate,
    sample_function,
)

TWO_PI = 2.0 * math.pi


def discrete_traj(values, t0=0.0):
    return Trajectory(kind="discrete", t0=t0, dt=1.0,
                      values=np.asarray(values, float))


def _grid_range(traj, lo, hi):
    """Grid indices i with t0 + i*dt in [lo, hi], up to 1e-9*max(1, dt)
    steps at either end, clipped to the span; written out here so the
    references below stay independent of classify's window resolver."""
    tol = 1e-9 * max(1.0, traj.dt)
    i0 = max(int(math.ceil((lo - traj.t0) / traj.dt - tol)), 0)
    i1 = min(int(math.floor((hi - traj.t0) / traj.dt + tol)), len(traj) - 1)
    return i0, i1


# ---------------------------------------------------------------------------
# tail_sup


class TestTailSup:
    def test_exact_zero_for_tiled_block(self):
        tr = discrete_traj(np.tile([0.5, -1.25, 3.0, 0.0], 30))
        assert tail_sup(tr, 4.0, (0.0, 100.0)) == 0.0

    def test_zero_shift_is_zero(self):
        tr = sample_function("sin(t)", (0.0, 30.0), 0.01)
        assert tail_sup(tr, 0.0, (5.0, 25.0)) == 0.0

    def test_sine_full_period_tiny(self):
        tr = sample_function("sin(t)", (0.0, 100.0), 0.01)
        # 2*pi is off the sampling grid, so this exercises dense output
        assert tail_sup(tr, TWO_PI, (10.0, 50.0)) <= 1e-9

    def test_sine_half_period_doubles(self):
        tr = sample_function("sin(t)", (0.0, 100.0), 0.01)
        s = tail_sup(tr, math.pi, (10.0, 50.0))
        assert s == pytest.approx(2.0, abs=1e-6)

    def test_window_leaving_span_raises(self):
        tr = sample_function("sin(t)", (0.0, 30.0), 0.01)
        with pytest.raises(ValueError, match="span"):
            tail_sup(tr, 5.0, (10.0, 28.0))

    def test_discrete_fractional_shift_raises(self):
        tr = discrete_traj(np.arange(50.0))
        with pytest.raises(ValueError, match="whole-number"):
            tail_sup(tr, 2.5, (0.0, 20.0))

    def test_negative_shift_raises(self):
        tr = discrete_traj(np.arange(50.0))
        with pytest.raises(ValueError):
            tail_sup(tr, -1.0, (0.0, 20.0))

    def test_window_end_within_tolerance_keeps_its_last_point(self):
        # 8.0 + tau passes t_end = 10 by 5e-10, inside the tolerance, and
        # tau is 200 steps to within 1e-9 relative: sample 800 is compared
        v = np.zeros(1001)
        v[-1] = 1.0
        tr = Trajectory(kind="continuous", t0=0.0, dt=0.01, values=v,
                        derivs=np.zeros(1001))
        assert tail_sup(tr, 2.0000000005, (0.0, 8.0)) == 1.0

    def test_start_shift_invariance(self):
        # the statistic depends on absolute times, not on where the
        # sample happens to begin
        a = sample_function("sin(ln(1+t))", (0.0, 1000.0), 0.01)
        b = sample_function("sin(ln(1+t))", (50.0, 1050.0), 0.01)
        wa = tail_sup(a, 3.0, (100.0, 900.0))
        wb = tail_sup(b, 3.0, (100.0, 900.0))
        assert wa == pytest.approx(wb, abs=1e-12)


# ---------------------------------------------------------------------------
# remote shift tests


class TestRemoteTauPeriodic:
    def test_drifting_phase_at_full_turn(self):
        tr = catalog.get("sin-log-drift").trajectory()
        cur = remote_tau_periodic_test(tr, TWO_PI, 0.05,
                                       ((100.0, 1e3), (1e3, 1e4)))
        assert cur.verdict == "pass"
        assert cur.sups[0] == pytest.approx(0.059125, abs=5e-4)
        assert cur.sups[1] == pytest.approx(0.006248, abs=5e-5)
        assert cur.level == pytest.approx(1e3)

    def test_sine_unit_shift_fails(self):
        tr = sample_function("sin(t)", (0.0, 100.0), 0.01)
        cur = remote_tau_periodic_test(tr, 1.0, 0.05, ((10.0, 50.0), (50.0, 90.0)))
        assert cur.verdict == "fail"
        assert cur.sups[-1] == pytest.approx(2.0 * math.sin(0.5), abs=1e-4)

    def test_log_clock_unit_shift(self):
        tr = catalog.get("sin-log").trajectory()
        cur = remote_tau_periodic_test(tr, 1.0, 0.05, ((1e3, 1e4), (1e4, 1e5)))
        assert cur.verdict == "pass"
        assert cur.sups[0] == pytest.approx(0.000809, abs=2e-5)
        assert cur.sups[1] == pytest.approx(0.000098, abs=5e-6)
        assert cur.level == pytest.approx(1e3)

    def test_bump_in_middle_window_inconclusive(self):
        t = 0.05 * np.arange(2401)
        bump = np.exp(-((t - 55.0) ** 2))
        tr = Trajectory(kind="continuous", t0=0.0, dt=0.05, values=bump,
                        derivs=-2.0 * (t - 55.0) * bump)
        cur = remote_tau_periodic_test(
            tr, 1.0, 0.05, ((0.0, 30.0), (40.0, 70.0), (80.0, 110.0)))
        assert [s <= 0.05 for s in cur.sups] == [True, False, True]
        assert cur.verdict == "inconclusive"

    def test_no_usable_window_raises(self):
        tr = sample_function("sin(t)", (0.0, 20.0), 0.01)
        with pytest.raises(ValueError, match="no window"):
            remote_tau_periodic_test(tr, 15.0, 0.05, ((10.0, 19.0),))

    def test_window_clamp_is_recorded(self):
        tr = sample_function("sin(t)", (0.0, 100.0), 0.01)
        cur = remote_tau_periodic_test(tr, 30.0, 3.0, ((10.0, 90.0),))
        assert cur.windows[0][1] == pytest.approx(70.0)
        assert any("clamped" in n for n in cur.notes)

    def test_clamp_shrinks_instead(self):
        tr = sample_function("t", (0.0, 30.0), 0.01)
        cur = remote_tau_periodic_test(tr, 5.0, 10.0, ((10.0, 28.0),))
        hi = tr.t_end - 5.0
        assert cur.windows == ((10.0, hi),) and hi < 28.0
        assert cur.notes == [f"window (10.0, 28.0) clamped to (10.0, {hi})"]
        # identity curve: difference is exactly the shift everywhere
        assert cur.sups[0] == pytest.approx(5.0, abs=1e-9)

    def test_clamp_to_empty_drops_the_window(self):
        tr = sample_function("t", (0.0, 30.0), 0.01)
        cur = remote_tau_periodic_test(tr, 25.0, 30.0,
                                       ((1.0, 4.0), (10.0, 28.0)))
        assert cur.windows == ((1.0, 4.0),)
        assert cur.notes == ["window (10.0, 28.0) dropped: no room for the "
                             "shift"]
        with pytest.raises(ValueError, match="no window fits"):
            remote_tau_periodic_test(tr, 25.0, 30.0, ((10.0, 28.0),))

    def test_exact_zero_for_clamped_tiled_block(self):
        tr = discrete_traj(np.tile([0.5, -1.25, 3.0, 0.0], 30))
        cur = remote_tau_periodic_test(tr, 4.0, 1e-12, ((-3.0, 200.0),))
        assert cur.windows == ((0.0, 115.0),) and cur.sups == (0.0,)
        assert cur.notes == ["window (-3.0, 200.0) clamped to (0.0, 115.0)"]
        # a bound equal to the span's start keeps its own sign of zero
        tr = discrete_traj(tr.values, t0=-0.0)
        cur = remote_tau_periodic_test(tr, 4.0, 1e-12, ((0.0, 200.0),))
        assert cur.notes == ["window (0.0, 200.0) clamped to (0.0, 115.0)"]

    def test_the_first_failing_window_decides_the_error(self):
        # sampled every 2 time units, the shift 3 is half a step off the
        # grid: a window compared before an empty one raises first
        tr = Trajectory(kind="discrete", t0=0.0, dt=2.0,
                        values=np.sin(np.arange(20.0)))
        with pytest.raises(ValueError, match="no grid points"):
            remote_tau_periodic_test(tr, 3.0, 0.5, ((4.5, 5.5), (10.0, 20.0)))
        with pytest.raises(DynamicsError, match="integer steps"):
            remote_tau_periodic_test(tr, 3.0, 0.5, ((10.0, 20.0), (24.5, 25.5)))
        with pytest.raises(DynamicsError, match="integer steps"):
            remote_stationary_test(tr, 0.5, ((10.0, 20.0),),
                                   probes=(2.0, 3.0, 4.0))


class TestDefaultProbes:
    def test_continuous_probes_frozen(self):
        probes = default_probes("continuous")
        assert probes[:4] == (1.0, math.sqrt(2.0), 5.0, 17.3)
        assert probes[4] == pytest.approx(63.69616873214543, abs=1e-12)

    def test_discrete_probes_frozen(self):
        assert default_probes("discrete") == (1.0, 2.0, 5.0, 17.0, 86.0)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            default_probes("hybrid")


class TestRemoteStationaryBattery:
    def test_log_clock_battery_passes(self):
        tr = catalog.get("sin-log").trajectory()
        bat = remote_stationary_test(tr, 0.05, ((1e3, 1e4), (1e4, 1e5)))
        assert bat.verdict == "pass"
        worst = bat.curves[63.69616873214543]
        assert worst.sups[0] == pytest.approx(0.048862, abs=2e-4)
        assert worst.sups[1] == pytest.approx(0.006208, abs=5e-5)

    def test_chirp_battery_fails_on_large_probes(self):
        tr = catalog.get("slow-chirp").trajectory(source="curve")
        bat = remote_stationary_test(tr, 0.1, ((1e3, 1e4), (1e4, 1e5)))
        assert bat.verdict == "fail"
        assert bat.curves[5.0].verdict == "fail"
        assert bat.curves[5.0].sups[-1] == pytest.approx(0.154433, abs=2e-3)
        assert bat.curves[1.0].verdict == "pass"

    def test_short_span_skips_big_probes_and_fails_on_small(self):
        tr = sample_function("sin(t)", (0.0, 30.0), 0.01)
        bat = remote_stationary_test(tr, 0.05, ((2.0, 10.0), (10.0, 25.0)))
        assert bat.curves[17.3] is None and bat.curves[63.69616873214543] is None
        assert bat.verdict == "fail"

    def test_probe_whose_comparison_raises_is_skipped_alone(self):
        # on a grid of step 2 the shift 2 + 3e-9 is off the grid by less
        # than the index tolerance, so the late window keeps index 48,
        # which the kernel cannot compare under that shift
        i = np.arange(50.0)
        tr = Trajectory(kind="continuous", t0=0.0, dt=2.0,
                        values=np.sin(0.3 * i), derivs=0.15 * np.cos(0.3 * i))
        windows = ((10.0, 40.0), (95.5, 97.0))
        with pytest.raises(ValueError, match="no comparable grid points"):
            remote_tau_periodic_test(tr, 2.000000003, 0.5, windows)
        bat = remote_stationary_test(tr, 0.5, windows,
                                     probes=(2.000000003, 2.0, 4.0, 6.0))
        assert bat.notes == ["probe 2 skipped: window contains no "
                             "comparable grid points"]
        assert bat.curves[2.000000003] is None
        assert [bat.curves[p].verdict for p in (2.0, 4.0, 6.0)] == [
            "pass", "fail", "fail"]
        assert bat.verdict == "fail"

    def test_constant_with_skipped_probes_stays_inconclusive(self):
        tr = sample_function("2+0*t", (0.0, 30.0), 0.01)
        bat = remote_stationary_test(tr, 0.05, ((2.0, 10.0), (10.0, 25.0)))
        assert bat.verdict == "inconclusive"
        assert any("skipped" in n for n in bat.notes)


# ---------------------------------------------------------------------------
# scans and densities


class TestAlmostPeriodScan:
    def test_sine_admitted_set_and_density(self):
        tr = catalog.get("sine").trajectory()
        scan = almost_period_scan(tr, 0.05, (0.0, 100.0), 0.01)
        dens = scan.density()
        assert dens.n_admitted == 156
        assert dens.largest_gap == pytest.approx(6.2, abs=1e-6)
        # clusters sit at multiples of 2*pi
        adm = scan.admitted_taus()
        positive = adm[adm > 1.0]
        assert abs(positive[0] - TWO_PI) < 0.06

    def test_two_tone_densities_at_two_tolerances(self):
        tr = catalog.get("two-tone").trajectory()
        loose = almost_period_scan(tr, 0.5, (0.0, 200.0), 0.01).density()
        assert loose.n_admitted == 245
        assert loose.largest_gap == pytest.approx(30.83, abs=0.02)
        tight = almost_period_scan(tr, 0.1, (0.0, 200.0), 0.01).density()
        assert tight.n_admitted == 14
        assert tight.largest_gap == pytest.approx(182.1, abs=0.02)

    def test_scan_agrees_with_direct_recomputation(self):
        tr = sample_function("sin(t)+0.3*sin(3.7*t)", (0.0, 50.0), 0.01)
        eps = 0.25
        scan = almost_period_scan(tr, eps, (0.0, 20.0), 0.01)
        vals = tr.values
        for idx in range(0, len(scan.taus), 97):
            k = int(round(scan.taus[idx] / 0.01))
            if k >= len(vals) - 1:
                continue
            direct = np.max(np.abs(vals[k:] - vals[:len(vals) - k])) if k else 0.0
            assert scan.sups[idx] == pytest.approx(direct, abs=1e-12)
            assert scan.admitted[idx] == (direct <= eps)

    def test_assessable_needs_two_comparison_points(self):
        tr = discrete_traj(np.arange(11.0) % 2)
        scan = almost_period_scan(tr, 0.5, (0.0, 11.0), 1.0)
        assert list(scan.taus[:3]) == [0.0, 1.0, 2.0]
        assert scan.assessable[:10].all()
        assert not scan.assessable[10:].any()
        assert scan.sups[2] == 0.0 and scan.admitted[2]

    def test_remote_mode_admits_late_small_shifts(self):
        tr = catalog.get("sin-log").trajectory()
        scan = almost_period_scan(tr, 0.05, (0.0, 10.0), 0.1, mode="remote",
                                  window=(1e4, 1e5))
        assert scan.admitted[scan.assessable].all()
        assert scan.density().largest_gap == pytest.approx(0.1, abs=1e-9)

    def test_global_admission_implies_remote_admission(self):
        tr = catalog.get("two-tone").trajectory()
        g = almost_period_scan(tr, 0.5, (0.0, 150.0), 0.05)
        r = almost_period_scan(tr, 0.5, (0.0, 150.0), 0.05, mode="remote",
                               window=(50.0, 350.0))
        both = g.assessable & r.assessable
        assert not np.any(both & g.admitted & ~r.admitted)

    def test_discrete_grid_is_whole_numbers(self):
        tr = discrete_traj(np.arange(200.0))
        scan = almost_period_scan(tr, 0.5, (0.0, 10.0), 0.4)
        assert np.array_equal(scan.taus, np.arange(11.0))

    def test_empty_admitted_density_spans_range(self):
        tr = sample_function("t", (0.0, 100.0), 0.1)
        scan = almost_period_scan(tr, 0.5, (1.0, 20.0), 0.5)
        dens = scan.density()
        assert dens.n_admitted == 0
        assert dens.largest_gap == pytest.approx(19.0)

    def test_relative_density_needs_more_than_the_zero_shift(self):
        # only tau = 0 is admitted: the set is not empty, yet a gap of 9.5
        # spans the whole range
        tr = sample_function("sin(t)", (0.0, 10.0), 0.01)
        dens = almost_period_scan(tr, 0.05, (0.0, 20.0), 0.5).density()
        assert dens.n_admitted == 1
        assert dens.largest_gap == pytest.approx(9.5)
        assert dens.relative_density() == "fail"
        dense = sample_function("sin(t)", (0.0, 120.0), 0.01)
        assert almost_period_scan(dense, 0.5, (0.0, 40.0), 0.01).density(
            ).relative_density() == "pass"

    @pytest.mark.parametrize("step", [0.01, 0.0137])
    @pytest.mark.parametrize("mode,window", [("global", None),
                                             ("remote", (20.0, 45.0))])
    def test_threaded_scan_equals_one_thread_scan(self, monkeypatch, mode,
                                                  window, step):
        # seven workers on any machine: every run of the grid is its own
        # kernel call, on- and off-grid
        monkeypatch.setattr(classify_module.os, "cpu_count", lambda: 7)
        tr = sample_function("sin(t)+0.3*sin(3.7*t)", (-5.0, 50.0), 0.01)
        one = almost_period_scan(tr, 0.25, (0.0, 20.0), step, mode=mode,
                                 window=window)
        seven = almost_period_scan(tr, 0.25, (0.0, 20.0), step, mode=mode,
                                   window=window, threads=7)
        _assert_same_scan(seven, one)
        assert one.admitted.any() and not one.admitted.all()

    @pytest.mark.parametrize("threads", [1, 7])
    def test_first_failing_shift_is_reported_at_any_thread_count(
            self, monkeypatch, threads):
        # sampled every 2 time units, the odd shifts of 0..19 are half
        # steps, so every run of the grid raises; the run holding the
        # shift 1, the first in grid order, is held back until the others
        # have raised, and its error is still the one reported
        monkeypatch.setattr(classify_module.os, "cpu_count", lambda: 7)
        tr = Trajectory(kind="discrete", t0=0.0, dt=2.0,
                        values=np.sin(np.arange(20.0)))
        kernel, raised = Trajectory.shift_sups, {}

        def spy(self, taus, *args, **kwargs):
            if taus[0] == 0.0:
                time.sleep(0.2)
            try:
                return kernel(self, taus, *args, **kwargs)
            except DynamicsError as exc:
                raised[float(taus[0])] = exc
                raise

        monkeypatch.setattr(Trajectory, "shift_sups", spy)
        with pytest.raises(DynamicsError, match="integer") as info:
            almost_period_scan(tr, 0.5, (0.0, 19.0), 1.0, threads=threads)
        assert len(raised) == threads
        assert info.value is raised[0.0]

    def test_thread_count_below_one_is_refused(self):
        tr = discrete_traj(np.arange(50.0))
        with pytest.raises(ValueError, match="threads must be at least 1"):
            almost_period_scan(tr, 0.5, (0.0, 10.0), 1.0, threads=0)

    def test_mode_validation(self):
        tr = discrete_traj(np.arange(50.0))
        with pytest.raises(ValueError, match="mode"):
            almost_period_scan(tr, 0.5, (0.0, 10.0), 1.0, mode="late")
        with pytest.raises(ValueError, match="window"):
            almost_period_scan(tr, 0.5, (0.0, 10.0), 1.0, mode="remote")


def _assert_same_scan(got, want):
    """Equal bit for bit: mode, eps, window and every per-shift array."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert (got.mode, got.eps, got.window) == (want.mode, want.eps, want.window)
    for name in ("taus", "sups", "admitted", "assessable", "certified"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def _scan_per_shift(traj, taus, window):
    """The scan as a loop over shifts: _grid_range and a one-shift
    shift_sups call each."""
    t_end = traj.t_end
    w_lo, w_hi = (traj.t0, t_end) if window is None else window
    w_lo = max(w_lo, traj.t0)
    sups = np.full(taus.shape, np.nan)
    assessable = np.zeros(taus.shape, dtype=bool)
    for idx, tau in enumerate(taus):
        hi = min(w_hi, t_end - tau)
        if hi <= w_lo:
            continue
        i0, i1 = _grid_range(traj, w_lo, hi)
        if i1 - i0 + 1 < 2:
            continue
        sups[idx] = traj.shift_sups([tau], [[i0]], [[i1]])[0, 0]
        assessable[idx] = True
    return sups, assessable


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["continuous", "discrete"]),
       t0=st.floats(-60.0, 60.0), dt=st.floats(0.01, 1.0),
       n=st.integers(10, 400), seed=st.integers(0, 2**32 - 1),
       steps=st.integers(1, 4), frac=st.sampled_from([0.0, 0.37, 0.5]),
       lo=st.floats(-0.2, 1.0), length=st.floats(0.0, 1.2),
       eps=st.floats(0.05, 1.0), with_derivs=st.booleans())
def test_one_pass_scan_equals_separate_scans(kind, t0, dt, n, seed, steps,
                                             frac, lo, length, eps,
                                             with_derivs):
    # the global and remote sets of one pass over [None, window], as
    # classify_trajectory scans, against a separate almost_period_scan each
    # and against a loop over shifts; windows past the span end must fail
    # the same way in both routes
    rng = np.random.default_rng(seed)
    i = np.arange(n)
    rate = rng.uniform(0.05, 1.0)
    values = np.sin(rate * i) + 0.05 * rng.standard_normal(n)
    if kind == "discrete":
        traj = Trajectory(kind="discrete", t0=float(round(t0)), dt=1.0,
                          values=values)
        step = float(steps)
    else:
        derivs = rate / dt * np.cos(rate * i) if with_derivs else None
        traj = Trajectory(kind="continuous", t0=t0, dt=dt, values=values,
                          derivs=derivs)
        step = dt * (steps + frac)
    span = traj.t_end - traj.t0
    w_lo = traj.t0 + lo * span
    window = (w_lo, w_lo + length * (traj.t_end - w_lo) + 1e-3 * dt)
    tau_range = (0.0, span / 2.0)
    taus = _scan_grid(traj, tau_range, step)
    gscan, rscan = _scan(traj, eps, taus, [None, window])
    _assert_same_scan(gscan, almost_period_scan(traj, eps, tau_range, step))
    sups, assessable = _scan_per_shift(traj, taus, None)
    assert gscan.sups.tobytes() == sups.tobytes()
    assert np.array_equal(gscan.assessable, assessable)
    try:
        want = almost_period_scan(traj, eps, tau_range, step, mode="remote",
                                  window=window)
    except ValueError as exc:
        want = exc
    _assert_same_scan(rscan, want)
    if not isinstance(want, Exception):
        sups, assessable = _scan_per_shift(traj, taus, window)
        assert rscan.sups.tobytes() == sups.tobytes()
        assert np.array_equal(rscan.assessable, assessable)


def _assert_certified_scan(got, want):
    """got, a certified scan, against want, the exact scan of the same grid:
    admitted and assessable are want's, every sup not certified is want's
    bit for bit, and a certified shift is assessable, with a written
    bound above eps and at most its exact sup."""
    if isinstance(want, Exception):
        _assert_same_scan(got, want)
        return
    assert (got.mode, got.eps, got.window) == (want.mode, want.eps, want.window)
    for name in ("taus", "admitted", "assessable"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    cert = got.certified
    assert cert.dtype == bool and not want.certified.any()
    assert np.all(got.assessable[cert])
    assert got.sups[~cert].tobytes() == want.sups[~cert].tobytes()
    assert np.all(got.sups[cert] > got.eps)
    assert np.all(got.sups[cert] <= want.sups[cert])


def test_classify_takes_both_scans_from_one_pass():
    # 844 shifts: classify scans them coarse to fine, and the sets it
    # admits are those of the exact scans
    tr = sample_function("sin(t)+0.2*sin(3.1*t)", (-7.0, 60.0), 0.05)
    cfg = ClassifyConfig(eps=0.2, tau_range=(0.0, 20.0), tau_step=0.0237)
    res = classify_trajectory(tr, cfg)
    grid = (0.0, 20.0)
    _assert_certified_scan(res.global_scan,
                           almost_period_scan(tr, 0.2, grid, 0.0237))
    _assert_certified_scan(res.remote_scan,
                           almost_period_scan(tr, 0.2, grid, 0.0237,
                                              mode="remote",
                                              window=res.windows[-1]))
    assert res.global_scan.certified.sum() > 600


def _random_scan(kind, t0, dt, n, seed, count, steps, frac, lo, length,
                 noise, with_derivs):
    """A noisy sampled sine, a grid of count shifts of (steps + frac)
    samples each (a third of one for 0), and a window that starts at the
    fraction lo of the span and may reach past either end."""
    rng = np.random.default_rng(seed)
    i = np.arange(n)
    rate = rng.uniform(0.01, 1.0)
    values = np.sin(rate * i) + noise * rng.standard_normal(n)
    derivs = rate / dt * np.cos(rate * i) if with_derivs else None
    traj = Trajectory(kind=kind, t0=t0, dt=dt, values=values, derivs=derivs)
    step = dt * (steps + frac) if steps + frac > 0 else dt / 3.0
    taus = step * np.arange(count, dtype=float)
    w_lo = traj.t0 + lo * (traj.t_end - traj.t0)
    window = (w_lo, w_lo + length * (traj.t_end - w_lo) + 1e-3 * dt)
    return traj, taus, window


@settings(max_examples=80, deadline=None)
@given(t0=st.floats(-60.0, 60.0), dt=st.floats(0.01, 1.0),
       n=st.integers(40, 3000), seed=st.integers(0, 2**32 - 1),
       count=st.integers(513, 1200), steps=st.integers(0, 3),
       frac=st.sampled_from([0.0, 0.37, 0.5, 0.999]),
       lo=st.floats(-0.2, 1.0), length=st.floats(0.0, 1.2),
       eps=st.floats(0.005, 1.5), noise=st.sampled_from([0.0, 1e-3, 0.05]),
       with_derivs=st.booleans())
def test_certified_scan_agrees_with_the_exact_scan(t0, dt, n, seed, count,
                                                   steps, frac, lo, length,
                                                   eps, noise, with_derivs):
    # on- and off-grid shift steps, shifts past the span's room, windows
    # past its ends, with and without stored derivatives
    traj, taus, window = _random_scan("continuous", t0, dt, n, seed, count,
                                      steps, frac, lo, length, noise,
                                      with_derivs)
    got = _scan(traj, eps, taus, [None, window], certify=True)
    want = _scan(traj, eps, taus, [None, window])
    for g, w in zip(got, want):
        _assert_certified_scan(g, w)


@settings(max_examples=80, deadline=None)
@given(discrete=st.booleans(), t0=st.floats(-60.0, 60.0),
       dt=st.floats(0.01, 2.0), n=st.integers(40, 3000),
       seed=st.integers(0, 2**32 - 1), count=st.integers(1, 1200),
       steps=st.integers(0, 3),
       frac=st.sampled_from([0.0, 0.37, 0.5, 0.999]),
       lo=st.floats(-0.2, 1.0), length=st.floats(0.0, 1.2),
       eps=st.floats(0.005, 1.5), noise=st.sampled_from([0.0, 1e-3, 0.05]),
       with_derivs=st.booleans(), points=st.integers(2, 300),
       which=st.sampled_from([(0, 1), (0,), (1,)]))
def test_witnessed_scan_agrees_with_the_exact_scan(discrete, t0, dt, n, seed,
                                                   count, steps, frac, lo,
                                                   length, eps, noise,
                                                   with_derivs, points, which):
    # the witness path on short trajectories, with the sample threshold
    # lowered and about ``points`` strided points a shift: on- and off-grid
    # shift steps, discrete trajectories (whose steps off the integer grid
    # raise what the exact scan raises, for one window or both), shifts
    # past the span's room, windows past its ends, with and without stored
    # derivatives, and grids of fewer and more than 512 shifts
    traj, taus, window = _random_scan(
        "discrete" if discrete else "continuous", t0, dt, n, seed, count,
        steps, frac, lo, length, noise, with_derivs and not discrete)
    windows = [[None, window][w] for w in which]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify_module, "_WITNESS_MIN", 0)
        mp.setattr(classify_module, "_WITNESS_POINTS", points)
        got = _scan(traj, eps, taus, windows, certify=True)
    want = _scan(traj, eps, taus, windows)
    for g, w in zip(got, want):
        _assert_certified_scan(g, w)


def test_one_pass_scan_blames_only_the_failing_window():
    # on a discrete trajectory sampled every 2 time units the shift 19 is
    # half a step: the global scan compares it and raises, the late window
    # has no room for it and scans as it would alone
    tr = Trajectory(kind="discrete", t0=0.0, dt=2.0,
                    values=np.sin(np.arange(20.0)))
    taus = np.array([2.0, 4.0, 19.0])
    gscan, rscan = _scan(tr, 0.5, taus, [None, (30.0, 38.0)])
    assert isinstance(gscan, DynamicsError)
    (alone,) = _scan(tr, 0.5, taus, [None])
    assert isinstance(alone, DynamicsError) and "integer" in str(alone)
    _assert_same_scan(rscan, _scan(tr, 0.5, taus, [(30.0, 38.0)])[0])
    assert list(rscan.assessable) == [True, True, False]


def test_classify_notes_a_remote_window_past_the_span():
    tr = sample_function("sin(t)", (0.0, 60.0), 0.05)
    res = classify_trajectory(tr, ClassifyConfig(
        tau_range=(0.0, 20.0), windows=((10.0, 30.0), (30.0, 70.0))))
    assert res.global_scan is not None and res.remote_scan is None
    assert ("remote scan unavailable: remote window must lie inside the "
            "sampled span") in res.notes


# ---------------------------------------------------------------------------
# asymptotic tests


class TestAsymptoticStationary:
    def test_converging_map_passes(self):
        tr = catalog.get("beverton-holt-const").trajectory()
        rep = asymptotic_stationary_test(tr, 1e-6)
        assert rep.verdict == "pass" and rep.statistic == 0.0

    def test_sine_fails(self):
        tr = catalog.get("sine").trajectory()
        rep = asymptotic_stationary_test(tr, 0.05)
        assert rep.verdict == "fail"
        assert rep.statistic == pytest.approx(2.0, abs=1e-4)

    def test_drifting_capacity_map_fails(self):
        tr = catalog.get("beverton-holt").trajectory()
        rep = asymptotic_stationary_test(tr, 0.05)
        assert rep.verdict == "fail"
        assert rep.statistic == pytest.approx(0.10987, abs=2e-3)

    def test_between_eps_and_twice_eps_is_inconclusive(self):
        tr = sample_function("0.07*sin(t)", (0.0, 200.0), 0.01)
        rep = asymptotic_stationary_test(tr, 0.1)
        assert rep.verdict == "inconclusive"


class TestAsymptoticTauPeriodic:
    def test_relaxing_oscillator_passes(self):
        fld = ScalarField(kind="continuous", rhs="-x+sin(t)")
        tr = integrate(fld, 1.0, (0.0, 400.0))
        rep = asymptotic_tau_periodic_test(tr, TWO_PI, 1e-4)
        assert rep.verdict == "pass"
        assert rep.statistic <= 1e-6

    def test_slow_drift_caught_by_residues_not_dense_part(self):
        # increments of the log-clock curve vanish, yet it converges to
        # nothing; only the residue sequences expose that
        tr = catalog.get("sin-log").trajectory()
        rep = asymptotic_tau_periodic_test(tr, 1.0, 0.05)
        assert rep.verdict == "fail"
        assert rep.residue_osc == pytest.approx(0.10988, abs=2e-3)
        assert rep.dense_sup < 1e-4

    def test_moving_defect_caught_by_dense_part_not_residues(self):
        # amplitude alternates between periods on a narrow bump placed
        # between residue points: every residue sequence settles, the
        # pointwise comparison does not
        t = 0.1 * np.arange(2001)
        u = ((t % 2.0) - 0.2) / 0.05
        pulse = (np.floor(t / 2.0) % 2) * np.exp(-u ** 2)
        tr = Trajectory(kind="continuous", t0=0.0, dt=0.1, values=pulse,
                        derivs=pulse * (-2.0 * u / 0.05))
        rep = asymptotic_tau_periodic_test(tr, 2.0, 0.05)
        assert rep.verdict == "fail"
        assert rep.residue_osc < 1e-5
        assert rep.dense_sup == pytest.approx(1.0, abs=1e-3)

    def test_drifting_map_fails_unit_shift(self):
        tr = catalog.get("beverton-holt").trajectory()
        rep = asymptotic_tau_periodic_test(tr, 1.0, 0.05)
        assert rep.verdict == "fail"
        assert rep.statistic == pytest.approx(0.10987, abs=2e-3)

    def test_too_few_multiples_is_inconclusive(self):
        tr = sample_function("sin(t)", (0.0, 400.0), 0.01)
        rep = asymptotic_tau_periodic_test(tr, 50.0, 0.05)
        assert rep.verdict == "inconclusive"
        assert any("multiples" in n for n in rep.notes)

    def test_validation(self):
        tr = discrete_traj(np.arange(100.0))
        with pytest.raises(ValueError):
            asymptotic_tau_periodic_test(tr, -1.0, 0.05)
        with pytest.raises(ValueError, match="whole-number"):
            asymptotic_tau_periodic_test(tr, 1.5, 0.05)


# ---------------------------------------------------------------------------
# two-trajectory probes: the separation |a - b| is computed here, not by
# the library


class TestSeparationConstancy:
    def test_damped_pair_separation_dies(self):
        fld = ScalarField(kind="continuous", rhs="-x+sin(t)")
        a = integrate(fld, 1.0, (0.0, 40.0))
        b = integrate(fld, 3.0, (0.0, 40.0))
        sep = np.abs(a.values - b.values)
        tail = sep[a.grid() >= 30.0]
        assert sep[0] == pytest.approx(2.0, abs=1e-12)
        assert np.max(tail) <= 1e-10

    def test_identity_map_separation_exactly_constant(self):
        fld = ScalarField(kind="discrete", rhs="x", time_domain="half-line")
        a = iterate(fld, 1.0, 100)
        b = iterate(fld, 3.0, 100)
        assert np.all(np.abs(a.values - b.values) == 2.0)


# ---------------------------------------------------------------------------
# configuration


class TestClassifyConfig:
    @pytest.mark.parametrize("kwargs", [
        {"eps": 0.0},
        {"eps": math.inf},
        {"exact_eps": -1.0},
        {"tau": 0.0},
        {"tau_range": (5.0, 5.0)},
        {"tau_range": (-1.0, 10.0)},
        {"tau_step": 0.0},
        {"windows": ((3.0, 2.0),)},
        {"windows": ((5.0, 10.0), (1.0, 4.0))},
        {"windows": ()},
        {"exact_eps": math.nan},
        {"tau": math.inf},
        {"tau_range": (0.0, math.inf)},
        {"tau_step": math.nan},
        {"windows": ((1.0, math.nan),)},
    ])
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            ClassifyConfig(**kwargs)

    def test_defaults_are_valid(self):
        cfg = ClassifyConfig()
        assert cfg.eps == 0.05 and cfg.tau is None


# ---------------------------------------------------------------------------
# full classification


def classify_example(name):
    ex = catalog.get(name)
    source = "curve" if name == "slow-chirp" else None
    tr = ex.trajectory(source=source)
    return ex, classify_trajectory(tr, catalog.recommended_config(ex))


class TestClassifyTrajectory:
    @pytest.mark.parametrize("name", [e for e in catalog.catalog()])
    def test_catalog_entry_reaches_expected_class(self, name):
        ex, res = classify_example(name)
        assert res.label == ex.expected_class
        assert res.hierarchy_ok()

    def test_sine_candidate_is_full_turn(self):
        _, res = classify_example("sine")
        assert res.candidate_tau == pytest.approx(TWO_PI, abs=1e-12)
        assert res.reports["tau-periodic"]["sup"] <= 1e-9

    def test_two_tone_candidate_is_in_first_nontrivial_cluster(self):
        _, res = classify_example("two-tone")
        assert 30.5 < res.candidate_tau < 32.0

    def test_drifting_map_candidate_is_one_step(self):
        _, res = classify_example("beverton-holt")
        assert res.candidate_tau == 1.0
        assert res.verdicts["remotely-stationary"] == "pass"
        assert res.verdicts["asymptotically-stationary"] == "fail"

    def test_sin_log_refines_no_lower_than_its_candidate_floor(self):
        # refinement searched below the floor of ten scan steps (1.0 here)
        # and once slid from 1.0 to 0.895; the verdicts do not move
        _, res = classify_example("sin-log")
        assert res.reports["candidate"] == {"initial": 1.0, "refined": 1.0}
        assert res.verdicts == {
            "stationary": "fail", "tau-periodic": "fail",
            "almost-periodic": "fail", "asymptotically-stationary": "fail",
            "asymptotically-tau-periodic": "fail",
            "remotely-stationary": "pass", "remotely-tau-periodic": "pass",
            "remotely-almost-periodic": "pass"}

    def test_refined_shift_of_a_two_tone_response_stays_at_the_floor(self):
        # the zero cluster reaches the floor 0.1 (ten steps of 0.01), and
        # refinement once went on down to 0.0895
        fld = ScalarField(kind="continuous", rhs="-x+sin(t)+sin(sqrt(2)*t)")
        res = classify_trajectory(integrate(fld, 0.0, (0.0, 600.0)),
                                  ClassifyConfig(eps=0.5, tau_range=(0.0, 200.0)))
        assert res.reports["candidate"] == {"initial": 0.1, "refined": 0.1}
        assert res.label == "remotely-tau-periodic"

    def test_too_few_samples_is_inconclusive(self):
        tr = discrete_traj([1.0, 2.0, 3.0])
        res = classify_trajectory(tr)
        assert res.label == "inconclusive"
        assert all(v == "inconclusive" for v in res.verdicts.values())

    def test_constant_orbit_is_stationary(self):
        fld = ScalarField(kind="discrete", rhs="x", time_domain="half-line")
        res = classify_trajectory(iterate(fld, 1.0, 60))
        assert res.label == "stationary"
        assert res.hierarchy_ok()

    def test_linear_growth_is_unclassified(self):
        tr = sample_function("0.1*t", (0.0, 500.0), 0.05)
        res = classify_trajectory(tr, ClassifyConfig(tau_range=(0.0, 50.0),
                                                     tau_step=0.05))
        assert res.label == "unclassified"
        assert res.hierarchy_ok()

    def test_scale_equivariance(self):
        ex = catalog.get("relax-sin")
        tr = ex.trajectory()
        base_cfg = catalog.recommended_config(ex)
        res1 = classify_trajectory(tr, base_cfg)
        scaled_cfg = ClassifyConfig(
            eps=base_cfg.eps * 4.0, exact_eps=base_cfg.exact_eps * 4.0,
            tau=base_cfg.tau, tau_range=base_cfg.tau_range,
            tau_step=base_cfg.tau_step, windows=base_cfg.windows)
        scaled = Trajectory(kind=tr.kind, t0=tr.t0, dt=tr.dt,
                            values=4.0 * tr.values, derivs=4.0 * tr.derivs)
        res2 = classify_trajectory(scaled, scaled_cfg)
        assert res1.label == res2.label == "asymptotically-tau-periodic"
        assert res1.verdicts == res2.verdicts
        c1 = res1.reports["remotely-tau-periodic"]
        c2 = res2.reports["remotely-tau-periodic"]
        assert np.allclose(np.asarray(c2.sups), 4.0 * np.asarray(c1.sups),
                           rtol=1e-9)

    def test_summary_mentions_label_and_all_classes(self):
        _, res = classify_example("sine")
        text = res.summary()
        assert "label: tau-periodic" in text
        for name in CLASS_ORDER:
            assert name in text
        assert "hierarchy consistency: ok" in text

    def test_summary_counts_the_shifts_of_each_scan(self):
        # deterministic counts: 10001 shifts, 298 compared by the kernel,
        # the rest certified rejected; sin-log's remote scan admits all 101
        # shifts, so the kernel compares each in full
        _, res = classify_example("sine")
        for scan in (res.global_scan, res.remote_scan):
            assert (f"{scan.mode} scan: 10001 shifts, 298 compared by the "
                    "kernel, 9703 certified rejected") in res.summary()
            assert scan.certified.sum() == 9703
        _, res = classify_example("sin-log")
        assert ("remote scan: 101 shifts, 101 compared by the kernel, "
                "0 certified rejected") in res.summary()

    def test_witness_pass_certifies_sin_log_drifts_rejected_shifts(self):
        # 1020001 samples take the witness path: a strided kernel call
        # certifies 100 of the global scan's 101 shifts and 99 of the
        # remote scan's, and the kernel compares the rest in full
        _, res = classify_example("sin-log-drift")
        assert ("global scan: 101 shifts, 1 compared by the kernel, "
                "100 certified rejected") in res.summary()
        assert ("remote scan: 101 shifts, 2 compared by the kernel, "
                "99 certified rejected") in res.summary()
        for scan in (res.global_scan, res.remote_scan):
            assert np.all(scan.sups[scan.certified] > scan.eps)
            assert not np.any(scan.admitted & scan.certified)

    def test_sine_probe_seed_eight_is_tau_periodic(self):
        # the ladder of 32.697..., the fifth probe that seed 8 once drew,
        # left a sliver as the last window rung; it ends at
        # (36.730..., 367.302...)
        ex = catalog.get("sine")
        traj = ex.trajectory()
        cfg = dataclasses.replace(
            catalog.recommended_config(ex),
            windows=_auto_windows(traj, 32.697227660556074))
        res = classify_trajectory(traj, cfg)
        assert res.label == "tau-periodic"
        assert res.hierarchy_ok()
        lo, hi = res.windows[-1]
        assert hi - lo > 1.0

    def test_pinned_shift_beyond_half_span_is_dropped(self):
        tr = sample_function("sin(t)", (0.0, 40.0), 0.01)
        res = classify_trajectory(tr, ClassifyConfig(tau=30.0,
                                                     tau_range=(0.0, 15.0)))
        assert any("half the span" in n for n in res.notes)
        assert res.candidate_tau != 30.0


class TestWindowLadder:
    def test_negative_start_ladder_is_finite_and_covers_the_range(self):
        # rungs at offsets 2 and 20 from the origin, then the stop at 183
        wins = _geometric_windows(-98.0, 83.0, origin=-100.0)
        assert wins == ((-98.0, -80.0), (-80.0, 83.0))

    def test_auto_ladder_for_negative_origin(self):
        tr = sample_function("sin(t)", (-100.0, 100.0), 0.01)
        wins = _auto_windows(tr, 17.3)
        assert wins[0][0] > tr.t0 and wins[-1][1] == pytest.approx(100.0 - 17.3)
        assert all(wins[j][1] == wins[j + 1][0] for j in range(len(wins) - 1))

    def test_rounding_sliver_is_folded(self):
        # 3.827 * 10 * 10 rounds to just below 382.7
        assert 3.827 * 10.0 * 10.0 < 382.7
        wins = _geometric_windows(3.827, 382.7)
        assert len(wins) == 2 and wins[-1][1] == 382.7

    def test_ladder_needs_start_after_origin(self):
        with pytest.raises(ValueError):
            _geometric_windows(-5.0, 10.0)


# ---------------------------------------------------------------------------
# structural properties under randomized inputs


finite_blocks = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
              allow_infinity=False, width=64),
    min_size=40, max_size=160)


class TestStructuralProperties:
    @settings(max_examples=60, deadline=None)
    @given(finite_blocks, st.integers(min_value=1, max_value=8))
    def test_repeated_shift_triangle_inequality(self, block, tau):
        tr = discrete_traj(block)
        n = len(block)
        hi = n - 1 - 3 * tau
        if hi < 2:
            return
        lhs = tail_sup(tr, 3.0 * tau, (0.0, hi))
        rhs = tail_sup(tr, float(tau), (0.0, hi + 2.0 * tau))
        assert lhs <= 3.0 * rhs + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(finite_blocks, st.integers(min_value=1, max_value=5))
    def test_window_monotonicity(self, block, tau):
        tr = discrete_traj(block)
        n = len(block)
        if n - 1 - tau < 8:
            return
        inner = tail_sup(tr, float(tau), (2.0, n - 3.0 - tau))
        outer = tail_sup(tr, float(tau), (0.0, n - 1.0 - tau))
        assert inner <= outer

    @settings(max_examples=60, deadline=None)
    @given(finite_blocks)
    def test_tail_oscillation_never_exceeds_full(self, block):
        tr = discrete_traj(block)
        rep = asymptotic_stationary_test(tr, 1.0)
        full = float(np.max(tr.values) - np.min(tr.values))
        assert rep.statistic <= full + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(finite_blocks)
    def test_admitted_sets_grow_with_eps(self, block):
        tr = discrete_traj(block)
        small = almost_period_scan(tr, 0.5, (0.0, 10.0), 1.0)
        big = almost_period_scan(tr, 5.0, (0.0, 10.0), 1.0)
        assert not np.any(small.admitted & ~big.admitted)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.1, max_value=0.9),
           st.integers(min_value=2, max_value=9))
    def test_tiled_block_admits_its_block_length(self, fill, period):
        rng = np.random.default_rng(int(fill * 1e6))
        block = rng.uniform(-3.0, 3.0, period)
        tr = discrete_traj(np.tile(block, 30))
        scan = almost_period_scan(tr, 1e-12, (1.0, float(3 * period)), 1.0)
        idx = np.flatnonzero(np.abs(scan.taus - period) < 0.5)[0]
        assert scan.admitted[idx]

    @settings(max_examples=40, deadline=None)
    @given(t0=st.floats(-50.0, 50.0), dt=st.floats(0.05, 1.0),
           n=st.integers(10, 300), frac=st.floats(0.01, 0.99))
    def test_tails_follow_the_grid_rule(self, t0, dt, n, frac):
        # the tail of the asymptotic test against the grid rule written
        # out above, over tails of any length
        values = np.sin(0.3 * np.arange(n)) + 0.01 * np.arange(n)
        tr = Trajectory(kind="continuous", t0=t0, dt=dt, values=values)
        tail_from = tr.t_end - frac * (tr.t_end - tr.t0)
        i0, i1 = _grid_range(tr, tail_from, tr.t_end)
        with mock.patch.object(classify_module, "_TAIL_FRACTION", frac):
            if i1 - i0 < 1:
                with pytest.raises(ValueError, match="fewer than two"):
                    asymptotic_stationary_test(tr, 0.05)
                return
            rep = asymptotic_stationary_test(tr, 0.05)
        tail = values[i0:i1 + 1]
        assert rep.statistic == np.max(tail) - np.min(tail)

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["stored", "free", "discrete"]),
           t0=st.floats(-1000.0, 1000.0), dt=st.floats(1e-3, 1.0),
           n=st.integers(10, 800), rate=st.floats(0.01, 1.5),
           drift=st.sampled_from([0.0, 1.0]), steps=st.floats(0.5, 8.0))
    def test_random_trajectories_keep_the_hierarchy(self, kind, t0, dt, n,
                                                    rate, drift, steps):
        # sines with and without a smooth log drift; without stored
        # derivatives the np.gradient fallback must stay inside the
        # triangle slack
        if kind == "discrete":
            t0, dt = float(round(t0)), 1.0
        ts = t0 + dt * np.arange(n)
        phase = rate * ts + drift * np.log(2001.0 + ts)
        derivs = (rate + drift / (2001.0 + ts)) * np.cos(phase)
        tr = Trajectory(kind="continuous" if kind != "discrete" else kind,
                        t0=t0, dt=dt, values=np.sin(phase),
                        derivs=derivs if kind == "stored" else None)
        span = tr.t_end - tr.t0
        cfg = ClassifyConfig(eps=0.05, tau_range=(0.0, span),
                             tau_step=steps * dt)
        res = classify_trajectory(tr, cfg)
        assert res.hierarchy_ok(), res.hierarchy

    def test_derivative_free_sine_keeps_the_triangle_slack(self):
        tr = Trajectory(kind="continuous", t0=0.0, dt=0.2,
                        values=np.sin(np.arange(0.0, 400.1, 0.2)))
        cfg = ClassifyConfig(eps=0.05, tau_range=(0.0, 100.0), tau_step=0.1)
        res = classify_trajectory(tr, cfg)
        assert res.hierarchy_ok(), res.hierarchy
        assert all(h["status"] == "ok" for h in res.hierarchy
                   if h["name"].startswith("triangle"))

    def _off_grid_chirp(self):
        # a log-drifting sine whose refined shift, 0.0394, is under half a
        # grid step: the middle points of the k = 2 chain sit between
        # grid points, where the single-shift comparison rises above its
        # grid values by more than the interpolation budget
        t0, dt = 878.9490934629612, 0.08739725839838235
        tr = sample_function("sin(1.4206491362353828*t + ln(1+t))",
                             (t0, t0 + 177 * dt), dt)
        span = tr.t_end - tr.t0
        cfg = ClassifyConfig(eps=0.05, tau=0.3619248603689105,
                             tau_range=(0.0, span),
                             tau_step=3.5147109509643695 * dt,
                             windows=_auto_windows(tr, span / 10))
        return tr, cfg

    def test_off_grid_refined_shift_keeps_the_triangle_slack(self):
        tr, cfg = self._off_grid_chirp()
        res = classify_trajectory(tr, cfg)
        assert res.candidate_tau == pytest.approx(0.0394, abs=1e-4)
        assert res.hierarchy_ok(), res.hierarchy
        assert [h["status"] for h in res.hierarchy
                if h["name"].startswith("triangle")] == ["ok", "ok"]

    def test_inflated_k_fold_sup_is_a_violation(self, monkeypatch):
        # the added slack must not swallow a k-fold sup 10% too large
        tr, cfg = self._off_grid_chirp()
        res = classify_trajectory(tr, cfg)
        kernel = Trajectory.shift_sups

        def inflated(self, *args, **kwargs):
            # the triangle check's pairs alternate: k-fold shift, then tau
            # over the stretched window
            sups = kernel(self, *args, **kwargs)
            sups[:, ::2] *= 1.1
            return sups

        monkeypatch.setattr(Trajectory, "shift_sups", inflated)
        checks = _alone(tr, _triangle_check(tr, res.candidate_tau,
                                            res.windows[-1]))
        assert [c["status"] for c in checks] == ["violation", "violation"]


# ---------------------------------------------------------------------------
# remote tests and the triangle check: one kernel call each


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, DynamicsError) as exc:
        return exc


def _curve_by_windows(traj, tau, eps, windows):
    """remote_tau_periodic_test as a loop over windows: clamp, then
    _grid_range, then a one-window shift_sups call each."""
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError("eps must be positive and finite")
    used, sups, notes = [], [], []
    for w in windows:
        lo, hi = float(w[0]), float(w[1])
        eff_lo, eff_hi = max(lo, traj.t0), min(hi, traj.t_end - tau)
        if eff_hi <= eff_lo:
            notes.append(f"window ({lo}, {hi}) dropped: no room for the shift")
            continue
        if not (tau >= 0 and math.isfinite(tau)):
            raise ValueError("tau must be finite and non-negative")
        if traj.kind == "discrete" and abs(tau - round(tau)) > 1e-9:
            raise ValueError("discrete trajectories need whole-number shifts")
        i0, i1 = _grid_range(traj, eff_lo, eff_hi)
        if i1 < i0:
            raise ValueError("window contains no grid points")
        sups.append(float(traj.shift_sups([tau], [[i0]], [[i1]])[0, 0]))
        if (eff_lo, eff_hi) != (lo, hi):
            notes.append(f"window ({lo}, {hi}) clamped to ({eff_lo}, {eff_hi})")
        used.append((eff_lo, eff_hi))
    if not used:
        raise ValueError("no window fits inside the sampled span")
    level = next((lo for (lo, _), s in zip(used, sups) if s <= eps), None)
    arr = np.asarray(sups)
    if arr[-1] > eps:
        verdict = "fail"
    elif np.all(arr <= eps) or np.all(arr[1:] <= arr[:-1] * 1.1 + 1e-9):
        verdict = "pass"
    else:
        verdict = "inconclusive"
        notes.append("suprema neither all small nor decreasing")
    return dict(tau=float(tau), windows=tuple(used), sups=arr,
                verdict=verdict, level=level, notes=notes)


def _battery_by_probes(traj, eps, windows, probes):
    """remote_stationary_test as a loop over probes, one ladder each."""
    span = traj.dt * (len(traj.values) - 1)
    curves, notes = {}, []
    for p in probes:
        if p > span / 3.0:
            curves[p] = None
            notes.append(f"probe {p:g} skipped: larger than a third of the span")
            continue
        try:
            curves[p] = _curve_by_windows(traj, p, eps, windows)
        except ValueError as exc:
            curves[p] = None
            notes.append(f"probe {p:g} skipped: {exc}")
    tested = [curves[p] for p in probes if curves[p] is not None]
    if any(c["verdict"] == "fail" for c in tested):
        verdict = "fail"
    elif len(tested) == len(probes) >= 3 and all(
            c["verdict"] == "pass" for c in tested):
        verdict = "pass"
    else:
        verdict = "inconclusive"
        if len(tested) < 3:
            notes.append("fewer than three probes could be tested")
    return dict(curves=curves, verdict=verdict, notes=notes)


def _tail_sup_by_window(traj, tau, window):
    """tail_sup as one validated window and one shift_sups call."""
    lo, hi = float(window[0]), float(window[1])
    tol = 1e-9 * max(1.0, abs(traj.dt))
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bad window ({lo}, {hi})")
    if not (tau >= 0 and math.isfinite(tau)):
        raise ValueError("tau must be finite and non-negative")
    if traj.kind == "discrete" and abs(tau - round(tau)) > 1e-9:
        raise ValueError("discrete trajectories need whole-number shifts")
    if hi + tau > traj.t_end + tol:
        raise ValueError(
            f"window end {hi} plus shift {tau} leaves the sampled span")
    if lo < traj.t0 - tol:
        raise ValueError(f"window start {lo} precedes the sampled span")
    i0, i1 = _grid_range(traj, lo, hi)
    if i1 < i0:
        raise ValueError("window contains no grid points")
    return float(traj.shift_sups([tau], [[i0]], [[i1]])[0, 0])


def _triangle_by_pairs(traj, tau, window, budget):
    """_triangle_check as two tail_sup calls for each k, over the window
    clamped to start inside the span; an off-grid shift adds k - 1 times
    its rise between grid points (checked against the written-out Hermite
    formula in test_dynamics), up to the end of the largest checked k-fold
    shift, to the slack."""
    lo, hi = window
    before = hi <= traj.t0
    lo = max(lo, traj.t0)
    ks = [k for k in (2, 3)
          if not before and hi + k * tau <= traj.t_end + 1e-9]
    rise = traj.shift_rise(tau, lo, hi + ks[-1] * tau) if ks else 0.0
    checks = []
    for k in (2, 3):
        name = f"triangle k={k}"
        if before:
            checks.append({"name": name, "status": "skipped", "detail":
                           "window lies before the sampled span"})
            continue
        if hi + k * tau > traj.t_end + 1e-9:
            checks.append({"name": name, "status": "skipped", "detail":
                           "span too short for the stretched window"})
            continue
        lhs = _tail_sup_by_window(traj, k * tau, (lo, hi))
        rhs = _tail_sup_by_window(traj, tau, (lo, hi + (k - 1) * tau))
        slack = (10.0 * budget + (k - 1) * rise + 1e-6 * max(1.0, rhs)
                 + 1e-12)
        if lhs <= k * rhs + slack:
            checks.append({"name": name, "status": "ok", "detail":
                           f"sup({k}*tau)={lhs:.3e} <= {k}*sup(tau)+slack"})
        else:
            checks.append({"name": name, "status": "violation", "detail":
                           f"sup({k}*tau)={lhs:.3e} > {k}*{rhs:.3e}"
                           f"+{slack:.1e}"})
    return checks


def _assert_same_error(got, want):
    assert isinstance(got, Exception), got
    assert type(got) is type(want) and str(got) == str(want)


def _assert_same_curve(got, want):
    if isinstance(want, Exception):
        _assert_same_error(got, want)
        return
    assert not isinstance(got, Exception), got
    assert got.tau == want["tau"] and got.windows == want["windows"]
    sups = np.asarray(got.sups)
    assert np.array_equal(sups, want["sups"])
    assert np.array_equal(np.signbit(sups), np.signbit(want["sups"]))
    assert (got.verdict, got.level) == (want["verdict"], want["level"])
    assert got.notes == want["notes"]


def _window_strategy():
    """Windows as fractions of the span: anywhere in or past it, or
    between two grid points of a cell."""
    spread = st.tuples(st.just("span"), st.floats(-0.3, 1.3),
                       st.floats(1e-3, 1.2))
    cell = st.tuples(st.just("cell"), st.floats(0.0, 1.0),
                     st.sampled_from([0.2, 0.45]))
    return st.one_of(spread, spread, cell)


def _windows_in(traj, drawn):
    span = traj.t_end - traj.t0
    out = []
    for how, a, b in drawn:
        if how == "span":
            lo = traj.t0 + a * span
            out.append((lo, lo + b * span))
        else:
            m = math.floor(a * (len(traj.values) - 1))
            lo = traj.t0 + (m + b) * traj.dt
            out.append((lo, lo + 0.3 * traj.dt))
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["continuous", "discrete"]),
       t0=st.floats(-60.0, 60.0), dt=st.floats(0.01, 1.0),
       n=st.integers(12, 300), seed=st.integers(0, 2**32 - 1),
       drawn=st.lists(_window_strategy(), min_size=1, max_size=4),
       shifts=st.lists(st.tuples(st.floats(0.0, 0.6),
                                 st.sampled_from([0.0, 0.0, 0.37, 0.5])),
                       min_size=1, max_size=6),
       eps=st.one_of(*[st.floats(1e-3, 2.0)] * 3,
                     st.sampled_from([0.0, math.nan])),
       with_derivs=st.booleans())
def test_remote_tests_match_the_per_window_loop(kind, t0, dt, n, seed, drawn,
                                                shifts, eps, with_derivs):
    # every remote test and the triangle check against the loops they
    # replaced: same windows, sups bit for bit, verdicts, levels, notes
    # and errors
    rng = np.random.default_rng(seed)
    i = np.arange(n)
    rate = rng.uniform(0.05, 1.0)
    values = np.sin(rate * i) + 0.05 * rng.standard_normal(n)
    if kind == "discrete":
        # a discrete grid of step 2 makes odd shifts fall between samples
        traj = Trajectory(kind="discrete", t0=float(round(t0)),
                          dt=float(1 + seed % 2), values=values)
    else:
        derivs = rate / dt * np.cos(rate * i) if with_derivs else None
        traj = Trajectory(kind="continuous", t0=t0, dt=dt, values=values,
                          derivs=derivs)
    windows = _windows_in(traj, drawn)
    span = traj.t_end - traj.t0
    # on-grid shifts, shifts between samples, and half steps that a
    # discrete trajectory refuses
    probes = tuple(float(round(f * span / traj.dt) + frac) * traj.dt
                   for f, frac in shifts)
    for tau in probes:
        _assert_same_curve(
            _outcome(remote_tau_periodic_test, traj, tau, eps, windows),
            _outcome(_curve_by_windows, traj, tau, eps, windows))
    want = _outcome(_battery_by_probes, traj, eps, windows, probes)
    # classify_trajectory compares the shifts' ladders and the battery in
    # one call
    own, shared = _alone(traj, _battery(traj, eps, windows, probes, probes))
    for tau, curve in zip(probes, own):
        _assert_same_curve(
            curve, _outcome(_curve_by_windows, traj, tau, eps, windows))
    for got in (_outcome(remote_stationary_test, traj, eps, windows, probes),
                shared):
        if isinstance(want, Exception):
            _assert_same_error(got, want)
            continue
        assert (got.verdict, got.notes) == (want["verdict"], want["notes"])
        assert got.curves.keys() == want["curves"].keys()
        for p, curve in want["curves"].items():
            if curve is None:
                assert got.curves[p] is None
            else:
                _assert_same_curve(got.curves[p], curve)
    got = _outcome(lambda *args: _alone(traj, _triangle_check(*args)),
                   traj, probes[0], windows[-1])
    want = _outcome(_triangle_by_pairs, traj, probes[0], windows[-1],
                    traj.interp_budget())
    if isinstance(want, Exception):
        _assert_same_error(got, want)
    else:
        assert got == want


def _count_kernel_calls(monkeypatch):
    calls = []
    kernel = Trajectory.shift_sups

    def counted(self, *args, **kwargs):
        calls.append(len(np.atleast_1d(args[0])))
        return kernel(self, *args, **kwargs)

    monkeypatch.setattr(Trajectory, "shift_sups", counted)
    return calls


def test_each_remote_test_makes_one_kernel_call(monkeypatch):
    tr = sample_function("sin(t)", (0.0, 300.0), 0.05)
    windows = ((20.0, 60.0), (60.0, 150.0), (150.0, 280.0))
    calls = _count_kernel_calls(monkeypatch)
    bat = remote_stationary_test(tr, 0.05, windows)
    assert calls == [5] and bat.verdict == "fail"
    calls.clear()
    cur = remote_tau_periodic_test(tr, TWO_PI, 0.05, windows)
    assert calls == [1] and cur.verdict == "pass" and len(cur.sups) == 3


def test_classify_sine_makes_at_most_eight_kernel_calls(monkeypatch):
    ex = catalog.get("sine")
    tr = ex.trajectory()
    calls = _count_kernel_calls(monkeypatch)
    res = classify_trajectory(tr, catalog.recommended_config(ex))
    assert res.label == "tau-periodic"
    assert len(calls) <= 8


def test_a_catalog_pass_makes_at_most_57_kernel_calls(monkeypatch):
    # as the classify-catalog benchmark workload runs it, slow-chirp
    # sampled from its solution curve
    calls = _count_kernel_calls(monkeypatch)
    for ex in catalog.catalog().values():
        traj = ex.trajectory(
            source="curve" if ex.name == "slow-chirp" else None)
        res = classify_trajectory(traj, catalog.recommended_config(ex))
        assert res.label == ex.expected_class
    assert len(calls) <= 57


# ---------------------------------------------------------------------------
# refinement pruned by strided lower bounds


def _refine_by_loop(traj, tau, step, window, floor):
    """_refine_candidate without pruning: each round compares every
    candidate in full, and the first least sup wins."""
    if tau < floor - 1e-9:
        floor = 0.0
    lo = max(window[0], traj.t0)
    hi = min(window[1], traj.t_end - (tau + 1.1 * step))
    i0, i1 = _grid_range(traj, lo, hi)
    if not (hi > lo and i1 > i0):
        return tau
    stride = max(1, (i1 - i0 + 1) // 50_000)
    t_last = traj.t0 + traj.dt * (i0 + stride * ((i1 - i0) // stride))
    best_tau, best = tau, math.inf
    centre, width = tau, step
    for _ in range(2):
        cands = centre + np.linspace(-width, width, 41)
        cands = cands[(cands > 0) & (cands >= floor)
                      & (t_last + cands <= traj.t_end + 1e-9)]
        if cands.size:
            sups = traj.shift_sups(cands, [[i0]], [[i1]], stride)[0]
            for cand, s in zip(cands.tolist(), sups.tolist()):
                if s < best:
                    best, best_tau = s, cand
        centre, width = best_tau, width / 20.0
    return best_tau


def _assert_same_refinement(traj, tau, step, window, floor, points):
    """The pruned search, with _WITNESS_POINTS set to points, returns the
    loop's shift bit for bit, or raises what it raises."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify_module, "_WITNESS_POINTS", points)
        got = _outcome(classify_module._refine_candidate, traj, tau, step,
                       window, floor)
    want = _outcome(_refine_by_loop, traj, tau, step, window, floor)
    if isinstance(want, Exception):
        _assert_same_error(got, want)
    else:
        assert type(got) is type(want)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(["wave", "flat", "steps", "nan-derivative"]),
       n=st.integers(40, 5000), dt=st.floats(0.01, 1.0),
       t0=st.floats(-50.0, 50.0), seed=st.integers(0, 2**32 - 1),
       period=st.floats(0.02, 0.45), drift=st.floats(-0.05, 0.05),
       step=st.floats(0.01, 0.4), lo=st.floats(0.0, 0.9),
       length=st.floats(0.05, 1.2),
       floor=st.sampled_from(["none", "cuts", "above"]),
       points=st.sampled_from([1024, 64, 8, 2]))
def test_pruned_refinement_returns_the_exhaustive_shift(shape, n, dt, t0,
                                                        seed, period, drift,
                                                        step, lo, length,
                                                        floor, points):
    # a curve of period ``period`` of the span, searched from a start
    # ``drift`` periods off it; flat curves tie every sup, quantized ones
    # searched on the grid tie many, and a NaN derivative makes some sups
    # NaN.  points below 1024 make short windows prune through strided
    # witness calls, as windows of more than 2048 probe points do
    rng = np.random.default_rng(seed)
    span = (n - 1) * dt
    period *= span
    t = dt * np.arange(n)
    values = np.sin(2 * math.pi * t / period)
    derivs = 2 * math.pi / period * np.cos(2 * math.pi * t / period)
    tau, step = period * (1 + drift), step * period
    if shape == "flat":
        values, derivs = np.full(n, 0.5), np.zeros(n)
    elif shape == "steps":
        values, derivs = np.round(2 * values) / 2, None
        tau = max(1, round(tau / dt)) * dt
        step = 20 * max(1, round(step / (20 * dt))) * dt
    elif shape == "nan-derivative":
        derivs[rng.integers(n)] = np.nan
    traj = Trajectory(kind="continuous", t0=t0, dt=dt, values=values,
                      derivs=derivs)
    window = (t0 + lo * span, t0 + (lo + length) * span)
    # "cuts" drops the candidates below tau; "above" pins tau below the
    # floor, which lifts it
    floor = {"none": 0.0, "cuts": tau, "above": tau + 2 * step}[floor]
    _assert_same_refinement(traj, tau, step, window, floor, points)


def test_pruned_refinement_of_a_long_trajectory_returns_the_exhaustive_shift():
    # more than _WITNESS_MIN samples: the search is strided, and its
    # witness calls stride further, at the real _WITNESS_POINTS
    n = classify_module._WITNESS_MIN + 40_000
    tr = sample_function("sin(t) + 0.3*sin(ln(1 + t))", (0.0, (n - 1) * 0.01),
                         0.01)
    assert len(tr) == n
    for tau, window in ((6.2, (100.0, 2900.0)), (6.35, (10.0, 2000.0))):
        _assert_same_refinement(tr, tau, 0.1, window, 1.0,
                                classify_module._WITNESS_POINTS)


@pytest.mark.parametrize("points", [1024, 2])
def test_pruned_refinement_raises_what_the_exhaustive_loop_raises(points):
    # on a grid finer than the spacing of floats near t0 a candidate's last
    # comparable index falls before the window's first, and the kernel
    # raises for it
    tr = Trajectory(kind="continuous", t0=22.729529581726936,
                    dt=1.823255760944835e-15,
                    values=np.sin(0.3 * np.arange(88)))
    args = (tr, 5.105116130645538e-14, 1.2333471317669705e-16,
            (22.729529581727043, 22.72952958172708), 0.0)
    with pytest.raises(ValueError, match="no comparable grid points"):
        _refine_by_loop(*args)
    _assert_same_refinement(*args, points)


def test_refinement_compares_few_candidates_in_full_on_sin_log_drift(
        monkeypatch):
    ex = catalog.get("sin-log-drift")
    traj = ex.trajectory()
    refine, seen = classify_module._refine_candidate, []
    monkeypatch.setattr(classify_module, "_refine_candidate",
                        lambda *args: seen.append(args) or refine(*args))
    res = classify_trajectory(traj, catalog.recommended_config(ex))
    (args,) = seen
    assert _refine_by_loop(*args) == res.candidate_tau
    kernel, calls = Trajectory.shift_sups, []

    def recorded(self, taus, starts, ends, stride=1, where=None):
        calls.append((len(taus), stride))
        return kernel(self, taus, starts, ends, stride, where)

    monkeypatch.setattr(Trajectory, "shift_sups", recorded)
    assert refine(*args) == res.candidate_tau
    # each round opens with one witness call over all of its candidates,
    # at a wider stride than the full comparisons that follow it
    full_stride = min(stride for _, stride in calls)
    rounds = []
    for count, stride in calls:
        if stride > full_stride:
            assert count == 41
            rounds.append(0)
        else:
            rounds[-1] += count
    assert len(rounds) == 2 and max(rounds) <= 3, calls


# ---------------------------------------------------------------------------
# the candidate's comparisons after the scan, in one kernel call


def _candidate_tests(traj, tau, eps, windows, probes):
    """The tests classify_trajectory runs on a refined shift tau, in its
    order, as generators for _run."""
    return [_tail_sups(traj, [(tau, (traj.t0, traj.t_end - tau))]),
            _asymptotic_tau_test(traj, tau, eps),
            _battery(traj, eps, windows, probes, [tau]),
            _triangle_check(traj, tau, windows[-1])]


def _described(outcome):
    """An outcome of _run as comparable text: every float by its repr."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    return repr(outcome)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["continuous", "continuous", "discrete"]),
       t0=st.floats(-60.0, 60.0), dt=st.floats(0.01, 1.0),
       n=st.integers(12, 400), seed=st.integers(0, 2**32 - 1),
       drawn=st.lists(_window_strategy(), min_size=1, max_size=4),
       shift=st.tuples(st.one_of(st.floats(0.002, 0.05), st.floats(0.0, 0.6)),
                       st.sampled_from([0.0, 0.0, 0.37, 0.5])),
       probes=st.lists(st.tuples(st.floats(0.0, 0.6),
                                 st.sampled_from([0.0, 0.0, 0.37, 0.5])),
                       max_size=6),
       eps=st.one_of(st.floats(1e-3, 2.0), st.sampled_from([0.0, math.nan])),
       with_derivs=st.booleans())
def test_one_call_for_the_candidate_gives_each_tests_own_sups(
        kind, t0, dt, n, seed, drawn, shift, probes, eps, with_derivs):
    # shifts on the grid and between samples, half steps that a discrete
    # trajectory of step 2 refuses, probes past a third of the span,
    # windows in, across and past the span
    rng = np.random.default_rng(seed)
    i = np.arange(n)
    rate = rng.uniform(0.05, 1.0)
    values = np.sin(rate * i) + 0.05 * rng.standard_normal(n)
    if kind == "discrete":
        traj = Trajectory(kind="discrete", t0=float(round(t0)),
                          dt=float(1 + seed % 2), values=values)
    else:
        derivs = rate / dt * np.cos(rate * i) if with_derivs else None
        traj = Trajectory(kind="continuous", t0=t0, dt=dt, values=values,
                          derivs=derivs)
    windows = _windows_in(traj, drawn)
    span = traj.t_end - traj.t0
    tau, *probes = (float(round(f * span / traj.dt) + frac) * traj.dt
                    for f, frac in [shift, *probes])
    # the requests as the tests yield them, in one call and one by one
    requests = []
    for test in _candidate_tests(traj, tau, eps, windows, probes):
        try:
            requests.append(next(test))
        except (StopIteration, ValueError, DynamicsError):
            pass
    shared = classify_module._shared_sups(traj, requests)
    for k, (taus, starts, ends, where) in enumerate(requests):
        own = _outcome(traj.shift_sups, taus, starts, ends, 1, where)
        if shared is None:
            continue
        assert not isinstance(own, Exception), own
        assert own.shape == shared[k].shape
        assert own.tobytes() == shared[k].tobytes()
    if shared is None:
        assert any(isinstance(_outcome(traj.shift_sups, taus, starts, ends,
                                       1, where), Exception)
                   for taus, starts, ends, where in requests)
    # and what each test makes of its sups
    together = classify_module._run(
        traj, *_candidate_tests(traj, tau, eps, windows, probes))
    alone = [classify_module._run(traj, test)[0]
             for test in _candidate_tests(traj, tau, eps, windows, probes)]
    for k, (got, want) in enumerate(zip(together, alone)):
        # compared as one bool: a diff of two long reprs is slow to shrink
        same = _described(got) == _described(want)
        assert same, (k, got, want)


def _sine60():
    return sample_function("sin(t)", (0.0, 60.0), 0.05)


def _triangle_rows(res):
    return [(h["status"], h["detail"]) for h in res.hierarchy
            if h["name"].startswith("triangle")]


def test_a_ladder_before_the_span_reads_as_the_separate_tests_do():
    tr = _sine60()
    cfg = ClassifyConfig(tau_range=(0.0, 20.0), windows=((-50.0, -10.0),))
    res = classify_trajectory(tr, cfg)
    assert res.notes == [
        "remote scan unavailable: remote window must lie inside the sampled "
        "span",
        "remote periodicity untestable: no window fits inside the sampled "
        "span"]
    assert _triangle_rows(res) == [
        ("skipped", "window lies before the sampled span")] * 2
    battery = res.reports["remotely-stationary"]
    assert battery == remote_stationary_test(tr, cfg.eps, cfg.windows)
    assert battery.notes[-1] == "fewer than three probes could be tested"


def test_a_probe_past_a_third_of_the_span_is_skipped_in_the_battery():
    tr = _sine60()
    res = classify_trajectory(tr, ClassifyConfig(tau_range=(0.0, 20.0)))
    battery = res.reports["remotely-stationary"]
    assert battery.notes == [
        "probe 63.6962 skipped: larger than a third of the span"]
    assert battery == remote_stationary_test(tr, 0.05, res.windows)
    assert res.reports["asymptotically-tau-periodic"] == (
        asymptotic_tau_periodic_test(tr, res.candidate_tau, 0.05))
    assert res.reports["tau-periodic"]["sup"] == tail_sup(
        tr, res.candidate_tau, (0.0, 60.0 - res.candidate_tau))
    assert _triangle_rows(res) == [
        ("ok", "sup(2*tau)=2.061e-05 <= 2*sup(tau)+slack"),
        ("ok", "sup(3*tau)=3.092e-05 <= 3*sup(tau)+slack")]


def test_an_exact_window_that_fails_validation_leaves_a_note(monkeypatch):
    # a refined shift past the span, which refinement never returns, so
    # the exact sup's window is empty and every other test carries on
    tr = _sine60()
    monkeypatch.setattr(classify_module, "_refine_candidate",
                        lambda traj, tau, *args: 90.0)
    res = classify_trajectory(tr, ClassifyConfig(tau=6.0,
                                                 tau_range=(0.0, 20.0)))
    assert res.candidate_tau == 90.0
    assert res.notes == [
        "exact periodicity untestable: bad window (0.0, -30.0)",
        "remote periodicity untestable: no window fits inside the sampled "
        "span"]
    assert res.reports["asymptotically-tau-periodic"].notes == [
        "span holds only 0 multiples of the shift; 20 needed"]
    assert _triangle_rows(res) == [
        ("skipped", "span too short for the stretched window")] * 2


@pytest.mark.parametrize("tau", [8.0, 2.5, 3.0])
def test_a_discrete_step_of_two_reads_as_the_separate_tests_do(tau):
    # odd probes fall between the samples of a discrete trajectory of step
    # 2, so the one call raises and each test is compared alone; a pinned
    # 2.5 or 3 is no whole number of steps and gives way to the scan's
    # candidate 8
    tr = Trajectory(kind="discrete", t0=0.0, dt=2.0,
                    values=np.cos(np.arange(200) * math.pi / 2))
    res = classify_trajectory(tr, ClassifyConfig(tau=tau, tau_range=(0, 50),
                                                 tau_step=2))
    assert res.candidate_tau == 8.0 and res.label == "tau-periodic"
    pinned = ([] if tau == 8.0 else
              ["pinned shift is not a whole number of steps; ignored"])
    assert res.notes == pinned + [
        "asymptotic periodicity untestable: discrete trajectories are "
        "sampled at integer steps only",
        "remote stationarity untestable: discrete trajectories are sampled "
        "at integer steps only"]
    assert res.reports["remotely-tau-periodic"] == remote_tau_periodic_test(
        tr, 8.0, 0.05, res.windows)
    assert [s for s, _ in _triangle_rows(res)] == ["ok", "ok"]
