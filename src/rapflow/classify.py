"""Numerical placement of sampled trajectories in the recurrence hierarchy.

A sampled trajectory is examined for progressively weaker forms of
recurrence.  A shift tau is tested by comparing the trajectory against its
own translate: the statistic is always a supremum of |phi(t + tau) - phi(t)|
over some set of times.  Taking that supremum over the whole sampled span
tests exact recurrence; restricting it to late windows tests remote
recurrence, where the comparison is only required to become small from some
level onward; comparing residue sequences phi(r + k*tau) along multiples of
tau tests asymptotic recurrence, where the trajectory must settle onto a
translate-invariant limit.

The public entry point is :func:`classify_trajectory`, which runs the whole
battery and returns a :class:`ClassificationResult` with one verdict per
class, the evidence behind each verdict, and a set of internal consistency
checks (see :func:`ClassificationResult.hierarchy_ok`).  The individual
tests are usable on their own and each returns a small report object rather
than a bare boolean.

Verdicts are the strings "pass", "fail", and "inconclusive".  A test only
returns "pass" or "fail" when the sampled data actually supports the call at
the requested tolerance; anything thinner stays inconclusive.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .dynamics import _CHUNK, _GRID_TOL, DynamicsError, Trajectory

__all__ = [
    "CLASS_ORDER",
    "AlmostPeriodSet",
    "AsymptoticReport",
    "ClassificationResult",
    "ClassifyConfig",
    "DensityReport",
    "StationaryBattery",
    "TailSupCurve",
    "almost_period_scan",
    "asymptotic_stationary_test",
    "asymptotic_tau_periodic_test",
    "classify_trajectory",
    "default_probes",
    "remote_stationary_test",
    "remote_tau_periodic_test",
    "tail_sup",
]

# Strongest class first.  classify_trajectory labels a trajectory with the
# first class whose verdict is "pass".
CLASS_ORDER = (
    "stationary",
    "tau-periodic",
    "almost-periodic",
    "asymptotically-stationary",
    "asymptotically-tau-periodic",
    "remotely-stationary",
    "remotely-tau-periodic",
    "remotely-almost-periodic",
)

_POS_TOL = 1e-9
# below this many samples classify_trajectory leaves every verdict inconclusive
_MIN_SAMPLES = 10
# the most shifts a scan grid may hold: a million-shift scan peaks at about
# 230 MB, below the 320 MB of the largest trajectory the CLI builds
_MAX_SHIFTS = 1 << 20
# classify_trajectory scans a grid of more shifts than this coarse to fine;
# the kernel reads the trajectory once per 512 shifts, so a smaller grid
# would be read twice, by the coarse and the fine pass, instead of once
_CERTIFY_MIN = 512
# classify_trajectory scans a trajectory of more samples than this through
# a strided witness call first (:func:`_witnessed_sups`), at any grid size;
# on a shorter one the witness call costs more than it saves
_WITNESS_MIN = 4 * _CHUNK
# the witness call's stride is the sample count over this, so it compares
# about this many points of a shift over the whole span
_WITNESS_POINTS = 1024
# asymptotic_tau_periodic_test needs a span of this many shifts; on fewer
# its verdict is inconclusive
_MIN_MULTIPLES = 20
# the share of the span, at its end, that the asymptotic tests measure
_TAIL_FRACTION = 0.25


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ClassifyConfig:
    """Knobs for :func:`classify_trajectory`.

    eps            tolerance used by the recurrence statistics
    exact_eps      much tighter tolerance for exact periodicity / constancy
    tau            pinned candidate shift; None selects one from the scans
    tau_range      closed interval of shifts to scan
    tau_step       scan grid spacing (coerced to a whole number of steps for
                   discrete trajectories)
    windows        late comparison windows ((lo, hi), ...) in increasing
                   order; None derives a geometric ladder from the span
    """

    eps: float = 0.05
    exact_eps: float = 1e-5
    tau: float | None = None
    tau_range: tuple[float, float] = (0.0, 100.0)
    tau_step: float = 0.01
    windows: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if not (self.eps > 0 and math.isfinite(self.eps)):
            raise ValueError("eps must be positive and finite")
        if not (self.exact_eps > 0 and math.isfinite(self.exact_eps)):
            raise ValueError("exact_eps must be positive and finite")
        if self.tau is not None and not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError("tau must be positive when given")
        lo, hi = self.tau_range
        if not (math.isfinite(lo) and math.isfinite(hi) and 0 <= lo < hi):
            raise ValueError("tau_range must satisfy 0 <= lo < hi")
        if not (self.tau_step > 0 and math.isfinite(self.tau_step)):
            raise ValueError("tau_step must be positive")
        if self.windows is not None:
            prev = -math.inf
            for w in self.windows:
                wlo, whi = w
                if not (math.isfinite(wlo) and math.isfinite(whi) and wlo < whi):
                    raise ValueError(f"bad window {w!r}")
                if wlo < prev:
                    raise ValueError("windows must be in increasing order")
                prev = wlo
            if not self.windows:
                raise ValueError("windows must be None or non-empty")


def default_probes(kind: str) -> tuple[float, ...]:
    """Shift battery for remote-stationarity tests.

    Five fixed spread-out shifts, none tuned to an example, so no verdict
    rests on a random draw.  The largest also sets where the automatic
    window ladder ends.  Discrete probes are whole numbers of steps.
    """
    if kind == "discrete":
        return (1.0, 2.0, 5.0, 17.0, 86.0)
    if kind == "continuous":
        return (1.0, math.sqrt(2.0), 5.0, 17.3, 63.69616873214543)
    raise ValueError(f"unknown trajectory kind {kind!r}")


# ---------------------------------------------------------------------------
# the basic statistic


def _resolve_windows(traj: Trajectory, taus, windows):
    """Every window clamped for every shift, as grid index ranges.

    Window (lo, hi) under shift tau is clamped to [max(lo, t0),
    min(hi, t_end - tau)], where the shifted comparison stays inside the
    span, and covers the grid indices i with t0 + i*dt in it, up to
    1e-9*max(1, dt) steps at either end.  Returns the clamped lo and hi
    and the index ranges starts..ends, of shape (windows, shifts), and
    where, true for a clamped window that is not empty and holds a grid
    point.  As Python's max and min do, a tie or a NaN keeps the window's
    own bound.
    """
    t0, dt = traj.t0, traj.dt
    tol = _POS_TOL * max(1.0, dt)
    lo, hi = np.array(windows, float).reshape(-1, 2, 1).transpose(1, 0, 2)
    room = traj.t_end - np.asarray(taus, float)
    lo, hi = np.broadcast_arrays(np.where(t0 > lo, t0, lo),
                                 np.where(room < hi, room, hi))
    i0 = np.maximum(np.ceil((lo - t0) / dt - tol), 0)
    i1 = np.minimum(np.floor((hi - t0) / dt + tol), len(traj.values) - 1)
    where = (hi > lo) & (i1 >= i0)
    starts, ends = (np.where(where, i, 0).astype(np.int64) for i in (i0, i1))
    return lo, hi, starts, ends, where


def _shift_error(traj: Trajectory, tau: float) -> ValueError | None:
    """What a shift test raises for the shift tau itself, or None."""
    if not (tau >= 0 and math.isfinite(tau)):
        return ValueError("tau must be finite and non-negative")
    if traj.kind == "discrete" and abs(tau - round(tau)) > _POS_TOL:
        return ValueError("discrete trajectories need whole-number shifts")
    return None


def _shared_sups(traj: Trajectory, requests):
    """Each request's :meth:`Trajectory.shift_sups` result from one call,
    or None when that call raises.

    A shift that several requests ask for is one column of the call,
    each request's windows in rows of their own, so it is compared once
    over the hull of all of them.  A shift's sups do not depend on the
    other shifts or windows of a call, so each request reads the sups its
    own call gives; and a call raises only where some request's own call
    would.
    """
    column: dict = {}
    height: list = []
    placed = []
    for taus, starts, ends, where in requests:
        starts, ends, where = np.broadcast_arrays(
            np.asarray(starts, np.int64), np.asarray(ends, np.int64),
            np.asarray(where, bool))
        shape = (starts.shape[0], len(taus))
        spots = []
        for tau in np.asarray(taus, float).tolist():
            c = column.setdefault(tau, len(column))
            if c == len(height):
                height.append(0)
            spots.append((c, height[c]))
            height[c] += shape[0]
        placed.append((spots, *(np.broadcast_to(a, shape)
                                for a in (starts, ends, where))))
    shape = (max(height, default=0), len(column))
    all_starts, all_ends = np.zeros((2, *shape), np.int64)
    all_where = np.zeros(shape, bool)
    for spots, starts, ends, where in placed:
        for j, (c, h) in enumerate(spots):
            rows = slice(h, h + len(starts))
            all_starts[rows, c], all_ends[rows, c] = starts[:, j], ends[:, j]
            all_where[rows, c] = where[:, j]
    try:
        sups = traj.shift_sups(list(column), all_starts, all_ends,
                               where=all_where)
    except (ValueError, DynamicsError):
        return None
    out = []
    for spots, starts, _, _ in placed:
        got = np.full(starts.shape, np.nan)
        for j, (c, h) in enumerate(spots):
            got[:, j] = sups[h:h + len(starts), c]
        out.append(got)
    return out


def _run(traj: Trajectory, *tests) -> list:
    """What each test returns, its kernel comparisons shared in one call.

    A test is a generator that yields at most one request, the arguments
    (taus, starts, ends, where) of a :meth:`Trajectory.shift_sups` call,
    and is sent that call's sups.  The requests of several tests are
    compared in one call (:func:`_shared_sups`); if it raises, each is
    compared by a call of its own, and a test whose own call raises is
    thrown that error at its yield.  A ValueError or DynamicsError that a
    test raises is returned in its place.
    """
    out: list = [None] * len(tests)
    asked = {}
    for i, test in enumerate(tests):
        try:
            asked[i] = next(test)
        except StopIteration as stop:
            out[i] = stop.value
        except (ValueError, DynamicsError) as exc:
            out[i] = exc
    shared = _shared_sups(traj, asked.values()) if len(asked) > 1 else None
    for n, (i, (taus, starts, ends, where)) in enumerate(asked.items()):
        try:
            try:
                sups = shared[n] if shared is not None else traj.shift_sups(
                    taus, starts, ends, where=where)
            except (ValueError, DynamicsError) as exc:
                tests[i].throw(exc)
            else:
                tests[i].send(sups)
        except StopIteration as stop:
            out[i] = stop.value
        except (ValueError, DynamicsError) as exc:
            out[i] = exc
    return out


def _unwrap(outcome):
    """A test's outcome from :func:`_run`: raised if it is an error."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _alone(traj: Trajectory, test):
    """What a test returns, or raises, with a kernel call of its own."""
    return _unwrap(_run(traj, test)[0])


def _tail_sups(traj: Trajectory, pairs):
    """:func:`tail_sup` of each (tau, window) pair, in one kernel call; a
    test for :func:`_run`."""
    taus = [tau for tau, _ in pairs]
    wins = [(float(w[0]), float(w[1])) for _, w in pairs]
    # a window is checked to leave room for its shift, up to tol, and
    # resolved as under shift 0, so no clamp cuts into that tolerance
    _, _, starts, ends, where = _resolve_windows(traj, [0.0], wins)
    tol = _POS_TOL * max(1.0, traj.dt)
    for q, (tau, (lo, hi)) in enumerate(zip(taus, wins)):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"bad window ({lo}, {hi})")
        err = _shift_error(traj, tau)
        if err is not None:
            raise err
        if hi + tau > traj.t_end + tol:
            raise ValueError(
                f"window end {hi} plus shift {tau} leaves the sampled span")
        if lo < traj.t0 - tol:
            raise ValueError(f"window start {lo} precedes the sampled span")
        if not where[q, 0]:
            raise ValueError("window contains no grid points")
    sups = yield taus, starts, ends, np.eye(len(taus), dtype=bool)
    return np.diagonal(sups).tolist()


def tail_sup(traj: Trajectory, tau: float,
             window: tuple[float, float]) -> float:
    """sup of |phi(t + tau) - phi(t)| for grid times t in [lo, hi].

    The window must leave room for the shifted comparison: hi + tau has to
    stay inside the sampled span.  Discrete trajectories only accept
    whole-number shifts.  Off-grid comparison points of continuous
    trajectories are evaluated with the trajectory's own dense interpolant
    (:meth:`Trajectory.shift_sups`).
    """
    return _alone(traj, _tail_sups(traj, [(tau, window)]))[0]


# ---------------------------------------------------------------------------
# remote recurrence


@dataclass
class TailSupCurve:
    """Shift-comparison suprema over a ladder of late windows.

    verdict is "pass" when the data shows the comparison small from some
    level on: either every window supremum is at most eps, or the sequence
    of suprema is non-increasing (up to 10 percent) and ends at or below
    eps.  It is "fail" when the final window still exceeds eps, and
    "inconclusive" otherwise.  level is the left endpoint of the first
    window whose supremum is at or below eps, i.e. the numerically observed
    level from which the shift is admitted.
    """

    tau: float
    eps: float
    windows: tuple[tuple[float, float], ...]
    sups: tuple[float, ...]
    verdict: str
    level: float | None
    notes: list[str] = field(default_factory=list)


def _remote_curves(traj: Trajectory, taus, eps: float, windows):
    """:func:`remote_tau_periodic_test` of each shift, in one kernel call;
    a test for :func:`_run`.

    Returns, per shift, its TailSupCurve or the ValueError or DynamicsError
    that the test raises for it: the first one that comparing its windows
    one by one, in order, would meet.
    """
    if not (eps > 0 and math.isfinite(eps)):
        return [ValueError("eps must be positive and finite")] * len(taus)
    bounds = [(float(w[0]), float(w[1])) for w in windows]
    taus = np.asarray(taus, float)
    lo, hi, starts, ends, where = _resolve_windows(traj, taus, bounds)
    kept = ~(hi <= lo)
    # the first window kept but not compared ends a ladder; the windows
    # before it are compared first, so their errors come first
    cut = np.argmax(np.vstack([kept & ~where, np.ones((1, taus.size), bool)]),
                    axis=0)
    out = [_shift_error(traj, tau) if kept[:, j].any() else ValueError(
        "no window fits inside the sampled span")
        for j, tau in enumerate(taus.tolist())]
    cols = np.flatnonzero([e is None for e in out])
    use = where[:, cols] & (np.arange(len(bounds))[:, None] < cut[cols])
    try:
        sups = yield taus[cols], starts[:, cols], ends[:, cols], use
    except (ValueError, DynamicsError) as exc:
        # some shift's comparison raises; test each alone to learn which
        return [exc] if taus.size == 1 else [
            _alone(traj, _remote_curves(traj, [tau], eps, windows))[0]
            for tau in taus]
    lo, hi = lo.tolist(), hi.tolist()
    for j, sup in zip(cols.tolist(), sups.T):
        w = int(cut[j])
        if w < len(bounds):
            out[j] = ValueError("window contains no grid points" if
                                math.isfinite(lo[w][j] + hi[w][j]) else
                                f"bad window ({lo[w][j]}, {hi[w][j]})")
            continue
        used = [(lo[w][j], hi[w][j]) for w in np.flatnonzero(kept[:, j])]
        notes = [f"window ({a}, {b}) clamped to ({lo[w][j]}, {hi[w][j]})"
                 if kept[w, j] else
                 f"window ({a}, {b}) dropped: no room for the shift"
                 for w, (a, b) in enumerate(bounds)
                 if not kept[w, j] or (lo[w][j], hi[w][j]) != (a, b)]
        arr = sup[kept[:, j]]
        level = next((a for (a, _), s in zip(used, arr) if s <= eps), None)
        if arr[-1] > eps:
            verdict = "fail"
        elif np.all(arr <= eps):
            verdict = "pass"
        elif np.all(arr[1:] <= arr[:-1] * 1.1 + _POS_TOL):
            # decreasing through the ladder and small at the end
            verdict = "pass"
        else:
            verdict = "inconclusive"
            notes.append("suprema neither all small nor decreasing")
        out[j] = TailSupCurve(tau=float(taus[j]), eps=float(eps),
                              windows=tuple(used), sups=tuple(arr.tolist()),
                              verdict=verdict, level=level, notes=notes)
    return out


def remote_tau_periodic_test(traj: Trajectory, tau: float, eps: float,
                             windows) -> TailSupCurve:
    """Test whether the shift tau is eventually an almost period.

    Computes sup |phi(t + tau) - phi(t)| over each window in the ladder and
    applies the verdict rule documented on :class:`TailSupCurve`.  Each
    window is clamped to the sampled span, leaving room for the shift; a
    window left empty is dropped, and both are recorded in the notes.
    """
    (curve,) = _alone(traj, _remote_curves(traj, [tau], eps, windows))
    if isinstance(curve, Exception):
        raise curve
    return curve


@dataclass
class StationaryBattery:
    """Outcome of the multi-shift remote-stationarity battery.

    Every tested probe shift must individually pass for the battery to
    pass; one failing probe fails it.  Probes too large for the span are
    skipped; with fewer than three tested probes, or any skipped probe and
    no failure, the outcome stays inconclusive.
    """

    probes: tuple[float, ...]
    curves: dict
    verdict: str
    notes: list[str] = field(default_factory=list)


def _battery(traj: Trajectory, eps: float, windows, probes, taus=()):
    """:func:`remote_stationary_test` over probes, and the remote curves of
    the shifts taus, in one kernel call; a test for :func:`_run`.

    Returns (curves, battery): per shift in taus what
    :func:`_remote_curves` gives for it, and the StationaryBattery or the
    DynamicsError that the test raises.
    """
    span = traj.dt * (len(traj.values) - 1)
    fits = [p for p in probes if not p > span / 3.0]
    found = yield from _remote_curves(traj, [*taus, *fits], eps, windows)
    own, found = found[:len(taus)], iter(found[len(taus):])
    curves: dict = {}
    notes: list[str] = []
    for p in probes:
        curve = ValueError("larger than a third of the span") if (
            p > span / 3.0) else next(found)
        if isinstance(curve, DynamicsError):
            return own, curve
        curves[p] = None if isinstance(curve, ValueError) else curve
        if curves[p] is None:
            notes.append(f"probe {p:g} skipped: {curve}")
    tested = [curves[p] for p in probes if curves[p] is not None]
    if any(c.verdict == "fail" for c in tested):
        verdict = "fail"
    elif len(probes) == len(tested) >= 3 and all(
            c.verdict == "pass" for c in tested):
        verdict = "pass"
    else:
        verdict = "inconclusive"
        if len(tested) < 3:
            notes.append("fewer than three probes could be tested")
    return own, StationaryBattery(probes=tuple(float(p) for p in probes),
                                  curves=curves, verdict=verdict, notes=notes)


def remote_stationary_test(traj: Trajectory, eps: float, windows,
                           probes=None) -> StationaryBattery:
    """Test whether every fixed shift is eventually an almost period.

    Runs :func:`remote_tau_periodic_test` over a battery of spread-out
    probe shifts, all compared in one kernel call.  Remote stationarity
    requires all shifts to work, so the battery can only ever support the
    claim; it refutes it outright when a single probe fails.
    """
    if probes is None:
        probes = default_probes(traj.kind)
    _, battery = _alone(traj, _battery(traj, eps, windows, probes))
    if isinstance(battery, DynamicsError):
        raise battery
    return battery


# ---------------------------------------------------------------------------
# almost-period scans


@dataclass
class DensityReport:
    """Spread of an admitted-shift set over the scanned range.

    largest_gap is the length of the longest sub-interval of the scanned
    range containing no admitted shift (boundary gaps included).
    :meth:`relative_density` judges how densely the admitted shifts lie.
    """

    eps: float
    scan_range: tuple[float, float]
    n_admitted: int
    largest_gap: float

    def relative_density(self) -> str:
        """"pass" when some shift is admitted and no gap between admitted
        shifts exceeds a quarter of the scanned range, else "fail"."""
        lo, hi = self.scan_range
        dense = self.n_admitted > 0 and self.largest_gap <= (hi - lo) / 4.0
        return "pass" if dense else "fail"


@dataclass
class AlmostPeriodSet:
    """Result of scanning a grid of shifts against one trajectory.

    mode "global" compares over the whole sampled span; mode "remote"
    compares over one late window.  assessable marks grid shifts that left
    at least two comparison points; sups holds the corresponding suprema
    (NaN where not assessable) and admitted marks sups <= eps.  certified
    marks shifts proven rejected without a full comparison over the window:
    from a strided comparison, or from the comparisons of other shifts
    (only :func:`classify_trajectory`'s scans certify).  Their sups hold a
    certified lower bound above eps, not the supremum itself.
    """

    mode: str
    eps: float
    taus: np.ndarray
    sups: np.ndarray
    admitted: np.ndarray
    assessable: np.ndarray
    certified: np.ndarray
    window: tuple[float, float] | None = None

    def admitted_taus(self) -> np.ndarray:
        return self.taus[self.admitted]

    def density(self) -> DensityReport:
        """Largest admitted-shift-free gap over the assessable range."""
        taus = self.taus[self.assessable]
        if taus.size == 0:
            raise ValueError("no shift in the scan was assessable")
        lo, hi = float(taus[0]), float(taus[-1])
        adm = np.sort(self.admitted_taus())
        if adm.size == 0:
            largest = hi - lo
        else:
            edges = np.concatenate(([lo], adm, [hi]))
            largest = float(np.max(np.diff(edges)))
        return DensityReport(eps=self.eps, scan_range=(lo, hi),
                             n_admitted=int(adm.size), largest_gap=largest)


def _scan_grid(traj: Trajectory, tau_range, tau_step: float) -> np.ndarray:
    """The shifts lo, lo + tau_step, ... <= hi, whole numbers on a discrete
    trajectory; more than _MAX_SHIFTS of them are refused unbuilt."""
    lo, hi = float(tau_range[0]), float(tau_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and 0 <= lo < hi):
        raise ValueError("tau_range must satisfy 0 <= lo < hi")
    if not (tau_step > 0 and math.isfinite(tau_step)):
        raise ValueError("tau_step must be positive")
    if traj.kind == "discrete":
        tau_step = max(1, round(tau_step))
        lo, hi = math.ceil(lo - _POS_TOL), math.floor(hi + _POS_TOL)
        if hi < lo:
            raise ValueError("tau_range holds no whole-number shift")
        count = (hi - lo) // tau_step + 1
    else:
        n = (hi - lo) / tau_step + _POS_TOL
        count = math.floor(n) + 1 if math.isfinite(n) else math.inf
    if count > _MAX_SHIFTS:
        raise ValueError(f"the shift grid would hold {count:.4g} shifts, more "
                         f"than the limit of {_MAX_SHIFTS}; shorten the shift "
                         "range or widen the step")
    return lo + tau_step * np.arange(count, dtype=float)


def almost_period_scan(traj: Trajectory, eps: float, tau_range,
                       tau_step: float, mode: str = "global",
                       window=None, threads: int = 1) -> AlmostPeriodSet:
    """Scan a grid of shifts and mark the eps-admitted ones.

    In mode "global" a shift tau is admitted when
    sup_t |phi(t + tau) - phi(t)| <= eps with t running over every grid
    point that leaves t + tau inside the span.  In mode "remote" t runs
    over one late window (clamped to fit), so admission only claims the
    comparison is small late, not everywhere.

    ``threads`` fans the comparisons out over at most that many workers,
    one per CPU core and one per shift at most; the scan is the same bit
    for bit at any count, and so is the error raised for a failing grid.
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError("eps must be positive and finite")
    if mode not in ("global", "remote"):
        raise ValueError(f"unknown scan mode {mode!r}")
    if mode == "remote" and window is None:
        raise ValueError("remote scans need a window")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    taus = _scan_grid(traj, tau_range, tau_step)
    (scan,) = _scan(traj, eps, taus, [window if mode == "remote" else None],
                    threads=threads)
    if isinstance(scan, Exception):
        raise scan
    return scan


def _certified_sups(traj: Trajectory, eps: float, taus: np.ndarray, starts,
                    ends, where):
    """The kernel's sups of a scan, skipping shifts proven rejected.

    For a fixed set of comparison indices the sup moves with the shift by
    at most slope*|tau - tau'| + slack (:meth:`Trajectory.shift_slope`), so
    one computed sup C above eps rejects every shift within (C - eps)/slope
    of it.  A coarse pass compares every q-th shift, q about sqrt(len(taus)),
    over its own windows and, for the block from it to the next coarse
    shift, over that block's common windows: the indices that every shift
    of the block compares.  In every window :func:`_scan` resolves the
    start index does not depend on the shift, and the end index, clamped
    to the last one the kernel compares, never grows with it, so the
    common window of block [a, b] is b's own.  A shift between a and b is
    certified when, in each window it is assessable in, max(C_a - slope*
    (tau - tau_a), C_b - slope*(tau_b - tau)) - slack > eps.  A fine pass
    compares the rest.  Returns (sups, certified), both of where's shape:
    every sup not certified is the one a single kernel call gives, and a
    certified one is its lower bound.
    """
    slope, slack = traj.shift_slope(float(taus[-1]))
    if not math.isfinite(slope):
        return traj.shift_sups(taus, starts, ends, where=where), \
            np.zeros_like(where)
    size = taus.size
    coarse = np.append(np.arange(0, size - 1, math.isqrt(size)), size - 1)
    a, b = coarse[:-1], coarse[1:]
    # each block's common window: b's own, clamped as the kernel clamps it
    last = np.minimum(ends[:, b], traj.last_compared(taus[b]))
    common = where[:, a] & where[:, b]
    rows = len(where)

    def coarse_rows(own, per_block):
        # the coarse shifts' own windows, then the block each one starts
        pad = np.zeros((rows, 1), per_block.dtype)
        return np.vstack([own[:, coarse], np.hstack([per_block, pad])])

    sups = traj.shift_sups(taus[coarse], coarse_rows(starts, starts[:, b]),
                           coarse_rows(ends, last),
                           where=coarse_rows(where, common))
    block = np.searchsorted(a, np.arange(size), side="right") - 1
    dist_a = taus - taus[a][block]
    dist_b = taus[b][block] - taus
    bound = np.maximum(sups[rows:, :-1][:, block] - slope * dist_a,
                       sups[:rows, 1:][:, block] - slope * dist_b) - slack
    rejected = ~where | (common[:, block] & (bound > eps))
    certified = rejected.all(axis=0) & where.any(axis=0)
    certified[coarse] = False
    fine = where.any(axis=0) & ~certified
    fine[coarse] = False
    out = np.full(where.shape, np.nan)
    out[:, coarse] = sups[:rows]
    if fine.any():
        out[:, fine] = traj.shift_sups(taus[fine], starts[:, fine],
                                       ends[:, fine], where=where[:, fine])
    certified = certified & where
    out[certified] = bound[certified]
    return out, certified


def _witnessed_sups(traj: Trajectory, eps: float, taus: np.ndarray, starts,
                    ends, where):
    """The kernel's sups of a scan, skipping windows proven rejected.

    A sup over some of a window's comparison points is a lower bound of
    its sup, so one strided kernel call certifies every (shift, window)
    whose strided sup is above eps.  Each window's start is rounded up onto
    its shift's lattice, which starts at the shift's first start, so the
    strided points lie inside the window and on the one lattice the kernel
    needs.  A full call compares what is left.  Returns (sups, certified),
    both of where's shape: every sup not certified is the one a single
    kernel call gives, and a certified one is its lower bound.
    """
    stride = max(1, len(traj) // _WITNESS_POINTS)
    base = np.where(where, starts, len(traj)).min(axis=0)
    lattice = base + -(-(starts - base) // stride) * stride
    # a window that keeps no lattice point is left to the full call, which
    # raises for an empty one as the exact scan does
    seen = where & (lattice <= np.minimum(ends, traj.last_compared(taus)))
    bounds = traj.shift_sups(taus, lattice, ends, stride, where=seen)
    certified = seen & (bounds > eps)
    rest = where & ~certified
    cols = rest.any(axis=0)
    sups = np.full(where.shape, np.nan)
    if cols.any():
        sups[:, cols] = traj.shift_sups(taus[cols], starts[:, cols],
                                        ends[:, cols], where=rest[:, cols])
    sups[certified] = bounds[certified]
    return sups, certified


def _fanned_sups(traj: Trajectory, taus: np.ndarray, starts, ends, where,
                 threads: int) -> np.ndarray:
    """:meth:`Trajectory.shift_sups` of the shifts split into contiguous
    runs, min(threads, shifts, CPU cores) of them, each on its own worker;
    one run is compared in the calling thread.  The runs' sups are stacked
    in grid order and the first failing run's error is raised, so the
    result is the single call's."""
    workers = min(threads, taus.size, os.cpu_count() or 1)
    if workers == 1:
        return traj.shift_sups(taus, starts, ends, where=where)
    # imported here, not at the top: it loads threading and logging,
    # which one-worker scans and every other use of rapflow leave unused
    from concurrent.futures import ThreadPoolExecutor
    edges = [taus.size * k // workers for k in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(lambda run: traj.shift_sups(
            taus[run], starts[:, run], ends[:, run], where=where[:, run]),
            [slice(a, b) for a, b in zip(edges, edges[1:])])
        return np.hstack(list(parts))


def _scan(traj: Trajectory, eps: float, taus: np.ndarray, windows,
          certify: bool = False, threads: int = 1) -> list:
    """Scan one shift grid over several windows in one comparison pass.

    A window None is the whole span (mode "global"); a pair (lo, hi) is a
    remote window.  Each shift is compared once over the hull of its
    windows (:meth:`Trajectory.shift_sups`), so a remote window inside the
    span costs no second pass.  Returns, per window, the AlmostPeriodSet
    that :func:`almost_period_scan` gives for it alone, or the ValueError
    or DynamicsError that that scan raises.  With ``certify``, a trajectory
    of more than _WITNESS_MIN samples is scanned through a strided witness
    call (:func:`_witnessed_sups`), and a shorter continuous one with a
    grid of more than _CERTIFY_MIN shifts coarse to fine
    (:func:`_certified_sups`).  Either way admitted and assessable stay
    those of the exact scan, and so do the sups that are not certified.
    Otherwise ``threads`` fans the comparisons out (:func:`_fanned_sups`).
    """
    t0, t_end = traj.t0, traj.t_end
    out: list = [None] * len(windows)
    rows, spans = [], []
    for w, window in enumerate(windows):
        if window is None:
            w_lo, w_hi = t0, t_end
        else:
            w_lo, w_hi = float(window[0]), float(window[1])
            w_lo = max(w_lo, t0)
            if w_hi > t_end or w_hi <= w_lo:
                out[w] = ValueError(
                    "remote window must lie inside the sampled span")
                continue
        rows.append(w)
        spans.append((w_lo, w_hi))
    if not rows:
        return out
    _, _, starts, ends, where = _resolve_windows(traj, taus, spans)
    # a shift is assessable with at least two comparison points
    where &= ends > starts
    certified = np.zeros_like(where)
    try:
        if certify and len(traj) > _WITNESS_MIN:
            sups, certified = _witnessed_sups(traj, eps, taus, starts, ends,
                                              where)
        elif (certify and traj.kind == "continuous"
              and taus.size > _CERTIFY_MIN):
            sups, certified = _certified_sups(traj, eps, taus, starts, ends,
                                              where)
        else:
            sups = _fanned_sups(traj, taus, starts, ends, where, threads)
    except (ValueError, DynamicsError) as exc:
        # some window's scan raises; scan each alone to learn which
        return [exc] if len(windows) == 1 else [
            _scan(traj, eps, taus, [w])[0] for w in windows]
    for w, span, ok, sup, cert in zip(rows, spans, where, sups, certified):
        remote = windows[w] is not None
        out[w] = AlmostPeriodSet(
            mode="remote" if remote else "global", eps=float(eps), taus=taus,
            sups=sup, admitted=ok & (np.nan_to_num(sup, nan=np.inf) <= eps),
            assessable=ok, certified=cert, window=span if remote else None)
    return out


# ---------------------------------------------------------------------------
# asymptotic recurrence


@dataclass
class AsymptoticReport:
    """Outcome of a tail-settling test.

    statistic is the quantity compared against eps.  The verdict is "pass"
    at or below eps, "fail" above 2*eps, and otherwise inconclusive (the
    tail may simply not be long enough to decide at this tolerance).
    """

    kind: str
    tau: float | None
    eps: float
    statistic: float
    tail_from: float
    verdict: str
    residue_osc: float | None = None
    dense_sup: float | None = None
    notes: list[str] = field(default_factory=list)


def _tail(traj: Trajectory, series, tail_from: float) -> np.ndarray:
    """series at the grid times of [tail_from, t_end]; two samples at least."""
    _, _, starts, ends, where = _resolve_windows(
        traj, [0.0], [(tail_from, traj.t_end)])
    i0, i1 = int(starts[0, 0]), int(ends[0, 0])
    if not (where[0, 0] and i1 > i0):
        raise ValueError("tail holds fewer than two samples")
    return series[i0:i1 + 1]


def _verdict_near(stat: float, eps: float) -> str:
    if stat <= eps:
        return "pass"
    if stat > 2.0 * eps:
        return "fail"
    return "inconclusive"


def asymptotic_stationary_test(traj: Trajectory, eps: float) -> AsymptoticReport:
    """Test convergence to a constant: tail oscillation at most eps.

    The statistic is max - min of the samples over the final quarter of
    the span.  Convergence makes it drop below any eps eventually; a
    persistent oscillation keeps it bounded away from zero.
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError("eps must be positive and finite")
    t_end = traj.t_end
    tail_from = t_end - _TAIL_FRACTION * (t_end - traj.t0)
    tail = _tail(traj, traj.values, tail_from)
    stat = float(np.max(tail) - np.min(tail))
    return AsymptoticReport(kind="stationary", tau=None, eps=float(eps),
                            statistic=stat, tail_from=float(tail_from),
                            verdict=_verdict_near(stat, eps))


def asymptotic_tau_periodic_test(traj: Trajectory, tau: float,
                                 eps: float) -> AsymptoticReport:
    """Test convergence to a tau-periodic limit.

    Convergence onto a tau-periodic function means every residue sequence
    phi(r + k*tau), k = 0, 1, 2, ..., converges, and the pointwise
    comparison |phi(t + tau) - phi(t)| dies out.  The statistic is the
    larger of two tail measurements: the worst late oscillation among
    residue sequences spread across one shift interval, and the late
    supremum of the pointwise comparison.  The residue part separates true
    settling from a slow drift whose increments happen to shrink; the
    pointwise part stops a sparse residue sample from missing a moving
    feature between residues.
    """
    return _alone(traj, _asymptotic_tau_test(traj, tau, eps))


def _asymptotic_tau_test(traj: Trajectory, tau: float, eps: float):
    """:func:`asymptotic_tau_periodic_test` as a test for :func:`_run`."""
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError("eps must be positive and finite")
    if not (tau > 0 and math.isfinite(tau)):
        raise ValueError("tau must be positive")
    if traj.kind == "discrete" and abs(tau - round(tau)) > _POS_TOL:
        raise ValueError("discrete trajectories need whole-number shifts")
    t_end = traj.t_end
    span = t_end - traj.t0
    n_mult = int(math.floor(span / tau + _POS_TOL))
    if n_mult < _MIN_MULTIPLES:
        return AsymptoticReport(
            kind="tau-periodic", tau=float(tau), eps=float(eps),
            statistic=math.nan, tail_from=math.nan, verdict="inconclusive",
            notes=[f"span holds only {n_mult} multiples of the shift; "
                   f"{_MIN_MULTIPLES} needed"])
    if traj.kind == "discrete":
        tau = float(round(tau))
        n_res = int(min(tau, 4))
        residues = traj.t0 + np.arange(n_res, dtype=float)
    else:
        n_res = int(min(64, max(4, math.ceil(tau / (4.0 * traj.dt)))))
        residues = traj.t0 + (np.arange(n_res) / n_res) * tau
    worst = 0.0
    for r in residues:
        # only the last _TAIL_FRACTION of the sequence is looked up, in one
        # values_at call, which decides grid alignment over its whole query
        k_max = int(math.floor((t_end - r) / tau + _POS_TOL))
        k0 = int(math.floor((1.0 - _TAIL_FRACTION) * (k_max + 1)))
        if k_max - k0 < 1:
            continue
        tail = traj.values_at(r + tau * np.arange(k0, k_max + 1))
        worst = max(worst, float(np.max(tail) - np.min(tail)))
    dense_lo = t_end - tau - _TAIL_FRACTION * (span - tau)
    (dense,) = yield from _tail_sups(traj, [(tau, (dense_lo, t_end - tau))])
    stat = max(worst, dense)
    tail_from = traj.t0 + (1.0 - _TAIL_FRACTION) * span
    return AsymptoticReport(kind="tau-periodic", tau=float(tau),
                            eps=float(eps), statistic=stat,
                            tail_from=float(tail_from),
                            verdict=_verdict_near(stat, eps),
                            residue_osc=worst, dense_sup=dense)


# ---------------------------------------------------------------------------
# the full classifier


@dataclass
class ClassificationResult:
    """Everything :func:`classify_trajectory` decided and why.

    label is the strongest class with a passing verdict (see CLASS_ORDER),
    "unclassified" when nothing passed, or "inconclusive" when the sample
    was too short to say anything.  hierarchy collects internal
    consistency checks; a violated entry means the implementation
    contradicted a theorem of the hierarchy on this input, which is a bug,
    never a property of the trajectory.
    """

    label: str
    verdicts: dict
    candidate_tau: float | None
    windows: tuple[tuple[float, float], ...] | None
    config: ClassifyConfig
    reports: dict
    global_scan: AlmostPeriodSet | None
    remote_scan: AlmostPeriodSet | None
    hierarchy: list
    notes: list

    def hierarchy_ok(self) -> bool:
        return not any(h["status"] == "violation" for h in self.hierarchy)

    def summary(self) -> str:
        lines = [f"label: {self.label}"]
        if self.candidate_tau is not None:
            lines.append(f"candidate shift: {self.candidate_tau:.10g}")
        for name in CLASS_ORDER:
            lines.append(f"  {name:<28s} {self.verdicts[name]}")
        checks = "ok" if self.hierarchy_ok() else "VIOLATED"
        lines.append(f"hierarchy consistency: {checks}")
        for scan in (self.global_scan, self.remote_scan):
            if scan is not None:
                lines.append(
                    f"{scan.mode} scan: {scan.taus.size} shifts, "
                    f"{np.count_nonzero(scan.assessable & ~scan.certified)} "
                    f"compared by the kernel, "
                    f"{np.count_nonzero(scan.certified)} certified rejected")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _geometric_windows(start: float, stop: float, origin: float = 0.0
                       ) -> tuple[tuple[float, float], ...]:
    """Windows [start, stop] cut at origin + (start - origin)*10**j.

    The rungs grow geometrically in the offset from origin, so the ladder
    is finite for any origin.  A last rung that rounding leaves as a
    sliver is folded into the rung before it.
    """
    lo, hi = start - origin, stop - origin
    if not 0 < lo < hi:
        raise ValueError("window ladder needs origin < start < stop")
    n_max = math.ceil(math.log(hi / lo) / math.log(10.0)) + 1
    edges = [lo]
    while len(edges) < n_max and edges[-1] * 10.0 < hi:
        edges.append(edges[-1] * 10.0)
    if len(edges) > 1 and hi - edges[-1] <= _POS_TOL * hi:
        edges.pop()
    bounds = [origin + e for e in edges] + [stop]
    return tuple(zip(bounds[:-1], bounds[1:]))


def _auto_windows(traj: Trajectory, tau_big: float):
    """Geometric window ladder leaving room for the largest probe shift."""
    t0 = traj.t0
    end = traj.t_end - tau_big
    if end <= t0 + 20.0 * traj.dt:
        return None
    first = max(10.0 * traj.dt, (end - t0) / 100.0)
    if first >= (end - t0) / 2.0:
        return ((t0 + max(traj.dt, (end - t0) / 2.0), end),)
    return _geometric_windows(t0 + first, end, origin=t0)


def _refine_candidate(traj: Trajectory, tau: float, step: float,
                      window: tuple[float, float], floor: float) -> float:
    """Two rounds of local grid search minimizing the late comparison.

    The objective is the supremum over the final window, not the whole
    span, so a transient at the start cannot flatten the landscape and
    push the refined shift off target.  Shifts below ``floor`` are not
    tried, so the search cannot slide into the trivial cluster of small
    shifts; a tau already below it (a pinned shift) is searched without
    it.  Long windows are strided down to at most about fifty thousand
    probe points; this only steers the search, every reported verdict is
    recomputed on the full grid.

    The first candidate, in order, with the least sup wins, and a NaN sup
    never wins; the second round starts from the first one's best.  In a
    window of q >= 2 times _WITNESS_POINTS probe points a round is pruned
    first: one witness call compares its candidates at every q-th probe
    point from the window's first, so each witness sup is a sup over some
    of the candidate's probe points, a lower bound of its sup that is NaN
    wherever some of those points is.  The least-bound candidate is
    compared in full first, when its bound is below the running best, to
    lower that best.  A candidate whose bound is NaN, above the running
    best, or equal to it where the best comes earlier in order, cannot
    win, and is not compared in full; the rest are, in one call.  So the
    shift returned is the one that comparing every candidate gives.
    """
    if tau < floor - _POS_TOL:
        floor = 0.0
    t_end = traj.t_end
    _, _, starts, ends, where = _resolve_windows(traj, [tau + 1.1 * step],
                                                 [window])
    i0, i1 = int(starts[0, 0]), int(ends[0, 0])
    if not (where[0, 0] and i1 > i0):
        return tau
    stride = max(1, (i1 - i0 + 1) // 50_000)
    t_last = traj.t0 + traj.dt * (i0 + stride * ((i1 - i0) // stride))
    q = ((i1 - i0) // stride + 1) // _WITNESS_POINTS

    def compare(cands, every):
        return traj.shift_sups(cands, [[i0]], [[i1]], every)[0]

    def round_sups(cands, top):
        # the candidates' sups, NaN where a candidate cannot win against
        # the running best top
        if q < 2:
            return compare(cands, stride)
        bound = compare(cands, stride * q)
        sups = np.full(cands.size, np.nan)
        # the least bound's candidate first, to lower the running best
        lead = int(np.argmin(np.where(np.isnan(bound), np.inf, bound)))
        holder = -1
        if bound[lead] < top:
            sups[lead] = compare(cands[lead:lead + 1], stride)[0]
            if sups[lead] < top:
                top, holder = sups[lead], lead
        order = np.arange(cands.size)
        rest = ((bound < top) | ((bound == top) & (order < holder))) & (
            order != lead)
        if rest.any():
            sups[rest] = compare(cands[rest], stride)
        return sups

    best_tau, best = tau, math.inf
    centre, width = tau, step
    for _ in range(2):
        cands = centre + np.linspace(-width, width, 41)
        cands = cands[(cands > 0) & (cands >= floor)
                      & (t_last + cands <= t_end + _POS_TOL)]
        if cands.size:
            sups = round_sups(cands, best)
            for cand, s in zip(cands.tolist(), sups.tolist()):
                if s < best:
                    best, best_tau = s, cand
        centre, width = best_tau, width / 20.0
    return best_tau


def _candidate_from_scan(scan: AlmostPeriodSet,
                         min_tau: float) -> float | None:
    """Best shift inside the first genuine admitted cluster.

    Admitted grid shifts are split into maximal runs.  The run growing out
    of tau = 0 is the trivial continuity cluster, so a run detached from
    zero is preferred; only when no other run reaches min_tau does the
    zero run contribute, and then only its portion at or beyond min_tau.
    Within the chosen run the shift with the smallest supremum wins, so
    refinement starts near the middle of the cluster instead of at its
    ragged edge.
    """
    idx = np.flatnonzero(scan.admitted)
    if idx.size == 0:
        return None
    runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
    zero_runs = []
    for run in runs:
        portion = run[scan.taus[run] >= min_tau - _POS_TOL]
        if scan.taus[run[0]] <= _POS_TOL:
            zero_runs.append(portion)
            continue
        if portion.size:
            best = portion[np.argmin(scan.sups[portion])]
            return float(scan.taus[best])
    for portion in zero_runs:
        if portion.size:
            best = portion[np.argmin(scan.sups[portion])]
            return float(scan.taus[best])
    return None


def _triangle_check(traj: Trajectory, tau: float, window):
    """For k = 2 and 3, sup over W of the k-fold shift comparison against
    k times the single-shift comparison over the window stretched by
    (k - 1) shifts, all in one kernel call; a test for :func:`_run`.  This
    is a triangle inequality for the sampled interpolant, so a violation
    beyond the slack is an implementation bug.  The slack is ten times the
    trajectory's :meth:`Trajectory.interp_budget`, round-off and, since
    the k - 1 middle points t + j*tau fall between grid points for a shift
    off the grid, k - 1 times :meth:`Trajectory.shift_rise`.  Those two
    terms are never negative, so a check that holds with the round-off
    alone holds with them, and they are computed only for one that does
    not.  A window that starts before the sampled span is clamped to its
    start, as the remote tests clamp it; one that ends by that start skips
    both checks."""
    lo, hi = window
    before = hi <= traj.t0
    lo = max(lo, traj.t0)
    ks = [k for k in (2, 3)
          if not (before or hi + k * tau > traj.t_end + _POS_TOL)]
    sups = iter((yield from _tail_sups(traj, [pair for k in ks for pair in (
        (k * tau, (lo, hi)), (tau, (lo, hi + (k - 1) * tau)))])))
    reason = ("window lies before the sampled span" if before else
              "span too short for the stretched window")
    checks = [{"name": f"triangle k={k}", "status": "skipped",
               "detail": reason} for k in (2, 3)]
    terms = None
    for check, k in zip(checks, (2, 3)):
        if k not in ks:
            continue
        lhs, rhs = next(sups), next(sups)
        if terms is None and not lhs <= k * rhs + (1e-6 * max(1.0, rhs)
                                                   + 1e-12):
            terms = (traj.interp_budget(),
                     traj.shift_rise(tau, lo, hi + ks[-1] * tau))
        budget, rise = terms or (0.0, 0.0)
        slack = (10.0 * budget + (k - 1) * rise + 1e-6 * max(1.0, rhs)
                 + 1e-12)
        ok = lhs <= k * rhs + slack
        check["status"] = "ok" if ok else "violation"
        check["detail"] = (
            f"sup({k}*tau)={lhs:.3e} <= {k}*sup(tau)+slack" if ok else
            f"sup({k}*tau)={lhs:.3e} > {k}*{rhs:.3e}+{slack:.1e}")
    return checks


def classify_trajectory(traj: Trajectory,
                        config: ClassifyConfig | None = None) -> ClassificationResult:
    """Run the recurrence battery and label the trajectory.

    The classes are tested strongest first and the label is the first
    pass.  Exact recurrence (stationary, tau-periodic) is judged at
    config.exact_eps; every approximate statistic is judged at config.eps.
    Stages that cannot run on the given sample record a note and stay
    inconclusive rather than aborting the whole classification.
    """
    cfg = config or ClassifyConfig()
    verdicts = {name: "inconclusive" for name in CLASS_ORDER}
    reports: dict = {}
    notes: list[str] = []
    hierarchy: list[dict] = []
    n = len(traj.values)
    if n < _MIN_SAMPLES:
        notes.append(f"only {n} samples; at least {_MIN_SAMPLES} needed")
        return ClassificationResult(
            label="inconclusive", verdicts=verdicts, candidate_tau=None,
            windows=None, config=cfg, reports=reports, global_scan=None,
            remote_scan=None, hierarchy=hierarchy, notes=notes)

    discrete = traj.kind == "discrete"
    t_end = traj.t_end
    span = t_end - traj.t0

    # exact constancy over the whole sample
    osc_full = float(np.max(traj.values) - np.min(traj.values))
    verdicts["stationary"] = "pass" if osc_full <= cfg.exact_eps else "fail"
    reports["stationary"] = {"oscillation": osc_full, "eps": cfg.exact_eps}

    # window ladder
    probes = default_probes(traj.kind)
    tau_big = max(probes + ((cfg.tau,) if cfg.tau is not None else ()))
    windows = cfg.windows if cfg.windows is not None else _auto_windows(
        traj, min(tau_big, span / 3.0))

    # shift scans: the global and the remote one share each comparison
    step_eff = float(max(1, int(round(cfg.tau_step)))) if discrete else cfg.tau_step
    lo_r = cfg.tau_range[0]
    hi_eff = min(cfg.tau_range[1], span / 2.0)
    scans: list = []
    if hi_eff > lo_r + step_eff / 2.0:
        try:
            taus = _scan_grid(traj, (lo_r, hi_eff), step_eff)
        except ValueError as exc:
            scans = [exc]
        else:
            scans = _scan(traj, cfg.eps, taus, [None] + (
                [windows[-1]] if windows is not None else []), certify=True)
    else:
        notes.append("shift range leaves no room below half the span; "
                     "scans skipped")
    gscan = scans[0] if scans else None
    rscan = scans[1] if len(scans) > 1 else None
    if isinstance(gscan, Exception):
        # the remote scan is only reported beside a global one
        notes.append(f"global scan unavailable: {gscan}")
        gscan = rscan = None
    if windows is None:
        notes.append("span too short for late windows; remote tests skipped")
    if isinstance(rscan, Exception):
        notes.append(f"remote scan unavailable: {rscan}")
        rscan = None

    # almost periodicity from scan density
    for scan, name, which in ((gscan, "almost-periodic", "global"),
                              (rscan, "remotely-almost-periodic", "remote")):
        if scan is None:
            continue
        try:
            dens = scan.density()
        except ValueError as exc:
            notes.append(f"{which} density unavailable: {exc}")
            continue
        reports[name] = dens
        verdicts[name] = dens.relative_density()

    # candidate shift
    min_cand = 1.0 if discrete else max(10.0 * step_eff, 2.0 * traj.dt)
    candidate = None
    if cfg.tau is not None:
        candidate = float(cfg.tau)
        # whole steps as the kernel counts them
        steps = candidate / traj.dt
        if discrete and (abs(steps - round(steps))
                         > _GRID_TOL * max(1.0, steps)):
            notes.append("pinned shift is not a whole number of steps; ignored")
            candidate = None
        elif candidate > span / 2.0:
            notes.append("pinned shift exceeds half the span; ignored")
            candidate = None
    if candidate is None and gscan is not None:
        candidate = _candidate_from_scan(gscan, min_cand)
    if candidate is None and rscan is not None:
        candidate = _candidate_from_scan(rscan, min_cand)

    refined = None
    if candidate is not None:
        if discrete:
            refined = float(round(candidate))
        else:
            ref_window = windows[-1] if windows is not None else (
                traj.t0 + 0.5 * span, t_end - candidate)
            try:
                refined = _refine_candidate(traj, candidate, step_eff,
                                            ref_window, min_cand)
            except (ValueError, DynamicsError):
                refined = candidate
        reports["candidate"] = {"initial": candidate, "refined": refined}

    # the candidate's own comparisons share one kernel call: its exact sup,
    # its asymptotic test's dense tail, its ladder beside the probe
    # battery's, and the triangle checks' k-fold shifts and windows
    tests: dict = {}
    if refined is not None:
        tests["exact"] = _tail_sups(traj, [(refined, (traj.t0,
                                                      t_end - refined))])
        tests["asymptotic"] = _asymptotic_tau_test(traj, refined, cfg.eps)
    if windows is not None:
        tests["remote"] = _battery(traj, cfg.eps, windows, probes,
                                   [] if refined is None else [refined])
        if refined is not None:
            tests["triangle"] = _triangle_check(traj, refined, windows[-1])
    done = dict(zip(tests, _run(traj, *tests.values())))

    if refined is not None:
        # exact tau-periodicity uses the supremum over the whole span
        try:
            (full_sup,) = _unwrap(done["exact"])
            verdicts["tau-periodic"] = (
                "pass" if full_sup <= cfg.exact_eps else "fail")
            reports["tau-periodic"] = {"tau": refined, "sup": full_sup,
                                       "eps": cfg.exact_eps}
        except ValueError as exc:
            notes.append(f"exact periodicity untestable: {exc}")
    else:
        notes.append("no candidate shift; shift-specific tests skipped")

    # asymptotic settling
    try:
        rep = asymptotic_stationary_test(traj, cfg.eps)
        verdicts["asymptotically-stationary"] = rep.verdict
        reports["asymptotically-stationary"] = rep
    except (ValueError, DynamicsError) as exc:
        notes.append(f"asymptotic stationarity untestable: {exc}")

    if refined is not None:
        try:
            rep = _unwrap(done["asymptotic"])
            verdicts["asymptotically-tau-periodic"] = rep.verdict
            reports["asymptotically-tau-periodic"] = rep
        except (ValueError, DynamicsError) as exc:
            notes.append(f"asymptotic periodicity untestable: {exc}")

    # remote settling
    if windows is not None:
        own, battery = _unwrap(done["remote"])
        for curve in own:
            if isinstance(curve, Exception):
                notes.append(f"remote periodicity untestable: {curve}")
            else:
                verdicts["remotely-tau-periodic"] = curve.verdict
                reports["remotely-tau-periodic"] = curve
        if isinstance(battery, Exception):
            notes.append(f"remote stationarity untestable: {battery}")
        else:
            verdicts["remotely-stationary"] = battery.verdict
            reports["remotely-stationary"] = battery

    # ---- internal consistency of the hierarchy ----
    # (a) shifts admitted over the whole span stay admitted late: the late
    # supremum runs over a subset of the same grid comparisons.
    if gscan is not None and rscan is not None:
        both = gscan.assessable & rscan.assessable
        bad = both & gscan.admitted & ~rscan.admitted
        if np.any(bad):
            taus_bad = gscan.taus[bad][:3]
            hierarchy.append({"name": "global-implies-remote",
                              "status": "violation",
                              "detail": f"shifts {taus_bad} admitted globally "
                                        "but not remotely"})
        else:
            hierarchy.append({"name": "global-implies-remote", "status": "ok",
                              "detail": f"{int(np.sum(both))} shifts compared"})
    else:
        hierarchy.append({"name": "global-implies-remote", "status": "skipped",
                          "detail": "needs both scans"})

    # (b) the tail oscillation can never exceed the full oscillation.
    rep = reports.get("asymptotically-stationary")
    if rep is not None and math.isfinite(rep.statistic):
        if rep.statistic <= osc_full + _POS_TOL:
            hierarchy.append({"name": "tail-oscillation-nested",
                              "status": "ok",
                              "detail": f"{rep.statistic:.3e} <= {osc_full:.3e}"})
        else:
            hierarchy.append({"name": "tail-oscillation-nested",
                              "status": "violation",
                              "detail": f"tail {rep.statistic:.3e} exceeds "
                                        f"full {osc_full:.3e}"})
    else:
        hierarchy.append({"name": "tail-oscillation-nested",
                          "status": "skipped", "detail": "no tail statistic"})

    # (c)-(d) triangle inequality for repeated shifts.
    skipped = "no candidate shift or windows"
    if refined is not None and windows is not None:
        if windows[-1][0] < traj.t0 < windows[-1][1]:
            notes.append(f"triangle checks clamp window {windows[-1]} to "
                         f"start at {traj.t0}")
        try:
            hierarchy += _unwrap(done["triangle"])
            skipped = None
        except (ValueError, DynamicsError) as exc:
            notes.append(f"triangle checks untestable: {exc}")
            skipped = str(exc)
    if skipped is not None:
        hierarchy += [{"name": f"triangle k={k}", "status": "skipped",
                       "detail": skipped} for k in (2, 3)]

    label = "unclassified"
    for name in CLASS_ORDER:
        if verdicts[name] == "pass":
            label = name
            break

    return ClassificationResult(
        label=label, verdicts=verdicts,
        candidate_tau=refined, windows=windows, config=cfg, reports=reports,
        global_scan=gscan, remote_scan=rscan, hierarchy=hierarchy, notes=notes)
