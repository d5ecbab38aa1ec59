"""Scalar nonautonomous systems and their sampled trajectories.

Continuous systems x' = f(t, x) are integrated with the Dormand-Prince 5(4)
pair: error-controlled steps that do not depend on the output grid, each
held to a hundredth of ``abs_tol + rel_tol*|x|``, and the fifth-order
solution propagated.  The values at the grid points t0 + k*dt come from the
steps' fourth-order continuous extension, and the stored right-hand-side
derivatives from one array evaluation of f per chunk of grid points.
Off-grid queries of a trajectory use cubic Hermite interpolation of its
stored values and derivatives, so interpolated values at grid points
reproduce the stored values exactly.  A closed-form curve sampled from an
expression stores its exact t-derivatives, computed in the same pass as
its values; where one is not finite, a central difference is stored
instead.

Discrete systems x_{n+1} = f(n, x_n) are iterated exactly (no integration
error); their trajectories use dt = 1 and integer sample times.  Both the
integrator's step loop and the iteration loop are compiled per field with
the right-hand side written in (:meth:`Expression.loop`), so evaluating it
makes no Python call.

Integration aborts (it never emits NaN/Inf): when |x| crosses the overflow
guard 1e12 a :class:`BlowupError` carrying the last good time is raised; when
the shrinking step underflows, :class:`StepUnderflowError`.  Iteration aborts
with :class:`IterationAbortError` carrying the step index when a value leaves
the state domain or an evaluation fails.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import struct
import textwrap
from dataclasses import dataclass, field

import numpy as np

from .expr import EvalError, Expression, parse

BLOWUP_GUARD = 1e12
_MIN_STEP_FACTOR = 1e-13
# a shift within this many steps (times max(1, steps)) of a whole number of
# steps counts as on the sampling grid
_GRID_TOL = 1e-9
# long arrays are filled and compared this many samples at a time: a chunk
# of values stays in cache while every shift of a block compares it, and
# sampling, the fourth difference, dense output and the boundedness check
# hold temporaries of this size only
_CHUNK = 1 << 16
# the most samples of one trajectory: its values and derivatives take about
# 320 MB, and sampling a curve a chunk at a time peaks near them
_MAX_SAMPLES = 20_000_000


class DynamicsError(RuntimeError):
    pass


class FieldValidationError(DynamicsError):
    pass


class BlowupError(DynamicsError):
    def __init__(self, t_last: float, value: float):
        self.t_last = float(t_last)
        self.value = float(value)
        super().__init__(
            f"solution magnitude crossed the overflow guard {BLOWUP_GUARD:g} "
            f"after t = {self.t_last!r} (last good value {self.value!r})")


class StepUnderflowError(DynamicsError):
    def __init__(self, t: float):
        self.t_last = t
        super().__init__(f"adaptive step size underflowed near t = {t!r}")


class IterationAbortError(DynamicsError):
    def __init__(self, step: int, reason: str):
        self.step = step
        super().__init__(f"iteration aborted at step {step}: {reason}")


def _as_expression(rhs) -> Expression:
    return rhs if isinstance(rhs, Expression) else parse(rhs)


@dataclass(eq=False)
class ScalarField:
    """Right-hand side of a scalar system, continuous or discrete.

    ``rhs`` is an expression in t and x, and ``params`` binds each of its
    free parameter names to a constant.  A coefficient that varies with time
    or with the step index, such as a drifting carrying capacity, is written
    into ``rhs`` as an expression in t; a discrete field is read at t = n.
    The field is spot-checked on a small validation grid at construction so
    domain errors surface early.
    """

    kind: str  # 'continuous' | 'discrete'
    rhs: Expression
    params: dict = field(default_factory=dict)
    state_domain: tuple = (-math.inf, math.inf)
    time_domain: str | None = None  # 'half-line' | 'full-line'; None: by kind
    name: str = ""

    def __post_init__(self):
        self.rhs = _as_expression(self.rhs)
        if self.time_domain is None:
            self.time_domain = ("half-line" if self.kind == "discrete"
                                else "full-line")
        if self.kind not in ("continuous", "discrete"):
            raise FieldValidationError(f"unknown kind {self.kind!r}")
        if self.time_domain not in ("half-line", "full-line"):
            raise FieldValidationError(f"unknown time domain {self.time_domain!r}")
        if self.kind == "discrete" and self.time_domain != "half-line":
            raise FieldValidationError("discrete systems run on the half-line n >= 0")
        lo, hi = self.state_domain
        if not lo < hi:
            raise FieldValidationError(f"empty state domain {self.state_domain!r}")
        missing = self.rhs.params - set(self.params)
        if missing:
            raise FieldValidationError(
                f"unbound parameter(s) in rhs: {', '.join(sorted(missing))}")
        self._spot_check()

    # -- evaluation ---------------------------------------------------------

    def bind(self):
        """Scalar callable f(t, x)."""
        return self.rhs.bind(self.params)

    def eval_grid(self, t_grid, x_grid) -> np.ndarray:
        """Values f(t_i, x_j) as an array of shape (len(t_grid), len(x_grid))."""
        t_grid = np.asarray(t_grid, float)
        x_grid = np.asarray(x_grid, float)
        return self.rhs.eval_array(
            t_grid[:, None], x_grid[None, :], params=self.params)

    # -- validation and identity --------------------------------------------

    def _validation_grid(self):
        if self.time_domain == "half-line":
            ts = [0.0, 1.0, 2.7, 7.5, 19.0]
        else:
            ts = [-19.0, -2.7, 0.0, 1.0, 7.5]
        if self.kind == "discrete":
            ts = [0.0, 1.0, 3.0, 7.0, 19.0]
        lo, hi = self.state_domain
        if math.isinf(lo) and math.isinf(hi):
            xs = [-10.0, -1.0, 0.0, 1.0, 10.0]
        elif math.isinf(hi):
            xs = [lo, lo + 0.5, lo + 1.0, lo + 5.0, lo + 20.0]
        elif math.isinf(lo):
            xs = [hi - 20.0, hi - 5.0, hi - 1.0, hi - 0.5, hi]
        else:
            xs = list(np.linspace(lo, hi, 5))
        return ts, xs

    def _spot_check(self):
        ts, xs = self._validation_grid()
        for tv in ts:
            try:
                vals = self.rhs.eval_array(
                    np.full(len(xs), tv), np.array(xs), params=self.params)
            except EvalError as err:
                raise FieldValidationError(
                    f"rhs fails on the validation grid at t={tv!r}: {err}") from err
            if not np.all(np.isfinite(vals)):
                j = int(np.argmax(~np.isfinite(vals)))
                raise FieldValidationError(
                    f"rhs is not finite at t={tv!r}, x={xs[j]!r}")

    @property
    def field_id(self) -> str:
        payload = json.dumps({
            "kind": self.kind,
            "rhs": self.rhs.to_text(),
            "params": {k: repr(float(v)) for k, v in sorted(self.params.items())},
            "state_domain": [repr(float(v)) for v in self.state_domain],
            "time_domain": self.time_domain,
            # constant; kept so that ids match those of earlier versions
            "seq": None,
        }, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class IntegratorConfig:
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    dt_out: float = 0.01

    def __post_init__(self):
        if any(math.isnan(v) for v in (self.abs_tol, self.rel_tol, self.dt_out)):
            raise ValueError("integrator settings must not be NaN")
        if not 0 < self.dt_out < math.inf:
            raise ValueError("dt_out must be finite and positive")
        if self.abs_tol <= 0 or self.rel_tol < 0:
            raise ValueError("the integrator needs abs_tol > 0 and rel_tol >= 0")

    def config_hash(self) -> str:
        payload = json.dumps({
            "abs_tol": repr(self.abs_tol), "rel_tol": repr(self.rel_tol),
            "dt_out": repr(self.dt_out),
            # constants; kept so that ids match those of earlier versions
            "method": "dopri5", "max_step": repr(math.inf)}, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def _scratch_rows(rows: int, size: int) -> list:
    """``rows`` float arrays of ``size`` elements, each 64-byte aligned.

    malloc aligns numpy's arrays to 16 bytes only; a buffer the kernel
    writes whose start is off a cache line makes vector stores straddle
    two lines, which cost about 1.5x on every shift.
    """
    width = -(-size // 8) * 8
    raw = np.empty(rows * width + 8)
    start = (-raw.ctypes.data % 64) // 8
    return [raw[start + r * width:start + r * width + size]
            for r in range(rows)]


def _row_reader(stride: int, size: int):
    """row(arr, start, n): arr[start], arr[start + stride], ... (n elements).

    With stride 1 a row is a view.  With a larger stride each row is
    gathered into contiguous scratch and kept for the next reader: the
    shifts of a strided call sit within a few samples of each other, so
    they share the base row and most shifted rows.  At most six rows of
    ``size`` elements are kept, the least recently read dropped first; a
    shift reads five at most, so none it holds is overwritten.
    """
    if stride == 1:
        return lambda arr, start, n: arr[start:start + n]
    kept: dict = {}
    spare = _scratch_rows(6, size)

    def row(arr, start, n):
        key = (id(arr), start)
        got = kept.pop(key, None)
        if got is None or got[1] < n:
            dst = got[0] if got is not None else spare.pop() if spare else (
                kept.pop(next(iter(kept)))[0])
            np.copyto(dst[:n], arr[start:start + (n - 1) * stride + 1:stride])
            got = (dst, n)
        kept[key] = got
        return got[0][:n]
    return row


class _IncrementBound:
    """Proves that a chunk of a shift cannot raise the sups of its windows.

    For base index i and a shift of m whole steps, |phi(i + m) - phi(i)| is
    at most m*M on the grid, M the largest sample increment |v[j+1] - v[j]|
    over [i, i + m].  Off the grid the shifted value is the Hermite sum
    v[p] + h01*(v[p+1] - v[p]) + dt*(h10*d[p] + h11*d[p+1]), p = i + m, with
    h01 in [0, 1] and |h10| + |h11| <= 1/4, so the comparison is at most
    m*M + M + dt/4*D, D the largest |d| over [p, p + 1].  The bound is
    scaled by 1 + 1e-12 and raised by 1e-13*(|v| + dt*|d|) for the
    kernel's round-off.

    M, D (when some shift is off the grid) and a bound on |v| are kept per
    segment of ``_CHUNK`` indices from ``origin``, each filled once per
    call, through the kernel's scratch row, when a chunk first needs it.
    Filling a segment costs about as much as comparing one shift over a
    chunk, so a block of one shift never tries, and a call stops trying
    once its segment fills outnumber the shift-chunks it skipped by more
    than one.
    """

    def __init__(self, traj, origin: int, derivs, scratch):
        self.v, self.d, self.dt = traj.values, derivs, traj.dt
        self.origin = origin
        self.scratch = scratch
        segments = -(-(len(self.v) - origin) // _CHUNK)
        # per segment: largest |increment|, |derivative| and |value|
        self.stats = np.zeros((segments, 3))
        self.known = np.zeros(segments, bool)
        self.filled = self.skipped = 0

    def _fill(self, q0: int, q1: int):
        v, d, n, buf = self.v, self.d, len(self.v), self.scratch
        for q in range(q0, q1):
            if self.known[q]:
                continue
            x0 = self.origin + q * _CHUNK
            x1 = min(n, x0 + _CHUNK)
            tops = []
            for a in range(x0, x1, buf.size):
                b = min(x1, a + buf.size)
                # increments v[j+1] - v[j] for j in [a, b), j + 1 < n
                inc = buf[:min(b, n - 1) - a]
                np.subtract(v[a + 1:a + 1 + inc.size], v[a:a + inc.size],
                            out=inc)
                np.abs(inc, out=inc)
                tops.append((inc.max() if inc.size else 0.0, 0.0 if d is None
                             else np.maximum(d[a:b].max(), -d[a:b].min())))
            # a NaN derivative stays NaN
            m, dv = np.max(tops, axis=0)
            # every |v[j]| in the segment is at most |v[x0]| + (j - x0)*M
            self.stats[q] = m, dv, abs(v[x0]) + (x1 - x0) * m
            self.known[q] = True
            self.filled += 1

    def block(self, edges, shifts, exact):
        """Prepares the chunks ``edges`` of a block of shifts."""
        # a shift's comparisons over base indices [e0, e1) read up to e1 + m
        self.q0 = ((edges[:-1] - self.origin) // _CHUNK).tolist()
        self.q1 = (np.minimum(len(self.v) - 1, edges[1:, None] + shifts)
                   - self.origin) // _CHUNK
        self.top = (self.q1.max(axis=1) + 1).tolist()
        grow = 1.0 + 1e-12
        self.coef_m = (shifts + ~exact) * grow
        self.coef_d = np.where(exact, 0.0, self.dt * (0.25 * grow + 1e-13))

    def worth(self) -> bool:
        return self.filled <= self.skipped + 1

    def skips(self, c: int, floor) -> list:
        """Per shift, whether all it forms over chunk c is at most ``floor``.

        A NaN or infinite M or D proves nothing, and neither does a |v|
        above 1e300, where the kernel's sums may overflow.
        """
        q0, top = self.q0[c], self.top[c]
        self._fill(q0, top)
        inc, dv, vmax = np.maximum.accumulate(
            self.stats[q0:top], axis=0)[self.q1[c] - q0].T
        with np.errstate(invalid="ignore", over="ignore"):
            ub = self.coef_m * inc + self.coef_d * dv + 1e-13 * vmax
        skip = (ub <= floor) & np.isfinite(ub) & (vmax <= 1e300)
        self.skipped += int(np.count_nonzero(skip))
        return skip.tolist()


@dataclass(eq=False)
class Trajectory:
    """Uniformly sampled solution curve.

    ``values[k]`` is the solution at ``t0 + k*dt``.  For continuous
    trajectories ``derivs[k]`` holds f(t_k, x_k) and powers the cubic Hermite
    dense output; discrete trajectories are exact at integer times and are
    never interpolated.
    """

    kind: str
    t0: float
    dt: float
    values: np.ndarray
    derivs: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.t0):
            raise ValueError("trajectory t0 must be finite")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("trajectory dt must be positive and finite")
        self.values = np.asarray(self.values, float)
        if self.values.ndim != 1 or len(self.values) < 2:
            raise ValueError("a trajectory needs at least two samples")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("trajectory values must be finite")
        if self.derivs is not None:
            self.derivs = np.asarray(self.derivs, float)
            if self.derivs.shape != self.values.shape:
                raise ValueError("derivs must match values in shape")

    def __len__(self):
        return len(self.values)

    @property
    def t_end(self) -> float:
        return self.t0 + (len(self.values) - 1) * self.dt

    def grid(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.values))

    def _hermite_derivs(self) -> np.ndarray:
        if self.derivs is not None:
            return self.derivs
        # fall back to second-order differences when no derivatives are stored
        return np.gradient(self.values, self.dt)

    def values_at(self, ts) -> np.ndarray:
        """Dense-output values at arbitrary times inside the sampled span."""
        ts = np.atleast_1d(np.asarray(ts, float))
        pos = (ts - self.t0) / self.dt
        n = len(self.values)
        tol = 1e-9
        if np.any(pos < -tol) or np.any(pos > n - 1 + tol):
            bad = float(ts[np.argmax((pos < -tol) | (pos > n - 1 + tol))])
            raise DynamicsError(
                f"query at t = {bad!r} outside sampled span "
                f"[{self.t0!r}, {self.t_end!r}]")
        # the choice is made over the whole query: Hermite at a point
        # within tol of the grid is not bit-equal to the stored value
        nearest = np.rint(pos)
        if np.all(np.abs(pos - nearest) <= tol):
            # aligned with the grid: return stored values exactly
            idx = np.clip(nearest.astype(int), 0, n - 1)
            return self.values[idx]
        if self.kind == "discrete":
            raise DynamicsError(
                "discrete trajectories are sampled at integer steps only")
        v, d = self.values, self._hermite_derivs()
        flat = pos.reshape(-1)
        out = np.empty(flat.size)
        for c0 in range(0, flat.size, _CHUNK):
            p = flat[c0:c0 + _CHUNK]
            idx = np.clip(np.floor(p + tol).astype(int), 0, n - 2)
            s = p - idx
            s2 = s * s
            s3 = s2 * s
            h00 = 2 * s3 - 3 * s2 + 1
            h10 = s3 - 2 * s2 + s
            h01 = -2 * s3 + 3 * s2
            h11 = s3 - s2
            out[c0:c0 + _CHUNK] = (
                h00 * v[idx] + h01 * v[idx + 1]
                + self.dt * (h10 * d[idx] + h11 * d[idx + 1]))
        return out.reshape(pos.shape)

    def _shift_cells(self, taus):
        """(k, whole, on_grid, last) of each shift, as the kernel reads it.

        k = tau/dt in steps; a shift within 1e-9*max(1, k) steps of the
        whole number ``whole`` is on the grid.  ``last`` is the last index
        whose shifted point is comparable: on the grid it needs the sample
        i + k, off it the cell [i + m, i + m + 1], m = floor(k).
        """
        k = np.asarray(taus, float) / self.dt
        whole = np.rint(k)
        on_grid = np.abs(k - whole) <= _GRID_TOL * np.maximum(1.0, k)
        n = len(self.values)
        last = np.where(on_grid, n - 1 - whole, n - 2 - np.floor(k))
        return k, whole, on_grid, last

    def last_compared(self, taus) -> np.ndarray:
        """Per shift, the last index i that :meth:`shift_sups` compares."""
        return self._shift_cells(taus)[3].astype(np.int64)

    def shift_sups(self, taus, starts, ends, stride: int = 1,
                   where=None) -> np.ndarray:
        """Shift comparisons of several shifts over several windows.

        ``starts`` and ``ends`` broadcast to shape (windows, shifts); entry
        [w, j] of the result is the sup of |phi(t_i + taus[j]) - phi(t_i)|
        over i = starts[w, j], starts[w, j] + stride, ... <= ends[w, j].
        Entries where the boolean ``where`` is false are not compared and
        read NaN.  With stride > 1 the windows of a shift must start on one
        lattice of that stride.

        What is read once: shifts go 512 at a time, and within such a block
        the loop runs over chunks outside and shifts inside, so a chunk of
        ``values`` and the derivatives (``_CHUNK`` comparison points of a
        shift) comes from memory once per block and from cache for every
        other shift in it.  Each shift forms |phi(t_i + tau) - phi(t_i)|
        once over the hull of its windows, through one scratch buffer per
        call.  Window and chunk edges cut that series into pieces, each
        reduced once; a window's sup is the max over its pieces, so
        windows that overlap share both the comparison and its reduction,
        and every sup is the one a call per window gives.  With stride > 1
        each strided row, the base row and each shifted row of ``values``
        or the derivatives, is gathered into contiguous scratch once per
        chunk and offset and read from there by every shift that needs it.

        A chunk of a shift is skipped, its pieces left at -inf, when a
        bound on every value it would form is at most the largest value
        already formed in each window its pieces belong to
        (:class:`_IncrementBound`: m whole steps of the largest sample
        increment M, plus M + dt/4 times the largest |derivative| off the
        grid, over the indices the chunk reads; a Lipschitz bound of the
        samples in the manner of Piyavskii and Shubert's branch and bound).
        A window's sup is the max over its pieces, and a skipped piece is
        at most a value the window already holds, so every sup, NaN
        included, is the one forming every piece gives: a window's first
        chunk is always formed, and a bound that is NaN or infinite, or
        a |value| above 1e300, skips nothing.  Only blocks of more than one
        shift over more than one chunk try it.

        On a uniform grid every t_i + tau sits at the same fractional cell
        offset s = frac(tau/dt), so the four cubic Hermite weights are
        scalars for the whole shift and the shifted series is four slice
        sums over ``values`` and the derivatives; it agrees with
        :meth:`values_at` up to round-off.  A shift of k = tau/dt steps
        within 1e-9*max(1, k) of a whole number compares stored values
        exactly.  Indices whose shifted time falls past the last sample are
        left out.  The first shift, in order, with a window that keeps no
        index raises ValueError; on discrete trajectories one off the
        integer grid raises :class:`DynamicsError` first.
        """
        n = len(self.values)
        taus = np.asarray(taus, float)
        starts, ends, where = np.broadcast_arrays(
            np.asarray(starts, np.int64), np.asarray(ends, np.int64),
            np.asarray(True if where is None else where, bool))
        if taus.ndim != 1 or starts.ndim != 2:
            raise ValueError("taus must be 1-D and starts, ends 2-D")
        shape = (starts.shape[0], taus.size)
        starts, ends, where = (np.broadcast_to(a, shape)
                               for a in (starts, ends, where))
        if not np.all((taus >= 0) & np.isfinite(taus)):
            raise ValueError("tau must be finite and non-negative")
        bad = where & ((starts < 0) | (ends > n - 1))
        if stride < 1 or np.any(bad):
            w, j = np.argwhere(bad | (stride < 1))[0]
            raise ValueError(
                f"bad index range {starts[w, j]}..{ends[w, j]} step {stride}")
        k, whole, on_grid, last = self._shift_cells(taus)
        live = where.any(axis=0)
        off_int = live & ~on_grid & (self.kind == "discrete")
        empty = (where & (np.minimum(ends, last) < starts)).any(axis=0)
        if np.any(off_int | empty):
            j = int(np.argmax(off_int | empty))
            if off_int[j]:
                raise DynamicsError(
                    "discrete trajectories are sampled at integer steps only")
            raise ValueError("window contains no comparable grid points")
        out = np.full(starts.shape, np.nan)
        cols = np.flatnonzero(live)
        if cols.size == 0:
            return out
        ends = np.where(where, np.minimum(ends, last), -1).astype(np.int64)
        lo = np.where(where, starts, n).min(axis=0)
        if stride > 1 and np.any(where & ((starts - lo) % stride != 0)):
            raise ValueError("windows of a strided comparison must start "
                             "on one lattice")
        count = (ends.max(axis=0) - lo) // stride + 1
        size_max = int(min(_CHUNK, count[cols].max()))
        buf, tmp = _scratch_rows(2, size_max)
        v = self.values
        d = None if np.all(on_grid[cols]) else self._hermite_derivs()
        row = _row_reader(stride, size_max)
        # each window as the offsets [first, last + 1) of its elements in
        # the hull of its shift; an unused window is the empty [count, count)
        use = where[:, cols]
        first = np.where(use, (starts[:, cols] - lo[cols]) // stride,
                         count[cols])
        final = np.where(use, (ends[:, cols] - lo[cols]) // stride + 1,
                         count[cols])
        shift = np.where(on_grid, whole, np.floor(k)).astype(np.int64)
        s = k - np.floor(k)
        hermite = np.array(((2 * s - 3) * s * s + 1, (3 - 2 * s) * s * s,
                            self.dt * ((s - 2) * s + 1) * s,
                            self.dt * (s - 1) * s * s)).T
        width = _CHUNK * stride
        ceiling = None
        # shifts go 512 at a time, so a scan over many shifts holds the
        # setup of one block only
        for b0 in range(0, cols.size, 512):
            blk = slice(b0, b0 + 512)
            js = cols[blk]
            i_lo, n_js = lo[js], count[js]
            # the block's span of ``values`` in chunks of ``width`` indices;
            # elem[c, r] is the first element of shift r at or past chunk
            # edge c, so a chunk holds at most _CHUNK elements of a shift
            a0 = int(i_lo.min())
            z = int((i_lo + (n_js - 1) * stride).max()) + 1
            edges = a0 + width * np.arange(-(-(z - a0) // width) + 1)
            elem = np.minimum(np.maximum(
                -((i_lo - edges[:, None]) // stride), 0), n_js)
            # the chunk and window edges cut a shift's elements into pieces,
            # each inside one chunk.  An edge's rank is the number of cuts of
            # its shift below it, so pieces rank(e0) .. rank(e1) - 1 make up
            # the elements [e0, e1).  Where two cuts coincide, reduceat gives
            # the empty piece between them the element at the cut, which
            # lies in every window that holds the piece
            marks = np.concatenate([elem, first[:, blk], final[:, blk]])
            cuts = np.sort(marks, axis=0).T.copy()
            # one sorted search over all shifts: row r's cuts are lifted by
            # r * (max + 1), past every cut of the rows before it
            lift = np.arange(js.size)[:, None] * (int(cuts.max()) + 1)
            rank = (np.searchsorted((cuts + lift).ravel(), marks.T + lift)
                    - np.arange(0, cuts.size, cuts.shape[1])[:, None]).T
            at = rank[:len(edges)].tolist()
            p0 = rank[len(edges):len(edges) + len(first), :, None]
            p1 = rank[len(edges) + len(first):, :, None]
            piece = np.full(cuts.shape, -np.inf)
            col = np.arange(cuts.shape[1])
            inside = (col >= p0) & (col < p1)
            setup = list(zip(i_lo.tolist(), shift[js].tolist(),
                             on_grid[js].tolist(), hermite[js].tolist()))
            bounds = elem.tolist()
            no_skip = [False] * js.size
            tries = len(edges) > 2 and js.size > 1
            if tries:
                if ceiling is None:
                    ceiling = _IncrementBound(self, int(lo[cols].min()), d,
                                              buf)
                ceiling.block(edges, shift[js], on_grid[js])
                opened = p0 < p1
            for c in range(len(edges) - 1):
                skip = no_skip
                if c and tries and ceiling.worth():
                    # per shift, the least over the windows that the chunk's
                    # pieces belong to of the largest value formed so far in
                    # each; a window that has none yet makes it -inf
                    q0, q1 = rank[c][:, None], rank[c + 1][:, None]
                    held = np.where(inside & (col < q0), piece,
                                    -np.inf).max(axis=2)
                    meets = opened & (p0 < q1) & (p1 > q0)
                    floor = np.where(meets[..., 0], held, np.inf).min(axis=0)
                    skip = ceiling.skips(c, floor)
                local = cuts - elem[c][:, None]
                for r, (m0, m1, g0, g1, (i0, sh, exact, wts)) in enumerate(
                        zip(bounds[c], bounds[c + 1], at[c], at[c + 1],
                            setup)):
                    if m0 == m1 or skip[r]:
                        continue
                    n_c = m1 - m0
                    seg, term = buf[:n_c], tmp[:n_c]
                    a = i0 + m0 * stride
                    p = a + sh
                    if exact:
                        np.subtract(row(v, p, n_c), row(v, a, n_c), out=seg)
                    else:
                        # summed in the order w0*v + w1*v' + w2*d + w3*d' - phi
                        np.multiply(row(v, p, n_c), wts[0], out=seg)
                        seg += np.multiply(row(v, p + 1, n_c), wts[1],
                                           out=term)
                        seg += np.multiply(row(d, p, n_c), wts[2], out=term)
                        seg += np.multiply(row(d, p + 1, n_c), wts[3],
                                           out=term)
                        seg -= row(v, a, n_c)
                    np.abs(seg, out=seg)
                    # np.maximum keeps a NaN, as one max over the whole
                    # window does
                    np.maximum.reduceat(seg, local[r, g0:g1],
                                        out=piece[r, g0:g1])
            sups = np.where(inside, piece, -np.inf).max(axis=2)
            out[:, js] = np.where(use[:, blk], sups, np.nan)
        return out

    def shift_rise(self, tau: float, lo: float, hi: float) -> float:
        """How far |H(s + tau) - H(s)| can rise between two grid points.

        H is the dense output.  For s and s + tau in [lo, hi], it exceeds
        its larger value at the grid points around s by at most dt^2/8 *
        sup |H''(s + tau) - H''(s)|, so by dt^2/4 times the largest |H''|
        on the cells meeting [lo, hi].  A shift on the grid rises by 0.
        """
        k = tau / self.dt
        if abs(k - round(k)) <= _GRID_TOL * max(1.0, k):
            return 0.0
        c0 = max(0, math.floor((lo - self.t0) / self.dt))
        c1 = min(len(self.values) - 1, math.ceil((hi - self.t0) / self.dt))
        v, d = self.values, self._hermite_derivs()
        top = 0.0
        # dt^2 * H'' is linear on a cell, mid + gap at its start and
        # -(mid - gap) at its end, so it peaks at |mid| + |gap|
        for a in range(c0, c1, _CHUNK):
            b = min(c1, a + _CHUNK)
            d0, d1 = d[a:b], d[a + 1:b + 1]
            mid = 6.0 * (v[a + 1:b + 1] - v[a:b]) - 3.0 * self.dt * (d0 + d1)
            gap = self.dt * (d1 - d0)
            top = max(top, float((np.abs(mid) + np.abs(gap)).max()))
        return top / 4.0

    def shift_slope(self, tau_max: float) -> tuple[float, float]:
        """(slope, slack): how fast a :meth:`shift_sups` value moves with tau.

        For shifts tau, tau' in [0, tau_max] compared over the same indices,
        the two sups differ by at most slope*|tau - tau'| + slack.  slope
        bounds |H'| over the span, H the dense output: dt*H' is quadratic
        in the offset s on each cell, (a*s + b)*s + c with c = dt*d0 and
        a + b + c = dt*d1, so its largest magnitude is at a cell end or at
        the vertex s = -b/(2a).  slack covers the kernel's round-off and
        its snapping of a shift within 1e-9*max(1, k) steps of the grid.
        A slope that is not finite bounds nothing.
        """
        v, d = self.values, self._hermite_derivs()
        dt, n = self.dt, len(self.values)
        tops = []
        for a in range(0, n - 1, _CHUNK):
            b = min(n - 1, a + _CHUNK)
            m0, m1 = dt * d[a:b], dt * d[a + 1:b + 1]
            rise = 6.0 * (v[a:b] - v[a + 1:b + 1])
            qa = rise + 3.0 * (m0 + m1)
            qb = -rise - 4.0 * m0 - 2.0 * m1
            with np.errstate(divide="ignore", invalid="ignore"):
                s = np.clip(np.nan_to_num(-qb / (2.0 * qa)), 0.0, 1.0)
            peak = np.maximum(np.abs((qa * s + qb) * s + m0),
                              np.maximum(np.abs(m0), np.abs(m1)))
            # a few ulps of the terms summed, for the evaluation's round-off
            peak += 1e-14 * (np.abs(qa) + np.abs(qb) + np.abs(m0))
            tops.append(peak.max())
        slope = float(np.max(tops)) / dt * (1.0 + 1e-12)
        k_max = tau_max / dt
        vmax = max(float(v.max()), -float(v.min()))
        slack = (2.0 * slope * dt * _GRID_TOL * max(1.0, k_max)
                 + 1e-13 * (vmax + dt * slope))
        return slope, slack

    def interp_budget(self) -> float:
        """Crude bound on the cubic Hermite dense-output error.

        The fourth central difference of the samples approximates
        dt^4 * x''''(t); the Hermite error bound is |x''''| dt^4 / 384.
        Without stored derivatives the ``np.gradient`` fallback errs by
        about |third difference| / (6*dt) inside and |second difference| /
        (2*dt) at the two ends, and a Hermite cell moves by at most dt/4
        times the larger error of its end derivatives, so that is added.

        Stored derivatives count as exact.  An integrated trajectory stores
        the right-hand side at each sample, and a sampled expression
        (:func:`sample_function`) its exact derivative, except where that
        is not finite.  Those points hold central differences, whose error
        of about h^2 * |x'''| / 6 with h = 1e-6 * (1 + |t|) grows like t^2;
        this budget does not count it.  No catalog curve has such a point;
        a ``--fn`` curve such as sqrt(t) sampled from t = 0 does.
        """
        if self.kind == "discrete" or len(self.values) < 5:
            return 0.0
        v = self.values
        stored = self.derivs is not None
        fourth = third = 0.0
        # chunks overlap by 4 samples, so every difference is taken once
        for c0 in range(0, len(v) - 4, _CHUNK):
            d3 = np.diff(v[c0:c0 + _CHUNK + 4], 3)
            fourth = max(fourth, float(np.abs(np.diff(d3)).max()))
            if not stored:
                third = max(third, float(np.abs(d3).max()))
        if stored:
            return fourth / 384.0
        ends = float(max(abs(v[0] - 2 * v[1] + v[2]),
                         abs(v[-1] - 2 * v[-2] + v[-3])))
        return fourth / 384.0 + max(third / 24.0, ends / 8.0)


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) with dense output
# ---------------------------------------------------------------------------

# Each step holds its error estimate to this share of the requested
# tolerance: the tolerance bounds one step's local error, while a caller
# reads it as the error of the trajectory.  At tolerance 1e-9 the global
# error of slow-chirp on [0, 1.02e5] at dt 0.05 was 1.6e-8 with the full
# tolerance, 1.4e-9 with a tenth and 1.4e-10 with a hundredth, and with the
# full tolerance 7 of 208 seeded forced-decay pairs broke the 1e-9
# monotonicity test of contraction_gap.  Only a hundredth keeps the global
# error below the tolerance.
_STEP_TOL_SHARE = 1e-2
# Shampine's continuous extension of the pair (Hairer, Norsett & Wanner,
# Solving ODEs I, II.6): the weights of k1, k3, k4, k5, k6 and k7 in the
# fifth dense-output coefficient
_DENSE = (-12715105075 / 11282082432, 87487479700 / 32700410799,
          -10690763975 / 1880347072, 701980252875 / 199316789632,
          -1453857185 / 822651844, 69997945 / 29380423)


# One Dormand-Prince 5(4) step from (tn, y) by h, given k1 = f(tn, y): the
# stages k2..k7, the fifth-order solution y5 at tn + h and the embedded
# error estimate err.  k7 = f(tn + h, y5) is the next step's k1 (first same
# as last).  Each line ``k = f(t, x)`` evaluates the rhs, written in place by
# Expression.loop.  The tableau is written out stage by stage.  Every
# weighted sum starts from 0.0 and adds its terms left to right, zero
# weights included, so a step rounds exactly as the loop over the tableau
# does.
_DOPRI5_STEP = """\
t = tn + 1 / 5 * h
x = y + h * (0.0 + 1 / 5 * k1)
k2 = f(t, x)
t = tn + 3 / 10 * h
x = y + h * (0.0 + 3 / 40 * k1 + 9 / 40 * k2)
k3 = f(t, x)
t = tn + 4 / 5 * h
x = y + h * (0.0 + 44 / 45 * k1 + -56 / 15 * k2 + 32 / 9 * k3)
k4 = f(t, x)
t = tn + 8 / 9 * h
x = y + h * (0.0 + 19372 / 6561 * k1 + -25360 / 2187 * k2
             + 64448 / 6561 * k3 + -212 / 729 * k4)
k5 = f(t, x)
t = tn + 1.0 * h
x = y + h * (0.0 + 9017 / 3168 * k1 + -355 / 33 * k2
             + 46732 / 5247 * k3 + 49 / 176 * k4 + -5103 / 18656 * k5)
k6 = f(t, x)
y5 = y + h * (0.0 + 35 / 384 * k1 + 0.0 * k2 + 500 / 1113 * k3
              + 125 / 192 * k4 + -2187 / 6784 * k5 + 11 / 84 * k6)
x = y5
k7 = f(t, x)
# the weights are the differences between the fifth- and fourth-order
# weights, so this is the embedded local error estimate
err = abs(h * (0.0 + 71 / 57600 * k1 + 0.0 * k2 + -71 / 16695 * k3
               + 71 / 1920 * k4 + -17253 / 339200 * k5 + 22 / 525 * k6
               + -1 / 40 * k7))
"""


def _dense_coefficients(h, y, y5, k1, k3, k4, k5, k6, k7):
    """(r2, r3, r4, r5) of the steps' continuous extensions; arrays or floats.

    With r1 = y and s = (t - t_step)/h, the solution inside a step is
    r1 + s*(r2 + (1-s)*(r3 + s*(r4 + (1-s)*r5))), a fourth-order
    polynomial that meets y at s = 0 and y5 at s = 1.
    """
    r2 = y5 - y
    r3 = h * k1 - r2
    r4 = r2 - h * k7 - r3
    d1, d3, d4, d5, d6, d7 = _DENSE
    r5 = h * (0.0 + d1 * k1 + d3 * k3 + d4 * k4 + d5 * k5 + d6 * k6
              + d7 * k7)
    return r2, r3, r4, r5


def _grid_cells(t0: float, t1: float, dt: float) -> int:
    """Cells of the grid t0 + k*dt over [t0, t1], at least one; ValueError
    refuses a dt that is not finite and positive and a grid of more than
    ``_MAX_SAMPLES`` samples (cells + 1)."""
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError("dt must be finite and positive")
    try:
        cells = (t1 - t0) / dt
    except OverflowError:  # a step count past the float range
        cells = math.inf
    cells = max(1, math.ceil(cells - 1e-9)) if math.isfinite(cells) else cells
    if not cells + 1 <= _MAX_SAMPLES:
        raise ValueError(
            f"the trajectory would hold {cells + 1:.4g} samples, more than "
            f"the limit of {_MAX_SAMPLES}; shorten the span or the step "
            "count, or widen dt")
    return cells


def integrate(fld: ScalarField, u0: float, t_span, config: IntegratorConfig | None = None
              ) -> Trajectory:
    """Integrate a continuous field over [t0, t1], sampling at t0 + k*dt_out.

    It takes Dormand-Prince 5(4) steps that do not depend on the output
    grid: the first tries dt_out, each next one is
    h*0.9*err^(-1/5) clipped to [0.2h, 10h], and the last lands exactly on
    the last grid point.  A step is accepted when its error estimate is at
    most ``_STEP_TOL_SHARE`` (1/100) of abs_tol + rel_tol*max(|y|, |y5|):
    the tolerance bounds one step's local error, and at the full tolerance
    the global error of slow-chirp grew to about 16 times it, while a
    hundredth keeps it below the tolerance.
    The values on the grid come from each step's fourth-order dense output,
    and the stored derivatives f(t_k, x_k) from one array evaluation of the
    rhs per chunk of ``_CHUNK`` grid points; one that is not finite raises
    :class:`DynamicsError` naming its time.  The step loop is compiled
    once per field with the rhs written in at each stage
    (:meth:`Expression.loop`), so no stage makes a Python call, and it runs
    on Python floats: numpy scalars would run every stage on numpy's slower
    scalar arithmetic.  ``provenance["stats"]`` counts the loop's scalar
    rhs evaluations (one per stage, six per step, and the first), accepted
    and rejected steps, the smallest accepted step, and the largest sampled
    defect |psi'(t_k) - f(t_k, psi(t_k))| of the dense output psi on the
    grid; the array evaluations of the stored derivatives are not counted.

    A step underflow while the solution magnitude already exceeds 1e8 is
    reported as a blow-up, since the step collapse is then driven by the
    growth of the solution rather than by stiffness of the right-hand side.
    """
    if fld.kind != "continuous":
        raise DynamicsError("integrate expects a continuous field; use iterate")
    cfg = config or IntegratorConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise DynamicsError("t_span must satisfy t1 > t0")
    if fld.time_domain == "half-line" and t0 < 0:
        raise DynamicsError("half-line field starts at t >= 0")
    lo, hi = fld.state_domain
    if not (lo <= u0 <= hi) or not math.isfinite(u0):
        raise DynamicsError(f"u0 = {u0!r} outside the state domain")

    dt = cfg.dt_out
    n_cells = _grid_cells(t0, t1, dt)
    values = np.empty(n_cells + 1)
    derivs = np.empty(n_cells + 1)
    stats = _march_dopri5(fld, float(u0), t0, dt, cfg, values, derivs)
    provenance = {"field": fld.field_id, "name": fld.name, "u0": repr(float(u0)),
                  "config": cfg.config_hash(),
                  # constant; kept so that provenance matches earlier versions
                  "method": "dopri5", "stats": stats}
    return Trajectory(kind="continuous", t0=t0, dt=dt, values=values,
                      derivs=derivs, provenance=provenance)


# packs a step into the buffer: (tn, h, y, y5, k1, k3, k4, k5, k6, k7)
_PACK_STEP = struct.Struct("10d").pack_into
# integrate's step loop, compiled per field by Expression.loop.  t and x are
# where the rhs is evaluated; the step starts at (tn, y).  Each accepted step
# packs (tn, h, y, y5, k1, k3, k4, k5, k6, k7) into the float array
# ``steps``, and ``fill`` turns the steps packed so far into grid values
# once ``tn`` reaches ``t_flush`` or ``steps`` is full, and returns the next
# ``t_flush``.  Returns (accepted, rejected, min_step).
_MARCH = """\
def march(tn, y, h, t_end, abs_tol, rel_tol, fill, t_flush, steps):
    t, x = tn, y
    try:
        k1 = f(t, x)
    except _EvalError as exc:
        raise _DynamicsError(
            f"rhs evaluation failed at t = {tn!r}: {exc}") from exc
    # byte offsets into steps
    packed = 0
    full = 8 * len(steps)
    accepted = rejected = 0
    min_step = _inf
    last = False
    while not last:
        # stretch a step that would leave less than 1% of itself to go
        last = tn + 1.01 * h >= t_end
        if last:
            h = t_end - tn
        try:
""" + textwrap.indent(_DOPRI5_STEP, " " * 12) + """\
        except _EvalError as exc:
            raise _DynamicsError(
                f"rhs evaluation failed inside [{tn!r}, {tn + h!r}]: {exc}"
            ) from exc
        ay, ay5 = abs(y), abs(y5)
        try:
            ratio = err / (abs_tol + rel_tol * (ay if ay > ay5 else ay5))
        except ZeroDivisionError:  # a tolerance that underflowed to 0
            ratio = _inf if err else 0.0
        # h*0.9*ratio^(-1/5) clipped to [0.2h, 10h]; a ratio that is not
        # finite shrinks the step as much as allowed
        if 0.0 < ratio < _inf:
            grow = 0.9 * ratio ** -0.2
            if grow > 10.0:
                grow = 10.0
            elif grow < 0.2:
                grow = 0.2
        else:
            grow = 10.0 if ratio == 0.0 else 0.2
        if ratio <= 1.0:
            accepted += 1
            if h < min_step:
                min_step = h
            _pack(steps, packed, tn, h, y, y5, k1, k3, k4, k5, k6, k7)
            packed += 80
            t_prev, tn = tn, t_end if last else tn + h
            y, k1 = y5, k7
            # false for inf and NaN as well
            if not -_GUARD <= y <= _GUARD:
                raise _BlowupError(t_prev, y)
            if last or tn >= t_flush or packed == full:
                t_flush = fill(steps[:packed // 8], tn)
                packed = 0
            h *= grow
            continue
        rejected += 1
        last = False
        h *= grow
        if h < _MIN_STEP_FACTOR * max(1.0, abs(tn)):
            if abs(y) > 1e8 or not (_isfinite(err) and _isfinite(y5)):
                raise _BlowupError(tn, y)
            raise _StepUnderflowError(tn)
    return accepted, rejected, min_step
"""
_MARCH_NAMES = {
    "_pack": _PACK_STEP, "_isfinite": math.isfinite, "_GUARD": BLOWUP_GUARD,
    "_MIN_STEP_FACTOR": _MIN_STEP_FACTOR, "_DynamicsError": DynamicsError,
    "_BlowupError": BlowupError, "_StepUnderflowError": StepUnderflowError}


def _march_dopri5(fld, y, t0, dt, cfg, values, derivs) -> dict:
    """Fill ``values`` and ``derivs`` by Dormand-Prince steps; see integrate.

    The step buffer holds ``_CHUNK`` doubles, a tenth as many steps.  It is
    turned into grid values whenever it is full or its steps reach
    ``_CHUNK`` grid points past the last ones filled, so memory beside the
    output is O(``_CHUNK``) whatever the step count.  Returns the stats.
    """
    march = fld.rhs.loop(_MARCH, fld.params, _MARCH_NAMES)
    grid = _DenseGrid(fld, t0, dt, values, derivs)
    steps = np.empty(10 * max(1, _CHUNK // 10))
    accepted, rejected, min_step = march(
        t0, y, dt, t0 + (len(values) - 1) * dt, cfg.abs_tol * _STEP_TOL_SHARE,
        cfg.rel_tol * _STEP_TOL_SHARE, grid.fill, grid.next_flush(), steps)
    return {"rhs_evals": 1 + 6 * (accepted + rejected), "accepted": accepted,
            "rejected": rejected, "min_step": min_step,
            "defect": grid.defect}


class _DenseGrid:
    """Writes the grid points that buffered steps cover, ``_CHUNK`` at a time.

    A grid point takes the dense output of the first step that ends at or
    past it; one on a step's end takes that step's y5 exactly.  Its
    derivative comes from one ``eval_array`` call per chunk.  ``defect``
    keeps the largest |psi' - f| met at a grid point, psi' from the step's
    polynomial and f the stored derivative.
    """

    def __init__(self, fld, t0, dt, values, derivs):
        self.fld, self.t0, self.dt = fld, t0, dt
        self.values, self.derivs = values, derivs
        self.filled = 0
        self.defect = 0.0

    def next_flush(self) -> float:
        """The time at which the buffered steps reach ``_CHUNK`` grid
        points past those filled, or the last grid point."""
        return self.t0 + min(len(self.values) - 1,
                             self.filled + _CHUNK) * self.dt

    def fill(self, steps, t_reached) -> float:
        """Write the grid points up to ``t_reached`` from the buffered
        steps, ten floats each; return :meth:`next_flush`."""
        start, h, y, y5, k1, k3, k4, k5, k6, k7 = steps.reshape(-1, 10).T
        ends = np.append(start[1:], t_reached)
        r2, r3, r4, r5 = _dense_coefficients(h, y, y5, k1, k3, k4, k5, k6, k7)
        n = len(self.values)
        while self.filled < n:
            i = self.filled
            ts = self.t0 + self.dt * np.arange(i, min(n, i + _CHUNK))
            ts = ts[:np.searchsorted(ts, t_reached, side="right")]
            if ts.size == 0:
                break
            j = np.searchsorted(ends, ts)
            hj = h[j]
            # the polynomial y + s*w, w = r2 + u*r, r = r3 + s*q,
            # q = r4 + u*r5, in s = (t - start)/h and u = 1 - s, with its
            # slope by the product rule through each level; in place, so a
            # chunk holds few temporaries
            s = ts - start[j]
            s /= hj
            u = 1.0 - s
            q = r5[j]
            q *= u
            q += r4[j]
            r = s * q
            r += r3[j]
            w = u * r
            w += r2[j]
            x = s * w
            x += y[j]
            # the first grid point, t0, is the one at a step's start
            np.copyto(x, y[j], where=s == 0.0)
            np.copyto(x, y5[j], where=ts == ends[j])
            slope = r5[j]
            slope *= s
            np.subtract(q, slope, out=slope)
            slope *= u
            slope -= r
            slope *= s
            slope += w
            slope /= hj
            del hj, s, u, q, r, w
            self.values[i:i + ts.size] = x
            self.derivs[i:i + ts.size] = d = self._rhs(ts, x)
            slope -= d
            self.defect = max(self.defect, float(np.abs(slope, out=slope).max()))
            self.filled = i + ts.size
        return self.next_flush()

    def _rhs(self, ts, xs):
        fld = self.fld
        try:
            d = fld.rhs.eval_array(ts, xs, params=fld.params)
        except EvalError as exc:
            # name the first grid point whose evaluation fails
            f = fld.bind()
            for tk, xk in zip(ts.tolist(), xs.tolist()):
                try:
                    f(tk, xk)
                except EvalError as point_exc:
                    raise DynamicsError(f"rhs evaluation failed at t = {tk!r}: "
                                        f"{point_exc}") from point_exc
            raise DynamicsError(
                f"rhs evaluation failed on the grid in [{float(ts[0])!r}, "
                f"{float(ts[-1])!r}]: {exc}") from exc
        bad = np.flatnonzero(~np.isfinite(d))
        if bad.size:
            k = int(bad[0])
            raise DynamicsError(
                f"rhs is not finite at t = {float(ts[k])!r}, "
                f"x = {float(xs[k])!r}")
        return d


# iterate's step loop, compiled per field by Expression.loop: x_{n+1} =
# f(n, x_n) into ``values[n + 1]``, with t = n
_MAP_LOOP = """\
def run(x, n_steps, lo, hi, values):
    t = 0.0
    try:
        for n in range(n_steps):
            x = f(t, x)
            # false for inf and NaN as well
            if not -_GUARD <= x <= _GUARD:
                raise _IterationAbortError(
                    n + 1, f"value {x!r} exceeds the overflow guard")
            if not lo <= x <= hi:
                raise _IterationAbortError(
                    n + 1, f"value {x!r} left the state domain [{lo:g}, {hi:g}]")
            values[n + 1] = x
            t += 1.0
    except _EvalError as err:
        raise _IterationAbortError(n + 1, str(err)) from err
"""
_MAP_NAMES = {"_GUARD": BLOWUP_GUARD, "_IterationAbortError": IterationAbortError}


def iterate(fld: ScalarField, u0: float, n_steps: int) -> Trajectory:
    """Iterate a discrete field exactly for n_steps steps from x_0 = u0.

    ``n_steps`` is a whole number (an int or a numpy integer, not a bool).
    The loop is compiled with the rhs written in (:meth:`Expression.loop`)
    and runs on Python floats.  It aborts with :class:`IterationAbortError`,
    naming the step, when an evaluation fails, when a value is not finite
    or exceeds the overflow guard in magnitude, or when it leaves the state
    domain.
    """
    if fld.kind != "discrete":
        raise DynamicsError("iterate expects a discrete field; use integrate")
    if isinstance(n_steps, bool) or not isinstance(n_steps, numbers.Integral):
        raise DynamicsError(
            f"n_steps must be a whole number of steps, not {n_steps!r}")
    n_steps = int(n_steps)
    if n_steps < 1:
        raise DynamicsError("n_steps must be >= 1")
    _grid_cells(0.0, n_steps, 1.0)
    lo, hi = fld.state_domain
    if not (lo <= u0 <= hi) or not math.isfinite(u0):
        raise DynamicsError(f"u0 = {u0!r} outside the state domain")
    # imported here, not at the top: loading its shared library raised the
    # resident memory of processes that never iterate by 0.1 to 0.3 MB
    from array import array

    values = array("d", [float(u0)]) * (n_steps + 1)
    run = fld.rhs.loop(_MAP_LOOP, fld.params, _MAP_NAMES)
    run(float(u0), n_steps, lo, hi, values)
    return Trajectory(
        kind="discrete", t0=0.0, dt=1.0, values=np.frombuffer(values),
        derivs=None,
        provenance={"field": fld.field_id, "name": fld.name, "u0": repr(float(u0)),
                    "config": f"n={n_steps}"})


def sample_function(fn, t_span, dt: float, params: dict | None = None,
                    name: str = "") -> Trajectory:
    """Sample a closed-form curve of t into a continuous trajectory.

    ``fn`` is an expression in t, as text or parsed; anything else raises
    TypeError.  Its grid derivatives for the Hermite dense output are exact,
    computed in the same pass as its values
    (:meth:`Expression.eval_array_dt`): floor has derivative 0, also at its
    jumps, and abs has 0 at its kink.  Where that derivative is not finite,
    as for sqrt(t) at t = 0, it is a central difference with step
    1e-6 * (1 + |t|), so the curve must be defined at t +- h there.  The
    grid is evaluated ``_CHUNK`` samples at a time, so memory is the output
    values and derivatives plus O(``_CHUNK``) scratch.
    """
    if not isinstance(fn, (str, Expression)):
        raise TypeError("sample_function takes an expression in t, as text "
                        f"or parsed, not {type(fn).__name__}")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise DynamicsError("t_span must satisfy t1 > t0")
    if dt <= 0:
        raise DynamicsError("dt must be positive")
    e = _as_expression(fn)
    missing = e.params - set(params or {})
    if missing:
        raise FieldValidationError(
            f"unbound parameter(s): {', '.join(sorted(missing))}")

    def central(ts):
        h = 1e-6 * (1.0 + np.abs(ts))
        ahead = e.eval_array(ts + h, 0.0, params=params)
        behind = e.eval_array(ts - h, 0.0, params=params)
        # inf - inf is NaN, and a curve that is not finite raises below
        with np.errstate(invalid="ignore", over="ignore"):
            return (ahead - behind) / (2 * h)

    size = _grid_cells(t0, t1, dt) + 1
    values = np.empty(size)
    derivs = np.empty(size)
    finite = True
    for c0 in range(0, size, _CHUNK):
        c1 = min(size, c0 + _CHUNK)
        ts = t0 + dt * np.arange(c0, c1)
        v, d = e.eval_array_dt(ts, params=params)
        bad = np.flatnonzero(~np.isfinite(d))
        if bad.size:
            d[bad] = central(ts[bad])
        # checked while the chunk is in cache, and raised once every chunk
        # is evaluated, since a later one may raise EvalError
        finite = finite and np.isfinite(v).all() and np.isfinite(d[bad]).all()
        values[c0:c1] = v
        derivs[c0:c1] = d
    if not finite:
        raise DynamicsError("sampled curve is not finite on the grid")
    return Trajectory(
        kind="continuous", t0=t0, dt=dt, values=values, derivs=derivs,
        provenance={"function": name or e.to_text(), "dt": repr(float(dt)),
                    "span": [repr(t0), repr(t1)]})


# ---------------------------------------------------------------------------
# property checks
# ---------------------------------------------------------------------------

# rounding allowance of the order and Lipschitz checks
_PROPERTY_SLACK = 1e-12


@dataclass
class PropertyReport:
    property: str
    verdict: str  # 'pass' | 'fail' | 'inconclusive'
    extreme: float
    witness: dict | None
    tolerance: float
    samples: int
    notes: str = ""

    def __post_init__(self):
        if self.verdict == "fail" and self.witness is None:
            raise ValueError("failing reports must carry a witness")


def check_monotone_in_x(fld: ScalarField, t_grid, x_grid,
                        direction: str = "non-decreasing") -> PropertyReport:
    """Check x -> f(t, x) is monotone in the given direction on a grid."""
    if direction not in ("non-decreasing", "non-increasing"):
        raise ValueError(f"unknown direction {direction!r}")
    t_grid = np.asarray(t_grid, float)
    x_grid = np.asarray(x_grid, float)
    if len(x_grid) < 2 or np.any(np.diff(x_grid) <= 0):
        raise ValueError("x_grid must be strictly increasing with >= 2 points")
    F = fld.eval_grid(t_grid, x_grid)
    d = np.diff(F, axis=1)
    if direction == "non-decreasing":
        worst = float(d.min())
        ok = worst >= -_PROPERTY_SLACK
        i, j = np.unravel_index(int(d.argmin()), d.shape)
    else:
        worst = float(d.max())
        ok = worst <= _PROPERTY_SLACK
        i, j = np.unravel_index(int(d.argmax()), d.shape)
    witness = None
    if not ok:
        witness = {"t": float(t_grid[i]), "x_lo": float(x_grid[j]),
                   "x_hi": float(x_grid[j + 1]),
                   "f_lo": float(F[i, j]), "f_hi": float(F[i, j + 1])}
    return PropertyReport(
        property=f"monotone-{direction}-in-x", verdict="pass" if ok else "fail",
        extreme=worst, witness=witness, tolerance=_PROPERTY_SLACK,
        samples=int(F.size))


def check_lipschitz_one(fld: ScalarField, t_grid, x_grid) -> PropertyReport:
    """Empirical Lipschitz constant of x -> f(t, x) over all grid pairs.

    Passes when |f(t,a) - f(t,b)| <= |a - b| * (1 + 1e-12) for every pair;
    ``extreme`` is the worst measured ratio.
    """
    t_grid = np.asarray(t_grid, float)
    x_grid = np.asarray(x_grid, float)
    F = fld.eval_grid(t_grid, x_grid)
    dx = np.abs(x_grid[:, None] - x_grid[None, :])
    np.fill_diagonal(dx, math.inf)  # skip zero-separation pairs
    worst = -math.inf
    witness_idx = None
    for i in range(len(t_grid)):
        r = np.abs(F[i][:, None] - F[i][None, :]) / dx
        j = int(np.argmax(r))
        if r.flat[j] > worst:
            worst = float(r.flat[j])
            witness_idx = (i, *np.unravel_index(j, r.shape))
    ok = worst <= 1.0 + _PROPERTY_SLACK
    witness = None
    if not ok and witness_idx is not None:
        i, a, b = witness_idx
        witness = {"t": float(t_grid[i]), "x1": float(x_grid[a]),
                   "x2": float(x_grid[b]), "ratio": worst}
    return PropertyReport(
        property="lipschitz-one-in-x", verdict="pass" if ok else "fail",
        extreme=worst, witness=witness, tolerance=_PROPERTY_SLACK,
        samples=int(F.size))


def contraction_gap(fld: ScalarField, u1: float, u2: float, span,
                    config: IntegratorConfig | None = None):
    """Evolve two initial values and report on the gap |phi(t,u1) - phi(t,u2)|.

    ``span`` is (t0, t1) for continuous fields or the step count for discrete
    ones.  Passes when the gap never exceeds |u1 - u2| * (1 + tol) and is
    non-increasing within tol = 1e-9 * (1 + |u1 - u2|).  Returns
    (times, gaps, report).
    """
    if fld.kind == "continuous":
        a = integrate(fld, u1, span, config)
        b = integrate(fld, u2, span, config)
    else:
        a = iterate(fld, u1, int(span))
        b = iterate(fld, u2, int(span))
    g = np.abs(a.values - b.values)
    times = a.grid()
    g0 = abs(float(u2) - float(u1))
    tol = 1e-9 * (1.0 + g0)
    bounded = bool(np.all(g <= g0 * (1.0 + tol) + tol))
    steps = np.diff(g)
    monotone = bool(np.all(steps <= tol))
    ok = bounded and monotone
    witness = None
    if not ok:
        if not monotone:
            k = int(np.argmax(steps))
            witness = {"t": float(times[k]), "gap": float(g[k]),
                       "gap_next": float(g[k + 1]), "kind": "gap increased"}
        else:
            k = int(np.argmax(g))
            witness = {"t": float(times[k]), "gap": float(g[k]),
                       "initial_gap": g0, "kind": "gap exceeded initial"}
    report = PropertyReport(
        property="contraction-gap", verdict="pass" if ok else "fail",
        extreme=float(g.max()), witness=witness, tolerance=tol,
        samples=len(g),
        notes=f"u1={u1!r} u2={u2!r}")
    return times, g, report


def boundedness(traj: Trajectory, bound: float, tail_from: float | None = None
                ) -> PropertyReport:
    """Check sup |values| <= bound, optionally only from time tail_from on.

    A failing report carries the first sample where the bound is exceeded.
    The tail's start and that sample are found ``_CHUNK`` samples at a time,
    so memory is O(``_CHUNK``) beside the trajectory.
    """
    n = len(traj.values)
    i0 = 0
    if tail_from is not None:
        # the grid's times do not decrease, so the tail is a suffix
        for c0 in range(0, n, _CHUNK):
            times = traj.t0 + traj.dt * np.arange(c0, min(n, c0 + _CHUNK))
            hits = np.flatnonzero(times >= tail_from - 1e-9)
            if hits.size:
                i0 = c0 + int(hits[0])
                break
        else:
            raise DynamicsError("tail_from is beyond the sampled span")
    vals = traj.values[i0:]
    # + 0.0 turns a -0.0 into 0.0, as abs does
    sup = float(max(vals.max(), -vals.min()) + 0.0)
    ok = sup <= bound
    witness = None
    if not ok:
        for c0 in range(0, len(vals), _CHUNK):
            hits = np.flatnonzero(np.abs(vals[c0:c0 + _CHUNK]) > bound)
            if hits.size:
                k = c0 + int(hits[0])
                break
        witness = {"t": float(traj.t0 + traj.dt * (i0 + k)),
                   "value": float(vals[k])}
    return PropertyReport(
        property="boundedness", verdict="pass" if ok else "fail",
        extreme=sup, witness=witness, tolerance=0.0, samples=len(vals),
        notes=f"bound={bound!r}" + ("" if tail_from is None else f" tail_from={tail_from!r}"))
