"""The three closed-loop workloads and their independent correctness checks.

Each workload is one client issuing operations in sequence from a single
process.  Its inputs come from the seed alone; rapflow only sees the
generated inputs.  ``ops(in_process)`` lists one pass of the sequence as
(key, callable) pairs; the runner repeats passes and calls
``check(key, output)`` outside the timed region.  The timed loop asks for
``in_process=False``, under which scan-offgrid runs each rapflow command in
a fresh interpreter; the traced run asks for calls in this process, where
its spans can see them.  A check returns a list of problems, empty when the output is
correct.  Checks recompute what they verify by their own formulas and never
call the function they check.

Why these three (see also BENCHMARK.json):

* classify-catalog is the user-facing verdict path.  Short spans are
  dominated by the per-shift loop of the on-grid scans, the 1M-2M-sample
  spans by off-grid ``values_at``; arrays run from 0.3 MB to 16 MB.
* scan-offgrid puts almost every shift off the sample grid, so it exercises
  the cubic Hermite comparison path and its page-fault-heavy temporaries,
  plus ``cli`` and ``serialize``.
* evolve-pairs is scalar ``expr`` closures under RKF45 and map iteration; it
  touches neither ``classify`` nor ``values_at``.  It uses ``dynamics`` and
  ``expr`` the opposite way from scan-offgrid (writing trajectories through
  scalar ``bind`` instead of reading dense output through ``eval_array``), so
  a gain for one use that costs the other shows.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import os
import subprocess
import sys
import time

import numpy as np

# AnalyticExample.trajectory integrates ode entries at IntegratorConfig's
# default dt_out = 0.01 and ignores recommended["dt"]; slow-chirp would then
# take 10.2M RKF45 cells instead of 2.04M samples.  Until the catalog is
# fixed, classify-catalog samples that entry from its solution curve at the
# recommended dt, and evolve-pairs still measures the chirp's per-cell
# integration cost.
CURVE_SOURCED = frozenset({"slow-chirp"})

# Runs `rapflow <argv>` from the sources at sys.argv[1].
_CLI_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "from rapflow.cli import main; sys.exit(main(sys.argv[2:]))")
COMMAND_TIMEOUT_S = 120


def _same_bytes(path, text, what):
    with open(path, "rb") as fh:
        if fh.read() != text.encode("utf-8"):
            return [f"{what}: file bytes differ from the text written"]
    return []


class _Artifacts:
    """Remembers each key's artifact bytes and flags any change across passes."""

    def __init__(self):
        self._first: dict = {}

    def compare(self, key, data: bytes):
        first = self._first.setdefault(key, data)
        if first != data:
            return [f"{key}: artifact bytes changed between passes"]
        return []


# ---------------------------------------------------------------------------


class ClassifyCatalog:
    """Classify every catalog entry at its recommended resolution."""

    name = "classify-catalog"
    min_passes = 1
    # array-bound: its run time follows the numpy reference loop
    reference_loops = ("numpy",)

    def __init__(self, rapflow, seed, workdir):
        # The inputs are the catalog itself, so they do not depend on the
        # seed.  The probe battery keeps ClassifyConfig's default seed, as
        # `rapflow classify --example <name>` does: for about one probe seed
        # in ten (8, 20, 21, ...) classify_trajectory raises ValueError on
        # sine, two-tone and relax-sin (see README.md), a defect left to a
        # fix in rapflow rather than counted against every timing run.
        self.rf = rapflow
        self.workdir = workdir
        self.entries = {ex.name: ex for ex in rapflow.catalog.catalog().values()}
        self.artifacts = _Artifacts()

    def ops(self, in_process):
        return [(name, functools.partial(self._classify, ex))
                for name, ex in self.entries.items()]

    def _classify(self, ex):
        rf = self.rf
        source = "curve" if ex.name in CURVE_SOURCED else None
        traj = ex.trajectory(source=source)
        res = rf.classify.classify_trajectory(traj,
                                              rf.catalog.recommended_config(ex))
        path = os.path.join(self.workdir, f"{ex.name}.json")
        text = rf.serialize.classification_json(res)
        rf.serialize.write_text(path, text)
        return res, path, text

    def check(self, key, out):
        res, path, text = out
        ex = self.entries[key]
        problems = []
        if res.label != ex.expected_class:
            problems.append(f"{key}: label {res.label!r}, "
                            f"expected {ex.expected_class!r}")
        if any(h["status"] == "violation" for h in res.hierarchy):
            problems.append(f"{key}: hierarchy violation {res.hierarchy!r}")
        problems += _same_bytes(path, text, key)
        again = path + ".again"
        self.rf.serialize.write_text(again,
                                     self.rf.serialize.classification_json(res))
        problems += _same_bytes(again, text, f"{key} (second write)")
        return problems + self.artifacts.compare(key, text.encode())

    def rhs_fields(self):
        """(field, t range, x range) of every rhs this workload integrates."""
        out = []
        for ex in self.entries.values():
            if ex.rhs is None or ex.name in CURVE_SOURCED:
                continue
            if ex.kind == "map":
                out.append((ex.system(), (0.0, 1.0e5), (5.0, 15.0)))
            else:
                out.append((ex.system(), ex.recommended["span"], (-1.0, 1.0)))
        return out


# ---------------------------------------------------------------------------


def hermite_sup(values, derivs, t0, dt, tau, lo, hi):
    """sup |phi(t + tau) - phi(t)| over grid t in [lo, min(hi, t_end - tau)].

    phi(t + tau) is the cubic Hermite interpolant of (values, derivs),
    written here in Horner form on the unit cell.
    """
    n = len(values)
    t_end = t0 + (n - 1) * dt
    hi = min(hi, t_end - tau)
    i = np.arange(math.ceil((lo - t0) / dt - 1e-9),
                  math.floor((hi - t0) / dt + 1e-9) + 1)
    pos = i + tau / dt
    j = np.minimum(np.floor(pos + 1e-9).astype(int), n - 2)
    u = pos - j
    v0, v1 = values[j], values[j + 1]
    m0, m1 = dt * derivs[j], dt * derivs[j + 1]
    c2 = 3.0 * (v1 - v0) - 2.0 * m0 - m1
    c3 = 2.0 * (v0 - v1) + m0 + m1
    shifted = v0 + u * (m0 + u * (c2 + u * c3))
    return float(np.max(np.abs(shifted - values[i])))


def read_scan_csv(path):
    """(taus, sups, admitted) from a scan CSV, skipping '#' metadata lines."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    if header != ["tau", "sup", "admitted", "level"]:
        raise ValueError(f"unexpected scan header {header!r}")
    taus = np.array([float(r[0]) for r in body])
    sups = np.array([float(r[1]) if r[1] else math.nan for r in body])
    admitted = np.array([r[2] == "true" for r in body])
    return taus, sups, admitted


class ScanOffgrid:
    """Global then remote CLI scans of two-tone on an off-grid shift step."""

    name = "scan-offgrid"
    # the second pass rewrites every CSV, which the determinism check compares
    min_passes = 2
    # each command starts an interpreter and imports rapflow, then runs
    # array code: its run time follows the sum of both reference loops
    reference_loops = ("python", "numpy")
    # 500 shifts make a global+remote pair of about 4 s, so a 30 s run takes
    # the median of about seven pairs; the per-shift work is the same as in
    # a longer scan.
    SHIFTS = 500
    EPS = 0.5
    WINDOW = (200.0, 360.0)
    CHECKED_SHIFTS = 16

    def __init__(self, rapflow, seed, workdir):
        self.rf = rapflow
        self.workdir = workdir
        self.src = os.path.dirname(os.path.dirname(rapflow.__file__))
        rng = np.random.default_rng(seed)
        ex = rapflow.catalog.get("two-tone")
        self.traj = ex.trajectory()
        self.tau_step = self.traj.dt * (1.0 + rng.uniform(0.2, 0.8))
        # half a step of headroom so the grid holds exactly SHIFTS shifts
        self.tau_max = (self.SHIFTS - 0.5) * self.tau_step
        self.checked = np.sort(rng.choice(self.SHIFTS, self.CHECKED_SHIFTS,
                                          replace=False))
        self.artifacts = _Artifacts()

    def argv(self, mode, out=None, threads=None):
        """rapflow scan arguments.

        The timed scans leave --threads out (one thread is the default), so
        they keep working if the flag is ever dropped.
        """
        argv = ["scan", "--example", "two-tone", "--eps", repr(self.EPS),
                "--tau-step", repr(self.tau_step),
                "--tau-max", repr(self.tau_max), "--mode", mode,
                "--out", out or os.path.join(self.workdir, f"scan-{mode}.csv")]
        if mode == "remote":
            argv += ["--window", "%r:%r" % self.WINDOW]
        if threads is not None:
            argv += ["--threads", str(threads)]
        return argv

    def run_command(self, argv):
        """Run one rapflow command in a fresh interpreter, as a user does.

        glibc's mmap threshold, and with it the page faults of every later
        scan, follows the allocation history of the process.  In one
        long-lived process the same 500-shift global scan took from 0.2M to
        0.6M faults, depending on the tau step and on what ran before, and
        that spread run times over seeds by 20% (IQR/median).  In a fresh
        interpreter, as for `rapflow scan` at a shell, they repeat exactly
        for one tau step and differ by 0.2% across tau steps.
        """
        proc = subprocess.run(
            [sys.executable, "-c", _CLI_CODE, self.src, *argv],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=COMMAND_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"rapflow {' '.join(argv)} exited "
                               f"{proc.returncode}: {proc.stderr.strip()}")
        return argv[argv.index("--out") + 1]

    def run_cli(self, argv):
        """Run one rapflow command through cli.main in this process."""
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = self.rf.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        if code != 0:
            raise RuntimeError(f"rapflow {' '.join(argv)} exited {code}: "
                               f"{err.getvalue().strip()}")
        return argv[argv.index("--out") + 1]

    def ops(self, in_process):
        run = self.run_cli if in_process else self.run_command
        return [(mode, functools.partial(run, self.argv(mode)))
                for mode in ("global", "remote")]

    def check(self, key, path):
        problems = []
        taus, sups, admitted = read_scan_csv(path)
        grid = self.tau_step * np.arange(self.SHIFTS)
        if taus.shape != grid.shape or np.max(np.abs(taus - grid)) > 1e-9:
            return [f"{key}: scanned shifts differ from the requested grid"]
        lo, hi = self.WINDOW if key == "remote" else (self.traj.t0, math.inf)
        tr = self.traj
        for idx in self.checked:
            tau, sup = float(taus[idx]), float(sups[idx])
            mine = hermite_sup(tr.values, tr.derivs, tr.t0, tr.dt, tau, lo, hi)
            if not abs(mine - sup) <= 1e-9:
                problems.append(f"{key}: tau={tau!r} sup {sup!r}, "
                                f"recomputed {mine!r}")
            # a sup within rounding of eps may legitimately fall either way
            if abs(mine - self.EPS) > 1e-9 and admitted[idx] != (mine <= self.EPS):
                problems.append(f"{key}: tau={tau!r} admitted flag "
                                f"{admitted[idx]} disagrees with sup {mine!r}")
        with open(path, "rb") as fh:
            problems += self.artifacts.compare(key, fh.read())
        return problems

    def rhs_fields(self):
        return []

    def threads2_speedup(self):
        """Global scan time at --threads 1 over --threads 2, same inputs.

        None when the CLI no longer takes --threads.  Both runs must write
        identical CSV bytes.
        """
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                self.rf.cli.build_parser().parse_args(
                    self.argv("global", threads=2))
        except SystemExit:
            return None
        times, data = {}, {}
        for threads in (1, 2):
            out = os.path.join(self.workdir, f"probe-threads{threads}.csv")
            t0 = time.perf_counter()
            self.run_cli(self.argv("global", out, threads))
            times[threads] = time.perf_counter() - t0
            with open(out, "rb") as fh:
                data[threads] = fh.read()
        if data[1] != data[2]:
            raise RuntimeError("scan CSV differs between --threads 1 and 2")
        return times[1] / times[2]


# ---------------------------------------------------------------------------


class EvolvePairs:
    """Contraction pairs, the slow-chirp rhs, and drifting Beverton-Holt."""

    name = "evolve-pairs"
    min_passes = 1
    # interpreter-bound: its run time follows the Python reference loop
    reference_loops = ("python",)
    PAIRS = 8
    PAIR_SPAN = (0.0, 20.0)
    CHIRP_SPAN = (0.0, 1000.0)
    BH_STEPS = 102_000

    def __init__(self, rapflow, seed, workdir):
        self.rf = rapflow
        self.workdir = workdir
        dyn = rapflow.dynamics
        rng = np.random.default_rng(seed)
        self.pair_cfg = dyn.IntegratorConfig(dt_out=0.02)
        self.chirp_cfg = dyn.IntegratorConfig(dt_out=0.05)
        self.fields = {
            "pairs-sin": dyn.ScalarField(kind="continuous", rhs="-x+sin(t)"),
            "pairs-sin-log": dyn.ScalarField(
                kind="continuous", rhs="-x+sin(ln(1+t))",
                time_domain="half-line"),
            "chirp": rapflow.catalog.get("slow-chirp").system(),
            "beverton-holt": rapflow.catalog.get("beverton-holt").system(),
        }
        self.pairs = {key: rng.uniform(-5.0, 5.0, size=(self.PAIRS, 2))
                      for key in ("pairs-sin", "pairs-sin-log")}
        self.chirp_u0 = float(rng.uniform(-1.0, 1.0))
        self.bh_u0 = float(rng.uniform(5.0, 15.0))
        self.bh_checked = rng.choice(self.BH_STEPS, 64, replace=False)
        self.artifacts = _Artifacts()

    def ops(self, in_process):
        return [("pairs-sin", functools.partial(self._pairs, "pairs-sin")),
                ("pairs-sin-log", functools.partial(self._pairs,
                                                    "pairs-sin-log")),
                ("chirp", self._chirp),
                ("beverton-holt", self._bh)]

    def _pairs(self, key):
        fld = self.fields[key]
        return [self.rf.dynamics.contraction_gap(fld, u1, u2, self.PAIR_SPAN,
                                                 self.pair_cfg)
                for u1, u2 in self.pairs[key]]

    def _chirp(self):
        traj = self.rf.dynamics.integrate(self.fields["chirp"], self.chirp_u0,
                                          self.CHIRP_SPAN, self.chirp_cfg)
        path = os.path.join(self.workdir, "chirp.csv")
        text = self.rf.serialize.trajectory_csv(traj)
        self.rf.serialize.write_text(path, text)
        return traj, path, text

    def _bh(self):
        return self.rf.dynamics.iterate(self.fields["beverton-holt"],
                                        self.bh_u0, self.BH_STEPS)

    @staticmethod
    def _tol(cfg, scale):
        """Ten local error tolerances of the integrator at magnitude scale.

        Both problems keep global error far below this: the pairs contract,
        and the chirp rhs does not depend on x, so errors never grow.
        """
        return 10.0 * (cfg.abs_tol + cfg.rel_tol * scale)

    def check(self, key, out):
        if key.startswith("pairs"):
            return self._check_pairs(key, out)
        if key == "chirp":
            return self._check_chirp(*out)
        return self._check_bh(out)

    def _check_pairs(self, key, results):
        problems = []
        for (u1, u2), (times, gaps, report) in zip(self.pairs[key].tolist(),
                                                   results):
            if report.verdict != "pass":
                problems.append(f"{key}: u=({u1!r}, {u2!r}) verdict "
                                f"{report.verdict}")
            # both forcings enter additively, so the gap is |u1-u2|*exp(-t)
            envelope = abs(u1 - u2) * np.exp(-(times - times[0]))
            tol = self._tol(self.pair_cfg, max(abs(u1), abs(u2)) + 1.0)
            worst = float(np.max(np.abs(gaps - envelope)))
            if not worst <= tol:
                problems.append(f"{key}: u=({u1!r}, {u2!r}) gap leaves the "
                                f"exp(-t) envelope by {worst!r} > {tol!r}")
        return problems

    def _check_chirp(self, traj, path, text):
        problems = _same_bytes(path, text, "chirp")
        exact = self.rf.catalog.oracle_value("slow-chirp", traj.grid(),
                                             self.chirp_u0)
        err = float(np.max(np.abs(traj.values - exact)))
        tol = self._tol(self.chirp_cfg, float(np.max(np.abs(exact))))
        if not err <= tol:
            problems.append(f"chirp: error {err!r} exceeds {tol!r}")
        again = self.rf.serialize.trajectory_csv(traj)
        if again != text:
            problems.append("chirp: second write gave other bytes")
        return problems + self.artifacts.compare("chirp", text.encode())

    def _check_bh(self, traj):
        problems = []
        x = traj.values
        if len(x) != self.BH_STEPS + 1 or x[0] != self.bh_u0:
            problems.append("beverton-holt: orbit has the wrong length or start")
        n = self.bh_checked.astype(float)
        cap = 10.0 + np.sin(np.log(1.0 + n))
        mu = 2.0
        step = mu * cap * x[self.bh_checked] / (cap + (mu - 1.0)
                                                * x[self.bh_checked])
        worst = float(np.max(np.abs(step - x[self.bh_checked + 1])
                             / np.abs(step)))
        if not worst <= 1e-12:
            problems.append(f"beverton-holt: one-step recomputation differs "
                            f"by {worst!r} relative")
        late = x[1000:]
        if not (late.min() >= 8.5 and late.max() <= 11.5):
            problems.append("beverton-holt: late orbit leaves the capacity "
                            f"band: [{late.min()!r}, {late.max()!r}]")
        return problems

    def rhs_fields(self):
        return [(self.fields["pairs-sin"], self.PAIR_SPAN, (-5.0, 5.0)),
                (self.fields["pairs-sin-log"], self.PAIR_SPAN, (-5.0, 5.0)),
                (self.fields["chirp"], self.CHIRP_SPAN, (-2.0, 2.0)),
                (self.fields["beverton-holt"], (0.0, float(self.BH_STEPS)),
                 (5.0, 15.0))]


WORKLOADS = {w.name: w for w in (ClassifyCatalog, ScanOffgrid, EvolvePairs)}
