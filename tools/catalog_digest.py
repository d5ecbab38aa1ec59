"""Print a sha256 for each artifact that a byte-for-byte comparison checks.

Run from the root of a checkout:

    python3 tools/catalog_digest.py > digests.txt

It imports rapflow from ``src/`` of the checkout it sits in, so running it
in two checkouts and diffing the outputs compares their artifacts byte for
byte.  One line per artifact, ``<sha256>  <name>``, 30 lines in all:

* the classification JSON of each catalog entry, built as the
  classify-catalog benchmark workload builds it: the entry's trajectory
  (slow-chirp sampled from its solution curve), ``classify_trajectory``
  with ``recommended_config`` and ``classification_json``;
* the ``values`` and ``derivs`` of the sin-log and slow-chirp curves,
  sampled as that workload samples them, as float64 bytes: these grids of
  2,040,001 samples are sampled in runs of chunks on every usable CPU, so
  their lines compare the fanned-out sampling byte for byte;
* the CSV of ``rapflow scan --example two-tone``, global and
  ``--mode remote --window 200:360``, at ``--tau-step`` 0.01 and 0.0137
  and ``--threads`` 1 and 2, and of one global ``rapflow scan`` on a span
  that starts below 0, so its ``level`` column is the nonzero origin;
* the stdout of ``rapflow verify all``;
* the ``rapflow simulate --out`` CSV of one command per system source:
  ``--ode``, ``--map``, ``--fn``, ``--bh``, and ``--example`` for an ode, a
  curve and a map;
* the artifacts of the evolve-pairs benchmark workload, which run the
  step and map loops that ``integrate`` and ``iterate`` compile with the
  rhs written in (``Expression.loop``): the slow-chirp
  ``trajectory_csv`` integrated on [0, 1000] at dt 0.05, the drifting
  Beverton-Holt orbit over 102000 steps as float64 bytes, and the times,
  gaps and report of one ``-x+sin(t)`` contraction pair.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rapflow import catalog, classify, cli, dynamics, serialize  # noqa: E402

# entries sampled from their solution curve, as the benchmark samples them
CURVE_SOURCED = frozenset({"slow-chirp"})
# the longest sampled curves, whose samples are digested themselves
SAMPLED_CURVES = ("sin-log", "slow-chirp")
SCAN_MODES = (("global", []), ("remote", ["--window", "200:360"]))
TAU_STEPS = ("0.01", "0.0137")
THREADS = ("1", "2")
# a global scan whose sampling origin, its CSV level, is not 0
ORIGIN_SCAN = ["--fn", "sin(t)", "--span=-50:50", "--tau-max", "10"]
# one simulate command per system source
SIMULATE = (
    ("ode", ["--ode=-x+sin(t)", "--u0", "2", "--span", "0:50"]),
    ("map", ["--map=0.5*x+sin(t)", "--steps", "500"]),
    ("fn", ["--fn=sin(t)+sin(sqrt(2)*t)", "--span", "0:100", "--dt", "0.05"]),
    ("bh", ["--bh", "mu=2,K=10+sin(ln(1+t))", "--steps", "2000"]),
    ("example-ode", ["--example", "relax-sin", "--span", "0:50"]),
    ("example-curve", ["--example", "sine"]),
    ("example-map", ["--example", "beverton-holt-const"]),
)
# the evolve-pairs workload's horizons and output spacings
CHIRP_SPAN, CHIRP_DT = (0.0, 1000.0), 0.05
BH_STEPS = 102_000
PAIR, PAIR_SPAN, PAIR_DT = (-3.7, 4.2), (0.0, 20.0), 0.02


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def catalog_digests():
    for ex in catalog.catalog().values():
        source = "curve" if ex.name in CURVE_SOURCED else None
        res = classify.classify_trajectory(ex.trajectory(source=source),
                                           catalog.recommended_config(ex))
        text = serialize.classification_json(res)
        yield _sha(text.encode("utf-8")), f"classify {ex.name}"


def curve_digests():
    for name in SAMPLED_CURVES:
        traj = catalog.get(name).trajectory(source="curve")
        yield (_sha(traj.values.tobytes() + traj.derivs.tobytes()),
               f"sample {name} values and derivs")


def _run(argv) -> bytes:
    """stdout of ``rapflow argv``; exits if the command fails."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"rapflow {' '.join(argv)} exited {code}")
    return stdout.getvalue().encode("utf-8")


def scan_digests(workdir: Path):
    for mode, extra in SCAN_MODES:
        for step in TAU_STEPS:
            for threads in THREADS:
                out = workdir / f"scan-{mode}-{step}-{threads}.csv"
                _run(["scan", "--example", "two-tone", "--mode", mode, *extra,
                      "--tau-step", step, "--threads", threads,
                      "--out", str(out)])
                name = f"scan two-tone {mode} tau-step {step} threads {threads}"
                yield _sha(out.read_bytes()), name
    out = workdir / "scan-origin.csv"
    _run(["scan", *ORIGIN_SCAN, "--out", str(out)])
    yield _sha(out.read_bytes()), f"scan {' '.join(ORIGIN_SCAN)}"


def command_digests(workdir: Path):
    yield _sha(_run(["verify", "all"])), "verify all stdout"
    for name, argv in SIMULATE:
        out = workdir / f"simulate-{name}.csv"
        _run(["simulate", *argv, "--out", str(out)])
        yield _sha(out.read_bytes()), f"simulate {' '.join(argv)}"


def evolve_digests():
    chirp = catalog.get("slow-chirp").trajectory(span=CHIRP_SPAN, dt=CHIRP_DT)
    yield (_sha(serialize.trajectory_csv(chirp).encode("utf-8")),
           f"integrate slow-chirp {CHIRP_SPAN} dt {CHIRP_DT} csv")
    orbit = catalog.get("beverton-holt").trajectory(steps=BH_STEPS)
    yield _sha(orbit.values.tobytes()), f"iterate beverton-holt {BH_STEPS} steps"
    fld = dynamics.ScalarField(kind="continuous", rhs="-x+sin(t)")
    times, gaps, report = dynamics.contraction_gap(
        fld, *PAIR, PAIR_SPAN, dynamics.IntegratorConfig(dt_out=PAIR_DT))
    data = times.tobytes() + gaps.tobytes() + repr(report).encode("utf-8")
    yield _sha(data), f"contraction_gap -x+sin(t) u={PAIR} {PAIR_SPAN}"


def main() -> int:
    for digest, name in (*catalog_digests(), *curve_digests()):
        print(f"{digest}  {name}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for digest, name in (*scan_digests(Path(tmp)),
                             *command_digests(Path(tmp)),
                             *evolve_digests()):
            print(f"{digest}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
