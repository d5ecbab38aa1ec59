"""rapflow benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan-offgrid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                # every workload, untraced then traced

With ``--trace 0`` the run reports the end-to-end metrics, measured with
tracing off: ``setup_s`` (median over fresh interpreters that import
``rapflow.cli`` and build the catalog), ``peak_rss_mb``, and per pass of the
workload's operation sequence ``wall_norm`` and ``cpu_norm``: operation times
in units of the workload's reference loop, timed between every two
operations and taken as its median over the run (see :func:`normalized`).  Raw ``wall_s``
and ``cpu_s`` are printed too.  Operations repeat, whole passes at a time
after the first ``min_passes``, until ``--seconds`` is used up; each metric
sums over the operations of one pass the median of that operation's samples.

With ``--trace 1`` the run makes one untraced pass, then one pass with spans
around the public calls into each rapflow module (see ``spans.py``), and
reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans, per-operation
samples and the machine record go under ``.perfbench_run/`` in the checkout.
No allocator or threading environment variable is set: numpy temporaries pay
the page faults users pay.
"""

from __future__ import annotations

import argparse
import json
import mmap
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_run"
SETUP_PROBES = 11
PYTHON_LOOP_STEPS = 60_000
NUMPY_LOOP_POINTS = 1 << 18
NUMPY_LOOP_REPS = 32

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import rapflow.cli; "
              "from rapflow import catalog; catalog.catalog(); "
              "print('ready', flush=True)")


def python_loop() -> float:
    """Seconds taken by a fixed pure-Python loop of closure calls on floats."""
    t0 = time.perf_counter()

    def f(t, y):
        return 0.5 * t * y - y - t

    y = 0.3
    for i in range(PYTHON_LOOP_STEPS):
        t = i * 1e-4
        k1 = f(t, y)
        k2 = f(t + 0.25, y + 0.25 * k1)
        y += 1e-6 * (k1 + 2.0 * k2)
    return time.perf_counter() - t0


def numpy_loop() -> float:
    """Seconds taken by fixed numpy arithmetic over three 2 MB arrays.

    Together the arrays are past L2 and inside L3.  They live in a fresh
    mmap region filled in place before timing and unmapped afterwards, so
    the loop touches neither malloc (glibc's mmap threshold, and with it the
    workload's own page faults, stays as the workload left it) nor the
    process's peak RSS, which the workloads' arrays set.
    """
    with mmap.mmap(-1, 3 * NUMPY_LOOP_POINTS * 8) as region:
        a, b, c = np.frombuffer(region, dtype=np.float64).reshape(3, -1)
        a.fill(1.0 / NUMPY_LOOP_POINTS)
        np.add.accumulate(a, out=a)
        np.subtract(1.0, a, out=b)
        t0 = time.perf_counter()
        for _ in range(NUMPY_LOOP_REPS):
            np.subtract(a, b, out=c)
            np.abs(c, out=c)
            c.max()
        elapsed = time.perf_counter() - t0
        del a, b, c  # release the buffer before the region closes
    return elapsed


def calibrate() -> dict[str, float]:
    """Seconds taken by each reference loop, by its name."""
    return {"python": python_loop(), "numpy": numpy_loop()}


def usage() -> tuple[float, float, int]:
    """(user s, system s, minor faults) of this process and its children.

    Children count once they have been waited for, which every operation
    does before it returns.
    """
    ru = [resource.getrusage(who)
          for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return (sum(r.ru_utime for r in ru), sum(r.ru_stime for r in ru),
            sum(r.ru_minflt for r in ru))


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def setup_seconds() -> float:
    """Median time from spawning a fresh interpreter until it is ready."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)],
                                stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError("setup probe failed to import rapflow")
        times.append(elapsed)
    return statistics.median(times)


def machine_record() -> dict:
    rec = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "loadavg": list(os.getloadavg())}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh
                      if ln.startswith("model name")]
        rec["cpu_model"] = models[0] if models else platform.processor()
        with open("/proc/stat", encoding="utf-8") as fh:
            rec["steal_ticks"] = int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        pass
    return rec


# ---------------------------------------------------------------------------


class Pass:
    """Per-operation samples collected by the runner."""

    def __init__(self, keys):
        self.samples = {key: [] for key in keys}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.calibration: list[dict[str, float]] = []

    def loop_s(self, loop: str) -> float:
        """Median time of one reference loop over the run."""
        return statistics.median(c[loop] for c in self.calibration)

    def reference_s(self, loops) -> float:
        """Sum of the run's median times of the named reference loops."""
        return sum(self.loop_s(loop) for loop in loops)

    def total(self, field: str):
        return sum(s[field] for samples in self.samples.values()
                   for s in samples)

    def summed_median(self, field: str) -> float:
        return sum(statistics.median(s[field] for s in samples)
                   for samples in self.samples.values() if samples)


def run_op(fn, tracer=None):
    """Time one operation; returns (sample, output, error text).

    The sample holds wall, user and system seconds and minor faults.
    """
    if tracer is not None:
        tracer.active = True
    (user0, sys0, flt0), t0 = usage(), time.perf_counter()
    try:
        out, err = fn(), None
    except Exception:  # a failing operation is counted, not fatal
        out, err = None, traceback.format_exc()
    wall, (user1, sys1, flt1) = time.perf_counter() - t0, usage()
    if tracer is not None:
        tracer.active = False
    sample = {"wall": wall, "user": user1 - user0, "sys": sys1 - sys0,
              "minflt": flt1 - flt0}
    sample["cpu"] = sample["user"] + sample["sys"]
    return sample, out, err


def record(result: Pass, workload, key, out, err):
    result.attempted += 1
    if err is None:
        try:
            problems = workload.check(key, out)
        except Exception:  # a check that cannot read the output fails it
            err = traceback.format_exc()
    if err is not None:
        problems = [f"{key}: raised\n{err}"]
    if problems:
        result.failed += 1
        result.problems += problems
        for p in problems:
            print(f"perfbench: FAILED {p}", file=sys.stderr)


def normalized(sample, reference_s):
    """Add an operation's wall and CPU times in reference-loop units.

    On a shared 2-core VM, host slowdowns hit the interpreter far harder
    than array code, so each workload names the loops that do its kind of work: pure-Python
    closure calls for evolve-pairs, numpy arithmetic for the array-bound
    classify-catalog, and both for scan-offgrid, whose every command also
    starts an interpreter and imports rapflow.  Each loop's median over the
    run is used, since one 20 ms timing spreads more than the seconds-long
    operation it would scale.
    """
    sample["wall_norm"] = sample["wall"] / reference_s
    sample["cpu_norm"] = sample["cpu"] / reference_s
    return sample


def closed_loop(workload, seconds: float) -> Pass:
    """Issue operations in sequence until the time budget is spent.

    The first ``min_passes`` passes always run; after that an operation
    starts only when its median so far still fits in the budget.  The
    reference loops run once before the first operation and after each one.
    """
    ops = workload.ops(in_process=False)
    result = Pass([key for key, _ in ops])
    calibrate()  # warm-up, not kept
    start = time.perf_counter()
    result.calibration.append(calibrate())
    i = 0
    while True:
        pass_no, (key, fn) = i // len(ops), ops[i % len(ops)]
        if pass_no >= workload.min_passes:
            expected = statistics.median(
                s["wall"] for s in result.samples[key]) + sum(
                    result.calibration[-1].values())
            if time.perf_counter() - start + expected > seconds:
                break
        sample, out, err = run_op(fn)
        result.calibration.append(calibrate())
        result.samples[key].append(sample)
        record(result, workload, key, out, err)
        i += 1
    reference_s = result.reference_s(workload.reference_loops)
    for samples in result.samples.values():
        for sample in samples:
            normalized(sample, reference_s)
    return result


def one_pass(workload, tracer=None) -> Pass:
    """One pass of the sequence, without calibration loops."""
    ops = workload.ops(in_process=True)
    result = Pass([key for key, _ in ops])
    for key, fn in ops:
        if tracer is not None:
            tracer.op = key
        sample, out, err = run_op(fn, tracer)
        result.samples[key].append(sample)
        record(result, workload, key, out, err)
    return result


def rhs_eval_ns(workload, seed: int) -> float:
    """Mean ns per scalar call of the workload's own rhs callables.

    Each rhs is bound once and called on seeded points inside its domain,
    outside any integrator; the cost of the bare loop is subtracted.
    """
    fields = workload.rhs_fields()
    if not fields:
        return 0.0
    rng = np.random.default_rng(seed)
    per_call = []
    for fld, (t_lo, t_hi), (x_lo, x_hi) in fields:
        f = fld.bind()
        pts = list(zip(rng.uniform(t_lo, t_hi, 20_000).tolist(),
                       rng.uniform(x_lo, x_hi, 20_000).tolist()))
        t0 = time.perf_counter_ns()
        for t, x in pts:
            f(t, x)
        t1 = time.perf_counter_ns()
        for t, x in pts:
            pass
        t2 = time.perf_counter_ns()
        per_call.append(((t1 - t0) - (t2 - t1)) / len(pts))
    return statistics.fmean(per_call)


# ---------------------------------------------------------------------------


def untraced_run(workload, seconds: float):
    metrics = {"setup_s": setup_seconds()}
    loop = closed_loop(workload, seconds)
    for name in ("wall_norm", "cpu_norm"):
        metrics[name] = loop.summed_median(name)
    metrics["peak_rss_mb"] = peak_rss_mb()
    extra = {"wall_s": loop.summed_median("wall"),
             "cpu_s": loop.summed_median("cpu"),
             "reference_loops": workload.reference_loops,
             "python_loop_ms": 1e3 * loop.loop_s("python"),
             "numpy_loop_ms": 1e3 * loop.loop_s("numpy"),
             "samples": {k: len(v) for k, v in loop.samples.items()}}
    return metrics, loop, extra


def traced_run(rapflow, workload, seed: int):
    from spans import Tracer, layer_metrics
    ref = one_pass(workload)
    tracer = Tracer()
    tracer.install(rapflow)
    try:
        traced = one_pass(workload, tracer)
    finally:
        tracer.uninstall()
    ref_wall, traced_wall = ref.total("wall"), traced.total("wall")
    metrics = layer_metrics(tracer, traced_wall)
    metrics["trace.overhead_s"] = traced_wall - ref_wall
    metrics["expr.rhs_eval_ns"] = rhs_eval_ns(workload, seed)
    metrics["proc.user_s"] = ref.total("user")
    metrics["proc.sys_s"] = ref.total("sys")
    metrics["proc.minor_faults"] = ref.total("minflt")
    ref.attempted += traced.attempted
    ref.failed += traced.failed
    ref.problems += traced.problems
    # 0 on workloads without the probe; absent when the probe cannot run
    metrics["classify.scan.threads2_speedup"] = 0.0
    probe = getattr(workload, "threads2_speedup", None)
    if probe is not None:
        ref.attempted += 1
        try:
            speedup = probe()
        except Exception:  # a failing probe is a failed operation
            speedup = None
            ref.failed += 1
            ref.problems.append(f"thread probe raised\n{traceback.format_exc()}")
            print(f"perfbench: FAILED {ref.problems[-1]}", file=sys.stderr)
        if speedup is None:
            del metrics["classify.scan.threads2_speedup"]
        else:
            metrics["classify.scan.threads2_speedup"] = speedup
    tracer.dump(Path(workload.workdir) / f"spans-seed{seed}.jsonl")
    extra = {"untraced_pass_wall_s": ref_wall, "spans": len(tracer.spans)}
    return metrics, ref, extra


def run_one(args, rapflow, units_by_trace) -> int:
    from workloads import WORKLOADS
    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    machine = {"start": machine_record()}
    workload = WORKLOADS[args.workload](rapflow, args.seed, str(workdir))
    if args.trace:
        metrics, result, extra = traced_run(rapflow, workload, args.seed)
    else:
        metrics, result, extra = untraced_run(workload, args.seconds)
    units = units_by_trace[args.trace]
    machine["end"] = machine_record()
    if "steal_ticks" in machine["end"] and "steal_ticks" in machine["start"]:
        machine["steal_ticks_delta"] = (machine["end"]["steal_ticks"]
                                        - machine["start"]["steal_ticks"])

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}")
    print("machine: " + json.dumps(machine, sort_keys=True))
    for key, value in extra.items():
        print(f"{key}: {json.dumps(value, sort_keys=True)}")
    for name in units:
        if name in metrics:
            print(f"  {name:40s} {metrics[name]:.6g} {units[name]}")
    failed_frac = result.failed / max(1, result.attempted)
    print(f"  {'ops_failed_frac':40s} {failed_frac:.6g} ratio "
          f"(attempted {result.attempted}, failed {result.failed})")
    line = {"correct": result.failed == 0, "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units if name in metrics}}
    with open(workdir / f"result-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"result": line, "machine": machine, "extra": extra,
                   "problems": result.problems, "samples": result.samples,
                   "calibration": result.calibration},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(line))
    return 0


def run_all(args, names) -> int:
    """Every workload in its own interpreter, untraced then traced."""
    summary = {}
    for name in names:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                print(f"perfbench: {name} trace={trace} exited "
                      f"{proc.returncode}", file=sys.stderr)
                return proc.returncode
            summary[f"{name}/trace{trace}"] = json.loads(
                proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    units_by_trace = {trace: {m["name"]: m["unit"] for m in spec[key]}
                      for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="one workload; omit to run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rapflow" / "__init__.py").is_file():
        print(f"perfbench: no rapflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rapflow
    if Path(rapflow.__file__).resolve().parent != SRC / "rapflow":
        print(f"perfbench: imported rapflow from {rapflow.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # SIGTERM unwinds like an exception, so a running rapflow command or
    # setup probe is killed and waited for on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload is None:
        return run_all(args, names)
    return run_one(args, rapflow, units_by_trace)


if __name__ == "__main__":
    sys.exit(main())
