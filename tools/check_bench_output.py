"""Check that every benchmark run ends its output with one strict JSON result.

Run from the root of a checkout:

    python3 tools/check_bench_output.py [--seed N]

Runs ``perfbench/run.py`` for every workload in BENCHMARK.json, untraced
(``--trace 0``) and traced (``--trace 1``), each in its own interpreter.  A
run passes when it exits 0 and the last line of its standard output parses
as JSON with NaN and infinities refused, reports ``correct: true`` and no
failed operation, and carries one finite number for each metric that
BENCHMARK.json lists for its trace mode.  Anything written to standard
output after the result line, from a thread, an atexit hook or a stream
captured at import, makes the last line something else and fails the run.
Exits 1 when any run fails.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def problems_of(proc, metric_names) -> list[str]:
    """What is wrong with one finished run; empty when nothing is."""
    if proc.returncode != 0:
        return [f"exited {proc.returncode}"]
    lines = proc.stdout.splitlines()
    if not lines:
        return ["printed nothing"]
    try:
        result = json.loads(lines[-1], parse_constant=_refuse_constant)
    except ValueError as exc:
        return [f"last line is not a strict JSON result ({exc}): "
                f"{lines[-1][:200]!r}"]
    if not isinstance(result, dict):
        return [f"last line is not a JSON object: {lines[-1][:200]!r}"]
    found = []
    if result.get("correct") is not True or result.get("failed") != 0:
        found.append(f"correct={result.get('correct')!r} "
                     f"failed={result.get('failed')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(metric_names):
        found.append(f"{len(metrics)} metrics, expected {len(metric_names)}; "
                     f"missing {sorted(set(metric_names) - set(metrics))}, "
                     f"extra {sorted(set(metrics) - set(metric_names))}")
    for name, entry in metrics.items():
        value = entry.get("value") if isinstance(entry, dict) else None
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            found.append(f"metric {name} is not a finite number: {value!r}")
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_names = {0: [m["name"] for m in spec["end_to_end"]],
                    1: [m["name"] for m in spec["per_layer"]]}
    runs = failed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [*spec["command"], "--workload", workload,
                 "--seed", str(args.seed), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, check=False)
            found = problems_of(proc, metric_names[trace])
            runs += 1
            status = "ok" if not found else "FAIL"
            print(f"{workload} trace={trace}: {status}", flush=True)
            for problem in found:
                print(f"  {problem}", flush=True)
            if found:
                failed += 1
                sys.stderr.write(proc.stderr[-2000:])
    print(f"{runs - failed} of {runs} runs ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
