"""Compare two classification JSON documents across the certified scan.

    python3 tools/diff_classification.py PARENT.json CHANGE.json

PARENT is written by a rapflow whose scans compare every shift, CHANGE by
one whose ``classify_trajectory`` certifies shifts rejected without
comparing them.  The documents must be equal everywhere except in two
places.  Each scan of CHANGE may carry a boolean ``certified`` array, one
entry per shift.  At a certified position CHANGE's ``sups`` entry is a
lower bound, not the sup: it must be above the scan's eps and at most
PARENT's sup there.  Every difference is printed.  Exits 0 when there is
none, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys

SCANS = ("global_scan", "remote_scan")


def _number(x) -> float:
    """A JSON sup as a float: null is NaN, "inf"/"-inf" are infinities."""
    return math.nan if x is None else float(x)


def _differences(a, b, path):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            where = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                yield f"{where}: only in {'CHANGE' if key in b else 'PARENT'}"
            else:
                yield from _differences(a[key], b[key], where)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _differences(x, y, f"{path}[{i}]")
    elif type(a) is not type(b) or a != b:
        yield f"{path}: PARENT {a!r}, CHANGE {b!r}"


def _certified_differences(parent_scan, change_scan, path):
    """Check the certified positions, then give them PARENT's sups."""
    certified = change_scan.pop("certified", None)
    if certified is None:
        return
    sups = change_scan.get("sups")
    old = parent_scan.get("sups")
    if not (isinstance(certified, list) and isinstance(sups, list)
            and isinstance(old, list)
            and len(certified) == len(sups) == len(old)
            and all(type(c) is bool for c in certified)):
        yield f"{path}.certified: not one bool per shift"
        return
    eps = _number(change_scan.get("eps"))
    for i, flag in enumerate(certified):
        if not flag:
            continue
        bound, sup = _number(sups[i]), _number(old[i])
        if not bound > eps:
            yield f"{path}.sups[{i}]: certified bound {bound!r} not above eps {eps!r}"
        if not bound <= sup:
            yield f"{path}.sups[{i}]: certified bound {bound!r} above PARENT's sup {sup!r}"
        sups[i] = old[i]


def differences(parent: dict, change: dict) -> list:
    """Every difference between the documents that the certified scan
    does not explain, as one line each."""
    found = []
    for name in SCANS:
        p = parent.get("payload", {}).get(name)
        c = change.get("payload", {}).get(name)
        if isinstance(p, dict) and isinstance(c, dict):
            found += _certified_differences(p, c, f"payload.{name}")
    return found + list(_differences(parent, change, ""))


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: diff_classification.py PARENT.json CHANGE.json",
              file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    found = differences(*docs)
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
