"""Compare two classification JSON documents across the certified scan.

    python3 tools/diff_classification.py PARENT.json CHANGE.json

Each scan of a document may carry a boolean ``certified`` array, one entry
per shift: ``classify_trajectory`` certifies some shifts rejected without
comparing them in full, and writes a lower bound of the sup for them, not
the sup.  Two rapflows may certify different shifts.  The documents must
be equal everywhere except at certified positions.  A position certified
on one side only must carry a bound above the scan's eps and at most the
other side's sup.  A position certified on both sides must carry bounds
above eps on both.  Every difference is printed.  Exits 0 when there is
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
    """Check the certified positions of both scans, then give both sides
    one sup there: the uncertified side's, or PARENT's."""
    scans = {"PARENT": parent_scan, "CHANGE": change_scan}
    flags = {}
    for side, scan in scans.items():
        certified = scan.pop("certified", None)
        if certified is None:
            continue
        sups = scan.get("sups")
        if not (isinstance(certified, list) and isinstance(sups, list)
                and len(certified) == len(sups)
                and all(type(c) is bool for c in certified)):
            yield f"{path}.certified: {side}'s is not one bool per shift"
            return
        flags[side] = certified
    sups = {side: scan.get("sups") for side, scan in scans.items()}
    old, new = sups.values()
    if not (flags and isinstance(old, list) and isinstance(new, list)
            and len(old) == len(new)):
        # sups that do not pair up are left to the plain comparison
        return
    for i in range(len(old)):
        on = [side for side in flags if flags[side][i]]
        for side in on:
            bound = _number(sups[side][i])
            eps = _number(scans[side].get("eps"))
            if not bound > eps:
                yield (f"{path}.sups[{i}]: {side}'s certified bound "
                       f"{bound!r} not above eps {eps!r}")
        if len(on) == 1:
            (side,) = on
            other = "CHANGE" if side == "PARENT" else "PARENT"
            bound, sup = _number(sups[side][i]), _number(sups[other][i])
            if not bound <= sup:
                yield (f"{path}.sups[{i}]: {side}'s certified bound "
                       f"{bound!r} above {other}'s sup {sup!r}")
            sups[side][i] = sups[other][i]
        elif on:
            sups["CHANGE"][i] = sups["PARENT"][i]


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
