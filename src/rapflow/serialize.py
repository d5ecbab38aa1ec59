"""Deterministic report writers.

Every artifact embeds a short configuration hash and the tool version so a
reader can tell which run produced it, and re-running the same
configuration reproduces the output byte for byte.  CSV output is
RFC-4180-style with a header row, '.' decimal separator, LF line endings,
and leading '# key: value' comment lines for the embedded metadata.  JSON
output is a single top-level object with the keys "config_hash",
"tool_version", and "payload".

Floats are rendered with repr, the shortest digit string that round-trips,
so values survive a write/read cycle exactly.  Non-finite floats become
null (NaN) or the strings "inf"/"-inf" in JSON payloads.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math

import numpy as np

from ._version import VERSION
from .classify import AlmostPeriodSet, ClassificationResult
from .dynamics import Trajectory

__all__ = [
    "almost_period_set_csv",
    "canonical_hash",
    "classification_json",
    "csv_text",
    "jsonable",
    "json_text",
    "trajectory_csv",
    "trajectory_json",
    "write_text",
]


def jsonable(obj):
    """Recursively convert report objects into plain JSON-ready data.

    Dataclasses become dicts, numpy arrays become lists, numpy scalars
    become Python scalars.  NaN maps to None and infinities to the strings
    "inf"/"-inf" so the result is valid strict JSON.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        items = obj.tolist()
        if obj.ndim == 1 and obj.dtype.kind in "fb":
            # tolist already gives Python floats and bools; only a
            # non-finite float needs converting
            if obj.dtype.kind == "b" or np.all(np.isfinite(obj)):
                return items
        return [jsonable(v) for v in items]
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return None
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_hash(obj) -> str:
    """Twelve hex digits identifying a configuration-like object.

    The object is converted with :func:`jsonable`, rendered as canonical
    JSON (sorted keys, no whitespace), and hashed with SHA-256.
    """
    text = json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _fmt(value) -> str:
    if type(value) is float:  # the bulk of every table
        return repr(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    if value is None:
        return ""
    return str(value)


# no rendering of these needs CSV quoting
_PLAIN = (float, int, bool, type(None))


def csv_text(header, rows, config_hash: str, extra_meta: dict | None = None) -> str:
    """Render a CSV document with embedded metadata comment lines.

    Rows of floats, ints, bools and None are joined directly; csv.writer
    renders any other row, and a row that is one empty field, which it
    writes as "".
    """
    buf = io.StringIO()
    buf.write(f"# config_hash: {config_hash}\n")
    buf.write(f"# tool_version: {VERSION}\n")
    for key, value in (extra_meta or {}).items():
        buf.write(f"# {key}: {_fmt(value)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        if (all(isinstance(v, _PLAIN) for v in row)
                and not (len(row) == 1 and row[0] is None)):
            buf.write(",".join([_fmt(v) for v in row]) + "\n")
        else:
            writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def json_text(payload, config_hash: str) -> str:
    """Render the standard top-level JSON envelope as one compact line."""
    doc = {"config_hash": config_hash, "tool_version": VERSION,
           "payload": jsonable(payload)}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# concrete artifacts


def _trajectory_hash(traj: Trajectory) -> str:
    return canonical_hash({"kind": traj.kind, "t0": traj.t0, "dt": traj.dt,
                           "samples": len(traj.values),
                           "provenance": traj.provenance})


_CSV_CHUNK = 1 << 16  # rows rendered per batch by trajectory_csv


def trajectory_csv(traj: Trajectory) -> str:
    """Columns t, value; one row per sample.

    The rows are all floats, so each is written directly as csv_text would
    render it, a batch of rows at a time.
    """
    buf = io.StringIO()
    buf.write(csv_text(["t", "value"], (), _trajectory_hash(traj),
                       extra_meta={"kind": traj.kind,
                                   "samples": len(traj.values)}))
    grid, values = traj.grid(), traj.values
    for i in range(0, len(values), _CSV_CHUNK):
        rows = zip(grid[i:i + _CSV_CHUNK].tolist(),
                   values[i:i + _CSV_CHUNK].tolist())
        buf.write("".join([f"{t!r},{v!r}\n" for t, v in rows]))
    return buf.getvalue()


def trajectory_json(traj: Trajectory) -> str:
    payload = {"kind": traj.kind, "t0": traj.t0, "dt": traj.dt,
               "values": traj.values, "provenance": traj.provenance}
    return json_text(payload, _trajectory_hash(traj))


def almost_period_set_csv(scan: AlmostPeriodSet, t0: float) -> str:
    """Columns tau, sup, admitted, level.

    level is the time from which admission is claimed: the window start
    for a remote scan, the sampling origin t0 of the scanned trajectory
    for a global one; empty for shifts that are not admitted or not
    assessable.
    """
    base_level = scan.window[0] if scan.window is not None else t0
    rows = []
    for tau, sup, adm, ok in zip(scan.taus, scan.sups, scan.admitted,
                                 scan.assessable):
        rows.append((float(tau),
                     None if not ok else float(sup),
                     bool(adm),
                     float(base_level) if adm else None))
    digest = canonical_hash({"mode": scan.mode, "eps": scan.eps,
                             "window": list(scan.window) if scan.window else None,
                             "taus": [float(scan.taus[0]), float(scan.taus[-1]),
                                      len(scan.taus)]})
    return csv_text(["tau", "sup", "admitted", "level"], rows, digest,
                    extra_meta={"mode": scan.mode, "eps": scan.eps})


def classification_json(result: ClassificationResult) -> str:
    """Full classification report as a JSON document, scans included.

    Each scan carries one entry per shift in ``taus``, ``sups``,
    ``admitted``, ``assessable`` and ``certified``.  At a certified shift
    ``sups`` holds the certified lower bound, which is above eps, instead
    of the supremum (see :class:`~rapflow.classify.AlmostPeriodSet`).
    """
    payload = {
        "label": result.label,
        "verdicts": result.verdicts,
        "candidate_tau": result.candidate_tau,
        "windows": [list(w) for w in result.windows] if result.windows else None,
        "config": result.config,
        "reports": result.reports,
        "hierarchy": result.hierarchy,
        "hierarchy_ok": result.hierarchy_ok(),
        "notes": result.notes,
        "global_scan": result.global_scan,
        "remote_scan": result.remote_scan,
    }
    digest = canonical_hash(result.config)
    return json_text(payload, digest)
