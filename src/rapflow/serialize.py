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
from .classify import AlmostPeriodSet, ClassificationResult, TailSupCurve
from .dynamics import ScalarField, Trajectory

__all__ = [
    "almost_period_set_csv",
    "canonical_hash",
    "classification_json",
    "csv_text",
    "field_definition",
    "jsonable",
    "json_text",
    "tail_sup_curves_csv",
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


def trajectory_csv(traj: Trajectory) -> str:
    """Columns t, value; one row per sample."""
    grid = traj.grid()
    rows = zip(grid.tolist(), traj.values.tolist())
    return csv_text(["t", "value"], rows, _trajectory_hash(traj),
                    extra_meta={"kind": traj.kind, "samples": len(traj.values)})


def trajectory_json(traj: Trajectory) -> str:
    payload = {"kind": traj.kind, "t0": traj.t0, "dt": traj.dt,
               "values": traj.values, "provenance": traj.provenance}
    return json_text(payload, _trajectory_hash(traj))


def field_definition(fld: ScalarField) -> dict:
    """Portable field description: expression text plus bindings."""
    return {"kind": fld.kind, "rhs": fld.rhs.to_text(),
            "params": dict(fld.params), "state_domain": list(fld.state_domain),
            "time_domain": fld.time_domain, "name": fld.name,
            "field_id": fld.field_id}


def tail_sup_curves_csv(curves) -> str:
    """Columns tau, window_start, window_end, sup for a curve collection."""
    curves = list(curves)
    rows = []
    for cur in curves:
        for (lo, hi), s in zip(cur.windows, cur.sups):
            rows.append((cur.tau, lo, hi, s))
    meta = {"eps": curves[0].eps if curves else ""}
    digest = canonical_hash([{"tau": c.tau, "eps": c.eps,
                              "windows": [list(w) for w in c.windows]}
                             for c in curves])
    return csv_text(["tau", "window_start", "window_end", "sup"], rows,
                    digest, extra_meta=meta)


def almost_period_set_csv(scan: AlmostPeriodSet) -> str:
    """Columns tau, sup, admitted, level.

    level is the time from which admission is claimed: the window start
    for a remote scan, the sampling origin for a global one; empty for
    shifts that are not admitted or not assessable.
    """
    base_level = scan.window[0] if scan.window is not None else 0.0
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


def classification_json(result: ClassificationResult,
                        include_scans: bool = True) -> str:
    """Full classification report as a JSON document.

    Scans are the bulky part; include_scans=False drops their per-shift
    arrays and keeps only the densities already summarized in reports.
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
        "global_scan": result.global_scan if include_scans else None,
        "remote_scan": result.remote_scan if include_scans else None,
    }
    digest = canonical_hash(result.config)
    return json_text(payload, digest)
