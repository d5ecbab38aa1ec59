"""Command line front end.

Five subcommands drive the library end to end:

  simulate   sample one system and summarize the trajectory
  classify   run the recurrence classifier on one system
  scan       sweep a grid of shifts and report the admitted set
  verify     run a self-contained, deterministic checking suite
  examples   list the catalogued systems and their analytic guarantees

Summaries and data go to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 a verify suite found failures, 2 bad configuration (flags,
expressions, config file), 3 the integrator aborted, 4 every
classification verdict came back inconclusive, 141 (128 + SIGPIPE) the
reader closed stdout before the output was written (as ``| head`` does).
Each system source reads only the system flags of its ``_SOURCE_FLAGS``
row; any other one, as a flag or a config-file key, is bad configuration.

A config file named with --config uses INI syntax with one section per
subcommand and keys spelled like the long flags; explicit flags override
file values, which override the built-in defaults:

    [classify]
    eps = 0.1
    tau-step = 0.05
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import os
import sys
import textwrap
from types import SimpleNamespace

from . import catalog, verify
from ._version import VERSION
from .classify import (
    CLASS_ORDER,
    ClassifyConfig,
    almost_period_scan,
    classify_trajectory,
)
from .dynamics import (
    DynamicsError,
    FieldValidationError,
    IntegratorConfig,
    ScalarField,
    boundedness,
    integrate,
    iterate,
    sample_function,
)
from .expr import EvalError, ParseError, parse
from .serialize import (
    almost_period_set_csv,
    canonical_hash,
    classification_json,
    csv_text,
    json_text,
    jsonable,
    trajectory_csv,
    trajectory_json,
    write_text,
)

__all__ = ["ConfigError", "build_parser", "main"]


class ConfigError(argparse.ArgumentTypeError):
    """A problem with flags, expressions, or the config file (exit 2).

    Raised by a flag's converter, argparse reports its text and exits 2.
    """


# ---------------------------------------------------------------------------
# value parsing


def _parse_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ConfigError(f"not a number: {text!r}")
    if not math.isfinite(v):
        raise ConfigError(f"value must be finite: {text!r}")
    return v


def _parse_dt(text: str) -> float:
    v = _parse_float(text)
    if not v > 0:
        raise ConfigError(f"dt must be positive, got {text!r}")
    return v


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"not an integer: {text!r}")


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    raw = text.replace(",", ":")
    parts = raw.split(":")
    if len(parts) != 2:
        raise ConfigError(f"{what} must look like LO:HI, got {text!r}")
    lo, hi = (_parse_float(p) for p in parts)
    if not lo < hi:
        raise ConfigError(f"{what} needs LO < HI, got {text!r}")
    return lo, hi


def _parse_span(text: str) -> tuple[float, float]:
    return _parse_pair(text, "span")


def _parse_window(text: str) -> tuple[float, float]:
    return _parse_pair(text, "window")


def _parse_windows(text: str) -> tuple[tuple[float, float], ...]:
    wins = tuple(_parse_pair(part, "window")
                 for part in text.split(";") if part.strip())
    if not wins:
        raise ConfigError("windows must list at least one LO:HI pair")
    return wins


def _parse_choice(name: str, allowed: tuple[str, ...]):
    def conv(text: str) -> str:
        if text not in allowed:
            raise ConfigError(
                f"{name} must be one of {', '.join(allowed)}; got {text!r}")
        return text
    conv.choices = allowed
    return conv


def _params_dict(items) -> dict:
    """Turn repeated NAME=VALUE bindings into a dict, later ones winning."""
    out = {}
    for item in items or []:
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or not name.isidentifier():
            raise ConfigError(f"parameter bindings look like NAME=VALUE, got {item!r}")
        out[name] = _parse_float(value)
    return out


def _parse_bh(spec: str) -> dict:
    """Read a Beverton-Holt spec like 'mu=2,K=10' or 'mu=3,K=10+sin(ln(1+t))'.

    K may be a number or an expression in t; alpha and beta override the
    capacity band the expression is checked against.
    """
    kwargs = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep:
            raise ConfigError(f"Beverton-Holt spec entries look like NAME=VALUE, got {item!r}")
        if name in ("mu", "alpha", "beta"):
            kwargs[name] = _parse_float(value)
        elif name == "K":
            try:
                kwargs["capacity"] = float(value)
            except ValueError:
                kwargs["capacity"] = value.strip()
        else:
            raise ConfigError(f"unknown Beverton-Holt key {name!r} (use mu, K, alpha, beta)")
    if "mu" not in kwargs:
        raise ConfigError("a Beverton-Holt spec needs at least mu, e.g. 'mu=2,K=10'")
    return kwargs


# ---------------------------------------------------------------------------
# option declarations
#
# Each value option is declared once: its flag, the converter that reads its
# text, and its argparse settings.  The parser, the config-file merge and the
# flag gluing in main() all derive from these tables, so a flag and a
# config-file key always parse the same way.

_SOURCE_OPTIONS = (
    ("--ode", str, dict(metavar="EXPR",
                        help="continuous field dx/dt = f(t, x)")),
    ("--map", str, dict(metavar="EXPR",
                        help="discrete field x_{n+1} = f(n, x_n)")),
    ("--fn", str, dict(metavar="EXPR",
                       help="closed-form curve of t, sampled directly")),
    ("--example", str, dict(metavar="NAME",
                            help="catalogued system (see 'rapflow examples')")),
    ("--bh", str, dict(metavar="SPEC",
                       help="Beverton-Holt map, e.g. 'mu=2,K=10'; K may be an "
                            "expression in t, alpha/beta bound its range")),
)

_SYSTEM_OPTIONS = (
    ("--param", str, dict(action="append", metavar="NAME=VALUE",
                          help="bind a field parameter (repeatable)")),
    ("--u0", _parse_float, dict(help="initial value")),
    ("--span", _parse_span, dict(metavar="T0:T1", help="time span, e.g. 0:100")),
    ("--steps", _parse_int, dict(help="iteration count for maps")),
    ("--dt", _parse_dt, dict(help="output grid spacing (default 0.01, or "
                                     "an example's recommended dt)")),
    ("--abs-tol", _parse_float,
     dict(help="absolute error tolerance of the Dormand-Prince steps, which "
               "do not depend on --dt (default 1e-9); each step is held to "
               "1/100 of the tolerance")),
    ("--rel-tol", _parse_float,
     dict(help="relative error tolerance of the Dormand-Prince steps "
               "(default 1e-9); each step is held to 1/100 of the "
               "tolerance")),
    ("--source", _parse_choice("source", ("integrate", "curve")),
     dict(help="for an ode example: integrate its field (the default) or "
               "sample its known solution curve")),
)

# The system flags each source reads, and the default of each (None: no
# default).  An example reads the row of its entry's kind and takes each
# default from the entry's recommendation.  Any other system flag, from the
# command line or the config file, is bad configuration.
_SOURCE_FLAGS = {
    "--ode": {"param": None, "u0": 0.0, "span": (0.0, 100.0), "dt": 0.01,
              "abs_tol": None, "rel_tol": None},
    "--map": {"param": None, "u0": 1.0, "steps": 1000},
    "--fn": {"param": None, "span": (0.0, 100.0), "dt": 0.01},
    "--bh": {"u0": 1.0, "steps": 1000},
    "--example (kind ode)": dict.fromkeys("u0 span dt abs_tol rel_tol source".split()),
    "--example (kind ode) --source curve": dict.fromkeys("span dt source".split()),
    "--example (kind curve)": dict.fromkeys("span dt".split()),
    "--example (kind map)": dict.fromkeys("u0 steps".split()),
}

_SIMULATE_OPTIONS = (
    ("--bound", _parse_float, dict(help="also check sup |x| against this bound")),
)

_CLASSIFY_OPTIONS = (
    ("--eps", _parse_float, dict(help="recurrence tolerance (default 0.05)")),
    ("--exact-eps", _parse_float,
     dict(help="tolerance for exact periodicity and constancy")),
    ("--tau", _parse_float, dict(help="pin the candidate shift")),
    ("--tau-max", _parse_float, dict(help="largest shift to scan")),
    ("--tau-step", _parse_float, dict(help="scan grid spacing")),
    ("--windows", _parse_windows,
     dict(metavar="LO:HI;LO:HI", help="late comparison windows")),
)

_SCAN_OPTIONS = (
    ("--eps", _parse_float, dict(help="admission tolerance (default 0.05)")),
    ("--tau-max", _parse_float, dict(help="largest shift to scan (default 100)")),
    ("--tau-step", _parse_float, dict(help="scan grid spacing (default 0.01)")),
    ("--mode", _parse_choice("mode", ("global", "remote")),
     dict(help="compare over the whole span or one late window")),
    ("--window", _parse_window,
     dict(metavar="LO:HI", help="late window for --mode remote")),
    ("--threads", _parse_int,
     dict(help="worker threads; results are identical at any count")),
)

_OUTPUT_OPTIONS = (
    ("--out", str, dict(metavar="PATH", help="write the data here")),
    ("--format", _parse_choice("format", ("csv", "json")),
     dict(help="output format")),
    ("--config", str, dict(metavar="PATH",
                           help="INI file with defaults for any flag")),
)

_ALL_OPTIONS = (_SOURCE_OPTIONS + _SYSTEM_OPTIONS + _SIMULATE_OPTIONS
                + _CLASSIFY_OPTIONS + _SCAN_OPTIONS + _OUTPUT_OPTIONS)
# option dest -> converter, for config-file values
_CONVERTERS = {flag[2:].replace("-", "_"): conv for flag, conv, _ in _ALL_OPTIONS}
# flags that take a value, for _glue_flag_values
_VALUE_FLAGS = frozenset(flag for flag, _, _ in _ALL_OPTIONS)


def _add_options(group, options) -> dict:
    """Add declared options to an argument group; returns dest -> action."""
    actions = [group.add_argument(flag, type=conv,
                                  choices=getattr(conv, "choices", None),
                                  **kwargs)
               for flag, conv, kwargs in options]
    return {a.dest: a for a in actions}


# ---------------------------------------------------------------------------
# config file merging


def _merged_options(args: argparse.Namespace) -> SimpleNamespace:
    """Overlay config-file values under the explicit flags.

    Precedence: command line, then the file section named after the
    subcommand, then built-in defaults (every unset option stays None and
    the handlers fill in defaults).
    """
    merged = dict(vars(args))
    path = merged.get("config")
    if not path:
        return SimpleNamespace(**merged)
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}")
    for section in cp.sections():
        if section not in ("simulate", "classify", "scan"):
            raise ConfigError(f"unknown config file section [{section}]")
    if not cp.has_section(args.command):
        return SimpleNamespace(**merged)
    for key, raw in cp.items(args.command):
        dest = key.replace("-", "_")
        if dest == "param":
            file_params = raw.split()
            merged["param"] = file_params + (merged.get("param") or [])
            continue
        if dest not in merged or dest in ("config", "command", "handler"):
            raise ConfigError(
                f"unknown option {key!r} in config file section [{args.command}]")
        if merged[dest] is None:
            merged[dest] = _CONVERTERS[dest](raw)
    return SimpleNamespace(**merged)


# ---------------------------------------------------------------------------
# building the trajectory a subcommand works on


def _mk_field(kind: str, rhs: str, params: dict,
              t0: float | None = None) -> ScalarField:
    """The field of --ode or --map.  A --ode field, given the start ``t0``
    of its span, that fails validation on the full line is built on the
    half-line t >= 0 and validated there when t0 >= 0."""
    try:
        expr = parse(rhs)
    except ParseError as exc:
        raise ConfigError(f"bad expression {rhs!r}: {exc}")
    missing = set(expr.params) - set(params)
    if missing:
        raise ConfigError(
            f"unbound parameters {', '.join(sorted(missing))}; bind them with --param")
    try:
        return ScalarField(kind=kind, rhs=expr, params=params,
                           name="command-line")
    except FieldValidationError as exc:
        if t0 is None or not t0 >= 0:
            raise ConfigError(str(exc))
    try:
        return ScalarField(kind=kind, rhs=expr, params=params,
                           time_domain="half-line", name="command-line")
    except FieldValidationError as exc:
        raise ConfigError(str(exc))


def _integrator_config(o) -> IntegratorConfig:
    """Output spacing ``o.dt``; a tolerance left None keeps its default."""
    tols = {name: getattr(o, name) for name in ("abs_tol", "rel_tol")
            if getattr(o, name) is not None}
    return IntegratorConfig(dt_out=o.dt, **tols)


def _build_trajectory(o):
    """Resolve the system flags into (trajectory, meta), filling in ``o``
    each setting the source reads that was left None.

    meta may carry 'field' (the ScalarField behind the samples), 'flags'
    (Beverton-Holt certificate flags) and 'example' (the catalog entry).
    """
    sources = [flag[2:] for flag, _, _ in _SOURCE_OPTIONS
               if getattr(o, flag[2:], None)]
    if len(sources) != 1:
        raise ConfigError(
            "give exactly one system: --ode, --map, --fn, --example or --bh")
    src = sources[0]
    ex, row_key = None, f"--{src}"
    if src == "example":
        try:
            ex = catalog.get(o.example)
        except KeyError:
            known = ", ".join(catalog.catalog())
            raise ConfigError(f"unknown example {o.example!r} (known: {known})")
        row_key = f"--example (kind {ex.kind})"
        if ex.kind == "ode" and o.source == "curve":
            row_key += " --source curve"
    row = _SOURCE_FLAGS[row_key]
    for flag, _, _ in _SYSTEM_OPTIONS:
        dest = flag[2:].replace("-", "_")
        if dest not in row and getattr(o, dest) is not None:
            raise ConfigError(f"{flag} is not read by {row_key}, which reads "
                              f"only --{', --'.join(row).replace('_', '-')}")
        if dest in row and getattr(o, dest) is None:
            setattr(o, dest, row[dest] if ex is None
                    else ex.recommended.get(dest))
    if o.steps is not None and o.steps < 1:
        raise ConfigError("steps must be at least 1")
    params = _params_dict(o.param)
    meta = {}

    if src == "ode":
        fld = _mk_field("continuous", o.ode, params, t0=o.span[0])
        traj = integrate(fld, o.u0, o.span, _integrator_config(o))
        meta["field"] = fld
    elif src == "map":
        fld = _mk_field("discrete", o.map, params)
        traj = iterate(fld, o.u0, o.steps)
        meta["field"] = fld
    elif src == "fn":
        try:
            traj = sample_function(o.fn, o.span, o.dt, params=params or None,
                                   name="command-line")
        except ParseError as exc:
            raise ConfigError(f"bad expression {o.fn!r}: {exc}")
    elif src == "bh":
        try:
            fld, flags = catalog.make_beverton_holt(**_parse_bh(o.bh))
        except (ValueError, ParseError) as exc:
            raise ConfigError(f"bad Beverton-Holt spec: {exc}")
        traj = iterate(fld, o.u0, o.steps)
        meta["field"] = fld
        meta["flags"] = flags
    else:
        config = None
        if ex.kind == "ode" and o.source != "curve":
            config = _integrator_config(o)
        traj = ex.trajectory(u0=o.u0, span=o.span, dt=o.dt, steps=o.steps,
                             config=config, source=o.source)
        meta["example"] = ex
        if ex.rhs is not None:
            meta["field"] = ex.system()
    return traj, meta


def _write_data(o, text: str, what: str) -> None:
    write_text(o.out, text)
    print(f"wrote {what} to {o.out}", file=sys.stderr)


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    o = _merged_options(args)
    traj, meta = _build_trajectory(o)
    # max |x| without a full-size abs temporary; + 0.0 turns -0.0 into 0.0
    sup = max(float(traj.values.max()), -float(traj.values.min())) + 0.0
    print(f"samples: {len(traj)}")
    print(f"grid: t0={traj.t0:g} dt={traj.dt:g} t_end={traj.t_end:g}")
    print(f"sup |x|: {sup!r}")
    if o.bound is not None:
        rep = boundedness(traj, o.bound)
        if rep.verdict == "pass":
            print(f"bounded: yes (sup {rep.extreme!r} <= {o.bound!r})")
        else:
            w = rep.witness
            print(f"bounded: no (|x| = {abs(w['value'])!r} at t = {w['t']!r} "
                  f"exceeds {o.bound!r})")
    if "flags" in meta:
        f = meta["flags"]
        print(f"certificate: ratio={f['certificate_ratio']:.6g} "
              f"holds={f['certificate_holds']} sup_bound={f['sup_bound']:.6g}")
    if o.out:
        fmt = o.format or "csv"
        text = trajectory_csv(traj) if fmt == "csv" else trajectory_json(traj)
        _write_data(o, text, f"trajectory ({len(traj)} samples, {fmt})")
    return 0


# ---------------------------------------------------------------------------
# classify


def _classification_csv(res) -> str:
    rows = [("label", res.label),
            ("candidate_tau",
             "" if res.candidate_tau is None else res.candidate_tau)]
    rows += [(f"verdict[{name}]", res.verdicts[name]) for name in CLASS_ORDER]
    rows.append(("hierarchy_ok", res.hierarchy_ok()))
    return csv_text(("property", "value"), rows, canonical_hash(res.config))


def cmd_classify(args) -> int:
    o = _merged_options(args)
    traj, meta = _build_trajectory(o)
    ex = meta.get("example")
    base = catalog.recommended_config(ex) if ex is not None else ClassifyConfig()
    over = {}
    if o.eps is not None:
        over["eps"] = o.eps
    if o.exact_eps is not None:
        over["exact_eps"] = o.exact_eps
    if o.tau is not None:
        over["tau"] = o.tau
    if o.tau_max is not None:
        over["tau_range"] = (0.0, o.tau_max)
    if o.tau_step is not None:
        over["tau_step"] = o.tau_step
    if o.windows is not None:
        over["windows"] = o.windows
    try:
        cfg = dataclasses.replace(base, **over) if over else base
    except ValueError as exc:
        raise ConfigError(str(exc))
    res = classify_trajectory(traj, cfg)
    print(res.summary())
    if o.out:
        fmt = o.format or "json"
        text = classification_json(res) if fmt == "json" else _classification_csv(res)
        _write_data(o, text, f"classification ({fmt})")
    if all(v == "inconclusive" for v in res.verdicts.values()):
        print("every verdict is inconclusive; sample longer or loosen eps",
              file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# scan


def cmd_scan(args) -> int:
    o = _merged_options(args)
    traj, _ = _build_trajectory(o)
    default = ClassifyConfig()
    eps = o.eps if o.eps is not None else default.eps
    tau_max = o.tau_max if o.tau_max is not None else default.tau_range[1]
    tau_step = o.tau_step if o.tau_step is not None else default.tau_step
    mode = o.mode or "global"
    threads = o.threads if o.threads is not None else 1
    if mode == "remote" and o.window is None:
        raise ConfigError("remote scans need --window LO:HI")
    if mode == "global" and o.window is not None:
        raise ConfigError("--window needs --mode remote")
    try:
        scan = almost_period_scan(traj, eps, (0.0, tau_max), tau_step,
                                  mode=mode, window=o.window, threads=threads)
    except ValueError as exc:
        raise ConfigError(str(exc))
    dens = scan.density()
    print(f"mode: {scan.mode}" + ("" if scan.window is None else
                                  f" (window {scan.window[0]:g}:{scan.window[1]:g})"))
    taus = scan.taus
    grid = f"{taus[0]:g} to {taus[-1]:g}" + (
        f", step {taus[1] - taus[0]:g}" if len(taus) > 1 else "")
    print(f"shifts scanned: {len(taus)} ({grid})")
    print(f"admitted at eps={eps:g}: {dens.n_admitted}")
    if dens.n_admitted:
        print(f"largest gap between admitted shifts: {dens.largest_gap:.6g}")
    print(f"relative density: {dens.relative_density()}")
    if o.out:
        fmt = o.format or "csv"
        if fmt == "csv":
            text = almost_period_set_csv(scan, traj.t0)
        else:
            payload = jsonable(scan)
            # an exact scan certifies no shift; its JSON keeps the old fields
            del payload["certified"]
            payload["density"] = jsonable(dens)
            digest = canonical_hash({"eps": eps, "tau_max": tau_max,
                                     "tau_step": tau_step, "mode": mode,
                                     "window": scan.window})
            text = json_text(payload, digest)
        _write_data(o, text, f"shift scan ({len(scan.taus)} shifts, {fmt})")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    passed = total = 0
    for name in names:
        print(f"suite: {name}")
        for ok, message in verify.SUITES[name]():
            total += 1
            passed += bool(ok)
            print(f"  [{'ok' if ok else 'FAIL'}] {message}")
    print(f"passed {passed}/{total} checks")
    return 0 if passed == total else 1


# ---------------------------------------------------------------------------
# examples


def cmd_examples(args) -> int:
    table = catalog.catalog()
    if args.name:
        try:
            entry = catalog.get(args.name)
        except KeyError:
            known = ", ".join(table)
            raise ConfigError(f"unknown example {args.name!r} (known: {known})")
        table = {entry.name: entry}
    width = max(len(n) for n in table)
    cwidth = max(len("expected class"),
                 max(len(ex.expected_class) for ex in table.values()))
    print(f"{'name':<{width}}  {'kind':<5}  {'expected class':<{cwidth}}  "
          f"description")
    for ex in table.values():
        print(f"{ex.name:<{width}}  {ex.kind:<5}  {ex.expected_class:<{cwidth}}  "
              f"{ex.description}")
    if args.name:
        ex = next(iter(table.values()))
        print()
        if ex.curve:
            print(f"curve: {ex.curve}")
        if ex.rhs:
            print(f"rhs: {ex.rhs}  params: {ex.params or '{}'}")
        if ex.recommended:
            print(f"recommended: {ex.recommended}")
        if ex.notes:
            print(textwrap.fill(f"notes: {ex.notes}", width=78))
    bounded = [n for n in ("sin-log", "sin-log-drift", "slow-chirp") if n in table]
    if bounded:
        print()
        print("analytic tail bounds (both sides sampled on the same grid):")
        for name in bounded:
            print(f"  {name}: {catalog.tail_bound_text(name)}")
    if "beverton-holt" in table:
        _, flags = catalog.make_beverton_holt()
        print()
        print("beverton-holt certificate flags:")
        print(f"  expansion_possible={flags['expansion_possible']}: with mu > 1 "
              f"the one-step map expands somewhere below the capacity band, "
              f"even though orbits are eventually trapped")
        print(f"  certificate_ratio={flags['certificate_ratio']:.6g}, "
              f"certificate_holds={flags['certificate_holds']}: the coarse "
              f"one-step certificate mu*beta^2/alpha^2 <= 1 does not apply "
              f"here, so remote stationarity rests on the numerical battery")
        print(f"  sup_bound={flags['sup_bound']:.6g}: every orbit eventually "
              f"stays below mu*beta/(mu-1)")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_output_flags(sp: argparse.ArgumentParser, default_fmt: str) -> None:
    actions = _add_options(sp.add_argument_group("output"), _OUTPUT_OPTIONS)
    actions["format"].help += f" (default {default_fmt})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rapflow",
        description="Simulate scalar nonautonomous systems and classify "
                    "their recurrence.")
    parser.add_argument("--version", action="version",
                        version=f"rapflow {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    system = _SOURCE_OPTIONS + _SYSTEM_OPTIONS

    sim = sub.add_parser("simulate",
                         help="sample a trajectory and summarize it")
    _add_options(sim.add_argument_group("system"), system)
    _add_options(sim, _SIMULATE_OPTIONS)
    _add_output_flags(sim, "csv")
    sim.set_defaults(handler=cmd_simulate)

    cls = sub.add_parser("classify",
                         help="run the recurrence classifier on a system")
    _add_options(cls.add_argument_group("system"), system)
    _add_options(cls.add_argument_group("classifier"), _CLASSIFY_OPTIONS)
    _add_output_flags(cls, "json")
    cls.set_defaults(handler=cmd_classify)

    scn = sub.add_parser("scan", help="sweep a grid of shifts")
    _add_options(scn.add_argument_group("system"), system)
    _add_options(scn.add_argument_group("scan"), _SCAN_OPTIONS)
    _add_output_flags(scn, "csv")
    scn.set_defaults(handler=cmd_scan)

    ver = sub.add_parser("verify", help="run a self-contained checking suite")
    ver.add_argument("suite", choices=(*verify.SUITES, "all"),
                     help="which suite to run")
    ver.set_defaults(handler=cmd_verify)

    exm = sub.add_parser("examples", help="list the catalogued systems")
    exm.add_argument("name", nargs="?",
                     help="show one catalogued system in detail")
    exm.set_defaults(handler=cmd_examples)
    return parser


def _glue_flag_values(argv):
    """Join flags to their values so leading-dash expressions parse.

    argparse reads '--ode -x+sin(t)' as two options; rewriting it to
    '--ode=-x+sin(t)' keeps the documented space-separated form working for
    expressions and negative numbers alike.
    """
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def main(argv=None) -> int:
    try:
        try:
            return _run(argv)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``rapflow ... | head``).  Point the
        # descriptor at /dev/null, so that the flush at exit cannot fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


def _run(argv) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(_glue_flag_values(argv))
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"rapflow: error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"rapflow: error: bad expression: {exc}", file=sys.stderr)
        return 2
    except FieldValidationError as exc:
        print(f"rapflow: error: {exc}", file=sys.stderr)
        return 2
    except DynamicsError as exc:
        print(f"rapflow: error: integration aborted: {exc}", file=sys.stderr)
        return 3
    except (EvalError, ValueError) as exc:
        print(f"rapflow: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
