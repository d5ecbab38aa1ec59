"""End-to-end checks of the command line tool."""
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import rapflow
from rapflow import cli, dynamics
from rapflow.cli import (
    _CONVERTERS,
    ConfigError,
    _glue_flag_values,
    _merged_options,
    build_parser,
    main,
)
from rapflow.classify import ClassifyConfig
from rapflow.dynamics import IntegratorConfig, ScalarField
from rapflow.serialize import canonical_hash


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, stdout=subprocess.PIPE):
    """``python -m rapflow argv`` in a child on the same rapflow as this test."""
    src = os.path.dirname(os.path.dirname(rapflow.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "rapflow", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path))


class TestSimulate:
    def test_damped_forced_ode_matches_documented_numbers(self, capsys):
        code, out, _ = run(capsys, "simulate", "--ode", "-x+sin(t)",
                           "--u0", "0", "--span", "0:100")
        assert code == 0
        assert "samples: 10001" in out
        sup = float(out.split("sup |x|: ")[1].split("\n")[0])
        assert sup <= 1.2

    def test_constant_capacity_orbit_stays_put(self, capsys, tmp_path):
        target = tmp_path / "orbit.csv"
        code, out, _ = run(capsys, "simulate", "--bh", "mu=2,K=10",
                           "--u0", "10", "--steps", "100",
                           "--out", str(target))
        assert code == 0
        assert "samples: 101" in out
        rows = [line for line in target.read_text().splitlines()
                if not line.startswith("#")][1:]
        values = {row.split(",")[1] for row in rows}
        assert values == {"10.0"}

    def test_bound_verdict_both_ways(self, capsys):
        code, out, _ = run(capsys, "simulate", "--fn", "sin(t)",
                           "--span", "0:10", "--bound", "0.5")
        assert code == 0
        assert "bounded: no" in out
        code, out, _ = run(capsys, "simulate", "--fn", "sin(t)",
                           "--span", "0:10", "--bound", "1.5")
        assert "bounded: yes" in out

    def test_output_reruns_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "simulate", "--ode", "-x+sin(t)", "--span", "0:20",
            "--out", str(a))
        run(capsys, "simulate", "--ode", "-x+sin(t)", "--span", "0:20",
            "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys, tmp_path):
        target = tmp_path / "t.json"
        code, _, _ = run(capsys, "simulate", "--fn", "cos(t)", "--span", "0:2",
                         "--dt", "0.5", "--out", str(target),
                         "--format", "json")
        assert code == 0
        data = json.loads(target.read_text())
        assert data["tool_version"]
        assert data["payload"]["values"][0] == 1.0

    @pytest.mark.parametrize("extra, samples", [
        ((), 101), (("--rel-tol", "1e-8"), 101), (("--abs-tol", "1e-8"), 101),
        (("--dt", "0.25"), 21)])
    def test_example_ode_samples_at_its_recommended_dt(self, capsys, extra,
                                                       samples):
        # slow-chirp recommends dt 0.05
        code, out, err = run(capsys, "simulate", "--example", "slow-chirp",
                             "--span", "0:5", *extra)
        assert code == 0, err
        assert f"samples: {samples}" in out

    def test_params_are_bound(self, capsys):
        code, out, _ = run(capsys, "simulate", "--fn", "a*sin(t)",
                           "--param", "a=2", "--span", "0:7")
        assert code == 0
        sup = float(out.split("sup |x|: ")[1].split("\n")[0])
        assert sup == pytest.approx(2.0, abs=1e-3)


class TestExitCodes:
    def test_bad_expression_is_config_error(self, capsys):
        code, _, err = run(capsys, "simulate", "--ode", "x++", "--span", "0:1")
        assert code == 2
        assert "error" in err

    def test_unknown_example_is_config_error(self, capsys):
        code, _, err = run(capsys, "classify", "--example", "nope")
        assert code == 2
        assert "unknown example" in err

    def test_missing_system_is_config_error(self, capsys):
        code, _, err = run(capsys, "simulate", "--span", "0:1")
        assert code == 2
        assert "exactly one system" in err

    def test_two_systems_is_config_error(self, capsys):
        code, _, err = run(capsys, "simulate", "--ode", "x", "--map", "x")
        assert code == 2

    def test_unbound_parameter_is_config_error(self, capsys):
        code, _, err = run(capsys, "simulate", "--ode", "a*x", "--span", "0:1")
        assert code == 2
        assert "unbound" in err

    @pytest.mark.parametrize("capacity", ["10+x/1000", "10+0*x"])
    def test_capacity_that_mentions_x_is_config_error(self, capsys, capacity):
        code, _, err = run(capsys, "simulate", "--bh", f"mu=2,K={capacity}",
                           "--steps", "50")
        assert code == 2
        assert "capacity may depend on t only" in err

    def test_blowup_is_integration_abort(self, capsys):
        code, _, err = run(capsys, "simulate", "--ode", "x^2", "--u0", "3",
                           "--span", "0:10")
        assert code == 3
        assert "integration aborted" in err

    @pytest.mark.parametrize("rhs,u0,span", [
        ("floor(x*x*x)", "2", "0:3"),
        ("sin(x*x*x)+x*x*x", "1", "0:1"),
    ])
    def test_non_finite_function_argument_is_integration_abort(
            self, capsys, rhs, u0, span):
        # floor, sin and cos of an overflowed state give inf or nan, as in
        # numpy, so the integrator aborts instead of the function raising
        code, _, err = run(capsys, "simulate", "--ode", rhs, "--u0", u0,
                           "--span", span)
        assert code == 3
        assert "integration aborted" in err

    def test_step_underflow_prints_only_its_error_line(self):
        # the steps run on Python floats, so an overflowing rhs warns of
        # nothing before the abort; x*x*x blows up at t = 1/2, and the
        # shrinking steps follow it past the overflow guard
        proc = run_module("simulate", "--ode", "x*x*x", "--u0", "1",
                          "--span", "0:1")
        assert proc.returncode == 3
        assert proc.stderr == (
            "rapflow: error: integration aborted: solution magnitude "
            "crossed the overflow guard 1e+12 after t = 0.49999999999901834 "
            "(last good value 1008280607026.31)\n")
        # a pole of the rhs in t shrinks the steps below the step floor
        proc = run_module("simulate", "--ode", "1/(t-1/2)", "--span", "0:1")
        assert proc.returncode == 3
        assert proc.stderr == (
            "rapflow: error: integration aborted: adaptive step size "
            "underflowed near t = 0.49999999997885747\n")

    def test_short_sample_classify_is_exit_4(self, capsys):
        code, out, err = run(capsys, "classify", "--map", "x", "--steps", "5")
        assert code == 4
        assert "label: inconclusive" in out

    def test_unknown_flag_is_argparse_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--nonsense"])
        assert exc.value.code == 2

    def test_unknown_suite_is_argparse_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nosuch"])
        assert exc.value.code == 2


def exit_status(capsys, *argv):
    """main's exit status, whether it returns or argparse exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


class TestSampleLimit:
    # each would ask numpy for far more memory than the machine has; the
    # count is refused before anything is allocated
    @pytest.mark.parametrize("argv", [
        ("--map=x/2", "--steps", "100000000000"),
        ("--map=x/2", "--steps", "1" + "0" * 400),
        ("--fn=sin(t)", "--span", "0:1e12"),
        ("--ode=-x+sin(t)", "--span", "0:1e300"),
        ("--ode=-x", "--span", "-1e308:1e308"),
        ("--bh", "mu=2,K=10", "--steps", "1" + "0" * 300),
        ("--example", "sine", "--span", "0:1e9"),
        ("--example", "beverton-holt", "--steps", "100000000"),
    ])
    def test_oversized_trajectory_is_config_error(self, capsys, argv):
        code, _, err = run(capsys, "simulate", *argv)
        assert code == 2
        assert "more than the limit of 20000000" in err

    def test_counts_at_the_limit_are_built(self, monkeypatch, capsys):
        monkeypatch.setattr("rapflow.dynamics._MAX_SAMPLES", 101)
        code, out, _ = run(capsys, "simulate", "--map=x/2", "--steps", "100")
        assert code == 0 and "samples: 101" in out
        code, _, err = run(capsys, "simulate", "--map=x/2", "--steps", "101")
        assert code == 2 and "102 samples" in err
        code, out, _ = run(capsys, "simulate", "--fn=sin(t)",
                           "--span", "0:1", "--dt", "0.01")
        assert code == 0 and "samples: 101" in out
        code, _, err = run(capsys, "simulate", "--fn=sin(t)",
                           "--span", "0:1.01", "--dt", "0.01")
        assert code == 2 and "102 samples" in err


class TestZeroSteps:
    # a step count that leaves nothing to sample is a configuration error,
    # not an integration abort (an empty span is refused as it is parsed)
    @pytest.mark.parametrize("argv", [
        ("--map=x/2",), ("--bh", "mu=2,K=10"), ("--example", "beverton-holt")])
    def test_zero_steps_is_config_error(self, capsys, argv):
        code, out, err = run(capsys, "simulate", *argv, "--steps", "0")
        assert code == 2 and out == ""
        assert "steps must be at least 1" in err
        assert "integration aborted" not in err


class TestShiftGridLimit:
    # a shift grid with a step that is not positive, or with more shifts
    # than the limit, is refused before any array of shifts is built
    @pytest.mark.parametrize("argv, message", [
        (("--fn=sin(t)", "--span", "0:50", "--tau-step", "0"),
         "tau_step must be positive"),
        (("--fn=sin(t)", "--span", "0:50", "--tau-step", "-1"),
         "tau_step must be positive"),
        (("--map=x/2", "--steps", "50", "--tau-step", "0"),
         "tau_step must be positive"),
        (("--fn=sin(t)", "--span", "0:50", "--tau-step", "1e-12"),
         "1e+14 shifts, more than the limit of 1048576"),
        (("--fn=sin(t)", "--span", "0:50", "--tau-max", "1e300",
          "--tau-step", "1e-300"),
         "inf shifts, more than the limit of 1048576"),
        (("--map=x/2", "--steps", "50", "--tau-max", "1e300"),
         "1e+300 shifts, more than the limit of 1048576"),
    ])
    def test_scan_refuses_the_grid(self, capsys, argv, message):
        code, _, err = run(capsys, "scan", *argv)
        assert code == 2
        assert message in err

    def test_classify_notes_the_refused_grid(self, capsys):
        code, out, err = run(capsys, "classify", "--fn", "sin(t)",
                             "--span", "0:50", "--tau-step", "1e-12")
        assert code == 0, err
        assert ("note: global scan unavailable: the shift grid would hold "
                "2.5e+13 shifts") in out

    def test_grids_at_the_limit_are_built(self, monkeypatch, capsys):
        monkeypatch.setattr("rapflow.classify._MAX_SHIFTS", 101)
        base = ("scan", "--fn=sin(t)", "--span", "0:50", "--tau-step", "0.1")
        code, out, _ = run(capsys, *base, "--tau-max", "10")
        assert code == 0 and "shifts scanned: 101" in out
        code, _, err = run(capsys, *base, "--tau-max", "10.1")
        assert code == 2 and "102 shifts" in err


class TestOptionValues:
    @pytest.mark.parametrize("argv", [
        ("simulate", "--ode=-x", "--span", "0:5", "--abs-tol", "inf"),
        ("simulate", "--ode=-x", "--span", "0:5", "--dt", "inf"),
        ("simulate", "--fn", "sin(t)", "--span", "0:5", "--bound", "nan"),
        ("simulate", "--ode=-x", "--span", "0:5", "--u0", "nan"),
    ])
    def test_non_finite_flag_values_are_config_errors(self, capsys, argv):
        code, err = exit_status(capsys, *argv)
        assert code == 2
        assert "value must be finite" in err

    def test_non_finite_file_value_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "rf.ini"
        cfg.write_text("[simulate]\nu0 = inf\n")
        code, err = exit_status(capsys, "simulate", "--ode=-x", "--span", "0:5",
                                "--config", str(cfg))
        assert code == 2
        assert "value must be finite" in err

    @pytest.mark.parametrize("argv", [
        ("--fn", "sin(t)", "--span", "0:10", "--dt", "-1"),
        ("--example", "sine", "--dt", "0"),
        ("--example", "relax-sin", "--dt", "0"),
        ("--ode=-x", "--span", "0:5", "--dt", "-0.5"),
    ])
    def test_non_positive_dt_is_config_error(self, capsys, argv):
        # these exited 3, 0 (sampling at 0.01) and 2 by three routes
        code, err = exit_status(capsys, "simulate", *argv)
        assert code == 2
        assert "dt must be positive" in err

    def test_non_positive_file_dt_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "rf.ini"
        cfg.write_text("[simulate]\ndt = 0\n")
        code, err = exit_status(capsys, "simulate", "--example", "sine",
                                "--config", str(cfg))
        assert code == 2
        assert "dt must be positive, got '0'" in err

    def test_leading_dash_windows_value_parses(self, capsys):
        argv = ("classify", "--fn", "sin(t)", "--span", "-200:0",
                "--tau-max", "20")
        code, out, err = run(capsys, *argv, "--windows", "-150:-100;-100:-10")
        assert code == 0, err
        code_eq, out_eq, _ = run(capsys, *argv, "--windows=-150:-100;-100:-10")
        assert code_eq == 0 and out_eq == out


# one value per option, several with a leading dash
_OPTION_SAMPLES = {
    "ode": "-x+sin(t)", "map": "x/2", "fn": "sin(t)", "example": "sine",
    "bh": "mu=2,K=10", "param": "a=2", "u0": "-0.5", "span": "-1:2",
    "steps": "7", "dt": "0.25", "abs_tol": "1e-7",
    "rel_tol": "1e-6", "source": "curve", "bound": "2.5",
    "eps": "0.125", "exact_eps": "1e-8", "tau": "-6.25", "tau_max": "20",
    "tau_step": "0.5", "windows": "-150:-100;-100:-10",
    "mode": "remote", "window": "-50:0", "threads": "2", "out": "o.csv",
    "format": "json",
}


# one value each converter rejects
_BAD_SAMPLES = {
    "u0": "nan", "span": "2:1", "steps": "1.5", "dt": "inf", "abs_tol": "-inf",
    "rel_tol": "nan", "source": "table", "bound": "nan", "eps": "inf", "exact_eps": "nan", "tau": "inf",
    "tau_max": "inf", "tau_step": "nan", "windows": ";",
    "mode": "local", "window": "0:inf", "threads": "two", "format": "xml",
}
_COMMANDS = ("simulate", "classify", "scan")


def _option_value(argv, dest):
    args = build_parser().parse_args(_glue_flag_values(argv))
    return getattr(_merged_options(args), dest)


def _flag_and_file(dest, raw, tmp_path):
    """(flag argv, config-file argv), each giving `dest` the text `raw`."""
    command = next(c for c in _COMMANDS
                   if dest in vars(build_parser().parse_args([c])))
    flag = "--" + dest.replace("_", "-")
    cfg = tmp_path / "rf.ini"
    cfg.write_text(f"[{command}]\n{flag[2:]} = {raw}\n")
    return [command, flag, raw], [command, "--config", str(cfg)]


def test_every_value_option_is_declared_and_sampled():
    dests = set().union(*(vars(build_parser().parse_args([c]))
                          for c in _COMMANDS))
    dests -= {"command", "handler", "config"}
    assert dests == set(_OPTION_SAMPLES) == set(_CONVERTERS) - {"config"}
    assert set(_BAD_SAMPLES) <= dests


@pytest.mark.parametrize("dest", sorted(_OPTION_SAMPLES))
def test_flag_and_config_key_parse_alike(dest, tmp_path):
    flag_argv, file_argv = _flag_and_file(dest, _OPTION_SAMPLES[dest], tmp_path)
    from_flag = _option_value(flag_argv, dest)
    assert from_flag is not None
    assert _option_value(file_argv, dest) == from_flag


@pytest.mark.parametrize("dest", sorted(_BAD_SAMPLES))
def test_flag_and_config_key_reject_alike(dest, tmp_path, capsys):
    flag_argv, file_argv = _flag_and_file(dest, _BAD_SAMPLES[dest], tmp_path)
    with pytest.raises(SystemExit) as exc:
        _option_value(flag_argv, dest)
    assert exc.value.code == 2
    with pytest.raises(ConfigError):
        _option_value(file_argv, dest)


class _Captured(Exception):
    pass


# per config class: a command, the library call it hands the config to
# (and at which argument), and one flag per field with a value that is not
# the field's default
_CONFIG_CALLERS = {
    "ClassifyConfig": (
        ClassifyConfig, ["classify", "--fn", "sin(t)", "--span", "0:50"],
        "classify_trajectory", 1,
        {"eps": ("--eps", "0.125"), "exact_eps": ("--exact-eps", "1e-8"),
         "tau": ("--tau", "1.5"), "tau_range": ("--tau-max", "4"),
         "tau_step": ("--tau-step", "0.5"),
         "windows": ("--windows", "10:20;20:40")}),
    "IntegratorConfig": (
        IntegratorConfig, ["simulate", "--ode", "-x", "--span", "0:1"],
        "integrate", 3,
        {"abs_tol": ("--abs-tol", "1e-7"), "rel_tol": ("--rel-tol", "1e-6"),
         "dt_out": ("--dt", "0.25")}),
}


@pytest.mark.parametrize("name", sorted(_CONFIG_CALLERS))
def test_every_config_field_is_set_by_a_flag(monkeypatch, name):
    # a setting that no command sets is one that only tests reach
    cls, argv, target, position, flags = _CONFIG_CALLERS[name]
    assert set(flags) == {f.name for f in dataclasses.fields(cls)}

    def capture(*args):
        raise _Captured(args[position])

    monkeypatch.setattr(cli, target, capture)
    with pytest.raises(_Captured) as got:
        main(argv + [part for flag in flags.values() for part in flag])
    cfg, default = got.value.args[0], cls()
    for field, (flag, _) in flags.items():
        assert getattr(cfg, field) != getattr(default, field), flag


# each system source: its key in cli._SOURCE_FLAGS, its argv, and the
# system flags it reads, each with a value that changes what it samples
_SOURCES = {
    "ode": ("--ode", ["--ode=-a*x+sin(t)", "--param", "a=1"],
            {"param": "a=2", "u0": "0.5", "span": "0:2", "dt": "0.25",
             "abs_tol": "1e-3", "rel_tol": "1e-3"}),
    "map": ("--map", ["--map=a*x", "--param", "a=0.5"],
            {"param": "a=0.25", "u0": "0.5", "steps": "7"}),
    "fn": ("--fn", ["--fn=sin(a*t)", "--param", "a=1"],
           {"param": "a=2", "span": "0:2", "dt": "0.25"}),
    "bh": ("--bh", ["--bh", "mu=2,K=10"], {"u0": "0.5", "steps": "7"}),
    "example-ode": ("--example (kind ode)", ["--example", "relax-sin"],
                    {"u0": "0.5", "span": "0:2", "dt": "0.25",
                     "abs_tol": "1e-3", "rel_tol": "1e-3", "source": "curve"}),
    "example-ode-curve": (
        "--example (kind ode) --source curve",
        ["--example", "relax-sin", "--source", "curve"],
        {"span": "0:2", "dt": "0.25", "source": "integrate"}),
    "example-curve": ("--example (kind curve)", ["--example", "sine"],
                      {"span": "0:2", "dt": "0.25"}),
    "example-map": ("--example (kind map)", ["--example", "beverton-holt-const"],
                    {"u0": "0.5", "steps": "7"}),
}
_SYSTEM_SETTINGS = ("param", "u0", "span", "steps", "dt", "abs_tol", "rel_tol",
                    "source")
_SETTING_VALUES = {"param": "b=1", "u0": "0.5", "span": "0:2", "steps": "7",
                   "dt": "0.25", "abs_tol": "1e-3", "rel_tol": "1e-3",
                   "source": "curve"}


def test_every_system_setting_is_sampled():
    assert _SYSTEM_SETTINGS == tuple(
        flag[2:].replace("-", "_") for flag, _, _ in cli._SYSTEM_OPTIONS)


@pytest.mark.parametrize("source, dest", [
    (source, dest) for source, (_, _, reads) in _SOURCES.items()
    for dest in reads])
def test_a_source_reads_its_flags(capsys, tmp_path, source, dest):
    _, argv, reads = _SOURCES[source]
    base, changed = tmp_path / "base.csv", tmp_path / "changed.csv"
    flag = "--" + dest.replace("_", "-")
    assert run(capsys, "simulate", *argv, "--out", str(base))[0] == 0
    code, _, err = run(capsys, "simulate", *argv, flag, reads[dest],
                       "--out", str(changed))
    assert code == 0, err
    assert changed.read_bytes() != base.read_bytes()


@pytest.mark.parametrize("how", ["flag", "file"])
@pytest.mark.parametrize("source, dest", [
    (source, dest) for source, (_, _, reads) in _SOURCES.items()
    for dest in _SYSTEM_SETTINGS if dest not in reads])
def test_a_source_refuses_the_flags_it_does_not_read(capsys, tmp_path, source,
                                                     dest, how):
    # each of these was accepted and ignored
    key, argv, _ = _SOURCES[source]
    flag = "--" + dest.replace("_", "-")
    if how == "flag":
        argv = [*argv, flag, _SETTING_VALUES[dest]]
    else:
        cfg = tmp_path / "rf.ini"
        cfg.write_text(f"[simulate]\n{flag[2:]} = {_SETTING_VALUES[dest]}\n")
        argv = [*argv, "--config", str(cfg)]
    code, out, err = run(capsys, "simulate", *argv)
    assert code == 2 and out == ""
    assert f"{flag} is not read by {key}," in err


def test_the_digested_commands_run(capsys, tmp_path):
    spec = importlib.util.spec_from_file_location(
        "catalog_digest", Path(__file__).resolve().parents[1] / "tools"
        / "catalog_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    for argv in [("scan", *digest.ORIGIN_SCAN)] + [
            ("simulate", *argv) for _, argv in digest.SIMULATE]:
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "o"))
        assert code == 0, (argv, err)


class TestConfigFile:
    def test_file_fills_in_missing_flags(self, capsys, tmp_path):
        cfg = tmp_path / "rf.ini"
        cfg.write_text("[simulate]\nspan = 0:20\ndt = 0.5\nbound = 2.0\n")
        code, out, _ = run(capsys, "simulate", "--fn", "sin(t)",
                           "--config", str(cfg))
        assert code == 0
        assert "samples: 41" in out
        assert "bounded: yes" in out

    def test_explicit_flag_beats_file_value(self, capsys, tmp_path):
        cfg = tmp_path / "rf.ini"
        cfg.write_text("[simulate]\nspan = 0:20\ndt = 0.5\n")
        code, out, _ = run(capsys, "simulate", "--fn", "sin(t)",
                           "--config", str(cfg), "--span", "0:5")
        assert code == 0
        assert "samples: 11" in out

    def test_sections_are_per_command(self, capsys, tmp_path):
        cfg = tmp_path / "rf.ini"
        cfg.write_text("[classify]\neps = 0.2\n")
        code, out, _ = run(capsys, "simulate", "--fn", "sin(t)",
                           "--span", "0:5", "--config", str(cfg))
        assert code == 0

    def test_unknown_key_is_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "rf.ini"
        cfg.write_text("[simulate]\nnonsense = 1\n")
        code, _, err = run(capsys, "simulate", "--fn", "sin(t)",
                           "--config", str(cfg))
        assert code == 2
        assert "nonsense" in err

    def test_method_is_neither_a_flag_nor_a_key(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--ode", "-x", "--span", "0:1",
                  "--method", "rk4"])
        assert exc.value.code == 2
        cfg = tmp_path / "rf.ini"
        cfg.write_text("[simulate]\nmethod = rk4\n")
        code, _, err = run(capsys, "simulate", "--ode", "-x", "--span", "0:1",
                           "--config", str(cfg))
        assert code == 2
        assert "'method'" in err

    def test_horizon_is_neither_a_flag_nor_a_key(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--ode", "-x", "--span", "0:1",
                  "--horizon", "50"])
        assert exc.value.code == 2
        cfg = tmp_path / "rf.ini"
        cfg.write_text("[simulate]\nhorizon = 50\n")
        code, _, err = run(capsys, "simulate", "--ode", "-x", "--span", "0:1",
                           "--config", str(cfg))
        assert code == 2
        assert "'horizon'" in err

    def test_seed_is_neither_a_flag_nor_a_key(self, capsys, tmp_path):
        # the probe battery is fixed, so nothing draws from a seed
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--fn", "sin(t)", "--seed", "3"])
        assert exc.value.code == 2
        cfg = tmp_path / "rf.ini"
        cfg.write_text("[classify]\nseed = 3\n")
        code, _, err = run(capsys, "classify", "--fn", "sin(t)",
                           "--config", str(cfg))
        assert code == 2
        assert "'seed'" in err

    def test_unknown_section_is_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "rf.ini"
        cfg.write_text("[notacommand]\neps = 0.2\n")
        code, _, err = run(capsys, "simulate", "--fn", "sin(t)",
                           "--config", str(cfg))
        assert code == 2

    def test_missing_file_is_config_error(self, capsys):
        code, _, err = run(capsys, "simulate", "--fn", "sin(t)",
                           "--config", "/nonexistent/rf.ini")
        assert code == 2

    def test_file_params_merge_under_cli_params(self, capsys, tmp_path):
        cfg = tmp_path / "rf.ini"
        cfg.write_text("[simulate]\nparam = a=2 b=3\nspan = 0:7\n")
        code, out, _ = run(capsys, "simulate", "--fn", "a*sin(b*t)",
                           "--config", str(cfg), "--param", "a=4")
        assert code == 0
        sup = float(out.split("sup |x|: ")[1].split("\n")[0])
        assert sup == pytest.approx(4.0, abs=1e-2)


class TestClassifyCommand:
    def test_sine_reaches_tau_periodic(self, capsys):
        code, out, _ = run(capsys, "classify", "--example", "sine")
        assert code == 0
        assert "label: tau-periodic" in out
        assert "hierarchy consistency: ok" in out

    def test_json_report_written(self, capsys, tmp_path):
        target = tmp_path / "res.json"
        code, _, _ = run(capsys, "classify", "--example", "sine",
                         "--out", str(target))
        assert code == 0
        data = json.loads(target.read_text())
        assert data["payload"]["label"] == "tau-periodic"
        assert data["payload"]["hierarchy_ok"] is True

    def test_csv_report_written(self, capsys, tmp_path):
        target = tmp_path / "res.csv"
        code, _, _ = run(capsys, "classify", "--example", "sine",
                         "--out", str(target), "--format", "csv")
        assert code == 0
        text = target.read_text()
        assert "label,tau-periodic" in text
        assert "verdict[remotely-almost-periodic],pass" in text

    def test_eps_override_changes_the_answer(self, capsys):
        base = ("classify", "--fn", "sin(ln(1+t))", "--span", "0:60",
                "--tau-max", "20", "--windows", "10:30;30:55")
        code, out, _ = run(capsys, *base)
        assert code == 0
        assert "label: remotely-tau-periodic" in out
        code, out, _ = run(capsys, *base, "--eps", "3")
        assert code == 0
        assert "label: almost-periodic" in out

    def test_pinned_tau_flows_through(self, capsys):
        code, out, _ = run(capsys, "classify", "--fn", "sin(t)",
                           "--span", "0:60", "--tau", str(2 * np.pi),
                           "--tau-max", "20", "--windows", "10:30;30:55")
        assert code == 0
        assert "candidate shift: 6.283185307" in out


    def test_negative_span_start_parses_and_terminates(self, capsys):
        code, out, err = run(capsys, "classify", "--fn", "sin(t)",
                             "--span", "-100:100")
        assert code == 0, err
        assert "hierarchy consistency: ok" in out
        code_eq, out_eq, _ = run(capsys, "classify", "--fn", "sin(t)",
                                 "--span=-100:100")
        assert code_eq == 0 and out_eq == out

    def test_window_before_the_span_is_clamped_for_the_triangle_checks(
            self, capsys):
        code, out, err = run(capsys, "classify", "--fn", "sin(t)",
                             "--span", "0:100", "--tau-max", "20",
                             "--windows", "-5:60")
        assert code == 0, err
        assert "note: triangle checks clamp window (-5.0, 60.0)" in out
        assert "hierarchy consistency: ok" in out

    def test_an_empty_last_window_skips_the_triangle_checks(self, capsys):
        # the window holds no grid point; the remote tests and the
        # triangle checks note it and the classification goes on
        code, out, err = run(capsys, "classify", "--fn", "sin(t)",
                             "--span", "0:60", "--tau-max", "20",
                             "--windows", "40.001:40.002")
        assert code == 0, err
        assert out.startswith("label: unclassified\n")
        assert ("note: triangle checks untestable: window contains no grid "
                "points") in out
        assert "hierarchy consistency: ok" in out

    def test_long_sine_with_its_period_pinned_is_tau_periodic(self, capsys):
        # central-difference derivatives erred by about 7e-3 at t = 2e5, so
        # the Hermite sup at 2*pi missed exact_eps 1e-5 and the label was
        # asymptotically-tau-periodic; with exact derivatives that sup is 1.3e-8
        code, out, err = run(capsys, "classify", "--fn", "sin(t)",
                             "--span", "0:200000", "--dt", "0.05",
                             "--tau", "6.283185307179586", "--tau-max", "20")
        assert code == 0, err
        assert out.startswith("label: tau-periodic\n")
        assert "hierarchy consistency: ok" in out

    def test_ode_defined_on_the_half_line_runs_from_a_span_at_zero(
            self, capsys):
        # sqrt(1+t) fails at the full line's validation time t = -19
        argv = ("classify", "--ode=-x^3+cos(sqrt(1+t))", "--u0", "0")
        code, out, err = run(capsys, *argv, "--span", "0:400")
        assert code == 0, err
        assert "hierarchy consistency: ok" in out
        code, _, err = run(capsys, *argv, "--span=-5:400")
        assert code == 2
        assert "rhs fails on the validation grid at t=-19.0" in err

    def test_ode_valid_on_the_full_line_keeps_its_field(self):
        fld = cli._mk_field("continuous", "-x+sin(t)", {}, t0=0.0)
        assert fld.time_domain == "full-line"
        assert fld.field_id == ScalarField(
            kind="continuous", rhs="-x+sin(t)", name="command-line").field_id


class TestScanCommand:
    def test_negative_window_start_parses(self, capsys):
        code, out, err = run(capsys, "scan", "--fn", "sin(t)", "--span",
                             "-100:100", "--mode", "remote", "--window",
                             "-50:0", "--tau-max", "20", "--tau-step", "0.05")
        assert code == 0, err
        assert "window -50:0" in out

    def test_json_scan_writes_every_sup_and_no_certified_field(self, capsys,
                                                              tmp_path):
        out = tmp_path / "scan.json"
        code, _, err = run(capsys, "scan", "--fn", "sin(t)", "--span", "0:60",
                           "--tau-max", "20", "--tau-step", "0.02",
                           "--format", "json", "--out", str(out))
        assert code == 0, err
        payload = json.loads(out.read_text())["payload"]
        assert set(payload) == {"mode", "eps", "taus", "sups", "admitted",
                                "assessable", "window", "density"}
        assert len(payload["sups"]) == 1001 and None not in payload["sups"]

    def test_threaded_scan_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ("scan", "--fn", "sin(t)", "--span", "0:120", "--eps", "0.5",
                "--tau-max", "40", "--tau-step", "0.01")
        code1, _, _ = run(capsys, *base, "--threads", "1", "--out", str(a))
        code4, _, _ = run(capsys, *base, "--threads", "4", "--out", str(b))
        assert code1 == code4 == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("cores,workers", [(3, 3), (10**6, 6)])
    def test_thread_count_is_capped_by_cores_and_shifts(
            self, capsys, tmp_path, monkeypatch, cores, workers):
        started = []

        class SerialThread:
            def __init__(self, target, args):
                self.run = lambda: target(*args)

            def start(self):
                started.append(self)
                self.run()

            def join(self):
                pass

        # the fake threads run in the caller, so the huge request is safe;
        # the calling thread compares one run itself
        monkeypatch.setattr(threading, "Thread", SerialThread)
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: cores)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ("scan", "--fn", "sin(t)", "--span", "0:120", "--eps", "0.5",
                "--tau-max", "0.05", "--tau-step", "0.01")
        assert run(capsys, *base, "--threads", "1", "--out", str(a))[0] == 0
        assert not started
        assert run(capsys, *base, "--threads", "100000",
                   "--out", str(b))[0] == 0
        assert len(started) == workers - 1
        assert a.read_bytes() == b.read_bytes()

    def test_two_threads_start_one_worker(self, capsys, tmp_path,
                                          monkeypatch):
        started = []

        class CountedThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", CountedThread)
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
        out = tmp_path / "o.csv"
        assert run(capsys, "scan", "--fn", "sin(t)", "--span", "0:120",
                   "--tau-max", "4", "--threads", "2",
                   "--out", str(out))[0] == 0
        assert len(started) == 1

    def test_thread_count_below_one_exits_2(self, capsys):
        code, _, err = run(capsys, "scan", "--fn", "sin(t)", "--span", "0:120",
                           "--tau-max", "1", "--threads", "0")
        assert code == 2
        assert "threads must be at least 1" in err

    def test_a_lone_zero_shift_is_not_relatively_dense(self, capsys):
        code, out, err = run(capsys, "scan", "--fn", "sin(t)", "--span",
                             "0:10", "--tau-max", "20", "--tau-step", "0.5")
        assert code == 0, err
        assert "admitted at eps=0.05: 1" in out
        assert "largest gap between admitted shifts: 9.5" in out
        assert "relative density: fail" in out

    def test_discrete_summary_shows_the_scanned_grid(self, capsys, tmp_path):
        out_json = tmp_path / "scan.json"
        code, out, err = run(capsys, "scan", "--example", "beverton-holt",
                             "--tau-step", "2.6", "--tau-max", "10.5",
                             "--format", "json", "--out", str(out_json))
        assert code == 0, err
        assert "shifts scanned: 4 (0 to 9, step 3)" in out
        # the digest keeps the requested grid
        data = json.loads(out_json.read_text())
        assert data["payload"]["taus"] == [0.0, 3.0, 6.0, 9.0]
        assert data["config_hash"] == canonical_hash(
            {"eps": 0.05, "tau_max": 10.5, "tau_step": 2.6, "mode": "global",
             "window": None})

    @pytest.mark.parametrize("span,t0", [("-50:50", -50.0),
                                         ("100:200", 100.0)])
    def test_global_csv_level_is_the_sampling_origin(self, capsys, tmp_path,
                                                     span, t0):
        target = tmp_path / "scan.csv"
        code, _, err = run(capsys, "scan", "--fn", "sin(t)", "--span", span,
                           "--tau-max", "10", "--out", str(target))
        assert code == 0, err
        rows = [l.split(",") for l in target.read_text().splitlines()
                if not l.startswith("#")][1:]
        admitted = [r for r in rows if r[2] == "true"]
        assert len(admitted) > 1
        assert all(float(r[3]) == t0 for r in admitted)
        assert all(r[3] == "" for r in rows if r[2] != "true")

    def test_scan_defaults_are_the_classifier_defaults(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ("scan", "--fn", "sin(t)", "--span", "0:60", "--format", "json")
        assert run(capsys, *base, "--out", str(a))[0] == 0
        assert run(capsys, *base, "--eps", "0.05", "--tau-max", "100",
                   "--tau-step", "0.01", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["config_hash"] == canonical_hash(
            {"eps": 0.05, "tau_max": 100.0, "tau_step": 0.01,
             "mode": "global", "window": None})

    def test_summary_lists_admitted_and_gap(self, capsys):
        code, out, _ = run(capsys, "scan", "--fn", "sin(t)", "--span", "0:120",
                           "--eps", "0.5", "--tau-max", "40",
                           "--tau-step", "0.01")
        assert code == 0
        assert "admitted at eps=0.5:" in out
        assert "largest gap" in out
        assert "relative density: pass" in out

    def test_remote_mode_requires_window(self, capsys):
        code, _, err = run(capsys, "scan", "--fn", "sin(t)", "--span", "0:120",
                           "--mode", "remote")
        assert code == 2
        assert "--window" in err

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_window_without_remote_mode_exits_2(self, capsys, tmp_path,
                                                source):
        # the window used to be ignored and the whole span scanned
        argv = ["scan", "--fn", "sin(t)", "--span", "0:100", "--tau-max", "10"]
        if source == "flag":
            argv += ["--window", "50:90"]
        else:
            cfg = tmp_path / "rf.ini"
            cfg.write_text("[scan]\nwindow = 50:90\n")
            argv += ["--config", str(cfg)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "--mode remote" in err

    def test_remote_mode_scans_late_window(self, capsys):
        code, out, _ = run(capsys, "scan", "--example", "sin-log",
                           "--mode", "remote", "--window", "1000:10000",
                           "--eps", "0.05", "--tau-max", "10",
                           "--tau-step", "0.1")
        assert code == 0
        assert "mode: remote (window 1000:10000)" in out
        assert "admitted at eps=0.05: 101" in out

    def test_csv_columns(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "scan", "--fn", "sin(t)", "--span", "0:60",
                         "--tau-max", "10", "--tau-step", "0.5",
                         "--out", str(target))
        assert code == 0
        lines = [l for l in target.read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "tau,sup,admitted,level"
        assert len(lines) == 22


class TestVerifyCommand:
    def test_fast_suites_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "all")
        assert code == 0, out
        assert "[FAIL]" not in out
        suites = [l[len("suite: "):] for l in out.splitlines()
                  if l.startswith("suite: ")]
        assert suites == ["contraction", "periodic", "monotone",
                          "counterexample", "beverton-holt", "parser"]
        assert out.splitlines()[-1] == "passed 27/27 checks"

    def test_check_lines_have_the_documented_shape(self, capsys):
        code, out, _ = run(capsys, "verify", "monotone")
        lines = out.splitlines()
        assert lines[0] == "suite: monotone"
        assert all(l.startswith("  [ok] ") for l in lines[1:-1])
        assert lines[-1].startswith("passed ")


class TestExamplesCommand:
    def test_lists_at_least_five_entries(self, capsys):
        code, out, _ = run(capsys, "examples")
        assert code == 0
        body = [l for l in out.splitlines() if l and not l.startswith(" ")]
        names = {l.split()[0] for l in body[1:] if not l.endswith(":")}
        assert {"sine", "two-tone", "sin-log", "slow-chirp",
                "beverton-holt"} <= names

    def test_shows_tail_bound_formulas(self, capsys):
        _, out, _ = run(capsys, "examples")
        assert "ln(1 + tau/(1+t))" in out
        assert "cbrt(pi^3 + t^2)" in out

    def test_explains_certificate_flags(self, capsys):
        _, out, _ = run(capsys, "examples")
        assert "certificate_ratio=2.98765" in out
        assert "certificate_holds=False" in out
        assert "mu*beta/(mu-1)" in out

    def test_single_entry_detail(self, capsys):
        code, out, _ = run(capsys, "examples", "sin-log")
        assert code == 0
        assert "curve: sin(ln(1+abs(t)))" in out
        assert "recommended:" in out

    def test_unknown_name_is_config_error(self, capsys):
        code, _, err = run(capsys, "examples", "nope")
        assert code == 2


class TestModuleEntryPoint:
    def test_python_dash_m_works(self):
        # the child imports the same rapflow as this test, installed or not
        proc = run_module("--version")
        assert proc.returncode == 0
        assert proc.stdout.startswith("rapflow ")

    @pytest.mark.parametrize("argv", [("examples",),
                                      ("classify", "--example", "sine")])
    def test_closed_stdout_exits_141_without_traceback(self, argv):
        # the read end is closed before the child starts, so its writes to
        # stdout fail with EPIPE, as when `| head` exits early
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_module(*argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""
