"""Self-contained checking suites behind ``rapflow verify``.

Each suite is a function of no arguments that returns a list of
``(ok, message)`` pairs, one per check.  Suites are deterministic and
self-contained: fixed seeds, no files, no network, and nothing printed;
the command line prints the pairs.  :data:`SUITES` maps each suite's name
to its function, in the order ``rapflow verify all`` runs them.
"""
from __future__ import annotations

import math

import numpy as np

from . import catalog
from .classify import (
    almost_period_scan,
    asymptotic_stationary_test,
    asymptotic_tau_periodic_test,
    classify_trajectory,
    remote_stationary_test,
    remote_tau_periodic_test,
    tail_sup,
)
from .dynamics import (
    IntegratorConfig,
    ScalarField,
    boundedness,
    check_lipschitz_one,
    check_monotone_in_x,
    contraction_gap,
    iterate,
    sample_function,
)
from .expr import ParseError, parse

__all__ = ["SUITES"]


def _suite_contraction():
    out = []
    cfg = IntegratorConfig(dt_out=0.02)
    horizon = 15.0
    decay = math.exp(-horizon)
    rng = np.random.default_rng(0)
    pairs = rng.uniform(-5.0, 5.0, size=(40, 2))
    all_pass = True
    worst = 0.0
    for u1, u2 in pairs:
        fld = ScalarField(kind="continuous", rhs="-x+sin(t)", name="damped-forced")
        _, gaps, rep = contraction_gap(fld, float(u1), float(u2),
                                       (0.0, horizon), cfg)
        all_pass = all_pass and rep.verdict == "pass"
        g0 = abs(float(u2 - u1))
        if g0 > 0:
            worst = max(worst, float(gaps[-1]) / (g0 * decay))
    out.append((all_pass,
                "forced linear decay: 40 seeded pairs never widen their gap"))
    out.append((worst <= 1.0 + 1e-3,
                f"final gaps sit on the exp(-t) envelope (worst ratio {worst:.9f})"))

    slow = ScalarField(kind="continuous", rhs="-x+sin(ln(1+t))",
                       time_domain="half-line", name="damped-log-forced")
    ok = True
    for u1, u2 in pairs[:5]:
        _, gaps, rep = contraction_gap(slow, float(u1), float(u2),
                                       (0.0, horizon), cfg)
        g0 = abs(float(u2 - u1))
        ok = ok and rep.verdict == "pass" and gaps[-1] <= g0 * decay * (1 + 1e-3)
    out.append((ok, "the forcing term does not affect the gap decay rate"))

    half = ScalarField(kind="discrete", rhs="x/2", name="halving")
    _, gaps, rep = contraction_gap(half, 1.0, -1.0, 30)
    exact = np.array_equal(gaps, 2.0 * 0.5 ** np.arange(31.0))
    out.append((rep.verdict == "pass" and exact,
                "halving map gaps are exactly 2^(1-n)"))

    bh, _ = catalog.make_beverton_holt()
    _, gaps, rep = contraction_gap(bh, 3.0, 12.0, 2000)
    out.append((rep.verdict == "pass" and gaps[-1] < 1e-6,
                f"drifting-capacity map: the pair (3, 12) closes its gap "
                f"monotonically (final gap {float(gaps[-1]):.3e})"))
    return out


def _suite_periodic():
    out = []
    two_pi = 2.0 * math.pi
    sine = catalog.get("sine")
    traj = sine.trajectory()
    scan = almost_period_scan(traj, 0.05, (0.0, 100.0), 0.01)
    dens = scan.density()
    out.append((dens.verdict == "pass" and dens.largest_gap <= 6.4,
                f"sine admits relatively dense shifts at eps=0.05 "
                f"(largest gap {dens.largest_gap:.3f})"))
    sup = tail_sup(traj, two_pi, (0.0, traj.t_end - two_pi))
    out.append((sup <= 1e-5,
                f"one full period reproduces the sine curve (sup {sup:.3e})"))
    bat = remote_stationary_test(traj, 0.05, ((100.0, 200.0), (200.0, 390.0)))
    out.append((bat.verdict == "fail",
                "sine is honestly rejected as remotely constant"))
    res = classify_trajectory(traj, catalog.recommended_config(sine))
    out.append((res.label == "tau-periodic"
                and res.candidate_tau is not None
                and abs(res.candidate_tau - two_pi) <= 1e-6
                and res.hierarchy_ok(),
                f"classifier lands on tau-periodic with the shift 2*pi "
                f"(candidate {res.candidate_tau:.9f})"))
    relax = catalog.get("relax-sin")
    rep = asymptotic_tau_periodic_test(relax.trajectory(), two_pi, 1e-4)
    out.append((rep.verdict == "pass",
                f"after its transient the relaxation response repeats with "
                f"the forcing period (statistic {rep.statistic:.3e})"))
    return out


def _suite_monotone():
    out = []
    bh, flags = catalog.make_beverton_holt()
    t_grid = np.linspace(0.0, 60.0, 31)
    rep = check_monotone_in_x(bh, t_grid, np.linspace(0.1, 30.0, 40))
    out.append((rep.verdict == "pass",
                "drifting-capacity map is monotone in the population"))
    rep = check_lipschitz_one(bh, t_grid, np.linspace(5.0, 22.0, 35))
    out.append((rep.verdict == "pass" and rep.extreme <= 0.95,
                f"on the trapped band [5, 22] the map contracts "
                f"(largest ratio {rep.extreme:.4f})"))
    rep = check_lipschitz_one(bh, t_grid, np.linspace(0.1, 2.0, 20))
    out.append((rep.verdict == "fail" and rep.extreme > 1.2,
                f"below the capacity band the map honestly expands "
                f"(largest ratio {rep.extreme:.4f})"))
    out.append((not flags["certificate_holds"]
                and flags["certificate_ratio"] > 1.0
                and flags["sup_bound"] == 22.0,
                f"the coarse ratio certificate is reported as not applying "
                f"(ratio {flags['certificate_ratio']:.4f} > 1)"))
    doubling = ScalarField(kind="discrete", rhs="2*x", name="doubling")
    rep = check_lipschitz_one(doubling, np.arange(3.0), np.linspace(-3.0, 3.0, 13))
    out.append((rep.verdict == "fail" and abs(rep.extreme - 2.0) <= 1e-9,
                "the doubling map is flagged as expanding with ratio 2"))
    return out


def _suite_counterexample():
    out = []
    w = catalog.nonconvergence_witnesses(5)
    at_zero = catalog.oracle_value("slow-chirp", w["zero_times"])
    at_one = catalog.oracle_value("slow-chirp", w["one_times"])
    ok = (np.max(np.abs(at_zero)) <= 1e-10
          and np.max(np.abs(at_one - 1.0)) <= 1e-10)
    out.append((ok, "witness times pin the chirp orbit to 0 and to 1, "
                    "so it never converges"))
    traj = sample_function(catalog.CHIRP_CURVE, (0.0, 1201.0), 0.05,
                           name="slow-chirp")
    rep = asymptotic_tau_periodic_test(traj, 1.0, 0.3)
    out.append((rep.verdict == "fail",
                f"no tail makes the chirp 1-shift small: residue "
                f"oscillation {rep.residue_osc:.3f}"))
    long_traj = sample_function(catalog.CHIRP_CURVE, (0.0, 102000.0), 0.05,
                                name="slow-chirp")
    curve = remote_tau_periodic_test(long_traj, 3.0, 0.1,
                                     ((1e3, 1e4), (1e4, 1e5)))
    sups = curve.sups
    out.append((curve.verdict == "pass" and sups[1] < sups[0],
                f"yet late windows shrink the 3-shift comparison "
                f"({sups[0]:.3f} then {sups[1]:.3f}): recurrence holds "
                f"only remotely"))
    ts = np.linspace(0.0, 5000.0, 2001)
    for name in ("slow-chirp", "sin-log"):
        diff = np.abs(catalog.oracle_value(name, ts + 3.0)
                      - catalog.oracle_value(name, ts))
        bound = catalog.tail_bound(name, ts, 3.0)
        out.append((bool(np.all(diff <= bound + 1e-12)),
                    f"the analytic tail bound for {name} dominates the "
                    f"measured 3-shift differences"))
    return out


def _suite_beverton_holt():
    out = []
    bh, flags = catalog.make_beverton_holt()
    traj = iterate(bh, 1.0, 102000)
    rep = boundedness(traj, flags["sup_bound"], tail_from=100.0)
    out.append((rep.verdict == "pass",
                f"orbit from 1 is eventually trapped below "
                f"mu*beta/(mu-1) = {flags['sup_bound']:g} "
                f"(tail sup {rep.extreme:.4f})"))
    bat = remote_stationary_test(traj, 0.05, ((1e3, 1e4), (1e4, 1e5)))
    out.append((bat.verdict == "pass",
                "every probe shift settles on late windows: the orbit is "
                "remotely stationary at eps=0.05"))
    asy = asymptotic_stationary_test(traj, 0.05)
    out.append((asy.verdict == "fail",
                f"the same orbit never converges (tail oscillation "
                f"{asy.statistic:.4f}): asymptotic constancy is rejected"))
    const, _ = catalog.make_beverton_holt(mu=2.0, capacity=10.0)
    fixed = iterate(const, 10.0, 200)
    out.append((bool(np.all(fixed.values == 10.0)),
                "at constant capacity the carrying value is an exact fixed point"))
    approach = iterate(const, 3.0, 200)
    tail = approach.values[60:]
    out.append((bool(np.all(np.abs(tail - 10.0) <= 1e-8)),
                "orbits reach the constant capacity to 1e-8 within 60 steps"))
    return out


_PARSER_SOURCES = (
    "sin(t)",
    "sin(t)+sin(sqrt(2)*t)",
    catalog.CHIRP_RHS,
    catalog.CHIRP_CURVE,
    catalog.BH_RHS,
    catalog.BH_DRIFTING_RHS,
    catalog.DEFAULT_CAPACITY,
    "-x+sin(ln(1+t))",
    "exp(-x^2)*ln(1+t)",
    "1/(1+x^2)",
    "-(x-sin(t))^3",
    "floor(t/2)*cos(pi*t)",
    "mu*x*(1-x/K)",
    "2^(-t)*cos(t)+e^(-x)",
    "abs(x)^(3/2)",
    "sqrt(x^2+1)-abs(x)",
)


def _suite_parser():
    out = []
    stable = 0
    for src in _PARSER_SOURCES:
        text1 = parse(src).to_text()
        text2 = parse(text1).to_text()
        stable += text1 == text2
    out.append((stable == len(_PARSER_SOURCES),
                f"printing and reparsing is idempotent on "
                f"{stable}/{len(_PARSER_SOURCES)} catalogued expressions"))
    rng = np.random.default_rng(20260814)
    alphabet = np.array(list("0123456789.+-*/^()tx, abcdefghilmnopqrs_"))
    parsed = rejected = crashed = 0
    for _ in range(3000):
        n = int(rng.integers(1, 33))
        s = "".join(rng.choice(alphabet, size=n))
        try:
            parse(s)
            parsed += 1
        except ParseError:
            rejected += 1
        except Exception:
            crashed += 1
    out.append((crashed == 0,
                f"3000 fuzzed strings: {parsed} parsed, {rejected} rejected "
                f"cleanly, {crashed} crashed"))
    return out


SUITES = {
    "contraction": _suite_contraction,
    "periodic": _suite_periodic,
    "monotone": _suite_monotone,
    "counterexample": _suite_counterexample,
    "beverton-holt": _suite_beverton_holt,
    "parser": _suite_parser,
}
