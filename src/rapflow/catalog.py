"""Named example systems with closed-form oracles and analytic tail bounds.

Every entry can produce a trajectory at a recommended resolution, and carries
the classification it is expected to receive at that resolution.  Entries
with a known closed form also expose exact values through
:func:`oracle_value`, and the three log-drift examples expose sound bounds on
|phi(t + tau) - phi(t)| through :func:`tail_bound`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .classify import ClassifyConfig
from .dynamics import (IntegratorConfig, ScalarField, Trajectory, integrate, iterate,
                       sample_function)
from .expr import Var, _walk, parse

CHIRP_RHS = "2*t*cos((t^2+pi^3)^(1/3)) / (3*(t^2+pi^3)^(2/3))"
CHIRP_CURVE = "sin((t^2+pi^3)^(1/3))"
BH_RHS = "mu*K*x/(K+(mu-1)*x)"
DEFAULT_CAPACITY = "10+sin(ln(1+t))"
BH_DRIFTING_RHS = BH_RHS.replace("K", f"({DEFAULT_CAPACITY})")


@functools.lru_cache(maxsize=None)
def _parsed(text: str):
    """The catalog's expression texts, each parsed once, so that its
    compiled back ends and loops are built once per process."""
    return parse(text)


@dataclass
class AnalyticExample:
    """A catalogued system together with how to sample and read it.

    ``kind`` is 'curve' for explicitly known functions of t, 'ode' for
    continuous fields, 'map' for discrete ones.  ``recommended`` holds the
    sampling resolution and classifier settings under which
    ``expected_class`` is attained; coarser settings may legitimately
    return a weaker class or an inconclusive verdict.
    """

    name: str
    kind: str
    description: str
    expected_class: str
    curve: str | None = None
    rhs: str | None = None
    params: dict = field(default_factory=dict)
    state_domain: tuple = (-math.inf, math.inf)
    recommended: dict = field(default_factory=dict)
    notes: str = ""

    def system(self) -> ScalarField:
        if self.rhs is None:
            raise ValueError(f"{self.name!r} is a plain curve, not a system")
        return ScalarField(
            kind="continuous" if self.kind == "ode" else "discrete",
            rhs=_parsed(self.rhs), params=dict(self.params),
            state_domain=self.state_domain, name=self.name)

    def trajectory(self, u0: float | None = None, span=None, dt: float | None = None,
                   steps: int | None = None, config=None,
                   source: str | None = None) -> Trajectory:
        """Sample the example, defaulting to its recommended resolution.

        Only an argument left as None takes the recommended value.  An ode
        is integrated with ``config`` when one is given, and otherwise with
        the default integrator at output spacing ``dt``.

        For an ode carrying a reference curve, source='curve' samples that
        curve instead of integrating.  That is the right choice for very
        long horizons, where stepwise quadrature error accumulates while
        the sampled curve stays exact.  Mind what the curve is: for
        'slow-chirp' it is the solution shape itself (solutions differ
        from it by a constant), but for 'relax-sin' it is the limiting
        periodic response with the transient already gone.
        """
        if source not in (None, "integrate", "curve"):
            raise ValueError(f"unknown trajectory source {source!r}")
        rec = self.recommended
        span = rec.get("span") if span is None else span
        dt = rec.get("dt") if dt is None else dt
        u0 = rec.get("u0") if u0 is None else u0
        if self.kind == "curve" or source == "curve":
            if self.curve is None or self.kind == "map":
                raise ValueError(f"{self.name!r} has no known solution curve")
            return sample_function(_parsed(self.curve), span, dt,
                                   name=self.name)
        if self.kind == "ode":
            return integrate(self.system(), u0, span,
                             config or IntegratorConfig(dt_out=dt))
        return iterate(self.system(), u0,
                       rec.get("steps") if steps is None else steps)


def _entries() -> list[AnalyticExample]:
    return [
        AnalyticExample(
            name="sine", kind="curve", curve="sin(t)",
            description="plain sine wave, periodic with period 2*pi",
            expected_class="tau-periodic",
            recommended={"span": (0.0, 400.0), "dt": 0.01, "eps": 0.05,
                         "tau_range": (0.0, 100.0), "tau_step": 0.01,
                         "tau": 2 * math.pi}),
        AnalyticExample(
            name="two-tone", kind="curve", curve="sin(t)+sin(sqrt(2)*t)",
            description="sum of two incommensurate tones; almost periodic "
                        "but never exactly periodic",
            expected_class="almost-periodic",
            recommended={"span": (0.0, 400.0), "dt": 0.01, "eps": 0.5,
                         "tau_range": (0.0, 200.0), "tau_step": 0.01},
            notes="admitted shift sets thin out as eps shrinks: at eps 0.1 "
                  "the smallest positive admitted shift on [0, 200] is near "
                  "182, so classification at that eps needs a much longer "
                  "shift range"),
        AnalyticExample(
            name="sin-log", kind="curve", curve="sin(ln(1+abs(t)))",
            description="sine of a logarithmic clock; oscillates forever but "
                        "ever more slowly",
            expected_class="remotely-stationary",
            recommended={"span": (0.0, 1.02e5), "dt": 0.05, "eps": 0.05,
                         "tau_range": (0.0, 10.0), "tau_step": 0.1,
                         "windows": ((1.0e3, 1.0e4), (1.0e4, 1.0e5))},
            notes="|phi(t+tau) - phi(t)| <= log(1 + tau/(1+t)) for t >= 0, "
                  "so every shift is eventually an almost period, yet the "
                  "curve never settles toward a limit"),
        AnalyticExample(
            name="sin-log-drift", kind="curve", curve="sin(t+ln(1+abs(t)))",
            description="unit-frequency sine whose phase drifts "
                        "logarithmically",
            expected_class="remotely-tau-periodic",
            recommended={"span": (0.0, 1.02e4), "dt": 0.01, "eps": 0.05,
                         "tau": 2 * math.pi,
                         "tau_range": (0.0, 10.0), "tau_step": 0.1,
                         "windows": ((100.0, 1.0e3), (1.0e3, 1.0e4))},
            notes="remotely 2*pi-periodic but not remotely stationary: "
                  "shifts far from multiples of 2*pi keep the difference "
                  "large at all times; the phase drift also rules out "
                  "asymptotic almost periodicity"),
        AnalyticExample(
            name="slow-chirp", kind="ode", rhs=CHIRP_RHS, curve=CHIRP_CURVE,
            description="oscillator whose instantaneous frequency decays to "
                        "zero; bounded, non-convergent, eventually nearly "
                        "constant on every fixed-shift comparison",
            expected_class="remotely-tau-periodic",
            recommended={"span": (0.0, 1.02e5), "dt": 0.05, "u0": 0.0,
                         "eps": 0.1, "tau": 3.0,
                         "tau_range": (0.0, 10.0), "tau_step": 0.1,
                         "windows": ((1.0e3, 1.0e4), (1.0e4, 1.0e5))},
            notes="the solution through u0 is u0 + sin(cbrt(t^2 + pi^3)) "
                  "- sin(cbrt(pi^3)); witness sequences along which it "
                  "stays at u0 and at u0 + 1 show it converges to nothing. "
                  "Every fixed shift is eventually an almost period, but "
                  "the difference under a shift tau only falls below eps "
                  "once t is of order (tau/eps)^3, so verifying a shift of "
                  "size 17 or more needs a horizon beyond 1e6; at the "
                  "recommended horizon the honest verdict is remote "
                  "tau-periodicity for the pinned shift, not remote "
                  "stationarity"),
        AnalyticExample(
            name="relax-sin", kind="ode", rhs="-x+sin(t)",
            description="linearly damped response to a sine input; relaxes "
                        "onto the periodic response (sin(t) - cos(t))/2",
            expected_class="asymptotically-tau-periodic",
            curve="(sin(t)-cos(t))/2",
            recommended={"span": (0.0, 400.0), "dt": 0.01, "u0": 1.0,
                         "eps": 1e-4, "tau": 2 * math.pi},
            notes="solution is (sin(t)-cos(t))/2 + (u0+1/2)*exp(-t); the "
                  "separation of two solutions is exactly "
                  "|u1-u2|*exp(-t)"),
        AnalyticExample(
            name="beverton-holt", kind="map", rhs=BH_DRIFTING_RHS,
            params={"mu": 2.0},
            state_domain=(0.0, math.inf),
            description="population map with growth factor 2 and a slowly "
                        "drifting carrying capacity 10 + sin(ln(1+n))",
            expected_class="remotely-stationary",
            recommended={"steps": 102_000, "u0": 1.0, "eps": 0.05,
                         "tau_range": (0.0, 100.0), "tau_step": 1.0,
                         "windows": ((1.0e3, 1.0e4), (1.0e4, 1.0e5))},
            notes="orbits are eventually trapped near the drifting capacity; "
                  "the one-step map expands below the capacity range "
                  "(ratio 1.68 at x=1 with capacity 11) but contracts on "
                  "the invariant region [5, 22] with rate at most 0.946"),
        AnalyticExample(
            name="beverton-holt-const", kind="map", rhs=BH_RHS,
            params={"mu": 2.0, "K": 10.0},
            state_domain=(0.0, math.inf),
            description="population map with constant carrying capacity 10; "
                        "every positive orbit converges to 10",
            expected_class="asymptotically-stationary",
            recommended={"steps": 1000, "u0": 1.0, "eps": 1e-6,
                         "tau_range": (0.0, 100.0), "tau_step": 1.0},
            notes="closed form: x_n = K*x0 / (x0 + (K-x0)*mu^(-n))"),
    ]


def catalog() -> dict:
    """Name -> example, in presentation order."""
    return {e.name: e for e in _entries()}


def recommended_config(ex: AnalyticExample) -> ClassifyConfig:
    """Classifier settings matching an example's recommended resolution."""
    rec = ex.recommended
    kwargs = {}
    for key in ("eps", "tau", "tau_step"):
        if key in rec:
            kwargs[key] = rec[key]
    if "tau_range" in rec:
        kwargs["tau_range"] = tuple(rec["tau_range"])
    if "windows" in rec:
        kwargs["windows"] = tuple(tuple(w) for w in rec["windows"])
    return ClassifyConfig(**kwargs)


def get(name: str) -> AnalyticExample:
    table = catalog()
    if name not in table:
        known = ", ".join(sorted(table))
        raise KeyError(f"unknown example {name!r}; known examples: {known}")
    return table[name]


def oracle_value(name: str, t, u0: float | None = None) -> np.ndarray:
    """Exact solution values for entries with a closed form.

    For 'curve' entries u0 is ignored.  For systems the orbit through u0 is
    returned; omitting u0 gives the canonical curve (the particular solution
    for 'relax-sin', the orbit through the stated curve value for
    'slow-chirp').  'beverton-holt' has no closed form and raises.
    """
    t = np.asarray(t, float)
    if name == "sine":
        return np.sin(t)
    if name == "two-tone":
        return np.sin(t) + np.sin(math.sqrt(2.0) * t)
    if name == "sin-log":
        return np.sin(np.log1p(np.abs(t)))
    if name == "sin-log-drift":
        return np.sin(t + np.log1p(np.abs(t)))
    if name == "slow-chirp":
        base = np.sin(np.cbrt(t * t + math.pi**3))
        if u0 is None:
            return base
        return u0 + base - math.sin((math.pi**3) ** (1.0 / 3.0))
    if name == "relax-sin":
        base = (np.sin(t) - np.cos(t)) / 2.0
        if u0 is None:
            return base
        return base + (u0 + 0.5) * np.exp(-t)
    if name == "beverton-holt-const":
        if u0 is None:
            u0 = 1.0
        if np.any(t < 0) or np.any(np.abs(t - np.rint(t)) > 1e-9):
            raise ValueError("discrete orbits are defined at steps n >= 0")
        mu, K = 2.0, 10.0
        # written with mu^(-n) so large n cannot overflow
        return K * u0 / (u0 + (K - u0) * mu ** (-np.rint(t)))
    if name == "beverton-holt":
        raise ValueError("the drifting-capacity map has no closed form")
    raise KeyError(f"unknown example {name!r}")


def tail_bound(name: str, t, tau: float) -> np.ndarray:
    """Sound bound on |phi(t + tau) - phi(t)| for the log-drift examples.

    Valid for t >= 0 and tau >= 0.  The bounds decay to zero as t grows for
    'sin-log' and 'slow-chirp' (any tau), and for 'sin-log-drift' exactly
    when tau is a multiple of 2*pi.
    """
    t = np.asarray(t, float)
    if np.any(t < 0) or tau < 0:
        raise ValueError("tail bounds are stated for t >= 0 and tau >= 0")
    if name == "sin-log":
        return np.log1p(tau / (1.0 + t))
    if name == "slow-chirp":
        a = np.cbrt(math.pi**3 + (t + tau) ** 2)
        b = np.cbrt(math.pi**3 + t * t)
        return tau * (2.0 * t + tau) / (a * a + a * b + b * b)
    if name == "sin-log-drift":
        k = max(0.0, round(tau / (2.0 * math.pi)))
        phase = abs(tau - 2.0 * math.pi * k)
        return phase + np.log1p(tau / (1.0 + t))
    raise KeyError(f"no tail bound is catalogued for {name!r}")


def tail_bound_text(name: str) -> str:
    """The formula behind :func:`tail_bound`, as display text."""
    texts = {
        "sin-log": "|phi(t+tau) - phi(t)| <= ln(1 + tau/(1+t))",
        "slow-chirp": ("|phi(t+tau) - phi(t)| <= tau*(2t+tau) / "
                       "(a^2 + a*b + b^2) with a = cbrt(pi^3 + (t+tau)^2), "
                       "b = cbrt(pi^3 + t^2)"),
        "sin-log-drift": ("|phi(t+tau) - phi(t)| <= "
                          "dist(tau, 2*pi*Z) + ln(1 + tau/(1+t))"),
    }
    if name not in texts:
        raise KeyError(f"no tail bound is catalogued for {name!r}")
    return texts[name]


def nonconvergence_witnesses(count: int = 10) -> dict:
    """Times along which the canonical chirp orbit pins to two different values.

    Returns two increasing time sequences: along 'zero_times' the curve
    sin(cbrt(t^2 + pi^3)) equals 0, along 'one_times' it equals 1.  Their
    existence rules out convergence, so the orbit is remotely stationary
    without being asymptotically stationary.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    ks = np.arange(1, count + 1, dtype=float)
    zero_times = np.sqrt((ks * math.pi) ** 3 - math.pi**3)
    one_times = np.sqrt(((0.5 + 2.0 * ks) * math.pi) ** 3 - math.pi**3)
    return {"zero_times": zero_times, "zero_value": 0.0,
            "one_times": one_times, "one_value": 1.0}


def make_beverton_holt(mu: float = 2.0, capacity=DEFAULT_CAPACITY,
                       alpha: float = 9.0, beta: float = 11.0):
    """Build a Beverton-Holt field x_{n+1} = mu*K_n*x/(K_n + (mu-1)*x).

    ``capacity`` is either a number or an expression in t giving K_n at
    t = n; it must stay inside [alpha, beta], which is checked on the first
    thousand steps.  Returns (field, flags) where flags reports:

    - ``expansion_possible``: mu > 1, so the one-step map expands somewhere
      below the capacity range even though orbits are eventually trapped;
    - ``certificate_ratio``: the coarse non-expansiveness ratio
      mu * beta^2 / alpha^2; ``certificate_holds`` when it is <= 1.  The
      ratio exceeding 1 does not prove expansion on the trapped region, it
      only voids this particular certificate.
    """
    if not (mu > 0 and math.isfinite(mu)):
        raise ValueError("mu must be positive and finite")
    if not (0 < alpha <= beta) or not math.isfinite(beta):
        raise ValueError("need 0 < alpha <= beta < infinity")
    if isinstance(capacity, (int, float)):
        capacity = repr(float(capacity))
    cap_expr = parse(capacity)
    extra = cap_expr.params
    if extra:
        raise ValueError(
            f"capacity may depend on t only; unbound: {', '.join(sorted(extra))}")
    if Var("x") in _walk(cap_expr.root):
        raise ValueError("capacity may depend on t only; it mentions x")
    ns = np.arange(0.0, 1000.0)
    ks = cap_expr.eval_array(ns, 0.0, params={})
    if np.any(ks < alpha - 1e-9) or np.any(ks > beta + 1e-9):
        j = int(np.argmax((ks < alpha - 1e-9) | (ks > beta + 1e-9)))
        raise ValueError(
            f"capacity {float(ks[j])!r} at step {j} leaves [{alpha:g}, {beta:g}]")

    rhs = parse(BH_RHS.replace("K", f"({capacity})"))
    fld = ScalarField(
        kind="discrete", rhs=rhs, params={"mu": float(mu)},
        state_domain=(0.0, math.inf), name="beverton-holt")
    ratio = mu * beta * beta / (alpha * alpha)
    flags = {
        "expansion_possible": mu > 1.0,
        "certificate_ratio": ratio,
        "certificate_holds": ratio <= 1.0 + 1e-12,
        "sup_bound": mu * beta / (mu - 1.0) if mu > 1.0 else math.inf,
    }
    return fld, flags
