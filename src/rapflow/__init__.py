"""rapflow: simulate scalar nonautonomous systems and classify their recurrence.

The package has seven parts:

* :mod:`rapflow.expr` -- a small arithmetic expression language for
  right-hand sides ``f(t, x)`` and closed-form curves.
* :mod:`rapflow.dynamics` -- scalar fields, an adaptive Dormand-Prince 5(4)
  integrator, trajectories with cubic Hermite dense output,
  exact iteration of difference equations, and
  order/Lipschitz/contraction property checks.
* :mod:`rapflow.classify` -- tail-sup curves over window schedules,
  remote/asymptotic shift-periodicity tests, almost-period scans with
  relative-density reports, and a trajectory classifier.
* :mod:`rapflow.catalog` -- built-in analytic examples with closed-form
  oracles and sound tail bounds, plus the Beverton-Holt family.
* :mod:`rapflow.serialize` -- deterministic CSV and JSON writers stamped
  with a configuration hash and the tool version.
* :mod:`rapflow.verify` -- the seeded, self-contained checking suites
  behind ``rapflow verify``.
* :mod:`rapflow.cli` -- the ``rapflow`` command line tool.
"""

from ._version import VERSION as __version__  # noqa: E402
from . import catalog, classify, dynamics, expr, serialize  # noqa: E402,F401
from . import cli, verify  # noqa: E402,F401

__all__ = ["catalog", "classify", "cli", "dynamics", "expr", "serialize",
           "verify", "__version__"]
