"""cagopt: first-order convex solvers built around a guarded conjugate gradient method.

The main solver (``cag_minimize``) takes nonlinear conjugate gradient steps
gated by a Nesterov estimate-sequence progress test and falls back to
accelerated gradient steps when the test fails, giving CG behaviour on
quadratics and the accelerated worst-case rate in general.  Baselines
(linear CG, plain Hager-Zhang NCG, accelerated gradient), four benchmark
problem families and a reproducible run harness round out the package.
``cag_minimize``, ``ncg_minimize`` and ``ag_minimize`` all take their
settings (L, ell, gtol, max_evals, conjugate_z) as one ``SolverConfig``.
Every solver returns a ``SolverResult`` whose trace is read through its
columns: ``res.trace.f[i]`` is f at row i (see ``results.Trace``).

The package namespace holds the solver, problem and harness API; single
steps, the estimate sequence and other internals live in their submodules.
"""

from .baselines import ag_minimize, lcg_minimize, ncg_minimize
from .cag import SolverConfig, cag_minimize
from .errors import InvalidSpec, NumericalFailure
from .harness import (
    RunConfig,
    SuiteRow,
    format_suite_table,
    parse_suite_config,
    run,
    run_suite,
    write_suite_csv,
    write_trace_csv,
)
from .oracle import EvalCounter, ObjectiveProblem, evaluate_counted
from .problems import (
    ProblemSpec,
    QuadraticProblem,
    make_abpdn,
    make_huber,
    make_logistic,
    make_quad_diag,
    quad_diag_system,
)
from .results import SolverResult, Status, StepKind

__version__ = "0.1.0"

__all__ = [
    "EvalCounter",
    "InvalidSpec",
    "NumericalFailure",
    "ObjectiveProblem",
    "ProblemSpec",
    "QuadraticProblem",
    "RunConfig",
    "SolverConfig",
    "SolverResult",
    "Status",
    "StepKind",
    "SuiteRow",
    "ag_minimize",
    "cag_minimize",
    "evaluate_counted",
    "format_suite_table",
    "lcg_minimize",
    "make_abpdn",
    "make_huber",
    "make_logistic",
    "make_quad_diag",
    "ncg_minimize",
    "parse_suite_config",
    "quad_diag_system",
    "run",
    "run_suite",
    "write_suite_csv",
    "write_trace_csv",
]
