"""Run configuration, dispatch, trace/summary output, and suite execution.

``run_config_from_tokens`` parses one run from key=value tokens, a suite
line or ``cagopt run``'s arguments: ``family=quad n=100 solver=cag``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .baselines import ag_minimize, lcg_minimize, ncg_minimize
from .cag import DEFAULT_GTOL, DEFAULT_MAX_EVALS, SolverConfig, cag_minimize, check_settings
from .errors import InvalidSpec
from .problems import PROBLEM_KEYS, ProblemSpec, quad_diag_system
from .results import SolverResult, Status, TraceRecord

SOLVERS = ("cag", "ag", "ncg", "lcg")


@dataclass(frozen=True)
class RunConfig:
    """One (problem, solver) run with optional overrides and output paths."""

    problem: ProblemSpec
    solver: str
    gtol: float = DEFAULT_GTOL
    max_evals: int = DEFAULT_MAX_EVALS
    L: float | None = None
    ell: float | None = None
    conjugate_z: bool = False
    trace_path: str | None = None
    json_path: str | None = None

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise InvalidSpec(f"unknown solver {self.solver!r}, expected one of {SOLVERS}")
        if self.solver == "lcg" and self.problem.family != "quad":
            raise InvalidSpec("the lcg solver applies only to the quad family")
        if self.conjugate_z and self.solver != "cag":
            raise InvalidSpec("conjugate_z applies only to the cag solver")
        if self.solver == "lcg" and (self.L is not None or self.ell is not None):
            raise InvalidSpec("the lcg solver takes no L or ell")
        check_settings(self.L, self.ell, self.gtol, self.max_evals)

    @property
    def solver_name(self) -> str:
        """The solver's name in the suite and the JSON summary: cag+z in conjugate-z mode."""
        return "cag+z" if self.conjugate_z else self.solver


def _format_float(v: float) -> str:
    return f"{v:.17g}"


def write_trace_csv(path: str | Path, trace: list[TraceRecord]) -> None:
    """CSV with header iter,evals,f,gnorm,phistar,step; 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "evals", "f", "gnorm", "phistar", "step"])
        for r in trace:
            writer.writerow(
                [
                    r.iteration,
                    r.evals,
                    _format_float(r.f),
                    _format_float(r.gnorm),
                    _format_float(r.phi_star),
                    r.step.value,
                ]
            )


def _check_writable(path: str | Path) -> None:
    """Raise ``InvalidSpec`` unless ``path`` names a file in a writable directory."""
    folder = Path(path).parent
    if Path(path).is_dir() or not (folder.is_dir() and os.access(folder, os.W_OK | os.X_OK)):
        raise InvalidSpec(f"cannot write {path}: not a file in a writable directory")


def run(config: RunConfig) -> SolverResult:
    """Build the problem, resolve L/ell (override beats family default) into
    a ``SolverConfig``, dispatch the solver and write any requested outputs.

    An lcg row builds only the quadratic's operator, since lcg reads neither
    L nor ell; its JSON summary writes both as null.  Raises ``InvalidSpec``
    before anything is built when a trace or json path is a directory or its
    directory is missing or not writable, and when the resolved moduli
    violate 0 <= ell <= L.
    """
    for path in filter(None, (config.trace_path, config.json_path)):
        _check_writable(path)
    if config.solver == "lcg":
        qp = quad_diag_system(config.problem.n)
        result = lcg_minimize(qp, np.zeros(qp.n), config.gtol, config.max_evals)
        L = ell = None
    else:
        problem = config.problem.build()
        settings = SolverConfig(
            L=config.L if config.L is not None else problem.default_L,
            ell=config.ell if config.ell is not None else problem.default_ell,
            gtol=config.gtol,
            max_evals=config.max_evals,
            conjugate_z=config.conjugate_z,
        )
        # looked up at call time, so that wrappers patched into this module apply
        solve = {"cag": cag_minimize, "ncg": ncg_minimize, "ag": ag_minimize}[config.solver]
        result = solve(problem, np.zeros(problem.n), settings)
        L, ell = settings.L, settings.ell

    if config.trace_path:
        write_trace_csv(config.trace_path, result.trace)
    if config.json_path:
        summary = {
            "problem": config.problem.label(),
            "solver": config.solver_name,
            "status": result.status.value,
            "iterations": result.iterations,
            "evaluations": result.evaluations,
            "f_final": result.f_final,
            "gnorm_final": result.gnorm_final,
            "L": L,
            "ell": ell,
            "gtol": config.gtol,
        }
        with open(config.json_path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result


@dataclass
class SuiteRow:
    """One line of the suite summary table.

    ``wall_time`` is the whole ``run`` call.  It includes building the
    problem only when the row before did not build the same instance, since
    ``ProblemSpec.build`` keeps the last one.
    """

    problem: str
    solver: str
    status: Status
    iterations: int
    evaluations: int
    f_final: float
    gnorm_final: float
    wall_time: float
    best: bool = False


def run_suite(configs: list[RunConfig]) -> list[SuiteRow]:
    """Execute all runs one after another, in input order, and flag the
    per-problem best.

    A failed run becomes a row with its terminal status; the suite never
    aborts.  Bad rows are rejected when their ``RunConfig`` is built, except
    an output path that cannot be written and an ``ell`` override above the
    family's default L (``quad n=10 ell=200``, L = 100), which ``run``
    rejects: that row gets status ``invalid`` with no evaluations, and the
    suite goes on.  The ``best`` flag marks, within each problem, the
    converged run with the fewest evaluations.

    Consecutive rows on one instance build it once (``ProblemSpec.build``),
    so group rows by instance: only the first row of a group pays for the
    build in its ``wall_time``.
    """
    def one(config: RunConfig) -> SuiteRow:
        start = time.perf_counter()
        try:
            result = run(config)
        except InvalidSpec:
            result = SolverResult(Status.INVALID, np.empty(0), math.nan, math.nan, 0, 0, [])
        elapsed = time.perf_counter() - start
        return SuiteRow(
            problem=config.problem.label(),
            solver=config.solver_name,
            status=result.status,
            iterations=result.iterations,
            evaluations=result.evaluations,
            f_final=result.f_final,
            gnorm_final=result.gnorm_final,
            wall_time=elapsed,
        )

    rows = [one(c) for c in configs]
    by_problem: dict[str, list[SuiteRow]] = {}
    for row in rows:
        by_problem.setdefault(row.problem, []).append(row)
    for group in by_problem.values():
        converged = [r for r in group if r.status is Status.CONVERGED]
        if converged:
            min(converged, key=lambda r: r.evaluations).best = True
    return rows


# Each suite column: table header, CSV header, table cell, CSV cell.
_SUITE_COLUMNS = (
    ("problem", "problem", lambda r: r.problem, lambda r: r.problem),
    ("solver", "solver", lambda r: r.solver, lambda r: r.solver),
    ("status", "status", lambda r: r.status.value, lambda r: r.status.value),
    ("iters", "iterations", lambda r: str(r.iterations), lambda r: r.iterations),
    ("evals", "evaluations", lambda r: str(r.evaluations), lambda r: r.evaluations),
    ("f_final", "f_final", lambda r: f"{r.f_final:.6e}", lambda r: _format_float(r.f_final)),
    ("gnorm_final", "gnorm_final", lambda r: f"{r.gnorm_final:.3e}",
     lambda r: _format_float(r.gnorm_final)),
    ("time_s", "wall_time", lambda r: f"{r.wall_time:.2f}", lambda r: f"{r.wall_time:.3f}"),
    ("best", "best", lambda r: "*" if r.best else "", lambda r: int(r.best)),
)


def format_suite_table(rows: list[SuiteRow]) -> str:
    """Aligned text table; '*' in the best column marks the per-problem winner."""
    lines = [[header for header, *_ in _SUITE_COLUMNS]]
    lines += [[cell(r) for _, _, cell, _ in _SUITE_COLUMNS] for r in rows]
    widths = [max(map(len, column)) for column in zip(*lines)]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in lines
    )


def write_suite_csv(path: str | Path, rows: list[SuiteRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([header for _, header, _, _ in _SUITE_COLUMNS])
        writer.writerows([cell(r) for *_, cell in _SUITE_COLUMNS] for r in rows)


def _flag(value: str) -> bool:
    if value.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise InvalidSpec(f"conjugate_z takes 1/0/true/false/yes/no, got {value!r}")
    return value.lower() in ("1", "true", "yes")


# key=value name, RunConfig field and parser of each run setting, as in problems._PARAMS.
_RUN_PARAMS = (
    ("solver", "solver", str),
    ("gtol", "gtol", float),
    ("max_evals", "max_evals", int),
    ("L", "L", float),
    ("ell", "ell", float),
    ("conjugate_z", "conjugate_z", _flag),
    ("trace", "trace_path", str),
    ("json", "json_path", str),
)
RUN_KEYS = frozenset(key for key, _, _ in _RUN_PARAMS)


def run_config_from_tokens(tokens: Iterable[str]) -> RunConfig:
    """A ``RunConfig`` from key=value tokens over ``PROBLEM_KEYS | RUN_KEYS``;
    family, n and solver are required, an unset key keeps its default.  A value
    that is not a number raises ``ValueError``, any other error ``InvalidSpec``."""
    pairs = {}
    for token in tokens:
        key, _, value = token.partition("=")
        if not (key and value):
            raise InvalidSpec(f"expected key=value, got {token!r}")
        if key in pairs:
            raise InvalidSpec(f"repeated key {key}")
        pairs[key] = value
    unknown = pairs.keys() - PROBLEM_KEYS - RUN_KEYS
    if unknown:
        raise InvalidSpec(f"unknown keys {sorted(unknown)}")
    if "solver" not in pairs:
        raise InvalidSpec("missing solver=...")
    spec = ProblemSpec.from_kv({k: v for k, v in pairs.items() if k in PROBLEM_KEYS})
    settings = {field: parse(pairs[key]) for key, field, parse in _RUN_PARAMS if key in pairs}
    return RunConfig(problem=spec, **settings)


def parse_suite_config(path: str | Path) -> list[RunConfig]:
    """One ``run_config_from_tokens`` run per line, skipping blank lines and
    '#' comments.  Any error in a line raises ``InvalidSpec`` prefixed with
    ``path:lineno``; a file that cannot be read as text raises it too."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise InvalidSpec(f"cannot read {path}: {e}") from e
    configs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            configs.append(run_config_from_tokens(line.split()))
        except ValueError as e:  # InvalidSpec, or a value that is not a number
            raise InvalidSpec(f"{path}:{lineno}: {e}") from e
    return configs
