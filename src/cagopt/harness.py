"""Run configuration, dispatch, trace/summary output, and suite execution."""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

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


def run(config: RunConfig) -> SolverResult:
    """Build the problem, resolve L/ell (override beats family default) into
    a ``SolverConfig``, dispatch the solver and write any requested outputs.

    Raises ``InvalidSpec`` when the resolved moduli violate 0 <= ell <= L.
    """
    problem = config.problem.build()
    settings = SolverConfig(
        L=config.L if config.L is not None else problem.default_L,
        ell=config.ell if config.ell is not None else problem.default_ell,
        gtol=config.gtol,
        max_evals=config.max_evals,
        conjugate_z=config.conjugate_z,
    )
    x0 = np.zeros(problem.n)

    if config.solver == "lcg":
        qp = quad_diag_system(config.problem.n)
        result = lcg_minimize(qp, x0, settings.gtol, settings.max_evals)
    else:
        # looked up at call time, so that wrappers patched into this module apply
        solve = {"cag": cag_minimize, "ncg": ncg_minimize, "ag": ag_minimize}[config.solver]
        result = solve(problem, x0, settings)

    if config.trace_path:
        write_trace_csv(config.trace_path, result.trace)
    if config.json_path:
        summary = {
            "problem": problem.name,
            "solver": config.solver_name,
            "status": result.status.value,
            "iterations": result.iterations,
            "evaluations": result.evaluations,
            "f_final": result.f_final,
            "gnorm_final": result.gnorm_final,
            "L": settings.L,
            "ell": settings.ell,
            "gtol": config.gtol,
        }
        with open(config.json_path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result


@dataclass
class SuiteRow:
    """One line of the suite summary table."""

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
    an ``ell`` override above the family's default L (``quad n=10 ell=200``,
    L = 100), which ``run`` rejects once the problem is built: that row gets
    status ``invalid`` with no evaluations, and the suite goes on.  The
    ``best`` flag marks, within each problem, the converged run with the
    fewest evaluations.
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


def format_suite_table(rows: list[SuiteRow]) -> str:
    """Aligned text table; '*' in the best column marks the per-problem winner."""
    header = ("problem", "solver", "status", "iters", "evals", "f_final", "gnorm_final", "time_s", "best")
    body = [
        (
            r.problem,
            r.solver,
            r.status.value,
            str(r.iterations),
            str(r.evaluations),
            f"{r.f_final:.6e}",
            f"{r.gnorm_final:.3e}",
            f"{r.wall_time:.2f}",
            "*" if r.best else "",
        )
        for r in rows
    ]
    widths = [max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i]) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def write_suite_csv(path: str | Path, rows: list[SuiteRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["problem", "solver", "status", "iterations", "evaluations", "f_final", "gnorm_final", "wall_time", "best"]
        )
        for r in rows:
            writer.writerow(
                [
                    r.problem,
                    r.solver,
                    r.status.value,
                    r.iterations,
                    r.evaluations,
                    _format_float(r.f_final),
                    _format_float(r.gnorm_final),
                    f"{r.wall_time:.3f}",
                    int(r.best),
                ]
            )


def parse_suite_config(path: str | Path) -> list[RunConfig]:
    """One run per non-comment line, as space-separated key=value pairs.

    Problem keys: family, n, m, lambda, delta, sigma, tau, seed.
    Run keys: solver, gtol, max_evals, L, ell, conjugate_z, trace, json.
    Any error in a line raises ``InvalidSpec`` prefixed with ``path:lineno``.
    """
    configs = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            pairs = {}
            for token in line.split():
                if "=" not in token:
                    raise InvalidSpec(f"expected key=value, got {token!r}")
                key, _, value = token.partition("=")
                pairs[key] = value
            configs.append(run_config_from_kv(pairs))
        except ValueError as e:  # InvalidSpec, or a value that is not a number
            raise InvalidSpec(f"{path}:{lineno}: {e}") from e
    return configs


_RUN_KEYS = {"solver", "gtol", "max_evals", "L", "ell", "conjugate_z", "trace", "json"}


def run_config_from_kv(pairs: dict[str, str]) -> RunConfig:
    unknown = set(pairs) - PROBLEM_KEYS - _RUN_KEYS
    if unknown:
        raise InvalidSpec(f"unknown keys {sorted(unknown)}")
    if "solver" not in pairs:
        raise InvalidSpec("missing solver=...")
    spec = ProblemSpec.from_kv({k: v for k, v in pairs.items() if k in PROBLEM_KEYS})
    return RunConfig(
        problem=spec,
        solver=pairs["solver"],
        gtol=float(pairs.get("gtol", DEFAULT_GTOL)),
        max_evals=int(pairs.get("max_evals", DEFAULT_MAX_EVALS)),
        L=float(pairs["L"]) if "L" in pairs else None,
        ell=float(pairs["ell"]) if "ell" in pairs else None,
        conjugate_z=pairs.get("conjugate_z", "false").lower() in ("1", "true", "yes"),
        trace_path=pairs.get("trace"),
        json_path=pairs.get("json"),
    )
