"""Run configuration, dispatch, trace/summary output, and suite execution.

``run_config_from_tokens`` parses one run from key=value tokens, a suite
line or ``cagopt run``'s arguments: ``family=quad n=100 solver=cag``.  All
output-file checks are made here, by ``_check_writable`` and ``_claim_outputs``,
and every run-summary field is declared here once, as a field of ``SuiteRow``.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from .baselines import ag_minimize, lcg_minimize, ncg_minimize
from .cag import DEFAULT_GTOL, DEFAULT_MAX_EVALS, SolverConfig, cag_minimize, check_settings
from .errors import InvalidSpec
from .problems import _PARAMS, PROBLEM_KEYS, ProblemSpec, quad_diag_system
from .results import SolverResult, Status, Trace

SOLVERS = ("cag", "ag", "ncg", "lcg")
_EXACT = "{:.17g}".format  # a float in a CSV cell


@dataclass(frozen=True)
class RunConfig:
    """One (problem, solver) run, its overrides (lcg takes no L or ell, ncg no ell) and outputs."""

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
        ignored = {"lcg": ("L", "ell"), "ncg": ("ell",)}.get(self.solver, ())
        if any(getattr(self, name) is not None for name in ignored):
            raise InvalidSpec(f"the {self.solver} solver takes no {' or '.join(ignored)}")
        check_settings(self.L, self.ell, self.gtol, self.max_evals)

    @property
    def solver_name(self) -> str:
        """The solver's name in the suite and the JSON summary: cag+z in conjugate-z mode."""
        return "cag+z" if self.conjugate_z else self.solver


def write_trace_csv(path: str | Path, trace: Trace) -> None:
    """CSV with header iter,evals,f,gnorm,phistar,step, one line per trace
    row; 17 significant digits and \r\n line ends, as ``csv.writer`` would
    write them, each line formatted in one step."""
    with open(path, "w", newline="") as fh:
        fh.write("iter,evals,f,gnorm,phistar,step\r\n")
        fh.writelines(map("%d,%d,%.17g,%.17g,%.17g,%s\r\n".__mod__, zip(
            itertools.count(), trace.evals, trace.f, trace.gnorm, trace.phi_star,
            (kind.value for kind in trace.kinds()),
        )))


def _check_writable(path: str | Path) -> None:
    """Raise ``InvalidSpec`` unless ``path`` names a file in a writable directory."""
    folder = Path(path).parent
    if Path(path).is_dir() or not (folder.is_dir() and os.access(folder, os.W_OK | os.X_OK)):
        raise InvalidSpec(f"cannot write {path}: not a file in a writable directory")


def _claim_outputs(taken: dict[Path, str], outputs: Iterable[tuple[str, str | None]],
                   owner: str = "") -> None:
    """Add each ``(key, path)`` output with a path to ``taken``, which maps
    resolved files to their names plus ``owner``, as in "the trace= file t.csv
    of line 3".  Raises ``InvalidSpec`` on a taken file, naming an option's
    path with its flag."""
    for key, path in ((key, path) for key, path in outputs if path):
        resolved = Path(path).resolve()
        if resolved in taken:
            named = f"{key} {path}" if key.startswith("--") else path
            raise InvalidSpec(f"{named} would overwrite {taken[resolved]}")
        taken[resolved] = f"the {key} file {path}{owner}"


def _row_outputs(config: RunConfig) -> tuple[tuple[str, str | None], ...]:
    return ("trace=", config.trace_path), ("json=", config.json_path)


def run(config: RunConfig) -> SolverResult:
    """Build the problem, resolve L/ell (override beats family default) into
    a ``SolverConfig``, dispatch the solver and write any requested outputs.

    An lcg row takes only the quadratic's operator, from ``quad_diag_system``,
    which holds it for the quad family's instance and every lcg row on that
    n, since lcg reads neither L nor ell; an ncg row checks no family ell
    against L, as ncg reads no ell.  Their JSON summaries write what they do
    not read as null; every summary writes a non-finite float as null too, so
    that the json= file is strict JSON (RFC 8259).  Raises
    ``InvalidSpec`` before anything is built when a trace or json path cannot
    be written or the json path names the trace file, and when the resolved
    moduli violate 0 <= ell <= L.
    """
    for path in filter(None, (config.trace_path, config.json_path)):
        _check_writable(path)
    _claim_outputs({}, _row_outputs(config))
    if config.solver == "lcg":
        qp = quad_diag_system(config.problem.n)
        result = lcg_minimize(qp, np.zeros(qp.n), config.gtol, config.max_evals)
        L = ell = None
    else:
        problem = config.problem.build()
        ncg = config.solver == "ncg"
        settings = SolverConfig(
            L=config.L if config.L is not None else problem.default_L,
            ell=config.ell if config.ell is not None else 0.0 if ncg else problem.default_ell,
            gtol=config.gtol,
            max_evals=config.max_evals,
            conjugate_z=config.conjugate_z,
        )
        # looked up at call time, so that wrappers patched into this module apply
        solve = {"cag": cag_minimize, "ncg": ncg_minimize, "ag": ag_minimize}[config.solver]
        result = solve(problem, np.zeros(problem.n), settings)
        L, ell = settings.L, None if ncg else settings.ell

    if config.trace_path:
        write_trace_csv(config.trace_path, result.trace)
    if config.json_path:
        row = _summary(config, result, L=L, ell=ell)
        with open(config.json_path, "w") as fh:
            json.dump({f.name: _json_value(getattr(row, f.name)) for f in fields(row)
                       if f.metadata["json"]}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result


def _json_value(value: Any) -> Any:
    """A summary value as the json= file writes it: a non-finite float as null."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _field(header: str | None, cell: Callable = str, csv: Callable | None = None,
           line: str = "", json: bool = True, **default) -> Any:
    """A summary field: its table header (None: not in the table or CSV), table and
    CSV cell formats (CSV: the table's unless given), its format string in
    ``cagopt run``'s line ("": not in it) and whether the json= file has it."""
    return field(metadata=dict(header=header, cell=cell, csv=csv or cell, line=line, json=json),
                 **default)


@dataclass
class SuiteRow:
    """One run's summary, for the suite table and CSV, the json= file and
    ``cagopt run``'s line.  Each field is declared once, here: its name is its
    JSON key and CSV header, and its ``_field`` gives the rest.

    ``wall_time`` is the whole ``run`` call in a suite, NaN elsewhere.  It
    includes building the problem unless ``ProblemSpec.build`` still holds
    the instance, as it keeps the last one built for each family; an lcg
    row's includes building the operator unless ``quad_diag_system`` still
    holds it, as it keeps the last one a quad build or lcg row made.  ``L`` and
    ``ell`` are set, as ``run`` resolved them, only for the json= file.
    """

    problem: str = _field("problem")
    solver: str = _field("solver", line="{}: ")
    status: Status = _field("status", "{.value}".format, line="{.value}")
    iterations: int = _field("iters", line="  iterations={}")
    evaluations: int = _field("evals", line="  evaluations={}")
    f_final: float = _field("f_final", "{:.6e}".format, _EXACT, line="  f={:.9e}")
    gnorm_final: float = _field("gnorm_final", "{:.3e}".format, _EXACT, line="  gnorm={:.3e}")
    wall_time: float = _field("time_s", "{:.2f}".format, "{:.3f}".format, json=False)
    best: bool = _field("best", lambda b: "*" if b else "", int, json=False, default=False)
    L: float | None = _field(None, default=None)
    ell: float | None = _field(None, default=None)
    gtol: float | None = _field(None, default=None)


def _summary(config: RunConfig, result: SolverResult, **moduli) -> SuiteRow:
    return SuiteRow(config.problem.label(), config.solver_name, result.status, result.iterations,
                    result.evaluations, result.f_final, result.gnorm_final, math.nan,
                    gtol=config.gtol, **moduli)


def format_run_line(config: RunConfig, result: SolverResult) -> str:
    """``cagopt run``'s line: each summary field that has a part in it, in order."""
    row = _summary(config, result)
    return "".join(f.metadata["line"].format(getattr(row, f.name)) for f in fields(row))


def run_suite(configs: list[RunConfig]) -> list[SuiteRow]:
    """Execute all runs one after another, in input order, and flag the
    best run of each problem label.

    A failed run becomes a row with its terminal status; the suite never
    aborts.  Bad rows are rejected when their ``RunConfig`` is built, except
    an output path that cannot be written or that an earlier row names too,
    and an ``ell`` override above the family's default L (``quad n=10
    ell=200``, L = 100): that row gets status ``invalid``, builds and writes
    nothing, and the suite goes on.
    The ``best`` flag marks, among the rows of one label (one instance, see
    ``ProblemSpec.label``), the converged run with the fewest evaluations.

    A row pays for its build in its ``wall_time`` unless an earlier row of
    its family built the same instance and none built another since
    (``ProblemSpec.build`` keeps one instance per family): rows of other
    families between them do not matter.  An lcg row shares the operator
    of an earlier quad or lcg row on its n unless a quad build or an lcg row
    on another n came between them (``quad_diag_system`` keeps one).
    """
    taken: dict[Path, str] = {}  # every row's outputs, so no row overwrites another's

    def one(config: RunConfig) -> SuiteRow:
        start = time.perf_counter()
        try:
            _claim_outputs(taken, _row_outputs(config))
            row = _summary(config, run(config))
        except InvalidSpec:
            row = SuiteRow(config.problem.label(), config.solver_name, Status.INVALID, 0, 0,
                           math.nan, math.nan, math.nan)
        row.wall_time = time.perf_counter() - start
        return row

    rows = [one(c) for c in configs]
    converged: dict[str, list[SuiteRow]] = {}
    for row in rows:
        if row.status is Status.CONVERGED:
            converged.setdefault(row.problem, []).append(row)
    for group in converged.values():
        min(group, key=lambda r: r.evaluations).best = True
    return rows


def format_suite_table(rows: list[SuiteRow]) -> str:
    """Aligned text table; '*' in the best column marks the per-problem winner."""
    columns = [f for f in fields(SuiteRow) if f.metadata["header"]]
    lines = [[f.metadata["header"] for f in columns]]
    lines += [[f.metadata["cell"](getattr(r, f.name)) for f in columns] for r in rows]
    widths = [max(map(len, column)) for column in zip(*lines)]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in lines
    )


def write_suite_csv(path: str | Path, rows: list[SuiteRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        columns = [f for f in fields(SuiteRow) if f.metadata["header"]]
        writer.writerow([f.name for f in columns])
        writer.writerows([f.metadata["csv"](getattr(r, f.name)) for f in columns] for r in rows)


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
    one message names each of family, n and solver left out, and an unset key keeps
    its default.  A value that is not a number raises ``ValueError``, any other
    error ``InvalidSpec``."""
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
    missing = [f"{key}=..." for key in ("family", "n", "solver") if key not in pairs]
    if missing:
        raise InvalidSpec(f"missing {' '.join(missing)}")
    params, settings = ({name: parse(pairs[key]) for key, name, parse in table if key in pairs}
                        for table in (_PARAMS, _RUN_PARAMS))
    return RunConfig(ProblemSpec(pairs["family"], int(pairs["n"]), **params), **settings)


def parse_suite_config(path: str | Path, out_path: str | None = None) -> list[RunConfig]:
    """One ``run_config_from_tokens`` run per line, skipping blank lines and '#'
    comments.  The first error in a line, such as an output naming the suite
    file, ``out_path`` or an earlier output, raises ``InvalidSpec`` prefixed with
    ``path:lineno``; so do an unreadable file and an unwritable ``out_path``
    (``--out``) or one naming the suite file."""
    if out_path:
        _check_writable(out_path)
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise InvalidSpec(f"cannot read {path}: {e}") from e
    taken: dict[Path, str] = {}
    _claim_outputs(taken, [("suite", str(path)), ("--out", out_path)])
    configs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            configs.append(run_config_from_tokens(line.split()))
            _claim_outputs(taken, _row_outputs(configs[-1]), f" of line {lineno}")
        except ValueError as e:  # InvalidSpec, or a value that is not a number
            raise InvalidSpec(f"{path}:{lineno}: {e}") from e
    return configs
