"""Run-outcome containers shared by all solvers.

A run's trace is stored as columns, not as one object per row: a ``Trace``
keeps each row's evaluation count in an ``array('q')``, f, ||g|| and phi*
in three ``array('d')`` and its ``StepKind`` in one byte, and the row's
iteration is its index.  A row therefore retains 33 bytes, about 35 with
the arrays' spare capacity.  Readers read the columns.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Status(str, Enum):
    """Terminal state of a solver run."""

    CONVERGED = "converged"
    BUDGET_EXHAUSTED = "budget_exhausted"
    LINE_SEARCH_FAILURE = "line_search_failure"
    DIVERGED = "diverged"
    INVALID = "invalid"  # a suite row whose settings were rejected; nothing ran


class StepKind(str, Enum):
    """Label attached to each trace row; ``init`` tags the row for the starting point."""

    INIT = "init"
    CG = "cg"    # conjugate gradient step
    SD = "sd"    # steepest-descent retry after a failed progress test
    AG = "ag"    # accelerated gradient step
    BAR = "bar"  # CG step tested at the conjugate-z augmented point
    LCG = "lcg"  # linear conjugate gradient step


_KINDS = tuple(StepKind)
_CODES = {kind: code for code, kind in enumerate(_KINDS)}


class Trace:
    """Append-only, columnar per-iteration trace of one run.

    Row i is read as ``evals[i]`` (cumulative function-gradient
    evaluations), ``f[i]``, ``gnorm[i]``, ``phi_star[i]`` (NaN for solvers
    without an estimate sequence) and the i-th of ``kinds()``; ``len`` is
    the number of rows.  Only ``append`` may change the columns.
    """

    __slots__ = ("evals", "f", "gnorm", "phi_star", "_codes")

    def __init__(self) -> None:
        self.evals = array("q")
        self.f = array("d")
        self.gnorm = array("d")
        self.phi_star = array("d")
        self._codes = bytearray()

    def append(self, evals: int, f: float, gnorm: float, phi_star: float, step: StepKind) -> None:
        """Add the next row; its iteration is the row's index."""
        self.evals.append(evals)
        self.f.append(f)
        self.gnorm.append(gnorm)
        self.phi_star.append(phi_star)
        self._codes.append(_CODES[step])

    def kinds(self) -> Iterator[StepKind]:
        """The rows' step kinds, in row order."""
        return map(_KINDS.__getitem__, self._codes)

    def __len__(self) -> int:
        return len(self._codes)


@dataclass
class SolverResult:
    """Outcome of one solver run, as the run contract in ``cag`` states it
    (lcg: as ``baselines.lcg_minimize`` states it); ``status`` tells if it
    converged.  ``trace`` holds the ``init`` row and one row per iteration as
    columns, about 35 bytes a row (see ``Trace``): ``iterations`` is its length - 1."""

    status: Status
    x_final: np.ndarray
    f_final: float
    gnorm_final: float
    evaluations: int
    trace: Trace

    @property
    def iterations(self) -> int:
        return len(self.trace) - 1
