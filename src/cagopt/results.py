"""Run-outcome containers shared by all solvers.

A run's trace is stored as columns, not as one object per row: a ``Trace``
keeps each row's evaluation count in an ``array('q')``, f, ||g|| and phi*
in three ``array('d')`` and its ``StepKind`` in one byte, and the row's
iteration is its index.  A row therefore retains 33 bytes, about 35 with
the arrays' spare capacity, where a ``TraceRecord`` with its int and float
objects takes about 220.  Readers see a sequence of ``TraceRecord``, built
as each row is read.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import count

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


@dataclass(slots=True)
class TraceRecord:
    iteration: int
    evals: int       # cumulative function-gradient evaluations
    f: float
    gnorm: float
    phi_star: float  # NaN for solvers without an estimate sequence
    step: StepKind


_KINDS = tuple(StepKind)
_CODES = {kind: code for code, kind in enumerate(_KINDS)}


class Trace(Sequence[TraceRecord]):
    """Append-only, columnar per-iteration trace of one run.

    ``len``, indexing (a slice gives a list) and iteration build
    ``TraceRecord`` rows on read.  The columns ``evals``, ``f``, ``gnorm``
    and ``phi_star`` and ``kinds()`` give the same values without building
    a row; only ``append`` may change them.
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

    def _row(self, i: int) -> TraceRecord:
        return TraceRecord(
            i, self.evals[i], self.f[i], self.gnorm[i], self.phi_star[i], _KINDS[self._codes[i]]
        )

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, index: int | slice) -> TraceRecord | list[TraceRecord]:
        rows = range(len(self._codes))[index]  # IndexError when out of range
        if isinstance(rows, range):
            return [self._row(i) for i in rows]
        return self._row(rows)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(TraceRecord, count(), self.evals, self.f, self.gnorm, self.phi_star,
                   self.kinds())


@dataclass
class SolverResult:
    """Outcome of one solver run, as the run contract in ``cag`` states it
    (lcg: as ``baselines.lcg_minimize`` states it).  ``trace`` holds the
    ``init`` row and one row per iteration as columns, about 35 bytes a row
    (see ``Trace``)."""

    status: Status
    x_final: np.ndarray
    f_final: float
    gnorm_final: float
    iterations: int
    evaluations: int
    trace: Trace

    @property
    def converged(self) -> bool:
        return self.status is Status.CONVERGED
