"""Exception types shared across the solvers and problem constructors."""


class SolverError(Exception):
    """Base class for solver-side failures."""


class NumericalFailure(SolverError):
    """An evaluation produced a non-finite value (overflow or NaN)."""


class InvalidState(SolverError):
    """An internal algebraic invariant was violated; indicates a bug or bad input."""


class CurvatureFailure(SolverError):
    """A directional curvature estimate came out nonpositive."""


class DegenerateDirection(SolverError):
    """A direction-update denominator vanished; restart with steepest descent."""


class NotPositiveDefinite(SolverError):
    """The operator handed to the linear CG solver is not positive definite."""


class InvalidSpec(ValueError):
    """A problem or run specification is malformed."""
