"""Exception types shared across the solvers and problem constructors."""


class NumericalFailure(Exception):
    """An evaluation produced a non-finite value (overflow or NaN)."""


class InvalidState(Exception):
    """An internal algebraic invariant was violated; indicates a bug or bad input."""


class NotPositiveDefinite(Exception):
    """The operator handed to the linear CG solver is not positive definite."""


class InvalidSpec(ValueError):
    """A problem or run specification is malformed."""
