"""Exception types shared across the solvers and problem constructors."""


class NumericalFailure(Exception):
    """An evaluation produced a non-finite value (overflow or NaN)."""


class InvalidState(Exception):
    """An internal algebraic invariant was violated; indicates a bug."""


class InvalidSpec(ValueError):
    """A problem or run specification is malformed."""
