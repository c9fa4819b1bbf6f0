"""Exception types shared across the package."""


class PkhError(Exception):
    """Base class for errors raised by this package."""


class ParseError(PkhError):
    """A diagram document cannot be read or is malformed."""


class ValidationError(PkhError):
    """Structurally valid input that breaks a diagram invariant."""


class InvariantError(PkhError):
    """A mathematical self-check failed; indicates a bug, not bad input."""
