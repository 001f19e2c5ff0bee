"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "NonPositiveParameter",
    "NegativeArgument",
    "GridTooCoarse",
    "NoSignChange",
    "ZeroMass",
    "ParseError",
    "ParameterMismatch",
    "UnknownChoice",
]


class NonPositiveParameter(ValueError):
    """A physical parameter violates its positivity/finiteness constraint."""

    def __init__(self, name: str, detail: str = ""):
        self.name = name
        msg = f"invalid parameter {name!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NegativeArgument(ValueError):
    """Argument outside the nonnegative domain of a special function."""


class GridTooCoarse(ValueError):
    """A quadrature or evaluation grid cannot resolve the integrand.

    ``suggested_count``, when set, is a count that would satisfy the
    resolution requirement that was violated.
    """

    def __init__(self, msg: str, suggested_count: int | None = None):
        self.suggested_count = suggested_count
        if suggested_count is not None:
            msg += f" (suggested minimum count: {suggested_count})"
        super().__init__(msg)


class NoSignChange(ValueError):
    """Bisection bracket does not straddle a root."""


class ZeroMass(ValueError):
    """A grid supposed to hold a density integrates to zero (or less)."""


class ParseError(ValueError):
    """Malformed config or profile input, with file/line diagnostics."""

    def __init__(self, source: str, line: int, msg: str):
        self.source = source
        self.line = line
        super().__init__(f"{source}:{line}: {msg}" if line else f"{source}: {msg}")


class ParameterMismatch(ValueError):
    """Parameter sets that must agree on a shared quantity do not."""


class UnknownChoice(ValueError):
    """A string option names none of the values it accepts."""
