"""Exception types shared across the package.

The CLI maps these onto its exit codes, so keep the hierarchy flat:
parse errors, budget overruns, violated preconditions, and internal
consistency failures are the four externally visible failure modes.
"""

from __future__ import annotations

#: Most decimal digits of a coefficient the parser builds (a longer literal or
#: product is a ParseError) and of a count an error message states exactly (a
#: longer one is given only as "more than" the budget).
MAX_DIGITS = 50


class PadicSumsError(Exception):
    """Base class for all package errors."""


class ParseError(PadicSumsError, ValueError):
    """Malformed textual input (polynomials, y vectors, phi specs)."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class BudgetExceededError(PadicSumsError):
    """An enumeration would visit more points than the configured budget.

    ``needed`` is None when the work was stopped on passing the budget, so
    only "more than ``budget``" is known.  The message states ``needed``
    exactly only while it has at most MAX_DIGITS digits.
    """

    def __init__(self, needed: int | None, budget: int, what: str = "points"):
        self.needed = needed
        self.budget = budget
        short = needed is not None and needed < 10**MAX_DIGITS
        amount = needed if short else f"more than {budget}"
        super().__init__(f"budget exceeded: {amount} {what} needed, budget is {budget}")


class PreconditionError(PadicSumsError, ValueError):
    """An operation was called outside its documented input domain."""


class SeriesFloorError(PreconditionError):
    """The declared valuation floor of a power series never reaches the
    requested truncation level, so the series is not certified to converge
    on the unit polydisc."""


class SeriesCertificationError(PadicSumsError):
    """A series coefficient violates the declared valuation floor."""


class ConsistencyError(PadicSumsError):
    """An exact internal identity failed; indicates a bug, never bad input."""


class FitError(PadicSumsError, ValueError):
    """Decay-exponent fitting is impossible on the given records."""


class ExactVanishingError(FitError):
    """All supplied records are exactly zero: there is nothing to fit, and
    the exact vanishing itself is the result."""
