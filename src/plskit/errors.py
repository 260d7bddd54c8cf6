"""Exception types shared across the package."""

from __future__ import annotations


class PlsError(Exception):
    """Base class for every error raised by this package."""


class TriplePairError(PlsError):
    """Two triples violate one injectivity condition, which ``description`` names."""

    def __init__(self, description: str, first, second) -> None:
        self.description = description
        self.first = first
        self.second = second
        super().__init__(f"{description}: {first} and {second}")

    def __reduce__(self):
        # Copies and pickles call __init__ with its own arguments, not with
        # the message that .args holds.
        return type(self), (self.description, self.first, self.second), self.__dict__


class PreconditionViolated(PlsError, ValueError):
    """A documented precondition of the called operation does not hold."""


class Infeasible(PlsError):
    """No object with the requested parameters exists.

    The builders raise it with the feasibility report that refused them.
    """

    def __init__(self, message: str, report=None) -> None:
        self.report = report
        super().__init__(message)


class BudgetExceeded(PlsError):
    """The exhaustive search space is larger than the configured budget."""


class DocumentError(PlsError):
    """A serialized document is malformed or uses an unknown schema."""
