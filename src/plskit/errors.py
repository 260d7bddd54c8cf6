"""Exception types shared across the package."""

from __future__ import annotations


class PlsError(Exception):
    """Base class for every error raised by this package."""


class EmptyInput(PlsError):
    """A partial Latin square must contain at least one triple."""

    def __init__(self) -> None:
        super().__init__("a partial Latin square must be nonempty")


class TriplePairError(PlsError):
    """Two triples together violate one of the injectivity conditions."""

    description = "conflict"

    def __init__(self, first, second) -> None:
        self.first = first
        self.second = second
        super().__init__(f"{self.description}: {first} and {second}")


class DuplicateCell(TriplePairError):
    description = "two triples occupy the same cell"


class RowSymbolClash(TriplePairError):
    description = "two triples repeat a symbol within a row"


class ColSymbolClash(TriplePairError):
    description = "two triples repeat a symbol within a column"


class NoSaturation(PlsError):
    """Hall's condition fails: no matching covers the requested targets."""

    def __init__(self, side: str, witness: frozenset[int]) -> None:
        self.side = side
        self.witness = witness
        members = ", ".join(str(z) for z in sorted(witness))
        super().__init__(
            f"no matching saturates the {side}-side targets; "
            f"set {{{members}}} has more members than neighbors"
        )


class PreconditionViolated(PlsError, ValueError):
    """A documented precondition of the called operation does not hold."""


class Infeasible(PlsError):
    """No object with the requested parameters exists.

    Carries the feasibility report (for builder entry points) or a short
    witness of the violated inequality (for lower level constructions).
    """

    def __init__(self, message: str, report=None, witness=None) -> None:
        self.report = report
        self.witness = witness
        super().__init__(message)


class BudgetExceeded(PlsError):
    """The exhaustive search space is larger than the configured budget."""


class DocumentError(PlsError):
    """A serialized document is malformed or uses an unknown schema."""
