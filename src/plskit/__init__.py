"""Partial Latin squares with prescribed row, column, and symbol parameters.

The package decides whether a partial Latin square with given per-line
occupancy counts exists and, when it does, constructs one.  An
exhaustive search oracle double-checks the decision predicates on small
instances.
"""

from .builder import (
    build_corollary,
    build_proposition,
    build_theorem,
    fill_symbols,
    split_symbols,
)
from .core import (
    ParameterProfile,
    PartialLatinSquare,
    Triple,
    conjugate,
    parameters_of,
    validate,
)
from .errors import (
    BudgetExceeded,
    DocumentError,
    Infeasible,
    PlsError,
    PreconditionViolated,
    TriplePairError,
)
from .feasibility import (
    Condition,
    FeasibilityReport,
    check_construction,
    check_row_params,
    check_sizes,
)
from .formats import PlsDocument, render_grid
from .oracle import Budget, enumerate_pls, exists_full
from .sweep import (
    SweepResult,
    sweep_row_params,
    sweep_sizes,
    sweep_theorem,
)

__all__ = [
    "Budget",
    "BudgetExceeded",
    "Condition",
    "DocumentError",
    "FeasibilityReport",
    "Infeasible",
    "ParameterProfile",
    "PartialLatinSquare",
    "PlsDocument",
    "PlsError",
    "PreconditionViolated",
    "SweepResult",
    "Triple",
    "TriplePairError",
    "build_corollary",
    "build_proposition",
    "build_theorem",
    "check_construction",
    "check_row_params",
    "check_sizes",
    "conjugate",
    "enumerate_pls",
    "exists_full",
    "fill_symbols",
    "parameters_of",
    "render_grid",
    "split_symbols",
    "sweep_row_params",
    "sweep_sizes",
    "sweep_theorem",
    "validate",
]

__version__ = "0.1.0"
