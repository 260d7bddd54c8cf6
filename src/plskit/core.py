"""Domain types and basic operations for partial Latin squares.

A partial Latin square is a finite nonempty set of (row, column, symbol)
triples such that any two of the three coordinates determine the third at
most once: no cell is occupied twice, no symbol repeats within a row, and
no symbol repeats within a column.  Labels are positive integers with no
upper bound; occupied rows, columns, and symbols need not form contiguous
ranges.  The builders in this package always emit normalized labels, i.e.
occupied rows are exactly 1..r, columns 1..c, and symbols 1..s.

A Triple is a tuple ``(row, col, sym)`` whose labels were checked on
construction; it compares and hashes equal to the plain tuple, and tuple
order is the row-major order used throughout.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    ColSymbolClash,
    DuplicateCell,
    EmptyInput,
    PreconditionViolated,
    RowSymbolClash,
)

AXES = ("row", "col", "sym")


def is_positive_int(value) -> bool:
    """True for an int of at least 1; the one positivity rule for labels and counts."""
    # bool is a subclass of int, but True is not a label or a count.
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def positive_int(name: str, value: int) -> int:
    """Return ``value`` if it is a positive integer, else raise PreconditionViolated."""
    # A plain int is settled by one comparison; anything else takes the
    # full rule, so exactly the same values pass.
    if not (type(value) is int and value > 0 or is_positive_int(value)):
        raise PreconditionViolated(f"{name} must be a positive integer")
    return value


def positive_ints(name: str, values: Sequence[int]) -> tuple[int, ...]:
    """Return ``values`` as a tuple if it is a nonempty run of positive integers."""
    values = tuple(values)
    if not values or not all(type(k) is int and k > 0 or is_positive_int(k) for k in values):
        raise PreconditionViolated(f"{name} must be a nonempty sequence of positive integers")
    return values


class Triple(namedtuple("Triple", AXES)):
    """One occupied cell: symbol ``sym`` placed at (``row``, ``col``).

    All three labels are positive integers.  A Triple is a tuple, so it
    equals the plain tuple (row, col, sym) and sorts lexicographically in
    (row, col, sym), which gives the row-major order used throughout.
    """

    __slots__ = ()

    def __new__(cls, row: int, col: int, sym: int) -> "Triple":
        if not (is_positive_int(row) and is_positive_int(col) and is_positive_int(sym)):
            for axis, value in zip(AXES, (row, col, sym)):
                if not is_positive_int(value):
                    raise ValueError(f"{axis} label must be a positive integer, got {value!r}")
        return tuple.__new__(cls, (row, col, sym))

    @classmethod
    def _make(cls, iterable) -> "Triple":
        # namedtuple's own _make, which _replace also calls, skips __new__.
        return cls(*iterable)

    def __str__(self) -> str:
        return f"({self.row}, {self.col}, {self.sym})"


def _check_triples(triples: Iterable) -> frozenset[Triple]:
    # The one pass that coerces, label-checks and clash-checks a square.
    # A set collapses exact duplicates; the clash scan runs in row-major
    # order so the reported offending pair is deterministic.
    checked = frozenset(t if isinstance(t, Triple) else Triple(*t) for t in triples)
    if not checked:
        raise EmptyInput()
    by_cell: dict[tuple[int, int], Triple] = {}
    by_row_sym: dict[tuple[int, int], Triple] = {}
    by_col_sym: dict[tuple[int, int], Triple] = {}
    for t in sorted(checked):
        row, col, sym = t
        cell = (row, col)
        if cell in by_cell:
            raise DuplicateCell(by_cell[cell], t)
        row_sym = (row, sym)
        if row_sym in by_row_sym:
            raise RowSymbolClash(by_row_sym[row_sym], t)
        col_sym = (col, sym)
        if col_sym in by_col_sym:
            raise ColSymbolClash(by_col_sym[col_sym], t)
        by_cell[cell] = t
        by_row_sym[row_sym] = t
        by_col_sym[col_sym] = t
    return checked


@dataclass(frozen=True)
class PartialLatinSquare:
    """An immutable, always-valid partial Latin square.

    Construction re-runs the full validity check, so an instance of this
    type can never hold a clashing or empty triple set.  Use
    :func:`validate` as the public entry point; it accepts plain tuples.
    """

    triples: frozenset[Triple]

    def __post_init__(self) -> None:
        object.__setattr__(self, "triples", _check_triples(self.triples))

    @property
    def volume(self) -> int:
        return len(self.triples)

    def sorted_triples(self) -> tuple[Triple, ...]:
        return tuple(sorted(self.triples))

    def cells(self) -> frozenset[tuple[int, int]]:
        return frozenset((t.row, t.col) for t in self.triples)

    def row_values(self) -> tuple[int, ...]:
        return tuple(sorted({t.row for t in self.triples}))

    def col_values(self) -> tuple[int, ...]:
        return tuple(sorted({t.col for t in self.triples}))

    def sym_values(self) -> tuple[int, ...]:
        return tuple(sorted({t.sym for t in self.triples}))


def validate(triples: Iterable) -> PartialLatinSquare:
    """Check a set of triples and wrap it as a PartialLatinSquare.

    Accepts Triple instances or plain (row, col, sym) tuples.  Raises
    EmptyInput, DuplicateCell, RowSymbolClash, or ColSymbolClash; the two
    offending triples are named on the error.
    """
    return PartialLatinSquare(triples)


@dataclass(frozen=True)
class ParameterProfile:
    """Line parameters of a partial Latin square.

    ``row_params[i]`` is the number of cells in the (i+1)-th occupied row,
    occupied rows taken in increasing label order; likewise for columns
    and symbols.  Entries are positive and each family sums to ``volume``.
    """

    row_params: tuple[int, ...]
    col_params: tuple[int, ...]
    sym_params: tuple[int, ...]
    volume: int

    def __post_init__(self) -> None:
        if not is_positive_int(self.volume):
            raise ValueError("volume must be a positive integer")
        for name in ("row_params", "col_params", "sym_params"):
            family = tuple(getattr(self, name))
            object.__setattr__(self, name, family)
            if not family or not all(is_positive_int(k) for k in family):
                raise ValueError(f"{name} must be nonempty with positive entries")
            if sum(family) != self.volume:
                raise ValueError(f"{name} must sum to the volume {self.volume}")

    @property
    def r(self) -> int:
        return len(self.row_params)

    @property
    def c(self) -> int:
        return len(self.col_params)

    @property
    def s(self) -> int:
        return len(self.sym_params)


def _axis_params(pls: PartialLatinSquare, axis: str) -> tuple[int, ...]:
    counts = Counter(getattr(t, axis) for t in pls.triples)
    return tuple(counts[k] for k in sorted(counts))


def parameters_of(pls: PartialLatinSquare) -> ParameterProfile:
    """Read off the row, column, and symbol parameters of ``pls``."""
    return ParameterProfile(
        row_params=_axis_params(pls, "row"),
        col_params=_axis_params(pls, "col"),
        sym_params=_axis_params(pls, "sym"),
        volume=pls.volume,
    )


def conjugate(pls: PartialLatinSquare, perm: Sequence[str]) -> PartialLatinSquare:
    """Permute the three coordinate roles of every triple.

    ``perm`` lists, for each output axis in (row, col, sym) order, the
    input axis it is read from.  For example ``("sym", "col", "row")``
    swaps the row and symbol roles, sending (1, 2, 3) to (3, 2, 1).
    Conjugation permutes the three parameter families the same way.
    """
    perm = tuple(perm)
    if sorted(perm) != sorted(AXES):
        raise ValueError(f"perm must be a permutation of {AXES}, got {perm!r}")
    a, b, c = (AXES.index(axis) for axis in perm)
    return PartialLatinSquare(frozenset((t[a], t[b], t[c]) for t in pls.triples))


def normalize(pls: PartialLatinSquare) -> PartialLatinSquare:
    """Relabel rows, columns, and symbols onto 1..r, 1..c, 1..s.

    The relabeling preserves the relative order of labels within each
    axis, so normalize is idempotent and preserves the parameter profile.
    """
    rows, cols, syms = (
        {value: rank for rank, value in enumerate(sorted(set(labels)), 1)}
        for labels in zip(*pls.triples)
    )
    return PartialLatinSquare(
        frozenset((rows[i], cols[j], syms[k]) for i, j, k in pls.triples)
    )


@dataclass(frozen=True)
class CellSet:
    """A nonempty set of board cells together with the board dimensions.

    ``rows`` and ``cols`` bound the board: every cell (i, j) satisfies
    1 <= i <= rows and 1 <= j <= cols.  Lines outside the occupied range
    still count as (empty) lines of the board, so ``row_counts`` and
    ``col_counts`` report them as zeros.
    """

    cells: frozenset[tuple[int, int]]
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if not isinstance(self.cells, frozenset):
            object.__setattr__(self, "cells", frozenset(tuple(c) for c in self.cells))
        rows, cols = self.rows, self.cols
        if not (is_positive_int(rows) and is_positive_int(cols)):
            raise ValueError(f"board dimensions must be positive integers, got {rows!r} x {cols!r}")
        if not self.cells:
            raise ValueError("cell set must be nonempty")
        for i, j in self.cells:
            # Plain ints on the board pass without two calls per cell.
            if type(i) is type(j) is int and 0 < i <= rows and 0 < j <= cols:
                continue
            if not (is_positive_int(i) and is_positive_int(j)):
                raise ValueError(f"cell ({i!r}, {j!r}) must have positive integer coordinates")
            if i > rows or j > cols:
                raise ValueError(f"cell ({i}, {j}) outside the {rows} x {cols} board")

    @property
    def volume(self) -> int:
        return len(self.cells)

    def row_counts(self) -> tuple[int, ...]:
        """Cells per board row, including zero entries for empty rows."""
        counts = [0] * self.rows
        for i, _ in self.cells:
            counts[i - 1] += 1
        return tuple(counts)

    def col_counts(self) -> tuple[int, ...]:
        """Cells per board column, including zero entries for empty columns."""
        counts = [0] * self.cols
        for _, j in self.cells:
            counts[j - 1] += 1
        return tuple(counts)
