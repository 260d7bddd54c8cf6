"""Domain types and basic operations for partial Latin squares.

A partial Latin square is a finite nonempty set of (row, column, symbol)
triples such that any two of the three coordinates determine the third at
most once: no cell is occupied twice, no symbol repeats within a row, and
no symbol repeats within a column.  Labels are positive integers with no
upper bound; occupied rows, columns, and symbols need not form contiguous
ranges.  The builders in this package always emit normalized labels, i.e.
occupied rows are exactly 1..r, columns 1..c, and symbols 1..s.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import (
    ColSymbolClash,
    DuplicateCell,
    EmptyInput,
    PreconditionViolated,
    RowSymbolClash,
)

AXES = ("row", "col", "sym")


def _is_positive_int(value) -> bool:
    # bool is a subclass of int, but True is not a label or a count.
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def positive_int(name: str, value: int) -> int:
    """Return ``value`` if it is a positive integer, else raise PreconditionViolated."""
    if not _is_positive_int(value):
        raise PreconditionViolated(f"{name} must be a positive integer")
    return value


def positive_ints(name: str, values: Sequence[int]) -> tuple[int, ...]:
    """Return ``values`` as a tuple if it is a nonempty run of positive integers."""
    values = tuple(values)
    if not values or not all(_is_positive_int(k) for k in values):
        raise PreconditionViolated(f"{name} must be a nonempty sequence of positive integers")
    return values


@dataclass(frozen=True, order=True)
class Triple:
    """One occupied cell: symbol ``sym`` placed at (``row``, ``col``).

    All three labels are positive integers.  Ordering is lexicographic in
    (row, col, sym), which gives the row-major order used throughout.
    """

    row: int
    col: int
    sym: int

    def __post_init__(self) -> None:
        for axis in AXES:
            value = getattr(self, axis)
            if not _is_positive_int(value):
                raise ValueError(f"{axis} label must be a positive integer, got {value!r}")

    def __str__(self) -> str:
        return f"({self.row}, {self.col}, {self.sym})"


def _coerce_triples(triples: Iterable) -> frozenset[Triple]:
    coerced = set()
    for t in triples:
        coerced.add(t if isinstance(t, Triple) else Triple(*t))
    return frozenset(coerced)


_ROW_MAJOR = attrgetter("row", "col", "sym")


def _check_triples(triples: frozenset[Triple]) -> None:
    # Scan in row-major order so the reported offending pair is deterministic.
    # Sorting by an attribute key gives Triple's own order without calling
    # the dataclass comparison once per pair.
    if not triples:
        raise EmptyInput()
    by_cell: dict[tuple[int, int], Triple] = {}
    by_row_sym: dict[tuple[int, int], Triple] = {}
    by_col_sym: dict[tuple[int, int], Triple] = {}
    for t in sorted(triples, key=_ROW_MAJOR):
        cell = (t.row, t.col)
        if cell in by_cell:
            raise DuplicateCell(by_cell[cell], t)
        row_sym = (t.row, t.sym)
        if row_sym in by_row_sym:
            raise RowSymbolClash(by_row_sym[row_sym], t)
        col_sym = (t.col, t.sym)
        if col_sym in by_col_sym:
            raise ColSymbolClash(by_col_sym[col_sym], t)
        by_cell[cell] = t
        by_row_sym[row_sym] = t
        by_col_sym[col_sym] = t


@dataclass(frozen=True)
class PartialLatinSquare:
    """An immutable, always-valid partial Latin square.

    Construction re-runs the full validity check, so an instance of this
    type can never hold a clashing or empty triple set.  Use
    :func:`validate` as the public entry point; it accepts plain tuples.
    """

    triples: frozenset[Triple]

    def __post_init__(self) -> None:
        object.__setattr__(self, "triples", _coerce_triples(self.triples))
        _check_triples(self.triples)

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
        for name in ("row_params", "col_params", "sym_params"):
            family = getattr(self, name)
            object.__setattr__(self, name, tuple(family))
            family = getattr(self, name)
            if not family or any(k < 1 for k in family):
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


def _check_axis_permutation(perm: Sequence[str]) -> tuple[str, str, str]:
    perm = tuple(perm)
    if sorted(perm) != sorted(AXES):
        raise ValueError(f"perm must be a permutation of {AXES}, got {perm!r}")
    return perm


def conjugate(pls: PartialLatinSquare, perm: Sequence[str]) -> PartialLatinSquare:
    """Permute the three coordinate roles of every triple.

    ``perm`` lists, for each output axis in (row, col, sym) order, the
    input axis it is read from.  For example ``("sym", "col", "row")``
    swaps the row and symbol roles, sending (1, 2, 3) to (3, 2, 1).
    Conjugation permutes the three parameter families the same way.
    """
    perm = _check_axis_permutation(perm)
    moved = {
        Triple(*(getattr(t, axis) for axis in perm)) for t in pls.triples
    }
    return PartialLatinSquare(frozenset(moved))


def invert_axes(perm: Sequence[str]) -> tuple[str, str, str]:
    """Return the axis permutation that undoes ``perm`` under conjugate()."""
    perm = _check_axis_permutation(perm)
    inverse = {src: AXES[i] for i, src in enumerate(perm)}
    return tuple(inverse[axis] for axis in AXES)  # type: ignore[return-value]


def normalize(pls: PartialLatinSquare) -> PartialLatinSquare:
    """Relabel rows, columns, and symbols onto 1..r, 1..c, 1..s.

    The relabeling preserves the relative order of labels within each
    axis, so normalize is idempotent and preserves the parameter profile.
    """
    maps = {}
    for axis in AXES:
        values = sorted({getattr(t, axis) for t in pls.triples})
        maps[axis] = {value: i + 1 for i, value in enumerate(values)}
    moved = {
        Triple(maps["row"][t.row], maps["col"][t.col], maps["sym"][t.sym])
        for t in pls.triples
    }
    return PartialLatinSquare(frozenset(moved))


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
        object.__setattr__(self, "cells", frozenset(tuple(c) for c in self.cells))
        rows, cols = self.rows, self.cols
        if not (_is_positive_int(rows) and _is_positive_int(cols)):
            raise ValueError(f"board dimensions must be positive integers, got {rows!r} x {cols!r}")
        if not self.cells:
            raise ValueError("cell set must be nonempty")
        for i, j in self.cells:
            # Plain ints on the board pass without two calls per cell.
            if type(i) is type(j) is int and 0 < i <= rows and 0 < j <= cols:
                continue
            if not (_is_positive_int(i) and _is_positive_int(j)):
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
