"""Domain types and basic operations for partial Latin squares.

A partial Latin square is a finite nonempty set of (row, column, symbol)
triples such that any two of the three coordinates determine the third at
most once: no cell is occupied twice, no symbol repeats within a row, and
no symbol repeats within a column.  Labels are positive integers with no
upper bound; occupied rows, columns, and symbols need not form contiguous
ranges.  The builders in this package always emit normalized labels, i.e.
occupied rows are exactly 1..r, columns 1..c, and symbols 1..s.

A value is checked once, where a caller hands it in, and a refused value
raises PreconditionViolated.  A Triple is a tuple ``(row, col, sym)``
whose labels are checked on construction, ``_make`` and ``_replace``; it
compares and hashes equal to the plain tuple, and tuple order is the
row-major order used throughout.  A ParameterProfile is a plain named
tuple: parameters_of reads it off a square that is already valid, so it
has nothing left to check.  A set of cells is a plain frozenset of
``(row, col)`` tuples with no type of its own: the builders hand one
from stage to stage, and a build checks its labels once, when validate
checks the finished square.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import repeat
from typing import Iterable, NoReturn, Sequence

from .errors import PreconditionViolated, TriplePairError

AXES = ("row", "col", "sym")
_INTS = frozenset((int,))


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
    # A run of plain ints is settled by two C-level passes; anything else
    # takes the full rule element by element, so exactly the same values pass.
    values = tuple(values)
    if not values or not (
        _INTS.issuperset(map(type, values)) and min(values) > 0
        or all(map(is_positive_int, values))
    ):
        raise PreconditionViolated(f"{name} must be a nonempty sequence of positive integers")
    return values


def checked_namedtuple(typename: str, fields: Sequence[str], defaults: Sequence = ()) -> type:
    """A namedtuple base for a subclass whose ``__new__`` validates.

    namedtuple's own ``_make``, which ``_replace`` also calls, skips
    ``__new__``; this base's ``_make`` calls the subclass instead, so every
    instance passes the subclass's one check.
    """
    base = namedtuple(typename, fields, defaults=defaults)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class Triple(checked_namedtuple("Triple", AXES)):
    """One occupied cell: symbol ``sym`` placed at (``row``, ``col``).

    All three labels are positive integers.  A Triple is a tuple, so it
    equals the plain tuple (row, col, sym) and sorts lexicographically in
    (row, col, sym), which gives the row-major order used throughout.
    """

    __slots__ = ()

    def __new__(cls, row: int, col: int, sym: int) -> "Triple":
        # Plain ints are settled by one comparison each; anything else
        # takes the full rule, so exactly the same labels pass.
        if not (type(row) is type(col) is type(sym) is int and row > 0 and col > 0 and sym > 0):
            for axis, value in zip(AXES, (row, col, sym)):
                if not is_positive_int(value):
                    raise PreconditionViolated(
                        f"{axis} label must be a positive integer, got {value!r}"
                    )
        return tuple.__new__(cls, (row, col, sym))

    def __str__(self) -> str:
        return f"({self.row}, {self.col}, {self.sym})"


# A list, tuple or set whose elements are all tuples, lists or Triples is
# label-checked in bulk, since it can be read twice.  Any other input
# goes straight to the per-triple scan, which reads a generator or a
# one-shot element exactly once.
_BULK_INPUTS = frozenset((list, tuple, set, frozenset))
_BULK_ELEMENTS = frozenset((tuple, list, Triple))


def _check_triples(triples: Iterable) -> frozenset[Triple]:
    # The one pass that coerces, label-checks and clash-checks a square.
    # Labels are checked in bulk: the transposed axes of the input show
    # the arity, the exact int type and the positive minimum of every
    # label before anything is hashed, so a label such as True or 1.0
    # cannot collapse into an equal triple; then one C-level map makes
    # every element a Triple.  The per-triple Triple(*t) scan runs only
    # when that check fails: it walks the input in order, so it raises the
    # first offender's error with an unchanged message, or accepts
    # int-subclass labels.
    # A set collapses exact duplicates, and the square is clash-free
    # exactly when its (row, col), (row, sym) and (col, sym) projections
    # are all distinct.  The sorted scan runs only to name a clash: it
    # walks row-major order so the reported offending pair is
    # deterministic.
    axes = None
    if type(triples) in _BULK_INPUTS and _BULK_ELEMENTS.issuperset(map(type, triples)):
        axes = _plain_axes(triples)
    if axes is None:
        checked = frozenset(t if isinstance(t, Triple) else Triple(*t) for t in triples)
        if not checked:
            raise PreconditionViolated("a partial Latin square must be nonempty")
        axes = zip(*checked)
    else:
        checked = frozenset(map(tuple.__new__, repeat(Triple), triples))
    # Each pair is keyed as the one int a * base + b: base exceeds every
    # column and symbol label, so the key is exact for any int size, and
    # the sets hold no tuple for the cyclic collector to scan.
    rows, cols, syms = axes
    base = max(cols + syms) + 1
    if not (
        len({i * base + j for i, j in zip(rows, cols)})
        == len({i * base + k for i, k in zip(rows, syms)})
        == len({j * base + k for j, k in zip(cols, syms)})
        == len(checked)
    ):
        _raise_first_clash(checked)
    return checked


def _plain_axes(triples: Iterable) -> tuple[tuple[int, ...], ...] | None:
    # The rows, columns and symbols of ``triples`` if it is nonempty, each
    # triple has three labels and every label is a plain positive int;
    # else None.
    try:
        rows, cols, syms = zip(*triples, strict=True)
    except ValueError:
        return None
    labels = rows + cols + syms
    if not (_INTS.issuperset(map(type, labels)) and min(labels) > 0):
        return None
    return rows, cols, syms


# Each injectivity condition: the two coordinates a clash repeats, and its name.
_CLASHES = (
    ((0, 1), "two triples occupy the same cell"),
    ((0, 2), "two triples repeat a symbol within a row"),
    ((1, 2), "two triples repeat a symbol within a column"),
)


def _raise_first_clash(checked: frozenset[Triple]) -> NoReturn:
    # A triple is checked for a cell clash, then a row clash, then a
    # column clash, before the next triple in row-major order.
    seen: list[dict[tuple[int, int], Triple]] = [{} for _ in _CLASHES]
    for t in sorted(checked):
        for table, ((a, b), description) in zip(seen, _CLASHES):
            key = (t[a], t[b])
            if key in table:
                raise TriplePairError(description, table[key], t)
            table[key] = t
    raise AssertionError("a projection repeats, but the scan found no clash")


class PartialLatinSquare:
    """An immutable, always-valid partial Latin square.

    Construction re-runs the full validity check, so an instance of this
    type can never hold a clashing or empty triple set.  Use
    :func:`validate` as the public entry point; it accepts plain tuples.
    Two squares are equal when their triple sets are; a square never
    equals a plain tuple.
    """

    __slots__ = ("triples",)
    triples: frozenset[Triple]

    def __init__(self, triples: Iterable) -> None:
        object.__setattr__(self, "triples", triples)
        self.__post_init__()

    def __post_init__(self) -> None:
        # The one validation path, looked up on the instance so that a
        # wrapper set on the class sees every construction.
        object.__setattr__(self, "triples", _check_triples(self.triples))

    def __setattr__(self, name: str, value) -> NoReturn:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> NoReturn:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self.triples == other.triples if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.triples,))

    def __repr__(self) -> str:
        return f"PartialLatinSquare(triples={self.triples!r})"

    def __reduce__(self):
        # Copies and pickles rebuild through the constructor.
        return type(self), (self.triples,)

    @property
    def volume(self) -> int:
        return len(self.triples)

    def sorted_triples(self) -> tuple[Triple, ...]:
        return tuple(sorted(self.triples))


def validate(triples: Iterable) -> PartialLatinSquare:
    """Check a set of triples and wrap it as a PartialLatinSquare.

    Accepts Triple instances or plain (row, col, sym) tuples.  Raises
    PreconditionViolated on no triples or a bad label, or TriplePairError
    naming the clash and its two offending triples.
    """
    return PartialLatinSquare(triples)


class ParameterProfile(
    namedtuple("ParameterProfile", ("row_params", "col_params", "sym_params", "volume"))
):
    """Line parameters of a partial Latin square, as parameters_of reads them.

    ``row_params[i]`` is the number of cells in the (i+1)-th occupied row,
    occupied rows taken in increasing label order; likewise for columns
    and symbols.  Entries are positive and each family sums to ``volume``.
    """

    __slots__ = ()

    @property
    def r(self) -> int:
        return len(self.row_params)

    @property
    def c(self) -> int:
        return len(self.col_params)

    @property
    def s(self) -> int:
        return len(self.sym_params)


def parameters_of(pls: PartialLatinSquare) -> ParameterProfile:
    """Read off the row, column, and symbol parameters of ``pls``."""
    # The square is valid, so its counts need no check: one pass counts
    # each axis, and each family is read in increasing label order.
    axes = map(Counter, zip(*pls.triples))
    return ParameterProfile(*(tuple(map(n.__getitem__, sorted(n))) for n in axes), pls.volume)


def conjugate(pls: PartialLatinSquare, perm: Sequence[str]) -> PartialLatinSquare:
    """Permute the three coordinate roles of every triple.

    ``perm`` lists, for each output axis in (row, col, sym) order, the
    input axis it is read from.  For example ``("sym", "col", "row")``
    swaps the row and symbol roles, sending (1, 2, 3) to (3, 2, 1).
    Conjugation permutes the three parameter families the same way.
    """
    perm = tuple(perm)
    # Membership compares by equality, so a label of any type is refused
    # here rather than failing a sort or a hash.
    if not (len(perm) == 3 and all(axis in perm for axis in AXES)):
        raise PreconditionViolated(f"perm must be a permutation of {AXES}, got {perm!r}")
    a, b, c = (AXES.index(axis) for axis in perm)
    return PartialLatinSquare(frozenset((t[a], t[b], t[c]) for t in pls.triples))
