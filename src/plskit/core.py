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
has nothing left to check.  A build has no cell type of its own: its
stages hand on line maps and {row: col} layer dicts.  Every producer in
the package (plskit.builder, conjugate, plskit.oracle) hands validate its
square as three label columns, checked at once; any other input is
checked triple by triple, and the first offender is named.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import repeat
from typing import Iterable, Iterator, NoReturn, Sequence

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
    try:
        values = tuple(values)
    except TypeError:
        if hasattr(values, "__iter__"):
            raise  # the input's own iteration failed
        values = ()  # not iterable, so refused below
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


def _label_name(value) -> str:
    # A refused label as a message names it: a plain int by its value,
    # anything else by its type, never by its repr, so the message stays
    # short and reads the same for every copy of the input.  An int too
    # long to print is named by its size.
    if type(value) is not int:
        return type(value).__name__
    return str(value) if value.bit_length() <= 64 else f"an int of {value.bit_length()} bits"


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
                        f"{axis} label must be a positive integer, got {_label_name(value)}"
                    )
        return tuple.__new__(cls, (row, col, sym))

    def __str__(self) -> str:
        return f"({self.row}, {self.col}, {self.sym})"


class _Columns(tuple):
    # A square as three label columns (rows, cols, syms), one cell per
    # index: the form every producer in the package hands validate, so a
    # build makes no tuple per cell.  Private, and recognised by exact type.
    __slots__ = ()


def _check_triples(triples: Iterable) -> frozenset[Triple]:
    # The one pass that coerces, label-checks and clash-checks a square.
    # Labels are checked before anything is hashed, so a label such as
    # True or 1.0 cannot collapse into an equal triple: a column form's
    # three columns, concatenated for one check that costs the oracle's
    # small witnesses least, must hold exact ints with a positive minimum.
    # Any other input, and a column form that fails that check, takes the
    # per-triple scan: it reads the input once, in order, and raises the
    # first offender's error or accepts int-subclass labels.
    if type(triples) is _Columns:
        rows, cols, syms = triples
        labels = rows + cols + syms
        if labels and _INTS.issuperset(map(type, labels)) and min(labels) > 0:
            # Checked labels: one C-level map makes each cell a Triple.
            cells = map(tuple.__new__, repeat(Triple), zip(*triples))
            return _clash_checked(frozenset(cells), triples)
        triples = zip(*triples)
    checked = frozenset(map(_as_triple, _iterable(triples, "triples must be an iterable")))
    if not checked:
        raise PreconditionViolated("a partial Latin square must be nonempty")
    return _clash_checked(checked, zip(*checked))


def _clash_checked(checked: frozenset[Triple], axes: Iterable[Sequence]) -> frozenset[Triple]:
    # ``checked`` holds the Triples whose labels are the columns ``axes``.
    # The set has collapsed exact duplicates, and the square is clash-free
    # exactly when its (row, col), (row, sym) and (col, sym) projections
    # are all distinct.
    # Each pair is keyed as the one int a * base + b: base exceeds every
    # column and symbol label, so the key is exact for any int size, and
    # the sets hold no tuple for the cyclic collector to scan.  The
    # sorted scan runs only to name a clash.
    rows, cols, syms = axes
    base = max(max(cols), max(syms)) + 1
    if not (
        len({i * base + j for i, j in zip(rows, cols)})
        == len({i * base + k for i, k in zip(rows, syms)})
        == len({j * base + k for j, k in zip(cols, syms)})
        == len(checked)
    ):
        _raise_first_clash(checked)
    return checked


def _as_triple(t) -> Triple:
    # The per-triple coercion.  Its refusals name a type or a count, never
    # an object's repr, so every fresh copy of an input reads the same.
    # A plain tuple is used as it is, with no copy.
    if isinstance(t, Triple):
        return t
    if type(t) is not tuple:
        t = tuple(_iterable(t, "a triple must be an iterable of three labels"))
    if len(t) != 3:
        raise PreconditionViolated(f"a triple must have three labels, got {len(t)}")
    return Triple(*t)


def _iterable(value, refusal: str) -> Iterator:
    try:
        return iter(value)
    except TypeError:
        raise PreconditionViolated(f"{refusal}, got {type(value).__name__}") from None


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
    PreconditionViolated on no triples, an input or element that is not
    iterable, an element without exactly three labels or a bad label,
    or TriplePairError naming the clash and its two offending triples.
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


def _perm_name(perm) -> str:
    # A refused perm as a message names it, briefly and alike for every
    # copy of the input: by its entry count unless it has three, else
    # entry by entry, an axis by its name and anything else as a label.
    if type(perm) is not tuple:
        return _label_name(perm)
    if len(perm) != 3:
        return f"{len(perm)} entries"
    names = (
        repr(axis) if type(axis) is str and axis in AXES else _label_name(axis) for axis in perm
    )
    return f"({', '.join(names)})"


def conjugate(pls: PartialLatinSquare, perm: Sequence[str]) -> PartialLatinSquare:
    """Permute the three coordinate roles of every triple.

    ``perm`` lists, for each output axis in (row, col, sym) order, the
    input axis it is read from.  For example ``("sym", "col", "row")``
    swaps the row and symbol roles, sending (1, 2, 3) to (3, 2, 1).
    Conjugation permutes the three parameter families the same way.
    """
    try:
        perm = tuple(perm)
    except TypeError:
        if hasattr(perm, "__iter__"):
            raise  # the input's own iteration failed
    # Membership compares by equality, so a label of any type is refused
    # here rather than failing a sort or a hash, and so is a perm that is
    # not iterable.
    if not (type(perm) is tuple and len(perm) == 3 and all(axis in perm for axis in AXES)):
        raise PreconditionViolated(f"perm must be a permutation of {AXES}, got {_perm_name(perm)}")
    axes = tuple(zip(*pls.triples))
    return validate(_Columns(axes[AXES.index(axis)] for axis in perm))
