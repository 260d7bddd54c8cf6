"""Equivalence sweeps: feasibility predicates versus the search oracle.

Each sweep walks a bounded family of prescriptions, asks the predicate
and the exhaustive oracle independently, and records every prescription
where the two verdicts differ.  A correct implementation yields no
mismatches.

A sweep visits one canonical prescription per class of prescriptions
that must share a verdict, and asks each route once about it.  Relabeling
rows, columns or symbols maps a partial Latin square to another one, so
the order of a parameter family never matters.  Neither does permuting
the roles of rows, columns and symbols: a conjugate of a partial Latin
square, its triples with their coordinates permuted, is again one.  So
transposition swaps the row and column families, exchanging columns and
symbols swaps c and s with the row family fixed, and any permutation of
(r, c, s) keeps the volume.  The canonical prescriptions are

- theorem (n, m, s): n and m non-increasing and n <= m as tuples;
- rows (n, c, s): n non-increasing, and c <= s unless c exceeds the
  symbol bound, in which case its partner (n, s, c) is out of range;
- sizes (r, c, s, v): r <= c <= s.

``checked`` counts these.

``FORMS`` is the one place a form is defined: its predicate and builder,
the ``exists_full`` constraints its values pin, its canonical cases, its
range bounds, the oracle budget they need, and its public sweep, whose
signature holds the bounds' defaults.  The command line reads its check,
build and sweep forms from it, so a new shape of prescription is one
more row.  Functions are named, not held, and each caller looks a name
up in its own module when it calls: a wrapper set on a module (a tracer,
a test double) sees every call.  ``sweep`` reads ``exists_full`` and the
predicates from this module, one call each per checked prescription.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Iterator

from .core import positive_int
from .feasibility import check_construction, check_row_params, check_sizes
from .oracle import Budget, exists_full


class SweepResult(namedtuple("SweepResult", ("checked", "mismatches"))):
    """How many canonical prescriptions a sweep checked, and where the routes differ."""

    __slots__ = ()

    @property
    def clean(self) -> bool:
        return not self.mismatches


# One form of prescription: the names of its predicate, builder, canonical
# case generator and sweep; the exists_full constraints its values pin and
# its range bounds, each in order; and the budget caps (cells, rows,
# columns, symbols) that a range with those bounds needs.
Form = namedtuple("Form", ("predicate", "builder", "cases", "sweep", "fields", "bounds", "caps"))

FORMS = {
    "theorem": Form(
        "check_construction", "build_theorem", "theorem_tuples", "sweep_theorem",
        ("rows", "cols", "s"), ("max_side", "max_entry", "max_cells"),
        lambda side, entry, cells: (cells, side, side, cells),
    ),
    "rows": Form(
        "check_row_params", "build_proposition", "row_params_tuples", "sweep_row_params",
        ("rows", "c", "s"), ("max_side", "max_entry", "max_symbols"),
        lambda side, entry, symbols: (side * entry, side, side, symbols),
    ),
    "sizes": Form(
        "check_sizes", "build_corollary", "sizes_tuples", "sweep_sizes",
        ("r", "c", "s", "v"), ("max_side", "max_cells"),
        lambda side, cells: (cells, side, side, side),
    ),
}


def _even(total: int, length: int) -> list[int]:
    # The non-increasing vector of this length and sum whose entries
    # differ by at most 1: the least such vector in lexicographic order.
    q, rem = divmod(total, length) if length else (0, 0)
    return [q + 1] * rem + [q] * (length - rem)


def _descending_vectors(
    length: int, max_entry: int, min_sum: int, max_sum: int
) -> Iterator[tuple[int, ...]]:
    # The non-increasing vectors of this length with entries at most
    # max_entry and a sum from min_sum to max_sum, in lexicographic order,
    # visiting no others: the next vector raises the rightmost entry that
    # is below max_entry and below the entry before it, and whose raise
    # keeps the sum within max_sum once the entries after it drop to 1;
    # those entries then take the least sum that reaches min_sum, spread
    # evenly.
    total = max(min_sum, length)
    if total > min(max_sum, length * max_entry):
        return
    vec = _even(total, length)
    while True:
        yield tuple(vec)
        tail = 0
        for k in range(length - 1, -1, -1):
            if (
                vec[k] < max_entry
                and (k == 0 or vec[k] < vec[k - 1])
                and total - tail + length - k <= max_sum
            ):
                break
            tail += vec[k]
        else:
            return
        head = total - tail + 1
        rest = max(length - k - 1, min_sum - head)
        vec[k] += 1
        vec[k + 1:] = _even(rest, length - k - 1)
        total = head + rest


def theorem_tuples(
    max_side: int, max_entry: int, max_cells: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Canonical (n, m, s) with equal totals at most max_cells and s in range.

    n and m are non-increasing with n <= m, one per class under
    reordering and transposition.  The vectors are built one total at a
    time, those of each length in turn, so the cost follows the number of
    cases, not max_entry ** max_side, and the memory one total's vectors.
    """
    for total in range(1, min(max_cells, max_side * max_entry) + 1):
        # Lengths whose entries, each 1 to max_entry, can sum to total.
        vectors = [
            vec
            for length in range(-(-total // max_entry), min(max_side, total) + 1)
            for vec in _descending_vectors(length, max_entry, total, total)
        ]
        for n, m in itertools.product(vectors, repeat=2):
            if n <= m:
                for s in range(max(n[0], m[0]), total + 1):
                    yield n, m, s


def row_params_tuples(
    max_side: int, max_entry: int, max_symbols: int
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Canonical (n, c, s) with len(n), c <= max_side and s <= max_symbols.

    n is non-increasing with entries at most max_entry, and c <= s unless
    c > max_symbols: one per class under reordering and exchanging the
    column and symbol roles.
    """
    for length in range(1, max_side + 1):
        for n in _descending_vectors(length, max_entry, length, length * max_entry):
            for c in range(1, max_side + 1):
                for s in range(1 if c > max_symbols else c, max_symbols + 1):
                    yield n, c, s


def sizes_tuples(max_side: int, max_cells: int) -> Iterator[tuple[int, int, int, int]]:
    """Canonical (r, c, s, v): r <= c <= s <= max_side and v <= max_cells.

    Nested ranges give (r, c, s) in lexicographic order without copying
    a range, so memory does not grow with max_side.
    """
    for r in range(1, max_side + 1):
        for c in range(r, max_side + 1):
            for s in range(c, max_side + 1):
                for v in range(1, max_cells + 1):
                    yield r, c, s, v


def sweep(form: str, *bounds: int) -> SweepResult:
    """Compare a form's predicate with the oracle over the canonical cases of a range.

    ``bounds`` are the form's range bounds, in the order ``FORMS`` names them.
    """
    row = FORMS[form]
    # A bound below 1 would make an empty range, and so a vacuous clean.
    for name, value in zip(row.bounds, bounds):
        positive_int(name, value)
    # Every case pins each dimension, so the budget only decides which
    # cases the oracle refuses: its caps are the range's own.
    budget = Budget(*row.caps(*bounds))
    predicate = globals()[row.predicate]
    mismatches = []
    checked = 0
    for case in globals()[row.cases](*bounds):
        checked += 1
        predicted = predicate(*case).feasible
        actual, _ = exists_full(**dict(zip(row.fields, case)), budget=budget)
        if predicted != actual:
            mismatches.append((*case, predicted, actual))
    return SweepResult(checked, tuple(mismatches))


def sweep_theorem(max_side: int = 3, max_entry: int = 3, max_cells: int = 9) -> SweepResult:
    return sweep("theorem", max_side, max_entry, max_cells)


def sweep_row_params(max_side: int = 3, max_entry: int = 3, max_symbols: int = 3) -> SweepResult:
    return sweep("rows", max_side, max_entry, max_symbols)


def sweep_sizes(max_side: int = 3, max_cells: int = 9) -> SweepResult:
    return sweep("sizes", max_side, max_cells)
