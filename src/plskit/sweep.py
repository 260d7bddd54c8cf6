"""Equivalence sweeps: feasibility predicates versus the search oracle.

Each sweep walks a bounded family of prescriptions, asks the predicate
and the exhaustive oracle independently, and records every tuple where
the two verdicts differ.  A correct implementation yields no mismatches.

The predicate is asked about every ordered prescription.  The oracle is
asked once per distinct sorted key: the prescription with each parameter
family sorted and the scalars left alone.  That key is the oracle's own
canonical form, since exists_full uses a family only through its sum,
its length and its sorted order, so its verdict on the key is its
verdict on every ordering and the memo is exact by construction.  A
wrapper set on this module's ``exists_full`` therefore sees each
distinct key once, not every ordered case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .core import positive_int
from .feasibility import FeasibilityReport, check_construction, check_row_params, check_sizes
from .oracle import Budget, exists_full


@dataclass(frozen=True)
class SweepResult:
    checked: int
    mismatches: tuple[tuple, ...]

    @property
    def clean(self) -> bool:
        return not self.mismatches


def _vectors(max_len: int, max_entry: int) -> Iterator[tuple[int, ...]]:
    for length in range(1, max_len + 1):
        yield from itertools.product(range(1, max_entry + 1), repeat=length)


def _bounded_vectors(length: int, max_entry: int, max_sum: int) -> Iterator[tuple[int, ...]]:
    # The vectors of _vectors with this length and a sum of at most
    # max_sum, in the same (lexicographic) order, visiting no others: the
    # next vector raises the rightmost entry that can grow while the
    # entries after it drop to 1 and the sum stays within max_sum.
    vec = [1] * length
    total = length
    while total <= max_sum:
        yield tuple(vec)
        tail = 0
        for k in range(length - 1, -1, -1):
            if vec[k] < max_entry and total - tail + length - k <= max_sum:
                break
            tail += vec[k]
        else:
            return
        total += length - k - tail
        vec[k] += 1
        vec[k + 1:] = [1] * (length - k - 1)


def _check_bounds(**bounds: int) -> None:
    # A bound below 1 would make an empty range, and so a vacuous clean.
    for name, value in bounds.items():
        positive_int(name, value)


def _sweep(
    cases: Iterable[tuple],
    predicate: Callable[..., FeasibilityReport],
    oracle_kwargs: Sequence[str],
    budget: Budget,
) -> SweepResult:
    # The predicate takes each case's values in order, the oracle takes
    # them as the constraints named in oracle_kwargs.  The oracle's verdict
    # is kept per sorted key for the length of the sweep (exact, see the
    # module docstring), so exists_full runs once per distinct key.  It is
    # read from the module globals on every call, and each sweep passes
    # the predicate it reads there, so a wrapper set on this module's
    # attributes (a tracer, a test double) sees every predicate call and
    # every oracle search.
    verdicts: dict[tuple, bool] = {}
    mismatches = []
    checked = 0
    for case in cases:
        checked += 1
        predicted = predicate(*case).feasible
        key = tuple(tuple(sorted(x)) if isinstance(x, tuple) else x for x in case)
        actual = verdicts.get(key)
        if actual is None:
            actual, _ = exists_full(**dict(zip(oracle_kwargs, key)), budget=budget)
            verdicts[key] = actual
        if predicted != actual:
            mismatches.append((*case, predicted, actual))
    return SweepResult(checked, tuple(mismatches))


def theorem_tuples(
    max_side: int = 3, max_entry: int = 3, max_cells: int = 9
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """All (n, m, s) with equal totals at most max_cells and s in range.

    Only vectors summing to at most max_cells are built, so the cost
    follows the number of cases, not max_entry ** max_side.
    """
    by_sum: dict[int, list[tuple[int, ...]]] = {}
    for length in range(1, min(max_side, max_cells) + 1):
        for vec in _bounded_vectors(length, max_entry, max_cells):
            by_sum.setdefault(sum(vec), []).append(vec)
    for total in sorted(by_sum):
        for n, m in itertools.product(by_sum[total], repeat=2):
            for s in range(max(max(n), max(m)), total + 1):
                yield n, m, s


def sweep_theorem(max_side: int = 3, max_entry: int = 3, max_cells: int = 9) -> SweepResult:
    _check_bounds(max_side=max_side, max_entry=max_entry, max_cells=max_cells)
    return _sweep(
        theorem_tuples(max_side, max_entry, max_cells),
        check_construction,
        ("row_params", "col_params", "s"),
        Budget(max_cells=max(max_cells, 12), max_symbols=max_cells),
    )


def row_params_tuples(
    max_side: int = 3, max_entry: int = 3, max_symbols: int = 3
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """All (n, c, s) with len(n) <= max_side, entries and c, s in range."""
    for n in _vectors(max_side, max_entry):
        for c in range(1, max_side + 1):
            for s in range(1, max_symbols + 1):
                yield n, c, s


def sweep_row_params(max_side: int = 3, max_entry: int = 3, max_symbols: int = 3) -> SweepResult:
    _check_bounds(max_side=max_side, max_entry=max_entry, max_symbols=max_symbols)
    return _sweep(
        row_params_tuples(max_side, max_entry, max_symbols),
        check_row_params,
        ("row_params", "c", "s"),
        Budget(max_cells=max(12, max_side * max_entry)),
    )


def sizes_tuples(
    max_side: int = 3, max_cells: int = 9
) -> Iterator[tuple[int, int, int, int]]:
    """All (r, c, s, v) with sides at most max_side and v at most max_cells."""
    for r, c, s in itertools.product(range(1, max_side + 1), repeat=3):
        for v in range(1, max_cells + 1):
            yield r, c, s, v


def sweep_sizes(max_side: int = 3, max_cells: int = 9) -> SweepResult:
    _check_bounds(max_side=max_side, max_cells=max_cells)
    return _sweep(
        sizes_tuples(max_side, max_cells),
        check_sizes,
        ("r", "c", "s", "v"),
        Budget(max_cells=max(max_cells, 12)),
    )
