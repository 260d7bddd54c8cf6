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
the ``exists_full`` constraints its values pin, its canonical cases and
their groups' parents, its range bounds, the oracle budget they need,
its public sweep, whose signature holds the bounds' defaults, and its
command line help text and flags.  Functions are named, not held, and
each caller looks a name up in its own module when it calls: a wrapper
set on a module (a tracer, a test double) sees every call.  So a new
form is one more row, with its predicate, cases and parents in this
module and its predicate, builder and sweep imported into
``plskit.cli``, whose check, build and sweep commands read every row.
``sweep`` reads ``exists_full``, the predicates and the parents from
this module when it calls them.

A sweep calls the predicate once per checked prescription, in case
order, but asks the oracle only where its verdict can change, by two
elementary facts.  Split: a square with s < v symbols uses some symbol
twice, and giving one of those cells a fresh symbol keeps the cells and
makes s + 1 symbols.  So with every other field fixed, existence is
non-decreasing in s on [1, v], and false above v, as v cells hold at
most v symbols.  Move: a square with a column of two or more cells
keeps its rows and symbols when one of those cells, (i, j, k), moves to
a fresh column, as row i still holds k once and the new column holds
only k.  So a column count c found stays found at c + 1 while c + 1 <= v
(c columns need c cells), and a column family found stays found when
one entry e >= 2 becomes e - 1 and a new entry 1; rows alike, by
transposition.  A group's parents are the groups one move back, each
written canonically:

- theorem (n, m): (n, m+) for each m+ made by joining m's trailing 1
  onto one of its other entries, one per distinct value, and (n+, m)
  likewise, each pair in order;
- rows (n, c): (n+, c), and (n, c - 1) when 1 < c <= sum(n) and
  (n, c - 1, s) is canonical for the group's s, that is c <= the symbol
  bound or c - 1 above it;
- sizes (r, c, v): (r, c - 1, v) when 1 < c <= v, as (c - 1, r, v) if
  c - 1 < r, and (r - 1, c, v) when 1 < r <= v.

Every form has an s, so ``sweep`` groups the cases that differ only in
s.  A case with s > v is False by count; on the others, s ascending,
the oracle's True cases are a suffix, and ``sweep`` keeps the least s
found in each settled group.  A group the predicate calls feasible
somewhere takes as its bound the least such s among its settled
parents: every case from the bound up is found, unasked.  Below the
bound the sweep asks the oracle at the predicate's first True case,
which should be found, and at the case before it, which should not; if
both answers hold they settle the group.  Otherwise it asks the group's
top case, and if that is found, bisects between the answers so far for
the first found case.  Every verdict follows from the oracle's answers
and the facts, none from the predicate, so a wrong predicate is
reported at every case it gets wrong.  Each form's cases list s
ascending within a group and its parents before each group, but for
some theorem pairs whose join sorts after them (a parent not yet
settled only gives no bound), and a group lies within one block of
cases sharing the fields before s, so the sweep holds one block at a
time: for sizes, whose v is innermost, one (r, c) block.  Moves keep
the volume, and the theorem's cases ascend in it, so a theorem sweep
keeps the found s of one total at a time.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import namedtuple
from operator import itemgetter
from typing import Iterator

from .core import positive_int
from .errors import PreconditionViolated
from .feasibility import check_construction, check_row_params, check_sizes
from .oracle import Budget, exists_full


class SweepResult(namedtuple("SweepResult", ("checked", "mismatches"))):
    """How many canonical prescriptions a sweep checked, and where the routes differ."""

    __slots__ = ()

    @property
    def clean(self) -> bool:
        return not self.mismatches


# One form of prescription: the names of its predicate, builder, canonical
# case generator, parents (called with a group's fields but s, then the
# range bounds, it yields the groups one move back, as the module
# docstring lists them) and sweep; the exists_full constraints its values
# pin and its range bounds, each in order; the budget caps (cells, rows, columns,
# symbols) that a range with those bounds needs; and its check and build
# help text, and the command line flag of each field, in field order.
Form = namedtuple("Form", "predicate builder cases parents sweep fields bounds caps help flags")

FORMS = {
    "theorem": Form(
        "check_construction", "build_theorem", "theorem_tuples", "theorem_parents",
        "sweep_theorem",
        ("rows", "cols", "s"), ("max_side", "max_entry", "max_cells"),
        lambda side, entry, cells: (cells, side, side, cells),
        "row and column parameters, symbol count", ("rows", "cols", "symbols"),
    ),
    "rows": Form(
        "check_row_params", "build_proposition", "row_params_tuples", "row_params_parents",
        "sweep_row_params",
        ("rows", "c", "s"), ("max_side", "max_entry", "max_symbols"),
        lambda side, entry, symbols: (side * entry, side, side, symbols),
        "row parameters, column count, symbol count", ("rows", "c", "s"),
    ),
    "sizes": Form(
        "check_sizes", "build_corollary", "sizes_tuples", "sizes_parents", "sweep_sizes",
        ("r", "c", "s", "v"), ("max_side", "max_cells"),
        lambda side, cells: (cells, side, side, side),
        "row, column, symbol, and cell counts", ("r", "c", "s", "v"),
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


def _joins(family: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    # The families one move back from a non-increasing family: its
    # trailing 1 joined onto one of its other entries, one per distinct
    # value, each raised at its first place so the family stays sorted.
    if len(family) > 1 and family[-1] == 1:
        for i, entry in enumerate(family[:-1]):
            if i == 0 or entry < family[i - 1]:
                yield family[:i] + (entry + 1,) + family[i + 1:-1]


def theorem_parents(n, m, *bounds) -> Iterator[tuple]:
    """The theorem groups one move back from (n, m): m or n joined, the pair in order."""
    for joined in _joins(m):
        yield (n, joined) if n <= joined else (joined, n)
    for joined in _joins(n):
        yield (joined, m) if joined <= m else (m, joined)


def row_params_parents(n, c, max_side, max_entry, max_symbols) -> Iterator[tuple]:
    """The rows groups one move back from (n, c): n joined, and c - 1 where canonical."""
    for joined in _joins(n):
        yield joined, c
    if 1 < c <= sum(n) and (c <= max_symbols or c - 1 > max_symbols):
        yield n, c - 1


def sizes_parents(r, c, v, *bounds) -> Iterator[tuple]:
    """The sizes groups one move back from (r, c, v): one column fewer, or one row fewer."""
    if 1 < c <= v:
        yield (r, c - 1, v) if r < c else (c - 1, r, v)
    if 1 < r <= v:
        yield r - 1, c, v


def sweep(form: str, *bounds: int) -> SweepResult:
    """Compare a form's predicate with the oracle over the canonical cases of a range.

    ``bounds`` are the form's range bounds, in the order ``FORMS`` names them.
    """
    row = FORMS.get(form) if isinstance(form, str) else None
    if row is None:
        raise PreconditionViolated(f"form must be one of {', '.join(FORMS)}")
    if len(bounds) != len(row.bounds):
        names = ", ".join(row.bounds)
        raise PreconditionViolated(f"a {form} sweep takes the bounds {names}; got {len(bounds)}")
    # A bound below 1 would make an empty range, and so a vacuous clean.
    for name, value in zip(row.bounds, bounds):
        positive_int(name, value)
    # Every case pins each dimension, so the budget only decides which
    # cases the oracle refuses: its caps are the range's own.
    budget = Budget(*row.caps(*bounds))
    predicate = globals()[row.predicate]
    parents = globals()[row.parents]
    at = row.fields.index("s")
    head, tail = itemgetter(slice(at)), itemgetter(slice(at + 1, None))
    mismatches = []
    checked = 0
    # The least s found in each settled group, by its fields but s.
    first = {}
    total = None
    for _, block in itertools.groupby(globals()[row.cases](*bounds), key=head):
        block = list(block)
        checked += len(block)
        predicted = [predicate(*case).feasible for case in block]
        groups = {}
        for index, rest in enumerate(map(tail, block)):
            groups.setdefault(rest, []).append(index)
        actual = [False] * len(block)
        for rest, group in groups.items():
            case = block[group[0]]
            key = head(case) + rest
            question = dict(zip(row.fields, case))
            # Every form pins the volume, by v or by its row family.
            volume = question["v"] if "v" in question else sum(question["rows"])
            # Moves keep the volume, and the theorem's cases ascend in it.
            if form == "theorem" and volume != total:
                first.clear()
                total = volume
            keys = [block[index][at] for index in group]
            top = bisect_right(keys, volume)
            guess = next((k for k in range(top) if predicted[group[k]]), top)
            hi = top
            if guess < top:
                # Every key from the least s found among the settled
                # parents is found.
                found = (first[parent] for parent in parents(*key, *bounds) if parent in first)
                hi = bisect_left(keys, min(found, default=volume + 1), 0, top)
            hi = _first_found(question, keys, guess, hi, top, budget)
            if hi < top:
                first[key] = keys[hi]
                for index in group[hi:top]:
                    actual[index] = True
        if actual != predicted:
            mismatches.extend(
                (*case, guess, verdict)
                for case, guess, verdict in zip(block, predicted, actual)
                if guess != verdict
            )
    return SweepResult(checked, tuple(mismatches))


def _first_found(question, keys, guess, hi, top, budget) -> int:
    # The position of the first key the oracle finds among keys[:top],
    # a group's s values up to the volume, ascending, or top if none.  By
    # the split fact the found keys run from it to top, so lo and hi
    # bracket it: lo is not found and hi is, each -1 or top until the
    # oracle says so, but hi may start lower, at a parent's bound.
    probes = [guess, guess - 1, top - 1]
    lo = -1
    while hi - lo > 1:
        k = probes.pop(0) if probes else (lo + hi) // 2
        if lo < k < hi:
            question["s"] = keys[k]
            if exists_full(**question, budget=budget)[0]:
                hi = k
            else:
                lo = k
    return hi


def sweep_theorem(max_side: int = 3, max_entry: int = 3, max_cells: int = 9) -> SweepResult:
    return sweep("theorem", max_side, max_entry, max_cells)


def sweep_row_params(max_side: int = 3, max_entry: int = 3, max_symbols: int = 3) -> SweepResult:
    return sweep("rows", max_side, max_entry, max_symbols)


def sweep_sizes(max_side: int = 3, max_cells: int = 9) -> SweepResult:
    return sweep("sizes", max_side, max_cells)
