"""Constructing cell sets with prescribed line counts.

realize_degree_matrix builds a 0-1 matrix with given row and column sums
by the classical greedy argument behind the Gale-Ryser theorem: each row,
taken in decreasing count order, goes to the columns with the most demand
left.  A bucket queue of columns keyed by remaining demand replaces a sort
of every column per row, so beyond one sort of the rows the cost is
proportional to the cells placed and the demand levels visited.
distribute_rows splits a volume into near equal line counts.  That split
is minimal in the majorization order, so by Gale-Ryser it is realizable
as column sums against any row sums of the same total whose entries do
not exceed the number of columns; the builders use it in place of any
search for column counts.
"""

from __future__ import annotations

from bisect import insort
from typing import Sequence

from .core import CellSet, positive_int, positive_ints
from .errors import Infeasible, PreconditionViolated
from .feasibility import dominance_check


def realize_degree_matrix(n: Sequence[int], m: Sequence[int]) -> CellSet:
    """Place sum(n) cells so row i holds n[i] of them and column j holds m[j].

    Rows are processed in decreasing count order (ties by index) and each
    row's cells go to the columns with the largest remaining demand (ties
    by index), so the construction is deterministic.  The columns sit in
    a bucket queue: one list per distinct remaining demand, each in
    increasing index order, with the demands kept in a sorted list.  A
    row of count k takes columns from the highest level down, lowest
    index first within a level, and then moves every taken column down
    one level.  Beyond the one sort of the rows, the cost is proportional
    to the cells placed and the levels visited, and the structure is
    sized by the number of columns, never by a demand value.

    By Gale-Ryser this greedy fills every row exactly when the dominance
    condition holds, so dominance_check runs only once a row finds too
    few columns with demand left, to name the witness.  Raises Infeasible
    when the totals differ or the dominance condition fails; the witness
    is the violating prefix pair from dominance_check.
    """
    n = positive_ints("n", n)
    m = positive_ints("m", m)
    if sum(n) != sum(m):
        raise Infeasible(
            f"row total {sum(n)} differs from column total {sum(m)}",
            witness=(sum(n), sum(m)),
        )
    return realize_unchecked(n, m)


def realize_unchecked(n: tuple[int, ...], m: tuple[int, ...]) -> CellSet:
    """realize_degree_matrix without its input checks.

    n and m must be tuples of positive ints with equal totals.  This is
    for a caller that has just validated them, such as build_theorem
    after check_construction, so a build checks its input once.  The
    greedy, its tie rules and its Infeasible on a dominance failure are
    those of realize_degree_matrix.
    """
    levels: dict[int, list[int]] = {}  # remaining demand -> columns, increasing
    for j, demand in enumerate(m, start=1):
        levels.setdefault(demand, []).append(j)
    demands = sorted(levels)  # the nonempty levels, increasing
    cells = []
    # A stable sort in reverse keeps equal counts in increasing index order.
    for i in sorted(range(len(n)), key=n.__getitem__, reverse=True):
        need = n[i]
        moves = []  # (new level, columns taken from the level above it)
        top = len(demands) - 1
        while need:
            if top < 0:
                holds, witness = dominance_check(n, m)
                assert not holds, "greedy realization failed although dominance holds"
                k, l = witness
                raise Infeasible(
                    f"degree matrix infeasible: top {k} rows and top {l} columns "
                    f"demand more cells than the board admits",
                    witness=witness,
                )
            demand = demands[top]
            columns = levels[demand]
            if len(columns) <= need:
                del levels[demand]
                top -= 1
            else:
                taken = columns[:need]
                del columns[:need]
                columns = taken
            moves.append((demand - 1, columns))
            need -= len(columns)
        # Move only after every take, so no column is taken twice.
        row = i + 1
        for demand, columns in moves:
            cells.extend([(row, j) for j in columns])
            if demand:
                below = levels.get(demand)
                if below is None:
                    levels[demand] = columns
                else:
                    # At most n[i] columns move in one row, so inserting
                    # them one by one beats re-sorting a long level.
                    for j in columns:
                        insort(below, j)
        # Only levels from demands[top - 1] up can have appeared, vanished
        # or merged: the moves land at most one level below the last one
        # taken from, which is demands[top] or demands[top + 1].
        low = max(top - 1, 0)
        landed = {demand for demand, _ in moves if demand}
        demands[low:] = sorted(landed.union(demands[low : top + 1]))
    return CellSet(frozenset(cells), rows=len(n), cols=len(m))


def distribute_rows(v: int, r: int, cap: int) -> tuple[int, ...]:
    """Split a volume of v cells over r rows, each holding 1..cap cells.

    The split is as even as possible (largest and smallest counts differ
    by at most one) with the larger counts first.
    """
    positive_int("volume", v)
    positive_int("row count", r)
    positive_int("cap", cap)
    if not (r <= v <= r * cap):
        raise PreconditionViolated(f"volume {v} outside [{r}, {r * cap}] for {r} rows with cap {cap}")
    base, extra = divmod(v, r)
    return (base + 1,) * extra + (base,) * (r - extra)
