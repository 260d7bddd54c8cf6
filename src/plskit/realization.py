"""Constructing cell sets with prescribed line counts.

realize_lines builds a 0-1 matrix with given row and column sums as the
two adjacency maps the builders' peel works on: each row's columns and
each column's rows, in increasing order.  It is a build stage, run only
on counts a build's predicate has accepted or that distribute_rows
derived, so it only asserts what a builder bug could break: equal
totals, and a row that finds enough columns.  It follows the classical
greedy argument behind the Gale-Ryser theorem: each row, taken in
decreasing count order, goes to the columns with the most demand left.
A bucket queue of columns keyed by remaining demand, sized by the
number of columns and never by a demand value, replaces a sort of every
column per row, so beyond one sort of the rows the cost is
proportional to the cells placed and the demand levels visited.  The
sorted list of demand levels is rebuilt only after a row empties a
level or opens a new one; a row that takes part of one level and lands
on an existing one leaves it as it was.  A row's columns come from a
few levels, each already in index order, so a row that takes from one
level keeps that order and a row that takes from several merges a few
runs with one sort; the columns' rows come out sorted by reading the
rows in index order.
distribute_rows splits a volume into near equal line counts.  That split
is minimal in the majorization order, so by Gale-Ryser it is realizable
as column sums against any row sums of the same total whose entries do
not exceed the number of columns; the builders use it in place of any
search for column counts.
"""

from __future__ import annotations

from bisect import insort
from typing import Sequence

from .core import positive_int
from .errors import PreconditionViolated


Lines = dict[int, list[int]]  # line -> its partners, increasing


def realize_lines(n: Sequence[int], m: Sequence[int]) -> tuple[Lines, Lines]:
    """Place sum(n) cells so row i holds n[i] of them and column j holds m[j].

    Returns (rows, cols): ``rows`` maps each row 1..len(n) to its columns
    and ``cols`` each column 1..len(m) to its rows, both in increasing
    order, the form saturating_matching takes.  Rows are processed in
    decreasing count order, ties by index, and each row's cells go to
    the columns with the most remaining demand, lowest index first, so
    the construction is deterministic.

    The counts must be positive ints with equal totals that pass the
    dominance condition; by Gale-Ryser the greedy then fills every row.
    A caller that breaks this fails an assertion, as a builder bug would.
    """
    assert sum(n) == sum(m), f"row total {sum(n)} differs from column total {sum(m)}"
    levels: dict[int, list[int]] = {}  # remaining demand -> columns, increasing
    for j, demand in enumerate(m, start=1):
        levels.setdefault(demand, []).append(j)
    demands = sorted(levels)  # the nonempty levels, increasing
    lines: list[list[int]] = [[] for _ in n]
    # A stable sort in reverse keeps equal counts in increasing index order.
    for i in sorted(range(len(n)), key=n.__getitem__, reverse=True):
        need = n[i]
        moves = []  # (new level, columns taken from the level above it)
        top = len(demands) - 1
        while need:
            assert top >= 0, f"row {i + 1} finds too few columns with demand left"
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
        line = lines[i]
        emptied = top < len(demands) - 1
        appeared = False
        for demand, columns in moves:
            line += columns
            if demand:
                below = levels.get(demand)
                if below is None:
                    levels[demand] = columns
                    appeared = True
                else:
                    # At most n[i] columns move in one row, so inserting
                    # them one by one beats re-sorting a long level.
                    for j in columns:
                        insort(below, j)
        # One level's columns are already in index order.
        if len(moves) > 1:
            line.sort()
        if emptied or appeared:
            # Only levels from demands[top - 1] up can have appeared,
            # vanished or merged: the moves land at most one level below
            # the last one taken from, which is demands[top] or
            # demands[top + 1].
            low = max(top - 1, 0)
            landed = {demand for demand, _ in moves if demand}
            demands[low:] = sorted(landed.union(demands[low : top + 1]))
    cols: Lines = {j: [] for j in range(1, len(m) + 1)}
    for i, line in enumerate(lines, start=1):
        for j in line:
            cols[j].append(i)
    return dict(enumerate(lines, start=1)), cols


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
