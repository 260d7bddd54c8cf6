"""Constructing cell sets with prescribed line counts.

realize_degree_matrix builds a 0-1 matrix with given row and column sums
by the classical greedy argument behind the Gale-Ryser theorem.
distribute_rows splits a volume into near equal line counts.  That split
is minimal in the majorization order, so by Gale-Ryser it is realizable
as column sums against any row sums of the same total whose entries do
not exceed the number of columns; the builders use it in place of any
search for column counts.
"""

from __future__ import annotations

from typing import Sequence

from .core import CellSet, positive_int, positive_ints
from .errors import Infeasible, PreconditionViolated
from .feasibility import dominance_check


def realize_degree_matrix(n: Sequence[int], m: Sequence[int]) -> CellSet:
    """Place sum(n) cells so row i holds n[i] of them and column j holds m[j].

    Rows are processed in decreasing count order (ties by index) and each
    row's cells go to the columns with the largest remaining demand (ties
    by index), so the construction is deterministic.  By Gale-Ryser this
    greedy fills every row exactly when the dominance condition holds, so
    dominance_check runs only once a row finds too few columns with
    demand left, to name the witness.  Raises Infeasible when the totals
    differ or the dominance condition fails; the witness is the violating
    prefix pair from dominance_check.
    """
    n = positive_ints("n", n)
    m = positive_ints("m", m)
    if sum(n) != sum(m):
        raise Infeasible(
            f"row total {sum(n)} differs from column total {sum(m)}",
            witness=(sum(n), sum(m)),
        )

    remaining = list(m)
    cells = set()
    for i in sorted(range(len(n)), key=lambda i: (-n[i], i)):
        columns = sorted(range(len(m)), key=lambda j: (-remaining[j], j))[: n[i]]
        if len(columns) < n[i] or not remaining[columns[-1]]:
            holds, witness = dominance_check(n, m)
            assert not holds, "greedy realization failed although dominance holds"
            k, l = witness
            raise Infeasible(
                f"degree matrix infeasible: top {k} rows and top {l} columns "
                f"demand more cells than the board admits",
                witness=witness,
            )
        for j in columns:
            remaining[j] -= 1
            cells.add((i + 1, j + 1))
    return CellSet(frozenset(cells), rows=len(n), cols=len(m))


def distribute_rows(v: int, r: int, cap: int) -> tuple[int, ...]:
    """Split a volume of v cells over r rows, each holding 1..cap cells.

    The split is as even as possible (largest and smallest counts differ
    by at most one) with the larger counts first.
    """
    positive_int("row count", r)
    positive_int("cap", cap)
    if not (r <= v <= r * cap):
        raise PreconditionViolated(f"volume {v} outside [{r}, {r * cap}] for {r} rows with cap {cap}")
    base, extra = divmod(v, r)
    return (base + 1,) * extra + (base,) * (r - extra)
