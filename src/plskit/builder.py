"""Constructions that realize a feasibility verdict as an explicit square.

fill_symbols is the workhorse: it fills an arbitrary nonempty cell set
with the fewest symbols possible, namely the maximum number of cells in
any one line.  It peels one matching per symbol, from the heaviest count
down to 1.  At count p, the rows and columns holding exactly p cells all
have degree p in the occupancy graph of the remaining cells, whose
maximum degree is p, so a matching covering all of them exists; removing
it drops the maximum count to exactly p - 1.

The peeling engine, iter_symbol_layers, keeps one row and one column
adjacency list for the whole run, removes each layer's cells from them in
place, and reads every line count off the list lengths.  Those lists are
the adjacency dicts that the public saturating_matching takes, so each
layer is two saturating_matching calls and one merge_matchings call, the
same API any other caller uses.

The three build_* entry points chain the feasibility predicate, the
degree matrix realization, the symbol fill, and the symbol split into
complete constructions for the three kinds of prescription.  The fill
and the split hand a plain {(row, col): symbol} map to each other, and
the square is validated once, when the finished map becomes a
PartialLatinSquare.  Its output is normalized without a relabeling pass:
the realization fills every row 1..r and column 1..c, every peel layer
is nonempty so the fill uses every symbol 1..max, and the split adds
symbols max+1, max+2, ...

Each build_* validates its input once, in its predicate: build_theorem
hands the checked lists to the realization without a second check.
Once the predicate passes, a build whose volume exceeds MAX_CELLS raises
BudgetExceeded before it allocates anything proportional to the volume.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .core import CellSet, PartialLatinSquare, positive_int, validate
from .errors import BudgetExceeded, Infeasible, PreconditionViolated
from .feasibility import (
    FeasibilityReport,
    check_construction,
    check_row_params,
    check_sizes,
)
from .matching import LEFT, RIGHT, merge_matchings, saturating_matching
from .realization import distribute_rows, realize_unchecked

Labels = dict[tuple[int, int], int]  # (row, col) -> symbol

MAX_CELLS = 10**6  # the largest volume a builder constructs


def iter_symbol_layers(cell_set: CellSet) -> Iterator[tuple[int, frozenset[tuple[int, int]]]]:
    """Yield (count, cells) pairs, one matching per symbol, heaviest first.

    After the layer for count p is removed, no remaining line holds p or
    more cells; the generator checks this instead of assuming it.  The
    yielded cell groups partition the input cell set.
    """
    rows: dict[int, list[int]] = {}
    cols: dict[int, list[int]] = {}
    for i, j in sorted(cell_set.cells):
        rows.setdefault(i, []).append(j)
        cols.setdefault(j, []).append(i)
    top = max(max(map(len, rows.values())), max(map(len, cols.values())))
    for p in range(top, 0, -1):
        peak = max(max(map(len, rows.values())), max(map(len, cols.values())))
        assert peak == p, f"expected maximum line count {p}, found {peak}"

        x1 = sorted(i for i, line in rows.items() if len(line) == p)
        y1 = sorted(j for j, line in cols.items() if len(line) == p)
        m = saturating_matching(rows, LEFT, x1)
        n = saturating_matching(cols, RIGHT, y1)
        layer = merge_matchings(m, n, x1, y1)
        yield p, frozenset(layer)
        for i, j in layer:
            rows[i].remove(j)
            cols[j].remove(i)
    assert not any(rows.values()), "cells left over after the final layer"


def _fill(cell_set: CellSet) -> Labels:
    return {cell: p for p, layer in iter_symbol_layers(cell_set) for cell in layer}


def _square(labels: Labels) -> PartialLatinSquare:
    return validate((i, j, sym) for (i, j), sym in labels.items())


def fill_symbols(cell_set: CellSet) -> PartialLatinSquare:
    """Fill the cells of ``cell_set`` using the minimum number of symbols.

    The result occupies exactly the given cells and its symbol count
    equals the maximum line count of the cell set; the cells removed at
    count p all receive symbol p.
    """
    return _square(_fill(cell_set))


def _split(labels: Labels, s: int) -> None:
    # Relabel cells in place until s symbols are in use.  Symbols wait in
    # buckets by count; the donor is the smallest label in the highest
    # bucket, which drops to the bucket below.  A bucket is sorted when
    # its turn comes, by then holding every symbol demoted into it.
    cells_of: dict[int, list[tuple[int, int]]] = {}
    for cell in sorted(labels, reverse=True):
        cells_of.setdefault(labels[cell], []).append(cell)
    by_count: dict[int, list[int]] = {}
    for sym, cells in cells_of.items():
        by_count.setdefault(len(cells), []).append(sym)

    fresh = max(cells_of)
    level = max(by_count) + 1
    queue: list[int] = []
    for _ in range(s - len(cells_of)):
        while not queue:
            level -= 1
            queue = sorted(by_count.pop(level, ()), reverse=True)
        donor = queue.pop()
        by_count.setdefault(level - 1, []).append(donor)
        fresh += 1
        labels[cells_of[donor].pop()] = fresh


def split_symbols(pls: PartialLatinSquare, s: int) -> PartialLatinSquare:
    """Raise the symbol count of ``pls`` to exactly s without moving cells.

    Requires current symbol count <= s <= volume.  Repeatedly relabels
    one cell of a most frequent symbol (ties to the smallest label; the
    cell with the lowest row, then column) with a fresh symbol, so only
    symbols occurring at least twice ever lose a cell and no existing
    symbol disappears.
    """
    positive_int("s", s)
    labels = {(i, j): k for i, j, k in pls.triples}
    symbols = len(set(labels.values()))
    if not (symbols <= s <= len(labels)):
        raise PreconditionViolated(
            f"target symbol count {s} outside [{symbols}, {len(labels)}]"
        )
    _split(labels, s)
    return _square(labels)


def _require_feasible(report: FeasibilityReport) -> None:
    if not report.feasible:
        detail = "; ".join(f"{c.id}: {c.witness}" for c in report.violated())
        raise Infeasible(f"no such square exists ({detail})", report=report)


def _require_volume(v: int) -> None:
    if v > MAX_CELLS:
        raise BudgetExceeded(f"volume {v} above the builder cap of {MAX_CELLS} cells")


def build_theorem(n: Sequence[int], m: Sequence[int], s: int) -> PartialLatinSquare:
    """Construct a PLS with row parameters n, column parameters m, s symbols.

    Row i holds exactly n[i] cells and column j exactly m[j].  Raises
    Infeasible carrying the check_construction report when the profile is
    impossible, and BudgetExceeded when the volume exceeds MAX_CELLS.
    """
    n, m = tuple(n), tuple(m)
    _require_feasible(check_construction(n, m, s))
    _require_volume(sum(n))
    labels = _fill(realize_unchecked(n, m))
    _split(labels, s)
    return _square(labels)


def build_proposition(n: Sequence[int], c: int, s: int) -> PartialLatinSquare:
    """Construct a PLS with row parameters n, c columns, and s symbols.

    Hands build_theorem the most even column counts, distribute_rows(v,
    c, s).  When check_row_params holds, c <= v <= c * s puts every count
    in [1, s], and since the even split is minimal in the majorization
    order, Gale-Ryser realizes it against any n whose entries are at most
    min(c, s).  Raises Infeasible with the check_row_params report, and
    BudgetExceeded when the volume exceeds MAX_CELLS.
    """
    _require_feasible(check_row_params(n, c, s))
    v = sum(n)
    _require_volume(v)
    return build_theorem(n, distribute_rows(v, c, s), s)


def build_corollary(r: int, c: int, s: int, v: int) -> PartialLatinSquare:
    """Construct a PLS with r rows, c columns, s symbols, and volume v.

    Spreads the volume evenly over the rows and delegates to
    build_proposition.  Raises Infeasible with the check_sizes report, and
    BudgetExceeded when v exceeds MAX_CELLS.
    """
    _require_feasible(check_sizes(r, c, s, v))
    _require_volume(v)
    n = distribute_rows(v, r, min(c, s))
    return build_proposition(n, c, s)
