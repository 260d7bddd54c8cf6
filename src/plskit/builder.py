"""Constructions that realize a feasibility verdict as an explicit square.

fill_symbols is the workhorse: it fills an arbitrary nonempty cell set
with the fewest symbols possible, namely the maximum number of cells in
any one line.  It peels one matching per symbol, from the heaviest count
down to 1.  At count p, the rows and columns holding exactly p cells all
have degree p in the occupancy graph of the remaining cells, whose
maximum degree is p, so a matching covering all of them exists; removing
it drops the maximum count to exactly p - 1.

The three build_* entry points chain the feasibility predicate, the
degree matrix realization, the symbol fill, and the symbol split into
complete constructions for the three kinds of prescription.  Their
output is normalized without a relabeling pass: the realization fills
every row 1..r and column 1..c, every peel layer is nonempty so the fill
uses every symbol 1..max, and the split adds symbols max+1, max+2, ...
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Sequence

from .core import CellSet, PartialLatinSquare, Triple, positive_int, validate
from .errors import Infeasible, PreconditionViolated
from .feasibility import (
    FeasibilityReport,
    check_construction,
    check_row_params,
    check_sizes,
)
from .matching import BipartiteGraph, merge_matchings, saturating_matching
from .realization import distribute_rows, realize_degree_matrix


def iter_symbol_layers(cell_set: CellSet) -> Iterator[tuple[int, frozenset[tuple[int, int]]]]:
    """Yield (count, cells) pairs, one matching per symbol, heaviest first.

    After the layer for count p is removed, no remaining line holds p or
    more cells; the generator checks this instead of assuming it.  The
    yielded cell groups partition the input cell set.
    """
    remaining = set(cell_set.cells)
    top = max(max(cell_set.row_counts()), max(cell_set.col_counts()))
    for p in range(top, 0, -1):
        row_counts = Counter(i for i, _ in remaining)
        col_counts = Counter(j for _, j in remaining)
        peak = max(max(row_counts.values()), max(col_counts.values()))
        assert peak == p, f"expected maximum line count {p}, found {peak}"

        graph = BipartiteGraph(cell_set.rows, cell_set.cols, frozenset(remaining))
        x1 = sorted(i for i, k in row_counts.items() if k == p)
        y1 = sorted(j for j, k in col_counts.items() if k == p)
        m = saturating_matching(graph, "left", x1)
        n = saturating_matching(graph, "right", y1)
        layer = merge_matchings(graph, m, n, x1, y1).edges
        yield p, frozenset(layer)
        remaining -= layer
    assert not remaining, "cells left over after the final layer"


def fill_symbols(cell_set: CellSet) -> PartialLatinSquare:
    """Fill the cells of ``cell_set`` using the minimum number of symbols.

    The result occupies exactly the given cells and its symbol count
    equals the maximum line count of the cell set; the cells removed at
    count p all receive symbol p.
    """
    triples = set()
    for p, layer in iter_symbol_layers(cell_set):
        for i, j in layer:
            triples.add(Triple(i, j, p))
    return validate(triples)


def split_symbols(pls: PartialLatinSquare, s: int) -> PartialLatinSquare:
    """Raise the symbol count of ``pls`` to exactly s without moving cells.

    Requires current symbol count <= s <= volume.  Repeatedly relabels
    one cell of a most frequent symbol (ties to the smallest label; the
    cell with the lowest row, then column) with a fresh symbol, so only
    symbols occurring at least twice ever lose a cell and no existing
    symbol disappears.
    """
    positive_int("s", s)
    triples = set(pls.triples)
    symbols = {t.sym for t in triples}
    if not (len(symbols) <= s <= len(triples)):
        raise PreconditionViolated(
            f"target symbol count {s} outside [{len(symbols)}, {len(triples)}]"
        )

    fresh = max(symbols)
    while len(symbols) < s:
        counts = Counter(t.sym for t in triples)
        donor = max(
            (sym for sym, k in counts.items() if k >= 2),
            key=lambda sym: (counts[sym], -sym),
        )
        cell = min((t for t in triples if t.sym == donor), key=lambda t: (t.row, t.col))
        fresh += 1
        triples.remove(cell)
        triples.add(Triple(cell.row, cell.col, fresh))
        symbols.add(fresh)
    return validate(triples)


def _require_feasible(report: FeasibilityReport) -> None:
    if not report.feasible:
        detail = "; ".join(f"{c.id}: {c.witness}" for c in report.violated())
        raise Infeasible(f"no such square exists ({detail})", report=report)


def build_theorem(n: Sequence[int], m: Sequence[int], s: int) -> PartialLatinSquare:
    """Construct a PLS with row parameters n, column parameters m, s symbols.

    Row i holds exactly n[i] cells and column j exactly m[j].  Raises
    Infeasible carrying the check_construction report when the profile is
    impossible.
    """
    _require_feasible(check_construction(n, m, s))
    cells = realize_degree_matrix(n, m)
    filled = fill_symbols(cells)
    return split_symbols(filled, s)


def build_proposition(n: Sequence[int], c: int, s: int) -> PartialLatinSquare:
    """Construct a PLS with row parameters n, c columns, and s symbols.

    Hands build_theorem the most even column counts, distribute_rows(v,
    c, s).  When check_row_params holds, c <= v <= c * s puts every count
    in [1, s], and since the even split is minimal in the majorization
    order, Gale-Ryser realizes it against any n whose entries are at most
    min(c, s).  Raises Infeasible with the check_row_params report.
    """
    _require_feasible(check_row_params(n, c, s))
    return build_theorem(n, distribute_rows(sum(n), c, s), s)


def build_corollary(r: int, c: int, s: int, v: int) -> PartialLatinSquare:
    """Construct a PLS with r rows, c columns, s symbols, and volume v.

    Spreads the volume evenly over the rows and delegates to
    build_proposition.  Raises Infeasible with the check_sizes report.
    """
    _require_feasible(check_sizes(r, c, s, v))
    n = distribute_rows(v, r, min(c, s))
    return build_proposition(n, c, s)
