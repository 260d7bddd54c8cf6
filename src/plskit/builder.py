"""Constructions that realize a feasibility verdict as an explicit square.

fill_symbols is the workhorse: it fills an arbitrary nonempty set of
(row, col) cells with the fewest symbols possible, namely the maximum
number of cells in any one line.  It peels one matching per symbol, from
the heaviest count down to 1.  At count p, the rows and columns holding
exactly p cells all have degree p in the occupancy graph of the
remaining cells, whose maximum degree is p, so a matching covering all
of them exists; removing it drops the maximum count to exactly p - 1.

The peel works on one row and one column adjacency map for the whole
run, each line's partners in increasing order, removes each layer's
cells from them in place, and reads every line count off the list
lengths.  The maps are the adjacency dicts that saturating_matching,
the peel's build stage in plskit.matching, takes, so each layer starts
as M = saturating_matching(rows, X1) for the tight rows X1.  When M
already covers the tight columns Y1, M is the layer: merge_matchings
would start from M and walk from no column, so N =
saturating_matching(cols, Y1) and merge_matchings(M, N), which reads
X1 and Y1 off their keys, run only when M leaves part of Y1 uncovered.
M alone is every layer of a Latin or other regular profile.

The peel never scans all lines for the peak.  A line at count p is
tight; the layer takes exactly one cell from each tight line and at
most one from any other, so a tight line is tight again at p - 1, and
a line that is not yet tight becomes so only by reaching the count
untouched.  So the tight rows and columns are carried from layer to
layer, and the other lines wait in buckets keyed by the count they were
filed at.  At count p only the bucket for p is read: a line still at p
joins the tight set, and one the peel has touched since it was filed
goes into the bucket for its count now.  A layer costs what its matching and its
cells cost, not the number of lines, so a 1 x n board peels in time
near linear in n, apart from the list shift of each removal.  The peel
checks its invariant as it goes: every layer is nonempty, every line a
layer touches lands on p - 1 if tight and below that otherwise, and no
cell is left after the last layer.

The three build_* entry points chain the feasibility predicate, the
degree matrix realization, the symbol fill, and the symbol split into
complete constructions for the three kinds of prescription.  The
realization hands the fill its row and column maps as it built them,
already sorted, so a build never regroups cells; fill_symbols groups its
own cells into the same maps.  The fill keeps each layer as the
{row: col} matching dict it peeled, so the split gets its layers as
{symbol: {row: col}}.  The square is built as three label columns,
rows, columns and symbols, one cell per index: the split pops single
cells out of a donor's dict and appends each to the columns under its
fresh symbol, and each layer's remaining cells join them last as its
dict's keys, its values and its symbol repeated.  No stage makes a
tuple per cell, and none re-checks the cells it is given: the one cell
check of a build is validate, which takes the columns as they are and
makes the square's Triples.  Its output is normalized without a
relabeling pass: the realization fills every row 1..r and column 1..c,
every peel layer is nonempty so the fill uses every symbol 1..max, and
the split adds symbols max+1, max+2, ...

Each build_* validates its input in its own predicate and hands the
checked or derived counts to realize_lines, which checks them no
further than asserting that they realize.  Once the predicate passes,
a build whose volume exceeds MAX_CELLS raises BudgetExceeded before it
allocates anything proportional to the volume.
"""

from __future__ import annotations

import heapq
from itertools import repeat
from typing import Iterable, Sequence

from .core import (
    PartialLatinSquare, _Columns, _iterable, _label_name, is_positive_int, positive_int,
    positive_ints, validate,
)
from .errors import BudgetExceeded, Infeasible, PreconditionViolated
from .feasibility import (
    FeasibilityReport,
    check_construction,
    check_row_params,
    check_sizes,
)
from .matching import merge_matchings, saturating_matching
from .realization import Lines, distribute_rows, realize_lines

Layers = dict[int, dict[int, int]]  # symbol -> {row: col} for each of its cells

MAX_CELLS = 10**6  # the largest volume a builder constructs


def _admit(tight: set[int], waiting: dict[int, list[int]], lines: Lines, p: int) -> None:
    # Lines filed under count p that still hold p cells join the tight
    # set; the peel has taken cells from the rest since they were filed,
    # so each is filed again under its count now, or dropped once empty.
    for key in waiting.pop(p, ()):
        k = len(lines[key])
        if k == p:
            tight.add(key)
        elif k:
            waiting.setdefault(k, []).append(key)


def _fill(rows: Lines, cols: Lines) -> Layers:
    # One matching per symbol, heaviest count first, emptying rows and
    # cols.  x1 and y1 hold the tight rows and columns, those at count p,
    # carried from layer to layer as the module docstring explains; no
    # line holds more than p.  The loop checks this instead of assuming
    # it: a line that lands on the wrong count, or a cell left over, stops
    # the peel.
    top = max(max(map(len, rows.values())), max(map(len, cols.values())))
    x1: set[int] = set()
    y1: set[int] = set()
    rows_waiting = {top: list(rows)}
    cols_waiting = {top: list(cols)}
    layers: Layers = {}
    for p in range(top, 0, -1):
        _admit(x1, rows_waiting, rows, p)
        _admit(y1, cols_waiting, cols, p)
        # Both calls below take the targets in any order, so sets will do.
        # M is the layer when it covers Y1: the merge would start from M
        # and walk from no Y1 vertex.
        layer = saturating_matching(rows, x1)
        if not set(layer.values()).issuperset(y1):
            layer = merge_matchings(layer, saturating_matching(cols, y1))
        layers[p] = layer
        assert layer, f"no cell peeled at count {p}"
        for i, j in layer.items():
            row, col = rows[i], cols[j]
            row.remove(j)
            col.remove(i)
            assert len(row) == p - 1 if i in x1 else len(row) < p - 1, f"row {i} at count {p}"
            assert len(col) == p - 1 if j in y1 else len(col) < p - 1, f"column {j} at count {p}"
    assert not any(rows.values()), "cells left over after the final layer"
    return layers


def _square(layers: Layers, columns: _Columns) -> PartialLatinSquare:
    # Adds the layers' cells to the label ``columns``, three C-level
    # extends per layer, and consumes the layers: their cells are freed
    # before the check runs.
    rows, cols, syms = columns
    for sym, cells in layers.items():
        rows += cells.keys()
        cols += cells.values()
        syms += repeat(sym, len(cells))
    layers.clear()
    return validate(columns)


def _cell(cell) -> tuple[int, int]:
    # Any iterable of two labels, as validate takes any of three.
    if not isinstance(cell, (tuple, list)):
        cell = tuple(_iterable(cell, "a cell must be an iterable of two labels"))
    if len(cell) == 2 and all(map(is_positive_int, cell)):
        return tuple(cell)
    # As validate's, a refusal names a type, a count or a label, never a repr.
    if len(cell) != 2:
        raise PreconditionViolated(f"a cell must have two labels, got {len(cell)}")
    axis, label = next(pair for pair in zip(("row", "col"), cell) if not is_positive_int(pair[1]))
    raise PreconditionViolated(f"{axis} label must be a positive integer, got {_label_name(label)}")


def fill_symbols(cells: Iterable[tuple[int, int]]) -> PartialLatinSquare:
    """Fill the given (row, col) cells using the minimum number of symbols.

    ``cells`` is any iterable of cells, read once, each any iterable of
    two positive integers, as ``validate`` takes its triples; a repeated
    cell counts once.  The result occupies exactly those cells
    and its symbol count equals their maximum line count; the cells
    removed at count p all receive symbol p.  Raises PreconditionViolated
    for an empty input or any other cell.
    """
    # Every cell is checked before the fill sorts any line, so labels of
    # mixed types are refused here, not met as a TypeError in a sort.
    cells = frozenset(map(_cell, _iterable(cells, "cells must be an iterable")))
    if not cells:
        raise PreconditionViolated("fill_symbols needs at least one cell")
    rows: Lines = {}
    cols: Lines = {}
    for i, j in cells:
        rows.setdefault(i, []).append(j)
        cols.setdefault(j, []).append(i)
    for line in (*rows.values(), *cols.values()):
        line.sort()
    return _square(_fill(rows, cols), _Columns(([], [], [])))


def _split(layers: Layers, s: int) -> _Columns:
    # Move single cells out of the layers to fresh symbols until s symbols
    # are in use, and return them as label columns.  The donor is the
    # symbol with the most cells, ties to the smallest label: the top of a
    # heap of (-count, symbol), which the donor re-enters one cell down.  It
    # gives its lowest row first, which is its lowest (row, col) since a
    # symbol holds each row at most once; its rows are sorted, last row
    # lowest, on its first donation and never again.
    heap = [(-len(cells), sym) for sym, cells in layers.items()]
    heapq.heapify(heap)
    donor_rows: dict[int, list[int]] = {}
    fresh = max(layers)
    moves = s - len(layers)
    moved_rows: list[int] = []
    moved_cols: list[int] = []
    for _ in range(moves):
        count, donor = heap[0]
        heapq.heapreplace(heap, (count + 1, donor))
        cells = layers[donor]
        rows = donor_rows.get(donor)
        if rows is None:
            rows = donor_rows[donor] = sorted(cells, reverse=True)
        row = rows.pop()
        moved_rows.append(row)
        moved_cols.append(cells.pop(row))
    return _Columns((moved_rows, moved_cols, list(range(fresh + 1, fresh + 1 + moves))))


def split_symbols(pls: PartialLatinSquare, s: int) -> PartialLatinSquare:
    """Raise the symbol count of ``pls`` to exactly s without moving cells.

    Requires current symbol count <= s <= volume.  Repeatedly relabels
    one cell of a most frequent symbol (ties to the smallest label; the
    cell with the lowest row, then column) with a fresh symbol, so only
    symbols occurring at least twice ever lose a cell and no existing
    symbol disappears.
    """
    positive_int("s", s)
    layers: Layers = {}
    for i, j, k in pls.triples:
        layers.setdefault(k, {})[i] = j
    if not (len(layers) <= s <= pls.volume):
        raise PreconditionViolated(
            f"target symbol count {s} outside [{len(layers)}, {pls.volume}]"
        )
    return _square(layers, _split(layers, s))


def _require_feasible(report: FeasibilityReport) -> None:
    if not report.feasible:
        detail = "; ".join(f"{c.id}: {c.witness}" for c in report.violated())
        raise Infeasible(f"no such square exists ({detail})", report=report)


def _require_volume(v: int) -> None:
    if v > MAX_CELLS:
        raise BudgetExceeded(f"volume {v} above the builder cap of {MAX_CELLS} cells")


def _build(n: tuple[int, ...], m: tuple[int, ...], s: int) -> PartialLatinSquare:
    layers = _fill(*realize_lines(n, m))
    return _square(layers, _split(layers, s))


def build_theorem(n: Sequence[int], m: Sequence[int], s: int) -> PartialLatinSquare:
    """Construct a PLS with row parameters n, column parameters m, s symbols.

    Row i holds exactly n[i] cells and column j exactly m[j].  Raises
    Infeasible carrying the check_construction report when the profile is
    impossible, and BudgetExceeded when the volume exceeds MAX_CELLS.
    """
    n, m = positive_ints("n", n), positive_ints("m", m)
    _require_feasible(check_construction(n, m, s))
    _require_volume(sum(n))
    return _build(n, m, s)


def build_proposition(n: Sequence[int], c: int, s: int) -> PartialLatinSquare:
    """Construct a PLS with row parameters n, c columns, and s symbols.

    Uses the most even column counts, distribute_rows(v, c, s).  When
    check_row_params holds, c <= v <= c * s puts every count in [1, s],
    and since the even split is minimal in the majorization order,
    Gale-Ryser realizes it against any n whose entries are at most
    min(c, s).  Raises Infeasible with the check_row_params report, and
    BudgetExceeded when the volume exceeds MAX_CELLS.
    """
    n = positive_ints("n", n)
    _require_feasible(check_row_params(n, c, s))
    v = sum(n)
    _require_volume(v)
    return _build(n, distribute_rows(v, c, s), s)


def build_corollary(r: int, c: int, s: int, v: int) -> PartialLatinSquare:
    """Construct a PLS with r rows, c columns, s symbols, and volume v.

    Spreads the volume evenly over the rows, then over the columns as
    build_proposition does.  Raises Infeasible with the check_sizes
    report, and BudgetExceeded when v exceeds MAX_CELLS.
    """
    _require_feasible(check_sizes(r, c, s, v))
    _require_volume(v)
    return _build(distribute_rows(v, r, min(c, s)), distribute_rows(v, c, s), s)
