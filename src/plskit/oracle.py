"""Exhaustive search oracles, independent of the constructive machinery.

exists_full decides by brute force whether any partial Latin square meets
a mix of constraints: parameter families matched as multisets and scalar
line or volume counts matched exactly.  enumerate_pls streams every
normalized square within given caps.  Neither function consults the
feasibility predicates, so the two routes can be compared against each
other in tests.  check_prescription is the one check of a mix of
constraints, run by exists_full on every call.  It returns a Prescription,
whose fields name each constraint for its messages, the CLI flags and the
prescription document alike; FAMILIES names the three list-valued ones.

The witness exists_full returns is normalized as found and validated
once.  Any square can be relabeled into the form the search walks, by
three rules applied in order:

1. Rows by count: row counts weakly decreasing (exactly the sorted
   targets when a row family is given), so the occupied rows are 1..r.
2. Columns by first use in row-major order, when no column family is
   given; with one, column counts weakly decreasing instead.  Either
   way the columns only move within their rows, so every row keeps its
   count and rule 1 still holds; by first use the occupied columns are
   1..c, and with a family no column is empty.
3. Symbols by first use in row-major order, so the symbols are 1..s.
   This moves no cell, so rules 1 and 2 still hold.

So a row may place a symbol in a column no row has used only at the
first unused one, index n_cols - empty_cols; leaving that cell empty
leaves the rest of its row empty, and the search skips to the next row.

The rule cannot change the first witness found: no branch it prunes
holds a witness.  A pruned branch first breaks the rule by placing
symbol k at (i, j) in a fresh column j past the first unused column u,
with (i, u) through (i, j - 1) empty.  Columns u and j hold no cell
above row i, so swapping them maps any square below that branch onto
one with the same cells before (i, u), k at (i, u), and its later
symbols relabeled by rule 3: a square below the branch that put k at
(i, u).  The search tried that branch earlier, since a cell tries its
symbols before it is left empty, and left it, so it held no witness;
hence neither does the pruned one.

exists_full opens one stack frame per placed cell and moves past an empty
cell in the same frame, so its depth follows the volume, not the board.
Each row and column keeps its used symbols as one int bitmask, so its
memory grows with the number of lines, not lines times symbols.  The
row, column and symbol tables grow on first use, when the search enters
a row, reaches a column or opens a symbol, so a dimension costs what the
search touches, not its pinned count or the budget's cap.
Its fill caps (the volume cap, line targets, and without a row family the
row above's count) make rows end on their targets and the volume settle
any column family.  One room rule covers rows, columns, symbols and the
volume, checked where a step can break it: before the search, the
largest entry of each family against both other dimensions, the volume
against each pair of dimensions (a row holds at most one cell per column
and one per symbol, a column one per symbol), and each pinned dimension
against the volume cap, so also against the budget's cell cap; at a
cell before its symbol loop, as only a placement uses up the volume
that pinned lines and symbols still need; and at the one leave-empty
step, which moves to the next cell, or past the first unused column to
the next row.

Soundness over the budget: when a dimension left unconstrained by the
caller had to be capped by the budget, a fruitless search proves nothing,
so BudgetExceeded is raised instead of returning a false negative.  A
free volume is capped only by a cell cap below the board's largest
square: a row holds at most one cell per column and one per symbol, and
a column one per symbol, so no square holds more cells than the least
product of two of the board's dimensions.  A
search or enumeration deeper than the interpreter's stack also raises
BudgetExceeded.  exists_full refuses a pinned volume of at least the
recursion limit that passes the room rule this way before it builds any
table: a witness would need a frame per cell, more than the stack holds.
Such a search could at most refute the volume; the room rule, checked
first, still refutes the plainest of these, such as 2000 cells in one
row with one symbol.  A search whose volume cap reaches half the
recursion limit runs in a fresh daemon thread, whose stack starts
empty, and the caller waits for it; so its verdict is the same from any
caller less than half the limit deep.  A smaller search runs inline,
as a thread start would cost more than most such searches.
"""

from __future__ import annotations

import sys
import threading
from collections import namedtuple
from typing import Iterator, Sequence

from .core import (
    PartialLatinSquare, _Columns, checked_namedtuple, positive_int, positive_ints, validate
)
from .errors import BudgetExceeded, PreconditionViolated


class Budget(checked_namedtuple("Budget", "max_cells max_rows max_cols max_symbols", (12, 6, 6, 6))):
    """Caps on the search space accepted without complaint, each a positive int."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "Budget":
        budget = super().__new__(cls, *args, **kwargs)
        for name, value in zip(cls._fields, budget):
            positive_int(name, value)
        return budget


# A mix of constraints as check_prescription checks and fills it in.
Prescription = namedtuple("Prescription", ("rows", "cols", "symbols", "r", "c", "s", "v"))
FAMILIES = Prescription._fields[:3]


def _merge_scalar(name: str, scalar: int | None, family: tuple[int, ...] | None) -> int | None:
    if scalar is not None:
        positive_int(name, scalar)
    if family is None:
        return scalar
    if scalar is not None and scalar != len(family):
        raise PreconditionViolated(
            f"{name} = {scalar} disagrees with the {len(family)} given parameters"
        )
    return len(family)


def check_prescription(
    rows: Sequence[int] | None = None,
    cols: Sequence[int] | None = None,
    symbols: Sequence[int] | None = None,
    r: int | None = None,
    c: int | None = None,
    s: int | None = None,
    v: int | None = None,
) -> Prescription:
    """Check that a mix of constraints is well formed and consistent.

    Every given family and scalar must be positive, at least one
    constraint must be given, each scalar must equal the length of its
    family, and every implied volume (family totals and v) must agree, or
    PreconditionViolated is raised.  Returns the Prescription with the
    families as tuples and every implied scalar and volume filled in.
    """
    rm = None if rows is None else positive_ints("rows", rows)
    cm = None if cols is None else positive_ints("cols", cols)
    sm = None if symbols is None else positive_ints("symbols", symbols)
    r_eff = _merge_scalar("r", r, rm)
    c_eff = _merge_scalar("c", c, cm)
    s_eff = _merge_scalar("s", s, sm)
    volumes = [sum(fam) for fam in (rm, cm, sm) if fam is not None]
    if v is not None:
        positive_int("v", v)
        volumes.append(v)
    elif volumes:
        v = volumes[0]  # the volume the families imply
    elif r is None and c is None and s is None:
        raise PreconditionViolated("at least one constraint is required")
    if len(set(volumes)) > 1:
        raise PreconditionViolated(f"implied volumes disagree: {sorted(set(volumes))}")
    return tuple.__new__(Prescription, (rm, cm, sm, r_eff, c_eff, s_eff, v))


def _too_deep(v_hi: int) -> str:
    return f"search placing up to {v_hi} cells needs more stack depth than the interpreter allows"


def _on_fresh_stack(call, *args):
    # A new thread starts at stack depth 0, so call(*args) has the whole
    # recursion limit whoever asks.  Its value is returned and its
    # exception raised here, in the caller's thread.
    outcome = []

    def run() -> None:
        try:
            outcome.append((True, call(*args)))
        except BaseException as exc:
            outcome.append((False, exc))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join()
    ok, value = outcome.pop()
    if not ok:
        raise value
    return value


def _no_witness(truncated: bool) -> tuple[bool, None]:
    if truncated:
        raise BudgetExceeded(
            "search space was truncated by the budget; no witness found, "
            "but larger unconstrained dimensions were not explored"
        )
    return False, None


def exists_full(
    rows: Sequence[int] | None = None,
    cols: Sequence[int] | None = None,
    symbols: Sequence[int] | None = None,
    r: int | None = None,
    c: int | None = None,
    s: int | None = None,
    v: int | None = None,
    budget: Budget = Budget(),
) -> tuple[bool, PartialLatinSquare | None]:
    """Decide by exhaustive backtracking whether a matching PLS exists.

    Parameter families are matched as multisets; scalars pin the number
    of occupied rows, columns, symbols, or cells exactly.  At least one
    constraint is required, and every given volume (family totals and v)
    must agree.  Returns (True, witness) or (False, None); raises
    BudgetExceeded when the answer cannot be settled within the budget.
    """
    rm, cm, sm, r_eff, c_eff, s_eff, v_eff = check_prescription(rows, cols, symbols, r, c, s, v)

    # Board planning.  A dimension the caller pinned must fit the budget
    # outright; a free dimension is capped, and if the cap truncates the
    # space of candidate solutions a fruitless search is inconclusive.
    truncated = False
    fallback = v_eff if v_eff is not None else budget.max_cells

    def plan(pinned: int | None, cap: int, what: str) -> int:
        nonlocal truncated
        if pinned is not None:
            if pinned > cap:
                raise BudgetExceeded(f"{what} {pinned} above the budget cap {cap}")
            return pinned
        if fallback > cap:
            truncated = True
        return min(fallback, cap)

    n_rows = plan(r_eff, budget.max_rows, "row count")
    n_cols = plan(c_eff, budget.max_cols, "column count")
    n_syms = plan(s_eff, budget.max_symbols, "symbol count")
    # The most cells a square on the board holds (the module docstring).
    board = min(n_rows * n_cols, n_rows * n_syms, n_cols * n_syms)
    if v_eff is not None:
        if v_eff > budget.max_cells:
            raise BudgetExceeded(f"volume {v_eff} above the budget cap {budget.max_cells}")
        v_lo = v_hi = v_eff
    else:
        v_lo = 1
        v_hi = min(budget.max_cells, board)
        truncated |= board > budget.max_cells

    # Symmetry reductions, all induced by relabeling (the three rules of
    # the module docstring): row counts weakly decreasing (exactly the
    # sorted targets when rows is given), column counts weakly decreasing
    # when cols is given and columns first used in order when not, and
    # symbols first used in increasing order.
    row_target = sorted(rm, reverse=True) if rm is not None else None
    col_target = sorted(cm, reverse=True) if cm is not None else None
    sym_desc = sorted(sm, reverse=True) if sm is not None else None
    sym_cap = sym_desc[0] if sym_desc is not None else v_hi

    # Room on the empty board: the volume fits the board, each family's
    # largest entry both other dimensions; past it no dimension passes
    # the cell cap.
    if (
        v_lo > board
        or max(r_eff or 0, c_eff or 0, s_eff or 0) > v_hi
        or (row_target is not None and row_target[0] > min(n_cols, n_syms))
        or (col_target is not None and col_target[0] > min(n_rows, n_syms))
        or (sym_desc is not None and sym_desc[0] > min(n_rows, n_cols))
    ):
        return _no_witness(truncated)
    limit = sys.getrecursionlimit()
    if v_lo >= limit:
        raise BudgetExceeded(_too_deep(v_hi))

    # One bitmask per line, bit k set when symbol k is in it, so a line's
    # cell count is its mask's bit count; sym_cnt[k] counts symbol k's
    # cells, and the placed cells are chosen.  All three tables grow on
    # first use; symbols open in order, so len(sym_cnt) - 1 are in use.
    sym_cnt = [0]
    row_used: list[int] = []
    col_used: list[int] = []
    chosen: list[tuple[int, int, int]] = []
    empty_cols = n_cols
    n_cells = n_rows * n_cols
    rows_pinned = r_eff is not None
    cols_pinned = c_eff is not None
    # sym_goal - len(sym_cnt) counts the pinned symbols not yet open;
    # with s free it is never positive.
    sym_goal = s_eff + 1 if s_eff is not None else 0

    def accept() -> bool:
        # Placement never passes v_hi or a column or row target, so once
        # v_lo cells are placed the volume and any column family hold.
        if len(chosen) < v_lo or (cols_pinned and empty_cols):
            return False
        if sym_desc is not None:
            return sorted(sym_cnt[1:], reverse=True) == sym_desc
        return s_eff is None or len(sym_cnt) - 1 == s_eff

    def recurse(idx: int) -> bool:
        nonlocal empty_cols
        while True:
            i, j = divmod(idx, n_cols)
            if j == 0:
                if i and row_target is None and not row_used[i - 1]:
                    # Rows stay weakly decreasing: the rest stay empty.
                    return not rows_pinned and accept()
                if i == n_rows:
                    return accept()
                if i == len(row_used):
                    row_used.append(0)
            if j == len(col_used):
                col_used.append(0)

            row_bits = row_used[i]
            col_bits = col_used[j]
            in_row = row_bits.bit_count()
            in_col = col_bits.bit_count()
            # A row fills up to its target, or without a row family up to
            # the count of the row above; a column up to its target.
            row_cap = (
                row_target[i] if row_target is not None
                else row_used[i - 1].bit_count() if i else n_cols
            )
            # A placement here must leave room in v_hi for the pinned rows
            # below, pinned columns still empty and pinned symbols still
            # unused; only a new symbol lowers the last.
            fresh_col = not in_col
            placed = len(chosen)
            room = v_hi - placed - 1
            opened = len(sym_cnt)
            syms_left = sym_goal - opened
            if (
                in_row < row_cap
                and (col_target is None or in_col < col_target[j])
                and room >= (n_rows - 1 - i if rows_pinned else 0)
                and room >= (empty_cols - fresh_col if cols_pinned else 0)
                and room >= syms_left - 1
            ):
                used = row_bits | col_bits
                # The open symbols, unless the room left must go to pinned
                # symbols not yet open, then the next one if n_syms allows.
                for k in range(
                    1 if syms_left <= room else opened,
                    opened + 1 if opened <= n_syms else opened,
                ):
                    bit = 1 << k
                    if k == opened:
                        # A symbol not yet open is in no line, under any cap.
                        sym_cnt.append(1)
                    elif used & bit or sym_cnt[k] >= sym_cap:
                        continue
                    else:
                        sym_cnt[k] += 1
                    row_used[i] = row_bits | bit
                    col_used[j] = col_bits | bit
                    empty_cols -= fresh_col
                    chosen.append((i + 1, j + 1, k))
                    if recurse(idx + 1):
                        return True
                    chosen.pop()
                    empty_cols += fresh_col
                    row_used[i] = row_bits
                    col_used[j] = col_bits
                    if k == opened:
                        sym_cnt.pop()
                    else:
                        sym_cnt[k] -= 1
            # Leaving the cell empty moves on to nxt: the next cell, or the
            # next row when it is the first unused column, as columns open
            # in order.  What is left must hold the volume, row and column.
            row_end = idx - j + n_cols
            nxt = row_end if fresh_col and col_target is None else idx + 1
            if (
                placed + n_cells - nxt < v_lo
                or (row_target is not None and row_target[i] - in_row > row_end - nxt)
                or (col_target is not None and col_target[j] - in_col > n_rows - i - 1)
            ):
                return False
            idx = nxt

    try:
        # A search that may go deeper than half the stack runs on a fresh
        # one, so its verdict does not depend on the caller's depth.
        found = recurse(0) if v_hi < limit // 2 else _on_fresh_stack(recurse, 0)
    except RecursionError:
        # One stack frame per placed cell: a volume cap this large cannot
        # be searched, which is a budget verdict, not a negative answer.
        raise BudgetExceeded(_too_deep(v_hi)) from None
    finally:
        # recurse reaches itself through its closure; emptying that cell
        # frees the search's tables now instead of leaving a cycle for
        # the garbage collector.
        del recurse
    if not found:
        return _no_witness(truncated)
    # A successful search leaves its placements in chosen, already
    # normalized (see the module docstring).
    return True, validate(_Columns(zip(*chosen)))


def enumerate_pls(
    max_rows: int,
    max_cols: int,
    max_symbols: int,
    max_cells: int,
    budget: Budget = Budget(),
) -> Iterator[PartialLatinSquare]:
    """Stream every normalized PLS within the caps, each exactly once.

    Output order is lexicographic in the row-major sorted triple lists.
    A square is normalized when its occupied rows are exactly 1..r, its
    columns 1..c, and its symbols 1..s.
    """
    # Validate eagerly so a bad call fails at the call site, not on the
    # first pull from the generator.
    caps = {"row": max_rows, "column": max_cols, "symbol": max_symbols, "cell": max_cells}
    for what, cap in caps.items():
        positive_int(f"{what} cap", cap)
    allowed = (budget.max_rows, budget.max_cols, budget.max_symbols, budget.max_cells)
    for (what, cap), limit in zip(caps.items(), allowed):
        if cap > limit:
            raise BudgetExceeded(f"{what} cap {cap} above the budget cap {limit}")
    return _enumerate_pls(max_rows, max_cols, max_symbols, max_cells)


def _enumerate_pls(
    max_rows: int, max_cols: int, max_symbols: int, max_cells: int
) -> Iterator[PartialLatinSquare]:
    triples: list[tuple[int, int, int]] = []
    row_sym: set[tuple[int, int]] = set()
    col_sym: set[tuple[int, int]] = set()

    def emit() -> PartialLatinSquare | None:
        columns = _Columns(zip(*triples))
        _, cols, syms = columns
        if len(set(cols)) == max(cols) and len(set(syms)) == max(syms):
            return validate(columns)
        return None

    def rec() -> Iterator[PartialLatinSquare]:
        if triples:
            square = emit()
            if square is not None:
                yield square
        if len(triples) == max_cells:
            return
        # Triples come in increasing row-major order: candidates start one
        # cell after the last, and stay within its row plus one, as a
        # skipped row would stay empty forever.
        last_row, last_col = triples[-1][:2] if triples else (1, 0)
        row_hi = min(max_rows, last_row + 1) if triples else 1
        for row in range(last_row, row_hi + 1):
            col_lo = last_col + 1 if row == last_row else 1
            for col in range(col_lo, max_cols + 1):
                for sym in range(1, max_symbols + 1):
                    if (row, sym) in row_sym or (col, sym) in col_sym:
                        continue
                    triples.append((row, col, sym))
                    row_sym.add((row, sym))
                    col_sym.add((col, sym))
                    yield from rec()
                    col_sym.remove((col, sym))
                    row_sym.remove((row, sym))
                    triples.pop()

    try:
        yield from rec()
    except RecursionError:
        # One generator frame per placed cell: a cell cap this large cannot
        # be enumerated, which is a budget verdict, not a crash.
        raise BudgetExceeded(
            f"enumeration up to {max_cells} cells needs more stack depth "
            "than the interpreter allows"
        ) from None
