"""Exhaustive search oracles, independent of the constructive machinery.

exists_full decides by brute force whether any partial Latin square meets
a mix of constraints: parameter families matched as multisets and scalar
line or volume counts matched exactly.  enumerate_pls streams every
normalized square within given caps.  Neither function consults the
feasibility predicates, so the two routes can be compared against each
other in tests.  check_prescription is the one consistency check for a
mix of constraints; exists_full and the CLI's SpecDocument both run it.

The witness exists_full returns is normalized and validated once.  The
search itself fixes the row and symbol labels: a row is only used once
every row above it is, and a symbol only once every smaller one is, so
the occupied rows are 1..r and the symbols 1..s by construction.  No
rule fixes the column labels, so only the columns are relabeled, in
increasing order, before the one validation.

Soundness over the budget: when a dimension left unconstrained by the
caller had to be capped by the budget, a fruitless search proves nothing,
so BudgetExceeded is raised instead of returning a false negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import PartialLatinSquare, positive_int, positive_ints, validate
from .errors import BudgetExceeded, PreconditionViolated


@dataclass(frozen=True)
class Budget:
    """Caps on the search space accepted without complaint."""

    max_cells: int = 12
    max_rows: int = 6
    max_cols: int = 6
    max_symbols: int = 6


DEFAULT_BUDGET = Budget()


def _family(name: str, params: Sequence[int] | None) -> tuple[int, ...] | None:
    return None if params is None else positive_ints(name, params)


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
    row_params: Sequence[int] | None = None,
    col_params: Sequence[int] | None = None,
    sym_params: Sequence[int] | None = None,
    r: int | None = None,
    c: int | None = None,
    s: int | None = None,
    v: int | None = None,
) -> tuple:
    """Check that a mix of constraints is well formed and consistent.

    Every given family and scalar must be positive, at least one
    constraint must be given, each scalar must equal the length of its
    family, and every implied volume (family totals and v) must agree.
    Returns (row_params, col_params, sym_params, r, c, s, v) with the
    families as tuples and every scalar or volume the others imply filled
    in; raises PreconditionViolated otherwise.
    """
    rm = _family("row_params", row_params)
    cm = _family("col_params", col_params)
    sm = _family("sym_params", sym_params)
    r_eff = _merge_scalar("r", r, rm)
    c_eff = _merge_scalar("c", c, cm)
    s_eff = _merge_scalar("s", s, sm)
    if v is not None:
        positive_int("v", v)
    if all(x is None for x in (rm, cm, sm, r_eff, c_eff, s_eff, v)):
        raise PreconditionViolated("at least one constraint is required")

    volumes = {sum(fam) for fam in (rm, cm, sm) if fam is not None}
    if v is not None:
        volumes.add(v)
    if len(volumes) > 1:
        raise PreconditionViolated(f"implied volumes disagree: {sorted(volumes)}")
    return rm, cm, sm, r_eff, c_eff, s_eff, (volumes.pop() if volumes else None)


def exists_full(
    row_params: Sequence[int] | None = None,
    col_params: Sequence[int] | None = None,
    sym_params: Sequence[int] | None = None,
    r: int | None = None,
    c: int | None = None,
    s: int | None = None,
    v: int | None = None,
    budget: Budget = DEFAULT_BUDGET,
) -> tuple[bool, PartialLatinSquare | None]:
    """Decide by exhaustive backtracking whether a matching PLS exists.

    Parameter families are matched as multisets; scalars pin the number
    of occupied rows, columns, symbols, or cells exactly.  At least one
    constraint is required, and every given volume (family totals and v)
    must agree.  Returns (True, witness) or (False, None); raises
    BudgetExceeded when the answer cannot be settled within the budget.
    """
    rm, cm, sm, r_eff, c_eff, s_eff, v_eff = check_prescription(
        row_params, col_params, sym_params, r, c, s, v
    )

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
    if v_eff is not None:
        if v_eff > budget.max_cells:
            raise BudgetExceeded(f"volume {v_eff} above the budget cap {budget.max_cells}")
        v_lo = v_hi = v_eff
    else:
        v_lo = 1
        v_hi = min(budget.max_cells, n_rows * n_cols)
        if n_rows * n_cols > budget.max_cells:
            truncated = True

    # Symmetry reductions, all induced by relabeling: row counts weakly
    # decreasing (exactly the sorted targets when row_params is given),
    # column counts weakly decreasing when col_params is given, and
    # symbols first used in increasing order.
    row_target = tuple(sorted(rm, reverse=True)) if rm is not None else None
    col_target = tuple(sorted(cm, reverse=True)) if cm is not None else None
    sym_desc = tuple(sorted(sm, reverse=True)) if sm is not None else None
    sym_cap = sym_desc[0] if sym_desc is not None else v_hi
    rows_all_nonempty = r_eff is not None
    cols_all_nonempty = c_eff is not None

    row_cnt = [0] * n_rows
    col_cnt = [0] * n_cols
    sym_cnt = [0] * (n_syms + 1)
    row_sym = [[False] * (n_syms + 1) for _ in range(n_rows)]
    col_sym = [[False] * (n_syms + 1) for _ in range(n_cols)]
    chosen: list[tuple[int, int, int]] = []
    placed = 0
    max_used = 0
    result: list[tuple[int, int, int]] | None = None

    def final_ok() -> bool:
        if placed < max(v_lo, 1) or placed > v_hi:
            return False
        if col_target is not None:
            if tuple(col_cnt) != col_target:
                return False
        elif cols_all_nonempty and 0 in col_cnt:
            return False
        if sym_desc is not None:
            if tuple(sorted(sym_cnt[1 : max_used + 1], reverse=True)) != sym_desc:
                return False
        elif s_eff is not None and max_used != s_eff:
            return False
        return True

    def accept() -> bool:
        nonlocal result
        if final_ok():
            result = list(chosen)
            return True
        return False

    def recurse(idx: int) -> bool:
        nonlocal placed, max_used
        i, j = divmod(idx, n_cols)
        if j == 0 and i > 0:
            prev = row_cnt[i - 1]
            if row_target is not None:
                if prev != row_target[i - 1]:
                    return False
            else:
                if i >= 2 and prev > row_cnt[i - 2]:
                    return False
                if prev == 0:
                    if rows_all_nonempty:
                        return False
                    return accept()  # rows stay weakly decreasing: the rest stay empty
            if col_target is not None:
                if any(col_target[j0] - col_cnt[j0] > n_rows - i for j0 in range(n_cols)):
                    return False
        if i == n_rows:
            return accept()
        # Every line that must end up nonempty and has no cell yet needs
        # one more; a single cell fixes at most one row and one column.
        pending_rows = 0
        if rows_all_nonempty:
            pending_rows = (n_rows - 1 - i) + (1 if row_cnt[i] == 0 else 0)
        pending_cols = 0
        if cols_all_nonempty:
            pending_cols = sum(1 for k in col_cnt if k == 0)
        if placed + max(pending_rows, pending_cols) > v_hi:
            return False
        if s_eff is not None and s_eff - max_used > v_hi - placed:
            return False
        if placed + (n_rows * n_cols - idx) < v_lo:
            return False
        if row_target is not None and row_target[i] - row_cnt[i] > n_cols - j:
            return False

        fillable = placed < v_hi
        if fillable and col_target is not None and col_cnt[j] >= col_target[j]:
            fillable = False
        if fillable:
            if row_target is not None:
                if row_cnt[i] >= row_target[i]:
                    fillable = False
            else:
                row_cap = row_cnt[i - 1] if i >= 1 else n_cols
                if row_cnt[i] >= row_cap:
                    fillable = False
        if fillable:
            for k in range(1, min(n_syms, max_used + 1) + 1):
                if row_sym[i][k] or col_sym[j][k]:
                    continue
                if sym_cnt[k] >= sym_cap:
                    continue
                is_new = k > max_used
                if is_new and s_eff is not None and max_used >= s_eff:
                    continue
                row_sym[i][k] = col_sym[j][k] = True
                row_cnt[i] += 1
                col_cnt[j] += 1
                sym_cnt[k] += 1
                placed += 1
                if is_new:
                    max_used += 1
                chosen.append((i + 1, j + 1, k))
                if recurse(idx + 1):
                    return True
                chosen.pop()
                if is_new:
                    max_used -= 1
                placed -= 1
                sym_cnt[k] -= 1
                col_cnt[j] -= 1
                row_cnt[i] -= 1
                row_sym[i][k] = col_sym[j][k] = False
        if row_target is not None and row_target[i] - row_cnt[i] > n_cols - j - 1:
            return False
        return recurse(idx + 1)

    try:
        found = recurse(0)
    except RecursionError:
        # One stack frame per board cell: a pinned board this large cannot
        # be searched, which is a budget verdict, not a negative answer.
        raise BudgetExceeded(
            f"search over a {n_rows} x {n_cols} board needs more stack depth "
            "than the interpreter allows"
        ) from None
    if found:
        assert result is not None
        # Rows and symbols are already 1..r and 1..s (see the module
        # docstring); relabeling the columns completes the normalization.
        cols = {j: rank for rank, j in enumerate(sorted({j for _, j, _ in result}), 1)}
        return True, validate([(i, cols[j], k) for i, j, k in result])
    if truncated:
        raise BudgetExceeded(
            "search space was truncated by the budget; no witness found, "
            "but larger unconstrained dimensions were not explored"
        )
    return False, None


def enumerate_pls(
    max_rows: int,
    max_cols: int,
    max_symbols: int,
    max_cells: int,
    budget: Budget = DEFAULT_BUDGET,
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
    for what, cap, allowed in (
        ("row", max_rows, budget.max_rows),
        ("column", max_cols, budget.max_cols),
        ("symbol", max_symbols, budget.max_symbols),
        ("cell", max_cells, budget.max_cells),
    ):
        if cap > allowed:
            raise BudgetExceeded(f"{what} cap {cap} above the budget cap {allowed}")
    return _enumerate_pls(max_rows, max_cols, max_symbols, max_cells)


def _enumerate_pls(
    max_rows: int, max_cols: int, max_symbols: int, max_cells: int
) -> Iterator[PartialLatinSquare]:
    triples: list[tuple[int, int, int]] = []
    occupied: set[tuple[int, int]] = set()
    row_sym: set[tuple[int, int]] = set()
    col_sym: set[tuple[int, int]] = set()

    def emit() -> PartialLatinSquare | None:
        cols = {t[1] for t in triples}
        syms = {t[2] for t in triples}
        if len(cols) == max(cols) and len(syms) == max(syms):
            return validate(triples)
        return None

    def rec(prev: tuple[int, int, int] | None) -> Iterator[PartialLatinSquare]:
        if triples:
            square = emit()
            if square is not None:
                yield square
        if len(triples) == max_cells:
            return
        # Triples are appended in increasing row-major order, so the last
        # one holds the highest occupied row.  Skipping a row would leave
        # it empty forever, so candidates stay within that row plus one.
        max_row_used = triples[-1][0] if triples else 0
        row_hi = min(max_rows, max_row_used + 1)
        start_row, start_col = (prev[0], prev[1]) if prev else (1, 1)
        for row in range(start_row, row_hi + 1):
            col_lo = start_col if row == start_row else 1
            for col in range(col_lo, max_cols + 1):
                if (row, col) in occupied:
                    continue
                for sym in range(1, max_symbols + 1):
                    if (row, sym) in row_sym or (col, sym) in col_sym:
                        continue
                    triples.append((row, col, sym))
                    occupied.add((row, col))
                    row_sym.add((row, sym))
                    col_sym.add((col, sym))
                    yield from rec((row, col, sym))
                    col_sym.remove((col, sym))
                    row_sym.remove((row, sym))
                    occupied.remove((row, col))
                    triples.pop()

    yield from rec(None)
