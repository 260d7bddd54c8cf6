"""Exhaustive search: existence queries and the enumeration stream."""

import random
import sys
import threading
import tracemalloc
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plskit import (
    Budget,
    BudgetExceeded,
    ParameterProfile,
    PreconditionViolated,
    Triple,
    conjugate,
    enumerate_pls,
    exists_full,
    parameters_of,
    validate,
)
from plskit.core import AXES
from plskit.errors import PlsError

from conftest import is_normalized, squares

AXIS_PERMS = [
    ("row", "col", "sym"),
    ("row", "sym", "col"),
    ("col", "row", "sym"),
    ("col", "sym", "row"),
    ("sym", "row", "col"),
    ("sym", "col", "row"),
]

# Frozen regression counts, cross-checked against naive_enumerate below.
FROZEN_COUNTS = {
    (2, 2, 2, 4): 21,
    (2, 2, 2, 2): 11,
    (3, 2, 2, 4): 57,
    (2, 3, 3, 4): 315,
}


def naive_enumerate(max_rows, max_cols, max_symbols, max_cells):
    """All normalized PLS within caps, by filtering every triple subset."""
    cube = [
        (i, j, k)
        for i in range(1, max_rows + 1)
        for j in range(1, max_cols + 1)
        for k in range(1, max_symbols + 1)
    ]
    found = []
    for size in range(1, max_cells + 1):
        for subset in combinations(cube, size):
            try:
                pls = validate(subset)
            except PlsError:
                continue
            rows = {t.row for t in pls.triples}
            cols = {t.col for t in pls.triples}
            syms = {t.sym for t in pls.triples}
            if rows != set(range(1, max(rows) + 1)):
                continue
            if cols != set(range(1, max(cols) + 1)):
                continue
            if syms != set(range(1, max(syms) + 1)):
                continue
            found.append(pls.sorted_triples())
    return sorted(found)


def key_of(pls):
    return pls.sorted_triples()


def recurse_frames(**kwargs):
    """exists_full(**kwargs) or the BudgetExceeded it raised, and the search frames it opened.

    The profiler is set for new threads too, as a deep search runs in one.
    """
    frames = 0

    def count(frame, event, arg):
        nonlocal frames
        if event == "call" and frame.f_code.co_name == "recurse":
            frames += 1

    sys.setprofile(count)
    threading.setprofile(count)
    try:
        got = exists_full(**kwargs)
    except BudgetExceeded as exc:
        got = exc
    finally:
        threading.setprofile(None)
        sys.setprofile(None)
    return got, frames


class TestExistsFull:
    def test_all_families_witness(self):
        found, witness = exists_full(rows=(2, 1), cols=(2, 1), symbols=(2, 1))
        assert found
        assert witness.triples == frozenset(
            {Triple(1, 1, 1), Triple(1, 2, 2), Triple(2, 1, 2)}
        )

    def test_single_cell(self):
        found, witness = exists_full(rows=(1,), cols=(1,), symbols=(1,))
        assert found
        assert witness.triples == frozenset({Triple(1, 1, 1)})

    def test_volume_above_board_is_false(self):
        found, witness = exists_full(r=2, c=2, s=2, v=5)
        assert not found
        assert witness is None

    def test_families_matched_as_multisets(self):
        found_sorted, w1 = exists_full(rows=(2, 1), cols=(2, 1), s=2)
        found_shuffled, w2 = exists_full(rows=(1, 2), cols=(1, 2), s=2)
        assert found_sorted and found_shuffled
        assert w1 == w2

    def test_witness_satisfies_the_constraints(self):
        found, witness = exists_full(rows=(2, 2, 1), c=3, s=3)
        assert found
        profile = parameters_of(witness)
        assert sorted(profile.row_params) == [1, 2, 2]
        assert profile.c == 3
        assert profile.s == 3

    def test_no_constraints_rejected(self):
        with pytest.raises(PreconditionViolated):
            exists_full()

    def test_bool_inputs_rejected(self):
        with pytest.raises(PreconditionViolated):
            exists_full(r=True)
        with pytest.raises(PreconditionViolated):
            exists_full(rows=(True,))

    def test_volume_disagreement_rejected(self):
        with pytest.raises(PreconditionViolated):
            exists_full(rows=(2, 1), cols=(2, 2))
        with pytest.raises(PreconditionViolated):
            exists_full(rows=(2, 1), v=4)

    def test_scalar_family_disagreement_rejected(self):
        with pytest.raises(PreconditionViolated):
            exists_full(rows=(2, 1), r=3)

    def test_pinned_dimension_above_budget(self):
        with pytest.raises(BudgetExceeded):
            exists_full(r=9, v=9)
        with pytest.raises(BudgetExceeded):
            exists_full(v=13)

    @pytest.mark.parametrize(
        "counts, message",
        [
            ({"r": 7, "c": 7, "s": 7}, "row count 7 above the budget cap 6"),
            ({"r": 6, "c": 7, "s": 7}, "column count 7 above the budget cap 6"),
            ({"r": 6, "c": 6, "s": 7}, "symbol count 7 above the budget cap 6"),
            ({"r": 6, "c": 6, "s": 6, "v": 13}, "volume 13 above the budget cap 12"),
        ],
    )
    def test_budget_caps_are_met_rows_columns_symbols_then_volume(self, counts, message):
        # Several pinned counts above their caps: the first in this order names the error.
        with pytest.raises(BudgetExceeded, match=f"^{message}$"):
            exists_full(**counts, budget=Budget(12, 6, 6, 6))

    def test_truncated_fruitless_search_raises(self):
        # Five distinct symbols cannot fit on the 2x2 board the budget
        # allows, and a bigger board might hold them: inconclusive.
        tight = Budget(max_cells=5, max_rows=2, max_cols=2, max_symbols=5)
        with pytest.raises(BudgetExceeded):
            exists_full(s=5, budget=tight)
        # Likewise 20 rows in the 12 cells the budget allows: a bigger
        # volume might hold them.
        with pytest.raises(BudgetExceeded, match="truncated"):
            exists_full(r=20, budget=Budget(12, 20, 6, 6))

    def test_a_free_volume_is_capped_by_the_largest_square_on_the_board(self):
        # One symbol on a 3 x 5 board fills at most 3 cells, within the
        # 12-cell cap, so no witness is lost and every conjugate is False.
        for r, c, s in permutations((3, 5, 1)):
            assert exists_full(r=r, c=c, s=s) == (False, None), (r, c, s)
        # 4 rows, columns and symbols need 4 cells, past a 3-cell cap,
        # and the board holds 16: a larger volume holds what the search
        # could not reach.
        with pytest.raises(BudgetExceeded, match="truncated"):
            exists_full(r=4, c=4, s=4, budget=Budget(3, 6, 6, 6))

    def test_row_longer_than_a_truncated_board_raises(self):
        # A row of 3 cannot fit the 2 columns the budget allows, but the
        # columns were left free: a wider board might hold it.
        with pytest.raises(BudgetExceeded, match="truncated"):
            exists_full(rows=(3,), symbols=(2, 1), budget=Budget(5, 2, 2, 5))
        # The twin: a column of 3 with the rows left free.
        with pytest.raises(BudgetExceeded, match="truncated"):
            exists_full(cols=(3,), symbols=(2, 1), budget=Budget(5, 2, 2, 5))

    def test_row_longer_than_a_pinned_board_is_false(self):
        assert exists_full(rows=(3,), c=2) == (False, None)
        assert exists_full(cols=(3,), r=2) == (False, None)
        assert exists_full(symbols=(3,), r=2) == (False, None)
        assert exists_full(symbols=(3,), c=2) == (False, None)
        assert exists_full(rows=(3,), s=2) == (False, None)
        assert exists_full(cols=(3,), s=2) == (False, None)
        assert exists_full(r=2, s=2, v=5) == (False, None)

    def test_symbol_used_more_often_than_the_board_has_rows_opens_no_frame(self):
        # A symbol used 4 times needs 4 rows; a search over the 3 rows
        # would open ~188,000 frames before it found that out.
        got, frames = recurse_frames(r=3, c=8, symbols=(3, 4, 2, 3), budget=Budget(16, 5, 8, 5))
        assert got == (False, None)
        assert frames == 0

    def test_lines_beyond_the_volume_allocate_nothing_per_line(self):
        # 2000 pinned columns and symbols cannot fit in one cell.  The
        # answer comes before the search allocates anything per line.
        tracemalloc.start()
        try:
            got = exists_full(r=1, c=2000, s=2000, v=1, budget=Budget(12, 6, 2000, 2000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == (False, None)
        assert peak < 1_000_000

    def test_search_keeps_no_line_by_symbol_table(self):
        # One row of up to 2000 cells over 2000 pinned columns and symbols
        # runs out of stack; the volume is free, as a pinned one this deep
        # is refused before the search.  Each line holds its used symbols
        # as one int, where a flag per column and symbol would take ~32 MB
        # here.  Symbol counts grow as symbols open: 10**6 pinned symbols,
        # where a count per pinned symbol would take ~8 MB, run out of
        # stack the same way.
        n = 2000
        big = 10**6
        for kwargs in (
            dict(r=1, c=n, s=n, budget=Budget(n, 1, n, n)),
            dict(s=big, budget=Budget(big, big, big, big)),
        ):
            tracemalloc.start()
            try:
                with pytest.raises(BudgetExceeded, match="stack depth"):
                    exists_full(**kwargs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4_000_000

    def test_stack_depth_follows_the_volume_not_the_board(self):
        # A 40 x 40 board with one cell per line: only the 40 placed cells
        # open a frame, not the 1600 board cells.
        ones = (1,) * 40
        found, witness = exists_full(rows=ones, cols=ones, s=40, budget=Budget(40, 40, 40, 40))
        assert found
        assert parameters_of(witness) == ParameterProfile(ones, ones, ones, 40)

    def test_pinned_square_board_opens_one_frame_per_placed_cell(self):
        # Each cell is skipped, or its symbol loop started at the new
        # symbol, when a placement there would leave too little volume for
        # the pinned lines and symbols: no frame is opened only to fail.
        n = 40
        (found, _), frames = recurse_frames(r=n, c=n, s=n, v=n, budget=Budget(n, n, n, n))
        assert found
        assert frames == n + 1

    def test_deep_search_verdict_does_not_depend_on_the_callers_depth(self):
        # 985 cells take 986 search frames.  On the caller's stack they
        # fit under the default recursion limit of 1000 only from a script's
        # top level; the search runs on a fresh stack, so a caller 60
        # frames deeper gets the same verdict.
        n = 985

        def at_depth(k):
            return at_depth(k - 1) if k else exists_full(r=n, c=n, s=n, v=n, budget=Budget(n, n, n, n))

        for depth in (0, 60):
            found, witness = at_depth(depth)
            assert found, depth
            assert parameters_of(witness) == ParameterProfile((1,) * n, (1,) * n, (1,) * n, n)

    def test_deep_search_opens_its_frames_on_a_fresh_stack(self):
        # Counted across threads: one frame per placed cell, as inline.
        n = 600
        (found, _), frames = recurse_frames(r=n, c=n, s=n, v=n, budget=Budget(n, n, n, n))
        assert found
        assert frames == n + 1

    def test_free_columns_open_in_order(self):
        # Without a column family a row opens only the first unused
        # column; leaving it empty skips the rest of the row, so this
        # refutation opens 187 frames where trying every fresh column of
        # each row would open 2,246.  Two symbols of 3 cells each need
        # all 3 rows, but the last row holds one cell.
        got, frames = recurse_frames(
            rows=(3, 3, 1), symbols=(3, 3, 1), c=5, budget=Budget(12, 6, 6, 6)
        )
        assert got == (False, None)
        assert frames == 187

    def test_volume_beyond_rows_times_symbols_opens_no_frame(self):
        # 3 rows of at most 2 symbols each hold 6 cells, so 7 cells are
        # refuted before the search, though the 3 x 5 board holds 15.
        got, frames = recurse_frames(r=3, c=5, s=2, v=7, budget=Budget(12, 6, 6, 6))
        assert got == (False, None)
        assert frames == 0
        # Likewise 3 columns of 2 symbols each, over 7 free rows.
        got, frames = recurse_frames(c=3, s=2, v=7, budget=Budget(12, 7, 6, 6))
        assert got == (False, None)
        assert frames == 0

    def test_line_tables_follow_the_lines_the_search_touches(self):
        # A 10**5-column budget over 3 rows finds an 18-cell witness, and
        # 10**5 pinned rows of one cell run out of symbols after six; a
        # table per budgeted column or pinned row would take ~785 KiB.
        tracemalloc.start()
        try:
            found, witness = exists_full(r=3, budget=Budget(10**5, 6, 10**5, 6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert found
        assert witness.volume == 18 and parameters_of(witness).r == 3
        assert peak < 64 * 1024
        n = 10**5
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="truncated"):
                exists_full(r=n, c=1, v=n, budget=Budget(n, n, 1, 6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_nonpositive_budget_is_a_precondition_and_a_value_error(self):
        with pytest.raises(PreconditionViolated, match="^max_cells must be a positive integer$"):
            Budget(max_cells=0)
        assert issubclass(PreconditionViolated, ValueError)

    def test_volume_too_deep_to_search_is_a_budget_error(self):
        with pytest.raises(BudgetExceeded, match="placing up to 1100 cells"):
            exists_full(v=1100, budget=Budget(1100, 1, 1100, 1100))

    def test_volume_too_deep_to_search_is_refused_before_the_search(self):
        # 2000 cells, one per line: a witness needs 2001 frames, so the
        # call is refused before the search, not after scanning ~10**6
        # cells on its way down the stack.
        n = 2000
        got, frames = recurse_frames(rows=(1,) * n, cols=(1,) * n, s=n, budget=Budget(n, n, n, n))
        assert isinstance(got, BudgetExceeded)
        assert "placing up to 2000 cells" in str(got)
        assert frames == 0

    def test_volume_too_deep_to_search_may_still_be_refuted(self):
        # One row and one symbol hold at most one cell, so 2000 pinned
        # cells are refuted without going deep.  A volume at or above the
        # stack is not on its own a reason to give up: a pre-check that
        # raised BudgetExceeded there would lose this verdict.
        assert exists_full(r=1, c=2000, s=1, v=2000, budget=Budget(2000, 2000, 2000, 2000)) == (
            False,
            None,
        )

    def test_truncated_search_may_still_find_a_witness(self):
        tight = Budget(max_cells=3, max_rows=2, max_cols=2, max_symbols=3)
        found, witness = exists_full(s=3, budget=tight)
        assert found
        assert len({t.sym for t in witness.triples}) == 3

    def test_infeasible_profile_is_false_not_an_error(self):
        found, _ = exists_full(rows=(2, 2), cols=(4,), s=2)
        assert not found

    def test_witness_is_normalized_on_a_small_grid(self):
        # exists_full relabels nothing: the search must hand over rows
        # 1..r, columns 1..c and symbols 1..s, pinned or not.
        families = [v for length in (1, 2, 3) for v in product((1, 2), repeat=length)]
        rows_or_r = [{}, *({"rows": f} for f in families), *({"r": k} for k in (1, 2, 3))]
        cols_or_c = [{}, *({"cols": f} for f in families), *({"c": k} for k in (1, 2, 3))]
        syms_or_s = [{}, *({"symbols": f} for f in families), *({"s": k} for k in (1, 2))]
        found = 0
        for rows, cols, syms in product(rows_or_r, cols_or_c, syms_or_s):
            try:
                ok, witness = exists_full(**rows, **cols, **syms)
            except PlsError:
                continue
            if ok:
                assert is_normalized(witness), (rows, cols, syms)
                found += 1
        assert found > 500

    @settings(max_examples=60, deadline=None)
    @given(squares(max_rows=3, max_cols=3, max_symbols=3, max_cells=5))
    def test_every_real_profile_is_found(self, pls):
        profile = parameters_of(pls)
        found, witness = exists_full(
            rows=profile.row_params,
            cols=profile.col_params,
            symbols=profile.sym_params,
        )
        assert found
        got = parameters_of(witness)
        assert sorted(got.row_params) == sorted(profile.row_params)
        assert sorted(got.col_params) == sorted(profile.col_params)
        assert sorted(got.sym_params) == sorted(profile.sym_params)


class TestEnumerate:
    def test_single_cell_bounds(self):
        out = list(enumerate_pls(1, 1, 1, 1))
        assert [key_of(p) for p in out] == [(Triple(1, 1, 1),)]

    def test_extra_volume_changes_nothing_on_a_1x1_board(self):
        # A second cell would need a second column or symbol.
        out = list(enumerate_pls(1, 1, 1, 2))
        assert len(out) == 1

    @pytest.mark.parametrize("bounds,count", sorted(FROZEN_COUNTS.items()))
    def test_frozen_counts(self, bounds, count):
        assert sum(1 for _ in enumerate_pls(*bounds)) == count

    @pytest.mark.parametrize("bounds", [(2, 2, 2, 4), (2, 3, 3, 4)])
    def test_matches_naive_generator(self, bounds):
        got = [key_of(p) for p in enumerate_pls(*bounds)]
        assert sorted(got) == naive_enumerate(*bounds)

    def test_lexicographic_order_and_uniqueness(self):
        got = [key_of(p) for p in enumerate_pls(2, 2, 2, 4)]
        assert got == sorted(got)
        assert len(got) == len(set(got))

    def test_every_square_is_normalized(self):
        for pls in enumerate_pls(3, 2, 2, 3):
            assert is_normalized(pls)

    def test_closed_under_conjugation_in_symmetric_bounds(self):
        emitted = {key_of(p) for p in enumerate_pls(2, 2, 2, 4)}
        for key in emitted:
            pls = validate(key)
            # Each axis of a conjugate holds the labels of one axis of
            # pls, so a conjugate of a normalized square is normalized.
            for perm in AXIS_PERMS:
                assert key_of(conjugate(pls, perm)) in emitted

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            enumerate_pls(7, 2, 2, 4)
        with pytest.raises(BudgetExceeded):
            enumerate_pls(2, 2, 2, 13)

    def test_cells_too_deep_to_enumerate_is_a_budget_error(self):
        stream = enumerate_pls(1, 1100, 1100, 1100, budget=Budget(1100, 6, 1100, 1100))
        with pytest.raises(BudgetExceeded, match="up to 1100 cells"):
            for _ in stream:
                pass

    def test_rejects_bad_caps(self):
        with pytest.raises(PreconditionViolated):
            enumerate_pls(0, 2, 2, 4)
        with pytest.raises(PreconditionViolated):
            enumerate_pls(True, 2, 2, 4)


class TestOracleAgreesWithEnumeration:
    def test_profiles_found_iff_enumerated(self):
        # Within fully pinned caps the two searches must see the same
        # profile multisets.
        emitted_profiles = set()
        for pls in enumerate_pls(2, 2, 2, 4):
            profile = parameters_of(pls)
            emitted_profiles.add(
                (
                    tuple(sorted(profile.row_params, reverse=True)),
                    tuple(sorted(profile.col_params, reverse=True)),
                    tuple(sorted(profile.sym_params, reverse=True)),
                )
            )
        candidates = set()
        for volume in range(1, 5):
            parts = [
                tuple(part)
                for length in (1, 2)
                for part in _compositions(volume, length)
                if max(part) <= 2
            ]
            for n in parts:
                for m in parts:
                    for k in parts:
                        candidates.add(
                            (
                                tuple(sorted(n, reverse=True)),
                                tuple(sorted(m, reverse=True)),
                                tuple(sorted(k, reverse=True)),
                            )
                        )
        for n, m, k in sorted(candidates):
            found, _ = exists_full(rows=n, cols=m, symbols=k)
            assert found == ((n, m, k) in emitted_profiles), (n, m, k)

    @pytest.mark.parametrize("bounds", [(3, 2, 2, 4), (2, 3, 3, 4)])
    def test_scalar_mixes_found_iff_enumerated(self, bounds):
        # Exact (r, c, s, v), and a row or column family with the other
        # dimensions as counts, each under a budget equal to the caps, so
        # every dimension is pinned within the enumerated space.
        max_rows, max_cols, max_syms, max_cells = bounds
        budget = Budget(max_cells, max_rows, max_cols, max_syms)
        emitted = set()
        for pls in enumerate_pls(*bounds):
            profile = parameters_of(pls)
            emitted.add(
                (
                    tuple(sorted(profile.row_params, reverse=True)),
                    tuple(sorted(profile.col_params, reverse=True)),
                    profile.s,
                    profile.volume,
                )
            )

        def families(max_len):
            # Entries up to the volume cap, so some lines outgrow the board.
            return {
                tuple(sorted(part, reverse=True))
                for volume in range(1, max_cells + 1)
                for length in range(1, max_len + 1)
                for part in _compositions(volume, length)
            }

        checked = 0
        for r, c, s, v in product(
            range(1, max_rows + 1),
            range(1, max_cols + 1),
            range(1, max_syms + 1),
            range(1, max_cells + 1),
        ):
            found, _ = exists_full(r=r, c=c, s=s, v=v, budget=budget)
            expected = any(
                (len(n), len(m), k, vol) == (r, c, s, v) for n, m, k, vol in emitted
            )
            assert found == expected, (r, c, s, v)
            checked += 1
        for n in sorted(families(max_rows)):
            for c, s in product(range(1, max_cols + 1), range(1, max_syms + 1)):
                found, _ = exists_full(rows=n, c=c, s=s, budget=budget)
                expected = any((rn, len(m), k) == (n, c, s) for rn, m, k, _ in emitted)
                assert found == expected, (n, c, s)
                checked += 1
        for m in sorted(families(max_cols)):
            for r, s in product(range(1, max_rows + 1), range(1, max_syms + 1)):
                found, _ = exists_full(cols=m, r=r, s=s, budget=budget)
                expected = any((len(n), cm, k) == (r, m, s) for n, cm, k, _ in emitted)
                assert found == expected, (m, r, s)
                checked += 1
        assert checked > 100


def _profile_key(pls):
    profile = parameters_of(pls)
    families = (profile.row_params, profile.col_params, profile.sym_params)
    return (*(tuple(sorted(f)) for f in families), profile.volume)


def _mix_kwargs(mix, v, budget):
    # exists_full's arguments for a mix: per axis nothing, a count or a family.
    kwargs = {"v": v, "budget": budget}
    for want, family, count in zip(mix, ("rows", "cols", "symbols"), "rcs"):
        if want is not None:
            kwargs[family if isinstance(want, tuple) else count] = want
    return kwargs


def _meets(key, mix, v):
    # Each axis of the mix is free (None), a count or a sorted family.
    *families, volume = key
    return (v is None or v == volume) and all(
        want is None or want == (len(got) if isinstance(want, int) else got)
        for want, got in zip(mix, families)
    )


class TestOracleMeetsTheEnumeratedSpec:
    # Every consistent mix over caps (3, 3, 3, 9): each axis free, a count
    # from 1 to 3 or an enumerated family, and the volume free or 1-9.
    # Under a budget equal to the caps the oracle must find a square
    # exactly when an enumerated one meets the mix, return a witness that
    # meets it, and raise BudgetExceeded only where none does.
    def test_every_consistent_mix(self):
        keys = {_profile_key(pls) for pls in enumerate_pls(3, 3, 3, 9)}
        families = sorted({family for key in keys for family in key[:3]})
        forms = [None, 1, 2, 3, *families]
        budget = Budget(9, 3, 3, 3)
        checked = 0
        for mix in product(forms, repeat=3):
            # Consistent: every given family and the volume share one total.
            totals = {sum(f) for f in mix if isinstance(f, tuple)}
            if len(totals) > 1:
                continue
            for v in [None, *totals] if totals else [None, *range(1, 10)]:
                if v is None and mix == (None, None, None):
                    continue
                expected = any(_meets(key, mix, v) for key in keys)
                try:
                    found, witness = exists_full(**_mix_kwargs(mix, v, budget))
                except BudgetExceeded:
                    assert not expected, (mix, v)
                else:
                    assert found == expected, (mix, v)
                    if found:
                        assert _meets(_profile_key(witness), mix, v), (mix, v)
                checked += 1
        assert checked == 3845


def _compositions(total, length):
    if length == 1:
        yield (total,)
        return
    for first in range(1, total - length + 2):
        for rest in _compositions(total - first, length - 1):
            yield (first,) + rest


def _random_square(rng):
    # Greedy insertion of random cells of a random box of sides 1 to 5
    # that clash with nothing so far, up to a random volume of 1 to 12.
    sides = [rng.randint(1, 6) for _ in range(3)]
    max_cells = rng.randint(1, 16)
    chosen, seen = [], set()
    for _ in range(3 * max_cells):
        i, j, k = (rng.randint(1, side) for side in sides)
        if len(chosen) < max_cells and seen.isdisjoint({(0, i, j), (1, i, k), (2, j, k)}):
            chosen.append((i, j, k))
            seen |= {(0, i, j), (1, i, k), (2, j, k)}
    return validate(chosen or [(1, 1, 1)])


def _question(rng):
    # Read off a random square: per axis its family, its count moved by
    # -1 to +2, or nothing; the volume kept, moved or dropped; and a
    # random budget.  Families, counts and budget sides are listed in
    # (row, col, sym) order.
    # A count is drawn twice as often as a family or nothing, as it is
    # the count that the budget caps.
    profile = parameters_of(_random_square(rng))
    axes = []
    for family in profile[:3]:
        kind = rng.choice(("family", "count", "count", None))
        if kind == "family":
            axes.append(tuple(rng.sample(family, len(family))))
        else:
            axes.append(len(family) + rng.randint(-1, 2) if kind else None)
    v = rng.choice([profile.volume, profile.volume + rng.randint(-2, 2), None])
    sides = tuple(rng.randint(3, 6) for _ in range(3))
    return axes, v, rng.randint(6, 16), sides


def _ask(axes, v, cells, sides):
    try:
        return exists_full(**_mix_kwargs(axes, v, Budget(cells, *sides)))
    except (BudgetExceeded, PreconditionViolated) as exc:
        return type(exc), None


class TestConjugateQuestionsAgree:
    # A square's conjugate is a square whose families, counts and budget
    # sides are permuted alike, so all six conjugates of a question must
    # get one outcome: True, False, BudgetExceeded or PreconditionViolated;
    # and each witness, conjugated back, must meet the original question.
    def test_random_questions(self):
        rng = random.Random(20140318)
        outcomes = set()
        for _ in range(3000):
            axes, v, cells, sides = question = _question(rng)
            mix = [tuple(sorted(a)) if isinstance(a, tuple) else a for a in axes]
            seen = set()
            for perm in AXIS_PERMS:
                at = [AXES.index(axis) for axis in perm]
                found, witness = _ask([axes[a] for a in at], v, cells, [sides[a] for a in at])
                seen.add(found)
                if witness is not None:
                    back = tuple(AXES[at.index(a)] for a in range(3))
                    assert _meets(_profile_key(conjugate(witness, back)), mix, v), (question, perm)
            assert len(seen) == 1, (question, seen)
            outcomes |= seen
        assert outcomes == {True, False, BudgetExceeded, PreconditionViolated}


def _up_set_to_v(verdicts, v):
    # verdicts[x - 1] for x = 1, 2, ...: True from its first True through
    # x = v, and False at v + 1 when the grid reaches it.
    on = verdicts[:v]
    first = on.index(True) if True in on else len(on)
    return all(on[first:]) and not any(verdicts[v:v + 1])


def _families(max_len, max_entry):
    return [
        family
        for length in range(1, max_len + 1)
        for family in combinations_with_replacement(range(max_entry, 0, -1), length)
    ]


def _splits(family):
    # The families one move on: an entry e >= 2 split into e - 1 and a new 1.
    return {
        tuple(sorted(family[:i] + (entry - 1, 1) + family[i + 1:], reverse=True))
        for i, entry in enumerate(family)
        if entry >= 2
    }


class TestSplitAndMoveFacts:
    # Split: a square with s < v symbols repeats one, and giving one of
    # its cells a fresh symbol moves no cell.  Move: a square with c < v
    # columns has a column with two cells, and moving one to a fresh
    # column keeps every row and symbol count.  So with the rest pinned,
    # existence is an up-set along s, and along a count r or c, on
    # [1, v], and false at v + 1; and a found family stays found when an
    # entry e >= 2 splits into e - 1 and a new 1.  The oracle checks these
    # facts here on full small grids, rather than a sweep assuming them.
    def test_sizes(self):
        budget = Budget(9, 4, 4, 4)
        for v in range(1, 10):
            verdict = {
                key: exists_full(r=key[0], c=key[1], s=key[2], v=v, budget=budget)[0]
                for key in product(range(1, 5), repeat=3)
            }
            for axis, (a, b) in product(range(3), product(range(1, 5), repeat=2)):
                line = [verdict[(a, b)[:axis] + (x,) + (a, b)[axis:]] for x in range(1, 5)]
                assert _up_set_to_v(line, v), (axis, a, b, v)

    def test_theorem(self):
        families = _families(3, 3)
        for n, m in product(families, repeat=2):
            v = sum(n)
            if sum(m) != v:
                continue
            budget = Budget(9, 3, 3, v + 1)
            line = [exists_full(rows=n, cols=m, s=s, budget=budget)[0] for s in range(1, v + 2)]
            assert _up_set_to_v(line, v), (n, m)

    def test_rows(self):
        for n in _families(3, 3):
            v = sum(n)
            budget = Budget(9, 3, v + 1, v + 1)
            verdict = {
                (c, s): exists_full(rows=n, c=c, s=s, budget=budget)[0]
                for c, s in product(range(1, v + 2), repeat=2)
            }
            for a in range(1, v + 2):
                assert _up_set_to_v([verdict[(a, s)] for s in range(1, v + 2)], v), (n, a)
                assert _up_set_to_v([verdict[(c, a)] for c in range(1, v + 2)], v), (n, a)

    def test_theorem_family_move(self):
        budget = Budget(9, 4, 4, 9)
        for n, m in product(_families(3, 3), repeat=2):
            if sum(m) != sum(n):
                continue
            for s in range(1, sum(n) + 1):
                if exists_full(rows=n, cols=m, s=s, budget=budget)[0]:
                    for split in _splits(m):
                        assert exists_full(rows=n, cols=split, s=s, budget=budget)[0], (n, m, s)
                    for split in _splits(n):
                        assert exists_full(rows=split, cols=m, s=s, budget=budget)[0], (n, m, s)

    def test_rows_family_move(self):
        for n in _families(3, 3):
            v = sum(n)
            budget = Budget(9, 4, v, v)
            for c, s in product(range(1, v + 1), repeat=2):
                if exists_full(rows=n, c=c, s=s, budget=budget)[0]:
                    for split in _splits(n):
                        assert exists_full(rows=split, c=c, s=s, budget=budget)[0], (n, c, s)
