"""Exhaustive search: existence queries and the enumeration stream."""

from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plskit import (
    Budget,
    BudgetExceeded,
    PreconditionViolated,
    Triple,
    conjugate,
    enumerate_pls,
    exists_full,
    normalize,
    parameters_of,
    validate,
)
from plskit.errors import PlsError

from conftest import squares

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


class TestExistsFull:
    def test_all_families_witness(self):
        found, witness = exists_full(
            row_params=(2, 1), col_params=(2, 1), sym_params=(2, 1)
        )
        assert found
        assert witness.triples == frozenset(
            {Triple(1, 1, 1), Triple(1, 2, 2), Triple(2, 1, 2)}
        )

    def test_single_cell(self):
        found, witness = exists_full(row_params=(1,), col_params=(1,), sym_params=(1,))
        assert found
        assert witness.triples == frozenset({Triple(1, 1, 1)})

    def test_volume_above_board_is_false(self):
        found, witness = exists_full(r=2, c=2, s=2, v=5)
        assert not found
        assert witness is None

    def test_families_matched_as_multisets(self):
        found_sorted, w1 = exists_full(row_params=(2, 1), col_params=(2, 1), s=2)
        found_shuffled, w2 = exists_full(row_params=(1, 2), col_params=(1, 2), s=2)
        assert found_sorted and found_shuffled
        assert w1 == w2

    def test_witness_satisfies_the_constraints(self):
        found, witness = exists_full(row_params=(2, 2, 1), c=3, s=3)
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
            exists_full(row_params=(True,))

    def test_volume_disagreement_rejected(self):
        with pytest.raises(PreconditionViolated):
            exists_full(row_params=(2, 1), col_params=(2, 2))
        with pytest.raises(PreconditionViolated):
            exists_full(row_params=(2, 1), v=4)

    def test_scalar_family_disagreement_rejected(self):
        with pytest.raises(PreconditionViolated):
            exists_full(row_params=(2, 1), r=3)

    def test_pinned_dimension_above_budget(self):
        with pytest.raises(BudgetExceeded):
            exists_full(r=9, v=9)
        with pytest.raises(BudgetExceeded):
            exists_full(v=13)

    def test_truncated_fruitless_search_raises(self):
        # Five distinct symbols cannot fit on the 2x2 board the budget
        # allows, and a bigger board might hold them: inconclusive.
        tight = Budget(max_cells=5, max_rows=2, max_cols=2, max_symbols=5)
        with pytest.raises(BudgetExceeded):
            exists_full(s=5, budget=tight)

    def test_truncated_search_may_still_find_a_witness(self):
        tight = Budget(max_cells=3, max_rows=2, max_cols=2, max_symbols=3)
        found, witness = exists_full(s=3, budget=tight)
        assert found
        assert len({t.sym for t in witness.triples}) == 3

    def test_infeasible_profile_is_false_not_an_error(self):
        found, _ = exists_full(row_params=(2, 2), col_params=(4,), s=2)
        assert not found

    def test_witness_is_normalized_on_a_small_grid(self):
        # exists_full relabels only the columns of its witness; the search
        # must hand over rows 1..r and symbols 1..s, pinned or not.
        families = [v for length in (1, 2, 3) for v in product((1, 2), repeat=length)]
        rows_or_r = [{}, *({"row_params": f} for f in families), *({"r": k} for k in (1, 2, 3))]
        cols_or_c = [{}, *({"col_params": f} for f in families), *({"c": k} for k in (1, 2, 3))]
        syms_or_s = [{}, *({"sym_params": f} for f in families), *({"s": k} for k in (1, 2))]
        found = 0
        for rows, cols, syms in product(rows_or_r, cols_or_c, syms_or_s):
            try:
                ok, witness = exists_full(**rows, **cols, **syms)
            except PlsError:
                continue
            if ok:
                assert normalize(witness) == witness, (rows, cols, syms)
                found += 1
        assert found > 500

    @settings(max_examples=60, deadline=None)
    @given(squares(max_rows=3, max_cols=3, max_symbols=3, max_cells=5))
    def test_every_real_profile_is_found(self, pls):
        profile = parameters_of(pls)
        found, witness = exists_full(
            row_params=profile.row_params,
            col_params=profile.col_params,
            sym_params=profile.sym_params,
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
            assert normalize(pls) == pls

    def test_closed_under_conjugation_in_symmetric_bounds(self):
        emitted = {key_of(p) for p in enumerate_pls(2, 2, 2, 4)}
        for key in emitted:
            pls = validate(key)
            for perm in AXIS_PERMS:
                image = normalize(conjugate(pls, perm))
                assert key_of(image) in emitted

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            enumerate_pls(7, 2, 2, 4)
        with pytest.raises(BudgetExceeded):
            enumerate_pls(2, 2, 2, 13)

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
            found, _ = exists_full(row_params=n, col_params=m, sym_params=k)
            assert found == ((n, m, k) in emitted_profiles), (n, m, k)


def _compositions(total, length):
    if length == 1:
        yield (total,)
        return
    for first in range(1, total - length + 2):
        for rest in _compositions(total - first, length - 1):
            yield (first,) + rest
