"""Symbol filling, symbol splitting, and the three build entry points."""

import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plskit.builder
from plskit import (
    BudgetExceeded,
    CellSet,
    Infeasible,
    PreconditionViolated,
    Triple,
    build_corollary,
    build_proposition,
    build_theorem,
    fill_symbols,
    iter_symbol_layers,
    normalize,
    parameters_of,
    split_symbols,
    validate,
)

from conftest import cell_sets, squares


def max_line_count(cs: CellSet) -> int:
    return max(max(cs.row_counts()), max(cs.col_counts()))


class TestIterSymbolLayers:
    def test_layers_partition_and_peel(self):
        cs = CellSet(
            frozenset({(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)}), rows=3, cols=3
        )
        layers = list(iter_symbol_layers(cs))
        assert [p for p, _ in layers] == [3, 2, 1]
        seen = set()
        for _, layer in layers:
            assert not (seen & layer)
            seen |= layer
        assert seen == cs.cells

    def test_each_layer_is_a_matching(self):
        cs = CellSet(
            frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}), rows=2, cols=2
        )
        for _, layer in iter_symbol_layers(cs):
            rows = [i for i, _ in layer]
            cols = [j for _, j in layer]
            assert len(set(rows)) == len(rows)
            assert len(set(cols)) == len(cols)

    @given(cell_sets())
    def test_peeling_lowers_the_max_count_by_one(self, cs):
        remaining = set(cs.cells)
        expected = max_line_count(cs)
        for p, layer in iter_symbol_layers(cs):
            assert p == expected
            row_counts = Counter(i for i, _ in remaining)
            col_counts = Counter(j for _, j in remaining)
            assert max(max(row_counts.values()), max(col_counts.values())) == p
            # Every line at the current maximum loses a cell this layer.
            full_rows = {i for i, k in row_counts.items() if k == p}
            full_cols = {j for j, k in col_counts.items() if k == p}
            assert full_rows <= {i for i, _ in layer}
            assert full_cols <= {j for _, j in layer}
            remaining -= layer
            expected -= 1
        assert not remaining


class TestFillSymbols:
    def test_three_cell_trace(self):
        cs = CellSet(frozenset({(1, 1), (1, 2), (2, 1)}), rows=2, cols=2)
        pls = fill_symbols(cs)
        assert pls.triples == frozenset(
            {Triple(1, 1, 2), Triple(1, 2, 1), Triple(2, 1, 1)}
        )

    def test_full_board_gives_latin_square(self):
        cs = CellSet(frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}), rows=2, cols=2)
        pls = fill_symbols(cs)
        assert parameters_of(pls).sym_params == (2, 2)

    def test_diagonal_uses_one_symbol(self):
        cs = CellSet(frozenset({(1, 1), (2, 2), (3, 3)}), rows=3, cols=3)
        pls = fill_symbols(cs)
        assert {t.sym for t in pls.triples} == {1}

    @settings(max_examples=300)
    @given(cell_sets())
    def test_support_and_symbol_count_are_exact(self, cs):
        pls = fill_symbols(cs)
        assert pls.cells() == cs.cells
        assert len({t.sym for t in pls.triples}) == max_line_count(cs)


class TestSplitSymbols:
    def test_no_op_at_current_count(self):
        pls = validate([(1, 1, 2), (1, 2, 1), (2, 1, 1)])
        assert split_symbols(pls, 2) == pls

    def test_single_split_relabels_the_most_frequent(self):
        pls = validate([(1, 1, 2), (1, 2, 1), (2, 1, 1)])
        out = split_symbols(pls, 3)
        assert out.triples == frozenset(
            {Triple(1, 1, 2), Triple(1, 2, 3), Triple(2, 1, 1)}
        )

    def test_full_square_to_all_distinct(self):
        pls = validate([(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1)])
        out = split_symbols(pls, 4)
        assert len({t.sym for t in out.triples}) == 4
        assert out.cells() == pls.cells()

    def test_rejects_out_of_range_targets(self):
        pls = validate([(1, 1, 2), (1, 2, 1), (2, 1, 1)])
        with pytest.raises(PreconditionViolated):
            split_symbols(pls, 1)
        with pytest.raises(PreconditionViolated):
            split_symbols(pls, 4)

    @given(squares(), st.integers(1, 8))
    def test_split_preserves_cells_and_line_params(self, pls, s):
        current = len({t.sym for t in pls.triples})
        if not (current <= s <= pls.volume):
            with pytest.raises(PreconditionViolated):
                split_symbols(pls, s)
            return
        out = split_symbols(pls, s)
        assert out.cells() == pls.cells()
        assert len({t.sym for t in out.triples}) == s
        before = parameters_of(pls)
        after = parameters_of(out)
        assert after.row_params == before.row_params
        assert after.col_params == before.col_params

    @given(squares())
    def test_no_symbol_ever_disappears(self, pls):
        # Raising the count one step at a time must keep every old symbol.
        symbols = {t.sym for t in pls.triples}
        out = pls
        for s in range(len(symbols) + 1, pls.volume + 1):
            out = split_symbols(out, s)
            assert symbols <= {t.sym for t in out.triples}


class TestBuildTheorem:
    def test_profile_is_sequence_exact(self):
        pls = build_theorem((2, 1), (2, 1), 2)
        profile = parameters_of(pls)
        assert profile.row_params == (2, 1)
        assert profile.col_params == (2, 1)
        assert profile.s == 2

    def test_latin_square_shape(self):
        pls = build_theorem((2, 2), (2, 2), 2)
        assert pls.cells() == frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})

    def test_unsorted_parameters_are_honored_by_index(self):
        pls = build_theorem((1, 3, 2), (2, 2, 2), 3)
        assert parameters_of(pls).row_params == (1, 3, 2)

    def test_dominance_failure_raises(self):
        with pytest.raises(Infeasible) as exc:
            build_theorem((2, 2), (4,), 2)
        assert exc.value.report is not None
        assert {c.id for c in exc.value.report.violated()} == {
            "dominance",
            "symbol-bounds",
        }

    def test_symbol_bound_failure_raises(self):
        with pytest.raises(Infeasible):
            build_theorem((2, 2), (2, 2), 1)


class TestBuildProposition:
    def test_two_singleton_rows(self):
        pls = build_proposition((1, 1), 2, 1)
        assert pls.triples == frozenset({Triple(1, 1, 1), Triple(2, 2, 1)})

    def test_three_rows_two_symbols(self):
        pls = build_proposition((2, 2, 2), 3, 2)
        profile = parameters_of(pls)
        assert profile.row_params == (2, 2, 2)
        assert profile.c == 3
        assert profile.s == 2

    def test_row_cap_failure(self):
        with pytest.raises(Infeasible) as exc:
            build_proposition((3, 1), 2, 2)
        assert {c.id for c in exc.value.report.violated()} == {"row-caps"}


class TestBuildCorollary:
    def test_six_cells(self):
        pls = build_corollary(3, 3, 2, 6)
        profile = parameters_of(pls)
        assert (profile.r, profile.c, profile.s, profile.volume) == (3, 3, 2, 6)

    def test_forced_latin_square(self):
        pls = build_corollary(2, 2, 2, 4)
        assert parameters_of(pls).sym_params == (2, 2)

    def test_volume_above_board(self):
        with pytest.raises(Infeasible) as exc:
            build_corollary(2, 2, 2, 5)
        assert {c.id for c in exc.value.report.violated()} == {"upper-bound"}


class TestVolumeCap:
    @pytest.mark.parametrize(
        "build, args",
        [
            (build_corollary, (10**5, 10**5, 10**5, 10**10)),
            (build_corollary, (10**6, 10**6, 10**6, 10**12)),
            (build_proposition, ((10**6, 10**6), 10**6, 10**6)),
            (build_theorem, ((1000,) * 1001, (1001,) * 1000, 1001)),
        ],
    )
    def test_huge_volume_allocates_nothing_proportional(self, build, args, monkeypatch):
        # Each prescription passes its predicate; the cap must refuse it
        # before anything proportional to the volume is allocated.  A
        # realization reached anyway fails at once instead of running on.
        def unreachable(n, m):
            raise AssertionError("realization reached above the cap")

        monkeypatch.setattr(plskit.builder, "realize_unchecked", unreachable)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="above the builder cap"):
                build(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cap_is_inclusive_and_admits_large_builds(self, monkeypatch):
        assert plskit.builder.MAX_CELLS >= 10**6
        monkeypatch.setattr(plskit.builder, "MAX_CELLS", 4)
        assert build_corollary(2, 2, 2, 4).volume == 4
        for build, args in (
            (build_corollary, (2, 3, 3, 5)),
            (build_proposition, ((3, 2), 3, 3)),
            (build_theorem, ((3, 2), (2, 2, 1), 3)),
        ):
            with pytest.raises(BudgetExceeded):
                build(*args)

    def test_predicate_runs_before_the_cap(self):
        with pytest.raises(Infeasible):
            build_corollary(1, 1, 1, 10**10)


class TestDeterminism:
    def test_identical_inputs_identical_outputs(self):
        for build, args in (
            (build_theorem, ((3, 2, 2), (3, 2, 2), 4)),
            (build_proposition, ((2, 2), 3, 3)),
            (build_corollary, (3, 3, 3, 7)),
        ):
            pls = build(*args)
            assert pls == build(*args)
            # The builders emit normalized labels without relabeling.
            assert normalize(pls) == pls


def grid_triples(rows):
    """Sorted triples of a grid given row by row; "." marks an empty cell."""
    return tuple(
        Triple(i, j, int(sym))
        for i, row in enumerate(rows, 1)
        for j, sym in enumerate(row.split(), 1)
        if sym != "."
    )


class TestGoldenOutput:
    """Exact squares, so that a faster engine must reproduce them cell for cell."""

    @pytest.mark.parametrize(
        "args, rows",
        [
            (
                ((6,) * 6, (6,) * 6, 6),
                [
                    "6 5 4 3 2 1",
                    "5 6 3 4 1 2",
                    "2 1 6 5 4 3",
                    "1 2 5 6 3 4",
                    "3 4 2 1 6 5",
                    "4 3 1 2 5 6",
                ],
            ),
            (
                ((6,) * 6, (6,) * 6, 20),
                [
                    "12 11 10  9  8  7",
                    "17 18 15 16 13 14",
                    "20 19  6  5  4  3",
                    " 1  2  5  6  3  4",
                    " 3  4  2  1  6  5",
                    " 4  3  1  2  5  6",
                ],
            ),
            (
                ((2, 5, 3, 4, 1, 3, 4), (3, 4, 2, 3, 1, 4, 2, 3), 7),
                [
                    ". . . . . 4 6 .",
                    "5 4 . 7 . 1 . 2",
                    "3 2 . . . . . 1",
                    "4 3 1 . . 2 . .",
                    ". . . . . . . 3",
                    ". . 3 2 1 . . .",
                    ". 1 . 4 . 3 2 .",
                ],
            ),
        ],
        ids=["latin6-s6", "latin6-s20", "profile7x8-s7"],
    )
    def test_build_theorem_output_is_pinned(self, args, rows):
        assert build_theorem(*args).sorted_triples() == grid_triples(rows)
