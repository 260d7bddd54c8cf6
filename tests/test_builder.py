"""Symbol filling, symbol splitting, and the three build entry points."""

import ast
import hashlib
import pathlib
import random
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plskit.builder
import plskit.matching
import plskit.realization
from plskit import (
    BudgetExceeded,
    Infeasible,
    PreconditionViolated,
    Triple,
    build_corollary,
    build_proposition,
    build_theorem,
    fill_symbols,
    parameters_of,
    split_symbols,
    validate,
)
from plskit.matching import merge_matchings, saturating_matching
from plskit.realization import realize_lines

from conftest import adjacency, cell_sets, is_normalized, line_counts, nonzero_line_counts, squares


def package_imports(module) -> list[str]:
    """The modules that ``module``'s source imports from plskit, relative imports included."""
    found = []
    for node in ast.walk(ast.parse(pathlib.Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [name for name in names if name.startswith((".", "plskit"))]
    return found


@pytest.mark.parametrize("module", [plskit.matching, plskit.realization], ids=lambda m: m.__name__)
def test_build_stages_import_nothing_from_the_package(module):
    # A build stage trusts what the builder hands it and asserts its
    # invariants, so it needs none of the package's checks or errors.
    assert package_imports(plskit.builder) != []
    assert package_imports(module) == []


def max_line_count(cells) -> int:
    return max(max(Counter(i for i, _ in cells).values()), max(Counter(j for _, j in cells).values()))


def peel_layers(cs):
    """fill_symbols' peel as (count, cells) pairs, heaviest first.

    The cells peeled at count p are the ones labelled p.
    """
    layers = {}
    for i, j, p in fill_symbols(cs).triples:
        layers.setdefault(p, set()).add((i, j))
    return [(p, frozenset(layers[p])) for p in sorted(layers, reverse=True)]


class TestPeelLayers:
    def test_layers_partition_and_peel(self):
        cs = frozenset({(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)})
        layers = peel_layers(cs)
        assert [p for p, _ in layers] == [3, 2, 1]
        seen = set()
        for _, layer in layers:
            assert not (seen & layer)
            seen |= layer
        assert seen == cs

    def test_each_layer_is_a_matching(self):
        cs = frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})
        for _, layer in peel_layers(cs):
            rows = [i for i, _ in layer]
            cols = [j for _, j in layer]
            assert len(set(rows)) == len(rows)
            assert len(set(cols)) == len(cols)

    @given(cell_sets())
    def test_peeling_lowers_the_max_count_by_one(self, cs):
        remaining = set(cs)
        expected = max_line_count(cs)
        for p, layer in peel_layers(cs):
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


def reference_layers(cs):
    """The plain peel: both saturating matchings and the merge at every layer."""
    remaining = set(cs)
    while remaining:
        rows, cols = adjacency(remaining, "left"), adjacency(remaining, "right")
        p = max(max(map(len, rows.values())), max(map(len, cols.values())))
        x1 = sorted(i for i, line in rows.items() if len(line) == p)
        y1 = sorted(j for j, line in cols.items() if len(line) == p)
        m = saturating_matching(rows, x1)
        n = saturating_matching(cols, y1)
        layer = frozenset(merge_matchings(m, n).items())
        yield p, layer
        remaining -= layer


def dense_board(side: int, density: float, seed: int) -> frozenset[tuple[int, int]]:
    rng = random.Random(seed)
    return frozenset(
        (i, j) for i in range(1, side + 1) for j in range(1, side + 1) if rng.random() < density
    )


class TestReferencePeel:
    # The peel skips the column-side matching and the merge when the
    # row-side matching already covers the peak columns; the layers must
    # be those of the peel that always runs all three.
    @settings(max_examples=300)
    @given(cell_sets())
    def test_small_boards(self, cs):
        assert peel_layers(cs) == list(reference_layers(cs))

    @pytest.mark.parametrize(
        "cs",
        [
            frozenset((i, j) for i in range(1, 31) for j in range(1, 31)),
            dense_board(30, 0.8, seed=7),
        ],
        ids=["latin-30", "dense-30"],
    )
    def test_ladder_boards(self, cs):
        assert peel_layers(cs) == list(reference_layers(cs))


class TestFillSymbols:
    def test_three_cell_trace(self):
        cs = frozenset({(1, 1), (1, 2), (2, 1)})
        pls = fill_symbols(cs)
        assert pls.triples == frozenset(
            {Triple(1, 1, 2), Triple(1, 2, 1), Triple(2, 1, 1)}
        )

    def test_full_board_gives_latin_square(self):
        cs = frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})
        pls = fill_symbols(cs)
        assert parameters_of(pls).sym_params == (2, 2)

    def test_diagonal_uses_one_symbol(self):
        cs = frozenset({(1, 1), (2, 2), (3, 3)})
        pls = fill_symbols(cs)
        assert {t.sym for t in pls.triples} == {1}

    @pytest.mark.parametrize(
        "cells",
        [
            pytest.param([], id="empty"),
            pytest.param([(0, 1)], id="row-0"),
            pytest.param([(1, -1)], id="col-minus-1"),
            pytest.param([(True, 1)], id="row-True"),
            pytest.param([(1, True)], id="col-True"),
            pytest.param([(1.5, 1)], id="row-1.5"),
            pytest.param([(1, 1.5)], id="col-1.5"),
            pytest.param([("1", 1)], id="row-str"),
            pytest.param([(1, None)], id="col-None"),
            pytest.param([(1, 1, 1)], id="triple"),
            pytest.param([(1, 1), ("a", 2)], id="mixed-label-types"),
        ],
    )
    def test_rejects_bad_input(self, cells):
        # PreconditionViolated, never a TypeError from sorting the labels.
        with pytest.raises(PreconditionViolated):
            fill_symbols(cells)

    @pytest.mark.parametrize(
        "cells, message",
        [
            (lambda: [5], "a cell must be an iterable of two labels, got int"),
            (lambda: [iter((1, 1, 1))], "a cell must have two labels, got 3"),
            (lambda: [list(range(1, 100_001))], "a cell must have two labels, got 100000"),
            (lambda: [(1, 1, 1)], "a cell must have two labels, got 3"),
            (lambda: [(0, 1)], "row label must be a positive integer, got 0"),
            (lambda: [[1, True]], "col label must be a positive integer, got bool"),
            (lambda: [(1, 1), ("a", 2)], "row label must be a positive integer, got str"),
            (lambda: [(list(range(100_000)), 1)], "row label must be a positive integer, got list"),
            (lambda: [iter((1, object()))], "col label must be a positive integer, got object"),
        ],
        ids=[
            "int", "long-iterator", "long-list", "triple", "row-0", "col-True", "row-str",
            "row-list", "col-object",
        ],
    )
    def test_a_bad_cell_is_named_by_its_type_length_or_label(self, cells, message):
        # Never by the cell's repr: fresh copies of one input read the same.
        refusals = set()
        for _ in range(2):
            with pytest.raises(PreconditionViolated) as refused:
                fill_symbols(cells())
            refusals.add(str(refused.value))
        assert refusals == {message}

    def test_a_cell_is_any_iterable_of_two_labels(self):
        # As validate takes any iterable of three labels as a triple.
        cells = [(1, 1), (1, 2), (2, 1)]
        expected = fill_symbols(cells)
        assert fill_symbols([iter(cell) for cell in cells]) == expected
        assert fill_symbols(map(list, cells)) == expected
        assert fill_symbols([range(1, 3), (label for label in (1, 1)), iter((2, 1))]) == expected
        assert validate([iter((1, 1, 1))]) == fill_symbols([iter((1, 1))])

    def test_any_iterable_gives_the_square_of_its_set(self):
        cells = [(1, 1), (1, 2), (2, 1), (3, 3)]
        expected = fill_symbols(frozenset(cells))
        assert fill_symbols(cell for cell in cells) == expected
        assert fill_symbols(cells + cells[:2]) == expected
        assert fill_symbols([list(cell) for cell in cells]) == expected

    @settings(max_examples=300)
    @given(cell_sets())
    def test_support_and_symbol_count_are_exact(self, cs):
        pls = fill_symbols(cs)
        assert {t[:2] for t in pls.triples} == cs
        assert len({t.sym for t in pls.triples}) == max_line_count(cs)

    @settings(max_examples=300)
    @given(cell_sets(max_rows=8, max_cols=8))
    def test_realized_cells_fill_as_their_build_does(self, cs):
        # fill_symbols regroups raw cells into lines; a build hands the
        # realization's own lines to the same peel.  Both give one square.
        n, m = nonzero_line_counts(cs)
        rows, _ = realize_lines(n, m)
        cells = ((i, j) for i, line in rows.items() for j in line)
        assert fill_symbols(cells) == build_theorem(n, m, max(n + m))


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
        assert {t[:2] for t in out.triples} == {t[:2] for t in pls.triples}

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
        assert {t[:2] for t in out.triples} == {t[:2] for t in pls.triples}
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


def reference_split(pls, s):
    """The plain split: scan every symbol for the donor at each step.

    The donor has the most cells, ties to the smallest label; it gives
    its lowest (row, col) cell to the next fresh label and stays in the
    pool one cell down.
    """
    cells = {}
    for i, j, k in sorted(pls.triples):
        cells.setdefault(k, []).append((i, j))
    for _ in range(s - len(cells)):
        donor = min(cells, key=lambda k: (-len(cells[k]), k))
        cells[max(cells) + 1] = [cells[donor].pop(0)]
    return validate([(i, j, k) for k, line in cells.items() for i, j in line])


class TestReferenceSplit:
    # The split takes donors off a heap and writes each moved cell
    # straight to a triple; it must move the cells the plain rule moves.
    @settings(max_examples=300)
    @given(squares(max_rows=5, max_cols=5, max_symbols=5, max_cells=12))
    def test_small_squares(self, pls):
        for s in range(len({t.sym for t in pls.triples}), pls.volume + 1):
            assert split_symbols(pls, s) == reference_split(pls, s)

    def test_built_latin_square(self):
        # Every symbol ties at the start, and the ties change as it splits.
        pls = build_theorem((6,) * 6, (6,) * 6, 6)
        for s in range(6, 37):
            assert split_symbols(pls, s) == reference_split(pls, s)


class TestBuildTheorem:
    def test_profile_is_sequence_exact(self):
        pls = build_theorem((2, 1), (2, 1), 2)
        profile = parameters_of(pls)
        assert profile.row_params == (2, 1)
        assert profile.col_params == (2, 1)
        assert profile.s == 2

    def test_latin_square_shape(self):
        pls = build_theorem((2, 2), (2, 2), 2)
        assert {t[:2] for t in pls.triples} == frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})

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

    @pytest.mark.parametrize(
        "n, m, pair",
        [((10**9,), (10**9,), "(k = 1, l = 1)"), ((5 * 10**8, 5 * 10**8), (10**9,), "(k = 2, l = 1)")],
    )
    def test_huge_demand_allocates_nothing_proportional(self, n, m, pair):
        # Counts of 10**9 fail dominance: the refusal is the predicate's
        # report, reached without building anything sized by a count.
        tracemalloc.start()
        try:
            with pytest.raises(Infeasible) as exc:
                build_theorem(n, m, 10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (violated,) = exc.value.report.violated()
        assert violated.id == "dominance" and pair in violated.witness
        assert peak < 1 << 20


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

    def test_wide_board_cost_follows_the_volume(self):
        # One row of 20,000 cells: a peel that scanned every line on each
        # of its 20,000 layers took ~40 s of CPU on a shared 2-vCPU host;
        # carrying the tight lines from layer to layer takes ~0.2 s.
        start = time.process_time()
        pls = build_corollary(1, 20_000, 20_000, 20_000)
        elapsed = time.process_time() - start
        profile = parameters_of(pls)
        assert profile.row_params == (20_000,)
        assert profile.col_params == profile.sym_params == (1,) * 20_000
        assert elapsed < 5, f"1 x 20000 build took {elapsed:.1f} s of CPU"


class TestOnePredicatePerBuild:
    @pytest.mark.parametrize(
        "build, args, predicate",
        [
            (build_theorem, ((3, 2, 1), (2, 2, 2), 3), "check_construction"),
            (build_proposition, ((3, 2, 1), 3, 3), "check_row_params"),
            (build_corollary, (30, 30, 12, 100), "check_sizes"),
        ],
    )
    def test_only_the_entry_predicate_runs(self, build, args, predicate, monkeypatch):
        calls = Counter()
        for name in ("check_construction", "check_row_params", "check_sizes"):
            def counted(*a, _name=name, _check=getattr(plskit.builder, name)):
                calls[_name] += 1
                return _check(*a)

            monkeypatch.setattr(plskit.builder, name, counted)
        build(*args)
        assert calls == {predicate: 1}


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

        monkeypatch.setattr(plskit.builder, "realize_lines", unreachable)
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
            assert is_normalized(pls)


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


def square_digest(pls) -> str:
    """sha256 of the sorted triples, one "row col symbol" line each, joined by newlines."""
    text = "\n".join(f"{i} {j} {k}" for i, j, k in pls.sorted_triples())
    return hashlib.sha256(text.encode()).hexdigest()


def dense_profile(side: int, density: float, seed: int):
    """Line counts of dense_board, with s its longest line."""
    n, m = line_counts(dense_board(side, density, seed), side, side)
    return n, m, max(n + m)


def sparse_profile(side: int, density: float, seed: int):
    """Nonzero line counts of a random side x side 0-1 matrix of the given density."""
    rng = random.Random(seed)
    cells = {(i, j) for i in range(1, side + 1) for j in range(1, side + 1) if rng.random() < density}
    return nonzero_line_counts(cells)


def sparse_args(side: int, density: float, seed: int, symbols):
    """build_theorem arguments for sparse_profile, with symbols(n, m) symbols."""
    n, m = sparse_profile(side, density, seed)
    return n, m, symbols(n, m)


class TestGoldenDigests:
    """Squares at ladder size, where the peel grows many augmenting paths.

    The digests of latin-30 and dense-30 were computed with square_digest
    on the build_theorem output of commit 37a2fde, the peel before its
    greedy step, its saturated-vertex memo and its per-line sorting.  The
    two sparse ones were computed at commit b4be73b, the peel that still
    scanned every line for the peak on each layer: their lines reach the
    peak count late, which no line of latin-30 does.  A faster engine
    must reproduce them byte for byte.
    """

    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                ((30,) * 30, (30,) * 30, 30),
                "7fac9716c73ee042a8d5ae115ab5c792015dfdcb3dd6a49cd973bd51a663543c",
            ),
            (
                dense_profile(30, 0.8, seed=7),
                "738bc6e9989a98185491604ff2c19ce2a1a368c7eff4aa85500ee2b62e945946",
            ),
            (
                sparse_args(400, 0.01, seed=21, symbols=lambda n, m: max(n + m)),
                "f422fc6744246870d8ac3566be4d5a7e51a03145cc7d0606dd3bdd289e1aef73",
            ),
            (
                sparse_args(400, 0.01, seed=22, symbols=lambda n, m: sum(n) // 2),
                "9f0a72d0a670a8ad62f24a9979ddf6304d60f36e304729372a37c55a72c9e2c6",
            ),
        ],
        ids=["latin-30", "dense-30", "sparse-400-longest-line", "sparse-400-half-volume"],
    )
    def test_build_theorem_digest_is_pinned(self, args, digest):
        assert square_digest(build_theorem(*args)) == digest


def gappy_split(s: int):
    """split_symbols on a Latin 8 whose symbol k is relabelled 3k + 7."""
    base = build_theorem((8,) * 8, (8,) * 8, 8)
    return split_symbols(validate((i, j, 3 * k + 7) for i, j, k in base.triples), s)


def sparse_theorem(side: int, density: float, seed: int):
    n, m = sparse_profile(side, density, seed)
    return build_theorem(n, m, sum(n) // 2)


def sparse_proposition(side: int, density: float, seed: int):
    n, m = sparse_profile(side, density, seed)
    return build_proposition(n, len(m), 2 * max(n + m))


def sparse_corollary(side: int, density: float, seed: int):
    n, m = sparse_profile(side, density, seed)
    return build_corollary(len(n), len(m), 2 * max(n + m), sum(n))


class TestGoldenSplitDigests:
    """Squares whose symbols are split, shaped like the build-spread benchmark.

    The digests were computed with square_digest at commit 0c70c1f, where
    the fill and the split still handed each other a {(row, col): symbol}
    map; a split that moves cells between per-symbol lists must reproduce
    them byte for byte.
    """

    @pytest.mark.parametrize(
        "build, digest",
        [
            (
                lambda: sparse_theorem(300, 0.012, seed=11),
                "c0bec329a95a5fcf21c6147207c3c88a75552c2fb3d74c8b4a90cacb967462d4",
            ),
            (
                lambda: sparse_proposition(200, 0.015, seed=12),
                "18254cd3221e9b263701e6e1e0c4ab20e4c60f705be3420e615772543e63e109",
            ),
            (
                lambda: sparse_corollary(250, 0.012, seed=13),
                "528c0e352eca913318e92c1257e58e0f99c88a0e43e979f42c5096f32bffea71",
            ),
            (
                lambda: gappy_split(40),
                "3029f1ed531aeae5a57e38424d1a8d4a2414be220d9ff261c9116ef9e5cd85dd",
            ),
        ],
        ids=["theorem-half-volume", "proposition-twice-longest", "corollary-twice-longest",
             "split-gappy-symbols"],
    )
    def test_split_digest_is_pinned(self, build, digest):
        assert square_digest(build()) == digest
