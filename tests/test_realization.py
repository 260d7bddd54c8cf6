"""Degree matrix realization (realize_lines) and row distribution."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plskit import PreconditionViolated
from plskit.realization import distribute_rows, realize_lines

from conftest import cell_sets, dominance_double_loop, line_counts, nonzero_line_counts


def reference_realization(n, m):
    """The greedy with every column re-sorted for every row, O(r*c log c).

    Returns the cells, or None when some row finds too few columns with
    demand left.
    """
    remaining = list(m)
    cells = set()
    for i in sorted(range(len(n)), key=lambda i: (-n[i], i)):
        columns = sorted(range(len(m)), key=lambda j: (-remaining[j], j))[: n[i]]
        if len(columns) < n[i] or not remaining[columns[-1]]:
            return None
        for j in columns:
            remaining[j] -= 1
            cells.add((i + 1, j + 1))
    return frozenset(cells)


def reference_lines(n, m):
    """reference_realization's cells as realize_lines' (rows, cols) maps."""
    rows = {i: [] for i in range(1, len(n) + 1)}
    cols = {j: [] for j in range(1, len(m) + 1)}
    for i, j in sorted(reference_realization(n, m)):
        rows[i].append(j)
        cols[j].append(i)
    return rows, cols


def realized_cells(n, m):
    """realize_lines' row map read as its set of (row, col) cells."""
    rows, _ = realize_lines(n, m)
    return frozenset((i, j) for i, line in rows.items() for j in line)


def random_feasible_pair(rng, max_side=6):
    """Line sums of a random 0-1 matrix; feasible by construction."""
    while True:
        rows = rng.randint(1, max_side)
        cols = rng.randint(1, max_side)
        matrix = [[rng.random() < 0.5 for _ in range(cols)] for _ in range(rows)]
        n = tuple(sum(row) for row in matrix if any(row))
        m = tuple(
            sum(matrix[i][j] for i in range(rows))
            for j in range(cols)
            if any(matrix[i][j] for i in range(rows))
        )
        if n and m:
            return n, m


class TestRealizeLines:
    def test_forced_three_cells(self):
        assert realize_lines((2, 1), (2, 1)) == ({1: [1, 2], 2: [1]}, {1: [1, 2], 2: [1]})

    def test_greedy_tie_break_prefers_low_index(self):
        # Both rows and both columns tie, so the diagonal comes out.
        assert realized_cells((1, 1), (1, 1)) == frozenset({(1, 1), (2, 2)})

    def test_counts_that_do_not_realize_fail_an_assertion(self):
        # Only a builder bug could pass such counts, so they are not a
        # user error: the CLI reports the assertion as an internal error.
        with pytest.raises(AssertionError, match="row total 3 differs from column total 2"):
            realize_lines((2, 1), (1, 1))
        with pytest.raises(AssertionError, match="too few columns"):
            realize_lines((3, 3, 3, 1), (4, 4, 1, 1))

    def test_random_feasible_pairs_realize_exactly(self):
        rng = random.Random(7)
        for _ in range(200):
            n, m = random_feasible_pair(rng)
            out = realized_cells(n, m)
            assert line_counts(out, len(n), len(m)) == (n, m)
            assert out == reference_realization(n, m), (n, m)
            assert realized_cells(n, m) == out

    def test_greedy_fails_exactly_when_dominance_fails(self):
        # Every equal-sum pair with length <= 5 and entries <= 3.  Where
        # dominance holds the greedy meets the counts (Gale-Ryser
        # sufficiency); where it fails the greedy runs out of columns.
        by_total = {}
        for length in range(1, 6):
            for seq in itertools.product(range(1, 4), repeat=length):
                by_total.setdefault(sum(seq), []).append(seq)
        failures = 0
        for group in by_total.values():
            for n, m in itertools.product(group, repeat=2):
                holds, _ = dominance_double_loop(n, m)
                if holds:
                    out = realized_cells(n, m)
                    assert line_counts(out, len(n), len(m)) == (n, m)
                    assert out == reference_realization(n, m), (n, m)
                else:
                    assert reference_realization(n, m) is None, (n, m)
                    with pytest.raises(AssertionError, match="too few columns"):
                        realize_lines(n, m)
                    failures += 1
        assert failures > 0

    def test_matches_reference_on_sparse_profiles(self):
        # build_theorem's sparse shape (rows of 1-6 cells scattered over as
        # many columns) and build_proposition's flat distribute_rows columns.
        rng = random.Random(550)
        for _ in range(3):
            n = tuple(rng.randint(1, 6) for _ in range(550))
            counts = [0] * 550
            for k in n:
                for j in rng.sample(range(550), k):
                    counts[j] += 1
            for m in (tuple(k for k in counts if k), distribute_rows(sum(n), 550, 6)):
                assert realized_cells(n, m) == reference_realization(n, m)

    @settings(max_examples=300)
    @given(cell_sets(max_rows=8, max_cols=8))
    def test_lines_are_sorted_and_hold_exactly_the_cells(self, cs):
        n, m = nonzero_line_counts(cs)
        rows, cols = realize_lines(n, m)
        assert list(rows) == list(range(1, len(n) + 1))
        assert list(cols) == list(range(1, len(m) + 1))
        for line in (*rows.values(), *cols.values()):
            assert all(a < b for a, b in zip(line, line[1:])), line
        cells = {(i, j) for i, line in rows.items() for j in line}
        assert sum(map(len, rows.values())) == sum(map(len, cols.values())) == sum(n)
        assert {(i, j) for j, line in cols.items() for i in line} == cells
        assert line_counts(cells, len(n), len(m)) == (n, m)

    @settings(max_examples=300)
    @given(cell_sets(max_rows=10, max_cols=10))
    def test_lines_match_the_reference(self, cs):
        n, m = nonzero_line_counts(cs)
        assert realize_lines(n, m) == reference_lines(n, m)

    @pytest.mark.parametrize(
        "n, m",
        [
            # The first row takes a whole level that lands where no level was.
            ((2, 2, 2, 1), (3, 3, 1)),
            # The first row takes part of a level and lands on the next one.
            ((1,) * 6, (2, 2, 1, 1)),
            # The first row takes part of a level and opens the one below
            # it, from which the second row takes after emptying the first.
            ((2,) * 5, (3, 3, 3, 1)),
            # The first row takes from two levels whose columns interleave.
            ((2, 1, 1), (1, 2, 1)),
            # Two-level rows, partial takes and a last row that empties the board.
            ((3, 2, 2, 1, 1, 1), (1, 3, 2, 1, 2, 1)),
        ],
    )
    def test_level_changes_match_the_reference(self, n, m):
        assert realize_lines(n, m) == reference_lines(n, m)


class TestDistributeRows:
    def test_balanced_split(self):
        assert distribute_rows(5, 3, 2) == (2, 2, 1)

    def test_all_ones(self):
        assert distribute_rows(3, 3, 4) == (1, 1, 1)

    def test_forced_full(self):
        assert distribute_rows(6, 3, 2) == (2, 2, 2)

    def test_out_of_range_volume(self):
        with pytest.raises(PreconditionViolated):
            distribute_rows(7, 3, 2)
        with pytest.raises(PreconditionViolated):
            distribute_rows(2, 3, 2)
        with pytest.raises(PreconditionViolated):
            distribute_rows(1, True, 1)
        with pytest.raises(PreconditionViolated):
            distribute_rows(2.5, 2, 2)
        with pytest.raises(PreconditionViolated):
            distribute_rows(True, 1, 1)

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8))
    def test_split_properties(self, v, r, cap):
        if not (r <= v <= r * cap):
            with pytest.raises(PreconditionViolated):
                distribute_rows(v, r, cap)
            return
        out = distribute_rows(v, r, cap)
        assert len(out) == r
        assert sum(out) == v
        assert max(out) - min(out) <= 1
        assert all(1 <= k <= cap for k in out)
        assert tuple(sorted(out, reverse=True)) == out
