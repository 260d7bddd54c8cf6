"""Shared hypothesis strategies, reference scans and ordered sweep ranges for the test suite."""

import itertools

from hypothesis import strategies as st

from plskit import PartialLatinSquare, validate


@st.composite
def squares(draw, max_rows: int = 4, max_cols: int = 4, max_symbols: int = 4,
            max_cells: int = 6) -> PartialLatinSquare:
    """A random valid partial Latin square, built by greedy insertion."""
    cube = [
        (i, j, k)
        for i in range(1, max_rows + 1)
        for j in range(1, max_cols + 1)
        for k in range(1, max_symbols + 1)
    ]
    picks = draw(st.lists(st.sampled_from(cube), min_size=1, max_size=3 * max_cells))
    chosen: list[tuple[int, int, int]] = []
    occupied: set[tuple[int, int]] = set()
    row_sym: set[tuple[int, int]] = set()
    col_sym: set[tuple[int, int]] = set()
    for i, j, k in picks:
        if len(chosen) == max_cells:
            break
        if (i, j) in occupied or (i, k) in row_sym or (j, k) in col_sym:
            continue
        chosen.append((i, j, k))
        occupied.add((i, j))
        row_sym.add((i, k))
        col_sym.add((j, k))
    # The first pick never clashes with anything, so chosen is nonempty.
    return validate(chosen)


def is_normalized(pls: PartialLatinSquare) -> bool:
    """Whether the occupied rows, columns and symbols are exactly 1..r, 1..c and 1..s."""
    return all(set(labels) == set(range(1, len(set(labels)) + 1)) for labels in zip(*pls.triples))


@st.composite
def cell_sets(draw, max_rows: int = 6, max_cols: int = 6) -> frozenset[tuple[int, int]]:
    """A random nonempty frozenset of (row, col) cells on a small board."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    cells = draw(
        st.sets(
            st.tuples(st.integers(1, rows), st.integers(1, cols)),
            min_size=1,
            max_size=rows * cols,
        )
    )
    return frozenset(cells)


def line_counts(cells, rows: int, cols: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cells per row 1..rows and per column 1..cols, in index order, zeros included.

    A cell off that board fails the assertion, so counts that match also
    place every cell on the board.
    """
    row_counts, col_counts = [0] * rows, [0] * cols
    for i, j in cells:
        assert 1 <= i <= rows and 1 <= j <= cols, f"cell {(i, j)} off the {rows} x {cols} board"
        row_counts[i - 1] += 1
        col_counts[j - 1] += 1
    return tuple(row_counts), tuple(col_counts)


def nonzero_line_counts(cells) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The nonzero row and column counts of a nonempty cell set, in index order.

    They are the line sums of a 0-1 matrix, so realize_lines and
    build_theorem accept them.
    """
    n, m = line_counts(cells, max(i for i, _ in cells), max(j for _, j in cells))
    return tuple(k for k in n if k), tuple(k for k in m if k)


@st.composite
def graphs(draw, max_side: int = 6, max_degree: int = 4) -> frozenset[tuple[int, int]]:
    """The (left, right) edges of a bipartite graph with max degree capped.

    There is at least one edge; vertices are numbered from 1 per side.
    """
    left = draw(st.integers(1, max_side))
    right = draw(st.integers(1, max_side))
    pool = [(u, v) for u in range(1, left + 1) for v in range(1, right + 1)]
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3 * max_side))
    edges: set[tuple[int, int]] = set()
    left_deg = [0] * (left + 1)
    right_deg = [0] * (right + 1)
    for u, v in picks:
        if (u, v) in edges or left_deg[u] == max_degree or right_deg[v] == max_degree:
            continue
        edges.add((u, v))
        left_deg[u] += 1
        right_deg[v] += 1
    return frozenset(edges)


def adjacency(edges, side: str) -> dict[int, list[int]]:
    """Neighbor lists, in increasing order, of the vertices on ``side``."""
    pairs = edges if side == "left" else [(v, u) for u, v in edges]
    adj: dict[int, list[int]] = {}
    for u, v in sorted(pairs):
        adj.setdefault(u, []).append(v)
    return adj


def dominance_brute_force(n, m) -> bool:
    """The full dominance condition: every k rows and l columns fit v + k * l cells."""
    v = sum(n)
    return all(
        sum(rows) + sum(cols) <= v + k * l
        for k in range(len(n) + 1)
        for rows in itertools.combinations(n, k)
        for l in range(len(m) + 1)
        for cols in itertools.combinations(m, l)
    )


def random_composition(rng, total: int, max_parts: int) -> tuple[int, ...]:
    """``total`` cut into 1..max_parts positive parts at distinct random points, in order."""
    parts = rng.randint(1, min(max_parts, total))
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0] + cuts + [total]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def dominance_double_loop(n, m):
    """The O(r * c) scan over every prefix pair; first strictly worst pair wins."""
    v = sum(n)
    n_desc = sorted(n, reverse=True)
    m_desc = sorted(m, reverse=True)
    worst_excess, worst_pair = 0, None
    for k in range(len(n) + 1):
        for l in range(len(m) + 1):
            excess = sum(n_desc[:k]) + sum(m_desc[:l]) - v - k * l
            if excess > worst_excess:
                worst_excess, worst_pair = excess, (k, l)
    return (worst_pair is None, worst_pair)


# Every ordered prescription of a sweep range.  The sweeps themselves visit
# one canonical prescription per class; tests that need each ordered case
# (the builders' coverage, the symmetry evidence) walk these instead.


def _vectors(max_len: int, max_entry: int):
    for length in range(1, max_len + 1):
        yield from itertools.product(range(1, max_entry + 1), repeat=length)


def ordered_theorem_tuples(max_side: int = 3, max_entry: int = 3, max_cells: int = 9):
    """All (n, m, s) with equal totals at most max_cells and s in range."""
    by_sum: dict[int, list[tuple[int, ...]]] = {}
    for vec in _vectors(max_side, max_entry):
        if sum(vec) <= max_cells:
            by_sum.setdefault(sum(vec), []).append(vec)
    for total in sorted(by_sum):
        for n, m in itertools.product(by_sum[total], repeat=2):
            for s in range(max(max(n), max(m)), total + 1):
                yield n, m, s


def ordered_row_params_tuples(max_side: int = 3, max_entry: int = 3, max_symbols: int = 3):
    """All (n, c, s) with len(n) <= max_side, entries and c, s in range."""
    for n in _vectors(max_side, max_entry):
        for c in range(1, max_side + 1):
            for s in range(1, max_symbols + 1):
                yield n, c, s


def ordered_sizes_tuples(max_side: int = 3, max_cells: int = 9):
    """All (r, c, s, v) with sides at most max_side and v at most max_cells."""
    for r, c, s in itertools.product(range(1, max_side + 1), repeat=3):
        for v in range(1, max_cells + 1):
            yield r, c, s, v
