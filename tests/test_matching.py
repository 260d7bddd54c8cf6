"""Saturating matchings and the merge step."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plskit.matching import merge_matchings, saturating_matching

from conftest import adjacency, graphs

COMPLETE_2x2 = frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})


def max_degree_targets(edges):
    """(X1, Y1): all vertices of maximum degree, per side."""
    left = adjacency(edges, "left")
    right = adjacency(edges, "right")
    top = max(len(vs) for vs in (*left.values(), *right.values()))
    x1 = frozenset(u for u, vs in left.items() if len(vs) == top)
    y1 = frozenset(v for v, us in right.items() if len(us) == top)
    return x1, y1


def as_edges(match, side):
    """A saturating_matching result as (left, right) edges."""
    return {(u, v) if side == "left" else (v, u) for u, v in match.items()}


def is_matching(edges):
    lefts = [u for u, _ in edges]
    rights = [v for _, v in edges]
    return len(set(lefts)) == len(lefts) and len(set(rights)) == len(rights)


def reference_matching(adj, targets):
    """The plain matching rule, one depth-first search per target.

    Targets in increasing order; each search takes the entered vertex's
    first free neighbor in adjacency order, else reroutes its matched
    neighbors in increasing order, and rescans every vertex it enters.
    saturating_matching must return the same dict, or fail as this does.
    """
    match, owner = {}, {}
    for root in sorted(set(targets)):
        visited, stack, via = set(), [], []
        u = root
        while True:
            neighbors = adj.get(u, ())
            free = next((v for v in neighbors if v not in owner), None)
            if free is not None:
                for x, y in [(u, free), *zip((f[0] for f in stack), via)]:
                    match[x] = y
                    owner[y] = x
                break
            stack.append([u, neighbors, 0])
            u = None
            while stack:
                frame = stack[-1]
                _, neighbors, i = frame
                while i < len(neighbors) and neighbors[i] in visited:
                    i += 1
                if i < len(neighbors):
                    frame[2] = i + 1
                    visited.add(neighbors[i])
                    via.append(neighbors[i])
                    u = owner[neighbors[i]]
                    break
                stack.pop()
                if via:
                    via.pop()
            if u is None:
                raise AssertionError(f"no augmenting path from target {root}")
    return match


def outcome(function, adj, targets):
    """The result dict in insertion order, or the failure's message."""
    try:
        return list(function(adj, targets).items())
    except AssertionError as exc:
        return str(exc)


def hall_holds(adj, targets):
    """Whether every subset of the targets has at least as many neighbors as members."""
    targets = sorted(set(targets))
    return all(
        len(set().union(*(adj.get(u, ()) for u in subset))) >= len(subset)
        for size in range(1, len(targets) + 1)
        for subset in itertools.combinations(targets, size)
    )


class CountingList(list):
    """A neighbor list that counts the free scans, which iterate it."""

    scans = 0

    def __iter__(self):
        CountingList.scans += 1
        return super().__iter__()


class TestSaturatingMatching:
    def test_complete_2x2_both_targets(self):
        # Pinned scan order: a free neighbor is taken before rerouting,
        # so vertex 2 pairs with column 2 instead of displacing (1, 1).
        m = saturating_matching(adjacency(COMPLETE_2x2, "left"), (1, 2))
        assert m == {1: 1, 2: 2}

    def test_empty_targets_give_empty_matching(self):
        assert saturating_matching(adjacency(COMPLETE_2x2, "left"), ()) == {}

    def test_right_side(self):
        m = saturating_matching(adjacency(COMPLETE_2x2, "right"), (1, 2))
        assert m == {1: 1, 2: 2}

    def test_hall_violation_fails_an_assertion(self):
        # Left 1 and 2 share their one neighbor; the peel never asks for
        # such targets, so only a builder bug gets here.
        adj = adjacency({(1, 1), (2, 1)}, "left")
        with pytest.raises(AssertionError, match="^no augmenting path from target 2$"):
            saturating_matching(adj, (1, 2))

    def test_right_side_failure_fails_an_assertion(self):
        adj = adjacency({(1, 1), (1, 2)}, "right")
        with pytest.raises(AssertionError, match="^no augmenting path from target 2$"):
            saturating_matching(adj, (1, 2))

    def test_augmenting_reroutes_when_needed(self):
        # Vertex 2 only likes column 1, so vertex 1 must move to column 2.
        adj = adjacency({(1, 1), (1, 2), (2, 1)}, "left")
        assert saturating_matching(adj, (1, 2)) == {1: 2, 2: 1}

    def test_out_of_range_target_fails_an_assertion(self):
        # A target without an adjacency entry has no neighbors: a Hall
        # violation on its own.
        with pytest.raises(AssertionError, match="^no augmenting path from target 3$"):
            saturating_matching(adjacency(COMPLETE_2x2, "left"), (3,))

    def test_deep_augmenting_chain_saturates(self):
        # Left u ~ {u, u + 1} and left N ~ {1}: the last target reroutes
        # every earlier match, an augmenting path with N steps.
        size = 3000
        edges = {(u, u) for u in range(1, size)} | {(u, u + 1) for u in range(1, size)}
        edges.add((size, 1))
        m = saturating_matching(adjacency(edges, "left"), range(1, size + 1))
        assert len(m) == size
        assert as_edges(m, "left") <= edges
        assert is_matching(as_edges(m, "left"))

    @given(graphs())
    def test_covers_max_degree_vertices(self, edges):
        # Max degree d, targets of degree exactly d: Hall holds, so the
        # matching exists, has one edge per target, and stays in the graph.
        x1, y1 = max_degree_targets(edges)
        for side, targets in (("left", x1), ("right", y1)):
            m = saturating_matching(adjacency(edges, side), targets)
            assert m.keys() == targets
            assert as_edges(m, side) <= edges
            assert is_matching(as_edges(m, side))

    @settings(max_examples=300)
    @given(graphs(), st.data())
    def test_agrees_with_the_reference_rule(self, edges, data):
        # Arbitrary target lists, repeats and vertices without an
        # adjacency entry included: the same dict in the same order, or
        # both fail at the same target.
        side = data.draw(st.sampled_from(("left", "right")))
        adj = adjacency(edges, side)
        targets = data.draw(st.lists(st.integers(1, max(adj) + 2), max_size=10))
        assert outcome(saturating_matching, adj, targets) == outcome(
            reference_matching, adj, targets
        )

    def test_later_search_skips_vertices_it_found_saturated(self):
        # Left 1..5 with a = 1 ... e = 5.  a, b, c take 4, 1, 2 greedily.
        # d's search finds b's neighbors all owned and reroutes through c
        # to 7.  e's search re-enters d and b, whose neighbors are still
        # all owned, and skips their free scans before a frees 8.
        adj = {1: [4, 8], 2: [1, 2, 4], 3: [2, 7], 4: [1, 2], 5: [1]}
        expected = {1: 8, 2: 4, 3: 7, 4: 2, 5: 1}
        assert saturating_matching(adj, range(1, 6)) == expected
        assert reference_matching(adj, range(1, 6)) == expected
        # The plain rule scans a, b, c; d, b, c; e, d, b, a: ten scans.
        # The memo drops the second scans of d and b.
        CountingList.scans = 0
        counted = {u: CountingList(vs) for u, vs in adj.items()}
        assert saturating_matching(counted, range(1, 6)) == expected
        assert CountingList.scans == 8

    @given(graphs(max_side=5, max_degree=3))
    def test_fails_exactly_when_halls_condition_fails(self, edges):
        # Ask for every left vertex up to the largest one with an edge;
        # either all get covered or some subset of the targets has more
        # members than neighbors, checked over every subset.
        adj = adjacency(edges, "left")
        targets = tuple(range(1, max(adj) + 1))
        try:
            m = saturating_matching(adj, targets)
        except AssertionError:
            assert not hall_holds(adj, targets)
        else:
            assert hall_holds(adj, targets)
            assert m.keys() == set(targets)
            assert is_matching(as_edges(m, "left"))


@st.composite
def matching_pairs(draw, max_side: int = 7):
    """(M, N) meeting the merge's preconditions, otherwise arbitrary.

    M maps left to right and N right to left, each injectively; their
    keys are X1 and Y1.
    """
    left = draw(st.integers(1, max_side))
    right = draw(st.integers(1, max_side))

    def partial_injection(keys, values):
        domain = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(values)))
        image = draw(st.permutations(values))
        return dict(zip(domain, image))

    m = partial_injection(range(1, left + 1), range(1, right + 1))
    n = partial_injection(range(1, right + 1), range(1, left + 1))
    return m, n


@st.composite
def covering_pairs(draw, max_side: int = 7):
    """(M, N) meeting the merge's preconditions, with M covering N's keys Y1."""
    m, _ = draw(matching_pairs(max_side))
    y1 = draw(st.sets(st.sampled_from(sorted(m.values())))) if m else set()
    lefts = draw(st.lists(st.integers(1, max_side), unique=True, min_size=len(y1), max_size=len(y1)))
    return m, dict(zip(sorted(y1), lefts))


class TestMergeMatchings:
    def test_disjoint_union(self):
        assert merge_matchings({1: 1}, {2: 2}) == {1: 1, 2: 2}

    def test_two_edge_path_takes_the_m_side(self):
        # Proof case: path starts at x1 with an M edge whose right end is
        # in Y1, so the M edge alone covers both.
        assert merge_matchings({1: 1}, {1: 2}) == {1: 1}

    def test_equal_matchings_pass_through(self):
        m = {1: 1, 2: 2}
        assert merge_matchings(m, m) == {1: 1, 2: 2}

    def test_rejects_repeated_partner(self):
        # Two targets sharing a partner is no matching; the merge asserts
        # so rather than fail inside the component walk.
        with pytest.raises(AssertionError, match="a partner repeats"):
            merge_matchings({1: 1, 2: 1}, {1: 1})
        with pytest.raises(AssertionError, match="a partner repeats"):
            merge_matchings({1: 1}, {1: 1, 2: 1})

    @pytest.mark.parametrize(
        "m, n, expected",
        [
            # An alternating 4-cycle: either side covers it, M is kept.
            ({1: 1, 2: 2}, {2: 1, 1: 2}, {1: 1, 2: 2}),
            # A path ending at a Y1 vertex that M leaves uncovered takes N.
            ({1: 1}, {2: 1}, {1: 2}),
            # Two paths: the one from uncovered right 4 swaps to N, the
            # one pinned by left 2's M edge keeps M.
            ({1: 1, 2: 2, 3: 3}, {2: 1, 4: 3}, {1: 1, 2: 2, 3: 4}),
        ],
    )
    def test_kept_edges(self, m, n, expected):
        assert merge_matchings(m, n) == expected

    def test_leaves_its_inputs_untouched(self):
        # The walk swaps right 4's path over to N; the result is a new
        # dict and neither input changes.
        m = {1: 1, 2: 2, 3: 3}
        n = {2: 1, 4: 3}
        k = merge_matchings(m, n)
        assert k == {1: 1, 2: 2, 3: 4}
        assert k is not m
        assert m == {1: 1, 2: 2, 3: 3} and n == {2: 1, 4: 3}

    @settings(max_examples=300)
    @given(matching_pairs())
    def test_arbitrary_pair_merges(self, pair):
        m, n = pair
        m_edges = set(m.items())
        n_edges = as_edges(n, "right")
        k = set(merge_matchings(m, n).items())
        assert k <= m_edges | n_edges
        assert m_edges & n_edges <= k
        assert is_matching(k)
        assert m.keys() <= {u for u, _ in k}
        assert n.keys() <= {v for _, v in k}

    @settings(max_examples=300)
    @given(covering_pairs())
    def test_m_covering_y1_is_returned_as_is(self, pair):
        # The peel takes M as the layer without calling the merge in this case.
        m, n = pair
        assert merge_matchings(m, n) == m

    @settings(max_examples=300)
    @given(graphs())
    def test_pipeline_covers_both_target_sets(self, edges):
        x1, y1 = max_degree_targets(edges)
        m = saturating_matching(adjacency(edges, "left"), x1)
        n = saturating_matching(adjacency(edges, "right"), y1)
        k = set(merge_matchings(m, n).items())
        assert k <= as_edges(m, "left") | as_edges(n, "right")
        assert is_matching(k)
        assert x1 <= {u for u, _ in k}
        assert y1 <= {v for _, v in k}
