"""Saturating matchings, symmetric differences, and the merge step."""

import pytest
from hypothesis import given, settings

from plskit import (
    BipartiteGraph,
    CellSet,
    Matching,
    NoSaturation,
    PreconditionViolated,
    merge_matchings,
    occupancy_graph,
    saturating_matching,
    symmetric_difference_components,
)

from conftest import graphs

COMPLETE_2x2 = BipartiteGraph(2, 2, frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}))


def max_degree_targets(graph):
    """(X1, Y1): all vertices of maximum degree, per side."""
    left_deg = {u: graph.degree("left", u) for u in range(1, graph.left_size + 1)}
    right_deg = {v: graph.degree("right", v) for v in range(1, graph.right_size + 1)}
    top = max(max(left_deg.values()), max(right_deg.values()))
    x1 = frozenset(u for u, d in left_deg.items() if d == top)
    y1 = frozenset(v for v, d in right_deg.items() if d == top)
    return x1, y1


class TestBipartiteGraph:
    def test_adjacency_is_sorted(self):
        g = BipartiteGraph(2, 3, frozenset({(1, 3), (1, 1), (2, 2)}))
        assert g.left_adjacency() == {1: (1, 3), 2: (2,)}
        assert g.right_adjacency() == {1: (1,), 2: (2,), 3: (1,)}

    def test_degree(self):
        g = BipartiteGraph(2, 2, frozenset({(1, 1), (2, 1)}))
        assert g.degree("left", 1) == 1
        assert g.degree("right", 1) == 2
        assert g.degree("right", 2) == 0

    def test_flipped_swaps_sides(self):
        g = BipartiteGraph(1, 2, frozenset({(1, 2)}))
        assert g.flipped() == BipartiteGraph(2, 1, frozenset({(2, 1)}))

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError):
            BipartiteGraph(1, 1, frozenset({(1, 2)}))

    def test_isolated_vertices_are_fine(self):
        g = BipartiteGraph(3, 3, frozenset({(1, 1)}))
        assert g.degree("left", 3) == 0


class TestMatching:
    def test_rejects_shared_endpoint(self):
        with pytest.raises(ValueError):
            Matching(frozenset({(1, 1), (1, 2)}))
        with pytest.raises(ValueError):
            Matching(frozenset({(1, 1), (2, 1)}))

    def test_vertex_views(self):
        m = Matching(frozenset({(1, 2), (3, 1)}))
        assert m.left_vertices() == frozenset({1, 3})
        assert m.right_vertices() == frozenset({1, 2})


class TestOccupancyGraph:
    def test_path_shape(self):
        cs = CellSet(frozenset({(1, 1), (1, 2), (2, 1)}), rows=2, cols=2)
        g = occupancy_graph(cs)
        assert g.edges == frozenset({(1, 1), (1, 2), (2, 1)})
        assert g.degree("left", 1) == 2
        assert g.degree("right", 2) == 1

    def test_line_counts_become_degrees(self):
        cs = CellSet(frozenset({(1, 1), (2, 1), (3, 1)}), rows=3, cols=2)
        g = occupancy_graph(cs)
        assert g.degree("right", 1) == 3
        assert g.degree("right", 2) == 0


class TestSaturatingMatching:
    def test_complete_2x2_both_targets(self):
        # Pinned scan order: a free neighbor is taken before rerouting,
        # so vertex 2 pairs with column 2 instead of displacing (1, 1).
        m = saturating_matching(COMPLETE_2x2, "left", (1, 2))
        assert m.edges == frozenset({(1, 1), (2, 2)})

    def test_empty_targets_give_empty_matching(self):
        m = saturating_matching(COMPLETE_2x2, "left", ())
        assert m.edges == frozenset()

    def test_right_side(self):
        m = saturating_matching(COMPLETE_2x2, "right", (1, 2))
        assert m.edges == frozenset({(1, 1), (2, 2)})

    def test_hall_violation_witness(self):
        g = BipartiteGraph(2, 2, frozenset({(1, 1), (2, 1)}))
        with pytest.raises(NoSaturation) as exc:
            saturating_matching(g, "left", (1, 2))
        assert exc.value.side == "left"
        assert exc.value.witness == frozenset({1, 2})

    def test_right_side_failure_reports_right(self):
        g = BipartiteGraph(2, 2, frozenset({(1, 1), (1, 2)}))
        with pytest.raises(NoSaturation) as exc:
            saturating_matching(g, "right", (1, 2))
        assert exc.value.side == "right"
        assert exc.value.witness == frozenset({1, 2})

    def test_augmenting_reroutes_when_needed(self):
        # Vertex 2 only likes column 1, so vertex 1 must move to column 2.
        g = BipartiteGraph(2, 2, frozenset({(1, 1), (1, 2), (2, 1)}))
        m = saturating_matching(g, "left", (1, 2))
        assert m.edges == frozenset({(1, 2), (2, 1)})

    def test_rejects_bad_side(self):
        with pytest.raises(PreconditionViolated):
            saturating_matching(COMPLETE_2x2, "top", (1,))

    def test_rejects_out_of_range_target(self):
        with pytest.raises(PreconditionViolated):
            saturating_matching(COMPLETE_2x2, "left", (3,))

    def test_deep_augmenting_chain_saturates(self):
        # Left u ~ {u, u + 1} and left N ~ {1}: the last target reroutes
        # every earlier match, an augmenting path with N steps.
        size = 3000
        edges = {(u, u) for u in range(1, size)} | {(u, u + 1) for u in range(1, size)}
        graph = BipartiteGraph(size, size, frozenset(edges | {(size, 1)}))
        m = saturating_matching(graph, "left", range(1, size + 1))
        assert len(m.edges) == size
        assert m.edges <= graph.edges

    @given(graphs())
    def test_covers_max_degree_vertices(self, graph):
        # Max degree d, targets of degree exactly d: Hall holds, so the
        # matching exists, has one edge per target, and stays in the graph.
        x1, y1 = max_degree_targets(graph)
        for side, targets in (("left", x1), ("right", y1)):
            m = saturating_matching(graph, side, targets)
            assert len(m.edges) == len(targets)
            assert m.edges <= graph.edges
            covered = m.left_vertices() if side == "left" else m.right_vertices()
            assert targets <= covered

    @given(graphs(max_side=5, max_degree=3))
    def test_failure_witness_beats_its_neighborhood(self, graph):
        # Ask for every left vertex; either all get covered or the witness
        # set genuinely violates Hall's condition.
        targets = tuple(range(1, graph.left_size + 1))
        adj = graph.left_adjacency()
        try:
            m = saturating_matching(graph, "left", targets)
        except NoSaturation as exc:
            neighborhood = set()
            for u in exc.witness:
                neighborhood.update(adj.get(u, ()))
            assert len(exc.witness) > len(neighborhood)
        else:
            assert m.left_vertices() == set(targets)


class TestSymmetricDifference:
    def test_equal_matchings_give_nothing(self):
        m = Matching(frozenset({(1, 1)}))
        assert symmetric_difference_components(m, m) == ()

    def test_two_edge_path(self):
        m = Matching(frozenset({(1, 1)}))
        n = Matching(frozenset({(2, 1)}))
        (comp,) = symmetric_difference_components(m, n)
        assert comp.kind == "path"
        assert comp.vertices == (("left", 1), ("right", 1), ("left", 2))
        assert comp.edges == ((1, 1), (2, 1))
        assert comp.tags == ("M", "N")

    def test_four_cycle(self):
        m = Matching(frozenset({(1, 1), (2, 2)}))
        n = Matching(frozenset({(1, 2), (2, 1)}))
        (comp,) = symmetric_difference_components(m, n)
        assert comp.kind == "cycle"
        assert len(comp.edges) == 4
        assert comp.vertices[0] == ("left", 1)
        assert comp.tags == ("M", "N", "M", "N")
        assert comp.edges_tagged("M") == ((1, 1), (2, 2))

    def test_components_partition_the_difference(self):
        m = Matching(frozenset({(1, 1), (2, 2), (3, 3)}))
        n = Matching(frozenset({(1, 2), (3, 4)}))
        comps = symmetric_difference_components(m, n)
        seen = [e for comp in comps for e in comp.edges]
        assert sorted(seen) == sorted((m.edges | n.edges) - (m.edges & n.edges))
        assert len(seen) == len(set(seen))


class TestMergeMatchings:
    def test_disjoint_union(self):
        g = BipartiteGraph(2, 2, frozenset({(1, 1), (2, 2)}))
        m = Matching(frozenset({(1, 1)}))
        n = Matching(frozenset({(2, 2)}))
        k = merge_matchings(g, m, n, x1=(1,), y1=(2,))
        assert k.edges == frozenset({(1, 1), (2, 2)})

    def test_two_edge_path_takes_the_m_side(self):
        # Proof case: path starts at x1 with an M edge whose right end is
        # in Y1, so the M edge alone covers both.
        g = BipartiteGraph(2, 1, frozenset({(1, 1), (2, 1)}))
        m = Matching(frozenset({(1, 1)}))
        n = Matching(frozenset({(2, 1)}))
        k = merge_matchings(g, m, n, x1=(1,), y1=(1,))
        assert k.edges == frozenset({(1, 1)})

    def test_equal_matchings_pass_through(self):
        g = BipartiteGraph(2, 2, frozenset({(1, 1), (2, 2)}))
        m = Matching(frozenset({(1, 1), (2, 2)}))
        k = merge_matchings(g, m, m, x1=(1, 2), y1=(1, 2))
        assert k.edges == m.edges

    def test_rejects_uncovered_x1(self):
        g = COMPLETE_2x2
        m = Matching(frozenset({(1, 1)}))
        n = Matching(frozenset({(2, 2)}))
        with pytest.raises(PreconditionViolated):
            merge_matchings(g, m, n, x1=(2,), y1=(2,))

    def test_rejects_oversized_m(self):
        g = COMPLETE_2x2
        m = Matching(frozenset({(1, 1), (2, 2)}))
        n = Matching(frozenset({(2, 2)}))
        with pytest.raises(PreconditionViolated):
            merge_matchings(g, m, n, x1=(1,), y1=(2,))

    def test_rejects_edges_outside_graph(self):
        g = BipartiteGraph(2, 2, frozenset({(1, 1)}))
        m = Matching(frozenset({(2, 2)}))
        with pytest.raises(PreconditionViolated):
            merge_matchings(g, m, Matching(frozenset()), x1=(2,), y1=())

    @settings(max_examples=300)
    @given(graphs())
    def test_pipeline_covers_both_target_sets(self, graph):
        x1, y1 = max_degree_targets(graph)
        m = saturating_matching(graph, "left", x1)
        n = saturating_matching(graph, "right", y1)
        k = merge_matchings(graph, m, n, x1, y1)
        assert k.edges <= m.edges | n.edges
        assert x1 <= k.left_vertices()
        assert y1 <= k.right_vertices()
