"""Bipartite matchings that cover prescribed vertex sets.

The key fact used by the symbol filler: in a bipartite graph with maximum
degree at most n, there is a matching covering every vertex of degree
exactly n.  The constructive route implemented here builds one matching M
saturating the left-side degree-n vertices X1, another matching N
saturating the right-side degree-n vertices Y1, and merges them into a
single matching covering X1 and Y1 by walking the components of the
symmetric difference M xor N (Mendelsohn and Dulmage, 1958).

Two primitives on plain ints and dicts do the work: ``_saturate`` grows
augmenting paths with an explicit stack, so path length is bounded by
memory rather than by the interpreter's recursion limit, and ``_merge``
walks M xor N on dict matchings and (side, index) vertices.  Either side
is saturated from that side's own adjacency lists, never from a flipped
copy of the graph.  The builder's peeling engine calls the primitives
directly; the public functions below are thin wrappers that check their
arguments and convert to and from the frozen graph and matching types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Literal, Mapping, Sequence

from .core import CellSet
from .errors import NoSaturation, PreconditionViolated

Edge = tuple[int, int]
Vertex = tuple[str, int]  # ("left" | "right", index), sides ordered left < right

LEFT = "left"
RIGHT = "right"
_SIDE_RANK = {LEFT: 0, RIGHT: 1}


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph on left vertices 1..left_size, right 1..right_size.

    Isolated vertices are permitted; they arise naturally as empty board
    lines.  Edges are (left, right) pairs.
    """

    left_size: int
    right_size: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        if self.left_size < 1 or self.right_size < 1:
            raise ValueError("vertex class sizes must be positive")
        for left, right in self.edges:
            if not (1 <= left <= self.left_size and 1 <= right <= self.right_size):
                raise ValueError(f"edge ({left}, {right}) out of range")

    def left_adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {}
        for left, right in self.edges:
            adj.setdefault(left, []).append(right)
        return {u: tuple(sorted(vs)) for u, vs in adj.items()}

    def right_adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {}
        for left, right in self.edges:
            adj.setdefault(right, []).append(left)
        return {v: tuple(sorted(us)) for v, us in adj.items()}

    def degree(self, side: str, index: int) -> int:
        pos = 0 if side == LEFT else 1
        return sum(1 for e in self.edges if e[pos] == index)

    def flipped(self) -> "BipartiteGraph":
        return BipartiteGraph(
            self.right_size, self.left_size, frozenset((r, l) for l, r in self.edges)
        )


@dataclass(frozen=True)
class Matching:
    """A set of edges no two of which share an endpoint."""

    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        lefts = [l for l, _ in self.edges]
        rights = [r for _, r in self.edges]
        if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
            raise ValueError("edges share an endpoint")

    def left_vertices(self) -> frozenset[int]:
        return frozenset(l for l, _ in self.edges)

    def right_vertices(self) -> frozenset[int]:
        return frozenset(r for _, r in self.edges)


def occupancy_graph(cell_set: CellSet) -> BipartiteGraph:
    """Rows on the left, columns on the right, one edge per occupied cell."""
    return BipartiteGraph(cell_set.rows, cell_set.cols, cell_set.cells)


def _augment(
    root: int,
    adj: Mapping[int, Sequence[int]],
    match: dict[int, int],
    owner: dict[int, int],
    visited: set[int],
) -> bool:
    # Depth-first search for an augmenting path from ``root``.  On entering
    # a vertex, a free neighbor is taken first; failing that, matched
    # neighbors are rerouted in increasing index order.  ``stack`` holds
    # [vertex, neighbors, next neighbor index] for each vertex on the
    # current path and ``via[k]`` the neighbor leading from stack[k] to
    # stack[k + 1].  The matching changes only once a path is found, so
    # every neighbor the free scan passes over has an owner to reroute.
    stack: list[list] = []
    via: list[int] = []
    u = root
    while True:
        neighbors = adj.get(u, ())
        for v in neighbors:
            if v not in owner:
                match[u] = v
                owner[v] = u
                for frame, w in zip(stack, via):
                    match[frame[0]] = w
                    owner[w] = frame[0]
                return True
        stack.append([u, neighbors, 0])
        while True:
            frame = stack[-1]
            _, neighbors, i = frame
            while i < len(neighbors) and neighbors[i] in visited:
                i += 1
            if i < len(neighbors):
                v = neighbors[i]
                frame[2] = i + 1
                visited.add(v)
                via.append(v)
                u = owner[v]
                break
            stack.pop()
            if not stack:
                return False
            via.pop()


def _saturate(
    adj: Mapping[int, Sequence[int]], targets: Iterable[int], side: str
) -> dict[int, int]:
    """Match every target, taken in the given order, to one neighbor.

    ``adj`` maps each target-side vertex to its neighbors in increasing
    order.  Returns target -> neighbor.  Raises NoSaturation on ``side``
    when some target cannot be reached, with the target-side vertices of
    the failed search as a Hall witness.
    """
    match: dict[int, int] = {}
    owner: dict[int, int] = {}
    for u in targets:
        visited: set[int] = set()
        if not _augment(u, adj, match, owner, visited):
            raise NoSaturation(side=side, witness=frozenset({u} | {owner[v] for v in visited}))
    return match


def saturating_matching(
    graph: BipartiteGraph, side: Literal["left", "right"], targets: Iterable[int]
) -> Matching:
    """Build a matching with exactly one edge per target vertex.

    Targets live on ``side``.  Augmenting paths are grown from each target
    in increasing index order.  If some target cannot be reached, Hall's
    condition fails and NoSaturation reports a target-side witness set
    with more members than neighbors.
    """
    if side not in (LEFT, RIGHT):
        raise PreconditionViolated(f"side must be 'left' or 'right', got {side!r}")
    size = graph.left_size if side == LEFT else graph.right_size
    target_list = sorted(set(targets))
    for u in target_list:
        if not (1 <= u <= size):
            raise PreconditionViolated(f"target {u} is not a {side} vertex of the graph")

    if side == LEFT:
        match = _saturate(graph.left_adjacency(), target_list, LEFT)
        return Matching(frozenset(match.items()))
    match = _saturate(graph.right_adjacency(), target_list, RIGHT)
    return Matching(frozenset((l, r) for r, l in match.items()))


@dataclass(frozen=True)
class AlternatingComponent:
    """One maximal path or cycle of a symmetric difference M xor N.

    ``vertices`` lists the traversal order; ``edges[i]`` joins
    ``vertices[i]`` to ``vertices[i + 1]`` (indices mod length for a
    cycle) and carries ``tags[i]``, either "M" or "N".  Edges stay in
    (left, right) form regardless of traversal direction.
    """

    kind: Literal["path", "cycle"]
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    tags: tuple[str, ...]

    def edges_tagged(self, tag: str) -> tuple[Edge, ...]:
        return tuple(e for e, t in zip(self.edges, self.tags) if t == tag)


def _vertex_key(vertex: Vertex) -> tuple[int, int]:
    return (_SIDE_RANK[vertex[0]], vertex[1])


Component = tuple[str, list[Vertex], list[Edge], list[str]]


def _components(m: Mapping[int, int], n: Mapping[int, int]) -> list[Component]:
    """The maximal paths and cycles of M xor N as (kind, vertices, edges, tags).

    ``m`` maps left to right vertices and ``n`` right to left ones.  A
    path is walked from its endpoint with the smaller (side, index) key,
    left before right; a cycle from its smallest vertex, M edge first.
    Paths come first, each group in order of its starting vertex.
    """
    m_right = {r: l for l, r in m.items()}
    n_left = {l: r for r, l in n.items()}
    # (M partner, N partner) of each vertex of the difference, in key
    # order.  The M and N edges at a vertex differ exactly when neither
    # is shared, and a missing edge reads None.
    partners: dict[Vertex, tuple[int | None, int | None]] = {}
    for u in sorted(m.keys() | n_left.keys()):
        pair = (m.get(u), n_left.get(u))
        if pair[0] != pair[1]:
            partners[(LEFT, u)] = pair
    for v in sorted(m_right.keys() | n.keys()):
        pair = (m_right.get(v), n.get(v))
        if pair[0] != pair[1]:
            partners[(RIGHT, v)] = pair

    used: set[Vertex] = set()

    def walk(start: Vertex, tag: str) -> Component:
        vertices, edges, tags = [start], [], []
        used.add(start)
        current = start
        while True:
            partner = partners[current][0 if tag == "M" else 1]
            if partner is None:
                return ("path", vertices, edges, tags)
            if current[0] == LEFT:
                other = (RIGHT, partner)
                edges.append((current[1], partner))
            else:
                other = (LEFT, partner)
                edges.append((partner, current[1]))
            tags.append(tag)
            if other == start:
                return ("cycle", vertices, edges, tags)
            vertices.append(other)
            used.add(other)
            current = other
            tag = "N" if tag == "M" else "M"

    components = []
    for vertex, (m_partner, n_partner) in partners.items():
        if vertex not in used and (m_partner is None or n_partner is None):
            components.append(walk(vertex, "N" if m_partner is None else "M"))
    for vertex in partners:
        # Every vertex of the difference left unwalked lies on a cycle.
        if vertex not in used:
            components.append(walk(vertex, "M"))
    return components


def symmetric_difference_components(
    m: Matching, n: Matching
) -> tuple[AlternatingComponent, ...]:
    """Split M xor N into its maximal alternating paths and cycles.

    Every vertex of the difference has degree at most two (at most one
    edge from each matching), so components are paths or even cycles.  A
    path is traversed from its endpoint with the smaller (side, index)
    key, left before right; a cycle starts at its smallest vertex and
    follows its M edge first.  Components are reported sorted by their
    starting vertex.
    """
    components = [
        AlternatingComponent(kind, tuple(vertices), tuple(edges), tuple(tags))
        for kind, vertices, edges, tags in _components(
            dict(m.edges), {r: l for l, r in n.edges}
        )
    ]
    return tuple(sorted(components, key=lambda comp: _vertex_key(comp.vertices[0])))


def _require(condition: bool, detail: str) -> None:
    if not condition:
        raise PreconditionViolated(f"matching merge invariant failed: {detail}")


def _path_tag(
    verts: Sequence[Vertex], tags: Sequence[str], x1: AbstractSet[int], y1: AbstractSet[int]
) -> str:
    # Case analysis for one maximal path; returns the tag whose edges it
    # keeps.  Preconditions guarantee that every M edge has its left
    # endpoint in X1 and every N edge has its right endpoint in Y1; each
    # derived membership below is checked rather than assumed.
    v1, v2, vm = verts[0], verts[1], verts[-1]

    def in_x1(v: Vertex) -> bool:
        return v[0] == LEFT and v[1] in x1

    def in_y1(v: Vertex) -> bool:
        return v[0] == RIGHT and v[1] in y1

    if tags[0] == "M":
        if v2[0] == LEFT:
            # First edge is M with its left endpoint mid-path, so the
            # start v1 is a right vertex that N cannot cover.
            _require(in_x1(v2), f"vertex {v2} should lie in X1")
            _require(v1[0] == RIGHT and not in_y1(v1), f"vertex {v1} should avoid Y1")
            if in_x1(vm):
                return "M"
            if in_y1(vm):
                return "N"
            raise PreconditionViolated(
                f"matching merge invariant failed: far end {vm} lies in neither X1 nor Y1"
            )
        # v2 on the right: v1 is the left endpoint of an M edge.
        _require(v1[0] == LEFT and in_x1(v1), f"vertex {v1} should lie in X1")
        if len(verts) > 2:
            _require(in_y1(v2), f"vertex {v2} should lie in Y1")
        if tags[-1] == "M" and vm[0] == RIGHT:
            _require(not in_y1(vm), f"vertex {vm} should avoid Y1")
        if tags[-1] == "N" and vm[0] == LEFT:
            _require(not in_x1(vm), f"vertex {vm} should avoid X1")
        return "M"

    # Mirror image for paths that start with an N edge.
    if v2[0] == RIGHT:
        _require(in_y1(v2), f"vertex {v2} should lie in Y1")
        _require(v1[0] == LEFT and not in_x1(v1), f"vertex {v1} should avoid X1")
        if in_y1(vm):
            return "N"
        if in_x1(vm):
            return "M"
        raise PreconditionViolated(
            f"matching merge invariant failed: far end {vm} lies in neither X1 nor Y1"
        )
    _require(v1[0] == RIGHT and in_y1(v1), f"vertex {v1} should lie in Y1")
    if len(verts) > 2:
        _require(in_x1(v2), f"vertex {v2} should lie in X1")
    if tags[-1] == "N" and vm[0] == LEFT:
        _require(not in_x1(vm), f"vertex {vm} should avoid X1")
    if tags[-1] == "M" and vm[0] == RIGHT:
        _require(not in_y1(vm), f"vertex {vm} should avoid Y1")
    return "N"


def _merge(
    m: Mapping[int, int], n: Mapping[int, int], x1: AbstractSet[int], y1: AbstractSet[int]
) -> list[Edge]:
    """Merge M (left -> right, covering X1) and N (right -> left, covering Y1).

    Returns the (left, right) edges of one matching inside M union N that
    covers X1 and Y1, after checking that it does.
    """
    kept = [(l, r) for l, r in m.items() if n.get(r) == l]
    for kind, verts, edges, tags in _components(m, n):
        chosen = "M" if kind == "cycle" else _path_tag(verts, tags, x1, y1)
        kept.extend(e for e, t in zip(edges, tags) if t == chosen)

    lefts = {l for l, _ in kept}
    rights = {r for _, r in kept}
    _require(len(lefts) == len(kept), "merged edges share a left endpoint")
    _require(len(rights) == len(kept), "merged edges share a right endpoint")
    _require(x1 <= lefts, "merged matching misses part of X1")
    _require(y1 <= rights, "merged matching misses part of Y1")
    _require(
        all(m.get(l) == r or n.get(r) == l for l, r in kept), "merged matching left M union N"
    )
    return kept


def merge_matchings(
    graph: BipartiteGraph,
    m: Matching,
    n: Matching,
    x1: Iterable[int],
    y1: Iterable[int],
) -> Matching:
    """Merge two saturating matchings into one covering X1 and Y1.

    Preconditions: M and N are matchings inside ``graph``; M covers the
    left set X1 with exactly |X1| edges; N covers the right set Y1 with
    exactly |Y1| edges.  The result K satisfies K subset of (M union N),
    is a matching, and covers X1 union Y1.  K keeps every edge of
    M intersect N, the M edges of each alternating cycle, and the side of
    each alternating path chosen by the endpoint case analysis.
    """
    x1 = frozenset(x1)
    y1 = frozenset(y1)
    if not m.edges <= graph.edges:
        raise PreconditionViolated("M contains an edge outside the graph")
    if not n.edges <= graph.edges:
        raise PreconditionViolated("N contains an edge outside the graph")
    if len(m.edges) != len(x1) or not x1 <= m.left_vertices():
        raise PreconditionViolated("M must cover X1 with exactly |X1| edges")
    if len(n.edges) != len(y1) or not y1 <= n.right_vertices():
        raise PreconditionViolated("N must cover Y1 with exactly |Y1| edges")
    return Matching(frozenset(_merge(dict(m.edges), {r: l for l, r in n.edges}, x1, y1)))
