"""Bipartite matchings that cover prescribed vertex sets.

The key fact used by the symbol filler: in a bipartite graph with maximum
degree at most n, there is a matching covering every vertex of degree
exactly n.  The constructive route implemented here builds one matching M
saturating the left-side degree-n vertices X1, another matching N
saturating the right-side degree-n vertices Y1, and merges them into a
single matching covering X1 and Y1 by walking the components of the
symmetric difference M xor N (Mendelsohn and Dulmage, 1958).

There is one API, on plain ints and dicts, and the builder's peeling
engine calls it like any other caller.  A graph is given by the adjacency
lists of the side being saturated; saturating_matching grows augmenting
paths with an explicit stack, so path length is bounded by memory rather
than by the interpreter's recursion limit, and returns each target's
partner.  merge_matchings takes the two dicts it returned for the two
sides and walks M xor N on (side, index) vertices.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Literal, Mapping, Sequence

from .errors import NoSaturation, PreconditionViolated

Edge = tuple[int, int]
Vertex = tuple[str, int]  # ("left" | "right", index), sides ordered left < right

LEFT = "left"
RIGHT = "right"


def saturating_matching(
    adj: Mapping[int, Sequence[int]], side: Literal["left", "right"], targets: Iterable[int]
) -> dict[int, int]:
    """Match every target vertex on ``side`` to one of its neighbors.

    ``adj`` maps each vertex on ``side`` to its neighbors in increasing
    order; a vertex without an entry has none.  Augmenting paths are
    grown from each target in increasing index order, and the result maps
    each target to its partner.  If some target cannot be reached, Hall's
    condition fails and NoSaturation reports a target-side witness set
    with more members than neighbors.
    """
    if side not in (LEFT, RIGHT):
        raise PreconditionViolated(f"side must be 'left' or 'right', got {side!r}")
    match: dict[int, int] = {}
    owner: dict[int, int] = {}
    for root in sorted(set(targets)):
        # Depth-first search for an augmenting path from ``root``.  On
        # entering a vertex, a free neighbor is taken first; failing that,
        # matched neighbors are rerouted in increasing index order.
        # ``stack`` holds [vertex, neighbors, next neighbor index] for each
        # vertex on the current path and ``via[k]`` the neighbor leading
        # from stack[k] to stack[k + 1].  The matching changes only once a
        # path is found, so every neighbor the free scan passes over has an
        # owner to reroute.
        visited: set[int] = set()
        stack: list[list] = []
        via: list[int] = []
        u = root
        while True:
            neighbors = adj.get(u, ())
            for v in neighbors:
                if v not in owner:
                    break
            else:
                v = None
            if v is not None:
                match[u] = v
                owner[v] = u
                for frame, w in zip(stack, via):
                    match[frame[0]] = w
                    owner[w] = frame[0]
                break
            stack.append([u, neighbors, 0])
            u = None
            while stack:
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
                if via:
                    via.pop()
            if u is None:
                witness = frozenset({root} | {owner[v] for v in visited})
                raise NoSaturation(side=side, witness=witness)
    return match


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


def merge_matchings(
    m: Mapping[int, int], n: Mapping[int, int], x1: Iterable[int], y1: Iterable[int]
) -> list[Edge]:
    """Merge two saturating matchings into one covering X1 and Y1.

    ``m`` maps left to right vertices and covers the left set X1 with
    exactly |X1| edges; ``n`` maps right to left vertices and covers the
    right set Y1 with exactly |Y1| edges: the two dicts saturating_matching
    returns for the two sides.  The result K, as (left, right) edges,
    satisfies K subset of (M union N), is a matching, and covers X1 union
    Y1, which is checked before it is returned.  K keeps every edge of
    M intersect N, the M edges of each alternating cycle, and the side of
    each alternating path chosen by the endpoint case analysis.
    """
    x1 = frozenset(x1)
    y1 = frozenset(y1)
    if len(set(m.values())) != len(m) or len(set(n.values())) != len(n):
        raise PreconditionViolated("M and N must be matchings, but a partner repeats")
    if len(m) != len(x1) or not x1 <= m.keys():
        raise PreconditionViolated("M must cover X1 with exactly |X1| edges")
    if len(n) != len(y1) or not y1 <= n.keys():
        raise PreconditionViolated("N must cover Y1 with exactly |Y1| edges")
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
