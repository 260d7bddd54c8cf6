"""Bipartite matchings that cover prescribed vertex sets.

The key fact used by the symbol filler: in a bipartite graph with maximum
degree at most n, there is a matching covering every vertex of degree
exactly n.  The constructive route implemented here builds one matching M
saturating the degree-n left vertices X1, another matching N saturating
the degree-n right vertices Y1, and merges them into a single matching
covering X1 and Y1 (Mendelsohn and Dulmage, 1958).  saturating_matching
matches whichever vertices its adjacency map is keyed by: M is its call
on the left map, N its call on the right one.  Each is keyed by exactly
its targets, so the merge reads X1 off M's keys and Y1 off N's.

The merge keeps M intersect N and splits M xor N into alternating paths
and cycles; either matching covers a cycle and a path's interior.  Every
M edge has its left end in X1 and every N edge its right end in Y1, so a
path end must keep its one edge exactly when it is a left end on an M
edge or a right end on an N edge.  By parity exactly one end is of that
kind: ends both left or both right carry one M and one N edge, a left
and a right end two edges of one matching.  So a path keeps N exactly
when that end is a Y1 vertex M leaves uncovered; other paths and all
cycles keep M.

This module is a build stage: the builder's peel is its one caller in
the package, and it imports nothing from the package.  Both functions
work on plain ints and dicts, trust what the peel hands them and assert
what only a builder bug can break, so a failure here is an
AssertionError (exit 4 on the command line), never a verdict on a
caller's input.  In the peel most targets have a free neighbor, so
saturating_matching takes it in a greedy step that allocates nothing;
only the rest grow an augmenting path, with an explicit stack, so path
length is bounded by memory rather than by the interpreter's recursion
limit.  Within one call the set of owned vertices only grows
(augmenting reassigns owners, it never frees one), so a vertex whose
neighbors were all owned once stays that way; the call remembers such
vertices and no later path rescans them.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def saturating_matching(adj: Mapping[int, Sequence[int]], targets: Iterable[int]) -> dict[int, int]:
    """Match every target vertex to one of its neighbors.

    ``adj`` maps each vertex to its neighbors across the graph, in
    increasing order; a vertex without an entry has none.  Targets are
    matched in increasing index order: a target takes its first free
    neighbor in ``adj`` order; failing that, an augmenting path is grown
    from it, rerouting matched neighbors in increasing index order.  The
    result maps each target to its partner.  The peel asks only for
    vertices of maximum degree, which some matching always covers; a
    target that no augmenting path reaches raises AssertionError, and
    only a builder bug reaches that.

    A vertex whose free scan finds every neighbor owned is remembered for
    the rest of the call and later paths skip its scan: augmenting
    reassigns owners but never frees a vertex, so the scan would fail
    again.  The memo changes no result, only the work.
    """
    match: dict[int, int] = {}
    owner: dict[int, int] = {}
    saturated: set[int] = set()
    for root in sorted(set(targets)):
        for v in adj.get(root, ()):
            if v not in owner:
                match[root] = v
                owner[v] = root
                break
        else:
            _augment(adj, match, owner, saturated, root)
    return match


def _augment(
    adj: Mapping[int, Sequence[int]],
    match: dict[int, int],
    owner: dict[int, int],
    saturated: set[int],
    root: int,
) -> None:
    # Depth-first search for an augmenting path from ``root``, whose free
    # scan has just failed.  On entering a vertex, a free neighbor is taken
    # first; failing that, matched neighbors are rerouted in increasing
    # index order.  ``stack`` holds [vertex, neighbors, next neighbor
    # index] for each vertex on the current path and ``via[k]`` the
    # neighbor leading from stack[k] to stack[k + 1].  The matching
    # changes only once a path is found, so every neighbor the free scan
    # passes over has an owner to reroute.
    saturated.add(root)
    visited: set[int] = set()
    stack: list[list] = [[root, adj.get(root, ()), 0]]
    via: list[int] = []
    while stack:
        frame = stack[-1]
        _, neighbors, i = frame
        while i < len(neighbors) and neighbors[i] in visited:
            i += 1
        if i == len(neighbors):
            stack.pop()
            if via:
                via.pop()
            continue
        v = neighbors[i]
        frame[2] = i + 1
        visited.add(v)
        via.append(v)
        u = owner[v]
        neighbors = adj.get(u, ())
        if u not in saturated:
            for w in neighbors:
                if w not in owner:
                    match[u] = w
                    owner[w] = u
                    for (x, _, _), y in zip(stack, via):
                        match[x] = y
                        owner[y] = x
                    return
            saturated.add(u)
        stack.append([u, neighbors, 0])
    raise AssertionError(f"no augmenting path from target {root}")


def merge_matchings(m: Mapping[int, int], n: Mapping[int, int]) -> dict[int, int]:
    """Merge two saturating matchings into one covering X1 and Y1.

    ``m`` maps left to right vertices and ``n`` right to left vertices:
    the two dicts saturating_matching returns for the left targets X1
    and the right targets Y1, which are their keys.  The result K maps
    left to right vertices, satisfies K subset of (M union N), is a
    matching, and covers X1 union Y1, which is asserted before it is
    returned.  K starts as M; from each Y1 vertex that M leaves
    uncovered, in increasing order, the walk along its path swaps M
    edges for N edges (see the module docstring for why).  The order of
    the returned dict is not part of the contract.
    """
    assert len(set(m.values())) == len(m) and len(set(n.values())) == len(n), (
        "M and N must be matchings, but a partner repeats"
    )
    kept = dict(m)
    for v in sorted(n.keys() - m.values()):
        # Take v's N edge (u, v) and free u's kept partner; the path goes
        # on from that partner's N edge and ends where there is none.
        while v in n:
            u = n[v]
            kept[u], v = v, kept.get(u)

    rights = set(kept.values())
    assert len(rights) == len(kept), "merged edges share a right endpoint"
    assert m.keys() <= kept.keys(), "merged matching misses part of X1"
    assert n.keys() <= rights, "merged matching misses part of Y1"
    assert all(m.get(l) == r or n.get(r) == l for l, r in kept.items()), (
        "merged matching left M union N"
    )
    return kept
