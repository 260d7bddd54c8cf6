"""Bipartite matchings that cover prescribed vertex sets.

The key fact used by the symbol filler: in a bipartite graph with maximum
degree at most n, there is a matching covering every vertex of degree
exactly n.  The constructive route implemented here builds one matching M
saturating the left-side degree-n vertices X1, another matching N
saturating the right-side degree-n vertices Y1, and merges them into a
single matching covering X1 and Y1 (Mendelsohn and Dulmage, 1958).

The merge keeps M intersect N and splits M xor N into alternating paths
and cycles; either side covers a cycle and a path's interior.  Every M
edge has its left end in X1 and every N edge its right end in Y1, so a
path end must keep its one edge exactly when it is a left end on an M
edge or a right end on an N edge.  By parity exactly one end is of that
kind: ends on one side carry one M and one N edge, ends on opposite
sides two edges of one matching.  So a path keeps N exactly when that
end is a Y1 vertex M leaves uncovered; other paths and all cycles keep M.

Both functions work on plain ints and dicts, and the builder's peeling
engine calls them like any other caller.  saturating_matching grows
augmenting paths with an explicit stack, so path length is bounded by
memory rather than by the interpreter's recursion limit.
"""

from __future__ import annotations

from typing import Iterable, Literal, Mapping, Sequence

from .errors import NoSaturation, PreconditionViolated

Edge = tuple[int, int]

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


def _require(condition: bool, detail: str) -> None:
    if not condition:
        raise PreconditionViolated(f"matching merge invariant failed: {detail}")


def merge_matchings(
    m: Mapping[int, int], n: Mapping[int, int], x1: Iterable[int], y1: Iterable[int]
) -> list[Edge]:
    """Merge two saturating matchings into one covering X1 and Y1.

    ``m`` maps left to right vertices and covers the left set X1 with
    exactly |X1| edges; ``n`` maps right to left vertices and covers the
    right set Y1 with exactly |Y1| edges: the two dicts saturating_matching
    returns for the two sides.  The result K, as (left, right) edges,
    satisfies K subset of (M union N), is a matching, and covers X1 union
    Y1, which is checked before it is returned.  K starts as M; from each
    Y1 vertex that M leaves uncovered, in increasing order, the walk along
    its path swaps M edges for N edges (see the module docstring for why).
    The order of the returned list is not part of the contract.
    """
    x1 = frozenset(x1)
    y1 = frozenset(y1)
    if len(set(m.values())) != len(m) or len(set(n.values())) != len(n):
        raise PreconditionViolated("M and N must be matchings, but a partner repeats")
    if len(m) != len(x1) or not x1 <= m.keys():
        raise PreconditionViolated("M must cover X1 with exactly |X1| edges")
    if len(n) != len(y1) or not y1 <= n.keys():
        raise PreconditionViolated("N must cover Y1 with exactly |Y1| edges")
    kept = dict(m)
    for v in sorted(y1 - set(m.values())):
        # Take v's N edge (u, v) and free u's kept partner; the path goes
        # on from that partner's N edge and ends where there is none.
        while v in n:
            u = n[v]
            kept[u], v = v, kept.get(u)

    rights = set(kept.values())
    _require(len(rights) == len(kept), "merged edges share a right endpoint")
    _require(x1 <= kept.keys(), "merged matching misses part of X1")
    _require(y1 <= rights, "merged matching misses part of Y1")
    _require(
        all(m.get(l) == r or n.get(r) == l for l, r in kept.items()),
        "merged matching left M union N",
    )
    return list(kept.items())
