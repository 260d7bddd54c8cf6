"""Feasibility predicates for prescribed parameter profiles.

Each predicate returns a FeasibilityReport listing the individual
conditions it checked.  Infeasibility is a normal result, never an
exception; exceptions are reserved for malformed inputs.

Conditions and reports are tuples, so they are cheap to build and
compare equal to the plain tuples (id, satisfied, witness) and
(feasible, conditions).  A report still checks on construction that its
verdict is the conjunction of its conditions.

The dominance condition is the Gale-Ryser style inequality
``sum(top k of n) + sum(top l of m) <= v + k * l`` for every prefix pair
(k, l) of the sorted parameter lists; prefixes of the sorted lists
suffice because both sides are monotone in the chosen subsets.  One
kernel, _worst_pair, scans it on already sorted lists for
check_construction, which reuses those lists for its witness text.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter
from typing import Sequence

from .core import checked_namedtuple, positive_int, positive_ints


class Condition(namedtuple("Condition", ("id", "satisfied", "witness"), defaults=(None,))):
    """One checked condition: a stable id, its verdict, and a witness."""

    __slots__ = ()


# Every condition that holds, shared: only a broken one carries a witness.
_HELD = {
    name: Condition(name, True)
    for name in (
        "equal-sums", "dominance", "symbol-bounds", "volume-bounds", "row-caps",
        "lower-bound", "upper-bound",
    )
}
_SATISFIED = itemgetter(1)


class FeasibilityReport(checked_namedtuple("FeasibilityReport", ("feasible", "conditions"))):
    """Verdict plus per-condition breakdown; feasible iff all conditions hold."""

    __slots__ = ()

    def __new__(
        cls, feasible: bool, conditions: Sequence[Condition] = ()
    ) -> "FeasibilityReport":
        conditions = tuple(conditions)
        if feasible != all(c.satisfied for c in conditions):
            raise ValueError("feasible must equal the conjunction of the conditions")
        return tuple.__new__(cls, (feasible, conditions))

    @classmethod
    def from_conditions(cls, conditions: Sequence[Condition]) -> "FeasibilityReport":
        # The verdict is computed here, so there is nothing for __new__ to check.
        conditions = tuple(conditions)
        return tuple.__new__(cls, (all(map(_SATISFIED, conditions)), conditions))

    def violated(self) -> tuple[Condition, ...]:
        return tuple(c for c in self.conditions if not c.satisfied)


def _worst_pair(n_desc: list[int], m_desc: list[int], v: int) -> tuple[int, int] | None:
    # The dominance scan on decreasing lists with equal total v; returns
    # the first prefix pair, in (k, l) order, of strictly largest excess,
    # or None when no pair has positive excess.  For a fixed k the excess
    # grows with l exactly while the next column count exceeds k, so the
    # worst l is #{j : m[j] > k} and one pointer walking down m_desc finds
    # it for every k.  k = 0 is skipped: its worst l takes every column,
    # for an excess of exactly 0.  Once l reaches 0 the scan stops: every
    # later excess is a prefix sum of n minus v, at most 0.  m_sum is the
    # sum of the top l column counts, all v while l takes every column.
    worst_excess = 0
    worst_pair = None
    n_sum = 0
    m_sum = v
    l = len(m_desc)
    for k, count in enumerate(n_desc, 1):
        n_sum += count
        while l and m_desc[l - 1] <= k:
            l -= 1
            m_sum -= m_desc[l]
        if not l:
            break
        excess = n_sum + m_sum - v - k * l
        if excess > worst_excess:
            worst_excess = excess
            worst_pair = (k, l)
    return worst_pair


def check_construction(n: Sequence[int], m: Sequence[int], s: int) -> FeasibilityReport:
    """Can a PLS have row parameters n, column parameters m, and s symbols?

    Conditions: equal totals, the dominance inequality, and
    max(n, m) <= s <= volume.  The latter two are only evaluated (and
    reported) when the totals agree, since the volume is undefined
    otherwise.  The dominance witness names the first prefix pair, in
    (k, l) order, of strictly largest excess.
    """
    n = positive_ints("n", n)
    m = positive_ints("m", m)
    s = positive_int("s", s)

    v, w = sum(n), sum(m)
    if v != w:
        return FeasibilityReport.from_conditions(
            [Condition("equal-sums", False, f"sum(n) = {v} but sum(m) = {w}")]
        )

    n_desc = sorted(n, reverse=True)
    m_desc = sorted(m, reverse=True)
    worst = _worst_pair(n_desc, m_desc, v)
    if worst is None:
        dominance = _HELD["dominance"]
    else:
        k, l = worst
        lhs = sum(n_desc[:k]) + sum(m_desc[:l])
        dominance = Condition(
            "dominance", False, f"prefix pair (k = {k}, l = {l}): {lhs} > {v + k * l}"
        )

    max_line = max(n_desc[0], m_desc[0])
    if s < max_line:
        bounds = Condition("symbol-bounds", False, f"s = {s} < max line count {max_line}")
    elif s > v:
        bounds = Condition("symbol-bounds", False, f"s = {s} > v = {v}")
    else:
        bounds = _HELD["symbol-bounds"]
    return FeasibilityReport.from_conditions((_HELD["equal-sums"], dominance, bounds))


def check_row_params(n: Sequence[int], c: int, s: int) -> FeasibilityReport:
    """Can a PLS have row parameters n, exactly c columns, and s symbols?

    Conditions: max(c, s) <= volume <= c * s, and every row parameter at
    most min(c, s).
    """
    n = positive_ints("n", n)
    c = positive_int("c", c)
    s = positive_int("s", s)

    v = sum(n)
    if v < max(c, s):
        volume = Condition("volume-bounds", False, f"v = {v} < max(c, s) = {max(c, s)}")
    elif v > c * s:
        volume = Condition("volume-bounds", False, f"v = {v} > c * s = {c * s}")
    else:
        volume = _HELD["volume-bounds"]

    cap = min(c, s)
    if max(n) > cap:
        i, k = next((i, k) for i, k in enumerate(n, 1) if k > cap)
        caps = Condition("row-caps", False, f"n[{i}] = {k} > min(c, s) = {cap}")
    else:
        caps = _HELD["row-caps"]
    return FeasibilityReport.from_conditions((volume, caps))


def check_sizes(r: int, c: int, s: int, v: int) -> FeasibilityReport:
    """Can a PLS have r rows, c columns, s symbols, and volume v?

    Conditions: max(r, c, s) <= v and v <= min(r * c, c * s, r * s).
    """
    r = positive_int("r", r)
    c = positive_int("c", c)
    s = positive_int("s", s)
    v = positive_int("v", v)

    if v < max(r, c, s):
        lower = Condition("lower-bound", False, f"v = {v} < max(r, c, s) = {max(r, c, s)}")
    else:
        lower = _HELD["lower-bound"]

    products = (r * c, c * s, r * s)
    value = min(products)
    if v > value:
        # The witness names the first of the smallest products.
        label = ("r*c", "c*s", "r*s")[products.index(value)]
        upper = Condition("upper-bound", False, f"v = {v} > {label} = {value}")
    else:
        upper = _HELD["upper-bound"]
    return FeasibilityReport.from_conditions((lower, upper))
