"""Feasibility predicates for prescribed parameter profiles.

Each predicate returns a FeasibilityReport listing the individual
conditions it checked.  Infeasibility is a normal result, never an
exception; exceptions are reserved for malformed inputs.

Conditions and reports are tuples, so they are cheap to build and
compare equal to the plain tuples (id, satisfied, witness) and
(feasible, conditions).  A report still checks on construction that its
verdict is the conjunction of its conditions.

dominance_check and check_construction share one kernel, _worst_pair,
which scans already sorted lists.  Each public function validates its
input once and sorts once before handing it over, so check_construction
neither re-validates nor re-sorts through dominance_check, and it reuses
the same sorted lists for its witness text.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate
from typing import Sequence

from .core import positive_int, positive_ints
from .errors import SumMismatch


class Condition(namedtuple("Condition", ("id", "satisfied", "witness"), defaults=(None,))):
    """One checked condition: a stable id, its verdict, and a witness."""

    __slots__ = ()


class FeasibilityReport(namedtuple("FeasibilityReport", ("feasible", "conditions"))):
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
    def _make(cls, iterable) -> "FeasibilityReport":
        # namedtuple's own _make, which _replace also calls, skips __new__.
        return cls(*iterable)

    @classmethod
    def from_conditions(cls, conditions: Sequence[Condition]) -> "FeasibilityReport":
        conditions = tuple(conditions)
        return cls(all(c.satisfied for c in conditions), conditions)

    def violated(self) -> tuple[Condition, ...]:
        return tuple(c for c in self.conditions if not c.satisfied)


def _worst_pair(n_desc: list[int], m_desc: list[int], v: int) -> tuple[int, int] | None:
    # The dominance scan on decreasing lists with equal total v; returns
    # the first prefix pair, in (k, l) order, of strictly largest excess,
    # or None when no pair has positive excess.  k = 0 is skipped: its
    # worst l takes every column, for an excess of exactly 0.
    m_prefix = [0, *accumulate(m_desc)]
    worst_excess = 0
    worst_pair = None
    n_sum = 0
    l = len(m_desc)
    for k, count in enumerate(n_desc, 1):
        n_sum += count
        while l and m_desc[l - 1] <= k:
            l -= 1
        excess = n_sum + m_prefix[l] - v - k * l
        if excess > worst_excess:
            worst_excess = excess
            worst_pair = (k, l)
    return worst_pair


def dominance_check(
    n: Sequence[int], m: Sequence[int]
) -> tuple[bool, tuple[int, int] | None]:
    """Decide whether a 0-1 matrix with row sums n and column sums m exists.

    Checks the Gale-Ryser style inequality
    ``sum(top k of n) + sum(top l of m) <= v + k * l`` for every prefix
    pair (k, l) of the sorted parameter lists; prefixes of the sorted
    lists suffice because both sides are monotone in the chosen subsets.
    For a fixed k the excess grows with l exactly while the next column
    count exceeds k, so the worst l is #{j : m[j] > k} and one pointer
    walking down the sorted m finds it for every k.  Returns (True, None)
    or (False, (k, l)) with the first pair, in (k, l) order, of strictly
    largest excess.  Raises SumMismatch when the totals differ.
    """
    n = positive_ints("n", n)
    m = positive_ints("m", m)
    v, w = sum(n), sum(m)
    if v != w:
        raise SumMismatch(f"sum(n) = {v} but sum(m) = {w}")
    worst = _worst_pair(sorted(n, reverse=True), sorted(m, reverse=True), v)
    return (worst is None, worst)


def check_construction(n: Sequence[int], m: Sequence[int], s: int) -> FeasibilityReport:
    """Can a PLS have row parameters n, column parameters m, and s symbols?

    Conditions: equal totals, the dominance inequality, and
    max(n, m) <= s <= volume.  The latter two are only evaluated (and
    reported) when the totals agree, since the volume is undefined
    otherwise.  The dominance condition is dominance_check's verdict and
    witness, computed by the same kernel on the lists validated here.
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
        dominance = Condition("dominance", True)
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
        bounds = Condition("symbol-bounds", True)
    return FeasibilityReport.from_conditions([Condition("equal-sums", True), dominance, bounds])


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
        volume = Condition("volume-bounds", True)

    cap = min(c, s)
    offenders = [(i, k) for i, k in enumerate(n) if k > cap]
    if offenders:
        i, k = offenders[0]
        caps = Condition("row-caps", False, f"n[{i + 1}] = {k} > min(c, s) = {cap}")
    else:
        caps = Condition("row-caps", True)
    return FeasibilityReport.from_conditions([volume, caps])


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
        lower = Condition("lower-bound", True)

    products = [("r*c", r * c), ("c*s", c * s), ("r*s", r * s)]
    broken = [(label, value) for label, value in products if v > value]
    if broken:
        label, value = min(broken, key=lambda item: item[1])
        upper = Condition("upper-bound", False, f"v = {v} > {label} = {value}")
    else:
        upper = Condition("upper-bound", True)
    return FeasibilityReport.from_conditions([lower, upper])
