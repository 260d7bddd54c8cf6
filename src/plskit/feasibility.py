"""Feasibility predicates for prescribed parameter profiles.

Each predicate returns a FeasibilityReport listing the individual
conditions it checked.  Infeasibility is a normal result, never an
exception; exceptions are reserved for malformed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .core import positive_int, positive_ints
from .errors import SumMismatch


@dataclass(frozen=True)
class Condition:
    """One checked condition: a stable id, its verdict, and a witness."""

    id: str
    satisfied: bool
    witness: str | None = None


@dataclass(frozen=True)
class FeasibilityReport:
    """Verdict plus per-condition breakdown; feasible iff all conditions hold."""

    feasible: bool
    conditions: tuple[Condition, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "conditions", tuple(self.conditions))
        if self.feasible != all(c.satisfied for c in self.conditions):
            raise ValueError("feasible must equal the conjunction of the conditions")

    @classmethod
    def from_conditions(cls, conditions: Sequence[Condition]) -> "FeasibilityReport":
        conditions = tuple(conditions)
        return cls(all(c.satisfied for c in conditions), conditions)

    def violated(self) -> tuple[Condition, ...]:
        return tuple(c for c in self.conditions if not c.satisfied)


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
    if sum(n) != sum(m):
        raise SumMismatch(f"sum(n) = {sum(n)} but sum(m) = {sum(m)}")

    v = sum(n)
    n_desc = sorted(n, reverse=True)
    m_desc = sorted(m, reverse=True)
    m_prefix = [0]
    for k in m_desc:
        m_prefix.append(m_prefix[-1] + k)

    worst_excess = 0
    worst_pair = None
    n_sum = 0
    l = len(m)
    for k in range(len(n) + 1):
        if k:
            n_sum += n_desc[k - 1]
        while l and m_desc[l - 1] <= k:
            l -= 1
        excess = n_sum + m_prefix[l] - v - k * l
        if excess > worst_excess:
            worst_excess = excess
            worst_pair = (k, l)
    return (worst_pair is None, worst_pair)


def check_construction(n: Sequence[int], m: Sequence[int], s: int) -> FeasibilityReport:
    """Can a PLS have row parameters n, column parameters m, and s symbols?

    Conditions: equal totals, the dominance inequality, and
    max(n, m) <= s <= volume.  The latter two are only evaluated (and
    reported) when the totals agree, since the volume is undefined
    otherwise.
    """
    n = positive_ints("n", n)
    m = positive_ints("m", m)
    s = positive_int("s", s)

    if sum(n) != sum(m):
        return FeasibilityReport.from_conditions(
            [Condition("equal-sums", False, f"sum(n) = {sum(n)} but sum(m) = {sum(m)}")]
        )
    conditions = [Condition("equal-sums", True)]

    holds, witness = dominance_check(n, m)
    if holds:
        conditions.append(Condition("dominance", True))
    else:
        k, l = witness
        lhs = sum(sorted(n, reverse=True)[:k]) + sum(sorted(m, reverse=True)[:l])
        conditions.append(
            Condition(
                "dominance",
                False,
                f"prefix pair (k = {k}, l = {l}): {lhs} > {sum(n) + k * l}",
            )
        )

    v = sum(n)
    max_line = max(max(n), max(m))
    if s < max_line:
        conditions.append(
            Condition("symbol-bounds", False, f"s = {s} < max line count {max_line}")
        )
    elif s > v:
        conditions.append(Condition("symbol-bounds", False, f"s = {s} > v = {v}"))
    else:
        conditions.append(Condition("symbol-bounds", True))
    return FeasibilityReport.from_conditions(conditions)


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
