"""Feasibility predicates and the dominance reduction."""

import itertools
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plskit import (
    Condition,
    FeasibilityReport,
    PreconditionViolated,
    check_construction,
    check_row_params,
    check_sizes,
)

from conftest import dominance_double_loop, ordered_theorem_tuples


def dominance_brute_force(n, m):
    """The full condition: every pair of line subsets fits the board."""
    v = sum(n)
    for bits_n in itertools.product((0, 1), repeat=len(n)):
        chosen_n = sum(k for k, b in zip(n, bits_n) if b)
        size_n = sum(bits_n)
        for bits_m in itertools.product((0, 1), repeat=len(m)):
            chosen_m = sum(k for k, b in zip(m, bits_m) if b)
            if chosen_n + chosen_m > v + size_n * sum(bits_m):
                return False
    return True


def dominance_verdict(n, m):
    """(True, None) when dominance holds, else (False, (k, l)): the pair check_construction names.

    n and m have equal totals, and s = max(n + m) is clear of its bounds.
    """
    report = check_construction(n, m, max(n + m))
    dominance = next(c for c in report.conditions if c.id == "dominance")
    if dominance.satisfied:
        return (True, None)
    pair = re.match(r"prefix pair \(k = (\d+), l = (\d+)\)", dominance.witness).groups()
    return (False, tuple(map(int, pair)))


def dominance_holds(n, m):
    return dominance_verdict(n, m)[0]


def random_composition(rng, total, max_parts):
    parts = rng.randint(1, min(max_parts, total))
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0] + cuts + [total]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def reference_check_construction(n, m, s):
    """check_construction spelled out: validate, the plain dominance scan, three conditions."""
    n, m = tuple(n), tuple(m)
    if not n or not m or not all(type(k) is int and k >= 1 for k in n + m):
        raise PreconditionViolated("bad parameters")
    if type(s) is not int or s < 1:
        raise PreconditionViolated("bad s")
    if sum(n) != sum(m):
        witness = f"sum(n) = {sum(n)} but sum(m) = {sum(m)}"
        return FeasibilityReport.from_conditions([Condition("equal-sums", False, witness)])
    v = sum(n)
    holds, pair = dominance_double_loop(n, m)
    if holds:
        dominance = Condition("dominance", True)
    else:
        k, l = pair
        lhs = sum(sorted(n, reverse=True)[:k]) + sum(sorted(m, reverse=True)[:l])
        dominance = Condition("dominance", False, f"prefix pair (k = {k}, l = {l}): {lhs} > {v + k * l}")
    longest = max(n + m)
    if s < longest:
        bounds = Condition("symbol-bounds", False, f"s = {s} < max line count {longest}")
    elif s > v:
        bounds = Condition("symbol-bounds", False, f"s = {s} > v = {v}")
    else:
        bounds = Condition("symbol-bounds", True)
    return FeasibilityReport.from_conditions([Condition("equal-sums", True), dominance, bounds])


class TestDominanceCheck:
    # The condition as check_construction reports it, and the prefix pair
    # its witness names.
    def test_full_board_is_realizable(self):
        assert dominance_holds((2, 2), (2, 2))
        assert dominance_verdict((2, 2), (2, 2)) == (True, None)

    def test_tall_column_witness(self):
        assert not dominance_holds((2, 2), (4,))
        assert dominance_verdict((2, 2), (4,)) == (False, (2, 1))

    def test_three_by_two_witness(self):
        # Top 3 rows and top 2 columns: 9 + 8 = 17 > 10 + 6 = 16.
        assert dominance_verdict((3, 3, 3, 1), (4, 4, 1, 1)) == (False, (3, 2))
        report = check_construction((3, 3, 3, 1), (4, 4, 1, 1), 4)
        (violated,) = report.violated()
        assert violated.witness == "prefix pair (k = 3, l = 2): 17 > 16"

    def test_prefix_equals_brute_force_exhaustively(self):
        # Every equal-sum pair with small entries; the prefix reduction
        # must agree with the subset definition on all of them.
        vectors = [
            vec
            for length in range(1, 4)
            for vec in itertools.product(range(1, 4), repeat=length)
        ]
        by_sum = {}
        for vec in vectors:
            by_sum.setdefault(sum(vec), []).append(vec)
        checked = 0
        for total, group in by_sum.items():
            for n, m in itertools.product(group, repeat=2):
                holds = dominance_holds(n, m)
                assert holds == dominance_brute_force(n, m), (n, m)
                # The witness is what `plskit check` prints, so pin it to
                # the plain scan over every prefix pair.
                verdict = dominance_verdict(n, m)
                assert verdict == dominance_double_loop(n, m), (n, m)
                checked += 1
                if not holds:
                    k, l = verdict[1]
                    lhs = sum(sorted(n, reverse=True)[:k]) + sum(
                        sorted(m, reverse=True)[:l]
                    )
                    assert lhs > total + k * l
        assert checked > 100

    def test_prefix_equals_brute_force_randomized(self):
        rng = random.Random(11)
        for _ in range(300):
            n = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 5)))
            m = random_composition(rng, sum(n), 5)
            assert dominance_holds(n, m) == dominance_brute_force(n, m), (n, m)


class TestFeasibilityReport:
    def test_verdict_must_match_conditions(self):
        good = Condition("a", True)
        bad = Condition("b", False, "why")
        assert FeasibilityReport.from_conditions([good, bad]).feasible is False
        assert FeasibilityReport.from_conditions([good]).feasible is True

    def test_condition_is_the_plain_tuple(self):
        assert Condition("a", True) == ("a", True, None)
        assert Condition("b", False, "why") == ("b", False, "why")
        report = FeasibilityReport.from_conditions([Condition("a", True)])
        assert report == (True, (("a", True, None),))

    def test_violated_lists_only_failures(self):
        report = FeasibilityReport.from_conditions(
            [Condition("a", True), Condition("b", False, "w")]
        )
        assert [c.id for c in report.violated()] == ["b"]


class TestCheckConstruction:
    def test_feasible_triple(self):
        report = check_construction((2, 1), (2, 1), 2)
        assert report.feasible
        assert [c.id for c in report.conditions] == [
            "equal-sums",
            "dominance",
            "symbol-bounds",
        ]

    def test_too_few_symbols(self):
        report = check_construction((2, 2), (2, 2), 1)
        assert not report.feasible
        (violated,) = report.violated()
        assert violated.id == "symbol-bounds"
        assert "1 < max line count 2" in violated.witness

    def test_too_many_symbols(self):
        report = check_construction((2, 2), (2, 2), 5)
        (violated,) = report.violated()
        assert violated.id == "symbol-bounds"
        assert "5 > v = 4" in violated.witness

    def test_sum_mismatch_short_circuits(self):
        report = check_construction((2, 1), (1, 1), 2)
        assert not report.feasible
        assert [c.id for c in report.conditions] == ["equal-sums"]

    def test_dominance_witness_text(self):
        report = check_construction((2, 2), (4,), 4)
        dominance = next(c for c in report.conditions if c.id == "dominance")
        assert not dominance.satisfied
        assert "(k = 2, l = 1)" in dominance.witness
        assert "8 > 6" in dominance.witness

    def test_matches_the_reference_on_every_small_case(self):
        checked = 0
        for n, m, s in ordered_theorem_tuples(3, 3, 9):
            for m_case in (m, m[:-1] or (m[0] + 1,)):  # also unequal totals
                expected = reference_check_construction(n, m_case, s)
                assert check_construction(n, m_case, s) == expected, (n, m_case, s)
                checked += 1
        assert checked == 2 * 819

    def test_matches_the_reference_on_long_random_profiles(self):
        rng = random.Random(41)
        violated = set()
        for _ in range(200):
            n = tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 150)))
            m = random_composition(rng, sum(n), rng.randint(1, 150))
            s = rng.randint(1, sum(n) + 1)
            report = check_construction(n, m, s)
            assert report == reference_check_construction(n, m, s), (n, m, s)
            violated.update(c.id for c in report.violated())
        assert violated == {"dominance", "symbol-bounds"}

    def test_rejects_bool_entries(self):
        with pytest.raises(PreconditionViolated):
            check_construction((True,), (1,), 1)
        with pytest.raises(PreconditionViolated):
            check_construction((1,), (1,), True)

    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=4),
        st.lists(st.integers(1, 3), min_size=1, max_size=4),
        st.integers(1, 9),
        st.randoms(),
    )
    def test_invariant_under_permutations(self, n, m, s, rng):
        # Every condition is a symmetric function of n and of m.
        before = check_construction(n, m, s).feasible
        rng.shuffle(n)
        rng.shuffle(m)
        assert check_construction(n, m, s).feasible == before


class TestCheckRowParams:
    def test_feasible(self):
        assert check_row_params((2, 2, 2), 3, 2).feasible

    def test_row_above_cap(self):
        report = check_row_params((3, 1), 2, 2)
        (violated,) = report.violated()
        assert violated.id == "row-caps"
        assert "n[1] = 3 > min(c, s) = 2" in violated.witness

    def test_volume_too_small(self):
        report = check_row_params((1,), 2, 1)
        (violated,) = report.violated()
        assert violated.id == "volume-bounds"
        assert "v = 1 < max(c, s) = 2" in violated.witness

    def test_volume_too_large(self):
        report = check_row_params((2, 2, 2), 2, 2)
        violated = {c.id for c in report.violated()}
        assert "volume-bounds" in violated


class TestCheckSizes:
    def test_feasible_small(self):
        assert check_sizes(2, 2, 2, 3).feasible

    def test_diagonal(self):
        assert check_sizes(3, 3, 3, 3).feasible

    def test_volume_above_board(self):
        report = check_sizes(2, 2, 2, 5)
        (violated,) = report.violated()
        assert violated.id == "upper-bound"
        assert "v = 5 > r*c = 4" in violated.witness

    def test_volume_below_sides(self):
        report = check_sizes(3, 3, 3, 2)
        (violated,) = report.violated()
        assert violated.id == "lower-bound"
        assert "v = 2 < max(r, c, s) = 3" in violated.witness

    def test_rejects_nonpositive(self):
        with pytest.raises(PreconditionViolated):
            check_sizes(0, 1, 1, 1)
        with pytest.raises(PreconditionViolated):
            check_sizes(True, 1, 1, 1)
