"""Equivalence sweeps: bounds, the canonical enumeration and its premise."""

import tracemalloc
from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import plskit.oracle
import plskit.sweep
from plskit import (
    Budget,
    PreconditionViolated,
    check_construction,
    check_row_params,
    check_sizes,
    exists_full,
)
from plskit.sweep import (
    row_params_tuples,
    sizes_tuples,
    sweep_row_params,
    sweep_sizes,
    sweep_theorem,
    theorem_tuples,
)

from conftest import ordered_row_params_tuples, ordered_sizes_tuples, ordered_theorem_tuples

# form -> (sweep, its default bounds, canonical cases, ordered cases,
#          predicate name, oracle keywords)
FORMS = {
    "theorem": (
        sweep_theorem, (3, 3, 9), theorem_tuples, ordered_theorem_tuples,
        "check_construction", ("rows", "cols", "s"),
    ),
    "rows": (
        sweep_row_params, (3, 3, 3), row_params_tuples, ordered_row_params_tuples,
        "check_row_params", ("rows", "c", "s"),
    ),
    "sizes": (
        sweep_sizes, (3, 9), sizes_tuples, ordered_sizes_tuples,
        "check_sizes", ("r", "c", "s", "v"),
    ),
}


def descending(family: tuple) -> tuple:
    return tuple(sorted(family, reverse=True))


def representative(form: str, case: tuple, bounds: tuple) -> tuple:
    """The canonical prescription of an ordered case's class within its range."""
    if form == "theorem":
        n, m, s = case
        return (*sorted((descending(n), descending(m))), s)
    if form == "rows":
        n, c, s = case
        low, high = sorted((c, s))
        # The swapped partner is in range only if its s, the larger, is.
        return (descending(n), low, high) if high <= bounds[2] else (descending(n), c, s)
    r, c, s, v = case
    return (*sorted((r, c, s)), v)


@pytest.mark.parametrize("bad", [0, -1, True, 2.5])
@pytest.mark.parametrize("form", sorted(FORMS))
def test_every_bound_must_be_a_positive_int(form, bad):
    sweep, defaults = FORMS[form][:2]
    for position in range(len(defaults)):
        bounds = list(defaults)
        bounds[position] = bad
        with pytest.raises(PreconditionViolated, match="must be a positive integer"):
            sweep(*bounds)


@pytest.mark.parametrize(
    "form, bounds, message",
    [
        ("bogus", (1,), "form must be one of theorem, rows, sizes"),
        (["theorem"], (3, 3, 9), "form must be one of theorem, rows, sizes"),
        ("theorem", (3,), "a theorem sweep takes the bounds max_side, max_entry, max_cells; got 1"),
        (
            "rows", (3, 3, 3, 3),
            "a rows sweep takes the bounds max_side, max_entry, max_symbols; got 4",
        ),
        ("sizes", (), "a sizes sweep takes the bounds max_side, max_cells; got 0"),
    ],
    ids=["unknown", "unhashable", "theorem-short", "rows-long", "sizes-none"],
)
def test_a_form_or_bound_count_outside_the_table_is_refused(form, bounds, message):
    with pytest.raises(PreconditionViolated) as refused:
        plskit.sweep.sweep(form, *bounds)
    assert str(refused.value) == message


def record_calls(monkeypatch, name: str, target) -> list:
    """Wrap the sweep module's ``name``; return the list of its calls."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args or kwargs)
        return target(*args, **kwargs)

    monkeypatch.setattr(plskit.sweep, name, recorded)
    return calls


ENUMERATED_RANGES = [
    ("theorem", (3, 3, 9)),
    ("theorem", (4, 3, 10)),
    ("theorem", (2, 5, 7)),
    ("rows", (4, 3, 3)),
    ("rows", (3, 3, 4)),
    ("rows", (2, 3, 5)),
    ("sizes", (4, 9)),
]


@pytest.mark.parametrize(
    "form, bounds",
    ENUMERATED_RANGES,
    ids=[f"{form}-{'-'.join(map(str, bounds))}" for form, bounds in ENUMERATED_RANGES],
)
def test_canonical_cases_are_one_per_class_of_the_ordered_range(form, bounds):
    canonical, ordered = FORMS[form][2:4]
    cases = list(canonical(*bounds))
    assert len(set(cases)) == len(cases)
    assert set(cases) == {representative(form, case, bounds) for case in ordered(*bounds)}


def volume(form: str, case: tuple) -> int:
    """The cell count a case pins: its row family's total, or its v."""
    return case[3] if form == "sizes" else sum(case[0])


def groups(form: str, cases) -> set:
    """The cases with s at most the volume, less their s: one per group the oracle settles."""
    at = plskit.sweep.FORMS[form].fields.index("s")
    return {case[:at] + case[at + 1:] for case in cases if case[at] <= volume(form, case)}


def test_mismatch_is_reported_on_a_canonical_case(monkeypatch):
    flipped_case = ((2, 1), (2, 1), 2)
    real_predicate = plskit.sweep.check_construction

    def predicate(*case):
        report = real_predicate(*case)
        if case == flipped_case:
            return SimpleNamespace(feasible=not report.feasible)
        return report

    predicate_calls = record_calls(monkeypatch, "check_construction", predicate)
    calls = record_calls(monkeypatch, "exists_full", exists_full)
    result = sweep_theorem(2, 2, 4)
    predicted = not real_predicate(*flipped_case).feasible
    actual, _ = exists_full(rows=(2, 1), cols=(2, 1), s=2)
    assert result.checked == 10
    assert result.mismatches == ((*flipped_case, predicted, actual),)
    assert predicate_calls == list(theorem_tuples(2, 2, 4))
    # The flip sends its group to the fallback, which asks the oracle
    # there, but never about a case twice.
    searched = [(call["rows"], call["cols"], call["s"]) for call in calls]
    assert flipped_case in searched
    assert len(set(searched)) == len(searched) < result.checked


@pytest.mark.parametrize(
    "form, bounds", [("theorem", (2, 2, 4)), ("rows", ()), ("sizes", ())],
    ids=["theorem-2-2-4", "rows", "sizes"],
)
def test_every_true_verdict_carries_a_validated_witness(monkeypatch, form, bounds):
    # The oracle's True is only as sound as its witness: each one it
    # returns has passed validate, once, and is the square validate built.
    real_validate = plskit.oracle.validate
    validated = []

    def counting_validate(triples):
        validated.append(real_validate(triples))
        return validated[-1]

    monkeypatch.setattr(plskit.oracle, "validate", counting_validate)
    verdicts = []

    def recorded(**kwargs):
        verdicts.append(exists_full(**kwargs))
        return verdicts[-1]

    monkeypatch.setattr(plskit.sweep, "exists_full", recorded)
    sweep, defaults, canonical = FORMS[form][:3]
    result = sweep(*bounds)
    witnesses = [witness for found, witness in verdicts if found]
    cases = canonical(*(bounds or defaults))
    assert result.clean
    assert len(verdicts) <= 2 * len(groups(form, cases))
    assert len(verdicts) < result.checked
    assert witnesses
    assert len(validated) == len(witnesses)
    assert all(square is witness for square, witness in zip(validated, witnesses))


def splits(family: tuple) -> set:
    """The families one move on: an entry e >= 2 split into e - 1 and a new 1."""
    return {
        descending(family[:i] + (entry - 1, 1) + family[i + 1:])
        for i, entry in enumerate(family)
        if entry >= 2
    }


def moves(form: str, group: tuple, bounds: tuple) -> set:
    """The canonical groups one move on from a group: a family split, or a count one up.

    A count goes up only while it stays within the volume, and a rows
    column count c only to a c + 1 whose keys are canonical at the same s
    as c's, that is c + 1 within the symbol bound or c above it.
    """
    if form == "theorem":
        n, m = group
        return {tuple(sorted((n, split))) for split in splits(m)} | {
            tuple(sorted((split, m))) for split in splits(n)
        }
    if form == "rows":
        n, c = group
        found = {(split, c) for split in splits(n)}
        if c < sum(n) and (c + 1 <= bounds[2] or c > bounds[2]):
            found.add((n, c + 1))
        return found
    r, c, v = group
    return {(*sorted(sides), v) for sides in ((r + 1, c), (r, c + 1)) if max(sides) <= v}


@pytest.mark.parametrize("form, checked", [("theorem", 102), ("rows", 114), ("sizes", 90)])
def test_default_sweeps_call_the_predicate_per_case_and_the_oracle_at_most_twice_per_group(
    monkeypatch, form, checked
):
    sweep, defaults, canonical, _, predicate_name, names = FORMS[form]
    predicate = getattr(plskit.sweep, predicate_name)
    predicate_calls = record_calls(monkeypatch, predicate_name, predicate)
    oracle_calls = record_calls(monkeypatch, "exists_full", exists_full)
    result = sweep(*defaults)
    cases = list(canonical(*defaults))
    assert result.clean
    assert result.checked == len(cases) == checked
    assert predicate_calls == cases
    searched = [tuple(call[name] for name in names) for call in oracle_calls]
    assert len(searched) <= 2 * len(groups(form, cases))
    assert len(searched) < result.checked
    # A right predicate settles each group, in case order, with the
    # oracle asked at its first found case and at the case before, and
    # nowhere else, unless a move from a group settled earlier already
    # finds that first case: then only the case before is asked.
    at = names.index("s")
    firsts = {}
    for case in cases:
        if case[at] <= volume(form, case):
            group = firsts.setdefault(case[:at] + case[at + 1:], [None, None])
            if group[1] is None:
                group[predicate(*case).feasible] = case
    bound = {}
    expected = []
    for group, (before, found) in firsts.items():
        least = bound.get(group, volume(form, before or found) + 1)
        if before:
            assert before[at] < least
            expected.append(before)
        if found:
            if least > found[at]:
                expected.append(found)
            for child in moves(form, group, defaults):
                bound[child] = min(bound.get(child, found[at]), found[at])
    assert sorted(searched) == sorted(expected)
    assert len(expected) == {"theorem": 28, "rows": 46, "sizes": 39}[form]


# The seven ranges of the benchmark's verify-sweep workload, the three
# default ranges, then two rows ranges whose column counts run past the
# cells of their short families: a move from c - 1 columns to c needs
# c <= v, and a negated predicate asks for the bound on every group.
VERDICT_RANGES = [
    ("theorem", (4, 3, 10)),
    ("theorem", (3, 4, 10)),
    ("rows", (4, 3, 3)),
    ("rows", (3, 4, 3)),
    ("rows", (3, 3, 4)),
    ("sizes", (4, 9)),
    ("sizes", (3, 10)),
    ("theorem", (3, 3, 9)),
    ("rows", (3, 3, 3)),
    ("sizes", (3, 9)),
    ("rows", (5, 2, 2)),
    ("rows", (6, 2, 3)),
]


@pytest.mark.parametrize(
    "form, bounds",
    VERDICT_RANGES,
    ids=[f"{form}-{'-'.join(map(str, bounds))}" for form, bounds in VERDICT_RANGES],
)
def test_grouped_verdicts_are_the_oracles_at_every_case(monkeypatch, form, bounds):
    # A predicate that gets every case wrong has every case reported, with
    # the verdict the sweep settled for it: each must be what the oracle
    # says when asked about that case alone.
    row = plskit.sweep.FORMS[form]
    budget = Budget(*row.caps(*bounds))
    full = {
        case: exists_full(**dict(zip(row.fields, case)), budget=budget)[0]
        for case in getattr(plskit.sweep, row.cases)(*bounds)
    }
    assert plskit.sweep.sweep(form, *bounds) == (len(full), ())
    real_predicate = getattr(plskit.sweep, row.predicate)
    monkeypatch.setattr(
        plskit.sweep, row.predicate,
        lambda *case: SimpleNamespace(feasible=not real_predicate(*case).feasible),
    )
    result = plskit.sweep.sweep(form, *bounds)
    assert result.checked == len(full)
    assert [mismatch[:-2] for mismatch in result.mismatches] == list(full)
    assert {mismatch[:-2]: mismatch[-1] for mismatch in result.mismatches} == full


@pytest.mark.parametrize(
    "form, bounds, checked",
    [("theorem", (2, 2, 4), 10), ("rows", (2, 2, 2), 15), ("sizes", (2, 4), 16)],
)
def test_a_predicate_wrong_at_one_case_is_reported_there_alone(monkeypatch, form, bounds, checked):
    # Each case in turn is the one the predicate gets wrong, so every
    # probe misses somewhere and the bisection runs.
    row = plskit.sweep.FORMS[form]
    cases = list(getattr(plskit.sweep, row.cases)(*bounds))
    real_predicate = getattr(plskit.sweep, row.predicate)
    assert len(cases) == checked
    for flipped in cases:

        def predicate(*case):
            report = real_predicate(*case)
            return SimpleNamespace(feasible=report.feasible != (case == flipped))

        calls = record_calls(monkeypatch, row.predicate, predicate)
        result = plskit.sweep.sweep(form, *bounds)
        actual, _ = exists_full(
            **dict(zip(row.fields, flipped)), budget=Budget(*row.caps(*bounds))
        )
        assert result == (checked, ((*flipped, not actual, actual),))
        assert calls == cases
        monkeypatch.undo()


def test_oracle_verdict_is_the_same_on_every_ordering():
    # Conjugations included: each ordered case against its representative.
    ranges = [
        ("theorem", (3, 3, 7), Budget(max_cells=12, max_symbols=7)),
        ("rows", (3, 3, 3), Budget()),
        ("sizes", (3, 9), Budget()),
    ]
    for form, bounds, budget in ranges:
        _, _, _, ordered_cases, _, names = FORMS[form]
        for case in ordered_cases(*bounds):
            ordered, _ = exists_full(**dict(zip(names, case)), budget=budget)
            canonical = representative(form, case, bounds)
            expected, _ = exists_full(**dict(zip(names, canonical)), budget=budget)
            assert ordered == expected, case


@st.composite
def theorem_cases(draw):
    n = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    m, rest = [], sum(n)
    while rest:
        m.append(draw(st.integers(1, min(4, rest))))
        rest -= m[-1]
    return tuple(n), tuple(m), draw(st.integers(1, sum(n) + 1))


@given(theorem_cases(), st.randoms())
def test_check_construction_is_invariant_under_reordering_and_transposition(case, rng):
    n, m, s = case
    feasible = check_construction(n, m, s).feasible
    assert check_construction(rng.sample(n, len(n)), rng.sample(m, len(m)), s).feasible == feasible
    assert check_construction(m, n, s).feasible == feasible


@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=6),
    st.integers(1, 6),
    st.integers(1, 6),
    st.randoms(),
)
def test_check_row_params_is_invariant_under_reordering_and_column_symbol_exchange(n, c, s, rng):
    feasible = check_row_params(n, c, s).feasible
    assert check_row_params(rng.sample(n, len(n)), c, s).feasible == feasible
    assert check_row_params(n, s, c).feasible == feasible


@given(st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)), st.integers(1, 50))
def test_check_sizes_is_invariant_under_permuting_the_three_roles(sides, v):
    r, c, s = sides
    feasible = check_sizes(r, c, s, v).feasible
    for permuted in ((r, s, c), (c, r, s), (c, s, r), (s, r, c), (s, c, r)):
        assert check_sizes(*permuted, v).feasible == feasible


def test_theorem_tuples_in_order_without_the_vectors_above_max_cells():
    # The canonical cases in the order the ordered enumeration meets them.
    expected = [
        (n, m, s)
        for n, m, s in ordered_theorem_tuples(3, 4, 6)
        if n == descending(n) and m == descending(m) and n <= m
    ]
    assert list(theorem_tuples(3, 4, 6)) == expected


def test_wide_entry_range_allocates_only_the_small_sums():
    # 8 ** 8 vectors lie in range; only the 3 with sum <= 2 may be built.
    tracemalloc.start()
    try:
        assert sweep_theorem(8, 8, 2) == plskit.sweep.SweepResult(5, ())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_the_first_case_holds_only_the_vectors_of_its_total():
    # 2,000 totals of one vector each lie in range; the first case needs
    # only the vector of total 1.  A side of 10**6 gives the first sizes
    # case without building the side's range.
    for cases, bounds, first in (
        (theorem_tuples, (2000, 1, 2000), ((1,), (1,), 1)),
        (sizes_tuples, (10**6, 1), (1, 1, 1, 1)),
    ):
        tracemalloc.start()
        try:
            assert next(cases(*bounds)) == first
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_long_families_are_built_without_recursion():
    # Families longer than the recursion limit are built without
    # recursion, up to the longest one in range.
    (last,) = deque(theorem_tuples(1200, 1, 1200), maxlen=1)
    assert last == ((1,) * 1200, (1,) * 1200, 1200)


@pytest.mark.parametrize(
    "sweep, bounds, checked",
    [
        (sweep_theorem, (7, 1, 7), 28),
        (sweep_row_params, (7, 1, 3), 126),
        (sweep_sizes, (7, 7), 588),
        (sweep_theorem, (33, 1, 33), 561),
    ],
)
def test_sweeps_past_six_lines_size_the_budget_from_the_range(sweep, bounds, checked):
    # Seven rows, columns or symbols are past the default caps of 6.  On
    # a 33 x 33 board the oracle's stack follows the 33 placed cells, not
    # the 1089 board cells.
    assert sweep(*bounds) == plskit.sweep.SweepResult(checked, ())
