"""Equivalence sweeps: bounds, the per-sweep oracle memo and its premise."""

import tracemalloc
from types import SimpleNamespace

import pytest

import plskit.sweep
from plskit import Budget, PreconditionViolated, exists_full
from plskit.sweep import (
    row_params_tuples,
    sweep_row_params,
    sweep_sizes,
    sweep_theorem,
    theorem_tuples,
)

SWEEPS = {
    "theorem": (sweep_theorem, (3, 3, 9)),
    "rows": (sweep_row_params, (3, 3, 3)),
    "sizes": (sweep_sizes, (3, 9)),
}


def sorted_key(case: tuple) -> tuple:
    return tuple(tuple(sorted(x)) if isinstance(x, tuple) else x for x in case)


@pytest.mark.parametrize("bad", [0, -1, True, 2.5])
@pytest.mark.parametrize("form", sorted(SWEEPS))
def test_every_bound_must_be_a_positive_int(form, bad):
    sweep, defaults = SWEEPS[form]
    for position in range(len(defaults)):
        bounds = list(defaults)
        bounds[position] = bad
        with pytest.raises(PreconditionViolated, match="must be a positive integer"):
            sweep(*bounds)


def count_oracle_calls(monkeypatch) -> list[tuple]:
    """Wrap the sweep module's exists_full; return the list of its calls."""
    calls = []

    def counted(**kwargs):
        calls.append(kwargs)
        return exists_full(**kwargs)

    monkeypatch.setattr(plskit.sweep, "exists_full", counted)
    return calls


def test_mismatch_is_reported_on_the_ordered_case(monkeypatch):
    # The sorted sibling ((1, 2), (1, 2), 2) comes first, so the flipped
    # case takes its oracle verdict from the memo.
    flipped_case = ((2, 1), (1, 2), 2)
    real_predicate = plskit.sweep.check_construction

    def predicate(*case):
        report = real_predicate(*case)
        if case == flipped_case:
            return SimpleNamespace(feasible=not report.feasible)
        return report

    monkeypatch.setattr(plskit.sweep, "check_construction", predicate)
    calls = count_oracle_calls(monkeypatch)
    result = sweep_theorem(2, 2, 4)
    predicted = not real_predicate(*flipped_case).feasible
    actual, _ = exists_full(row_params=(2, 1), col_params=(1, 2), s=2)
    assert result.checked == 17
    assert result.mismatches == ((*flipped_case, predicted, actual),)
    # The oracle saw sorted keys only, so the flipped case was not searched.
    assert all(call["row_params"] == tuple(sorted(call["row_params"])) for call in calls)


@pytest.mark.parametrize(
    "form, oracle_calls, checked",
    [("theorem", 140, 819), ("rows", 171, 351), ("sizes", 243, 243)],
)
def test_default_sweeps_call_the_oracle_once_per_sorted_key(monkeypatch, form, oracle_calls, checked):
    calls = count_oracle_calls(monkeypatch)
    sweep, _ = SWEEPS[form]
    result = sweep()
    assert result.clean
    assert result.checked == checked
    assert len(calls) == oracle_calls


def test_oracle_verdict_is_the_same_on_every_ordering():
    ranges = [
        (theorem_tuples(3, 3, 7), ("row_params", "col_params", "s"), Budget(max_cells=12, max_symbols=7)),
        (row_params_tuples(3, 3, 3), ("row_params", "c", "s"), Budget()),
    ]
    for cases, names, budget in ranges:
        for case in cases:
            ordered, _ = exists_full(**dict(zip(names, case)), budget=budget)
            canonical, _ = exists_full(**dict(zip(names, sorted_key(case))), budget=budget)
            assert ordered == canonical, case


def test_theorem_tuples_in_order_without_the_vectors_above_max_cells():
    expected = [
        (n, m, s)
        for total in range(1, 7)
        for n in plskit.sweep._vectors(3, 4)
        for m in plskit.sweep._vectors(3, 4)
        if sum(n) == sum(m) == total
        for s in range(max(max(n), max(m)), total + 1)
    ]
    assert list(theorem_tuples(3, 4, 6)) == expected


def test_wide_entry_range_allocates_only_the_small_sums():
    # 8 ** 8 vectors lie in range; only the 3 with sum <= 2 may be built.
    tracemalloc.start()
    try:
        assert sweep_theorem(8, 8, 2) == plskit.sweep.SweepResult(6, ())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
