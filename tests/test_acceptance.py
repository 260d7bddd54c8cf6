"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they appear; without -s pytest shows them for failing tests only.
"""

import io
import itertools
import json
import random
import time

import pytest

import plskit
from plskit import (
    Budget,
    build_corollary,
    build_proposition,
    build_theorem,
    check_construction,
    check_row_params,
    check_sizes,
    conjugate,
    exists_full,
    fill_symbols,
    parameters_of,
    validate,
)
from plskit.matching import merge_matchings, saturating_matching
from plskit.oracle import FAMILIES
from plskit.realization import realize_lines
from plskit.sweep import (
    FORMS,
    row_params_tuples,
    sizes_tuples,
    sweep_row_params,
    sweep_sizes,
    sweep_theorem,
    theorem_tuples,
)

from conftest import (
    adjacency,
    dominance_brute_force,
    is_normalized,
    line_counts,
    ordered_row_params_tuples,
    ordered_sizes_tuples,
    ordered_theorem_tuples,
    random_composition,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_1_theorem_equivalence_sweep():
    started = time.monotonic()
    result = sweep_theorem(max_side=3, max_entry=3, max_cells=9)
    elapsed = time.monotonic() - started
    report(
        "criterion 1: theorem equivalence sweep",
        result.clean and elapsed < 120.0,
        f"{result.checked} tuples, {len(result.mismatches)} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_row_params_equivalence_sweep():
    result = sweep_row_params(max_side=3, max_entry=3, max_symbols=3)
    report(
        "criterion 2: row-parameter equivalence sweep",
        result.clean,
        f"{result.checked} tuples, {len(result.mismatches)} mismatches",
    )


def test_criterion_3_sizes_equivalence_sweep():
    result = sweep_sizes(max_side=3, max_cells=9)
    report(
        "criterion 3: sizes equivalence sweep",
        result.clean,
        f"{result.checked} tuples, {len(result.mismatches)} mismatches",
    )


# Criteria 1-3 one step past their ranges above, along each axis in turn,
# then further: (6, 6, 20), with 152,615 canonical cases, is the largest
# theorem range, ~1.5 s.
GROWN_RANGES = [
    (sweep_theorem, (4, 3, 10)),
    (sweep_theorem, (3, 4, 10)),
    (sweep_row_params, (4, 3, 3)),
    (sweep_row_params, (3, 4, 3)),
    (sweep_row_params, (3, 3, 4)),
    (sweep_sizes, (4, 9)),
    (sweep_sizes, (3, 10)),
    (sweep_theorem, (5, 3, 12)),
    (sweep_theorem, (4, 4, 12)),
    (sweep_theorem, (5, 4, 14)),
    (sweep_row_params, (5, 3, 4)),
    (sweep_row_params, (4, 4, 4)),
    (sweep_sizes, (6, 12)),
    (sweep_row_params, (5, 4, 5)),
    (sweep_sizes, (8, 18)),
    (sweep_row_params, (6, 3, 5)),
    (sweep_theorem, (6, 6, 20)),
]


@pytest.mark.parametrize(
    "sweep, bounds",
    GROWN_RANGES,
    ids=[f"{sweep.__name__}-{'-'.join(map(str, bounds))}" for sweep, bounds in GROWN_RANGES],
)
def test_criteria_1_to_3_grown_ranges(sweep, bounds):
    result = sweep(*bounds)
    report(
        f"criteria 1-3: {sweep.__name__}{bounds}",
        result.clean,
        f"{result.checked} tuples, {len(result.mismatches)} mismatches",
    )


def soundness_failures(theorem_cases, rows_cases, sizes_cases):
    """Build every case its predicate accepts and read its parameters back.

    Returns the number of builds and the cases whose square misses its
    prescription or is not normalized.
    """
    failures = []
    built = 0
    for n, m, s in theorem_cases:
        if not check_construction(n, m, s).feasible:
            continue
        built += 1
        pls = build_theorem(n, m, s)
        profile = parameters_of(pls)
        if not (
            profile.row_params == tuple(n)
            and profile.col_params == tuple(m)
            and profile.s == s
        ):
            failures.append(("theorem", n, m, s))
        elif not is_normalized(pls):
            failures.append(("theorem", n, m, s, "not normalized"))
    for n, c, s in rows_cases:
        if not check_row_params(n, c, s).feasible:
            continue
        built += 1
        pls = build_proposition(n, c, s)
        profile = parameters_of(pls)
        if not (profile.row_params == tuple(n) and profile.c == c and profile.s == s):
            failures.append(("rows", n, c, s))
        elif not is_normalized(pls):
            failures.append(("rows", n, c, s, "not normalized"))
    for r, c, s, v in sizes_cases:
        if not check_sizes(r, c, s, v).feasible:
            continue
        built += 1
        pls = build_corollary(r, c, s, v)
        profile = parameters_of(pls)
        if (profile.r, profile.c, profile.s, profile.volume) != (r, c, s, v):
            failures.append(("sizes", r, c, s, v))
        elif not is_normalized(pls):
            failures.append(("sizes", r, c, s, v, "not normalized"))
    return built, failures


def test_criterion_4_constructive_soundness():
    # Every ordered case, not one per class: the builders take the order
    # and the roles of the families as given.
    cases = (
        list(ordered_theorem_tuples(3, 3, 9)),
        list(ordered_row_params_tuples(3, 3, 3)),
        list(ordered_sizes_tuples(3, 9)),
    )
    walked = [len(kind) for kind in cases]
    built, failures = soundness_failures(*cases)
    report(
        "criterion 4: constructive soundness on every feasible tuple",
        not failures and walked == [819, 351, 243],
        f"{built} builds over {walked} cases, {len(failures)} failures",
    )


def test_criterion_4_constructive_soundness_on_the_grown_ranges():
    # One case per class on the largest grown ranges above, where the
    # builders meet longer lines and more symbols than criterion 4's.
    started = time.monotonic()
    built, failures = soundness_failures(
        theorem_tuples(5, 4, 14), row_params_tuples(5, 4, 5), sizes_tuples(8, 18)
    )
    elapsed = time.monotonic() - started
    report(
        "criterion 4: constructive soundness on the grown ranges",
        not failures and built == 4240,
        f"{built} builds, {len(failures)} failures, {elapsed:.1f}s",
    )


def greedy_cells(rng: random.Random, rows: int, cols: int, syms: int, attempts: int, size: int = 0):
    """Random triples inserted greedily, each that clashes skipped.

    Stops after ``attempts`` draws, or once it holds ``size`` triples.
    """
    chosen, occupied, row_sym, col_sym = [], set(), set(), set()
    for _ in range(attempts):
        i, j, k = rng.randint(1, rows), rng.randint(1, cols), rng.randint(1, syms)
        if (i, j) in occupied or (i, k) in row_sym or (j, k) in col_sym:
            continue
        chosen.append((i, j, k))
        occupied.add((i, j))
        row_sym.add((i, k))
        col_sym.add((j, k))
        if len(chosen) == size:
            break
    return chosen


def seeded_square(seed: int):
    """A random square with sides 3-55, never from the builder.

    An even seed inserts random cells greedily, skipping each that clashes;
    an odd one keeps a random subset of a cyclic Latin square with its
    rows, columns and symbols relabelled at random.
    """
    rng = random.Random(seed)
    if seed % 2 == 0:
        rows, cols, syms = (rng.randint(3, 55) for _ in range(3))
        return validate(greedy_cells(rng, rows, cols, syms, rng.randint(1, 2 * rows * cols)))
    side = rng.randint(3, 55)
    row_label, col_label, sym_label = (rng.sample(range(1, side + 1), side) for _ in range(3))
    density = rng.random()
    cells = [
        (row_label[i], col_label[j], sym_label[(i + j) % side])
        for i in range(side)
        for j in range(side)
        if rng.random() < density
    ]
    return validate(cells or [(row_label[0], col_label[0], sym_label[0])])


def field_values(pls) -> dict:
    """The square's value of every prescription field a form may name."""
    profile = parameters_of(pls)
    values = dict(zip(FAMILIES, profile[:3]), v=profile.volume)
    values.update(zip("rcs", map(len, profile[:3])))
    return values


PERMS = list(itertools.permutations(("row", "col", "sym")))


@pytest.mark.parametrize("seed", range(100))
def test_every_squares_own_prescription_passes_every_form(seed):
    # A square's values of a form's fields are feasible by definition, and
    # so are those of each of its six conjugates: the predicate must accept
    # them, and the builder must meet them exactly.
    pls = seeded_square(seed)
    for perm in PERMS:
        values = field_values(conjugate(pls, perm))
        for name, form in FORMS.items():
            case = [values[field] for field in form.fields]
            verdict = getattr(plskit, form.predicate)(*case)
            assert verdict.feasible, (name, perm, verdict)
            built = field_values(getattr(plskit, form.builder)(*case))
            assert [built[field] for field in form.fields] == case, (name, perm)


def small_seeded_square(seed: int):
    """A random square of 6-12 cells with sides 2-6, by greedy insertion, never from the builder."""
    rng = random.Random(seed)
    while True:
        rows, cols, syms = (rng.randint(2, 6) for _ in range(3))
        size = rng.randint(6, 12)
        cells = greedy_cells(rng, rows, cols, syms, 200, size)
        if len(cells) == size:
            return validate(cells)


@pytest.mark.parametrize("seed", range(100))
def test_the_oracle_meets_every_small_squares_full_prescription(seed):
    # The oracle's own enumeration never drew these squares.  Each of the
    # six conjugates, with every field pinned, must exist, and the witness
    # must have the same families up to order.
    pls = small_seeded_square(seed)
    for perm in PERMS:
        values = field_values(conjugate(pls, perm))
        side = max(6, values["r"], values["c"], values["s"])
        budget = Budget(max(12, values["v"]), side, side, side)
        found, witness = exists_full(**values, budget=budget)
        assert found, (perm, values)
        assert [sorted(family) for family in parameters_of(witness)[:3]] == [
            sorted(values[name]) for name in FAMILIES
        ], perm


def random_bounded_graph(rng: random.Random, max_side: int = 8, max_degree: int = 4):
    left = rng.randint(1, max_side)
    right = rng.randint(1, max_side)
    pool = [(u, v) for u in range(1, left + 1) for v in range(1, right + 1)]
    rng.shuffle(pool)
    edges = set()
    left_deg = [0] * (left + 1)
    right_deg = [0] * (right + 1)
    quota = rng.randint(1, len(pool))
    for u, v in pool[:quota]:
        if left_deg[u] < max_degree and right_deg[v] < max_degree:
            edges.add((u, v))
            left_deg[u] += 1
            right_deg[v] += 1
    if not edges:
        edges.add(pool[0])
        left_deg[pool[0][0]] += 1
        right_deg[pool[0][1]] += 1
    top = max(max(left_deg), max(right_deg))
    x1_full = [u for u in range(1, left + 1) if left_deg[u] == top]
    y1_full = [v for v in range(1, right + 1) if right_deg[v] == top]
    x1 = frozenset(rng.sample(x1_full, rng.randint(0, len(x1_full))))
    y1 = frozenset(rng.sample(y1_full, rng.randint(0, len(y1_full))))
    return frozenset(edges), x1, y1


def test_criterion_5_matching_merge_property_suite():
    rng = random.Random(20240501)
    started = time.monotonic()
    failures = 0
    for _ in range(10_000):
        edges, x1, y1 = random_bounded_graph(rng)
        m = saturating_matching(adjacency(edges, "left"), x1)
        n = saturating_matching(adjacency(edges, "right"), y1)
        k = set(merge_matchings(m, n).items())
        m_edges = set(m.items())
        n_edges = {(l, r) for r, l in n.items()}
        if not (
            k <= (m_edges | n_edges)
            and x1 <= {l for l, _ in k}
            and y1 <= {r for _, r in k}
        ):
            failures += 1
    elapsed = time.monotonic() - started
    report(
        "criterion 5: matching merge on 10,000 random graphs",
        failures == 0 and elapsed < 30.0,
        f"{failures} failures, {elapsed:.1f}s",
    )


def test_criterion_6_fill_symbols_exactness():
    rng = random.Random(20240502)
    failures = 0
    for _ in range(10_000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        volume = rng.randint(1, rows * cols)
        cells = frozenset(
            rng.sample([(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)], volume)
        )
        pls = fill_symbols(cells)
        top = max(max(counts) for counts in line_counts(cells, rows, cols))
        if {t[:2] for t in pls.triples} != cells or len({t.sym for t in pls.triples}) != top:
            failures += 1
    report(
        "criterion 6: fill_symbols exact on 10,000 random cell sets",
        failures == 0,
        f"{failures} failures",
    )


def test_criterion_7_dominance_prefix_reduction():
    rng = random.Random(20240503)
    mismatches = 0
    for _ in range(1_000):
        n = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 5)))
        m = random_composition(rng, sum(n), 5)
        conditions = check_construction(n, m, max(n + m)).conditions
        holds = next(c for c in conditions if c.id == "dominance").satisfied
        if holds != dominance_brute_force(n, m):
            mismatches += 1
    report(
        "criterion 7: dominance prefix check vs subset brute force",
        mismatches == 0,
        f"{mismatches} mismatches over 1,000 pairs",
    )


def test_criterion_8_degree_matrix_realization():
    rng = random.Random(20240504)
    failures = 0
    produced = 0
    while produced < 1_000:
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        matrix = [[rng.random() < 0.5 for _ in range(cols)] for _ in range(rows)]
        n = tuple(sum(row) for row in matrix if any(row))
        m = tuple(
            sum(matrix[i][j] for i in range(rows))
            for j in range(cols)
            if any(matrix[i][j] for i in range(rows))
        )
        if not n:
            continue
        produced += 1
        first = realize_lines(n, m)
        cells = [(i, j) for i, line in first[0].items() for j in line]
        if line_counts(cells, len(n), len(m)) != (n, m) or realize_lines(n, m) != first:
            failures += 1
    report(
        "criterion 8: Gale-Ryser realization on 1,000 feasible pairs",
        failures == 0,
        f"{failures} failures",
    )


def cli(argv, stdin_text=""):
    from plskit.cli import run

    out = io.StringIO()
    err = io.StringIO()
    code = run(argv, stdout=out, stderr=err, stdin=io.StringIO(stdin_text))
    return code, out.getvalue(), err.getvalue()


def parse_profile(verify_output):
    lines = verify_output.splitlines()
    values = {}
    for line in lines[2:]:
        head, _, tail = line.partition(": ")
        name = head.split()[0]
        values[name] = tuple(int(x) for x in tail.split(","))
    return values


def test_criterion_9_cli_round_trip():
    rng = random.Random(20240505)
    theorem = list(ordered_theorem_tuples(3, 3, 9))
    rows = list(ordered_row_params_tuples(3, 3, 3))
    sizes = list(ordered_sizes_tuples(3, 9))
    assert (len(theorem), len(rows), len(sizes)) == (819, 351, 243)
    feasible = []
    for n, m, s in theorem:
        if check_construction(n, m, s).feasible:
            feasible.append(("theorem", n, m, s))
    for n, c, s in rows:
        if check_row_params(n, c, s).feasible:
            feasible.append(("rows", n, c, s))
    for r, c, s, v in sizes:
        if check_sizes(r, c, s, v).feasible:
            feasible.append(("sizes", r, c, s, v))
    failures = []
    for case in rng.sample(feasible, 50):
        if case[0] == "theorem":
            _, n, m, s = case
            argv = [
                "build", "theorem",
                "--rows", ",".join(map(str, n)),
                "--cols", ",".join(map(str, m)),
                "--symbols", str(s),
            ]
        elif case[0] == "rows":
            _, n, c, s = case
            argv = [
                "build", "rows",
                "--rows", ",".join(map(str, n)),
                "--c", str(c),
                "--s", str(s),
            ]
        else:
            _, r, c, s, v = case
            argv = [
                "build", "sizes",
                "--r", str(r), "--c", str(c), "--s", str(s), "--v", str(v),
            ]
        build_code, build_out, _ = cli(argv)
        verify_code, verify_out, _ = cli(["verify", "-"], stdin_text=build_out)
        if build_code != 0 or verify_code != 0:
            failures.append((case, build_code, verify_code))
            continue
        profile = parse_profile(verify_out)
        pls = validate([tuple(t) for t in json.loads(build_out)["triples"]])
        ok = parameters_of(pls).volume == sum(profile["rows"])
        if case[0] == "theorem":
            _, n, m, s = case
            ok = ok and profile["rows"] == tuple(n)
            ok = ok and profile["cols"] == tuple(m)
            ok = ok and len(profile["symbols"]) == s
        elif case[0] == "rows":
            _, n, c, s = case
            ok = ok and profile["rows"] == tuple(n)
            ok = ok and len(profile["cols"]) == c
            ok = ok and len(profile["symbols"]) == s
        else:
            _, r, c, s, v = case
            ok = ok and len(profile["rows"]) == r
            ok = ok and len(profile["cols"]) == c
            ok = ok and len(profile["symbols"]) == s
            ok = ok and sum(profile["rows"]) == v
        if not ok:
            failures.append((case, "profile mismatch"))

    infeasible_cases = [
        (
            ["build", "theorem", "--rows", "2,2", "--cols", "4", "--symbols", "2"],
            "dominance",
        ),
        (["build", "rows", "--rows", "3,1", "--c", "2", "--s", "2"], "row-caps"),
        (
            ["build", "sizes", "--r", "2", "--c", "2", "--s", "2", "--v", "5"],
            "upper-bound",
        ),
    ]
    for argv, condition in infeasible_cases:
        code, out, _ = cli(argv)
        if code != 1 or f"[violated] {condition}" not in out:
            failures.append((argv, "infeasible handling"))
    report(
        "criterion 9: CLI build/verify round trip",
        not failures,
        f"{len(failures)} failures over 50 feasible + {len(infeasible_cases)} infeasible cases",
    )
