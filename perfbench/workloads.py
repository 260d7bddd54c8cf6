"""Seeded inputs, public-API calls and independent output checks.

Every workload is a ladder of requests with fixed sizes; the seed only
draws the random content.  A run repeats the ladder (a "pass") with
fresh content until its time is up, so every pass costs about the same
and medians over passes are comparable across seeds.

Feasible build prescriptions are read off a seeded random 0-1 matrix
(or a Latin square), so they exist by construction: a 0-1 matrix with
maximum line count D is the occupancy of a partial Latin square with D
symbols (Koenig's edge-colouring theorem), and splitting symbols reaches
any count up to the volume.  No output is judged with the predicate
under test.  Infeasible CLI cases each break one stated bound.
"""

from __future__ import annotations

import io
import itertools
import json
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import plskit
import plskit.cli


@dataclass(frozen=True)
class Request:
    """One public-API call plus what the benchmark knows about its answer.

    ``call`` is the timed call; ``traced`` is the call the traced run
    makes instead (None: the same).  ``check`` returns None for a correct
    output or a description of what is wrong.  ``cells`` is the volume of
    the prescription, counted in cells_per_s when the output is correct.
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    cells: int
    traced: Callable[[], Any] | None = None


# -- independent references ------------------------------------------------


def random_matrix(rng, row_sums, cols: int):
    """Row and column sums of a random 0-1 matrix with the given row sums.

    Each row takes its cells in random columns; empty columns are dropped,
    which leaves a 0-1 matrix with the same rows.
    """
    col_sums = [0] * cols
    for k in row_sums:
        for j in rng.sample(range(cols), k):
            col_sums[j] += 1
    return tuple(row_sums), tuple(k for k in col_sums if k)


def sparse_rows(rng, rows: int) -> list[int]:
    """Row counts 1 to 6, each for a sixth of the rows, in random order.

    The volume stays fixed, so the split work of a rung does not vary.
    """
    counts = [1 + i % 6 for i in range(rows)]
    rng.shuffle(counts)
    return counts


def dense_matrix(rng, side: int, density: float):
    """A random side x side 0-1 matrix with independent cells."""
    grid = [[rng.random() < density for _ in range(side)] for _ in range(side)]
    row_sums = tuple(k for k in (sum(row) for row in grid) if k)
    col_sums = tuple(k for k in (sum(col) for col in zip(*grid)) if k)
    return row_sums, col_sums


def line_profile(values) -> tuple[int, ...]:
    counts = Counter(values)
    return tuple(counts[k] for k in sorted(counts))


def square_error(triples, rows=None, cols=None, r=None, c=None, s=None, v=None) -> str | None:
    """Check a triple list against the Latin conditions and a prescription.

    ``rows``/``cols`` are exact parameter lists in label order; ``r``,
    ``c``, ``s`` and ``v`` are counts.  Labels must be normalized
    (1..r, 1..c, 1..s), as every builder promises.
    """
    triples = [tuple(t) for t in triples]
    for pair in ((0, 1), (0, 2), (1, 2)):
        keys = [(t[pair[0]], t[pair[1]]) for t in triples]
        if len(set(keys)) != len(keys):
            return f"triples repeat an entry in axes {pair}"
    profiles = [line_profile(t[axis] for t in triples) for axis in range(3)]
    for axis, profile in enumerate(profiles):
        if {t[axis] for t in triples} != set(range(1, len(profile) + 1)):
            return f"axis {axis} labels are not normalized"
    for name, wanted, actual in (("rows", rows, profiles[0]), ("cols", cols, profiles[1])):
        if wanted is not None and tuple(wanted) != actual:
            return f"{name} {actual} differ from the prescription {wanted}"
    for name, wanted, actual in (
        ("r", r, len(profiles[0])),
        ("c", c, len(profiles[1])),
        ("s", s, len(profiles[2])),
        ("v", v, len(triples)),
    ):
        if wanted is not None and wanted != actual:
            return f"{name} = {actual}, prescribed {wanted}"
    # The package's own view from outside must agree with ours.
    profile = plskit.parameters_of(plskit.validate(triples))
    if (profile.row_params, profile.col_params, profile.sym_params) != tuple(profiles):
        return "parameters_of disagrees with the triples"
    return None


def pls_error(pls, **prescription) -> str | None:
    if not isinstance(pls, plskit.PartialLatinSquare):
        return f"expected a PartialLatinSquare, got {type(pls).__name__}"
    return square_error([(t.row, t.col, t.sym) for t in pls.triples], **prescription)


def output_text(output) -> str:
    """Canonical text of an output, for the traced/untraced comparison."""
    if isinstance(output, plskit.PartialLatinSquare):
        return json.dumps(sorted((t.row, t.col, t.sym) for t in output.triples))
    return repr(output)


# -- build workloads ---------------------------------------------------------


def theorem_request(label: str, n, m, s: int) -> Request:
    return Request(
        label,
        partial(plskit.build_theorem, n, m, s),
        partial(pls_error, rows=n, cols=m, s=s),
        sum(n),
    )


def build_peel_pass(rng, smoke: bool) -> list[Request]:
    """Dense prescriptions at the minimum symbol count, sides 30 to 70.

    Fifteen evenly spaced sides, alternately a Latin k x k with s = k and
    a random 0-1 k x k matrix of density 0.8 with s equal to its longest
    line, so no symbol is ever split.  An odd count of distinct sizes puts
    the median and p90 in the middle of one size's samples rather than
    on the edge between two.
    """
    sides = (4, 6, 8) if smoke else [30 + round(40 * i / 14) for i in range(15)]
    requests = []
    for i, k in enumerate(sides):
        if i % 2 == 0:
            latin = (k,) * k
            requests.append(theorem_request(f"latin-{k}", latin, latin, k))
        else:
            n, m = dense_matrix(rng, k, 0.8)
            requests.append(theorem_request(f"dense-{k}", n, m, max(n + m)))
    rng.shuffle(requests)
    return requests


def build_spread_pass(rng, smoke: bool) -> list[Request]:
    """Long sparse profiles: rows of 1 to 6 cells, s far above the longest line.

    Each request draws a random sparse matrix with as many columns as
    rows, 400 to 1100 lines in all.  build_theorem asks for half the
    volume in symbols, so most of its time goes to splitting symbols;
    build_proposition and build_corollary ask for twice the longest line,
    so theirs goes to placing and rebalancing columns.  Seven sizes, so
    that p50 and p80 fall inside one size's samples.
    """
    requests = []
    for rows in (12, 20) if smoke else (250, 350, 450, 550):
        n, m = random_matrix(rng, sparse_rows(rng, rows), rows)
        requests.append(theorem_request(f"theorem-{rows}", n, m, max(max(n + m), sum(n) // 2)))
    for builder, rows in (("proposition", 200), ("proposition", 350), ("corollary", 300)):
        rows = rows // 16 if smoke else rows
        n, m = random_matrix(rng, sparse_rows(rng, rows), rows)
        v = sum(n)
        s = 2 * max(n + m)
        if builder == "proposition":
            call = partial(plskit.build_proposition, n, len(m), s)
            check = partial(pls_error, rows=n, c=len(m), s=s)
        else:
            call = partial(plskit.build_corollary, len(n), len(m), s, v)
            check = partial(pls_error, r=len(n), c=len(m), s=s, v=v)
        requests.append(Request(f"{builder}-{rows}", call, check, v))
    rng.shuffle(requests)
    return requests


# -- verify-sweep ------------------------------------------------------------

# One step beyond the acceptance suite's sweeps, (3, 3, 9), (3, 3, 3) and
# (3, 9), along each axis in turn.  The ranges do not depend on the seed.
SWEEP_RANGES = (
    ("theorem", (4, 3, 10)),
    ("theorem", (3, 4, 10)),
    ("rows", (4, 3, 3)),
    ("rows", (3, 4, 3)),
    ("rows", (3, 3, 4)),
    ("sizes", (4, 9)),
    ("sizes", (3, 10)),
)
SMOKE_SWEEP_RANGES = (("theorem", (2, 2, 4)), ("rows", (2, 2, 2)), ("sizes", (2, 4)))


def _vectors(max_len: int, max_entry: int):
    for length in range(1, max_len + 1):
        yield from itertools.product(range(1, max_entry + 1), repeat=length)


def range_volumes(form: str, bounds: tuple[int, ...]) -> tuple[int, int]:
    """(prescriptions, total cells) of a sweep range, counted independently."""
    count = cells = 0
    if form == "theorem":
        side, entry, max_cells = bounds
        top = Counter()  # (total, largest entry) -> vectors
        for vec in _vectors(side, entry):
            top[(sum(vec), max(vec))] += 1
        for (total, a), ka in top.items():
            for (total_b, b), kb in top.items():
                if total_b == total <= max_cells:
                    k = ka * kb * (total - max(a, b) + 1)
                    count += k
                    cells += k * total
    elif form == "rows":
        side, entry, symbols = bounds
        for vec in _vectors(side, entry):
            count += side * symbols
            cells += side * symbols * sum(vec)
    else:
        side, max_cells = bounds
        count = side**3 * max_cells
        cells = side**3 * max_cells * (max_cells + 1) // 2
    return count, cells


SWEEPS = {
    "theorem": plskit.sweep_theorem,
    "rows": plskit.sweep_row_params,
    "sizes": plskit.sweep_sizes,
}


def sweep_error(result, size: int) -> str | None:
    if not isinstance(result, plskit.SweepResult):
        return f"expected a SweepResult, got {type(result).__name__}"
    if result.mismatches:
        return f"{len(result.mismatches)} mismatches, first {result.mismatches[0]}"
    if not 1 <= result.checked <= size:
        return f"checked {result.checked} prescriptions of a range of {size}"
    return None


def verify_sweep_pass(rng, smoke: bool) -> list[Request]:
    requests = []
    for form, bounds in SMOKE_SWEEP_RANGES if smoke else SWEEP_RANGES:
        size, cells = range_volumes(form, bounds)
        requests.append(
            Request(
                f"{form}-{'-'.join(map(str, bounds))}",
                partial(SWEEPS[form], *bounds),
                partial(sweep_error, size=size),
                cells,
            )
        )
    return requests


# -- cli-oneshot ---------------------------------------------------------------

CLI_MAIN = "from plskit.cli import main; main()"


def cli_subprocess(root: str, env: dict, argv: list[str], stdin: str) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, "-c", CLI_MAIN, *argv],
        input=stdin,
        capture_output=True,
        text=True,
        cwd=root,
        env=env,
        timeout=60,
    )
    return done.returncode, done.stdout


def cli_in_process(argv: list[str], stdin: str) -> tuple[int, str]:
    out = io.StringIO()
    code = plskit.cli.run(argv, stdout=out, stderr=io.StringIO(), stdin=io.StringIO(stdin))
    return code, out.getvalue()


def _csv(values) -> str:
    return ",".join(map(str, values))


def cli_error(output, code: int, first: str, square: dict | None = None, report=None) -> str | None:
    """Exit code, first stdout line, then the printed square or profile."""
    got_code, out = output
    lines = out.splitlines()
    if got_code != code:
        return f"exit code {got_code}, expected {code}"
    if not lines or not lines[0].startswith(first):
        return f"first line {lines[:1]}, expected {first!r}"
    if square is not None:
        body = lines[-1]
        try:
            triples = json.loads(body)["triples"]
        except (ValueError, KeyError, TypeError):
            return f"output does not parse: {body[:80]!r}"
        return square_error(triples, **square)
    if report is not None and lines[1:] != report:
        return f"profile lines {lines[1:]} differ from {report}"
    return None


def multiset_error(output, rows, c: int, s: int) -> str | None:
    """The oracle matches row parameters as a multiset, not in order."""
    problem = cli_error(output, 0, "exists", square=dict(c=c, s=s))
    if problem is None:
        triples = json.loads(output[1].splitlines()[-1])["triples"]
        if sorted(line_profile(t[0] for t in triples)) != sorted(rows):
            problem = "oracle witness has the wrong row parameters"
    return problem


def random_square(rng, side: int, volume: int):
    """``volume`` random cells of a cyclic Latin square, relabelled onto 1..k."""
    cells = [(i, j, (i + j) % side) for i in range(side) for j in range(side)]
    chosen = rng.sample(cells, volume)
    maps = [{x: k + 1 for k, x in enumerate(sorted({t[a] for t in chosen}))} for a in range(3)]
    return [tuple(maps[a][t[a]] for a in range(3)) for t in chosen]


def cli_pass(rng, smoke: bool, root: str, env: dict) -> list[Request]:
    """Thirteen one-shot commands, each with a known exit code.

    Only the random content changes between passes: every prescription
    keeps its size, so each pass settles the same number of cells.
    """
    requests = []

    def add(label: str, argv: list[str], cells: int, check, stdin: str = "") -> None:
        requests.append(
            Request(
                label,
                partial(cli_subprocess, root, env, argv, stdin),
                check,
                cells,
                traced=partial(cli_in_process, argv, stdin),
            )
        )

    n, m = random_matrix(rng, rng.sample(range(1, 7), 6), 6)
    v = sum(n)
    s = rng.randint(max(n + m), v)
    theorem = ["theorem", "--rows", _csv(n), "--cols", _csv(m), "--symbols"]
    rows = ["rows", "--rows", _csv(n), "--c", str(len(m)), "--s", str(s)]
    sizes = ["sizes", "--r", str(len(n)), "--c", str(len(m)), "--s", str(s), "--v", str(v)]
    add("check-theorem", ["check", *theorem, str(s)], v, partial(cli_error, code=0, first="feasible"))
    # Symbol bound: a square of volume v holds at most v symbols.
    add("check-theorem-no", ["check", *theorem, str(v + 1)], v, partial(cli_error, code=1, first="infeasible"))
    add("check-rows", ["check", *rows], v, partial(cli_error, code=0, first="feasible"))
    # Volume bound: one column with one symbol holds one cell, and v = 21.
    rows_no = ["rows", "--rows", _csv(n), "--c", "1", "--s", "1"]
    add("check-rows-no", ["check", *rows_no], v, partial(cli_error, code=1, first="infeasible"))
    add("check-sizes", ["check", *sizes], v, partial(cli_error, code=0, first="feasible"))
    # Upper bound: an r x c board holds at most r * c cells.
    r, c = rng.sample((2, 3), 2)
    sizes_no = ["sizes", "--r", str(r), "--c", str(c), "--s", str(max(r, c)), "--v", str(r * c + 1)]
    add("check-sizes-no", ["check", *sizes_no], r * c + 1, partial(cli_error, code=1, first="infeasible"))
    add("build-theorem", ["build", *theorem, str(s)], v,
        partial(cli_error, code=0, first="{", square=dict(rows=n, cols=m, s=s)))
    add("build-rows", ["build", *rows], v,
        partial(cli_error, code=0, first="{", square=dict(rows=n, c=len(m), s=s)))
    add("build-sizes", ["build", *sizes], v,
        partial(cli_error, code=0, first="{", square=dict(r=len(n), c=len(m), s=s, v=v)))
    add("build-theorem-no", ["build", *theorem, str(v + 1)], v, partial(cli_error, code=1, first="infeasible"))

    triples = random_square(rng, 5, 15)
    document = json.dumps({"schema": "1", "triples": [list(t) for t in triples]})
    profiles = [line_profile(t[a] for t in triples) for a in range(3)]
    report = [f"volume: {len(triples)}"] + [
        f"{name} ({len(p)}): {_csv(p)}" for name, p in zip(("rows", "cols", "symbols"), profiles)
    ]
    add("verify", ["verify", "-"], len(triples), partial(cli_error, code=0, first="valid", report=report), document)
    # Row clash: one cell's symbol again in a new column of the same row.
    row, _, sym = triples[0]
    clash = [list(t) for t in triples] + [[row, 6, sym]]
    bad = json.dumps({"schema": "1", "triples": clash})
    add("verify-no", ["verify", "-"], len(clash), partial(cli_error, code=1, first="invalid:"), bad)

    sn, sm = random_matrix(rng, rng.sample(range(1, 4), 3), 3)
    # The default search budget allows up to six symbols.
    so = rng.randint(max(sn + sm), min(sum(sn), 6))
    add("oracle", ["oracle", "exists", "--rows", _csv(sn), "--c", str(len(sm)), "--s", str(so)], sum(sn),
        partial(multiset_error, rows=sn, c=len(sm), s=so))
    # Upper bound again, small enough for the default search budget.
    r, c = rng.sample((2, 3), 2)
    oracle_no = ["oracle", "exists", "--r", str(r), "--c", str(c), "--s", str(max(r, c)), "--v", str(r * c + 1)]
    add("oracle-no", oracle_no, r * c + 1, partial(cli_error, code=1, first="does not exist"))
    if smoke:
        requests = requests[::3]
    rng.shuffle(requests)
    return requests
