"""Command line front end.

Exit codes: 0 when the request is feasible, valid, or equivalent; 1 when
it is infeasible, invalid, or a sweep found a mismatch; 2 on usage or
I/O errors; 3 when the oracle budget or the builder volume cap was
exceeded; 4 when the program itself failed, so that a crash never reads
as a negative answer.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import IO

from .builder import build_corollary, build_proposition, build_theorem
from .core import parameters_of
from .errors import (
    BudgetExceeded,
    DocumentError,
    Infeasible,
    PlsError,
    PreconditionViolated,
)
from .feasibility import FeasibilityReport, check_construction, check_row_params, check_sizes
from .formats import PlsDocument, SpecDocument, render_grid
from .oracle import Budget, enumerate_pls, exists_full
from .sweep import sweep_row_params, sweep_sizes, sweep_theorem

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma separated integers, got {text!r}"
        ) from None
    if not values or any(k < 1 for k in values):
        raise argparse.ArgumentTypeError(f"entries must be positive, got {text!r}")
    return values


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    defaults = Budget()
    parser.add_argument("--budget-cells", type=_positive_int, default=defaults.max_cells)
    parser.add_argument("--budget-rows", type=_positive_int, default=defaults.max_rows)
    parser.add_argument("--budget-cols", type=_positive_int, default=defaults.max_cols)
    parser.add_argument("--budget-symbols", type=_positive_int, default=defaults.max_symbols)


def _budget_from(args: argparse.Namespace) -> Budget:
    return Budget(
        max_cells=args.budget_cells,
        max_rows=args.budget_rows,
        max_cols=args.budget_cols,
        max_symbols=args.budget_symbols,
    )


def _print_report(report: FeasibilityReport, out: IO[str]) -> None:
    print("feasible" if report.feasible else "infeasible", file=out)
    for cond in report.conditions:
        mark = "ok" if cond.satisfied else "violated"
        line = f"  [{mark}] {cond.id}"
        if cond.witness:
            line += f": {cond.witness}"
        print(line, file=out)


def _cmd_check(args: argparse.Namespace, out: IO[str], _fin: IO[str]) -> int:
    if args.form == "theorem":
        report = check_construction(args.rows, args.cols, args.symbols)
    elif args.form == "rows":
        report = check_row_params(args.rows, args.c, args.s)
    else:
        report = check_sizes(args.r, args.c, args.s, args.v)
    _print_report(report, out)
    return EXIT_OK if report.feasible else EXIT_NEGATIVE


def _cmd_build(args: argparse.Namespace, out: IO[str], _fin: IO[str]) -> int:
    try:
        if args.form == "theorem":
            pls = build_theorem(args.rows, args.cols, args.symbols)
        elif args.form == "rows":
            pls = build_proposition(args.rows, args.c, args.s)
        else:
            pls = build_corollary(args.r, args.c, args.s, args.v)
    except Infeasible as exc:
        _print_report(exc.report, out)
        return EXIT_NEGATIVE
    if args.grid:
        print(render_grid(pls), file=out)
    else:
        print(PlsDocument.from_pls(pls).to_json(), file=out)
    return EXIT_OK


def _read_source(path: str, fin: IO[str]) -> str:
    try:
        return fin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        source = "standard input" if path == "-" else path
        raise DocumentError(f"{source} is not UTF-8 text: {exc}") from None


def _cmd_verify(args: argparse.Namespace, out: IO[str], fin: IO[str]) -> int:
    text = _read_source(args.path, fin)
    document = PlsDocument.from_json(text)
    try:
        pls = document.to_pls()
    except PlsError as exc:
        print(f"invalid: {exc}", file=out)
        return EXIT_NEGATIVE
    profile = parameters_of(pls)
    print("valid", file=out)
    print(f"volume: {profile.volume}", file=out)
    print(f"rows ({profile.r}): {','.join(map(str, profile.row_params))}", file=out)
    print(f"cols ({profile.c}): {','.join(map(str, profile.col_params))}", file=out)
    print(f"symbols ({profile.s}): {','.join(map(str, profile.sym_params))}", file=out)
    return EXIT_OK


def _cmd_oracle_exists(args: argparse.Namespace, out: IO[str], fin: IO[str]) -> int:
    # The flags and a SpecDocument carry the same field names.
    source = args
    if args.file is not None:
        flags = (args.rows, args.cols, args.symbols, args.r, args.c, args.s, args.v)
        if any(value is not None for value in flags):
            raise PreconditionViolated("give either --file or constraint flags, not both")
        source = SpecDocument.from_json(_read_source(args.file, fin))
    found, witness = exists_full(
        row_params=source.rows,
        col_params=source.cols,
        sym_params=source.symbols,
        r=source.r,
        c=source.c,
        s=source.s,
        v=source.v,
        budget=_budget_from(args),
    )
    if found:
        print("exists", file=out)
        print(PlsDocument.from_pls(witness).to_json(), file=out)
        return EXIT_OK
    print("does not exist", file=out)
    return EXIT_NEGATIVE


def _cmd_oracle_enumerate(args: argparse.Namespace, out: IO[str], _fin: IO[str]) -> int:
    stream = enumerate_pls(
        args.max_rows,
        args.max_cols,
        args.max_symbols,
        args.max_cells,
        budget=_budget_from(args),
    )
    if args.count_only:
        print(sum(1 for _ in stream), file=out)
    else:
        for pls in stream:
            print(PlsDocument.from_pls(pls).to_json(), file=out)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace, out: IO[str], _fin: IO[str]) -> int:
    if args.form == "theorem":
        result = sweep_theorem(args.max_side, args.max_entry, args.max_cells)
    elif args.form == "rows":
        result = sweep_row_params(args.max_side, args.max_entry, args.max_symbols)
    else:
        result = sweep_sizes(args.max_side, args.max_cells)
    if result.clean:
        print(f"checked {result.checked} prescriptions: no mismatches", file=out)
        return EXIT_OK
    print(
        f"checked {result.checked} prescriptions: {len(result.mismatches)} mismatches",
        file=out,
    )
    for item in result.mismatches:
        print(f"  mismatch: {item}", file=out)
    return EXIT_NEGATIVE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plskit",
        description="Decide and construct partial Latin squares with prescribed parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_theorem_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--rows", type=_int_list, required=True, metavar="N1,N2,...")
        p.add_argument("--cols", type=_int_list, required=True, metavar="M1,M2,...")
        p.add_argument("--symbols", type=_positive_int, required=True, metavar="S")

    def add_rows_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--rows", type=_int_list, required=True, metavar="N1,N2,...")
        p.add_argument("--c", type=_positive_int, required=True)
        p.add_argument("--s", type=_positive_int, required=True)

    def add_sizes_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--r", type=_positive_int, required=True)
        p.add_argument("--c", type=_positive_int, required=True)
        p.add_argument("--s", type=_positive_int, required=True)
        p.add_argument("--v", type=_positive_int, required=True)

    for name, handler, with_grid in (("check", _cmd_check, False), ("build", _cmd_build, True)):
        command = sub.add_parser(name)
        forms = command.add_subparsers(dest="form", required=True)
        theorem = forms.add_parser("theorem", help="row and column parameters, symbol count")
        add_theorem_flags(theorem)
        rows = forms.add_parser("rows", help="row parameters, column count, symbol count")
        add_rows_flags(rows)
        sizes = forms.add_parser("sizes", help="row, column, symbol, and cell counts")
        add_sizes_flags(sizes)
        for form in (theorem, rows, sizes):
            if with_grid:
                form.add_argument("--grid", action="store_true", help="print a board view")
            form.set_defaults(handler=handler)

    oracle = sub.add_parser("oracle", help="exhaustive search, independent of the predicates")
    oracle_sub = oracle.add_subparsers(dest="mode", required=True)
    exists = oracle_sub.add_parser("exists")
    exists.add_argument("--rows", type=_int_list, default=None, metavar="N1,N2,...")
    exists.add_argument("--cols", type=_int_list, default=None, metavar="M1,M2,...")
    exists.add_argument("--symbols", type=_int_list, default=None, metavar="S1,S2,...")
    exists.add_argument("--r", type=_positive_int, default=None)
    exists.add_argument("--c", type=_positive_int, default=None)
    exists.add_argument("--s", type=_positive_int, default=None)
    exists.add_argument("--v", type=_positive_int, default=None)
    exists.add_argument("--file", default=None, help="prescription document, '-' for stdin")
    _add_budget_flags(exists)
    exists.set_defaults(handler=_cmd_oracle_exists)
    stream = oracle_sub.add_parser("enumerate")
    stream.add_argument("--max-rows", type=_positive_int, default=2)
    stream.add_argument("--max-cols", type=_positive_int, default=2)
    stream.add_argument("--max-symbols", type=_positive_int, default=2)
    stream.add_argument("--max-cells", type=_positive_int, default=4)
    stream.add_argument("--count-only", action="store_true")
    _add_budget_flags(stream)
    stream.set_defaults(handler=_cmd_oracle_enumerate)

    verify = sub.add_parser("verify", help="validate a square document and report its profile")
    verify.add_argument("path", help="document path, '-' for stdin")
    verify.set_defaults(handler=_cmd_verify)

    sweep = sub.add_parser("sweep", help="compare predicate and oracle over a bounded range")
    sweep_sub = sweep.add_subparsers(dest="form", required=True)
    sweep_theorem_p = sweep_sub.add_parser("theorem")
    sweep_theorem_p.add_argument("--max-side", type=_positive_int, default=3)
    sweep_theorem_p.add_argument("--max-entry", type=_positive_int, default=3)
    sweep_theorem_p.add_argument("--max-cells", type=_positive_int, default=9)
    sweep_rows_p = sweep_sub.add_parser("rows")
    sweep_rows_p.add_argument("--max-side", type=_positive_int, default=3)
    sweep_rows_p.add_argument("--max-entry", type=_positive_int, default=3)
    sweep_rows_p.add_argument("--max-symbols", type=_positive_int, default=3)
    sweep_sizes_p = sweep_sub.add_parser("sizes")
    sweep_sizes_p.add_argument("--max-side", type=_positive_int, default=3)
    sweep_sizes_p.add_argument("--max-cells", type=_positive_int, default=9)
    for form in (sweep_theorem_p, sweep_rows_p, sweep_sizes_p):
        form.set_defaults(handler=_cmd_sweep)

    return parser


def run(
    argv: list[str] | None = None,
    stdout: IO[str] | None = None,
    stderr: IO[str] | None = None,
    stdin: IO[str] | None = None,
) -> int:
    """Parse and execute one command; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    fin = stdin if stdin is not None else sys.stdin
    parser = _build_parser()
    try:
        # argparse prints help to stdout and usage errors to stderr.
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args, out, fin)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=err)
        return EXIT_BUDGET
    except (OSError, PlsError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=err)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
