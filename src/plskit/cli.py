"""Command line front end.

Exit codes: 0 when the request is feasible, valid, or equivalent; 1 when
it is infeasible, invalid, or a sweep found a mismatch; 2 on usage or
I/O errors; 3 when the oracle budget or the builder volume cap was
exceeded; 4 when the program itself failed, so that a crash never reads
as a negative answer.

The forms of check, build and sweep are the rows of ``plskit.sweep.FORMS``,
which names each form's predicate, builder, sweep, range bounds, help text
and flags.  This module looks those functions up in its own namespace when
it calls them, so a wrapper set here sees every call, and a new form needs
its row plus its predicate, builder and sweep imported here.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from typing import IO, Iterable

from .builder import build_corollary, build_proposition, build_theorem
from .core import parameters_of
from .errors import (
    BudgetExceeded,
    DocumentError,
    Infeasible,
    PlsError,
    PreconditionViolated,
    TriplePairError,
)
from .feasibility import FeasibilityReport, check_construction, check_row_params, check_sizes
from .formats import PlsDocument, prescription_from_json, render_grid
from .oracle import FAMILIES, Budget, Prescription, enumerate_pls, exists_full
from .sweep import FORMS, sweep_row_params, sweep_sizes, sweep_theorem

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma separated integers, got {text!r}"
        ) from None


# The command line only parses text; the library checks every value.
# Each Prescription field's type and metavar: a family takes a comma
# separated list, a count one int, shown as its upper-case name.
_METAVARS = ("N1,N2,...", "M1,M2,...", "S1,S2,...")
_FLAGS = {field: (int, None) for field in Prescription._fields}
_FLAGS.update((field, (_int_list, metavar)) for field, metavar in zip(FAMILIES, _METAVARS))

# enumerate_pls's caps and one flag per Budget field (name, default).
_CAPS = (("max_rows", 2), ("max_cols", 2), ("max_symbols", 2), ("max_cells", 4))
_BUDGET = tuple(zip((field.replace("max_", "budget_") for field in Budget._fields), Budget()))


def _values(args: argparse.Namespace, flags: tuple) -> list:
    return [getattr(args, flag[0]) for flag in flags]


def _call(role: str, args: argparse.Namespace):
    # The form's predicate or builder, as this module holds it now.
    row = FORMS[args.form]
    return globals()[getattr(row, role)](*(getattr(args, field) for field in row.fields))


def _add_counts(parser: argparse.ArgumentParser, counts: Iterable[tuple]) -> None:
    for name, default in counts:
        parser.add_argument("--" + name.replace("_", "-"), type=int, default=default)


def _print_report(report: FeasibilityReport, out: IO[str]) -> None:
    print("feasible" if report.feasible else "infeasible", file=out)
    for cond in report.conditions:
        mark = "ok" if cond.satisfied else "violated"
        line = f"  [{mark}] {cond.id}"
        if cond.witness:
            line += f": {cond.witness}"
        print(line, file=out)


def _cmd_check(args: argparse.Namespace, out: IO[str], _fin: IO[str]) -> int:
    report = _call("predicate", args)
    _print_report(report, out)
    return EXIT_OK if report.feasible else EXIT_NEGATIVE


def _cmd_build(args: argparse.Namespace, out: IO[str], _fin: IO[str]) -> int:
    try:
        pls = _call("builder", args)
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
        if path == "-":
            return fin.read()
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        source = "standard input" if path == "-" else path
        raise DocumentError(f"{source} is not UTF-8 text: {exc}") from None


def _cmd_verify(args: argparse.Namespace, out: IO[str], fin: IO[str]) -> int:
    text = _read_source(args.path, fin)
    document = PlsDocument.from_json(text)
    try:
        pls = document.to_pls()
    except TriplePairError as exc:
        print(f"invalid: {exc}", file=out)
        return EXIT_NEGATIVE
    profile = parameters_of(pls)
    print("valid", file=out)
    print(f"volume: {profile.volume}", file=out)
    for family, params in zip(FAMILIES, profile[:3]):
        print(f"{family} ({len(params)}): {','.join(map(str, params))}", file=out)
    return EXIT_OK


def _cmd_oracle_exists(args: argparse.Namespace, out: IO[str], fin: IO[str]) -> int:
    constraints = {field: getattr(args, field) for field in Prescription._fields}
    if args.file is not None:
        if any(value is not None for value in constraints.values()):
            raise PreconditionViolated("give either --file or constraint flags, not both")
        constraints = prescription_from_json(_read_source(args.file, fin))
    found, witness = exists_full(**constraints, budget=Budget(*_values(args, _BUDGET)))
    if found:
        print("exists", file=out)
        print(PlsDocument.from_pls(witness).to_json(), file=out)
        return EXIT_OK
    print("does not exist", file=out)
    return EXIT_NEGATIVE


def _cmd_oracle_enumerate(args: argparse.Namespace, out: IO[str], _fin: IO[str]) -> int:
    stream = enumerate_pls(*_values(args, _CAPS), budget=Budget(*_values(args, _BUDGET)))
    if args.count_only:
        print(sum(1 for _ in stream), file=out)
    else:
        for pls in stream:
            print(PlsDocument.from_pls(pls).to_json(), file=out)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace, out: IO[str], _fin: IO[str]) -> int:
    form = FORMS[args.form]
    # Only the range flags given: the sweep's signature holds the defaults.
    given = {name: getattr(args, name) for name in form.bounds if name in args}
    result = globals()[form.sweep](**given)
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


class _Parser(argparse.ArgumentParser):
    """A parser that adds its flags and subcommands when a parse first reaches it.

    A command runs one path down the tree, so only the parsers on that
    path get their flags; the others keep just the name and help text
    that their parent lists.
    """

    def __init__(self, *args, populate=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._populate = populate

    def parse_known_args(self, args=None, namespace=None):
        populate, self._populate = self._populate, None
        if populate is not None:
            populate(self)
        return super().parse_known_args(args, namespace)


def _populate_form(form: argparse.ArgumentParser, row, handler, with_grid: bool) -> None:
    # A flag's value lands under its field, whose upper-case name a count shows.
    for field, flag in zip(row.fields, row.flags):
        kind, metavar = _FLAGS[field]
        form.add_argument("--" + flag, dest=field, type=kind, required=True, metavar=metavar)
    if with_grid:
        form.add_argument("--grid", action="store_true", help="print a board view")
    form.set_defaults(handler=handler)


def _populate_forms(command: argparse.ArgumentParser, handler, with_grid: bool) -> None:
    forms = command.add_subparsers(dest="form", required=True)
    for form_name, row in FORMS.items():
        populate = partial(_populate_form, row=row, handler=handler, with_grid=with_grid)
        forms.add_parser(form_name, help=row.help, populate=populate)


def _populate_oracle(oracle: argparse.ArgumentParser) -> None:
    oracle_sub = oracle.add_subparsers(dest="mode", required=True)
    oracle_sub.add_parser("exists", populate=_populate_exists)
    oracle_sub.add_parser("enumerate", populate=_populate_enumerate)


def _populate_exists(exists: argparse.ArgumentParser) -> None:
    for field, (kind, metavar) in _FLAGS.items():
        exists.add_argument("--" + field, type=kind, default=None, metavar=metavar)
    exists.add_argument("--file", default=None, help="prescription document, '-' for stdin")
    _add_counts(exists, _BUDGET)
    exists.set_defaults(handler=_cmd_oracle_exists)


def _populate_enumerate(stream: argparse.ArgumentParser) -> None:
    _add_counts(stream, _CAPS)
    stream.add_argument("--count-only", action="store_true")
    _add_counts(stream, _BUDGET)
    stream.set_defaults(handler=_cmd_oracle_enumerate)


def _populate_verify(verify: argparse.ArgumentParser) -> None:
    verify.add_argument("path", help="document path, '-' for stdin")
    verify.set_defaults(handler=_cmd_verify)


def _populate_sweep(sweep: argparse.ArgumentParser) -> None:
    sweep_sub = sweep.add_subparsers(dest="form", required=True)
    for form_name, row in FORMS.items():
        sweep_sub.add_parser(form_name, populate=partial(_populate_sweep_form, bounds=row.bounds))


def _populate_sweep_form(form: argparse.ArgumentParser, bounds: tuple) -> None:
    _add_counts(form, ((name, argparse.SUPPRESS) for name in bounds))
    form.set_defaults(handler=_cmd_sweep)


def _build_parser() -> argparse.ArgumentParser:
    """The command tree: each parser is named, with its help text, by its
    parent, and gets its own flags and subcommands when a parse reaches it."""
    parser = _Parser(
        prog="plskit",
        description="Decide and construct partial Latin squares with prescribed parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, with_grid in (("check", _cmd_check, False), ("build", _cmd_build, True)):
        populate = partial(_populate_forms, handler=handler, with_grid=with_grid)
        sub.add_parser(name, populate=populate)
    for name, help_text, populate in (
        ("oracle", "exhaustive search, independent of the predicates", _populate_oracle),
        ("verify", "validate a square document and report its profile", _populate_verify),
        ("sweep", "compare predicate and oracle over a bounded range", _populate_sweep),
    ):
        sub.add_parser(name, help=help_text, populate=populate)
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
