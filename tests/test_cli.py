"""Command line behavior: output, exit codes, stream handling."""

import argparse
import inspect
import io
import json
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plskit.cli
from plskit import exists_full, parameters_of, validate
from plskit.cli import run
from plskit.formats import prescription_from_json
from plskit.oracle import Prescription
from plskit.sweep import FORMS


FAMILY_RULE = "must be a nonempty sequence of positive integers"


def invoke(argv, stdin_text=""):
    out = io.StringIO()
    err = io.StringIO()
    code = run(argv, stdout=out, stderr=err, stdin=io.StringIO(stdin_text))
    return code, out.getvalue(), err.getvalue()


class TestCheck:
    def test_feasible_theorem(self):
        code, out, _ = invoke(
            ["check", "theorem", "--rows", "2,1", "--cols", "2,1", "--symbols", "2"]
        )
        assert code == 0
        assert out.splitlines()[0] == "feasible"
        assert "[ok] equal-sums" in out

    def test_infeasible_names_the_condition(self):
        code, out, _ = invoke(
            ["check", "theorem", "--rows", "2,2", "--cols", "4", "--symbols", "2"]
        )
        assert code == 1
        assert out.splitlines()[0] == "infeasible"
        assert "[violated] dominance" in out

    def test_rows_form(self):
        code, out, _ = invoke(["check", "rows", "--rows", "2,2,2", "--c", "3", "--s", "2"])
        assert code == 0

    def test_sizes_form(self):
        code, _, _ = invoke(
            ["check", "sizes", "--r", "2", "--c", "2", "--s", "2", "--v", "3"]
        )
        assert code == 0


class TestBuild:
    def test_json_output_round_trips(self):
        code, out, _ = invoke(
            ["build", "theorem", "--rows", "2,1", "--cols", "2,1", "--symbols", "2"]
        )
        assert code == 0
        payload = json.loads(out)
        pls = validate([tuple(t) for t in payload["triples"]])
        profile = parameters_of(pls)
        assert profile.row_params == (2, 1)
        assert profile.col_params == (2, 1)
        assert profile.s == 2

    def test_infeasible_sizes_prints_the_report(self):
        code, out, _ = invoke(
            ["build", "sizes", "--r", "2", "--c", "2", "--s", "2", "--v", "5"]
        )
        assert code == 1
        assert "infeasible" in out
        assert "[violated] upper-bound: v = 5 > r*c = 4" in out

    def test_volume_above_the_builder_cap_exits_three(self):
        code, out, err = invoke(
            ["build", "sizes", "--r", "100000", "--c", "100000", "--s", "100000",
             "--v", "10000000000"]
        )
        assert code == 3
        assert out == ""
        cap = plskit.builder.MAX_CELLS
        assert err == f"error: volume 10000000000 above the builder cap of {cap} cells\n"

    def test_grid_view(self):
        code, out, _ = invoke(
            ["build", "theorem", "--rows", "2,2", "--cols", "2,2", "--symbols", "2", "--grid"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert sorted(lines[0].split()) == ["1", "2"]

    def test_grid_above_the_cap_exits_three(self, monkeypatch):
        # A 3-cell diagonal passes the build cap but spans a 3 x 3 board.
        monkeypatch.setattr(plskit.builder, "MAX_CELLS", 8)
        code, out, err = invoke(
            ["build", "sizes", "--r", "3", "--c", "3", "--s", "1", "--v", "3", "--grid"]
        )
        assert code == 3
        assert out == ""
        assert err == "error: grid of 3 x 3 positions above the cap of 8\n"

    def test_rows_form(self):
        code, out, _ = invoke(["build", "rows", "--rows", "1,1", "--c", "2", "--s", "1"])
        assert code == 0
        assert json.loads(out)["triples"] == [[1, 1, 1], [2, 2, 1]]


class TestVerify:
    def test_valid_document_reports_profile(self):
        code, out, _ = invoke(
            ["verify", "-"], stdin_text='{"schema": "1", "triples": [[1, 1, 1]]}'
        )
        assert code == 0
        assert out.splitlines() == [
            "valid",
            "volume: 1",
            "rows (1): 1",
            "cols (1): 1",
            "symbols (1): 1",
        ]

    def test_clashing_document_is_invalid(self):
        code, out, _ = invoke(
            ["verify", "-"],
            stdin_text='{"schema": "1", "triples": [[1, 1, 1], [1, 2, 1]]}',
        )
        assert code == 1
        assert out.startswith("invalid:")

    def test_malformed_document_is_a_usage_error(self):
        code, _, err = invoke(["verify", "-"], stdin_text="{")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv, document, message",
        [
            (
                ["verify", "-"],
                '{"schema": "1", "triples": [[1, 1, 0]]}',
                "sym label must be a positive integer, got 0",
            ),
            *(
                (["oracle", "exists", "--file", "-"], '{"schema": "1", %s}' % field, message)
                for field, message in (
                    ('"rows": [2, 0]', f"rows {FAMILY_RULE}"),
                    ('"cols": []', f"cols {FAMILY_RULE}"),
                    ('"symbols": [1, "2"]', f"symbols {FAMILY_RULE}"),
                    ('"r": 0', "r must be a positive integer"),
                )
            ),
        ],
        ids=[
            "square", "prescription", "prescription-cols", "prescription-symbols", "prescription-r"
        ],
    )
    def test_a_bad_number_in_a_document_gets_the_library_message(self, argv, document, message):
        # Documents keep no number rule of their own: the message is the
        # library's, and it names the field the document spells.
        assert invoke(argv, stdin_text=document) == (2, "", f"error: {message}\n")

    def test_missing_file(self):
        code, _, err = invoke(["verify", "/no/such/file.json"])
        assert code == 2
        assert "error:" in err

    def test_file_input(self, tmp_path):
        path = tmp_path / "square.json"
        path.write_text('{"schema": "1", "triples": [[1, 1, 1], [2, 2, 2]]}')
        code, out, _ = invoke(["verify", str(path)])
        assert code == 0
        assert "volume: 2" in out

    def test_non_utf8_file_is_a_document_error(self, tmp_path):
        data = b'\xff{"schema": "1", "r": 1}'
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        for argv in (["verify", str(path)], ["oracle", "exists", "--file", str(path)]):
            code, _, err = invoke(argv)
            assert code == 2
            assert err.startswith("error:")
            assert "internal error" not in err
        # Standard input decoded strictly, as under a UTF-8 locale.
        err = io.StringIO()
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")
        assert run(["verify", "-"], stdout=io.StringIO(), stderr=err, stdin=stdin) == 2
        assert "internal error" not in err.getvalue()

    def test_deeply_nested_json_is_a_document_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        for argv in (["verify", str(path)], ["oracle", "exists", "--file", str(path)]):
            code, out, err = invoke(argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error: not valid JSON")

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="the interpreter sets no limit on integer digits",
    )
    def test_integer_past_the_digit_limit_is_a_document_error(self):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        for argv, document in (
            (["verify", "-"], '{"schema": "1", "triples": [[1, 1, %s]]}'),
            (["oracle", "exists", "--file", "-"], '{"schema": "1", "v": %s}'),
        ):
            code, out, err = invoke(argv, stdin_text=document % digits)
            assert code == 2
            assert out == ""
            assert err.startswith("error: not valid JSON")
            assert len(err.splitlines()) == 1


class TestOracle:
    def test_exists_prints_witness(self):
        code, out, _ = invoke(
            ["oracle", "exists", "--rows", "2,1", "--cols", "2,1", "--s", "2"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "exists"
        assert json.loads(lines[1])["triples"] == [[1, 1, 1], [1, 2, 2], [2, 1, 2]]

    def test_nonexistence_exits_one(self):
        code, out, _ = invoke(
            ["oracle", "exists", "--rows", "2,2", "--cols", "4", "--s", "2"]
        )
        assert code == 1
        assert out.strip() == "does not exist"

    def test_a_free_volume_is_capped_by_the_symbols_too(self):
        # One symbol fills at most 3 of the 5 columns, and no square on a
        # 3 x 5 board with one symbol holds more than 3 cells: refuted
        # within the default 12-cell cap, not a budget error.
        code, out, _ = invoke(["oracle", "exists", "--r", "3", "--c", "5", "--s", "1"])
        assert code == 1
        assert out.strip() == "does not exist"

    def test_file_prescription(self):
        code, out, _ = invoke(
            ["oracle", "exists", "--file", "-"],
            stdin_text='{"schema": "1", "rows": [2, 1], "s": 2}',
        )
        assert code == 0
        assert out.splitlines()[0] == "exists"

    @pytest.mark.parametrize(
        "argv, document",
        [
            (["oracle", "exists", "--rows", "2,1", "--s", "2"], ""),
            (["oracle", "exists", "--file", "-"], '{"schema": "1", "rows": [2, 1], "s": 2}'),
        ],
        ids=["flags", "file"],
    )
    def test_each_prescription_is_checked_once(self, monkeypatch, argv, document):
        # Wrap check_prescription wherever a module of the package holds it.
        calls = []
        original = plskit.oracle.check_prescription

        def counted(*args):
            calls.append(args)
            return original(*args)

        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "plskit"]:
            if getattr(module, "check_prescription", None) is original:
                monkeypatch.setattr(module, "check_prescription", counted)
        code, out, _ = invoke(argv, stdin_text=document)
        assert (code, out.splitlines()[0]) == (0, "exists")
        assert len(calls) == 1

    def test_flags_keywords_document_and_forms_share_one_vocabulary(self):
        fields = Prescription._fields
        assert tuple(inspect.signature(exists_full).parameters)[:7] == fields
        parser = plskit.cli._build_parser()
        # A parser gets its flags when a parse reaches it.
        parser.parse_known_args(["oracle", "exists"])
        for name in ("oracle", "exists"):
            (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            parser = commands.choices[name]
        constraint_flags = [
            action.dest for action in parser._actions
            if action.dest not in ("help", "file") and not action.dest.startswith("budget_")
        ]
        assert tuple(constraint_flags) == fields
        assert tuple(prescription_from_json('{"schema": "1"}')) == fields
        for form in FORMS.values():
            assert set(form.fields) <= set(fields)

    def test_a_bad_family_flag_names_the_flag(self):
        for flag in ("--rows", "--cols", "--symbols"):
            message = f"error: {flag[2:]} {FAMILY_RULE}\n"
            assert invoke(["oracle", "exists", flag, "2,0"]) == (2, "", message)

    def test_a_misspelt_document_key_is_a_usage_error(self):
        code, out, err = invoke(
            ["oracle", "exists", "--file", "-"], stdin_text='{"schema":"1","row":[2,1],"c":2}'
        )
        fields = "rows, cols, symbols, r, c, s, v"
        assert (code, out) == (2, "")
        assert err == f"error: unknown key 'row'; a prescription takes {fields}\n"

    def test_file_and_flags_conflict(self):
        code, _, err = invoke(
            ["oracle", "exists", "--file", "-", "--r", "2"],
            stdin_text='{"schema": "1", "r": 2}',
        )
        assert code == 2
        assert "error:" in err

    def test_budget_exit_code(self):
        code, _, err = invoke(["oracle", "exists", "--r", "9", "--v", "9"])
        assert code == 3
        assert "budget" in err

    def test_volume_too_deep_to_search_can_still_not_exist(self):
        # 2000 pinned cells in one row with one symbol: refuted at once,
        # so the answer is "does not exist" (exit 1), not a budget error.
        code, out, _ = invoke(
            [
                "oracle", "exists",
                "--r", "1", "--c", "2000", "--s", "1", "--v", "2000",
                "--budget-rows", "2000",
                "--budget-cols", "2000",
                "--budget-symbols", "2000",
                "--budget-cells", "2000",
            ]
        )
        assert code == 1
        assert out.strip() == "does not exist"

    def test_board_too_deep_to_search_is_a_budget_error(self):
        # One row of 1100 cells: the search would recurse once per placed
        # cell.  Running out of stack must not read as "does not exist"
        # (exit 1).
        code, out, err = invoke(
            [
                "oracle", "exists",
                "--r", "1", "--c", "1100", "--s", "1100", "--v", "1100",
                "--budget-cols", "1100",
                "--budget-symbols", "1100",
                "--budget-cells", "1100",
            ]
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_lines_beyond_the_volume_do_not_exist(self):
        # One cell cannot give each of 2000 pinned columns a cell; the
        # answer comes before the search allocates anything per column.
        code, out, err = invoke(
            [
                "oracle", "exists",
                "--r", "1", "--c", "2000", "--s", "2000", "--v", "1",
                "--budget-cols", "2000",
                "--budget-symbols", "2000",
            ]
        )
        assert code == 1
        assert out.strip() == "does not exist"
        assert err == ""

    def test_budget_flags_extend_the_search(self):
        code, _, _ = invoke(
            ["oracle", "exists", "--r", "7", "--v", "7", "--budget-rows", "7"]
        )
        assert code == 0

    def test_enumerate_stream(self):
        code, out, _ = invoke(
            [
                "oracle", "enumerate",
                "--max-rows", "1", "--max-cols", "1",
                "--max-symbols", "1", "--max-cells", "1",
            ]
        )
        assert code == 0
        assert json.loads(out)["triples"] == [[1, 1, 1]]

    def test_enumeration_too_deep_is_a_budget_error(self):
        # Running out of stack is a budget verdict (exit 3), not a bug (exit 4).
        code, out, err = invoke(
            [
                "oracle", "enumerate",
                "--max-rows", "1", "--max-cols", "1100",
                "--max-symbols", "1100", "--max-cells", "1100",
                "--budget-cols", "1100",
                "--budget-symbols", "1100",
                "--budget-cells", "1100",
                "--count-only",
            ]
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error:")
        assert "internal error" not in err

    def test_enumerate_count_only(self):
        code, out, _ = invoke(
            [
                "oracle", "enumerate",
                "--max-rows", "2", "--max-cols", "2",
                "--max-symbols", "2", "--max-cells", "4",
                "--count-only",
            ]
        )
        assert code == 0
        assert out.strip() == "21"


RANGE_FLAGS = [
    ("theorem", ["--max-side", "2", "--max-entry", "2", "--max-cells", "4"],
     plskit.sweep_theorem, (2, 2, 4)),
    ("theorem", ["--max-cells", "5"], plskit.sweep_theorem, (3, 3, 5)),
    ("rows", ["--max-symbols", "4"], plskit.sweep_row_params, (3, 3, 4)),
    ("rows", ["--max-entry", "2", "--max-side", "2"], plskit.sweep_row_params, (2, 2, 3)),
    ("sizes", ["--max-side", "2"], plskit.sweep_sizes, (2, 9)),
    ("sizes", ["--max-cells", "4"], plskit.sweep_sizes, (3, 4)),
]


class TestSweep:
    def test_small_sizes_sweep_is_clean(self):
        code, out, _ = invoke(["sweep", "sizes", "--max-side", "2", "--max-cells", "4"])
        assert code == 0
        assert "no mismatches" in out

    def test_small_rows_sweep_is_clean(self):
        code, out, _ = invoke(
            ["sweep", "rows", "--max-side", "2", "--max-entry", "2", "--max-symbols", "2"]
        )
        assert code == 0
        assert "no mismatches" in out

    @pytest.mark.parametrize("form, checked", [("theorem", 102), ("rows", 114), ("sizes", 90)])
    def test_no_range_flags_sweep_the_library_defaults(self, form, checked):
        assert invoke(["sweep", form]) == (0, f"checked {checked} prescriptions: no mismatches\n", "")

    @pytest.mark.parametrize(
        "form, flags, sweep, bounds",
        RANGE_FLAGS,
        ids=[" ".join([form, *flags]) for form, flags, _, _ in RANGE_FLAGS],
    )
    def test_range_flags_set_only_their_own_bounds(self, form, flags, sweep, bounds):
        expected = f"checked {sweep(*bounds).checked} prescriptions: no mismatches\n"
        assert invoke(["sweep", form, *flags]) == (0, expected, "")

    def test_a_mismatch_exits_one_and_is_listed(self, monkeypatch):
        # r = c = s = 1 holds one cell, so the flipped predicate says yes
        # where the oracle says no.
        flipped = (1, 1, 1, 2)
        real_predicate = plskit.sweep.check_sizes

        def predicate(*case):
            report = real_predicate(*case)
            return SimpleNamespace(feasible=not report.feasible) if case == flipped else report

        monkeypatch.setattr(plskit.sweep, "check_sizes", predicate)
        code, out, err = invoke(["sweep", "sizes", "--max-side", "2", "--max-cells", "4"])
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "checked 16 prescriptions: 1 mismatches",
            "  mismatch: (1, 1, 1, 2, True, False)",
        ]


class TestUsage:
    def test_no_arguments(self):
        code, _, err = invoke([])
        assert code == 2

    def test_unknown_subcommand(self):
        code, _, _ = invoke(["frobnicate"])
        assert code == 2

    def test_bad_integer_list(self):
        code, _, err = invoke(
            ["check", "theorem", "--rows", "2,x", "--cols", "2", "--symbols", "1"]
        )
        assert code == 2
        assert "comma separated" in err

    def test_nonpositive_entry(self):
        code, _, _ = invoke(
            ["check", "theorem", "--rows", "0", "--cols", "0", "--symbols", "1"]
        )
        assert code == 2

    def test_missing_required_flag(self):
        code, _, _ = invoke(["check", "theorem", "--rows", "1"])
        assert code == 2

    def test_crash_is_an_internal_error_not_a_verdict(self, monkeypatch):
        def crash(args, out, fin):
            raise RuntimeError("boom")

        monkeypatch.setattr(plskit.cli, "_cmd_check", crash)
        code, out, err = invoke(
            ["check", "theorem", "--rows", "1", "--cols", "1", "--symbols", "1"]
        )
        assert code == 4
        assert out == ""
        assert err == "error: internal error: RuntimeError: boom\n"

    def test_counts_that_do_not_realize_are_an_internal_error(self, monkeypatch):
        # The realization trusts the counts a build hands it; a builder bug
        # that breaks them fails an assertion, reported as exit 4.
        monkeypatch.setattr(plskit.builder, "distribute_rows", lambda v, r, cap: (1,) * r)
        code, out, err = invoke(["build", "sizes", "--r", "2", "--c", "3", "--s", "3", "--v", "6"])
        assert code == 4
        assert out == ""
        assert err == "error: internal error: AssertionError: row total 2 differs from column total 3\n"

    def test_a_matching_that_does_not_saturate_is_an_internal_error(self, monkeypatch):
        # The peel asks only for targets some matching covers; a builder
        # bug that breaks this fails an assertion, reported as exit 4.
        search = plskit.matching.saturating_matching
        monkeypatch.setattr(plskit.builder, "saturating_matching", lambda adj, t: search({}, t))
        code, out, err = invoke(
            ["build", "theorem", "--rows", "2,1", "--cols", "2,1", "--symbols", "2"]
        )
        assert code == 4
        assert out == ""
        assert err == "error: internal error: AssertionError: no augmenting path from target 1\n"

    def test_forms_call_the_functions_this_module_holds_now(self, monkeypatch):
        # The form table names its functions, so a wrapper set on the
        # module, as the benchmark's tracer sets one, sees each call.
        calls = []

        def recorded(*args):
            calls.append(args)
            return plskit.feasibility.check_sizes(*args)

        monkeypatch.setattr(plskit.cli, "check_sizes", recorded)
        code, _, _ = invoke(["check", "sizes", "--r", "2", "--c", "2", "--s", "2", "--v", "3"])
        assert code == 0
        assert calls == [(2, 2, 2, 3)]

    def test_help_exits_zero(self):
        code, _, err = invoke(["--help"])
        assert code == 0


# Captured stdout, stderr and exit code of command lines under COLUMNS=80:
# -h on every parser, usage errors, flag prefixes, "--" and a run of every
# command, so that how the parser is built can change but not its text.
GOLDEN = json.loads(
    pathlib.Path(__file__).with_name("cli_golden.json").read_text(encoding="utf-8")
)


@pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != GOLDEN["python"],
    reason=f"argparse's wording differs between versions; captured under {GOLDEN['python']}",
)
@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=lambda case: " ".join(case["argv"]) or "(no arguments)"
)
def test_command_line_text_matches_the_golden_capture(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = (case["code"], case["stdout"], case["stderr"])
    assert invoke(case["argv"], stdin_text=case["stdin"]) == expected


def test_a_new_form_table_row_gets_check_build_and_sweep_commands(monkeypatch):
    # A fourth row that reuses the sizes row's names: every command gets a
    # form for it, taking the row's flags.
    monkeypatch.setitem(FORMS, "counts", FORMS["sizes"])
    for command in ("check", "build"):
        sizes = invoke([command, "sizes", *FORM_FLAGS["sizes"]])
        assert sizes[0] == 0
        assert invoke([command, "counts", *FORM_FLAGS["sizes"]]) == sizes
    bounds = ["--max-side", "2", "--max-cells", "3"]
    assert invoke(["sweep", "counts", *bounds]) == invoke(["sweep", "sizes", *bounds])
    # Under help text and flags of its own, check and build show and take those.
    flags = ("height", "width", "symbols", "volume")
    row = FORMS["sizes"]._replace(help="by other flags", flags=flags)
    monkeypatch.setitem(FORMS, "counts", row)
    own = [token for pair in zip(("--" + flag for flag in flags), "2223") for token in pair]
    for command in ("check", "build"):
        sizes = invoke([command, "sizes", *FORM_FLAGS["sizes"]])
        assert invoke([command, "counts", *own]) == sizes
        code, _, err = invoke([command, "counts", *FORM_FLAGS["sizes"]])
        assert code == 2
        assert "the following arguments are required: --height, --width" in err
        assert "by other flags" in invoke([command, "--help"])[1]


def test_the_module_entry_point_prints_what_run_prints(tmp_path):
    argv = ["check", "theorem", "--rows", "2,1", "--cols", "2,1", "--symbols", "2"]
    src = os.path.dirname(os.path.dirname(plskit.cli.__file__))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "plskit.cli", *argv],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    code, out, err = invoke(argv)
    assert code == 0
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)

FORM_FLAGS = {
    "theorem": ["--rows", "2,1", "--cols", "2,1", "--symbols", "2"],
    "rows": ["--rows", "2,1", "--c", "2", "--s", "2"],
    "sizes": ["--r", "2", "--c", "2", "--s", "2", "--v", "3"],
}
SWEEP_BOUNDS = {
    "theorem": ["--max-side", "--max-entry", "--max-cells"],
    "rows": ["--max-side", "--max-entry", "--max-symbols"],
    "sizes": ["--max-side", "--max-cells"],
}
BUDGET_FLAGS = ["--budget-cells", "--budget-rows", "--budget-cols", "--budget-symbols"]


def count_flag_commands(bad):
    """Every command line with one count flag, list entry included, set to bad."""
    for command in ("check", "build"):
        for form, flags in FORM_FLAGS.items():
            for k in range(1, len(flags), 2):
                yield [command, form, *flags[:k], bad, *flags[k + 1 :]]
    for flag in ("--rows", "--cols", "--symbols", "--r", "--c", "--s", "--v"):
        yield ["oracle", "exists", flag, bad]
    for flag in ("--max-rows", "--max-cols", "--max-symbols", "--max-cells"):
        yield ["oracle", "enumerate", flag, bad]
    for flag in BUDGET_FLAGS:
        yield ["oracle", "exists", "--r", "1", flag, bad]
        yield ["oracle", "enumerate", flag, bad]
    for form, flags in SWEEP_BOUNDS.items():
        for flag in flags:
            yield ["sweep", form, flag, bad]


@pytest.mark.parametrize(
    "argv", [*count_flag_commands("0"), *count_flag_commands("-1")], ids=" ".join
)
def test_nonpositive_count_is_rejected_by_the_library(argv):
    # The command line only parses text: the library's check names the
    # parameter in one error line, and a bad value never reads as a crash.
    code, out, err = invoke(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


COUNTS = st.sampled_from((1, 2, 7, 10**8, 10**11, 10**30))


@st.composite
def check_and_build_commands(draw):
    """A check or build command line from the form table's flags, sometimes with --grid."""
    command = draw(st.sampled_from(("check", "build")))
    form = draw(st.sampled_from(sorted(FORMS)))
    argv = [command, form]
    for field, flag in zip(FORMS[form].fields, FORMS[form].flags):
        if plskit.cli._FLAGS[field][0] is int:
            value = str(draw(COUNTS))
        else:
            value = ",".join(map(str, draw(st.lists(COUNTS, min_size=1, max_size=3))))
        argv += ["--" + flag, value]
    if draw(st.booleans()):
        argv.append("--grid")
    return argv


@settings(max_examples=300, deadline=None)
@given(check_and_build_commands())
def test_check_and_build_end_in_a_verdict_or_a_typed_error(argv):
    code, _, err = invoke(argv)
    assert 0 <= code <= 3, err
    assert "internal error" not in err


def huge_count_command(n, mix):
    """oracle exists with every budget at n, and each count in mix at n unless set."""
    argv = ["oracle", "exists"]
    for flag, _, value in (token.partition("=") for token in mix.split()):
        argv += [f"--{flag}", value or str(n)]
    for flag in BUDGET_FLAGS:
        argv += [flag, str(n)]
    return argv


HUGE_MIXES = ("r", "c", "s", "v", "rows", "s v", "r v", "c v", "r=1 s v")
# The child caps its own address space at 1 GiB, as CI's ulimit -v does.
LIMITED_MAIN = (
    "import resource; "
    "hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard)); "
    "from plskit.cli import main; main()"
)


def limited_child(argv, timeout):
    """Run the command line in a child capped at 1 GiB; None when it outlives timeout."""
    src = os.path.dirname(os.path.dirname(plskit.cli.__file__))
    paths = (src, os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    try:
        return subprocess.run(
            [sys.executable, "-c", LIMITED_MAIN, *argv],
            capture_output=True, text=True, env=env, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None


@pytest.mark.parametrize(
    "argv",
    [
        *(huge_count_command(n, mix) for n in (10**11, 10**30) for mix in HUGE_MIXES),
        huge_count_command(3 * 10**8, "s v"),
    ],
    ids=" ".join,
)
def test_huge_counts_under_a_huge_budget_are_budget_errors(argv):
    # Each search runs out of stack after about a thousand cells (exit 3).
    # Its tables grow with the lines and symbols it touches, so a count or
    # budget past memory, or past an index, never ends in exit 4.
    done = limited_child(argv, timeout=30)
    assert done is not None, "no verdict within 30 s"
    assert done.returncode == 3, done.stderr
    assert "internal error" not in done.stderr


@st.composite
def splits(draw, v):
    """One to three positive ints that sum to v."""
    cuts = draw(st.sets(st.integers(1, v - 1), max_size=min(2, v - 1))) if v > 1 else ()
    bounds = [0, *sorted(cuts), v]
    return [b - a for a, b in zip(bounds, bounds[1:])]


@st.composite
def oracle_exists_commands(draw):
    """An oracle exists command line from the CLI's own constraint and budget flags.

    Every drawn family splits one drawn volume, and a scalar drawn beside
    its family is often that family's length, so most command lines agree
    with themselves and reach the search or the budget.
    """
    v = draw(COUNTS)
    lengths = {}  # scalar flag -> the length of its drawn family
    argv = ["oracle", "exists"]
    for flag, (kind, _) in plskit.cli._FLAGS.items():
        if draw(st.booleans()):
            if flag == "v":
                value = str(v)
            elif kind is int:
                own = st.just(lengths[flag]) if flag in lengths else st.nothing()
                value = str(draw(own | COUNTS))
            else:
                family = draw(splits(v))
                lengths[flag[0]] = len(family)
                value = ",".join(map(str, family))
            argv += ["--" + flag, value]
    for flag in BUDGET_FLAGS:
        if draw(st.booleans()):
            argv += [flag, str(draw(COUNTS))]
    return argv


@settings(max_examples=60, deadline=None)
@given(oracle_exists_commands())
def test_oracle_exists_ends_in_a_verdict_or_a_typed_error(argv):
    # Any mix of counts, huge ones included, under any budget: an answer,
    # a usage error or a budget error, never a crash.  A child that is
    # still searching when its time is up is slow, not wrong.
    done = limited_child(argv, timeout=3)
    if done is not None:
        assert 0 <= done.returncode <= 3, done.stderr
        assert "internal error" not in done.stderr
