"""Command line behavior: output, exit codes, stream handling."""

import io
import json

import pytest

import plskit.cli
from plskit import parameters_of, validate
from plskit.cli import run


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

    def test_file_prescription(self):
        code, out, _ = invoke(
            ["oracle", "exists", "--file", "-"],
            stdin_text='{"schema": "1", "rows": [2, 1], "s": 2}',
        )
        assert code == 0
        assert out.splitlines()[0] == "exists"

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

    def test_board_too_deep_to_search_is_a_budget_error(self):
        # One row of 1100 cells: the search would recurse once per cell.
        # Running out of stack must not read as "does not exist" (exit 1).
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

    def test_help_exits_zero(self):
        code, _, err = invoke(["--help"])
        assert code == 0
