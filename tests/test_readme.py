"""The README's examples, executed: every `$ plskit ...` line and the Library block."""

import io
import re
import shlex
from pathlib import Path

import pytest

import plskit
from plskit.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)


def cli_examples():
    """(command line, expected output lines) for every `$ plskit` line."""
    examples = []
    for language, body in BLOCKS:
        if language != "sh":
            continue
        for chunk in body.split("\n\n"):
            lines = chunk.strip("\n").splitlines()
            if lines and lines[0].startswith("$ plskit "):
                examples.append((lines[0][2:], lines[1:]))
    return examples


def run_pipeline(command):
    """Run `plskit a | plskit b ...` in-process, feeding each stdout onward."""
    text = ""
    for stage in command.split(" | "):
        argv = shlex.split(stage)
        assert argv[0] == "plskit", stage
        out, err = io.StringIO(), io.StringIO()
        code = run(argv[1:], stdout=out, stderr=err, stdin=io.StringIO(text))
        assert err.getvalue() == "", (stage, err.getvalue())
        text = out.getvalue()
    return code, text


def test_every_cli_example_is_found():
    assert len(cli_examples()) == 7


@pytest.mark.parametrize("command, expected", cli_examples(), ids=lambda x: str(x)[:60])
def test_cli_example_prints_what_the_readme_shows(command, expected):
    code, text = run_pipeline(command)
    # Every example is a verdict (0 or 1), never a usage or internal error.
    assert code in (0, 1)
    assert text.splitlines() == expected


def test_the_public_name_count_is_the_packages():
    (count,) = re.findall(r"`__all__`\s+lists (\d+) public names", README)
    assert int(count) == len(plskit.__all__)


def test_library_block_runs():
    (block,) = [body for language, body in BLOCKS if language == "python"]
    exec(compile(block, "README.md", "exec"), {})
