"""Golden help, usage and argparse error output, and the lean parser.

`cli.main` builds only the invoked subcommand's parser.  The fixture
`golden_help.json` holds, for every case, the argv and what `cli.main` wrote
to stdout and stderr, with its exit status, at an 80-column terminal, as the
parser that always builds all six subcommands printed it.  argparse's layout
differs between Python versions, so the fixture records the version it was
made with and is compared only on that version; the differential tests below
hold on every version.  Regenerate the fixture with

    PYTHONPATH=src python tests/test_golden_help.py
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mwscodes import cli

FIXTURE = Path(__file__).with_name("golden_help.json")
GOLDEN_CLI = Path(__file__).with_name("golden_cli.json")
SRC = Path(__file__).resolve().parents[1] / "src"
COMMANDS = ["construct", "verify", "search", "montecarlo", "bounds", "field-info"]
VERSION = "%d.%d" % sys.version_info[:2]


def cases() -> list[list[str]]:
    """Help, usage and error invocations, none of which reaches a command."""
    return [
        [],
        ["-h"], ["--help"], ["-h", "verify"],
        *[[command, "-h"] for command in COMMANDS],
        ["foo"], ["verif"], ["--bogus"],
        ["verify"], ["verify", "--bogus"], ["verify", "--in", "x", "extra"],
        ["search", "--q", "3"], ["search", "--q", "x", "--k", "2"],
        ["bounds", "--q", "3"], ["bounds", "--q", "3", "--k", "2", "--format", "xml"],
        ["construct", "bogus", "--q", "3"],
    ]


def _captured(call) -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of call(), which may exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = call()
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def run_case(argv: list[str]) -> dict:
    status, out, err = _captured(lambda: cli.main(list(argv)))
    return {"argv": argv, "exit": status, "stdout": out, "stderr": err}


def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture
def columns_80(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def test_fixture_lists_every_case():
    assert [g["argv"] for g in _golden()["cases"]] == cases()


@pytest.mark.parametrize("index", range(len(cases())))
def test_golden_help(index, columns_80):
    golden = _golden()
    if golden["python"] != VERSION:
        pytest.skip(f"argparse output recorded on Python {golden['python']}")
    assert run_case(cases()[index]) == golden["cases"][index]


def _parsed(parser: argparse.ArgumentParser, argv: list[str]):
    """(namespace or None, exit status, stdout, stderr) of parse_args."""
    namespace = []
    status, out, err = _captured(lambda: namespace.append(vars(parser.parse_args(argv))))
    return (namespace[0] if namespace else None), status, out, err


def _command_argvs() -> list[list[str]]:
    """Every help case and golden CLI argv that starts with a command."""
    argvs = cases() + [g["argv"] for g in json.loads(GOLDEN_CLI.read_text())]
    return [argv for argv in argvs if argv and argv[0] in COMMANDS]


@pytest.mark.parametrize("argv", _command_argvs(), ids=" ".join)
def test_lean_parser_parses_as_the_full_one(argv, columns_80):
    lean = _parsed(cli.build_parser(argv[0]), argv)
    assert lean == _parsed(cli.build_parser(), argv)


def test_full_parser_holds_every_command():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == COMMANDS
    assert sub.metavar is None  # argparse names the action "command" in errors


def test_build_parser_refuses_an_unknown_command():
    with pytest.raises(ValueError, match="unknown command"):
        cli.build_parser("verif")


@pytest.fixture
def added(monkeypatch):
    """The names passed to add_parser, in call order."""
    names = []
    real = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        names.append(name)
        return real(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    return names


def test_main_adds_only_the_invoked_subparser(added, capsys):
    assert cli.main(["field-info", "--q", "9"]) == 0
    assert added == ["field-info"]


@pytest.mark.parametrize("argv", [["--help"], ["-h", "verify"], ["verif"]])
def test_main_adds_every_subparser_without_a_command(argv, added, capsys):
    with pytest.raises(SystemExit):
        cli.main(argv)
    assert added == COMMANDS


def _module_run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "mwscodes.cli", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}, timeout=60)


def test_entry_point_reads_sys_argv():
    golden = next(g for g in json.loads(GOLDEN_CLI.read_text())
                  if g["argv"] == ["field-info", "--q", "9"])
    proc = _module_run("field-info", "--q", "9")
    assert (proc.returncode, proc.stdout) == (golden["exit"], golden["stdout"])


def test_entry_point_prints_the_full_help():
    proc = _module_run("--help")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "{construct,verify,search,montecarlo,bounds,field-info}" in proc.stdout
    golden = _golden()
    if golden["python"] == VERSION:
        assert proc.stdout == golden["cases"][cases().index(["--help"])]["stdout"]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    records = [run_case(argv) for argv in cases()]
    FIXTURE.write_text(json.dumps({"python": VERSION, "cases": records}, indent=1) + "\n")
    print(f"{len(records)} cases written to {FIXTURE}", file=sys.stderr)
