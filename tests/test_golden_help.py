"""Golden help, usage and argparse error output, and the direct parse.

`cli.main` parses a well-formed argv from the argument table alone
(`cli._parse_direct`, the lean parse: it builds no parser), and otherwise
hands it to the one argparse parser, `cli.build_parser()`, with all six
subcommands, which prints help, usage and errors.  The fixture
`golden_help.json` holds, for every case, the argv and what `cli.main` wrote
to stdout and stderr, with its exit status, at an 80-column terminal.
argparse's layout differs between Python versions, so the fixture records the
version it was made with and is compared only on that version; the
differential tests below hold on every version.  Regenerate the fixture with

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
from hypothesis import given, settings, strategies as st

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
    # the lean parse is the direct one: it declines every help, usage and
    # error case and gives argparse's namespace for every golden argv
    taken = cli._parse_direct(argv) is not None
    assert _direct_matches_argparse(argv) == taken == (argv not in cases())


def test_full_parser_holds_every_command():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == COMMANDS
    assert sub.metavar is None  # argparse names the action "command" in errors


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


def test_main_adds_subparsers_only_for_argparse(added, capsys):
    # a well-formed argv needs none; an error needs the one parser, with all six
    assert cli.main(["field-info", "--q", "9"]) == 0
    assert added == []
    with pytest.raises(SystemExit):
        cli.main(["verify", "--bogus"])
    assert added == COMMANDS


def test_main_runs_the_module_command_function_on_both_parse_paths(monkeypatch, capsys):
    # a caller that rebinds cmd_* (as a tracer does) gets its function run,
    # whether the direct parse or argparse parsed the argv
    calls = []
    monkeypatch.setattr(cli, "cmd_field_info", lambda args: calls.append(args.q) or 0)
    assert cli._parse_direct(["field-info", "--q=9"]) is None
    assert cli.main(["field-info", "--q", "9"]) == 0
    assert cli.main(["field-info", "--q=9"]) == 0
    assert calls == [9, 9]


@pytest.mark.parametrize("argv", [
    ["field-info", "--q", "9"],
    ["bounds", "--q", "2..3", "--k", "1,2", "--format", "csv"],
    ["construct", "--verify-qm", "simplex", "--q", "2", "--k", "3"],
])
def test_a_well_formed_argv_constructs_no_argument_parser(argv, monkeypatch, capsys):
    def refused(*args, **kwargs):
        pytest.fail("an ArgumentParser was constructed")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refused)
    assert cli.main(argv) == 0


# -- the direct parse against argparse ------------------------------------------

def _direct_matches_argparse(argv: list[str]) -> bool:
    """Check that _parse_direct(argv) is None or argparse's namespace, and
    None whenever argparse exits; return whether argparse parsed argv."""
    direct = cli._parse_direct(argv)
    parsed, status, out, err = _parsed(cli.build_parser(), argv)
    if parsed is None:
        assert direct is None, (status, err)
    elif direct is not None:
        assert vars(direct) == parsed
    return parsed is not None


@pytest.mark.parametrize("argv", [g["argv"] for g in json.loads(GOLDEN_CLI.read_text())],
                         ids=" ".join)
def test_direct_parse_takes_every_golden_argv(argv):
    direct = cli._parse_direct(argv)
    assert direct is not None
    assert vars(direct) == vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("workload", ["verify", "search", "bounds", "largefield"])
def test_direct_parse_takes_every_benchmark_op(workload, tmp_path):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    ops = gen.make_ops(workload, 1, tmp_path)
    assert ops
    for op in ops:
        direct = cli._parse_direct(op.argv)
        assert direct is not None, op.argv
        assert vars(direct) == vars(cli.build_parser().parse_args(op.argv))


@pytest.mark.parametrize("argv", [
    ["search", "--q", "3", "--k", "2", "--n", "5", "--seed", "-5"],  # a negative number
    ["search", "--q", "3", "--k", "2", "--n", "5", "--q", "4"],  # a duplicate
    ["search", "--q", "3", "--k", "2", "--n", "5", "--see", "1"],  # an abbreviation
    ["bounds", "--q=3", "--k", "2"],
    ["bounds", "--q", "", "--k", "2"],
    ["verify", "--in", "x", "-h"],
    ["construct", "simplex", "--q", "3", "--verify-qm", "--verify-qm"],
    ["bounds", "--q", "3", "--k", "2", "--format", "xml"],  # not a choice
    ["construct", "bogus", "--q", "3"],
    ["search", "--q", "x", "--k", "2"],  # not an int
    ["search", "--q", "3"],  # --k missing
    ["construct", "--q", "3"],  # the kind missing
    ["verify", "--in", "x", "extra"],
    ["verify", "--in"],
])
def test_direct_parse_leaves_other_forms_to_argparse(argv):
    assert cli._parse_direct(argv) is None
    _direct_matches_argparse(argv)


_OPTIONS = sorted({option for _, arguments in cli._ARGUMENTS.values()
                   for option, _ in arguments if option.startswith("-")})
_TOKENS = [
    *_OPTIONS, *(option[:cut] for option in _OPTIONS for cut in (3, 4, 6) if cut < len(option)),
    "--q=3", "--k=2", "--format=csv", "--mode=exhaustive", "--in=x",
    "-5", "-1", "", "-h", "--help", "--", "--bogus",
    "0", "2", "3", "9", "5..6", "1,2", "x", "qm", "mws", "csv", "json", "random",
    "exhaustive", "simplex", "identity", "embed", "repetition",
]


@settings(max_examples=400, deadline=None)
@given(command=st.sampled_from([*COMMANDS, "verif"]), data=st.data())
def test_direct_parse_is_none_or_argparse_namespace(command, data):
    # the command's own options are drawn about as often as every other token
    own = [option for option, _ in cli._ARGUMENTS.get(command, ("", ()))[1]]
    pool = st.one_of(st.sampled_from(_TOKENS), st.sampled_from(own or _TOKENS))
    _direct_matches_argparse([command, *data.draw(st.lists(pool, max_size=10))])


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(COMMANDS), data=st.data())
def test_direct_parse_of_drawn_well_formed_argvs(command, data):
    # every argument of the command in a drawn order, each with a drawn value:
    # the direct parse takes the argv whenever argparse does
    argv = [command]
    for option, kwargs in data.draw(st.permutations(cli._ARGUMENTS[command][1])):
        if kwargs.get("action") == "store_true":
            if data.draw(st.booleans()):
                argv.append(option)
            continue
        value = data.draw(st.sampled_from(kwargs.get("choices", ["3", "12", "5..6", "x"])))
        argv += [value] if not option.startswith("-") else [option, value]
    if _direct_matches_argparse(argv):
        assert cli._parse_direct(argv) is not None


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
