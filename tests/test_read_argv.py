"""The exact reader of the command line against argparse.

``cli.read_argv`` reads a command and its spelled-out flags in one pass over
``cli.COMMANDS``, the table ``build_parser`` builds argparse from, and declines
everything else.  Whenever it returns a namespace, that namespace must be the
one argparse builds; whatever it declines must end in ``main`` exactly as
argparse ends it; and a command line it reads builds no parser.
"""

import argparse
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parahoric.cli import COMMANDS, build_parser, main, read_argv

from .test_golden_cli import load_cases, run_case

PARSER = build_parser()

# values each fault puts in place of a well-formed one
DASH_VALUES = ["-1", "-1/2", "-x", "-", "--", "--group", "-h"]
BAD_INTEGERS = ["x", "3.5", "1e3", "0x10", "", "1/2", "A1"]
UNKNOWN_COMMANDS = ["bogus", "type", "Types", "", "-h", "--help", "--group"]
UNKNOWN_FLAGS = [("--bogus", "1"), ("-x", "1"), ("--group-name", "A1"), ("--help", None),
                 ("-h", None), ("--", None), ("--order", None)]
FAULTS = ["abbreviate", "dash value", "empty value", "non-integer value", "unknown flag",
          "unknown command", "no command", "missing required flag"]


def value_of(keywords):
    """A value argparse reads for a flag of these ``add_argument`` keywords:
    one of its choices, a string its type reads as an int, or a string that
    starts with no dash."""
    if "choices" in keywords:
        return st.sampled_from(sorted(keywords["choices"]))
    if keywords.get("type") is int:
        return st.integers(0, 10 ** 20).map(str) | st.sampled_from([" 7", "1_0", "+4", "٣", "１２"])
    return st.text(alphabet="AE12/,= x", max_size=6).filter(lambda v: not v.startswith("-"))


@st.composite
def queries(draw):
    """(argv, faults): a well-formed query, every required flag and some
    optional ones, a few of them given twice, each as ``--flag value`` or
    ``--flag=value``, with the listed faults put in."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[command].flags
    chosen = [f for f in flags if flags[f].get("required") or draw(st.booleans())]
    chosen = draw(st.permutations(chosen + draw(st.lists(st.sampled_from(list(flags)), max_size=2))))
    items = [[f, draw(value_of(flags[f])), draw(st.booleans()), f] for f in chosen]
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=2))
    for fault in faults:
        index = draw(st.integers(0, max(len(items) - 1, 0)))
        if fault == "unknown command":
            command = draw(st.sampled_from(UNKNOWN_COMMANDS))
        elif fault == "no command":
            command = None
        elif fault == "unknown flag":
            items.insert(index, [*draw(st.sampled_from(UNKNOWN_FLAGS)), False, None])
        elif fault == "missing required flag":
            dropped = draw(st.sampled_from([f for f in flags if flags[f].get("required")]
                                           or [None]))
            items = [item for item in items if item[3] is not dropped]
        elif items:
            item = items[index]
            if fault == "abbreviate":
                item[0] = item[0][:draw(st.integers(1, max(len(item[0]) - 1, 1)))]
            elif fault == "dash value":
                item[1] = draw(st.sampled_from(DASH_VALUES))
            elif fault == "empty value":
                item[1] = ""
            else:
                item[1] = draw(st.sampled_from(BAD_INTEGERS))
    argv = [] if command is None else [command]
    for flag, value, joined, _ in items:
        argv += [flag] if value is None else [f"{flag}={value}"] if joined else [flag, value]
    return argv, faults


@settings(database=None, max_examples=600, deadline=None)
@given(queries())
def test_the_reader_returns_what_argparse_returns_or_declines(query):
    argv, faults = query
    args = read_argv(argv)
    if not faults:
        assert args is not None, argv  # a well-formed query takes the exact reader
    if args is not None:
        assert vars(args) == vars(PARSER.parse_args(argv))


def golden_argvs():
    return [case["argv"] for case in load_cases()]


# the one golden value with a leading dash, which argparse reads
DASHED_GOLDEN = [["split-degree", "--group", "A1", "--point", "1/3", "--char", "-1"]]


@pytest.mark.parametrize("argv", golden_argvs(), ids=" ".join)
def test_every_golden_command_line_takes_the_exact_reader(argv):
    args = read_argv(argv)
    assert (args is None) == (argv in DASHED_GOLDEN)
    if args is not None:
        assert vars(args) == vars(PARSER.parse_args(argv))


def test_a_value_joined_by_an_equals_sign_may_start_with_a_dash_but_not_be_two():
    # argparse reads a joined value as it is written, except `--`, which it
    # refuses as a flag with no value
    argv = ["orbit", "--group", "B2", "--order=-2", "--point=-7/2,-1"]
    assert vars(read_argv(argv)) == vars(PARSER.parse_args(argv))
    assert read_argv(["data", "--group=--"]) is None


def test_the_table_holds_the_flags_of_each_command_and_not_help():
    assert sorted(COMMANDS) == ["data", "global", "orbit", "split-degree", "twist", "types"]
    for command in COMMANDS.values():
        assert all(flag.startswith("--") for flag in command.flags)
        assert "-h" not in command.flags and "--help" not in command.flags
    assert list(COMMANDS["data"].flags) == ["--group", "--format", "--cap"]
    # each input in one place: the rank in --group, and no --action on twist
    assert list(COMMANDS["twist"].flags) == ["--group", "--order", "--format", "--cap",
                                             "--point", "--class"]
    assert not any("--rank" in command.flags for command in COMMANDS.values())


def ending(call, capsys):
    """(exit code, stdout, stderr) of ``call``, which ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        call()
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


FALLBACKS = [[], ["bogus"], ["-h"]] + [[command, "--help"] for command in sorted(COMMANDS)] + [
    ["types", "--group", "A1", "--order", "3", "--point", "-1/2"],
    ["types", "--group", "A1"],
    ["types", "--group", "A1", "--order", "x"],
    ["types", "--group", "A1", "--order", "3", "--format", "xml"],
    ["types", "--group", "A1", "--order", "3", "--bogus", "1"],
    ["types", "--group", "A1", "--order", "3", "--"],
    ["types", "--gr=--", "--order", "3"],
]


@pytest.mark.parametrize("argv", FALLBACKS, ids=" ".join)
def test_a_declined_command_line_ends_as_argparse_ends_it(argv, capsys):
    assert read_argv(argv) is None
    assert ending(lambda: main(argv), capsys) == ending(lambda: PARSER.parse_args(argv), capsys)


def test_an_abbreviated_command_line_is_read_by_argparse(capsys):
    argv = ["types", "--gr", "A1", "--ord", "3"]
    assert read_argv(argv) is None
    assert isinstance(PARSER.parse_args(argv), argparse.Namespace)
    assert main(argv) == 0
    abbreviated = capsys.readouterr()
    assert main(["types", "--group", "A1", "--order", "3"]) == 0
    assert capsys.readouterr() == abbreviated


# one well-formed command line of each command; {config} is a file holding CONFIG
WELL_FORMED = {
    "types": ["--group", "A1", "--order", "3"],
    "twist": ["--group", "A1", "--order", "3"],
    "split-degree": ["--group", "A1", "--point", "1/3"],
    "orbit": ["--group", "A1", "--order", "3"],
    "data": ["--group", "A1"],
    "global": ["--config", "{config}"],
}
CONFIG = {"branch_points": [{"group": {"label": "A", "rank": 1}, "order": 2}]}


def well_formed(command, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    return [command] + [str(config) if a == "{config}" else a for a in WELL_FORMED[command]]


JOINED = [(command, flag) for command in COMMANDS for flag in COMMANDS[command].flags]


@pytest.mark.parametrize("command, flag", JOINED, ids=[f"{c} {f}=--" for c, f in JOINED])
def test_a_flag_joined_to_two_dashes_is_a_usage_error(command, flag, tmp_path, capsys):
    argv = well_formed(command, tmp_path)
    if flag in argv:
        del argv[argv.index(flag):argv.index(flag) + 2]
    code, out, err = ending(lambda: main(argv + [flag + "=--"]), capsys)
    assert (code, out) == (2, "")
    assert f"error: argument {flag}: " in err and "Traceback" not in err


class ParserBuilt(Exception):
    pass


@pytest.fixture
def no_parser(monkeypatch):
    """``argparse.ArgumentParser()`` raises ParserBuilt, and no parser is cached."""
    def refuse(*args, **kwargs):
        raise ParserBuilt
    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    yield
    assert build_parser.cache_info().currsize == 0


@pytest.mark.parametrize("command", sorted(WELL_FORMED))
def test_a_well_formed_command_line_builds_no_parser(command, no_parser, tmp_path, capsys):
    assert main(well_formed(command, tmp_path)) == 0
    assert capsys.readouterr().out


def test_every_golden_command_line_the_reader_takes_builds_no_parser(no_parser, tmp_path):
    cases = [case for case in load_cases() if case["argv"] not in DASHED_GOLDEN]
    assert len(cases) == len(golden_argvs()) - len(DASHED_GOLDEN)
    for case in cases:
        assert run_case(case, tmp_path) == (case["exit"], case["stdout_sha256"]), case["argv"]


@pytest.mark.parametrize("argv", [["-h"], ["types", "--gr", "A1", "--ord", "3"]], ids=" ".join)
def test_help_and_an_abbreviated_flag_reach_argparse(argv, no_parser):
    with pytest.raises(ParserBuilt):
        main(argv)
