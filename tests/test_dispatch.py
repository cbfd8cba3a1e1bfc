"""The one dispatch of the command line: each ``cmd_*`` returns the body of
its report, and :func:`parahoric.cli.main` reads ``--group``, writes the
header and calls :func:`parahoric.cli.emit` once per report."""

import json

import pytest

import parahoric.cli as cli
from parahoric.cli import COMMANDS, main, parse_group, read_argv

from .test_golden_cli import load_cases, run_case

CONFIG = {"branch_points": [{"group": {"label": "A", "rank": 1}, "order": 3},
                            {"group": {"label": "A", "rank": 3}, "order": 2,
                             "action": {"kind": "sl-involution", "variant": "J-prime"}}]}

# one well-formed command line per command; {config} stands for a file of CONFIG
ONE_ARGV = {
    "types": ["types", "--group", "A2", "--order", "3"],
    "twist": ["twist", "--group", "A1", "--order", "4"],
    "split-degree": ["split-degree", "--group", "B2", "--point", "1/2,0"],
    "orbit": ["orbit", "--group", "A2", "--order", "2"],
    "data": ["data", "--group", "E6"],
    "global": ["global", "--config", "{config}"],
}


def with_config(argv, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG), encoding="utf-8")
    return [str(path) if a == "{config}" else a for a in argv]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_each_command_returns_its_report_body_and_writes_nothing(name, tmp_path, capsys):
    argv = with_config(ONE_ARGV[name], tmp_path)
    args = read_argv(argv)
    if "--group" in COMMANDS[name].flags:
        args.label, args.rank = parse_group(args.group)
    body = COMMANDS[name].func(args)
    assert type(body) is dict
    assert not {"schema_version", "command"} & set(body)
    assert capsys.readouterr() == ("", "")
    # main writes that body after its header, in JSON as the renderer reads it
    assert main(argv + ["--format", "json"]) == 0
    header = {"schema_version": "1", "command": name}
    if "--group" in COMMANDS[name].flags:  # a `types` body repeats it
        header["group"] = {"label": args.label, "rank": args.rank}
    assert capsys.readouterr().out == cli.json_text({**header, **body}) + "\n"


def counting_emit(monkeypatch):
    calls = []
    emit = cli.emit

    def count(*args):
        calls.append(args)
        return emit(*args)

    monkeypatch.setattr(cli, "emit", count)
    return calls


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_main_emits_once_per_command(name, tmp_path, monkeypatch, capsys):
    calls = counting_emit(monkeypatch)
    assert main(with_config(ONE_ARGV[name], tmp_path)) == 0
    assert len(calls) == 1
    report, fmt, render = calls[0]
    assert (report["command"], fmt, render) == (name, "text", COMMANDS[name].render)
    assert capsys.readouterr().out == "\n".join(render(report)) + "\n"


@pytest.mark.parametrize("case", [c for c in load_cases() if "--cap" in c["argv"]
                                  and c["argv"][0] == "global"],
                         ids=lambda c: " ".join(c["argv"]))
def test_the_capped_global_report_is_written_once_and_exits_3(case, tmp_path, monkeypatch):
    calls = counting_emit(monkeypatch)
    assert run_case(case, tmp_path) == (3, case["stdout_sha256"])
    assert len(calls) == 1
    report, _, render = calls[0]
    assert report["tuples"] is None and render is COMMANDS["global"].render


# an empty value reaches the check of its own flag
@pytest.mark.parametrize("argv,message", [
    (["types", "--group=", "--order", "3"],
     "--group '' is not a letter followed by a decimal rank"),
    (["data", "--group="], "--group '' is not a letter followed by a decimal rank"),
    (["split-degree", "--group", "A1", "--point="], "not a rational number: ''"),
], ids=["types-group", "data-group", "split-degree-point"])
def test_an_empty_value_is_named_by_its_own_flag(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
