import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parahoric.cli import json_text, main, parse_fraction

from .test_read_argv import ending


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_types_sl2_text(capsys):
    code, out, _ = run_cli(capsys, "types", "--group", "A1", "--order", "5")
    assert code == 0
    assert "types: 3" in out.splitlines()[-1]


def test_types_sl2_trivial_e1(capsys):
    code, out, _ = run_cli(capsys, "types", "--group", "A1", "--order", "1")
    assert code == 0
    assert out.splitlines()[-1] == "types: 1"


def test_types_sl4_jprime(capsys):
    code, out, _ = run_cli(capsys, "types", "--group", "A3", "--order", "2",
                           "--action", "sl-Jprime")
    assert code == 0
    assert out.splitlines()[-1] == "types: 2"


def test_types_json_roundtrip_and_determinism(capsys):
    code, out1, _ = run_cli(capsys, "types", "--group", "A1", "--order", "4",
                            "--format", "json")
    assert code == 0
    code, out2, _ = run_cli(capsys, "types", "--group", "A1", "--order", "4",
                            "--format", "json")
    assert out1 == out2
    parsed = json.loads(out1)
    assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == out1
    assert parsed["type_count"] == 2
    assert parsed["torus_h1"]["order"] == 4
    # rationals are strings, never floats
    assert parsed["class_representatives"][1] == ["1/4"]


# report-shaped values: str keys; text with non-ASCII and control characters
REPORT_TEXT = st.text(max_size=6)
REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30) | REPORT_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(REPORT_TEXT, inner, max_size=4),
    max_leaves=25,
)


@settings(database=None, max_examples=100, deadline=None)
@given(REPORT_VALUES)
def test_json_text_equals_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_text_escapes_like_json_dumps():
    value = {"x\u2080": ["\ud800", "\x00\x1f\x7f", "\"\\/", "\u00fc\U0001f600"], "": [[]], "a": {}}
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_text_refuses_values_outside_a_report():
    for value in (0.5, (1, 2), {1: "x"}, ["a", 0.5]):
        with pytest.raises(TypeError):
            json_text(value)


def test_types_rejects_bad_spec(capsys):
    code, _, err = run_cli(capsys, "types", "--group", "B2", "--order", "2",
                           "--action", "sl-J")
    assert code == 2 and "type A" in err
    code, _, err = run_cli(capsys, "types", "--group", "A3", "--order", "3",
                           "--action", "sl-J")
    assert code == 2
    code, _, err = run_cli(capsys, "types", "--group", "Q1", "--order", "2")
    assert code == 2


def test_types_cap_exceeded(capsys):
    code, _, err = run_cli(capsys, "types", "--group", "A1", "--order", "5",
                           "--cap", "3")
    assert code == 3 and "cap" in err


def test_types_diagram_trivial_h1(capsys):
    # the A2 flip has trivial H^1, so the single type is forced
    code, out, _ = run_cli(capsys, "types", "--group", "A2", "--order", "2",
                           "--action", "diagram", "--perm", "2,1")
    assert code == 0
    assert out.splitlines()[-1] == "types: 1"


def test_types_diagram_needs_lifts(capsys):
    # the A3 flip has H^1 of order 2; the CLI reports diagram types only
    # when H^1 = 0
    code, _, err = run_cli(capsys, "types", "--group", "A3", "--order", "2",
                           "--action", "diagram", "--perm", "3,2,1")
    assert code == 2 and "reported only when H^1 = 0" in err


def test_types_diagram_e6_at_e20_reaches_the_h1_refusal(capsys):
    # 40,000 classes from the sigma-orbit sums, where the grid of 20^6 points
    # exceeded the cap (exit 3 before the orbit-sum listing)
    code, out, err = run_cli(capsys, "types", "--group", "E6", "--order", "20",
                             "--action", "diagram", "--perm", "6,2,5,4,3,1")
    assert (code, out) == (2, "")
    assert "reported only when H^1 = 0, and here H^1 has order 40000" in err


def test_types_sl_involution_honours_the_cap(capsys):
    # the root closure of A3, |Phi+| r^2 = 6 * 9 = 54, is held to --cap before
    # a class is listed
    for cap in ("1", "53"):
        code, out, err = run_cli(capsys, "types", "--group", "A3", "--order", "2",
                                 "--action", "sl-J", "--cap", cap)
        assert (code, out) == (3, "")
        assert err == f"cap exceeded: root closure for A3: |Phi+| * r^2 = 54 exceeds cap {cap}\n"
    code, out, _ = run_cli(capsys, "types", "--group", "A3", "--order", "2",
                           "--action", "sl-J", "--cap", "54")
    assert (code, out.splitlines()[-1]) == (0, "types: 1")


@pytest.mark.parametrize("variant", ["J", "J-prime"])
def test_an_sl_involution_holds_its_root_closure_to_the_cap(capsys, tmp_path, variant):
    # A7 closes 28 positive roots under 7 reflections: |Phi+| r^2 = 1372, as
    # for the diagram flip of A7, by the flag and by a config point alike
    message = "cap exceeded: root closure for A7: |Phi+| * r^2 = 1372 exceeds cap 100\n"
    action = {"J": "sl-J", "J-prime": "sl-Jprime"}[variant]
    flags = ["types", "--group", "A7", "--order", "2", "--cap", "100"]
    assert run_cli(capsys, *flags, "--action", action) == (3, "", message)
    assert run_cli(capsys, *flags, "--action", "diagram", "--perm", "7,6,5,4,3,2,1") \
        == (3, "", message)
    cfg = write_config(tmp_path, {"branch_points": [
        {"group": {"label": "A", "rank": 7}, "order": 2,
         "action": {"kind": "sl-involution", "variant": variant}}]})
    assert run_cli(capsys, "global", "--config", cfg, "--cap", "100") == (3, "", message)
    assert run_cli(capsys, *flags[:-1], "1372", "--action", action)[0] == 0


def test_types_perm_needs_a_diagram_action(capsys):
    for action in (("--action", "sl-J"), ("--action", "trivial"), ()):
        code, out, err = run_cli(capsys, "types", "--group", "A2", "--order", "2",
                                 *action, "--perm", "2,1")
        assert (code, out) == (2, "") and "--perm applies only to diagram" in err


def test_twist_sl2_e5(capsys):
    code, out, _ = run_cli(capsys, "twist", "--group", "A1", "--order", "5",
                           "--point", "1/5")
    assert code == 0
    lines = out.splitlines()
    assert "type 2: point [1], facet: vertex {0}, hyperspecial" in lines
    assert sum("hyperspecial" in l for l in lines) == 1


def test_twist_single_class(capsys):
    code, out, _ = run_cli(capsys, "twist", "--group", "A1", "--order", "5",
                           "--point", "1/5", "--class", "0")
    assert code == 0
    assert "class 0: point [1/5], facet: Iwahori" in out


def test_twist_even_all_iwahori(capsys):
    code, out, _ = run_cli(capsys, "twist", "--group", "A1", "--order", "4",
                           "--point", "1/4")
    assert code == 0
    assert "hyperspecial" not in out
    assert out.count("Iwahori") == 2


@pytest.mark.parametrize("action", ["sl-J", "trivial"])
def test_twist_rejects_twisted_action(capsys, action):
    # twist runs on the trivial action only, so it takes no --action at all
    argv = ["twist", "--group", "A3", "--order", "2", "--action", action]
    code, out, err = ending(lambda: main(argv), capsys)
    assert (code, out) == (2, "") and f"unrecognized arguments: --action {action}" in err


@pytest.mark.parametrize("argv", [
    ["types", "--group", "A", "--order", "3"], ["types", "--group", "A1", "--order", "3"],
    ["twist", "--group", "A1", "--order", "3"], ["split-degree", "--group", "A1", "--point", "0"],
    ["orbit", "--group", "A1", "--order", "3"], ["data", "--group", "A1"],
], ids=["types-bare", "types", "twist", "split-degree", "orbit", "data"])
def test_the_rank_is_read_off_the_group_alone(capsys, argv):
    # --group carries the rank; a --rank beside it is no flag of any command
    code, out, err = ending(lambda: main(argv + ["--rank", "1"]), capsys)
    assert (code, out) == (2, "") and "unrecognized arguments: --rank 1" in err


def test_twist_rejects_bad_class(capsys):
    code, _, err = run_cli(capsys, "twist", "--group", "A1", "--order", "3",
                           "--class", "7")
    assert code == 2


def test_split_degree(capsys):
    code, out, _ = run_cli(capsys, "split-degree", "--group", "A1",
                           "--point", "1/3", "--char", "2")
    assert code == 0
    assert "degree: 3" in out and "tame: yes" in out
    code, out, _ = run_cli(capsys, "split-degree", "--group", "A1",
                           "--point", "1/3", "--char", "3")
    assert code == 0
    assert "tame: no (wild)" in out
    for char in ("1", "4", "-1", "-3"):
        code, out, err = run_cli(capsys, "split-degree", "--group", "A1",
                                 "--point", "1/3", "--char", char)
        assert (code, out) == (2, "") and "must be 0 or a prime" in err


def test_split_degree_large_characteristics(capsys):
    import time

    # a 19-digit prime is decided at once, not by trial division
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "split-degree", "--group", "A1", "--point", "1/3",
                           "--char", "1000000000000000003")
    assert code == 0 and "tame: yes" in out
    assert time.perf_counter() - start < 1
    # the strong pseudoprime to the bases 2..23 is not a prime
    code, _, err = run_cli(capsys, "split-degree", "--group", "A1", "--point", "1/3",
                           "--char", "3825123056546413051")
    assert code == 2 and "must be 0 or a prime" in err
    # at the bound of the deterministic test the check is refused
    code, out, err = run_cli(capsys, "split-degree", "--group", "A1", "--point", "1/3",
                             "--char", "3317044064679887385961981")
    assert (code, out) == (3, "")
    assert "primality test" in err and "3317044064679887385961981" in err


def test_data_e8(capsys):
    code, out, _ = run_cli(capsys, "data", "--group", "E8", "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["excluded_characteristics"] == [2, 3, 5]
    assert parsed["mark_primes"] == [2, 3, 5]


def test_orbit(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--group", "A1", "--order", "5",
                           "--point", "1/5")
    assert code == 0
    assert "count: 3" in out


def write_config(tmp_path, obj):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_global_two_sl2_points(capsys, tmp_path):
    cfg = write_config(tmp_path, {
        "schema_version": "1",
        "branch_points": [
            {"name": "x0", "group": {"label": "A", "rank": 1}, "order": 3,
             "action": {"kind": "trivial"}},
            {"name": "x1", "group": {"label": "A", "rank": 1}, "order": 3,
             "action": {"kind": "trivial"}},
        ],
    })
    code, out, _ = run_cli(capsys, "global", "--config", cfg, "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["pi0"] == 4
    assert len(parsed["tuples"]) == 4


def test_global_empty_branch_locus(capsys, tmp_path):
    cfg = write_config(tmp_path, {"schema_version": "1", "branch_points": []})
    code, out, _ = run_cli(capsys, "global", "--config", cfg)
    assert code == 0
    assert "pi0: 1" in out


def test_global_sl4_jprime(capsys, tmp_path):
    cfg = write_config(tmp_path, {
        "schema_version": "1",
        "branch_points": [
            {"name": "p", "group": {"label": "A", "rank": 3}, "order": 2,
             "action": {"kind": "sl-involution", "variant": "J-prime"}},
        ],
    })
    code, out, _ = run_cli(capsys, "global", "--config", cfg)
    assert code == 0
    assert "pi0: 2" in out


def test_global_with_point_override(capsys, tmp_path):
    # a branch point may carry its own base point; at the standard
    # hyperspecial base the e = 4 rank-one count is 3 instead of 2
    cfg = write_config(tmp_path, {
        "schema_version": "1",
        "branch_points": [
            {"name": "x0", "group": {"label": "A", "rank": 1}, "order": 4,
             "action": {"kind": "trivial"}, "point": ["0"]},
            {"name": "x1", "group": {"label": "A", "rank": 1}, "order": 4,
             "action": {"kind": "trivial"}},
        ],
    })
    code, out, _ = run_cli(capsys, "global", "--config", cfg, "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    counts = [bp["type_count"] for bp in parsed["branch_points"]]
    assert counts == [3, 2]
    assert parsed["pi0"] == 6


def test_global_reads_integer_point_entries_as_their_strings(capsys, tmp_path):
    runs = []
    for point in ([0], ["0"]):
        cfg = write_config(tmp_path, {"branch_points": [
            {"name": "x0", "group": {"label": "A", "rank": 1}, "order": 4, "point": point}]})
        runs.append(run_cli(capsys, "global", "--config", cfg))
    assert runs[0] == runs[1] and runs[0][0] == 0


def test_an_underscore_in_a_rational_is_refused_on_every_python(capsys, tmp_path):
    # Fraction reads "1_0" as 10 from Python 3.11 on, and refuses it before
    code, out, err = run_cli(capsys, "types", "--group", "A1", "--order", "3", "--point", "1_0")
    assert (code, out) == (2, "") and "not a rational number: '1_0'" in err
    cfg = write_config(tmp_path, {"branch_points": [
        {"name": "x0", "group": {"label": "A", "rank": 1}, "order": 3, "point": ["1_0"]}]})
    code, out, err = run_cli(capsys, "global", "--config", cfg)
    assert (code, out) == (2, "") and "not a rational number: '1_0'" in err


# Fraction reads "1e4400" as 10**4400 without writing it, but its 4,401
# digits are more than Python writes an int with by default (4,300), so no
# report or refusal could name it; "1e4000" still reaches the alcove cap
TOO_LONG = "1e4400"
INT_STR_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not 0 < INT_STR_LIMIT < 4401,
                    reason="this interpreter writes an int of 4,401 digits")
@pytest.mark.parametrize("command", [
    ["types", "--group", "A1", "--order", "2"],
    ["orbit", "--group", "A1", "--order", "2"],
    ["twist", "--group", "A1", "--order", "2"],
    ["split-degree", "--group", "A1"],
    "global",
], ids=lambda c: c if isinstance(c, str) else c[0])
def test_a_rational_too_long_to_write_is_a_usage_error(capsys, tmp_path, command):
    if command == "global":
        argv = ["global", "--config", write_config(tmp_path, {"branch_points": [
            {"name": "x0", "group": {"label": "A", "rank": 1}, "order": 2,
             "point": [TOO_LONG]}]})]
    else:
        argv = command + [f"--point={TOO_LONG}"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"'{TOO_LONG}'" in err and str(INT_STR_LIMIT) in err
    assert "Exceeds the limit" not in err and "Traceback" not in err
    if command != "global" and command[0] != "split-degree":
        code, out, err = run_cli(capsys, *command, "--point=1e4000")
        assert (code, out) == (3, "") and "cap exceeded: alcove reduction" in err


def test_a_rational_of_any_length_is_read_without_a_limit(monkeypatch):
    # a limit of 0, or a Python without the limit, refuses nothing
    if INT_STR_LIMIT:
        try:
            sys.set_int_max_str_digits(0)
            assert parse_fraction(TOO_LONG) == 10 ** 4400
        finally:
            sys.set_int_max_str_digits(INT_STR_LIMIT)
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert parse_fraction("-" + TOO_LONG) == -10 ** 4400


@pytest.mark.skipif(not 0 < INT_STR_LIMIT < 4301,
                    reason="this interpreter writes an int of 4,301 digits")
@pytest.mark.parametrize("argv,stage", [
    # 4,301-digit reflection counts of alcove.fold_numerators
    (["orbit", "--group", "A2", "--order", "1", "--point=9e4299,9e4299"],
     "alcove reduction of 10^4300 or more reflections"),
    (["twist", "--group", "A2", "--order", "1", "--point=9e4299,9e4299"],
     "alcove reduction of 10^4300 or more reflections"),
    # a 6,001-digit class count of h1_elements
    (["types", "--group", "E6", "--order", "2" + "0" * 1500,
      "--action", "diagram", "--perm", "6,2,5,4,3,1"],
     "H^1 classes from sigma-orbit sums: 10^6000 or more"),
    # a 4,400-digit |Phi+| r^2 estimate of build_root_datum
    (["data", "--group", "A1" + "0" * 1100],
     "root closure for A1" + "0" * 1100 + ": |Phi+| * r^2 = 10^4399 or more"),
], ids=["orbit", "twist", "types", "data"])
def test_a_count_too_long_to_write_is_a_cap_refusal(capsys, argv, stage):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"cap exceeded: {stage} exceeds cap 1000000\n"


def test_a_closed_output_pipe_exits_1_without_a_traceback():
    # types A2 at e = 100 writes about 3.4 MB, far more than a pipe holds
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.Popen(
        [sys.executable, "-m", "parahoric.cli", "types", "--group", "A2", "--order", "100"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == ""  # no traceback, nor any other message


def test_twist_and_global_json_roundtrip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "twist", "--group", "A1", "--order", "5",
                           "--point", "1/5", "--format", "json")
    assert code == 0
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out
    cfg = write_config(tmp_path, {
        "schema_version": "1",
        "branch_points": [
            {"name": "x0", "group": {"label": "A", "rank": 1}, "order": 3,
             "action": {"kind": "trivial"}},
        ],
    })
    code, out, _ = run_cli(capsys, "global", "--config", cfg, "--format", "json")
    assert code == 0
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


def test_global_product_cap(capsys, tmp_path):
    cfg = write_config(tmp_path, {
        "schema_version": "1",
        "branch_points": [
            {"name": f"x{i}", "group": {"label": "A", "rank": 1}, "order": 11,
             "action": {"kind": "trivial"}}
            for i in range(4)
        ],
    })
    code, out, _ = run_cli(capsys, "global", "--config", cfg, "--cap", "100")
    assert code == 3
    assert "pi0: 1296" in out  # the count is still printed
    assert "tuples omitted" in out


@pytest.mark.parametrize("version", [7, "2", 1], ids=["seven", "string-two", "integer-one"])
def test_global_reads_only_the_schema_it_writes(capsys, tmp_path, version):
    # a config of another schema is refused, naming its value, not read as "1"
    cfg = write_config(tmp_path, {"schema_version": version, "branch_points": []})
    assert run_cli(capsys, "global", "--config", cfg) == (
        2, "", f"error: unsupported schema_version {version!r}, not '1'\n")


@pytest.mark.parametrize("config", [{"schema_version": "1", "branch_points": []},
                                    {"branch_points": []}], ids=["one", "absent"])
def test_global_reads_schema_1_and_a_config_without_a_schema(capsys, tmp_path, config):
    code, out, _ = run_cli(capsys, "global", "--config", write_config(tmp_path, config))
    assert code == 0 and "pi0: 1" in out.splitlines()


def test_global_rejects_bad_config(capsys, tmp_path):
    path = tmp_path / "bad.json"
    # a 100,000-deep array used to end in a RecursionError traceback and exit 1
    for text in ("{not json", "[" * 100_000 + "]" * 100_000):
        path.write_text(text)
        code, out, err = run_cli(capsys, "global", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: config is not valid JSON: ")
        assert "Traceback" not in err
    if 0 < INT_STR_LIMIT < 4401:
        # json.load refuses an int it cannot write with a plain ValueError
        path.write_text('{"branch_points": [{"group": {"label": "A", "rank": 1}, '
                        '"order": 2, "point": [1' + "0" * 4400 + ']}]}')
        code, out, err = run_cli(capsys, "global", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: config cannot be read: ")
        assert "Traceback" not in err
    cfg = write_config(tmp_path, {"schema_version": "1"})
    code, _, err = run_cli(capsys, "global", "--config", cfg)
    assert code == 2


def test_cap_option_alone_sets_the_cap(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "types", "--group", "A1", "--order", "5", "--cap", "3")
    assert code == 3
    # no environment variable stands in for --cap
    monkeypatch.setenv("PARAHORIC_CAP", "3")
    code, _, err = run_cli(capsys, "types", "--group", "A1", "--order", "5")
    assert code == 0


def test_text_output_deterministic(capsys):
    outs = set()
    for _ in range(3):
        _, out, _ = run_cli(capsys, "types", "--group", "G2", "--order", "3")
        outs.add(out)
    assert len(outs) == 1


@pytest.mark.parametrize("config", [
    {"branch_points": [1]},
    {"branch_points": [{"name": "x0", "group": {"label": "A", "rank": 1},
                        "order": 3, "action": "trivial"}]},
    {"branch_points": [{"name": "x0", "group": {"label": "A", "rank": 1},
                        "order": 3, "point": 5}]},
    {"branch_points": [{"name": "x0", "group": {"label": "A", "rank": 2},
                        "order": 2, "action": {"kind": "diagram",
                                               "permutation": [None, 1]}}]},
    {"branch_points": [{"name": "x0", "group": {"label": "A", "rank": 1},
                        "order": 2.5}]},
    {"branch_points": [{"name": "x0", "group": {"label": "A", "rank": 1.9},
                        "order": 2}]},
    {"branch_points": [{"name": "x0", "group": {"label": "A", "rank": True},
                        "order": 2}]},
    {"branch_points": [{"name": "x0", "group": {"label": "A", "rank": 2},
                        "order": 2, "action": {"kind": "diagram",
                                               "permutation": [2.7, 1]}}]},
    # a JSON float is read through its binary value, so it is refused
    {"branch_points": [{"name": "x0", "group": {"label": "A", "rank": 1},
                        "order": 2, "point": [0.5000000000000000001]}]},
    {"branch_points": [{"name": "x0", "group": {"label": "A", "rank": 1},
                        "order": 4, "point": [0.25]}]},
], ids=["non-object-branch-point", "string-action", "non-list-point",
        "non-integer-permutation", "fractional-order", "fractional-rank",
        "boolean-rank", "fractional-permutation-entry", "float-point-entry",
        "binary-float-point-entry"])
def test_global_rejects_malformed_branch_point(capsys, tmp_path, config):
    code, out, err = run_cli(capsys, "global", "--config", write_config(tmp_path, config))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("group,order,perm,point,message", [
    ({"label": "A", "rank": 1}, 2.5, None, None,
     "branch point order must be an integer, not 2.5"),
    ({"label": "A", "rank": 1}, "2", None, None,
     "branch point order must be an integer, not '2'"),
    ({"label": "A", "rank": 1.9}, 2, None, None,
     "branch point rank must be an integer, not 1.9"),
    ({"label": "A", "rank": True}, 2, None, None,
     "branch point rank must be an integer, not True"),
    ({"label": "A", "rank": 2}, 2, [2.7, 1], None,
     "branch point permutation entry must be an integer, not 2.7"),
    ({"label": "A", "rank": 1}, 2, None, [0.5000000000000000001],
     "branch point point entry must be a string or an integer, not 0.5"),
    ({"label": "A", "rank": 1}, 2, None, [True],
     "branch point point entry must be a string or an integer, not True"),
    ({"label": None, "rank": 1}, 2, None, None, "branch point label must be a string, not None"),
    ({"label": True, "rank": 1}, 2, None, None, "branch point label must be a string, not True"),
    ({"label": 5, "rank": 1}, 2, None, None, "branch point label must be a string, not 5"),
], ids=["fractional-order", "string-order", "fractional-rank", "boolean-rank",
        "fractional-permutation-entry", "float-point-entry", "boolean-point-entry",
        "null-label", "boolean-label", "integer-label"])
def test_global_names_the_field_that_is_no_integer(capsys, tmp_path, group, order, perm,
                                                   point, message):
    bp = {"name": "x0", "group": group, "order": order}
    if perm is not None:
        bp["action"] = {"kind": "diagram", "permutation": perm}
    if point is not None:
        bp["point"] = point
    config = {"branch_points": [bp]}
    code, out, err = run_cli(capsys, "global", "--config", write_config(tmp_path, config))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("twist", "--group", "A1", "--order", "0"),
    ("orbit", "--group", "A1", "--order", "0"),
    ("orbit", "--group", "A1", "--order", "-2"),
])
def test_rejects_nonpositive_order(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: --order must be a positive integer\n"


@pytest.mark.parametrize("argv", [
    ("types", "--group", "A1", "--order", "3", "--cap", "-5"),
    ("types", "--group", "A1", "--order", "3", "--cap", "0"),
    ("twist", "--group", "A1", "--order", "3", "--cap", "0"),
    ("split-degree", "--group", "A1", "--point", "1/2", "--cap", "-1"),
    ("orbit", "--group", "A1", "--order", "3", "--cap", "0"),
    ("data", "--group", "A1", "--cap", "-1"),
    ("data", "--group", "A1", "--cap", "0"),
])
def test_rejects_caps_below_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: --cap must be a positive integer\n")


def test_global_rejects_a_cap_below_one(capsys, tmp_path):
    cfg = write_config(tmp_path, {"branch_points": []})
    code, out, err = run_cli(capsys, "global", "--config", cfg, "--cap", "0")
    assert (code, out, err) == (2, "", "error: --cap must be a positive integer\n")
    assert run_cli(capsys, "data", "--group", "A1", "--cap", "1")[0] == 0


@pytest.mark.parametrize("name", [{"a": 1}, None, 7, ["x0"], True],
                         ids=["object", "null", "integer", "list", "boolean"])
def test_global_refuses_branch_point_names_that_are_not_strings(capsys, tmp_path, name):
    config = {"branch_points": [
        {"name": name, "group": {"label": "A", "rank": 1}, "order": 2}]}
    code, out, err = run_cli(capsys, "global", "--config", write_config(tmp_path, config))
    assert (code, out, err) == (
        2, "", f"error: branch point name must be a string, not {name!r}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", ["x\npi0: 99", "x\r\n", "\u2028", "p\x0bq"])
def test_global_refuses_a_branch_point_name_that_breaks_a_line(capsys, tmp_path, name, fmt):
    # in text a line break in a name would forge report lines (`pi0: 99`);
    # a tab stays on its line and is written as given
    config = {"branch_points": [
        {"name": name, "group": {"label": "A", "rank": 1}, "order": 2}]}
    code, out, err = run_cli(capsys, "global", "--config", write_config(tmp_path, config),
                             "--format", fmt)
    assert (code, out, err) == (
        2, "", f"error: branch point name must be one line, not {name!r}\n")
    config["branch_points"][0]["name"] = "x\ty"
    code, out, _ = run_cli(capsys, "global", "--config", write_config(tmp_path, config),
                           "--format", fmt)
    written = out if fmt == "text" else json.loads(out)["branch_points"][0]["name"]
    assert code == 0 and "x\ty" in written


# a bare letter has no rank, so it is named as any other suffix is
@pytest.mark.parametrize("group", ["A²", "A", "AB", "b", "A2x", "A 2"])
def test_a_group_suffix_that_is_no_decimal_rank_is_named(capsys, group):
    assert run_cli(capsys, "types", "--group", group, "--order", "2") == (
        2, "", f"error: --group {group!r} is not a letter followed by a decimal rank\n")


@pytest.mark.parametrize("group,label", [("A2", "A2"), (" a3 ", "A3"), ("A٣", "A3"),
                                         ("b2", "B2"), ("c02", "C2")])
def test_every_decimal_rank_suffix_is_still_read(capsys, group, label):
    code, out, _ = run_cli(capsys, "data", "--group", group)
    assert code == 0 and out.splitlines()[0] == f"group: {label}"


def test_cli_imports_no_private_name_of_the_package():
    # cli reaches the library through its public calls (type_orbits among them)
    import ast

    import parahoric.cli

    tree = ast.parse(Path(parahoric.cli.__file__).read_text(encoding="utf-8"))
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("parahoric"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_global_names_a_nameless_branch_point_by_its_position(capsys, tmp_path):
    config = {"branch_points": [
        {"name": "None", "group": {"label": "A", "rank": 1}, "order": 2},
        {"group": {"label": "A", "rank": 1}, "order": 3}]}
    code, out, _ = run_cli(capsys, "global", "--config", write_config(tmp_path, config))
    assert code == 0
    assert "point None: A1" in out and "point x1: A1" in out


def test_alcove_reduction_step_cap(capsys, monkeypatch):
    # the 9999999 walls between the point and the alcove are counted and
    # refused before the fold reads the theta-coroot for its first reflection
    import parahoric.rootdata

    monkeypatch.setattr(parahoric.rootdata.RootDatum, "theta_coroot",
                        property(lambda self: pytest.fail("a reflection ran")))
    code, out, err = run_cli(capsys, "orbit", "--group", "A1", "--order", "1",
                             "--point", "10000000", "--cap", "50")
    assert (code, out, err) == (
        3, "", "cap exceeded: alcove reduction of 9999999 reflections exceeds cap 50\n")
    code, out, err = run_cli(capsys, "types", "--group", "A1", "--order", "3",
                             "--point", "1e30")
    assert (code, out) == (3, "")
    assert err == (f"cap exceeded: alcove reduction of {10 ** 30 - 1} reflections "
                   f"exceeds cap 1000000\n")


@pytest.mark.parametrize("argv,message", [
    (["types", "--group", "Z2", "--order", "2", "--point", "1"], "unknown label 'Z'"),
    (["types", "--group", "A0", "--order", "2", "--point", "1"], "A_n needs n >= 1"),
    (["types", "--group", "D3", "--order", "2", "--action", "diagram", "--perm", "1"],
     "D_n needs n >= 4"),
], ids=["label", "rank", "perm"])
def test_a_bad_group_is_named_before_the_point_and_the_permutation(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("action,extra,message", [
    ({"kind": "sl-involution"}, {"point": ["1"]},
     "branch point 'point' applies only to trivial actions"),
    ({"kind": "diagram", "permutation": [1, 1]}, {},
     "branch point 'permutation' is not a permutation of the nodes"),
    ({"kind": "diagram", "permutation": [2, 1, 3]}, {},
     "branch point 'permutation' is not a permutation of the nodes"),
    ({"kind": "trivial"}, {"order": 0},
     "branch point 'order' must be a positive integer, not 0"),
    ({"kind": "diagram", "permutation": [3, 2, 1]}, {"group": {"label": "A", "rank": 3}, "order": 3},
     "branch point 'permutation' has order 2, which must divide the branch point 'order' 3"),
    ({"kind": "trivial", "permutation": [2, 1]}, {},
     "branch point 'permutation' applies only to diagram actions"),
    ({"kind": "sl-involution", "permutation": [2, 1]}, {},
     "branch point 'permutation' applies only to diagram actions"),
], ids=["point-on-an-involution", "repeated-entry", "wrong-length", "order-zero",
        "order-not-a-multiple", "permutation-on-trivial", "permutation-on-an-involution"])
def test_global_names_its_own_config_fields(capsys, tmp_path, action, extra, message):
    config = {"branch_points": [
        dict({"group": {"label": "A", "rank": 2}, "order": 2, "action": action}, **extra)]}
    code, out, err = run_cli(capsys, "global", "--config", write_config(tmp_path, config))
    assert (code, out, err) == (2, "", f"error: {message}\n")


# the names of the order, permutation and point in a refusal: by flag, by config key
FLAG_FIELDS = {"order": "--order", "perm": "--perm", "point": "--point"}
CONFIG_FIELDS = {"order": "branch point 'order'", "perm": "branch point 'permutation'",
                 "point": "branch point 'point'"}


def one_point_config(group, order, action, perm=None, point=None):
    """The ``global`` config of the branch point the ``types`` flags give."""
    variant = {"sl-J": "J", "sl-Jprime": "J-prime"}.get(action)
    bp = {"group": {"label": group[0], "rank": int(group[1:])}, "order": order,
          "action": {"kind": "sl-involution", "variant": variant} if variant else {"kind": action}}
    if perm is not None:
        bp["action"]["permutation"] = perm
    if point is not None:
        bp["point"] = point
    return {"branch_points": [bp]}


def types_flags(group, order, action, perm=None, point=None):
    argv = ["types", "--group", group, "--order", str(order), "--action", action]
    if perm is not None:
        argv += ["--perm", ",".join(map(str, perm))]
    if point is not None:
        argv += ["--point", ",".join(point)]
    return argv


def reason(message, fields):
    for field, name in fields.items():
        message = message.replace(name, f"<{field}>")
    return message


@pytest.mark.parametrize("spec,flag_error,config_error", [
    (("Z2", 2, "trivial"), "unknown label 'Z'", "unknown label 'Z'"),
    (("A2", 0, "trivial"), "--order must be a positive integer",
     "branch point 'order' must be a positive integer, not 0"),
    (("A2", 2, "sl-J", None, ["1/2", "0"]), "--point applies only to trivial actions",
     "branch point 'point' applies only to trivial actions"),
    (("A2", 2, "trivial", [2, 1]), "--perm applies only to diagram actions",
     "branch point 'permutation' applies only to diagram actions"),
    (("A2", 2, "diagram", [1, 1]), "--perm is not a permutation of the nodes",
     "branch point 'permutation' is not a permutation of the nodes"),
    (("A3", 3, "diagram", [3, 2, 1]), "--perm has order 2, which must divide the --order 3",
     "branch point 'permutation' has order 2, which must divide the branch point 'order' 3"),
    (("D4", 3, "diagram", [2, 3, 1, 4]), "--perm is not a Dynkin-diagram symmetry",
     "branch point 'permutation' is not a Dynkin-diagram symmetry"),
    # several faults: both name the first in the shared order
    (("Z3", 2, "diagram", [1, 1, 1]), "unknown label 'Z'", "unknown label 'Z'"),
    (("D3", 2, "sl-J", None, ["1", "1", "1"]), "D_n needs n >= 4", "D_n needs n >= 4"),
    (("A2", 0, "trivial", None, ["1"]), "--order must be a positive integer",
     "branch point 'order' must be a positive integer, not 0"),
    (("Z2", 2, "trivial", None, ["x", "0"]), "unknown label 'Z'", "unknown label 'Z'"),
], ids=["group", "order-below-one", "point-on-an-involution", "permutation-on-trivial",
        "not-a-permutation", "order-not-a-multiple", "not-a-symmetry", "label-and-permutation",
        "group-and-point", "order-and-point-length", "label-and-unreadable-point"])
def test_flags_and_config_share_each_refusal(capsys, tmp_path, spec, flag_error, config_error):
    # one check of a branch point: the same reason, each naming its own field
    assert run_cli(capsys, *types_flags(*spec)) == (2, "", f"error: {flag_error}\n")
    code, out, err = run_cli(capsys, "global", "--config",
                             write_config(tmp_path, one_point_config(*spec)))
    assert (code, out, err) == (2, "", f"error: {config_error}\n")
    # the same reason with the field names masked; a config also quotes a bad order
    assert reason(flag_error, FLAG_FIELDS) == reason(config_error, CONFIG_FIELDS).replace(
        ", not 0", "")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("action", [{"kind": "trivial", "variant": "J"},
                                    {"kind": "diagram", "permutation": [2, 1], "variant": "J"}],
                         ids=["trivial", "diagram"])
def test_global_refuses_a_variant_off_an_sl_involution(capsys, tmp_path, action, fmt):
    # a variant belongs to an SL involution; on another action it is refused, not dropped
    config = {"branch_points": [{"group": {"label": "A", "rank": 2}, "order": 2,
                                 "action": action}]}
    code, out, err = run_cli(capsys, "global", "--config", write_config(tmp_path, config),
                             "--format", fmt)
    assert (code, out, err) == (
        2, "", "error: branch point 'variant' applies only to sl-involution actions\n")


ONE_BRANCH_POINT = {"group": {"label": "A", "rank": 1}, "order": 4, "point": ["0"]}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("config,message", [
    ({"branch_points": [ONE_BRANCH_POINT], "extra": 1}, "unknown key 'extra' in the config"),
    # a misspelt "point": the default base would answer pi0 = 2, the point 0 gives 3
    ({"branch_points": [{"group": {"label": "A", "rank": 1}, "order": 4, "pont": ["0"]}]},
     "unknown key 'pont' in branch point 0"),
    ({"branch_points": [ONE_BRANCH_POINT, dict(ONE_BRANCH_POINT, name="x1",
                                               group={"label": "A", "rank": 1, "rnak": 2})]},
     "unknown key 'rnak' in branch point 'group'"),
    ({"branch_points": [{"group": {"label": "A", "rank": 2}, "order": 2, "action": {
        "kind": "diagram", "permutation": [2, 1], "permuation": [1, 2]}}]},
     "unknown key 'permuation' in branch point 'action'"),
], ids=["top-level", "branch-point", "group", "action"])
def test_global_refuses_an_unknown_key(capsys, tmp_path, config, message, fmt):
    # an unknown key is refused, not dropped in favour of its default
    code, out, err = run_cli(capsys, "global", "--config", write_config(tmp_path, config),
                             "--format", fmt)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_diagram_branch_point_builds_its_automorphism_once(capsys, tmp_path, monkeypatch):
    import parahoric.cli

    calls = []
    original = parahoric.cli.diagram_automorphism
    monkeypatch.setattr(parahoric.cli, "diagram_automorphism",
                        lambda *args: calls.append(args) or original(*args))
    config = one_point_config("A2", 2, "diagram", [2, 1])
    code, out, _ = run_cli(capsys, "global", "--config", write_config(tmp_path, config))
    assert (code, out.splitlines()[0]) == (0, "point x0: A2 order 2 (diagram 2,1) -> types 1")
    assert len(calls) == 1


def test_orbit_over_cap_refused_before_weyl_closure(capsys, monkeypatch):
    # |W(E6)| * 2^6 exceeds the default cap: refused from the order formula
    def no_closure(*args, **kwargs):
        raise AssertionError("the Weyl group must not be enumerated")

    monkeypatch.setattr("parahoric.rootdata.weyl_elements", no_closure)
    monkeypatch.setattr("parahoric.cohomology.weyl_elements", no_closure)
    code, out, err = run_cli(capsys, "orbit", "--group", "E6", "--order", "2")
    assert (code, out) == (3, "")
    assert err == ("cap exceeded: apartment orbit of size 51840*2^6 "
                   "exceeds cap 1000000\n")


@pytest.mark.parametrize("group,order", [("E7", 2903040), ("E8", 696729600)])
def test_orbit_refusal_names_the_apartment_orbit_not_the_weyl_closure(capsys, group, order):
    # |W| alone passes the cap at e = 1; orbit never closes W, so its refusal
    # names its own stage
    code, out, err = run_cli(capsys, "orbit", "--group", group, "--order", "1")
    assert (code, out) == (3, "")
    assert err == f"cap exceeded: apartment orbit of size {order}*1^{group[1]} exceeds cap 1000000\n"


@pytest.mark.parametrize("command", ["types", "twist"])
def test_huge_order_refused_by_the_grid_cap(capsys, command):
    # the norm 1 + A + ... + A^(e-1) is summed over one period of A, not e terms
    code, out, err = run_cli(capsys, command, "--group", "A3", "--order", "10000000")
    assert (code, out) == (3, "")
    assert err == "cap exceeded: torsion grid of size 10000000^3 exceeds cap 1000000\n"


def test_sl_types_compute_h1_once(capsys, monkeypatch):
    import parahoric.cli
    import parahoric.cohomology
    import parahoric.slmodel

    calls = []
    original = parahoric.cohomology.h1_elements

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (parahoric.cli, parahoric.cohomology, parahoric.slmodel):
        monkeypatch.setattr(module, "h1_elements", counted)
    code, out, _ = run_cli(capsys, "types", "--group", "A3", "--order", "2",
                           "--action", "sl-Jprime")
    assert (code, out.splitlines()[-1]) == (0, "types: 2")
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ("data", "--group", "A100"),
    ("split-degree", "--group", "A120", "--point", ",".join(["0"] * 120)),
    ("orbit", "--group", "D40", "--order", "1"),
    ("types", "--group", "A120", "--order", "1"),
    ("types", "--group", "A120", "--order", "2", "--action", "sl-J"),
    ("types", "--group", "B40", "--order", "2", "--action", "diagram",
     "--perm", ",".join(map(str, range(1, 41)))),
    ("twist", "--group", "C40", "--order", "1"),
])
def test_large_ranks_are_refused_before_the_root_closure(capsys, monkeypatch, argv):
    def no_closure(*args, **kwargs):
        raise AssertionError("the root closure must not start")

    monkeypatch.setattr("parahoric.rootdata._positive_roots", no_closure)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("cap exceeded: ") and " exceeds " in err


@pytest.mark.parametrize("argv", [
    ("types", "--group", "A1000000000000", "--order", "1"),
    ("types", "--group", "A1000000", "--order", "2"),
    ("types", "--group", "A1000000000000", "--order", "2", "--action", "sl-J"),
    ("twist", "--group", "D1000000000000", "--order", "1"),
    ("orbit", "--group", "B1000000000000", "--order", "1"),
    ("data", "--group", "C1000000000000"),
])
def test_huge_ranks_are_refused_before_any_work_of_their_size(capsys, monkeypatch, argv):
    # the default point, the only list of rank entries the program makes
    # itself, is made only after every cap has passed
    def refuse(*args, **kwargs):
        raise AssertionError("a point of the rank was made before the cap")

    monkeypatch.setattr("parahoric.cli.point_or_default", refuse)
    monkeypatch.setattr("parahoric.rootdata._cartan_matrix", refuse)
    monkeypatch.setattr("parahoric.rootdata._positive_roots", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("cap exceeded: ")


def test_the_root_closure_takes_the_cap(capsys, tmp_path):
    # E8 closes 120 positive roots under 8 reflections: |Phi+| r^2 = 7680
    code, out, err = run_cli(capsys, "data", "--group", "E8", "--cap", "7679")
    assert (code, out) == (3, "")
    assert err == "cap exceeded: root closure for E8: |Phi+| * r^2 = 7680 exceeds cap 7679\n"
    assert run_cli(capsys, "data", "--group", "E8", "--cap", "7680")[0] == 0
    cfg = write_config(tmp_path, {"branch_points": [
        {"group": {"label": "E", "rank": 8}, "order": 1}]})
    code, out, err = run_cli(capsys, "global", "--config", cfg, "--cap", "7679")
    assert (code, out) == (3, "")
    assert "root closure for E8" in err
    # a bad label or rank keeps its exit 2 and message under any cap
    for cap in ("1", "1000000"):
        code, _, err = run_cli(capsys, "types", "--group", "D3", "--order", "5", "--cap", cap)
        assert (code, err) == (2, "error: D_n needs n >= 4\n")


FAR_OFF_GRID_E8 = "--point=999,5/11,-7/3,999,13/4,2/9,-1000/7,-512"


@pytest.mark.parametrize("command", ["types", "twist"])
def test_off_grid_point_rejected_before_the_fold(capsys, monkeypatch, command):
    def no_fold(*args, **kwargs):
        raise AssertionError("an off-grid point must not be folded into the alcove")

    monkeypatch.setattr("parahoric.cli.reduce_to_alcove", no_fold)
    code, out, err = run_cli(capsys, command, "--group", "E8", "--order", "1",
                             FAR_OFF_GRID_E8)
    assert (code, out) == (2, "")
    assert err == ("error: base point must lie on the (1/1)-grid: the value 5/11 "
                   "of the root a2 is not in (1/1)Z\n")


def test_off_grid_point_over_the_grid_cap_is_a_cap_error(capsys, monkeypatch):
    monkeypatch.setattr("parahoric.cli.reduce_to_alcove", None)
    code, out, err = run_cli(capsys, "types", "--group", "E8", "--order", "6",
                             FAR_OFF_GRID_E8)
    assert (code, out) == (3, "")
    assert err == "cap exceeded: torsion grid of size 6^8 exceeds cap 1000000\n"


def test_sl_types_over_the_cap_name_the_stage(capsys):
    code, out, err = run_cli(capsys, "types", "--group", "A8", "--order", "2",
                             "--action", "sl-J")
    assert (code, out) == (3, "")
    assert err == ("cap exceeded: twisted W^gamma orbits of SL_9: n = 9 exceeds "
                   "the cap n <= 8\n")
