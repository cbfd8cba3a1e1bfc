import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parahoric.cli import json_text, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_types_sl2_text(capsys):
    code, out, _ = run_cli(capsys, "types", "--group", "A1", "--order", "5")
    assert code == 0
    assert "types: 3" in out.splitlines()[-1]


def test_types_sl2_trivial_e1(capsys):
    code, out, _ = run_cli(capsys, "types", "--group", "A", "--rank", "1",
                           "--order", "1")
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
    code, out, err = run_cli(capsys, "types", "--group", "A3", "--order", "2",
                             "--action", "sl-J", "--cap", "1")
    assert (code, out) == (3, "")
    assert err == "cap exceeded: H^1 classes from sigma-orbit sums: 2 exceeds cap 1\n"
    code, out, _ = run_cli(capsys, "types", "--group", "A3", "--order", "2",
                           "--action", "sl-J", "--cap", "2")
    assert (code, out.splitlines()[-1]) == (0, "types: 1")


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


def test_twist_rejects_twisted_action(capsys):
    code, _, err = run_cli(capsys, "twist", "--group", "A3", "--order", "2",
                           "--action", "sl-J")
    assert code == 2 and "trivial" in err


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


def test_global_rejects_bad_config(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "global", "--config", str(path))
    assert code == 2
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
], ids=["fractional-order", "string-order", "fractional-rank", "boolean-rank",
        "fractional-permutation-entry", "float-point-entry", "boolean-point-entry"])
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


def test_global_names_a_nameless_branch_point_by_its_position(capsys, tmp_path):
    config = {"branch_points": [
        {"name": "None", "group": {"label": "A", "rank": 1}, "order": 2},
        {"group": {"label": "A", "rank": 1}, "order": 3}]}
    code, out, _ = run_cli(capsys, "global", "--config", write_config(tmp_path, config))
    assert code == 0
    assert "point None: A1" in out and "point x1: A1" in out


def test_alcove_reduction_step_cap(capsys, monkeypatch):
    monkeypatch.setattr("parahoric.alcove.MAX_REDUCTION_STEPS", 50)
    code, out, err = run_cli(capsys, "orbit", "--group", "A1", "--order", "1",
                             "--point", "10000000")
    assert (code, out) == (3, "")
    assert err.startswith("cap exceeded: alcove reduction: 50 reflections")
    assert "step cap 50" in err


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


@pytest.mark.parametrize("command", ["types", "twist"])
def test_huge_order_refused_by_the_grid_cap(capsys, command):
    # the norm 1 + A + ... + A^(e-1) is summed over one period of A, not e terms
    code, out, err = run_cli(capsys, command, "--group", "A3", "--order", "10000000")
    assert (code, out) == (3, "")
    assert err == "cap exceeded: torsion grid of size 10000000^3 exceeds cap 1000000\n"


def test_sl_types_compute_h1_once(capsys, monkeypatch):
    import parahoric.cli
    import parahoric.slmodel

    calls = []
    original = parahoric.slmodel.sl_torus_h1

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(parahoric.cli, "sl_torus_h1", counted)
    monkeypatch.setattr(parahoric.slmodel, "sl_torus_h1", counted)
    code, out, _ = run_cli(capsys, "types", "--group", "A3", "--order", "2",
                           "--action", "sl-Jprime")
    assert (code, out.splitlines()[-1]) == (0, "types: 2")
    assert len(calls) == 1


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
