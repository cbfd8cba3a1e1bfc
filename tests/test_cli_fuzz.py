"""Seeded fuzz of the command line: every input ends in exit 0, 2 or 3.

About 300 argument vectors over every subcommand, drawn from valid and
malformed groups, orders, points, permutations, caps and ``global`` configs,
and 120 ``types``/``twist`` vectors with far and off-grid base points in
ranks 1 to 8.  The commands run in-process, so an exception escaping
``main`` fails the test just as a traceback would end the command.
"""

import json
import random

from parahoric.cli import main

SEED = 20240607
COUNT = 300

# each pool lists valid entries first; `pick` draws a malformed one rarely
GROUPS = (["A1", "A2", "A3", "B2", "C2", "G2", "B3", "C3", "D4", "F4", "E6", "E8", "b2"],
          ["A", "Q1", "A0", "D3", "G3", "A-1", ""])
SMALL_ORDERS = (["1", "2", "3", "4", "5", "10000000"], ["0", "-2", "x"])
ORBIT_ORDERS = (["1", "2", "3", "5", "12", "60", "10000000", "10" * 12],
                ["0", "-2", "-1000000", "x"])
VALUES = (["0", "1", "-1", "1/2", "-7/3", "5/11", "2/9", "13/4", "0.5"],
          ["1/0", "abc", ""])
# far and negative root values for `orbit`; the cost of folding a point into
# the alcove grows with its distance, and most steeply in large ranks
FAR_VALUES = (VALUES[0] + ["-50/7", "17", "-13", "-5/3"], VALUES[1])
CAPS = ([None, None, None, None, "1", "100"], ["-5", "0"])
# far root values for `types` and `twist`: off the (1/e)-grid for every order
# in FAR_ORDERS (the denominators are prime to 2, 3 and 5), so a point holding
# one is rejected before it is folded into the alcove; a point whose values
# are all on the grid is folded, in every rank up to 8
FAR_GROUPS = ["A1", "A2", "B2", "G2", "A3", "C3", "A6", "D6", "E6", "A7", "E7", "B8", "E8"]
FAR_ORDERS = ["1", "2", "3", "10000000"]
FAR_OFF_GRID = ["999/11", "-1000/7", "-512/13", "4097/7"]
FAR_ON_GRID = ["17", "-13", "999", "-512"]
FAR_COUNT = 120


def pick(rng: random.Random, pool, bad: float = 0.15):
    valid, malformed = pool
    return rng.choice(malformed if rng.random() < bad else valid)


def rank_of(group: str) -> int:
    digits = group[1:]
    return int(digits) if digits.isdigit() else 2


def point_text(rng: random.Random, rank: int, values=VALUES) -> str:
    size = rank if rng.random() < 0.9 else rng.choice([rank + 1, max(rank - 1, 1)])
    return ",".join(pick(rng, values, bad=0.05) for _ in range(size))


def group_args(rng: random.Random):
    group = pick(rng, GROUPS)
    return group, ["--group", group]


def common_tail(rng: random.Random):
    tail = ["--format", rng.choice(["text", "json"])] if rng.random() < 0.5 else []
    cap = pick(rng, CAPS)
    if cap is not None:
        tail.append(f"--cap={cap}")
    return tail


def draw_types_or_twist(rng: random.Random, command: str):
    group, args = group_args(rng)
    args = [command] + args + ["--order", pick(rng, SMALL_ORDERS)]
    action = rng.choice(["trivial", "trivial", "trivial", "diagram", "sl-J",
                         "sl-Jprime", "bogus"])
    if command == "types" or rng.random() < 0.1:  # twist takes no --action
        args += ["--action", action]
    if command == "types" and (action == "diagram" or rng.random() < 0.1):
        args += ["--perm", rng.choice(["2,1", "3,2,1", "1,2", "1,1", "x,y", "1,3,2,4"])]
    if rng.random() < 0.6:
        args.append("--point=" + point_text(rng, rank_of(group)))
    if command == "twist" and rng.random() < 0.4:
        args.append(f"--class={rng.choice([0, 1, 2, 7, -1])}")
    return args + common_tail(rng)


def draw_orbit(rng: random.Random):
    group, args = group_args(rng)
    args = ["orbit"] + args + ["--order", pick(rng, ORBIT_ORDERS, bad=0.25)]
    if rng.random() < 0.8:
        args.append("--point=" + point_text(rng, rank_of(group), FAR_VALUES))
    return args + common_tail(rng)


def draw_split_degree(rng: random.Random):
    group, args = group_args(rng)
    args = ["split-degree"] + args
    if rng.random() < 0.9:
        args.append("--point=" + point_text(rng, rank_of(group)))
    if rng.random() < 0.5:
        args.append(f"--char={rng.choice([0, 2, 3, 5, -1])}")
    return args + common_tail(rng)


def draw_data(rng: random.Random):
    _, args = group_args(rng)
    return ["data"] + args + common_tail(rng)


def draw_far_point(rng: random.Random):
    group = rng.choice(FAR_GROUPS)
    rank = rank_of(group)
    if rng.random() < 0.5:  # integer values, on the grid of every order
        values = (["0", "1", "-1"] + FAR_ON_GRID, VALUES[1])
    else:
        values = (VALUES[0] + FAR_OFF_GRID + FAR_ON_GRID, VALUES[1])
    point = point_text(rng, rank, values)
    argv = [rng.choice(["types", "twist"]), "--group", group,
            "--order", rng.choice(FAR_ORDERS), "--point=" + point]
    return argv + common_tail(rng), any(v in FAR_OFF_GRID for v in point.split(","))


def draw_branch_point(rng: random.Random, index: int):
    kind = rng.random()
    if kind < 0.1:
        return rng.choice([1, "x0", None, [], {}])
    group = rng.choice([{"label": "A", "rank": 1}, {"label": "A", "rank": 2},
                        {"label": "B", "rank": 2}, {"label": "A", "rank": 3},
                        {"label": "Q", "rank": 1}, {"label": "A"}, "A1", None])
    bp = {"name": rng.choice([f"x{index}", f"x{index}", "x0"]), "group": group,
          "order": rng.choice([1, 2, 3, 0, -2, "3", "x", None])}
    if rng.random() < 0.5:
        bp["action"] = rng.choice([
            {"kind": "trivial"}, "trivial", {"kind": "diagram"},
            {"kind": "diagram", "permutation": [2, 1]},
            {"kind": "diagram", "permutation": [None, 1]},
            {"kind": "sl-involution", "variant": "J"},
            {"kind": "sl-involution", "variant": "J-prime"},
            {"kind": "sl-involution", "variant": "K"}, {"kind": "bogus"}, 5])
    if rng.random() < 0.3:
        bp["point"] = rng.choice([["1/3"], ["1/3", "1/3"], [1, 0], 5, ["x"],
                                  ["1/0"], [None]])
    if rng.random() < 0.1:
        del bp[rng.choice(sorted(bp))]
    return bp


def draw_config(rng: random.Random):
    kind = rng.random()
    if kind < 0.15:
        return rng.choice(["{not json", "", "[]", "3", '"x"', "null",
                           '{"branch_points": 3}', '{"schema_version": "1"}'])
    points = [draw_branch_point(rng, i) for i in range(rng.randint(0, 3))]
    return json.dumps({"branch_points": points})


def draw_argv(rng: random.Random, tmp_path, index: int):
    command = rng.choice(["types", "twist", "orbit", "orbit", "split-degree",
                          "data", "global", "global", "none"])
    if command in ("types", "twist"):
        return draw_types_or_twist(rng, command)
    if command == "orbit":
        return draw_orbit(rng)
    if command == "split-degree":
        return draw_split_degree(rng)
    if command == "data":
        return draw_data(rng)
    if command == "global":
        path = tmp_path / f"config{index}.json"
        if rng.random() < 0.95:
            path.write_text(draw_config(rng))
        return ["global", "--config", str(path)] + common_tail(rng)
    return rng.choice([[], ["bogus"], ["types"], ["orbit", "--group", "A1"],
                       ["--format", "json"]])


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.err


def test_cli_fuzz_ends_in_documented_exit_codes(capsys, tmp_path):
    rng = random.Random(SEED)
    codes = {}
    for index in range(COUNT):
        argv = draw_argv(rng, tmp_path, index)
        code, err = run(capsys, argv)
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        codes[code] = codes.get(code, 0) + 1
    # the draw reaches every outcome, so the fuzz is not all rejections
    assert all(codes.get(code, 0) >= 20 for code in (0, 2, 3)), codes


def test_cli_fuzz_far_and_off_grid_base_points(capsys):
    rng = random.Random(SEED + 1)
    codes = {}
    folded_far = 0
    for _ in range(FAR_COUNT):
        argv, off_grid = draw_far_point(rng)
        code, err = run(capsys, argv)
        assert code in ((2, 3) if off_grid else (0, 2, 3)), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        codes[code] = codes.get(code, 0) + 1
        far = any(v in FAR_ON_GRID for v in argv[5].split("=")[1].split(","))
        folded_far += code == 0 and far and rank_of(argv[2]) >= 4
    assert all(codes.get(code, 0) >= 10 for code in (0, 2, 3)), codes
    # on-grid far points are folded into the alcove in the large ranks too
    assert folded_far >= 10, folded_far
