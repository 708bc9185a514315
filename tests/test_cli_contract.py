"""The exit-code contract of `simact`, driven with generated command lines.

Every run, whatever its input files and flag values, must end with exit code
0, 2, 3 or 4, print no traceback and finish within a fixed deadline.  The
inputs mix the golden fixtures, malformed JSON, documents with wrong-typed
or missing fields, and inputs whose sizes sit just above each cap in
`simact.budget`.
"""

import contextlib
import io
import json
import os
import random
import tempfile
import time
from datetime import timedelta
from itertools import product

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from make_fixtures import gold

from simact.budget import (
    KEY_SLOTS,
    KEY_STEPS,
    MAX_DEPTH,
    MAX_GRAPH_WORK,
    MAX_RESOLUTION,
    MAX_SMOOTH_WORK,
    MAX_TABLE_WORK,
    MAX_TERMS,
    MAX_WORK,
    PAIR_STEPS,
    SMEAR_SLOTS,
)
from simact.cli import main


def golden(name):
    with open(gold(name), encoding="utf-8") as fh:
        return fh.read()


def rotation(n):
    return {"d": 1, "n": n, "generators": [[(i + 1) % n for i in range(n)]]}


def diagonal(p, w, masses):
    return {"d": 1, "w": w, "cuts": [f"{j}/{p}" for j in range(p)],
            "masses": {",".join([str(j)] * w): m for j, m in enumerate(masses)}}


# inputs whose sizes sit just above a cap, or declare a rank or a level far
# above anything their keys or mask could hold
OVERSIZED = [
    rotation(127),  # against rotation(131) at depth 6: lcm(127, 131, 64) cells
    rotation(131),
    rotation(1025),  # against level-10 dyadic sets: lcm(1025, 1024) cells
    {"d": 1449, "n": 1, "generators": [[0]] * 1449},  # 1449 * 1448 commutation lookups
    diagonal(2, 2, ["1/1048583", "1048582/1048583"]),  # realize and recover grids
    diagonal(2, 13, ["1/2", "1/2"]),  # 3^13 cylinder patterns
    diagonal(17, 2, ["1/17"] * 17),  # graph test work: 2^33 search steps a pair
    {"level": 10, "mask": "0" * 512 + "1" * 512},
    {"d": 2**64, "w": 2, "cuts": ["0"], "masses": {"0,0": "1"}},
    {"level": 2**64, "mask": "01"},
    {"d": 2**21, "w": 1, "cuts": ["0"], "masses": {"0": "1"}},  # 2^21 window coordinates
    {"d": 2**20, "w": 1, "cuts": ["0"], "masses": {"0": "1"}},  # 2^20 window coordinates, at the cap
    {"d": 13, "w": 2, "cuts": ["0"], "masses": {",".join("0" * 2**13): "1"}},  # 3^13 smooth shifts
    {"d": 9, "w": 2, "cuts": ["0"], "masses": {",".join("0" * 2**9): "1"}},  # graph-test window pairs
]

json_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 70),
    st.sampled_from([MAX_RESOLUTION + 1, 2**64, -(2**64)]),
    st.sampled_from(["0", "1/2", "1/3", "2/3", "-1", "1/0", "0.5", "01", "0,1", ""]),
    st.text(max_size=4),
)
json_value = st.recursive(
    json_leaf,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def document(**fields):
    """A document with the given fields, each either plausible or junk."""
    return st.fixed_dictionaries({k: st.one_of(v, json_value) for k, v in fields.items()})


perm = st.lists(st.integers(0, 3), min_size=1, max_size=4)
documents = st.one_of(
    document(d=st.sampled_from([1, 2]), n=st.sampled_from([1, 2, 4]), generators=st.lists(perm, max_size=2)),
    document(
        d=st.sampled_from([1, 2, 2**64]),
        w=st.sampled_from([1, 2, 3]),
        cuts=st.sampled_from([["0"], ["0", "1/2"], ["0", "1/3", "2/3"], ["1/2"]]),
        masses=st.dictionaries(st.sampled_from(["0", "1", "0,0", "0,1", "1,1", "2,2", "0,0,0,0"]),
                               st.sampled_from(["1", "1/2", "1/4", "0", "-1/2", 1]), max_size=4),
    ),
    document(level=st.sampled_from([0, 1, 2, 10, 2**64]), mask=st.sampled_from(["0", "01", "0110", "1" * 1024])),
    document(knots=st.sampled_from([[["0", "0"]], [["0", "0"], ["1/2", "1/4"]], [["1/2", "0"]], [["0"]]])),
    json_value,
)
file_texts = st.one_of(
    st.sampled_from([golden(name) for name in sorted(os.listdir(gold("."))) if name.endswith(".json")]),
    st.sampled_from(OVERSIZED).map(json.dumps),
    documents.map(json.dumps),
    st.text(max_size=12),  # mostly not JSON at all
)

ints = st.sampled_from(["-1", "0", "1", "2", "3", "6", "x", "1.5", str(MAX_DEPTH + 1), str(MAX_TERMS + 1)])
rationals = st.sampled_from(["0", "1/8", "1/2", "2", "-1/4", "0.5", "a/b", "1/0"])
cuts = st.sampled_from(["0,1/2", "0,1/3,2/3", "1/2", "0,1/2,1/4", "0,x", f"0,1/{2 * MAX_RESOLUTION}"])


def flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def command(name, files, *flags):
    """A subcommand name, `files` positional input slots (indices into the
    generated files) and optional flags, concatenated."""
    return st.tuples(st.just([name]), st.lists(st.integers(0, 2), min_size=files, max_size=files), *flags)


argvs = st.one_of(
    command("dist", 2, flag("--terms", ints), flag("--depth", ints), flag("--format", st.sampled_from(["csv", "json"]))),
    command("embed", 2, flag("--w", ints), flag("--cuts", cuts)),
    command("recover", 1, flag("--epsilon", rationals)),
    command("realize", 1),
    command("smooth", 1, flag("--delta", rationals), flag("--steps", ints)),
    command("graph-test", 1, flag("--epsilon", rationals)),
    command("factor-defect", 3, flag("--w", ints)),
    command(
        "wrp-demo",
        0,
        st.just(["--seed", "1", "--trials", "1"]),
        flag("--n", st.sampled_from(["-1", "0", "8", "64", str(2 * MAX_RESOLUTION)])),
        flag("--min-cycle", st.sampled_from(["0", "1", "4", "16", str(MAX_RESOLUTION)])),
        flag("--epsilon", rationals),
        flag("--terms", ints),
        flag("--depth", ints),
    ),
)


def run(argv):
    """Exit code and stderr of one call; argparse's SystemExit counts as its code."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


@settings(max_examples=200, deadline=timedelta(seconds=5), suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(file_texts, min_size=3, max_size=3), argvs)
# the last three oversized tables, each on the command that would build it out
@example([json.dumps(OVERSIZED[-3])] * 3, (["graph-test"], [0], ["--epsilon", "1/8"]))
@example([json.dumps(OVERSIZED[-2])] * 3, (["smooth"], [0], ["--delta", "1/4"], ["--steps", "1"]))
@example([json.dumps(OVERSIZED[-1])] * 3, (["graph-test"], [0], ["--epsilon", "1/8"]))
def test_every_command_line_keeps_the_exit_code_contract(texts, parts):
    name, slots, *flags = parts
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(texts):
            paths.append(os.path.join(tmp, f"in{i}.json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write(text)
        files = [paths[i] for i in slots]
        if name == "factor-defect":
            files = [files[0], "--piece", files[1], "--target", files[2]]
        argv = name + files + [v for f in flags for v in f] + ["--out", os.path.join(tmp, "out")]
        code, err = run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


@pytest.mark.parametrize("depth", [1000, 100_000])
@pytest.mark.parametrize("name", ["dist", "embed", "recover", "realize", "smooth", "graph-test", "factor-defect"])
def test_a_deeply_nested_file_is_refused_as_malformed(tmp_path, name, depth):
    # the JSON decoder recurses once per level and, depending on the Python
    # version, gives up at 1,000 or at 100,000 nested arrays
    deep = str(tmp_path / "deep.json")
    with open(deep, "w", encoding="utf-8") as fh:
        fh.write("[" * depth + "]" * depth)
    argv = {
        "dist": [deep, deep],
        "embed": [deep, deep, "--w", "2", "--cuts", "0,1/2"],
        "recover": [deep, "--epsilon", "1/2"],
        "realize": [deep],
        "smooth": [deep, "--delta", "1/4", "--steps", "1"],
        "graph-test": [deep, "--epsilon", "1/8"],
        "factor-defect": [deep, "--piece", deep, "--target", deep, "--w", "2"],
    }[name]
    code, err = run([name, *argv, "--out", str(tmp_path / "out")])
    assert code == 2 and "Traceback" not in err, err
    assert deep in err
    assert not (tmp_path / "out").exists()


def test_depth_1_work_counts_the_per_term_pass(tmp_path):
    # 64 terms at depth 1 sweep 64 * 2^2 test-set nodes, far inside the work
    # cap; each term's O(n) evaluations and refinements on 2^17 cells put them
    # at four times it, and took the whole distance to about 17 s
    n = 2**17
    assert 64 * 2**2 < MAX_WORK < 64 * n
    rng = random.Random(0)
    paths = []
    for name in ("a.json", "b.json"):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            json.dump({"d": 1, "n": n, "generators": [rng.sample(range(n), n)]}, fh)
    started = time.perf_counter()
    code, err = run(["dist", *paths, "--terms", "64", "--depth", "1", "--out", str(tmp_path / "out")])
    assert time.perf_counter() - started < 1
    assert code == 4 and "Traceback" not in err
    assert f"terms*(n+2^(depth+1))+d(d-1)*n = {64 * (n + 4)} is above the cap of {MAX_WORK}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "case, work, cap",
    [
        # 3 terms on a 5 * 2^17-cell grid at depth 1: 2.3 to 3.4 s
        ("dist", 3 * (5 * 2**17 + 2**2), MAX_WORK),
        # 17 rungs on the uniform iid table of two pieces and w = 12: 1.3 to 1.5 s
        ("smooth", 17 * (3**12 + KEY_SLOTS * 12 * 2**12 + SMEAR_SLOTS * 2**2), MAX_SMOOTH_WORK),
        # one rung at delta = 7/8 on 80 equal pieces and w = 1: every band is
        # full, so the blur builds 80 * 79 = 6320 smear weights (each cell's
        # own weight comes from its row sum): 1.0 to 1.5 s
        ("smooth-smear", 2 * (81 + KEY_SLOTS * 80 + SMEAR_SLOTS * 80**2), MAX_SMOOTH_WORK),
        # 65,280 pairs of one key and one piece over 6,560 time differences:
        # 0.9 to 1.2 s
        ("graph-test", 256 * 255 * (PAIR_STEPS + KEY_STEPS + 2), MAX_GRAPH_WORK),
        # reading 1448 one-cell generators compares 1448 * 1447 / 2 pairs: 0.7 s
        ("embed", 1448 * 1447, MAX_WORK),
    ],
    ids=["dist", "smooth", "smooth-smear", "graph-test", "embed"],
)
def test_a_run_near_its_work_cap_is_accepted_within_the_deadline(tmp_path, case, work, cap):
    # each work cap stands for 3 to 5 s on one core of a shared 2-vCPU
    # machine; a run at 0.875 to 0.954 of it must finish well inside 10 s
    assert 0.85 * cap < work <= cap
    if case == "dist":
        rng, n = random.Random(0), 5 * 2**17
        paths = []
        for name in ("a.json", "b.json"):
            paths.append(str(tmp_path / name))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump({"d": 1, "n": n, "generators": [rng.sample(range(n), n)]}, fh)
        argv = ["dist", *paths, "--terms", "3", "--depth", "1"]
    elif case == "smooth":
        table = str(tmp_path / "table.json")
        masses = {",".join(map(str, key)): f"1/{2**12}" for key in product(range(2), repeat=12)}
        with open(table, "w", encoding="utf-8") as fh:
            json.dump({"d": 1, "w": 12, "cuts": ["0", "1/2"], "masses": masses}, fh)
        argv = [case, table, "--delta", "1/4", "--steps", "16"]
    elif case == "smooth-smear":
        table = str(tmp_path / "table.json")
        masses = {str(j): "1/80" for j in range(80)}
        with open(table, "w", encoding="utf-8") as fh:
            json.dump({"d": 1, "w": 1, "cuts": [f"{j}/80" for j in range(80)], "masses": masses}, fh)
        argv = ["smooth", table, "--delta", "7/8", "--steps", "1"]
    elif case == "graph-test":
        table = str(tmp_path / "table.json")
        with open(table, "w", encoding="utf-8") as fh:
            json.dump({"d": 8, "w": 2, "cuts": ["0"], "masses": {",".join("0" * 2**8): "1"}}, fh)
        argv = [case, table, "--epsilon", "1/8"]
    else:
        idmap, action = str(tmp_path / "id.json"), str(tmp_path / "action.json")
        with open(idmap, "w", encoding="utf-8") as fh:
            json.dump({"knots": [["0", "0"]]}, fh)
        with open(action, "w", encoding="utf-8") as fh:
            json.dump({"d": 1448, "n": 1, "generators": [[0]] * 1448}, fh)
        argv = [case, idmap, action, "--w", "1", "--cuts", "0"]
    started = time.perf_counter()
    code, err = run(argv + ["--out", str(tmp_path / "out")])
    assert code == 0, err
    assert time.perf_counter() - started < 10


@pytest.mark.parametrize("d", [6000, 2**20])
@pytest.mark.parametrize("argv", [["graph-test", "--epsilon", "1/8"], ["smooth", "--delta", "1/4", "--steps", "1"]])
def test_a_one_time_window_of_large_rank_is_read_in_linear_time(tmp_path, d, argv):
    # a window of one time has no two times a unit step apart, so its shift
    # check compares nothing; building a shift per axis took graph-test 44 s
    # at d = 6000, and the window-coordinate cap allows d = 2^20
    table = str(tmp_path / "table.json")
    with open(table, "w", encoding="utf-8") as fh:
        json.dump({"d": d, "w": 1, "cuts": ["0"], "masses": {"0": "1"}}, fh)
    started = time.perf_counter()
    code, err = run([argv[0], table, *argv[1:], "--out", str(tmp_path / "out")])
    assert time.perf_counter() - started < 1
    assert code == 0, err


def test_a_table_near_its_read_cap_is_judged_within_the_deadline(tmp_path):
    # the reversible walk on the graph with edges 0-2 and 1-2 and a loop at
    # each vertex: P(i, j) = 1/deg(i) from the stationary law deg(i)/7, so a
    # path x_0..x_13 weighs 1/(7 deg(x_1) ... deg(x_12)); 275,807 keys of 14
    # labels (an 11.9 MB file) read in 2.0 s
    adj = [[0, 2], [1, 2], [0, 1, 2]]
    paths = [(i,) for i in range(3)]
    for _ in range(13):
        paths = [s + (j,) for s in paths for j in adj[s[-1]]]
    assert 0.85 * MAX_TABLE_WORK < 14 * len(paths) <= MAX_TABLE_WORK
    masses = {}
    for s in paths:
        den = 7
        for x in s[1:-1]:
            den *= len(adj[x])
        masses[",".join(map(str, s))] = f"1/{den}"
    table = str(tmp_path / "table.json")
    with open(table, "w", encoding="utf-8") as fh:
        json.dump({"d": 1, "w": 14, "cuts": ["0", "1/3", "2/3"], "masses": masses}, fh)
    started = time.perf_counter()
    code, err = run(["graph-test", table, "--epsilon", "1/8", "--out", str(tmp_path / "out")])
    assert time.perf_counter() - started < 10
    # read in full, then refused by the graph test's own cap
    assert code == 4 and "k(k-1)*(448+4*keys+2^(2p-1))" in err, err
