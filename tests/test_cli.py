import filecmp
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from make_fixtures import RUNS, gold

from simact import cli
from simact.cli import build_parser, main
from simact.sim import sim_dist
from simact.transform import IntervalPermutation


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


# -- golden outputs -------------------------------------------------------------


@pytest.mark.parametrize("argv,expected", RUNS)
def test_matches_golden_output(tmp_path, argv, expected):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert read(str(out)) == read(gold(expected))


def test_json_format_dist(tmp_path):
    out = tmp_path / "dist.json"
    code = main(
        ["dist", gold("id4_action.json"), gold("swap_action.json"), "--terms", "4", "--depth", "3", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(read(str(out)))
    assert doc["distance"] == "171261/524288"
    assert doc["tail"] == "1/16"


# -- determinism ------------------------------------------------------------------


def test_wrp_demo_runs_are_byte_identical(tmp_path):
    # two calls in one process: the second reuses the parser the first built
    argv = ["wrp-demo", "--seed", "7", "--trials", "2", "--n", "128", "--min-cycle", "16"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert filecmp.cmp(str(a), str(b), shallow=False)
    rows = read(str(a)).decode().strip().split("\n")
    assert rows[0].startswith("trial,requested")
    assert all(line.endswith(",ok,") for line in rows[1:])


def test_wrp_demo_reports_infeasible_rows(tmp_path):
    out = tmp_path / "o.csv"
    # two 4-cycles cannot hold the height-8 towers a 1/16 tolerance demands
    code = main(["wrp-demo", "--seed", "1", "--trials", "2", "--n", "8", "--min-cycle", "4", "--out", str(out)])
    assert code == 0
    rows = read(str(out)).decode().strip().split("\n")
    assert all(line.endswith("infeasible,") for line in rows[1:])


def test_recover_round_trips_action_bytes(tmp_path, capsys):
    # grid read of an action, then recover: the very same action bytes come back
    src = gold("rot3_action.json")
    table = tmp_path / "table.json"
    back = tmp_path / "back.json"
    idmap = tmp_path / "id.json"
    idmap.write_text('{"knots": [["0", "0"]]}\n', encoding="utf-8")
    assert main(["embed", str(idmap), src, "--w", "2", "--cuts", "0,1/3,2/3", "--out", str(table)]) == 0
    assert main(["recover", str(table), "--epsilon", "0", "--out", str(back)]) == 0
    assert read(str(back)) == read(src)
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines and all(line.startswith("pair (0,)->(1,): map ") for line in lines)
    assert lines[0].endswith("defect 0")


# -- exit codes --------------------------------------------------------------------


def test_exit_2_unreadable_inputs(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["dist", missing, gold("swap_action.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert main(["dist", str(bad), gold("swap_action.json")]) == 2
    assert main(["recover", gold("diag_halves_table.json"), "--epsilon", "0.5"]) == 2
    assert main(["embed", gold("quarter_shift.json"), gold("rot3_action.json"), "--w", "2", "--cuts", "1/4,1/2"]) == 2
    assert main(["embed", gold("quarter_shift.json"), gold("rot3_action.json"), "--w", "0", "--cuts", "0,1/2"]) == 2
    # JSON true is not the integer 1
    boolean = tmp_path / "boolean.json"
    boolean.write_text('{"d": true, "n": 4, "generators": [[1, 2, 3, 0]]}', encoding="utf-8")
    assert main(["embed", gold("quarter_shift.json"), str(boolean), "--w", "2", "--cuts", "0,1/2"]) == 2


def test_exit_2_calls_only_decimals_floats(tmp_path, capsys):
    table = tmp_path / "true_mass.json"
    table.write_text('{"d": 1, "w": 1, "cuts": ["0"], "masses": {"0": true}}', encoding="utf-8")
    for argv, message in [
        (["smooth", gold("diag_halves_table.json"), "--delta", "one"], "malformed rational 'one'"),
        (["smooth", gold("diag_halves_table.json"), "--delta", "0.25"], "rational '0.25' must be integer or p/q, not a float"),
        (["realize", str(table)], "malformed rational 'True'"),
    ]:
        assert main(argv) == 2
        assert message in capsys.readouterr().err


def test_exit_3_shape_mismatch(tmp_path):
    two_d = tmp_path / "d2.json"
    two_d.write_text(
        '{"d": 2, "n": 2, "generators": [[0, 1], [0, 1]]}\n', encoding="utf-8"
    )
    assert main(["dist", gold("id4_action.json"), str(two_d)]) == 3
    table_2d = tmp_path / "t2.json"
    table_2d.write_text(
        json.dumps(
            {
                "d": 2,
                "w": 1,
                "cuts": ["0", "1/2"],
                "masses": {"0": "1/2", "1": "1/2"},
            }
        )
        + "\n",
        encoding="utf-8",
    )
    assert main(["realize", str(table_2d)]) == 3


def test_exit_4_domain_preconditions(tmp_path):
    iid = tmp_path / "iid.json"
    iid.write_text(
        json.dumps(
            {
                "d": 1,
                "w": 2,
                "cuts": ["0", "1/2"],
                "masses": {"0,0": "1/4", "0,1": "1/4", "1,0": "1/4", "1,1": "1/4"},
            }
        )
        + "\n",
        encoding="utf-8",
    )
    assert main(["recover", str(iid), "--epsilon", "1/4"]) == 4
    assert main(["smooth", gold("diag_halves_table.json"), "--delta", "2"]) == 4


def test_exit_4_realize_resolution_above_cap(tmp_path, capsys):
    # valid tables whose mass denominators have an lcm of about 2 * 10^12:
    # the realization grid would need that many cells
    p, q = Fraction(1, 1000003), Fraction(1, 2 * 999983)
    tables = {
        "w2.json": {"w": 2, "masses": {"0,0": q, "0,1": p, "1,0": p, "1,1": 1 - 2 * p - q}},
        "w1.json": {"w": 1, "masses": {"0": p + q, "1": 1 - p - q}},
    }
    for name, doc in tables.items():
        doc.update(d=1, cuts=["0", "1/2"], masses={k: str(v) for k, v in doc["masses"].items()})
        path = tmp_path / name
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        assert main(["realize", str(path)]) == 4
        err = capsys.readouterr().err
        assert f"n = {1000003 * 2 * 999983}" in err and "Traceback" not in err


def test_exit_4_embed_resolution_above_cap(tmp_path, capsys):
    # an n = 2 action read at a 1/2^21 cut needs a grid of 2^21 cells, one
    # doubling above the cap
    idmap = tmp_path / "id.json"
    idmap.write_text('{"knots": [["0", "0"]]}\n', encoding="utf-8")
    swap = tmp_path / "swap.json"
    swap.write_text('{"d": 1, "n": 2, "generators": [[1, 0]]}\n', encoding="utf-8")
    argv = ["embed", str(idmap), str(swap), "--w", "1", "--cuts", f"0,1/{2**21}", "--out", str(tmp_path / "t.json")]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert f"n = {2**21}" in err and "Traceback" not in err


def test_exit_4_factor_defect_resolution_above_cap(tmp_path, capsys):
    # an n = 1025 action against level-10 dyadic sets walks lcm(1025, 1024)
    # = 1049600 cells, just above the cap
    action = tmp_path / "a.json"
    action.write_text(json.dumps({"d": 1, "n": 1025, "generators": [list(range(1, 1025)) + [0]]}) + "\n", encoding="utf-8")
    half = tmp_path / "half.json"
    half.write_text(json.dumps({"level": 10, "mask": "0" * 512 + "1" * 512}) + "\n", encoding="utf-8")
    assert main(["factor-defect", str(action), "--piece", str(half), "--target", str(half)]) == 4
    err = capsys.readouterr().err
    assert "n = 1049600" in err and "Traceback" not in err


def test_module_entry_point_and_usage_errors():
    proc = subprocess.run(
        [sys.executable, "-m", "simact", "no-such-command"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    proc = subprocess.run(
        [sys.executable, "-m", "simact", "dist", gold("id4_action.json"), gold("swap_action.json"), "--terms", "4", "--depth", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == read(gold("expected_dist.csv")).decode()


def test_exit_2_nonpositive_terms_and_depth(capsys):
    ids, swap = gold("id4_action.json"), gold("swap_action.json")
    for flag in ("--terms", "--depth"):
        assert main(["dist", ids, swap, flag, "0"]) == 2
        assert main(["wrp-demo", "--seed", "1", "--trials", "1", "--n", "64", "--min-cycle", "32", flag, "0"]) == 2
        assert f"{flag} must be >= 1" in capsys.readouterr().err
    for flag in ("--trials", "--min-cycle"):
        for value in ("0", "-1"):
            assert main(["wrp-demo", "--seed", "1", "--trials", "1", "--n", "64", "--min-cycle", "32", flag, value]) == 2
            assert f"{flag} must be >= 1, got {value}" in capsys.readouterr().err


def test_exit_4_unsatisfiable_sampler_request(capsys):
    # n = 100 has no composition into parts that are multiples of 7
    assert main(["wrp-demo", "--seed", "1", "--n", "100", "--min-cycle", "7"]) == 4
    assert "n must be divisible by the part granularity" in capsys.readouterr().err
    assert main(["wrp-demo", "--seed", "1", "--n", "0"]) == 4
    assert "n = 0 cannot hold a part" in capsys.readouterr().err


# -- flags -------------------------------------------------------------------------


def exit_code(argv):
    """What main returns, or the code argparse exits with on a usage error."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", gold("id4_action.json"), gold("swap_action.json"), "--seed", "1"],
        ["embed", gold("quarter_shift.json"), gold("rot3_action.json"), "--w", "2", "--cuts", "0,1/2", "--seed", "1"],
        ["smooth", gold("diag_halves_table.json"), "--delta", "1/4", "--seed", "1"],
        ["graph-test", gold("diag_halves_table.json"), "--epsilon", "1/8", "--seed", "1"],
        ["embed", gold("quarter_shift.json"), gold("rot3_action.json"), "--w", "2", "--cuts", "0,1/2", "--format", "csv"],
        ["recover", gold("diag_halves_table.json"), "--epsilon", "0", "--format", "json"],
        ["realize", gold("markov_table.json"), "--format", "csv"],
        ["wrp-demo", "--trials", "1", "--n", "64", "--min-cycle", "32"],
    ],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, capsys):
    # --seed belongs to wrp-demo alone, --format to the five row-writing commands
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: simact") and "Traceback" not in err


def test_smooth_json_rows_match_csv_rows(tmp_path):
    argv = ["smooth", gold("diag_halves_table.json"), "--delta", "1/4", "--steps", "3"]
    csv_out, json_out = tmp_path / "o.csv", tmp_path / "o.json"
    assert main(argv + ["--out", str(csv_out)]) == 0
    assert main(argv + ["--format", "json", "--out", str(json_out)]) == 0
    header, *rows = [line.split(",") for line in read(str(csv_out)).decode().strip().split("\n")]
    assert json.loads(read(str(json_out)))["rows"] == [dict(zip(header, r)) for r in rows]


@pytest.mark.parametrize("steps", [1, 3])
def test_smooth_measures_no_distance_on_rung_zero(tmp_path, steps):
    # rung 0 blurs by nothing, so only the K rungs above it need a table distance
    argv = ["smooth", gold("diag_halves_table.json"), "--delta", "1/4", "--steps", str(steps)]
    with patch("simact.cli.sim_dist", wraps=sim_dist) as calls:
        assert main(argv + ["--out", str(tmp_path / "o.csv")]) == 0
    assert calls.call_count == steps


# -- JSON writer -------------------------------------------------------------------

json_strings = st.one_of(
    st.text(),
    st.lists(st.sampled_from(['"', "\\", ", ", "\n", "\x00", "\x1f", "\x7f", "é", "\u2603", "\U0001f600"])).map("".join),
)
json_leaves = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
    json_strings,
    st.booleans(),
    st.none(),
)
json_documents = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(json_strings, inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(json_documents)
def test_json_writer_matches_indented_json_dumps(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_json_writer_refuses_a_huge_int_as_json_dumps_does():
    big = 10**4400
    for doc in (big, [big], {"a": [1, big]}, {"a": [[1], {"b": big}]}):
        with pytest.raises(ValueError) as want:
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(ValueError) as got:
            cli._json_text(doc)
        assert str(got.value) == str(want.value)


def test_exit_2_unwritable_out(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "x.csv"
    argv = ["dist", gold("id4_action.json"), gold("swap_action.json"), "--terms", "4", "--depth", "3", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(out) in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", gold("id4_action.json"), gold("swap_action.json"), "--terms", "4", "--depth", "13"],
        ["wrp-demo", "--seed", "1", "--trials", "1", "--n", "64", "--min-cycle", "32", "--depth", "13"],
    ],
)
def test_exit_4_depth_above_cap(tmp_path, argv, capsys):
    # refused before any work: at depth 13 the exact distance would print
    # with more digits than CPython converts by default
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert "depth 13" in err and "cap of 12" in err and "Traceback" not in err


# -- size caps ---------------------------------------------------------------------


def write(path, obj):
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(path)


def rotation_action(n, d=1):
    """The rank-d action whose k-th generator rotates the n cells by k."""
    return {"d": d, "n": n, "generators": [[(i + k) % n for i in range(n)] for k in range(1, d + 1)]}


def diagonal_table(w, q):
    """Rank-1 table on the halves: all labels 0 with mass 1/q, else all 1."""
    return {"d": 1, "w": w, "cuts": ["0", "1/2"], "masses": {",".join("0" * w): f"1/{q}", ",".join("1" * w): f"{q - 1}/{q}"}}


def one_piece_table(d, w):
    """The one-piece table of rank d and width w: its one key lists w^d zeros."""
    return {"d": d, "w": w, "cuts": ["0"], "masses": {",".join("0" * w**d): "1"}}


def iid_pair_table(p):
    """The two-time iid table on the cuts j/p, piece j weighing the j-th draw
    of randint(1, 9) from Random(1)."""
    rng = random.Random(1)
    weights = [rng.randint(1, 9) for _ in range(p)]
    square = sum(weights) ** 2
    masses = {f"{i},{j}": f"{a * b}/{square}" for i, a in enumerate(weights) for j, b in enumerate(weights)}
    return {"d": 1, "w": 2, "cuts": [f"{j}/{p}" for j in range(p)], "masses": masses}


@pytest.mark.parametrize(
    "case",
    [
        # lcm(127, 131, 2^6) = 1064768 cells for the coarse distance
        "dist_grid",
        # a 2^21-cell sampled pair: refused before sampling, not as a failed trial
        "wrp_demo_grid",
        # the blocks of the recovered action sit on a grid of q = 2000003 cells
        "recover_grid",
        # 3^13 cylinder patterns for the distance of the first smoothing rung
        "smooth_patterns",
        # 3^3000 patterns: refused before the 3000^2 pairs of window times are
        # walked, with a count too long to print in full
        "smooth_wide_window",
        # 12 cells (the n = 4 action and the pulled-back cut 2/3) times 296^2 window times
        "embed_itineraries",
        # 5000 lattice elements, each a coarse distance
        "dist_terms",
        # every size inside its cap, but 64 terms of 2^16 cells and 2^13
        # test-set nodes each
        "dist_work",
        # the same terms and depth on a 2^18-cell sampled pair, refused before sampling
        "wrp_demo_work",
        # one distance fits, but a trial measures one per height of 8, 16, ...,
        # 4096 and verifies one more: 11 distances of 24 * (2^16 + 2^2) work
        "wrp_demo_ladder",
        # 1000 rungs, each a full blur and table distance
        "smooth_steps",
        # a 59-byte table whose window lists 2^21 times of one coordinate each
        "table_rank",
        # 2^8192 patterns: refused before the 3^13 shifts of the header are listed
        "smooth_shifts",
        # 512 * 511 pair matrices, each tested
        "graph_test_pairs",
        # 13 pieces: 2^25 search steps for each of the two pairs
        "graph_test_pieces",
        # 3^12 patterns, up to 12 * 2^12 key labels and 2^2 smear weights in each of 41 rungs
        "smooth_rungs",
        # 200 pieces at one window time: 200^2 smear weights a rung
        "smooth_smear",
        # 1025 keys of 4096 labels each: refused before any key is split or
        # mass read (neither would pass)
        "table_read",
        # 26 terms of 2^16 cells fit, but reading two rank-3 actions checks
        # each of their generator pairs for commutation, 6 composes of 2^16 cells
        "dist_rank_work",
    ],
)
def test_exit_4_size_above_cap_is_refused_up_front(tmp_path, case, capsys):
    # every case's files are written; each case reads only its own
    argv, size, cap = {
        "dist_grid": (
            ["dist", write(tmp_path / "rot127.json", rotation_action(127)), write(tmp_path / "rot131.json", rotation_action(131)),
             "--terms", "2", "--depth", "6"],
            "n = 1064768", 2**20,
        ),
        "wrp_demo_grid": (
            ["wrp-demo", "--seed", "1", "--trials", "1", "--n", "2097152", "--min-cycle", "1048576", "--terms", "1", "--depth", "1"],
            "n = 2097152", 2**20,
        ),
        "recover_grid": (
            ["recover", write(tmp_path / "thin.json", diagonal_table(2, 2000003)), "--epsilon", "0"],
            "n = 2000003", 2**20,
        ),
        "smooth_patterns": (
            ["smooth", write(tmp_path / "wide.json", diagonal_table(13, 2)), "--delta", "1/4", "--steps", "1"],
            f"(p+1)^(w^d) = {3**13}", 2**20,
        ),
        "smooth_wide_window": (
            ["smooth", write(tmp_path / "wider.json", diagonal_table(3000, 2)), "--delta", "1/4", "--steps", "1"],
            "(p+1)^(w^d) = 2^4754 or more", 2**20,
        ),
        "embed_itineraries": (
            ["embed", gold("quarter_shift.json"),
             write(tmp_path / "rank2.json", {"d": 2, "n": 4, "generators": [[1, 2, 3, 0], [2, 3, 0, 1]]}),
             "--w", "296", "--cuts", "0,1/2"],
            f"n*w^d = {12 * 296**2}", 2**20,
        ),
        "dist_terms": (
            ["dist", gold("id4_action.json"), gold("swap_action.json"), "--depth", "1", "--terms", "5000"],
            "terms 5000", 64,
        ),
        "dist_work": (
            ["dist", write(tmp_path / "rot64k.json", rotation_action(2**16)),
             write(tmp_path / "rot64k_b.json", rotation_action(2**16)), "--terms", "64", "--depth", "12"],
            f"terms*(n+2^(depth+1))+d(d-1)*n = {64 * (2**16 + 2**13)}", 2**21,
        ),
        "dist_rank_work": (
            ["dist", write(tmp_path / "rot3.json", rotation_action(2**16, 3)),
             write(tmp_path / "rot3_b.json", rotation_action(2**16, 3)), "--terms", "26", "--depth", "1"],
            f"terms*(n+2^(depth+1))+d(d-1)*n = {26 * (2**16 + 2**2) + 6 * 2**16}", 2**21,
        ),
        "wrp_demo_work": (
            ["wrp-demo", "--seed", "1", "--trials", "1", "--n", "262144", "--min-cycle", "131072", "--terms", "64", "--depth", "12"],
            f"terms*(n+2^(depth+1))+d(d-1)*n = {64 * (2**18 + 2**13)}", 2**21,
        ),
        "wrp_demo_ladder": (
            ["wrp-demo", "--seed", "1", "--trials", "1", "--n", "65536", "--min-cycle", "4096", "--terms", "24", "--depth", "1", "--epsilon", "1/16"],
            f"(heights+1)*(terms*(n+2^(depth+1))+d(d-1)*n) = {11 * 24 * (2**16 + 2**2)}", 2**21,
        ),
        "smooth_steps": (
            ["smooth", gold("diag_halves_table.json"), "--delta", "1/4", "--steps", "1000"],
            "steps 1000", 40,
        ),
        "table_rank": (
            ["graph-test", write(tmp_path / "rank2m.json", one_piece_table(2**21, 1)), "--epsilon", "1/8"],
            "d*w^d = 2097152", 2**20,
        ),
        "smooth_shifts": (
            ["smooth", write(tmp_path / "rank13.json", one_piece_table(13, 2)), "--delta", "1/4", "--steps", "1"],
            "(p+1)^(w^d) = 2^8192 or more", 2**20,
        ),
        "graph_test_pairs": (
            ["graph-test", write(tmp_path / "rank9.json", one_piece_table(9, 2)), "--epsilon", "1/8"],
            "k(k-1)*(448+4*keys+2^(2p-1)) = 118780928", 2**25,
        ),
        "graph_test_pieces": (
            ["graph-test", write(tmp_path / "iid13.json", iid_pair_table(13)), "--epsilon", "1/64"],
            "k(k-1)*(448+4*keys+2^(2p-1)) = 67111112", 2**25,
        ),
        "smooth_rungs": (
            ["smooth", write(tmp_path / "diag12.json", diagonal_table(12, 2)), "--delta", "1/4", "--steps", "40"],
            "(steps+1)*((p+1)^(w^d)+64*w^d*p^(w^d)+5000*p^2) = 151583929", 2**26,
        ),
        "smooth_smear": (
            ["smooth", write(tmp_path / "p200.json", {"d": 1, "w": 1, "cuts": [f"{j}/200" for j in range(200)],
                                                      "masses": {str(j): "1/200" for j in range(200)}}),
             "--delta", "1/4", "--steps", "1"],
            "+5000*p^2) = 400026002", 2**26,
        ),
        "table_read": (
            ["graph-test", write(tmp_path / "long_keys.json", {"d": 1, "w": 4096, "cuts": ["0"], "masses": {str(i): "x" for i in range(1025)}}),
             "--epsilon", "1/8"],
            "keys*w^d = 4198400", 2**22,
        ),
    }[case]
    out = tmp_path / "out"
    started = time.perf_counter()
    assert main(argv + ["--out", str(out)]) == 4
    assert time.perf_counter() - started < 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and size in err and f"cap of {cap}" in err and "Traceback" not in err


def test_wrp_demo_refuses_terms_above_cap_before_sampling(monkeypatch, capsys):
    def sample(*_args):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli, "aperiodic_permutation", sample)
    assert main(["wrp-demo", "--seed", "1", "--n", "64", "--min-cycle", "32", "--terms", "65"]) == 4
    assert "terms 65 is above the cap of 64" in capsys.readouterr().err


def test_dist_is_charged_from_the_headers_before_any_generator_is_built(tmp_path, monkeypatch, capsys):
    # two rank-3 maps on 3 * 2^18 cells: reading them took about 4 s before
    # the charge refused them; now the headers alone are charged
    n = 3 * 2**18
    path = write(tmp_path / "rot3.json", rotation_action(n, 3))
    # an over-cap header with malformed generators is refused by the charge too
    junk = write(tmp_path / "junk.json", {"d": 3, "n": n, "generators": "not a list"})

    def build(*_args):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(IntervalPermutation, "__init__", build)
    for argv in ([path, path], [junk, junk]):
        assert main(["dist", *argv, "--terms", "1", "--depth", "1"]) == 4
        err = capsys.readouterr().err
        assert f"terms*(n+2^(depth+1))+d(d-1)*n = {n + 2**2 + 6 * n}" in err and "Traceback" not in err


# -- one parser per process ------------------------------------------------------


def test_usage_error_leaves_the_next_call_unchanged(tmp_path):
    argv = ["dist", gold("id4_action.json"), gold("swap_action.json"), "--terms", "4", "--depth", "3"]
    with pytest.raises(SystemExit) as e:
        main(argv + ["--seed", "1"])
    assert e.value.code == 2
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert read(str(out)) == read(gold("expected_dist.csv"))


def test_help_text_is_the_built_parser_help(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
    assert capsys.readouterr().out == build_parser().format_help()
