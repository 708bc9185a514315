"""Regenerate the committed CLI fixtures.

Run from the repository root:

    python3 tests/golden/make_fixtures.py

Inputs are dumped with the same JSON renderer the CLI uses, expected outputs
by running the CLI itself.  Commit the results; test_cli.py compares bytes.
"""

import json
import os
import random
from fractions import Fraction

from simact import serialize as ser
from simact.action import LatticeAction, identity_action
from simact.cli import main
from simact.measure import Adaptation
from simact.sampling import diagonal_table, iid_table, markov_table, random_graph_joining, trial_rng
from simact.sim import Partition, average_sims, marginalize_to
from simact.transform import DyadicSet, rotation, swap_halves

HERE = os.path.dirname(os.path.abspath(__file__))

F = Fraction


def gold(name: str) -> str:
    return os.path.join(HERE, name)


# Every CLI fixture as (argv, expected output file).  test_cli.py runs the
# same list with --out and compares bytes, so its test ids follow this order.
RUNS = [
    (["dist", gold("id4_action.json"), gold("swap_action.json"), "--terms", "4", "--depth", "3"], "expected_dist.csv"),
    (["embed", gold("quarter_shift.json"), gold("rot3_action.json"), "--w", "2", "--cuts", "0,1/2"], "expected_embed.json"),
    (["realize", gold("markov_table.json")], "expected_realize.json"),
    (["smooth", gold("diag_halves_table.json"), "--delta", "1/4", "--steps", "3"], "expected_smooth.csv"),
    (["graph-test", gold("diag_halves_table.json"), "--epsilon", "1/8"], "expected_graph_test.csv"),
    (["graph-test", gold("markov4_table.json"), "--epsilon", "1/8"], "expected_graph_test_fail.csv"),
    (
        ["wrp-demo", "--seed", "3", "--trials", "3", "--n", "128", "--min-cycle", "32", "--terms", "6", "--depth", "6"],
        "expected_wrp_demo.csv",
    ),
    (
        ["dist", gold("id4_action.json"), gold("swap_action.json"), "--terms", "4", "--depth", "3", "--format", "json"],
        "expected_dist.json",
    ),
    (
        ["factor-defect", gold("rot3_action.json"), "--piece", gold("half_dyadic.json"), "--target", gold("middle_dyadic.json"), "--w", "2"],
        "expected_factor_defect.csv",
    ),
    (
        ["factor-defect", gold("rot3_action.json"), "--piece", gold("half_dyadic.json"), "--target", gold("middle_dyadic.json"), "--w", "2", "--format", "json"],
        "expected_factor_defect.json",
    ),
    (["graph-test", gold("mixed6_table.json"), "--epsilon", "1/8"], "expected_graph_test_mixed.csv"),
    # passes on greedy witnesses that the exact search would beat, so the
    # greedy-first order shows in the output
    (["graph-test", gold("markov4_table.json"), "--epsilon", "1/2"], "expected_graph_test_greedy.csv"),
    (["graph-test", gold("markov4_table.json"), "--epsilon", "1/8", "--format", "json"], "expected_graph_test_fail.json"),
    (["smooth", gold("diag_halves_table.json"), "--delta", "1/4", "--steps", "3", "--format", "json"], "expected_smooth.json"),
    # 48-cycles: the height ladder ends on a height that is not a power of
    # two, and the towers leave cells over that are matched in order
    (
        ["wrp-demo", "--seed", "1", "--trials", "2", "--n", "96", "--min-cycle", "48", "--terms", "6", "--depth", "5"],
        "expected_wrp_demo_tail.csv",
    ),
    # fails on a B the greedy shortcut misses; most greedy misses cannot
    # raise the worst diameter and skip the exact search
    (["graph-test", gold("mixed7_table.json"), "--epsilon", "1/8"], "expected_graph_test_mixed7.csv"),
]


def write_json(name: str, obj) -> None:
    with open(gold(name), "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def mixed_joining(p: int, lam: Fraction):
    """A random graph joining on p pieces, mixed at weight lam toward the iid
    table of its marginal."""
    joining = random_graph_joining(random.Random(0), p)
    single = marginalize_to(joining, [(0,)])
    iid = iid_table(joining.partition, [single[(j,)] for j in range(p)], 2)
    return average_sims(joining, iid, lam)


def main_fixtures():
    write_json("id4_action.json", ser.dump_action(identity_action(1, 4)))
    write_json("swap_action.json", ser.dump_action(LatticeAction(1, (swap_halves(),))))
    write_json("rot3_action.json", ser.dump_action(LatticeAction(1, (rotation(3, 1),))))
    write_json("quarter_shift.json", ser.dump_adaptation(Adaptation(((F(0), F(0)), (F(1, 2), F(1, 4))))))
    write_json(
        "diag_halves_table.json",
        ser.dump_table(diagonal_table(Partition((F(0), F(1, 2))), [F(1, 2), F(1, 2)], 2)),
    )
    write_json("markov_table.json", ser.dump_table(markov_table(trial_rng(42, 0), p=2, w=2, max_resolution=2000)))
    # not a graph joining: a nonzero worst diameter on a B that greedy misses
    write_json("markov4_table.json", ser.dump_table(markov_table(trial_rng(2, 0), p=4, w=2, max_resolution=200)))
    # a graph joining at lambda = 1/4 toward the iid table of its marginal:
    # passes, and every worst-B witness comes from the greedy shortcut
    # (here the exact search would pick the same A)
    write_json("mixed6_table.json", ser.dump_table(mixed_joining(6, F(1, 4))))
    # the same at p = 7 and lambda = 3/4: greedy misses on most B
    write_json("mixed7_table.json", ser.dump_table(mixed_joining(7, F(3, 4))))
    write_json("half_dyadic.json", ser.dump_dyadic(DyadicSet(1, 0b01)))
    write_json("middle_dyadic.json", ser.dump_dyadic(DyadicSet(2, 0b0110)))
    for argv, expected in RUNS:
        code = main(argv + ["--out", gold(expected)])
        assert code == 0, f"fixture run failed ({code}): {argv}"


if __name__ == "__main__":
    main_fixtures()
