"""Seeded job pools for the simact benchmark, and the checks on their outputs.

A workload is a fixed, interleaved pool of CLI jobs built from the seed.
Jobs are laid out in rounds: every round holds the same mix of the
workload's job classes, so any whole number of rounds has that mix.  The
runner cycles through the pool, so a run longer than the pool repeats inputs.

simact is imported inside the functions, not at module level: the runner
purges and re-imports the package once per set-up.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

EPSILON_GRAPH = Fraction(1, 8)
SMOOTH_ARGS = ["--delta", "1/8", "--steps", "3"]
SMOOTH_LADDER = [Fraction(0), Fraction(1, 32), Fraction(1, 16), Fraction(1, 8)]
WRP_ARGS = ["--trials", "1", "--min-cycle", "32", "--epsilon", "1/16", "--terms", "6", "--depth", "6"]
# n of each job in one round of `wrp`: the n=512 job is the slowest 1 in 5, so
# p90 falls in the middle of that class and p50 inside the n=128 one.  One
# class alone would leave p90 to the machine's noise, and n=512 alone would
# keep 100 jobs from fitting in a 20 s run.
WRP_ROUND_N = (512, 128, 128, 128, 128)
WRP_SMALL_ARGS = ["--trials", "1", "--n", "64", "--min-cycle", "16", "--epsilon", "1/16", "--terms", "3", "--depth", "3"]
# (p, w) classes of the rank-1 Markov tables in `tables`
TABLE_CLASSES = [(3, 3), (3, 4), (4, 3), (4, 4), (2, 6)]
# One round of `graph`, 15 jobs: each p in {6, 7} at lambda 0, 1/4 and 1/2
# twice, p=6 at lambda 3/4 once and p=7 at lambda 3/4 twice.  The p=7,
# lambda-3/4 jobs are the slowest 2 in 15, so p90 falls inside that class,
# not at its lower edge.  The cheap classes come twice so that 100 jobs fit
# in a 20 s run.
GRAPH_CLASSES = [(p, Fraction(k, 4)) for p in (6, 7) for k in range(3)] * 2
GRAPH_CLASSES += [(6, Fraction(3, 4))] + [(7, Fraction(3, 4))] * 2

# rounds in each pool; the pool is ROUNDS * (jobs per round) jobs long
ROUNDS = {"wrp": 64, "tables": 16, "graph": 8, "cli_small": 32}

NAMES = tuple(ROUNDS)

@dataclass
class Job:
    kind: str
    argv: list[str]
    data: dict = field(default_factory=dict)
    # what the generated input files hold, for the run report
    about: str = ""

    def describe(self) -> str:
        argv = " ".join("<in>" if a.endswith(".json") else a for a in self.argv)
        return f"{argv} ({self.about})" if self.about else argv


def describe(jobs: list[Job], round_len: int) -> str:
    """One round of a pool, as the CLI sees it, with what each input holds."""
    return f"{round_len} jobs per round: " + "; ".join(job.describe() for job in jobs[:round_len])


def _rng(workload: str, seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(x) for x in (workload, seed) + parts))


class _Writer:
    """Writes input documents into one directory with the CLI's own JSON layout."""

    def __init__(self, directory: str):
        self.directory = directory
        self.count = 0

    def __call__(self, obj) -> str:
        path = os.path.join(self.directory, f"in{self.count:04d}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
        return path


def build(workload: str, seed: int, directory: str) -> tuple[list[Job], int]:
    """The job pool of a workload and the number of jobs in one round."""
    write = _Writer(directory)
    if workload == "wrp":
        # the CLI draws the permutations itself from --seed
        sizes = WRP_ROUND_N * ROUNDS["wrp"]
        jobs = [Job("wrp", ["wrp-demo", "--seed", str(seed * 1_000_000 + k), "--n", str(n)] + WRP_ARGS)
                for k, n in enumerate(sizes)]
        return jobs, len(WRP_ROUND_N)
    builder = {"tables": _tables, "graph": _graph, "cli_small": _cli_small}[workload]
    jobs: list[Job] = []
    for r in range(ROUNDS[workload]):
        jobs.extend(builder(seed, r, write))
    return jobs, len(jobs) // ROUNDS[workload]


def _markov_table(rng, p: int, w: int):
    """Rank-1 Markov table with doubly stochastic transitions (all-ones plus p
    random permutation matrices, over S = 2p), so the marginal is uniform and
    every mass denominator divides p * S^(w-1).  Cuts lie on the 1/16 grid."""
    from simact.sim import CylinderTable, Window

    counts = [[1] * p for _ in range(p)]
    for _ in range(p):
        perm = list(range(p))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            counts[i][j] += 1
    q = [[Fraction(c, 2 * p) for c in row] for row in counts]
    masses = {}
    for key in product(range(p), repeat=w):
        mass = Fraction(1, p)
        for a, b in zip(key, key[1:]):
            mass *= q[a][b]
        masses[key] = mass
    return CylinderTable(Window(1, w), _grid_partition(rng, p), masses)


def _grid_partition(rng, p: int):
    from simact.sim import Partition

    cuts = sorted(rng.sample(range(1, 16), p - 1))
    return Partition((Fraction(0),) + tuple(Fraction(c, 16) for c in cuts))


def _tables(seed: int, r: int, write) -> list[Job]:
    from simact import serialize as ser
    from simact.sampling import iid_table

    jobs = []
    for p, w in TABLE_CLASSES:
        t = _markov_table(_rng("tables", seed, r, p, w), p, w)
        path = write(ser.dump_table(t))
        about = f"rank-1 doubly stochastic Markov p={p} w={w}, cuts on the 1/16 grid"
        jobs.append(Job("smooth", ["smooth", path] + SMOOTH_ARGS, about=about))
        jobs.append(Job("realize", ["realize", path], {"table": t}, about))
    rng = _rng("tables", seed, r, "iid")
    p, w, d = 3, 2, 2
    weights = [rng.randint(1, 4) for _ in range(p)]
    t = iid_table(_grid_partition(rng, p), [Fraction(x, sum(weights)) for x in weights], w, d=d)
    about = f"rank-{d} iid p={p}, {w}x{w} window"
    jobs.append(Job("smooth", ["smooth", write(ser.dump_table(t))] + SMOOTH_ARGS, about=about))
    return jobs


def _mixed_joining(rng, p: int, lam: Fraction):
    """A random graph joining mixed with the iid table of its marginal."""
    from simact.sampling import iid_table, random_graph_joining
    from simact.sim import average_sims, marginalize_to

    joining = random_graph_joining(rng, p)
    single = marginalize_to(joining, [(0,)])
    iid = iid_table(joining.partition, [single.get((j,), Fraction(0)) for j in range(p)], 2)
    return average_sims(joining, iid, lam)


def _graph(seed: int, r: int, write) -> list[Job]:
    from simact import serialize as ser

    jobs = []
    for k, (p, lam) in enumerate(GRAPH_CLASSES):
        t = _mixed_joining(_rng("graph", seed, r, k), p, lam)
        path = write(ser.dump_table(t))
        about = f"graph joining p={p} mixed with its iid table at lambda={lam}"
        jobs.append(Job("graph", ["graph-test", path, "--epsilon", str(EPSILON_GRAPH)], {"table": t}, about))
    return jobs


def _cli_small(seed: int, r: int, write) -> list[Job]:
    """Sizes are fixed per job class, so that a class costs about the same on
    every seed; only the random content varies."""
    from simact import serialize as ser
    from simact.action import LatticeAction
    from simact.measure import Adaptation
    from simact.sampling import random_action, random_graph_joining, random_permutation
    from simact.transform import DyadicSet

    rng = _rng("cli_small", seed, r)
    jobs = []
    for d, n in ((1, 64), (2, 32)):
        a = write(ser.dump_action(random_action(rng, d, n)))
        b = write(ser.dump_action(random_action(rng, d, n)))
        argv = ["dist", a, b, "--terms", "4", "--depth", "3"]
        jobs.append(Job("dist", argv, about=f"two random actions d={d} n={n}"))

    z, y = Fraction(rng.randint(1, 7), 8), Fraction(rng.randint(1, 7), 8)
    n = 16
    h = write(ser.dump_adaptation(Adaptation(((Fraction(0), Fraction(0)), (z, y)))))
    a = write(ser.dump_action(LatticeAction(1, (random_permutation(rng, n),))))
    jobs.append(Job("embed", ["embed", h, a, "--w", "2", "--cuts", "0,1/2"], about=f"adaptation, action n={n}"))

    p = 4
    t = random_graph_joining(rng, p)
    about = f"exact graph joining p={p}"
    jobs.append(Job("recover", ["recover", write(ser.dump_table(t)), "--epsilon", "1/8"], {"p": p}, about))

    p, w = 2, 3
    t = _markov_table(rng, p, w)
    path = write(ser.dump_table(t))
    about = f"rank-1 doubly stochastic Markov p={p} w={w}"
    jobs.append(Job("realize", ["realize", path], {"table": t}, about))
    jobs.append(Job("smooth", ["smooth", path] + SMOOTH_ARGS, about=about))

    p = 4
    t = random_graph_joining(rng, p)
    argv = ["graph-test", write(ser.dump_table(t)), "--epsilon", str(EPSILON_GRAPH)]
    jobs.append(Job("graph", argv, {"table": t}, f"exact graph joining p={p}"))

    n = 32
    a = write(ser.dump_action(LatticeAction(1, (random_permutation(rng, n),))))
    piece = write(ser.dump_dyadic(DyadicSet(2, rng.randrange(1, 15))))
    target = write(ser.dump_dyadic(DyadicSet(3, rng.randrange(1, 255))))
    argv = ["factor-defect", a, "--piece", piece, "--target", target, "--w", "2"]
    jobs.append(Job("factor", argv, about=f"action n={n}, dyadic piece and target"))

    jobs.append(Job("wrp", ["wrp-demo", "--seed", str(seed * 1_000_000 + r)] + WRP_SMALL_ARGS))
    return jobs


# -- output checks ---------------------------------------------------------------
#
# Each check returns None when the output is right and a short reason when it
# is not.  They recompute what can be recomputed from outside the CLI and
# otherwise check ranges, shapes and the CLI's own certificates.


def check(job: Job, stdout: str, data: bytes) -> str | None:
    try:
        return CHECKS[job.kind](job, stdout, data.decode("utf-8"))
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as e:
        return f"unparsable {job.kind} output: {e!r}"


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _unit(x: Fraction) -> bool:
    return 0 <= x <= 1


def _check_wrp(job, stdout, text):
    (row,) = _rows(text)
    if row["status"] != "ok" or row["time_s"]:
        return f"wrp-demo row {row}"
    if not 0 <= Fraction(row["achieved_exact"]) < Fraction(row["requested_exact"]):
        return f"achieved {row['achieved_exact']} not below {row['requested_exact']}"
    return None


def _check_smooth(job, stdout, text):
    rows = _rows(text)
    if [Fraction(r["delta_exact"]) for r in rows] != SMOOTH_LADDER:
        return "delta ladder differs"
    if Fraction(rows[0]["dist_exact"]) != 0:
        return "unblurred table is not at distance 0"
    for r in rows:
        if not all(_unit(Fraction(v)) for k, v in r.items() if k.endswith("_exact")):
            return f"value outside [0, 1] in {r}"
    return None


def _check_realize(job, stdout, text):
    from simact import serialize as ser
    from simact.equivalence import action_to_sim
    from simact.rationals import parse_rational
    from simact.sim import Partition

    doc = json.loads(text)
    action = ser.load_action(doc)
    partition = Partition(tuple(parse_rational(c) for c in doc["cuts"]))
    table = job.data["table"]
    if action_to_sim(action, table.window, partition).masses != table.masses:
        return "realized action does not reproduce the table"
    return None


def _check_graph(job, stdout, text):
    """Recompute each reported witness diameter from the table's masses."""
    masses = job.data["table"].masses
    p = job.data["table"].partition.p
    rows = _rows(text)
    if len(rows) != 2:
        return f"{len(rows)} window pairs, want 2"
    for row in rows:
        m = masses if row["alpha"] == "0" else {(j, i): v for (i, j), v in masses.items()}
        a_set = {i for i, c in enumerate(row["best_a"]) if c == "1"}
        b_set = {j for j, c in enumerate(row["worst_b"]) if c == "1"}
        if len(row["best_a"]) != p or len(row["worst_b"]) != p:
            return "witness masks have the wrong length"
        a = sum((v for (i, _j), v in m.items() if i in a_set), Fraction(0))
        x = sum((v for (i, j), v in m.items() if i in a_set and j in b_set), Fraction(0))
        b = sum((v for (_i, j), v in m.items() if j in b_set), Fraction(0))
        diameter = max(a, x, b) - min(a, x, b)
        if diameter != Fraction(row["diameter_exact"]):
            return f"witness diameter {diameter} != reported {row['diameter_exact']}"
        if (row["ok"] == "1") != (diameter < EPSILON_GRAPH):
            return "ok flag disagrees with the diameter"
    return None


def _check_recover(job, stdout, text):
    lines = stdout.splitlines()
    if len(lines) != 1 or not lines[0].startswith("pair (0,)->(1,): map ") or not lines[0].endswith(" defect 0"):
        return f"witness lines {lines}"
    mapping = lines[0].split(" map ")[1].split(" ")[0].split(",")
    if sorted(int(m) for m in mapping) != list(range(job.data["p"])):
        return "witness map is not a permutation of the pieces"
    doc = json.loads(text)
    if doc["d"] != 1 or len(doc["generators"]) != 1 or sorted(doc["generators"][0]) != list(range(doc["n"])):
        return "recovered action is not a permutation"
    return None


def _check_dist(job, stdout, text):
    (row,) = _rows(text)
    if Fraction(row["tail_exact"]) != Fraction(1, 16) or not _unit(Fraction(row["distance_exact"])):
        return f"dist row {row}"
    return None


def _check_embed(job, stdout, text):
    doc = json.loads(text)
    if doc["w"] != 2 or doc["cuts"] != ["0", "1/2"]:
        return "embedded table has the wrong window or cuts"
    if sum((Fraction(v) for v in doc["masses"].values()), Fraction(0)) != 1:
        return "embedded masses do not sum to 1"
    return None


def _check_factor(job, stdout, text):
    (row,) = _rows(text)
    if not 0 <= Fraction(row["defect_exact"]) <= Fraction(1, 2):
        return f"defect {row['defect_exact']} outside [0, 1/2]"
    return None


CHECKS = {
    "wrp": _check_wrp,
    "smooth": _check_smooth,
    "realize": _check_realize,
    "graph": _check_graph,
    "recover": _check_recover,
    "dist": _check_dist,
    "embed": _check_embed,
    "factor": _check_factor,
}
