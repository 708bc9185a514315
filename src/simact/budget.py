"""Size caps and the work formulas they bound.  simact computes exactly, so a
small input can ask for an lcm-sized grid or an exponential enumeration; each
size is checked before any work, and a breach raises ValueError (exit 4 in the CLI)."""

from math import lcm

# The largest grid simact builds.  Resolutions are lcms of denominators read
# from input files (the table's masses; the action's resolution and the cuts
# or dyadic levels), so a small file can ask for an unbounded permutation.  At
# the cap `dist` of two random maps (one term, depth 1) took 2.3 s and `realize`
# 2.0 to 2.1 s on one core of a shared 2-vCPU machine.
MAX_RESOLUTION = 1 << 20

# The exact coarse distance at depth m has the denominator n * 2^(2^(m+1) - 2),
# whose digit count doubles with each level; 12 is the last depth whose value
# prints under CPython's default 4300-digit limit on int-to-str conversion.
# `dist` at depth 12 (six terms, n = 2^12) took 0.34 to 0.39 s.
MAX_DEPTH = 12

# The graph test gives a verdict for each of the k(k-1) ordered pairs of the
# k = w^d window times.  Building a pair matrix walks every table key, KEY_STEPS
# steps each; the pair's set-up, verdict and output row take PAIR_STEPS; and
# its search takes at most 2^(2p-1) steps, a step being one list element of
# an exact search over the unions A for some B.  On one core of a shared
# 2-vCPU machine a step took 0.13 to 0.17 us, a key 0.3 to 0.5 us and the rest
# of a pair about 60 us.  `graph-test` on a two-time iid table exited 0 at
# p = 12 (half the cap) in 2.1 to 2.5 s and at p = 13 (twice the cap) in 9.3
# to 11 s; on the one-piece table of rank 8 and w = 2 (65,280 pairs, 0.88 of
# the cap) in 3.8 to 3.9 s.  So the cap is about 5 s.  A shift-consistent
# table's pair matrix depends only on the time difference, so the test
# builds one matrix per difference, searches it and its transpose, and reads
# those verdicts for every other pair: (2w-1)^d - 1 searches, not k(k-1).  At
# d = 1 the charge errs on the safe side by about w/2, and the rank-8 table
# above, mostly output rows, takes 0.9 to 1.2 s.  A passing search also scans
# only the unions B that leave out the last piece, plus one greedy call per
# complement with a tie, so the search term errs further on the safe side.
PAIR_STEPS = 448
KEY_STEPS = 4
MAX_GRAPH_WORK = 1 << 25

# The j-th lattice element of an action distance weighs 2^-j, so the terms
# past 64 move it by at most 2^-64, far below the 12 decimals a distance
# prints; each term still costs two maps and one coarse distance on the
# full grid, and widens the exact sum's denominator by one bit.  `dist`
# at 64 terms (depth 6, n = 64) took 0.29 to 0.32 s.
MAX_TERMS = 64

# Each term of an action distance builds both actions' maps, one compose
# each past the first shell, refines the two maps to the grid
# n = lcm(n_A, n_B, 2^depth), reads the finest dyadic interval of each image
# in one pass over the cells and sweeps the 2^(depth+1) nodes of the test-set
# tree once; reading two actions of rank d compares each pair of generators
# composed both ways, d(d-1)*n lookups apiece.  So a distance is charged
# terms * (n + 2^(depth+1)) + d(d-1) * n, a sum each cap above bounds only in
# part.  On one core of a shared 2-vCPU machine, `dist` on two random maps at
# 0.94 of the cap took 2.3 to 3.4 s at depth 1, n = 5 * 2^17 and 3 terms, the
# slowest shape found, and 0.7 s at depth 8, n = 2^15 and 58 terms, file
# reading included, which is most of the largest grids' time.  So the cap is
# about 3 s; at twice it the slowest shape took 3.8 to 6 s.  A `wrp-demo`
# trial is charged heights+1 whole distances.  Its search builds the target's
# maps once for every height and holds them (terms*n slots, under the charge
# of one distance), and the verifying distance builds both actions' maps, so
# that charge errs on the safe side; it refuses the same inputs as when every
# height built both.  Reading one action file is charged its d(d-1)*n alone.
# At the cap, 1448 one-cell generators took 4.2 to 4.5 s to read in process
# while the check built two composed maps a pair; comparing the perm tuples
# directly, 0.63 to 0.73 s, and `embed` on them 0.73 to 0.74 s as a process.
# So that charge now errs on the safe side.
MAX_WORK = 1 << 21

# The rungs of `smooth` halve delta < 1, so past 40 rungs the narrowest
# widths fall below 2^-40 and print as zero in the 12-decimal column.  40
# rungs on the golden Markov tables took 0.22 to 0.34 s.
MAX_STEPS = 40

# Table distances and smoothing walk the cylinder patterns of a window: a
# label or a free slot at each of its w^d times, so (p+1)^(w^d) of them, one
# list slot each, held at once whatever the sparsity of the table.  A one-rung
# blur and distance at the cap peaked at 20 MiB on the one-piece table of
# w = 20, 76 MiB on an iid table of p = 3, w = 10 and 298 MiB at p = 15, w = 5,
# where its 759,375 keys hold most of it.
MAX_PATTERNS = 1 << 20

# `smooth` runs a blur, table distance and fixed-mass report on each of its K
# rungs above delta = 0; rung 0 keeps the input table, its distance is 0, and
# it runs only the fixed-mass report.  The charge still counts rung 0 as a full
# rung: that overstates a ladder by one blur and one distance, which keeps it
# conservative, and it refuses the same inputs as when rung 0 ran both.  A rung
# fills the (p+1)^k slots of the dense distance, k = w^d, walks the up to p^k
# keys of the blurred table, k labels each, in the blur and the fixed-mass
# report, and builds the smear weights of the blur, each an overlap integral
# of interval sets: those of each cell's band but the cell's own, whose weight
# is 1 minus the rest of its row.  That is p(p-1) of them when delta is near
# 1; the charge still takes p^2, which errs on the safe side.  KEY_SLOTS was
# fitted when every blurred table also went through the table checks (each
# key, and two marginals per axis); the blur now checks only its rows and
# builds its table unchecked, so the key charge errs on the safe side too, and
# the same inputs are refused.  A key label costs about KEY_SLOTS slots and a
# smear weight about
# SMEAR_SLOTS (160 to 240 us at the full band, delta = 7/8, p = 31 to 300,
# equal and uneven cuts), so a rung is charged
# (p+1)^k + KEY_SLOTS*k*p^k + SMEAR_SLOTS*p^2.  On one core of a shared 2-vCPU
# machine a slot took 0.057 us at p = 1, w = 20 and so did a charged unit at
# p = 31, w = 4 (delta = 7/8, K = 1, file reading included); every shape in
# between took 0.02 to 0.04 us a unit.  So the cap is about 4 s:
# 17 rungs at p = 2, w = 12 (0.94 of it) took 1.3 to 1.5 s and 40 rungs at
# p = 1, w = 18 (0.16 of it) 0.9 s.
KEY_SLOTS = 64
SMEAR_SLOTS = 5000
MAX_SMOOTH_WORK = 1 << 26

# Reading a table file splits each key into its k = w^d labels, reads its
# mass and checks the table; it took 0.5 to 0.6 us a key label (4 to 12 MB
# files of 59,049 to 275,807 keys), JSON parsing included, on one core of a
# shared 2-vCPU machine.  The charge keys*k comes before any label or mass is
# read, so a file above the cap is refused in about the time of its JSON
# parse; one at 0.92 of the cap took 2.0 s to read.
MAX_TABLE_WORK = 1 << 22

# `markov_table` redraws until the lcm of a draw's mass denominators fits its
# max_resolution: p = 4, w = 3 under 200 took 5539 draws (about 5 s) from
# Random(0).  The tests and fixtures need at most 144 draws, and 1000 draws at
# p = 4, w = 3 take about 0.8 s on one core of a shared 2-vCPU machine.
MAX_DRAWS = 1000


class BudgetError(ValueError):
    """A size above its cap.  The CLI exits 4 on it, also where it is raised
    while an input file is read."""


def check(size: str, value: int, cap: int) -> int:
    """Return value, or refuse it above cap; `size` ends in its symbol: "depth", "grid resolution n =". """
    if value > cap:
        symbol = size.removesuffix(" =").rsplit(" ", 1)[-1]
        # a size read off a file can have more digits than CPython will print
        shown = value if value.bit_length() <= 64 else f"2^{value.bit_length() - 1} or more"
        raise BudgetError(f"{size} {shown} is above the cap of {cap}; {symbol} > {cap} refused")
    return value


def coarse_grid(m: int, depth: int) -> int:
    """The grid lcm(m, 2^depth) of a coarse distance at resolution m, with
    the depth and the grid refused above their caps."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    check("depth", depth, MAX_DEPTH)
    return check("grid resolution n =", lcm(m, 2**depth), MAX_RESOLUTION)


def action_dist(n_a: int, n_b: int, terms: int, depth: int, distances: int = 1, rank: int = 1) -> None:
    """Refuse an action distance between resolutions n_a and n_b of the given
    rank above its caps: the terms, the depth, the grid, the work of one
    distance and then of `distances` of them (a `wrp-demo` trial's
    heights+1), in that order."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    check("terms", terms, MAX_TERMS)
    n = coarse_grid(lcm(n_a, n_b), depth)
    work = terms * (n + 2 ** (depth + 1)) + rank * (rank - 1) * n
    formula = "terms*(n+2^(depth+1))+d(d-1)*n"
    check(f"work {formula} =", work, MAX_WORK)
    check(f"work (heights+1)*({formula}) =", distances * work, MAX_WORK)


def action(d: int, n: int) -> None:
    """Refuse reading an action of rank d on n cells above MAX_WORK: its
    commutation check composes each pair of generators both ways."""
    check("work d(d-1)*n =", d * (d - 1) * n, MAX_WORK)


def patterns(p: int, k: int) -> int:
    """The (p+1)^k cylinder patterns of p pieces on k window times, refused above MAX_PATTERNS."""
    return check("cylinder patterns (p+1)^(w^d) =", (p + 1) ** k, MAX_PATTERNS)


def smooth(p: int, k: int, steps: int) -> None:
    """Refuse a `smooth` ladder of `steps` rungs above zero, on p pieces and
    k window times, above its caps: the rungs, the patterns of one pass and
    then the work of all steps+1 rungs, in that order."""
    check("steps", steps, MAX_STEPS)
    work = (steps + 1) * (patterns(p, k) + KEY_SLOTS * k * p**k + SMEAR_SLOTS * p * p)
    formula = f"(steps+1)*((p+1)^(w^d)+{KEY_SLOTS}*w^d*p^(w^d)+{SMEAR_SLOTS}*p^2)"
    check(f"work {formula} =", work, MAX_SMOOTH_WORK)


def table(keys: int, k: int) -> None:
    """Refuse a table file of `keys` mass keys on k window times above
    MAX_TABLE_WORK, before any of its labels or masses is parsed."""
    check("work keys*w^d =", keys * k, MAX_TABLE_WORK)


def graph_test(p: int, k: int, keys: int) -> None:
    """Refuse a graph test of p pieces on k window times of a table with
    `keys` keys above MAX_GRAPH_WORK."""
    work = k * (k - 1) * (PAIR_STEPS + KEY_STEPS * keys + 2 ** (2 * p - 1))
    check(f"work k(k-1)*({PAIR_STEPS}+{KEY_STEPS}*keys+2^(2p-1)) =", work, MAX_GRAPH_WORK)
