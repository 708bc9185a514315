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

# The graph test builds one pair matrix for each of the k(k-1) ordered pairs
# of the k = w^d window times.  Building it walks every table key, KEY_STEPS
# steps each; the pair's set-up, verdict and output row take PAIR_STEPS; and
# its search takes at most 2^(2p-1) steps, a step being one list element of
# an exact search over the unions A for some B.  On one core of a shared
# 2-vCPU machine a step took 0.13 to 0.17 us, a key 0.3 to 0.5 us and the rest
# of a pair about 60 us.  `graph-test` on a two-time iid table exited 0 at
# p = 12 (half the cap) in 2.1 to 2.5 s and at p = 13 (twice the cap) in 9.3
# to 11 s; on the one-piece table of rank 8 and w = 2 (65,280 pairs, 0.88 of
# the cap) in 3.8 to 3.9 s.  So the cap is about 5 s.
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
# tree once, so a term takes O(n) steps and the whole distance O(terms * n),
# a product each cap above bounds only in part.  The charge terms * n * (depth +
# TERM_LEVELS) over-counts the deeper levels; it is kept so that every input
# keeps its exit code.  On one core of a shared 2-vCPU machine, `dist` on two
# random maps at 0.94 of the cap took 1.3 to 1.4 s at depth 1, n = 2^17 and
# 12 terms, 1.5 to 1.6 s at depth 1, n = 2^18 and 6 terms, and 0.3 to 0.6 s
# at depth 8, n = 2^14 and 40 terms, file reading included.
TERM_LEVELS = 4
MAX_WORK = 1 << 23

# The rungs of `smooth` halve delta < 1, so past 40 rungs the narrowest
# widths fall below 2^-40 and print as zero in the 12-decimal column.  40
# rungs on the golden Markov tables took 0.22 to 0.34 s.
MAX_STEPS = 40

# Table distances and smoothing walk the cylinder patterns of a window: a
# label or a free slot at each of its w^d times, so up to (p+1)^(w^d) of
# them, one integer each, held at once.  A one-rung `smooth` at the cap
# (p = 1, w = 20) took 5.6 s and 340 MiB on one core of a shared 2-vCPU machine.
MAX_PATTERNS = 1 << 20

# `smooth` runs a full blur, table distance and fixed-mass report on each of
# its K+1 rungs, rung 0 (delta = 0) included, so it walks up to
# (K+1)(p+1)^(w^d) patterns.  On the one-piece table of w = 18 (2^18 patterns)
# it took 1.2 to 1.6 s at K = 1, 4.0 s at K = 6 (0.875 of the cap), 5.5 s at
# K = 7 and 22.6 s at K = 40 on one core of a shared 2-vCPU machine, 2.2 to
# 2.7 us a pattern and rung.  So the cap is about 5 s, and it still takes a
# one-rung smooth at the pattern cap.
MAX_SMOOTH_WORK = 1 << 21

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


def action_dist(n_a: int, n_b: int, terms: int, depth: int, distances: int = 1) -> None:
    """Refuse an action distance between resolutions n_a and n_b above its
    caps: the terms, the depth, the grid, the work of one distance and then
    of `distances` of them (a `wrp-demo` trial's heights+1), in that order."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    check("terms", terms, MAX_TERMS)
    n = coarse_grid(lcm(n_a, n_b), depth)
    # each term is O(n); the charge per level over-counts it (see MAX_WORK)
    work = terms * n * (depth + TERM_LEVELS)
    check(f"work terms*n*(depth+{TERM_LEVELS}) =", work, MAX_WORK)
    check(f"work (heights+1)*terms*n*(depth+{TERM_LEVELS}) =", distances * work, MAX_WORK)


def patterns(p: int, k: int) -> int:
    """The (p+1)^k cylinder patterns of p pieces on k window times, refused above MAX_PATTERNS."""
    return check("cylinder patterns (p+1)^(w^d) =", (p + 1) ** k, MAX_PATTERNS)


def smooth(p: int, k: int, steps: int) -> None:
    """Refuse a `smooth` ladder of `steps` rungs above zero, on p pieces and
    k window times, above its caps: the rungs, the patterns of one pass and
    then the patterns of all steps+1 distances, in that order."""
    check("steps", steps, MAX_STEPS)
    check("work (steps+1)*(p+1)^(w^d) =", (steps + 1) * patterns(p, k), MAX_SMOOTH_WORK)


def graph_test(p: int, k: int, keys: int) -> None:
    """Refuse a graph test of p pieces on k window times of a table with
    `keys` keys above MAX_GRAPH_WORK."""
    work = k * (k - 1) * (PAIR_STEPS + KEY_STEPS * keys + 2 ** (2 * p - 1))
    check(f"work k(k-1)*({PAIR_STEPS}+{KEY_STEPS}*keys+2^(2p-1)) =", work, MAX_GRAPH_WORK)
