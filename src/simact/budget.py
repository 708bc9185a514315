"""Size caps.  simact computes exactly, so a small input can ask for an
lcm-sized grid or an exponential enumeration; each size is checked against
its cap before any work, and a breach raises ValueError (exit 4 in the CLI)."""

# The largest grid simact builds.  Resolutions are lcms of denominators read
# from input files (the table's masses; the action's resolution and the cuts
# or dyadic levels), so a small file can ask for an unbounded permutation.
MAX_RESOLUTION = 1 << 20

# The exact coarse distance at depth m has the denominator n * 2^(2^(m+1) - 2),
# whose digit count doubles with each level; 12 is the last depth whose value
# prints under CPython's default 4300-digit limit on int-to-str conversion.
MAX_DEPTH = 12

# The graph test enumerates the 2^p unions A of pieces for each of at most
# 2^(p-1) unions B, since a union and its complement have the same best
# diameter; each of the 2^p unions B costs one O(p) greedy call besides.
MAX_PIECES = 16

# The graph test builds one pair matrix and tests it for each of the k(k-1)
# ordered pairs of the k = w^d window times.  At p = 1 and rank 8 with w = 2
# (65,280 pairs) `graph-test` took 4.6 to 11 s in six runs on a shared 2-vCPU
# machine, and each more rank multiplies that by about 8.
MAX_WINDOW_PAIRS = 1 << 16

# The j-th lattice element of an action distance weighs 2^-j, so the terms
# past 64 move it by at most 2^-64, far below the 12 decimals a distance
# prints; each term still costs two evaluations and one coarse distance on
# the full grid, and widens the exact sum's denominator by one bit.
MAX_TERMS = 64

# Each term of an action distance evaluates both actions, refines the two
# maps to the grid n = lcm(n_A, n_B, 2^depth) and reads the finest dyadic
# interval of each image, all O(n) whatever the depth, then walks the cells
# that two maps send apart once per dyadic level; so its cost grows with
# terms * n * (depth + TERM_LEVELS), a product each cap above bounds only in
# part.  On one core of a shared 2-vCPU machine a level took about 0.3 us per
# cell, and the O(n) part of a term as much as 1 (n = 2^12) to 7 (n = 2^18)
# levels.  Runs at 0.94 of the cap took 2.4 s (depth 8) to 3.9 s (depth 1,
# n = 2^18), so the cap is about 4 s.
TERM_LEVELS = 4
MAX_WORK = 1 << 23

# `smooth` runs a full blur, table distance and fixed-mass report on every
# rung of its ladder, each as costly as a one-rung smooth.  The rungs halve
# delta < 1, so past 40 rungs the narrowest widths fall below 2^-40 and
# print as zero in the 12-decimal column.
MAX_STEPS = 40

# Table distances and smoothing walk the cylinder patterns of a window: a
# label or a free slot at each of its w^d times, so up to (p+1)^(w^d) of
# them, one integer each.  A one-rung `smooth` at the cap (p = 1, w = 20)
# takes about 5 s and 340 MiB on one core of a shared 2-vCPU machine.
MAX_PATTERNS = 1 << 20

# `markov_table` redraws until the lcm of a draw's mass denominators fits its
# max_resolution: p = 4, w = 3 under 200 took 5539 draws (about 5 s) from
# Random(0).  The tests and fixtures need at most 144 draws, and 1000 draws at
# p = 4, w = 3 take about 0.8 s on one core of a shared 2-vCPU machine.
MAX_DRAWS = 1000


class BudgetError(ValueError):
    """A size above its cap.  The CLI exits 4 on it, also where it is raised
    while an input file is read."""


def check(size: str, value: int, cap: int) -> int:
    """Return value, or refuse it above cap; `size` ends in its symbol: "depth", "pieces p =". """
    if value > cap:
        symbol = size.removesuffix(" =").rsplit(" ", 1)[-1]
        # a size read off a file can have more digits than CPython will print
        shown = value if value.bit_length() <= 64 else f"2^{value.bit_length() - 1} or more"
        raise BudgetError(f"{size} {shown} is above the cap of {cap}; {symbol} > {cap} refused")
    return value
