"""Seeded random instances for experiments and tests.

Everything draws from the stdlib Mersenne Twister.  Per-trial generators are
derived as Random(f"{seed}:{trial}"), so trial k produces the same objects no
matter how many trials run before it or in what order.  Sequences are stable
for a fixed Python build; that is the reproducibility contract.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate, chain, product
from math import lcm, prod

from . import budget
from .action import LatticeAction
from .measure import Adaptation, StepMeasure, from_piece_masses
from .sim import CylinderTable, Partition, Window
from .transform import IntervalPermutation

__all__ = [
    "trial_rng",
    "random_cycle_lengths",
    "permutation_from_cycle_lengths",
    "aperiodic_permutation",
    "random_permutation",
    "random_action",
    "random_good_measure",
    "random_adaptation",
    "random_partition",
    "markov_table",
    "iid_table",
    "diagonal_table",
    "random_graph_joining",
]


def trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random(f"{seed}:{trial}")


# -- permutations and actions --------------------------------------------------


def random_cycle_lengths(rng, n: int, unit: int) -> list[int]:
    """Random composition of n into multiples of unit.  With unit a power
    of two, every power-of-two tower height up to unit stacks the parts
    without leftover."""
    if unit < 1 or n % unit:
        raise ValueError("n must be divisible by the part granularity")
    if n < unit:
        raise ValueError(f"n = {n} cannot hold a part of length >= {unit}")
    parts = []
    left = n // unit
    while left > 1:
        take = rng.randint(1, left - 1)
        parts.append(take * unit)
        left -= take
    return parts + [unit]


def permutation_from_cycle_lengths(rng, n: int, lengths) -> IntervalPermutation:
    """Random permutation with the given cycle type: cells are shuffled and
    carved into consecutive cycles, and each cycle's images are the cycle
    rotated by one.  The cycles tile the shuffled cells, so
    `IntervalPermutation._matched` builds a bijection without the check."""
    if sum(lengths) != n:
        raise ValueError("cycle lengths must sum to n")
    if any(length < 1 for length in lengths):
        raise ValueError("cycle lengths must be >= 1")
    cells = list(range(n))
    rng.shuffle(cells)
    edges = list(accumulate(lengths, initial=0))
    images = (cells[lo + 1 : hi] + cells[lo : lo + 1] for lo, hi in zip(edges, edges[1:]))
    return IntervalPermutation._matched(n, cells, chain.from_iterable(images))


def aperiodic_permutation(rng, n: int, min_cycle: int) -> IntervalPermutation:
    """All cycle lengths are multiples of min_cycle, hence >= min_cycle."""
    lengths = random_cycle_lengths(rng, n, min_cycle)
    return permutation_from_cycle_lengths(rng, n, lengths)


def random_permutation(rng, n: int) -> IntervalPermutation:
    perm = list(range(n))
    rng.shuffle(perm)
    return IntervalPermutation(n, tuple(perm))


def random_action(rng, d: int, n: int) -> LatticeAction:
    """Rank 1: one random permutation.  Higher ranks: powers of a single
    random permutation, which commute by construction."""
    if d == 1:
        return LatticeAction(1, (random_permutation(rng, n),))
    base = random_permutation(rng, n)
    gens = tuple(base.power(rng.randint(1, 5)) for _ in range(d))
    return LatticeAction(d, gens)


# -- measures and adaptations ---------------------------------------------------


def random_good_measure(rng, max_pieces: int = 4, max_den: int = 12) -> StepMeasure:
    """Plain step density, strictly positive everywhere, no atoms."""
    q = rng.randint(2, max_den)
    want = rng.randint(0, min(max_pieces - 1, q - 1))
    cutpoints = sorted(rng.sample(range(1, q), want))
    cuts = [Fraction(0)] + [Fraction(c, q) for c in cutpoints]
    weights = [rng.randint(1, 8) for _ in cuts]
    total = sum(weights)
    return from_piece_masses(cuts, [Fraction(wt, total) for wt in weights])


def random_adaptation(rng, delta) -> Adaptation:
    """sup |h - id| strictly below delta, knots on a uniform grid finer than
    the jitter so monotonicity never needs fixing up."""
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    k = max(8, min(64, int(2 / delta)))
    bound = min(delta / 2, Fraction(1, 4 * k))
    knots = [(Fraction(0), Fraction(0))]
    for i in range(1, k):
        z = Fraction(i, k)
        jitter = bound * Fraction(rng.randint(-8, 8), 8)
        knots.append((z, z + jitter))
    return Adaptation(tuple(knots))


def random_partition(rng, p: int, max_den: int = 16) -> Partition:
    """p pieces with cuts on a grid of denominator <= max_den."""
    q = rng.randint(p, max_den)
    cutpoints = sorted(rng.sample(range(1, q), p - 1))
    return Partition(tuple([Fraction(0)] + [Fraction(c, q) for c in cutpoints]))


# -- cylinder tables -------------------------------------------------------------


def _solve_stationary(q_matrix) -> list[Fraction]:
    """pi with pi Q = pi and sum 1, by exact elimination; Q must have all
    entries positive so the solution is unique."""
    p = len(q_matrix)
    a = [[q_matrix[j][i] - (Fraction(1) if i == j else Fraction(0)) for j in range(p)] for i in range(p)]
    a[p - 1] = [Fraction(1)] * p
    b = [Fraction(0)] * (p - 1) + [Fraction(1)]
    for col in range(p):
        pivot = next(r for r in range(col, p) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        b[col] *= inv
        for r in range(p):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
                b[r] -= f * b[col]
    return b


def markov_table(rng, p: int, w: int, max_resolution: int | None = None) -> CylinderTable:
    """Shift-consistent rank-1 table from a stationary Markov chain with
    transition weights drawn from 1..3.  With max_resolution set, redraws until
    the lcm of all mass denominators fits, at most MAX_DRAWS times; a draw is
    dropped at the first mass that pushes the running lcm past the cap.  The
    cuts are drawn only for the accepted draw."""
    window = Window(1, w)
    for _draw in range(budget.MAX_DRAWS):
        rows = [[Fraction(rng.randint(1, 3)) for _ in range(p)] for _ in range(p)]
        q_matrix = [[v / sum(row) for v in row] for row in rows]
        pi = _solve_stationary(q_matrix)
        masses = {}
        scale = 1
        for key in product(range(p), repeat=w):
            # pi at the first time, then one transition per step
            m = masses[key] = prod((q_matrix[a][b] for a, b in zip(key, key[1:])), start=pi[key[0]])
            if max_resolution is not None:
                scale = lcm(scale, m.denominator)
                if scale > max_resolution:
                    break
        else:
            cuts = random_partition(rng, p)
            return CylinderTable(window, cuts, masses)
    raise ValueError(f"no draw in {budget.MAX_DRAWS} fits max_resolution {max_resolution}; more draws refused")


def iid_table(partition: Partition, masses, w: int, d: int = 1) -> CylinderTable:
    """Product table: independent identical label distribution at each time."""
    masses = [Fraction(m) for m in masses]
    window = Window(d, w)
    keyed = ((key, prod(masses[j] for j in key)) for key in product(range(partition.p), repeat=window.size()))
    return CylinderTable(window, partition, {key: mass for key, mass in keyed if mass > 0})


def diagonal_table(partition: Partition, masses, w: int, d: int = 1) -> CylinderTable:
    """All window labels equal: the table of the identity action when the
    masses are the piece lengths."""
    masses = [Fraction(m) for m in masses]
    window = Window(d, w)
    table = {
        (j,) * window.size(): masses[j] for j in range(partition.p) if masses[j] > 0
    }
    return CylinderTable(window, partition, table)


def random_graph_joining(rng, p: int) -> CylinderTable:
    """Two-time table concentrated on the graph of a random piece
    permutation; masses are constant along its cycles, which is exactly the
    shift-consistency constraint."""
    sigma = list(range(p))
    rng.shuffle(sigma)
    seen = set()
    weight = [Fraction(0)] * p
    for i in range(p):
        if i in seen:
            continue
        wgt = Fraction(rng.randint(1, 8))
        j = i
        while j not in seen:
            seen.add(j)
            weight[j] = wgt
            j = sigma[j]
    total = sum(weight, Fraction(0))
    masses = {(i, sigma[i]): weight[i] / total for i in range(p)}
    cuts = Partition(tuple(Fraction(i, p) for i in range(p)))
    return CylinderTable(Window(1, 2), cuts, masses)
