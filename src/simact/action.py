"""Commuting tuples of interval permutations: measure-preserving lattice actions.

A rank-d action is given by d pairwise-commuting interval permutations at a
shared resolution.  The group element (k_1, ..., k_d) acts as the product
of generator powers; commutativity makes the product order irrelevant and
is checked exactly on construction.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from math import lcm

from . import budget
from .transform import (
    IntervalPermutation,
    coarse_dist,
    common_resolution,
    identity,
    tower_columns,
)

__all__ = [
    "GroupElement",
    "LatticeAction",
    "group_enumeration",
    "action_dist",
    "action_dist_tail",
    "conjugate",
    "tower_heights",
    "free_defect",
    "wrp_conjugacy_search",
    "WrpResult",
    "InfeasibleError",
]

GroupElement = tuple[int, ...]


@dataclass(frozen=True)
class LatticeAction:
    """d commuting interval permutations, one per lattice direction."""

    d: int
    generators: tuple[IntervalPermutation, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("rank must be >= 1")
        if len(self.generators) != self.d:
            raise ValueError("need one generator per direction")
        gens = common_resolution(*self.generators)
        object.__setattr__(self, "generators", gens)
        # g_i g_j = g_j g_i, compared on the perm tuples without building either
        perms = [g.perm for g in gens]
        for i, j in combinations(range(self.d), 2):
            pi, pj = perms[i], perms[j]
            if list(map(pi.__getitem__, pj)) != list(map(pj.__getitem__, pi)):
                raise ValueError(f"generators {i} and {j} do not commute")

    @property
    def n(self) -> int:
        return self.generators[0].n

    def refine(self, n2: int) -> "LatticeAction":
        return LatticeAction(self.d, tuple(g.refine(n2) for g in self.generators))

    def evaluate(self, gamma: GroupElement) -> IntervalPermutation:
        """The permutation for the lattice element gamma: the product of the
        nonzero generator powers alone, so the zero element is identity(n)
        and a single nonzero coordinate k of g is g.power(k) itself."""
        if len(gamma) != self.d:
            raise ValueError(f"group element {gamma} has wrong rank (want {self.d})")
        out = None
        for g, k in zip(self.generators, gamma):
            if k:
                out = g.power(k) if out is None else out.compose(g.power(k))
        return identity(self.n) if out is None else out

    def elements(self, gammas: list[GroupElement]) -> Iterator[IntervalPermutation]:
        """The map of each lattice element of gammas, in order, built on demand.

        Shells 0 and 1 (max-norm) go through evaluate.  A gamma of shell
        s >= 2 is the map of nu after the map of gamma - nu, where nu steps
        each coordinate of absolute value s once toward 0; the generators
        commute, so the product is exact.  So the shells of gammas must
        ascend, and for a gamma of shell s >= 2, nu must be in the list's
        shell s - 1 and gamma - nu in its shell 1, as in a group_enumeration
        prefix or a window's times sorted stably by their largest coordinate.
        Only shell 1, the previous shell and the current one are held.
        """
        unit: dict[GroupElement, IntervalPermutation] = {}
        prev: dict[GroupElement, IntervalPermutation] = {}
        cur: dict[GroupElement, IntervalPermutation] = {}
        shell = 0
        for gamma in gammas:
            s = max(map(abs, gamma))
            if s != shell:
                if shell == 1:
                    unit = cur
                prev, cur, shell = cur, {}, s
            if s <= 1:
                out = self.evaluate(gamma)
            else:
                nu = tuple(c - (c > 0) + (c < 0) if abs(c) == s else c for c in gamma)
                out = prev[nu].compose(unit[tuple(g - v for g, v in zip(gamma, nu))])
            cur[gamma] = out
            yield out


def group_enumeration(d: int, count: int) -> list[GroupElement]:
    """The first `count` lattice elements: by max-norm shell, then descending
    lexicographic order within a shell, so rank 1 runs 0, 1, -1, 2, -2, ...
    """
    if d < 1:
        raise ValueError("rank must be >= 1")
    if count < 0:
        raise ValueError("count must be >= 0")
    out: list[GroupElement] = []
    shell = 0
    while len(out) < count:
        for gamma in product(*(range(shell, -shell - 1, -1) for _ in range(d))):
            if max((abs(c) for c in gamma), default=0) == shell:
                out.append(gamma)
                if len(out) == count:
                    return out
        shell += 1
    return out


def action_dist(a: LatticeAction, b: LatticeAction, terms: int, depth: int) -> Fraction:
    """Sum over the first `terms` lattice elements of 2^-j times the coarse
    distance of the two time-gamma_j maps.  Tail bound: action_dist_tail(terms).
    The maps come from `LatticeAction.elements` and are summed by `_dist`."""
    if a.d != b.d:
        raise ValueError(f"rank mismatch: {a.d} vs {b.d}")
    budget.action_dist(a.n, b.n, terms, depth, rank=a.d)
    gammas = group_enumeration(a.d, terms)
    return _dist(a.elements(gammas), b.elements(gammas), depth)


def _dist(
    a_elems: Iterable[IntervalPermutation],
    b_elems: Iterable[IntervalPermutation],
    depth: int,
    bound: Fraction | None = None,
) -> Fraction:
    """The weighted sum of coarse distances of paired lattice elements, the
    j-th pair weighing 2^-j.  With `bound` given, the partial sum is returned
    as soon as it is strictly above it: the result is the distance when that
    is <= bound, and otherwise some value above bound and at most the
    distance."""
    total = Fraction(0)
    for j, (ta, tb) in enumerate(zip(a_elems, b_elems), start=1):
        c = coarse_dist(ta, tb, depth)
        if c:
            total += c / 2**j
            if bound is not None and total > bound:
                break
    return total


def action_dist_tail(terms: int) -> Fraction:
    return Fraction(1, 2**terms)


def conjugate(phi: IntervalPermutation, a: LatticeAction) -> LatticeAction:
    """The action with generators phi g phi^-1, each built in one pass:
    phi g phi^-1 sends phi(i) to phi(g(i))."""
    n = lcm(phi.n, a.n)
    p = phi.refine(n).perm
    gens = (IntervalPermutation._matched(n, p, map(p.__getitem__, g.refine(n).perm)) for g in a.generators)
    return LatticeAction(a.d, tuple(gens))


def free_defect(a: LatticeAction, k_max: int) -> list[tuple[GroupElement, Fraction]]:
    """Fixed-point mass of every nonzero element with max-norm <= k_max."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    count = (2 * k_max + 1) ** a.d
    gammas = group_enumeration(a.d, count)
    out = []
    for gamma, t in zip(gammas, a.elements(gammas)):
        if all(c == 0 for c in gamma):
            continue
        fixed = sum(1 for i, pi in enumerate(t.perm) if pi == i)
        out.append((gamma, Fraction(fixed, a.n)))
    return out


# -- conjugacy search --------------------------------------------------------


class InfeasibleError(ValueError):
    """The aperiodicity on offer cannot support the tower heights needed."""


@dataclass(frozen=True)
class WrpResult:
    phi: IntervalPermutation
    achieved: Fraction
    height: int


def _matched_tower_map(
    t: IntervalPermutation, r: IntervalPermutation, height: int
) -> IntervalPermutation:
    """Conjugator built from equal-mass towers of the given height.

    The columns of each tower are slices of the map's cached cycles
    (`tower_columns`), sorted by base cell.  Both sides are trimmed to the
    smaller column count (dropping the largest bases) and matched
    smallest-to-smallest, cell by cell up each column, so that level i of
    the T-tower lands on level i of the R-tower coherently.  When the
    columns do not cover the grid, `IntervalPermutation._matched` pairs the
    leftover cells smallest-to-smallest.  The columns of one map are
    disjoint runs of cells, so the matching is a bijection by construction
    and skips the check.
    """
    cols_t, cols_r = tower_columns(t, height), tower_columns(r, height)
    keep = min(len(cols_t), len(cols_r))
    if keep == 0:
        raise ValueError(f"no full column of height {height} fits either map")
    src = list(chain.from_iterable(cols_t[:keep]))
    return IntervalPermutation._matched(t.n, src, chain.from_iterable(cols_r[:keep]))


def tower_heights(epsilon: Fraction, min_cycle: int) -> list[int]:
    """The tower heights of a conjugacy search: from the smallest h with
    2^(2-h) < epsilon/2, doubling, up to the shortest cycle length, which is
    always the last; InfeasibleError if that cycle is shorter than h.  An
    epsilon <= 0 has no such h and is refused."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    # 4/2^h >= epsilon/2, in integers
    h = 1
    while 8 * epsilon.denominator >= epsilon.numerator << h:
        h += 1
    if min_cycle < h:
        raise InfeasibleError(f"aperiodicity precondition fails: cycle of length {min_cycle} < height {h}")
    heights = []
    while h <= min_cycle:
        heights.append(h)
        h *= 2
    if heights[-1] != min_cycle:
        heights.append(min_cycle)
    return heights


def wrp_conjugacy_search(
    a: LatticeAction, b: LatticeAction, epsilon, terms: int, depth: int
) -> WrpResult:
    """Search for phi with action_dist(phi a phi^-1, b) < epsilon (rank 1).

    Candidate tower heights start at the smallest h with 2^(2-h) < epsilon/2
    and double up to the shorter minimum cycle length.  Every height of the
    ladder is built and measured, tallest first, and the least distance wins,
    ties going to the smaller height, so exactly conjugate pairs come back
    with distance 0.  A height stops summing its distance once the partial
    sum is above the best complete one, since it can no longer win.  The
    target's `terms` lattice elements are built once and held for every
    height: terms*n slots, which the charge of one distance keeps under
    MAX_WORK; that charge comes after the ladder, so an infeasible ladder is
    refused first.  The returned distance is computed from scratch, so the
    certificate never depends on the construction being right.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if a.d != 1 or b.d != 1:
        raise ValueError("conjugacy search is rank-1 only")
    n = lcm(a.n, b.n)
    aa, bb = a.refine(n), b.refine(n)
    t, r = aa.generators[0], bb.generators[0]
    min_cycle = min(min(t.cycle_lengths()), min(r.cycle_lengths()))
    heights = tower_heights(epsilon, min_cycle)
    budget.action_dist(n, n, terms, depth)
    gammas = group_enumeration(1, terms)
    b_elems = list(bb.elements(gammas))
    best: WrpResult | None = None
    for height in reversed(heights):
        phi = _matched_tower_map(t, r, height)
        bound = None if best is None else best.achieved
        achieved = _dist(conjugate(phi, aa).elements(gammas), b_elems, depth, bound)
        if bound is None or achieved <= bound:
            best = WrpResult(phi, achieved, height)
    assert best is not None
    if best.achieved < epsilon:
        return best
    raise ValueError(
        f"search failed: best achieved {best.achieved} at height {best.height}, want < {epsilon}"
    )
