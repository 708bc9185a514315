"""Interval permutations of the circle and dyadic subsets.

An IntervalPermutation cuts [0, 1) into n equal half-open intervals and
moves interval i onto interval perm[i] by translation.  These maps preserve
Lebesgue measure exactly, form a group under composition, and refine
losslessly to any multiple resolution, which makes every distance below an
exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm

from . import budget

__all__ = [
    "IntervalPermutation",
    "DyadicSet",
    "identity",
    "rotation",
    "swap_halves",
    "common_resolution",
    "coarse_dist",
    "coarse_dist_tail",
    "coarse_term_count",
    "halmos_dist",
    "rohlin_tower",
    "tower_columns",
]


@dataclass(frozen=True)
class IntervalPermutation:
    """A permutation of the n equal intervals [i/n, (i+1)/n), acting by translation."""

    n: int
    perm: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(self.perm))
        if self.n < 1:
            raise ValueError("resolution must be positive")
        if len(self.perm) != self.n or sorted(self.perm) != list(range(self.n)):
            raise ValueError(f"perm is not a bijection of 0..{self.n - 1}")

    @classmethod
    def _trusted(cls, n: int, perm: tuple[int, ...]) -> "IntervalPermutation":
        """Skip the bijection check, for a perm tuple laid out whole as a
        bijection (refine, compose, identity, a realized table); a map
        scattered from matched pairs goes through _matched."""
        t = object.__new__(cls)
        object.__setattr__(t, "n", n)
        object.__setattr__(t, "perm", perm)
        return t

    @staticmethod
    def _matched(n: int, src, dst) -> "IntervalPermutation":
        """Send src[i] to dst[i], then the cells no src covers to the unused
        targets, both in ascending order.  src is a sequence of distinct
        cells and dst an iterable of as many distinct cells; that matching
        is the proof of a bijection, so the check is skipped."""
        perm = [-1] * n
        for s, d in zip(src, dst):
            perm[s] = d
        if len(src) < n:
            free = sorted(set(range(n)).difference(perm))
            for s, d in zip([i for i, v in enumerate(perm) if v < 0], free):
                perm[s] = d
        return IntervalPermutation._trusted(n, tuple(perm))

    def refine(self, n2: int) -> "IntervalPermutation":
        """Re-express at a finer resolution; n2 must be a multiple of n."""
        if n2 < 1:
            raise ValueError("resolution must be positive")
        if n2 % self.n != 0:
            raise ValueError(f"{n2} is not a multiple of {self.n}")
        if n2 == self.n:
            return self  # frozen, with a tuple perm: safe to share
        f = n2 // self.n
        return IntervalPermutation._trusted(n2, tuple(pi * f + r for pi in self.perm for r in range(f)))

    def inverse(self) -> "IntervalPermutation":
        return IntervalPermutation._matched(self.n, self.perm, range(self.n))

    def compose(self, other: "IntervalPermutation") -> "IntervalPermutation":
        """self after other (apply other first)."""
        a, b = common_resolution(self, other)
        return IntervalPermutation._trusted(a.n, tuple(map(a.perm.__getitem__, b.perm)))

    def power(self, k: int) -> "IntervalPermutation":
        """k-th iterate for any integer k, via cycle rotation; k = 1 and
        k = -1 need no cycles."""
        if k == 1:
            return self  # frozen, with a tuple perm: safe to share
        if k == -1:
            return self.inverse()
        cycles = self._cycles
        images = (c[k % len(c) :] + c[: k % len(c)] for c in cycles)
        return IntervalPermutation._matched(self.n, list(chain.from_iterable(cycles)), chain.from_iterable(images))

    @cached_property
    def _cycles(self) -> tuple[tuple[int, ...], ...]:
        """The cycles, built on first use; the object is frozen, so they never go stale."""
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            nxt = self.perm[start]
            while nxt != start:
                cycle.append(nxt)
                seen[nxt] = True
                nxt = self.perm[nxt]
            out.append(tuple(cycle))
        return tuple(out)

    def cycle_lengths(self) -> list[int]:
        return [len(c) for c in self._cycles]


def identity(n: int) -> IntervalPermutation:
    if n < 1:
        raise ValueError("resolution must be positive")
    return IntervalPermutation._trusted(n, tuple(range(n)))


def rotation(n: int, k: int) -> IntervalPermutation:
    """Rotation by k/n."""
    return IntervalPermutation(n, tuple((i + k) % n for i in range(n)))


def swap_halves() -> IntervalPermutation:
    return IntervalPermutation(2, (1, 0))


def common_resolution(*ts: IntervalPermutation) -> tuple[IntervalPermutation, ...]:
    n = lcm(*(t.n for t in ts))
    return tuple(t.refine(n) for t in ts)


# -- dyadic sets -------------------------------------------------------------


@dataclass(frozen=True)
class DyadicSet:
    """A union of level-`level` dyadic cells, stored as a bitmask.

    Bit i, and a "1" at character i of mask(), marks [i/2^level, (i+1)/2^level).
    """

    level: int
    bits: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be >= 0")
        if not 0 <= self.bits < (1 << (1 << self.level)):
            raise ValueError("bitmask out of range for level")

    @property
    def cells(self) -> int:
        return 1 << self.level

    @classmethod
    def from_indices(cls, level: int, indices) -> "DyadicSet":
        if level < 0:
            raise ValueError("level must be >= 0")
        mask = bytearray(b"0") * (1 << level)
        for i in indices:
            if not 0 <= i < len(mask):
                raise ValueError("bitmask out of range for level")
            mask[i] = ord("1")
        return cls.from_mask(mask.decode())

    @classmethod
    def from_mask(cls, mask: str) -> "DyadicSet":
        """Inverse of mask(), for a mask of 2^level characters of 0/1."""
        level = len(mask).bit_length() - 1
        if level < 0 or len(mask) != 1 << level or mask.strip("01"):
            raise ValueError("mask must be 2^level characters of 0/1")
        return cls(level, int(mask[::-1], 2))

    def mask(self) -> str:
        return format(self.bits, f"0{self.cells}b")[::-1]

    def mass(self) -> Fraction:
        return Fraction(self.bits.bit_count(), self.cells)


# -- distances ---------------------------------------------------------------


def coarse_term_count(depth: int) -> int:
    return 2 ** (depth + 1) - 2


def coarse_dist(t: IntervalPermutation, r: IntervalPermutation, depth: int) -> Fraction:
    """Weighted preimage disagreement over dyadic intervals.

    The k-th test set (1-indexed, level 1 first, left to right within a
    level, levels up to `depth`) carries weight 2^-k; the summand is the
    measure of T^-1(E) xor R^-1(E).  The truncation tail is bounded by
    coarse_dist_tail(depth).

    Cost O(n + 2^depth) at the common resolution n = lcm(t.n, r.n, 2^depth),
    in exact integers.  The test sets form a binary heap: test set k is node
    g = k + 1, node g has children 2g and 2g + 1, and the level-`depth`
    interval x is the leaf 2^depth + x.  Cell i lies in exactly one of
    T^-1(E), R^-1(E) iff E holds exactly one of its two images, that is iff
    E's node lies above exactly one of the leaves x != y of those images.
    So the cell adds +1 at both leaves and -2 at their lowest common node,
    and one bottom-up sweep turns these into subtree sums, which are the
    disagreement counts diff_g.  With K = coarse_term_count(depth) the sum
    is (sum_g diff_g 2^(K+1-g)) / (n 2^K), built as one integer numerator.
    """
    n = budget.coarse_grid(lcm(t.n, r.n), depth)
    tt, rr = t.refine(n), r.refine(n)
    if tt.perm == rr.perm:
        return Fraction(0)
    top = coarse_term_count(depth)
    span = n >> depth
    leaf = 1 << depth
    count = [0] * (2 * leaf)
    for a, b in zip(tt.perm, rr.perm):
        if a != b:
            x, y = a // span, b // span
            if x != y:
                count[leaf + x] += 1
                count[leaf + y] += 1
                count[(leaf + x) >> (x ^ y).bit_length()] -= 2
    num = 0
    # children come after their parent, so each count is a whole subtree sum when read
    for g in range(2 * leaf - 1, 1, -1):
        c = count[g]
        if c:
            num += c << (top + 1 - g)
            count[g >> 1] += c
    return Fraction(num, n << top)


def coarse_dist_tail(depth: int) -> Fraction:
    """Upper bound for the discarded terms: sum of weights past the cutoff."""
    return Fraction(1, 2 ** coarse_term_count(depth))


def halmos_dist(t: IntervalPermutation, r: IntervalPermutation) -> Fraction:
    """Mass of the set where the two maps disagree."""
    tt, rr = common_resolution(t, r)
    diff = sum(1 for a, b in zip(tt.perm, rr.perm) if a != b)
    return Fraction(diff, tt.n)


# -- towers ------------------------------------------------------------------


def tower_columns(t: IntervalPermutation, height: int) -> list[tuple[int, ...]]:
    """The columns cycle[pos:pos + height] of every cycle, pos = 0, height, ...
    while a whole column fits, sorted by base cell; cell j + 1 of a column is
    the image of cell j, so each column is one point's orbit up a tower."""
    if height < 1:
        raise ValueError("height must be >= 1")
    columns = []
    for cycle in t._cycles:
        columns.extend(cycle[pos : pos + height] for pos in range(0, len(cycle) - height + 1, height))
    # base cells are distinct, so the tuples sort by their first cell
    columns.sort()
    return columns


def rohlin_tower(t: IntervalPermutation, height: int, epsilon) -> DyadicSet:
    """A base B whose levels B, T(B), ..., T^(height-1)(B) are disjoint
    and cover mass >= 1 - epsilon.

    Feasibility check: with epsilon = 0 every cycle length must be a
    multiple of the height; otherwise every cycle must have length at least
    height / epsilon.  The returned tower is re-verified before returning.
    """
    epsilon = Fraction(epsilon)
    if height < 1:
        raise ValueError("height must be >= 1")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    for ln in t.cycle_lengths():
        if epsilon == 0:
            if ln % height != 0:
                raise ValueError(
                    f"infeasible: cycle of length {ln} is not a multiple of height {height}"
                )
        elif ln * epsilon < height:
            raise ValueError(
                f"infeasible: cycle of length {ln} is shorter than height/epsilon"
            )
    m = t.n.bit_length() - 1
    if t.n != 1 << m:
        raise ValueError(f"resolution {t.n} is not a power of two; base cannot be dyadic")
    base = [col[0] for col in tower_columns(t, height)]
    out = DyadicSet.from_indices(m, base)
    # exact post-check: disjoint levels, enough mass
    seen: set[int] = set()
    level = base
    count = 0
    for _ in range(height):
        for c in level:
            if c in seen:
                raise AssertionError("tower levels overlap")
            seen.add(c)
        count += len(level)
        level = [t.perm[c] for c in level]
    assert Fraction(count, t.n) >= 1 - epsilon
    return out
