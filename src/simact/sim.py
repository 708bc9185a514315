"""Finite-window distributions of shift-invariant measures.

A CylinderTable assigns exact rational masses to the joint piece-labels of
a finite window of lattice times, with the axis-consistency a shift
invariant measure forces on opposite faces of the window box.  Between the
recorded cut points nothing is pinned down; whenever a computation needs
within-piece detail (smoothing, adapted evaluation) the convention is that
mass spreads uniformly inside each cell box, coordinate by coordinate.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, count, product, repeat, takewhile
from math import gcd, lcm
from operator import add, index, itemgetter, mul, neg, sub
from types import MappingProxyType

from . import budget
from . import intervals as iv

__all__ = [
    "Partition",
    "Window",
    "CylinderTable",
    "pair_matrix",
    "sim_dist",
    "GraphTest",
    "graph_witness_exact",
    "greedy_graph_witness",
    "is_graph_joining",
    "is_graph_sim",
    "convolve_sim",
    "average_sims",
    "fixed_mass_report",
    "refine_partition",
    "marginalize_window",
    "marginalize_to",
    "relabel",
    "overlap_rows",
]


@dataclass(frozen=True)
class Partition:
    """Cut points 0 = c_0 < c_1 < ... < c_{p-1} < 1 splitting the circle
    into p half-open pieces; the last piece runs to 1."""

    cuts: tuple[Fraction, ...]

    def __post_init__(self):
        cs = tuple(Fraction(c) for c in self.cuts)
        object.__setattr__(self, "cuts", cs)
        if not cs or cs[0] != 0:
            raise ValueError("first cut must be 0")
        if any(a >= b for a, b in zip(cs, cs[1:])) or cs[-1] >= 1:
            raise ValueError("cuts must be strictly increasing inside [0, 1)")

    @property
    def p(self) -> int:
        return len(self.cuts)

    def piece(self, j: int) -> tuple[Fraction, Fraction]:
        hi = self.cuts[j + 1] if j + 1 < self.p else Fraction(1)
        return self.cuts[j], hi

    def pieces(self) -> list[tuple[Fraction, Fraction]]:
        return [self.piece(j) for j in range(self.p)]


@dataclass(frozen=True)
class Window:
    """The box {0, ..., w-1}^d of lattice times, listed in ascending
    lexicographic order, so a time's position in that list is its
    big-endian radix-w value.  `_shift(beta)` gives the time pairs
    (gamma, gamma + beta) with both times in the box, as two position lists.
    """

    d: int
    w: int

    def __post_init__(self):
        if self.d < 1 or self.w < 1:
            raise ValueError("window needs d >= 1 and w >= 1")

    def elements(self) -> list[tuple[int, ...]]:
        return list(product(range(self.w), repeat=self.d))

    def size(self) -> int:
        return self.w**self.d

    def _positions(self, times) -> list[int]:
        """Positions in elements() of the given times; a time equal to none of them is refused."""
        digits = range(self.w)
        out = []
        for e in times:
            if len(e) != self.d or not all(c in digits for c in e):
                raise ValueError(f"time {e} outside the window")
            out.append(sum(int(c) * self.w ** (self.d - 1 - a) for a, c in enumerate(e)))
        return out

    def _shift(self, beta) -> tuple[list[int], list[int]]:
        """(low, high): the positions of every gamma and gamma + beta both in
        the window, pair by pair in ascending order of gamma."""
        beta = tuple(beta)
        if len(beta) != self.d:
            raise ValueError("shift has wrong rank")
        if all(b == 0 for b in beta):
            raise ValueError("shift must be nonzero")
        digits = range(self.w)
        low, high = [0], [0]
        for b in beta:
            moved = [(c, int(c + b)) for c in digits if c + b in digits]
            low = [i * self.w + c for i in low for c, _h in moved]
            high = [i * self.w + h for i in high for _c, h in moved]
        return low, high


class CylinderTable:
    """Joint masses of piece labels over a window.

    The masses are kept exactly as integers over one shared denominator:
    `nums` maps each full label tuple (aligned with window.elements()) to a
    positive int and `den` is the least common denominator of the masses,
    so the mass of a key is nums[key] / den and sum(nums) == den.  Kernels
    work on nums and den and divide only where a Fraction is read.  The
    window kernels (`relabel`, `sim_dist`) lay nums out densely, one list
    slot per label tuple, so they cost up to (p+1)^k slots for k = w^d
    whatever the number of keys.
    `masses` is the same table as a read-only {key: Fraction} view, built
    on first use.

    The constructor's `masses` argument maps label tuples to nonnegative
    masses (Fraction, int or str); with `den` given, its values are
    integer numerators over den instead.  Zero entries are dropped, and den
    is reduced by the gcd of the numerators.  The public constructor, and
    so `serialize.load_table` and the `sampling` builders, checks every
    key, the signs, the total mass and the shift consistency.  The kernels
    that build a table from checked tables or from an action (`relabel`,
    `marginalize_window`, `average_sims`, `action_to_sim`, `embed_action`)
    go through `_trusted`, which keeps only the canonical form; the tests
    rebuild their outputs through the public constructor.
    """

    def __init__(self, window: Window, partition: Partition, masses, den: int | None = None):
        self.window = window
        self.partition = partition
        if den is not None and den < 1:
            raise ValueError(f"mass denominator {den} must be >= 1")
        k = window.size()
        p = partition.p
        entries = []
        for key, value in masses.items():
            key = tuple(key)
            value = Fraction(value) if den is None else index(value)
            if len(key) != k or min(key) < 0 or max(key) >= p:
                raise ValueError(f"bad assignment key {key}")
            if value < 0:
                raise ValueError(f"negative mass at {key}")
            if value:
                entries.append((key, value))
        if den is None:
            den = lcm(*(value.denominator for _key, value in entries))
            entries = [(key, value.numerator * (den // value.denominator)) for key, value in entries]
        nums = dict(entries)
        total = sum(nums.values())
        if total != den:
            raise ValueError(f"total mass {Fraction(total, den)} != 1")
        self.nums, self.den = _reduced(nums, den)
        self._check_shift_consistency()

    @classmethod
    def _trusted(cls, window: Window, partition: Partition, nums: Mapping, den: int) -> CylinderTable:
        """Skip the checks, for integer numerators that a kernel built from
        checked tables or from an action: keys over the window and
        partition, nonnegative, summing to den and shift-consistent.  Zero
        numerators are still dropped and den reduced by their gcd."""
        t = object.__new__(cls)
        t.window, t.partition = window, partition
        t.nums, t.den = _reduced({key: num for key, num in nums.items() if num}, den)
        return t

    @cached_property
    def masses(self) -> Mapping[tuple[int, ...], Fraction]:
        den = self.den
        return MappingProxyType({key: Fraction(num, den) for key, num in self.nums.items()})

    def _check_shift_consistency(self):
        """The labels on the box minus its last layer along an axis must be
        distributed like the labels on the box minus its first layer.  At
        w = 1 both are empty along every axis, so there is nothing to check."""
        if self.window.w == 1:
            return
        d = self.window.d
        for axis in range(d):
            low, high = self.window._shift([int(a == axis) for a in range(d)])
            if _marginal_nums(self.nums, low) != _marginal_nums(self.nums, high):
                raise ValueError(f"shift consistency fails along axis {axis}")

    def __eq__(self, other):
        if not isinstance(other, CylinderTable):
            return NotImplemented
        return (
            self.window == other.window
            and self.partition == other.partition
            and self.den == other.den
            and self.nums == other.nums
        )


def _reduced(nums: dict, den: int) -> tuple[dict, int]:
    """nums and den divided by the gcd of the numerators; they sum to den,
    so the gcd divides it."""
    g = gcd(*nums.values())
    if g > 1:
        return {key: num // g for key, num in nums.items()}, den // g
    return nums, den


def _project(idx: list[int]):
    """The map from a key to its labels at the window positions idx, as a tuple."""
    if len(idx) > 1:
        return itemgetter(*idx)
    # itemgetter(i) would return the bare label; a slice keeps the tuple
    return itemgetter(slice(idx[0], idx[0] + 1) if idx else slice(0))


def _marginal_nums(nums: dict, idx: list[int]) -> dict[tuple[int, ...], int]:
    """Integer marginal of the numerators on the window positions idx."""
    project = _project(idx)
    out: dict[tuple[int, ...], int] = {}
    for key, num in nums.items():
        sub = project(key)
        out[sub] = out.get(sub, 0) + num
    return out


def marginalize_to(t: CylinderTable, subset) -> dict[tuple[int, ...], Fraction]:
    """Joint masses of the labels at the given window times."""
    nums = _marginal_nums(t.nums, t.window._positions(subset))
    return {sub: Fraction(num, t.den) for sub, num in nums.items()}


def pair_matrix(t: CylinderTable, alpha, beta) -> list[list[Fraction]]:
    """The (alpha, beta) two-time marginal as a p x p matrix."""
    m = marginalize_to(t, [tuple(alpha), tuple(beta)])
    p = t.partition.p
    out = [[Fraction(0)] * p for _ in range(p)]
    for (i, j), mass in m.items():
        out[i][j] = mass
    return out


# -- table metric ------------------------------------------------------------


def _dense(t: CylinderTable) -> list[int]:
    """t's numerators at all p^k label tuples, in the order of
    product(range(p), repeat=k): big-endian mixed radix p over
    window.elements(), zeros included."""
    return list(map(t.nums.get, product(range(t.partition.p), repeat=t.window.size()), repeat(0)))


def _apply_rows(arr: list[int], k: int, p: int, q: int, rows) -> list[int]:
    """Push a dense table through integer weights at every window time.

    arr lists p^k integers in big-endian mixed radix over window.elements()
    (position 0 is the most significant digit).  One pass per position,
    last first, sends run c of that position's radix-p digit to run j of a
    radix-q digit, times w, for each (j, w) in rows[c]; the positions
    already passed carry radix q, so the result lists q^k integers.  At
    position pos a run is the s = q^(k-1-pos) entries under the digit, once
    in each of the p^pos blocks above it.  The runs move as C-level maps
    over slices, each target run written once: one contiguous slice per
    block when s >= p^pos, one step slice per offset inside the run
    otherwise, so a pass loops min(s, p^pos) times in Python.  Weight 1
    skips the multiply.
    """
    into: list[list[tuple[int, int]]] = [[] for _ in range(q)]
    for c, row in enumerate(rows):
        for j, w in row:
            into[j].append((c, w))
    for pos in reversed(range(k)):
        s, blocks = q ** (k - 1 - pos), p**pos
        out = [0] * (blocks * q * s)
        if s >= blocks:
            starts, n, step_in, step_out = [(b * p * s, b * q * s) for b in range(blocks)], s, 1, 1
        else:
            starts, n, step_in, step_out = [(i, i) for i in range(s)], blocks, p * s, q * s
        for src, dst in starts:
            for j, sources in enumerate(into):
                acc = None
                for c, w in sources:
                    a = src + c * s
                    run = arr[a : a + n * step_in : step_in]
                    if w != 1:
                        run = map(mul, run, repeat(w))
                    # a list per sum keeps a wide fan-in from nesting maps
                    acc = run if acc is None else list(map(add, acc, run))
                if acc is not None:
                    b = dst + j * s
                    out[b : b + n * step_out : step_out] = acc
        arr = out
    return arr


def relabel(t: CylinderTable, rows, partition: Partition) -> CylinderTable:
    """Push t's masses through a per-label weight map, one window time at a
    time, and read the result over `partition`.

    rows[c] lists the (j, weight) pairs with nonzero weight for input label
    c: a cell labelled c at some window time sends that share of its mass to
    label j there.  Under the cell-uniform convention this is every
    operation that moves mass inside the window box coordinate by
    coordinate: refinement, smoothing and adapted embedding.

    The weights become integers over the lcm of their denominators, so
    each pass multiplies the table's denominator by that lcm once.  The
    rows are checked before the first pass: one row per input label, every
    target in range(q), every weight nonnegative and every row summing to
    exactly 1.  Such rows are a Markov kernel, which keeps the total mass,
    the signs and the shift consistency of t, so the result is built
    without the table checks and only reduced.  The passes run on the dense
    table (`_apply_rows`), which holds up to max(p, q)^k list slots for p
    labels in and q out, whatever the sparsity of t; so (max(p, q)+1)^k
    above MAX_PATTERNS is refused before the first pass.
    """
    k, p, q = t.window.size(), t.partition.p, partition.p
    budget.patterns(max(p, q), k)
    if len(rows) != p:
        raise ValueError(f"{len(rows)} rows for {p} labels")
    scale = lcm(*(weight.denominator for row in rows for _j, weight in row))
    int_rows = [[(j, weight.numerator * (scale // weight.denominator)) for j, weight in row] for row in rows]
    for c, row in enumerate(int_rows):
        for j, w in row:
            if j not in range(q):
                raise ValueError(f"label {c} sent to {j}, outside range({q})")
            if w < 0:
                raise ValueError(f"negative weight {Fraction(w, scale)} from label {c} to {j}")
        row_sum = sum(w for _j, w in row)
        if row_sum != scale:
            raise ValueError(f"total mass {Fraction(row_sum, scale)} != 1")
    arr = _apply_rows(_dense(t), k, p, q, int_rows)
    nums = {key: v for key, v in zip(product(range(q), repeat=k), arr) if v}
    return CylinderTable._trusted(t.window, partition, nums, t.den * scale**k)


def overlap_rows(cells, targets) -> list[list[tuple[int, Fraction]]]:
    """Rows for `relabel`: (j, share of cells[c] that targets[j] covers) for each j covering some of it."""
    return [
        [(j, cover / (hi - lo)) for j, (a, b) in enumerate(targets) if (cover := min(b, hi) - max(a, lo)) > 0]
        for lo, hi in cells
    ]


def refine_partition(t: CylinderTable, new_cuts) -> CylinderTable:
    """Re-express over a finer partition, splitting cell masses by length
    (the cell-uniform convention makes this exact)."""
    fine = Partition(tuple(sorted(set(t.partition.cuts) | {Fraction(c) for c in new_cuts})))
    return relabel(t, overlap_rows(t.partition.pieces(), fine.pieces()), fine)


def marginalize_window(t: CylinderTable, w2: int) -> CylinderTable:
    """Restrict to the sub-box {0..w2-1}^d."""
    if not 1 <= w2 <= t.window.w:
        raise ValueError("bad sub-window size")
    if w2 == t.window.w:
        return t
    sub = Window(t.window.d, w2)
    nums = _marginal_nums(t.nums, t.window._positions(sub.elements()))
    return CylinderTable._trusted(sub, t.partition, nums, t.den)


def sim_dist(t1: CylinderTable, t2: CylinderTable) -> Fraction:
    """Max over all sub-window cylinders of the mass gap |t1(C) - t2(C)|.

    Tables are first brought to a common window (the smaller box) and a
    common partition (the union of cuts).

    A cylinder is a key pattern with a label or "free" at each window time.
    The signed difference table goes to integer numerators over the lcm of
    the two tables' denominators, laid out densely, and `_apply_rows` runs
    it from radix p to radix p+1 with digit p meaning "free": label c goes
    to c and to p at every time, so each pattern collects the gap of its
    cylinder (the subset-lattice zeta transform, Yates's method).  Cost:
    k = w^d passes over at most (p+1)^k list slots, whatever the sparsity
    of the tables; one division at the end.
    """
    if t1.window.d != t2.window.d:
        raise ValueError(f"rank mismatch: {t1.window.d} vs {t2.window.d}")
    w = min(t1.window.w, t2.window.w)
    budget.patterns(len(set(t1.partition.cuts) | set(t2.partition.cuts)), w ** t1.window.d)
    t1, t2 = marginalize_window(t1, w), marginalize_window(t2, w)
    if t1.partition != t2.partition:
        t1 = refine_partition(t1, t2.partition.cuts)
        t2 = refine_partition(t2, t1.partition.cuts)
    den = lcm(t1.den, t2.den)
    f1, f2 = den // t1.den, den // t2.den
    p = t1.partition.p
    diffs = list(map(sub, map(mul, _dense(t1), repeat(f1)), map(mul, _dense(t2), repeat(f2))))
    diffs = _apply_rows(diffs, t1.window.size(), p, p + 1, [[(c, 1), (p, 1)] for c in range(p)])
    return Fraction(max(max(diffs), -min(diffs)), den)


# -- graph tests -------------------------------------------------------------


@dataclass(frozen=True)
class GraphTest:
    ok: bool
    worst_b: int
    best_a: int
    diameter: Fraction


def _joining(matrix) -> tuple[list[list[int]], int, list[int]]:
    """A pair matrix on integer numerators over the lcm of its entry
    denominators, checked as a joining: square, nonnegative entries, row and
    column marginals equal.  Returns the numerators, the denominator and the
    row sums."""
    p = len(matrix)
    if any(len(r) != p for r in matrix):
        raise ValueError("pair matrix must be square")
    den = lcm(*(x.denominator for r in matrix for x in r))
    nums = [[x.numerator * (den // x.denominator) for x in r] for r in matrix]
    if any(x < 0 for r in nums for x in r):
        raise ValueError("pair matrix has a negative entry; not a joining")
    rows = [sum(r) for r in nums]
    if rows != [sum(r[j] for r in nums) for j in range(p)]:
        raise ValueError("row and column marginals differ; not a joining")
    return nums, den, rows


def _subset_sums(values: list[int]) -> list[int]:
    """The 2^p subset sums of values, indexed by mask: bit i of the mask
    picks values[i].  Built by doubling, so entry mask is the entry of mask
    without its top bit plus the value of that bit."""
    sums = [0]
    for v in values:
        sums += [s + v for s in sums]
    return sums


def _one_b_prelude(matrix, b_mask: int) -> tuple[list[list[int]], int, tuple]:
    """The integer matrix, its denominator and the witness prelude of
    `_graph_test_matrix` for a single B: the row masses, their subset sums,
    the mass each piece sends into B, and the mass of B."""
    nums, den, rows = _joining(matrix)
    a_sums = _subset_sums(rows)
    b_mask &= len(a_sums) - 1
    into_b = [sum(x for j, x in enumerate(r) if b_mask >> j & 1) for r in nums]
    return nums, den, (rows, a_sums, into_b, a_sums[b_mask])


def graph_witness_exact(matrix, b_mask: int, rows=None) -> tuple[int, Fraction]:
    """Best A for this B by full enumeration over the 2^p unions.

    On a joining the mass x of A x B is at most both a = mass(A) and
    b = mass(B), so the diameter of {a, x, b} is max(a, b) - x.  Ties go to
    the smallest mask.  `rows` is private: given the prelude that
    `_graph_test_matrix` builds for this B, `matrix` is its integer
    numerators and the diameter comes back as an integer numerator over
    the same denominator.
    """
    den = None
    if rows is None:
        matrix, den, rows = _one_b_prelude(matrix, b_mask)
    _rows, a_sums, into_b, b_total = rows
    ds = [(a if a > b_total else b_total) - x for a, x in zip(a_sums, _subset_sums(into_b))]
    best = min(ds)
    return ds.index(best), best if den is None else Fraction(best, den)


def greedy_graph_witness(matrix, b_mask: int, rows=None) -> tuple[int, Fraction]:
    """The documented shortcut: A collects the pieces sending more than half
    of their mass into B.  `rows` works as in `graph_witness_exact`."""
    den = None
    if rows is None:
        matrix, den, rows = _one_b_prelude(matrix, b_mask)
    rows, _a_sums, into_b, b_total = rows
    a_mask = a = x = 0
    for i, (r, into) in enumerate(zip(rows, into_b)):
        if r > 0 and 2 * into > r:
            a_mask |= 1 << i
            a += r
            x += into
    d = max(a, b_total) - x
    return a_mask, d if den is None else Fraction(d, den)


def _graph_test_matrix(joining, epsilon: Fraction) -> GraphTest:
    """Worst B over all 2^p unions of a pair matrix, given as the
    `_joining` triple: integer numerators over the lcm of the entry
    denominators, that lcm and the row sums.  Each diameter is compared
    with epsilon by cross-multiplication and divided once at the end.

    The subset sums of the row masses are built once per matrix; in a
    joining the column sums equal the row sums, so they are also the
    masses of the sets B.  The subset sums of each row over its first p-1
    columns give, for every B below 2^(p-1), the mass that row sends into
    B, and the row mass minus that gives what it sends into B's complement.

    A greedy miss (diameter >= epsilon) falls back to the exact search only
    when it could raise the worst: the greedy A is one of the unions the
    exact search ranges over, so the exact diameter is at most the greedy
    one, and a B whose greedy diameter is at most the running worst cannot
    replace it.  A B that can still raise it is compared by its exact
    diameter, so a failing verdict reports the exact diameter of its B.

    Complements halve the scan.  With a = mass(A), b = mass(B), x =
    mass(A x B) and total T, the complements A', B' have mass(A' x B') =
    T - a - b + x, so their diameter max(T - a, T - b) - (T - a - b + x) is
    max(a, b) - x again, and B' has the best diameter of B.  The B below
    2^(p-1), which leave out the last piece, run as above.  If the worst is
    then a miss, no B from 2^(p-1) up can replace it: its exact diameter is
    its complement's, already at most the worst.  Otherwise an upper B =
    full ^ B' can raise the passing worst only through its greedy call, and
    only when B' has a tie, a row of positive mass r sending exactly r/2
    into B'.  Without one, the greedy A of B is the complement of that of
    B' but for zero rows, which add to neither a nor x, so the two greedy
    diameters are equal: at most the worst, or a miss, which an upper B
    never uses.  The tied upper B get their greedy calls in ascending
    order, so the first of equal diameters still wins.  So a pair matrix
    costs at most 2^(p-1) exact searches and 2^(p-1) greedy calls, plus one
    greedy call per tied B' when the verdict passes.
    """
    nums, den, rows = joining
    a_sums = _subset_sums(rows)
    # d / den >= epsilon exactly when d * epsilon.denominator >= bound
    scale, bound = epsilon.denominator, epsilon.numerator * den
    worst_b, worst_a, worst = 0, 0, 0
    into = [_subset_sums(r[:-1]) for r in nums]
    for b_mask, into_b in enumerate(zip(*into)):
        prelude = (rows, a_sums, into_b, a_sums[b_mask])
        a_mask, d = greedy_graph_witness(nums, b_mask, rows=prelude)
        if d > worst and d * scale >= bound:
            a_mask, d = graph_witness_exact(nums, b_mask, rows=prelude)
        if d > worst:
            worst_b, worst_a, worst = b_mask, a_mask, d
    if worst * scale < bound:
        full = len(a_sums) - 1
        tied = set()
        for r, sums in zip(rows, into):
            if r > 0 and r % 2 == 0:
                tied.update(compress(count(), map((r // 2).__eq__, sums)))
        for b_prime in sorted(tied, reverse=True):
            b_mask = full ^ b_prime
            into_b = tuple(r - sums[b_prime] for r, sums in zip(rows, into))
            a_mask, d = greedy_graph_witness(nums, b_mask, rows=(rows, a_sums, into_b, a_sums[b_mask]))
            if d > worst and d * scale < bound:
                worst_b, worst_a, worst = b_mask, a_mask, d
    return GraphTest(worst * scale < bound, worst_b, worst_a, Fraction(worst, den))


def _graph_tests(t: CylinderTable, epsilon, two_times: bool = False) -> list:
    """(alpha, beta, GraphTest) for each ordered pair of distinct window
    times, in window order; every argument and size is checked first.

    A shift-consistent table's (alpha, beta) matrix depends only on beta -
    alpha, and the (beta, alpha) one is its transpose with the same row sums,
    so each time difference builds one `_joining` and tests it both ways.
    With `two_times` only the first pair is tested and returned."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    k = t.window.size()
    if two_times and k != 2:
        raise ValueError("graph joining test needs a two-time window")
    budget.graph_test(t.partition.p, k, len(t.nums))
    elems = t.window.elements()
    by_diff = {}
    for i, alpha in enumerate(elems):
        for beta in elems[i + 1 :]:
            diff = tuple(map(sub, beta, alpha))
            if diff not in by_diff:
                nums, den, rows = joining = _joining(pair_matrix(t, alpha, beta))
                by_diff[diff] = _graph_test_matrix(joining, epsilon)
                if two_times:
                    return [(alpha, beta, by_diff[diff])]
                by_diff[tuple(map(neg, diff))] = _graph_test_matrix((list(zip(*nums)), den, rows), epsilon)
    return [(alpha, beta, by_diff[tuple(map(sub, beta, alpha))]) for alpha in elems for beta in elems if alpha != beta]


def is_graph_joining(t: CylinderTable, epsilon) -> GraphTest:
    """Exact two-time graph test: for every union B of pieces some union A
    must make {mass(A x Y), mass(A x B), mass(Y x B)} have diameter < epsilon.

    Greedy witnesses are tried first; any miss that could raise the worst
    diameter so far falls back to exhaustive enumeration, so the verdict is
    exact.  The reported worst B carries its exact best diameter whenever
    the verdict is false.
    """
    return _graph_tests(t, epsilon, two_times=True)[0][2]


def is_graph_sim(t: CylinderTable, epsilon) -> tuple[bool, list]:
    """Run the graph test on every ordered pair of distinct window times."""
    results = _graph_tests(t, epsilon)
    return all(res.ok for _alpha, _beta, res in results), results


# -- smoothing ---------------------------------------------------------------


def _smear_weight(target: iv.Pairs, cell: iv.Pairs, delta: Fraction) -> Fraction:
    """Probability that a uniform point of `cell` plus an independent
    uniform [0, delta) shift lands in `target` (all mod 1); both are
    one-piece interval sets."""
    ((plo, phi),), ((clo, chi),) = target, cell
    knots = {Fraction(0), delta}
    for a in (plo, phi):
        for b in (clo, chi):
            y = (a - b) % 1
            if 0 < y < delta:
                knots.add(y)
    ys = sorted(knots)
    vals = [iv.length(iv.intersect(iv.translate(target, -y), cell)) for y in ys]
    # the integrand is piecewise linear between knots: trapezoids are exact
    area = sum((y2 - y1) * (v1 + v2) for y1, y2, v1, v2 in zip(ys, ys[1:], vals, vals[1:]))
    return area / (2 * delta * (chi - clo))


def convolve_sim(t: CylinderTable, delta) -> CylinderTable:
    """Blur each coordinate with an independent uniform [0, delta) shift.

    Exact under the cell-uniform convention; delta = 0 returns the table
    unchanged.  The single-time marginal of the result agrees piece by
    piece with convolving the table's marginal with the uniform measure on
    [0, delta).

    A blurred cell [lo, hi) covers the arc [lo, hi + delta), so its row
    walks the pieces in circle order from the cell itself and stops at the
    first one starting at or past hi + delta: that piece and every later
    one get weight 0, and every piece before it a positive weight.  The
    pieces tile the circle, so the row sums to 1: the cell's own weight,
    which heads its row, is 1 minus the weights of the rest of its band,
    and only those are overlap integrals.  So a rung builds p(p-1) weights
    only when delta is near 1, and each piece's interval set once.
    """
    delta = Fraction(delta)
    if delta == 0:
        return t
    if not 0 < delta < 1:
        raise ValueError("delta must lie in [0, 1)")
    budget.patterns(t.partition.p, t.window.size())
    pieces = t.partition.pieces()
    p, sets = len(pieces), [iv.interval(lo, hi) for lo, hi in pieces]
    rows = []
    for c, (lo, hi) in enumerate(pieces):
        reach = hi - lo + delta
        band = takewhile(lambda i: (pieces[i][0] - lo) % 1 < reach, ((c + s) % p for s in range(1, p)))
        others = [(i, _smear_weight(sets[i], sets[c], delta)) for i in band]
        rows.append([(c, 1 - sum(w for _i, w in others)), *others])
    return relabel(t, rows, t.partition)


def average_sims(t1: CylinderTable, t2: CylinderTable, weight) -> CylinderTable:
    """(1 - weight) * t1 + weight * t2 over a shared window and partition."""
    weight = Fraction(weight)
    if not 0 <= weight <= 1:
        raise ValueError("weight must lie in [0, 1]")
    if t1.window != t2.window or t1.partition != t2.partition:
        raise ValueError("tables must share window and partition")
    # (1 - a/b) * n1/d1 + a/b * n2/d2, over b * lcm(d1, d2)
    a, b = weight.numerator, weight.denominator
    den = lcm(t1.den, t2.den)
    out: dict[tuple[int, ...], int] = {}
    for t, factor in ((t1, (b - a) * (den // t1.den)), (t2, a * (den // t2.den))):
        for key, num in t.nums.items():
            out[key] = out.get(key, 0) + factor * num
    return CylinderTable._trusted(t1.window, t1.partition, out, b * den)


def fixed_mass_report(t: CylinderTable, beta) -> Fraction:
    """Window upper bound for the mass of points their beta-shift fixes:
    total mass of assignments whose labels match at every time pair
    (gamma, gamma + beta) inside the window.  Cost: one pass over the keys,
    each compared through two C-level projections, on the labels at every
    gamma and at every gamma + beta.

    This cell-level bound is the only figure worth reporting: within a
    cell box the coordinates are independent and continuous, so two
    coordinates agree with probability zero, and the exact cell-uniform
    value is always 0 once the shift applies anywhere in the window.
    """
    low, high = t.window._shift(beta)
    if not low:
        raise ValueError(f"no window time pairs at shift {tuple(beta)}")
    at, to = _project(low), _project(high)
    total = sum(num for key, num in t.nums.items() if at(key) == to(key))
    return Fraction(total, t.den)
