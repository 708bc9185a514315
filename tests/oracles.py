"""One exact reference per kernel of `simact`, and the Hypothesis strategies
and helpers that more than one test draws on.

Each reference computes its kernel's result the plain way, from the
definition, and `test_kernel_oracles.py` compares the kernel with it
exactly.  None of them is fast; each is fast enough for the input range its
tests cover.

Permutations and the coarse metric
- `coarse_dist_oracle`: `transform.coarse_dist` as the measure of
  T^-1(E) xor R^-1(E) for every dyadic set E, with the preimages of each
  level's intervals gathered as cell sets at the common resolution.
- `refine_oracle`, `inverse_oracle`, `compose_oracle`, `power_oracle`,
  `cycles_oracle`, `identity_oracle`: the permutation algebra cell by cell,
  each result built through the checked public constructor.
- `matched_oracle`: `IntervalPermutation._matched` as a scatter of the
  given pairs, then the uncovered cells onto the unused targets in
  ascending order, built through the checked constructor.

Lattice actions
- `element_oracle` builds the map of one lattice element from
  `power_oracle` and `compose_oracle`.  `lattice_elements_oracle` lists the
  lattice elements by max-norm shell, descending lexicographically within a
  shell.  `action_dist_oracle` sums the
  `coarse_dist_oracle` terms over them, at every rank and with the bound,
  and `free_defect_oracle` counts their fixed cells.

Cylinder tables
- `CylinderTableOracle`: the table constructor's checks on `Fraction`
  masses, with `marginalize_to_oracle` for its shift consistency and the
  table readers.
- `sim_dist_oracle`: `sim.sim_dist` as every key against every wildcard
  mask, after restricting both tables to the common window through
  `marginalize_to_oracle` and to the common partition through
  `refine_partition_oracle`.
- `refine_partition_oracle`, `convolve_sim_oracle`, `adapt_table_oracle`:
  the per-coordinate kernels on `Fraction` masses, relabelling every key
  one window position at a time.  `convolve_sim_oracle` takes its weights
  from `smear_weight_oracle`, the overlap integral in closed form.
- `fixed_mass_bound_oracle`, `average_sims_oracle`, `cylinder_mass_oracle`
  and `piece_of_point_oracle` scan every key, term or cut.
- `markov_table_oracle`: `sampling.markov_table` building all masses of a
  draw before it checks their lcm, with the stationary law of
  `stationary_oracle` (the Markov chain tree theorem, through the
  cofactor expansion `det_oracle`).
- `load_table_oracle`: `serialize.load_table` reading every mass with
  `parse_rational` and building the table on `Fraction` masses.  It and
  `load_dyadic_oracle` read their fields through `field_oracle`.

Graph test
- `graph_witnesses_oracle`: for each union B of pieces, the greedy witness
  and the best witness A, each with the diameter max - min of {mass A,
  mass A x B, mass B}, by enumerating every A.  It works on integer
  numerators over the lcm it computes itself.  `graph_verdict_oracle` reads
  the verdict at any epsilon off that list: greedy first, the best witness
  on every miss.  `graph_test_oracle` runs the two on one pair matrix, and
  `is_graph_joining_oracle` and `is_graph_sim_oracle` are the two entries,
  with their argument checks and the table's work cap.

Interval sets
- `combine_oracle`: an interval-set operation decided cell by cell.

Bridges between actions and tables
- `action_to_sim_oracle` labels each grid cell at each window time by the
  piece that holds its image cell under the `element_oracle` map.
- `box_mass_oracle` refines the table at the box endpoints through
  `refine_partition_oracle` and sums the keys whose pieces lie inside their
  boxes.
- `realize_sim_as_action_oracle` and `block_permutation_oracle` lay out
  blocks and transitions slot by slot; the realized cuts sum the time-0
  marginal of `marginalize_to_oracle`.
- `cylinder_atoms_oracle` reads each grid cell's itinerary off
  `a.evaluate(gamma).perm` and numbers the itineraries in first-seen order.
- `factor_defect_unions_oracle` is the factor defect by enumerating every
  union of atoms.  `factor_defect_oracle` counts each atom of
  `cylinder_atoms_oracle` inside and outside the target; it covers atom
  counts too large to enumerate.

Dyadic sets and towers
- `load_dyadic_oracle`, `dump_dyadic_oracle`, `indices_oracle`,
  `dyadic_refine_oracle`, `preimage_oracle` and `from_indices_oracle` read
  and write a dyadic set one bit at a time.  The preimages of
  `preimage_oracle`, brought to one level by `dyadic_refine_oracle`, are
  the reference for `equivalence.inverse_continuity_check`.
- `matched_tower_map_oracle` takes each tower base off `cycles_oracle`,
  every height-th cell of a cycle, and matches the tower leftovers through
  sets of used cells.
- `wrp_conjugacy_search_oracle` runs the tower heights shortest first,
  conjugates through `compose_oracle` and `inverse_oracle`, and sums every
  distance in full through `action_dist_oracle`.
- `random_cycle_lengths_oracle` draws parts of a minimum length on a
  granularity.  `permutation_from_cycle_lengths_oracle` carves the shuffled
  cells into cycles and sends each cell to the next one of its cycle.

Measures
- `line_convolve_oracle` integrates on two-variable polynomials in (y, t).
- `weak_star_distance_oracle` integrates both measures afresh on every
  dyadic interval at every level, through `_interval_mass_oracle`, which
  reads the breakpoints, densities and atoms itself.
- `uniform_on_oracle` and `pushforward_oracle` lay out their pieces by hand.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import comb, lcm, prod
from unittest.mock import patch

from hypothesis import assume
from hypothesis import strategies as st

import simact.intervals as iv
import simact.poly as P
from simact import budget
from simact.action import InfeasibleError, LatticeAction, WrpResult
from simact.equivalence import action_to_sim
from simact.measure import Adaptation, StepMeasure
from simact.sampling import (
    diagonal_table,
    iid_table,
    markov_table,
    random_action,
    random_graph_joining,
    random_partition,
)
from simact.rationals import parse_rational
from simact.sim import (
    CylinderTable,
    GraphTest,
    Partition,
    Window,
    average_sims,
    convolve_sim,
    graph_witness_exact,
    marginalize_to,
    pair_matrix,
)
from simact.transform import DyadicSet, IntervalPermutation, identity

# -- helpers -------------------------------------------------------------------


def outcome(build):
    """What build returns, or the type and text of the ValueError it raises."""
    try:
        return build()
    except ValueError as e:
        return type(e), str(e)


def field_oracle(obj, key: str, kind: type, where: str):
    """obj[key] of the given JSON type; a JSON true or false is no integer."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{where}: missing field '{key}'")
    value = obj[key]
    if not (type(value) is int if kind is int else isinstance(value, kind)):
        raise ValueError(f"{where}: field '{key}' has the wrong type")
    return value


def identity_action(d: int, n: int) -> LatticeAction:
    return LatticeAction(d, (identity(n),) * d)


def passes_public_check(r: IntervalPermutation) -> bool:
    return type(r.perm) is tuple and IntervalPermutation(r.n, r.perm) == r


def is_canonical(t: CylinderTable) -> bool:
    """den is the lcm of the mass denominators, and the numerators sum to it."""
    return t.den == lcm(*(m.denominator for m in t.masses.values())) and sum(t.nums.values()) == t.den


def measure_parts(mu: StepMeasure):
    return mu.breakpoints, mu.densities, mu.atoms


# -- permutations and the coarse metric ----------------------------------------


def coarse_dist_oracle(t: IntervalPermutation, r: IntervalPermutation, depth: int) -> Fraction:
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = lcm(t.n, r.n, 2**depth)
    tt, rr = t.refine(n), r.refine(n)
    total = Fraction(0)
    k = 0
    for level in range(1, depth + 1):
        cells = 2**level
        span = n // cells
        # the preimage of every interval of this level under each map
        pre_t = [set() for _ in range(cells)]
        pre_r = [set() for _ in range(cells)]
        for i in range(n):
            pre_t[tt.perm[i] // span].add(i)
            pre_r[rr.perm[i] // span].add(i)
        for c in range(cells):
            k += 1
            diff = len(pre_t[c] ^ pre_r[c])
            if diff:
                total += Fraction(diff, n) / 2**k
    return total


def refine_oracle(t: IntervalPermutation, n2: int) -> IntervalPermutation:
    if n2 % t.n != 0:
        raise ValueError(f"{n2} is not a multiple of {t.n}")
    if n2 == t.n:
        return t  # frozen, with a tuple perm: safe to share
    f = n2 // t.n
    out = [0] * n2
    for i, pi in enumerate(t.perm):
        for r in range(f):
            out[i * f + r] = pi * f + r
    return IntervalPermutation(n2, tuple(out))


def inverse_oracle(t: IntervalPermutation) -> IntervalPermutation:
    out = [0] * t.n
    for i, pi in enumerate(t.perm):
        out[pi] = i
    return IntervalPermutation(t.n, tuple(out))


def compose_oracle(t: IntervalPermutation, other: IntervalPermutation) -> IntervalPermutation:
    """t after other (apply other first)."""
    n = lcm(t.n, other.n)
    a, b = refine_oracle(t, n), refine_oracle(other, n)
    return IntervalPermutation(a.n, tuple(a.perm[j] for j in b.perm))


def power_oracle(t: IntervalPermutation, k: int) -> IntervalPermutation:
    """k-th iterate for any integer k, via cycle rotation."""
    out = [0] * t.n
    for cycle in cycles_oracle(t):
        ln = len(cycle)
        shift = k % ln
        for idx, cell in enumerate(cycle):
            out[cell] = cycle[(idx + shift) % ln]
    return IntervalPermutation(t.n, tuple(out))


def cycles_oracle(t: IntervalPermutation) -> list[list[int]]:
    """Cycles ordered by smallest element, each starting at its smallest."""
    seen = [False] * t.n
    out = []
    for start in range(t.n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        nxt = t.perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = t.perm[nxt]
        out.append(cycle)
    return out


def identity_oracle(n: int) -> IntervalPermutation:
    return IntervalPermutation(n, tuple(range(n)))


def matched_oracle(n: int, src, dst) -> IntervalPermutation:
    src, dst = list(src), list(dst)
    out = [None] * n
    for s, d in zip(src, dst):
        out[s] = d
    rest_src = [i for i in range(n) if i not in src]
    rest_dst = [i for i in range(n) if i not in dst]
    for s, d in zip(rest_src, rest_dst):
        out[s] = d
    return IntervalPermutation(n, tuple(out))


# -- cylinder tables -----------------------------------------------------------


def sim_dist_oracle(t1: CylinderTable, t2: CylinderTable) -> Fraction:
    if t1.window.d != t2.window.d:
        raise ValueError(f"rank mismatch: {t1.window.d} vs {t2.window.d}")
    sub = Window(t1.window.d, min(t1.window.w, t2.window.w))
    t1, t2 = (CylinderTable(sub, t.partition, marginalize_to_oracle(t, sub.elements())) for t in (t1, t2))
    if t1.partition != t2.partition:
        t1 = refine_partition_oracle(t1, t2.partition.cuts)
        t2 = refine_partition_oracle(t2, t1.partition.cuts)
    k = sub.size()
    diffs: dict[tuple, Fraction] = {}
    for table, sign in ((t1, 1), (t2, -1)):
        for key, mass in table.masses.items():
            for mask in range(1 << k):
                pattern = tuple(key[i] if mask >> i & 1 else None for i in range(k))
                diffs[pattern] = diffs.get(pattern, Fraction(0)) + sign * mass
    return max((abs(v) for v in diffs.values()), default=Fraction(0))


def refine_partition_oracle(t: CylinderTable, new_cuts) -> CylinderTable:
    fine = Partition(tuple(sorted(set(t.partition.cuts) | {Fraction(c) for c in new_cuts})))
    children: list[list[tuple[int, Fraction]]] = []
    for j in range(t.partition.p):
        lo, hi = t.partition.piece(j)
        kids = []
        for jj in range(fine.p):
            flo, fhi = fine.piece(jj)
            if lo <= flo and fhi <= hi:
                kids.append((jj, (fhi - flo) / (hi - lo)))
        children.append(kids)
    out: dict[tuple[int, ...], Fraction] = {}
    for key, mass in t.masses.items():
        expansions = [children[j] for j in key]
        for combo in product(*expansions):
            new_key = tuple(jj for jj, _f in combo)
            factor = mass
            for _jj, f in combo:
                factor *= f
            out[new_key] = out.get(new_key, Fraction(0)) + factor
    return CylinderTable(t.window, fine, out)


def smear_weight_oracle(piece, cell, delta: Fraction) -> Fraction:
    """The chance that a uniform point of `cell` plus a uniform [0, delta)
    shift lands in `piece` (mod 1), in closed form.  On the line
    |[a, b) & [c, d)| = r(b - c) - r(b - d) - r(a - c) + r(a - d) with
    r(x) = max(x, 0), and the integral of r(s - y) over y in [0, delta) is
    g(s) = q(s) - q(s - delta) with q(x) = r(x)^2 / 2; the circle adds the
    copies of the piece shifted by -1 and 1."""
    (a, b), (c, d) = piece, cell

    def g(s):
        return (Fraction(max(s, 0)) ** 2 - Fraction(max(s - delta, 0)) ** 2) / 2

    total = sum(g(b + k - c) - g(b + k - d) - g(a + k - c) + g(a + k - d) for k in (-1, 0, 1))
    return total / (delta * (d - c))


def convolve_sim_oracle(t: CylinderTable, delta) -> CylinderTable:
    delta = Fraction(delta)
    if delta == 0:
        return t
    if not 0 < delta < 1:
        raise ValueError("delta must lie in [0, 1)")
    p = t.partition.p
    pieces = t.partition.pieces()
    weight = [[smear_weight_oracle(pieces[i], pieces[c], delta) for c in range(p)] for i in range(p)]
    k = t.window.size()
    current = dict(t.masses)
    for pos in range(k):
        nxt: dict[tuple[int, ...], Fraction] = {}
        for key, mass in current.items():
            c = key[pos]
            for i in range(p):
                wgt = weight[i][c]
                if wgt == 0:
                    continue
                new_key = key[:pos] + (i,) + key[pos + 1 :]
                nxt[new_key] = nxt.get(new_key, Fraction(0)) + mass * wgt
        current = nxt
    return CylinderTable(t.window, t.partition, current)


def _box_weights_oracle(h: Adaptation, partition_in: Partition, partition_out: Partition):
    out = []
    for j in range(partition_out.p):
        lo, hi = partition_out.piece(j)
        plo, phi = h.inverse_value(lo), h.inverse_value(hi)
        row = []
        for c in range(partition_in.p):
            clo, chi = partition_in.piece(c)
            overlap = min(phi, chi) - max(plo, clo)
            row.append(overlap / (chi - clo) if overlap > 0 else Fraction(0))
        out.append(row)
    return out


def adapt_table_oracle(
    h: Adaptation, t: CylinderTable, partition_out: Partition | None = None
) -> CylinderTable:
    p_out = partition_out if partition_out is not None else t.partition
    weights = _box_weights_oracle(h, t.partition, p_out)
    k = t.window.size()
    current = dict(t.masses)
    for pos in range(k):
        nxt: dict[tuple[int, ...], Fraction] = {}
        for key, mass in current.items():
            c = key[pos]
            for j in range(p_out.p):
                wgt = weights[j][c]
                if wgt == 0:
                    continue
                new_key = key[:pos] + (j,) + key[pos + 1 :]
                nxt[new_key] = nxt.get(new_key, Fraction(0)) + mass * wgt
        current = nxt
    return CylinderTable(t.window, p_out, current)


def piece_of_point_oracle(partition: Partition, x) -> int:
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError(f"point {x} outside [0, 1)")
    j = 0
    while j + 1 < partition.p and partition.cuts[j + 1] <= x:
        j += 1
    return j


def cylinder_mass_oracle(t: CylinderTable, assignment: dict) -> Fraction:
    elems = t.window.elements()
    fixed_at = []
    for e, piece in assignment.items():
        if e not in elems:
            raise ValueError(f"time {e} outside the window")
        fixed_at.append((elems.index(e), piece))
    for piece in assignment.values():
        if not 0 <= piece < t.partition.p:
            raise ValueError(f"piece index {piece} out of range")
    total = sum(num for key, num in t.nums.items() if all(key[i] == v for i, v in fixed_at))
    return Fraction(total, t.den)


class CylinderTableOracle:
    """Every construction check on Fraction masses; `masses` is a plain dict."""

    def __init__(self, window: Window, partition: Partition, masses):
        self.window = window
        self.partition = partition
        clean: dict[tuple[int, ...], Fraction] = {}
        k = window.size()
        p = partition.p
        for key, value in masses.items():
            key = tuple(key)
            value = Fraction(value)
            if len(key) != k or any(not (0 <= j < p) for j in key):
                raise ValueError(f"bad assignment key {key}")
            if value < 0:
                raise ValueError(f"negative mass at {key}")
            if value > 0:
                clean[key] = clean.get(key, Fraction(0)) + value
        self.masses = clean
        total = sum(clean.values(), Fraction(0))
        if total != 1:
            raise ValueError(f"total mass {total} != 1")
        self._check_shift_consistency()

    def _check_shift_consistency(self):
        w = self.window.w
        if w == 1:
            return
        for axis in range(self.window.d):
            low = [e for e in self.window.elements() if e[axis] < w - 1]
            high = [e[:axis] + (e[axis] + 1,) + e[axis + 1 :] for e in low]
            if marginalize_to_oracle(self, low) != marginalize_to_oracle(self, high):
                raise ValueError(f"shift consistency fails along axis {axis}")


def marginalize_to_oracle(t, subset) -> dict[tuple[int, ...], Fraction]:
    elems = t.window.elements()
    pos = {e: i for i, e in enumerate(elems)}
    idx = []
    for e in subset:
        if tuple(e) not in pos:
            raise ValueError(f"time {e} outside the window")
        idx.append(pos[tuple(e)])
    out: dict[tuple[int, ...], Fraction] = {}
    for key, mass in t.masses.items():
        sub = tuple(key[i] for i in idx)
        out[sub] = out.get(sub, Fraction(0)) + mass
    return out


def construction_outcomes(window: Window, partition: Partition, masses) -> tuple:
    """The outcome of the constructor on Fraction masses, on integer
    numerators over their lcm, and of the oracle."""
    masses = {key: Fraction(m) for key, m in masses.items()}
    den = lcm(*(m.denominator for m in masses.values()))
    nums = {key: m.numerator * (den // m.denominator) for key, m in masses.items()}
    return (
        outcome(lambda: CylinderTable(window, partition, masses)),
        outcome(lambda: CylinderTable(window, partition, nums, den=den)),
        outcome(lambda: CylinderTableOracle(window, partition, masses)),
    )


def load_table_oracle(obj) -> CylinderTable:
    """`serialize.load_table` with every mass read by `parse_rational` into a
    Fraction and the table built on Fraction masses."""
    d = field_oracle(obj, "d", int, "table")
    w = field_oracle(obj, "w", int, "table")
    cuts = field_oracle(obj, "cuts", list, "table")
    raw = field_oracle(obj, "masses", dict, "table")
    window = Window(d, w)
    partition = Partition(tuple(parse_rational(c) for c in cuts))
    longest = max((key.count(",") + 1 for key in raw), default=0)
    if w > 1 and d > longest.bit_length():
        raise ValueError(f"table: a window of {w}^{d} times is longer than every key")
    k = window.size()
    budget.check("window coordinates d*w^d =", d * k, budget.MAX_RESOLUTION)
    budget.table(len(raw), k)
    masses = {}
    keys = {}
    for key, value in raw.items():
        parts = key.split(",")
        if len(parts) != k:
            raise ValueError(f"table: key '{key}' must have {k} labels")
        try:
            labels = tuple(int(p) for p in parts)
        except ValueError:
            raise ValueError(f"table: key '{key}' has non-integer labels") from None
        if labels in keys:
            raise ValueError(f"table: keys '{keys[labels]}' and '{key}' name the same labels")
        keys[labels] = key
        masses[labels] = parse_rational(value if isinstance(value, str) else str(value))
    return CylinderTable(window, partition, masses)


def fixed_mass_bound_oracle(t, beta) -> Fraction:
    beta = tuple(beta)
    if len(beta) != t.window.d:
        raise ValueError("shift has wrong rank")
    if all(b == 0 for b in beta):
        raise ValueError("shift must be nonzero")
    elems = t.window.elements()
    idx = []
    for i, gamma in enumerate(elems):
        target = tuple(g + b for g, b in zip(gamma, beta))
        if target in elems:
            idx.append((i, elems.index(target)))
    if not idx:
        raise ValueError(f"no window time pairs at shift {beta}")
    total = Fraction(0)
    for key, mass in t.masses.items():
        if all(key[i] == key[j] for i, j in idx):
            total += mass
    return total


def average_sims_oracle(t1, t2, weight) -> CylinderTableOracle:
    weight = Fraction(weight)
    if not 0 <= weight <= 1:
        raise ValueError("weight must lie in [0, 1]")
    if t1.window != t2.window or t1.partition != t2.partition:
        raise ValueError("tables must share window and partition")
    out: dict[tuple[int, ...], Fraction] = {}
    for key, mass in t1.masses.items():
        out[key] = out.get(key, Fraction(0)) + (1 - weight) * mass
    for key, mass in t2.masses.items():
        out[key] = out.get(key, Fraction(0)) + weight * mass
    return CylinderTableOracle(t1.window, t1.partition, out)


def det_oracle(m) -> Fraction:
    """Determinant by expansion along the first row."""
    if not m:
        return Fraction(1)
    return sum(((-1) ** j * m[0][j] * det_oracle([row[:j] + row[j + 1 :] for row in m[1:]]) for j in range(len(m))), Fraction(0))


def stationary_oracle(q_matrix) -> list[Fraction]:
    """pi with pi Q = pi and sum 1, by the Markov chain tree theorem: pi_j is
    proportional to the minor of I - Q without row and column j."""
    p = len(q_matrix)
    lap = [[(i == j) - q_matrix[i][j] for j in range(p)] for i in range(p)]
    minors = [det_oracle([[lap[r][c] for c in range(p) if c != j] for r in range(p) if r != j]) for j in range(p)]
    return [m / sum(minors) for m in minors]


def markov_table_oracle(
    rng, p: int, w: int, max_entry: int = 3, max_resolution: int | None = None
) -> CylinderTable:
    window = Window(1, w)
    while True:
        rows = [[Fraction(rng.randint(1, max_entry)) for _ in range(p)] for _ in range(p)]
        q_matrix = [[v / sum(row) for v in row] for row in rows]
        pi = stationary_oracle(q_matrix)
        # pi at the first time, then one transition per step
        masses = {
            key: prod((q_matrix[a][b] for a, b in zip(key, key[1:])), start=pi[key[0]])
            for key in product(range(p), repeat=w)
        }
        if max_resolution is not None:
            scale = 1
            for m in masses.values():
                scale = lcm(scale, m.denominator)
            if scale > max_resolution:
                continue
        cuts = random_partition(rng, p)
        return CylinderTable(window, cuts, masses)


# -- graph test ----------------------------------------------------------------


def subset_sums_oracle(values: list[int]) -> list[int]:
    """The 2^p subset sums of values by mask, each one the sum of the mask
    without its lowest bit plus the value of that bit."""
    size = 1 << len(values)
    sums = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
    return sums


def pair_numerators_oracle(matrix) -> tuple[list[list[int]], int]:
    """A pair matrix as integer numerators over the lcm of its entry denominators."""
    den = lcm(*(Fraction(x).denominator for row in matrix for x in row))
    return [[int(x * den) for x in row] for row in matrix], den


def into_b_oracle(nums: list[list[int]], b_mask: int) -> tuple[int, list[int]]:
    """The mass of B, a column sum, and the mass each piece sends into B."""
    cols = [j for j in range(len(nums)) if b_mask >> j & 1]
    return sum(r[j] for r in nums for j in cols), [sum(r[j] for j in cols) for r in nums]


def graph_witnesses_oracle(matrix) -> tuple[int, list[tuple[tuple[int, int], tuple[int, int]]]]:
    """The denominator, and for B = 0, 1, ..., 2^p - 1 the greedy witness and
    the best witness, each as (A, diameter numerator).

    The greedy A collects the pieces of positive mass that send more than
    half of it into B.  The best A has the least diameter over all 2^p
    unions, ties going to the smallest mask.
    """
    nums, den = pair_numerators_oracle(matrix)
    rows = [sum(r) for r in nums]
    if rows != [sum(col) for col in zip(*nums)]:
        raise ValueError("row and column marginals differ; not a joining")
    a_sums = subset_sums_oracle(rows)
    out = []
    for b_mask in range(len(a_sums)):
        b, into_b = into_b_oracle(nums, b_mask)
        diameters = [max(a, x, b) - min(a, x, b) for a, x in zip(a_sums, subset_sums_oracle(into_b))]
        greedy = sum(1 << i for i, (r, x) in enumerate(zip(rows, into_b)) if r > 0 and 2 * x > r)
        best = min(diameters)
        out.append(((greedy, diameters[greedy]), (diameters.index(best), best)))
    return den, out


def graph_verdict_oracle(den: int, witnesses, epsilon: Fraction) -> GraphTest:
    """The worst B, the first of equals, with the greedy witness where its
    diameter is below epsilon and the best witness everywhere else."""
    worst_b, worst_a, worst = 0, 0, Fraction(0)
    for b_mask, (greedy, best) in enumerate(witnesses):
        a_mask, d = greedy if Fraction(greedy[1], den) < epsilon else best
        if Fraction(d, den) > worst:
            worst_b, worst_a, worst = b_mask, a_mask, Fraction(d, den)
    return GraphTest(worst < epsilon, worst_b, worst_a, worst)


def graph_test_oracle(matrix, epsilon: Fraction) -> GraphTest:
    return graph_verdict_oracle(*graph_witnesses_oracle(matrix), epsilon)


def is_graph_joining_oracle(t: CylinderTable, epsilon) -> GraphTest:
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if t.window.size() != 2:
        raise ValueError("graph joining test needs a two-time window")
    budget.graph_test(t.partition.p, 2, len(t.nums))
    e0, e1 = t.window.elements()
    return graph_test_oracle(pair_matrix(t, e0, e1), epsilon)


def is_graph_sim_oracle(t: CylinderTable, epsilon) -> tuple[bool, list]:
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    budget.graph_test(t.partition.p, t.window.size(), len(t.nums))
    elems = t.window.elements()
    results = [(a, b, graph_test_oracle(pair_matrix(t, a, b), epsilon)) for a in elems for b in elems if a != b]
    return all(res.ok for _a, _b, res in results), results


@contextmanager
def exact_searches():
    """Record (B, diameter numerator) for every `graph_witness_exact` call
    that `simact.sim` makes while it is open."""
    calls = []

    def counted(matrix, b_mask, rows=None):
        a_mask, d = graph_witness_exact(matrix, b_mask, rows=rows)
        calls.append((b_mask, d))
        return a_mask, d

    with patch("simact.sim.graph_witness_exact", counted):
        yield calls


# -- interval sets -------------------------------------------------------------


def _cells_oracle(*sets: iv.Pairs) -> list[tuple[Fraction, Fraction]]:
    cuts = {Fraction(0), Fraction(1)}
    for s in sets:
        for a, b in s:
            cuts.add(a)
            cuts.add(b)
    xs = sorted(cuts)
    return list(zip(xs, xs[1:]))


def combine_oracle(a: iv.Pairs, b: iv.Pairs, keep) -> iv.Pairs:
    out = []
    for lo, hi in _cells_oracle(a, b):
        if keep(iv.contains_point(a, lo), iv.contains_point(b, lo)):
            out.append((lo, hi))
    return iv.normalize(out)


# -- bridges between actions and tables ----------------------------------------


def action_to_sim_oracle(a: LatticeAction, window: Window, partition: Partition) -> CylinderTable:
    """Cell i of the grid n = lcm(a.n, cut denominators) carries at time
    gamma the piece that holds its image cell under a(gamma), built by
    `element_oracle` and refined to n; an itinerary's mass is its share of
    the cells."""
    n = lcm(a.n, *(c.denominator for c in partition.cuts))
    budget.check("grid resolution n =", n, budget.MAX_RESOLUTION)
    if window.d != a.d:
        raise ValueError(f"rank mismatch: window {window.d}, action {a.d}")
    budget.check("itinerary cells n*w^d =", n * window.size(), budget.MAX_RESOLUTION)
    maps = [refine_oracle(element_oracle(a, gamma), n) for gamma in window.elements()]
    counts: dict[tuple[int, ...], int] = {}
    for cell in range(n):
        key = tuple(piece_of_point_oracle(partition, Fraction(t.perm[cell], n)) for t in maps)
        counts[key] = counts.get(key, 0) + 1
    return CylinderTable(window, partition, {key: Fraction(c, n) for key, c in counts.items()})


def box_mass_oracle(t: CylinderTable, boxes) -> Fraction:
    """The mass of the product box with one [lo, hi) per window position:
    refined at every box endpoint, a piece lies inside a box or misses it,
    so the box holds exactly the refined keys whose pieces all lie inside."""
    fine = refine_partition_oracle(t, {x for box in boxes for x in box if 0 < x < 1})
    total = Fraction(0)
    for key, mass in fine.masses.items():
        pieces = [fine.partition.piece(j) for j in key]
        if all(lo <= flo and fhi <= hi for (flo, fhi), (lo, hi) in zip(pieces, boxes)):
            total += mass
    return total


def realize_sim_as_action_oracle(t: CylinderTable) -> tuple[LatticeAction, Partition]:
    if t.window.d != 1:
        raise ValueError("realization covers rank-1 tables only")
    w, p = t.window.w, t.partition.p
    # the cuts sum the single-time marginal, the mass of each label at time 0
    single = marginalize_to_oracle(t, [(0,)])
    empty = [j for j in range(p) if (j,) not in single]
    if empty:
        raise ValueError(f"marginal vanishes on pieces {empty}; drop them first")
    partition_out = Partition(tuple(sum((single[(i,)] for i in range(j)), Fraction(0)) for j in range(p)))
    # one grid cell per 1/den: every mass, and so every level, sits on the grid
    n = budget.check("grid resolution n =", t.den, budget.MAX_RESOLUTION)
    if w == 1:
        return LatticeAction(1, (identity(n),)), partition_out
    block_size: dict[tuple[int, ...], int] = {}
    trans: dict[tuple[tuple[int, ...], int], int] = {}
    for key, num in t.nums.items():
        u = key[: w - 1]
        block_size[u] = block_size.get(u, 0) + num
        trans[(u, key[-1])] = trans.get((u, key[-1]), 0) + num
    blocks = sorted(block_size)
    start: dict[tuple[int, ...], int] = {}
    offset = 0
    for u in blocks:
        start[u] = offset
        offset += block_size[u]
    assert offset == n
    # shift consistency makes incoming mass at v equal block_size[v], so the
    # incoming slots tile v's interval exactly
    in_offset = {u: start[u] for u in blocks}
    perm = [-1] * n
    for u in blocks:
        out = start[u]
        for s in range(p):
            width = trans.get((u, s), 0)
            if width == 0:
                continue
            v = u[1:] + (s,)
            dst = in_offset[v]
            perm[out : out + width] = range(dst, dst + width)
            out += width
            in_offset[v] = dst + width
    gen = IntervalPermutation(n, tuple(perm))
    return LatticeAction(1, (gen,)), partition_out


def block_permutation_oracle(
    block_sizes: list[int], mapping: tuple[int, ...], n: int
) -> IntervalPermutation:
    starts = [0]
    for size in block_sizes[:-1]:
        starts.append(starts[-1] + size)
    perm = [-1] * n
    free = [list(range(starts[j], starts[j] + block_sizes[j])) for j in range(len(block_sizes))]
    leftovers: list[int] = []
    for j in range(len(block_sizes)):
        cells = list(range(starts[j], starts[j] + block_sizes[j]))
        slots = free[mapping[j]]
        take = min(len(cells), len(slots))
        for c, s in zip(cells[:take], slots[:take]):
            perm[c] = s
        free[mapping[j]] = slots[take:]
        leftovers.extend(cells[take:])
    spare = sorted(s for slots in free for s in slots)
    for c, s in zip(sorted(leftovers), spare):
        perm[c] = s
    return IntervalPermutation(n, tuple(perm))


def factor_defect_oracle(
    a: LatticeAction, piece: DyadicSet, target: DyadicSet, window: Window
) -> Fraction:
    budget.check("grid resolution n =", lcm(a.n, piece.cells, target.cells), budget.MAX_RESOLUTION)
    n, labels = cylinder_atoms_oracle(a, piece, window)
    n2 = lcm(n, target.cells)
    f = n2 // n
    span = n2 // target.cells
    inside: dict[int, int] = {}
    outside: dict[int, int] = {}
    for cell in range(n2):
        lab = labels[cell // f]
        if target.bits >> (cell // span) & 1:
            inside[lab] = inside.get(lab, 0) + 1
        else:
            outside[lab] = outside.get(lab, 0) + 1
    total = Fraction(0)
    for lab in set(inside) | set(outside):
        total += Fraction(min(inside.get(lab, 0), outside.get(lab, 0)), n2)
    return total


def factor_defect_unions_oracle(n: int, labels, target: DyadicSet) -> Fraction:
    """The least mass of the symmetric difference of target and a union of
    atoms, over every union; cell c of the n-cell grid lies in atom labels[c]."""
    n2 = lcm(n, target.cells)
    atoms: dict = {}
    inside = 0
    for cell in range(n2):
        lab = labels[cell * n // n2]
        atoms[lab] = atoms.get(lab, 0) | 1 << cell
        inside |= (target.bits >> (cell * target.cells // n2) & 1) << cell
    unions = [0]
    for bits in atoms.values():
        unions += [u | bits for u in unions]
    return Fraction(min((u ^ inside).bit_count() for u in unions), n2)


def cylinder_atoms_oracle(a: LatticeAction, piece: DyadicSet, window: Window) -> tuple[int, list[int]]:
    """The atoms in first-seen order: cell i of the n-cell grid, n = lcm(a.n,
    piece cells), is in the piece at time gamma when its time-gamma image is;
    an n-cell moves with the a.n-cell that holds it."""
    n = lcm(a.n, piece.cells)
    budget.check("grid resolution n =", n, budget.MAX_RESOLUTION)
    perms = [a.evaluate(gamma).perm for gamma in window.elements()]
    f = n // a.n
    atoms: dict[tuple[int, ...], int] = {}
    labels = []
    for cell in range(n):
        images = [perm[cell // f] * f + cell % f for perm in perms]
        signature = tuple(piece.bits >> (image * piece.cells // n) & 1 for image in images)
        labels.append(atoms.setdefault(signature, len(atoms)))
    return n, labels


# -- dyadic sets and towers ----------------------------------------------------


def load_dyadic_oracle(obj) -> DyadicSet:
    level = field_oracle(obj, "level", int, "dyadic set")
    mask = field_oracle(obj, "mask", str, "dyadic set")
    if level < 0:
        raise ValueError("dyadic set: level must be >= 0")
    # the mask's length bounds the level before 2^level is computed
    if level > len(mask).bit_length() or len(mask) != 2**level or any(c not in "01" for c in mask):
        raise ValueError(f"dyadic set: mask must be 2^{level} characters of 0/1")
    bits = 0
    for i, c in enumerate(mask):
        if c == "1":
            bits |= 1 << i
    return DyadicSet(level, bits)


def dump_dyadic_oracle(s: DyadicSet) -> dict:
    mask = "".join("1" if s.bits >> i & 1 else "0" for i in range(s.cells))
    return {"level": s.level, "mask": mask}


def indices_oracle(s: DyadicSet) -> list[int]:
    return [i for i in range(s.cells) if s.bits >> i & 1]


def dyadic_refine_oracle(s: DyadicSet, level2: int) -> DyadicSet:
    if level2 < s.level:
        raise ValueError("cannot coarsen a dyadic set")
    f = 1 << (level2 - s.level)
    block = (1 << f) - 1
    bits = 0
    for i in indices_oracle(s):
        bits |= block << (i * f)
    return DyadicSet(level2, bits)


def preimage_oracle(t: IntervalPermutation, s: DyadicSet) -> DyadicSet:
    levels = [m for m in range(t.n.bit_length()) if 2**m == t.n]
    if not levels:
        raise ValueError(f"resolution {t.n} is not a power of two; no dyadic refinement")
    level = max(levels[0], s.level)
    tt = t.refine(1 << level)
    ss = dyadic_refine_oracle(s, level)
    bits = 0
    for i in range(tt.n):
        if ss.bits >> tt.perm[i] & 1:
            bits |= 1 << i
    return DyadicSet(level, bits)


def matched_tower_map_oracle(
    t: IntervalPermutation, r: IntervalPermutation, height: int
) -> IntervalPermutation:
    n = t.n
    # every height-th cell of each cycle from its smallest, in whole columns only
    base_t, base_r = (
        sorted(c for cycle in cycles_oracle(m) for c in cycle[: height * (len(cycle) // height) : height])
        for m in (t, r)
    )
    keep = min(len(base_t), len(base_r))
    if keep == 0:
        raise ValueError(f"no full column of height {height} fits either map")
    base_t, base_r = base_t[:keep], base_r[:keep]
    phi = [-1] * n
    used_src, used_dst = set(), set()
    src_level, dst_level = list(base_t), list(base_r)
    for _ in range(height):
        for s, d in zip(src_level, dst_level):
            phi[s] = d
        used_src.update(src_level)
        used_dst.update(dst_level)
        src_level = [t.perm[c] for c in src_level]
        dst_level = [r.perm[c] for c in dst_level]
    rest_src = sorted(set(range(n)) - used_src)
    rest_dst = sorted(set(range(n)) - used_dst)
    for s, d in zip(rest_src, rest_dst):
        phi[s] = d
    return IntervalPermutation(n, tuple(phi))


def element_oracle(a: LatticeAction, gamma: tuple[int, ...]) -> IntervalPermutation:
    """The map of (k_1, ..., k_d): the product of the power_oracle maps g_i^k_i."""
    t = identity_oracle(a.n)
    for g, k in zip(a.generators, gamma):
        t = compose_oracle(t, power_oracle(g, k))
    return t


def lattice_elements_oracle(a: LatticeAction, count: int) -> list[tuple[tuple[int, ...], IntervalPermutation]]:
    """The first `count` lattice elements with their maps: max-norm shells
    0, 1, 2, ..., each in descending lexicographic order, and the map of
    (k_1, ..., k_d) from `element_oracle`."""
    out = []
    shell = 0
    while len(out) < count:
        ring = [g for g in product(range(-shell, shell + 1), repeat=a.d) if max(map(abs, g)) == shell]
        out += [(gamma, element_oracle(a, gamma)) for gamma in sorted(ring, reverse=True)[: count - len(out)]]
        shell += 1
    return out


def action_dist_oracle(a: LatticeAction, b: LatticeAction, terms: int, depth: int, bound=None) -> Fraction:
    """The j-th lattice element weighs 2^-j times the coarse distance of the
    two maps; with a bound, the first partial sum above it."""
    if a.d != b.d:
        raise ValueError(f"rank mismatch: {a.d} vs {b.d}")
    if terms < 1:
        raise ValueError("terms must be >= 1")
    total = Fraction(0)
    pairs = zip(lattice_elements_oracle(a, terms), lattice_elements_oracle(b, terms))
    for j, ((_, ta), (_, tb)) in enumerate(pairs, start=1):
        total += coarse_dist_oracle(ta, tb, depth) / 2**j
        if bound is not None and total > bound:
            break
    return total


def free_defect_oracle(a: LatticeAction, k_max: int) -> list[tuple[tuple[int, ...], Fraction]]:
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return [
        (gamma, Fraction(sum(1 for i, pi in enumerate(t.perm) if pi == i), a.n))
        for gamma, t in lattice_elements_oracle(a, (2 * k_max + 1) ** a.d)
        if any(gamma)
    ]


def wrp_conjugacy_search_oracle(
    a: LatticeAction, b: LatticeAction, epsilon, terms: int, depth: int
) -> WrpResult:
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if a.d != 1 or b.d != 1:
        raise ValueError("conjugacy search is rank-1 only")
    n = lcm(a.n, b.n)
    aa, bb = a.refine(n), b.refine(n)
    t, r = aa.generators[0], bb.generators[0]
    h0 = 1
    while Fraction(4, 2**h0) >= epsilon / 2:
        h0 += 1
    min_cycle = min(min(t.cycle_lengths()), min(r.cycle_lengths()))
    if min_cycle < h0:
        raise InfeasibleError(
            f"aperiodicity precondition fails: cycle of length {min_cycle} < height {h0}"
        )
    heights = []
    h = h0
    while h <= min_cycle:
        heights.append(h)
        h *= 2
    if heights[-1] != min_cycle:
        heights.append(min_cycle)
    best: WrpResult | None = None
    for height in heights:
        phi = matched_tower_map_oracle(t, r, height)
        conjugated = compose_oracle(compose_oracle(phi, t), inverse_oracle(phi))
        achieved = action_dist_oracle(LatticeAction(1, (conjugated,)), bb, terms, depth)
        if best is None or achieved < best.achieved:
            best = WrpResult(phi, achieved, height)
        if achieved == 0:
            break
    assert best is not None
    if best.achieved < epsilon:
        return best
    raise ValueError(
        f"search failed: best achieved {best.achieved} at height {best.height}, want < {epsilon}"
    )


def from_indices_oracle(level: int, indices) -> DyadicSet:
    bits = 0
    for i in indices:
        bits |= 1 << i
    return DyadicSet(level, bits)


def random_cycle_lengths_oracle(rng, n: int, min_len: int = 1, granularity: int = 1) -> list[int]:
    if granularity < 1 or n % granularity:
        raise ValueError("n must be divisible by the part granularity")
    units = n // granularity
    floor_units = max(1, -(-min_len // granularity))
    if units < floor_units:
        raise ValueError(f"n = {n} cannot hold a part of length >= {min_len}")
    parts = []
    left = units
    while left:
        if left < 2 * floor_units:
            parts.append(left)
            break
        take = rng.randint(floor_units, left - floor_units)
        parts.append(take)
        left -= take
    return [p * granularity for p in parts]


def permutation_from_cycle_lengths_oracle(rng, n: int, lengths) -> IntervalPermutation:
    if sum(lengths) != n:
        raise ValueError("cycle lengths must sum to n")
    if any(length < 1 for length in lengths):
        raise ValueError("cycle lengths must be >= 1")
    cells = list(range(n))
    rng.shuffle(cells)
    cycles, pos = [], 0
    for length in lengths:
        cycles.append(cells[pos : pos + length])
        pos += length
    image = {}
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            image[a] = b
    return IntervalPermutation(n, tuple(image[i] for i in range(n)))


# -- measures ------------------------------------------------------------------


# A BiPoly maps (y_exponent, t_exponent) -> coefficient.

BiPoly = dict[tuple[int, int], Fraction]


def bi_from_y(p: P.Poly) -> BiPoly:
    return {(i, 0): c for i, c in enumerate(p) if c != 0}


def bi_from_t_minus_y(q: P.Poly) -> BiPoly:
    """q(t - y) expanded in (y, t)."""
    out: BiPoly = {}
    for k, coeff in enumerate(q):
        if coeff == 0:
            continue
        for m in range(k + 1):
            key = (k - m, m)
            term = coeff * comb(k, m) * (Fraction(-1) ** (k - m))
            out[key] = out.get(key, Fraction(0)) + term
    return {k: v for k, v in out.items() if v != 0}


def bi_mul(a: BiPoly, b: BiPoly) -> BiPoly:
    out: BiPoly = {}
    for (ya, ta), ca in a.items():
        for (yb, tb), cb in b.items():
            key = (ya + yb, ta + tb)
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def bi_antider_y(a: BiPoly) -> BiPoly:
    return {(ky + 1, kt): c / (ky + 1) for (ky, kt), c in a.items()}


def bi_sub_y_affine(a: BiPoly, c0, c1) -> P.Poly:
    """Substitute y = c0 + c1*t, returning a polynomial in t."""
    c0, c1 = Fraction(c0), Fraction(c1)
    out: P.Poly = P.ZERO
    affine = P.p_make([c0, c1])
    # cache powers of the affine map; y exponents stay tiny here
    powers: list[P.Poly] = [P.ONE]
    max_y = max((ky for (ky, _t) in a), default=0)
    for _ in range(max_y):
        powers.append(P.p_mul(powers[-1], affine))
    for (ky, kt), coeff in a.items():
        term = P.p_scale(powers[ky], coeff)
        shifted = P.p_make([Fraction(0)] * kt + list(term)) if term else P.ZERO
        out = P.p_add(out, shifted)
    return out


def line_convolve_oracle(f, g):
    """Convolution on the real line of densities supported in [0, 1]."""
    out = []
    for u1, u2, p in f:
        bp = bi_from_y(p)
        for v1, v2, q in g:
            bq = bi_from_t_minus_y(q)
            anti = bi_antider_y(bi_mul(bp, bq))
            knots = sorted({u1 + v1, u1 + v2, u2 + v1, u2 + v2})
            for ta, tb in zip(knots, knots[1:]):
                if ta == tb:
                    continue
                mid = (ta + tb) / 2
                # integration limits over y: max(u1, t - v2) .. min(u2, t - v1)
                lo_aff = (u1, 0) if u1 >= mid - v2 else (-v2, 1)
                hi_aff = (u2, 0) if u2 <= mid - v1 else (-v1, 1)
                hi_poly = bi_sub_y_affine(anti, *hi_aff)
                lo_poly = bi_sub_y_affine(anti, *lo_aff)
                piece = P.p_add(hi_poly, P.p_neg(lo_poly))
                out.append((ta, tb, piece))
    return out


def _interval_mass_oracle(mu: StepMeasure, lo: Fraction, hi: Fraction) -> Fraction:
    """mu([lo, hi)) from the breakpoints, densities and atoms of mu: each
    piece's polynomial integrated term by term over its overlap with
    [lo, hi), plus the atoms at lo and inside."""
    total = sum((m for x, m in mu.atoms if lo <= x < hi), Fraction(0))
    ends = mu.breakpoints[1:] + (Fraction(1),)
    for plo, phi, density in zip(mu.breakpoints, ends, mu.densities):
        a, b = max(lo, plo), min(hi, phi)
        if a < b:
            total += sum(c * (b ** (i + 1) - a ** (i + 1)) / (i + 1) for i, c in enumerate(density))
    return total


def weak_star_distance_oracle(mu: StepMeasure, nu: StepMeasure, depth: int) -> Fraction:
    if depth < 1:
        raise ValueError("depth must be >= 1")
    total = Fraction(0)
    for level in range(1, depth + 1):
        cells = 2**level
        worst = Fraction(0)
        for k in range(cells):
            lo, hi = Fraction(k, cells), Fraction(k + 1, cells)
            worst = max(worst, abs(_interval_mass_oracle(mu, lo, hi) - _interval_mass_oracle(nu, lo, hi)))
        total += Fraction(1, cells) * worst
    return total


def uniform_on_oracle(lo, length) -> StepMeasure:
    length = Fraction(length)
    if not 0 < length <= 1:
        raise ValueError("arc length must lie in (0, 1]")
    arc = iv.wrapped_interval(lo, length)
    cuts = sorted({Fraction(0)} | {a for a, _b in arc} | {b for _a, b in arc if b < 1})
    dens = []
    for i, c in enumerate(cuts):
        dens.append(1 / length if iv.contains_point(arc, c) else Fraction(0))
    return StepMeasure(tuple(cuts), tuple(dens))


def pushforward_oracle(h: Adaptation, mu: StepMeasure) -> StepMeasure:
    atoms = tuple((h(x), m) for x, m in mu.atoms)
    cuts = {Fraction(0)}
    cuts |= {h(b) for b in mu.breakpoints}
    cuts |= {y for _z, y in h.knots}
    xs = sorted(c for c in cuts if c < 1)
    dens: list[P.Poly] = []
    for i, lo in enumerate(xs):
        hi = xs[i + 1] if i + 1 < len(xs) else Fraction(1)
        mid = (lo + hi) / 2
        # find the h-segment and the mu-piece covering this span
        for (z1, y1), (z2, y2) in h._segments():
            if y1 <= mid <= y2:
                slope = (y2 - y1) / (z2 - z1)
                inv0 = z1 - y1 / slope  # h^-1(y) = inv0 + y/slope
                break
        x_mid = inv0 + mid / slope
        d = None
        for plo, phi, pd in mu._pieces():
            if plo <= x_mid < phi:
                d = pd
                break
        if d is None:
            dens.append(P.ZERO)
            continue
        # density(y) = mu_density(h^-1(y)) / slope
        dens.append(P.p_scale(P.p_compose_affine(d, inv0, 1 / slope), 1 / slope))
    out = StepMeasure(tuple(xs), tuple(dens), atoms)
    assert out.total() == 1
    return out


# -- strategies ----------------------------------------------------------------

# mixed resolutions, most of them not powers of two
RESOLUTIONS = [1, 2, 3, 4, 5, 6, 7, 8, 12, 16]


@st.composite
def perms(draw):
    n = draw(st.sampled_from(RESOLUTIONS))
    return IntervalPermutation(n, tuple(draw(st.permutations(range(n)))))


def _iid(rng, p, w, d):
    weights = [rng.randint(0, 4) for _ in range(p)]
    if not any(weights):
        weights[0] = 1
    total = sum(weights)
    return iid_table(random_partition(rng, p), [Fraction(x, total) for x in weights], w, d)


@st.composite
def rank1_tables(draw):
    kind = draw(st.sampled_from(["markov", "iid", "smoothed"]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    p, w = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    if kind == "iid":
        return _iid(rng, p, w, 1)
    t = markov_table(rng, p, w)
    if kind == "smoothed":
        t = convolve_sim(t, draw(st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 3)])))
    return t


@st.composite
def rank2_tables(draw):
    rng = random.Random(draw(st.integers(0, 10**6)))
    w = draw(st.sampled_from([1, 2, 2, 2]))
    if draw(st.booleans()):
        t = _iid(rng, 2, w, 2)
    else:
        # correlated labels: the largest gaps can sit on patterns that no
        # shift of the window moves off its last time
        action = random_action(rng, 2, draw(st.integers(3, 8)))
        t = action_to_sim(action, Window(2, w), random_partition(rng, draw(st.integers(2, 3))))
    if draw(st.booleans()):
        t = convolve_sim(t, draw(st.sampled_from([Fraction(1, 8), Fraction(1, 4)])))
    return t


# points of [0, 1) on small grids, so new cuts often coincide with old ones
grid_points = st.integers(1, 12).flatmap(lambda q: st.builds(Fraction, st.integers(0, q - 1), st.just(q)))


@st.composite
def tables(draw):
    return draw(st.one_of(rank1_tables(), rank2_tables()))


@st.composite
def canonical_sets(draw):
    # endpoints on a coarse grid, so pieces of two draws often touch or
    # share an endpoint; the empty and the full set come up on their own
    ends = draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=6), max_size=8))
    return iv.normalize(zip(ends[::2], ends[1::2]))


@st.composite
def pair_matrices(draw, max_p: int = 8):
    """A two-time matrix of a graph joining mixed with the iid table of its
    marginal (a graph at lambda = 0, independent at lambda = 1), or of a
    Markov table, in either time order; or a tie-heavy one, the iid table
    of a uniform marginal or a diagonal table with masses in 0..3."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    p = draw(st.integers(2, max_p))
    kind = draw(st.sampled_from(["mixed", "mixed", "mixed", "markov", "uniform iid", "diagonal"]))
    if kind == "mixed":
        joining = random_graph_joining(rng, p)
        single = marginalize_to(joining, [(0,)])
        iid = iid_table(joining.partition, [single.get((j,), Fraction(0)) for j in range(p)], 2)
        t = average_sims(joining, iid, draw(st.fractions(0, 1, max_denominator=8)))
    elif kind == "markov":
        t = markov_table(rng, p, 2)
    else:
        cuts = Partition(tuple(Fraction(j, p) for j in range(p)))
        if kind == "uniform iid":
            t = iid_table(cuts, [Fraction(1, p)] * p, 2)
        else:
            weights = draw(st.lists(st.integers(0, 3), min_size=p, max_size=p).filter(any))
            t = diagonal_table(cuts, [Fraction(wt, sum(weights)) for wt in weights], 2)
    order = [(0,), (1,)]
    if draw(st.booleans()):
        order.reverse()
    return pair_matrix(t, *order)


@st.composite
def dyadic_sets(draw, max_level: int = 8):
    level = draw(st.integers(0, max_level))
    return DyadicSet(level, draw(st.integers(0, (1 << (1 << level)) - 1)))


@st.composite
def step_measures(draw, atoms: bool):
    """Step densities on a grid of denominator <= 12, plus up to three atoms."""
    q = draw(st.integers(1, 12))
    cuts = [0] + sorted(draw(st.sets(st.integers(1, q - 1), max_size=4))) if q > 1 else [0]
    weights = draw(st.lists(st.integers(0, 8), min_size=len(cuts), max_size=len(cuts)))
    spots = draw(st.dictionaries(st.integers(0, 15), st.integers(1, 8), max_size=3)) if atoms else {}
    total = sum(weights) + sum(spots.values())
    assume(total > 0)
    bounds = [Fraction(c, q) for c in cuts] + [Fraction(1)]
    dens = [Fraction(w, total) / (hi - lo) for w, lo, hi in zip(weights, bounds, bounds[1:])]
    return StepMeasure(tuple(bounds[:-1]), tuple(dens), tuple((Fraction(x, 16), Fraction(m, total)) for x, m in spots.items()))

