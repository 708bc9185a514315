"""The rewritten kernels against the direct definitions they replace.

`coarse_dist_oracle` and `sim_dist_oracle` are the original bodies of
`transform.coarse_dist` and `sim.sim_dist`: one preimage bitmask per dyadic
set, and every key against every wildcard mask.  `refine_partition_oracle`,
`convolve_sim_oracle` and `adapt_table_oracle` are the per-coordinate label
loops that `sim.relabel` replaced, and `combine_oracle` is the cell-by-cell
interval-set operation that the endpoint sweep replaced.
`graph_test_matrix_oracle` and the witness oracles are the graph test in
`Fraction` arithmetic, before it moved to integer numerators;
`graph_test_matrix_int_oracle`, its witnesses and `into_b_int_oracle` are
the integer graph test before the work that does not depend on B moved to
one prelude per matrix, and `graph_test_matrix_every_miss_oracle` is the
graph test with one prelude per matrix before it skipped the exact search
on a greedy miss that cannot raise the worst diameter.
`CylinderTableOracle`, `relabel_oracle`, `marginalize_to_oracle`,
`fixed_mass_bound_oracle` and `average_sims_oracle` are the table code with
`Fraction` masses, before tables moved to integer numerators over one
denominator.  They are slow and plainly right, so the new code must agree
with them exactly.
`refine_oracle`, `inverse_oracle`, `compose_oracle`, `power_oracle`,
`cycles_oracle` and `identity_oracle` are the permutation algebra before
cycles were cached and internal results skipped the bijection check; each
builds through the checked public constructor.
`line_convolve_oracle` with its `bi_*` helpers is the convolution integral
on two-variable polynomials in (y, t), before it was split into powers of t
over univariate ones, and `weak_star_distance_oracle` integrates both
measures afresh on every dyadic interval at every level;
`weak_star_distance_cdf_oracle` reads every dyadic point through
`StepMeasure.cdf`, before the one-sweep CDF.  `markov_table_oracle` builds
all masses of a draw before it checks their lcm.
`realize_sim_as_action_oracle`, `block_permutation_oracle` and
`factor_defect_oracle` are the bridge bodies that kept second layouts of
what the table keys, the block edges and one `Counter` already give: block
and transition maps probed piece by piece, a free-slot list per block, and
separate inside and outside counts.  `pushforward_oracle` and
`uniform_on_oracle` laid out their pieces by hand before they went through
`measure._assemble`.
`load_dyadic_oracle`, `dump_dyadic_oracle`, `indices_oracle`,
`dyadic_refine_oracle`, `preimage_oracle` and `cylinder_atoms_oracle` read
and write a dyadic set one bit at a time, before `DyadicSet.mask` and
`DyadicSet.from_mask` took over its cell layout; each touch of the whole
2^level-bit int makes them quadratic.  `matched_tower_map_oracle` matches
the tower leftovers through sets of used cells, and
`random_cycle_lengths_oracle` takes a minimum length and a granularity
where one unit now serves.  `from_indices_oracle` builds a dyadic set with
one shift per index, which is quadratic for the same reason.
`piece_of_point_oracle` walks the cuts one by one, `cylinder_mass_oracle`
scans every key against the fixed labels instead of reading one marginal,
and `is_graph_joining_oracle` and `is_graph_sim_oracle` are the two
graph-test entries before they shared one body, with the piece cap checked
on each pair matrix after it was built.  `wrp_conjugacy_search_oracle` runs
the tower heights shortest first and sums every distance in full.
"""

import json
import os
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm, prod
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import simact.intervals as iv
import simact.poly as P
from simact import budget
from simact.action import (
    InfeasibleError,
    LatticeAction,
    WrpResult,
    _matched_tower_map,
    action_dist,
    conjugate,
    wrp_conjugacy_search,
)
from simact.cli import main
from simact.equivalence import (
    _block_permutation,
    _box_weights,
    _itineraries,
    _levels,
    action_to_sim,
    adapt_table,
    cylinder_atoms,
    factor_defect,
    realize_sim_as_action,
)
from simact.measure import (
    Adaptation,
    StepMeasure,
    _grid_cdf,
    _line_convolve,
    convolve,
    pushforward,
    uniform_on,
    weak_star_distance,
)
from simact.sampling import (
    _solve_stationary,
    aperiodic_permutation,
    diagonal_table,
    iid_table,
    markov_table,
    random_action,
    random_adaptation,
    random_cycle_lengths,
    random_graph_joining,
    random_partition,
)
from simact.sim import (
    CylinderTable,
    GraphTest,
    Partition,
    Window,
    _applicable_pairs,
    _graph_test_matrix,
    _positions,
    _into_b_walk,
    _joining,
    _smear_weight,
    _subset_sums,
    average_sims,
    convolve_sim,
    cylinder_mass,
    fixed_mass_bound,
    graph_witness_exact,
    greedy_graph_witness,
    is_graph_joining,
    is_graph_sim,
    marginalize_to,
    marginalize_window,
    pair_matrix,
    refine_partition,
    relabel,
    sim_dist,
)
from simact.serialize import _need, dump_dyadic, load_dyadic, load_permutation, load_table, read_json_file
from simact.transform import (
    DyadicSet,
    IntervalPermutation,
    _dyadic_level,
    coarse_dist,
    identity,
    preimage,
    rohlin_tower,
    rotation,
    tower_base_indices,
)

# -- oracles -------------------------------------------------------------------


def _preimage_mask(t: IntervalPermutation, cell_lo: int, cell_hi: int) -> int:
    """Bits i with perm[i] in [cell_lo, cell_hi), at t's own resolution."""
    bits = 0
    for i, pi in enumerate(t.perm):
        if cell_lo <= pi < cell_hi:
            bits |= 1 << i
    return bits


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
        for c in range(cells):
            k += 1
            mt = _preimage_mask(tt, c * span, (c + 1) * span)
            mr = _preimage_mask(rr, c * span, (c + 1) * span)
            diff = (mt ^ mr).bit_count()
            if diff:
                total += Fraction(diff, n) / 2**k
    return total


def sim_dist_oracle(t1: CylinderTable, t2: CylinderTable) -> Fraction:
    if t1.window.d != t2.window.d:
        raise ValueError(f"rank mismatch: {t1.window.d} vs {t2.window.d}")
    w = min(t1.window.w, t2.window.w)
    t1, t2 = marginalize_window(t1, w), marginalize_window(t2, w)
    if t1.partition != t2.partition:
        t1 = refine_partition(t1, t2.partition.cuts)
        t2 = refine_partition(t2, t1.partition.cuts)
    k = t1.window.size()
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


def convolve_sim_oracle(t: CylinderTable, delta) -> CylinderTable:
    delta = Fraction(delta)
    if delta == 0:
        return t
    if not 0 < delta < 1:
        raise ValueError("delta must lie in [0, 1)")
    p = t.partition.p
    pieces = t.partition.pieces()
    weight = [[_smear_weight(pieces[i], pieces[c], delta) for c in range(p)] for i in range(p)]
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


def check_joining_oracle(matrix) -> tuple[int, list[Fraction], list[Fraction]]:
    p = len(matrix)
    rows = [sum(r, Fraction(0)) for r in matrix]
    cols = [sum((matrix[i][j] for i in range(p)), Fraction(0)) for j in range(p)]
    if rows != cols:
        raise ValueError("row and column marginals differ; not a joining")
    return p, rows, cols


def diameter_oracle(a, x, b) -> Fraction:
    return max(a, x, b) - min(a, x, b)


def into_b_oracle(matrix, b_mask: int) -> tuple[list[Fraction], Fraction, list[Fraction]]:
    """The prelude of both witness searches: check the joining, then return
    its piece masses, the mass of B and the mass each piece sends into B."""
    p, rows, _cols = check_joining_oracle(matrix)
    b_total = Fraction(0)
    into_b = [Fraction(0)] * p
    for j in range(p):
        if b_mask >> j & 1:
            b_total += rows[j]
            for i in range(p):
                into_b[i] += matrix[i][j]
    return rows, b_total, into_b


def graph_witness_exact_oracle(matrix, b_mask: int) -> tuple[int, Fraction]:
    """Best A for this B by full enumeration over the 2^p unions."""
    rows, b_total, into_b = into_b_oracle(matrix, b_mask)
    p = len(rows)
    best_a, best = 0, None
    size = 1 << p
    a_sum = [Fraction(0)] * size
    x_sum = [Fraction(0)] * size
    for mask in range(1, size):
        low = mask & -mask
        i = low.bit_length() - 1
        a_sum[mask] = a_sum[mask ^ low] + rows[i]
        x_sum[mask] = x_sum[mask ^ low] + into_b[i]
    for mask in range(size):
        d = diameter_oracle(a_sum[mask], x_sum[mask], b_total)
        if best is None or d < best:
            best_a, best = mask, d
    return best_a, best


def greedy_graph_witness_oracle(matrix, b_mask: int) -> tuple[int, Fraction]:
    """The documented shortcut: A collects the pieces sending more than half
    of their mass into B."""
    rows, b_total, into_b = into_b_oracle(matrix, b_mask)
    p = len(rows)
    a_mask = 0
    a = x = Fraction(0)
    for i in range(p):
        if rows[i] > 0 and 2 * into_b[i] > rows[i]:
            a_mask |= 1 << i
            a += rows[i]
            x += into_b[i]
    return a_mask, diameter_oracle(a, x, b_total)


def graph_test_matrix_oracle(matrix, epsilon: Fraction) -> GraphTest:
    if len(matrix) > 16:
        raise ValueError("graph test enumerates 2^p unions; p > 16 refused")
    p, _rows, _cols = check_joining_oracle(matrix)
    worst_b, worst_a, worst = 0, 0, Fraction(0)
    for b_mask in range(1 << p):
        a_mask, d = greedy_graph_witness_oracle(matrix, b_mask)
        if d >= epsilon:
            a_mask, d = graph_witness_exact_oracle(matrix, b_mask)
        if d > worst:
            worst_b, worst_a, worst = b_mask, a_mask, d
    return GraphTest(worst < epsilon, worst_b, worst_a, worst)


def into_b_int_oracle(nums: list[list[int]], b_mask: int, rows: list[int]) -> tuple[int, list[int]]:
    """The prelude of both witness searches: the mass of B and the mass each
    piece sends into B."""
    cols = [j for j in range(len(rows)) if b_mask >> j & 1]
    return sum(rows[j] for j in cols), [sum(r[j] for j in cols) for r in nums]


def graph_witness_exact_int_oracle(matrix, b_mask: int, rows=None) -> tuple[int, Fraction]:
    den = None
    if rows is None:
        matrix, den, rows = _joining(matrix)
    b_total, into_b = into_b_int_oracle(matrix, b_mask, rows)
    size = 1 << len(rows)
    a_sum = [0] * size
    x_sum = a_sum[:]
    best_a, best = 0, b_total
    for mask in range(1, size):
        low = mask & -mask
        i = low.bit_length() - 1
        a = a_sum[mask] = a_sum[mask ^ low] + rows[i]
        x = x_sum[mask] = x_sum[mask ^ low] + into_b[i]
        d = (a if a > b_total else b_total) - x
        if d < best:
            best_a, best = mask, d
    return best_a, best if den is None else Fraction(best, den)


def greedy_graph_witness_int_oracle(matrix, b_mask: int, rows=None) -> tuple[int, Fraction]:
    den = None
    if rows is None:
        matrix, den, rows = _joining(matrix)
    b_total, into_b = into_b_int_oracle(matrix, b_mask, rows)
    a_mask = a = x = 0
    for i, (r, into) in enumerate(zip(rows, into_b)):
        if r > 0 and 2 * into > r:
            a_mask |= 1 << i
            a += r
            x += into
    d = max(a, b_total) - x
    return a_mask, d if den is None else Fraction(d, den)


def graph_test_matrix_int_oracle(matrix, epsilon: Fraction) -> GraphTest:
    budget.check("pieces p =", len(matrix), budget.MAX_PIECES)
    nums, den, rows = _joining(matrix)
    # d / den >= epsilon exactly when d * epsilon.denominator >= bound
    scale, bound = epsilon.denominator, epsilon.numerator * den
    worst_b, worst_a, worst = 0, 0, 0
    for b_mask in range(1 << len(nums)):
        a_mask, d = greedy_graph_witness_int_oracle(nums, b_mask, rows=rows)
        if d * scale >= bound:
            a_mask, d = graph_witness_exact_int_oracle(nums, b_mask, rows=rows)
        if d > worst:
            worst_b, worst_a, worst = b_mask, a_mask, d
    return GraphTest(worst * scale < bound, worst_b, worst_a, Fraction(worst, den))


def graph_test_matrix_every_miss_oracle(matrix, epsilon: Fraction) -> GraphTest:
    """Worst B over all 2^p unions, on integer numerators over the lcm of
    the entry denominators; each diameter is compared with epsilon by
    cross-multiplication and divided once at the end.

    The subset sums of the row masses are built once per matrix; in a
    joining the column sums equal the row sums, so they are also the
    masses of the sets B.
    """
    budget.check("pieces p =", len(matrix), budget.MAX_PIECES)
    nums, den, rows = _joining(matrix)
    a_sums = _subset_sums(rows)
    # d / den >= epsilon exactly when d * epsilon.denominator >= bound
    scale, bound = epsilon.denominator, epsilon.numerator * den
    worst_b, worst_a, worst = 0, 0, 0
    for b_mask, into_b in enumerate(_into_b_walk(nums)):
        prelude = (rows, a_sums, into_b, a_sums[b_mask])
        a_mask, d = greedy_graph_witness(nums, b_mask, rows=prelude)
        if d * scale >= bound:
            a_mask, d = graph_witness_exact(nums, b_mask, rows=prelude)
        if d > worst:
            worst_b, worst_a, worst = b_mask, a_mask, d
    return GraphTest(worst * scale < bound, worst_b, worst_a, Fraction(worst, den))


def graph_test_matrix_capped_oracle(matrix, epsilon: Fraction) -> GraphTest:
    budget.check("pieces p =", len(matrix), budget.MAX_PIECES)
    return _graph_test_matrix(matrix, epsilon)


def is_graph_joining_oracle(t: CylinderTable, epsilon) -> GraphTest:
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if t.window.size() != 2:
        raise ValueError("graph joining test needs a two-time window")
    e0, e1 = t.window.elements()
    return graph_test_matrix_capped_oracle(pair_matrix(t, e0, e1), epsilon)


def is_graph_sim_oracle(t: CylinderTable, epsilon) -> tuple[bool, list]:
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    elems = t.window.elements()
    results = []
    ok = True
    for alpha in elems:
        for beta in elems:
            if alpha == beta:
                continue
            res = graph_test_matrix_capped_oracle(pair_matrix(t, alpha, beta), epsilon)
            results.append((alpha, beta, res))
            ok = ok and res.ok
    return ok, results


def piece_of_point_oracle(partition: Partition, x) -> int:
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError(f"point {x} outside [0, 1)")
    j = 0
    while j + 1 < partition.p and partition.cuts[j + 1] <= x:
        j += 1
    return j


def cylinder_mass_oracle(t: CylinderTable, assignment: dict) -> Fraction:
    fixed_at = list(zip(_positions(t.window, assignment), assignment.values()))
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


def relabel_oracle(t, rows, partition: Partition) -> CylinderTableOracle:
    current = t.masses
    for pos in range(t.window.size()):
        nxt: dict[tuple[int, ...], Fraction] = {}
        for key, mass in current.items():
            head, tail = key[:pos], key[pos + 1 :]
            for j, weight in rows[key[pos]]:
                new_key = head + (j,) + tail
                nxt[new_key] = nxt.get(new_key, 0) + mass * weight
        current = nxt
    return CylinderTableOracle(t.window, partition, current)


def fixed_mass_bound_oracle(t, beta) -> Fraction:
    pairs = _applicable_pairs(t.window, beta)
    if not pairs:
        raise ValueError(f"no window time pairs at shift {tuple(beta)}")
    pos = {e: i for i, e in enumerate(t.window.elements())}
    idx = [(pos[g], pos[h]) for g, h in pairs]
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


def weak_star_distance_oracle(mu: StepMeasure, nu: StepMeasure, depth: int) -> Fraction:
    if depth < 1:
        raise ValueError("depth must be >= 1")
    total = Fraction(0)
    for level in range(1, depth + 1):
        cells = 2**level
        worst = Fraction(0)
        for k in range(cells):
            lo, hi = Fraction(k, cells), Fraction(k + 1, cells)
            worst = max(worst, abs(mu.mass(lo, hi) - nu.mass(lo, hi)))
        total += Fraction(1, cells) * worst
    return total


def weak_star_distance_cdf_oracle(mu: StepMeasure, nu: StepMeasure, depth: int) -> Fraction:
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = 2**depth
    # the gap on [a, b) is the change of the cdf difference from a to b
    diff = [mu.cdf(Fraction(k, n)) - nu.cdf(Fraction(k, n)) for k in range(n + 1)]
    total = Fraction(0)
    for level in range(1, depth + 1):
        stride = n >> level
        ends = diff[::stride]
        total += max(abs(b - a) for a, b in zip(ends, ends[1:])) / 2**level
    return total


def markov_table_oracle(
    rng, p: int, w: int, max_entry: int = 3, max_resolution: int | None = None
) -> CylinderTable:
    window = Window(1, w)
    while True:
        rows = [[Fraction(rng.randint(1, max_entry)) for _ in range(p)] for _ in range(p)]
        q_matrix = [[v / sum(row) for v in row] for row in rows]
        pi = _solve_stationary(q_matrix)
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


def realize_sim_as_action_oracle(t: CylinderTable) -> tuple[LatticeAction, Partition]:
    if t.window.d != 1:
        raise ValueError("realization covers rank-1 tables only")
    w, p = t.window.w, t.partition.p
    partition_out = Partition(tuple(_levels(t)[:-1]))
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
    n, labels = cylinder_atoms(a, piece, window)
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


def load_dyadic_oracle(obj) -> DyadicSet:
    level = _need(obj, "level", int, "dyadic set")
    mask = _need(obj, "mask", str, "dyadic set")
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
    level = max(_dyadic_level(t.n, "no dyadic refinement"), s.level)
    tt = t.refine(1 << level)
    ss = dyadic_refine_oracle(s, level)
    bits = 0
    for i in range(tt.n):
        if ss.bits >> tt.perm[i] & 1:
            bits |= 1 << i
    return DyadicSet(level, bits)


def cylinder_atoms_oracle(a: LatticeAction, piece: DyadicSet, window: Window) -> tuple[int, list[int]]:
    budget.check("grid resolution n =", lcm(a.n, piece.cells), budget.MAX_RESOLUTION)
    n, signatures = _itineraries(a, window, [piece.bits >> i & 1 for i in range(piece.cells)])
    atoms: dict[tuple[int, ...], int] = {}
    return n, [atoms.setdefault(sig, len(atoms)) for sig in signatures]


def matched_tower_map_oracle(
    t: IntervalPermutation, r: IntervalPermutation, height: int
) -> IntervalPermutation:
    n = t.n
    base_t = tower_base_indices(t, height)
    base_r = tower_base_indices(r, height)
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
        phi = _matched_tower_map(t, r, height)
        achieved = action_dist(conjugate(phi, aa), bb, terms, depth)
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


def uniform_on_oracle(lo, length) -> StepMeasure:
    length = Fraction(length)
    if not 0 < length <= 1:
        raise ValueError("arc length must lie in (0, 1]")
    arc = iv.wrapped_interval(lo, length)
    cuts = sorted({Fraction(0)} | {a for a, _b in arc} | {b for _a, b in arc if b < 1})
    dens = []
    for i, c in enumerate(cuts):
        dens.append(1 / length if iv.contains_point(arc, c) else Fraction(0))
    return StepMeasure(tuple(cuts), tuple(dens)).canonical()


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
    out = StepMeasure(tuple(xs), tuple(dens), atoms).canonical()
    assert out.total() == 1
    return out


# -- permutations ------------------------------------------------------------------

# mixed resolutions, most of them not powers of two
RESOLUTIONS = [1, 2, 3, 4, 5, 6, 7, 8, 12, 16]


@st.composite
def perms(draw):
    n = draw(st.sampled_from(RESOLUTIONS))
    return IntervalPermutation(n, tuple(draw(st.permutations(range(n)))))


@settings(max_examples=150, deadline=None)
@given(perms(), perms(), st.integers(1, 8))
def test_coarse_dist_matches_oracle(t, r, depth):
    n = lcm(t.n, r.n, 2**depth)
    # the oracle scans n cells for each of 2^(depth+1) - 2 sets
    assume(n << depth <= 1 << 18)
    assert coarse_dist(t, r, depth) == coarse_dist_oracle(t, r, depth)


@settings(max_examples=50, deadline=None)
@given(perms(), st.integers(1, 8))
def test_coarse_dist_matches_oracle_on_a_refined_copy(t, depth):
    # equal maps at different resolutions are at distance 0
    fine = t.refine(3 * t.n)
    assert coarse_dist(t, fine, depth) == coarse_dist_oracle(t, fine, depth) == 0


@given(perms(), st.integers(1, 5))
def test_refine_to_own_resolution_is_the_same_object(t, k):
    assert t.refine(t.n) is t
    assert t.refine(k * t.n) == refine_oracle(t, k * t.n)


# -- permutation algebra ---------------------------------------------------------------


def _passes_public_check(r: IntervalPermutation) -> bool:
    return type(r.perm) is tuple and IntervalPermutation(r.n, r.perm) == r


@settings(max_examples=150, deadline=None)
@given(perms(), st.data())
def test_power_matches_oracle(t, data):
    k = data.draw(st.integers(-3 * t.n, 3 * t.n))
    r = t.power(k)
    assert r == power_oracle(t, k)
    assert _passes_public_check(r)


@settings(max_examples=150, deadline=None)
@given(perms(), perms())
def test_compose_matches_oracle_at_mixed_resolutions(t, r):
    out = t.compose(r)
    assert out == compose_oracle(t, r)
    assert _passes_public_check(out)


@given(perms(), st.integers(1, 5))
def test_inverse_and_refine_match_oracle(t, k):
    for out, oracle in ((t.inverse(), inverse_oracle(t)), (t.refine(k * t.n), refine_oracle(t, k * t.n))):
        assert out == oracle
        assert _passes_public_check(out)


@given(st.integers(1, 64))
def test_identity_matches_oracle(n):
    assert identity(n) == identity_oracle(n)
    assert _passes_public_check(identity(n))


def test_identity_refuses_a_nonpositive_resolution():
    for n in (0, -1):
        with pytest.raises(ValueError, match="resolution must be positive"):
            identity(n)


@settings(max_examples=60, deadline=None)
@given(perms(), perms(), st.integers(-20, 20))
def test_cached_cycles_cannot_be_corrupted(t, r, k):
    # also on permutations built by the trusted constructor
    for u in (t, t.compose(r), r.power(3), t.inverse()):
        expected_cycles, expected_power = cycles_oracle(u), power_oracle(u, k)
        first = u.cycles()
        assert first == u.cycles() == expected_cycles
        first[0].reverse()
        first[0].append(u.n)
        first.append([0])
        assert u.cycles() == expected_cycles
        assert u.power(k) == expected_power
        assert u.cycle_lengths() == [len(c) for c in expected_cycles]


@pytest.mark.parametrize("n,perm", [(3, (0, 0, 1)), (3, (0, 1)), (2, (0, 2)), (2, (1, -1))])
def test_public_constructor_rejects_non_bijections(n, perm):
    with pytest.raises(ValueError, match="not a bijection"):
        IntervalPermutation(n, perm)
    with pytest.raises(ValueError, match="not a bijection"):
        load_permutation({"n": n, "perm": list(perm)})


def test_dist_on_a_non_bijection_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"d": 1, "n": 4, "generators": [[0, 0, 1, 2]]}\n', encoding="utf-8")
    good = tmp_path / "good.json"
    good.write_text('{"d": 1, "n": 4, "generators": [[1, 0, 3, 2]]}\n', encoding="utf-8")
    assert main(["dist", str(bad), str(good), "--terms", "2", "--depth", "2"]) == 2
    err = capsys.readouterr().err
    assert "not a bijection" in err and "Traceback" not in err


# -- tables ---------------------------------------------------------------------------


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


@settings(max_examples=60, deadline=None)
@given(rank1_tables(), rank1_tables())
def test_sim_dist_matches_oracle_rank1(a, b):
    # independent draws differ in partition and window width most of the time
    assert sim_dist(a, b) == sim_dist_oracle(a, b)


@settings(max_examples=100, deadline=None)
@given(rank2_tables(), rank2_tables())
def test_sim_dist_matches_oracle_rank2(a, b):
    assert sim_dist(a, b) == sim_dist_oracle(a, b)


@settings(max_examples=30, deadline=None)
@given(rank1_tables(), st.sampled_from([Fraction(1, 16), Fraction(1, 4), Fraction(1, 2)]))
def test_sim_dist_matches_oracle_against_own_blur(t, delta):
    # same partition and window: the path `smooth` takes
    blurred = convolve_sim(t, delta)
    assert sim_dist(blurred, t) == sim_dist_oracle(blurred, t)
    assert sim_dist(t, t) == sim_dist_oracle(t, t) == 0


# -- per-coordinate label kernels -------------------------------------------------

# points of [0, 1) on small grids, so new cuts often coincide with old ones
grid_points = st.integers(1, 12).flatmap(lambda q: st.builds(Fraction, st.integers(0, q - 1), st.just(q)))


@st.composite
def tables(draw):
    return draw(st.one_of(rank1_tables(), rank2_tables()))


@settings(max_examples=80, deadline=None)
@given(tables(), st.lists(grid_points, max_size=4))
def test_refine_partition_matches_oracle(t, cuts):
    assert refine_partition(t, cuts) == refine_partition_oracle(t, cuts)


@settings(max_examples=60, deadline=None)
@given(tables(), st.sampled_from([Fraction(1, 16), Fraction(1, 5), Fraction(1, 2), Fraction(7, 8)]))
def test_convolve_sim_matches_oracle(t, delta):
    assert convolve_sim(t, delta) == convolve_sim_oracle(t, delta)


@settings(max_examples=60, deadline=None)
@given(
    tables(),
    st.integers(0, 10**6),
    st.sampled_from([Fraction(1, 32), Fraction(1, 8), Fraction(1, 3)]),
    st.sampled_from(["own", "random", "refined"]),
)
def test_adapt_table_matches_oracle(t, seed, delta, out_kind):
    rng = random.Random(seed)
    h = random_adaptation(rng, delta)
    if out_kind == "own":
        assert adapt_table(h, t) == adapt_table_oracle(h, t)
        return
    if out_kind == "random":
        target = random_partition(rng, rng.randint(1, 4))
    else:
        # the partition a chained second adaptation would need
        target = Partition(tuple(sorted(set(t.partition.cuts) | {h(c) for c in t.partition.cuts})))
    assert adapt_table(h, t, target) == adapt_table_oracle(h, t, target)


# -- integer-numerator tables ------------------------------------------------------


def _is_canonical(t: CylinderTable) -> bool:
    """den is the lcm of the mass denominators, and the numerators sum to it."""
    return t.den == lcm(*(m.denominator for m in t.masses.values())) and sum(t.nums.values()) == t.den


@st.composite
def relabel_cases(draw):
    """A rank-1 or rank-2 table, the weight rows one of the three callers of
    `relabel` would build for it, and the partition they read into."""
    t = draw(tables())
    pieces = t.partition.pieces()
    kind = draw(st.sampled_from(["convolve", "refine", "adapt"]))
    if kind == "convolve":
        delta = draw(st.sampled_from([Fraction(1, 16), Fraction(1, 5), Fraction(1, 2), Fraction(7, 8)]))
        rows = [
            [(i, wgt) for i, piece in enumerate(pieces) if (wgt := _smear_weight(piece, cell, delta))]
            for cell in pieces
        ]
        return t, rows, t.partition
    if kind == "refine":
        fine = Partition(tuple(sorted(set(t.partition.cuts) | set(draw(st.lists(grid_points, max_size=4))))))
        kids = list(enumerate(fine.pieces()))
        rows = [
            [(jj, (fhi - flo) / (hi - lo)) for jj, (flo, fhi) in kids if lo <= flo and fhi <= hi]
            for lo, hi in pieces
        ]
        return t, rows, fine
    rng = random.Random(draw(st.integers(0, 10**6)))
    h = random_adaptation(rng, draw(st.sampled_from([Fraction(1, 32), Fraction(1, 8), Fraction(1, 3)])))
    target = random_partition(rng, rng.randint(1, 4))
    return t, _box_weights(h, t.partition, target), target


@settings(max_examples=100, deadline=None)
@given(relabel_cases())
def test_relabel_matches_oracle(case):
    t, rows, partition = case
    out = relabel(t, rows, partition)
    assert out.masses == relabel_oracle(t, rows, partition).masses
    assert _is_canonical(out)


@settings(max_examples=60, deadline=None)
@given(tables(), st.integers(1, 6))
def test_constructor_paths_agree_with_oracle(t, scale):
    assert _is_canonical(t)
    assert CylinderTableOracle(t.window, t.partition, t.masses).masses == t.masses
    assert CylinderTable(t.window, t.partition, t.masses) == t
    # numerators over a multiple of den reduce to the same table
    scaled = CylinderTable(t.window, t.partition, {k: scale * n for k, n in t.nums.items()}, den=scale * t.den)
    assert scaled == t and scaled.den == t.den


@settings(max_examples=60, deadline=None)
@given(tables(), st.data())
def test_table_readers_match_oracle(t, data):
    elems = t.window.elements()
    subset = data.draw(st.lists(st.sampled_from(elems), max_size=len(elems)))
    assert marginalize_to(t, subset) == marginalize_to_oracle(t, subset)
    zero = (0,) * t.window.d
    for beta in {tuple(b - a for a, b in zip(g, h)) for g in elems for h in elems} - {zero}:
        assert fixed_mass_bound(t, beta) == fixed_mass_bound_oracle(t, beta)


@settings(max_examples=60, deadline=None)
@given(tables(), st.sampled_from([Fraction(1, 16), Fraction(1, 4)]), st.fractions(0, 1, max_denominator=12))
def test_average_sims_matches_oracle(t, delta, weight):
    other = convolve_sim(t, delta)
    out = average_sims(t, other, weight)
    assert out.masses == average_sims_oracle(t, other, weight).masses
    assert _is_canonical(out)


def _error(build) -> str | None:
    try:
        build()
    except ValueError as e:
        return str(e)
    return None


def _outcome(build):
    """What build returns, or the text of the ValueError it raises."""
    try:
        return build()
    except ValueError as e:
        return str(e)


def _construction_errors(window: Window, partition: Partition, masses) -> tuple:
    """The error text of the constructor on Fraction masses, on integer
    numerators over their lcm, and of the oracle."""
    masses = {key: Fraction(m) for key, m in masses.items()}
    den = lcm(*(m.denominator for m in masses.values()))
    nums = {key: m.numerator * (den // m.denominator) for key, m in masses.items()}
    return (
        _error(lambda: CylinderTable(window, partition, masses)),
        _error(lambda: CylinderTable(window, partition, nums, den=den)),
        _error(lambda: CylinderTableOracle(window, partition, masses)),
    )


@settings(max_examples=100, deadline=None)
@given(tables(), st.data())
def test_malformed_masses_raise_the_oracle_error(t, data):
    masses = dict(t.masses)
    key = data.draw(st.sampled_from(sorted(masses)))
    fault = data.draw(st.sampled_from(["negative", "high label", "low label", "length", "doubled", "dropped"]))
    if fault == "negative":
        masses[key] = -masses[key]
    elif fault == "high label":
        # a bad key is refused whatever its mass
        masses[key[:-1] + (t.partition.p,)] = Fraction(0)
    elif fault == "low label":
        masses[(-1,) + key[1:]] = masses.pop(key)
    elif fault == "length":
        masses[key + (0,)] = masses.pop(key)
    elif fault == "doubled":
        masses[key] *= 2
    else:
        del masses[key]
    fraction_path, integer_path, oracle = _construction_errors(t.window, t.partition, masses)
    assert fraction_path == integer_path == oracle is not None


@st.composite
def one_axis_inconsistent(draw):
    """A window of width 2 whose labels are a at times with coordinate 0 on
    `axis` and b elsewhere, for a joint law of (a, b) whose two marginals
    differ: shift consistent along every axis but `axis`."""
    d = draw(st.integers(1, 2))
    axis = draw(st.integers(0, d - 1))
    p = draw(st.integers(2, 3))
    weights = draw(st.lists(st.integers(0, 4), min_size=p * p, max_size=p * p))
    total = sum(weights)
    assume(total)
    joint = {ab: Fraction(x, total) for ab, x in zip(product(range(p), repeat=2), weights) if x}
    first = [sum(m for (a, _b), m in joint.items() if a == j) for j in range(p)]
    second = [sum(m for (_a, b), m in joint.items() if b == j) for j in range(p)]
    assume(first != second)
    window = Window(d, 2)
    masses = {tuple(a if e[axis] == 0 else b for e in window.elements()): m for (a, b), m in joint.items()}
    return window, Partition(tuple(Fraction(j, p) for j in range(p))), masses, axis


@settings(max_examples=80, deadline=None)
@given(one_axis_inconsistent())
def test_shift_failure_along_one_axis_raises_the_oracle_error(case):
    window, partition, masses, axis = case
    assert _construction_errors(window, partition, masses) == (f"shift consistency fails along axis {axis}",) * 3


# -- interval-set operations ------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.lists(grid_points, max_size=5), st.data())
def test_piece_of_point_matches_oracle(cuts, data):
    partition = Partition(tuple(sorted(set(cuts) | {Fraction(0)})))
    x = data.draw(st.one_of(st.sampled_from(partition.cuts), grid_points, st.fractions(-1, 2, max_denominator=12)))
    assert _outcome(lambda: partition.piece_of_point(x)) == _outcome(lambda: piece_of_point_oracle(partition, x))


@settings(max_examples=150, deadline=None)
@given(tables(), st.data())
def test_cylinder_mass_matches_oracle(t, data):
    p, elems = t.partition.p, t.window.elements()
    # now and then a time outside the window or a piece one past either end
    times = st.sampled_from(elems * 4 + [(t.window.w,) * t.window.d])
    pieces = st.sampled_from(list(range(p)) * 4 + [-1, p])
    assignment = data.draw(st.dictionaries(times, pieces, max_size=len(elems)))
    mass = _outcome(lambda: cylinder_mass(t, assignment))
    assert mass == _outcome(lambda: cylinder_mass_oracle(t, assignment))
    assert cylinder_mass(t, {}) == 1


@st.composite
def canonical_sets(draw):
    # endpoints on a coarse grid, so pieces of two draws often touch or
    # share an endpoint; the empty and the full set come up on their own
    ends = draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=6), max_size=8))
    return iv.normalize(zip(ends[::2], ends[1::2]))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(canonical_sets(), st.just(iv.EMPTY), st.just(iv.FULL)),
    st.one_of(canonical_sets(), st.just(iv.EMPTY), st.just(iv.FULL)),
)
def test_interval_ops_match_oracle(a, b):
    assert iv.intersect(a, b) == combine_oracle(a, b, lambda x, y: x and y)
    assert iv.union(a, b) == combine_oracle(a, b, lambda x, y: x or y)
    assert iv.symdiff(a, b) == combine_oracle(a, b, lambda x, y: x != y)
    assert iv.complement(a) == combine_oracle(a, iv.EMPTY, lambda x, _y: not x)


# -- graph test ---------------------------------------------------------------------


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


# the Fraction oracles are slow at p = 8; the integer oracle covers it
@settings(max_examples=60, deadline=None)
@given(pair_matrices(max_p=7), st.integers(0, 127), st.fractions(0, 1, max_denominator=16).filter(bool))
def test_graph_test_matches_oracle(m, b_pick, epsilon):
    worst = graph_test_matrix_oracle(m, epsilon).diameter
    greedy = greedy_graph_witness_oracle(m, b_pick % (1 << len(m)))[1]
    # epsilon on an attained diameter is the boundary of `d >= epsilon`
    for eps in {epsilon, worst, greedy} - {0}:
        res = _graph_test_matrix(m, eps)
        assert res == graph_test_matrix_oracle(m, eps)
        assert isinstance(res.diameter, Fraction)


@settings(max_examples=30, deadline=None)
@given(pair_matrices(max_p=7))
def test_graph_witnesses_match_oracle_for_every_b(m):
    for b_mask in range(1 << len(m)):
        for witness, oracle in (
            (greedy_graph_witness, greedy_graph_witness_oracle),
            (graph_witness_exact, graph_witness_exact_oracle),
        ):
            a_mask, d = witness(m, b_mask)
            assert (a_mask, d) == oracle(m, b_mask)
            assert isinstance(d, Fraction)


@settings(max_examples=150, deadline=None)
@given(pair_matrices(), st.integers(0, 255), st.fractions(0, 1, max_denominator=16).filter(bool))
def test_graph_test_matches_int_oracle(m, b_pick, epsilon):
    worst = graph_test_matrix_int_oracle(m, epsilon).diameter
    greedy = greedy_graph_witness_int_oracle(m, b_pick % (1 << len(m)))[1]
    # epsilon on an attained diameter is the boundary of `d >= epsilon`
    for eps in {epsilon, worst, greedy} - {0}:
        assert _graph_test_matrix(m, eps) == graph_test_matrix_int_oracle(m, eps)


@settings(max_examples=60, deadline=None)
@given(pair_matrices())
def test_into_b_walk_matches_into_b_for_every_b(m):
    nums, _den, rows = _joining(m)
    walk = list(_into_b_walk(nums))
    assert len(walk) == 1 << len(m)
    a_sums = _subset_sums(rows)
    for b_mask, into_b in enumerate(walk):
        assert (a_sums[b_mask], into_b) == into_b_int_oracle(nums, b_mask, rows)


@settings(max_examples=40, deadline=None)
@given(pair_matrices(), st.data())
def test_public_witnesses_match_int_oracle(m, data):
    # masks outside 0..2^p - 1 read only their low p bits, as before
    p = len(m)
    masks = list(range(1 << p)) + [data.draw(st.integers(-(1 << 10), 1 << 10)) for _ in range(4)]
    for b_mask in masks:
        assert greedy_graph_witness(m, b_mask) == greedy_graph_witness_int_oracle(m, b_mask)
        assert graph_witness_exact(m, b_mask) == graph_witness_exact_int_oracle(m, b_mask)


@contextmanager
def exact_searches():
    """Record (B, diameter numerator) for every `graph_witness_exact` call
    made by `simact.sim` or by the oracles in this module while it is open."""
    exact, calls = graph_witness_exact, []

    def counted(matrix, b_mask, rows=None):
        a_mask, d = exact(matrix, b_mask, rows=rows)
        calls.append((b_mask, d))
        return a_mask, d

    with patch("simact.sim.graph_witness_exact", counted), patch.dict(globals(), graph_witness_exact=counted):
        yield calls


def _greedy_diameters(m) -> list[Fraction]:
    return [greedy_graph_witness(m, b_mask)[1] for b_mask in range(1 << len(m))]


@settings(max_examples=60, deadline=None)
@given(pair_matrices())
def test_graph_test_matches_every_miss_oracle_at_each_greedy_diameter(m):
    # every greedy diameter is a threshold of `d >= epsilon` and of the bound
    # `d > worst`; all diameters are multiples of 1/den, so d + 1/(2 den)
    # lies strictly between d and the next attainable value
    den = _joining(m)[1]
    for d in set(_greedy_diameters(m)) - {0}:
        for eps in (d, d + Fraction(1, 2 * den)):
            assert _graph_test_matrix(m, eps) == graph_test_matrix_every_miss_oracle(m, eps)


@settings(max_examples=80, deadline=None)
@given(pair_matrices(), st.fractions(0, 1, max_denominator=16).filter(bool), st.booleans())
def test_exact_search_runs_only_where_it_can_raise_the_worst(m, epsilon, on_a_diameter):
    greedy = _greedy_diameters(m)
    if on_a_diameter and any(greedy):
        epsilon = max(greedy)
    den = _joining(m)[1]
    with exact_searches() as calls:
        res = _graph_test_matrix(m, epsilon)
    with exact_searches() as oracle_calls:
        assert res == graph_test_matrix_every_miss_oracle(m, epsilon)
    assert set(calls) <= set(oracle_calls)
    assert len(calls) <= len(oracle_calls)
    # replay the loop: B gets the exact search exactly when its greedy
    # diameter is a miss and above the worst so far
    exact = dict(calls)
    assert len(exact) == len(calls)
    worst = Fraction(0)
    for b_mask, d in enumerate(greedy):
        assert (b_mask in exact) == (d >= epsilon and d > worst)
        worst = max(worst, Fraction(exact.get(b_mask, d * den), den))
    assert worst == res.diameter


def test_exact_search_count_on_a_pruned_mixed_table():
    # p = 7 at lambda = 3/4: most greedy misses lie at or below the worst
    # diameter found so far
    t = load_table(read_json_file(os.path.join(os.path.dirname(__file__), "golden", "mixed7_table.json")))
    eps = Fraction(1, 8)
    with exact_searches() as calls:
        ok, results = is_graph_sim(t, eps)
    with exact_searches() as oracle_calls:
        oracle = [graph_test_matrix_every_miss_oracle(pair_matrix(t, a, b), eps) for a, b, _res in results]
    assert (len(calls), len(oracle_calls)) == (92, 244)
    assert not ok and [res for _a, _b, res in results] == oracle
    assert [(r.worst_b, r.best_a, r.diameter) for r in oracle] == [(15, 46, Fraction(99, 529)), (15, 23, Fraction(99, 529))]


@st.composite
def graph_test_tables(draw):
    """Tables of one to nine window times, or a diagonal table on 17 pieces,
    one above the cap."""
    if draw(st.booleans()):
        return draw(tables())
    seventeen = Partition(tuple(Fraction(j, 17) for j in range(17)))
    return diagonal_table(seventeen, [Fraction(1, 17)] * 17, draw(st.integers(1, 3)))


@settings(max_examples=100, deadline=None)
@given(graph_test_tables(), st.sampled_from(["1/8", "1/3", "0", "-1/4", "x", Fraction(1, 64), 1]))
def test_graph_test_entries_match_oracle(t, epsilon):
    expected = _outcome(lambda: is_graph_sim_oracle(t, epsilon))
    assert _outcome(lambda: is_graph_sim(t, epsilon)) == expected
    assert _outcome(lambda: is_graph_joining(t, epsilon)) == _outcome(lambda: is_graph_joining_oracle(t, epsilon))
    if isinstance(expected, tuple):
        # an attained diameter is the boundary of a pair's verdict
        for eps in {res.diameter for _a, _b, res in expected[1]} - {0}:
            assert is_graph_sim(t, eps) == is_graph_sim_oracle(t, eps)
            assert _outcome(lambda: is_graph_joining(t, eps)) == _outcome(lambda: is_graph_joining_oracle(t, eps))


def _subset_sums_low_bit(values: list[int]) -> list[int]:
    size = 1 << len(values)
    sums = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
    return sums


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 10**12), max_size=10))
def test_subset_sums_match_low_bit_recurrence(values):
    assert _subset_sums(values) == _subset_sums_low_bit(values)


# -- bridges between actions and tables ----------------------------------------------


@st.composite
def realizable_tables(draw):
    """Markov tables, and graph joinings mixed with the iid table of their
    marginal (weight 0 is the joining, weight 1 the iid table)."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        # a grid of at most 2^16 cells keeps the oracle's walk short
        return markov_table(rng, draw(st.integers(2, 4)), draw(st.integers(1, 4)), max_resolution=1 << 16)
    joining = random_graph_joining(rng, draw(st.integers(2, 6)))
    single = marginalize_to(joining, [(0,)])
    iid = iid_table(joining.partition, [single[(j,)] for j in range(joining.partition.p)], 2)
    weight = draw(st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]))
    return average_sims(joining, iid, weight)


@settings(max_examples=80, deadline=None)
@given(realizable_tables())
def test_realize_matches_oracle(t):
    assert realize_sim_as_action(t) == realize_sim_as_action_oracle(t)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 8), min_size=1, max_size=7), st.data())
def test_block_permutation_matches_oracle(sizes, data):
    mapping = tuple(data.draw(st.permutations(range(len(sizes)))))
    n = sum(sizes)
    assert _block_permutation(sizes, mapping, n) == block_permutation_oracle(sizes, mapping, n)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([3, 5, 6, 7, 9, 10, 12]),
    st.integers(1, 2),
    st.integers(1, 3),
    st.integers(0, 4),
    st.integers(0, 5),
)
def test_factor_defect_matches_oracle(seed, n, d, w, piece_level, target_level):
    # resolutions that are not powers of two, and targets both coarser and
    # finer than the piece
    rng = random.Random(seed)
    action = random_action(rng, d, n)
    piece = DyadicSet(piece_level, rng.getrandbits(1 << piece_level))
    target = DyadicSet(target_level, rng.getrandbits(1 << target_level))
    window = Window(d, w)
    assert cylinder_atoms(action, piece, window) == cylinder_atoms_oracle(action, piece, window)
    assert factor_defect(action, piece, target, window) == factor_defect_oracle(action, piece, target, window)


# -- dyadic sets and towers ------------------------------------------------------------


@st.composite
def dyadic_sets(draw, max_level: int = 8):
    level = draw(st.integers(0, max_level))
    return DyadicSet(level, draw(st.integers(0, (1 << (1 << level)) - 1)))


@settings(max_examples=200, deadline=None)
@given(dyadic_sets())
def test_dyadic_mask_round_trips_match_oracle(s):
    obj = dump_dyadic(s)
    assert obj == dump_dyadic_oracle(s)
    assert load_dyadic(obj) == load_dyadic_oracle(obj) == s
    assert DyadicSet.from_mask(s.mask()) == s
    assert s.indices() == indices_oracle(s)


@settings(max_examples=300, deadline=None)
@given(st.integers(-1, 4), st.text(alphabet="01x", max_size=20))
def test_load_dyadic_raises_the_oracle_error(level, mask):
    obj = {"level": level, "mask": mask}
    assert _error(lambda: load_dyadic(obj)) == _error(lambda: load_dyadic_oracle(obj))


@settings(max_examples=300, deadline=None)
@given(st.integers(-1, 6), st.data())
def test_from_indices_matches_oracle(level, data):
    cells = 1 << max(level, 0)
    indices = data.draw(st.lists(st.integers(-2, cells + 1), max_size=2 * cells + 2))
    new = _outcome(lambda: DyadicSet.from_indices(level, indices))
    old = _outcome(lambda: from_indices_oracle(level, indices))
    if min(indices, default=0) < 0:
        # the oracle's shift refuses a negative index with its own text
        assert isinstance(new, str) and isinstance(old, str)
    else:
        assert new == old


def test_from_indices_refuses_a_negative_index_instead_of_wrapping():
    with pytest.raises(ValueError, match="bitmask out of range for level"):
        DyadicSet.from_indices(2, [0, -1])
    assert DyadicSet.from_indices(2, iter([3, 0, 3])) == DyadicSet(2, 0b1001)


@settings(max_examples=100, deadline=None)
@given(dyadic_sets())
def test_dyadic_refine_matches_oracle_at_every_higher_level(s):
    for level2 in range(s.level, 9):
        assert s.refine(level2) == dyadic_refine_oracle(s, level2)
    assert _error(lambda: s.refine(s.level - 1)) == _error(lambda: dyadic_refine_oracle(s, s.level - 1))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8), dyadic_sets(), st.data())
def test_preimage_matches_oracle(k, s, data):
    t = IntervalPermutation(1 << k, tuple(data.draw(st.permutations(range(1 << k)))))
    assert preimage(t, s) == preimage_oracle(t, s)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.integers(1, 8), st.integers(0, 10**6))
def test_matched_tower_map_matches_oracle(n, height, seed):
    rng = random.Random(seed)
    t, r = (IntervalPermutation(n, tuple(rng.sample(range(n), n))) for _ in range(2))
    assert _outcome(lambda: _matched_tower_map(t, r, height)) == _outcome(lambda: matched_tower_map_oracle(t, r, height))


def _typed_outcome(build):
    """What build returns, or the type and text of the ValueError it raises."""
    try:
        return build()
    except ValueError as e:
        return type(e), str(e)


def wrp_pair(kind: str, unit: int, n: int, seed: int) -> tuple[LatticeAction, LatticeAction]:
    """Two rank-1 actions on n cells: independent maps whose cycles are
    multiples of unit long, one such map twice, or two rotations by units,
    which are single n-cycles and so exactly conjugate at every tower
    height that divides n."""
    rng = random.Random(seed)
    if kind == "rotation":
        steps = [k for k in range(1, n + 1) if gcd(k, n) == 1]
        t, r = rotation(n, rng.choice(steps)), rotation(n, rng.choice(steps))
    else:
        t = aperiodic_permutation(rng, n, unit)
        r = t if kind == "identical" else aperiodic_permutation(rng, n, unit)
    return LatticeAction(1, (t,)), LatticeAction(1, (r,))


@st.composite
def wrp_pairs(draw):
    unit = draw(st.sampled_from([1, 8, 16, 32]))
    n = unit * draw(st.sampled_from([1, 2, 3, 4, 8]))
    kind = draw(st.sampled_from(["independent", "identical", "rotation"]))
    return wrp_pair(kind, unit, n, draw(st.integers(0, 10**6)))


@settings(max_examples=300, deadline=None)
@given(
    wrp_pairs(),
    st.sampled_from([Fraction(1), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(1, 32), Fraction(1, 1000), 0]),
    st.sampled_from([0, 1, 2, 4, 6]),
    st.sampled_from([0, 1, 3, 6]),
)
# a search that fails: the best of heights 13 and 16 is 841/262144
@example(wrp_pair("independent", 16, 48, 0), Fraction(1, 1000), 4, 3)
# heights 4, 8, 16 and 32, at distance 0 from height 16 up
@example(wrp_pair("rotation", 32, 32, 0), Fraction(1), 4, 3)
def test_wrp_search_matches_oracle(pair, epsilon, terms, depth):
    a, b = pair
    expected = _typed_outcome(lambda: wrp_conjugacy_search_oracle(a, b, epsilon, terms, depth))
    assert _typed_outcome(lambda: wrp_conjugacy_search(a, b, epsilon, terms, depth)) == expected


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 2),
    st.sampled_from([1, 2, 3, 4, 6, 8, 16]),
    st.integers(0, 10**6),
    st.integers(1, 8),
    st.integers(1, 5),
    st.fractions(0, 1, max_denominator=64),
)
def test_bounded_action_dist_is_exact_up_to_the_bound(d, n, seed, terms, depth, bound):
    rng = random.Random(seed)
    a, b = random_action(rng, d, n), random_action(rng, d, n)
    full = action_dist(a, b, terms, depth)
    # the partial sums are bounds that the sum meets exactly before its end
    partial_sums = [action_dist(a, b, k, depth) for k in range(1, terms)]
    for x in [bound, *partial_sums]:
        cut = action_dist(a, b, terms, depth, bound=x)
        if full <= x:
            assert cut == full
        else:
            assert x < cut <= full


def test_wrp_search_stops_summing_heights_that_cannot_win():
    # the wrp workload's sizes; the tallest of the three heights (8, 16, 32) wins
    rng = random.Random(0)
    t, r = (aperiodic_permutation(rng, 512, 32) for _ in range(2))
    a, b = LatticeAction(1, (t,)), LatticeAction(1, (r,))
    terms, depth = 6, 6
    with patch("simact.action.coarse_dist", wraps=coarse_dist) as calls:
        res = wrp_conjugacy_search(a, b, Fraction(1, 16), terms, depth)
    assert res == wrp_conjugacy_search_oracle(a, b, Fraction(1, 16), terms, depth)
    assert res.height == 32
    assert calls.call_count < 3 * terms


@pytest.mark.parametrize("unit", [-2, 0, *range(1, 33)])
def test_random_cycle_lengths_draws_as_the_oracle(unit):
    for seed in range(20):
        n = unit * (1 + seed % 7)
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        new = _outcome(lambda: random_cycle_lengths(rng, n, unit))
        assert new == _outcome(lambda: random_cycle_lengths_oracle(oracle_rng, n, unit, unit))
        assert rng.getstate() == oracle_rng.getstate()
    for n in (-unit, 0, unit - 1, unit + 1):
        new = _outcome(lambda: random_cycle_lengths(random.Random(0), n, unit))
        assert new == _outcome(lambda: random_cycle_lengths_oracle(random.Random(0), n, unit, unit))


# level-20 sets are inside MAX_RESOLUTION; a per-bit loop over their 2^20-bit
# int is quadratic and takes tens of seconds there


def test_level_20_dyadic_round_trip_is_fast():
    s = DyadicSet(20, random.Random(0).getrandbits(1 << 20))
    start = time.perf_counter()
    back = load_dyadic(dump_dyadic(s))
    assert time.perf_counter() - start < 2
    assert back == s


def test_rohlin_tower_on_2_20_cells_is_fast():
    n = 1 << 20
    t = IntervalPermutation(n, tuple(range(1, n)) + (0,))
    start = time.perf_counter()
    base = rohlin_tower(t, 2, 0)
    assert time.perf_counter() - start < 2.5
    assert base.level == 20 and base.bits.bit_count() == n // 2


def test_factor_defect_on_a_level_20_target_is_fast(tmp_path):
    files = {
        "action.json": {"d": 1, "n": 2, "generators": [[1, 0]]},
        "piece.json": {"level": 1, "mask": "10"},
        "target.json": {"level": 20, "mask": format(random.Random(0).getrandbits(1 << 20), f"0{1 << 20}b")},
    }
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj), encoding="utf-8")
    argv = ["factor-defect", str(tmp_path / "action.json"), "--piece", str(tmp_path / "piece.json")]
    start = time.perf_counter()
    code = main(argv + ["--target", str(tmp_path / "target.json"), "--w", "2"])
    assert time.perf_counter() - start < 5
    assert code == 0


# -- measures ------------------------------------------------------------------------


@st.composite
def density_pieces(draw):
    """Pieces (lo, hi, p) inside [0, 1], each p of degree <= 2, not zero."""
    q = draw(st.integers(1, 12))
    out = []
    for _ in range(draw(st.integers(1, 3))):
        lo, hi = sorted(draw(st.lists(st.integers(0, q), min_size=2, max_size=2, unique=True)))
        coeffs = draw(st.lists(st.fractions(-4, 4, max_denominator=6), min_size=1, max_size=3))
        assume(P.p_make(coeffs))
        out.append((Fraction(lo, q), Fraction(hi, q), P.p_make(coeffs)))
    return out


@settings(max_examples=100, deadline=None)
@given(density_pieces(), density_pieces())
def test_line_convolve_matches_oracle(f, g):
    assert _line_convolve(f, g) == line_convolve_oracle(f, g)


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


@settings(max_examples=150, deadline=None)
@given(step_measures(atoms=False), step_measures(atoms=True), st.booleans(), st.integers(1, 6))
def test_weak_star_distance_matches_oracle(plain, atomic, both_atomic, depth):
    mu = atomic if both_atomic else plain
    for a, b in ((mu, atomic), (plain, mu), (plain, plain)):
        want = weak_star_distance_oracle(a, b, depth)
        assert weak_star_distance(a, b, depth) == want == weak_star_distance_cdf_oracle(a, b, depth)
    n = 2**depth
    for a in (plain, atomic):
        assert _grid_cdf(a, n) == [a.cdf(Fraction(k, n)) for k in range(n + 1)]


def _parts(mu: StepMeasure):
    return mu.breakpoints, mu.densities, mu.atoms


@settings(max_examples=150, deadline=None)
@given(
    step_measures(atoms=True),
    step_measures(atoms=True),
    st.booleans(),
    st.integers(0, 10**6),
    st.sampled_from([Fraction(1, 2), Fraction(1, 8), Fraction(1, 33)]),
)
def test_pushforward_matches_oracle(mu, other, smooth, seed, delta):
    if smooth:
        # degree-1 pieces, and atoms where both inputs have them
        mu = convolve(other, mu)
    h = random_adaptation(random.Random(seed), delta)
    assert _parts(pushforward(h, mu)) == _parts(pushforward_oracle(h, mu))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 24), st.integers(0, 10**6), st.integers(1, 24), st.integers(1, 24))
@example(q=3, k=4, r=1, j=1)  # the whole circle
def test_uniform_on_matches_oracle(q, k, r, j):
    lo = Fraction(k % (5 * q), q) - 2  # in [-2, 3)
    length = Fraction(min(j, r), r)  # in (0, 1]
    assert _parts(uniform_on(lo, length)) == _parts(uniform_on_oracle(lo, length))


# -- sampling ------------------------------------------------------------------------


def test_markov_table_matches_oracle_and_draws_as_much():
    for seed in range(200):
        p, w = 2 + seed % 3, 2 + seed // 3 % 2
        cap = (None, 5000, 20000)[seed // 6 % 3]
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        assert markov_table(rng, p, w, max_resolution=cap) == markov_table_oracle(oracle_rng, p, w, max_resolution=cap)
        assert rng.getstate() == oracle_rng.getstate()


def test_markov_table_refuses_past_the_draw_cap():
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"no draw in {budget.MAX_DRAWS} fits max_resolution 200"):
        markov_table(random.Random(0), 4, 3, max_resolution=200)
    assert time.perf_counter() - start < 2
