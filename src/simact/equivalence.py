"""Bridges between interval-permutation actions and cylinder tables.

Both directions are exact: reading a table off an action only needs grid
interval bookkeeping, and a rank-1 table with matching piece data can be
realized as an action whose table is reproduced entry by entry.  Adapted
embeddings route an action through an increasing piecewise-linear
reparametrization before reading off masses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm, prod

from . import budget
from .action import GroupElement, LatticeAction
from .measure import Adaptation, StepMeasure, from_piece_masses
from .sim import (
    CylinderTable,
    Partition,
    Window,
    marginalize_to,
    overlap_rows,
    pair_matrix,
    relabel,
)
from .transform import DyadicSet, IntervalPermutation, preimage

__all__ = [
    "action_to_sim",
    "embed_action",
    "adapt_table",
    "continuity_bound_check",
    "GraphWitness",
    "PairWitness",
    "recover_action",
    "realize_sim_as_action",
    "cylinder_atoms",
    "factor_defect",
    "inverse_continuity_check",
    "InverseContinuityReport",
    "marginal",
]


def _piece_of_cell(partition: Partition, n: int) -> list[int]:
    """Piece index of each grid cell [i/n, (i+1)/n); the cuts sit on the grid."""
    edges = [int(c * n) for c in partition.cuts] + [n]
    return [j for j in range(partition.p) for _cell in range(edges[j], edges[j + 1])]


def _itineraries(
    a: LatticeAction, window: Window, label: list[int] | str
) -> tuple[int, list[tuple]]:
    """Each grid cell's labels at the window times.

    label[i] labels the cell [i/m, (i+1)/m), with m = len(label).  Only the
    window times with every coordinate 0 or 1 are evaluated; any other time
    gamma is the map of gamma - e_i after generator i, for the first axis i
    with gamma_i > 1, which is exact since the generators commute and which
    comes earlier in the window's order.  Each map is built at the action's
    own resolution and refined to n = lcm(a.n, m), which is exact since
    refinement commutes with powers and composition; returns n and, for
    every n-cell, the labels of its time-gamma images in window order.
    """
    if window.d != a.d:
        raise ValueError(f"rank mismatch: window {window.d}, action {a.d}")
    n = lcm(a.n, len(label))
    budget.check("itinerary cells n*w^d =", n * window.size(), budget.MAX_RESOLUTION)
    span = n // len(label)
    fine = [label[i // span] for i in range(n)]
    maps: dict[GroupElement, IntervalPermutation] = {}
    columns = []
    for gamma in window.elements():
        i = next((i for i, c in enumerate(gamma) if c > 1), None)
        if i is None:
            t = a.evaluate(gamma)
        else:
            t = maps[(*gamma[:i], gamma[i] - 1, *gamma[i + 1 :])].compose(a.generators[i])
        maps[gamma] = t
        columns.append(list(map(fine.__getitem__, t.refine(n).perm)))
    return n, list(zip(*columns))


def action_to_sim(a: LatticeAction, window: Window, partition: Partition) -> CylinderTable:
    """Read the window statistics of an action off its grid.

    The mass of an assignment is the measure of the set of points whose
    time-gamma image lies in the assigned piece for every window time: the
    count of grid cells with that itinerary, over the grid size n.  The
    grid refines the action to the lcm of its resolution and the cut
    denominators; n above MAX_RESOLUTION is refused before anything is
    allocated.
    """
    m = lcm(*(c.denominator for c in partition.cuts))
    budget.check("grid resolution n =", lcm(a.n, m), budget.MAX_RESOLUTION)
    n, keys = _itineraries(a, window, _piece_of_cell(partition, m))
    # n itineraries of a measure-preserving action: positive counts summing
    # to n, the same for the window minus either end layer of any axis
    return CylinderTable._trusted(window, partition, Counter(keys), n)


def embed_action(
    h: Adaptation, a: LatticeAction, window: Window, partition: Partition
) -> CylinderTable:
    """Window statistics of the action read through the adapted pieces
    h^-1(I); the resulting table lives over the target partition."""
    pulled = Partition(tuple(h.inverse_value(c) for c in partition.cuts))
    base = action_to_sim(a, window, pulled)
    # the pulled-back partition has partition's p pieces, so base's keys fit
    return CylinderTable._trusted(window, partition, base.nums, base.den)


def adapt_table(
    h: Adaptation, t: CylinderTable, partition_out: Partition | None = None
) -> CylinderTable:
    """Push the cell-uniform measure of t through the adaptation and read
    masses over partition_out (default: t's own partition).

    Exact for a single application.  Chaining two adaptations at a fixed
    partition projects onto cell-uniform detail in the middle; to match a
    one-shot composed application exactly, give the inner call a
    partition_out refined by the pullback of the outer adaptation's cuts.
    """
    p_out = partition_out if partition_out is not None else t.partition
    # cell c of t sends to piece j the share of it that h^-1 of piece j covers
    rows = overlap_rows(t.partition.pieces(), [h.preimage_interval(lo, hi) for lo, hi in p_out.pieces()])
    return relabel(t, rows, p_out)


def _piece_masses(t: CylinderTable) -> list[Fraction]:
    """The single-time marginal: each piece's mass at time 0, zeros included."""
    single = marginalize_to(t, [(0,) * t.window.d])
    return [single.get((j,), Fraction(0)) for j in range(t.partition.p)]


def marginal(t: CylinderTable) -> StepMeasure:
    """Single-time marginal spread uniformly inside each piece."""
    return from_piece_masses(t.partition.cuts, _piece_masses(t))


def _eval_boxes(t: CylinderTable, boxes: list[tuple[Fraction, Fraction]]) -> Fraction:
    """Mass of a product box, one (lo, hi) interval per window position,
    under the cell-uniform measure of t: each key's numerator times the
    share of its cell that each position's box covers, from `overlap_rows`."""
    shares = [dict(row) for row in overlap_rows(t.partition.pieces(), boxes)]
    total = sum(num * prod(shares[c].get(pos, 0) for pos, c in enumerate(key)) for key, num in t.nums.items())
    return Fraction(total) / t.den


def continuity_bound_check(
    h: Adaptation, t: CylinderTable, assignment: tuple[int, ...]
) -> tuple[Fraction, Fraction, Fraction]:
    """Exact three-term chain for a full-window assignment:

        |t(adapted boxes) - t(boxes)|  <=  sum over window times of
        m(h^-1(I) xor I)  <=  2 * |window| * sup|h - id|.

    Requires the table's marginal to match piece lengths, which is what
    makes the middle sum the right budget.  Returns (lhs, mid, rhs) after
    asserting the chain.
    """
    k = t.window.size()
    assignment = tuple(assignment)
    if len(assignment) != k:
        raise ValueError("assignment must cover the whole window")
    if any(m != hi - lo for m, (lo, hi) in zip(_piece_masses(t), t.partition.pieces())):
        raise ValueError("marginal must equal piece lengths for the bound")
    boxes = []
    mid = Fraction(0)
    for j in assignment:
        lo, hi = t.partition.piece(j)
        plo, phi = h.preimage_interval(lo, hi)
        boxes.append((plo, phi))
        # |P xor I| = |P| + |I| - 2 |P & I|
        mid += (phi - plo) + (hi - lo) - 2 * max(min(phi, hi) - max(plo, lo), 0)
    lhs = abs(_eval_boxes(t, boxes) - Fraction(t.nums.get(assignment, 0), t.den))
    rhs = 2 * k * h.sup_dist_to_identity()
    assert lhs <= mid <= rhs
    return lhs, mid, rhs


# -- recovery ----------------------------------------------------------------


@dataclass(frozen=True)
class PairWitness:
    """Majority piece map read off one two-time marginal."""

    alpha: GroupElement
    beta: GroupElement
    mapping: tuple[int, ...]
    defect: Fraction


@dataclass(frozen=True)
class GraphWitness:
    pairs: tuple[PairWitness, ...]


def _levels(t: CylinderTable) -> list[Fraction]:
    """Cumulative single-time marginal masses 0, m_0, m_0 + m_1, ..., 1,
    refused when the marginal vanishes on a piece."""
    masses = _piece_masses(t)
    empty = [j for j, m in enumerate(masses) if not m]
    if empty:
        raise ValueError(f"marginal vanishes on pieces {empty}; drop them first")
    return list(accumulate(masses, initial=Fraction(0)))


def _majority_map(matrix, epsilon: Fraction) -> tuple[tuple[int, ...], Fraction]:
    """Each piece's best target and the largest row mass kept off it."""
    p = len(matrix)
    mapping = []
    defect = Fraction(0)
    for i in range(p):
        row_total = sum(matrix[i], Fraction(0))
        best_j = max(range(p), key=lambda j: (matrix[i][j], -j))
        if matrix[i][best_j] < (1 - epsilon) * row_total:
            raise ValueError(
                f"piece {i} keeps only {matrix[i][best_j]} of {row_total} in its best "
                f"target; not a graph at tolerance {epsilon}"
            )
        mapping.append(best_j)
        defect = max(defect, row_total - matrix[i][best_j])
    if sorted(mapping) != list(range(p)):
        raise ValueError("majority targets collide; not a graph at this tolerance")
    return tuple(mapping), defect


def _block_permutation(
    block_sizes: list[int], mapping: tuple[int, ...], n: int
) -> IntervalPermutation:
    """Send block j onto block mapping[j], a permutation, order preserving;
    when sizes disagree the overflow cells are paired with the spare slots,
    both in ascending order."""
    edges = list(accumulate(block_sizes, initial=0))
    blocks = [range(lo, hi) for lo, hi in zip(edges, edges[1:])]
    perm = [-1] * n
    leftovers: list[int] = []
    spare: list[int] = []
    for cells, slots in zip(blocks, (blocks[j] for j in mapping)):
        take = min(len(cells), len(slots))
        perm[cells.start : cells.start + take] = slots[:take]
        leftovers.extend(cells[take:])
        spare.extend(slots[take:])
    for c, s in zip(leftovers, sorted(spare)):
        perm[c] = s
    return IntervalPermutation(n, tuple(perm))


def recover_action(t: CylinderTable, epsilon) -> tuple[LatticeAction, GraphWitness]:
    """Rebuild an action from a table that is a graph up to the tolerance.

    Each generator comes from the (0, unit vector) two-time marginal: every
    piece must send at least a (1 - epsilon) share of its mass to a single
    target piece, and the targets must form a permutation of the pieces.
    Piece masses need not be equal; blocks on the line get the marginal
    masses, laid out in piece order.
    """
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise ValueError("tolerance must be >= 0")
    d, w = t.window.d, t.window.w
    if w < 2:
        raise ValueError("window must contain the unit vectors; need w >= 2")
    zero = (0,) * d
    levels = _levels(t)
    n = budget.check("grid resolution n =", lcm(*(x.denominator for x in levels)), budget.MAX_RESOLUTION)
    block_sizes = [int((levels[j + 1] - levels[j]) * n) for j in range(t.partition.p)]
    generators = []
    witnesses = []
    for axis in range(d):
        unit = tuple(1 if i == axis else 0 for i in range(d))
        matrix = pair_matrix(t, zero, unit)
        mapping, defect = _majority_map(matrix, epsilon)
        generators.append(_block_permutation(block_sizes, mapping, n))
        witnesses.append(PairWitness(zero, unit, mapping, defect))
    action = LatticeAction(d, tuple(generators))
    return action, GraphWitness(tuple(witnesses))


# -- realization -------------------------------------------------------------


def realize_sim_as_action(t: CylinderTable) -> tuple[LatticeAction, Partition]:
    """Build a rank-1 action whose table reproduces t entry by entry.

    Points are laid out by their leading (w-1)-block of labels; each block
    interval is cut into outgoing slots, one per positive-mass successor,
    holding the exact transition mass, and slots are matched to incoming
    slots in ascending block order.  At w = 1 every key leads with the one
    empty block and comes back onto its own slots, so the map is the
    identity.  The returned partition has cuts at the marginal's cumulative
    masses so its piece indices line up with t's.  A resolution above
    MAX_RESOLUTION is refused up front.
    """
    if t.window.d != 1:
        raise ValueError("realization covers rank-1 tables only")
    partition_out = Partition(tuple(_levels(t)[:-1]))
    # one grid cell per 1/den: every mass, and so every level, sits on the grid
    n = budget.check("grid resolution n =", t.den, budget.MAX_RESOLUTION)
    keys = sorted(t.nums)
    outs = list(accumulate((t.nums[key] for key in keys), initial=0))
    assert outs[-1] == n
    # a block starts at its first key's out-slot; shift consistency makes the
    # mass coming into v equal v's block size, so incoming slots tile it exactly
    in_offset: dict[tuple[int, ...], int] = {}
    for key, out in zip(keys, outs):
        in_offset.setdefault(key[:-1], out)
    perm = [-1] * n
    for key, out in zip(keys, outs):
        width, v = t.nums[key], key[1:]
        dst = in_offset[v]
        perm[out : out + width] = range(dst, dst + width)
        in_offset[v] = dst + width
    gen = IntervalPermutation(n, tuple(perm))
    return LatticeAction(1, (gen,)), partition_out


# -- factor defect -----------------------------------------------------------


def cylinder_atoms(
    a: LatticeAction, piece: DyadicSet, window: Window
) -> tuple[int, list[int]]:
    """Partition the grid by the window itinerary relative to {piece,
    complement}.  Returns (resolution, atom label per cell); equal labels
    mean same atom.  A resolution above MAX_RESOLUTION is refused up front."""
    budget.check("grid resolution n =", lcm(a.n, piece.cells), budget.MAX_RESOLUTION)
    n, signatures = _itineraries(a, window, piece.mask())
    atoms: dict[tuple[str, ...], int] = {}
    return n, [atoms.setdefault(sig, len(atoms)) for sig in signatures]


def factor_defect(
    a: LatticeAction, piece: DyadicSet, target: DyadicSet, window: Window
) -> Fraction:
    """Distance from `target` to the algebra generated by the window
    itineraries of `piece`: the closest union of itinerary atoms misses the
    target by exactly the sum over atoms of min(inside, outside) mass.  The
    walk runs at lcm(a.n, piece cells, target cells), refused above
    MAX_RESOLUTION before any grid is built."""
    budget.check("grid resolution n =", lcm(a.n, piece.cells, target.cells), budget.MAX_RESOLUTION)
    n, labels = cylinder_atoms(a, piece, window)
    n2 = lcm(n, target.cells)
    f, span = n2 // n, n2 // target.cells
    inside = target.mask()
    # (atom, inside target) cell counts; each atom misses by its smaller side
    counts = Counter((labels[cell // f], inside[cell // span]) for cell in range(n2))
    return Fraction(sum(min(counts[lab, "0"], counts[lab, "1"]) for lab in set(labels)), n2)


# -- inverse continuity -------------------------------------------------------


@dataclass(frozen=True)
class InverseContinuityReport:
    mass_a: Fraction
    mass_b: Fraction
    symdiff_mass: Fraction
    gap_below: bool
    conclusion_below: bool


def inverse_continuity_check(
    a: LatticeAction, b: LatticeAction, gamma: GroupElement, s: DyadicSet, epsilon
) -> InverseContinuityReport:
    """Compare the time-gamma preimages of a dyadic set under two actions.

    With J = A^-gamma(S), the identity m(J xor B^-gamma(S)) =
    2 (m(J) - m(J intersect B^-gamma(S))) holds exactly because both
    preimages carry the mass of S.  A joint-mass gap below the tolerance
    therefore forces the preimage symmetric difference below twice it.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("tolerance must be > 0")
    ja = preimage(a.evaluate(gamma), s)
    jb = preimage(b.evaluate(gamma), s)
    mass_a = ja.mass()
    mass_b = (ja & jb).mass()
    sym = (ja ^ jb).mass()
    assert sym == 2 * (mass_a - mass_b)
    report = InverseContinuityReport(
        mass_a=mass_a,
        mass_b=mass_b,
        symdiff_mass=sym,
        gap_below=mass_a - mass_b < epsilon,
        conclusion_below=sym < 2 * epsilon,
    )
    if report.gap_below:
        assert report.conclusion_below
    return report
