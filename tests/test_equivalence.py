from fractions import Fraction

import pytest
from oracles import factor_defect_unions_oracle, identity_action

from simact.action import LatticeAction
from simact.budget import BudgetError
from simact.equivalence import (
    GraphWitness,
    PairWitness,
    action_to_sim,
    adapt_table,
    continuity_bound_check,
    cylinder_atoms,
    embed_action,
    factor_defect,
    inverse_continuity_check,
    marginal,
    realize_sim_as_action,
    recover_action,
)
from simact.measure import Adaptation, pushforward
from simact.sampling import (
    diagonal_table,
    iid_table,
    markov_table,
    random_action,
    random_graph_joining,
    trial_rng,
)
from simact.sim import CylinderTable, Partition, Window, average_sims
from simact.transform import DyadicSet, IntervalPermutation, rotation, swap_halves

F = Fraction

HALVES = Partition((F(0), F(1, 2)))


def grid_partition(n):
    return Partition(tuple(F(i, n) for i in range(n)))


# -- reading tables off actions -----------------------------------------------


def test_identity_action_reads_as_diagonal():
    t = action_to_sim(identity_action(1, 4), Window(1, 2), HALVES)
    assert t == diagonal_table(HALVES, [F(1, 2), F(1, 2)], 2)


def test_rotation_reads_off_exact_masses():
    act = LatticeAction(1, (rotation(4, 1),))
    t = action_to_sim(act, Window(1, 2), HALVES)
    assert t.masses == {
        (0, 0): F(1, 4),
        (0, 1): F(1, 4),
        (1, 1): F(1, 4),
        (1, 0): F(1, 4),
    }


def test_action_to_sim_takes_any_rational_cuts():
    # the grid refines to the lcm of action resolution and cut denominators
    t = action_to_sim(identity_action(1, 4), Window(1, 2), Partition((F(0), F(1, 7))))
    assert t.masses == {(0, 0): F(1, 7), (1, 1): F(6, 7)}
    assert action_to_sim(identity_action(1, 3), Window(1, 2), HALVES).partition == HALVES


def test_marginal_of_action_table_is_lebesgue():
    act = random_action(trial_rng(0, 0), d=1, n=8)
    t = action_to_sim(act, Window(1, 2), Partition((F(0), F(1, 4), F(5, 8))))
    mu = marginal(t)
    for j in range(t.partition.p):
        lo, hi = t.partition.piece(j)
        assert mu.mass(lo, hi) == hi - lo


# -- adapted embeddings ----------------------------------------------------------


def test_embed_with_identity_matches_plain_read():
    act = random_action(trial_rng(1, 0), d=1, n=8)
    w = Window(1, 2)
    assert embed_action(Adaptation(((F(0), F(0)),)), act, w, HALVES) == action_to_sim(act, w, HALVES)


def test_embed_factors_through_adapt_table():
    h = Adaptation(((F(0), F(0)), (F(1, 4), F(3, 8)), (F(1, 2), F(5, 8))))
    act = random_action(trial_rng(1, 1), d=1, n=4)
    w = Window(1, 2)
    target = Partition((F(0), F(1, 2)))
    pulled = Partition(tuple(h.inverse_value(c) for c in target.cuts))
    direct = embed_action(h, act, w, target)
    routed = adapt_table(h, action_to_sim(act, w, pulled), partition_out=target)
    assert direct == routed


def test_adapt_table_marginal_is_pushforward():
    h = Adaptation(((F(0), F(0)), (F(1, 2), F(3, 8))))
    t = markov_table(trial_rng(1, 2), p=3, w=2)
    out = adapt_table(h, t)
    pushed = pushforward(h, marginal(t))
    for j in range(out.partition.p):
        lo, hi = out.partition.piece(j)
        assert marginal(out).mass(lo, hi) == pushed.mass(lo, hi)


def test_continuity_bound_chain():
    h = Adaptation(((F(0), F(0)), (F(1, 4), F(9, 32)), (F(3, 4), F(23, 32))))
    act = random_action(trial_rng(2, 0), d=1, n=8)
    t = action_to_sim(act, Window(1, 2), Partition((F(0), F(1, 4), F(1, 2))))
    key = next(iter(t.masses))
    lhs, mid, rhs = continuity_bound_check(h, t, key)
    assert lhs <= mid <= rhs
    assert rhs == 2 * 2 * h.sup_dist_to_identity()


def test_continuity_bound_needs_length_marginal():
    t = iid_table(HALVES, [F(1, 4), F(3, 4)], 2)
    with pytest.raises(ValueError):
        continuity_bound_check(Adaptation(((F(0), F(0)),)), t, (0, 0))


# -- recovery ----------------------------------------------------------------------


def test_recover_round_trip_on_grid_tables():
    for d, n in [(1, 4), (1, 8), (2, 4)]:
        act = random_action(trial_rng(3, 10 * d + n), d=d, n=n)
        t = action_to_sim(act, Window(d, 2), grid_partition(act.n))
        back, witness = recover_action(t, 0)
        assert back == act
        assert isinstance(witness, GraphWitness)
        assert all(pw.defect == 0 for pw in witness.pairs)


def test_recover_reads_off_graph_joinings():
    t = random_graph_joining(trial_rng(4, 0), p=5)
    sigma = {i: j for (i, j) in t.masses}
    _act, witness = recover_action(t, 0)
    pw = witness.pairs[0]
    assert pw.mapping == tuple(sigma[i] for i in range(5))
    assert pw.defect == 0


def test_recover_tolerates_small_contamination():
    base = random_graph_joining(trial_rng(4, 1), p=4)
    piece_masses = [marginal(base).mass(*base.partition.piece(j)) for j in range(4)]
    noise = iid_table(base.partition, piece_masses, 2)
    mixed = average_sims(base, noise, F(1, 10))
    act, witness = recover_action(mixed, F(1, 5))
    pw = witness.pairs[0]
    sigma = {i: j for (i, j) in base.masses}
    assert pw.mapping == tuple(sigma[i] for i in range(4))
    assert 0 < pw.defect <= F(1, 10)
    assert act.d == 1


def test_recover_sends_a_block_onto_a_larger_block():
    # marginal 9/20, 11/20 on a 20-cell grid: block 0 fills the first 9 of
    # block 1's 11 slots, block 1's first 9 cells fill block 0, and its two
    # overflow cells take the two spare slots left in block 1
    t = CylinderTable(Window(1, 2), HALVES, {(0, 0): F(1, 20), (0, 1): F(2, 5), (1, 0): F(2, 5), (1, 1): F(3, 20)})
    act, witness = recover_action(t, F(1, 3))
    perm = tuple(range(9, 18)) + tuple(range(9)) + (18, 19)
    assert act.generators == (IntervalPermutation(20, perm),)
    assert witness.pairs == (PairWitness((0,), (1,), (1, 0), F(3, 20)),)


def test_recover_rejects_non_graphs():
    with pytest.raises(ValueError):
        recover_action(iid_table(HALVES, [F(1, 2), F(1, 2)], 2), F(1, 4))
    with pytest.raises(ValueError):
        recover_action(diagonal_table(HALVES, [F(1, 2), F(1, 2)], 1), 0)


# -- realization --------------------------------------------------------------------


def test_realize_reproduces_markov_tables():
    for trial in range(5):
        t = markov_table(trial_rng(5, trial), p=3, w=2, max_resolution=20000)
        act, part = realize_sim_as_action(t)
        back = action_to_sim(act, t.window, part)
        assert back.masses == t.masses


def test_realize_longer_windows():
    t = markov_table(trial_rng(5, 100), p=2, w=3, max_resolution=20000)
    act, part = realize_sim_as_action(t)
    assert action_to_sim(act, t.window, part).masses == t.masses


def test_realize_single_time_window():
    t = CylinderTable(Window(1, 1), HALVES, {(0,): F(1, 3), (1,): F(2, 3)})
    act, part = realize_sim_as_action(t)
    assert act.generators[0].perm == tuple(range(act.n))
    assert part.cuts == (F(0), F(1, 3))


def test_realize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        realize_sim_as_action(iid_table(HALVES, [F(1, 2), F(1, 2)], 2, d=2))
    with pytest.raises(ValueError):
        realize_sim_as_action(diagonal_table(HALVES, [F(1), F(0)], 2))


def test_recover_and_realize_refuse_a_vanishing_piece_alike():
    t = diagonal_table(Partition((F(0), F(1, 3), F(2, 3))), [F(1, 2), F(0), F(1, 2)], 2)
    for build in (realize_sim_as_action, lambda t: recover_action(t, 0)):
        with pytest.raises(ValueError, match=r"marginal vanishes on pieces \[1\]"):
            build(t)


# -- factor defect -----------------------------------------------------------------


def test_factor_defect_examples():
    act = identity_action(1, 4)
    w = Window(1, 2)
    piece = DyadicSet.from_indices(1, [0])
    assert factor_defect(act, piece, piece, w) == 0
    shifted = DyadicSet.from_indices(2, [1, 2])  # [1/4, 3/4)
    assert factor_defect(act, piece, shifted, w) == F(1, 2)


def test_cylinder_atoms_label_by_itinerary():
    act = LatticeAction(1, (swap_halves(),))
    n, labels = cylinder_atoms(act, DyadicSet.from_indices(1, [0]), Window(1, 2))
    # every point alternates sides, so there are exactly two atoms
    assert len(set(labels)) == 2
    assert labels == [labels[0]] * (n // 2) + [labels[n - 1]] * (n // 2)


def test_factor_defect_matches_enumeration():
    for trial in range(8):
        rng = trial_rng(6, trial)
        act = random_action(rng, d=1, n=8)
        piece = DyadicSet(2, rng.randrange(1, 15))
        target = DyadicSet(3, rng.randrange(1, 255))
        w = Window(1, 2)
        n, labels = cylinder_atoms(act, piece, w)
        assert factor_defect(act, piece, target, w) == factor_defect_unions_oracle(n, labels, target)


# -- inverse continuity ---------------------------------------------------------------


def test_inverse_continuity_identity_case():
    act = identity_action(1, 4)
    s = DyadicSet.from_indices(1, [0])
    rep = inverse_continuity_check(act, act, (1,), s, F(1, 8))
    assert rep.symdiff_mass == 0
    assert rep.gap_below and rep.conclusion_below


def test_inverse_continuity_split_case():
    a = identity_action(1, 2)
    b = LatticeAction(1, (swap_halves(),))
    s = DyadicSet.from_indices(1, [0])
    rep = inverse_continuity_check(a, b, (1,), s, F(1, 4))
    assert rep.mass_a == F(1, 2)
    assert rep.mass_b == 0
    assert rep.symdiff_mass == 1
    assert not rep.gap_below
    assert rep.symdiff_mass == 2 * (rep.mass_a - rep.mass_b)


def test_inverse_continuity_at_a_resolution_that_is_not_dyadic():
    # n = lcm(3, 3, 2) = 6: the rotation sends cell i to i + 2 mod 6, so
    # A^-1(S) = {4, 5, 0} against S = {0, 1, 2} under the identity
    a = LatticeAction(1, (rotation(3, 1),))
    s = DyadicSet.from_indices(1, [0])
    rep = inverse_continuity_check(a, identity_action(1, 3), (1,), s, F(1, 2))
    assert (rep.mass_a, rep.mass_b, rep.symdiff_mass) == (F(1, 2), F(1, 6), F(2, 3))
    assert rep.gap_below and rep.conclusion_below


def test_inverse_continuity_refuses_a_grid_above_max_resolution():
    # lcm(3, 3, 2^20) = 3 * 2^20 cells
    a = LatticeAction(1, (rotation(3, 1),))
    with pytest.raises(BudgetError, match="grid resolution n = 3145728 is above the cap"):
        inverse_continuity_check(a, a, (1,), DyadicSet(20, 0), F(1, 2))
