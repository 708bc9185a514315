from fractions import Fraction

import pytest

import simact.intervals as iv
import simact.sim as sim
from simact.budget import BudgetError
from simact.measure import convolve, uniform_on
from simact.sampling import (
    diagonal_table,
    iid_table,
    markov_table,
    random_graph_joining,
    trial_rng,
)
from simact.sim import (
    CylinderTable,
    Partition,
    Window,
    average_sims,
    convolve_sim,
    cylinder_mass,
    fixed_mass_bound,
    fixed_mass_report,
    graph_witness_exact,
    greedy_graph_witness,
    is_graph_joining,
    is_graph_sim,
    marginal,
    marginalize_to,
    marginalize_window,
    pair_matrix,
    refine_partition,
    relabel,
    sim_dist,
)
from simact.sim import _smear_weight

F = Fraction

HALVES = Partition((F(0), F(1, 2)))


def diag_halves(w=2):
    return diagonal_table(HALVES, [F(1, 2), F(1, 2)], w)


def iid_halves(w=2):
    return iid_table(HALVES, [F(1, 2), F(1, 2)], w)


# -- containers ----------------------------------------------------------------


def test_partition_basics():
    p = Partition((F(0), F(1, 3), F(3, 4)))
    assert p.p == 3
    assert p.piece(2) == (F(3, 4), F(1))
    assert p.piece_length(0) == F(1, 3)
    assert p.piece_of_point(F(1, 3)) == 1
    assert p.piece_of_point(F(99, 100)) == 2
    with pytest.raises(ValueError):
        Partition((F(1, 4),))
    with pytest.raises(ValueError):
        Partition((F(0), F(1, 2), F(1, 2)))


def test_window_element_order():
    assert Window(1, 3).elements() == [(0,), (1,), (2,)]
    assert Window(2, 2).elements() == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert Window(2, 3).size() == 9


def test_table_validation():
    with pytest.raises(ValueError):
        CylinderTable(Window(1, 2), HALVES, {(0, 0): F(1, 2)})
    with pytest.raises(ValueError):
        CylinderTable(Window(1, 2), HALVES, {(0, 0, 0): F(1)})
    with pytest.raises(ValueError):
        CylinderTable(Window(1, 2), HALVES, {(0, 5): F(1)})
    # time-0 marginal {0: 1} but time-1 marginal {1: 1}: not shift invariant
    with pytest.raises(ValueError):
        CylinderTable(Window(1, 2), HALVES, {(0, 1): F(1)})


@pytest.mark.parametrize("key,axis", [((0, 0, 1, 1), 0), ((0, 1, 0, 1), 1)])
def test_rank2_shift_consistency_names_the_failing_axis(key, axis):
    # key positions follow Window(2, 2).elements(): (0,0), (0,1), (1,0), (1,1).
    # (0,0,1,1) changes label along axis 0 only, (0,1,0,1) along axis 1 only;
    # each is consistent along the other axis
    with pytest.raises(ValueError, match=f"along axis {axis}$"):
        CylinderTable(Window(2, 2), HALVES, {key: F(1)})


def test_zero_masses_are_dropped():
    t = CylinderTable(Window(1, 1), HALVES, {(0,): F(1), (1,): F(0)})
    assert t.masses == {(0,): F(1)}


def test_masses_are_integer_numerators_over_the_least_denominator():
    t = CylinderTable(Window(1, 1), HALVES, {(0,): 6, (1,): 2}, den=8)
    assert (t.nums, t.den) == ({(0,): 3, (1,): 1}, 4)
    assert t == CylinderTable(Window(1, 1), HALVES, {(0,): "3/4", (1,): F(1, 4)})
    assert t.masses == {(0,): F(3, 4), (1,): F(1, 4)}
    with pytest.raises(TypeError):
        t.masses[(0,)] = F(1)
    with pytest.raises(ValueError, match="total mass 5/4 != 1"):
        CylinderTable(Window(1, 1), HALVES, {(0,): 3, (1,): 2}, den=4)


@pytest.mark.parametrize(
    "rows",
    [
        [[(0, F(1, 2))], [(1, F(1))]],  # label 0 keeps half its mass
        [[(0, F(1)), (1, F(1, 3))], [(1, F(1))]],  # label 0 gains a third
    ],
)
def test_relabel_refuses_rows_that_do_not_keep_the_mass(rows):
    # relabel's output goes through every construction check
    with pytest.raises(ValueError, match=r"^total mass .* != 1$"):
        relabel(iid_halves(), rows, HALVES)


def test_marginalization_and_cylinders():
    t = markov_table(trial_rng(0, 0), p=3, w=3)
    m01 = marginalize_to(t, [(0,), (1,)])
    m12 = marginalize_to(t, [(1,), (2,)])
    assert m01 == m12  # stationarity
    assert sum(m01.values()) == 1
    j = next(iter(t.masses))[0]
    assert cylinder_mass(t, {(0,): j}) == sum(
        mass for key, mass in t.masses.items() if key[0] == j
    )
    mat = pair_matrix(t, (0,), (1,))
    assert sum(sum(row, F(0)) for row in mat) == 1


def test_marginal_is_a_step_measure():
    t = diag_halves()
    mu = marginal(t)
    assert mu.mass(0, F(1, 2)) == F(1, 2)
    assert mu.total() == 1


def test_refine_partition_keeps_the_measure():
    t = markov_table(trial_rng(1, 1), p=2, w=2)
    fine = refine_partition(t, [F(1, 3), F(2, 3)])
    assert marginal(fine) == marginal(t)
    assert sim_dist(fine, t) == 0


def test_marginalize_window():
    t = iid_halves(w=3)
    sub = marginalize_window(t, 2)
    assert sub == iid_halves(w=2)


# -- table metric ----------------------------------------------------------------


def test_sim_dist_halves_example():
    # diagonal vs product on equal halves: the two-time cylinder (0, 0) gaps by 1/4
    assert sim_dist(diag_halves(), iid_halves()) == F(1, 4)


def test_sim_dist_is_zero_on_equal_tables():
    t = markov_table(trial_rng(2, 0), p=3, w=2)
    assert sim_dist(t, t) == 0


def test_sim_dist_symmetry_and_windows():
    a = markov_table(trial_rng(2, 1), p=2, w=3)
    b = markov_table(trial_rng(2, 2), p=2, w=2)
    assert sim_dist(a, b) == sim_dist(b, a)


def test_sim_dist_crosses_partitions():
    a = diagonal_table(HALVES, [F(1, 2), F(1, 2)], 2)
    b = diagonal_table(Partition((F(0), F(1, 4))), [F(1, 4), F(3, 4)], 2)
    d = sim_dist(a, b)
    assert 0 < d <= 1


# -- graph tests -------------------------------------------------------------------


def test_diagonal_is_a_graph_joining():
    res = is_graph_joining(diag_halves(), F(1, 100))
    assert res.ok
    assert res.diameter == 0


def test_iid_halves_fails_the_graph_test():
    res = is_graph_joining(iid_halves(), F(1, 8))
    assert not res.ok
    assert res.diameter == F(1, 4)
    # but passes once the tolerance is above the true diameter
    assert is_graph_joining(iid_halves(), F(1, 3)).ok


def test_random_graph_joinings_pass():
    for trial in range(10):
        t = random_graph_joining(trial_rng(4, trial), p=4)
        res = is_graph_joining(t, F(1, 64))
        assert res.ok and res.diameter == 0


def test_exact_witness_never_beaten_by_greedy():
    t = markov_table(trial_rng(5, 0), p=3, w=2)
    mat = pair_matrix(t, (0,), (1,))
    for b_mask in range(1 << 3):
        _a1, d_greedy = greedy_graph_witness(mat, b_mask)
        _a2, d_exact = graph_witness_exact(mat, b_mask)
        assert d_exact <= d_greedy


def test_graph_witness_rejects_non_joinings():
    with pytest.raises(ValueError):
        greedy_graph_witness([[F(1, 2), F(1, 2)], [F(0), F(0)]], 1)


@pytest.mark.parametrize(
    "matrix",
    [
        [[F(1, 2)], [F(1, 2)]],  # 2 x 1
        [[F(1, 2), F(0), F(0)], [F(0), F(1, 2)]],  # ragged; the square part is a joining
        [[F(1), F(-1, 2)], [F(-1, 2), F(0)]],  # marginals agree, entries negative
    ],
)
def test_graph_witnesses_reject_matrices_that_are_not_joinings(matrix):
    for witness in (greedy_graph_witness, graph_witness_exact):
        for b_mask in range(4):
            with pytest.raises(ValueError, match="square|negative"):
                witness(matrix, b_mask)


def test_is_graph_sim_checks_every_pair():
    ok, results = is_graph_sim(diag_halves(w=3), F(1, 100))
    assert ok
    assert len(results) == 6  # ordered pairs of 3 window times
    big = iid_table(Partition(tuple(F(i, 17) for i in range(17))), [F(1, 17)] * 17, 2)
    with pytest.raises(ValueError):
        is_graph_sim(big, F(1, 2))


def test_is_graph_sim_lists_the_window_times_a_fixed_number_of_times(monkeypatch):
    listed = []
    elements = Window.elements

    def counted(window):
        listed.append(window)
        return elements(window)

    monkeypatch.setattr(Window, "elements", counted)
    counts = []
    for d in (1, 2, 3):
        # the one-piece table of rank d and width 2: 2^d times, 2^d (2^d - 1) pairs
        t = diagonal_table(Partition((F(0),)), [F(1)], 2, d=d)
        listed.clear()
        ok, results = is_graph_sim(t, F(1, 2))
        assert ok and len(results) == 2**d * (2**d - 1)
        counts.append(len(listed))
    assert counts[0] == counts[1] == counts[2]


def test_is_graph_joining_refuses_p17_before_enumerating(monkeypatch):
    def enumerate_unions(*_args):
        raise AssertionError("witness search started")

    def build_pair_matrix(*_args):
        raise AssertionError("pair matrix built")

    monkeypatch.setattr(sim, "greedy_graph_witness", enumerate_unions)
    monkeypatch.setattr(sim, "graph_witness_exact", enumerate_unions)
    monkeypatch.setattr(sim, "pair_matrix", build_pair_matrix)
    seventeen = Partition(tuple(F(i, 17) for i in range(17)))
    # 17 keys and 2^33 search steps for each of the k(k-1) pairs
    for w, work in ((2, 17179870216), (3, 51539610648)):
        t = diagonal_table(seventeen, [F(1, 17)] * 17, w)
        # is_graph_joining takes two-time windows only
        for graph_test in [is_graph_sim] + [is_graph_joining] * (w == 2):
            with pytest.raises(ValueError, match=rf"\(2p-1\)\) = {work} is above the cap of 33554432; k\(k-1\)"):
                graph_test(t, F(1, 2))


def test_is_graph_sim_refuses_window_pairs_above_cap_before_any_pair_matrix(monkeypatch):
    def build_pair_matrix(*_args):
        raise AssertionError("pair matrix built")

    monkeypatch.setattr(sim, "pair_matrix", build_pair_matrix)
    t = diagonal_table(Partition((F(0),)), [F(1)], 2, d=9)
    # 261,632 pairs of one key
    with pytest.raises(ValueError, match=r"k\(k-1\)\*\(448\+4\*keys\+2\^\(2p-1\)\) = 118780928 is above the cap of 33554432"):
        is_graph_sim(t, F(1, 2))


def test_table_kernels_refuse_patterns_above_cap_before_any_pass(monkeypatch):
    def pass_started(*_args):
        raise AssertionError("a pass over the table started")

    monkeypatch.setattr(sim, "relabel", pass_started)
    monkeypatch.setattr(sim, "refine_partition", pass_started)
    wide = diag_halves(w=13)
    for run in (lambda: convolve_sim(wide, F(1, 4)), lambda: sim_dist(wide, wide)):
        with pytest.raises(ValueError, match=r"\(p\+1\)\^\(w\^d\) = 1594323 is above the cap of 1048576"):
            run()
    # 3^9 and 4^9 patterns alone, but 5^9 over the common partition
    thirds = diagonal_table(Partition((F(0), F(1, 3), F(2, 3))), [F(1, 3)] * 3, 9)
    with pytest.raises(ValueError, match=f"= {5**9} is above the cap"):
        sim_dist(diag_halves(w=9), thirds)


# -- smoothing ----------------------------------------------------------------------


def test_smear_weight_hand_values():
    half = iv.interval(F(0), F(1, 2))
    other = iv.interval(F(1, 2), F(1))
    assert _smear_weight(half, half, F(1, 4)) == F(3, 4)
    assert _smear_weight(other, half, F(1, 4)) == F(1, 4)


def test_convolve_sim_hand_fixture():
    t = CylinderTable(Window(1, 2), HALVES, {(0, 0): F(1)})
    out = convolve_sim(t, F(1, 4))
    assert out.masses == {
        (0, 0): F(9, 16),
        (0, 1): F(3, 16),
        (1, 0): F(3, 16),
        (1, 1): F(1, 16),
    }


def test_convolve_sim_zero_delta_is_identity():
    t = diag_halves()
    assert convolve_sim(t, 0) == t


def test_convolve_sim_marginal_identity():
    t = markov_table(trial_rng(6, 0), p=3, w=2)
    delta = F(1, 8)
    blurred = convolve_sim(t, delta)
    target = convolve(uniform_on(0, delta), marginal(t))
    for j in range(t.partition.p):
        lo, hi = t.partition.piece(j)
        assert marginal(blurred).mass(lo, hi) == target.mass(lo, hi)


def test_convolve_sim_moves_sim_dist_boundedly():
    t = markov_table(trial_rng(6, 1), p=2, w=2)
    delta = F(1, 16)
    blurred = convolve_sim(t, delta)
    bound = 2 * t.window.size() * delta * marginal(t).max_density()
    assert sim_dist(blurred, t) <= bound


def test_average_sims():
    a, b = diag_halves(), iid_halves()
    mid = average_sims(a, b, F(1, 2))
    assert mid.masses[(0, 0)] == F(1, 2) * F(1, 2) + F(1, 2) * F(1, 4)
    assert sim_dist(average_sims(a, b, 0), a) == 0
    with pytest.raises(ValueError):
        average_sims(a, diagonal_table(Partition((F(0), F(1, 4))), [F(1, 4), F(3, 4)], 2), F(1, 2))


# -- fixed mass ------------------------------------------------------------------------


def test_fixed_mass_diagonal_vs_product():
    assert fixed_mass_bound(diag_halves(), (1,)) == 1
    assert fixed_mass_bound(iid_halves(), (1,)) == F(1, 2)
    assert fixed_mass_report(iid_halves(), (1,)) == F(1, 2)


def test_fixed_mass_bad_shifts():
    t = diag_halves()
    with pytest.raises(ValueError):
        fixed_mass_bound(t, (0,))
    with pytest.raises(ValueError):
        fixed_mass_bound(t, (5,))


def test_refinement_refuses_the_dense_walk_of_a_sparse_table():
    # one key, but the dense kernel walks all 2^20 label tuples of two pieces
    # at 20 window times, and the patterns (2+1)^20 are above the cap
    t = CylinderTable(Window(1, 20), Partition((Fraction(0),)), {(0,) * 20: 1})
    with pytest.raises(BudgetError, match=r"\(p\+1\)\^\(w\^d\) = 3486784401 is above the cap"):
        refine_partition(t, [Fraction(1, 2)])
