import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simact.action import LatticeAction, free_defect
from simact.budget import MAX_DEPTH
from simact.transform import (
    DyadicSet,
    IntervalPermutation,
    coarse_dist,
    coarse_dist_tail,
    coarse_term_count,
    common_resolution,
    halmos_dist,
    identity,
    rohlin_tower,
    rotation,
    swap_halves,
    tower_columns,
)

F = Fraction


def shuffled(n, seed):
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    return IntervalPermutation(n, tuple(perm))


perms = st.builds(shuffled, st.sampled_from([2, 3, 4, 6, 8]), st.integers(0, 10**6))


# -- group structure ---------------------------------------------------------


def test_rejects_non_bijections():
    with pytest.raises(ValueError):
        IntervalPermutation(3, (0, 0, 2))
    with pytest.raises(ValueError):
        IntervalPermutation(0, ())


@given(perms, perms)
def test_compose_refines_and_inverts(a, b):
    c = a.compose(b)
    assert c.compose(b.inverse()).compose(a.inverse()) == identity(c.n).refine(c.n)
    assert halmos_dist(c.compose(c.inverse()), identity(1)) == 0


@given(perms, st.integers(-6, 6))
def test_power_matches_repeated_composition(t, k):
    expected = identity(t.n)
    step = t if k >= 0 else t.inverse()
    for _ in range(abs(k)):
        expected = step.compose(expected)
    assert t.power(k) == expected


def test_refine_keeps_the_map():
    # fine cell c lies in coarse cell c // 3 and moves by the same translation
    t = rotation(4, 1)
    fine = t.refine(12)
    for c in range(12):
        assert fine.perm[c] == 3 * t.perm[c // 3] + c % 3


def test_cycles_and_powers():
    t = IntervalPermutation(5, (1, 2, 0, 4, 3))
    assert t.cycle_lengths() == [3, 2]
    assert t.power(6) == identity(5)
    assert t.power(-1) == t.inverse()


# -- dyadic sets ---------------------------------------------------------------


def test_mask_reads_cell_i_at_character_i():
    s = DyadicSet.from_indices(2, [0, 3])
    assert s.mask() == "1001"
    assert DyadicSet.from_mask("1101") == DyadicSet.from_indices(2, [0, 1, 3])
    assert DyadicSet.from_mask("0") == DyadicSet(0, 0)
    for bad in ["", "011", "0x", "1_01", " 01"]:
        with pytest.raises(ValueError, match="mask must be 2\\^level characters of 0/1"):
            DyadicSet.from_mask(bad)


# -- distances -----------------------------------------------------------------


def test_coarse_dist_identity_vs_swap():
    # depth 1: both level-1 intervals are fully displaced by the half swap
    got = coarse_dist(identity(2), swap_halves(), 1)
    assert got == F(1, 2) + F(1, 4)
    assert coarse_term_count(1) == 2
    assert coarse_dist_tail(1) == F(1, 4)


def test_halmos_dist_counts_moved_cells():
    t = IntervalPermutation(4, (1, 0, 2, 3))
    assert halmos_dist(t, identity(4)) == F(1, 2)
    assert halmos_dist(t, t) == 0
    # resolutions mix exactly
    assert halmos_dist(identity(2), identity(3)) == 0


@given(perms, perms, perms)
def test_halmos_is_a_metric(a, b, c):
    assert halmos_dist(a, b) == halmos_dist(b, a)
    assert (halmos_dist(a, b) == 0) == (a.refine(lcm_n(a, b)) == b.refine(lcm_n(a, b)))
    assert halmos_dist(a, c) <= halmos_dist(a, b) + halmos_dist(b, c)


def lcm_n(a, b):
    return common_resolution(a, b)[0].n


@settings(max_examples=50)
@given(perms, perms, st.integers(1, 3))
def test_coarse_dist_below_halmos(a, b, depth):
    # preimages of a set can only disagree where the maps disagree
    assert coarse_dist(a, b, depth) <= halmos_dist(a, b)


def test_coarse_dist_separates_distinct_rotations():
    t, r = rotation(4, 1), rotation(4, 3)
    assert coarse_dist(t, r, 2) > 0


def test_coarse_dist_refuses_depth_outside_one_to_max_depth():
    t, r = identity(2), swap_halves()
    for depth in (0, MAX_DEPTH + 1):
        with pytest.raises(ValueError, match="depth"):
            coarse_dist(t, r, depth)
    assert coarse_dist(t, r, MAX_DEPTH) > 0


# -- towers ----------------------------------------------------------------------


def test_rohlin_tower_exact_when_height_divides():
    t = rotation(8, 1)
    base = rohlin_tower(t, 4, 0)
    assert base.mass() == F(1, 4)
    assert base.mask() == "10001000"


def test_rohlin_tower_infeasible_cases():
    t = rotation(8, 1)
    with pytest.raises(ValueError):
        rohlin_tower(t, 3, 0)  # 3 does not divide 8
    with pytest.raises(ValueError):
        rohlin_tower(t, 4, F(1, 100))  # would need cycles of length >= 400
    with pytest.raises(ValueError, match="resolution 6 is not a power of two; base cannot be dyadic"):
        rohlin_tower(rotation(6, 1), 3, 0)


@pytest.mark.parametrize("height", [0, -1])
def test_tower_columns_refuse_a_height_below_one(height):
    with pytest.raises(ValueError, match="height must be >= 1"):
        tower_columns(rotation(8, 1), height)


def test_rohlin_tower_with_slack():
    t = rotation(16, 1)
    base = rohlin_tower(t, 5, F(5, 16))
    # 3 full columns of height 5 cover 15/16 >= 11/16
    assert base.mass() == F(3, 16)


@given(st.integers(1, 5), st.integers(0, 10**6))
def test_rohlin_tower_levels_are_disjoint(height, seed):
    rng = random.Random(seed)
    t = shuffled(16, rng.randrange(10**9))
    min_cycle = min(t.cycle_lengths())
    eps = F(height, min_cycle)
    if eps > 1:
        return
    base = rohlin_tower(t, height, eps)
    covered, level = 0, base.bits
    for _ in range(height):
        assert covered & level == 0
        covered |= level
        level = sum(1 << t.perm[c] for c in range(t.n) if level >> c & 1)
    assert F(covered.bit_count(), t.n) >= 1 - eps


def test_aperiodicity_scale():
    # T^k and T^-k fix the cycles whose length divides k
    t = IntervalPermutation(5, (1, 2, 0, 4, 3))  # cycles of length 3 and 2
    expected = [
        (1, F(0)),
        (2, F(2, 5)),
        (3, F(3, 5)),
        (4, F(2, 5)),
        (5, F(0)),
        (6, F(1)),
    ]
    got = free_defect(LatticeAction(1, (t,)), 6)
    assert got == [((sign * k,), mass) for k, mass in expected for sign in (1, -1)]
