import os
import random
import subprocess
import sys
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import identity_action

import simact
from simact.action import (
    InfeasibleError,
    LatticeAction,
    WrpResult,
    action_dist,
    action_dist_tail,
    conjugate,
    free_defect,
    group_enumeration,
    tower_heights,
    wrp_conjugacy_search,
)
from simact.sampling import aperiodic_permutation, random_action, trial_rng
from simact.transform import IntervalPermutation, identity, rotation, swap_halves

F = Fraction


def test_generators_must_commute():
    a = IntervalPermutation(4, (1, 0, 2, 3))
    b = IntervalPermutation(4, (0, 2, 1, 3))
    with pytest.raises(ValueError, match="generators 0 and 1 do not commute"):
        LatticeAction(2, (a, b))
    # the identity commutes with both, so the pair named is the last one
    with pytest.raises(ValueError, match="generators 1 and 2 do not commute"):
        LatticeAction(3, (identity(4), a, b))


def test_commutation_is_checked_without_building_a_map():
    # one resolution: the generators are kept as given, and each pair is
    # compared on its perm tuples, not through two composed maps
    gens = (rotation(12, 1), rotation(12, 4), rotation(12, 6))
    with patch.object(IntervalPermutation, "compose", side_effect=AssertionError("composed a map")):
        act = LatticeAction(3, gens)
    assert all(g is h for g, h in zip(act.generators, gens))


def test_mixed_resolutions_refine_to_common():
    act = LatticeAction(2, (rotation(2, 1), rotation(3, 1)))
    assert act.n == 6
    assert act.evaluate((1, 1)) == rotation(6, 5)


def test_evaluate_composes_only_the_nonzero_powers():
    act = LatticeAction(2, (rotation(6, 2), rotation(6, 3)))
    assert act.evaluate((0, 0)) == identity(6)
    assert act.evaluate((1, 0)) is act.generators[0]
    assert act.evaluate((0, -2)) == act.generators[1].power(-2)


@given(st.integers(0, 10**6), st.integers(-4, 4), st.integers(-4, 4))
def test_evaluate_is_a_homomorphism(seed, k1, k2):
    act = random_action(trial_rng(seed, 0), d=2, n=8)
    left = act.evaluate((k1, k2))
    gen_powers = act.generators[0].power(k1).compose(act.generators[1].power(k2))
    assert left == gen_powers
    # additivity in the group
    total = act.evaluate((k1 + k2, 0))
    assert total == act.evaluate((k1, 0)).compose(act.evaluate((k2, 0)))


def test_group_enumeration_rank_one_order():
    assert group_enumeration(1, 5) == [(0,), (1,), (-1,), (2,), (-2,)]


def test_group_enumeration_rank_two_shells():
    got = group_enumeration(2, 9)
    assert got[0] == (0, 0)
    assert set(got[1:9]) == {(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)} - {(0, 0)}
    # within the first shell, descending lexicographic
    assert got[1:4] == [(1, 1), (1, 0), (1, -1)]


def test_group_enumeration_covers_each_shell_once():
    got = group_enumeration(2, 25)
    assert len(set(got)) == 25
    assert all(max(abs(c) for c in g) <= 2 for g in got)


def error_in_child(call: str) -> str:
    """The ValueError of `call`, run in a child process under a deadline, so
    that a call that never returns fails the test instead of hanging it."""
    code = f"from simact.action import group_enumeration, tower_heights\ntry:\n    {call}\nexcept ValueError as e:\n    print(type(e).__name__, e)\n"
    src = os.path.dirname(os.path.dirname(simact.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30, env=env)
    return proc.stdout.strip()


@pytest.mark.parametrize(
    "call,message",
    [
        ("tower_heights(-1, 64)", "epsilon must be > 0"),
        ("tower_heights(0, 64)", "epsilon must be > 0"),
        ("group_enumeration(0, 2)", "rank must be >= 1"),
        ("group_enumeration(-1, 5)", "rank must be >= 1"),
    ],
)
def test_bad_arguments_are_refused_not_looped_on(call, message):
    assert error_in_child(call) == f"ValueError {message}"


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.fractions(min_value=F(1, 10**6), max_value=F(20), max_denominator=10**6),
        st.integers(1, 2**200).map(lambda k: F(1, k)),
        st.just(F(1, 10**50)),
        st.integers(8, 100).map(F),
    ),
    st.integers(1, 700),
)
def test_tower_heights_start_where_the_fraction_bound_fails(epsilon, min_cycle):
    # the ladder starts at the first h with 4/2^h < epsilon/2, written in Fractions
    h = 1
    while F(4, 2**h) >= epsilon / 2:
        h += 1
    if min_cycle < h:
        with pytest.raises(InfeasibleError):
            tower_heights(epsilon, min_cycle)
        return
    expected = [h << i for i in range(min_cycle.bit_length()) if h << i <= min_cycle]
    expected += [min_cycle] if expected[-1] != min_cycle else []
    assert tower_heights(epsilon, min_cycle) == expected


def test_action_dist_example():
    a = identity_action(1, 2)
    b = LatticeAction(1, (swap_halves(),))
    # gamma = 0 contributes nothing; gamma = +-1 each see coarse distance 3/4
    assert action_dist(a, b, 3, 1) == F(3, 4) / 4 + F(3, 4) / 8
    assert action_dist_tail(3) == F(1, 8)


def test_action_dist_refuses_terms_above_cap():
    a = identity_action(1, 2)
    assert action_dist(a, a, 64, 1) == 0
    with pytest.raises(ValueError, match="terms 65 is above the cap of 64"):
        action_dist(a, a, 65, 1)


def test_action_dist_is_zero_iff_same_up_to_resolution():
    a = identity_action(1, 4)
    b = identity_action(1, 8)
    assert action_dist(a, b, 4, 3) == 0


@settings(max_examples=30)
@given(st.integers(0, 10**6))
def test_action_dist_metric_properties(seed):
    rng = trial_rng(seed, 1)
    x = random_action(rng, d=1, n=8)
    y = random_action(rng, d=1, n=8)
    z = random_action(rng, d=1, n=8)
    dxy = action_dist(x, y, 3, 2)
    assert dxy == action_dist(y, x, 3, 2)
    assert action_dist(x, x, 3, 2) == 0
    assert action_dist(x, z, 3, 2) <= dxy + action_dist(y, z, 3, 2)


def test_conjugate_is_group_action_on_actions():
    rng = trial_rng(7, 0)
    act = random_action(rng, d=1, n=8)
    p1 = aperiodic_permutation(rng, 8, 2)
    p2 = aperiodic_permutation(rng, 8, 2)
    assert conjugate(p1, conjugate(p2, act)) == conjugate(p1.compose(p2), act)
    assert conjugate(identity(8), act) == act


def test_conjugation_preserves_free_defect():
    rng = trial_rng(11, 3)
    act = random_action(rng, d=1, n=12)
    phi = IntervalPermutation(12, tuple(random.Random(5).sample(range(12), 12)))
    assert free_defect(act, 3) == free_defect(conjugate(phi, act), 3)


def test_free_defect_flags_repeated_generator():
    g = rotation(4, 1)
    act = LatticeAction(2, (g, g))
    defects = dict(free_defect(act, 1))
    assert defects[(1, -1)] == 1
    assert defects[(1, 0)] == 0
    assert defects[(1, 1)] == 0


def test_free_defect_of_identity_is_total():
    act = identity_action(1, 4)
    assert all(mass == 1 for _gamma, mass in free_defect(act, 2))


# -- conjugacy search ----------------------------------------------------------


def test_wrp_search_finds_exact_conjugacy_for_full_cycles():
    # two full-cycle permutations are conjugate; the search must find phi exactly
    rng = trial_rng(3, 0)
    t = aperiodic_permutation(rng, 64, 64)
    r = aperiodic_permutation(rng, 64, 64)
    a, b = LatticeAction(1, (t,)), LatticeAction(1, (r,))
    res = wrp_conjugacy_search(a, b, F(1, 16), terms=4, depth=4)
    assert isinstance(res, WrpResult)
    assert res.achieved == 0
    assert action_dist(conjugate(res.phi, a), b, 4, 4) == 0


def test_wrp_search_meets_tolerance_on_aperiodic_pairs():
    rng = trial_rng(9, 2)
    t = aperiodic_permutation(rng, 256, 64)
    r = aperiodic_permutation(rng, 256, 64)
    a, b = LatticeAction(1, (t,)), LatticeAction(1, (r,))
    res = wrp_conjugacy_search(a, b, F(1, 16), terms=4, depth=4)
    assert res.achieved < F(1, 16)
    # the certificate re-verifies
    assert action_dist(conjugate(res.phi, a), b, 4, 4) == res.achieved


def test_wrp_search_rejects_periodic_input():
    a = LatticeAction(1, (rotation(4, 1),))  # all cycles have length 4 < h0
    b = LatticeAction(1, (rotation(4, 3),))
    with pytest.raises(InfeasibleError):
        wrp_conjugacy_search(a, b, F(1, 16), terms=4, depth=4)


def test_wrp_search_rank_restriction():
    act = identity_action(2, 4)
    with pytest.raises(ValueError):
        wrp_conjugacy_search(act, act, F(1, 2), terms=2, depth=2)
