"""The kernels of `simact` against the exact references in `oracles.py`.

Each kernel is compared with one reference over the strategies, examples
and thresholds below, and must agree with it exactly: same values, same
error texts, same tie-breaks.  Some tests also pin a call pattern (which B
the graph test searches exhaustively, how many distances the conjugacy
search sums) or a wall-clock budget at a size the references cannot reach.
"""

import json
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
from make_fixtures import gold
from oracles import (
    CylinderTableOracle,
    action_dist_oracle,
    action_to_sim_oracle,
    adapt_table_oracle,
    average_sims_oracle,
    block_permutation_oracle,
    box_mass_oracle,
    canonical_sets,
    coarse_dist_oracle,
    combine_oracle,
    compose_oracle,
    construction_outcomes,
    convolve_sim_oracle,
    cycles_oracle,
    cylinder_atoms_oracle,
    cylinder_mass_oracle,
    dump_dyadic_oracle,
    dyadic_refine_oracle,
    dyadic_sets,
    element_oracle,
    exact_searches,
    factor_defect_oracle,
    fixed_mass_bound_oracle,
    free_defect_oracle,
    from_indices_oracle,
    graph_test_oracle,
    graph_verdict_oracle,
    graph_witnesses_oracle,
    grid_points,
    identity_oracle,
    into_b_oracle,
    inverse_oracle,
    is_canonical,
    is_graph_joining_oracle,
    is_graph_sim_oracle,
    line_convolve_oracle,
    load_dyadic_oracle,
    load_table_oracle,
    marginalize_to_oracle,
    markov_table_oracle,
    matched_oracle,
    matched_tower_map_oracle,
    measure_parts,
    outcome,
    pair_matrices,
    pair_numerators_oracle,
    passes_public_check,
    permutation_from_cycle_lengths_oracle,
    perms,
    power_oracle,
    preimage_oracle,
    pushforward_oracle,
    random_cycle_lengths_oracle,
    rank1_tables,
    rank2_tables,
    realize_sim_as_action_oracle,
    refine_oracle,
    refine_partition_oracle,
    sim_dist_oracle,
    step_measures,
    subset_sums_oracle,
    tables,
    uniform_on_oracle,
    weak_star_distance_oracle,
    wrp_conjugacy_search_oracle,
)

import simact.intervals as iv
import simact.poly as P
from simact import budget
from simact.action import (
    LatticeAction,
    _dist,
    _matched_tower_map,
    action_dist,
    conjugate,
    free_defect,
    group_enumeration,
    wrp_conjugacy_search,
)
from simact.cli import main
from simact.equivalence import (
    _block_permutation,
    _eval_boxes,
    _itineraries,
    action_to_sim,
    adapt_table,
    continuity_bound_check,
    cylinder_atoms,
    embed_action,
    factor_defect,
    inverse_continuity_check,
    realize_sim_as_action,
)
from simact.measure import _line_convolve, convolve, pushforward, uniform_on, weak_star_distance
from simact.sampling import (
    aperiodic_permutation,
    diagonal_table,
    iid_table,
    markov_table,
    permutation_from_cycle_lengths,
    random_action,
    random_adaptation,
    random_cycle_lengths,
    random_graph_joining,
    random_partition,
    trial_rng,
)
from simact.sim import (
    CylinderTable,
    GraphTest,
    Partition,
    Window,
    _graph_test_matrix,
    _joining,
    _marginal_nums,
    _smear_weight,
    _subset_sums,
    average_sims,
    convolve_sim,
    fixed_mass_report,
    graph_witness_exact,
    greedy_graph_witness,
    is_graph_joining,
    is_graph_sim,
    marginalize_to,
    marginalize_window,
    pair_matrix,
    refine_partition,
    sim_dist,
)
from simact.serialize import dump_dyadic, dump_table, load_dyadic, load_permutation, load_table, read_json_file
from simact.transform import (
    DyadicSet,
    IntervalPermutation,
    coarse_dist,
    identity,
    rohlin_tower,
    rotation,
    tower_columns,
)


# -- permutations ------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(perms(), perms(), st.integers(1, 8))
def test_coarse_dist_matches_oracle(t, r, depth):
    n = lcm(t.n, r.n, 2**depth)
    # the oracle scans n cells for each of 2^(depth+1) - 2 sets
    assume(n << depth <= 1 << 18)
    assert coarse_dist(t, r, depth) == coarse_dist_oracle(t, r, depth)


@st.composite
def near_pairs(draw):
    """A random map t on n = q 2^k cells, q in {1, 3, 5, 7}, and a map r that
    differs from it by 1 to 3 transpositions of images or by one rotated
    cycle of images, with a depth from 1 to 12.  These are the pairs a
    conjugacy search compares, where most cells agree."""
    depth = draw(st.integers(1, 12))
    n = draw(st.sampled_from([1, 3, 5, 7])) << draw(st.integers(0, 12))
    rng = random.Random(draw(st.integers(0, 10**6)))
    t = rng.sample(range(n), n)
    r = list(t)
    if n > 1 and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            i, j = rng.sample(range(n), 2)
            r[i], r[j] = r[j], r[i]
    elif n > 1:
        cells = rng.sample(range(n), rng.randint(2, min(n, 16)))
        for c, d in zip(cells, cells[1:] + cells[:1]):
            r[c] = t[d]
    return IntervalPermutation(n, tuple(t)), IntervalPermutation(n, tuple(r)), depth


@settings(max_examples=100, deadline=None)
@given(near_pairs())
def test_coarse_dist_matches_oracle_on_near_pairs(pair):
    t, r, depth = pair
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


@settings(max_examples=150, deadline=None)
@given(perms(), st.data())
def test_power_matches_oracle(t, data):
    k = data.draw(st.integers(-3 * t.n, 3 * t.n))
    r = t.power(k)
    assert r == power_oracle(t, k)
    assert passes_public_check(r)


@settings(max_examples=150, deadline=None)
@given(perms(), perms())
def test_compose_matches_oracle_at_mixed_resolutions(t, r):
    out = t.compose(r)
    assert out == compose_oracle(t, r)
    assert passes_public_check(out)


@given(perms(), st.integers(1, 5))
def test_inverse_and_refine_match_oracle(t, k):
    for out, oracle in ((t.inverse(), inverse_oracle(t)), (t.refine(k * t.n), refine_oracle(t, k * t.n))):
        assert out == oracle
        assert passes_public_check(out)


@settings(max_examples=150, deadline=None)
@given(perms(), st.integers(1, 3), st.sampled_from([1, 2, 3, 4, 6, 8, 12]), st.integers(0, 10**6))
def test_conjugate_matches_oracle_at_mixed_resolutions(phi, d, n, seed):
    a = random_action(random.Random(seed), d, n)
    out = conjugate(phi, a)
    expected = [compose_oracle(compose_oracle(phi, g), inverse_oracle(phi)) for g in a.generators]
    assert list(out.generators) == expected
    assert all(passes_public_check(g) for g in out.generators)


@given(st.integers(1, 64))
def test_identity_matches_oracle(n):
    assert identity(n) == identity_oracle(n)
    assert passes_public_check(identity(n))


def test_identity_refuses_a_nonpositive_resolution():
    for n in (0, -1):
        with pytest.raises(ValueError, match="resolution must be positive"):
            identity(n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64), st.data())
def test_matched_matches_oracle(n, data):
    # an empty, a partial and a full src; the leftovers pair up in ascending order
    cells, targets = data.draw(st.permutations(range(n))), data.draw(st.permutations(range(n)))
    for k in (0, data.draw(st.integers(0, n)), n):
        src, dst = cells[:k], targets[:k]
        expected = matched_oracle(n, src, dst)
        for out in (IntervalPermutation._matched(n, src, dst), IntervalPermutation._matched(n, src, iter(dst))):
            assert out == expected
            assert passes_public_check(out)


@settings(max_examples=60, deadline=None)
@given(perms(), perms(), st.integers(-20, 20))
def test_cached_cycles_cannot_be_corrupted(t, r, k):
    # also on permutations built by the trusted constructor; the cache holds
    # tuples, so no caller can reorder or extend it
    for u in (t, t.compose(r), r.power(3), t.inverse()):
        expected_cycles, expected_power = cycles_oracle(u), power_oracle(u, k)
        assert type(u._cycles) is tuple and all(type(c) is tuple for c in u._cycles)
        assert list(map(list, u._cycles)) == expected_cycles
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

@settings(max_examples=80, deadline=None)
@given(tables(), st.lists(grid_points, max_size=4))
def test_refine_partition_matches_oracle(t, cuts):
    out = refine_partition(t, cuts)
    assert out == refine_partition_oracle(t, cuts)
    assert is_canonical(out)


@settings(max_examples=60, deadline=None)
@given(tables(), st.sampled_from([Fraction(1, 16), Fraction(1, 5), Fraction(1, 2), Fraction(7, 8)]))
def test_convolve_sim_matches_oracle(t, delta):
    out = convolve_sim(t, delta)
    assert out == convolve_sim_oracle(t, delta)
    assert is_canonical(out)


def wide_table(q: int, cuts, w: int, seed: int) -> CylinderTable:
    """The table on the pieces cut at 0 and cuts/q, at w = 1 or 2 window
    times, with masses 0 to 3 (normalized) drawn from seed; at w = 2 they
    form a symmetric matrix, so the marginals of both times agree."""
    partition = Partition((Fraction(0), *(Fraction(c, q) for c in sorted(cuts))))
    rng, p = random.Random(seed), partition.p
    nums = {(0,) * w: 1}
    for key in product(range(p), repeat=w):
        if key == tuple(sorted(key)):
            nums[key] = nums[key[::-1]] = nums.get(key, 0) + rng.randint(0, 3)
    return CylinderTable(Window(1, w), partition, nums, den=sum(nums.values()))


@st.composite
def wide_tables(draw):
    """`wide_table` on 1 to 24 pieces with uneven cuts: the p - 1 cuts lie
    below a drawn span of the grid, so a small span leaves one long last
    piece, longer than 1 - delta at the smallest spans."""
    p, q = draw(st.integers(1, 24)), draw(st.sampled_from([24, 64, 96]))
    span = draw(st.integers(p, q))
    rng = random.Random(draw(st.integers(0, 10**6)))
    return wide_table(q, rng.sample(range(1, span), p - 1), draw(st.integers(1, 2)), rng.randrange(10**6))


WIDE_DELTAS = [Fraction(1, 64), Fraction(1, 16), Fraction(1, 8), Fraction(1, 2), Fraction(7, 8), Fraction(31, 32)]


@settings(max_examples=50, deadline=None)
@given(wide_tables(), st.sampled_from(WIDE_DELTAS))
@example(wide_table(24, [], 1, 0), Fraction(31, 32))
@example(wide_table(96, [1], 2, 0), Fraction(1, 64))
@example(wide_table(64, [3, 5, 6, 40], 2, 1), Fraction(1, 16))
def test_convolve_sim_matches_oracle_on_wide_partitions(t, delta):
    # each row stops at the first piece its blurred arc misses; the oracle
    # weighs all p pieces of every row
    out = convolve_sim(t, delta)
    assert out == convolve_sim_oracle(t, delta)
    assert is_canonical(out)


def test_convolve_sim_weighs_only_the_band():
    # at 64 equal pieces and delta = 1/16 each blurred cell reaches itself
    # and the next 4 pieces; its own weight comes from the row sum, so 4
    # overlap integrals a row, 256 in all against 64^2 = 4096 for rows over
    # every piece
    t = wide_table(64, range(1, 64), 1, 0)
    with patch("simact.sim._smear_weight", wraps=_smear_weight) as weigh:
        out = convolve_sim(t, Fraction(1, 16))
    assert weigh.call_count == 4 * 64
    assert out == convolve_sim_oracle(t, Fraction(1, 16))


def test_convolve_sim_on_one_piece_weighs_nothing():
    # the one piece is the whole circle: every shift keeps its mass there
    t = wide_table(24, [], 2, 0)
    with patch("simact.sim._smear_weight", wraps=_smear_weight) as weigh:
        out = convolve_sim(t, Fraction(1, 3))
    assert weigh.call_count == 0
    assert out == t


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8),
    st.sampled_from([24, 64, 96]),
    st.integers(0, 10**6),
    st.sampled_from([Fraction(1, 64), Fraction(1, 8), Fraction(1, 3), Fraction(7, 8)]),
)
def test_convolve_sim_weighs_each_band_but_its_own_cell(p, q, seed, delta):
    # at delta = 7/8 a band is full, and wraps, unless its cell and the piece
    # before it together span at most 1/8
    rng = random.Random(seed)
    t = wide_table(q, rng.sample(range(1, q), p - 1), rng.randint(1, 2), seed)
    cuts = t.partition.cuts
    # the blurred cell [lo, hi) covers [lo, hi + delta): its band is every
    # piece that starts on that arc, the cell itself included
    bands = [sum((a - lo) % 1 < hi - lo + delta for a in cuts) for lo, hi in t.partition.pieces()]
    with patch("simact.sim._smear_weight", wraps=_smear_weight) as weigh:
        out = convolve_sim(t, delta)
    assert out == convolve_sim_oracle(t, delta)
    assert all(call.args[0] != call.args[1] for call in weigh.call_args_list)
    assert weigh.call_count == sum(band - 1 for band in bands)


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
        target = None
    elif out_kind == "random":
        target = random_partition(rng, rng.randint(1, 4))
    else:
        # the partition a chained second adaptation would need
        target = Partition(tuple(sorted(set(t.partition.cuts) | {h(c) for c in t.partition.cuts})))
    out = adapt_table(h, t, target)
    assert out == adapt_table_oracle(h, t, target)
    assert is_canonical(out)


@st.composite
def dense_kernel_tables(draw):
    """Tables for the dense window kernel beyond `tables()`: one window time
    (k = 1) with up to 6 pieces, iid tables that leave pieces out (few keys
    among the p^k slots), and 4-piece Markov tables of width 3.  With k >= 2
    and p >= 2, the pass of `_apply_rows` at the last position takes step
    slices (s = 1 < p^(k-1) blocks) and the pass at position 0 contiguous
    ones."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    kind = draw(st.sampled_from(["one time", "sparse", "markov"]))
    if kind == "markov":
        return markov_table(rng, 4, 3)
    if kind == "one time":
        p, w, d = draw(st.integers(1, 6)), 1, draw(st.integers(1, 2))
        weights = [rng.randint(1, 4) for _ in range(p)]
    else:
        p = draw(st.integers(3, 5))
        weights = [0] * p
        for j in rng.sample(range(p), draw(st.integers(1, 2))):
            weights[j] = rng.randint(1, 4)
        w, d = draw(st.sampled_from([(3, 1), (4, 1), (2, 2)]))
    return iid_table(random_partition(rng, p), [Fraction(x, sum(weights)) for x in weights], w, d)


@settings(max_examples=80, deadline=None)
@given(dense_kernel_tables(), st.one_of(dense_kernel_tables(), tables()), st.lists(grid_points, max_size=3))
def test_dense_kernel_matches_the_oracles(t, other, cuts):
    # new cuts and the other table's cuts make q differ from p
    assert outcome(lambda: sim_dist(t, other)) == outcome(lambda: sim_dist_oracle(t, other))
    assert refine_partition(t, cuts) == refine_partition_oracle(t, cuts)
    assert convolve_sim(t, Fraction(1, 5)) == convolve_sim_oracle(t, Fraction(1, 5))
    h = random_adaptation(random.Random(len(cuts)), Fraction(1, 8))
    assert adapt_table(h, t, other.partition) == adapt_table_oracle(h, t, other.partition)


@pytest.mark.parametrize("p", [1, 2, 40])
def test_dense_kernel_sums_a_wide_fan_in(p):
    # at one window time the free digit of `sim_dist` collects all p labels
    t = iid_table(Partition(tuple(Fraction(j, p) for j in range(p))), [Fraction(1, p)] * p, 1)
    u = iid_table(Partition((Fraction(0),)), [Fraction(1)], 1)
    assert sim_dist(t, u) == sim_dist_oracle(t, u)


def test_smooth_rung_memory_stays_flat_on_a_sparse_table():
    # one key, 2^18 patterns: a rung holds a few lists of small ints, where a
    # dict of pattern tuples took 64 MiB
    t = CylinderTable(Window(1, 18), Partition((Fraction(0),)), {(0,) * 18: 1})
    tracemalloc.start()
    try:
        smoothed = convolve_sim(t, Fraction(1, 4))
        assert sim_dist(smoothed, t) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# -- integer-numerator tables ------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(tables(), st.integers(1, 6))
def test_constructor_paths_agree_with_oracle(t, scale):
    assert is_canonical(t)
    assert CylinderTableOracle(t.window, t.partition, t.masses).masses == t.masses
    assert CylinderTable(t.window, t.partition, t.masses) == t
    # numerators over a multiple of den reduce to the same table
    scaled = CylinderTable(t.window, t.partition, {k: scale * n for k, n in t.nums.items()}, den=scale * t.den)
    assert scaled == t and scaled.den == t.den


@settings(max_examples=60, deadline=None)
@given(st.one_of(tables(), dense_kernel_tables()), st.data())
def test_table_readers_match_oracle(t, data):
    elems = t.window.elements()
    subset = data.draw(st.lists(st.sampled_from(elems), max_size=len(elems)))
    assert marginalize_to(t, subset) == marginalize_to_oracle(t, subset)
    d, w = t.window.d, t.window.w
    # every shift up to one step past the box, so also shifts with no time
    # pair (some |b| >= w) and the zero shift, and two of the wrong rank
    for beta in [*product(range(-w - 1, w + 2), repeat=d), (1,) * (d + 1), (1,) * (d - 1)]:
        assert outcome(lambda: fixed_mass_report(t, beta)) == outcome(lambda: fixed_mass_bound_oracle(t, beta))


@settings(max_examples=60, deadline=None)
@given(tables(), st.sampled_from([Fraction(1, 16), Fraction(1, 4)]), st.fractions(0, 1, max_denominator=12))
def test_average_sims_matches_oracle(t, delta, weight):
    other = convolve_sim(t, delta)
    out = average_sims(t, other, weight)
    assert out.masses == average_sims_oracle(t, other, weight).masses
    assert is_canonical(out)


@settings(max_examples=60, deadline=None)
@given(
    tables(),
    st.lists(grid_points, max_size=3),
    st.fractions(0, 1, max_denominator=12).filter(lambda x: 0 < x < 1),
    st.integers(0, 10**6),
    st.data(),
)
def test_kernel_outputs_pass_every_public_check(t, cuts, weight, seed, data):
    # the kernels build their tables without the constructor's checks; each
    # output, rebuilt through the public constructor, must raise nothing and
    # come out equal
    rng = random.Random(seed)
    h = random_adaptation(rng, Fraction(1, 8))
    action = random_action(rng, t.window.d, rng.choice([1, 2, 3, 4, 6, 8]))
    try:
        embedded = embed_action(h, action, t.window, t.partition)
    except budget.BudgetError:
        # the cuts pulled back through h can put the itinerary grid above
        # its cap, which is a refusal, so there is no output to check
        reject()
    blurred = convolve_sim(t, Fraction(1, 8))
    outputs = [
        blurred,
        refine_partition(t, cuts),
        adapt_table(h, t, random_partition(rng, rng.randint(1, 4))),
        marginalize_window(t, data.draw(st.integers(1, t.window.w))),
        *(average_sims(t, blurred, x) for x in (Fraction(0), Fraction(1), weight)),
        action_to_sim(action, t.window, t.partition),
        embedded,
    ]
    for out in outputs:
        assert CylinderTable(out.window, out.partition, out.nums, den=out.den) == out


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
    fraction_path, integer_path, oracle = construction_outcomes(t.window, t.partition, masses)
    assert fraction_path == integer_path == oracle
    assert isinstance(oracle, tuple)


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
    assert construction_outcomes(window, partition, masses) == ((ValueError, f"shift consistency fails along axis {axis}"),) * 3


# -- table reader ------------------------------------------------------------------


def _spellings(m: Fraction) -> list:
    """JSON values for a mass m: spellings parse_rational reads as m, and
    values it refuses or reads as another number."""
    a, b = m.numerator, m.denominator
    arabic = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
    return [
        f"{a}/{b}", f"{3 * a}/{3 * b}", f"0{a}/00{b}", f" {a}/{b}\n", f"+{a}/{b}", f"{a}_0/{b}_0",
        f"{a}/{b}".translate(arabic), f"-{a}/{b}", f"{a} / {b}", f"{a}__0/{b}", f"{a}/{b}.0",
        float(m), str(float(m)), f"{a}e0/{b}", a // b, True, False, None, "1/0", "1/00", "0/0", "-0", "",
        "1" * 4301, f"{a}/{'0' * 4300}{b}", f"{'0' * 4300}{a}/{b}", f"{'9' * 4300}/{'9' * 4299}",
    ]


@settings(max_examples=150, deadline=None)
@given(tables(), st.data())
def test_integer_table_reader_matches_its_reference(t, data):
    # a CLI exit code follows from the exception type, so equal outcomes
    # also mean equal exit codes
    doc = dump_table(t)
    masses = doc["masses"]
    for key in data.draw(st.lists(st.sampled_from(sorted(masses)), max_size=3, unique=True)):
        spellings = _spellings(Fraction(masses[key]))
        masses[key] = data.draw(st.sampled_from(spellings))
        if data.draw(st.booleans()):
            # the same labels under a second key: refused, naming both keys
            alias = ",".join(data.draw(st.sampled_from([f" {x}", f"0{x}", f"{x} "])) for x in key.split(","))
            masses[alias] = data.draw(st.sampled_from(spellings))
    assert outcome(lambda: load_table(doc)) == outcome(lambda: load_table_oracle(doc))


# -- interval-set operations ------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(tables(), st.data())
def test_cylinder_mass_matches_oracle(t, data):
    p, elems, d = t.partition.p, t.window.elements(), t.window.d
    # now and then a time outside the window, of the wrong length or off the
    # lattice
    times = st.sampled_from(elems * 4 + [(t.window.w,) * d, (0,) * (d + 1), (0,) * (d - 1), (Fraction(1, 2),) * d])
    assignment = data.draw(st.dictionaries(times, st.integers(0, p - 1), max_size=len(elems)))
    mass = outcome(lambda: marginalize_to(t, list(assignment)).get(tuple(assignment.values()), 0))
    assert mass == outcome(lambda: cylinder_mass_oracle(t, assignment))
    assert marginalize_to(t, []) == {(): 1}


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


# -- graph test ------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(tables())
def test_every_pair_matrix_is_a_joining_with_the_single_time_marginal(t):
    # shift consistency makes each single-time marginal the same, so every
    # two-time matrix of a table is a joining of it
    elems = t.window.elements()
    for i, alpha in enumerate(elems):
        single = _marginal_nums(t.nums, [i])
        for beta in elems:
            if beta != alpha:
                _nums, den, rows = _joining(pair_matrix(t, alpha, beta))
                assert [r * t.den for r in rows] == [single.get((j,), 0) * den for j in range(t.partition.p)]


@settings(max_examples=150, deadline=None)
@given(pair_matrices(), st.fractions(0, 1, max_denominator=16).filter(bool))
def test_graph_test_matches_oracle(m, epsilon):
    den, witnesses = graph_witnesses_oracle(m)
    worst = graph_verdict_oracle(den, witnesses, epsilon).diameter
    # epsilon on an attained diameter is the boundary of `d >= epsilon`
    for eps in {epsilon, worst} - {0}:
        res = _graph_test_matrix(_joining(m), eps)
        assert res == graph_verdict_oracle(den, witnesses, eps)
        assert isinstance(res.diameter, Fraction)


@settings(max_examples=150, deadline=None)
@given(pair_matrices(), st.integers(0, 255))
def test_graph_test_matches_int_oracle(m, b_pick):
    den, witnesses = graph_witnesses_oracle(m)
    # B's best diameter d is where its verdict turns; all diameters are
    # multiples of 1/den, so d + 1/(2 den) lies strictly between d and the
    # next attainable value
    d = Fraction(witnesses[b_pick % len(witnesses)][1][1], den)
    for eps in {d, d + Fraction(1, 2 * den)} - {0}:
        assert _graph_test_matrix(_joining(m), eps) == graph_verdict_oracle(den, witnesses, eps)


@settings(max_examples=60, deadline=None)
@given(pair_matrices())
def test_graph_test_matches_every_miss_oracle_at_each_greedy_diameter(m):
    # every greedy diameter d is a threshold of `d >= epsilon` and of the
    # bound `d > worst`; d + 1/(2 den) lies strictly between d and the next
    # attainable value
    den, witnesses = graph_witnesses_oracle(m)
    greedy = {Fraction(g[1], den) for g, _best in witnesses} - {0}
    for d in greedy:
        for eps in (d, d + Fraction(1, 2 * den)):
            assert _graph_test_matrix(_joining(m), eps) == graph_verdict_oracle(den, witnesses, eps)


def _witnesses_match(m, masks):
    den, witnesses = graph_witnesses_oracle(m)
    size = len(witnesses)
    for b_mask in masks:
        greedy, best = witnesses[b_mask % size]
        for witness, (a_mask, d) in ((greedy_graph_witness, greedy), (graph_witness_exact, best)):
            out = witness(m, b_mask)
            assert out == (a_mask, Fraction(d, den))
            assert isinstance(out[1], Fraction)


@settings(max_examples=60, deadline=None)
@given(pair_matrices())
def test_graph_witnesses_match_oracle_for_every_b(m):
    _witnesses_match(m, range(1 << len(m)))


@settings(max_examples=40, deadline=None)
@given(pair_matrices(), st.lists(st.integers(-(1 << 10), 1 << 10), min_size=8, max_size=8))
def test_public_witnesses_match_int_oracle(m, masks):
    # masks outside 0..2^p - 1 read only their low p bits
    _witnesses_match(m, masks)


@settings(max_examples=60, deadline=None)
@given(pair_matrices())
def test_into_b_walk_matches_into_b_for_every_b(m):
    # the prelude the graph loop hands the greedy witness, recorded for each
    # B it calls: every B below 2^(p-1), read off the subset sums of the
    # first p-1 columns, and at epsilon = 1, which every matrix passes, each
    # upper B whose complement has a tie, read as row minus complement
    preludes = []

    def recorded(matrix, b_mask, rows=None):
        row_sums, a_sums, into_b, b_total = rows
        preludes.append((b_mask, (row_sums, a_sums, b_total, list(into_b))))
        return greedy_graph_witness(matrix, b_mask, rows=rows)

    with patch("simact.sim.greedy_graph_witness", recorded):
        assert _graph_test_matrix(_joining(m), Fraction(1)).ok
    nums, _den = pair_numerators_oracle(m)
    rows = [sum(r) for r in nums]
    called = [b_mask for b_mask, _prelude in preludes]
    assert called[: 1 << (len(m) - 1)] == list(range(1 << (len(m) - 1)))
    assert preludes == [(b_mask, (rows, subset_sums_oracle(rows), *into_b_oracle(nums, b_mask))) for b_mask in called]


@settings(max_examples=80, deadline=None)
@given(pair_matrices(), st.fractions(0, 1, max_denominator=16).filter(bool), st.booleans())
def test_exact_search_runs_only_where_it_can_raise_the_worst(m, epsilon, on_a_diameter):
    den, witnesses = graph_witnesses_oracle(m)
    greedy = [Fraction(g[1], den) for g, _best in witnesses]
    if on_a_diameter and any(greedy):
        epsilon = max(greedy)
    with exact_searches() as calls, patch("simact.sim.greedy_graph_witness", wraps=greedy_graph_witness) as greedy_calls:
        res = _graph_test_matrix(_joining(m), epsilon)
    assert res == graph_verdict_oracle(den, witnesses, epsilon)
    # replay the loop: a B below 2^(p-1) gets the exact search exactly when
    # its greedy diameter is a miss and above the worst so far, and the
    # search finds the best diameter of B; a B from 2^(p-1) up never does,
    # since its complement has its best diameter.  The loop ends at 2^(p-1)
    # when the worst is a miss by then; otherwise the greedy runs, in
    # ascending order, on just the upper B whose complement has a tie
    exact = dict(calls)
    assert len(exact) == len(calls)
    assert exact == {b_mask: witnesses[b_mask][1][1] for b_mask in exact}
    full = len(greedy) - 1
    half = len(greedy) // 2
    worst = Fraction(0)
    for b_mask, d in enumerate(greedy[:half]):
        assert (b_mask in exact) == (d >= epsilon and d > worst)
        if b_mask in exact:
            worst = max(worst, Fraction(exact[b_mask], den))
        elif d < epsilon:
            worst = max(worst, d)
    assert all(b_mask < half for b_mask in exact)
    upper = []
    if worst < epsilon:
        nums, _den = pair_numerators_oracle(m)
        upper = sorted(full ^ b for b in range(half) if _has_tie(nums, b))
        worst = max([worst] + [greedy[b_mask] for b_mask in upper if greedy[b_mask] < epsilon])
    assert [c.args[1] for c in greedy_calls.call_args_list] == list(range(half)) + upper
    assert worst == res.diameter


def test_exact_search_count_on_a_pruned_mixed_table():
    # p = 7 at lambda = 3/4: most greedy misses lie at or below the worst
    # diameter found so far, and the misses among the upper 64 unions B,
    # the complements of the lower ones, are never searched
    t = load_table(read_json_file(gold("mixed7_table.json")))
    eps = Fraction(1, 8)
    with exact_searches() as calls:
        ok, results = is_graph_sim(t, eps)
    oracles = [graph_witnesses_oracle(pair_matrix(t, a, b)) for a, b, _res in results]
    misses = sum(Fraction(g[1], den) >= eps for den, witnesses in oracles for g, _best in witnesses)
    assert (len(calls), misses) == (50, 244)
    expected = [graph_verdict_oracle(den, witnesses, eps) for den, witnesses in oracles]
    assert not ok and [res for _a, _b, res in results] == expected
    assert [(r.worst_b, r.best_a, r.diameter) for r in expected] == [(15, 46, Fraction(99, 529)), (15, 23, Fraction(99, 529))]


@settings(max_examples=100, deadline=None)
@given(pair_matrices())
def test_a_union_and_its_complement_have_the_same_best_diameter(m):
    # mass(A' x B') = T - a - b + x, so (A', B') has the diameter of (A, B)
    _den, witnesses = graph_witnesses_oracle(m)
    full = len(witnesses) - 1
    assert all(best[1] == witnesses[b_mask ^ full][1][1] for b_mask, (_greedy, best) in enumerate(witnesses))


def _has_tie(nums, b_mask) -> bool:
    """Whether some row of positive mass r sends exactly r/2 into B."""
    _b, into_b = into_b_oracle(nums, b_mask)
    return any(r > 0 and 2 * x == r for r, x in zip(map(sum, nums), into_b))


@settings(max_examples=100, deadline=None)
@given(pair_matrices())
def test_a_union_without_a_tie_has_its_complements_greedy_diameter(m):
    # without a tie the greedy A of B' = full ^ B is the complement of the
    # greedy A of B, but for zero rows, which add to neither a nor x
    nums, _den = pair_numerators_oracle(m)
    _den, witnesses = graph_witnesses_oracle(m)
    full = len(witnesses) - 1
    untied = [b_mask for b_mask in range(full + 1) if not _has_tie(nums, b_mask)]
    assert all(witnesses[b_mask][0][1] == witnesses[full ^ b_mask][0][1] for b_mask in untied)


def test_passing_worst_from_a_tied_greedy_in_the_upper_half():
    # B = {1}: row 1 sends exactly half of itself into B, so the greedy
    # leaves it out and reads 1/5, where B's complement {0} reads 1/10;
    # only the upper half's greedy call finds the printed worst
    m = [[Fraction(7, 10), Fraction(1, 10)], [Fraction(1, 10), Fraction(1, 10)]]
    assert _graph_test_matrix(_joining(m), Fraction(1, 4)) == GraphTest(True, 2, 0, Fraction(1, 5))
    # p = 3, where the lower half's worst is 1/8.  Row 2, of mass 2/8, sends
    # exactly half of itself into B' = {0} and into B' = {0, 1}, so their
    # complements {2} and {1, 2} get greedy calls; each greedy leaves row 2
    # out of A and reads 1/4, and the ascending scan keeps the first, B = {2}
    m = [[Fraction(x, 8) for x in r] for r in ([2, 0, 1], [0, 3, 0], [1, 0, 1])]
    res = _graph_test_matrix(_joining(m), Fraction(5, 16))
    assert res == GraphTest(True, 4, 0, Fraction(1, 4)) == graph_test_oracle(m, Fraction(5, 16))


@st.composite
def graph_test_tables(draw):
    """Tables of one to nine window times, or a diagonal table on 17 pieces,
    far above the work cap at two or more times."""
    if draw(st.booleans()):
        return draw(tables())
    seventeen = Partition(tuple(Fraction(j, 17) for j in range(17)))
    return diagonal_table(seventeen, [Fraction(1, 17)] * 17, draw(st.integers(1, 3)))


@settings(max_examples=100, deadline=None)
@given(graph_test_tables(), st.sampled_from(["1/8", "1/3", "0", "-1/4", "x", Fraction(1, 64), 1]))
def test_graph_test_entries_match_oracle(t, epsilon):
    expected = outcome(lambda: is_graph_sim_oracle(t, epsilon))
    assert outcome(lambda: is_graph_sim(t, epsilon)) == expected
    assert outcome(lambda: is_graph_joining(t, epsilon)) == outcome(lambda: is_graph_joining_oracle(t, epsilon))
    if isinstance(expected[1], list):
        # a verdict, not an error: an attained diameter is the boundary of a pair's verdict
        for eps in {res.diameter for _a, _b, res in expected[1]} - {0}:
            assert is_graph_sim(t, eps) == is_graph_sim_oracle(t, eps)
            assert outcome(lambda: is_graph_joining(t, eps)) == outcome(lambda: is_graph_joining_oracle(t, eps))


@pytest.mark.parametrize("d,w", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)])
def test_graph_tests_build_one_pair_matrix_per_time_difference(monkeypatch, d, w):
    # a shift-consistent table's pair matrix depends only on the time
    # difference, and the reversed difference's is its transpose, so the
    # (2w-1)^d - 1 nonzero differences build half as many pair matrices and
    # run one search each for all w^d(w^d - 1) verdicts
    rng = random.Random(w)
    if d == 1:
        t = markov_table(rng, 4, w)
    else:
        cuts = Partition((Fraction(0), Fraction(1, 3), Fraction(1, 2)))
        t = action_to_sim(random_action(rng, d, 12), Window(d, w), cuts)
    matrices, searches = [], []

    def counted(*args):
        matrices.append(args[1:])
        return pair_matrix(*args)

    def counted_search(*args):
        searches.append(args)
        return _graph_test_matrix(*args)

    monkeypatch.setattr("simact.sim.pair_matrix", counted)
    monkeypatch.setattr("simact.sim._graph_test_matrix", counted_search)
    differences = (2 * w - 1) ** d - 1
    for eps in (Fraction(1, 8), Fraction(1, 2)):
        matrices.clear()
        searches.clear()
        assert is_graph_sim(t, eps) == is_graph_sim_oracle(t, eps)
        assert len(searches) == differences
        assert len({tuple(b - a for a, b in zip(*pair)) for pair in matrices}) == differences // 2 == len(matrices)
        if (d, w) == (1, 2):
            # the joining test reads one pair and never searches its transpose
            matrices.clear()
            searches.clear()
            assert is_graph_joining(t, eps) == is_graph_joining_oracle(t, eps)
            assert matrices == [((0,), (1,))]
            assert len(searches) == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 10**12), max_size=10))
def test_subset_sums_match_low_bit_recurrence(values):
    assert _subset_sums(values) == subset_sums_oracle(values)


# -- bridges between actions and tables ----------------------------------------------


def realizable_markov(seed: int, p: int, w: int) -> CylinderTable | None:
    """`markov_table` on a grid of at most 2^16 cells, which keeps the
    oracle's walk short, or None for the few seeds that draw no table that
    fits it within MAX_DRAWS draws; any other error is raised."""
    try:
        return markov_table(random.Random(seed), p, w, max_resolution=1 << 16)
    except ValueError as err:
        if not str(err).startswith(f"no draw in {budget.MAX_DRAWS} fits max_resolution"):
            raise
        return None


@st.composite
def realizable_tables(draw):
    """Markov tables, and graph joinings mixed with the iid table of their
    marginal (weight 0 is the joining, weight 1 the iid table)."""
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        t = realizable_markov(seed, draw(st.integers(2, 4)), draw(st.integers(1, 4)))
        if t is None:
            reject()
        return t
    p = draw(st.integers(2, 6))
    weight = draw(st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]))
    return mixed_joining(seed, p, weight)


def mixed_joining(seed: int, p: int, weight: Fraction) -> CylinderTable:
    """A graph joining on p pieces mixed with the iid table of its marginal."""
    joining = random_graph_joining(random.Random(seed), p)
    single = marginalize_to(joining, [(0,)])
    iid = iid_table(joining.partition, [single[(j,)] for j in range(p)], 2)
    return average_sims(joining, iid, weight)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 3),
    st.sampled_from([1, 2, 3, 4, 6, 8, 12]),
    st.integers(1, 3),
    st.integers(2, 8),
    st.booleans(),
)
# rank 1 at w = 6 (the benchmark's (2, 6) tables), ranks 2 and 3 at w = 3:
# windows whose maps are stepped from a neighbour along every axis
@example(0, 1, 6, 6, 3, False)
@example(1, 2, 4, 3, 3, False)
@example(2, 3, 6, 3, 4, False)
def test_action_to_sim_matches_oracle(seed, d, n, w, q, mismatch):
    # ranks 1 to 3, and cut denominators q that do and do not divide n
    rng = random.Random(seed)
    action = random_action(rng, d, n)
    partition = Partition(tuple(Fraction(c, q) for c in [0, *sorted(rng.sample(range(1, q), rng.randint(0, q - 1)))]))
    window = Window(d % 3 + 1 if mismatch else d, w)
    assert outcome(lambda: action_to_sim(action, window, partition)) == outcome(
        lambda: action_to_sim_oracle(action, window, partition)
    )


@pytest.mark.parametrize("d, w", [(1, 1), (1, 6), (2, 3), (2, 4), (3, 3)])
def test_itineraries_evaluate_only_times_in_the_unit_cube(d, w):
    # every other window time is its neighbour one shell down, composed once
    # with a unit-cube time (at (2, 4), a neighbour such as (2, 2) of (3, 3)
    # is itself composite); evaluate builds its elements here without a compose
    rng = random.Random(d * 10 + w)
    action = random_action(rng, d, 6)
    label = [rng.randrange(3) for _ in range(4)]
    compose = IntervalPermutation.compose
    with patch.object(LatticeAction, "evaluate", autospec=True, side_effect=element_oracle) as evaluated, patch.object(
        IntervalPermutation, "compose", autospec=True, side_effect=compose
    ) as composed:
        n, keys = _itineraries(action, Window(d, w), label)
    unit_cube = [gamma for gamma in Window(d, w).elements() if max(gamma) <= 1]
    assert [c.args[1] for c in evaluated.call_args_list] == unit_cube
    assert composed.call_count == w**d - len(unit_cube)
    span = n // len(label)
    maps = [refine_oracle(element_oracle(action, gamma), n) for gamma in Window(d, w).elements()]
    assert keys == [tuple(label[t.perm[i] // span] for t in maps) for i in range(n)]


box_ends = st.sampled_from([Fraction(0), Fraction(1)]) | grid_points


@settings(max_examples=150, deadline=None)
@given(tables(), st.data())
def test_eval_boxes_matches_oracle(t, data):
    # empty boxes (lo == hi), full boxes (0, 1) and boxes on and off the cuts
    k = t.window.size()
    boxes = [tuple(sorted(data.draw(st.tuples(box_ends, box_ends)))) for _ in range(k)]
    assert _eval_boxes(t, boxes) == box_mass_oracle(t, boxes)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([4, 6, 8]), st.integers(1, 3), st.sampled_from([Fraction(1, 16), Fraction(1, 4)]))
def test_continuity_bound_matches_box_oracle(seed, n, w, delta):
    rng = random.Random(seed)
    h = random_adaptation(rng, delta)
    t = action_to_sim(random_action(rng, 1, n), Window(1, w), Partition(tuple(Fraction(j, n) for j in range(n))))
    assignment = rng.choice(sorted(t.nums))
    boxes = [h.preimage_interval(*t.partition.piece(j)) for j in assignment]
    lhs, mid, rhs = continuity_bound_check(h, t, assignment)
    assert lhs == abs(box_mass_oracle(t, boxes) - t.masses[assignment])
    assert mid == sum(iv.length(iv.symdiff(iv.interval(*box), iv.interval(*t.partition.piece(j)))) for box, j in zip(boxes, assignment))
    assert rhs == 2 * w * h.sup_dist_to_identity()


@settings(max_examples=80, deadline=None)
@given(realizable_tables())
# w = 6, where the in-runs' order by the last w-1 labels differs from the
# order by the first w-1 or by the reversed key; a pure graph joining, where
# most keys have no mass; and w = 1, where the map is the identity
@example(realizable_markov(0, 2, 6))
@example(mixed_joining(0, 4, Fraction(0)))
@example(markov_table(random.Random(0), 3, 1))
def test_realize_matches_oracle(t):
    assert realize_sim_as_action(t) == realize_sim_as_action_oracle(t)


def test_realizable_markov_skips_a_seed_that_fits_no_draw():
    # none of the MAX_DRAWS 4 x 4 Markov draws of seed 10378 fits the grid
    assert realizable_markov(10378, 4, 4) is None
    assert realizable_markov(10378, 3, 3) == markov_table(random.Random(10378), 3, 3, max_resolution=1 << 16)


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
    st.integers(1, 3),
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


@settings(max_examples=200, deadline=None)
@given(dyadic_sets())
def test_dyadic_mask_round_trips_match_oracle(s):
    obj = dump_dyadic(s)
    assert obj == dump_dyadic_oracle(s)
    assert load_dyadic(obj) == load_dyadic_oracle(obj) == s
    assert DyadicSet.from_mask(s.mask()) == s


@settings(max_examples=300, deadline=None)
@given(st.integers(-1, 4), st.text(alphabet="01x", max_size=20))
def test_load_dyadic_raises_the_oracle_error(level, mask):
    obj = {"level": level, "mask": mask}
    assert outcome(lambda: load_dyadic(obj)) == outcome(lambda: load_dyadic_oracle(obj))


@settings(max_examples=300, deadline=None)
@given(st.integers(-1, 6), st.data())
def test_from_indices_matches_oracle(level, data):
    cells = 1 << max(level, 0)
    indices = data.draw(st.lists(st.integers(-2, cells + 1), max_size=2 * cells + 2))
    new = outcome(lambda: DyadicSet.from_indices(level, indices))
    old = outcome(lambda: from_indices_oracle(level, indices))
    if min(indices, default=0) < 0:
        # the oracle's shift refuses a negative index with its own text
        assert isinstance(new, tuple) and isinstance(old, tuple)
    else:
        assert new == old


def test_from_indices_refuses_a_negative_index_instead_of_wrapping():
    with pytest.raises(ValueError, match="bitmask out of range for level"):
        DyadicSet.from_indices(2, [0, -1])
    assert DyadicSet.from_indices(2, iter([3, 0, 3])) == DyadicSet(2, 0b1001)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2), st.integers(0, 6), st.integers(0, 6), dyadic_sets(max_level=6), st.integers(0, 10**6), st.data())
def test_inverse_continuity_matches_preimage_oracle(d, ka, kb, s, seed, data):
    # dyadic resolutions, where the oracle's preimage sets are defined
    rng = random.Random(seed)
    a, b = random_action(rng, d, 1 << ka), random_action(rng, d, 1 << kb)
    gamma = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)))
    epsilon = data.draw(st.fractions(0, 1, max_denominator=16).filter(bool))
    ja, jb = (preimage_oracle(element_oracle(act, gamma), s) for act in (a, b))
    level = max(ja.level, jb.level)
    ja, jb = dyadic_refine_oracle(ja, level), dyadic_refine_oracle(jb, level)
    rep = inverse_continuity_check(a, b, gamma, s, epsilon)
    assert rep.mass_a == Fraction(ja.bits.bit_count(), 1 << level) == s.mass()
    assert rep.mass_b == Fraction((ja.bits & jb.bits).bit_count(), 1 << level)
    assert rep.symdiff_mass == Fraction((ja.bits ^ jb.bits).bit_count(), 1 << level)
    assert rep.gap_below == (rep.mass_a - rep.mass_b < epsilon)
    assert rep.conclusion_below == (rep.symdiff_mass < 2 * epsilon)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.integers(1, 8), st.integers(0, 10**6))
def test_matched_tower_map_matches_oracle(n, height, seed):
    rng = random.Random(seed)
    t, r = (IntervalPermutation(n, tuple(rng.sample(range(n), n))) for _ in range(2))
    assert outcome(lambda: _matched_tower_map(t, r, height)) == outcome(lambda: matched_tower_map_oracle(t, r, height))


@pytest.mark.parametrize("n", [128, 512])
@pytest.mark.parametrize("height", [8, 16, 32])
@pytest.mark.parametrize("trial", [0, 1])
def test_matched_tower_map_matches_oracle_where_the_columns_cover_the_grid(n, height, trial):
    # the maps of wrp-demo: every cycle is a multiple of 32 long, so whole
    # columns of each height cover both grids and no cell is left over
    rng = trial_rng(0, trial)
    t, r = aperiodic_permutation(rng, n, 32), aperiodic_permutation(rng, n, 32)
    assert len(tower_columns(t, height)) * height == len(tower_columns(r, height)) * height == n
    assert _matched_tower_map(t, r, height) == matched_tower_map_oracle(t, r, height)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 8), st.integers(2, 6), st.data(), st.booleans())
def test_matched_tower_map_matches_oracle_with_more_columns_on_one_side(height, m, data, t_has_more):
    # one map is a single n-cycle of m whole columns; the other splits off a
    # cycle shorter than the height, so it has m - 1 columns and leftovers
    n = height * m
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    short = data.draw(st.integers(1, height - 1))
    full = permutation_from_cycle_lengths(rng, n, [n])
    split = permutation_from_cycle_lengths(rng, n, [n - short, short])
    t, r = (full, split) if t_has_more else (split, full)
    cols_t, cols_r = len(tower_columns(t, height)), len(tower_columns(r, height))
    assert (cols_t > cols_r) == t_has_more and abs(cols_t - cols_r) == 1
    assert _matched_tower_map(t, r, height) == matched_tower_map_oracle(t, r, height)


@settings(max_examples=150, deadline=None)
@given(perms(), st.integers(-1, 9))
def test_tower_columns_are_the_whole_column_slices_of_the_cycles(t, height):
    if height < 1:
        with pytest.raises(ValueError, match="^height must be >= 1$"):
            tower_columns(t, height)
        return
    cols = tower_columns(t, height)
    assert cols == sorted(
        tuple(cycle[pos : pos + height]) for cycle in cycles_oracle(t) for pos in range(0, len(cycle) - height + 1, height)
    )
    assert all(t.perm[a] == b for col in cols for a, b in zip(col, col[1:]))


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
# an infeasible ladder is refused before the distance's charge refuses terms=0
@example((LatticeAction(1, (identity(1),)), LatticeAction(1, (identity(1),))), Fraction(1), 0, 0)
def test_wrp_search_matches_oracle(pair, epsilon, terms, depth):
    a, b = pair
    expected = outcome(lambda: wrp_conjugacy_search_oracle(a, b, epsilon, terms, depth))
    assert outcome(lambda: wrp_conjugacy_search(a, b, epsilon, terms, depth)) == expected


def bounded_dist(a: LatticeAction, b: LatticeAction, terms: int, depth: int, bound: Fraction) -> Fraction:
    """The action distance summed by `_dist` up to the bound, as the search sums it."""
    gammas = group_enumeration(a.d, terms)
    return _dist(a.elements(gammas), b.elements(gammas), depth, bound)


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
        cut = bounded_dist(a, b, terms, depth, x)
        if full <= x:
            assert cut == full
        else:
            assert x < cut <= full


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3),
    st.sampled_from([1, 2, 3, 4, 6, 8]),
    st.sampled_from([1, 2, 3, 4, 6, 8]),
    st.integers(0, 10**6),
    st.integers(1, 64),
    st.integers(1, 4),
    st.fractions(0, 1, max_denominator=64),
    st.integers(1, 2),
)
def test_action_dist_and_free_defect_match_oracle(d, n_a, n_b, seed, terms, depth, bound, k_max):
    # up to 64 terms reach shell 2 at rank 3 and shell 32 at rank 1, so
    # the maps built from a neighbour are checked at every rank
    rng = random.Random(seed)
    a, b = random_action(rng, d, n_a), random_action(rng, d, n_b)
    assert action_dist(a, b, terms, depth) == action_dist_oracle(a, b, terms, depth)
    assert bounded_dist(a, b, terms, depth, bound) == action_dist_oracle(a, b, terms, depth, bound=bound)
    assert free_defect(a, k_max) == free_defect_oracle(a, k_max)


def test_wrp_search_stops_summing_heights_that_cannot_win():
    # the wrp workload's sizes; the tallest of the three heights (8, 16, 32) wins
    rng = random.Random(0)
    t, r = (aperiodic_permutation(rng, 512, 32) for _ in range(2))
    a, b = LatticeAction(1, (t,)), LatticeAction(1, (r,))
    terms, depth = 6, 6
    with patch("simact.action.coarse_dist", wraps=coarse_dist) as calls, patch.object(
        LatticeAction, "elements", autospec=True, side_effect=LatticeAction.elements
    ) as built, patch("simact.action.conjugate", wraps=conjugate) as conjugated, patch(
        "simact.action.action_dist", wraps=action_dist
    ) as distances:
        res = wrp_conjugacy_search(a, b, Fraction(1, 16), terms, depth)
    assert res == wrp_conjugacy_search_oracle(a, b, Fraction(1, 16), terms, depth)
    assert res.height == 32
    assert calls.call_count < 3 * terms
    # the target's elements are built once and shared by the three heights,
    # whose conjugated actions are built and summed without `action_dist`
    assert conjugated.call_count == 3 and distances.call_count == 0
    assert [c.args[0] == b for c in built.call_args_list].count(True) == 1
    assert built.call_count == 4


def test_wrp_search_evaluates_only_shells_0_and_1():
    # the pair above: every later lattice element is built from a neighbour,
    # and the conjugated generators take their powers 1 and -1 without cycles
    rng = random.Random(0)
    t, r = (aperiodic_permutation(rng, 512, 32) for _ in range(2))
    a, b = LatticeAction(1, (t,)), LatticeAction(1, (r,))
    conjugated = []

    def record(phi, act):
        conjugated.append(conjugate(phi, act))
        return conjugated[-1]

    evaluate = LatticeAction.evaluate
    with patch("simact.action.conjugate", side_effect=record), patch.object(
        LatticeAction, "evaluate", autospec=True, side_effect=evaluate
    ) as calls:
        wrp_conjugacy_search(a, b, Fraction(1, 16), 6, 6)
    assert calls.call_count > 0 and len(conjugated) == 3
    assert {gamma for _act, gamma in (c.args for c in calls.call_args_list)} <= {(0,), (1,), (-1,)}
    assert not any("_cycles" in vars(g) for act in conjugated for g in act.generators)


def test_action_dist_memory_does_not_grow_with_the_terms():
    # a memo of every lattice element raised the memory of `dist` at the
    # work cap from 54 to 677 MiB; the neighbour build holds three shells
    rng = random.Random(0)
    a, b = random_action(rng, 1, 2**12), random_action(rng, 1, 2**12)
    peaks = []
    for terms in (8, 64):
        tracemalloc.start()
        try:
            action_dist(a, b, terms, 6)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.data())
def test_permutation_from_cycle_lengths_matches_oracle(n, data):
    lengths = random_cycle_lengths_oracle(random.Random(data.draw(st.integers(0, 10**6))), n)
    seed = data.draw(st.integers(0, 10**6))
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    out = permutation_from_cycle_lengths(rng, n, lengths)
    assert out == permutation_from_cycle_lengths_oracle(oracle_rng, n, lengths)
    assert rng.getstate() == oracle_rng.getstate()
    assert passes_public_check(out)
    assert sorted(map(len, cycles_oracle(out))) == sorted(lengths)


@pytest.mark.parametrize("lengths", [[-1, 7], [0, 6], [7]])
def test_permutation_from_cycle_lengths_refuses_as_the_oracle(lengths):
    # a nonpositive length is refused, not an IndexError or a silent cycle
    new = outcome(lambda: permutation_from_cycle_lengths(random.Random(0), 6, lengths))
    assert new == outcome(lambda: permutation_from_cycle_lengths_oracle(random.Random(0), 6, lengths))
    assert new[0] is ValueError


@pytest.mark.parametrize("unit", [-2, 0, *range(1, 33)])
def test_random_cycle_lengths_draws_as_the_oracle(unit):
    for seed in range(20):
        n = unit * (1 + seed % 7)
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        new = outcome(lambda: random_cycle_lengths(rng, n, unit))
        assert new == outcome(lambda: random_cycle_lengths_oracle(oracle_rng, n, unit, unit))
        assert rng.getstate() == oracle_rng.getstate()
    for n in (-unit, 0, unit - 1, unit + 1):
        new = outcome(lambda: random_cycle_lengths(random.Random(0), n, unit))
        assert new == outcome(lambda: random_cycle_lengths_oracle(random.Random(0), n, unit, unit))


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


@settings(max_examples=150, deadline=None)
@given(step_measures(atoms=False), step_measures(atoms=True), st.booleans(), st.integers(1, 6))
def test_weak_star_distance_matches_oracle(plain, atomic, both_atomic, depth):
    mu = atomic if both_atomic else plain
    for a, b in ((mu, atomic), (plain, mu), (plain, plain)):
        assert weak_star_distance(a, b, depth) == weak_star_distance_oracle(a, b, depth)


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
    assert measure_parts(pushforward(h, mu)) == measure_parts(pushforward_oracle(h, mu))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 24), st.integers(0, 10**6), st.integers(1, 24), st.integers(1, 24))
@example(q=3, k=4, r=1, j=1)  # the whole circle
def test_uniform_on_matches_oracle(q, k, r, j):
    lo = Fraction(k % (5 * q), q) - 2  # in [-2, 3)
    length = Fraction(min(j, r), r)  # in (0, 1]
    assert measure_parts(uniform_on(lo, length)) == measure_parts(uniform_on_oracle(lo, length))


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
