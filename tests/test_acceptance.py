"""Acceptance gate: the end-to-end exact-arithmetic properties the package
promises, each checked at scale on seeded random instances.

Every assertion in this file is an exact Fraction comparison; there are no
numeric tolerances anywhere.  The only inexact quantities are wall-clock
budgets on the few checks that carry one.
"""

import json
import os
import time
from fractions import Fraction
from math import lcm

from make_fixtures import gold
from oracles import factor_defect_unions_oracle

from simact import serialize as ser
from simact.action import (
    LatticeAction,
    action_dist,
    conjugate,
    wrp_conjugacy_search,
)
from simact.cli import main as cli_main
from simact.equivalence import (
    action_to_sim,
    adapt_table,
    continuity_bound_check,
    cylinder_atoms,
    embed_action,
    factor_defect,
    realize_sim_as_action,
    recover_action,
)
from simact.measure import (
    Adaptation,
    StepMeasure,
    convolve,
    lebesgue,
    pushforward,
    quantile_adaptation,
    uniform_on,
    weak_star_distance,
)
from simact.sampling import (
    aperiodic_permutation,
    diagonal_table,
    iid_table,
    markov_table,
    random_action,
    random_adaptation,
    random_good_measure,
    random_graph_joining,
    random_permutation,
    trial_rng,
)
from simact.sim import (
    Partition,
    Window,
    average_sims,
    convolve_sim,
    fixed_mass_bound,
    graph_witness_exact,
    greedy_graph_witness,
    is_graph_joining,
    marginal,
    marginalize_to,
    pair_matrix,
    sim_dist,
)
from simact.transform import DyadicSet, coarse_dist, compose, halmos_dist, identity

F = Fraction


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def grid_partition(n: int) -> Partition:
    return Partition(tuple(F(i, n) for i in range(n)))


def check_metric_axioms(dist, x, y, z):
    assert dist(x, x) == 0
    d_xy = dist(x, y)
    assert d_xy >= 0
    assert d_xy == dist(y, x)
    assert dist(x, z) <= d_xy + dist(y, z)


def label_masses(t) -> list[Fraction]:
    m = marginalize_to(t, [(0,)])
    return [m.get((i,), F(0)) for i in range(t.partition.p)]


def with_atom(rng, mu: StepMeasure) -> StepMeasure:
    """Move a random slice of mass into a point atom, keeping total 1."""
    q = F(rng.randrange(1, 4), 8)
    dens = tuple(tuple(c * (1 - q) for c in d) for d in mu.densities)
    x = F(rng.randrange(0, 8), 8)
    return StepMeasure(mu.breakpoints, dens, ((x, q),))


def test_metric_axiom_suite():
    start = time.monotonic()

    # interval permutations: itinerary distance and disagreement mass
    for trial in range(200):
        r = trial_rng(101, trial)
        n = r.choice((4, 8, 16, 32, 64, 128, 256))
        depth = r.choice((2, 3, 4))
        t, u, v = (random_permutation(r, n) for _ in range(3))
        check_metric_axioms(lambda a, b: coarse_dist(a, b, depth), t, u, v)
        check_metric_axioms(halmos_dist, t, u, v)

    # lattice actions
    for trial in range(200):
        r = trial_rng(103, trial)
        d = 1 if trial % 3 else 2
        n = r.choice((4, 8, 16, 32))
        a, b, c = (random_action(r, d, n) for _ in range(3))
        check_metric_axioms(lambda x, y: action_dist(x, y, 3, 2), a, b, c)

    # cylinder tables; the metric space is tables over one shared window and
    # partition, so each triple varies the measure but not the labels
    for trial in range(200):
        r = trial_rng(105, trial)
        p = r.choice((2, 3, 4))
        w = r.choice((2, 3))
        base = markov_table(r, p, w, max_resolution=5000)
        lm = label_masses(base)
        mix_a = F(r.randrange(1, 8), 8)
        mix_b = F(r.randrange(1, 8), 8)
        b = average_sims(base, iid_table(base.partition, lm, w), mix_a)
        c = average_sims(diagonal_table(base.partition, lm, w),
                         convolve_sim(base, F(1, 16)), mix_b)
        check_metric_axioms(sim_dist, base, b, c)

    # step measures, half of them with a point atom spliced in
    for trial in range(200):
        r = trial_rng(107, trial)
        depth = r.choice((3, 4, 5))
        mus = []
        for _ in range(3):
            mu = random_good_measure(r)
            if r.random() < (1 / 2):
                mu = with_atom(r, mu)
            mus.append(mu)
        check_metric_axioms(lambda x, y: weak_star_distance(x, y, depth), *mus)

    assert time.monotonic() - start < 30.0


def test_quantile_roundtrip_hits_target_exactly():
    m = lebesgue()
    for trial in range(100):
        nu = random_good_measure(trial_rng(102, trial))
        h = quantile_adaptation(nu)
        assert pushforward(h, m) == nu


def test_action_table_roundtrip_recovers_action():
    # read an action into a table on its own grid, then rebuild it
    for trial in range(100):
        r = trial_rng(203, trial)
        d = 1 if trial % 3 else 2
        n = r.choice((4, 8, 16, 32, 64))
        w = r.choice((2, 3))
        a = random_action(r, d, n)
        t = action_to_sim(a, Window(d, w), grid_partition(a.n))
        got, witness = recover_action(t, F(0))
        assert got.d == a.d and got.n == a.n
        assert [g.perm for g in got.generators] == [g.perm for g in a.generators]
        assert all(pw.defect == 0 for pw in witness.pairs)


def coarse_jitter_adaptation(rng) -> Adaptation:
    # knots on the 1/8 grid, jitter in 1/64 steps: pulled-back cuts keep
    # denominators small enough that the factored path stays cheap
    knots = [(F(0), F(0))]
    for i in range(1, 8):
        j = rng.choice((-2, -1, 0, 1, 2))
        knots.append((F(i, 8), F(i, 8) + F(j, 64)))
    return Adaptation(tuple(knots))


def test_embedding_factors_through_adaptation():
    cut_pool = (F(1, 2), F(1, 4), F(3, 4), F(1, 3), F(2, 3), F(5, 8))
    for trial in range(50):
        r = trial_rng(204, trial)
        h = coarse_jitter_adaptation(r)
        a = random_action(r, 1, r.choice((4, 8)))
        w = Window(1, r.choice((2, 3)))
        cuts = (F(0),) + tuple(sorted(r.sample(cut_pool, r.choice((1, 2)))))
        target = Partition(cuts)
        pulled = Partition(tuple(h.inverse_value(c) for c in target.cuts))
        direct = embed_action(h, a, w, target)
        routed = adapt_table(h, action_to_sim(a, w, pulled), partition_out=target)
        assert direct == routed


def test_continuity_bound_holds():
    deltas = tuple(F(1, 2**k) for k in range(4, 11))
    for trial in range(1000):
        r = trial_rng(205, trial)
        delta = deltas[trial % len(deltas)]
        h = random_adaptation(r, delta)
        n = r.choice((4, 8, 16))
        w = r.choice((2, 3))
        a = random_action(r, 1, n)
        t = action_to_sim(a, Window(1, w), grid_partition(n))
        assignment = r.choice(sorted(t.masses))
        lhs, mid, rhs = continuity_bound_check(h, t, assignment)
        k = t.window.size()
        assert lhs <= mid <= rhs
        assert mid <= 2 * k * delta


def test_realization_reproduces_window_masses():
    start = time.monotonic()

    def roundtrip(t):
        act, part = realize_sim_as_action(t)
        assert action_to_sim(act, t.window, part).masses == t.masses

    halves = Partition((F(0), F(1, 2)))
    thirds = Partition((F(0), F(1, 3), F(2, 3)))
    for w in (2, 3):
        roundtrip(iid_table(halves, (F(1, 2), F(1, 2)), w))
        roundtrip(diagonal_table(halves, (F(1, 2), F(1, 2)), w))
        roundtrip(iid_table(thirds, (F(1, 6), F(1, 3), F(1, 2)), w))
        roundtrip(diagonal_table(thirds, (F(1, 4), F(1, 4), F(1, 2)), w))

    for trial in range(50):
        r = trial_rng(206, trial)
        p = 2 + trial % 2
        w = 2 + (trial // 2) % 2
        roundtrip(markov_table(r, p, w, max_resolution=20000))

    assert time.monotonic() - start < 60.0


def test_graph_witness_matches_enumeration():
    # on an exact graph joining the greedy pick and the enumerated optimum
    # must coincide for every target side, both at diameter 0
    for trial in range(200):
        r = trial_rng(207, trial)
        p = 2 + trial % 7
        t = random_graph_joining(r, p)
        mat = pair_matrix(t, (0,), (1,))
        for mask in range(1 << p):
            greedy = greedy_graph_witness(mat, mask)
            exact = graph_witness_exact(mat, mask)
            assert greedy[1] == exact[1] == 0

    # independent product of two equal pieces: every proper side is off by
    # exactly 1/4, and no tolerance below that can pass
    halves = Partition((F(0), F(1, 2)))
    iid = iid_table(halves, (F(1, 2), F(1, 2)), 2)
    mat = pair_matrix(iid, (0,), (1,))
    assert graph_witness_exact(mat, 0b01)[1] == F(1, 4)
    assert graph_witness_exact(mat, 0b10)[1] == F(1, 4)
    verdict = is_graph_joining(iid, F(1, 8))
    assert not verdict.ok and verdict.diameter == F(1, 4)
    assert is_graph_joining(iid, F(1, 3)).ok


def test_smoothing_bounds_and_marginals():
    deltas = (F(1, 8), F(1, 16), F(1, 32))
    for trial in range(200):
        r = trial_rng(208, trial)
        p = r.choice((2, 3))
        w = r.choice((2, 3))
        t = markov_table(r, p, w, max_resolution=5000)
        delta = deltas[trial % len(deltas)]
        blurred = convolve_sim(t, delta)
        dens = marginal(t).max_density()
        assert sim_dist(blurred, t) <= 2 * t.window.size() * delta * dens
        target = convolve(uniform_on(0, delta), marginal(t))
        blurred_marginal = marginal(blurred)
        for j in range(t.partition.p):
            lo, hi = t.partition.piece(j)
            assert blurred_marginal.mass(lo, hi) == target.mass(lo, hi)

    # blur can only break label agreement on diagonal-heavy tables: the
    # fixed-mass bound must fall monotonically along the delta ladder
    halves = Partition((F(0), F(1, 2)))
    quarters = Partition((F(0), F(1, 4), F(1, 2), F(3, 4)))
    diag2 = diagonal_table(halves, (F(1, 2), F(1, 2)), 2)
    fixtures = (
        diag2,
        diagonal_table(halves, (F(1, 2), F(1, 2)), 3),
        average_sims(diag2, iid_table(halves, (F(1, 2), F(1, 2)), 2), F(1, 4)),
        diagonal_table(quarters, (F(1, 4),) * 4, 2),
    )
    ladder = (F(0), F(1, 32), F(1, 16), F(1, 8), F(1, 4))
    for t in fixtures:
        vals = [fixed_mass_bound(convolve_sim(t, d), (1,)) for d in ladder]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_conjugacy_search_hits_tolerance_fast():
    epsilon = F(1, 16)
    for trial in range(20):
        r = trial_rng(209, trial)
        a = LatticeAction(1, (aperiodic_permutation(r, 1024, 64),))
        b = LatticeAction(1, (aperiodic_permutation(r, 1024, 64),))
        t0 = time.monotonic()
        res = wrp_conjugacy_search(a, b, epsilon, terms=6, depth=6)
        assert time.monotonic() - t0 < 5.0
        assert res.achieved < epsilon
        # re-verify the certificate from scratch
        assert action_dist(conjugate(res.phi, a), b, 6, 6) == res.achieved


def test_halmos_distance_is_conjugacy_invariant():
    for trial in range(500):
        r = trial_rng(210, trial)
        n = r.choice((4, 8, 16, 32, 64))
        t = random_permutation(r, n)
        phi = random_permutation(r, n if trial % 3 else 2 * n)
        m = lcm(t.n, phi.n)
        p = phi.refine(m)
        conj = compose(compose(p, t.refine(m)), p.inverse())
        assert halmos_dist(identity(m), conj) == halmos_dist(identity(t.n), t)


def test_factor_defect_matches_union_enumeration():
    for trial in range(100):
        r = trial_rng(211, trial)
        n = r.choice((4, 8, 16))
        act = random_action(r, 1, n)
        w = Window(1, r.choice((2, 3)))
        piece = DyadicSet(2, r.randrange(1, 15))
        target = DyadicSet(3, r.randrange(1, 255))
        n1, labels = cylinder_atoms(act, piece, w)
        assert len(set(labels)) <= 12
        assert factor_defect(act, piece, target, w) == factor_defect_unions_oracle(n1, labels, target)


def run_cli(argv, out_path: str) -> bytes:
    code = cli_main(list(argv) + ["--out", out_path])
    assert code == 0, f"cli failed ({code}): {argv}"
    return read_bytes(out_path)


def test_cli_runs_are_byte_deterministic(tmp_path):
    piece_path = os.path.join(tmp_path, "piece.json")
    target_path = os.path.join(tmp_path, "target.json")
    with open(piece_path, "w", encoding="utf-8") as fh:
        json.dump(ser.dump_dyadic(DyadicSet(1, 0b01)), fh)
    with open(target_path, "w", encoding="utf-8") as fh:
        json.dump(ser.dump_dyadic(DyadicSet(2, 0b0110)), fh)

    runs = {
        "dist": ["dist", gold("id4_action.json"), gold("swap_action.json"),
                 "--terms", "4", "--depth", "3"],
        "embed": ["embed", gold("quarter_shift.json"), gold("rot3_action.json"),
                  "--w", "2", "--cuts", "0,1/2"],
        "recover": ["recover", gold("diag_halves_table.json"), "--epsilon", "0"],
        "realize": ["realize", gold("markov_table.json")],
        "smooth": ["smooth", gold("diag_halves_table.json"),
                   "--delta", "1/4", "--steps", "3"],
        "wrp-demo": ["wrp-demo", "--seed", "7", "--trials", "2",
                     "--n", "128", "--min-cycle", "16"],
        "graph-test": ["graph-test", gold("diag_halves_table.json"),
                       "--epsilon", "1/8"],
        "factor-defect": ["factor-defect", gold("rot3_action.json"),
                          "--piece", piece_path, "--target", target_path, "--w", "2"],
    }
    for name, argv in runs.items():
        first = run_cli(argv, os.path.join(tmp_path, f"{name}.1"))
        second = run_cli(argv, os.path.join(tmp_path, f"{name}.2"))
        assert first == second, f"{name} output changed between identical runs"

    golden_pairs = (
        ("dist", "expected_dist.csv"),
        ("embed", "expected_embed.json"),
        ("realize", "expected_realize.json"),
        ("smooth", "expected_smooth.csv"),
    )
    for name, fixture in golden_pairs:
        got = run_cli(runs[name], os.path.join(tmp_path, f"{name}.golden"))
        assert got == read_bytes(gold(fixture)), f"{name} drifted from its fixture"
