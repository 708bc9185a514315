import json
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simact.intervals as iv
import simact.poly as P
from simact.measure import (
    Adaptation,
    StepMeasure,
    convolve,
    from_piece_masses,
    is_good,
    lebesgue,
    pushforward,
    quantile_adaptation,
    uniform_on,
    weak_star_distance,
    weak_star_tail,
)
from simact.sampling import random_good_measure, trial_rng
from simact.serialize import dump_measure, load_measure

F = Fraction


def point_mass(x) -> StepMeasure:
    return StepMeasure((F(0),), (0,), ((F(x), F(1)),))


def steps(*weights) -> StepMeasure:
    """Step measure with the given piece masses on an even grid."""
    n = len(weights)
    total = sum(F(w) for w in weights)
    cuts = [F(i, n) for i in range(n)]
    return from_piece_masses(cuts, [F(w) / total for w in weights])


# -- construction ------------------------------------------------------------


def test_total_mass_must_be_one():
    with pytest.raises(ValueError):
        StepMeasure((F(0),), (F(2),))
    with pytest.raises(ValueError):
        StepMeasure((F(0),), (F(1),), ((F(1, 2), F(1, 4)),))


def test_rejects_negative_density_and_bad_breakpoints():
    with pytest.raises(ValueError):
        StepMeasure((F(0), F(1, 2)), (F(3), F(-1)))
    with pytest.raises(ValueError):
        StepMeasure((F(1, 4),), (F(1),))
    with pytest.raises(ValueError):
        StepMeasure((F(0), F(0)), (F(1), F(1)))
    with pytest.raises(ValueError):
        StepMeasure((F(0),), (F(1, 2),), ((F(1, 4), F(1, 4)), (F(1, 4), F(1, 4))))


def test_mass_queries():
    m = lebesgue()
    assert m.mass(F(1, 3), F(3, 4)) == F(5, 12)
    mu = steps(1, 3)
    assert mu.mass(0, F(1, 2)) == F(1, 4)
    assert mu.mass(F(1, 2), 1) == F(3, 4)
    assert mu.max_density() == F(3, 2)
    assert mu.cdf(F(3, 4)) == F(1, 4) + F(3, 8)


def test_uniform_on_wraps():
    mu = uniform_on(F(3, 4), F(1, 2))
    assert mu.mass(F(3, 4), 1) == F(1, 2)
    assert mu.mass(0, F(1, 4)) == F(1, 2)
    assert mu.mass(F(1, 4), F(3, 4)) == 0


def fields(mu: StepMeasure):
    return mu.breakpoints, mu.densities, mu.atoms


def test_canonical_equality_ignores_redundant_cuts():
    # equal adjacent pieces are merged on construction
    a = StepMeasure((F(0), F(1, 2)), (F(1), F(1)))
    assert fields(a) == fields(lebesgue())
    assert a == lebesgue()
    assert hash(a) == hash(lebesgue())
    # equal polynomials merge at any degree; equal pieces that are not adjacent stay apart
    ramp = StepMeasure((F(0), F(1, 4), F(1, 2)), ((0, 2), (0, 2), (0, 2)))
    assert fields(ramp) == ((F(0),), ((F(0), F(2)),), ())
    split = StepMeasure((F(0), F(1, 4), F(1, 2), F(3, 4)), (F(1, 2), F(3, 2), F(3, 2), F(1, 2)))
    assert split.breakpoints == (F(0), F(1, 4), F(3, 4))
    assert split.densities == ((F(1, 2),), (F(3, 2),), (F(1, 2),))


def test_degree_three_densities_are_a_domain_error():
    u = uniform_on(0, F(1, 2))
    with pytest.raises(ValueError, match="degree 3 densities are not supported"):
        convolve(convolve(convolve(u, u), u), u)
    with pytest.raises(ValueError, match="degree 3 densities are not supported"):
        StepMeasure((F(0),), ((0, 0, 0, 4),))


@st.composite
def recut(draw, mu: StepMeasure) -> StepMeasure:
    """mu built again with extra cuts inside its pieces."""
    extra = draw(st.sets(st.integers(1, 15), max_size=4))
    cuts = sorted(set(mu.breakpoints) | {F(k, 16) for k in extra})
    dens = [mu.densities[bisect_right(mu.breakpoints, c) - 1] for c in cuts]
    return StepMeasure(tuple(cuts), tuple(dens), mu.atoms)


@st.composite
def measures(draw):
    """A step measure, a polynomial one, or one with atoms."""
    mu = draw(convolvable())
    kind = draw(st.sampled_from(["step", "poly", "atoms"]))
    if kind == "poly":
        mu = convolve(mu, draw(convolvable()))
    elif kind == "atoms":
        x, q = F(draw(st.integers(0, 15)), 16), F(draw(st.integers(1, 3)), 4)
        mu = StepMeasure(mu.breakpoints, tuple(tuple(c * (1 - q) for c in d) for d in mu.densities), ((x, q),))
    return mu


def same_measure(a: StepMeasure, b: StepMeasure) -> bool:
    """Equal atoms, and densities (degree <= 2) equal at three points of
    every piece of the common refinement."""
    cuts = sorted(set(a.breakpoints) | set(b.breakpoints)) + [F(1)]

    def density(mu, x):
        return P.p_eval(mu.densities[bisect_right(mu.breakpoints, x) - 1], x)

    points = [x for lo, hi in zip(cuts, cuts[1:]) for x in (lo, (3 * lo + hi) / 4, (lo + hi) / 2)]
    return a.atoms == b.atoms and all(density(a, x) == density(b, x) for x in points)


@settings(max_examples=60, deadline=None)
@given(measures(), measures(), st.data())
def test_equality_is_field_equality(mu, nu, data):
    a, b, c = data.draw(recut(mu)), data.draw(recut(mu)), data.draw(recut(nu))
    assert fields(a) == fields(b) == fields(mu)
    assert a == b and hash(a) == hash(b)
    assert (a == c) == (fields(a) == fields(c)) == same_measure(a, c)
    if a == c:
        assert hash(a) == hash(c)


def test_load_measure_merges_and_a_canonical_document_round_trips():
    doc = {"pieces": [{"from": f, "density": d} for f, d in [("0", "1/2"), ("1/4", "3/2"), ("1/2", "3/2"), ("3/4", "1/2")]]}
    merged = {"pieces": [{"from": f, "density": d} for f, d in [("0", "1/2"), ("1/4", "3/2"), ("3/4", "1/2")]]}
    mu = load_measure(doc)
    assert mu.breakpoints == (F(0), F(1, 4), F(3, 4))
    assert dump_measure(mu) == merged
    canonical = {
        "pieces": [{"from": "0", "density": "1/4"}, {"from": "1/2", "density": "3/4"}],
        "atoms": [{"at": "1/3", "mass": "1/4"}, {"at": "2/3", "mass": "1/4"}],
    }
    for text in (json.dumps(merged), json.dumps(canonical)):
        assert json.dumps(dump_measure(load_measure(json.loads(text)))) == text


# -- convolution -------------------------------------------------------------


def test_zero_atom_is_convolution_identity():
    mu = steps(1, 2, 1)
    assert convolve(point_mass(0), mu) == mu
    assert convolve(mu, point_mass(0)) == mu


def test_atom_convolution_translates():
    mu = steps(1, 3)
    shifted = convolve(point_mass(F(1, 4)), mu)
    for lo, hi in [(0, F(1, 4)), (F(1, 4), F(1, 2)), (F(1, 2), 1)]:
        moved = iv.translate(iv.interval(lo, hi), F(-1, 4))
        assert shifted.mass(lo, hi) == sum(mu.mass(a, b) for a, b in moved)


def test_lebesgue_absorbs():
    for mu in [steps(1, 3), point_mass(F(2, 7)), steps(5, 1, 1, 1)]:
        assert convolve(mu, lebesgue()) == lebesgue()
        assert convolve(lebesgue(), mu) == lebesgue()


def test_convolution_commutes_and_smooths():
    a, b = steps(1, 3), steps(2, 1, 1)
    left, right = convolve(a, b), convolve(b, a)
    assert left == right
    assert left.atoms == ()
    assert is_good(left)
    assert left.total() == 1


def test_uniform_self_convolution_is_triangular():
    # X + Y mod 1 with X, Y uniform on [0, 1/2) peaks at 1/2
    mu = uniform_on(0, F(1, 2))
    out = convolve(mu, mu)
    assert out.mass(0, F(1, 2)) == F(1, 2)
    assert out.mass(F(1, 4), F(3, 4)) == F(3, 4)
    assert out.max_density() == 2


def test_uniform_threefold_convolution_peaks_at_an_interior_vertex():
    # the middle piece of the folded density is -8x^2 + 12x - 3 on [1/2, 1),
    # whose maximum 3/2 sits at x = 3/4, inside the piece
    mu = uniform_on(0, F(1, 2))
    out = convolve(convolve(mu, mu), mu)
    assert max(len(d) for d in out.densities) == 3
    assert out.max_density() == F(3, 2)
    assert is_good(out)


@st.composite
def convolvable(draw):
    """A random good step measure, or the uniform law on an arc."""
    if draw(st.booleans()):
        return random_good_measure(trial_rng(draw(st.integers(0, 10**6)), 0), max_pieces=3, max_den=8)
    lo = draw(st.integers(0, 7))
    length = draw(st.integers(1, 8))
    return uniform_on(F(lo, 8), F(length, 8))


@settings(max_examples=40, deadline=None)
@given(convolvable(), convolvable(), convolvable())
def test_convolution_is_associative(a, b, c):
    # the outer convolutions feed a degree-1 density into convolve
    assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))


def riemann_bracket(res, mu, nu, lo, hi):
    """Midpoint estimate of (nu*mu)([lo,hi)) with error below max_density(nu)/res."""
    est = F(0)
    for k in range(res):
        a, b = F(k, res), F(k + 1, res)
        w = mu.mass(a, b)
        if w:
            mid = (a + b) / 2
            est += w * sum(nu.mass(x, y) for x, y in iv.translate(iv.interval(lo, hi), -mid))
    return est


@pytest.mark.parametrize(
    "mu,nu",
    [
        (steps(1, 3), steps(2, 1, 1)),
        (steps(1, 1, 1, 5), uniform_on(F(1, 3), F(1, 4))),
        (uniform_on(F(7, 8), F(1, 2)), steps(3, 1)),
    ],
)
def test_convolution_against_midpoint_sums(mu, nu):
    out = convolve(nu, mu)
    res = 512
    tol = nu.max_density() / res
    for lo, hi in [(0, F(1, 2)), (F(1, 8), F(5, 8)), (F(2, 3), F(3, 4))]:
        est = riemann_bracket(res, mu, nu, F(lo), F(hi))
        assert abs(out.mass(F(lo), F(hi)) - est) <= tol


def test_blur_moves_weak_star_by_at_most_2dD():
    mu = steps(1, 5, 2)
    D = mu.max_density()
    for delta in [F(1, 8), F(1, 32), F(1, 128)]:
        blurred = convolve(uniform_on(0, delta), mu)
        assert weak_star_distance(blurred, mu, 6) <= 2 * delta * D


# -- adaptations -------------------------------------------------------------


def test_adaptation_validation():
    with pytest.raises(ValueError):
        Adaptation(((F(1, 4), F(0)),))
    with pytest.raises(ValueError):
        Adaptation(((F(0), F(0)), (F(1, 2), F(1, 2)), (F(3, 4), F(1, 4))))


def test_adaptation_inverse_and_compose():
    h = Adaptation(((F(0), F(0)), (F(1, 2), F(1, 4))))
    assert h(F(1, 2)) == F(1, 4)
    assert h(F(3, 4)) == F(5, 8)
    assert h.inverse_value(F(1, 4)) == F(1, 2)
    assert h.compose(h.inverse())(F(3, 7)) == F(3, 7)
    assert Adaptation(((F(0), F(0)),)).sup_dist_to_identity() == 0
    assert h.sup_dist_to_identity() == F(1, 4)


@given(st.fractions(min_value=0, max_value=1, max_denominator=64))
def test_adaptation_round_trip_pointwise(y):
    h = Adaptation(((F(0), F(0)), (F(1, 3), F(1, 8)), (F(1, 2), F(3, 4))))
    assert h(h.inverse_value(y)) == y


def test_quantile_adaptation_pushes_lebesgue_to_target():
    for nu in [steps(1, 3), steps(2, 5, 1), steps(1, 1, 1, 1, 4)]:
        h = quantile_adaptation(nu)
        assert pushforward(h, lebesgue()) == nu


def test_quantile_adaptation_rejects_bad_measures():
    with pytest.raises(ValueError):
        quantile_adaptation(point_mass(0))
    with pytest.raises(ValueError):
        quantile_adaptation(StepMeasure((F(0), F(1, 2)), (F(2), F(0))))


def test_pushforward_composes():
    h1 = Adaptation(((F(0), F(0)), (F(1, 2), F(1, 4))))
    h2 = Adaptation(((F(0), F(0)), (F(1, 4), F(1, 2)), (F(1, 2), F(5, 8))))
    mu = steps(1, 2, 1)
    assert pushforward(h2, pushforward(h1, mu)) == pushforward(h2.compose(h1), mu)


def test_pushforward_preserves_atoms():
    h = Adaptation(((F(0), F(0)), (F(1, 2), F(1, 4))))
    mu = StepMeasure((F(0),), (F(1, 2),), ((F(1, 2), F(1, 2)),))
    out = pushforward(h, mu)
    assert out.atoms == ((F(1, 4), F(1, 2)),)
    assert out.total() == 1


# -- weak-star distance ------------------------------------------------------


def test_weak_star_known_value():
    # point mass at 0 vs lebesgue: level-l gap is 1 - 2^-l
    got = weak_star_distance(point_mass(0), lebesgue(), 2)
    assert got == F(1, 2) * F(1, 2) + F(1, 4) * F(3, 4)


def test_weak_star_is_zero_on_equal_inputs():
    mu = steps(1, 2, 3, 2)
    assert weak_star_distance(mu, mu, 8) == 0
    assert weak_star_tail(8) == F(1, 256)


@settings(max_examples=40)
@given(
    st.lists(st.integers(1, 6), min_size=2, max_size=4),
    st.lists(st.integers(1, 6), min_size=2, max_size=4),
    st.integers(1, 5),
)
def test_weak_star_symmetry_and_scale(wa, wb, depth):
    a, b = steps(*wa), steps(*wb)
    d = weak_star_distance(a, b, depth)
    assert d == weak_star_distance(b, a, depth)
    assert 0 <= d < 2
