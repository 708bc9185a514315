from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from simact import poly as P

coeff = st.fractions(min_value=-4, max_value=4, max_denominator=8)
small_poly = st.lists(coeff, min_size=0, max_size=4).map(P.p_make)
point = st.fractions(min_value=-2, max_value=2, max_denominator=16)


@given(small_poly, small_poly, point)
def test_ring_laws_at_points(a, b, x):
    assert P.p_eval(P.p_add(a, b), x) == P.p_eval(a, x) + P.p_eval(b, x)
    assert P.p_eval(P.p_mul(a, b), x) == P.p_eval(a, x) * P.p_eval(b, x)


@given(small_poly, point, point, point)
def test_compose_affine_agrees_pointwise(a, c0, c1, x):
    assert P.p_eval(P.p_compose_affine(a, c0, c1), x) == P.p_eval(a, c0 + c1 * x)


@given(small_poly, point, point)
def test_integrate_is_additive_in_limits(a, lo, hi):
    mid = (lo + hi) / 2
    assert P.p_integrate(a, lo, hi) == P.p_integrate(a, lo, mid) + P.p_integrate(a, mid, hi)


def test_integrate_known_values():
    assert P.p_integrate(P.p_const(3), 0, "1/2") == Fraction(3, 2)
    # x on [0,1] integrates to 1/2
    assert P.p_integrate(P.p_make([0, 1]), 0, 1) == Fraction(1, 2)
    assert P.p_integrate(P.p_make([0, 0, 3]), 0, 1) == 1


@given(st.lists(coeff, min_size=1, max_size=3).map(P.p_make), point, point)
def test_min_on_is_a_lower_bound(a, u, v):
    lo, hi = min(u, v), max(u, v)
    m = P.p_min_on(a, lo, hi)
    for k in range(5):
        x = lo + (hi - lo) * Fraction(k, 4)
        assert P.p_eval(a, x) >= m


def test_min_on_finds_interior_vertex():
    # (x - 1/2)^2 has minimum 0 inside [0, 1]
    a = P.p_make([Fraction(1, 4), -1, 1])
    assert P.p_min_on(a, 0, 1) == 0
    assert P.p_min_on(a, 0, "1/4") == P.p_eval(a, Fraction(1, 4))


def test_min_on_refuses_degree_three():
    with pytest.raises(ValueError, match="degree 3 densities are not supported"):
        P.p_min_on(P.p_make([0, 0, 0, 1]), 0, 1)
