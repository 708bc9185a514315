from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st
from oracles import canonical_sets

import simact.intervals as iv

rational = st.fractions(min_value=0, max_value=1, max_denominator=64)


def test_interval_basics():
    assert iv.interval(0, 1) == iv.FULL
    assert iv.interval("1/4", "1/4") == iv.EMPTY
    assert iv.length(iv.interval("1/3", "1/2")) == Fraction(1, 6)


def test_normalize_merges_touching():
    got = iv.normalize([(Fraction(1, 2), Fraction(3, 4)), (Fraction(1, 4), Fraction(1, 2))])
    assert got == iv.interval("1/4", "3/4")


def test_wrapped_interval_splits_at_one():
    arc = iv.wrapped_interval("3/4", "1/2")
    assert arc == iv.normalize([(0, Fraction(1, 4)), (Fraction(3, 4), 1)])
    assert iv.length(arc) == Fraction(1, 2)
    assert iv.wrapped_interval("1/3", 1) == iv.FULL


@given(canonical_sets(), canonical_sets())
def test_boolean_algebra(a, b):
    assert iv.length(iv.union(a, b)) + iv.length(iv.intersect(a, b)) == iv.length(a) + iv.length(b)
    assert iv.symdiff(a, b) == iv.symdiff(b, a)
    assert iv.intersect(a, iv.complement(a)) == iv.EMPTY
    assert iv.union(a, iv.complement(a)) == iv.FULL


@given(canonical_sets(), rational)
def test_translate_preserves_length(a, t):
    moved = iv.translate(a, t)
    assert iv.length(moved) == iv.length(a)
    # translating back is the identity
    assert iv.translate(moved, -t) == a


@given(canonical_sets(), canonical_sets(), rational)
def test_translate_commutes_with_ops(a, b, t):
    assert iv.translate(iv.intersect(a, b), t) == iv.intersect(iv.translate(a, t), iv.translate(b, t))


def test_contains_point_wraps():
    s = iv.interval("1/2", "3/4")
    assert iv.contains_point(s, Fraction(3, 2))
    assert not iv.contains_point(s, Fraction(3, 4))
