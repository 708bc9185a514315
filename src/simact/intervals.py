"""Finite unions of half-open rational intervals on the circle [0, 1).

The canonical form is a tuple of (lo, hi) Fraction pairs with
0 <= lo < hi <= 1, pairwise disjoint, sorted, and with touching pairs
merged.  A piece crossing 1 is stored as two pieces.  All set operations
are exact.
"""

from __future__ import annotations

from fractions import Fraction

Pairs = tuple[tuple[Fraction, Fraction], ...]

_ZERO, _ONE = Fraction(0), Fraction(1)
FULL: Pairs = ((_ZERO, _ONE),)
EMPTY: Pairs = ()


def normalize(raw) -> Pairs:
    """Sort, drop empty pieces, merge overlapping or touching ones."""
    pieces = sorted((a, b) for a, b in ((Fraction(a), Fraction(b)) for a, b in raw) if a < b)
    for a, b in pieces:
        if a < 0 or b > 1:
            raise ValueError(f"interval [{a}, {b}) outside [0, 1)")
    merged: list[list[Fraction]] = []
    for a, b in pieces:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)


def interval(lo, hi) -> Pairs:
    """The set [lo, hi) inside [0, 1); lo == hi gives the empty set."""
    lo, hi = Fraction(lo), Fraction(hi)
    if not (0 <= lo <= hi <= 1):
        raise ValueError(f"interval endpoints ({lo}, {hi}) outside [0, 1)")
    if lo == hi:
        return EMPTY
    return ((lo, hi),)


def wrapped_interval(lo, length) -> Pairs:
    """The arc of given length starting at lo, wrapping past 1 if needed."""
    lo, length = Fraction(lo) % 1, Fraction(length)
    if not 0 <= length <= 1:
        raise ValueError("arc length must lie in [0, 1]")
    if length == 0:
        return EMPTY
    if length == 1:
        return FULL
    hi = lo + length
    if hi <= 1:
        return ((lo, hi),)
    return normalize([(_ZERO, hi - 1), (lo, _ONE)])


def length(s: Pairs) -> Fraction:
    return sum((b - a for a, b in s), _ZERO)


def contains_point(s: Pairs, x) -> bool:
    x = Fraction(x) % 1
    return any(a <= x < b for a, b in s)


def _combine(a: Pairs, b: Pairs, keep) -> Pairs:
    """The stretches of [0, 1) where keep(in a, in b) holds, in one sweep.

    Both inputs are canonical, so their flattened endpoint lists are
    strictly increasing, and a point lies in a set exactly when an odd
    number of that set's endpoints sit at or below it.  Each step passes
    the endpoints at lo, so hi is the next endpoint of either set; a
    trailing 1 on each list is never passed and ends the sweep."""
    ends_a = [x for piece in a for x in piece] + [_ONE]
    ends_b = [x for piece in b for x in piece] + [_ONE]
    i = j = 0
    lo = _ZERO
    out: list[tuple[Fraction, Fraction]] = []
    while lo < 1:
        i += ends_a[i] == lo
        j += ends_b[j] == lo
        hi = min(ends_a[i], ends_b[j])
        if keep(i % 2 == 1, j % 2 == 1):
            if out and out[-1][1] == lo:
                out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
        lo = hi
    return tuple(out)


def intersect(a: Pairs, b: Pairs) -> Pairs:
    return _combine(a, b, lambda x, y: x and y)


def union(a: Pairs, b: Pairs) -> Pairs:
    return _combine(a, b, lambda x, y: x or y)


def symdiff(a: Pairs, b: Pairs) -> Pairs:
    return _combine(a, b, lambda x, y: x != y)


def complement(a: Pairs) -> Pairs:
    return _combine(a, EMPTY, lambda x, _y: not x)


def translate(s: Pairs, t) -> Pairs:
    """Rotate the whole set by t (mod 1)."""
    t = Fraction(t) % 1
    out: list[tuple[Fraction, Fraction]] = []
    for a, b in s:
        lo, hi = a + t, b + t
        if hi <= 1:
            out.append((lo, hi))
        elif lo >= 1:
            out.append((lo - 1, hi - 1))
        else:
            out.append((lo, _ONE))
            out.append((_ZERO, hi - 1))
    return normalize(out)
