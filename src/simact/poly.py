"""Dense polynomials over Fraction.

Used by the measure layer: piece densities are polynomials (degree 0 for
plain step densities, degree 1 after one convolution of two step parts).
Polynomials are coefficient tuples, low degree first; the zero polynomial is
the empty tuple.
"""

from __future__ import annotations

from fractions import Fraction

Poly = tuple[Fraction, ...]

ZERO: Poly = ()
ONE: Poly = (Fraction(1),)


def p_make(coeffs) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def p_const(c) -> Poly:
    return p_make([c])


def p_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return p_make([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def p_neg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def p_scale(a: Poly, s) -> Poly:
    s = Fraction(s)
    if s == 0:
        return ZERO
    return tuple(c * s for c in a)


def p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ZERO
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return p_make(out)


def p_eval(a: Poly, x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def p_antider(a: Poly) -> Poly:
    """Antiderivative with zero constant term."""
    return p_make([Fraction(0)] + [c / (i + 1) for i, c in enumerate(a)])


def p_integrate(a: Poly, lo, hi) -> Fraction:
    anti = p_antider(a)
    return p_eval(anti, hi) - p_eval(anti, lo)


def p_compose_affine(a: Poly, c0, c1) -> Poly:
    """p(c0 + c1*x) as a polynomial in x."""
    c0, c1 = Fraction(c0), Fraction(c1)
    out: Poly = ZERO
    affine = p_make([c0, c1])
    power: Poly = ONE
    for coeff in a:
        out = p_add(out, p_scale(power, coeff))
        power = p_mul(power, affine)
    return out


def p_shift(a: Poly, delta) -> Poly:
    """p(x + delta)."""
    return p_compose_affine(a, delta, 1)


def p_min_on(a: Poly, lo, hi) -> Fraction:
    """Exact minimum of a over the closed interval [lo, hi], degree <= 2."""
    lo, hi = Fraction(lo), Fraction(hi)
    deg = len(a) - 1
    if deg <= 0:
        return p_eval(a, lo)
    candidates = [lo, hi]
    if deg == 2 and a[2] != 0:
        vertex = -a[1] / (2 * a[2])
        if lo < vertex < hi:
            candidates.append(vertex)
    elif deg > 2:
        raise NotImplementedError(f"degree {deg} densities are not supported")
    return min(p_eval(a, x) for x in candidates)
