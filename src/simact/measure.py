"""Probability measures on the circle with rational data.

A StepMeasure is a density given piecewise by polynomials with rational
coefficients (degree 0 for ordinary step densities) plus finitely many
atoms, with total mass exactly 1.  Step measures are closed under
translation and pushforward by piecewise-linear maps; convolving two step
densities raises the degree by one, which is why pieces carry polynomials
rather than bare constants.  Densities go up to degree 2 (three step
parts convolved), the highest degree whose exact minimum on a piece
`poly.p_min_on` finds; a density of higher degree is refused with a
ValueError.  A StepMeasure is canonical from construction: adjacent pieces
with equal polynomials are merged, so equal measures have equal fields.
Everything here is exact: no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb

from . import poly as P

__all__ = [
    "StepMeasure",
    "Adaptation",
    "lebesgue",
    "uniform_on",
    "from_piece_masses",
    "is_good",
    "convolve",
    "quantile_adaptation",
    "pushforward",
    "weak_star_distance",
    "weak_star_tail",
]


def _as_poly(d) -> P.Poly:
    if isinstance(d, tuple):
        return P.p_make(d)
    return P.p_const(Fraction(d))


def _walk(cuts: tuple, values):
    """(lo, hi, value) per piece: each cut with the next one (1 after the last)."""
    return zip(cuts, cuts[1:] + (Fraction(1),), values)


@dataclass(frozen=True)
class StepMeasure:
    """A circle measure: piecewise-polynomial density plus atoms.

    breakpoints
        Strictly increasing Fractions starting at 0, all in [0, 1).  Piece i
        covers [breakpoints[i], breakpoints[i+1]), the last piece wrapping
        to 1.
    densities
        One polynomial per piece (coefficient tuples, low degree first),
        nonnegative on its piece.  Plain rationals are accepted and stored
        as degree-0 polynomials.
    atoms
        ((location, mass), ...) with distinct locations in [0, 1) and
        strictly positive masses, sorted by location.

    The total mass must be exactly 1.  Adjacent pieces with equal
    polynomials are merged on construction, so two StepMeasures are equal
    (and hash alike) exactly when they are the same measure.
    """

    breakpoints: tuple[Fraction, ...]
    densities: tuple[P.Poly, ...]
    atoms: tuple[tuple[Fraction, Fraction], ...] = ()

    def __post_init__(self):
        bps = tuple(Fraction(b) for b in self.breakpoints)
        dens = tuple(_as_poly(d) for d in self.densities)
        atoms = tuple(sorted((Fraction(x), Fraction(m)) for x, m in self.atoms))
        if not bps or bps[0] != 0:
            raise ValueError("breakpoints must start at 0")
        if any(not (0 <= b < 1) for b in bps):
            raise ValueError("breakpoints must lie in [0, 1)")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(dens) != len(bps):
            raise ValueError("need one density per piece")
        keep = [i for i in range(len(bps)) if i == 0 or dens[i] != dens[i - 1]]
        object.__setattr__(self, "breakpoints", tuple(bps[i] for i in keep))
        object.__setattr__(self, "densities", tuple(dens[i] for i in keep))
        object.__setattr__(self, "atoms", atoms)
        for lo, hi, d in self._pieces():
            if P.p_min_on(d, lo, hi) < 0:
                raise ValueError(f"density negative on [{lo}, {hi})")
        seen = set()
        for x, m in atoms:
            if not (0 <= x < 1):
                raise ValueError(f"atom location {x} outside [0, 1)")
            if m <= 0:
                raise ValueError("atom masses must be positive")
            if x in seen:
                raise ValueError(f"duplicate atom at {x}")
            seen.add(x)
        total = self.total()
        if total != 1:
            raise ValueError(f"total mass {total} != 1")

    # -- basic queries -----------------------------------------------------

    def _pieces(self):
        return _walk(self.breakpoints, self.densities)

    def total(self) -> Fraction:
        return self.mass(0, 1)

    def mass(self, lo, hi) -> Fraction:
        """Mass of the half-open interval [lo, hi), 0 <= lo <= hi <= 1."""
        lo, hi = Fraction(lo), Fraction(hi)
        if not (0 <= lo <= hi <= 1):
            raise ValueError(f"interval endpoints ({lo}, {hi}) outside [0, 1)")
        dens = Fraction(0)
        for plo, phi, d in self._pieces():
            a, b = max(lo, plo), min(hi, phi)
            if a < b:
                dens += P.p_integrate(d, a, b)
        atom = sum((m for x, m in self.atoms if lo <= x < hi), Fraction(0))
        return dens + atom

    def cdf(self, x) -> Fraction:
        return self.mass(0, x)

    def max_density(self) -> Fraction:
        """Max of the density over the circle (atoms excluded)."""
        return max(-P.p_min_on(P.p_neg(d), lo, hi) for lo, hi, d in self._pieces())


def lebesgue() -> StepMeasure:
    return StepMeasure((Fraction(0),), (Fraction(1),))


def uniform_on(lo, length) -> StepMeasure:
    """Uniform probability on the arc of the given length starting at lo."""
    length = Fraction(length)
    if not 0 < length <= 1:
        raise ValueError("arc length must lie in (0, 1]")
    lo = Fraction(lo) % 1
    return _assemble(_fold_to_circle([(lo, lo + length, P.p_const(1 / length))]), ())


def from_piece_masses(cuts, masses) -> StepMeasure:
    """Spread each mass uniformly over its piece (cuts as in a partition)."""
    cuts = tuple(Fraction(c) for c in cuts)
    masses = tuple(Fraction(m) for m in masses)
    if len(cuts) != len(masses):
        raise ValueError("need one mass per piece")
    return StepMeasure(cuts, tuple(m / (hi - lo) for lo, hi, m in _walk(cuts, masses)))


def is_good(mu: StepMeasure) -> bool:
    """Non-atomic with full support: no atoms and density > 0 everywhere."""
    return not mu.atoms and all(
        d and P.p_eval(d, lo) > 0 and P.p_min_on(d, lo, hi) >= 0 for lo, hi, d in mu._pieces()
    )


# -- convolution -----------------------------------------------------------

DensityPieces = list[tuple[Fraction, Fraction, P.Poly]]


def _density_pieces(mu: StepMeasure) -> DensityPieces:
    return [(lo, hi, d) for lo, hi, d in mu._pieces() if d]


def _translate_pieces(pieces: DensityPieces, shift, scale) -> DensityPieces:
    """Rotate a density by `shift` and multiply by `scale`."""
    shift, scale = Fraction(shift) % 1, Fraction(scale)
    # the value at x comes from x - shift
    shifted = [(lo + shift, hi + shift, P.p_scale(P.p_shift(d, -shift), scale)) for lo, hi, d in pieces]
    return _fold_to_circle(shifted)


def _line_convolve(f: DensityPieces, g: DensityPieces) -> DensityPieces:
    """Convolution on the real line of densities supported in [0, 1].

    p(y) q(t - y) is the sum over m of t^m p(y) s_m(y), with
    s_m(y) = sum over k of q_k C(k, m) (-y)^(k - m), so each term integrates
    in y alone and takes the limits, which are affine in t, by substitution.
    """
    out: DensityPieces = []
    for u1, u2, p in f:
        for v1, v2, q in g:
            s = [P.p_make([q[k] * comb(k, m) * (-1) ** (k - m) for k in range(m, len(q))]) for m in range(len(q))]
            antis = [P.p_antider(P.p_mul(p, s_m)) for s_m in s]
            knots = sorted({u1 + v1, u1 + v2, u2 + v1, u2 + v2})
            for ta, tb in zip(knots, knots[1:]):
                mid = (ta + tb) / 2
                # integration limits over y: max(u1, t - v2) .. min(u2, t - v1)
                lo_aff = (u1, 0) if u1 >= mid - v2 else (-v2, 1)
                hi_aff = (u2, 0) if u2 <= mid - v1 else (-v1, 1)
                piece = P.ZERO
                for m, anti in enumerate(antis):
                    span = P.p_add(P.p_compose_affine(anti, *hi_aff), P.p_neg(P.p_compose_affine(anti, *lo_aff)))
                    piece = P.p_add(piece, P.p_mul(P.p_make([0] * m + [1]), span))  # t^m * span
                out.append((ta, tb, piece))
    return out


def _fold_to_circle(pieces: DensityPieces) -> DensityPieces:
    """Wrap a density supported in [0, 2] back onto [0, 1)."""
    out: DensityPieces = []
    for ta, tb, p in pieces:
        segments = []
        if ta < 1:
            segments.append((ta, min(tb, Fraction(1)), p))
        if tb > 1:
            segments.append((max(ta, Fraction(1)) - 1, tb - 1, P.p_shift(p, 1)))
        out.extend((a, b, q) for a, b, q in segments if a < b)
    return out


def _assemble(pieces: DensityPieces, atoms) -> StepMeasure:
    """Sum the pieces' densities and the atoms' masses at each location."""
    xs = sorted({Fraction(0)} | {a for a, _b, _p in pieces} | {b for _a, b, _p in pieces if b < 1})
    # every piece end is a cut, so a piece covers the span from lo exactly when it holds lo
    dens = (reduce(P.p_add, (p for a, b, p in pieces if a <= lo < b), P.ZERO) for lo in xs)
    merged: dict[Fraction, Fraction] = {}
    for x, m in atoms:
        merged[x] = merged.get(x, Fraction(0)) + m
    return StepMeasure(tuple(xs), tuple(dens), tuple(merged.items()))


def convolve(nu: StepMeasure, mu: StepMeasure) -> StepMeasure:
    """The law of X + Y (mod 1) for independent X ~ mu, Y ~ nu.

    Equivalently A |-> integral over y of mu(A - y) d nu(y).  Atom x atom
    terms stay atoms; every term touching a density is absolutely
    continuous, so the result has atoms only if both inputs do.
    """
    atoms = []
    for y, p in nu.atoms:
        for x, q in mu.atoms:
            atoms.append(((x + y) % 1, p * q))
    pieces: DensityPieces = []
    mu_d, nu_d = _density_pieces(mu), _density_pieces(nu)
    for y, p in nu.atoms:
        pieces.extend(_translate_pieces(mu_d, y, p))
    for x, q in mu.atoms:
        pieces.extend(_translate_pieces(nu_d, x, q))
    if mu_d and nu_d:
        pieces.extend(_fold_to_circle(_line_convolve(nu_d, mu_d)))
    return _assemble(pieces, atoms)


# -- adaptations -----------------------------------------------------------


def _interpolate(segments, x) -> Fraction:
    """Read at x in [0, 1] the increasing polyline made of ((x1, y1), (x2, y2)) segments."""
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError(f"argument {x} outside [0, 1]")
    for (x1, y1), (x2, y2) in segments:
        if x1 <= x <= x2:
            return y1 + (x - x1) * (y2 - y1) / (x2 - x1)
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class Adaptation:
    """An increasing piecewise-linear bijection of [0, 1) fixing 0.

    knots
        ((z, y), ...) with the first knot (0, 0), both coordinates strictly
        increasing and inside [0, 1).  The map is linear between knots and
        on the final segment from the last knot to (1, 1).
    """

    knots: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        ks = tuple((Fraction(z), Fraction(y)) for z, y in self.knots)
        object.__setattr__(self, "knots", ks)
        if not ks or ks[0] != (0, 0):
            raise ValueError("first knot must be (0, 0)")
        for (z1, y1), (z2, y2) in zip(ks, ks[1:]):
            if z2 <= z1 or y2 <= y1:
                raise ValueError("knots must be strictly increasing in both coordinates")
        if any(not (0 <= z < 1 and 0 <= y < 1) for z, y in ks):
            raise ValueError("knots must lie in [0, 1) x [0, 1)")

    def _segments(self):
        pts = list(self.knots) + [(Fraction(1), Fraction(1))]
        return list(zip(pts, pts[1:]))

    def __call__(self, z) -> Fraction:
        return _interpolate(self._segments(), z)

    def inverse_value(self, y) -> Fraction:
        return _interpolate([((y1, z1), (y2, z2)) for (z1, y1), (z2, y2) in self._segments()], y)

    def inverse(self) -> "Adaptation":
        return Adaptation(tuple((y, z) for z, y in self.knots))

    def compose(self, other: "Adaptation") -> "Adaptation":
        """self after other: z |-> self(other(z))."""
        zs = {z for z, _y in other.knots}
        zs |= {other.inverse_value(z) for z, _y in self.knots}
        knots = tuple(sorted((z, self(other(z))) for z in zs))
        return Adaptation(knots)

    def sup_dist_to_identity(self) -> Fraction:
        """sup |h(z) - z|; attained at a knot since h - id is piecewise linear."""
        return max(abs(y - z) for z, y in self.knots)

    def preimage_interval(self, lo, hi) -> tuple[Fraction, Fraction]:
        """h^-1([lo, hi)) as a single interval (h is increasing and fixes 0)."""
        return self.inverse_value(lo), self.inverse_value(hi)


def quantile_adaptation(nu: StepMeasure) -> Adaptation:
    """The inverse-CDF map h with h<m> = nu, for good step measures.

    h(z) = y exactly when nu([0, y)) = z; piecewise linearity of h needs a
    plain step density, so polynomial pieces of degree >= 1 are rejected.
    """
    if nu.atoms:
        raise ValueError("measure has atoms; quantile map would jump")
    if not is_good(nu):
        raise ValueError("measure lacks full support; quantile map would be degenerate")
    if any(len(d) > 1 for d in nu.densities):
        raise ValueError("quantile adaptation needs a plain step density")
    knots, z = [], Fraction(0)
    for lo, hi, d in nu._pieces():
        knots.append((z, lo))
        z += P.p_integrate(d, lo, hi)
    return Adaptation(tuple(knots))


def pushforward(h: Adaptation, mu: StepMeasure) -> StepMeasure:
    """h<mu>: the measure B |-> mu(h^-1(B))."""
    pieces: DensityPieces = []
    for (z1, y1), (z2, y2) in h._segments():
        slope = (y2 - y1) / (z2 - z1)
        inv0 = z1 - y1 / slope  # h^-1(y) = inv0 + y/slope
        for lo, hi, d in _density_pieces(mu):
            a, b = max(lo, z1), min(hi, z2)
            if a < b:
                # density(y) = mu_density(h^-1(y)) / slope
                image = P.p_scale(P.p_compose_affine(d, inv0, 1 / slope), 1 / slope)
                pieces.append((y1 + (a - z1) * slope, y1 + (b - z1) * slope, image))
    return _assemble(pieces, [(h(x), m) for x, m in mu.atoms])


# -- weak-star distance ----------------------------------------------------


def weak_star_distance(mu: StepMeasure, nu: StepMeasure, depth: int) -> Fraction:
    """Sum over levels l <= depth of 2^-l times the worst dyadic-interval gap.

    The discarded tail is at most weak_star_tail(depth) since every
    per-level max is at most 1.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = 2**depth
    # the gap on [a, b) is the change of the cdf difference from a to b
    diff = [mu.cdf(Fraction(k, n)) - nu.cdf(Fraction(k, n)) for k in range(n + 1)]
    total = Fraction(0)
    for level in range(1, depth + 1):
        stride = n >> level
        ends = diff[::stride]
        total += max(abs(b - a) for a, b in zip(ends, ends[1:])) / 2**level
    return total


def weak_star_tail(depth: int) -> Fraction:
    return Fraction(1, 2**depth)
