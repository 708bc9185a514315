"""JSON forms for every object the command line reads or writes.

Rationals travel as strings ("3/4", "0", "2").  Loaders validate shapes and
raise ValueError with a usable message on anything malformed; dumpers produce
plain dicts ready for json.dump.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import lcm

from . import budget
from .action import LatticeAction
from .equivalence import GraphWitness
from .measure import Adaptation, StepMeasure
from .rationals import format_rational, parse_rational
from .sim import CylinderTable, Partition, Window
from .transform import DyadicSet, IntervalPermutation

__all__ = [
    "load_measure", "dump_measure",
    "load_adaptation", "dump_adaptation",
    "load_permutation", "dump_permutation",
    "load_dyadic", "dump_dyadic",
    "action_header", "load_action", "dump_action",
    "load_table", "dump_table",
    "dump_witness",
    "read_json_file",
]


def read_json_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: not valid JSON ({e})") from e


def _is_int(value) -> bool:
    # JSON true and false load as bool, a subclass of int
    return type(value) is int


def _need(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{where}: missing field '{key}'")
    value = obj[key]
    if kind is not None and not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise ValueError(f"{where}: field '{key}' has the wrong type")
    return value


# -- measures -----------------------------------------------------------------


def load_measure(obj) -> StepMeasure:
    """{"pieces": [{"from": "0", "density": "2"}, ...],
        "atoms": [{"at": "1/2", "mass": "1/4"}, ...]}       (atoms optional)"""
    pieces = _need(obj, "pieces", list, "measure")
    bps, dens = [], []
    for i, piece in enumerate(pieces):
        bps.append(parse_rational(_need(piece, "from", str, f"measure piece {i}")))
        dens.append(parse_rational(_need(piece, "density", str, f"measure piece {i}")))
    atoms = []
    for i, atom in enumerate(obj.get("atoms", [])):
        atoms.append(
            (
                parse_rational(_need(atom, "at", str, f"measure atom {i}")),
                parse_rational(_need(atom, "mass", str, f"measure atom {i}")),
            )
        )
    return StepMeasure(tuple(bps), tuple(dens), tuple(atoms))


def dump_measure(mu: StepMeasure) -> dict:
    pieces = []
    for lo, d in zip(mu.breakpoints, mu.densities):
        if len(d) > 1:
            raise ValueError("density has polynomial pieces; no flat JSON form")
        value = d[0] if d else Fraction(0)
        pieces.append({"from": format_rational(lo), "density": format_rational(value)})
    out = {"pieces": pieces}
    if mu.atoms:
        out["atoms"] = [
            {"at": format_rational(x), "mass": format_rational(m)} for x, m in mu.atoms
        ]
    return out


# -- adaptations --------------------------------------------------------------


def load_adaptation(obj) -> Adaptation:
    """{"knots": [["0", "0"], ["1/4", "1/2"], ...]}"""
    knots = _need(obj, "knots", list, "adaptation")
    parsed = []
    for i, pair in enumerate(knots):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"adaptation knot {i}: expected a [z, y] pair")
        parsed.append((parse_rational(pair[0]), parse_rational(pair[1])))
    return Adaptation(tuple(parsed))


def dump_adaptation(h: Adaptation) -> dict:
    return {"knots": [[format_rational(z), format_rational(y)] for z, y in h.knots]}


# -- transforms ---------------------------------------------------------------


def load_permutation(obj) -> IntervalPermutation:
    """{"n": 8, "perm": [1, 0, 3, 2, ...]}"""
    n = _need(obj, "n", int, "permutation")
    perm = _need(obj, "perm", list, "permutation")
    if not all(_is_int(i) for i in perm):
        raise ValueError("permutation: perm entries must be integers")
    return IntervalPermutation(n, tuple(perm))


def dump_permutation(t: IntervalPermutation) -> dict:
    return {"n": t.n, "perm": list(t.perm)}


def load_dyadic(obj) -> DyadicSet:
    """{"level": 3, "mask": "01101001"}; mask character i covers cell i."""
    level = _need(obj, "level", int, "dyadic set")
    mask = _need(obj, "mask", str, "dyadic set")
    if level < 0:
        raise ValueError("dyadic set: level must be >= 0")
    # the mask's length bounds the level before 2^level is computed
    if level > len(mask).bit_length() or len(mask) != 2**level or any(c not in "01" for c in mask):
        raise ValueError(f"dyadic set: mask must be 2^{level} characters of 0/1")
    return DyadicSet.from_mask(mask)


def dump_dyadic(s: DyadicSet) -> dict:
    return {"level": s.level, "mask": s.mask()}


# -- actions ------------------------------------------------------------------


def action_header(obj) -> tuple[int, int]:
    """The rank d and resolution n of an action, read without its generators."""
    d = _need(obj, "d", int, "action")
    n = _need(obj, "n", int, "action")
    if d < 1:
        raise ValueError("rank must be >= 1")
    if n < 1:
        raise ValueError("resolution must be positive")
    return d, n


def load_action(obj) -> LatticeAction:
    """{"d": 2, "n": 8, "generators": [[...], [...]]}

    The commutation check, d(d-1) composes of n cells, is charged once the
    generators are counted and before any of them is parsed."""
    d, n = action_header(obj)
    gens = _need(obj, "generators", list, "action")
    if len(gens) != d:
        raise ValueError(f"action: expected {d} generators, got {len(gens)}")
    budget.action(d, n)
    parsed = []
    for i, perm in enumerate(gens):
        if not isinstance(perm, list) or not all(_is_int(j) for j in perm):
            raise ValueError(f"action generator {i}: expected a list of integers")
        if len(perm) != n:
            raise ValueError(f"action generator {i}: length {len(perm)} != n {n}")
        parsed.append(IntervalPermutation(n, tuple(perm)))
    return LatticeAction(d, tuple(parsed))


def dump_action(a: LatticeAction) -> dict:
    return {
        "d": a.d,
        "n": a.n,
        "generators": [list(g.perm) for g in a.generators],
    }


# -- cylinder tables ----------------------------------------------------------


def load_table(obj) -> CylinderTable:
    """{"d": 1, "w": 2, "cuts": ["0", "1/2"], "masses": {"0,1": "1/4", ...}}

    Mass keys are comma-joined labels in the window's element order, each
    label tuple named by one key.  The key labels, keys * w^d, are charged
    before any key or mass is read."""
    d = _need(obj, "d", int, "table")
    w = _need(obj, "w", int, "table")
    cuts = _need(obj, "cuts", list, "table")
    raw = _need(obj, "masses", dict, "table")
    window = Window(d, w)
    partition = Partition(tuple(parse_rational(c) for c in cuts))
    # a key lists w^d >= 2^d labels when w > 1, so the longest key bounds
    # the rank before w^d is computed
    longest = max((key.count(",") + 1 for key in raw), default=0)
    if w > 1 and d > longest.bit_length():
        raise ValueError(f"table: a window of {w}^{d} times is longer than every key")
    k = window.size()
    # Window.elements() lists d * w^d coordinates, and nothing above bounds d when w = 1
    budget.check("window coordinates d*w^d =", d * k, budget.MAX_RESOLUTION)
    budget.table(len(raw), k)
    masses = {}
    # int() reads " 1" and "01" as 1, so two key texts can name one label tuple
    named: dict[tuple[int, ...], str] = {}
    for key, value in raw.items():
        parts = key.split(",")
        if len(parts) != k:
            raise ValueError(f"table: key '{key}' must have {k} labels")
        try:
            labels = tuple(map(int, parts))
        except ValueError:
            raise ValueError(f"table: key '{key}' has non-integer labels") from None
        if labels in named:
            raise ValueError(f"table: keys '{named[labels]}' and '{key}' name the same labels")
        named[labels] = key
        masses[labels] = _mass(value)
    den = lcm(*(q for _num, q in masses.values()))
    nums = {labels: num * (den // q) for labels, (num, q) in masses.items()}
    return CylinderTable(window, partition, nums, den=den)


# the canonical ASCII form of a nonnegative rational, which int() reads directly
_PLAIN_RATIONAL = re.compile(r"([0-9]+)(?:/([0-9]+))?")


def _mass(value) -> tuple[int, int]:
    """A table mass as (numerator, denominator) ints.  A string in the plain
    form "p" or "p/q" is read with int(); everything else, and a plain string
    int() refuses or with a zero denominator, goes through parse_rational, so
    what is accepted or refused, and with which message, is its decision."""
    if isinstance(value, str) and (m := _PLAIN_RATIONAL.fullmatch(value)):
        try:
            num, q = int(m[1]), int(m[2] or 1)
        except ValueError:  # more digits than int() converts
            pass
        else:
            if q:
                return num, q
    f = parse_rational(value if isinstance(value, str) else str(value))
    return f.numerator, f.denominator


def dump_table(t: CylinderTable) -> dict:
    return {
        "d": t.window.d,
        "w": t.window.w,
        "cuts": [format_rational(c) for c in t.partition.cuts],
        "masses": {
            ",".join(str(i) for i in key): format_rational(mass)
            for key, mass in sorted(t.masses.items())
        },
    }


# -- witnesses ----------------------------------------------------------------


def dump_witness(wit: GraphWitness) -> dict:
    return {
        "pairs": [
            {
                "alpha": list(pw.alpha),
                "beta": list(pw.beta),
                "map": list(pw.mapping),
                "defect": format_rational(pw.defect),
            }
            for pw in wit.pairs
        ]
    }
