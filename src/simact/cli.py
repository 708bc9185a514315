"""Command line front end: JSON objects in, CSV or JSON results out.

Exit codes are a stable contract: 0 success, 2 unreadable input (missing
file, invalid JSON, malformed object or flag value) or unwritable --out, 3
shape mismatch between otherwise valid inputs, 4 precondition failure
reported by the computation.  Output is byte-deterministic for a fixed command line; the
only wall-clock column (wrp-demo) stays empty unless --times is passed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from . import budget
from . import serialize as ser
from .action import (
    InfeasibleError,
    LatticeAction,
    action_dist,
    action_dist_tail,
    conjugate,
    tower_heights,
    wrp_conjugacy_search,
)
from .equivalence import (
    action_to_sim,
    embed_action,
    factor_defect,
    realize_sim_as_action,
    recover_action,
)
from .rationals import exact_decimal, format_rational, parse_rational
from .sampling import aperiodic_permutation, trial_rng
from .sim import (
    Partition,
    Window,
    convolve_sim,
    fixed_mass_report,
    is_graph_sim,
    sim_dist,
)

__all__ = ["main"]


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# -- plumbing -----------------------------------------------------------------


@contextmanager
def _reading(path: str, what: str):
    """Report an unreadable or malformed input as exit 2, naming the file."""
    try:
        yield
    except budget.BudgetError:
        raise
    except (OSError, ValueError) as e:
        raise CliError(2, f"cannot read {what} from {path}: {e}") from e


def _load(path: str, loader, what: str):
    with _reading(path, what):
        return loader(ser.read_json_file(path))


def _fraction_arg(text: str, what: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as e:
        raise CliError(2, f"bad {what}: {e}") from e


def _positive_arg(value: int, flag: str):
    if value < 1:
        raise CliError(2, f"{flag} must be >= 1, got {value}")


def _dist_args(args):
    """--terms and --depth of dist and wrp-demo, checked before any input is read."""
    _positive_arg(args.terms, "--terms")
    _positive_arg(args.depth, "--depth")
    budget.check("depth", args.depth, budget.MAX_DEPTH)
    budget.check("terms", args.terms, budget.MAX_TERMS)


def _cuts_arg(text: str) -> Partition:
    try:
        return Partition(tuple(parse_rational(c) for c in text.split(",")))
    except ValueError as e:
        raise CliError(2, f"bad cuts: {e}") from e


def _emit_text(args, text: str):
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as e:
            raise CliError(2, f"cannot write {args.out}: {e}") from e
    else:
        sys.stdout.write(text)


_JSON_SCALARS = frozenset((str, int, bool, type(None)))


def _json_text(obj, level: int = 0) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte; dict keys are strings.

    CPython runs any `indent` through its pure-Python encoder.  So each
    container whose values are all scalars goes to the C encoder, with the
    newline and indent of its items folded into the item separator and its
    brackets re-added, and only the containers above those are joined here.
    """
    if not isinstance(obj, (list, tuple, dict)) or not obj:
        return json.dumps(obj)
    inner = "\n" + "  " * (level + 1)
    values = obj.values() if isinstance(obj, dict) else obj
    if _JSON_SCALARS.issuperset(map(type, values)):
        text = json.dumps(obj, sort_keys=True, separators=("," + inner, ": "))
        return text[0] + inner + text[1:-1] + inner[:-2] + text[-1]
    if isinstance(obj, dict):
        items = [f"{json.dumps(k)}: {_json_text(v, level + 1)}" for k, v in sorted(obj.items())]
        brackets = "{}"
    else:
        items = [_json_text(v, level + 1) for v in obj]
        brackets = "[]"
    return brackets[0] + inner + ("," + inner).join(items) + inner[:-2] + brackets[1]


def _emit_json(args, obj):
    _emit_text(args, _json_text(obj) + "\n")


def _csv(rows) -> str:
    return "\n".join(",".join(row) for row in rows) + "\n"


def _emit_rows(args, rows):
    """A header row and data rows, as CSV or as a JSON list of row objects."""
    if args.format == "json":
        _emit_json(args, {"rows": [dict(zip(rows[0], r)) for r in rows[1:]]})
    else:
        _emit_text(args, _csv(rows))


def _pair(value: Fraction) -> list[str]:
    """Decimal rendering plus the exact rational sidecar."""
    return [exact_decimal(value), format_rational(value)]


def _emit_values(args, values: dict[str, Fraction]):
    """Named values: as CSV, one row of `name` (decimal) and `name_exact`
    columns; as JSON, `name` (exact) and `name_decimal` keys."""
    if args.format == "json":
        obj = {}
        for name, value in values.items():
            obj[name], obj[f"{name}_decimal"] = format_rational(value), exact_decimal(value)
        _emit_json(args, obj)
    else:
        header = [col for name in values for col in (name, f"{name}_exact")]
        _emit_text(args, _csv([header, [cell for value in values.values() for cell in _pair(value)]]))


def _beta_name(beta) -> str:
    return "_".join(str(b) for b in beta)


# -- subcommands ---------------------------------------------------------------


def cmd_dist(args) -> int:
    _dist_args(args)
    paths = (args.action_a, args.action_b)
    (obj_a, (da, na)), (obj_b, (db, nb)) = (
        _load(path, lambda obj: (obj, ser.action_header(obj)), "action") for path in paths
    )
    if da != db:
        raise CliError(3, f"rank mismatch: {da} vs {db}")
    # charged from the headers, before any generator is parsed or checked
    budget.action_dist(na, nb, args.terms, args.depth, rank=da)
    actions = []
    for path, obj in zip(paths, (obj_a, obj_b)):
        with _reading(path, "action"):
            actions.append(ser.load_action(obj))
    a, b = actions
    value = action_dist(a, b, args.terms, args.depth)
    _emit_values(args, {"distance": value, "tail": action_dist_tail(args.terms)})
    return 0


def cmd_embed(args) -> int:
    h = _load(args.adaptation, ser.load_adaptation, "adaptation")
    a = _load(args.action, ser.load_action, "action")
    partition = _cuts_arg(args.cuts)
    _positive_arg(args.w, "--w")
    table = embed_action(h, a, Window(a.d, args.w), partition)
    _emit_json(args, ser.dump_table(table))
    return 0


def cmd_recover(args) -> int:
    t = _load(args.table, ser.load_table, "table")
    epsilon = _fraction_arg(args.epsilon, "tolerance")
    action, witness = recover_action(t, epsilon)
    for pw in witness.pairs:
        sys.stdout.write(
            f"pair {pw.alpha}->{pw.beta}: map {','.join(str(m) for m in pw.mapping)}"
            f" defect {format_rational(pw.defect)}\n"
        )
    _emit_json(args, ser.dump_action(action))
    return 0


def cmd_realize(args) -> int:
    t = _load(args.table, ser.load_table, "table")
    if t.window.d != 1:
        raise CliError(3, f"realize handles rank-1 tables, got rank {t.window.d}")
    # the postcondition reads w itinerary labels for each of the n = den cells
    budget.check("grid resolution n =", t.den, budget.MAX_RESOLUTION)
    budget.check("itinerary cells n*w^d =", t.den * t.window.size(), budget.MAX_RESOLUTION)
    action, partition = realize_sim_as_action(t)
    check = action_to_sim(action, t.window, partition)
    if check.nums != t.nums or check.den != t.den:
        raise AssertionError("realization postcondition failed; refusing to write output")
    payload = ser.dump_action(action)
    payload["cuts"] = [format_rational(c) for c in partition.cuts]
    _emit_json(args, payload)
    return 0


def cmd_smooth(args) -> int:
    t = _load(args.table, ser.load_table, "table")
    delta = _fraction_arg(args.delta, "delta")
    if not 0 < delta < 1:
        raise CliError(4, f"delta must lie in (0, 1), got {delta}")
    _positive_arg(args.steps, "--steps")
    # the first rung would refuse the patterns too, but only after the shifts below are listed
    budget.smooth(t.partition.p, t.window.size(), args.steps)
    ladder = [Fraction(0)] + [delta / 2 ** (args.steps - 1 - i) for i in range(args.steps)]
    # the positive differences of two window times, in ascending order
    d, w = t.window.d, t.window.w
    betas = [b for b in product(range(1 - w, w), repeat=d) if b > (0,) * d]
    header = ["delta", "delta_exact", "dist", "dist_exact"]
    for beta in betas:
        header += [f"fixed_{_beta_name(beta)}", f"fixed_{_beta_name(beta)}_exact"]
    rows = [header]
    for step in ladder:
        smoothed = convolve_sim(t, step)
        # rung 0 blurs by nothing: convolve_sim hands t itself back
        row = _pair(step) + _pair(sim_dist(smoothed, t) if step else Fraction(0))
        for beta in betas:
            row += _pair(fixed_mass_report(smoothed, beta))
        rows.append(row)
    _emit_rows(args, rows)
    return 0


def cmd_wrp_demo(args) -> int:
    epsilon = _fraction_arg(args.epsilon, "tolerance")
    if epsilon <= 0:
        raise CliError(4, "tolerance must be > 0")
    _dist_args(args)
    _positive_arg(args.n, "--n")
    _positive_arg(args.trials, "--trials")
    _positive_arg(args.min_cycle, "--min-cycle")
    # each sampled map's shortest cycle is exactly --min-cycle, so a trial
    # measures one distance per height of this ladder and verifies one more
    try:
        heights = len(tower_heights(epsilon, args.min_cycle))
    except InfeasibleError:
        heights = 0  # every trial is refused before its first distance
    # a refusal inside the search would be reported as a failed trial
    budget.action_dist(args.n, args.n, args.terms, args.depth, heights + 1)
    header = [
        "trial",
        "requested",
        "requested_exact",
        "achieved",
        "achieved_exact",
        "height",
        "status",
        "time_s",
    ]
    rows = [header]
    for trial in range(args.trials):
        rng = trial_rng(args.seed, trial)
        t = aperiodic_permutation(rng, args.n, args.min_cycle)
        r = aperiodic_permutation(rng, args.n, args.min_cycle)
        a, b = LatticeAction(1, (t,)), LatticeAction(1, (r,))
        started = time.perf_counter()
        try:
            res = wrp_conjugacy_search(a, b, epsilon, args.terms, args.depth)
        except InfeasibleError:
            rows.append([str(trial)] + _pair(epsilon) + ["", "", "", "infeasible", ""])
            continue
        except ValueError:
            rows.append([str(trial)] + _pair(epsilon) + ["", "", "", "failed", ""])
            continue
        elapsed = time.perf_counter() - started
        verified = action_dist(conjugate(res.phi, a), b, args.terms, args.depth)
        if verified != res.achieved:
            raise AssertionError("independent distance check disagrees with the search")
        rows.append(
            [str(trial)]
            + _pair(epsilon)
            + _pair(res.achieved)
            + [str(res.height), "ok", f"{elapsed:.3f}" if args.times else ""]
        )
    _emit_rows(args, rows)
    return 0


def cmd_graph_test(args) -> int:
    t = _load(args.table, ser.load_table, "table")
    epsilon = _fraction_arg(args.epsilon, "tolerance")
    ok, results = is_graph_sim(t, epsilon)
    p = t.partition.p
    mask = lambda m: "".join("1" if m >> i & 1 else "0" for i in range(p))
    if args.format == "json":
        _emit_json(
            args,
            {
                "ok": ok,
                "pairs": [
                    {
                        "alpha": list(alpha),
                        "beta": list(beta),
                        "ok": res.ok,
                        "diameter": format_rational(res.diameter),
                        "worst_b": mask(res.worst_b),
                        "best_a": mask(res.best_a),
                    }
                    for alpha, beta, res in results
                ],
            },
        )
    else:
        rows = [["alpha", "beta", "ok", "diameter", "diameter_exact", "worst_b", "best_a"]]
        for alpha, beta, res in results:
            rows.append(
                [
                    _beta_name(alpha),
                    _beta_name(beta),
                    "1" if res.ok else "0",
                    *_pair(res.diameter),
                    mask(res.worst_b),
                    mask(res.best_a),
                ]
            )
        _emit_text(args, _csv(rows))
    return 0


def cmd_factor_defect(args) -> int:
    a = _load(args.action, ser.load_action, "action")
    piece = _load(args.piece, ser.load_dyadic, "dyadic set")
    target = _load(args.target, ser.load_dyadic, "dyadic set")
    _positive_arg(args.w, "--w")
    _emit_values(args, {"defect": factor_defect(a, piece, target, Window(a.d, args.w))})
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simact",
        description="exact-arithmetic experiments on interval permutations and cylinder tables",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write output to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", parents=[common], help="distance between two actions")
    p.add_argument("action_a")
    p.add_argument("action_b")
    p.add_argument("--terms", type=int, default=6, help="group elements in the sum")
    p.add_argument("--depth", type=int, default=6, help="dyadic depth per element")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("embed", parents=[common], help="table of an action seen through an adaptation")
    p.add_argument("adaptation")
    p.add_argument("action")
    p.add_argument("--w", type=int, required=True, help="window width")
    p.add_argument("--cuts", required=True, help="partition cuts, comma separated rationals")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("recover", parents=[common], help="rebuild an action from a graph-like table")
    p.add_argument("table")
    p.add_argument("--epsilon", required=True, help="graph tolerance")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("realize", parents=[common], help="rank-1 action reproducing a table exactly")
    p.add_argument("table")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("smooth", parents=[common], help="blur a table along a delta ladder")
    p.add_argument("table")
    p.add_argument("--delta", required=True, help="largest blur width")
    p.add_argument("--steps", type=int, default=4, help="ladder rungs above zero")
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("wrp-demo", parents=[common], help="tower-matching conjugacy search on random pairs")
    p.add_argument("--seed", type=int, required=True, help="PRNG seed for the sampled permutation pairs")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--n", type=int, default=1024, help="resolution")
    p.add_argument("--min-cycle", type=int, default=64)
    p.add_argument("--epsilon", default="1/16")
    p.add_argument("--terms", type=int, default=6)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--times", action="store_true", help="fill the wall-clock column (breaks byte determinism)")
    p.set_defaults(func=cmd_wrp_demo)

    p = sub.add_parser("graph-test", parents=[common], help="two-time graph test over all window pairs")
    p.add_argument("table")
    p.add_argument("--epsilon", required=True)
    p.set_defaults(func=cmd_graph_test)

    p = sub.add_parser("factor-defect", parents=[common], help="distance from a target set to an itinerary algebra")
    p.add_argument("action")
    p.add_argument("--piece", required=True, help="dyadic set file generating the algebra")
    p.add_argument("--target", required=True, help="dyadic set file to approximate")
    p.add_argument("--w", type=int, default=2, help="window width")
    p.set_defaults(func=cmd_factor_defect)

    # only the subcommands that write rows can write either format
    for name in ("dist", "smooth", "wrp-demo", "graph-test", "factor-defect"):
        sub.choices[name].add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process: parse_args does not change it, so it is built once."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        sys.stderr.write(f"error: {e}\n")
        return e.code
    except ValueError as e:
        # a domain precondition the computation refused; input and usage
        # errors were already raised as CliError with their own codes
        sys.stderr.write(f"error: {e}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
