import ast
import functools
import importlib
import inspect
import os
import runpy
import sys

from make_fixtures import RUNS, gold

import simact
from simact import cli

PACKAGE = os.path.dirname(simact.__file__)
TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def _package_trees():
    """(module name, parsed source) of every module in the package, by name."""
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                yield name[:-3], ast.parse(fh.read())


def test_every_package_export_is_in_its_modules_all():
    path = os.path.join(PACKAGE, "__init__.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    missing = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"simact.{node.module}")
            missing += [f"{node.module}.{alias.name}" for alias in node.names if alias.name not in module.__all__]
    assert missing == []


def test_every_all_entry_resolves():
    # an entry whose name was deleted would break `from module import *`
    stale = []
    for name, _tree in _package_trees():
        if not name.startswith("_"):
            module = importlib.import_module(f"simact.{name}")
            stale += [f"{name}.{entry}" for entry in getattr(module, "__all__", []) if not hasattr(module, entry)]
    assert stale == []


def test_every_traced_name_resolves():
    # the benchmark's tracer looks each target up with vars(owner)[attr]; a
    # deleted or renamed name would stop it with a KeyError
    missing = []
    for name, module, attr, cls, _extra in runpy.run_path(TRACING)["TARGETS"]:
        owner = vars(importlib.import_module(module))
        if cls:
            owner = vars(owner[cls]) if cls in owner else {}
        if attr not in owner:
            missing.append(name)
    assert missing == []


# the constants of the work formulas in simact.budget
WORK_CONSTANTS = {
    "MAX_WORK", "MAX_PATTERNS", "MAX_SMOOTH_WORK", "KEY_SLOTS", "SMEAR_SLOTS", "MAX_GRAPH_WORK", "PAIR_STEPS", "KEY_STEPS",
    "MAX_TABLE_WORK",
}


def test_only_budget_reads_the_work_constants():
    # a work formula copied back out of simact.budget would read them
    readers = []
    for name, tree in _package_trees():
        if name == "budget":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            readers += [f"{name}.py:{node.lineno} {n}" for n in names if n in WORK_CONSTANTS]
    assert readers == []


def test_oracles_import_no_private_kernel_helper():
    # an oracle that shares a kernel's helper cannot catch a fault in it
    path = os.path.join(os.path.dirname(__file__), "oracles.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    shared = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "simact"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert shared == []


def test_frozen_dataclasses_keep_their_generated_equality():
    # a frozen dataclass compares and hashes its fields; a hand-written
    # __eq__ or __hash__ means the fields are not the value's one form
    own = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            frozen = isinstance(node, ast.ClassDef) and any(
                isinstance(dec, ast.Call)
                and getattr(dec.func, "id", None) == "dataclass"
                and any(kw.arg == "frozen" and getattr(kw.value, "value", False) is True for kw in dec.keywords)
                for dec in node.decorator_list
            )
            if frozen:
                own += [
                    f"{name}.py:{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name in ("__eq__", "__hash__")
                ]
    assert own == []


# the kernels that may build a table without the constructor's checks:
# their inputs are checked tables, checked rows or an action
TRUSTED_TABLE_BUILDERS = [
    "equivalence.action_to_sim", "equivalence.embed_action", "sim.average_sims", "sim.marginalize_window", "sim.relabel",
]
# what builds a table from file input or from drawn numbers
CHECKED_TABLE_BUILDERS = [
    "sampling.diagonal_table", "sampling.iid_table", "sampling.markov_table", "sampling.random_graph_joining",
    "serialize.load_table",
]


def _top_level_functions():
    """("module.name" or "module.Class.name", node) of every function and
    method in the package, and ("module.<module>", node) of the other
    statements at module level."""
    for name, tree in _package_trees():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    yield f"{name}.{node.name}.{getattr(item, 'name', '<body>')}", item
            else:
                yield f"{name}.{getattr(node, 'name', '<module>')}", node


def _readers(attr, but):
    """Where an attribute `attr` of anything but the name `but` is read."""
    return sorted(
        {
            where
            for where, node in _top_level_functions()
            for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute)
            and sub.attr == attr
            and not (isinstance(sub.value, ast.Name) and sub.value.id == but)
        }
    )


def test_only_the_table_kernels_skip_the_table_checks():
    assert _readers("_trusted", but="IntervalPermutation") == TRUSTED_TABLE_BUILDERS


# what builds a permutation without the bijection check: a map laid out
# whole goes through `_trusted`, and a map scattered from matched pairs
# through `_matched`, whose matching is the proof
TRUSTED_PERMUTATION_BUILDERS = [
    "equivalence.realize_sim_as_action", "transform.IntervalPermutation._matched",
    "transform.IntervalPermutation.compose", "transform.IntervalPermutation.refine", "transform.identity",
]
MATCHED_PERMUTATION_BUILDERS = [
    "action._matched_tower_map", "action.conjugate", "equivalence._block_permutation",
    "sampling.permutation_from_cycle_lengths", "transform.IntervalPermutation.inverse",
    "transform.IntervalPermutation.power",
]


def test_only_whole_layouts_and_matched_pairs_skip_the_bijection_check():
    assert _readers("_trusted", but="CylinderTable") == TRUSTED_PERMUTATION_BUILDERS
    assert _readers("_matched", but="CylinderTable") == MATCHED_PERMUTATION_BUILDERS


def test_file_and_sampled_tables_go_through_the_checked_constructor():
    # each function of `sampling` that returns a table, and `load_table`,
    # returns only calls of the public constructor
    builders = {}
    for where, node in _top_level_functions():
        if where.startswith("sampling.") or where == "serialize.load_table":
            if isinstance(node, ast.FunctionDef) and getattr(node.returns, "id", None) == "CylinderTable":
                returns = [sub.value for sub in ast.walk(node) if isinstance(sub, ast.Return)]
                builders[where] = bool(returns) and all(
                    isinstance(value, ast.Call) and getattr(value.func, "id", None) == "CylinderTable"
                    for value in returns
                )
    assert builders == dict.fromkeys(CHECKED_TABLE_BUILDERS, True)


# each module's imports from inside the package: only the smear kernel in sim
# reads intervals, and the table layer reads no measure
IMPORT_GRAPH = {
    "__init__": ["action", "equivalence", "measure", "sim", "transform"],
    "__main__": ["cli"],
    "action": ["budget", "transform"],
    "budget": [],
    "cli": ["action", "budget", "equivalence", "rationals", "sampling", "serialize", "sim"],
    "equivalence": ["action", "budget", "measure", "sim", "transform"],
    "intervals": [],
    "measure": ["poly"],
    "poly": [],
    "rationals": [],
    "sampling": ["action", "budget", "measure", "sim", "transform"],
    "serialize": ["action", "budget", "equivalence", "measure", "rationals", "sim", "transform"],
    "sim": ["budget", "intervals"],
    "transform": ["budget"],
}


def test_package_import_graph():
    graph = {}
    for name, tree in _package_trees():
        deps = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps |= {node.module} if node.module else {alias.name for alias in node.names}
        graph[name] = sorted(deps)
    assert graph == IMPORT_GRAPH


def test_modules_import_no_private_name_from_each_other():
    # a helper two modules share is public API, named and documented as such
    shared = [
        f"{name}.py:{node.lineno} {node.module}.{alias.name}"
        for name, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert shared == []


# The public functions and methods that no command enters, grouped by what
# keeps them.  A new one shows up here as a diff in review.
UNREACHED_BY_COMMANDS = {
    # bench/tracing.py traces them by name
    "bench TARGETS": [
        "intervals.complement", "intervals.contains_point", "intervals.symdiff", "intervals.union",
        "intervals.wrapped_interval", "measure.Adaptation.compose", "measure.Adaptation.inverse",
        "measure.Adaptation.preimage_interval", "measure.Adaptation.sup_dist_to_identity",
        "serialize.dump_adaptation", "serialize.dump_dyadic", "serialize.dump_measure", "serialize.dump_permutation",
        "serialize.dump_witness", "serialize.load_measure", "serialize.load_permutation",
    ],
    # bench/workloads.py builds its job inputs with them
    "bench job builder": [
        "sampling.iid_table", "sampling.random_action", "sampling.random_graph_joining", "sampling.random_permutation",
        "sim.average_sims",
    ],
    # tests/test_acceptance.py reaches them, for the paper's statements
    "acceptance test": [
        "equivalence.adapt_table", "equivalence.continuity_bound_check", "equivalence.marginal",
        "measure.StepMeasure.cdf", "measure.StepMeasure.mass", "measure.StepMeasure.max_density",
        "measure.StepMeasure.total", "measure.convolve", "measure.from_piece_masses", "measure.is_good",
        "measure.lebesgue", "measure.pushforward", "measure.quantile_adaptation", "measure.uniform_on",
        "measure.weak_star_distance", "poly.p_add", "poly.p_antider", "poly.p_compose_affine", "poly.p_const",
        "poly.p_eval", "poly.p_integrate", "poly.p_make", "poly.p_min_on", "poly.p_mul", "poly.p_neg",
        "poly.p_scale", "poly.p_shift", "sampling.diagonal_table", "sampling.markov_table",
        "sampling.random_adaptation", "sampling.random_good_measure", "sampling.random_partition",
        "sim.is_graph_joining", "sim.overlap_rows", "transform.halmos_dist",
    ],
    # nothing above keeps them: only their own unit tests call them, and each
    # stays for the reason beside it
    "unit tests only": [
        "action.free_defect",  # freeness, the hypothesis of the WRP
        "equivalence.inverse_continuity_check",  # the companion of continuity_bound_check
        "measure.weak_star_tail",  # the truncation bound of weak_star_distance
        "sim.refine_partition",  # sim_dist calls it when the partitions differ
        "transform.DyadicSet.from_indices",  # rohlin_tower builds its base with it
        "transform.DyadicSet.mass",  # the measure of that base
        "transform.coarse_dist_tail",  # the truncation bound of coarse_dist
        "transform.rohlin_tower",  # the paper's Rohlin tower
        "transform.rotation",  # the README quick start uses it
        "transform.swap_halves",  # the README quick start uses it
    ],
}


def _code(member):
    """The code object a call to a module or class member runs, if any."""
    if isinstance(member, (classmethod, staticmethod)):
        member = member.__func__
    elif isinstance(member, property):
        member = member.fget
    elif isinstance(member, functools.cached_property):
        member = member.func
    return getattr(inspect.unwrap(member), "__code__", None)


def _public_code() -> dict:
    """{"module.name" or "module.Class.name": code} for every public function
    and method defined in the package's public modules."""
    out = {}
    for name, _tree in _package_trees():
        if name.startswith("_"):
            continue
        module = importlib.import_module(f"simact.{name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if isinstance(obj, type) else [("", obj)]
            for sub, member in members:
                code = _code(member)
                if code is not None and not sub.startswith("_"):
                    out[".".join(filter(None, (name, attr, sub)))] = code
    return out


def test_public_names_no_command_enters(tmp_path):
    public = _public_code()
    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    out = str(tmp_path / "out")
    # every golden command line, and the one command RUNS lacks
    runs = [argv for argv, _expected in RUNS] + [["recover", gold("diag_halves_table.json"), "--epsilon", "1/2"]]
    # as in a fresh process: the parser an earlier test built is cached
    cli._parser.cache_clear()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv + ["--out", out]) for argv in runs]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs)
    unreached = sorted(name for name, code in public.items() if code not in entered)
    assert unreached == sorted(name for names in UNREACHED_BY_COMMANDS.values() for name in names)
    traced = runpy.run_path(TRACING)["TARGETS"]
    names = {".".join(filter(None, (module.split(".")[1], cls, attr))) for _n, module, attr, cls, _x in traced}
    assert set(UNREACHED_BY_COMMANDS["bench TARGETS"]) == names & set(unreached)
