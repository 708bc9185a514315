import ast
import importlib
import os
import runpy

import simact


def test_every_package_export_is_in_its_modules_all():
    path = os.path.join(os.path.dirname(simact.__file__), "__init__.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    missing = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"simact.{node.module}")
            missing += [f"{node.module}.{alias.name}" for alias in node.names if alias.name not in module.__all__]
    assert missing == []


def test_every_traced_name_resolves():
    # the benchmark's tracer looks each target up with vars(owner)[attr]; a
    # deleted or renamed name would stop it with a KeyError
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
    missing = []
    for name, module, attr, cls, _extra in runpy.run_path(path)["TARGETS"]:
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
    package = os.path.dirname(simact.__file__)
    readers = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "budget.py":
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            readers += [f"{name}:{node.lineno} {n}" for n in names if n in WORK_CONSTANTS]
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
    package = os.path.dirname(simact.__file__)
    own = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            frozen = isinstance(node, ast.ClassDef) and any(
                isinstance(dec, ast.Call)
                and getattr(dec.func, "id", None) == "dataclass"
                and any(kw.arg == "frozen" and getattr(kw.value, "value", False) is True for kw in dec.keywords)
                for dec in node.decorator_list
            )
            if frozen:
                own += [
                    f"{name}:{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name in ("__eq__", "__hash__")
                ]
    assert own == []
