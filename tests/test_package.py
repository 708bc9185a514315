import ast
import importlib
import os

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
