import ast
import importlib
import pkgutil
from pathlib import Path

import kfsteiner


def test_every_all_entry_resolves_and_every_package_import_is_listed():
    for info in pkgutil.iter_modules(kfsteiner.__path__):
        mod = importlib.import_module(f"kfsteiner.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"kfsteiner.{info.name}.__all__ lists {name}"
    tree = ast.parse(Path(kfsteiner.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        listed = importlib.import_module(f"kfsteiner.{node.module}").__all__
        for alias in node.names:
            assert alias.name in listed, f"{node.module}.__all__ lacks {alias.name}"


def test_no_module_checks_an_invariant_with_assert():
    # python -O strips assert statements; invariants must raise
    for path in sorted(Path(kfsteiner.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert statement at lines {lines}"
