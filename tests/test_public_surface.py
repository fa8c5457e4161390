import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import kfsteiner


def test_every_all_entry_resolves_and_the_package_root_re_exports_nothing():
    for info in pkgutil.iter_modules(kfsteiner.__path__):
        mod = importlib.import_module(f"kfsteiner.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"kfsteiner.{info.name}.__all__ lists {name}"
    # every name is imported from its module: the root imports numpy alone
    tree = ast.parse(Path(kfsteiner.__file__).read_text(encoding="utf-8"))
    imports = [ast.unparse(node) for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports == ["import numpy as _np"]


def test_every_class_and_function_in_all_is_defined_in_its_module():
    # a name is imported from the module that defines it, never from a re-export
    for info in pkgutil.iter_modules(kfsteiner.__path__):
        mod = importlib.import_module(f"kfsteiner.{info.name}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == mod.__name__, (
                    f"{mod.__name__}.__all__ lists {name} from {obj.__module__}"
                )


def test_no_module_checks_an_invariant_with_assert():
    # python -O strips assert statements; invariants must raise
    for path in sorted(Path(kfsteiner.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert statement at lines {lines}"


def test_every_call_site_the_benchmark_traces_resolves(monkeypatch):
    # perfbench/run.py --trace 1 wraps these names; a rename in src/ that
    # drops one would break the traced benchmark runs
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("perfbench_worker", bench / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    importlib.import_module("kfsteiner.cli")
    targets = worker._targets(kfsteiner)
    assert targets
    for owner, attr, name, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


def _private_definitions(tree):
    """The module-level functions, classes and constants whose names start
    with one underscore, with the node that defines each."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_name_is_used_in_src():
    # a private name that only tests reach is dead code that tests keep alive
    src = Path(kfsteiner.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            # a bare name is read in the module itself or in a module that
            # imports it from there; `module._name` may be read anywhere
            readers = [tree] + [
                other for other in trees.values()
                if any(isinstance(node, ast.ImportFrom) and node.module == module
                       and any(alias.name == name for alias in node.names)
                       for node in ast.walk(other))]
            uses = [node for reader in readers for node in ast.walk(reader)
                    if id(node) not in inside
                    and isinstance(node, ast.Name) and node.id == name
                    and isinstance(node.ctx, ast.Load)]
            uses += [node for other in trees.values() for node in ast.walk(other)
                     if isinstance(node, ast.Attribute) and node.attr == name]
            assert uses, f"kfsteiner.{module}.{name} is used nowhere in src"
