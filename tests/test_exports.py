import ast
import importlib
import pkgutil
from pathlib import Path

import dynbatch

#: Every module of the package but ``__main__``, which runs the command line.
MODULES = [m.name for m in pkgutil.iter_modules(dynbatch.__path__) if m.name != "__main__"]


def test_every_name_in_all_exists():
    for name in MODULES:
        module = importlib.import_module(f"dynbatch.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, (name, missing)


def test_init_imports_only_exported_names():
    tree = ast.parse(Path(dynbatch.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports and all(isinstance(node, ast.ImportFrom) and node.level == 1
                           for node in imports)
    for node in imports:
        exported = importlib.import_module(f"dynbatch.{node.module}").__all__
        stale = [alias.name for alias in node.names if alias.name not in exported]
        assert not stale, (node.module, stale)
