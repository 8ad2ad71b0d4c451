"""Package metadata: the public name list and the module imports."""
import ast
from pathlib import Path
from types import ModuleType

import parafusion

PACKAGE_DIR = Path(parafusion.__file__).resolve().parent


def test_all_lists_no_modules():
    assert parafusion.__all__
    for name in parafusion.__all__:
        assert not isinstance(getattr(parafusion, name), ModuleType), name


def test_modules_use_every_imported_name():
    # __init__.py imports names only to re-export them.
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} never uses {sorted(imported - used)}"


def test_no_module_imports_random():
    # An exact library makes no sampled checks.
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(n.split(".")[0] != "random" for n in names), path.name
