"""Package metadata: the public name list and the module imports."""
import ast
from pathlib import Path
from types import ModuleType

import parafusion

PACKAGE_DIR = Path(parafusion.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]


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


def _referenced_names(tree: ast.AST) -> set[str]:
    # Names, attributes, imported names, and strings (the bench tracer
    # looks its targets up by name).
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_definition_is_used_elsewhere():
    # A public top-level def or class of the package that nothing outside
    # its own body names, in the package, the tests or the benchmarks, is
    # dead code.
    outside = [REPO / "tests", REPO / "benchmarks"]
    names = set()
    for path in (p for d in outside for p in sorted(d.glob("*.py"))):
        names |= _referenced_names(ast.parse(path.read_text()))
    statements = [
        (path.name, stmt, _referenced_names(stmt))
        for path in sorted((REPO / "src" / "parafusion").glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    unused = [
        f"{module}:{node.name}"
        for module, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in names
        and not any(node.name in refs for _, s, refs in statements if s is not node)
    ]
    assert not unused, unused
