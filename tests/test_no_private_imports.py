"""An underscore name is private to the module that defines it: no
latfix module imports one from another latfix module.  A helper that
another module needs is public, so its callers and its tests see it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "latfix"


def _imported_module(path: Path, node: ast.ImportFrom) -> str:
    """Dotted name of the module a `from ... import` reads from."""
    if not node.level:
        return node.module or ""
    package = path.relative_to(SRC.parent).parts[:-1]
    base = package[: len(package) - node.level + 1]
    return ".".join(base + ((node.module,) if node.module else ()))


def test_no_latfix_module_imports_a_private_name():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = _imported_module(path, node)
            if module != "latfix" and not module.startswith("latfix."):
                continue
            found += [
                f"{path.relative_to(SRC)}:{node.lineno} {module}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.startswith("__")
            ]
    assert found == []
