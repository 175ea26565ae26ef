"""The library states its guarantees as raised errors: a bare `assert`
vanishes under `python -O`, so none may appear under src/latfix."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "latfix"


def test_library_has_no_assert_statement():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
