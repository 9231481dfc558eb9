"""Module boundaries inside the package: no module imports another's
private (underscore) names, so each policy is written where it is owned."""

import ast
from pathlib import Path

import hornlearn

SRC = Path(hornlearn.__file__).parent


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not found, found
