"""Every import in ``src/cesaro`` is used, declared, or tagged ``# noqa: F401``.

No linter runs on this package, so this is the one check on its imports:
a name a module imports must be read in that module or listed in its
``__all__``, unless the import's line carries ``# noqa: F401`` (the
benchmark tracer wraps some functions under every module that imports
them); and a tagged line must hold an import that is otherwise unused,
so the tag cannot outlive its reason.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cesaro"
TAG = "# noqa: F401"


def _imports_and_uses(source: str):
    """Each import statement's source lines and bound names, and the names read."""
    tree = ast.parse(source)
    imports, used = [], {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            lines = source.splitlines()[node.lineno - 1:node.end_lineno]
            imports.append((node.lineno, "\n".join(lines), names))
    return imports, used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_imports_are_used_or_tagged(path):
    imports, used = _imports_and_uses(path.read_text(encoding="utf-8"))
    for lineno, text, names in imports:
        unused = [name for name in names if name not in used]
        if TAG in text:
            assert unused, f"{path.name}:{lineno}: {TAG} on an import whose names are all used"
        else:
            assert unused == [], f"{path.name}:{lineno}: unused import {unused}"


def test_an_unused_import_is_found():
    imports, used = _imports_and_uses("import os\nfrom math import pi, tau\nprint(pi)\n")
    assert [[name for name in names if name not in used] for _, _, names in imports] == [
        ["os"], ["tau"]
    ]
