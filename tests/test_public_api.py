"""Each layer's ``__all__`` is the one declaration of its public names.

The package ``cesaro`` re-exports nothing, so nothing else checks that a
layer's ``__all__`` names what it defines: every listed name must resolve,
each must be listed once, and every public name that another layer or the
console script takes from a layer must be listed there.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cesaro"
LAYERS = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def _names_taken_from(layer: str) -> set[str]:
    """Public names that ``from .<layer> import ...`` pulls into other layers,
    lazy imports inside functions included, plus the console-script entry."""
    taken = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == layer:
                taken.update(alias.name for alias in node.names)
    scripts = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    taken.update(re.findall(rf'^\w+ = "cesaro\.{layer}:(\w+)"$', scripts, re.MULTILINE))
    return {name for name in taken if not name.startswith("_")}


@pytest.mark.parametrize("layer", LAYERS)
def test_all_declares_each_public_name_once(layer):
    module = importlib.import_module(f"cesaro.{layer}")
    public = module.__all__
    assert [name for name in public if not hasattr(module, name)] == []
    assert sorted({name for name in public if public.count(name) > 1}) == []
    assert sorted(_names_taken_from(layer) - set(public)) == []
