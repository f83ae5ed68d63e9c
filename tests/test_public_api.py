"""The package's public surface: each module's ``__all__`` and the names the
package re-exports from it agree, so a name deleted from a module cannot
linger in either list."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import lpmhd

MODULES = sorted(info.name for info in pkgutil.iter_modules(lpmhd.__path__))


def _package_imports() -> dict:
    """Module name -> names that ``lpmhd/__init__.py`` imports from it."""
    tree = ast.parse(Path(lpmhd.__file__).read_text())
    return {
        node.module: [alias.name for alias in node.names]
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"lpmhd.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing, f"lpmhd.{name}.__all__ names undefined {missing}"


def test_package_reexports_only_public_names():
    imports = _package_imports()
    assert "spectral" in imports and set(imports) <= set(MODULES)
    for name, names in imports.items():
        module = importlib.import_module(f"lpmhd.{name}")
        stray = [n for n in names if n not in module.__all__]
        assert not stray, f"lpmhd imports {stray} from {name}, which its __all__ omits"
        assert all(getattr(lpmhd, n) is getattr(module, n) for n in names)
