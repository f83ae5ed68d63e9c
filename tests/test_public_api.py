"""The package's public surface: each module's ``__all__`` and the names the
package re-exports from it agree, so a name deleted from a module cannot
linger in either list."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


# Runs both transform layouts and every trapezoid call site (the running norms
# of run_iteration, the transport report's V and rhs, osgood_check) and prints
# every scipy module the process loaded, and OpenSSL's _hashlib.  The package
# runs on numpy alone; scipy.fft would add about 23 MB of resident memory,
# scipy.integrate about 25 MB more, and _hashlib (loaded by a module-level
# ``import hashlib``) about 3.6 MB.
_FOOTPRINT_SCRIPT = """
import sys
import numpy as np
import lpmhd, lpmhd.cli
from lpmhd import IterationConfig, run_iteration, taylor_green_data
from lpmhd.linear_solvers import TransportProblem, solve_transport, transport_estimate_report
from lpmhd.littlewood_paley import TimeSeriesField
from lpmhd.mhd import osgood_check
from lpmhd.spectral import Field

config = IterationConfig(N=16, t_max=0.01, max_iterations=1, tolerance=0.0)
grid = config.grid()
run_iteration(taylor_green_data(grid), config)
x1, x2 = grid.coords()
v = Field(grid, np.stack([np.sin(x2), np.zeros(grid.shape)]))
problem = TransportProblem(Field(grid, np.cos(x1)[None]),
                           TimeSeriesField.from_snapshots(np.array([0.0, 0.01]), [v, v]),
                           None, 0.01, 2e-3)
transport_estimate_report(solve_transport(problem), problem, 1.0, 2.0, 1.0, config.bank(grid))
osgood_check(np.array([0.0, 0.1, 0.2]), np.array([0.0, 1e-3, 2e-3]), 1.0, 1.0, 1e-6)
print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "_hashlib")))
"""


def test_runs_load_no_scipy():
    src = str(Path(lpmhd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip().splitlines()[-1] == "[]"
