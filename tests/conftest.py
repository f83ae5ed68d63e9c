import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lpmhd import (
    FilterBank,
    FrequencyGrid,
    IterationConfig,
    build_filter_bank,
    make_grid,
    run_iteration,
    taylor_green_data,
)


@pytest.fixture(scope="session")
def full_lattice():
    """Expands a radial array on the half spectrum (``grid.k_sq``, or
    ``grid.from_cube`` of the bank's phi or of a low-pass multiplier, which
    live on the 2/3-rule cube) to the full N^d lattice in FFT order, as the
    oracles expect: column m of the last axis carries the value of column |m|."""

    def expand(grid, arr):
        return np.take(arr, np.abs(grid.m1d), axis=-1)

    return expand


@pytest.fixture(scope="session")
def grid():
    return make_grid(2, 64, 2.0 * math.pi)


@pytest.fixture(scope="session")
def bank(grid):
    return build_filter_bank(grid)


@pytest.fixture(scope="session")
def acceptance_run():
    """Full-depth cellular-data run shared by the slow acceptance checks.

    tolerance = 0 disables early convergence exit, so all twelve iterates
    are produced and monitored.
    """
    config = IterationConfig(max_iterations=12, tolerance=0.0)
    data = taylor_green_data(config.grid())
    return data, config, run_iteration(data, config)


@pytest.fixture
def count_transforms(monkeypatch):
    """Call to start counting FrequencyGrid.fft/ifft calls; returns the live Counter."""

    def start() -> Counter:
        counts = Counter()
        for name in ("fft", "ifft"):
            original = getattr(FrequencyGrid, name)

            def counted(self, arr, *args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(self, arr, *args, **kwargs)

            monkeypatch.setattr(FrequencyGrid, name, counted)
        return counts

    return start


@pytest.fixture
def count_banks(monkeypatch):
    """Call to start counting FilterBank builds; returns the live list of built banks."""

    def start() -> list:
        built = []
        original = FilterBank.__init__

        def counted(self, *args, **kwargs):
            original(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(FilterBank, "__init__", counted)
        return built

    return start
