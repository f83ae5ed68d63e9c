"""Seeded random field generators for test corpora and verification suites.

Every generator draws white noise in physical space, moves to the
half spectrum (or, for ``divergence_free_field``, to the 2/3-rule cube that
holds its band), applies an exact radial support mask, and returns to
physical space, so the spectra carry exact zeros outside the declared
support instead of roundoff-level leakage from filtering real data.
"""

from __future__ import annotations

import numpy as np

from .littlewood_paley import FilterBank, TimeSeriesField
from .spectral import Field, FrequencyGrid, _leray, lp_norm

__all__ = [
    "sample_rng",
    "ring_field",
    "ball_field",
    "interior_field",
    "divergence_free_field",
    "decaying_series",
]


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Independent per-sample stream: the pair (seed, index) keys the state."""
    return np.random.default_rng([seed, index])


def _masked_noise(
    grid: FrequencyGrid, mask: np.ndarray, rng: np.random.Generator, components: int = 1,
) -> Field:
    white = rng.standard_normal((components,) + grid.shape)
    out = Field(grid, grid.ifft(grid.fft(white) * mask))
    scale = lp_norm(out, 2.0)
    if scale == 0.0:
        raise ValueError("support mask selects no lattice modes")
    return Field(grid, out.samples / scale)


def ring_field(grid: FrequencyGrid, lam: float, rng: np.random.Generator) -> Field:
    """Random unit-L2 scalar field with spectrum exactly in the annulus lam * [3/4, 8/3]."""
    mask = (grid.k_mag >= 0.75 * lam) & (grid.k_mag <= (8.0 / 3.0) * lam)
    return _masked_noise(grid, mask, rng)


def ball_field(grid: FrequencyGrid, lam: float, rng: np.random.Generator) -> Field:
    """Random unit-L2 mean-free scalar field with spectrum exactly inside |k| <= lam."""
    mask = (grid.k_mag <= lam) & (grid.k_mag > 0.0)
    return _masked_noise(grid, mask, rng)


def interior_field(
    grid: FrequencyGrid, bank: FilterBank, rng: np.random.Generator, components: int = 1,
) -> Field:
    """Random unit-L2 field supported on the interior band, where the shell
    partition sums exactly to one."""
    return _masked_noise(grid, grid.from_cube(bank.interior_mask()), rng, components)


def divergence_free_field(grid: FrequencyGrid, bank: FilterBank, rng: np.random.Generator) -> Field:
    """Random unit-L2 interior-band vector field, Leray-projected mode by mode.

    The band lies inside the 2/3-rule cube, where the masked noise is
    projected (within each mode, so the mask survives) and inverted once.
    """
    k = grid.cube_k
    white = rng.standard_normal((grid.d,) + grid.shape)
    hat = grid.fft(white, dealiased=True) * bank.interior_mask()
    out = Field(grid, grid.ifft(_leray(hat, k.k_axes, k.k_sq)))
    scale = lp_norm(out, 2.0)
    if scale == 0.0:
        raise ValueError("projection annihilated every selected mode")
    return Field(grid, out.samples / scale)


def decaying_series(
    grid: FrequencyGrid, bank: FilterBank, rng: np.random.Generator, times: np.ndarray
) -> TimeSeriesField:
    """Heat evolution of a random scalar interior-band field, sampled at ``times``.

    The multiplier e^{-|k|^2 t} is applied directly to the coefficient
    stack, which is the exact solution rather than a marched one.
    """
    f0 = interior_field(grid, bank, rng)
    times = np.asarray(times, dtype=np.float64)
    decay = np.exp(-np.multiply.outer(times, grid.cube_k.k_sq))[:, None]
    return TimeSeriesField(grid, times, decay * grid.fft(f0.samples, dealiased=True))
