"""Tests for the seeded random field generators."""

from collections import Counter

import numpy as np
import pytest

from lpmhd import (
    Field,
    SpectralField,
    build_filter_bank,
    divergence,
    divergence_free_field,
    leray_project,
    lp_norm,
    make_grid,
    sample_rng,
)
from lpmhd.spectral import _leray

GRIDS = [(2, 64), (3, 32)]


def _band(grid, bank):
    return (grid.k_mag >= 2.0 ** (bank.j_min + 1)) & (grid.k_mag <= 2.0 ** (bank.j_max - 1))


def _round_trip_recipe(grid, bank, rng):
    """``divergence_free_field`` before it kept its spectrum: masked noise is
    inverted, transformed again, projected and inverted, on the half spectrum."""
    white = rng.standard_normal((grid.d,) + grid.shape)
    raw = grid.ifft(grid.fft(white) * _band(grid, bank))
    out = grid.ifft(leray_project(SpectralField(grid, grid.fft(raw))).coeffs)
    return out / lp_norm(Field(grid, out), 2.0)


class TestDivergenceFreeField:
    @pytest.mark.parametrize("d, n", GRIDS)
    def test_one_forward_and_one_inverse_transform(self, d, n, count_transforms):
        grid = make_grid(d, n)
        bank = build_filter_bank(grid)
        counts = count_transforms()
        divergence_free_field(grid, bank, sample_rng(0, 0))
        assert counts == Counter(fft=1, ifft=1)

    @pytest.mark.parametrize("d, n", GRIDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_round_trip_recipe(self, d, n, seed):
        grid = make_grid(d, n)
        bank = build_filter_bank(grid)
        f = divergence_free_field(grid, bank, sample_rng(seed, 0))
        want = _round_trip_recipe(grid, bank, sample_rng(seed, 0))
        assert np.max(np.abs(f.samples - want)) <= 1e-15 * np.max(np.abs(want))
        assert abs(lp_norm(f, 2.0) - 1.0) <= 1e-15
        assert lp_norm(divergence(f), 2.0) <= 1e-12
        hat = grid.fft(f.samples)
        assert np.max(np.abs(hat[:, ~_band(grid, bank)])) <= 1e-14 * np.max(np.abs(hat))

    @pytest.mark.parametrize("d, n", GRIDS)
    def test_cube_form_is_the_half_spectrum_form(self, d, n):
        # The masked spectrum is exactly zero off the band, which lies in the cube.
        grid = make_grid(d, n)
        bank = build_filter_bank(grid)
        f = divergence_free_field(grid, bank, sample_rng(3, 1))
        white = sample_rng(3, 1).standard_normal((d,) + grid.shape)
        out = grid.ifft(_leray(grid.fft(white) * _band(grid, bank), grid.k_axes, grid.k_sq))
        np.testing.assert_array_equal(f.samples, out / lp_norm(Field(grid, out), 2.0))

    def test_empty_band_rejected(self):
        grid = make_grid(2, 8)
        with pytest.raises(ValueError, match="annihilated every selected mode"):
            divergence_free_field(grid, build_filter_bank(grid), sample_rng(0, 0))
