"""Tests for the Bony decomposition and the product-law ratio checkers."""

import numpy as np
import pytest

import half_spectrum_oracle
from lpmhd import (
    BesovSpec,
    Field,
    TimeSeriesField,
    bony_decompose,
    build_filter_bank,
    dealiased_product,
    dyadic_block,
    decaying_series,
    interior_field,
    log_interpolation_ratio,
    lp_norm,
    make_grid,
    paraproduct,
    product_law_ratio,
    remainder,
    sample_rng,
)


class TestBonyDecomposition:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reconstruction(self, grid, bank, seed):
        rng = sample_rng(seed, 0)
        u = interior_field(grid, bank, rng)
        v = interior_field(grid, bank, rng)
        parts = bony_decompose(bank, u, v)
        total = parts.reconstruction()
        target = dealiased_product(u, v)
        err = lp_norm(total - target, 2.0)
        assert err <= 1e-10 * lp_norm(target, 2.0)

    def test_reconstruction_scalar_vector(self, grid, bank):
        rng = sample_rng(3, 0)
        u = interior_field(grid, bank, rng)
        v = interior_field(grid, bank, rng, components=2)
        parts = bony_decompose(bank, u, v)
        total = parts.reconstruction()
        target = dealiased_product(u, v)
        assert total.components == 2
        err = lp_norm(total - target, 2.0)
        assert err <= 1e-10 * lp_norm(target, 2.0)

    @pytest.mark.parametrize("d, n", [(2, 64), (3, 16)])
    @pytest.mark.parametrize("inputs", ["band-limited", "scalar x vector", "white noise"])
    def test_cube_products_match_the_half_spectrum_formulas(self, d, n, inputs):
        # White noise carries modes off the 2/3 cube; the products drop them.
        grid = make_grid(d, n)
        bank = build_filter_bank(grid)
        rng = sample_rng(5, d)
        if inputs == "white noise":
            u, v = (Field(grid, rng.standard_normal((d,) + grid.shape)) for _ in range(2))
        else:
            u = interior_field(grid, bank, rng, components=1 if inputs == "scalar x vector" else d)
            v = interior_field(grid, bank, rng, components=d)
        for a, b in ((u, v), (v, u)):
            np.testing.assert_array_equal(
                paraproduct(bank, a, b).samples, half_spectrum_oracle.paraproduct(bank, a, b)
            )
            np.testing.assert_array_equal(
                remainder(bank, a, b).samples, half_spectrum_oracle.remainder(bank, a, b)
            )

    def test_remainder_swap_is_bit_exact(self, grid, bank):
        rng = sample_rng(4, 0)
        u = interior_field(grid, bank, rng)
        v = interior_field(grid, bank, rng)
        fwd = remainder(bank, u, v)
        bwd = remainder(bank, v, u)
        assert np.array_equal(fwd.samples, bwd.samples)

    def test_remainder_of_separated_shells_vanishes(self, grid, bank):
        # |k| = 1 lives in shells {-1, 0}; |k| = 8 in {2, 3}.  No pair of
        # occupied shells is within one of each other, so only transform
        # rounding noise survives in the resonant part.
        x1, x2 = grid.coords()
        u = Field(grid, np.cos(x1)[None])
        v = Field(grid, np.cos(8.0 * x2)[None])
        r = remainder(bank, u, v)
        assert np.max(np.abs(r.samples)) <= 1e-13

    def test_remainder_couples_adjacent_shells(self, grid, bank):
        x1, x2 = grid.coords()
        u = Field(grid, np.cos(2.0 * x1)[None])
        v = Field(grid, np.cos(3.0 * x2)[None])
        r = remainder(bank, u, v)
        assert np.max(np.abs(r.samples)) > 1e-3

    def test_paraproduct_avoids_distant_low_shells(self, grid, bank):
        # u sits at |k| = 1, v at |k| = 8: every term of T_u v has spectrum
        # near |k| = 8, so the shell at j = -1 catches nothing at all.
        x1, x2 = grid.coords()
        u = Field(grid, np.cos(x1)[None])
        v = Field(grid, np.cos(8.0 * x2)[None])
        t = paraproduct(bank, u, v)
        scale = np.max(np.abs(t.samples))
        low = dyadic_block(bank, -1, t)
        assert np.max(np.abs(low.samples)) <= 1e-14 * scale
        high = dyadic_block(bank, 3, t)
        assert np.max(np.abs(high.samples)) > 1e-3

    def test_paraproduct_with_constant_low_factor(self, grid, bank):
        one = Field(grid, np.ones((1,) + grid.shape))
        rng = sample_rng(5, 0)
        v = interior_field(grid, bank, rng)
        t = paraproduct(bank, one, v)
        np.testing.assert_allclose(t.samples, v.samples, atol=1e-13)

    def test_grid_mismatch_rejected(self, grid, bank):
        other = make_grid(2, 32, grid.L)
        f = Field(other, np.ones((1, 32, 32)))
        g = Field(grid, np.ones((1,) + grid.shape))
        with pytest.raises(ValueError, match="different grids"):
            paraproduct(bank, f, g)

    def test_component_mismatch_rejected(self, grid, bank):
        rng = sample_rng(6, 0)
        f = interior_field(grid, bank, rng, components=2)
        g = interior_field(grid, bank, rng, components=3)
        with pytest.raises(ValueError, match="component"):
            remainder(bank, f, g)


class TestProductLawRatio:
    @pytest.mark.parametrize("variant", ["T", "R", "full", "mixed"])
    def test_report_well_formed(self, grid, bank, variant):
        rng = sample_rng(7, 0)
        f = interior_field(grid, bank, rng)
        g = interior_field(grid, bank, rng)
        s2 = 0.5 if variant == "mixed" else 1.0
        rep = product_law_ratio(bank, f, g, 1.0, s2, 2.0, variant, seed=7)
        assert rep.variant == variant
        assert rep.seed == 7
        assert not rep.degenerate
        assert np.isfinite(rep.ratio) and rep.ratio > 0.0
        rhs = np.prod([val for _, val in rep.factors])
        np.testing.assert_allclose(rep.ratio, rep.lhs / rhs, rtol=1e-12)

    def test_zero_field_reported_degenerate(self, grid, bank):
        z = Field(grid, np.zeros((1,) + grid.shape))
        rep = product_law_ratio(bank, z, z, 1.0, 1.0, 2.0, "full")
        assert rep.degenerate
        assert rep.ratio == 0.0

    def test_index_conditions_enforced(self, grid, bank):
        rng = sample_rng(8, 0)
        f = interior_field(grid, bank, rng)
        g = interior_field(grid, bank, rng)
        with pytest.raises(ValueError, match="variant T requires s2 <= d/p"):
            product_law_ratio(bank, f, g, 0.0, 3.0, 2.0, "T")
        with pytest.raises(ValueError, match="variant R requires s1"):
            product_law_ratio(bank, f, g, -1.0, 0.5, 2.0, "R")
        with pytest.raises(ValueError, match="variant full requires s1, s2"):
            product_law_ratio(bank, f, g, 3.0, 0.0, 2.0, "full")
        with pytest.raises(ValueError, match="variant mixed requires s1"):
            product_law_ratio(bank, f, g, 0.0, 1.0, 2.0, "mixed")
        with pytest.raises(ValueError, match="unknown variant"):
            product_law_ratio(bank, f, g, 0.0, 0.0, 2.0, "bogus")

    def test_low_p_sum_condition(self, grid, bank):
        # At p = 1 the lower bound d*(2/p - 1) = 2 is active.
        rng = sample_rng(9, 0)
        f = interior_field(grid, bank, rng)
        g = interior_field(grid, bank, rng)
        with pytest.raises(ValueError, match="s1\\+s2"):
            product_law_ratio(bank, f, g, 1.0, 0.5, 1.0, "full")
        rep = product_law_ratio(bank, f, g, 1.5, 1.0, 1.0, "full")
        assert np.isfinite(rep.ratio)


class TestLogInterpolationRatio:
    def _series(self, grid, bank, seed=10):
        times = np.linspace(0.0, 0.1, 6)
        return decaying_series(grid, bank, sample_rng(seed, 0), times)

    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
    def test_ratio_finite_and_moderate(self, grid, bank, eps):
        series = self._series(grid, bank)
        rep = log_interpolation_ratio(series, 1.0, 2.0, 1.0, eps, bank, seed=10)
        assert rep.variant == "loginterp"
        assert not rep.degenerate
        assert 0.0 < rep.ratio < 10.0
        assert rep.indices["eps"] == eps

    def test_eps_range_enforced(self, grid, bank):
        series = self._series(grid, bank)
        with pytest.raises(ValueError, match="eps"):
            log_interpolation_ratio(series, 1.0, 2.0, 1.0, 0.0, bank)
        with pytest.raises(ValueError, match="eps"):
            log_interpolation_ratio(series, 1.0, 2.0, 1.0, 1.5, bank)

    def test_zero_series_degenerate(self, grid, bank):
        times = np.linspace(0.0, 0.1, 4)
        zero = Field(grid, np.zeros((1,) + grid.shape))
        series = TimeSeriesField.from_snapshots(times, [zero] * 4)
        rep = log_interpolation_ratio(series, 1.0, 2.0, 1.0, 0.5, bank)
        assert rep.degenerate
        assert rep.ratio == 0.0

    def test_sharper_bridge_tightens_bound(self, grid, bank):
        # Larger eps widens the bridge norms but also divides them out, so
        # the measured ratio should stay within a small factor across eps.
        series = self._series(grid, bank, seed=11)
        ratios = [
            log_interpolation_ratio(series, 1.0, 2.0, 1.0, eps, bank).ratio
            for eps in (0.25, 1.0)
        ]
        assert max(ratios) < 8.0 * min(ratios)
