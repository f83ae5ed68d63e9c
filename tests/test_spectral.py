import math

import numpy as np
import pytest
import scipy.fft

import half_spectrum_oracle
from lpmhd import mhd
from lpmhd.linear_solvers import _advection_rhs
from lpmhd.littlewood_paley import TimeSeriesField
from lpmhd.spectral import (
    Field,
    _check_divergence_free,
    _l2_norms,
    _samples_lp_norm,
    SpectralField,
    dealiased_product,
    divergence,
    leray_project,
    lp_norm,
    make_grid,
    mean_mode,
    tensor_divergence,
    to_physical,
    to_spectral,
)


def _random_field(grid, seed, components=1):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.standard_normal((components,) + grid.shape))


class TestFrequencyGrid:
    def test_roundtrip(self, grid):
        f = _random_field(grid, 0)
        back = grid.ifft(grid.fft(f.samples))
        np.testing.assert_allclose(back.real, f.samples, atol=1e-13)

    @pytest.mark.parametrize("d, n", [(2, 64), (3, 16)])
    def test_inverse_returns_owned_real_samples(self, d, n):
        grid = make_grid(d, n)
        hat = grid.fft(_random_field(grid, 1, components=d).samples)
        out = grid.ifft(hat)
        assert out.dtype == np.float64
        assert out.flags.owndata
        expected = np.fft.irfftn(hat, s=grid.shape, axes=tuple(range(1, d + 1)))
        assert np.max(np.abs(out - expected)) <= 1e-15 * np.max(np.abs(expected))

    @pytest.mark.parametrize("d, n, L", [(2, 64, 2.0 * math.pi), (3, 16, 2.0 * math.pi), (3, 32, 3.0)])
    @pytest.mark.parametrize("lead", [(1,), (3,), (9,), (2, 3)])
    def test_transforms_are_bitwise_scipys(self, d, n, L, lead):
        # numpy.fft runs the pocketfft that scipy.fft runs, and the axes go in
        # rfftn's order, so the bits agree; scipy is a test-only reference.
        grid = make_grid(d, n, L)
        samples = np.random.default_rng(n + len(lead)).standard_normal(lead + grid.shape)
        axes = tuple(range(-d, 0))
        hat = scipy.fft.rfftn(samples, axes=axes)
        cube = grid.to_cube(hat)
        np.testing.assert_array_equal(grid.fft(samples), hat)
        np.testing.assert_array_equal(grid.fft(samples, dealiased=True), cube)
        np.testing.assert_array_equal(grid.ifft(hat), scipy.fft.irfftn(hat, s=grid.shape, axes=axes))
        np.testing.assert_array_equal(
            grid.ifft(cube), scipy.fft.irfftn(grid.from_cube(cube), s=grid.shape, axes=axes))

    @staticmethod
    def _pocketfft_calls(d, n, monkeypatch) -> list:
        """(function, rows, line shape, axis) of each numpy.fft call made by one
        ``_assemble_sources`` snapshot and one ``_advection_rhs`` stage: the
        input's leading axes count as rows, as pocketfft sees them."""
        grid = make_grid(d, n)
        rng = np.random.default_rng(d)
        u, b, fhat = (grid.fft(rng.standard_normal((d,) + grid.shape), dealiased=True)
                      for _ in range(3))
        v = rng.standard_normal((d,) + grid.shape)
        calls = []
        for name in ("rfft", "fft", "ifft", "irfft"):
            def spy(a, *args, _original=getattr(np.fft, name), _name=name, **kwargs):
                calls.append((_name, math.prod(a.shape[:-d]), a.shape[-d:], kwargs["axis"]))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, spy)
        mhd._assemble_sources(*(TimeSeriesField(grid, [0.0], f[None]) for f in (u, b)))
        _advection_rhs(grid, fhat, v, None)
        return calls

    def test_every_3d_batch_holds_the_budget(self, monkeypatch):
        # 2**16 samples are 2 rows at N=32, so the (u, B) inverse (6 rows),
        # the product forward (15), the gradient inverse (9) and the advection
        # forward (3) go in 3, 8, 5 and 2 slices of 3 pocketfft calls each.
        calls = self._pocketfft_calls(3, 32, monkeypatch)
        assert max(rows for _, rows, _, _ in calls) == 2
        assert len(calls) == 3 * (3 + 8 + 5 + 2)

    def test_2d_batches_are_whole(self, monkeypatch):
        # At N=64 a batch holds 16 rows, and none here holds more than 7, so
        # each transform is the one batch it always was.
        assert self._pocketfft_calls(2, 64, monkeypatch) == [
            ("ifft", 4, (64, 22), -2), ("irfft", 4, (64, 22), -1),
            ("rfft", 7, (64, 64), -1), ("fft", 7, (64, 22), -2),
            ("ifft", 4, (64, 22), -2), ("irfft", 4, (64, 22), -1),
            ("rfft", 2, (64, 64), -1), ("fft", 2, (64, 22), -2),
        ]

    @pytest.mark.parametrize("d, n", [(2, 64), (3, 16)])
    def test_derivative_multipliers_cached_with_nyquist_zeroed(self, d, n):
        grid = make_grid(d, n)
        assert grid.ik is grid.ik
        assert grid.ik.shape == (d,) + grid.spectral_shape
        for a in range(d):
            nyquist = np.broadcast_to(np.abs(grid.k_axes[a]) == grid.k_nyquist, grid.spectral_shape)
            assert nyquist.any()
            assert np.all(grid.ik[a][nyquist] == 0.0)
            np.testing.assert_array_equal(
                grid.ik[a][~nyquist],
                np.broadcast_to(1j * grid.k_axes[a], grid.spectral_shape)[~nyquist],
            )

    @pytest.mark.parametrize("bad_n", [0, 6, 12, 63])
    def test_rejects_non_power_of_two(self, bad_n):
        with pytest.raises(ValueError):
            make_grid(2, bad_n, 2.0 * math.pi)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            make_grid(4, 64, 2.0 * math.pi)
        with pytest.raises(ValueError):
            make_grid(2, 64, -1.0)

    def test_wavenumber_extremes(self, grid):
        assert grid.k_min == 1.0
        assert grid.k_nyquist == 32.0
        assert grid.k_sq.max() == 2.0 * 32.0**2

    def test_coords_cover_box(self, grid):
        x1, x2 = grid.coords()
        assert x1.shape == grid.shape
        assert x1.min() == 0.0
        np.testing.assert_allclose(x1.max(), grid.L * (grid.N - 1) / grid.N)

    def test_equality_and_hash(self, grid):
        other = make_grid(2, 64, 2.0 * math.pi)
        assert grid == other
        assert hash(grid) == hash(other)
        assert grid != make_grid(2, 32, 2.0 * math.pi)


# Every default band and its cube: 2-D N = 8..256 and 3-D N = 8..64 on boxes
# whose L/2 pi has odd part 1, 1.5 and 3, and on two boxes off the dyadic ladder.
GRID_SWEEP = [(2, n) for n in (8, 16, 32, 64, 128, 256)] + [(3, n) for n in (8, 16, 32, 64)]
BOXES = [m * math.pi for m in (2.0, 1.0, 4.0, 3.0, 24.0, 2.5)] + [3.0]


class TestDealiasingCube:
    SIZES = [(d, n, L) for d in (2, 3) for n in (8, 16, 32, 64) for L in (2.0 * math.pi, 3.0)]

    def test_make_grid_builds_no_cube_index(self):
        grid = make_grid(2, 64)
        assert "cube" not in vars(grid) and "_cube_blocks" not in vars(grid)
        assert grid.cube is grid.cube

    @pytest.mark.parametrize("d, n", GRID_SWEEP)
    def test_cube_wavenumbers_are_the_gathered_half_spectrum_ones(self, d, n):
        for L in BOXES:
            grid = make_grid(d, n, L)
            assert "cube_k" not in vars(grid)
            cube = grid.cube_k
            assert grid.cube_k is cube
            for a, k in enumerate(cube.k_axes):  # broadcastable like k_axes
                assert k.shape == tuple(m if b == a else 1 for b, m in enumerate(grid.cube_shape))
            pairs = [(np.broadcast_to(k, grid.cube_shape),
                      grid.to_cube(np.broadcast_to(h, grid.spectral_shape)))
                     for k, h in zip(cube.k_axes, grid.k_axes)]
            pairs += [(cube.k_sq, grid.to_cube(grid.k_sq)), (cube.k_mag, grid.to_cube(grid.k_mag)),
                      (cube.ik, grid.to_cube(grid.ik)),
                      (-cube.k_sq * 2e-3, grid.to_cube(-grid.k_sq * 2e-3))]
            for got, want in pairs:
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d, n", [(2, 8), (2, 64), (3, 16), (3, 32)])
    def test_cube_is_the_dealias_mask(self, d, n):
        grid = make_grid(d, n)
        k = n // 3
        assert tuple(idx.size for idx in grid.cube) == (2 * k + 1,) * (d - 1) + (k + 1,)
        np.testing.assert_array_equal(grid.cube[-1], np.arange(k + 1))
        for rows in grid.cube[:-1]:
            np.testing.assert_array_equal(grid.m1d[rows], np.r_[0 : k + 1, -k:0])
        marked = np.zeros(grid.spectral_shape, dtype=bool)
        marked[np.ix_(*grid.cube)] = True
        np.testing.assert_array_equal(marked, grid.dealias_mask)

    @pytest.mark.parametrize("d, n, L", SIZES)
    def test_dealiased_forward_is_the_full_transform_gathered(self, d, n, L):
        grid = make_grid(d, n, L)
        samples = _random_field(grid, n + d, components=2).samples
        got = grid.fft(samples, dealiased=True)
        np.testing.assert_array_equal(got, grid.fft(samples)[(Ellipsis,) + np.ix_(*grid.cube)])

    @pytest.mark.parametrize("d, n, L", SIZES)
    def test_dealiased_inverse_is_the_full_transform_of_the_scatter(self, d, n, L):
        grid = make_grid(d, n, L)
        hat = grid.fft(_random_field(grid, n - d, components=2).samples)
        cube = hat[(Ellipsis,) + np.ix_(*grid.cube)]
        full = np.zeros_like(hat)
        full[(Ellipsis,) + np.ix_(*grid.cube)] = cube
        got = grid.ifft(cube)
        assert got.dtype == np.float64 and got.flags.owndata
        np.testing.assert_array_equal(got, grid.ifft(full))

    @pytest.mark.parametrize("d, n", [(2, 64), (3, 16)])
    def test_inverse_rejects_a_trailing_shape_of_neither_layout(self, d, n):
        grid = make_grid(d, n)
        wider = grid.cube_shape[:-1] + (grid.cube_shape[-1] + 1,)
        for tail in (grid.shape, wider):
            with pytest.raises(ValueError) as info:
                grid.ifft(np.zeros((2,) + tail, dtype=np.complex128))
            assert str(grid.spectral_shape) in str(info.value)
            assert str(grid.cube_shape) in str(info.value)

    @pytest.mark.parametrize("d, n", [(2, 64), (3, 16)])
    def test_gather_and_scatter_round_trip(self, d, n):
        grid = make_grid(d, n)
        hat = grid.fft(_random_field(grid, 3, components=d).samples)
        cube = grid.to_cube(hat)
        np.testing.assert_array_equal(grid.from_cube(cube), hat * grid.dealias_mask)
        np.testing.assert_array_equal(grid.to_cube(grid.from_cube(cube)), cube)

    def test_scatter_keeps_the_dtype(self):
        # As to_cube does; a real multiplier scatters to a real array.
        grid = make_grid(2, 64)
        cube = grid.to_cube(grid.fft(_random_field(grid, 4).samples))
        real = grid.from_cube(cube.real)
        assert real.dtype == np.float64 and grid.to_cube(real).dtype == np.float64
        assert real.tobytes() == grid.from_cube(cube).real.tobytes()

    @pytest.mark.parametrize("d, n", [(2, 64), (3, 16)])
    def test_divergence_check_reads_the_cube_like_its_scattered_copy(self, d, n):
        # Stacks of three snapshots: Leray-projected noise passes, the noise
        # itself fails; on the cube and on the half spectrum alike.
        grid = make_grid(d, n)
        noise = grid.fft(_random_field(grid, 11, components=3 * d).samples, dealiased=True)
        noise = noise.reshape((3, d) + grid.cube_shape)
        free = grid.to_cube(leray_project(SpectralField(grid, grid.from_cube(noise[0]))).coeffs)
        for cube, passes in ((np.stack([free, 2.0 * free, -free]), True), (noise, False)):
            outcomes = []
            for hats in (cube, grid.from_cube(cube)):
                try:
                    outcomes.append(_check_divergence_free(grid, hats, 1e-8, "div"))
                except ValueError as exc:
                    outcomes.append(str(exc))
            if passes:
                assert outcomes[0].shape == (3,)
                np.testing.assert_allclose(outcomes[0], outcomes[1], rtol=1e-14)
            else:
                assert outcomes[0] == outcomes[1] and outcomes[0].startswith("div = ")


class TestFieldTypes:
    def test_field_rejects_nonfinite(self, grid):
        bad = np.zeros((1,) + grid.shape)
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            Field(grid, bad)

    def test_field_arithmetic(self, grid):
        f = _random_field(grid, 1)
        g = _random_field(grid, 2)
        np.testing.assert_array_equal((f + g).samples, f.samples + g.samples)
        np.testing.assert_array_equal((f - g).samples, f.samples - g.samples)
        np.testing.assert_array_equal((2.0 * f).samples, 2.0 * f.samples)
        np.testing.assert_array_equal((-f).samples, -f.samples)


class TestLerayProjection:
    def test_output_divergence_free(self, grid):
        # Band-limited input: the divergence operator drops the unpaired
        # highest mode that the projection still sees, so they only agree
        # away from it (which is where dealiased products live anyway).
        raw = _random_field(grid, 6, components=2)
        v = Field(grid, grid.ifft(grid.fft(raw.samples) * grid.dealias_mask).real)
        proj = to_physical(leray_project(to_spectral(v)))
        assert lp_norm(divergence(proj), 2.0) < 1e-11 * lp_norm(v, 2.0)

    def test_idempotent(self, grid):
        v = _random_field(grid, 7, components=2)
        once = leray_project(to_spectral(v))
        twice = leray_project(once)
        np.testing.assert_allclose(twice.coeffs, once.coeffs, atol=1e-10)

    def test_leaves_its_argument_unchanged(self, grid):
        # The kernel projects in place; the public call copies once for its caller.
        F = to_spectral(_random_field(grid, 8, components=2))
        before = F.coeffs.copy()
        out = leray_project(F)
        assert out.coeffs is not F.coeffs
        np.testing.assert_array_equal(F.coeffs, before)
        assert not np.array_equal(out.coeffs, before)

    def test_fixes_divergence_free_input(self, grid):
        x1, x2 = grid.coords()
        v = Field(grid, np.stack([np.sin(x2), np.cos(x1)]))
        proj = to_physical(leray_project(to_spectral(v)))
        np.testing.assert_allclose(proj.samples, v.samples, atol=1e-12)


class TestNormsAndProducts:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_unit_constant_norm(self, grid, p):
        one = Field(grid, np.ones((1,) + grid.shape))
        np.testing.assert_allclose(lp_norm(one, p), 1.0, rtol=1e-14)

    @pytest.mark.parametrize("p", [1.0, 3.0, 4.0, 5.0, 2.5])
    def test_lp_reduction_matches_the_power_form(self, p):
        rng = np.random.default_rng(int(2 * p))
        samples = rng.standard_normal((3, 32, 32, 32)) * np.exp(rng.uniform(-3, 3, (1, 32, 32, 32)))
        mag_sq = np.sum(samples * samples, axis=0)
        want = np.mean(mag_sq ** (p / 2.0)) ** (1.0 / p)
        assert abs(_samples_lp_norm(samples, p) - want) <= 1e-15 * want

    def test_vector_magnitude_pointwise(self, grid):
        v = Field(grid, np.stack([3.0 * np.ones(grid.shape), 4.0 * np.ones(grid.shape)]))
        np.testing.assert_allclose(lp_norm(v, math.inf), 5.0, rtol=1e-14)

    def test_parseval(self):
        # Columns 0 and N/2 of the last axis count once, the others twice:
        # single modes in every kind of column, then white noise.
        for d, n in ((2, 64), (3, 16)):
            grid = make_grid(d, n)
            x_last = grid.coords()[-1]
            for m in (0, 1, 2, n // 2 - 1, n // 2):
                f = Field(grid, np.cos(m * x_last)[None])
                hat = grid.fft(f.samples)
                np.testing.assert_allclose(_l2_norms(grid, hat), lp_norm(f, 2.0), rtol=1e-13)
            f = _random_field(grid, 10, components=d)
            hat = grid.fft(f.samples)
            weighted = math.sqrt(float(np.sum(grid.parseval_weight * np.abs(hat) ** 2)))
            full = np.fft.fftn(f.samples, axes=tuple(range(1, d + 1)))
            full_side = math.sqrt(float(np.sum(np.abs(full) ** 2)))
            np.testing.assert_allclose(weighted, full_side, rtol=1e-13)
            np.testing.assert_allclose(lp_norm(f, 2.0), weighted / grid.N**d, rtol=1e-12)

    def test_mean_mode(self, grid):
        f = Field(grid, np.full((1,) + grid.shape, 2.5))
        np.testing.assert_allclose(mean_mode(f), [2.5], rtol=1e-14)

    def test_dealiased_product_is_mask_clean(self, grid):
        f = _random_field(grid, 11)
        g = _random_field(grid, 12)
        prod = dealiased_product(f, g)
        hat = grid.fft(prod.samples)
        peak = np.max(np.abs(hat))
        assert np.max(np.abs(hat[:, ~grid.dealias_mask])) <= 1e-13 * peak

    def test_dealiased_product_matches_low_mode_truth(self, grid):
        x1, x2 = grid.coords()
        f = Field(grid, np.cos(x1)[None])
        g = Field(grid, np.cos(x2)[None])
        prod = dealiased_product(f, g)
        np.testing.assert_allclose(prod.samples, (np.cos(x1) * np.cos(x2))[None],
                                   atol=1e-13)

    @pytest.mark.parametrize("d, n", [(2, 64), (3, 16)])
    def test_cube_products_match_the_half_spectrum_formulas(self, d, n):
        grid = make_grid(d, n)
        a = _random_field(grid, 4, components=d)
        b = _random_field(grid, 5, components=d)
        np.testing.assert_array_equal(
            dealiased_product(a, b).samples, half_spectrum_oracle.dealiased_product(a, b)
        )
        np.testing.assert_array_equal(
            tensor_divergence(a, b).samples, half_spectrum_oracle.tensor_divergence(a, b)
        )

    def test_tensor_divergence_matches_componentwise(self, grid):
        a = _random_field(grid, 13, components=2)
        b = _random_field(grid, 14, components=2)
        out = tensor_divergence(a, b)
        for i in range(2):
            row = dealiased_product(Field(grid, a.samples[i : i + 1]), b)
            np.testing.assert_allclose(out.samples[i], divergence(row).samples[0],
                                       atol=1e-9)
