import math
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, trapezoid

import shell_norm_oracle
from lpmhd import TransportProblem, littlewood_paley, solve_transport, transport_estimate_report
from lpmhd.littlewood_paley import (
    BesovSpec,
    FilterBank,
    TimeSeriesField,
    bernstein_ratios,
    besov_norm,
    build_filter_bank,
    chemin_lerner_norm,
    chemin_lerner_trace,
    default_band,
    dyadic_block,
    low_pass,
    lq_besov_norm,
    shell_lp_matrix,
)
from lpmhd.mhd import select_time_horizon
from lpmhd.random_fields import (
    ball_field,
    decaying_series,
    divergence_free_field,
    interior_field,
    ring_field,
    sample_rng,
)
from lpmhd.spectral import (
    Field,
    FrequencyGrid,
    SpectralField,
    _dealiased_samples,
    lp_norm,
    make_grid,
    to_spectral,
)


# The sweep of test_spectral.GRID_SWEEP and BOXES.
GRID_SWEEP = [(2, n) for n in (8, 16, 32, 64, 128, 256)] + [(3, n) for n in (8, 16, 32, 64)]
BOXES = [m * math.pi for m in (2.0, 1.0, 4.0, 3.0, 24.0, 2.5)] + [3.0]


class TestFilterBank:
    def test_default_band(self, grid):
        assert default_band(grid) == (-2, 3)

    @pytest.mark.parametrize("d, n, L, digest", [
        (2, 64, 2.0 * math.pi, "85fcf61b4eb80f1670f89027fa8b15b40a6339f5c192617729f6406373b1b2d2"),
        (3, 32, 2.0 * math.pi, "d6283e954735d8e76f6253fa445417916755c3cf327d243de26fe79f2550d52b"),
        (2, 32, 3.0 * math.pi, "a4976f3e146f4845577b4b77a88abb3b665759aa7a7cc5dee890f97d3ca54829"),
    ])
    def test_fingerprint_is_pinned(self, d, n, L, digest):
        # The hash of filter_bank.json, as the half-spectrum bank gave it.
        assert build_filter_bank(make_grid(d, n, L)).fingerprint()["phi_sha256"] == digest

    @staticmethod
    def _denominator(rho):
        """sum_k psi(2^-k rho), one bump per k, over every k that can contribute."""
        pos = rho[rho > 0.0]
        k_lo = math.floor(math.log2(pos.min() / littlewood_paley.ANNULUS_HI))
        k_hi = math.ceil(math.log2(pos.max() / littlewood_paley.ANNULUS_LO))
        den = np.zeros_like(rho)
        for k in range(k_lo, k_hi + 1):
            den += littlewood_paley._bump(rho * 2.0 ** (-k))
        return den

    @pytest.mark.parametrize("d, n", GRID_SWEEP)
    def test_cube_bank_is_the_gathered_half_spectrum_formula(self, d, n):
        # The bank as built on the half spectrum: phi_j over the grid's |k|, and
        # S_j as the mean indicator plus each shell below j, added in turn.
        for L in BOXES:
            grid = make_grid(d, n, L)
            bank = build_filter_bank(grid)
            assert bank.phi.shape[1:] == grid.cube_shape
            rho = grid.k_mag
            den = self._denominator(rho)
            den = np.where(den > 0.0, den, 1.0)
            phi = np.stack([np.where(rho > 0.0, littlewood_paley._bump(rho * 2.0**-j) / den, 0.0)
                            for j in bank.shells])
            assert grid.from_cube(bank.phi).tobytes() == phi.tobytes()  # +0.0 off the cube
            lows = [(rho == 0.0).astype(np.float64)]
            for row in phi:
                lows.append(lows[-1] + row)
            band = (rho >= 2.0 ** (bank.j_min + 1)) & (rho <= 2.0 ** (bank.j_max - 1))
            assert grid.from_cube(bank.interior_mask()).tobytes() == band.tobytes()  # in the cube
            pairs = [(bank.phi, phi), (bank.mean_indicator, lows[0]),
                     (bank.interior_mask(), band)] + [
                (bank.lowpass_multiplier(j), low)
                for j, low in zip(range(bank.j_min, bank.j_max + 2), lows)]
            for got, want in pairs:
                assert got.dtype == want.dtype and got.tobytes() == grid.to_cube(want).tobytes()

    @pytest.mark.parametrize("d, n", [(2, 64), (3, 32), (2, 8)])
    def test_bank_evaluates_the_bump_once(self, d, n, monkeypatch):
        # Every dyadic bump of the bank comes from one call on a stacked array.
        calls = []

        def counted(rho):
            calls.append(rho.shape)
            return bump(rho)

        bump = littlewood_paley._bump
        monkeypatch.setattr(littlewood_paley, "_bump", counted)
        grid = make_grid(d, n)
        bank = build_filter_bank(grid)
        assert len(calls) == 1 and calls[0][1:] == grid.cube_shape
        assert calls[0][0] >= bank.n_shells

    @staticmethod
    def _nyquist_band(grid):
        """The band whose top annulus fits under the Nyquist radius pi N / L."""
        j_max = math.floor(math.log2(3.0 * grid.k_nyquist / 8.0) + 1e-12)
        j_min = math.floor(math.log2(3.0 * grid.k_min / 8.0) + 1e-12)
        return min(j_min, j_max - 3), j_max

    @pytest.mark.parametrize("a", [-2, -1, 0, 1, 2])
    def test_band_ends_where_the_nyquist_band_did_on_dyadic_boxes(self, a):
        # At L = 2 pi 2^a the cube radius k_min N/3 and the Nyquist radius
        # leave the same last shell.
        for d, sizes in ((2, (8, 16, 32, 64, 128, 256)), (3, (8, 16, 32))):
            for N in sizes:
                grid = make_grid(d, N, 2.0 * math.pi * 2.0**a)
                assert default_band(grid) == self._nyquist_band(grid)

    @pytest.mark.parametrize("ratio", [1.25, 1.5, 3.0, 5.0, 6.0, 12.0])
    def test_band_ends_one_shell_lower_where_the_cube_is_tighter(self, ratio):
        # L/(2 pi) with odd part in (1, 1.5]: the Nyquist band's top shell
        # reaches past the cube radius.
        for N in (16, 32, 64):
            grid = make_grid(2, N, 2.0 * math.pi * ratio)
            j_max = default_band(grid)[1]
            assert j_max == self._nyquist_band(grid)[1] - 1
            assert (8.0 / 3.0) * 2.0**j_max <= grid.k_min * N / 3.0
            assert (8.0 / 3.0) * 2.0 ** (j_max + 1) > grid.k_min * N / 3.0

    def test_every_shell_lives_on_the_cube(self):
        for L in (2.0 * math.pi, 3.0 * math.pi, 3.0, 24.0 * math.pi):
            grid = make_grid(2, 32, L)
            bank = build_filter_bank(grid)
            assert not grid.from_cube(bank.phi)[:, ~grid.dealias_mask].any()

    def test_partition_exact_on_interior(self, bank):
        assert bank.partition_defect() == 0.0

    def test_partition_bounded_everywhere(self, grid, bank):
        total = bank.phi.sum(axis=0) + bank.mean_indicator
        assert float(total.max()) <= 1.0 + 1e-14
        assert float(total.min()) >= 0.0

    def test_band_validation(self, grid):
        with pytest.raises(ValueError):
            FilterBank(grid, 0, 2)
        with pytest.raises(ValueError):
            FilterBank(grid, -2, 6)
        # At L = 3 pi, N = 64 the Nyquist band's top shell j = 3 reaches
        # (8/3) 8 = 21.3, past the cube radius (2/3) 64 / 3 = 14.2.
        wide = make_grid(2, 64, 3.0 * math.pi)
        assert self._nyquist_band(wide) == (-2, 3) and default_band(wide) == (-2, 2)
        with pytest.raises(ValueError, match=r"top shell exceeds the 2/3-rule cube: "
                                             r"\(8/3\)\*2\^3 > k_min\*N/3 = 14\.2222"):
            FilterBank(wide, -2, 3)

    def test_shell_bookkeeping(self, bank):
        assert list(bank.shells) == list(range(bank.j_min, bank.j_max + 1))
        assert bank.n_shells == len(bank.shells)
        for pos, j in enumerate(bank.shells):
            assert bank.index(j) == pos

    def test_quasi_orthogonality_bit_exact(self, grid, bank):
        rng = np.random.default_rng(0)
        f = to_spectral(Field(grid, rng.standard_normal((1,) + grid.shape)))
        for j in bank.shells:
            for k in bank.shells:
                if abs(j - k) < 2:
                    continue
                composed = dyadic_block(bank, k, dyadic_block(bank, j, f))
                assert np.max(np.abs(composed.coeffs)) == 0.0

    def test_adjacent_blocks_overlap(self, grid, bank):
        f = to_spectral(Field(grid, np.random.default_rng(1).standard_normal((1,) + grid.shape)))
        composed = dyadic_block(bank, 1, dyadic_block(bank, 0, f))
        assert np.max(np.abs(composed.coeffs)) > 0.0

    def test_lowpass_accumulates_blocks(self, bank):
        for j in range(bank.j_min, bank.j_max + 1):
            step = bank.lowpass_multiplier(j + 1) - bank.lowpass_multiplier(j)
            np.testing.assert_allclose(step, bank.phi[bank.index(j)], atol=1e-15)

    def test_lowpass_range_validation(self, bank):
        with pytest.raises(ValueError):
            bank.lowpass_multiplier(bank.j_min - 1)
        with pytest.raises(ValueError):
            bank.lowpass_multiplier(bank.j_max + 2)

    def test_low_pass_keeps_mean(self, grid, bank):
        f = Field(grid, np.full((1,) + grid.shape, 3.0))
        out = low_pass(bank, 0, f)
        np.testing.assert_allclose(out.samples, f.samples, atol=1e-12)

    def test_fingerprint_stability(self, grid, bank):
        again = build_filter_bank(grid)
        assert bank.fingerprint() == again.fingerprint()
        narrower = FilterBank(grid, -1, 3)
        assert narrower.fingerprint() != bank.fingerprint()


class TestBesovNorm:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BesovSpec(1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            BesovSpec(1.0, 2.0, 0.0)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_s_rejected(self, s):
        with pytest.raises(ValueError, match=f"^s must be finite, got {s}$"):
            BesovSpec(s, 2.0, 1.0)

    def test_single_shell_closed_form(self, grid, bank):
        f = ring_field(grid, 2.0 ** 1, np.random.default_rng(2))
        for s in (-1.0, 0.0, 1.5):
            expected = 0.0
            for j in bank.shells:
                expected += 2.0 ** (j * s) * lp_norm(
                    Field(grid, grid.ifft(grid.fft(f.samples)
                                          * grid.from_cube(bank.phi[bank.index(j)])).real),
                    2.0,
                )
            np.testing.assert_allclose(
                besov_norm(f, BesovSpec(s, 2.0, 1.0), bank), expected, rtol=1e-12
            )

    def test_shell_summation_monotonicity(self, grid, bank):
        f = interior_field(grid, bank, np.random.default_rng(3))
        n1 = besov_norm(f, BesovSpec(0.5, 2.0, 1.0), bank)
        n2 = besov_norm(f, BesovSpec(0.5, 2.0, 2.0), bank)
        ninf = besov_norm(f, BesovSpec(0.5, 2.0, math.inf), bank)
        assert n1 >= n2 >= ninf > 0.0

    def test_zero_field(self, grid, bank):
        z = Field(grid, np.zeros((1,) + grid.shape))
        assert besov_norm(z, BesovSpec(1.0, 2.0, 1.0), bank) == 0.0

    def test_homogeneity(self, grid, bank):
        f = interior_field(grid, bank, np.random.default_rng(4))
        spec = BesovSpec(1.0, 2.0, 1.0)
        np.testing.assert_allclose(
            besov_norm(Field(grid, 7.0 * f.samples), spec, bank),
            7.0 * besov_norm(f, spec, bank),
            rtol=1e-13,
        )

    def test_mean_mode_invisible(self, grid, bank):
        f = interior_field(grid, bank, np.random.default_rng(5))
        shifted = Field(grid, f.samples + 42.0)
        spec = BesovSpec(1.0, 2.0, 1.0)
        np.testing.assert_allclose(
            besov_norm(shifted, spec, bank), besov_norm(f, spec, bank), rtol=1e-10
        )


class TestShellNormKernel:
    """The one shell-norm kernel against the per-shell inverse-FFT oracle."""

    @staticmethod
    def _setup(d, c, n_times=3, seed=20, L=2.0 * math.pi, band_shift=0):
        grid = make_grid(d, 32 if d == 2 else 16, L)
        lo, hi = default_band(grid)
        bank = FilterBank(grid, lo - band_shift, hi - band_shift)
        rng = np.random.default_rng(seed + 10 * d + c)
        snaps = [Field(grid, _dealiased_samples(grid, rng.standard_normal((c,) + grid.shape)))
                 for _ in range(n_times)]
        return grid, bank, TimeSeriesField.from_snapshots(np.linspace(0.0, 0.1, n_times), snaps)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("vector", [False, True])
    def test_matches_oracle(self, p, d, vector, full_lattice):
        # The default bank, a box with L != 2 pi, and an explicit band one
        # octave down: each gives other shell supports.
        for L, band_shift in ((2.0 * math.pi, 0), (3.0, 0), (2.0 * math.pi, 1)):
            grid, bank, series = self._setup(d, d if vector else 1, L=L, band_shift=band_shift)
            phi = full_lattice(grid, grid.from_cube(bank.phi))
            expected = shell_norm_oracle.shell_matrix(
                [series.field(i).samples for i in range(series.n_times)], phi, p
            )
            got = shell_lp_matrix(series, p, bank)
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(expected)
            f = series.field(0)
            for spec in (BesovSpec(0.5, p, 1.0), BesovSpec(-1.0, p, math.inf)):
                want = shell_norm_oracle.besov_norm(
                    f.samples, phi, bank.shells, spec.s, p, spec.r
                )
                assert abs(besov_norm(f, spec, bank) - want) <= 1e-13 * want
                assert abs(besov_norm(to_spectral(f), spec, bank) - want) <= 1e-13 * want

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_non_finite_result_raises(self, p):
        grid, bank, series = self._setup(2, 1)
        hat = to_spectral(series.field(0)).coeffs
        hat[(0,) + (3,) * grid.d] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            besov_norm(SpectralField(grid, hat), BesovSpec(1.0, p, 1.0), bank)
        # The corner m = (15, 15) lies beyond the top shell's radius 32/3, so
        # outside every shell's support and every cube of the p != 2 kernel.
        corner = to_spectral(series.field(0)).coeffs
        assert not grid.from_cube(bank.phi)[:, 15, 15].any()
        corner[0, 15, 15] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            besov_norm(SpectralField(grid, corner), BesovSpec(1.0, p, 1.0), bank)
        huge = Field(grid, 1e300 * series.field(0).samples)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="must be finite"):
                besov_norm(huge, BesovSpec(1.0, p, 1.0), bank)

    def test_parseval_path_runs_no_inverse_transform(self, count_transforms):
        _, bank, series = self._setup(2, 2, n_times=5)
        counts = count_transforms()
        shell_lp_matrix(series, 2.0, bank)
        assert counts == Counter()

    def test_other_p_runs_no_grid_transform(self, count_transforms):
        _, bank, series = self._setup(2, 2, n_times=5)
        counts = count_transforms()
        mat = shell_lp_matrix(series, 3.0, bank)
        assert counts == Counter()
        # The default band's lowest shell holds no lattice point: its row is exactly 0.
        assert not bank.phi[0].any()
        assert np.all(mat[0] == 0.0) and np.all(mat[1:] > 0.0)

    def test_norm_paths_never_leave_the_cube(self, monkeypatch):
        # Every shell lies in the 2/3-rule cube, so no norm scatters its data
        # back onto the half spectrum.
        grid, bank, series = self._setup(2, 2)
        velocity = TimeSeriesField.from_snapshots(
            series.times, [divergence_free_field(grid, bank, sample_rng(9, i)) for i in range(3)]
        )
        problem = TransportProblem(series.field(0), velocity, series, series.T, 0.01)
        solution = solve_transport(problem)
        spectral_field = to_spectral(series.field(1))
        calls = Counter()
        original = FrequencyGrid.from_cube

        def counted(self, *args, **kwargs):
            calls["from_cube"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FrequencyGrid, "from_cube", counted)
        for p in (2.0, 3.0):
            shell_lp_matrix(series, p, bank)
            besov_norm(spectral_field, BesovSpec(1.0, p, 1.0), bank)
            select_time_horizon(spectral_field, 0.5, 0.01, 0.05, p, bank)
            transport_estimate_report(solution, problem, 0.5, p, 1.0, bank)
        assert calls == Counter()

    def test_time_outer_norm_uses_one_matrix(self, monkeypatch):
        _, bank, series = self._setup(2, 1, n_times=4)
        calls = Counter()
        original = littlewood_paley.shell_lp_matrix

        def counted(*args):
            calls["shell_lp_matrix"] += 1
            return original(*args)

        monkeypatch.setattr(littlewood_paley, "shell_lp_matrix", counted)
        spec = BesovSpec(0.5, 3.0, 2.0, 2.0)
        vals = [besov_norm(series.field(i), spec, bank) for i in range(series.n_times)]
        expected = np.trapezoid(np.array(vals) ** 2, series.times) ** 0.5
        np.testing.assert_allclose(lq_besov_norm(series, spec, bank), expected, rtol=1e-13)
        assert calls["shell_lp_matrix"] == 1


class TestTimeSeries:
    def _series(self, grid, n=5, seed=6):
        rng = np.random.default_rng(seed)
        times = np.linspace(0.0, 0.4, n)
        snaps = [Field(grid, _dealiased_samples(grid, rng.standard_normal((1,) + grid.shape)))
                 for _ in range(n)]
        return TimeSeriesField.from_snapshots(times, snaps)

    def test_validation(self, grid):
        f = Field(grid, np.zeros((1,) + grid.shape))
        with pytest.raises(ValueError):
            TimeSeriesField.from_snapshots(np.array([0.1, 0.2]), [f, f.copy()])
        with pytest.raises(ValueError):
            TimeSeriesField.from_snapshots(np.array([0.0, 0.0]), [f, f.copy()])
        with pytest.raises(ValueError):
            TimeSeriesField.from_snapshots(np.array([0.0, 0.1, 0.2]), [f, f.copy()])

    def test_accepts_only_the_cube(self, grid):
        times = np.array([0.0, 0.1])
        assert TimeSeriesField(grid, times, np.zeros((2, 2) + grid.cube_shape)).components == 2
        wider = grid.cube_shape[:-1] + (grid.cube_shape[-1] + 1,)
        for shape in ((2, 2) + grid.spectral_shape, (2, 2) + wider, (2, 2) + grid.shape,
                      (2,) + grid.cube_shape, (2, 1, 2) + grid.cube_shape):
            with pytest.raises(ValueError, match="cube_shape"):
                TimeSeriesField(grid, times, np.zeros(shape))

    def test_snapshots_off_the_cube_rejected(self, grid):
        times = np.array([0.0, 0.1])
        white = Field(grid, np.random.default_rng(3).standard_normal((2,) + grid.shape))
        with pytest.raises(ValueError, match=r"vanish off the 2/3-rule cube \|m_a\| <= 21: "
                                             r"component \d has \|coefficient\| .* at m = \("):
            TimeSeriesField.from_snapshots(times, [white, white])
        # One coefficient just past the cube, at 1e-12 of the largest, is named.
        hat = grid.fft(_dealiased_samples(grid, white.samples))
        hat[1, 22, 5] = 1e-12 * np.max(np.abs(hat))
        with pytest.raises(ValueError, match=r"component 1 .* at m = \(22, 5\), 1\.00e-12 of"):
            TimeSeriesField.from_snapshots(times, [SpectralField(grid, hat)] * 2)
        # Roundoff off the cube, up to 1e-13 of the largest, is dropped.
        hat[1, 22, 5] = 1e-13 * np.max(np.abs(hat))
        series = TimeSeriesField.from_snapshots(times, [SpectralField(grid, hat)] * 2)
        np.testing.assert_array_equal(series.coeffs[0], grid.to_cube(hat))
        hat[0, 0, 1] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            TimeSeriesField.from_snapshots(times, [SpectralField(grid, hat)] * 2)

    def test_sample_at_interpolates(self, grid):
        series = self._series(grid)
        t = 0.5 * (series.times[1] + series.times[2])
        mid = series.sample_at(t)
        expected = grid.from_cube(0.5 * (series.coeffs[1] + series.coeffs[2]))
        np.testing.assert_allclose(mid.coeffs, expected, atol=1e-13)

    def test_sample_at_endpoints(self, grid):
        series = self._series(grid)
        np.testing.assert_array_equal(series.sample_at(0.0).coeffs,
                                      grid.from_cube(series.coeffs[0]))
        np.testing.assert_array_equal(series.sample_at(series.times[-1]).coeffs,
                                      grid.from_cube(series.coeffs[-1]))

    def test_subtraction_needs_matching_times(self, grid):
        a = self._series(grid, n=5)
        b = self._series(grid, n=4)
        with pytest.raises(ValueError):
            a - b

    def test_spectral_snapshots_stay_in_coefficient_space(self, grid, bank, count_transforms):
        series = self._series(grid)
        fields = [series.field(i) for i in range(series.n_times)]
        spectral = TimeSeriesField.from_snapshots(series.times, [to_spectral(f) for f in fields])
        t = 0.3 * series.times[1] + 0.7 * series.times[2]
        counts = count_transforms()
        mid = spectral.sample_at(t)
        assert isinstance(mid, SpectralField)
        np.testing.assert_array_equal(spectral.sample_at(series.times[3]).coeffs,
                                      grid.from_cube(spectral.coeffs[3]))
        diff = spectral - spectral
        assert counts == Counter()
        scale = np.max(np.abs(mid.coeffs))
        expected = grid.fft(0.3 * fields[1].samples + 0.7 * fields[2].samples)
        assert np.max(np.abs(mid.coeffs - expected)) <= 1e-13 * scale
        assert np.all(diff.coeffs == 0.0)
        for p in (2.0, 3.0):
            want = shell_lp_matrix(series, p, bank)
            got = shell_lp_matrix(spectral, p, bank)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)


class TestCheminLerner:
    def test_minkowski_ordering(self, grid, bank):
        series = decaying_series(grid, bank, np.random.default_rng(7),
                                 np.linspace(0.0, 0.2, 9))
        tight = chemin_lerner_norm(series, BesovSpec(0.5, 2.0, 2.0, 1.0), bank)
        loose = lq_besov_norm(series, BesovSpec(0.5, 2.0, 2.0, 1.0), bank)
        assert tight <= loose * (1.0 + 1e-12)
        tight_inf = chemin_lerner_norm(series, BesovSpec(0.5, 2.0, 1.0, math.inf), bank)
        loose_inf = lq_besov_norm(series, BesovSpec(0.5, 2.0, 1.0, math.inf), bank)
        assert tight_inf >= loose_inf * (1.0 - 1e-12)

    def test_equal_orders_coincide(self, grid, bank):
        series = decaying_series(grid, bank, np.random.default_rng(8),
                                 np.linspace(0.0, 0.2, 9))
        spec = BesovSpec(0.5, 2.0, 1.0, 1.0)
        np.testing.assert_allclose(chemin_lerner_norm(series, spec, bank),
                                   lq_besov_norm(series, spec, bank), rtol=1e-10)

    def test_trace_monotone_and_consistent(self, grid, bank):
        series = decaying_series(grid, bank, np.random.default_rng(9),
                                 np.linspace(0.0, 0.2, 9))
        spec = BesovSpec(1.0, 2.0, 1.0, 1.0)
        trace = chemin_lerner_trace(series, spec, bank)
        assert trace[0] == 0.0
        assert np.all(np.diff(trace) >= -1e-15)
        np.testing.assert_allclose(trace[-1], chemin_lerner_norm(series, spec, bank),
                                   rtol=1e-12)

    def test_finite_q_needs_two_snapshots(self, grid, bank):
        single = TimeSeriesField.from_snapshots(np.array([0.0]),
                                 [Field(grid, np.zeros((1,) + grid.shape))])
        with pytest.raises(ValueError):
            chemin_lerner_norm(single, BesovSpec(1.0, 2.0, 1.0, 1.0), bank)

    @pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
    def test_norm_is_last_trace_entry(self, grid, bank, q):
        series = decaying_series(grid, bank, np.random.default_rng(10),
                                 np.linspace(0.0, 0.2, 12))
        spec = BesovSpec(0.5, 2.0, 1.0, q)
        norm = chemin_lerner_norm(series, spec, bank)
        assert norm > 0.0
        assert norm == chemin_lerner_trace(series, spec, bank)[-1]

    def test_time_outer_norm_needs_no_numpy_trapezoid(self, grid, bank, monkeypatch):
        # np.trapezoid exists only from NumPy 2.0; the declared floor is 1.24.
        series = decaying_series(grid, bank, np.random.default_rng(11),
                                 np.linspace(0.0, 0.2, 9))
        spec = BesovSpec(0.5, 2.0, 1.0, 2.0)
        want = lq_besov_norm(series, spec, bank)
        monkeypatch.delattr(np, "trapezoid", raising=False)
        assert lq_besov_norm(series, spec, bank) == want

    @pytest.mark.parametrize("n", [1, 2, 9, 251])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_trapezoid_rules_match_scipy_bitwise(self, n, uniform, monkeypatch):
        # Same arithmetic in the same order as scipy, on the declared NumPy
        # floor: neither rule may reach for np.cumulative_sum or np.trapezoid.
        monkeypatch.delattr(np, "cumulative_sum", raising=False)
        monkeypatch.delattr(np, "trapezoid", raising=False)
        rng = np.random.default_rng(n)
        times = np.arange(n) * 2e-3 if uniform else np.cumsum(rng.random(n))
        for y in (rng.standard_normal(n), rng.random((7, n)) ** 3):
            want = cumulative_trapezoid(y, times, axis=-1, initial=0.0)
            np.testing.assert_array_equal(littlewood_paley._cumulative_trapezoid(y, times), want)
            got = littlewood_paley._trapezoid(y, times)
            assert np.shape(got) == y.shape[:-1]
            np.testing.assert_array_equal(got, trapezoid(y, times, axis=-1))

    @pytest.mark.parametrize("fn", [chemin_lerner_norm, chemin_lerner_trace])
    def test_norm_and_trace_share_their_errors(self, grid, bank, fn):
        f = Field(grid, np.zeros((1,) + grid.shape))
        pair = TimeSeriesField.from_snapshots(np.array([0.0, 0.1]), [f, f.copy()])
        with pytest.raises(ValueError, match="spec.q is required"):
            fn(pair, BesovSpec(1.0, 2.0, 1.0), bank)
        single = TimeSeriesField.from_snapshots(np.array([0.0]), [f])
        with pytest.raises(ValueError, match="at least two snapshots"):
            fn(single, BesovSpec(1.0, 2.0, 1.0, 2.0), bank)
        assert np.all(np.asarray(fn(single, BesovSpec(1.0, 2.0, 1.0, math.inf), bank)) == 0.0)


class TestBernstein:
    def test_ring_ratios_two_sided(self, grid):
        f = ring_field(grid, 4.0, np.random.default_rng(10))
        rep = bernstein_ratios(f, 4.0, 1, 2.0, 2.0, "ring")
        assert rep.upper_ratio > 0.0
        assert rep.lower_ratio is not None and rep.lower_ratio > 0.0

    def test_ball_has_no_lower_ratio(self, grid):
        f = ball_field(grid, 4.0, np.random.default_rng(11))
        rep = bernstein_ratios(f, 4.0, 1, 2.0, 2.0, "ball")
        assert rep.lower_ratio is None

    def test_support_leak_detected(self, grid):
        f = ball_field(grid, 8.0, np.random.default_rng(12))
        with pytest.raises(ValueError, match="leak"):
            bernstein_ratios(f, 2.0, 1, 2.0, 2.0, "ball")

    def test_q_below_p_rejected(self, grid):
        f = ring_field(grid, 4.0, np.random.default_rng(13))
        with pytest.raises(ValueError):
            bernstein_ratios(f, 4.0, 1, 2.0, 1.0, "ring")

    def test_scale_relation_across_shells(self, grid):
        rng = np.random.default_rng(15)
        ratios = [
            bernstein_ratios(ring_field(grid, 2.0**j, rng), 2.0**j, 1, 2.0, 2.0,
                             "ring").upper_ratio
            for j in (1, 2, 3)
        ]
        assert max(ratios) / min(ratios) < 4.0
