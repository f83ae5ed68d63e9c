"""Tests for the coupled iteration, its monitors, and the uniqueness gauge."""

import gc
import importlib
import math
import re
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import assembly_oracle
import cauchy_oracle
import half_spectrum_oracle
import horizon_oracle
from lpmhd import (
    FrequencyGrid,
    BesovSpec,
    Field,
    IterationConfig,
    MhdInitialData,
    SpectralField,
    TimeSeriesField,
    check_uniform_bounds,
    chemin_lerner_norm,
    chemin_lerner_trace,
    divergence,
    init_iterate,
    iterate_once,
    leray_project,
    log_interpolation_ratio,
    lp_norm,
    make_grid,
    mean_mode,
    osgood_check,
    perturb_initial_data,
    perturbation_sweep,
    prepare_initial_data,
    run_iteration,
    select_time_horizon,
    system_residual,
    taylor_green_data,
    to_spectral,
    truncate_initial_data,
    twin_run_uniqueness,
)
from lpmhd import littlewood_paley, mhd, spectral
from lpmhd.linear_solvers import (
    HeatProblem,
    TransportProblem,
    solve_heat,
    solve_transport,
    transport_estimate_report,
)
from lpmhd.mhd import compute_e0
from lpmhd.paraproduct import paraproduct, remainder
from lpmhd.random_fields import divergence_free_field, sample_rng
from lpmhd.spectral import _dealiased_samples


def _small_config(**kw):
    base = dict(max_iterations=3, tolerance=0.0, t_max=0.02)
    base.update(kw)
    return IterationConfig(**base)


class TestIterationConfig:
    def test_defaults_valid(self):
        cfg = IterationConfig()
        assert cfg.grid().N == 64
        assert cfg.bank().grid == cfg.grid()

    def test_config_builds_no_grid(self, monkeypatch):
        # The config checks d, N and L with the grid's own check; the tg2d
        # set-up (config, cfg.grid(), bank, data) builds the one grid it uses.
        built = []
        original = FrequencyGrid.__init__

        def counted(self, *args, **kwargs):
            original(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(FrequencyGrid, "__init__", counted)
        cfg = IterationConfig(d=2, N=64)
        assert built == []
        grid = cfg.grid()
        data = taylor_green_data(grid, 0.05)
        assert cfg.bank(grid).grid is grid and data.grid is grid
        assert built == [grid]

    def test_p_range_message_names_dimension(self):
        with pytest.raises(ValueError, match=r"p must lie in \[1, 2\*d\] = \[1, 4\]"):
            IterationConfig(p=5.0)
        with pytest.raises(ValueError, match=r"\[1, 6\]"):
            IterationConfig(d=3, N=8, p=7.0)

    @pytest.mark.parametrize(
        "kw, msg",
        [
            (dict(eta=1.0), "eta"),
            (dict(c0=1.0), "C0"),
            (dict(dt=0.0), "dt"),
            (dict(t_max=1e-4), "T_max"),
            (dict(max_iterations=-1), "max_iterations"),
            (dict(tolerance=-1.0), "tolerance"),
            (dict(d=4), "d must be 2 or 3"),
            (dict(N=48), "N must be a power of two"),
            (dict(L=math.inf), "L must be finite, got inf"),
            (dict(dt=math.nan), "dt must be finite, got nan"),
            (dict(t_max=math.nan), "T_max must be finite, got nan"),
            (dict(t_max=math.inf), "T_max must be finite, got inf"),
            (dict(c0=math.inf), "C0 must be finite, got inf"),
            (dict(tolerance=math.nan), "tolerance must be finite, got nan"),
            (dict(t_max=1e9), r"lie in \[dt, 1000000 dt\], got T_max=1000000000.0, dt=0.002"),
            (dict(t_max=2.0, dt=1e-6), r"\[dt, 1000000 dt\], got T_max=2.0, dt=1e-06"),
        ],
    )
    def test_knob_validation(self, kw, msg):
        with pytest.raises(ValueError, match=msg):
            IterationConfig(**kw)

    @pytest.mark.parametrize("seed", [-1, -7919, -8000])
    def test_negative_seed_rejected(self, seed):
        # The twin draws from seed + 7919, so seeds down to -7919 would reach the RNG.
        with pytest.raises(ValueError, match=f"^seed must be >= 0, got {seed}$"):
            IterationConfig(seed=seed)


class TestInitialData:
    def test_cellular_data_structure(self, grid):
        data = taylor_green_data(grid)
        x1, x2 = grid.coords()
        np.testing.assert_allclose(
            data.u0.samples[0], 0.05 * np.sin(x1) * np.cos(x2), atol=1e-15
        )
        np.testing.assert_allclose(
            data.b0.samples[0], 0.05 * np.cos(x1) * np.sin(x2), atol=1e-15
        )

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("amplitude", [0.05, 0.5])
    def test_cellular_data_are_the_meshgrid_formula(self, n, amplitude):
        # Outer products of 1-D factors make the same IEEE products as the N^d trig passes.
        grid = make_grid(2, n)
        x1, x2 = grid.coords()
        data = taylor_green_data(grid, amplitude)
        np.testing.assert_array_equal(
            data.u0.samples, amplitude * np.stack([np.sin(x1) * np.cos(x2), -np.cos(x1) * np.sin(x2)]))
        np.testing.assert_array_equal(
            data.b0.samples, amplitude * np.stack([np.cos(x1) * np.sin(x2), -np.sin(x1) * np.cos(x2)]))

    @pytest.mark.parametrize("L", [math.pi, 3.0 * math.pi, 24.0 * math.pi])
    def test_cellular_data_take_the_lowest_mode_on_any_box(self, L):
        # sin x is not periodic on [0, pi): the data there used to fail their own
        # divergence check.  In units of k_min x every box samples the same cell.
        want = taylor_green_data(make_grid(2, 32))
        data = taylor_green_data(make_grid(2, 32, L))
        for got, ref in ((data.u0, want.u0), (data.b0, want.b0)):
            np.testing.assert_array_equal(got.samples, ref.samples)

    def test_cellular_data_amplitude(self, grid):
        data = taylor_green_data(grid, amplitude=1.0)
        assert abs(np.max(data.u0.samples) - 1.0) < 1e-12

    def test_cellular_data_needs_d2(self):
        from lpmhd import make_grid

        with pytest.raises(ValueError, match="two-dimensional"):
            taylor_green_data(make_grid(3, 8, 2.0 * math.pi))

    def test_compressible_field_rejected(self, grid):
        x1, _ = grid.coords()
        bad = Field(grid, np.stack([np.sin(x1), np.zeros(grid.shape)]))
        good = taylor_green_data(grid).u0
        with pytest.raises(ValueError, match="divergence-free"):
            MhdInitialData(bad, good)

    def test_construction_checks_by_parseval(self, grid, count_transforms):
        tg = taylor_green_data(grid)
        counts = count_transforms()
        data = MhdInitialData(tg.u0, tg.b0)
        assert counts == Counter(fft=2)
        np.testing.assert_array_equal(data.u0_hat, grid.fft(tg.u0.samples))
        np.testing.assert_array_equal(data.b0_hat, grid.fft(tg.b0.samples))

    def test_spectra_are_kept_and_inverted_once(self, grid, count_transforms):
        tg = taylor_green_data(grid)
        hats = [to_spectral(f) for f in (tg.u0, tg.b0)]
        counts = count_transforms()
        data = MhdInitialData(*hats)
        assert counts == Counter(ifft=2)
        assert data.u0_hat is hats[0].coeffs and data.b0_hat is hats[1].coeffs
        np.testing.assert_array_equal(data.u0.samples, grid.ifft(hats[0].coeffs))
        np.testing.assert_array_equal(data.b0.samples, grid.ifft(hats[1].coeffs))

    def test_mean_mode_rejected(self, grid):
        good = taylor_green_data(grid)
        shifted = Field(grid, good.u0.samples + 0.5)
        with pytest.raises(ValueError, match="mean mode"):
            MhdInitialData(shifted, good.b0)

    def test_prepare_projects_and_demeans(self, grid):
        x1, x2 = grid.coords()
        raw_u = Field(grid, np.stack([np.sin(x1) + 0.3, np.cos(x1) + np.sin(x2)]))
        raw_b = Field(grid, np.stack([np.cos(x2), np.sin(x1) * np.cos(x2)]))
        data = prepare_initial_data(raw_u, raw_b)
        assert lp_norm(divergence(data.u0), 2.0) <= 1e-11
        np.testing.assert_allclose(mean_mode(data.u0), 0.0, atol=1e-15)
        np.testing.assert_allclose(mean_mode(data.b0), 0.0, atol=1e-15)


def _round_trip_prepare(u0, b0):
    """``prepare_initial_data`` before it kept its spectra: the projected,
    zeroed spectra are inverted and ``MhdInitialData`` transforms the samples
    forward again."""
    grid = u0.grid
    out = []
    for f in (u0, b0):
        hat = leray_project(to_spectral(f)).coeffs
        hat[(slice(None),) + (0,) * grid.d] = 0.0
        for m in grid.m_axes:
            hat = np.where(np.abs(m) == grid.N // 2, 0.0, hat)
        out.append(Field(grid, grid.ifft(hat)))
    return MhdInitialData(out[0], out[1])


class TestPreparedData:
    """Prepared data invert each projected spectrum once and keep it."""

    @staticmethod
    def _raw(d, n, seed=0):
        # White noise: a mean, a compressible part and both Nyquist planes to remove.
        grid = make_grid(d, n)
        rng = np.random.default_rng(seed)
        return tuple(Field(grid, 0.05 * rng.standard_normal((d,) + grid.shape)) for _ in range(2))

    @pytest.mark.parametrize("d, n", [(2, 64), (3, 32)])
    def test_two_forward_and_two_inverse_transforms(self, d, n, count_transforms):
        raw = self._raw(d, n)
        counts = count_transforms()
        prepare_initial_data(*raw)
        assert counts == Counter(fft=2, ifft=2)

    @pytest.mark.parametrize("d, n", [(2, 64), (3, 32)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_round_trip_pipeline(self, d, n, seed):
        raw = self._raw(d, n, seed)
        data, want = prepare_initial_data(*raw), _round_trip_prepare(*raw)
        grid = data.grid
        for got_f, want_f, got_hat, want_hat in (
            (data.u0, want.u0, data.u0_hat, want.u0_hat),
            (data.b0, want.b0, data.b0_hat, want.b0_hat),
        ):
            np.testing.assert_array_equal(got_f.samples, want_f.samples)
            assert np.max(np.abs(got_hat - want_hat)) <= 1e-15 * np.max(np.abs(want_hat))
            # Exactly +0.0 at k = 0 and on every plane m_a = +-N/2.
            planes = [got_hat[(slice(None),) + (0,) * d]] + [
                got_hat[(slice(None),) * (a + 1) + (grid.N // 2,)] for a in range(d)]
            for plane in planes:
                for part in (plane.real, plane.imag):
                    assert np.all(part == 0.0) and not np.any(np.signbit(part))

    def test_hats_are_the_projected_spectra(self, grid):
        raw = self._raw(2, 64)
        data = prepare_initial_data(*raw)
        for f, hat in zip(raw, (data.u0_hat, data.b0_hat)):
            want = leray_project(to_spectral(f)).coeffs
            want[:, 0, 0] = 0.0
            want[:, grid.N // 2, :] = 0.0
            want[:, :, grid.N // 2] = 0.0
            np.testing.assert_array_equal(hat, want)

    @pytest.mark.parametrize("other", [(2, 16), (2, 32, 3.0), (3, 32)],
                             ids=["other-N", "other-L", "other-d"])
    def test_mismatched_grids_rejected(self, other):
        # other-L used to pass, with B0 moved onto u0's grid; other-N died in numpy.
        u0 = self._raw(2, 32)[0]
        grid = make_grid(*other)
        b0 = Field(grid, 0.05 * np.random.default_rng(1).standard_normal((grid.d,) + grid.shape))
        with pytest.raises(ValueError, match="u0 and B0 live on different grids"):
            prepare_initial_data(u0, b0)
        with pytest.raises(ValueError, match="u0 and B0 live on different grids"):
            MhdInitialData(u0, b0)

    @pytest.mark.parametrize("components", [1, 3])
    def test_wrong_component_counts_rejected(self, grid, components, count_transforms):
        rng = np.random.default_rng(5)
        good = Field(grid, rng.standard_normal((2,) + grid.shape))
        bad = Field(grid, rng.standard_normal((components,) + grid.shape))
        msg = f"projection expects a 2-component field, got {components}"
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match=msg):
                prepare_initial_data(*pair)
        counts = count_transforms()
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="initial fields must have 2 components"):
                MhdInitialData(*pair)
        assert counts == Counter()  # the constructor checks before any transform

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_samples_rejected(self, value):
        # The constructor took NaN (it fails every comparison in the checks)
        # and named an inf a nonzero mean mode.
        for which in range(2):
            fields = self._raw(2, 64)
            fields[which].samples[1, 3, 5] = value  # past Field's own check, as a caller can
            for build in (prepare_initial_data, MhdInitialData):
                with np.errstate(invalid="ignore"), pytest.raises(
                        ValueError, match="^field samples must be finite$"):
                    build(*fields)


class TestPerturbation:
    def test_zero_size_is_bit_identical(self, grid, bank):
        data = taylor_green_data(grid)
        pert = perturb_initial_data(data, 0.0, seed=5, bank=bank)
        assert np.array_equal(pert.u0.samples, data.u0.samples)
        assert np.array_equal(pert.b0.samples, data.b0.samples)

    def test_size_sets_l2_distance(self, grid, bank):
        data = taylor_green_data(grid)
        size = 3e-3
        pert = perturb_initial_data(data, size, seed=5, bank=bank)
        du = Field(grid, pert.u0.samples - data.u0.samples)
        db = Field(grid, pert.b0.samples - data.b0.samples)
        np.testing.assert_allclose(lp_norm(du, 2.0), size, rtol=1e-12)
        np.testing.assert_allclose(lp_norm(db, 2.0), size, rtol=1e-12)

    def test_perturbed_data_stays_admissible(self, grid, bank):
        data = taylor_green_data(grid)
        pert = perturb_initial_data(data, 1e-2, seed=6, bank=bank)
        assert lp_norm(divergence(pert.u0), 2.0) <= 1e-10

    def test_reproducible(self, grid, bank):
        data = taylor_green_data(grid)
        a = perturb_initial_data(data, 1e-3, seed=7, bank=bank)
        b = perturb_initial_data(data, 1e-3, seed=7, bank=bank)
        assert np.array_equal(a.u0.samples, b.u0.samples)

    def test_noise_is_the_divergence_free_field_draw(self, grid, bank):
        # One stream, u0's draw first: the recipe of random_fields, scaled by the size.
        data = taylor_green_data(grid)
        pert = perturb_initial_data(data, 3e-3, seed=5, bank=bank)
        rng = np.random.default_rng(5)
        for got, base in ((pert.u0, data.u0), (pert.b0, data.b0)):
            want = base.samples + 3e-3 * divergence_free_field(grid, bank, rng).samples
            assert np.array_equal(got.samples, want)

    def test_negative_size_rejected(self, grid, bank):
        data = taylor_green_data(grid)
        with pytest.raises(ValueError, match=">= 0"):
            perturb_initial_data(data, -1e-3, seed=5, bank=bank)

    @pytest.mark.parametrize("size", [math.nan, math.inf])
    def test_non_finite_size_rejected(self, grid, bank, size):
        data = taylor_green_data(grid)
        with pytest.raises(ValueError, match=f"finite and >= 0, got {size}"):
            perturb_initial_data(data, size, seed=5, bank=bank)


class TestTruncation:
    def test_top_level_is_identity_on_low_modes(self, grid, bank):
        data = taylor_green_data(grid)
        out = truncate_initial_data(data, bank.j_max + 1, bank)
        np.testing.assert_allclose(out.u0.samples, data.u0.samples, atol=1e-14)

    def test_low_level_shrinks_norm(self, grid, bank):
        from lpmhd import interior_field, sample_rng

        rng = sample_rng(30, 0)
        u = interior_field(grid, bank, rng, components=2)
        from lpmhd import leray_project, to_physical, to_spectral

        u = to_physical(leray_project(to_spectral(u)))
        data = prepare_initial_data(u, u)
        out = truncate_initial_data(data, bank.j_min, bank)
        assert lp_norm(out.u0, 2.0) < 0.5 * lp_norm(data.u0, 2.0)

    def test_one_inverse_transform_per_field(self, grid, bank, count_transforms):
        # The kept spectra are low-passed; the samples are those of low-passing the samples.
        data = taylor_green_data(grid)
        want = [littlewood_paley.low_pass(bank, bank.j_min + 1, f).samples
                for f in (data.u0, data.b0)]
        counts = count_transforms()
        out = truncate_initial_data(data, bank.j_min + 1, bank)
        assert counts == Counter(ifft=2)
        np.testing.assert_array_equal(out.u0.samples, want[0])
        np.testing.assert_array_equal(out.b0.samples, want[1])

    def test_out_of_band_level_rejected(self, grid, bank):
        data = taylor_green_data(grid)
        with pytest.raises(ValueError, match="outside the dyadic band"):
            truncate_initial_data(data, bank.j_max + 2, bank)
        with pytest.raises(ValueError, match="outside the dyadic band"):
            truncate_initial_data(data, bank.j_min - 1, bank)


class TestHorizon:
    def test_cellular_horizon_value(self, grid, bank):
        data = taylor_green_data(grid)
        h = select_time_horizon(data.u0, 0.1, 2e-3, 0.5, 2.0, bank)
        assert h.condition_met
        np.testing.assert_allclose(h.T, 0.058, atol=1e-12)
        assert h.lhs <= h.threshold

    def test_zero_data_reaches_t_max(self, grid, bank):
        u0 = Field(grid, np.zeros((2,) + grid.shape))
        h = select_time_horizon(u0, 0.1, 2e-3, 0.5, 2.0, bank)
        assert h.condition_met
        assert h.T == 0.5
        assert h.lhs == 0.0

    def test_large_data_flagged_at_one_step(self, grid, bank):
        data = taylor_green_data(grid, amplitude=50.0)
        h = select_time_horizon(data.u0, 0.1, 2e-3, 0.5, 2.0, bank)
        assert not h.condition_met
        assert h.T == 2e-3

    def test_eta_validated(self, grid, bank):
        data = taylor_green_data(grid)
        with pytest.raises(ValueError, match="eta"):
            select_time_horizon(data.u0, 1.5, 2e-3, 0.5, 2.0, bank)

    @pytest.mark.parametrize("dt, t_max", [
        (0.0, 0.5), (-2e-3, 0.5), (math.nan, 0.5), (math.inf, 0.5),
        (2e-3, math.nan), (2e-3, math.inf), (2e-3, -math.inf), (2e-3, 1e-3),
    ])
    def test_bad_step_or_t_max_named(self, grid, bank, dt, t_max):
        # Each must be named, not left to fail inside numpy or the norm kernel.
        with pytest.raises(ValueError, match=re.escape(f"got T={t_max}, dt={dt}")):
            select_time_horizon(taylor_green_data(grid).u0, 0.1, dt, t_max, 2.0, bank)

    @pytest.mark.parametrize("t_override", [math.nan, math.inf, 1e-3, 0.0, -0.01])
    def test_bad_t_override_named(self, grid, t_override):
        cfg = _small_config()
        with pytest.raises(ValueError, match=re.escape(f"got T={t_override}, dt={cfg.dt}")):
            run_iteration(taylor_green_data(grid), cfg, T_override=t_override)

    @pytest.mark.parametrize("d, N, p", [(2, 32, 2.0), (3, 16, 3.0)])
    def test_traces_match_oracle(self, d, N, p, full_lattice):
        grid = make_grid(d, N)
        bank = littlewood_paley.build_filter_bank(grid)
        u0 = divergence_free_field(grid, bank, np.random.default_rng(11))
        times, got = mhd._free_evolution_traces(u0, 2e-3, 0.05, p, bank)
        want_times, want = horizon_oracle.free_evolution_traces(
            u0.samples, full_lattice(grid, grid.from_cube(bank.phi)), bank.shells,
            full_lattice(grid, grid.k_sq), 2e-3, 0.05, p
        )
        np.testing.assert_array_equal(times, want_times)
        assert times.size == 26 and want[-1] > 0.0
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)

    @pytest.mark.parametrize("t_max", [0.0511, 0.0519])
    def test_horizon_is_the_largest_multiple_of_dt_within_t_max(self, t_max):
        # The cellular data stay under the threshold past t = 0.058, so the
        # horizon is limited by t_max alone.
        grid = make_grid(2, 32)
        dt = 2e-3
        h = select_time_horizon(taylor_green_data(grid).u0, 0.1, dt, t_max, 2.0,
                                littlewood_paley.build_filter_bank(grid))
        assert h.condition_met
        assert h.T <= t_max
        assert abs(h.T - round(h.T / dt) * dt) <= 1e-8 * dt
        assert h.T > t_max - dt

    def test_threshold_monotone_in_eta(self, grid, bank):
        data = taylor_green_data(grid)
        t_small = select_time_horizon(data.u0, 0.05, 2e-3, 0.5, 2.0, bank).T
        t_large = select_time_horizon(data.u0, 0.2, 2e-3, 0.5, 2.0, bank).T
        assert t_small <= t_large


class TestBankGridCheck:
    """Every reader of a bank refuses a field on another grid before any work."""

    @staticmethod
    def _data():
        grid, rng = make_grid(2, 32, 3.0), np.random.default_rng(21)
        return prepare_initial_data(
            *(Field(grid, 0.05 * rng.standard_normal((2,) + grid.shape)) for _ in range(2)))

    @pytest.mark.parametrize("call", [
        lambda data, bank: select_time_horizon(data.u0, 0.1, 2e-3, 0.5, 2.0, bank),
        lambda data, bank: littlewood_paley.dyadic_block(bank, bank.j_min + 1, data.u0),
        lambda data, bank: littlewood_paley.low_pass(bank, bank.j_min + 1, data.u0),
        lambda data, bank: truncate_initial_data(data, bank.j_min + 1, bank),
    ], ids=["select_time_horizon", "dyadic_block", "low_pass", "truncate_initial_data"])
    @pytest.mark.parametrize("other", [(32, 2.0 * math.pi), (16, 3.0)], ids=["other-L", "other-N"])
    def test_bank_on_another_grid_raises(self, call, other, count_transforms):
        # Same N with another L used to run with the wrong |k| (a horizon of
        # 0.024 where the data's own bank gives 0.002); another N died in numpy.
        data = self._data()
        bank = littlewood_paley.build_filter_bank(make_grid(2, *other))
        counts = count_transforms()
        with pytest.raises(ValueError, match="field and bank live on different grids"):
            call(data, bank)
        assert counts == Counter()

    @pytest.mark.parametrize("run", [
        lambda data, cfg, bank: run_iteration(data, cfg, bank=bank),
        lambda data, cfg, bank: run_iteration(data, cfg, T_override=0.01, bank=bank),
        lambda data, cfg, bank: twin_run_uniqueness(data, cfg, 1e-3, bank),
    ], ids=["run_iteration", "T_override", "twin_run_uniqueness"])
    @pytest.mark.parametrize("other", [(32, 2.0 * math.pi), (16, 3.0)], ids=["other-L", "other-N"])
    def test_run_on_another_grids_bank_raises(self, run, other, count_transforms):
        data = self._data()
        bank = littlewood_paley.build_filter_bank(make_grid(2, *other))
        counts = count_transforms()
        with pytest.raises(ValueError, match="field and bank live on different grids"):
            run(data, _small_config(N=32, L=3.0), bank)
        assert counts == Counter()


class TestOneBankPerRun:
    """A run takes the bank it is given; twin runs share the base run's."""

    def test_given_bank_is_used_and_changes_nothing(self, count_banks):
        cfg = _small_config(N=32, max_iterations=2)
        data = taylor_green_data(cfg.grid())
        want = run_iteration(data, cfg)
        bank = cfg.bank(data.grid)
        built = count_banks()
        got = run_iteration(data, cfg, bank=bank)
        assert built == [] and got.final_state.bank is bank
        assert [(r.h1_lhs, r.h2_lhs, r.d_n) for r in got.records[:-1]] == [
            (r.h1_lhs, r.h2_lhs, r.d_n) for r in want.records[:-1]]
        for name in ("u_series", "b_series"):
            np.testing.assert_array_equal(getattr(got.final_state, name).coeffs,
                                          getattr(want.final_state, name).coeffs)

    def test_twin_runs_build_one_bank(self, count_banks):
        cfg = _small_config(N=32, max_iterations=1)
        data = taylor_green_data(cfg.grid())
        built = count_banks()
        report = twin_run_uniqueness(data, cfg, 1e-3)
        assert len(built) == 1
        bank = built[0]
        again = twin_run_uniqueness(data, cfg, 1e-3, bank)
        assert len(built) == 1
        np.testing.assert_array_equal(again.rho, report.rho)
        assert (again.a_t, again.c_t) == (report.a_t, report.c_t)
        # The twin on its own bank, as before the bank was shared, is the same run.
        base = run_iteration(data, cfg, bank=bank)
        pert = perturb_initial_data(data, 1e-3, cfg.seed + 7919, bank)
        shared, own = (run_iteration(pert, cfg, T_override=base.T, bank=b)
                       for b in (bank, cfg.bank(data.grid)))
        for name in ("u_series", "b_series"):
            np.testing.assert_array_equal(getattr(shared.final_state, name).coeffs,
                                          getattr(own.final_state, name).coeffs)


class TestCubeMultipliers:
    def test_only_data_is_gathered(self, monkeypatch):
        # The bank and the grid hold every multiplier on the 2/3-rule cube, so
        # the one gathers left are of data: u0 in the horizon, and in an
        # iterate S_{n+1} of u0 and of B0, each gathered again by its problem.
        cfg = _small_config(N=32, max_iterations=1)
        grid = cfg.grid()
        rng = np.random.default_rng(31)
        data = prepare_initial_data(
            *(Field(grid, 0.05 * rng.standard_normal((2,) + grid.shape)) for _ in range(2)))
        state = init_iterate(data, cfg, 0.01)
        forcing, source = mhd._assemble_sources(state.u_series, state.b_series)
        heat = HeatProblem(state.u_series.field(0), forcing, 0.01, cfg.dt)
        transport = TransportProblem(state.b_series.field(0), state.u_series, source, 0.01, cfg.dt)
        solution = solve_transport(transport)
        f, g = (Field(grid, rng.standard_normal((1,) + grid.shape)) for _ in range(2))
        fresh = cfg.bank(grid)  # its p = 2 and p != 2 tables are built on first use
        runs = {
            "shell_lp_matrix": lambda: [littlewood_paley.shell_lp_matrix(state.u_series, p, fresh)
                                        for p in (2.0, 3.0)],
            "paraproduct": lambda: paraproduct(fresh, f, g),
            "remainder": lambda: remainder(fresh, f, g),
            "solve_heat": lambda: solve_heat(heat),
            "solve_transport": lambda: solve_transport(transport),
            "transport_estimate_report": lambda: transport_estimate_report(
                solution, transport, 1.0, 3.0, 1.0, fresh),
            "select_time_horizon": lambda: select_time_horizon(data.u0, 0.1, cfg.dt, 0.02, 3.0,
                                                               fresh),
            "iterate_once": lambda: iterate_once(state, cfg),
        }
        calls, original = Counter(), FrequencyGrid.to_cube
        for name, run in runs.items():
            def counted(self, coeffs, _name=name):
                calls[_name] += 1
                return original(self, coeffs)

            monkeypatch.setattr(FrequencyGrid, "to_cube", counted)
            run()
        assert calls == Counter(select_time_horizon=1, iterate_once=4)


class TestIterationScheme:
    def test_initial_energy_closed_form(self, grid, bank):
        # Both fields carry a single |k| = sqrt(2) pair in shell 0, so each
        # shell norm collapses to the plain L2 norm A/sqrt(2).
        data = taylor_green_data(grid)
        e0 = compute_e0(data, 2.0, bank)
        np.testing.assert_allclose(e0, 0.05 * math.sqrt(2.0), rtol=1e-13)

    def test_first_iterate_is_free_evolution(self, grid):
        cfg = _small_config()
        data = taylor_green_data(grid)
        state = init_iterate(data, cfg, 0.02)
        assert state.n == 0
        trunc = truncate_initial_data(data, max(0, state.bank.j_min), state.bank)
        hat = grid.fft(trunc.u0.samples)
        expected = grid.ifft(hat * np.exp(-grid.k_sq * 0.02)).real
        np.testing.assert_allclose(
            state.u_series.field(-1).samples, expected, atol=1e-13
        )

    @pytest.mark.parametrize("N, L, got", [(32, 2.0 * math.pi, "N=32, L=6.28319"),
                                           (64, 4.0 * math.pi, "N=64, L=12.5664")])
    def test_data_off_the_config_grid_rejected(self, N, L, got, monkeypatch):
        # Used to run silently on the data's grid, the config's N or L
        # ignored; later, only after selecting the horizon on the data's grid.
        calls = Counter()
        original = mhd.select_time_horizon

        def spy(*args):
            calls["select_time_horizon"] += 1
            return original(*args)

        monkeypatch.setattr(mhd, "select_time_horizon", spy)
        data = taylor_green_data(make_grid(2, N, L))
        with pytest.raises(ValueError, match=f"data on the grid d=2, {got}, but the config "
                                             f"asks for d=2, N=64, L=6.28319"):
            run_iteration(data, _small_config())
        with pytest.raises(ValueError, match=f"data on the grid d=2, {got}"):
            run_iteration(data, IterationConfig(N=64))
        assert calls == Counter()

    def test_iterate_advances_and_links(self, grid):
        cfg = _small_config()
        data = taylor_green_data(grid)
        s0 = init_iterate(data, cfg, 0.02)
        s1 = iterate_once(s0, cfg)
        assert s1.n == 1
        assert s1.data is s0.data and s1.bank is s0.bank
        assert s1.T == s0.T

    def test_run_records_and_difference_decay(self, grid):
        diag = run_iteration(taylor_green_data(grid), _small_config())
        assert len(diag.records) == 4
        assert [r.n for r in diag.records] == [0, 1, 2, 3]
        assert math.isnan(diag.records[-1].d_n)
        d_vals = diag.difference_norms
        assert len(d_vals) == 3
        assert d_vals[1] < 0.01 * d_vals[0]
        assert d_vals[2] < 0.01 * d_vals[1]
        assert diag.decay_ratio < 0.5
        assert not diag.converged

    def test_tolerance_stops_early(self, grid):
        cfg = _small_config(max_iterations=8, tolerance=1e-6)
        diag = run_iteration(taylor_green_data(grid), cfg)
        assert diag.converged
        assert len(diag.records) < 9

    def test_override_horizon(self, grid):
        diag = run_iteration(taylor_green_data(grid), _small_config(), T_override=0.01)
        assert diag.T == 0.01
        assert diag.final_state.u_series.times[-1] == 0.01

    def test_uniform_bounds_hold(self, grid):
        cfg = _small_config()
        diag = run_iteration(taylor_green_data(grid), cfg)
        rep = check_uniform_bounds(diag.final_state, cfg)
        assert rep.h1_margin > 0.0
        assert rep.h2_margin > 0.0
        np.testing.assert_allclose(rep.h1_rhs, cfg.c0 * diag.e0, rtol=1e-13)
        assert rep.h2_rhs == cfg.eta

    def test_bounds_build_one_shell_matrix_per_series(self, grid, monkeypatch):
        cfg = _small_config()
        state = init_iterate(taylor_green_data(grid), cfg, 0.01)
        expected = check_uniform_bounds(state, cfg)
        calls = []
        original = mhd.shell_lp_matrix

        def counted(series, p, bank):
            calls.append(series)
            return original(series, p, bank)

        monkeypatch.setattr(mhd, "shell_lp_matrix", counted)
        assert check_uniform_bounds(state, cfg) == expected
        assert len(calls) == 2
        assert calls[0] is state.u_series and calls[1] is state.b_series

    def test_bounds_at_p2_make_no_transform(self, grid, count_transforms):
        cfg = _small_config()
        state = iterate_once(init_iterate(taylor_green_data(grid), cfg, 0.01), cfg)
        counts = count_transforms()
        check_uniform_bounds(state, cfg)
        assert counts == Counter()

    def test_iterate_reuses_the_stored_data_coefficients(self, grid, count_transforms):
        cfg = _small_config()
        state = init_iterate(taylor_green_data(grid), cfg, 0.01)
        n = round(0.01 / cfg.dt)
        counts = count_transforms()
        iterate_once(state, cfg)
        # Assembly: 1 + 1 per snapshot; transport: 1 inverse per velocity
        # snapshot, 4 + 4 per RK4 step.  The truncated u0 and B0 come from the
        # data's coefficients.
        assert counts == Counter(fft=(n + 1) + 4 * n, ifft=(n + 1) + (n + 1) + 4 * n)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("T_override", [None, 0.01])
    def test_run_transforms_only_to_build_its_iterates(self, grid, count_transforms, p,
                                                       T_override):
        # The horizon reads the data's stored u0 coefficients, and the bounds
        # and D_n run no grid transform at any p, so a run costs exactly the
        # transforms of the iterates it builds.
        cfg = _small_config(max_iterations=1, p=p)
        data = taylor_green_data(grid)
        counts = count_transforms()
        diag = run_iteration(data, cfg, T_override=T_override)
        run_counts = counts.copy()
        counts.clear()
        iterate_once(init_iterate(data, cfg, diag.T), cfg)
        assert run_counts == counts

    def test_run_keeps_at_most_two_iterates_alive(self, grid, monkeypatch):
        series_refs = []
        original = mhd.iterate_once

        def watched(state, config):
            # About to build iterate k+1 from iterate k: iterate k-1 must be gone.
            gc.collect()
            if len(series_refs) >= 2:
                assert series_refs[-2]() is None
            assert series_refs[-1]() is state.u_series
            out = original(state, config)
            series_refs.append(weakref.ref(out.u_series))
            return out

        original_init = mhd.init_iterate

        def watched_init(*args):
            out = original_init(*args)
            series_refs.append(weakref.ref(out.u_series))
            return out

        monkeypatch.setattr(mhd, "iterate_once", watched)
        monkeypatch.setattr(mhd, "init_iterate", watched_init)
        diag = run_iteration(taylor_green_data(grid), _small_config(max_iterations=4))
        assert len(series_refs) == 5
        assert series_refs[-1]() is diag.final_state.u_series

    @pytest.mark.parametrize("L, band", [(2.0 * math.pi, (-2, 2)), (24.0 * math.pi, (-5, -2))])
    def test_b_series_live_on_the_cube(self, L, band):
        # The band ends inside the cube, so white-noise data truncated at
        # any level vanish off it: every u^n and B^n is a cube series, and
        # B^n(0) is S_n B0 to the bit.  At L = 24 pi the band that ended at
        # the Nyquist radius, (-5, -1), put 47% of S_0 B0's L2 norm off the cube.
        cfg = _small_config(N=32, L=L)
        grid, rng = cfg.grid(), np.random.default_rng(14)
        bank = cfg.bank(grid)
        assert (bank.j_min, bank.j_max) == band
        data = prepare_initial_data(
            *(Field(grid, 0.05 * rng.standard_normal((2,) + grid.shape)) for _ in range(2)))
        state = init_iterate(data, cfg, 0.01)
        for n in range(3):
            for series in (state.u_series, state.b_series):
                assert series.coeffs.shape == (series.n_times, 2) + grid.cube_shape
            mult = bank.lowpass_multiplier(mhd._clamped_level(bank, max(n, bank.j_min)))
            np.testing.assert_array_equal(state.b_series.coeffs[0],
                                          grid.to_cube(data.b0_hat * grid.from_cube(mult)))
            state = iterate_once(state, cfg)

    @staticmethod
    def _iterate_peak_ratio() -> float:
        """Traced peak of one 3-D N=16, p=3 iterate and its D_n, counting the
        live iterate it starts from, in units of one half-spectrum series of u."""
        cfg = IterationConfig(d=3, N=16, p=3.0, max_iterations=1, tolerance=0.0)
        grid = cfg.grid()
        bank = cfg.bank(grid)
        raw = [divergence_free_field(grid, bank, sample_rng(0, i)) for i in (0, 1)]
        data = prepare_initial_data(*(Field(grid, 0.05 * f.samples / lp_norm(f, 2.0))
                                      for f in raw))
        tracemalloc.start()
        try:
            state = init_iterate(data, cfg, 0.05, bank)
            tracemalloc.reset_peak()
            mhd._difference_norm(iterate_once(state, cfg), state, cfg.p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        unit = state.u_series.n_times * grid.d * math.prod(grid.spectral_shape) * 16
        return peak / unit

    def test_iterate_peak_memory_in_half_spectrum_series(self):
        # With every series on the half spectrum the peak was 7.66; holding
        # the B side on the cube and running the transport first brought it to
        # 4.12, and holding u on the cube and inverting the velocity one
        # snapshot at a time brings it to 2.70.  The bound sits halfway.
        assert self._iterate_peak_ratio() < 3.41

    def test_split_batches_lower_the_iterate_peak(self, monkeypatch):
        # The same iterate with every transform taken one row at a time, as
        # on grids past the budget: 1.979 units, against 2.108 with the whole
        # batches (and the truncated data built up front) before the budget
        # existed.  The bound sits halfway between that 2.108 and 2.025, the
        # split callers' reading.
        monkeypatch.setattr(spectral, "_BATCH_SAMPLES", 0)
        assert self._iterate_peak_ratio() < 2.066

    def test_residual_probe(self, grid):
        diag = run_iteration(taylor_green_data(grid), _small_config())
        res = system_residual(diag.final_state.u_series, diag.final_state.b_series)
        assert res["u"].max() <= 1e-5
        assert res["b"].max() <= 1e-5
        times = diag.final_state.u_series.times
        u_series = diag.final_state.u_series
        snaps = [u_series.field(i) for i in range(u_series.n_times)]
        mid = len(snaps) // 2
        snaps[mid] = Field(grid, 1.5 * snaps[mid].samples)
        broken = TimeSeriesField.from_snapshots(times, snaps)
        res_bad = system_residual(broken, diag.final_state.b_series)
        assert res_bad["u"].max() > 10.0 * res["u"].max()


class TestMagneticPotential:
    """In 2-D, B = (-d2 a, d1 a) and the non-resistive potential a is only
    transported, d_t a + u.grad a = 0.  Marching a0 under the converged u is
    a second discretization of B(T), independent of the iteration's B
    equation with its stretching source."""

    @staticmethod
    def _potential_error(data, config, T):
        grid = data.grid
        diag = run_iteration(data, config, T_override=T)
        assert diag.converged
        ik, k_sq = grid.cube_k.ik, grid.cube_k.k_sq
        b0 = grid.to_cube(data.b0_hat)
        a0 = -(ik[0] * b0[1] - ik[1] * b0[0]) / np.where(k_sq > 0.0, k_sq, 1.0)
        potential = solve_transport(TransportProblem(
            SpectralField(grid, grid.from_cube(a0[None])), diag.final_state.u_series,
            None, diag.T, config.dt))
        a_T = potential.coeffs[-1, 0]
        b_T = diag.final_state.b_series.coeffs[-1]
        b_pot = np.stack([-ik[1] * a_T, ik[0] * a_T])
        return float(spectral._l2_norms(grid, b_T - b_pot) / spectral._l2_norms(grid, b_T))

    def test_potential_pins_b_at_order_two(self):
        def error(dt):
            config = IterationConfig(d=2, N=64, dt=dt, tolerance=1e-15)
            return self._potential_error(taylor_green_data(config.grid(), amplitude=0.05),
                                         config, 0.058)

        coarse, fine = error(2e-3), error(1e-3)
        assert 1.82e-10 < coarse < 1.84e-10
        assert 4.55e-11 < fine < 4.60e-11
        assert 1.9 <= math.log2(coarse / fine) <= 2.1

    def test_potential_pins_b_on_random_data_at_order_two(self):
        # Prepared random data: u0_hat and b0_hat are the projected spectra.
        def error(dt):
            config = IterationConfig(d=2, N=32, dt=dt, tolerance=1e-15)
            grid = config.grid()
            bank = config.bank(grid)
            u, b = (divergence_free_field(grid, bank, sample_rng(0, i)) for i in (0, 1))
            data = prepare_initial_data(Field(grid, 0.05 * u.samples / lp_norm(u, 2.0)),
                                        Field(grid, 0.5 * b.samples / lp_norm(b, 2.0)))
            return self._potential_error(data, config, 0.02)

        coarse, fine = error(2e-3), error(1e-3)
        assert 1.85e-10 < coarse < 1.87e-10
        assert 4.63e-11 < fine < 4.68e-11
        assert 1.9 <= math.log2(coarse / fine) <= 2.1


class TestCauchyOracle:
    """Cauchy's formula gives B(T) from the run's own u series and B(0) along
    backward characteristics (``cauchy_oracle``), using none of the marcher;
    the relative max error over 48 fixed points pins the marcher's order in
    2-D and in 3-D."""

    @staticmethod
    def _cauchy_error(data, config, T):
        grid = data.grid
        diag = run_iteration(data, config, T_override=T)
        assert diag.records[-2].d_n < 1e-15
        u, b = diag.final_state.u_series, diag.final_state.b_series
        points = np.random.default_rng(3).uniform(0.0, grid.L, (48, grid.d))
        b_iter = cauchy_oracle.evaluate(b.coeffs[-1], grid.N, grid.L, points).T
        b_cauchy = cauchy_oracle.cauchy_b(u.times, u.coeffs, b.coeffs[0], grid.N, grid.L, points)
        return float(np.max(np.abs(b_iter - b_cauchy)) / np.max(np.abs(b_iter)))

    def test_taylor_green_b_at_order_two(self):
        def error(dt):
            config = IterationConfig(d=2, N=64, dt=dt, tolerance=1e-15)
            return self._cauchy_error(taylor_green_data(config.grid(), amplitude=0.05),
                                      config, 0.058)

        coarse, fine = error(2e-3), error(1e-3)
        assert 3.90e-9 < coarse < 3.93e-9
        assert 9.75e-10 < fine < 9.81e-10
        assert 1.9 <= math.log2(coarse / fine) <= 2.1

    def test_random_3d_b_at_order_two(self):
        # u0 and B0 are 0.05 and 0.5 times two draws from one generator, each over its RMS.
        def error(dt):
            config = IterationConfig(d=3, N=16, dt=dt, max_iterations=9, tolerance=0.0)
            grid = config.grid()
            rng = np.random.default_rng(0)
            u, b = (divergence_free_field(grid, config.bank(grid), rng) for _ in range(2))
            data = prepare_initial_data(Field(grid, 0.05 * u.samples / lp_norm(u, 2.0)),
                                        Field(grid, 0.5 * b.samples / lp_norm(b, 2.0)))
            return self._cauchy_error(data, config, 0.04)

        coarse, fine = error(4e-3), error(2e-3)
        assert 8.50e-9 < coarse < 8.56e-9
        assert 2.12e-9 < fine < 2.14e-9
        assert 1.9 <= math.log2(coarse / fine) <= 2.1

class TestOsgoodCheck:
    def test_zero_difference_passes(self):
        times = np.linspace(0.0, 1.0, 11)
        rho = np.zeros(11)
        out = osgood_check(times, rho, a_t=1.0, c_t=1.0, offset=1e-6)
        assert out.passed
        np.testing.assert_allclose(out.margins, 1e-6)

    def test_fast_growth_fails(self):
        times = np.linspace(0.0, 1.0, 11)
        rho = np.linspace(0.0, 10.0, 11)
        out = osgood_check(times, rho, a_t=0.0, c_t=1.0, offset=1e-3)
        assert not out.passed
        assert out.worst_margin < -9.0

    def test_negative_rho_rejected(self):
        times = np.linspace(0.0, 1.0, 3)
        with pytest.raises(ValueError, match="nonnegative"):
            osgood_check(times, np.array([0.0, -1.0, 0.0]), 1.0, 1.0, 0.0)


class TestSourceAssembly:
    """The one-pass spectral forcing and stretching against the
    tensor_divergence oracle."""

    @staticmethod
    def _series(d, n_times=3, seed=11):
        grid = make_grid(d, 32 if d == 2 else 16)
        rng = np.random.default_rng(seed + d)
        times = np.linspace(0.0, 0.01, n_times)

        def series():
            snaps = [Field(grid, _dealiased_samples(grid, 0.3 * rng.standard_normal(
                (d,) + grid.shape))) for _ in times]
            return TimeSeriesField.from_snapshots(times, snaps)

        return grid, series(), series()

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_tensor_divergence_oracle(self, d, monkeypatch):
        grid, u, b = self._series(d)
        forcing, source = mhd._assemble_sources(u, b)
        # The oracle walks physical snapshot lists and builds its series from them.
        monkeypatch.setattr(assembly_oracle, "TimeSeriesField", TimeSeriesField.from_snapshots)
        u_snaps, b_snaps = (
            SimpleNamespace(times=s.times, snapshots=[s.field(i) for i in range(s.n_times)])
            for s in (u, b)
        )
        oracle = (
            assembly_oracle.forcing_series(u_snaps, b_snaps),
            assembly_oracle.stretching_series(u_snaps, b_snaps),
        )
        for got, want in zip((forcing, source), oracle):
            np.testing.assert_array_equal(got.times, want.times)
            for i in range(got.n_times):
                w = want.field(i)
                scale = np.max(np.abs(w.samples))
                assert np.max(np.abs(got.field(i).samples - w.samples)) <= 1e-13 * scale

    @pytest.mark.parametrize("d", [2, 3])
    def test_cube_assembly_matches_the_half_spectrum_formula(self, d):
        grid, u, b = self._series(d)
        got = mhd._assemble_sources(u, b)
        want = half_spectrum_oracle.assemble_sources(u, b)
        for g, w in zip(got, want):
            assert g.coeffs.shape == (u.n_times, d) + grid.cube_shape
            np.testing.assert_array_equal(grid.from_cube(g.coeffs), w)
            assert np.all(w[..., ~grid.dealias_mask] == 0.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_forward_transforms_only_distinct_tensor_entries(self, d, monkeypatch):
        _, u, b = self._series(d)
        batches = []
        original = FrequencyGrid.fft

        def recorded(self, samples, *args, **kwargs):
            batches.append((samples.shape[0], kwargs))
            return original(self, samples, *args, **kwargs)

        monkeypatch.setattr(FrequencyGrid, "fft", recorded)
        mhd._assemble_sources(u, b)
        # d(d+1)/2 entries of B (x) B - u (x) u and d^2 of u (x) B: 7 in 2-D, 15 in 3-D.
        entries = d * (d + 1) // 2 + d * d
        assert batches == [(entries, {"dealiased": True})] * u.n_times

    @pytest.mark.parametrize("d", [2, 3])
    def test_split_batches_are_bitwise_the_whole_one(self, d, monkeypatch, count_transforms):
        _, u, b = self._series(d, n_times=4)
        whole = mhd._assemble_sources(u, b)
        monkeypatch.setattr(spectral, "_BATCH_SAMPLES", 0)
        counts = count_transforms()
        split = mhd._assemble_sources(u, b)
        for got, want in zip(split, whole):
            np.testing.assert_array_equal(got.coeffs, want.coeffs)
        # The grid slices its rows; the assembly still makes one inverse and one forward per snapshot.
        assert counts == Counter(fft=4, ifft=4)

    def test_snapshots_own_their_buffers(self):
        _, u, b = self._series(2)
        forcing, source = mhd._assemble_sources(u, b)
        assert forcing.coeffs.flags.owndata and source.coeffs.flags.owndata
        assert not np.shares_memory(forcing.coeffs, source.coeffs)

    @pytest.mark.parametrize("d", [2, 3])
    def test_one_forward_one_inverse_per_snapshot(self, d, count_transforms):
        _, u, b = self._series(d, n_times=4)
        counts = count_transforms()
        mhd._assemble_sources(u, b)
        assert counts == Counter(fft=4, ifft=4)

    def test_overflowing_products_fail_the_finite_check(self, grid):
        cfg = _small_config()
        state = init_iterate(taylor_green_data(grid), cfg, 0.01)
        huge = TimeSeriesField(grid, state.u_series.times, 1e200 * state.u_series.coeffs)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="field samples must be finite"):
                iterate_once(replace(state, u_series=huge), cfg)


class TestUniquenessGauge:
    def test_twin_report_builds_five_shell_matrices(self, grid, monkeypatch):
        cfg = _small_config(max_iterations=1)
        data = taylor_green_data(grid)
        base = run_iteration(data, cfg)
        bank = base.final_state.bank
        pert = perturb_initial_data(data, 1e-3, cfg.seed + 7919, bank)
        twin = run_iteration(pert, cfg, T_override=base.T)
        monkeypatch.setattr(mhd, "run_iteration", lambda *args, **kw: twin)
        calls = []
        original = littlewood_paley.shell_lp_matrix

        def counted(series, p, bank):
            calls.append(series)
            return original(series, p, bank)

        # lpmhd.paraproduct names the function, so the module comes from importlib.
        for module in (littlewood_paley, mhd, importlib.import_module("lpmhd.paraproduct")):
            monkeypatch.setattr(module, "shell_lp_matrix", counted)
        rep = mhd._twin_report(base, data, cfg, 1e-3)
        assert len(calls) == 5
        monkeypatch.undo()

        # The same quantities composed from the public one-matrix-per-call functions.
        d, p = grid.d, cfg.p
        u1, b1, b2 = base.final_state.u_series, base.final_state.b_series, twin.final_state.b_series
        du = u1 - twin.final_state.u_series
        db = b1 - b2

        def cl(series, s, r, q):
            return chemin_lerner_norm(series, BesovSpec(s, p, r, q), bank)

        np.testing.assert_array_equal(
            rep.rho, chemin_lerner_trace(du, BesovSpec(d / p, p, math.inf, 1.0), bank)
        )
        np.testing.assert_array_equal(
            rep.delta_b_trace,
            chemin_lerner_trace(db, BesovSpec(d / p - 1.0, p, math.inf, math.inf), bank),
        )
        bridge = log_interpolation_ratio(du, d / p, p, 1.0, 1.0, bank)
        c_emp = 1.0 if bridge.degenerate else max(1.0, bridge.ratio)
        b1_sup, b2_sup = (cl(b, d / p, 1.0, math.inf) for b in (b1, b2))
        a_t = c_emp * math.exp(c_emp * cl(u1, d / p + 1.0, 1.0, 1.0)) * b2_sup * (b1_sup + b2_sup)
        assert rep.c_emp == c_emp
        assert rep.a_t == a_t
        assert rep.c_t == cl(du, d / p - 1.0, math.inf, 1.0) + cl(du, d / p + 1.0, math.inf, 1.0)
        assert rep.solution_scale == cl(u1, d / p - 1.0, 1.0, math.inf) + b1_sup
        # The t = 0 offsets read off column 0 equal the snapshot Besov norms exactly.
        du0, db0 = (
            littlewood_paley.besov_norm(f.sample_at(0.0), BesovSpec(s, p, math.inf), bank)
            for f, s in ((du, d / p), (db, d / p - 1.0))
        )
        scale = rep.solution_scale
        assert rep.offset == (
            mhd._GAUGE_SLACK * base.T * (du0 + a_t * db0) + 1e-14 * base.T * (1.0 + scale)
        )

    def test_zero_perturbation_twin_is_identical(self, grid):
        cfg = _small_config()
        rep = twin_run_uniqueness(taylor_green_data(grid), cfg, 0.0)
        assert np.all(rep.rho == 0.0)
        assert np.all(rep.delta_b_trace == 0.0)
        assert rep.c_emp == 1.0
        assert rep.osgood_passed

    def test_sweep_slope_near_linear(self, grid):
        cfg = _small_config()
        sweep = perturbation_sweep(taylor_green_data(grid), cfg, [1e-4, 1e-3])
        assert all(r.osgood_passed for r in sweep.reports)
        assert 0.8 < sweep.slope < 1.2
        assert sweep.rho_final[1] > sweep.rho_final[0]

    def test_degenerate_sweep_slope_is_nan(self, grid):
        cfg = _small_config(max_iterations=2)
        sweep = perturbation_sweep(taylor_green_data(grid), cfg, [0.0])
        assert math.isnan(sweep.slope)
        assert sweep.rho_final[0] == 0.0
