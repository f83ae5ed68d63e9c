"""Tests for the heat and transport sub-solvers and their estimate monitors."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import half_spectrum_oracle
from lpmhd import (
    Field,
    HeatProblem,
    SpectralField,
    TimeSeriesField,
    TransportProblem,
    build_filter_bank,
    divergence_free_field,
    etd_phi1,
    etd_phi2,
    heat_estimate_report,
    interior_field,
    lp_norm,
    make_grid,
    sample_rng,
    solve_heat,
    solve_transport,
    to_spectral,
    transport_estimate_report,
)
from lpmhd import spectral
from lpmhd.spectral import _dealiased_samples


def _steady_velocity(grid, samples, T):
    v = Field(grid, samples)
    return TimeSeriesField.from_snapshots(np.array([0.0, T]), [v, v])


def _step_series(grid, g, T, dt):
    """The forcing t -> g(t) (samples) as a series on the step grid n*dt of [0, T]."""
    times = np.arange(round(T / dt) + 1) * dt
    return TimeSeriesField.from_snapshots(times, [Field(grid, g(t)) for t in times])


def _traced_transport_peak() -> float:
    """Traced peak of building and solving a 3-D N=16 transport problem
    advected by a 30-snapshot velocity, in units of one snapshot's N^d samples."""
    grid = make_grid(3, 16)
    bank = build_filter_bank(grid)
    times = np.arange(30) * 1e-3
    snaps = [divergence_free_field(grid, bank, sample_rng(7, i)) for i in range(30)]
    velocity = TimeSeriesField.from_snapshots(times, snaps)
    f0 = Field(grid, _dealiased_samples(grid, np.random.default_rng(1).standard_normal(
        (1,) + grid.shape)))
    tracemalloc.start()
    try:
        solve_transport(TransportProblem(f0, velocity, None, times[-1], 1e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (grid.d * grid.N**grid.d * 8)


class TestEtdPhi:
    def test_exact_values(self):
        np.testing.assert_allclose(etd_phi1(np.array([0.0])), [1.0], rtol=1e-15)
        np.testing.assert_allclose(etd_phi1(np.array([1.0])), [math.e - 1.0], rtol=1e-14)
        np.testing.assert_allclose(etd_phi2(np.array([0.0])), [0.5], rtol=1e-15)
        np.testing.assert_allclose(etd_phi2(np.array([1.0])), [math.e - 2.0], rtol=1e-13)

    def test_branch_continuity(self):
        z1 = np.array([-1.0000001e-12, -0.9999999e-12])
        vals = etd_phi1(z1)
        assert abs(vals[0] - vals[1]) < 1e-12
        z2 = np.array([-4.0000004e-4, -3.9999996e-4])
        vals = etd_phi2(z2)
        assert abs(vals[0] / vals[1] - 1.0) < 1e-10

    def test_vectorized_shape(self):
        z = -np.linspace(0.0, 5.0, 12).reshape(3, 4)
        assert etd_phi1(z).shape == (3, 4)
        assert etd_phi2(z).shape == (3, 4)


class TestHeatSolver:
    def test_single_mode_decay(self, grid):
        x1, x2 = grid.coords()
        u0 = Field(grid, np.cos(2.0 * x1 + x2)[None])
        sol = solve_heat(HeatProblem(u0, None, 0.1, 1e-3))
        expected = math.exp(-5.0 * 0.1) * u0.samples
        np.testing.assert_allclose(sol.field(-1).samples, expected, atol=1e-13)

    def test_linear_in_time_forcing_is_exact(self, grid):
        # The exponential-trapezoid Duhamel term integrates forcing that is
        # linear in t without any quadrature error.
        x1, x2 = grid.coords()
        shape = np.cos(3.0 * x2)[None]
        u0 = Field(grid, 0.2 * shape)
        lam = 9.0
        T, dt = 0.2, 2e-3
        forcing = _step_series(grid, lambda t: (1.0 + 2.0 * t) * shape, T, dt)
        sol = solve_heat(HeatProblem(u0, forcing, T, dt))
        decay = math.exp(-lam * T)
        coeff = (
            0.2 * decay
            + (1.0 + 2.0 * T) / lam
            - 2.0 / lam**2
            - decay * (1.0 / lam - 2.0 / lam**2)
        )
        np.testing.assert_allclose(sol.field(-1).samples, coeff * shape, atol=1e-12)

    def test_self_convergence_order_two(self, grid):
        rng = sample_rng(20, 0)
        from lpmhd import build_filter_bank

        bank = build_filter_bank(grid)
        u0 = interior_field(grid, bank, rng)
        g_shape = interior_field(grid, bank, rng)
        T = 0.1

        def forcing(dt):
            return _step_series(grid, lambda t: math.sin(3.0 * t) * g_shape.samples, T, dt)

        ref = solve_heat(HeatProblem(u0, forcing(T / 160.0), T, T / 160.0))
        errs = []
        for n in (10, 20):
            sol = solve_heat(HeatProblem(u0, forcing(T / n), T, T / n))
            diff = sol.field(-1) - ref.field(-1)
            errs.append(lp_norm(diff, 2.0))
        order = math.log2(errs[0] / errs[1])
        assert order > 1.9

    def test_snapshots_stored_as_coefficients(self, grid, count_transforms):
        x1, x2 = grid.coords()
        u0 = Field(grid, np.cos(2.0 * x1 + x2)[None])
        counts = count_transforms()
        sol = solve_heat(HeatProblem(u0, None, 0.02, 2e-3))
        assert counts == Counter(fft=1)
        assert sol.coeffs.shape == (11, 1) + grid.cube_shape

    def test_spectral_initial_data(self, grid):
        rng = sample_rng(21, 0)
        from lpmhd import build_filter_bank

        u0 = interior_field(grid, build_filter_bank(grid), rng)
        a = solve_heat(HeatProblem(u0, None, 0.05, 1e-2))
        b = solve_heat(HeatProblem(to_spectral(u0), None, 0.05, 1e-2))
        np.testing.assert_allclose(
            a.field(-1).samples, b.field(-1).samples, atol=1e-14
        )

    def test_step_validation(self, grid):
        u0 = Field(grid, np.ones((1,) + grid.shape))
        with pytest.raises(ValueError, match="multiple"):
            HeatProblem(u0, None, 0.105, 1e-2)
        with pytest.raises(ValueError, match="T >= dt"):
            HeatProblem(u0, None, 1e-3, 1e-2)
        with pytest.raises(ValueError, match="dt must be positive"):
            HeatProblem(u0, None, 0.1, 0.0)

    def test_short_forcing_series_rejected(self, grid):
        u0 = Field(grid, np.ones((1,) + grid.shape))
        g = TimeSeriesField.from_snapshots(np.array([0.0, 0.05]), [u0, u0])
        with pytest.raises(ValueError, match="covers"):
            HeatProblem(u0, g, 0.1, 1e-2)

    def test_forcing_component_mismatch_rejected(self, grid):
        u0 = Field(grid, np.ones((1,) + grid.shape))
        g = Field(grid, np.ones((2,) + grid.shape))
        forcing = TimeSeriesField.from_snapshots(np.array([0.0, 0.1]), [g, g])
        with pytest.raises(ValueError, match="components"):
            HeatProblem(u0, forcing, 0.1, 1e-2)

    def test_callable_forcing_rejected(self, grid):
        u0 = Field(grid, np.ones((1,) + grid.shape))
        with pytest.raises(TypeError, match="TimeSeriesField or None"):
            HeatProblem(u0, lambda t: u0, 0.1, 1e-2)

    def test_forcing_on_another_grid_rejected(self, grid):
        coarse = make_grid(2, 32)
        u0 = Field(coarse, np.ones((1,) + coarse.shape))
        other = make_grid(2, 32, 1.0)
        g = Field(other, np.ones((1,) + other.shape))
        forcing = TimeSeriesField.from_snapshots(np.array([0.0, 0.1]), [g, g])
        with pytest.raises(ValueError, match="forcing series lives on"):
            HeatProblem(u0, forcing, 0.1, 1e-2)

    def test_bad_initial_type_rejected(self, grid):
        with pytest.raises(TypeError, match="Field"):
            solve_heat(HeatProblem(np.ones(grid.shape), None, 0.1, 1e-2))

    def test_spectral_forcing_series_needs_no_forward_transform(self, grid, count_transforms):
        x1, x2 = grid.coords()
        shape = np.cos(3.0 * x2)[None]
        T, dt = 0.02, 2e-3
        times = np.arange(11) * dt
        snaps = [Field(grid, (1.0 + 2.0 * t) * shape) for t in times]
        g_phys = TimeSeriesField.from_snapshots(times, snaps)
        g_spec = TimeSeriesField.from_snapshots(times, [to_spectral(g) for g in snaps])
        u0 = to_spectral(Field(grid, 0.2 * shape))
        want = solve_heat(HeatProblem(u0, g_phys, T, dt))
        counts = count_transforms()
        got = solve_heat(HeatProblem(u0, g_spec, T, dt))
        assert counts == Counter()
        for i in range(got.n_times):
            np.testing.assert_allclose(
                got.field(i).samples, want.field(i).samples, rtol=0.0, atol=1e-14
            )


class TestHeatEstimate:
    def test_report_on_decaying_run(self, grid, bank):
        rng = sample_rng(22, 0)
        u0 = interior_field(grid, bank, rng)
        problem = HeatProblem(u0, None, 0.1, 2e-3)
        sol = solve_heat(problem)
        rep = heat_estimate_report(sol, problem, 1.0, 1.0, 0.0, 2.0, 1.0, bank)
        assert rep.variant == "heat"
        assert not rep.degenerate
        assert 0.0 < rep.ratio < 1.0
        assert rep.indices == {"s": 0.0, "p": 2.0, "r": 1.0, "q": 1.0, "q1": 1.0}

    def test_exponent_order_enforced(self, grid, bank):
        u0 = Field(grid, np.ones((1,) + grid.shape))
        problem = HeatProblem(u0, None, 0.1, 1e-2)
        sol = solve_heat(problem)
        with pytest.raises(ValueError, match="q1 <= q"):
            heat_estimate_report(sol, problem, 1.0, 2.0, 0.0, 2.0, 1.0, bank)

    def test_forcing_measured_on_the_run_horizon_only(self):
        grid = make_grid(2, 32)
        bank = build_filter_bank(grid)
        x1, x2 = grid.coords()
        u0 = Field(grid, np.cos(2.0 * x1 + x2)[None])
        g = np.sin(3.0 * x1 - x2)[None]

        def ratio(forcing):
            problem = HeatProblem(u0, forcing, 0.1, 0.01)
            return heat_estimate_report(
                solve_heat(problem), problem, 1.0, 1.0, 0.0, 2.0, 1.0, bank
            ).ratio

        exact = ratio(_step_series(grid, lambda t: g, 0.1, 0.01))
        # A series on [0, 0.2] whose snapshots include T = 0.1 ...
        assert ratio(_step_series(grid, lambda t: g, 0.2, 0.01)) == exact
        # ... and one on [0, 0.21] where T falls between snapshots.
        coarse = np.arange(8) * 0.03
        late = TimeSeriesField.from_snapshots(coarse, [Field(grid, g)] * coarse.size)
        assert ratio(late) == pytest.approx(exact, rel=1e-12)

    def test_zero_data_degenerate(self, grid, bank):
        u0 = Field(grid, np.zeros((1,) + grid.shape))
        problem = HeatProblem(u0, None, 0.1, 1e-2)
        sol = solve_heat(problem)
        rep = heat_estimate_report(sol, problem, 1.0, 1.0, 0.0, 2.0, 1.0, bank)
        assert rep.degenerate
        assert rep.ratio == 0.0


class TestTransportSolver:
    def test_constant_velocity_translates(self, grid):
        x1, x2 = grid.coords()
        f0 = Field(grid, (np.sin(x1) * np.cos(2.0 * x2))[None])
        T, dt = 0.25, 2e-3
        vel = _steady_velocity(grid, np.stack([np.ones(grid.shape), -0.5 * np.ones(grid.shape)]), T)
        sol = solve_transport(TransportProblem(f0, vel, None, T, dt))
        shifted = np.sin(x1 - T) * np.cos(2.0 * (x2 + 0.5 * T))
        np.testing.assert_allclose(sol.field(-1).samples[0], shifted, atol=1e-12)

    def test_l2_conserved_by_divergence_free_advection(self, grid):
        x1, x2 = grid.coords()
        vel = _steady_velocity(grid, np.stack([np.sin(x2), np.zeros(grid.shape)]), 0.5)
        f0 = Field(grid, np.cos(x1 + x2)[None])
        sol = solve_transport(TransportProblem(f0, vel, None, 0.5, 2e-3))
        norms = [lp_norm(sol.field(i), 2.0) for i in range(sol.n_times)]
        assert abs(norms[-1] - norms[0]) <= 1e-10 * norms[0]

    def test_constant_source_with_zero_velocity(self, grid):
        x1, _ = grid.coords()
        f0 = Field(grid, np.sin(x1)[None])
        g = Field(grid, np.cos(x1)[None])
        T = 0.1
        vel = _steady_velocity(grid, np.zeros((2,) + grid.shape), T)
        src = TimeSeriesField.from_snapshots(np.array([0.0, T]), [g, g])
        sol = solve_transport(TransportProblem(f0, vel, src, T, 2e-3))
        expected = f0.samples + T * g.samples
        np.testing.assert_allclose(sol.field(-1).samples, expected, atol=1e-12)

    def test_rk4_stage_makes_one_inverse_and_one_forward(self, grid, count_transforms):
        x1, x2 = grid.coords()
        f0 = Field(grid, np.sin(x1)[None])
        g = to_spectral(Field(grid, np.cos(x1)[None]))
        T, dt = 0.01, 2e-3
        vel = _steady_velocity(grid, np.stack([np.sin(x2), np.zeros(grid.shape)]), T)
        src = TimeSeriesField.from_snapshots(np.array([0.0, T]), [g, g])
        counts = count_transforms()
        problem = TransportProblem(f0, vel, src, T, dt)
        sol = solve_transport(problem)
        n = problem.n_steps
        # f0 in at construction, then 4 RK stages per step; snapshots are
        # stored as coefficients.
        # Each velocity snapshot is inverted once, when a step first reads it.
        assert counts == Counter(fft=1 + 4 * n, ifft=4 * n + vel.n_times)
        assert sol.n_times == n + 1

    @pytest.mark.parametrize("d, n", [(2, 32), (3, 16)])
    def test_split_batches_are_bitwise_the_whole_one(self, d, n, monkeypatch, count_transforms):
        grid = make_grid(d, n)
        bank = build_filter_bank(grid)
        T, dt = 0.01, 2e-3
        times = np.linspace(0.0, T, 3)
        rng = np.random.default_rng(d)

        def noise():
            return Field(grid, _dealiased_samples(grid, rng.standard_normal((d,) + grid.shape)))

        vel = TimeSeriesField.from_snapshots(
            times, [divergence_free_field(grid, bank, sample_rng(9, i)) for i in range(times.size)]
        )
        source = TimeSeriesField.from_snapshots(times, [noise() for _ in times])
        problem = TransportProblem(noise(), vel, source, T, dt)
        stages = 4 * problem.n_steps
        counts = count_transforms()
        whole = solve_transport(problem)
        assert counts == Counter(fft=stages, ifft=stages + vel.n_times)
        monkeypatch.setattr(spectral, "_BATCH_SAMPLES", 0)
        counts.clear()
        split = solve_transport(problem)
        np.testing.assert_array_equal(split.coeffs, whole.coeffs)
        # The grid slices its rows; the marcher still makes one inverse and one forward per stage.
        assert counts == Counter(fft=stages, ifft=stages + vel.n_times)

    @pytest.mark.parametrize("d, n, L", [(2, 64, 3.0), (3, 16, 2.0 * math.pi)])
    @pytest.mark.parametrize("with_source", [False, True])
    def test_cube_marcher_matches_the_half_spectrum_formula(self, d, n, L, with_source):
        grid = make_grid(d, n, L)
        bank = build_filter_bank(grid)
        T, dt = 0.02, 2e-3
        times = np.linspace(0.0, T, 4)
        rng = np.random.default_rng(d)

        def noise():
            return Field(grid, _dealiased_samples(grid, rng.standard_normal((d,) + grid.shape)))

        vel = TimeSeriesField.from_snapshots(
            times, [divergence_free_field(grid, bank, sample_rng(9, i)) for i in range(times.size)]
        )
        source = None
        if with_source:
            source = TimeSeriesField.from_snapshots(times, [noise() for _ in times])
        problem = TransportProblem(noise(), vel, source, T, dt)
        sol = solve_transport(problem)
        want = half_spectrum_oracle.solve_transport(problem)
        assert sol.coeffs.shape == (problem.n_steps + 1, d) + grid.cube_shape
        np.testing.assert_array_equal(grid.from_cube(sol.coeffs), want)
        # Every step of the full-layout formula is exactly 0 off the 2/3
        # cube, so the cube stack loses nothing.
        assert np.all(want[..., ~grid.dealias_mask] == 0.0)

    def test_spectral_source_matches_physical_source(self, grid):
        x1, _ = grid.coords()
        f0 = Field(grid, np.sin(x1)[None])
        g = Field(grid, np.cos(x1)[None])
        T = 0.1
        vel = _steady_velocity(grid, np.zeros((2,) + grid.shape), T)
        sols = [
            solve_transport(
                TransportProblem(
                    f0, vel, TimeSeriesField.from_snapshots(np.array([0.0, T]), [s, s]), T, 2e-3
                )
            )
            for s in (g, to_spectral(g))
        ]
        np.testing.assert_allclose(
            sols[1].field(-1).samples, sols[0].field(-1).samples, rtol=0.0, atol=1e-14
        )

    def test_cfl_violation_rejected(self, grid):
        f0 = Field(grid, np.ones((1,) + grid.shape))
        big = _steady_velocity(
            grid, np.stack([30.0 * np.ones(grid.shape), np.zeros(grid.shape)]), 0.1
        )
        with pytest.raises(ValueError, match="CFL violation"):
            solve_transport(TransportProblem(f0, big, None, 0.1, 2e-3))
        # Snapshot 0 passes and snapshot 1 is the first to violate (0.611);
        # the message reports the max over all snapshots, snapshot 2's.
        snaps = [Field(grid, np.stack([a * np.ones(grid.shape), np.zeros(grid.shape)]))
                 for a in (1.0, 30.0, 40.0)]
        later = TimeSeriesField.from_snapshots(np.array([0.0, 0.05, 0.1]), snaps)
        with pytest.raises(ValueError, match=r"dt\*max\|v\|\*N/L = 0\.815 > 0\.5"):
            solve_transport(TransportProblem(f0, later, None, 0.1, 2e-3))

    def test_construction_checks_divergence_by_parseval(self, grid, bank, count_transforms):
        f0 = Field(grid, np.ones((1,) + grid.shape))
        times = np.linspace(0.0, 0.1, 6)
        snaps = [divergence_free_field(grid, bank, sample_rng(5, i)) for i in range(times.size)]
        velocity = TimeSeriesField.from_snapshots(times, snaps)
        counts = count_transforms()
        TransportProblem(f0, velocity, None, 0.1, 2e-3)
        # Parseval on the cube; only the march inverts the velocity, and the
        # one forward transform gathers f0.
        assert counts == Counter(fft=1)

    def test_transport_holds_two_velocity_snapshots(self):
        # Inverting every cube snapshot up front held all 30 (peak 103.8);
        # inverting each when a step first reads it and keeping two brings it
        # to 14.6.  The bound sits below 30.
        assert _traced_transport_peak() < 22.0

    def test_compressible_velocity_rejected(self, grid):
        x1, _ = grid.coords()
        f0 = Field(grid, np.ones((1,) + grid.shape))
        bad = _steady_velocity(grid, np.stack([np.sin(x1), np.zeros(grid.shape)]), 0.1)
        with pytest.raises(ValueError, match="divergence-free"):
            TransportProblem(f0, bad, None, 0.1, 2e-3)

    def test_short_velocity_series_rejected(self, grid):
        f0 = Field(grid, np.ones((1,) + grid.shape))
        vel = _steady_velocity(grid, np.zeros((2,) + grid.shape), 0.05)
        with pytest.raises(ValueError, match="covers"):
            TransportProblem(f0, vel, None, 0.1, 2e-3)

    def test_initial_data_on_another_grid_rejected(self, grid):
        other = make_grid(2, 64, 1.0)
        f0 = Field(other, np.ones((1,) + other.shape))
        vel = _steady_velocity(grid, np.zeros((2,) + grid.shape), 0.1)
        with pytest.raises(ValueError, match="f0 lives on"):
            TransportProblem(f0, vel, None, 0.1, 2e-3)

    def test_bad_initial_type_rejected(self, grid):
        vel = _steady_velocity(grid, np.zeros((2,) + grid.shape), 0.1)
        with pytest.raises(TypeError, match="Field"):
            TransportProblem(np.ones((1,) + grid.shape), vel, None, 0.1, 2e-3)

    def test_source_on_another_grid_rejected(self, grid):
        other = make_grid(2, 64, 1.0)
        f0 = Field(grid, np.ones((1,) + grid.shape))
        vel = _steady_velocity(grid, np.zeros((2,) + grid.shape), 0.1)
        g = Field(other, np.ones((1,) + other.shape))
        src = TimeSeriesField.from_snapshots(np.array([0.0, 0.1]), [g, g])
        with pytest.raises(ValueError, match="source series lives on"):
            TransportProblem(f0, vel, src, 0.1, 2e-3)

    def test_scalar_velocity_rejected(self, grid):
        f0 = Field(grid, np.ones((1,) + grid.shape))
        vel = _steady_velocity(grid, np.zeros((1,) + grid.shape), 0.1)
        with pytest.raises(ValueError, match="vector"):
            TransportProblem(f0, vel, None, 0.1, 2e-3)


class TestTransportEstimate:
    def _shear_monitor(self, grid, bank, s=1.0, r=1.0):
        x1, x2 = grid.coords()
        T, dt = 0.25, 2e-3
        vel = _steady_velocity(grid, np.stack([np.sin(x2), np.zeros(grid.shape)]), T)
        f0 = Field(grid, np.cos(x1 + x2)[None])
        problem = TransportProblem(f0, vel, None, T, dt)
        sol = solve_transport(problem)
        return transport_estimate_report(sol, problem, s, 2.0, r, bank)

    def test_monitor_traces(self, grid, bank):
        mon = self._shear_monitor(grid, bank)
        assert mon.minimal_c >= 0.0
        assert np.all(np.diff(mon.V) >= 0.0)
        assert np.all(np.diff(mon.lhs) >= -1e-12)
        assert np.all(mon.lhs <= mon.rhs * (1.0 + 1e-10) + 1e-30)
        assert 0.0 < mon.minimal_c < 1.0
        ratios = mon.ratio_trace()
        assert ratios.shape == mon.times.shape
        assert np.all(ratios <= 1.0 + 1e-10)

    def test_gradient_measured_once_for_steady_velocity(self, grid, bank, count_transforms):
        x1, x2 = grid.coords()
        f0 = Field(grid, np.cos(x1 + x2)[None])
        counts = count_transforms()

        def monitor(vel, T):
            problem = TransportProblem(f0, vel, None, T, 2e-3)
            sol = solve_transport(problem)
            counts.clear()
            return transport_estimate_report(sol, problem, 1.0, 2.0, 1.0, bank)

        # v = (sin K x2, cos K x1): every mode of grad v sits at |k| = K, so
        # |Delta_j grad v|_L2 = phi_j(K) K and |grad v|_Linf = K sqrt(2).
        for K in (1, 4):
            vel = _steady_velocity(grid, np.stack([np.sin(K * x2), np.cos(K * x1)]), 0.25)
            besov = K * float(np.sum(2.0 ** np.array(bank.shells) * bank.phi[:, 0, K]))
            strength = max(besov, K * math.sqrt(2.0))
            mon = monitor(vel, 0.25)
            # One inverse of the gradient for the whole run; f0 is measured
            # on the cube its problem gathered, with no transform.
            assert counts == Counter(ifft=1)
            np.testing.assert_allclose(mon.V, mon.times * strength, rtol=1e-13)
        v = Field(grid, np.stack([np.sin(x2), np.zeros(grid.shape)]))
        vel = TimeSeriesField.from_snapshots(np.array([0.0, 0.02]), [v, 2.0 * v])
        mon = monitor(vel, 0.02)
        assert counts == Counter(ifft=mon.times.size)
        assert mon.V[-1] / mon.times[-1] > 1.3 * mon.V[1] / mon.times[1]

    def test_report_shape(self, grid, bank):
        mon = self._shear_monitor(grid, bank)
        rep = mon.report()
        assert rep.variant == "transport"
        assert rep.ratio == mon.minimal_c
        assert not rep.degenerate
        assert rep.indices["d"] == 2

    def test_regularity_range_enforced(self, grid, bank):
        with pytest.raises(ValueError, match="admissible range"):
            self._shear_monitor(grid, bank, s=2.5)
        with pytest.raises(ValueError, match="admissible range"):
            self._shear_monitor(grid, bank, s=-2.5)
        with pytest.raises(ValueError, match="admissible range"):
            self._shear_monitor(grid, bank, s=2.0, r=2.0)

    def test_endpoint_regularity_with_r_one(self, grid, bank):
        mon = self._shear_monitor(grid, bank, s=2.0, r=1.0)
        assert mon.endpoint
        assert np.isfinite(mon.minimal_c)
