"""Eleven pinned end-to-end checks, one printed verdict line each.

Each test prints ``criterion NN [pass|FAIL] ...`` with capture suspended,
so the verdicts appear in the live pytest output, then asserts.  Tolerances
are written out literally next to the quantities they bound.
"""

import math
import sys

import numpy as np
import pytest

from lpmhd import (
    Field,
    IterationConfig,
    MhdInitialData,
    low_pass,
    lp_norm,
    perturbation_sweep,
    run_iteration,
    run_bernstein_suite,
    run_bony_suite,
    run_heat_suite,
    run_loginterp_suite,
    run_products_suite,
    run_transport_suite,
    system_residual,
    taylor_green_data,
    to_spectral,
    write_diagnostics,
)
from ns_oracle import oracle_iteration


# Stack of active capture fixtures; the autouse fixture below keeps the
# current test's capsys on top so _verdict can print around the capture.
_CAPTURE = []


@pytest.fixture(autouse=True)
def _verdict_stream(capsys):
    _CAPTURE.append(capsys)
    yield
    _CAPTURE.pop()


def _verdict(number: int, ok: bool, description: str, detail: str):
    line = f"criterion {number:02d} [{'pass' if ok else 'FAIL'}] {description}: {detail}"
    if _CAPTURE:
        with _CAPTURE[-1].disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_01_filter_bank_certification(bank):
    defect = bank.partition_defect()
    disjoint = True
    for i in range(bank.n_shells):
        for k in range(bank.n_shells):
            if abs(i - k) >= 2 and np.any(bank.phi[i] * bank.phi[k] != 0.0):
                disjoint = False
    ok = defect <= 1e-12 and disjoint
    _verdict(
        1, ok, "filter-bank partition and block orthogonality",
        f"interior defect {defect:.3e} <= 1e-12, "
        f"non-adjacent multiplier products identically zero: {disjoint}",
    )


def test_02_three_part_product_reconstruction(grid, bank):
    result = run_bony_suite(grid, bank, seed=0, n_samples=100)
    worst = result.stats["max_relative_residual"]
    ok = result.passed and worst <= 1e-10
    _verdict(
        2, ok, "three-part product reconstruction over 100-sample corpus",
        f"max relative L2 residual {worst:.3e} <= 1e-10",
    )


def test_03_shell_derivative_ratios_stable(grid, bank):
    runs = [run_bernstein_suite(grid, bank, seed=s, n_samples=100) for s in (0, 1)]
    in_window = all(r.passed for r in runs)
    drifts = []
    for key in ("upper_median", "lower_median"):
        a, b = runs[0].stats[key], runs[1].stats[key]
        drifts.append(abs(a - b) / a)
    stable = max(drifts) < 0.10
    ok = in_window and stable
    _verdict(
        3, ok, "two-sided shell-derivative ratios in committed window",
        f"both seeds in window: {in_window}, median drift "
        f"{max(drifts):.3%} < 10% across seeds",
    )


def test_04_product_and_log_interpolation_ratios(grid, bank):
    prod = run_products_suite(grid, bank, seed=0, n_samples=100)
    spread_ok = True
    for variant in ("T", "R", "full", "mixed"):
        r_max = prod.stats[f"{variant}_max"]
        r_med = prod.stats[f"{variant}_median"]
        if not (np.isfinite(r_max) and r_max < 10.0 and r_max / r_med < 10.0):
            spread_ok = False
    logi = run_loginterp_suite(grid, bank, seed=0, n_samples=100)
    ok = prod.passed and spread_ok and logi.passed
    _verdict(
        4, ok, "product-law and log-interpolation ratio corpora",
        f"all variant maxima finite with max/median < 10: {spread_ok}, "
        f"log-interpolation max ratio {logi.stats['max_ratio']:.4g} finite "
        f"on all non-degenerate samples: {logi.passed}",
    )


def test_05_heat_solver_certification(grid, bank):
    result = run_heat_suite(grid, bank, seed=0, n_samples=100)
    s_err = result.stats["single_mode_error"]
    order = result.stats["etd_order"]
    drift = max(result.stats["scale_drift_homogeneous"],
                result.stats["scale_drift_forced"])
    ok = (result.passed and s_err <= 1e-13 and order >= 2.0 and drift <= 1e-12)
    _verdict(
        5, ok, "heat solver exactness, order, and scale invariance",
        f"single-mode error {s_err:.3e} <= 1e-13, self-convergence order "
        f"{order:.3f} >= 2, estimate-ratio drift {drift:.3e} <= 1e-12 under 10x data",
    )


def test_06_transport_solver_certification(grid, bank):
    result = run_transport_suite(grid, bank, seed=0, n_samples=10)
    t_err = result.stats["translation_error"]
    drift = result.stats["l2_drift"]
    shear_c = result.stats["shear_minimal_c"]
    ok = result.passed and t_err <= 1e-11 and drift <= 1e-6
    _verdict(
        6, ok, "transport solver translation, conservation, and minimal constant",
        f"translation error {t_err:.3e} <= 1e-11, L2 drift {drift:.3e} <= 1e-6 "
        f"over T=1, shear minimal C {shear_c:.6f} inside committed window: "
        f"{result.passed}",
    )


def test_07_iteration_existence_run(acceptance_run):
    data, config, diag = acceptance_run
    margins_ok = all(
        rec.h1_lhs <= rec.h1_rhs and rec.h2_lhs <= rec.h2_rhs
        for rec in diag.records
    )
    res = system_residual(diag.final_state.u_series, diag.final_state.b_series)
    worst_res = max(res["u"].max(), res["b"].max())
    ok = (
        diag.T > 0.0
        and diag.horizon.condition_met
        and len(diag.records) == 13
        and margins_ok
        and diag.decay_ratio is not None
        and diag.decay_ratio <= 0.5
        and worst_res <= 5e-4
    )
    _verdict(
        7, ok, "small-data iteration with uniform bounds and geometric decay",
        f"T={diag.T} > 0, both bound margins positive for all 13 iterates: "
        f"{margins_ok}, fitted difference decay {diag.decay_ratio:.3g} <= 0.5, "
        f"final equation residual {worst_res:.3e} <= 5e-4",
    )


def test_08_uniqueness_gauge_and_sweep(grid):
    config = IterationConfig(max_iterations=12, tolerance=0.0)
    data = taylor_green_data(grid)
    sweep = perturbation_sweep(data, config, [0.0, 1e-5, 1e-4, 1e-3])
    zero = sweep.reports[0]
    zero_ok = (
        zero.rho[-1] <= 1e-8 * zero.solution_scale and zero.osgood_passed
    )
    all_pass = all(r.osgood_passed for r in sweep.reports)
    slope_ok = 0.8 <= sweep.slope <= 1.2
    ok = zero_ok and all_pass and slope_ok
    _verdict(
        8, ok, "twin-run uniqueness gauge and perturbation response",
        f"zero-perturbation rho(T) {zero.rho[-1]:.3e} <= 1e-8 x scale "
        f"{zero.solution_scale:.3e} with integral inequality passing, all "
        f"sweep verdicts pass: {all_pass}, log-log slope {sweep.slope:.4f} in 1 +- 0.2",
    )


def _fields(series):
    return [series.field(i) for i in range(series.n_times)]


def test_09_reduction_and_symmetry_consistency(grid, bank, full_lattice):
    tg = taylor_green_data(grid)
    zero_b = Field(grid, np.zeros_like(tg.b0.samples))
    data = MhdInitialData(tg.u0, zero_b)
    config = IterationConfig(max_iterations=6, tolerance=0.0)
    diag = run_iteration(data, config)
    b_stays_zero = all(
        np.all(s.samples == 0.0) for s in _fields(diag.final_state.b_series)
    )
    levels = {
        lvl: full_lattice(grid, grid.from_cube(bank.lowpass_multiplier(lvl)))
        for lvl in range(0, bank.j_max + 2)
    }
    oracle_snaps = oracle_iteration(
        tg.u0.samples, grid.L, config.dt, diag.T, levels, bank.j_max + 1, 6
    )
    devs = [
        lp_norm(Field(grid, lib.samples - orc), 2.0)
        for lib, orc in zip(_fields(diag.final_state.u_series), oracle_snaps)
    ]
    oracle_dev = max(devs)

    cfg4 = IterationConfig(max_iterations=4, tolerance=0.0)
    diag_p = run_iteration(tg, cfg4)
    flipped = MhdInitialData(tg.u0, Field(grid, -tg.b0.samples))
    diag_m = run_iteration(flipped, cfg4)
    u_dev = max(
        lp_norm(Field(grid, a.samples - b.samples), 2.0)
        for a, b in zip(
            _fields(diag_p.final_state.u_series),
            _fields(diag_m.final_state.u_series),
        )
    )
    b_dev = max(
        lp_norm(Field(grid, a.samples + b.samples), 2.0)
        for a, b in zip(
            _fields(diag_p.final_state.b_series),
            _fields(diag_m.final_state.b_series),
        )
    )
    ok = (
        b_stays_zero
        and oracle_dev <= 1e-10
        and u_dev <= 1e-12
        and b_dev <= 1e-12
    )
    _verdict(
        9, ok, "viscous-only reduction against independent oracle and sign symmetry",
        f"B stays identically zero: {b_stays_zero}, worst per-snapshot oracle "
        f"deviation {oracle_dev:.3e} <= 1e-10, sign-flip deviations u "
        f"{u_dev:.3e} / B {b_dev:.3e} <= 1e-12",
    )


def test_10_byte_deterministic_diagnostics(acceptance_run, tmp_path):
    data, config, diag = acceptance_run
    rerun = run_iteration(
        taylor_green_data(config.grid()),
        IterationConfig(max_iterations=12, tolerance=0.0),
    )
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_diagnostics(diag, path_a)
    write_diagnostics(rerun, path_b)
    identical = path_a.read_bytes() == path_b.read_bytes()
    _verdict(
        10, identical, "byte-identical diagnostics on rerun",
        f"{len(path_a.read_bytes())} bytes compared equal: {identical}",
    )


def test_11_magnetic_shear_exact_oracle():
    # u0 = 0, B0 = (sin x2, 0[, 0]): B.grad B, the Lorentz force and the
    # stretching all vanish, so every iterate n >= 1 has u = 0 and B equal to
    # its truncated data S_level B0 at every time, and D_n = 0 up to roundoff.
    worst_u = worst_b = worst_d = 0.0
    for d, n_grid, t_max, iterates in ((2, 32, 0.05, 4), (3, 16, 0.02, 3)):
        config = IterationConfig(d=d, N=n_grid, t_max=t_max, max_iterations=iterates,
                                 tolerance=0.0)
        grid = config.grid()
        bank = config.bank(grid)
        shear = np.zeros((d,) + grid.shape)
        shear[0] = np.sin(grid.coords()[1])
        data = MhdInitialData(Field(grid, np.zeros_like(shear)), Field(grid, shear))
        diag = run_iteration(data, config)
        final = diag.final_state
        want = low_pass(bank, min(iterates, bank.j_max + 1), to_spectral(data.b0)).coeffs
        scale = float(np.max(np.abs(want)))
        worst_u = max(worst_u, float(np.max(np.abs(final.u_series.coeffs))))
        worst_b = max(worst_b, float(np.max(np.abs(grid.from_cube(final.b_series.coeffs) - want))) / scale)
        later = [r.d_n for r in diag.records[1:-1]]
        worst_d = max(worst_d, max(later) / diag.e0)
        assert final.n == iterates and diag.T == t_max and len(later) == iterates - 1
    ok = worst_u == 0.0 and worst_b <= 1e-14 and worst_d <= 1e-14
    _verdict(
        11, ok, "magnetic shear u0 = 0, B0 = (sin x2, 0) exact in 2-D N=32 and 3-D N=16",
        f"max |u^n coefficient| {worst_u:.3e} == 0, B^n against low-passed B0 {worst_b:.3e} "
        f"<= 1e-14 relative, D_n for n >= 1 {worst_d:.3e} <= 1e-14 x E0",
    )
