"""Seeded verification suites behind the ``verify`` command.

Each suite runs a reproducible corpus through one family of checkers and
returns a SuiteResult: a pass/fail verdict, human-readable failure
messages, summary statistics, and the raw per-sample reports for CSV
export.  Empirical ratio distributions are regression-checked against the
windows committed in ``baselines.json``; a missing window is a failure,
never a silent skip.
"""

from __future__ import annotations

import importlib.resources
import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .littlewood_paley import (
    BesovSpec,
    FilterBank,
    TimeSeriesField,
    bernstein_ratios,
    build_filter_bank,
)
from .linear_solvers import (
    HeatProblem,
    TransportProblem,
    heat_estimate_report,
    solve_heat,
    solve_transport,
    transport_estimate_report,
)
from .paraproduct import (
    _ratio_report,
    bony_decompose,
    log_interpolation_ratio,
    product_law_ratio,
)
from .random_fields import (
    decaying_series,
    divergence_free_field,
    interior_field,
    ring_field,
    sample_rng,
)
from .spectral import Field, FrequencyGrid, dealiased_product, lp_norm, make_grid

__all__ = [
    "SuiteResult",
    "load_baselines",
    "run_bernstein_suite",
    "run_bony_suite",
    "run_products_suite",
    "run_loginterp_suite",
    "run_heat_suite",
    "run_transport_suite",
    "SUITES",
]

DEFAULT_SAMPLES = 100
_DEFAULT_GRID = (2, 64, 2.0 * math.pi)  # (d, N, L) of the grid the windows were measured on
_BONY_TOLERANCE = 1e-10  # largest relative reconstruction residual the bony suite accepts


@dataclass
class SuiteResult:
    """Outcome of one verification suite."""

    name: str
    passed: bool
    n_samples: int
    failures: list = dc_field(default_factory=list)
    stats: dict = dc_field(default_factory=dict)
    reports: list = dc_field(default_factory=list)

    def summary(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        stat_str = ", ".join(f"{k}={v:.6g}" for k, v in self.stats.items())
        return f"[{verdict}] {self.name}: {self.n_samples} samples ({stat_str})"


def load_baselines() -> dict:
    """Committed empirical windows, shipped alongside the package."""
    text = importlib.resources.files("lpmhd").joinpath("baselines.json").read_text()
    return json.loads(text)


def _inputs(grid: FrequencyGrid | None, bank: FilterBank | None, n_samples: int,
            baselines: dict | None):
    """The default grid, its bank and the committed windows unless given; an
    empty corpus or a bank on another grid is rejected before any work."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    grid = grid or make_grid(*_DEFAULT_GRID)
    bank = bank or build_filter_bank(grid)
    if bank.grid != grid:
        raise ValueError("grid and bank live on different grids")
    return grid, bank, load_baselines() if baselines is None else baselines


def _window_check(value: float, window, label: str, failures: list):
    lo, hi = window
    if not (lo <= value <= hi):
        failures.append(f"{label} = {value:.6g} outside committed window [{lo}, {hi}]")


def _corpus_max(values, window, label: str, failures: list) -> float:
    """Largest value of a corpus, checked finite and against its window."""
    if not np.all(np.isfinite(values)):
        failures.append(f"{label}: non-finite value in corpus")
        return math.nan
    top = float(np.max(values))
    _window_check(top, window, label, failures)
    return top


def run_bernstein_suite(
    grid: FrequencyGrid | None = None,
    bank: FilterBank | None = None,
    seed: int = 0,
    n_samples: int = DEFAULT_SAMPLES,
    baselines: dict | None = None,
) -> SuiteResult:
    """Two-sided derivative-ratio measurements on exactly ring-supported
    fields, across shells, derivative orders, and (p, q) pairs."""
    grid, bank, baselines = _inputs(grid, bank, n_samples, baselines)
    windows = baselines["bernstein"]
    levels = [j for j in bank.shells if 2.0**j >= grid.k_min]
    pq_pairs = [(2.0, 2.0), (2.0, math.inf), (1.0, 2.0)]
    orders = [1, 2]

    def one(i: int):
        rng = sample_rng(seed, i)
        lam = 2.0 ** levels[i % len(levels)]
        p, q = pq_pairs[i % len(pq_pairs)]
        k_order = orders[i % len(orders)]
        f = ring_field(grid, lam, rng)
        return bernstein_ratios(f, lam, k_order, p, q, "ring")

    reports = [one(i) for i in range(n_samples)]
    rows = []
    for r in reports:
        # Two estimate rows per sample: the upper constant and the lower one (q = p).
        at = {"k": r.k_order, "lam": r.lam, "p": r.p}
        rows += [_ratio_report("bernstein", {**at, "q": r.q}, r.upper_ratio, [], seed),
                 _ratio_report("bernstein_lower", at, r.lower_ratio, [], seed)]
    failures, stats = [], {}
    for side, ratios in (("upper", np.array([r.upper_ratio for r in reports])),
                         ("lower", np.array([r.lower_ratio for r in reports]))):
        for end, value in (("min", float(ratios.min())), ("max", float(ratios.max()))):
            stats[f"{side}_{end}"] = value
            _window_check(value, windows[side], f"{side} ratio {end}", failures)
        stats[f"{side}_median"] = float(np.median(ratios))
    return SuiteResult("bernstein", not failures, n_samples, failures, stats, rows)


def run_bony_suite(
    grid: FrequencyGrid | None = None,
    bank: FilterBank | None = None,
    seed: int = 0,
    n_samples: int = DEFAULT_SAMPLES,
) -> SuiteResult:
    """Reconstruction residual of the three-part product splitting over
    random band-limited pairs."""
    grid, bank, _ = _inputs(grid, bank, n_samples, {})

    def one(i: int):
        rng = sample_rng(seed, i)
        u = interior_field(grid, bank, rng)
        v = interior_field(grid, bank, rng)
        parts = bony_decompose(bank, u, v)
        resid = parts.reconstruction() - dealiased_product(u, v)
        return lp_norm(resid, 2.0) / (lp_norm(u, 2.0) * lp_norm(v, 2.0))

    residuals = np.array([one(i) for i in range(n_samples)])
    failures = [
        f"sample {i}: relative residual {r:.3e} > {_BONY_TOLERANCE:.0e}"
        for i, r in enumerate(residuals)
        if r > _BONY_TOLERANCE
    ]
    stats = {"max_relative_residual": float(residuals.max())}
    return SuiteResult("bony", not failures, n_samples, failures, stats, [])


_VARIANTS = ("T", "R", "full", "mixed")


def _variant_indices(variant: str, d: int, p: float) -> tuple:
    base = d / p
    if variant == "mixed":
        return base, base - 0.5
    return base, base


def run_products_suite(
    grid: FrequencyGrid | None = None,
    bank: FilterBank | None = None,
    seed: int = 0,
    n_samples: int = DEFAULT_SAMPLES,
    p: float = 2.0,
    s1: float | None = None,
    s2: float | None = None,
    variants: tuple = _VARIANTS,
    baselines: dict | None = None,
) -> SuiteResult:
    """Empirical constants of the paraproduct, remainder, and full product
    estimates over a random corpus, one distribution per variant.

    Index overrides are validated by the checker; an inadmissible pair raises
    with the violated condition named, as does any grid but the default.
    """
    if grid is not None and (grid.d, grid.N, grid.L) != _DEFAULT_GRID:
        raise ValueError(f"products windows hold on the 2-D N=64, L=2*pi grid only; got {grid!r}")
    grid, bank, baselines = _inputs(grid, bank, n_samples, baselines)
    windows = baselines["products"]
    failures = []
    stats = {}
    all_reports = []
    for variant in variants:
        v1, v2 = _variant_indices(variant, grid.d, p)
        use_s1 = v1 if s1 is None else s1
        use_s2 = v2 if s2 is None else s2

        def one(i: int, variant=variant, use_s1=use_s1, use_s2=use_s2):
            rng = sample_rng(seed, i)
            f = interior_field(grid, bank, rng)
            g = interior_field(grid, bank, rng)
            return product_law_ratio(
                bank, f, g, use_s1, use_s2, p, variant, seed=seed
            )

        reports = [one(i) for i in range(n_samples)]
        all_reports.extend(reports)
        ratios = [r.ratio for r in reports]
        r_max = _corpus_max(ratios, windows[variant], f"variant {variant} max ratio", failures)
        r_med = float(np.median(ratios))
        stats[f"{variant}_max"] = r_max
        stats[f"{variant}_median"] = r_med
        if r_med > 0 and r_max / r_med >= 10.0:
            failures.append(
                f"variant {variant}: max/median = {r_max / r_med:.3g} >= 10"
            )
    return SuiteResult(
        "products", not failures, n_samples * len(variants), failures, stats, all_reports
    )


def run_loginterp_suite(
    grid: FrequencyGrid | None = None,
    bank: FilterBank | None = None,
    seed: int = 0,
    n_samples: int = DEFAULT_SAMPLES,
    p: float = 2.0,
    baselines: dict | None = None,
) -> SuiteResult:
    """Logarithmic shell-summation bridge measured on decaying series."""
    grid, bank, baselines = _inputs(grid, bank, n_samples, baselines)
    window = baselines["loginterp"]["max_ratio"]
    times = np.linspace(0.0, 0.1, 11)
    eps_cycle = (0.25, 0.5, 1.0)
    s = grid.d / p

    def one(i: int):
        rng = sample_rng(seed, i)
        series = decaying_series(grid, bank, rng, times)
        eps = eps_cycle[i % len(eps_cycle)]
        return log_interpolation_ratio(series, s, p, 1.0, eps, bank, seed=seed)

    reports = [one(i) for i in range(n_samples)]
    failures = [f"sample {i}: unexpectedly degenerate"
                for i, rep in enumerate(reports) if rep.degenerate]
    ratios = [rep.ratio for rep in reports]
    stats = {"max_ratio": _corpus_max(ratios, window, "max ratio", failures),
             "median_ratio": float(np.median(ratios))}
    return SuiteResult("loginterp", not failures, n_samples, failures, stats, reports)


def run_heat_suite(
    grid: FrequencyGrid | None = None,
    bank: FilterBank | None = None,
    seed: int = 0,
    n_samples: int = DEFAULT_SAMPLES,
    baselines: dict | None = None,
) -> SuiteResult:
    """Deterministic exactness and order checks for the heat marcher, plus
    the smoothing-estimate ratio distribution over a random corpus."""
    grid, bank, baselines = _inputs(grid, bank, n_samples, baselines)
    window = baselines["heat"]["max_ratio"]
    failures = []
    stats = {}

    def estimate(prob: HeatProblem):
        return heat_estimate_report(
            solve_heat(prob), prob, 1.0, 1.0, grid.d / 2.0 - 1.0, 2.0, 1.0, bank
        )

    # Single-mode decay is exact for the exponential integrator.
    axes = grid.coords()
    u0 = Field(grid, np.cos(2.0 * axes[0] + axes[1])[None])
    T, dt = 0.1, 2e-3
    final = solve_heat(HeatProblem(u0, None, T, dt)).field(-1)
    ksq = 5.0 * (2.0 * math.pi / grid.L) ** 2
    exact = math.exp(-ksq * T)
    err = float(np.max(np.abs(final.samples - exact * u0.samples)))
    stats["single_mode_error"] = err
    if err > 1e-13:
        failures.append(f"single-mode decay error {err:.3e} > 1e-13")

    # Self-convergence of the two-stage forcing rule on a nonlinear-in-time
    # forcing; halving dt should cut the error by about four.
    forcing_rng = sample_rng(seed, 10_000)
    g_shape = interior_field(grid, bank, forcing_rng)
    u0_rand = interior_field(grid, bank, sample_rng(seed, 10_001))
    finals = []
    for dt_k in (0.02, 0.01, 0.005):
        # The forcing sampled on this run's own step grid, so no step interpolates it.
        steps = np.arange(round(0.1 / dt_k) + 1) * dt_k
        forcing = TimeSeriesField.from_snapshots(
            steps, [Field(grid, math.sin(3.0 * t) * g_shape.samples) for t in steps]
        )
        finals.append(solve_heat(HeatProblem(u0_rand, forcing, 0.1, dt_k)).field(-1).samples)
        del forcing
    e1 = float(np.max(np.abs(finals[0] - finals[2])))
    e2 = float(np.max(np.abs(finals[1] - finals[2])))
    order = math.log2(e1 / e2) if e2 > 0 else math.inf
    stats["etd_order"] = order
    if order < 2.0:
        failures.append(f"self-convergence order {order:.3f} < 2")

    # Scale invariance of the estimate ratio, homogeneous and forced.
    series_times = np.linspace(0.0, 0.1, 6)
    g_series = decaying_series(grid, bank, sample_rng(seed, 10_002), series_times)
    for label, forcing_used in (("homogeneous", None), ("forced", g_series)):
        base_rep = estimate(HeatProblem(u0_rand, forcing_used, 0.1, 2e-3))
        scaled_forcing = (
            None
            if forcing_used is None
            else TimeSeriesField(grid, forcing_used.times.copy(), 10.0 * forcing_used.coeffs)
        )
        scaled_rep = estimate(
            HeatProblem(Field(grid, 10.0 * u0_rand.samples), scaled_forcing, 0.1, 2e-3)
        )
        del scaled_forcing
        rel = abs(scaled_rep.ratio - base_rep.ratio) / base_rep.ratio
        stats[f"scale_drift_{label}"] = rel
        if rel > 1e-12:
            failures.append(f"{label} ratio drifts {rel:.3e} under 10x data scaling")

    # Ratio distribution over random forced problems.
    def one(i: int):
        rng = sample_rng(seed, i)
        u_init = interior_field(grid, bank, rng)
        g = decaying_series(grid, bank, rng, series_times)
        return estimate(HeatProblem(u_init, g, 0.1, 2e-3))

    reports = [one(i) for i in range(n_samples)]
    stats["max_ratio"] = _corpus_max([r.ratio for r in reports], window, "max ratio", failures)
    return SuiteResult("heat", not failures, n_samples, failures, stats, reports)


def _constant_velocity_series(grid: FrequencyGrid, vec, T: float) -> TimeSeriesField:
    v = Field(grid, np.broadcast_to(
        np.asarray(vec, dtype=np.float64).reshape((grid.d,) + (1,) * grid.d),
        (grid.d,) + grid.shape,
    ).copy())
    return _steady_series(v, T)


def _steady_series(v: Field, T: float) -> TimeSeriesField:
    return TimeSeriesField.from_snapshots(np.array([0.0, T]), [v, v])


def run_transport_suite(
    grid: FrequencyGrid | None = None,
    bank: FilterBank | None = None,
    seed: int = 0,
    n_samples: int = DEFAULT_SAMPLES,
    baselines: dict | None = None,
) -> SuiteResult:
    """Exact-translation check for the advection marcher, the committed
    shear-flow estimate constant on [0, 0.5], the shear flow's L2
    conservation over T=1 (which continues that estimate run from its last
    step), and the minimal-constant distribution over random
    divergence-free flows."""
    grid, bank, baselines = _inputs(grid, bank, n_samples, baselines)
    shear_window = baselines["transport"]["shear_minimal_c"]
    corpus_window = baselines["transport"]["max_minimal_c"]
    failures = []
    stats = {}
    axes = grid.coords()

    # Constant velocity translates the field; compare against the exact
    # spectral shift.  Space is exact here, so what remains is the RK4
    # phase error, about (dt |k.v|)^5 / 120 per step.
    vec = (1.0, -0.5) if grid.d == 2 else (1.0, -0.5, 0.25)
    T, dt = 0.5, 2e-3
    f0 = Field(grid, (np.sin(axes[0]) * np.cos(2.0 * axes[1]))[None])
    final = solve_transport(
        TransportProblem(f0, _constant_velocity_series(grid, vec, T), None, T, dt)
    ).field(-1)
    hat = grid.fft(f0.samples)
    phase = sum(grid.k_axes[a] * vec[a] for a in range(grid.d))
    shifted = Field(grid, grid.ifft(hat * np.exp(-1j * phase * T)))
    err = float(np.max(np.abs(final.samples - shifted.samples)))
    stats["translation_error"] = err
    if err > 1e-11:
        failures.append(f"translation error {err:.3e} > 1e-11 at T={T}")

    # Shear flow on the same f0: the minimal estimate constant of the
    # committed configuration on [0, 0.5], and L2 conservation over T=1.
    # The velocity is steady, so [0.5, 1] is a second [0, 0.5] solve started
    # from the first one's last step; at most one solution is alive at a time.
    shear = Field(grid, np.stack(
        [np.sin(axes[1])] + [np.zeros(grid.shape)] * (grid.d - 1)
    ))
    prob_c = TransportProblem(f0, _steady_series(shear, 0.5), None, 0.5, 2e-3)
    sol_c = solve_transport(prob_c)
    monitor = transport_estimate_report(sol_c, prob_c, 1.0, 2.0, 1.0, bank)
    second_half = TransportProblem(sol_c.sample_at(0.5), prob_c.velocity, None, 0.5, 2e-3)
    del sol_c
    drift = abs(lp_norm(solve_transport(second_half).field(-1), 2.0) - lp_norm(f0, 2.0))
    stats["l2_drift"] = drift
    if drift > 1e-6:
        failures.append(f"L2 drift {drift:.3e} > 1e-6 over T=1")
    stats["shear_minimal_c"] = monitor.minimal_c
    _window_check(monitor.minimal_c, shear_window, "shear minimal C", failures)

    # Random divergence-free steady flows: the minimal constant exists and
    # stays within the committed window.
    def one(i: int):
        rng = sample_rng(seed, i)
        v = divergence_free_field(grid, bank, rng)
        f_init = interior_field(grid, bank, rng)
        prob = TransportProblem(f_init, _steady_series(v, 0.25), None, 0.25, 2e-3)
        return transport_estimate_report(
            solve_transport(prob), prob, 1.0, 2.0, 1.0, bank
        )

    monitors = [one(i) for i in range(n_samples)]
    stats["max_minimal_c"] = _corpus_max(
        [m.minimal_c for m in monitors], corpus_window, "max minimal C", failures
    )
    reports = [m.report() for m in monitors]
    return SuiteResult("transport", not failures, n_samples, failures, stats, reports)


SUITES = {
    "bernstein": run_bernstein_suite,
    "bony": run_bony_suite,
    "products": run_products_suite,
    "loginterp": run_loginterp_suite,
    "heat": run_heat_suite,
    "transport": run_transport_suite,
}
