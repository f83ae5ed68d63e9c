"""Constructive small-data machinery for viscous, non-resistive MHD on the
periodic box:

    d_t u - Lap u = P div(B (x) B - u (x) u),    div u = 0,
    d_t B + u.grad B = (B.grad) u,               div B = 0.

The solution is built as the limit of a decoupled iteration: u^{n+1} solves
a forced heat equation whose forcing is assembled from iterate n, and
B^{n+1} solves a transport equation advected by u^n.  Initial data enter
truncated at dyadic level n+1, so each iterate is spectrally localized.

The module provides the iteration itself, monitors for the two uniform
bounds that drive it,

    (H1)  ||u^n||_{L~inf(B^{d/p-1}_{p,1})} + ||B^n||_{L~inf(B^{d/p}_{p,1})}
              <= C0 * E0,
    (H2)  ||u^n||_{L~1(B^{d/p+1}_{p,1})} + ||u^n||_{L~2(B^{d/p}_{p,1})}
              <= eta,

a time-horizon selector (largest T whose free heat evolution of u0 keeps
the H2-type norms below eta^2), convergence tracking in norms one
derivative weaker than the solution spaces, and a twin-run uniqueness
gauge that measures the difference of two runs in the spaces

    rho(t)   = ||delta uic||_{L~1_t(B^{d/p}_{p,inf})},
    delta B  in L~inf_t(B^{d/p-1}_{p,inf}),

and verifies an Osgood-type integral inequality
rho <= offset + A_T int rho log(e + C_T/rho).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .littlewood_paley import (
    BesovSpec,
    FilterBank,
    TimeSeriesField,
    _check_bank,
    _coeffs,
    _cumulative_trapezoid,
    _running_norm,
    _shell_lp_norms,
    besov_norm,
    build_filter_bank,
    chemin_lerner_norm,
    low_pass,
    shell_lp_matrix,
)
from .linear_solvers import HeatProblem, TransportProblem, solve_heat, solve_transport
from .paraproduct import _log_interpolation_from_matrix
from .random_fields import divergence_free_field
from .spectral import (
    Field,
    FrequencyGrid,
    SpectralField,
    _check_divergence_free,
    _check_lattice,
    _leray,
    leray_project,
    lp_norm,
    make_grid,
    tensor_divergence,
    to_physical,
    to_spectral,
)

__all__ = [
    "IterationConfig",
    "MhdInitialData",
    "IterationState",
    "BoundsReport",
    "Horizon",
    "IterationRecord",
    "IterationDiagnostics",
    "UniquenessReport",
    "OsgoodResult",
    "SweepResult",
    "prepare_initial_data",
    "taylor_green_data",
    "perturb_initial_data",
    "truncate_initial_data",
    "select_time_horizon",
    "init_iterate",
    "iterate_once",
    "check_uniform_bounds",
    "run_iteration",
    "system_residual",
    "twin_run_uniqueness",
    "perturbation_sweep",
    "osgood_check",
]


_GAUGE_SLACK = 4.0  # scales the uniqueness gauge's perturbation allowance
_MAX_STEPS = 10**6  # most steps T_max/dt a run may march: the horizon search stores each time


@dataclass
class IterationConfig:
    """Grid, Besov index, stepping and smallness knobs for one iteration run.

    p is restricted to [1, 2d]; eta < 1 and C0 > 1 are the smallness and
    bound constants of the uniform estimates.  ``tolerance`` stops the
    iteration once the successive-difference norm falls below it.
    """

    d: int = 2
    N: int = 64
    L: float = 2.0 * math.pi
    p: float = 2.0
    dt: float = 2e-3
    t_max: float = 0.5
    eta: float = 0.1
    c0: float = 16.0
    max_iterations: int = 12
    tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        for name, value in (("L", self.L), ("dt", self.dt), ("T_max", self.t_max),
                            ("C0", self.c0), ("tolerance", self.tolerance)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        _check_lattice(self.d, self.N, self.L)
        if not (1.0 <= self.p <= 2.0 * self.d):
            raise ValueError(f"p must lie in [1, 2*d] = [1, {2 * self.d}], got {self.p}")
        if not (0.0 < self.eta < 1.0):
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if not self.c0 > 1.0:
            raise ValueError(f"C0 must be > 1, got {self.c0}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.dt <= self.t_max <= _MAX_STEPS * self.dt:
            raise ValueError(f"T_max must lie in [dt, {_MAX_STEPS} dt], "
                             f"got T_max={self.t_max}, dt={self.dt}")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")
        if self.tolerance < 0.0:
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def grid(self) -> FrequencyGrid:
        return make_grid(self.d, self.N, self.L)

    def bank(self, grid: FrequencyGrid | None = None) -> FilterBank:
        return build_filter_bank(grid or self.grid())


@dataclass
class MhdInitialData:
    """Divergence-free, mean-free velocity and magnetic initial fields.

    Each is a ``Field`` or a ``SpectralField``: ``u0_hat``/``b0_hat`` keep its
    half spectrum (one forward transform of samples), ``u0``/``b0`` its samples
    (one inverse transform of a spectrum).  Non-finite data raise; the invariants
    are checked on the spectra by Parseval.  ``prepare_initial_data`` projects
    raw fields into compliance.
    """

    u0: Field | SpectralField
    b0: Field | SpectralField

    def __post_init__(self):
        grid = self.u0.grid
        if self.b0.grid != grid:
            raise ValueError("u0 and B0 live on different grids")
        d = grid.d
        if self.u0.components != d or self.b0.components != d:
            raise ValueError(f"initial fields must have {d} components")
        self.u0_hat, self.b0_hat = _coeffs(self.u0), _coeffs(self.b0)
        self.u0, self.b0 = (f if isinstance(f, Field) else to_physical(f)
                            for f in (self.u0, self.b0))
        for name, hat in (("u0", self.u0_hat), ("B0", self.b0_hat)):
            msg = f"{name} is not divergence-free: |div|_L2"
            scale = max(1.0, float(_check_divergence_free(grid, hat, 1e-10, msg)))
            # The k = 0 coefficient over N^d is the spatial mean.
            mean = np.max(np.abs(hat[(slice(None),) + (0,) * d])) / float(grid.N) ** d
            if mean > 1e-12 * scale:
                raise ValueError(f"{name} has a nonzero mean mode: {mean:.3e}")

    @property
    def grid(self) -> FrequencyGrid:
        return self.u0.grid


def prepare_initial_data(u0: Field, b0: Field) -> MhdInitialData:
    """Leray-project and de-mean raw fields into valid initial data, with
    every m = +-N/2 plane zeroed (the Nyquist convention of ``grid.ik``).
    The data keep these projected spectra as ``u0_hat`` and ``b0_hat``."""
    hats = []
    for f in (u0, b0):
        hat = _leray(f.grid.fft(f.samples), f.grid.k_axes, f.grid.k_sq)
        hat[(slice(None),) + (0,) * f.grid.d] = 0.0
        for a in range(f.grid.d):
            hat[(slice(None),) * (a + 1) + (f.grid.N // 2,)] = 0.0
        hats.append(SpectralField(f.grid, hat))
    return MhdInitialData(*hats)


def taylor_green_data(grid: FrequencyGrid, amplitude: float = 0.05) -> MhdInitialData:
    """Phase-shifted Taylor-Green vortices u0, B0 of small amplitude in y = k_min x, sampled
    at y_j = 2 pi j / N on every box: exactly divergence-free and mean-free."""
    if grid.d != 2:
        raise ValueError("the cellular data family is two-dimensional")
    y = np.arange(grid.N) * (2.0 * math.pi / grid.N)
    sin, cos = np.sin(y), np.cos(y)
    sc, cs = np.multiply.outer(sin, cos), np.multiply.outer(cos, sin)
    return MhdInitialData(Field(grid, amplitude * np.stack([sc, -cs])),
                          Field(grid, amplitude * np.stack([cs, -sc])))


def perturb_initial_data(
    data: MhdInitialData, size: float, seed: int, bank: FilterBank
) -> MhdInitialData:
    """Add a reproducible divergence-free perturbation of L2 size ``size``.

    Each field gets ``size`` times its own ``divergence_free_field`` draw
    (unit-L2 interior-band noise, Leray-projected), u0's first, from one
    ``default_rng(seed)``.  size = 0 returns data bit-identical to the input.
    """
    if not 0.0 <= size < math.inf:
        raise ValueError(f"perturbation size must be finite and >= 0, got {size}")
    grid, rng = data.grid, np.random.default_rng(seed)
    return MhdInitialData(*(
        Field(grid, base.samples + size * divergence_free_field(grid, bank, rng).samples)
        for base in (data.u0, data.b0)))


def _clamped_level(bank: FilterBank, n: int) -> int:
    # S_n saturates to the identity (plus mean) once n exceeds the top
    # shell, so levels above j_max+1 truncate nothing on this lattice.
    return min(n, bank.j_max + 1)


def truncate_initial_data(data: MhdInitialData, n: int, bank: FilterBank) -> MhdInitialData:
    """Low-pass both initial fields at dyadic level n (S_n).

    n must lie in [j_min, j_max + 1]; the multiplier is radial, so
    divergence-freeness survives exactly.  The kept spectra are low-passed,
    so truncation takes one inverse transform per field and no forward one.
    """
    if not bank.j_min <= n <= bank.j_max + 1:
        raise ValueError(f"level {n} outside the dyadic band [{bank.j_min}, {bank.j_max + 1}]")
    return MhdInitialData(*(low_pass(bank, n, SpectralField(data.grid, hat))
                            for hat in (data.u0_hat, data.b0_hat)))


@dataclass
class Horizon:
    """Selected horizon T plus the free-evolution norm that certified it."""

    T: float
    condition_met: bool
    lhs: float
    threshold: float


def _free_evolution_traces(
    u0: Field | SpectralField, dt: float, t_max: float, p: float, bank: FilterBank
) -> tuple:
    """Combined L~1(B^{d/p+1}) + L~2(B^{d/p}) running norms of e^{t Lap}u0 at
    the multiples of dt up to t_max (within 1e-8 dt, as ``_n_steps`` allows)."""
    if not (0.0 < dt < math.inf and dt <= t_max < math.inf):
        raise ValueError(f"need a finite dt > 0 and horizon T >= dt, got T={t_max}, dt={dt}")
    _check_bank(u0, bank)
    grid = u0.grid
    d = grid.d
    n_steps = math.floor(t_max / dt + 1e-8)
    times = np.arange(n_steps + 1) * dt
    hat0, k_sq = grid.to_cube(_coeffs(u0)), grid.cube_k.k_sq
    mat = np.stack([_shell_lp_norms(hat0 * np.exp(-k_sq * t), p, bank) for t in times], 1)
    l1 = _running_norm(mat, times, BesovSpec(d / p + 1.0, p, 1.0, 1.0), bank)
    l2 = _running_norm(mat, times, BesovSpec(d / p, p, 1.0, 2.0), bank)
    return times, l1 + l2


def select_time_horizon(
    u0: Field | SpectralField, eta: float, dt: float, t_max: float, p: float, bank: FilterBank
) -> Horizon:
    """Largest multiple of dt <= T_max at which the free heat evolution of
    u0 still satisfies

        ||e^{t Lap}u0||_{L~1_T(B^{d/p+1}_{p,1})}
            + ||e^{t Lap}u0||_{L~2_T(B^{d/p}_{p,1})} <= eta^2.

    Both norms grow monotonically in T, so the threshold index is found by
    bisection on the running-norm trace.  If even one step violates the
    condition, T = dt is returned flagged.
    """
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    times, combined = _free_evolution_traces(u0, dt, t_max, p, bank)
    threshold = eta * eta
    # combined is nondecreasing; searchsorted is the monotone bisection.
    idx = int(np.searchsorted(combined, threshold, side="right")) - 1
    if idx < 1:
        return Horizon(T=dt, condition_met=False, lhs=float(combined[1]), threshold=threshold)
    return Horizon(
        T=float(times[idx]),
        condition_met=True,
        lhs=float(combined[idx]),
        threshold=threshold,
    )


@dataclass
class IterationState:
    """One iterate of the scheme: series for (u^n, B^n) on [0, T] and the
    fixed data/geometry."""

    n: int
    u_series: TimeSeriesField
    b_series: TimeSeriesField
    data: MhdInitialData
    T: float
    e0: float
    bank: FilterBank


def compute_e0(data: MhdInitialData, p: float, bank: FilterBank) -> float:
    grid = data.grid
    d = grid.d
    return besov_norm(
        SpectralField(grid, data.u0_hat), BesovSpec(d / p - 1.0, p, 1.0), bank
    ) + besov_norm(SpectralField(grid, data.b0_hat), BesovSpec(d / p, p, 1.0), bank)


def _checked_grid(data: MhdInitialData, config: IterationConfig) -> FrequencyGrid:
    """The data's grid; raises ValueError unless it is the config's."""
    grid = data.grid
    if (grid.d, grid.N, grid.L) != (config.d, config.N, config.L):
        raise ValueError(f"data on the grid d={grid.d}, N={grid.N}, L={grid.L:g}, but the config "
                         f"asks for d={config.d}, N={config.N}, L={config.L:g}")
    return grid


def init_iterate(
    data: MhdInitialData,
    config: IterationConfig,
    T: float,
    bank: FilterBank | None = None,
) -> IterationState:
    """Iterate 0: free heat flow of the level-0 truncated data."""
    grid = _checked_grid(data, config)
    bank = bank or config.bank(grid)
    level = _clamped_level(bank, max(0, bank.j_min))
    u_series, b_series = (
        solve_heat(HeatProblem(low_pass(bank, level, SpectralField(grid, hat)), None, T, config.dt))
        for hat in (data.u0_hat, data.b0_hat))
    return IterationState(
        n=0,
        u_series=u_series,
        b_series=b_series,
        data=data,
        T=T,
        e0=compute_e0(data, config.p, bank),
        bank=bank,
    )


def _assemble_sources(
    u_series: TimeSeriesField, b_series: TimeSeriesField
) -> tuple:
    """Heat forcing P div(B (x) B - u (x) u) and transport source
    div(u (x) B) = (B.grad)u, as cube series on the time axis of u_series.

    Everything happens on the 2/3-rule cube (``grid.cube``).  Per snapshot:
    one dealiased inverse of the stacked (u, B) coefficients and one
    dealiased forward of the products, of which the symmetric B (x) B -
    u (x) u contributes only its d(d+1)/2 distinct entries.  The
    contraction with i*k_j and the Leray projection run on the cube,
    straight into the two preallocated cube stacks.
    """
    grid = u_series.grid
    d = grid.d
    upper = np.triu_indices(d)
    n_sym = upper[0].size
    # entry[t, i, j]: the row of the transformed products holding entry (i, j)
    # of tensor t, B (x) B - u (x) u (symmetric) or u (x) B.
    entry = np.empty((2, d, d), dtype=np.intp)
    entry[0][upper] = entry[0].T[upper] = np.arange(n_sym)
    entry[1] = n_sym + np.arange(d * d).reshape(d, d)
    prods = np.empty((n_sym + d * d,) + grid.shape)
    forcing = np.empty((u_series.n_times, d) + grid.cube_shape, dtype=np.complex128)
    source = np.empty_like(forcing)
    for n in range(u_series.n_times):
        um, bm = grid.ifft(np.stack([u_series.coeffs[n], b_series.coeffs[n]]))
        for row, (i, j) in enumerate(zip(*upper)):
            np.multiply(bm[i], bm[j], out=prods[row])
            prods[row] -= um[i] * um[j]
        np.multiply(um[:, None], bm[None], out=prods[n_sym:].reshape((d, d) + grid.shape))
        tensors = grid.fft(prods, dealiased=True)[entry]
        div_hat = sum(tensors[:, :, j] * grid.cube_k.ik[j] for j in range(d))
        forcing[n] = _leray(div_hat[0], grid.cube_k.k_axes, grid.cube_k.k_sq)
        source[n] = div_hat[1]
    return tuple(TimeSeriesField(grid, u_series.times.copy(), s) for s in (forcing, source))


def iterate_once(state: IterationState, config: IterationConfig) -> IterationState:
    """Advance the scheme one index:

    u^{n+1}: heat solve from level-(n+1) truncated u0 under the
             Leray-projected tensor forcing of iterate n,
    B^{n+1}: transport solve advected by u^n from level-(n+1) truncated B0
             with the stretching source (B^n.grad)u^n.
    The transport runs first, so its peak holds no u^{n+1}, and each
    truncated datum is built just before its own solver.
    """
    n_next = state.n + 1
    bank, data, T = state.bank, state.data, state.T
    level = _clamped_level(bank, max(n_next, bank.j_min))
    forcing, source = _assemble_sources(state.u_series, state.b_series)
    b_next = solve_transport(TransportProblem(
        low_pass(bank, level, SpectralField(data.grid, data.b0_hat)), state.u_series, source,
        T, config.dt))
    del source
    u_next = solve_heat(HeatProblem(
        low_pass(bank, level, SpectralField(data.grid, data.u0_hat)), forcing, T, config.dt))
    return replace(state, n=n_next, u_series=u_next, b_series=b_next)


@dataclass
class BoundsReport:
    """Both uniform bounds of one iterate, as lhs/rhs pairs."""

    h1_lhs: float
    h1_rhs: float
    h2_lhs: float
    h2_rhs: float

    @property
    def h1_margin(self) -> float:
        return self.h1_rhs - self.h1_lhs

    @property
    def h2_margin(self) -> float:
        return self.h2_rhs - self.h2_lhs


def check_uniform_bounds(state: IterationState, config: IterationConfig) -> BoundsReport:
    """Evaluate (H1) and (H2) for the current iterate from one shell matrix per field."""
    d = state.data.grid.d
    p = config.p
    bank = state.bank
    u_times, b_times = state.u_series.times, state.b_series.times
    u_mat = shell_lp_matrix(state.u_series, p, bank)
    b_mat = shell_lp_matrix(state.b_series, p, bank)

    def norm(mat, times, s, q):
        return _running_norm(mat, times, BesovSpec(s, p, 1.0, q), bank)[-1]

    h1 = norm(u_mat, u_times, d / p - 1.0, math.inf) + norm(b_mat, b_times, d / p, math.inf)
    h2 = norm(u_mat, u_times, d / p + 1.0, 1.0) + norm(u_mat, u_times, d / p, 2.0)
    return BoundsReport(
        h1_lhs=float(h1),
        h1_rhs=float(config.c0 * state.e0),
        h2_lhs=float(h2),
        h2_rhs=float(config.eta),
    )


def _difference_norm(state: IterationState, prev: IterationState, p: float) -> float:
    """Successive-difference norm one derivative below the solution spaces:
    ||u^{n}-u^{n-1}|| in L~inf(B^{d/p-3/2}_{p,1}) plus
    ||B^{n}-B^{n-1}|| in L~inf(B^{d/p-1}_{p,1})."""
    d = state.data.grid.d
    bank = state.bank
    du = state.u_series - prev.u_series
    db = state.b_series - prev.b_series
    return float(
        chemin_lerner_norm(du, BesovSpec(d / p - 1.5, p, 1.0, math.inf), bank)
        + chemin_lerner_norm(db, BesovSpec(d / p - 1.0, p, 1.0, math.inf), bank)
    )


@dataclass
class IterationRecord:
    """One diagnostics row: iterate index, bound values, difference norm."""

    n: int
    h1_lhs: float
    h1_rhs: float
    h2_lhs: float
    h2_rhs: float
    d_n: float
    wallclock_s: float


@dataclass
class IterationDiagnostics:
    """Everything a run produces: per-iterate records, convergence flags,
    the decay fit of the difference norms, and the final iterate."""

    T: float
    e0: float
    horizon: Horizon
    records: list
    converged: bool
    decay_ratio: float | None
    final_state: IterationState

    @property
    def difference_norms(self) -> list:
        return [r.d_n for r in self.records if math.isfinite(r.d_n)]


def _decay_ratio(d_values: list) -> float | None:
    """Geometric-decay ratio of the difference norms, fitted log-linearly
    over the decaying prefix (entries above the roundoff floor)."""
    vals = np.array([v for v in d_values if math.isfinite(v)])
    vals = vals[vals > 0.0]
    if vals.size < 2:
        return None
    floor = np.max(vals) * 1e-13
    keep = vals > floor
    vals = vals[keep]
    if vals.size < 2:
        return None
    n = np.arange(vals.size)
    slope = np.polyfit(n, np.log(vals), 1)[0]
    return float(math.exp(slope))


def run_iteration(
    data: MhdInitialData,
    config: IterationConfig,
    T_override: float | None = None,
    bank: FilterBank | None = None,
) -> IterationDiagnostics:
    """Drive the iteration to ``max_iterations`` or tolerance, on ``bank``
    (default ``config.bank``), which must live on the data's grid.

    The horizon comes from ``select_time_horizon`` unless overridden.  Row
    n carries the bounds of iterate n and the difference norm D_n between
    iterates n+1 and n (nan on the last row).  Non-convergence is reported
    through the flags, never raised.
    """
    grid = _checked_grid(data, config)
    bank = bank or config.bank(grid)
    u0 = SpectralField(grid, data.u0_hat)
    if T_override is None:
        horizon = select_time_horizon(u0, config.eta, config.dt, config.t_max, config.p, bank)
    else:
        lhs = float(_free_evolution_traces(u0, config.dt, T_override, config.p, bank)[1][-1])
        horizon = Horizon(float(T_override), lhs <= config.eta**2, lhs, config.eta**2)

    def record(state: IterationState, t0: float) -> IterationRecord:
        b = check_uniform_bounds(state, config)
        return IterationRecord(
            state.n, b.h1_lhs, b.h1_rhs, b.h2_lhs, b.h2_rhs, math.nan, time.perf_counter() - t0
        )

    t0 = time.perf_counter()
    state = init_iterate(data, config, horizon.T, bank)
    records = [record(state, t0)]
    converged = False
    for _ in range(config.max_iterations):
        t0 = time.perf_counter()
        prev, state = state, iterate_once(state, config)
        d_n = _difference_norm(state, prev, config.p)
        # Drop the older iterate before the next one is built: at most two stay alive.
        del prev
        records[-1].d_n = d_n
        records.append(record(state, t0))
        if config.tolerance > 0.0 and d_n < config.tolerance:
            converged = True
            break
    d_values = [r.d_n for r in records]
    return IterationDiagnostics(
        T=horizon.T,
        e0=state.e0,
        horizon=horizon,
        records=records,
        converged=converged,
        decay_ratio=_decay_ratio(d_values),
        final_state=state,
    )


def system_residual(u_series: TimeSeriesField, b_series: TimeSeriesField) -> dict:
    """L2 residuals of both equations at interior snapshots, with the time
    derivative from central differences and all space terms spectral.

    Returns arrays keyed "u" and "b", one value per interior snapshot.
    This is an independent consistency probe: it never reuses solver state.
    """
    grid = u_series.grid
    times = u_series.times
    res_u, res_b = [], []
    for i in range(1, times.size - 1):
        dt2 = times[i + 1] - times[i - 1]
        du_dt, db_dt = (grid.ifft(s.coeffs[i + 1] - s.coeffs[i - 1]) / dt2
                        for s in (u_series, b_series))
        u = u_series.field(i)
        b = b_series.field(i)
        lap_u = grid.ifft(grid.fft(u.samples) * (-grid.k_sq))
        forcing = to_physical(
            leray_project(
                to_spectral(tensor_divergence(b, b) - tensor_divergence(u, u))
            )
        )
        r_u = Field(grid, du_dt - lap_u - forcing.samples)
        advect = tensor_divergence(b, u)
        stretch = tensor_divergence(u, b)
        r_b = Field(grid, db_dt + advect.samples - stretch.samples)
        res_u.append(lp_norm(r_u, 2.0))
        res_b.append(lp_norm(r_b, 2.0))
    return {"u": np.array(res_u), "b": np.array(res_b), "times": times[1:-1]}


@dataclass
class OsgoodResult:
    """Verdict of the integral inequality, with the worst pointwise margin."""

    passed: bool
    worst_margin: float
    margins: np.ndarray


def osgood_check(
    times: np.ndarray, rho: np.ndarray, a_t: float, c_t: float, offset: float
) -> OsgoodResult:
    """Check rho(t) <= offset + A_T * int_0^t rho log(e + C_T/rho) dtau
    pointwise under trapezoid quadrature, with the integrand 0 where
    rho = 0."""
    rho = np.asarray(rho, dtype=np.float64)
    if np.any(rho < 0.0):
        raise ValueError("rho must be nonnegative")
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(
            rho > 0.0, rho * np.log(math.e + c_t / np.where(rho > 0.0, rho, 1.0)), 0.0
        )
    rhs = offset + a_t * _cumulative_trapezoid(integrand, times)
    margins = rhs - rho
    slack = 1e-15 * max(1.0, offset, float(np.max(rho, initial=0.0)))
    return OsgoodResult(
        passed=bool(np.all(margins >= -slack)),
        worst_margin=float(np.min(margins)),
        margins=margins,
    )


@dataclass
class UniquenessReport:
    """Twin-run gauge output: the difference growth rho, the measured
    inequality data (A_T, C_T, empirical constant), the verdict, and the
    base run's horizon, which both runs share."""

    perturbation_size: float
    T: float
    times: np.ndarray
    rho: np.ndarray
    delta_b_trace: np.ndarray
    a_t: float
    c_t: float
    c_emp: float
    offset: float
    solution_scale: float
    osgood_passed: bool
    worst_margin: float
    horizon: Horizon


def _twin_report(
    base: IterationDiagnostics,
    data: MhdInitialData,
    config: IterationConfig,
    size: float,
) -> UniquenessReport:
    grid = data.grid
    bank = base.final_state.bank
    d = grid.d
    p = config.p
    pert = perturb_initial_data(data, size, config.seed + 7919, bank)
    twin = run_iteration(pert, config, T_override=base.T, bank=bank)
    du = base.final_state.u_series - twin.final_state.u_series
    db = base.final_state.b_series - twin.final_state.b_series
    times = du.times
    # One shell matrix per series: du's serves rho, C_T and the bridge.
    du_mat, db_mat, u1_mat, b1_mat, b2_mat = (
        shell_lp_matrix(series, p, bank)
        for series in (
            du, db, base.final_state.u_series, base.final_state.b_series, twin.final_state.b_series
        )
    )
    rho = _running_norm(du_mat, times, BesovSpec(d / p, p, math.inf, 1.0), bank)
    db_trace = _running_norm(db_mat, times, BesovSpec(d / p - 1.0, p, math.inf, math.inf), bank)

    def norm(mat, s, r, q):
        return float(_running_norm(mat, times, BesovSpec(s, p, r, q), bank)[-1])

    # L^1 in time and l^1 over shells commute, so this is int ||u1||_{B^{d/p+1}_{p,1}}.
    u1_l1 = norm(u1_mat, d / p + 1.0, 1.0, 1.0)
    b1_sup = norm(b1_mat, d / p, 1.0, math.inf)
    b2_sup = norm(b2_mat, d / p, 1.0, math.inf)
    bridge = _log_interpolation_from_matrix(du_mat, times, d / p, p, 1.0, 1.0, bank)
    c_emp = 1.0 if bridge.degenerate else max(1.0, bridge.ratio)
    a_t = c_emp * math.exp(c_emp * u1_l1) * b2_sup * (b1_sup + b2_sup)
    c_t = float(
        norm(du_mat, d / p - 1.0, math.inf, 1.0) + norm(du_mat, d / p + 1.0, math.inf, 1.0)
    )
    # Column 0 is the t = 0 snapshot, so q = inf over it alone is its Besov norm.
    du0_norm = norm(du_mat[:, :1], d / p, math.inf, math.inf)
    db0_norm = norm(db_mat[:, :1], d / p - 1.0, math.inf, math.inf)
    scale = norm(u1_mat, d / p - 1.0, 1.0, math.inf) + b1_sup
    offset = (
        _GAUGE_SLACK * base.T * (du0_norm + a_t * db0_norm)
        + 1e-14 * base.T * (1.0 + scale)
    )
    verdict = osgood_check(times, rho, a_t, c_t, offset)
    return UniquenessReport(
        perturbation_size=size,
        T=base.T,
        times=times.copy(),
        rho=np.asarray(rho),
        delta_b_trace=np.asarray(db_trace),
        a_t=a_t,
        c_t=c_t,
        c_emp=c_emp,
        offset=offset,
        solution_scale=float(scale),
        osgood_passed=verdict.passed,
        worst_margin=verdict.worst_margin,
        horizon=base.horizon,
    )


def twin_run_uniqueness(
    data: MhdInitialData, config: IterationConfig, perturbation_size: float,
    bank: FilterBank | None = None,
) -> UniquenessReport:
    """Run the iteration twice (base data, perturbed data) on one shared
    horizon and one bank (as in ``run_iteration``) and gauge the difference
    against the Osgood inequality."""
    base = run_iteration(data, config, bank=bank)
    return _twin_report(base, data, config, perturbation_size)


@dataclass
class SweepResult:
    """rho(T) against perturbation size, with the fitted log-log slope."""

    sizes: np.ndarray
    rho_final: np.ndarray
    slope: float
    reports: list


def perturbation_sweep(
    data: MhdInitialData, config: IterationConfig, sizes
) -> SweepResult:
    """One base run, one twin per size; fits log rho(T) against log size."""
    base = run_iteration(data, config)
    reports = [_twin_report(base, data, config, float(s)) for s in sizes]
    sizes = np.asarray(sizes, dtype=np.float64)
    rho_final = np.array([r.rho[-1] for r in reports])
    keep = (sizes > 0.0) & (rho_final > 0.0)
    if keep.sum() >= 2:
        slope = float(np.polyfit(np.log(sizes[keep]), np.log(rho_final[keep]), 1)[0])
    else:
        slope = math.nan
    return SweepResult(sizes=sizes, rho_final=rho_final, slope=slope, reports=reports)
