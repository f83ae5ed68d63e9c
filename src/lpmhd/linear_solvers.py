"""Sub-solvers for the two linear building blocks, with monitors for their
a-priori estimates.

Heat:       d_t u - Lap u = G     exponential integrator, exact linear part;
                                  the Duhamel integral uses the exponential
                                  trapezoid (ETD2) rule, second order in dt.
Transport:  d_t f + v.grad f = g  pseudo-spectral RK4 with dealiased
                                  advection; v divergence-free.

Each monitor evaluates the corresponding estimate with an empirical
constant: the smallest C making the inequality hold over the run.  The
constants are regression material, not theory; both sides are measured.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .littlewood_paley import (
    BesovSpec,
    FilterBank,
    TimeSeriesField,
    _check_bank,
    _cube_besov_norm,
    _cumulative_trapezoid,
    _gather_cube,
    _interpolate,
    chemin_lerner_norm,
    chemin_lerner_trace,
)
from .paraproduct import EstimateReport, _ratio_report
from .spectral import (
    Field,
    FrequencyGrid,
    SpectralField,
    _check_divergence_free,
    lp_norm,
)

__all__ = [
    "HeatProblem",
    "TransportProblem",
    "EstimateMonitor",
    "solve_heat",
    "heat_estimate_report",
    "solve_transport",
    "transport_estimate_report",
    "etd_phi1",
    "etd_phi2",
]


def _n_steps(T: float, dt: float) -> int:
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if T < dt:
        raise ValueError(f"need T >= dt, got T={T}, dt={dt}")
    n = round(T / dt)
    if abs(T - n * dt) > 1e-8 * dt:
        raise ValueError(f"T={T} is not a multiple of dt={dt}")
    return int(n)


def _check_series(name: str, series: TimeSeriesField, grid: FrequencyGrid, T: float,
                  components: int) -> None:
    """Raise naming ``series`` unless it is a TimeSeriesField (TypeError), lives
    on ``grid``, covers [0, T] and has ``components`` components (ValueError)."""
    if not isinstance(series, TimeSeriesField):
        raise TypeError(f"{name} must be a TimeSeriesField or None, got {type(series).__name__}")
    if series.grid != grid:
        raise ValueError(f"{name} series lives on {series.grid!r}, the run on {grid!r}")
    if series.T < T - 1e-12:
        raise ValueError(f"{name} series covers [0, {series.T}], run needs [0, {T}]")
    if series.components != components:
        raise ValueError(
            f"{name} has {series.components} components, initial data has {components}"
        )


@dataclass
class HeatProblem:
    """Initial data, forcing, horizon and step for d_t u - Lap u = G.

    ``u0`` must vanish off the 2/3-rule cube, where construction gathers it.
    ``forcing`` is None (G = 0) or a TimeSeriesField on the grid of ``u0``,
    with its component count, covering [0, T]; the marcher samples it at the
    step times, linearly interpolated between its snapshots.
    """

    u0: object
    forcing: TimeSeriesField | None
    T: float
    dt: float

    def __post_init__(self):
        if not isinstance(self.u0, (Field, SpectralField)):
            raise TypeError(
                f"initial data must be Field or SpectralField, got {type(self.u0).__name__}"
            )
        self.n_steps = _n_steps(self.T, self.dt)
        if self.forcing is not None:
            _check_series("forcing", self.forcing, self.grid, self.T, self.u0.components)
        self.u0_cube = _gather_cube(self.u0)

    @property
    def grid(self) -> FrequencyGrid:
        return self.u0.grid


def etd_phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z, with the limit 1 at z = 0."""
    z = np.asarray(z, dtype=np.float64)
    small = np.abs(z) < 1e-12
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + z / 2.0, np.expm1(safe) / safe)


def etd_phi2(z: np.ndarray) -> np.ndarray:
    """(e^z - 1 - z)/z^2, with the limit 1/2 at z = 0.

    Below |z| ~ 4e-4 the subtraction loses digits, so a Taylor tail takes
    over; both branches agree to about 1e-12 relative at the switch.
    """
    z = np.asarray(z, dtype=np.float64)
    small = np.abs(z) < 4e-4
    safe = np.where(small, 1.0, z)
    series = 0.5 + z / 6.0 + z**2 / 24.0 + z**3 / 120.0
    return np.where(small, series, (np.expm1(safe) - safe) / safe**2)


def _snapshot_stack(problem, first: np.ndarray) -> tuple:
    """The times n*dt of all n_steps + 1 steps and their coefficient stack,
    ``first`` at step 0 and zeros after it.  Marchers call this first, so the
    stack reuses the block the last one freed before their own arrays split it."""
    times = np.arange(problem.n_steps + 1) * problem.dt
    stack = np.zeros((times.size,) + first.shape, dtype=np.complex128)
    stack[0] = first
    return times, stack


def solve_heat(problem: HeatProblem) -> TimeSeriesField:
    """March the heat equation with the exponential-trapezoid rule.

    Per step, with z = -|k|^2 dt:

        u_next = e^z u + dt*(phi1(z) G_n + phi2(z) (G_{n+1} - G_n)),

    which integrates the linear part exactly and the Duhamel term exactly
    for forcing linear in t.  The march runs on the 2/3-rule cube, where
    u0 and the forcing live, and every step is stored, straight into the
    series' coefficient stack.
    """
    grid, dt, forcing, uhat = problem.grid, problem.dt, problem.forcing, problem.u0_cube
    times, stack = _snapshot_stack(problem, uhat)
    z = -grid.cube_k.k_sq * dt
    decay, phi1, phi2 = np.exp(z), etd_phi1(z), etd_phi2(z)
    g_n = None if forcing is None else _interpolate(forcing.times, forcing.coeffs, 0.0)
    for n in range(1, problem.n_steps + 1):
        uhat = decay * uhat
        if forcing is not None:
            g_next = _interpolate(forcing.times, forcing.coeffs, n * dt)
            uhat = uhat + dt * (phi1 * g_n + phi2 * (g_next - g_n))
            g_n = g_next
        stack[n] = uhat
    return TimeSeriesField(grid, times, stack)


def _restricted(series: TimeSeriesField, T: float) -> TimeSeriesField:
    """``series`` on [0, T]: its snapshots at t <= T, plus the interpolated
    value at T when T is not a stored time; the series itself if it ends at T."""
    slack = 1e-12 * max(1.0, T)
    n = int(np.searchsorted(series.times, T + slack, side="right"))
    if n == series.n_times:
        return series
    times, coeffs = series.times[:n], series.coeffs[:n]
    if T - times[-1] > slack:
        times = np.append(times, T)
        coeffs = np.concatenate([coeffs, _interpolate(series.times, series.coeffs, T)[None]])
    return TimeSeriesField(series.grid, times, coeffs)


def heat_estimate_report(
    solution: TimeSeriesField,
    problem: HeatProblem,
    q: float,
    q1: float,
    s: float,
    p: float,
    r: float,
    bank: FilterBank,
) -> EstimateReport:
    """Measure the smoothing estimate of the heat flow:

        lhs = ||u|| in L~^q(B^{s+2/q}_{p,r}),
        rhs factors = ||u0|| in B^s_{p,r} and ||G|| in L~^q1(B^{s-2+2/q1}_{p,r}),

    with q1 <= q, all on [0, T]: a forcing series that runs past T is measured
    only up to T, and u0 on ``problem.u0_cube``, the datum the marcher used.
    Zero data is flagged degenerate.
    """
    if q1 > q:
        raise ValueError(f"need q1 <= q, got q1={q1}, q={q}")
    _check_bank(problem.u0, bank)
    lhs_exp = s + (0.0 if math.isinf(q) else 2.0 / q)
    lhs = chemin_lerner_norm(solution, BesovSpec(lhs_exp, p, r, q), bank)
    u0_norm = _cube_besov_norm(problem.u0_cube, BesovSpec(s, p, r), bank)
    if problem.forcing is None:
        g_norm = 0.0
    else:
        g_exp = s - 2.0 + (0.0 if math.isinf(q1) else 2.0 / q1)
        forcing = _restricted(problem.forcing, problem.T)
        g_norm = chemin_lerner_norm(forcing, BesovSpec(g_exp, p, r, q1), bank)
    rhs = u0_norm + g_norm
    factors = [("u0_plus_G", rhs)] if rhs != 0.0 else [("u0_norm", 0.0), ("G_norm", 0.0)]
    return _ratio_report("heat", {"s": s, "p": p, "r": r, "q": q, "q1": q1}, lhs, factors)


@dataclass
class TransportProblem:
    """Initial data, advecting velocity, source, horizon and step for
    d_t f + v.grad f = g.

    The velocity is a divergence-free TimeSeriesField covering [0, T], and
    f0 and the source live on its grid; construction checks the divergence
    defect (<= 1e-8 relative, by Parseval on the cube, with no transform)
    and gathers f0 onto the cube as ``HeatProblem`` does u0.
    The advective CFL number dt*max|v|*N/L <= 0.5 is checked by
    ``solve_transport`` on each snapshot it reads.
    """

    f0: object
    velocity: TimeSeriesField
    source: TimeSeriesField | None
    T: float
    dt: float

    def __post_init__(self):
        self.n_steps = _n_steps(self.T, self.dt)
        grid = self.velocity.grid
        if self.velocity.components != grid.d:
            raise ValueError("velocity must be a vector field")
        _check_series("velocity", self.velocity, grid, self.T, grid.d)
        if not isinstance(self.f0, (Field, SpectralField)):
            raise TypeError(f"f0 must be Field or SpectralField, got {type(self.f0).__name__}")
        if self.f0.grid != grid:
            raise ValueError(f"f0 lives on {self.f0.grid!r}, the velocity on {grid!r}")
        if self.source is not None:
            _check_series("source", self.source, grid, self.T, self.f0.components)
        _check_divergence_free(grid, self.velocity.coeffs, 1e-8,
                               "velocity is not divergence-free: |div v|_L2")
        self.f0_cube = _gather_cube(self.f0)

    @property
    def grid(self) -> FrequencyGrid:
        return self.velocity.grid


def _velocity_reader(problem: TransportProblem):
    """v(t) -> velocity samples at t, interpolated as ``_interpolate`` does.
    Each snapshot is inverted when first read (the pruned cube inverse) and
    its CFL number checked; the two latest are kept.  On a violation every
    snapshot is inverted to report the max, as one batched check over the
    whole series would."""
    grid, velocity, dt = problem.grid, problem.velocity, problem.dt

    def samples(i: int) -> np.ndarray:
        return grid.ifft(velocity.coeffs[i])

    def cfl(v: np.ndarray) -> float:
        return dt * float(np.sqrt(np.max(np.sum(v**2, axis=0)))) * grid.N / grid.L

    @functools.lru_cache(maxsize=2)
    def snapshot(i: int) -> np.ndarray:
        v = samples(i)
        if cfl(v) > 0.5 + 1e-12:
            worst = max(cfl(samples(j)) for j in range(velocity.n_times))
            raise ValueError(f"CFL violation: dt*max|v|*N/L = {worst:.3f} > 0.5 with dt={dt}")
        return v

    return lambda t: _interpolate(velocity.times, snapshot, t)


def _advection_rhs(
    grid: FrequencyGrid,
    fhat: np.ndarray,
    v_samples: np.ndarray,
    g_hat: np.ndarray | None,
) -> np.ndarray:
    """Right side -F[v.grad f] + g_hat of one RK stage on the dealiasing cube
    (``fhat`` and ``g_hat`` hold cube entries): one inverse for the d
    derivatives, accumulated in place, and one forward for the product."""
    grads = grid.ifft(grid.cube_k.ik[:, None] * fhat)
    grads *= v_samples[:, None]
    adv = grads[0]
    for grad in grads[1:]:
        adv += grad
    out = -grid.fft(adv, dealiased=True)
    if g_hat is not None:
        out = out + g_hat
    return out


def solve_transport(problem: TransportProblem) -> TimeSeriesField:
    """Classical RK4 on the dealiased advection equation.

    Velocity and source are linearly interpolated at the half steps.  The
    state, the stages and the source live on the 2/3-rule cube
    (``grid.cube``), outside which every dealiased spectrum is zero, and
    the solution is returned as the cube series of every step.
    """
    grid = problem.grid
    fhat = problem.f0_cube
    times, stack = _snapshot_stack(problem, fhat)
    dt = problem.dt
    source = problem.source
    v_at = _velocity_reader(problem)
    g_at = ((lambda t: None) if source is None
            else functools.partial(_interpolate, source.times, source.coeffs))

    for n in range(problem.n_steps):
        t = n * dt
        v0, vh, v1 = v_at(t), v_at(t + dt / 2.0), v_at(t + dt)
        g0, gh, g1 = g_at(t), g_at(t + dt / 2.0), g_at(t + dt)
        k1 = _advection_rhs(grid, fhat, v0, g0)
        k2 = _advection_rhs(grid, fhat + 0.5 * dt * k1, vh, gh)
        k3 = _advection_rhs(grid, fhat + 0.5 * dt * k2, vh, gh)
        k4 = _advection_rhs(grid, fhat + dt * k3, v1, g1)
        fhat = fhat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        stack[n + 1] = fhat
    return TimeSeriesField(grid, times, stack)


@dataclass
class EstimateMonitor:
    """Per-snapshot traces of the transport estimate.

    V is the accumulated strength of the advecting gradient; lhs / rhs are
    both sides of the inequality at the minimal admissible constant.
    """

    times: np.ndarray
    V: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    minimal_c: float
    endpoint: bool
    indices: dict

    def ratio_trace(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(self.rhs > 0.0, self.lhs / self.rhs, 0.0)
        return out

    def report(self) -> EstimateReport:
        lhs_sup = float(np.max(self.lhs))
        rhs_sup = float(np.max(self.rhs))
        degenerate = rhs_sup == 0.0
        return EstimateReport(
            variant="transport",
            indices=dict(self.indices),
            lhs=lhs_sup,
            factors=[("rhs_at_minimal_C", rhs_sup), ("minimal_C", self.minimal_c)],
            ratio=self.minimal_c,
            degenerate=degenerate,
        )


def transport_estimate_report(
    solution: TimeSeriesField,
    problem: TransportProblem,
    s: float,
    p: float,
    r: float,
    bank: FilterBank,
) -> EstimateMonitor:
    """Measure the transport estimate

        ||f|| in L~^inf_t(B^s_{p,r})
            <= e^{C V(t)} (||f0|| + int_0^t e^{-C V} ||g|| dtau),
        V(t) = int_0^t max(||grad v||_{B^{d/p}_{p,r}}, ||grad v||_Linf) dtau,

    returning traces at the smallest C for which it holds on the whole run.
    Admissible s: -d*min(1/p, 1-1/p) - 1 < s < 1 + d/p, with the upper
    endpoint allowed exactly when r = 1.  grad v comes from the velocity's
    coefficients, so the CFL check is the one ``solve_transport`` made, and
    ||f0|| from ``problem.f0_cube``, the datum the marcher used.
    """
    _check_bank(problem.f0, bank)
    grid = problem.grid
    d = grid.d
    s_lo = -d * min(1.0 / p, 1.0 - 1.0 / p) - 1.0
    s_hi = 1.0 + d / p
    endpoint = (s == s_hi) and (r == 1.0)
    if not (s_lo < s < s_hi or endpoint):
        raise ValueError(
            f"s={s} outside the admissible range ({s_lo}, {s_hi})"
            f" (endpoint s={s_hi} only with r=1)"
        )
    times = solution.times

    velocity = problem.velocity

    def strength(t: float) -> float:
        """max(||grad v||_{B^{d/p}_{p,r}}, ||grad v||_Linf) at t, from ik (x) v^."""
        v_hat = _interpolate(velocity.times, velocity.coeffs, t)
        grad = (v_hat[:, None] * grid.cube_k.ik).reshape((d * d,) + v_hat.shape[1:])
        sup = lp_norm(Field(grid, grid.ifft(grad)), math.inf)
        return max(_cube_besov_norm(grad, BesovSpec(d / p, p, r), bank), sup)

    if np.all(velocity.coeffs == velocity.coeffs[0]):
        grad_strength = np.full(times.size, strength(0.0))  # steady
    else:
        grad_strength = np.array([strength(float(t)) for t in times])
    V = _cumulative_trapezoid(grad_strength, times)
    lhs = chemin_lerner_trace(solution, BesovSpec(s, p, r, math.inf), bank)
    f0_norm = _cube_besov_norm(problem.f0_cube, BesovSpec(s, p, r), bank)
    source = problem.source
    g_norms = np.zeros(times.size) if source is None else np.array([
        _cube_besov_norm(_interpolate(source.times, source.coeffs, t), BesovSpec(s, p, r), bank)
        for t in times.tolist()
    ])

    def rhs_at(c_val: float) -> np.ndarray:
        with np.errstate(over="ignore"):
            damped = np.exp(-c_val * V) * g_norms
            integral = _cumulative_trapezoid(damped, times)
            return np.exp(c_val * V) * (f0_norm + integral)

    def holds(c_val: float) -> bool:
        rhs = rhs_at(c_val)
        return bool(np.all(lhs <= rhs * (1.0 + 1e-12) + 1e-30))

    if holds(0.0):
        c_min = 0.0
    else:
        hi = 1.0
        while not holds(hi):
            hi *= 2.0
            if hi > 1e9:
                c_min = math.inf
                break
        else:
            lo = 0.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if holds(mid):
                    hi = mid
                else:
                    lo = mid
            c_min = hi
    rhs = rhs_at(c_min) if math.isfinite(c_min) else np.full(times.size, math.inf)
    return EstimateMonitor(
        times=times.copy(),
        V=V,
        lhs=np.asarray(lhs),
        rhs=rhs,
        minimal_c=float(c_min),
        endpoint=endpoint,
        indices={"s": s, "p": p, "r": r, "d": d},
    )
