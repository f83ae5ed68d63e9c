"""Dyadic (Littlewood-Paley) frequency decomposition on the periodic lattice,
and the Besov / Chemin-Lerner norms built on top of it.

The bank is generated by one smooth radial profile phi supported in the
annulus 3/4 <= |xi| <= 8/3, with

    phi(xi) = psi(|xi|) / sum_k psi(2^-k |xi|),
    psi(rho) = exp(-1/(x(1-x))),  x = (rho - 3/4) / (8/3 - 3/4),

so that sum_j phi(2^-j xi) = 1 for every xi != 0.  On a finite lattice only
shells j_min..j_max are kept; the partition identity then holds exactly on
the interior band 2^(j_min+1) <= |k| <= 2^(j_max-1), which is where all
quantitative claims are made.  The k = 0 mean mode belongs to no shell; it
rides along as a separate diagnostic (``spectral.mean_mode``) and is
re-attached by the low-pass operator.

Shell j multiplier:   phi_j(k)  = phi(2^-j k)        (annulus 2^j * [3/4, 8/3])
Low-pass j:           S_j       = 1_{k=0} + sum_{j' <= j-1} phi_j'
Besov norm:           || 2^(js) ||Delta_j f||_Lp ||_{l^r over j}
Chemin-Lerner norm:   time L^q per shell first, then the l^r shell sum.

The bank's phi_j and S_j live on the 2/3-rule cube ``grid.cube``, which holds
every shell (``grid.from_cube(bank.phi)`` is the half-spectrum phi).  Every
shell norm comes from one kernel, ``_shell_lp_norms``, which reads
coefficients on the same cube.  At p = 2 the kernel runs no transform: by
Parseval ||Delta_j f||_L2 = sqrt(phi_j^2 w . |f^|^2) / N^d, w the column
weight ``grid.parseval_weight``.  Other p need the samples of each shell,
and those come from a dense DFT restricted to the cube |m_a| <= K_j that
holds the shell's support (``_ShellCube``): gather its (2K+1)^(d-1) x (K+1)
coefficients times phi_j, one complex matrix product per leading axis
against exp(2 pi i n m / N), and one real product along the last axis that
applies the half-spectrum weights and the 1/N^d.  At 3-D N=32 the default
shells have K = 1, 2, 5, 10 (the lowest holds no lattice point and is exactly
0), so the work is a few small BLAS products instead of a full N^d inverse
per shell.  A ``TimeSeriesField`` is one stacked coefficient array on the
same cube, so the shell matrices of the time-mixed norms read its snapshots
as they are stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np

from .spectral import Field, FrequencyGrid, SpectralField, _samples_lp_norm, lp_norm

__all__ = [
    "ANNULUS_LO",
    "ANNULUS_HI",
    "FilterBank",
    "BesovSpec",
    "TimeSeriesField",
    "BernsteinReport",
    "default_band",
    "build_filter_bank",
    "dyadic_block",
    "low_pass",
    "besov_norm",
    "shell_lp_matrix",
    "chemin_lerner_norm",
    "chemin_lerner_trace",
    "lq_besov_norm",
    "bernstein_ratios",
]

ANNULUS_LO = 0.75
ANNULUS_HI = 8.0 / 3.0


def _bump(rho: np.ndarray) -> np.ndarray:
    """Smooth bump on the annulus, exactly zero outside (3/4, 8/3)."""
    x = (np.asarray(rho, dtype=np.float64) - ANNULUS_LO) / (ANNULUS_HI - ANNULUS_LO)
    out = np.zeros_like(x)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    with np.errstate(over="ignore", divide="ignore"):
        out[inside] = np.exp(-1.0 / (xi * (1.0 - xi)))
    return out


def default_band(grid: FrequencyGrid) -> tuple:
    """Widest shell range (j_min, j_max) resolved by the grid.

    j_max is the last shell whose annulus (8/3) 2^j fits inside the radius
    k_min N/3 of the 2/3-rule cube; j_min sits low enough that shell j_min
    contains no lattice point, which makes S_{j_min} exactly the mean mode.
    """
    j_max = math.floor(math.log2(grid.k_min * grid.N / 8.0) + 1e-12)
    j_min = math.floor(math.log2(3.0 * grid.k_min / 8.0) + 1e-12)
    return min(j_min, j_max - 3), j_max


class _ShellCube(NamedTuple):
    """Inverse transform of one shell restricted to the cube |m_a| <= K of its
    support: rows m in [-K, K] (FFT order) on the first d-1 axes, columns
    0..K on the last."""

    index: np.ndarray  # flat positions in grid.cube_shape, (2K+1,)*(d-1) + (K+1,)
    phi: np.ndarray  # phi_j on the cube, same shape
    rows: np.ndarray  # exp(2 pi i (n m mod N) / N), (N, 2K+1) complex
    cols: np.ndarray  # (2(K+1), N) real: w_m cos and -w_m sin rows, interleaved, over N^d


def _shell_cube(grid: FrequencyGrid, phi: np.ndarray) -> _ShellCube | None:
    """The plan of one shell multiplier on the 2/3-rule cube; None when the
    shell holds no lattice point."""
    support = np.nonzero(phi)
    if support[0].size == 0:
        return None
    m = grid.m1d[grid.cube[0]]  # m of the cube's rows; its first K+1 are its columns' m
    K = max(int(np.max(np.abs(m[at]))) for at in support)
    rows = np.flatnonzero(np.abs(m) <= K)
    cube = np.ix_(*([rows] * (grid.d - 1) + [np.arange(K + 1)]))
    index = np.arange(math.prod(grid.cube_shape)).reshape(grid.cube_shape)[cube]
    N, n = grid.N, np.arange(grid.N)
    row_phase = np.outer(n, m[rows]) % N
    col_phase = 2.0 * math.pi * (np.outer(np.arange(K + 1), n) % N) / N
    weight = grid.parseval_weight[: K + 1, None] / float(N) ** grid.d
    cols = np.empty((2 * (K + 1), N))
    cols[0::2] = weight * np.cos(col_phase)
    cols[1::2] = -weight * np.sin(col_phase)
    return _ShellCube(index, phi[cube], np.exp(2j * math.pi * row_phase / N), cols)


def _cube_samples(hat: np.ndarray, cube: _ShellCube) -> np.ndarray:
    """Real samples (c, N^d) of the shell of ``cube`` from (c, *cube_shape)
    coefficients; equal to ``grid.ifft(hat * phi_j)`` to roundoff."""
    c = hat.shape[0]
    x = np.take(hat.reshape(c, -1), cube.index, axis=1) * cube.phi
    for a in range(x.ndim - 2, 0, -1):
        shape = x.shape
        x = cube.rows @ x.reshape(-1, shape[a], math.prod(shape[a + 1:]))
        x = x.reshape(shape[:a] + (cube.rows.shape[0],) + shape[a + 1:])
    real = x.view(np.float64).reshape(-1, cube.cols.shape[0])
    return (real @ cube.cols).reshape(c, -1)


class FilterBank:
    """Dyadic shell multipliers phi_j on a grid's 2/3-rule cube, j in [j_min, j_max]."""

    def __init__(self, grid: FrequencyGrid, j_min: int, j_max: int):
        if j_max - j_min < 3:
            raise ValueError(
                f"need j_max - j_min >= 3, got j_min={j_min}, j_max={j_max}"
            )
        radius = grid.k_min * grid.N / 3.0
        if ANNULUS_HI * 2.0**j_max > radius * (1.0 + 1e-12):
            raise ValueError(f"top shell exceeds the 2/3-rule cube: "
                             f"(8/3)*2^{j_max} > k_min*N/3 = {radius:g}")
        self.grid = grid
        self.j_min = int(j_min)
        self.j_max = int(j_max)
        rho = grid.cube_k.k_mag
        # psi(2^-k rho) in one stack, a row per k whose annulus meets the lattice
        # or is a kept shell (other rows would vanish on it).  numpy sums the
        # leading axis row by row, in k order; the sum is positive where rho > 0
        # since the annulus is wider than an octave.
        k_lo = min(self.j_min, math.floor(math.log2(grid.k_min / ANNULUS_HI)))
        k_hi = max(self.j_max, math.ceil(math.log2(rho.max() / ANNULUS_LO)))
        ks = np.arange(k_lo, k_hi + 1).reshape((-1,) + (1,) * grid.d)
        bumps = _bump(rho * np.ldexp(1.0, -ks))  # exact: the factors are powers of 2
        den = bumps.sum(axis=0)
        if np.any((rho > 0.0) & (den <= 0.0)):
            raise ValueError("partition denominator vanished on a lattice shell")
        # At rho = 0 every bump is +0.0 and den is replaced by 1, so phi_j is +0.0 there.
        den = np.where(den > 0.0, den, 1.0)
        self.phi = bumps[self.j_min - k_lo : self.j_max - k_lo + 1] / den
        self._lowpass = np.empty((self.n_shells + 1,) + rho.shape)
        self._lowpass[0] = rho == 0.0
        for i, phi in enumerate(self.phi):  # S_{j+1} = S_j + phi_j, in order
            np.add(self._lowpass[i], phi, out=self._lowpass[i + 1])
        self.mean_indicator = self._lowpass[0]

    @property
    def shells(self) -> range:
        return range(self.j_min, self.j_max + 1)

    @property
    def n_shells(self) -> int:
        return self.j_max - self.j_min + 1

    @cached_property
    def phi_sq(self) -> np.ndarray:
        """phi_j^2 times the Parseval weight on the cube, one row per shell: the p = 2 matrix."""
        weight = self.grid.parseval_weight[: self.grid.cube_shape[-1]]
        return (self.phi**2 * weight).reshape(self.n_shells, -1)

    @cached_property
    def _cubes(self) -> list:
        """Per shell, the ``_ShellCube`` of its support (None for an empty shell)."""
        return [_shell_cube(self.grid, phi) for phi in self.phi]

    def index(self, j: int) -> int:
        if not self.j_min <= j <= self.j_max:
            raise ValueError(f"shell {j} outside [{self.j_min}, {self.j_max}]")
        return j - self.j_min

    def block_multiplier(self, j: int) -> np.ndarray:
        return self.phi[self.index(j)]

    def lowpass_multiplier(self, j: int) -> np.ndarray:
        """Multiplier of S_j: the mean mode plus the shells j' <= j - 1, added in order."""
        if not self.j_min <= j <= self.j_max + 1:
            raise ValueError(f"low-pass level {j} outside [{self.j_min}, {self.j_max + 1}]")
        return self._lowpass[j - self.j_min]

    def interior_mask(self) -> np.ndarray:
        """Lattice points where the kept shells form an exact partition of unity."""
        rho = self.grid.cube_k.k_mag
        return (rho >= 2.0 ** (self.j_min + 1)) & (rho <= 2.0 ** (self.j_max - 1))

    def partition_defect(self) -> float:
        """max |sum_j phi_j - 1| over the interior band."""
        total = self.phi.sum(axis=0)
        mask = self.interior_mask()
        if not mask.any():
            return 0.0
        return float(np.max(np.abs(total[mask] - 1.0)))

    def fingerprint(self) -> dict:
        """Deterministic summary of the bank, with a hash of the values on the
        full N^d lattice (phi is radial, so column m mirrors column |m|)."""
        import hashlib  # here, so only writing filter_bank.json loads OpenSSL
        full = np.take(self.grid.from_cube(self.phi), np.abs(self.grid.m1d), axis=-1)
        digest = hashlib.sha256(np.ascontiguousarray(full).tobytes()).hexdigest()
        return {
            "j_min": self.j_min,
            "j_max": self.j_max,
            "annulus": [ANNULUS_LO, ANNULUS_HI],
            "grid": {"d": self.grid.d, "N": self.grid.N, "L": self.grid.L},
            "phi_sha256": digest,
        }

    def __repr__(self):
        return f"FilterBank(j_min={self.j_min}, j_max={self.j_max}, grid={self.grid!r})"


def build_filter_bank(grid: FrequencyGrid) -> FilterBank:
    """The shell bank over the grid's ``default_band``."""
    return FilterBank(grid, *default_band(grid))


def _check_bank(f, bank: FilterBank) -> None:
    """Raise TypeError unless f is a Field or SpectralField, and ValueError
    unless it lives on the bank's grid; callers check before any work."""
    if not isinstance(f, (Field, SpectralField)):
        raise TypeError(f"expected Field or SpectralField, got {type(f).__name__}")
    if f.grid != bank.grid:
        raise ValueError("field and bank live on different grids")


def _apply_multiplier(bank: FilterBank, mult, f):
    """f times ``bank``'s multiplier ``mult`` on the cube; a SpectralField returns zero off it."""
    _check_bank(f, bank)
    hat = f.grid.to_cube(_coeffs(f)) * mult
    if isinstance(f, SpectralField):
        return SpectralField(f.grid, f.grid.from_cube(hat))
    return Field(f.grid, f.grid.ifft(hat))


def dyadic_block(bank: FilterBank, j: int, f):
    """Shell projection Delta_j f.  Spectral input composes without roundoff
    leaving the multiplier supports, so disjoint shells annihilate exactly."""
    return _apply_multiplier(bank, bank.block_multiplier(j), f)


def low_pass(bank: FilterBank, j: int, f):
    """S_j f: mean mode plus every shell strictly below j."""
    return _apply_multiplier(bank, bank.lowpass_multiplier(j), f)


@dataclass(frozen=True)
class BesovSpec:
    """Index triple of a homogeneous Besov space, plus an optional time
    exponent q for mixed space-time norms."""

    s: float
    p: float
    r: float
    q: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s}")
        if not (self.p >= 1.0):
            raise ValueError(f"p must be >= 1, got {self.p}")
        if not (self.r >= 1.0):
            raise ValueError(f"r must be >= 1, got {self.r}")
        if self.q is not None and not (self.q >= 1.0):
            raise ValueError(f"q must be >= 1, got {self.q}")


def _aggregate(values: np.ndarray, r: float) -> np.ndarray:
    if math.isinf(r):
        return np.max(values, axis=0)
    return np.sum(values**r, axis=0) ** (1.0 / r)


def _shell_weights(bank: FilterBank, s: float) -> np.ndarray:
    return 2.0 ** (s * np.asarray(bank.shells, dtype=np.float64))


def _shell_lp_norms(hat: np.ndarray, p: float, bank: FilterBank) -> np.ndarray:
    """||Delta_j f||_Lp for every shell j (|f(x)|_2 pointwise, as in ``lp_norm``)
    from the (c, *cube_shape) coefficients of one field; raises if not finite."""
    grid = bank.grid
    if p == 2.0:
        power = np.sum(hat.real**2 + hat.imag**2, axis=0).reshape(-1)
        vals = np.sqrt(bank.phi_sq @ power) / float(grid.N) ** grid.d
    else:
        vals = np.array([
            0.0 if cube is None else _samples_lp_norm(_cube_samples(hat, cube), p)
            for cube in bank._cubes
        ])
    if not np.all(np.isfinite(vals)):
        raise ValueError("field samples must be finite")
    return vals


def _coeffs(f) -> np.ndarray:
    """Fourier coefficients of a Field (one forward transform) or a
    SpectralField (as is); raises ValueError unless all are finite."""
    if not isinstance(f, (Field, SpectralField)):
        raise TypeError(f"expected Field or SpectralField, got {type(f).__name__}")
    hat = f.coeffs if isinstance(f, SpectralField) else f.grid.fft(f.samples)
    if not np.all(np.isfinite(hat)):
        raise ValueError("field samples must be finite")
    return hat


def _gather_cube(f) -> np.ndarray:
    """The cube entries of a Field's or SpectralField's coefficients.  Raises
    ValueError naming the largest coefficient off the cube unless it is at
    most 1e-13 of the largest one, the roundoff of a field that vanishes there."""
    grid, hat = f.grid, _coeffs(f)
    mag = np.abs(hat)
    off = np.where(grid.dealias_mask, 0.0, mag)
    worst = np.unravel_index(np.argmax(off), off.shape)
    if off[worst] > 1e-13 * np.max(mag):
        m = tuple(int(m_a.reshape(-1)[i]) for m_a, i in zip(grid.m_axes, worst[1:]))
        raise ValueError(f"field must vanish off the 2/3-rule cube |m_a| <= {grid.N // 3}: "
                         f"component {worst[0]} has |coefficient| {off[worst]:.3e} at m = {m}, "
                         f"{off[worst] / np.max(mag):.2e} of the largest")
    return grid.to_cube(hat)


def _cube_besov_norm(hat: np.ndarray, spec: BesovSpec, bank: FilterBank) -> float:
    """``besov_norm`` of the field with (c, *cube_shape) coefficients ``hat``."""
    vals = _shell_lp_norms(hat, spec.p, bank)
    return float(_aggregate(vals * _shell_weights(bank, spec.s), spec.r))


def besov_norm(f, spec: BesovSpec, bank: FilterBank) -> float:
    """Homogeneous Besov norm; the mean mode belongs to no shell and drops out."""
    _check_bank(f, bank)
    return _cube_besov_norm(f.grid.to_cube(_coeffs(f)), spec, bank)


def _interpolate(times: np.ndarray, stack, t: float) -> np.ndarray:
    """stack (leading axis over ``times``, or a function of the snapshot
    index) linearly interpolated at t; the stored entry itself at a stored time."""
    at = stack if callable(stack) else stack.__getitem__
    T = float(times[-1])
    slack = 1e-12 * max(1.0, T)
    if t < -slack or t > T + slack:
        raise ValueError(f"t={t} outside [0, {T}]")
    t = min(max(t, 0.0), T)
    i = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0), times.size - 1)
    if i == times.size - 1 or abs(times[i] - t) <= slack:
        return at(i)
    w = (t - times[i]) / (times[i + 1] - times[i])
    return (1.0 - w) * at(i) + w * at(i + 1)


@dataclass
class TimeSeriesField:
    """One field on a strictly increasing time axis from t = 0, held as the
    stacked coefficients of its snapshots on the 2/3-rule cube, shape
    (n_times, c, *grid.cube_shape).  Finiteness is checked once, here."""

    grid: FrequencyGrid
    times: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.times.ndim != 1 or self.times.size == 0:
            raise ValueError("times must be a nonempty 1-d array")
        if self.coeffs.ndim != self.grid.d + 2 or self.coeffs.shape[2:] != self.grid.cube_shape:
            raise ValueError(f"coeffs must have shape (n_times, c, *cube_shape), "
                             f"got {self.coeffs.shape}")
        if self.coeffs.shape[0] != self.times.size:
            raise ValueError("times and snapshots disagree in length")
        if self.times[0] != 0.0:
            raise ValueError(f"time axis must start at 0, got {self.times[0]}")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("field samples must be finite")

    @classmethod
    def from_snapshots(cls, times, snapshots) -> "TimeSeriesField":
        """The series of ``Field``/``SpectralField`` snapshots on one grid (``_gather_cube``)."""
        grid = snapshots[0].grid
        if any(snap.grid != grid for snap in snapshots):
            raise ValueError("snapshots must share one grid")
        return cls(grid, times, np.stack([_gather_cube(snap) for snap in snapshots]))

    @property
    def components(self) -> int:
        return self.coeffs.shape[1]

    @property
    def n_times(self) -> int:
        return int(self.times.size)

    @property
    def T(self) -> float:
        return float(self.times[-1])

    def field(self, i: int) -> Field:
        """Physical samples of snapshot i, for I/O and inspection."""
        return Field(self.grid, self.grid.ifft(self.coeffs[i]))

    def sample_at(self, t: float) -> SpectralField:
        """Linear interpolation in time, on the half spectrum; exact at stored snapshots."""
        hat = _interpolate(self.times, self.coeffs, t)
        return SpectralField(self.grid, self.grid.from_cube(hat))

    def __sub__(self, other: "TimeSeriesField") -> "TimeSeriesField":
        """Snapshot-wise difference."""
        if self.grid != other.grid:
            raise ValueError("series live on different grids")
        if self.n_times != other.n_times or not np.allclose(
            self.times, other.times, rtol=0.0, atol=1e-12
        ):
            raise ValueError("series have different time axes")
        return TimeSeriesField(self.grid, self.times.copy(), self.coeffs - other.coeffs)


def shell_lp_matrix(series: TimeSeriesField, p: float, bank: FilterBank) -> np.ndarray:
    """||Delta_j f(t_i)||_Lp as an (n_shells, n_times) matrix."""
    if series.grid != bank.grid:
        raise ValueError("series and bank live on different grids")
    return np.stack([_shell_lp_norms(hat, p, bank) for hat in series.coeffs], 1)


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x along the last axis, 0 at x[0]:
    scipy's ``cumulative_trapezoid(y, x, axis=-1, initial=0.0)`` step for
    step, so bitwise equal to it."""
    steps = np.cumsum(np.diff(x) * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)
    return np.concatenate((np.zeros(steps.shape[:-1] + (1,)), steps), axis=-1)


def _trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid integral of y over x along the last axis: scipy's
    ``trapezoid(y, x)`` step for step.  np.sum adds pairwise, so this is not
    the last entry of ``_cumulative_trapezoid``."""
    return np.sum((x[1:] - x[:-1]) * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)


def _running_norm(
    mat: np.ndarray, times: np.ndarray, spec: BesovSpec, bank: FilterBank
) -> np.ndarray:
    """Mixed norm on [0, t_i] for every snapshot i, from the series' shell
    matrix at spec.p: per shell a running max (q = inf) or the cumulative
    trapezoid integral of mat**q, then the weighted l^r shell sum."""
    if spec.q is None:
        raise ValueError("spec.q is required for a time-mixed norm")
    if math.isinf(spec.q):
        per_shell = np.maximum.accumulate(mat, axis=1)
    elif times.size < 2:
        raise ValueError("finite q needs at least two snapshots")
    else:
        acc = _cumulative_trapezoid(mat**spec.q, times)
        per_shell = acc ** (1.0 / spec.q)
    weighted = per_shell * _shell_weights(bank, spec.s)[:, None]
    return np.asarray(_aggregate(weighted, spec.r))


def chemin_lerner_norm(series: TimeSeriesField, spec: BesovSpec, bank: FilterBank) -> float:
    """Shell-first mixed norm: L^q in time per shell, then the l^r shell sum.

    Trapezoid quadrature on the snapshot grid; q = inf takes the max over
    snapshots.  The ordering differs from the time-outer norm
    (``lq_besov_norm``) exactly as Minkowski's inequality dictates.
    """
    mat = shell_lp_matrix(series, spec.p, bank)
    return float(_running_norm(mat, series.times, spec, bank)[-1])


def chemin_lerner_trace(
    series: TimeSeriesField, spec: BesovSpec, bank: FilterBank
) -> np.ndarray:
    """Running values of the mixed norm on [0, t_i], one entry per snapshot;
    the last entry is ``chemin_lerner_norm``."""
    return _running_norm(shell_lp_matrix(series, spec.p, bank), series.times, spec, bank)


def lq_besov_norm(series: TimeSeriesField, spec: BesovSpec, bank: FilterBank) -> float:
    """Time-outer norm: Besov norm at each snapshot, then L^q over time."""
    if spec.q is None:
        raise ValueError("spec.q is required for a time-mixed norm")
    mat = shell_lp_matrix(series, spec.p, bank)
    vals = _aggregate(mat * _shell_weights(bank, spec.s)[:, None], spec.r)
    if math.isinf(spec.q):
        return float(np.max(vals))
    if series.n_times < 2:
        raise ValueError("finite q needs at least two snapshots")
    return float(_trapezoid(vals**spec.q, series.times) ** (1.0 / spec.q))


@dataclass
class BernsteinReport:
    """Measured constants for the derivative estimates of a band-limited field.

    upper_ratio: sup_{|a|=k} ||d^a f||_Lq / (lam^(k + d(1/p - 1/q)) ||f||_Lp),
    finite for ball or annulus support.  lower_ratio: the same sup with q = p,
    which for annulus support is also bounded below; None for ball support.
    """

    lam: float
    k_order: int
    p: float
    q: float
    support: str
    upper_ratio: float
    lower_ratio: float | None


def bernstein_ratios(
    f: Field,
    lam: float,
    k_order: int = 1,
    p: float = 2.0,
    q: float = 2.0,
    support: str = "ring",
) -> BernsteinReport:
    """Measure the derivative-estimate constants of a band-limited field.

    ``support`` declares where the spectrum lives: "ring" for the annulus
    lam * [3/4, 8/3], "ball" for |k| <= lam.  The declaration is checked,
    and violated support raises.
    """
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if k_order < 1:
        raise ValueError(f"k_order must be >= 1, got {k_order}")
    if q < p:
        raise ValueError(f"need q >= p, got p={p}, q={q}")
    if support not in ("ring", "ball"):
        raise ValueError(f"support must be 'ring' or 'ball', got {support!r}")
    grid = f.grid
    hat = grid.fft(f.samples)
    amax = float(np.max(np.abs(hat)))
    if amax == 0.0:
        raise ValueError("zero field has no Bernstein ratio")
    slack = 1e-9
    if support == "ring":
        outside = (grid.k_mag < ANNULUS_LO * lam * (1.0 - slack)) | (
            grid.k_mag > ANNULUS_HI * lam * (1.0 + slack)
        )
    else:
        outside = grid.k_mag > lam * (1.0 + slack)
    leak = float(np.max(np.abs(hat[:, outside]))) if outside.any() else 0.0
    if leak > 1e-13 * amax:
        raise ValueError(
            f"spectrum leaks outside the declared {support} support "
            f"(relative leak {leak / amax:.2e})"
        )

    def deriv_sup(norm_p: float) -> float:
        best = 0.0
        for alpha in combinations_with_replacement(range(grid.d), k_order):
            mult = np.ones(grid.spectral_shape, dtype=np.complex128)
            for a in alpha:
                mult = mult * (1j * grid.k_axes[a])
            g = Field(grid, grid.ifft(hat * mult))
            best = max(best, lp_norm(g, norm_p))
        return best

    base = lp_norm(f, p)
    gain = k_order + grid.d * (1.0 / p - (0.0 if math.isinf(q) else 1.0 / q))
    upper = deriv_sup(q) / (lam**gain * base)
    lower = deriv_sup(p) / (lam**k_order * base) if support == "ring" else None
    return BernsteinReport(
        lam=float(lam),
        k_order=int(k_order),
        p=float(p),
        q=float(q),
        support=support,
        upper_ratio=float(upper),
        lower_ratio=None if lower is None else float(lower),
    )
