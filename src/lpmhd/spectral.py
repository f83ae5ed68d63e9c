"""Periodic-box spectral substrate: grids, fields, transforms, and the
constant-coefficient operators everything else is built from.

Conventions fixed here, once, for the whole package:

* the box is [0, L)^d sampled on a uniform N^d lattice, N a power of two;
* FFTs run through ``numpy.fft`` over the trailing d axes, and only
  through ``FrequencyGrid.fft/ifft`` (the p != 2 shell norms invert each
  shell by a dense DFT on its support cube instead, in ``littlewood_paley``):
  the forward transform is the unnormalized real-input ``rfftn`` and the
  inverse ``irfftn`` divides by N**d, both bitwise ``scipy.fft``'s, so
  samples and coefficients round-trip exactly up to floating roundoff, and
  the inverse returns fresh real float64 samples;
* the Fourier layout of a field is the real-FFT half spectrum, of shape
  ``grid.spectral_shape = (N,)*(d-1) + (N//2+1,)``: wavenumbers are
  k = (2*pi/L) * m with integer m in [-N/2, N/2) in FFT order on the first
  d-1 axes and m = 0..N/2 on the last.  The unstored modes m_last < 0 are
  the conjugates of stored ones.  The grid's multipliers live on
  ``spectral_shape`` and, as ``grid.cube_k``, on the 2/3-rule cube below;
* Parseval on the half spectrum weights last-axis columns 0 and N/2 by 1
  and every other column by 2 (``grid.parseval_weight``): each of those
  stands for itself and its unstored conjugate;
* Nyquist convention: the m = +-N/2 planes carry no odd derivative.
  ``grid.ik`` zeroes every plane m_a = +-N/2 of axis a, as is standard
  for FFT derivatives, and ``mhd.prepare_initial_data`` zeroes those
  planes outright;
* L^p norms use the normalized measure (1/L^d) dx, so the constant field
  1 has unit norm for every p;
* pointwise products of band-limited data are dealiased with the 2/3
  rule: modes with |m_i| > floor(N/3) on any axis are zeroed in the
  factors and in the product.  What survives is the cube |m_a| <= N//3
  (``grid.cube``); ``fft(..., dealiased=True)`` returns only its
  coefficients and ``ifft`` takes them by their shape, bitwise equal to
  the full transforms gathered on it and scattered from it, so dealiased
  arithmetic never touches the rest; series that vanish off it live on it.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

__all__ = [
    "FrequencyGrid",
    "Field",
    "SpectralField",
    "make_grid",
    "to_spectral",
    "to_physical",
    "divergence",
    "leray_project",
    "lp_norm",
    "mean_mode",
    "dealiased_product",
    "tensor_divergence",
]

# Largest float64 sample count that the solvers' hot loops transform as one
# batch; a larger batch is split.  Measured on 2 vCPUs: the batches of 2-D
# N=64 (up to 28,672 samples) and 3-D N=16 run up to 21% slower split, while 3-D
# N=32's (98,304 samples per derivative direction) run faster split and,
# whole, set the process's memory peak.
_BATCH_SAMPLES = 2**16

_Wavenumbers = namedtuple("_Wavenumbers", "k_axes k_sq k_mag ik")  # see FrequencyGrid.cube_k


def _one_batch(grid: FrequencyGrid, rows: int) -> bool:
    """True if ``rows`` fields of samples on ``grid`` fit one transform batch."""
    return rows * grid.N**grid.d <= _BATCH_SAMPLES


def _check_lattice(d: int, N: int, L: float) -> None:
    """Raise ValueError unless (d, N, L) admit a ``FrequencyGrid``."""
    if d not in (2, 3):
        raise ValueError(f"d must be 2 or 3, got {d}")
    if N < 8 or (N & (N - 1)) != 0:
        raise ValueError(f"N must be a power of two >= 8, got {N}")
    if not (L > 0):
        raise ValueError(f"L must be positive, got {L}")


class FrequencyGrid:
    """Uniform periodic lattice with cached wavenumber arrays.

    Parameters
    ----------
    d : int
        Spatial dimension, 2 or 3.
    N : int
        Samples per axis; a power of two, at least 8.
    L : float
        Box side length.
    """

    def __init__(self, d: int, N: int, L: float = 2.0 * math.pi):
        _check_lattice(d, N, L)
        self.d = int(d)
        self.N = int(N)
        self.L = float(L)
        # fftfreq(N) is m/N with N a power of two, so m1d is exact.  m1d and
        # k1d are the full FFT-order axis; the last axis of the half spectrum
        # keeps only m = 0..N/2.
        self.m1d = np.rint(np.fft.fftfreq(self.N) * self.N).astype(np.int64)
        self.k1d = (2.0 * math.pi / self.L) * self.m1d.astype(np.float64)
        self.spectral_shape = (self.N,) * (self.d - 1) + (self.N // 2 + 1,)
        m_axes = []
        for a in range(self.d):
            shape = [1] * self.d
            shape[a] = self.spectral_shape[a]
            m = self.m1d if a < self.d - 1 else np.arange(self.N // 2 + 1)
            m_axes.append(m.reshape(shape))
        self.m_axes = tuple(m_axes)
        self.k_axes = tuple((2.0 * math.pi / self.L) * m.astype(np.float64) for m in m_axes)
        self.k_sq = sum(ka**2 for ka in self.k_axes)
        self.k_mag = np.sqrt(self.k_sq)
        self.k_min = 2.0 * math.pi / self.L
        self.k_nyquist = math.pi * self.N / self.L
        mask = np.ones(self.spectral_shape, dtype=bool)
        for m in self.m_axes:
            mask &= np.abs(m) <= self.N // 3
        self.dealias_mask = mask
        self.parseval_weight = np.full(self.N // 2 + 1, 2.0)
        self.parseval_weight[[0, -1]] = 1.0

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.d

    def coords(self) -> tuple:
        """Coordinate arrays x_i of shape (N,)*d."""
        x1d = np.arange(self.N) * (self.L / self.N)
        return tuple(np.meshgrid(*([x1d] * self.d), indexing="ij"))

    @cached_property
    def ik(self) -> np.ndarray:
        """Stacked derivative multipliers i*k_a, shape (d, *spectral_shape),
        zero on every plane m_a = +-N/2 (see the module's Nyquist convention)."""
        return np.stack(np.broadcast_arrays(*(
            1j * np.where(np.abs(m) == self.N // 2, 0.0, k)
            for m, k in zip(self.m_axes, self.k_axes)
        )))

    @cached_property
    def cube(self) -> tuple:
        """Per-axis indices of the 2/3-rule cube |m_a| <= K = N//3 in the half
        spectrum: rows 0..K, N-K..N-1 (FFT order) on the first d-1 axes and
        columns 0..K on the last, so it has shape (2K+1,)*(d-1) + (K+1,)."""
        K = self.N // 3
        rows = np.r_[0 : K + 1, self.N - K : self.N]
        return (rows,) * (self.d - 1) + (np.arange(K + 1),)

    @cached_property
    def cube_shape(self) -> tuple:
        """Shape (2K+1,)*(d-1) + (K+1,) of the cube; never ``spectral_shape``, as 2K+1 is odd."""
        return tuple(i.size for i in self.cube)

    @cached_property
    def cube_k(self) -> _Wavenumbers:
        """``k_axes`` (broadcastable per axis), ``k_sq``, ``k_mag`` and ``ik`` on the
        cube, from ``k1d`` at its indices by the same formulas, so each is bitwise
        ``to_cube`` of the half-spectrum array (no plane m_a = +-N/2 is left to zero)."""
        k_axes = np.ix_(*(self.k1d[i] for i in self.cube))
        k_sq = sum(ka**2 for ka in k_axes)
        ik = np.empty((self.d,) + self.cube_shape, dtype=np.complex128)
        for a, k in enumerate(k_axes):
            ik[a] = 1j * k
        return _Wavenumbers(k_axes, k_sq, np.sqrt(k_sq), ik)

    @cached_property
    def _cube_blocks(self) -> tuple:
        """(half-spectrum slices, cube slices) of the cube's 2**(d-1) contiguous blocks."""
        K, N = self.N // 3, self.N
        lead = ((slice(0, K + 1), slice(0, K + 1)), (slice(N - K, N), slice(K + 1, 2 * K + 1)))
        return tuple(
            (tuple(f for f, _ in combo) + (slice(0, K + 1),),
             tuple(c for _, c in combo) + (slice(None),))
            for combo in itertools.product(lead, repeat=self.d - 1)
        )

    def to_cube(self, coeffs: np.ndarray) -> np.ndarray:
        """The cube's entries of (..., *spectral_shape) arrays, as a fresh array."""
        shape = coeffs.shape[: coeffs.ndim - self.d] + self.cube_shape
        out = np.empty(shape, dtype=coeffs.dtype)
        for full, part in self._cube_blocks:
            out[(Ellipsis,) + part] = coeffs[(Ellipsis,) + full]
        return out

    def from_cube(self, coeffs: np.ndarray) -> np.ndarray:
        """Half-spectrum array of (..., *cube_shape) entries, zero off the cube, in their dtype."""
        lead = coeffs.shape[: coeffs.ndim - self.d]
        out = np.zeros(lead + self.spectral_shape, dtype=coeffs.dtype)
        for full, part in self._cube_blocks:
            out[(Ellipsis,) + full] = coeffs[(Ellipsis,) + part]
        return out

    def _reframe(self, lines: np.ndarray, axis: int, rows: int, swap: bool = False) -> np.ndarray:
        """Fresh array with ``rows`` rows along ``axis`` and K+1 columns that
        takes the cube rows (the first K+1 and the last K) of the first K+1
        columns of ``lines``, zero elsewhere: 2K+1 rows gather the cube, N rows
        scatter it back.  ``swap`` stores axis -2 innermost, so that numpy.fft
        transforms all its lines in one pocketfft call, not one per row."""
        K, n = self.N // 3, lines.shape[axis]
        shape = list(lines.shape)
        shape[axis], shape[-1] = rows, K + 1
        blank = np.zeros if rows > n else np.empty  # a gather writes every entry
        out = blank(shape[:-2] + (shape[:-3:-1] if swap else shape[-2:]), complex)
        out = out.swapaxes(-1, -2) if swap else out
        head = (slice(None),) * (lines.ndim + axis)
        for dst, src in ((slice(0, K + 1),) * 2, (slice(rows - K, rows), slice(n - K, n))):
            out[head + (dst, ..., slice(0, K + 1))] = lines[head + (src, ..., slice(0, K + 1))]
        return out

    def fft(self, samples: np.ndarray, dealiased: bool = False) -> np.ndarray:
        """Forward real transform over the trailing d axes; leading axes batch.

        The axes go in ``scipy.fft.rfftn``'s order (the last, then the first
        to d-1-th), so the result is bitwise scipy's.  ``dealiased`` returns
        only the cube, bitwise ``to_cube(fft(samples))``: the array is cut to
        it after each leading axis, so later axes transform fewer lines."""
        K = self.N // 3
        out = np.fft.rfft(samples, axis=-1)
        if dealiased and self.d == 2:  # in 3-D this cut would cost one pocketfft call per row
            out = out[..., : K + 1]
        for axis in range(-self.d, -1):
            np.fft.fft(out, axis=axis, out=out)
            if dealiased:
                out = self._reframe(out, axis, 2 * K + 1, swap=axis < -2)
        return out

    def ifft(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse of ``fft`` over the trailing d axes, as fresh real float64
        samples, for (..., *spectral_shape) or (..., *cube_shape) coefficients.

        The axes go in ``scipy.fft.irfftn``'s order and 1/N**d is one exact
        scaling at the end, so the result is bitwise scipy's.  A cube array's
        is bitwise ``ifft(from_cube(coeffs))``: each leading axis is padded
        from the 2K+1 cube rows to N just before its transform, and only the
        K+1 columns that can be nonzero are transformed before ``irfft``."""
        pruned = coeffs.shape[-self.d:] == self.cube_shape
        if not pruned and coeffs.shape[-self.d:] != self.spectral_shape:
            raise ValueError(f"coeffs must end in spectral_shape {self.spectral_shape} or "
                             f"cube_shape {self.cube_shape}, got {coeffs.shape}")
        lines = coeffs
        for axis in range(-self.d, -1):
            if pruned:
                lines = self._reframe(lines, axis, self.N)
            # Only the caller's array is left as it is; every later one is ours.
            lines = np.fft.ifft(lines, axis=axis, norm="forward",
                                out=None if lines is coeffs else lines)
        samples = np.fft.irfft(lines, n=self.N, axis=-1, norm="forward")
        samples *= 1.0 / self.N**self.d
        return samples

    def __eq__(self, other) -> bool:
        return (isinstance(other, FrequencyGrid)
                and (self.d, self.N, self.L) == (other.d, other.N, other.L))

    def __hash__(self):
        return hash((self.d, self.N, self.L))

    def __repr__(self):
        return f"FrequencyGrid(d={self.d}, N={self.N}, L={self.L!r})"


def make_grid(d: int, N: int, L: float = 2.0 * math.pi) -> FrequencyGrid:
    """Build a FrequencyGrid, validating d, N and L."""
    return FrequencyGrid(d, N, L)


@dataclass
class Field:
    """Real space-domain samples with shape (c, N, ..., N).

    c is the component count: 1 for scalars, d for vectors; larger values
    (flattened tensors) are allowed wherever only norms are taken.
    """

    grid: FrequencyGrid
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        expect = self.grid.shape
        if self.samples.ndim != self.grid.d + 1 or self.samples.shape[1:] != expect:
            raise ValueError(
                f"samples must have shape (c,{','.join(str(n) for n in expect)}), "
                f"got {self.samples.shape}"
            )
        if self.samples.shape[0] < 1:
            raise ValueError("field needs at least one component")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("field samples must be finite")

    @property
    def components(self) -> int:
        return self.samples.shape[0]

    def copy(self) -> "Field":
        return Field(self.grid, self.samples.copy())

    def __add__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.grid, self.samples + other.samples)

    def __sub__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.grid, self.samples - other.samples)

    def __mul__(self, a: float) -> "Field":
        return Field(self.grid, self.samples * float(a))

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.grid, -self.samples)


@dataclass
class SpectralField:
    """Half-spectrum Fourier coefficients of a real field, shape (c, *grid.spectral_shape)."""

    grid: FrequencyGrid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        expect = self.grid.spectral_shape
        if self.coeffs.ndim != self.grid.d + 1 or self.coeffs.shape[1:] != expect:
            raise ValueError(
                f"coeffs must have shape (c,{','.join(str(n) for n in expect)}), "
                f"got {self.coeffs.shape}"
            )
        if self.coeffs.shape[0] < 1:
            raise ValueError("field needs at least one component")

    @property
    def components(self) -> int:
        return self.coeffs.shape[0]


def _check_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def to_spectral(f: Field) -> SpectralField:
    """Forward FFT of every component."""
    return SpectralField(f.grid, f.grid.fft(f.samples))


def to_physical(F: SpectralField) -> Field:
    """Inverse FFT, keeping the real part."""
    return Field(F.grid, F.grid.ifft(F.coeffs))


def divergence(f: Field) -> Field:
    """Divergence of a vector field, as a scalar field."""
    d = f.grid.d
    if f.components != d:
        raise ValueError(f"divergence expects a {d}-component field, got {f.components}")
    F = f.grid.fft(f.samples)
    return Field(f.grid, f.grid.ifft(np.sum(F * f.grid.ik, axis=0, keepdims=True)))


def leray_project(F: SpectralField) -> SpectralField:
    """Divergence-free (Leray) projection of a vector field, mode by mode.

    At each k != 0 the coefficient vector loses its component along k; the
    k = 0 mode is untouched.
    """
    return SpectralField(F.grid, _leray(F.coeffs.copy(), F.grid.k_axes, F.grid.k_sq))


def _leray(coeffs: np.ndarray, k_axes, k_sq: np.ndarray) -> np.ndarray:
    """``leray_project`` of (d, ...) coefficients under wavenumbers ``k_axes``
    and |k|^2 ``k_sq`` broadcasting against them, on any set of modes, in place."""
    d = len(k_axes)
    if coeffs.shape[0] != d:
        raise ValueError(f"projection expects a {d}-component field, got {coeffs.shape[0]}")
    k_sq_safe = np.where(k_sq == 0.0, 1.0, k_sq)
    dot = np.zeros(coeffs.shape[1:], dtype=np.complex128)
    for a, k in enumerate(k_axes):
        dot += k * coeffs[a]
    dot /= k_sq_safe
    for a, k in enumerate(k_axes):
        coeffs[a] -= k * dot
    return coeffs


def lp_norm(f: Field, p: float) -> float:
    """L^p norm with the normalized measure; vector fields use |f(x)|_2 pointwise.

    p may be any float >= 1 or inf; the constant field 1 has norm 1.
    """
    return _samples_lp_norm(f.samples, p)


def _l2_norms(grid: FrequencyGrid, hats: np.ndarray) -> np.ndarray:
    """L^2 norms by Parseval from (..., c, *spectral_shape) or (..., c,
    *cube_shape) coefficients, one per leading index; |f(x)|_2 pointwise, as
    in ``lp_norm``.  The cube's columns 0..N//3 all stand below N/2."""
    power = (hats.real**2 + hats.imag**2) * grid.parseval_weight[: hats.shape[-1]]
    total = power.reshape(hats.shape[: -grid.d - 1] + (-1,)).sum(axis=-1)
    return np.sqrt(total) / float(grid.N) ** grid.d


def _check_divergence_free(grid: FrequencyGrid, hats: np.ndarray, rtol: float,
                           message: str) -> np.ndarray:
    """Raise ValueError(f"{message} = <defect>") unless ||div f||_L2 <= rtol *
    max(1, ||f||_L2) for every (d, *spectral_shape) or (d, *cube_shape) field
    f of ``hats``, both sides by Parseval with no transform, one field at a
    time so no temporary spans the stack; returns the ||f||_L2 values."""
    ik = grid.ik if hats.shape[-grid.d:] == grid.spectral_shape else grid.cube_k.ik
    norms = np.empty(hats.shape[: -grid.d - 1])
    for index in np.ndindex(norms.shape):
        norms[index] = _l2_norms(grid, hats[index])
        div_norm = _l2_norms(grid, np.sum(ik * hats[index], axis=0, keepdims=True))
        if div_norm > rtol * max(1.0, norms[index]):
            raise ValueError(f"{message} = {div_norm:.3e}")
    return norms


def _samples_lp_norm(samples: np.ndarray, p: float) -> float:
    if not (p >= 1.0):
        raise ValueError(f"p must be >= 1, got {p}")
    mag_sq = samples[0] * samples[0]
    for comp in samples[1:]:  # in np.sum's order, without the squared stack
        mag_sq += comp * comp
    if math.isinf(p):
        return float(np.sqrt(np.max(mag_sq)))
    if p == 2.0:
        return float(np.sqrt(np.mean(mag_sq)))
    return float(np.mean(_abs_pow(mag_sq, p)) ** (1.0 / p))


def _abs_pow(mag_sq: np.ndarray, p: float) -> np.ndarray:
    """|f|^p from |f|^2: for integer p a product of powers of ``mag_sq`` and
    at most one sqrt, several times cheaper than the general power."""
    if p != int(p):
        return mag_sq ** (p / 2.0)
    half, odd = divmod(int(p), 2)
    return reduce(np.multiply, [mag_sq] * half + [np.sqrt(mag_sq)] * odd)


def mean_mode(f: Field) -> np.ndarray:
    """Per-component spatial means, i.e. the k = 0 coefficients over N^d."""
    return f.samples.mean(axis=tuple(range(1, f.grid.d + 1)))


def _dealiased_samples(grid: FrequencyGrid, samples: np.ndarray) -> np.ndarray:
    return grid.ifft(grid.fft(samples, dealiased=True))


def dealiased_product(f: Field, g: Field) -> Field:
    """2/3-rule product: mask the factors, multiply pointwise, mask the result.

    Components: equal counts multiply pairwise; a scalar factor broadcasts.
    """
    _check_same_grid(f, g)
    cf, cg = f.components, g.components
    if not (cf == cg or cf == 1 or cg == 1):
        raise ValueError(f"incompatible component counts {cf} and {cg}")
    a = _dealiased_samples(f.grid, f.samples)
    b = _dealiased_samples(g.grid, g.samples)
    prod = a * b
    return Field(f.grid, _dealiased_samples(f.grid, prod))


def tensor_divergence(a: Field, b: Field) -> Field:
    """Row-wise divergence of the dealiased outer product:
    out_i = sum_j d/dx_j (a_i b_j).
    """
    _check_same_grid(a, b)
    d = a.grid.d
    if a.components != d or b.components != d:
        raise ValueError("tensor divergence expects two vector fields")
    grid = a.grid
    am = _dealiased_samples(grid, a.samples)
    bm = _dealiased_samples(grid, b.samples)
    out = sum(grid.fft(am * bm[j], dealiased=True) * grid.cube_k.ik[j] for j in range(d))
    return Field(grid, grid.ifft(out))
