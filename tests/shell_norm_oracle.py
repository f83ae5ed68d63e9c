"""Shell norms the direct way, as an independent cross-check of the kernel.

For every shell j the block Delta_j f is inverted on its own with raw
numpy, and its L^p norm (normalized measure, |f(x)|_2 pointwise for
vectors) is taken from the physical samples.  The only input shared with
the library is plain data: the float array of shell multipliers phi_j.
"""

import math

import numpy as np


def lp_norm(samples, p):
    """L^p norm of (c, N, ..., N) real samples under the measure dx / L^d."""
    mag_sq = np.sum(samples * samples, axis=0)
    if math.isinf(p):
        return float(np.sqrt(np.max(mag_sq)))
    return float(np.mean(mag_sq ** (p / 2.0)) ** (1.0 / p))


def shell_norms(samples, phi, p):
    """||Delta_j f||_Lp for each row phi_j of phi, one inverse FFT per shell."""
    axes = tuple(range(1, samples.ndim))
    hat = np.fft.fftn(samples, axes=axes)
    return np.array(
        [lp_norm(np.fft.ifftn(hat * phi_j, axes=axes).real, p) for phi_j in phi]
    )


def shell_matrix(snapshots, phi, p):
    """(n_shells, n_times) matrix of shell norms of a list of sample arrays."""
    return np.stack([shell_norms(s, phi, p) for s in snapshots], axis=1)


def besov_norm(samples, phi, shells, s, p, r):
    """|| 2^(js) ||Delta_j f||_Lp ||_{l^r} over the given shell indices."""
    vals = shell_norms(samples, phi, p) * 2.0 ** (s * np.asarray(shells, dtype=float))
    if math.isinf(r):
        return float(np.max(vals))
    return float(np.sum(vals**r) ** (1.0 / r))
