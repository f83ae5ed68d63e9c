"""The horizon's free-evolution norm the long way, as a cross-check of the
library's running-norm path.

The heat evolution e^{t Lap}u0 is formed snapshot by snapshot with raw
numpy, its shell norms come from ``shell_norm_oracle`` (one inverse FFT per
shell), and the two running norms are integrated with explicit trapezoid
sums and explicit shell weights.  The only inputs shared with the library
are plain arrays: the shell multipliers phi_j and |k|^2 on the lattice.
"""

import math

import numpy as np
from scipy.integrate import cumulative_trapezoid

import shell_norm_oracle


def free_evolution_traces(samples, phi, shells, k_sq, dt, t_max, p):
    """Running ||e^{t Lap}u0||_{L~1_t(B^{d/p+1}_{p,1})} + ||.||_{L~2_t(B^{d/p}_{p,1})}
    on [0, t_i], for every t_i = i*dt <= t_max; returns (times, values)."""
    d = samples.ndim - 1
    axes = tuple(range(1, samples.ndim))
    times = np.arange(math.floor(t_max / dt + 1e-8) + 1) * dt
    hat0 = np.fft.fftn(samples, axes=axes)
    snapshots = [np.fft.ifftn(hat0 * np.exp(-k_sq * t), axes=axes).real for t in times]
    mat = shell_norm_oracle.shell_matrix(snapshots, phi, p)
    l1 = cumulative_trapezoid(mat, times, axis=1, initial=0.0)
    l2 = cumulative_trapezoid(mat**2, times, axis=1, initial=0.0) ** 0.5
    shells = np.asarray(shells, dtype=np.float64)
    w_hi = 2.0 ** ((d / p + 1.0) * shells)[:, None]
    w_mid = 2.0 ** ((d / p) * shells)[:, None]
    return times, np.sum(l1 * w_hi, axis=0) + np.sum(l2 * w_mid, axis=0)
