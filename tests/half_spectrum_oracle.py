"""The transport marcher, the source assembly, the dealiased product
helpers and the Bony paraproduct and remainder on the whole half spectrum,
masking with ``grid.dealias_mask`` after every transform.  The package runs
them on the 2/3-rule cube instead; these are the full-layout formulas its
results must reproduce bit for bit.  Series and the bank's multipliers come
in on the cube and are scattered onto the half spectrum before use; stacks
go out on it.
"""

import numpy as np

from lpmhd import SpectralField, leray_project
from lpmhd.littlewood_paley import _coeffs, _interpolate


def _advection_rhs(grid, fhat, v_samples, g_hat):
    grads = grid.ifft(grid.ik[:, None] * fhat)
    adv = sum(v_samples[a] * grads[a] for a in range(grid.d))
    out = -grid.fft(adv) * grid.dealias_mask
    if g_hat is not None:
        out = out + g_hat
    return out


def solve_transport(problem):
    """RK4 on the masked half spectrum; the stack of every step."""
    grid = problem.grid
    fhat = _coeffs(problem.f0) * grid.dealias_mask
    dt = problem.dt
    velocity, source = problem.velocity, problem.source
    velocity_samples = grid.ifft(grid.from_cube(velocity.coeffs))
    source_hats = None if source is None else grid.from_cube(source.coeffs)

    def v_at(t):
        return _interpolate(velocity.times, velocity_samples, t)

    def g_at(t):
        if source is None:
            return None
        return _interpolate(source.times, source_hats, t) * grid.dealias_mask

    times = np.arange(problem.n_steps + 1) * dt
    stack = np.empty((times.size,) + fhat.shape, dtype=np.complex128)
    stack[0] = fhat
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
    return stack


def assemble_sources(u_series, b_series):
    """P div(B (x) B - u (x) u) and div(u (x) B) from all 2 d^2 products, as stacks."""
    grid = u_series.grid
    mask = grid.dealias_mask
    u_hats, b_hats = grid.from_cube(u_series.coeffs), grid.from_cube(b_series.coeffs)
    forcing = np.empty_like(u_hats)
    source = np.empty_like(u_hats)
    for i in range(u_series.n_times):
        um, bm = grid.ifft(np.stack([u_hats[i], b_hats[i]]) * mask)
        bb_uu = np.einsum("i...,j...->ij...", bm, bm) - np.einsum("i...,j...->ij...", um, um)
        ub = np.einsum("i...,j...->ij...", um, bm)
        prod_hat = grid.fft(np.stack([bb_uu, ub])) * mask
        div_hat = sum(prod_hat[:, :, j] * grid.ik[j] for j in range(grid.d))
        forcing[i] = leray_project(SpectralField(grid, div_hat[0])).coeffs
        source[i] = div_hat[1]
    return forcing, source


def _dealiased_samples(grid, samples):
    return grid.ifft(grid.fft(samples) * grid.dealias_mask)


def dealiased_product(f, g):
    """Masked factors, pointwise product, masked result, as samples."""
    prod = _dealiased_samples(f.grid, f.samples) * _dealiased_samples(g.grid, g.samples)
    return _dealiased_samples(f.grid, prod)


def tensor_divergence(a, b):
    """sum_j d/dx_j (a_i b_j) of the masked factors, as samples."""
    grid = a.grid
    am, bm = _dealiased_samples(grid, a.samples), _dealiased_samples(grid, b.samples)
    out = np.zeros((grid.d,) + grid.spectral_shape, dtype=np.complex128)
    for j in range(grid.d):
        out += grid.fft(am * bm[j]) * grid.dealias_mask * grid.ik[j]
    return grid.ifft(out)


def paraproduct(bank, u, v):
    """T_u v from masked shell transforms, each term masked and clipped, as samples."""
    grid = bank.grid
    u_hat, v_hat = grid.fft(u.samples), grid.fft(v.samples)
    c = max(u.components, v.components)
    acc = np.zeros((c,) + grid.spectral_shape, dtype=np.complex128)
    rho = grid.k_mag
    for j in range(bank.j_min + 1, bank.j_max + 1):
        low = grid.ifft(u_hat * grid.from_cube(bank.lowpass_multiplier(j - 1)) * grid.dealias_mask)
        high = grid.ifft(v_hat * grid.from_cube(bank.block_multiplier(j)) * grid.dealias_mask)
        support = (rho > 2.0**j / 12.0) & (rho < (10.0 / 3.0) * 2.0**j)
        acc += grid.fft(low * high) * (grid.dealias_mask & support)
    return grid.ifft(acc)


def remainder(bank, u, v):
    """R(u, v) from masked shell blocks, each diagonal's transform masked, as samples."""
    grid = bank.grid
    phi = grid.from_cube(bank.phi) * grid.dealias_mask
    bu, bv = (list(grid.ifft(grid.fft(f.samples) * phi[:, None]))
              for f in (u, v))
    c = max(u.components, v.components)
    acc = np.zeros((c,) + grid.spectral_shape, dtype=np.complex128)
    for idx in range(bank.n_shells):
        acc += grid.fft(bu[idx] * bv[idx]) * grid.dealias_mask
        if idx + 1 < bank.n_shells:
            acc += grid.fft(bu[idx] * bv[idx + 1] + bu[idx + 1] * bv[idx]) * grid.dealias_mask
    return grid.ifft(acc)
