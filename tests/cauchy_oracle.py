"""Cauchy's Lagrangian solution of the non-resistive induction equation,
used as an independent cross-check of the transport marcher.

Without resistivity, d_t B + u.grad B = (B.grad)u has Cauchy's solution.
Follow the characteristic through x backward to its foot A(x) = Y(0), where
dY/ds = u(Y, s) and Y(T) = x.  With dJ/ds = grad u(Y, s) J and J(T) = I,

    B(x, T) = J(0)^{-1} B0(A(x)).

This module evaluates that formula from plain data only: the stored
snapshot times and 2/3-cube coefficients of u, the cube coefficients of
B0, N and the box side.  Space is exact: u, grad u and B0 are summed as
trigonometric polynomials at the off-grid points, one axis at a time.
Time is integrated by RK4 at a quarter of the snapshot spacing, with
4-point Lagrange interpolation of the snapshots, so its own error is
O(dt^4) against the marcher's O(dt^2).  Nothing here calls the library.
"""

import numpy as np


def _cube_wavenumbers(n, box, d):
    """Per-axis wavenumbers of the cube |m_a| <= n // 3 as the series store it:
    m = 0..K, -K..-1 on the first d-1 axes and m = 0..K on the last."""
    K = n // 3
    lead = np.concatenate([np.arange(K + 1), np.arange(-K, 0)])
    return [2.0 * np.pi / box * (lead if a < d - 1 else np.arange(K + 1)) for a in range(d)]


def evaluate(coeffs, n, box, points):
    """Real values at ``points`` (P, d) of the fields whose half-spectrum cube
    coefficients are ``coeffs`` (c, *cube_shape), unnormalized as numpy's
    rfftn: shape (c, P).  Last-axis columns m > 0 stand for their unstored
    conjugates too, so they count twice."""
    d = points.shape[1]
    k = _cube_wavenumbers(n, box, d)
    weight = np.where(np.arange(k[-1].size) == 0, 1.0, 2.0)
    acc = coeffs * weight
    # Contract the last axis first: (c, m1, ..., m_d) -> (c, m1, ..., P) -> ... -> (c, P).
    acc = np.einsum("...m,pm->...p", acc, np.exp(1j * np.outer(points[:, -1], k[-1])))
    for a in range(d - 2, -1, -1):
        phase = np.exp(1j * np.outer(points[:, a], k[a]))
        acc = np.einsum("...mp,pm->...p", acc, phase)
    return acc.real / float(n) ** d


def _gradient_coeffs(u_coeffs, n, box):
    """Cube coefficients of u and of d_b u_i (row d + d*i + b), stacked as
    (n_times, d + d*d, *cube)."""
    d = u_coeffs.shape[1]
    k = _cube_wavenumbers(n, box, d)
    grads = []
    for i in range(d):
        for b in range(d):
            shape = [1] * d
            shape[b] = k[b].size
            grads.append(1j * k[b].reshape(shape) * u_coeffs[:, i])
    return np.concatenate([u_coeffs, np.stack(grads, axis=1)], axis=1)


def _lagrange_weights(times, s):
    """First index and weights of the 4-point Lagrange stencil at time s, on
    the snapshots around it (one-sided at the ends)."""
    i = int(np.clip(np.searchsorted(times, s, side="right") - 2, 0, times.size - 4))
    nodes = times[i : i + 4]
    w = np.ones(4)
    for a in range(4):
        for b in range(4):
            if a != b:
                w[a] *= (s - nodes[b]) / (nodes[a] - nodes[b])
    return i, w


def cauchy_b(times, u_coeffs, b0_coeffs, n, box, points):
    """B(x, T) at ``points`` (P, d), T = times[-1], by Cauchy's formula with u
    from its cube snapshots ``u_coeffs`` (n_times, d, *cube) at ``times`` (at
    least 4, uniform) and B0 from ``b0_coeffs`` (d, *cube); shape (P, d).
    The characteristics run backward by RK4, four steps per snapshot
    interval."""
    times = np.asarray(times, dtype=np.float64)
    P, d = points.shape
    stack = _gradient_coeffs(u_coeffs, n, box)

    def rhs(y, jac, s):
        """(u(y, s), grad u(y, s) J) with grad u[p, i, b] = d_b u_i."""
        i, w = _lagrange_weights(times, s)
        vals = evaluate(np.tensordot(w, stack[i : i + 4], axes=1), n, box, y)
        return vals[:d].T, vals[d:].T.reshape(P, d, d) @ jac

    y, jac = points.astype(np.float64), np.broadcast_to(np.eye(d), (P, d, d)).copy()
    steps = 4 * (times.size - 1)
    h = -times[-1] / steps
    for step in range(steps):
        s = times[-1] + step * h
        k1 = rhs(y, jac, s)
        k2 = rhs(y + 0.5 * h * k1[0], jac + 0.5 * h * k1[1], s + 0.5 * h)
        k3 = rhs(y + 0.5 * h * k2[0], jac + 0.5 * h * k2[1], s + 0.5 * h)
        k4 = rhs(y + h * k3[0], jac + h * k3[1], s + h)
        y = y + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        jac = jac + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    b_foot = evaluate(b0_coeffs, n, box, y).T
    return np.linalg.solve(jac, b_foot[..., None])[..., 0]
