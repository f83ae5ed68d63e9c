"""Forcing and stretching the direct way, as an independent cross-check of
the one-pass spectral assembly.

Every term is built from ``tensor_divergence``, which dealiases both
factors and the product on its own, and the forcing makes the physical ->
spectral -> physical round trip around the Leray projection.  Both return
series of physical ``Field`` snapshots.
"""

from lpmhd import TimeSeriesField, leray_project, tensor_divergence, to_physical, to_spectral


def forcing_series(u_series, b_series):
    """P div(B (x) B - u (x) u) snapshot by snapshot."""
    snaps = []
    for u, b in zip(u_series.snapshots, b_series.snapshots):
        raw = tensor_divergence(b, b) - tensor_divergence(u, u)
        snaps.append(to_physical(leray_project(to_spectral(raw))))
    return TimeSeriesField(u_series.times.copy(), snaps)


def stretching_series(u_series, b_series):
    """div(u (x) B) = (B.grad)u snapshot by snapshot."""
    snaps = [tensor_divergence(u, b) for u, b in zip(u_series.snapshots, b_series.snapshots)]
    return TimeSeriesField(u_series.times.copy(), snaps)
