"""
Exercising the heat and transport sub-solvers with their monitors
=================================================================

Runs one dissipative solve and one advective solve, then reads off the
a-priori estimate each solution is supposed to satisfy: a smoothing
ratio below one for the heat flow, and a minimal constant for the
exponential growth bound along a shear.
"""

import math

import numpy as np

from lpmhd import (
    Field,
    HeatProblem,
    TimeSeriesField,
    TransportProblem,
    build_filter_bank,
    heat_estimate_report,
    interior_field,
    lp_norm,
    make_grid,
    sample_rng,
    solve_heat,
    solve_transport,
    transport_estimate_report,
)

grid = make_grid(2, 64, 2.0 * np.pi)
bank = build_filter_bank(grid)
rng = sample_rng(7, 0)

# 1. Free heat flow from random band-limited data.  The single Fourier
# mode check below confirms the integrator is exact on eigenfunctions.
x1, x2 = grid.coords()
mode = Field(grid, np.cos(2.0 * x1 + x2)[None])
sol = solve_heat(HeatProblem(mode, None, 0.1, 1e-3))
exact = math.exp(-5.0 * 0.1)
got = sol.field(-1).samples[0, 0, 0] / mode.samples[0, 0, 0]
print("heat flow on a single mode (|k|^2 = 5, T = 0.1):")
print(f"  decay factor {got:.12f}, exact {exact:.12f}")

u0 = interior_field(grid, bank, rng)
problem = HeatProblem(u0, None, 0.1, 2e-3)
sol = solve_heat(problem)
rep = heat_estimate_report(sol, problem, 1.0, 1.0, 0.0, 2.0, 1.0, bank)
rhs = float(np.prod([f for _, f in rep.factors]))
print("\nsmoothing estimate for the free heat flow:")
print(f"  indices {rep.indices}")
print(f"  lhs {rep.lhs:.6f} = {rep.ratio:.4f} * rhs {rhs:.6f} "
      f"(ratio below one is the smoothing gain)")

# 2. Transport along a steady shear.  The solution is rearranged, not
# created or destroyed, so its L2 norm is conserved to solver accuracy.
T, dt = 0.25, 2e-3
shear = Field(grid, np.stack([np.sin(x2), np.zeros(grid.shape)]))
vel = TimeSeriesField.from_snapshots(np.array([0.0, T]), [shear, shear])
f0 = Field(grid, np.cos(x1 + x2)[None])
tproblem = TransportProblem(f0, vel, None, T, dt)
tsol = solve_transport(tproblem)
norms = [lp_norm(tsol.field(i), 2.0) for i in range(tsol.n_times)]
print("\ntransport by the shear v = (sin x2, 0):")
print(f"  |f(0)|_L2 = {norms[0]:.6f}, |f(T)|_L2 = {norms[-1]:.6f}, "
      f"drift {abs(norms[-1] - norms[0]):.3e}")

# 3. The growth monitor fits the smallest constant C such that the
# regularity norm stays below its exponential envelope at every step.
mon = transport_estimate_report(tsol, tproblem, 1.0, 2.0, 1.0, bank)
print("\ngrowth bound along the shear (s = 1, p = 2, r = 1):")
print(f"  accumulated gradient integral V(T) = {mon.V[-1]:.6f}")
print(f"  minimal constant C = {mon.minimal_c:.6f}")
ratios = mon.ratio_trace()
print(f"  envelope utilisation: max {ratios.max():.4f} at "
      f"t = {mon.times[np.argmax(ratios)]:.3f}")
