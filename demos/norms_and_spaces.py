"""
Shell norms and space-time norms
================================

Measures how the shell-weighted norms scale with frequency and shows the
ordering between the two ways of combining time and shell summation.
"""

import numpy as np

from lpmhd import (
    BesovSpec,
    Field,
    build_filter_bank,
    besov_norm,
    chemin_lerner_norm,
    decaying_series,
    lq_besov_norm,
    make_grid,
    sample_rng,
)

grid = make_grid(2, 64, 2.0 * np.pi)
bank = build_filter_bank(grid)

# 1. A single oscillation at |k| = lam: the s-weighted norm scales like
# lam^s, because only the shell containing lam contributes.
x1, _ = grid.coords()
print("single-mode scaling of the shell norm:")
for lam in (1, 2, 4, 8):
    f = Field(grid, np.cos(float(lam) * x1)[None])
    n0 = besov_norm(f, BesovSpec(0.0, 2.0, 1.0), bank)
    n1 = besov_norm(f, BesovSpec(1.0, 2.0, 1.0), bank)
    print(f"  |k|={lam}: s=0 norm {n0:.6f}, s=1 norm {n1:.6f}, "
          f"ratio {n1 / n0:.3f}")

# 2. Summation index: the l^1 aggregation dominates l^2 dominates l^inf.
rng = sample_rng(0, 0)
series = decaying_series(grid, bank, rng, np.linspace(0.0, 0.1, 11))
f = series.sample_at(0.0)
norms = {r: besov_norm(f, BesovSpec(1.0, 2.0, r), bank) for r in (1.0, 2.0, np.inf)}
print(f"\nsummation ordering: r=1 {norms[1.0]:.6f} >= r=2 {norms[2.0]:.6f} "
      f">= r=inf {norms[np.inf]:.6f}")

# 3. Space-time norms: shell-first (time norm per shell, then sum) versus
# time-first (spatial norm per snapshot, then time norm).  For q <= r the
# shell-first value is the smaller one; the gap is the Minkowski defect.
spec = BesovSpec(1.0, 2.0, 2.0, 1.0)
tight = chemin_lerner_norm(series, spec, bank)
loose = lq_besov_norm(series, spec, bank)
print(f"\nheat-decay series, q=1, r=2:")
print(f"  shell-first (tight) {tight:.6f} <= time-first (loose) {loose:.6f}")

# 4. With q = inf and r = 1 the ordering flips.
spec_flip = BesovSpec(1.0, 2.0, 1.0, np.inf)
tight_f = chemin_lerner_norm(series, spec_flip, bank)
loose_f = lq_besov_norm(series, spec_flip, bank)
print(f"q=inf, r=1: shell-first {tight_f:.6f} >= time-first {loose_f:.6f}")
