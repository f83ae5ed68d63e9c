"""Bony decomposition of pointwise products, and empirical checkers for the
product laws and the logarithmic interpolation inequality.

For fields on the lattice the decomposition

    uv = T_u v + T_v u + R(u, v),
    T_u v   = sum_j (S_{j-1} u)(Delta_j v),
    R(u, v) = sum_j (Delta_j u)(Delta~_j v),   Delta~_j = sum_{|j'-j|<=1} Delta_j'

is an algebraic identity, so the three parts reconstruct the dealiased
product up to roundoff.  Each paraproduct term is clipped to its analytic
spectral support (the annulus-plus-ball sum set 2^j * (1/12, 10/3)), which
removes only FFT roundoff and makes the support identities exact: a shell
projection Delta_i of a term with |i - j| >= 5 is bit-exact zero.

The ratio checkers never assert theoretical constants; they record the
measured lhs/rhs ratio so a corpus can be regression-tested for stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .littlewood_paley import (
    BesovSpec,
    FilterBank,
    TimeSeriesField,
    _running_norm,
    besov_norm,
    shell_lp_matrix,
)
from .spectral import Field, dealiased_product

__all__ = [
    "BonyParts",
    "EstimateReport",
    "paraproduct",
    "remainder",
    "bony_decompose",
    "product_law_ratio",
    "log_interpolation_ratio",
]


@dataclass
class EstimateReport:
    """One measured inequality: lhs, the rhs factors, and their ratio.

    ``ratio`` is lhs divided by the product of factors; a 0/0 case is
    reported as ratio 0 with ``degenerate`` set instead of NaN, keeping
    downstream CSV handling total.
    """

    variant: str
    indices: dict
    lhs: float
    factors: list
    ratio: float
    degenerate: bool = False
    seed: int | None = None


@dataclass
class BonyParts:
    """The three Bony pieces of a product uv."""

    t_u_v: Field
    t_v_u: Field
    r_u_v: Field

    def reconstruction(self) -> Field:
        return self.t_u_v + self.t_v_u + self.r_u_v


def _check_product_args(bank: FilterBank, u: Field, v: Field) -> None:
    if u.grid != bank.grid or v.grid != bank.grid:
        raise ValueError("fields and bank live on different grids")
    cu, cv = u.components, v.components
    if not (cu == cv or cu == 1 or cv == 1):
        raise ValueError(f"incompatible component counts {cu} and {cv}")


def paraproduct(bank: FilterBank, u: Field, v: Field) -> Field:
    """Low-high paraproduct T_u v = sum_j (S_{j-1} u)(Delta_j v).

    The sum runs over shells j_min+1 .. j_max; each term is dealiased and
    clipped to the sum-set annulus 2^j * (1/12, 10/3), outside which its
    exact spectrum vanishes.  Factors, terms and sum are held on the 2/3-rule
    cube (``grid.cube``).
    """
    _check_product_args(bank, u, v)
    grid = bank.grid
    u_hat = grid.fft(u.samples, dealiased=True)
    v_hat = grid.fft(v.samples, dealiased=True)
    c = max(u.components, v.components)
    acc = np.zeros((c,) + grid.cube_shape, dtype=np.complex128)
    rho = grid.cube_k.k_mag
    for j in range(bank.j_min + 1, bank.j_max + 1):
        low = grid.ifft(u_hat * bank.lowpass_multiplier(j - 1))
        high = grid.ifft(v_hat * bank.block_multiplier(j))
        support = (rho > 2.0**j / 12.0) & (rho < (10.0 / 3.0) * 2.0**j)
        acc += grid.fft(low * high, dealiased=True) * support
    return Field(grid, grid.ifft(acc))


def remainder(bank: FilterBank, u: Field, v: Field) -> Field:
    """Resonant part R(u, v) = sum_j (Delta_j u)(Delta~_j v), on the 2/3-rule cube.

    Terms are grouped per diagonal so the accumulation order is invariant
    under swapping u and v; with commutative floating addition this makes
    remainder(u, v) == remainder(v, u) bit-exact.
    """
    _check_product_args(bank, u, v)
    grid = bank.grid
    hats = (grid.fft(f.samples, dealiased=True) for f in (u, v))
    bu, bv = (grid.ifft(hat * bank.phi[:, None]) for hat in hats)
    c = max(u.components, v.components)
    acc = np.zeros((c,) + grid.cube_shape, dtype=np.complex128)
    for idx in range(bank.n_shells):
        acc += grid.fft(bu[idx] * bv[idx], dealiased=True)
        if idx + 1 < bank.n_shells:
            cross = bu[idx] * bv[idx + 1] + bu[idx + 1] * bv[idx]
            acc += grid.fft(cross, dealiased=True)
    return Field(grid, grid.ifft(acc))


def bony_decompose(bank: FilterBank, u: Field, v: Field) -> BonyParts:
    """All three Bony pieces; their sum reconstructs the dealiased product."""
    return BonyParts(
        t_u_v=paraproduct(bank, u, v),
        t_v_u=paraproduct(bank, v, u),
        r_u_v=remainder(bank, u, v),
    )


def _ratio_report(variant, indices, lhs, factors, seed=None) -> EstimateReport:
    """lhs over the product of the factor values; a zero product is degenerate."""
    rhs = math.prod(val for _, val in factors)
    degenerate = rhs == 0.0
    return EstimateReport(variant, indices, lhs, factors, 0.0 if degenerate else lhs / rhs,
                          degenerate, seed)


def product_law_ratio(
    bank: FilterBank,
    f: Field,
    g: Field,
    s1: float,
    s2: float,
    p: float,
    variant: str,
    seed: int | None = None,
) -> EstimateReport:
    """Measure one product estimate on a concrete pair of fields.

    variant selects the bilinear object and its index conditions:

    * "T":     T_g f  in B^{s1+s2-d/p}_{p,1};  needs s2 <= d/p.
    * "R":     R(f,g) in B^{s1+s2-d/p}_{p,1};  needs s1+s2 > d*max(0, 2/p-1).
    * "full":  fg     in B^{s1+s2-d/p}_{p,1};  needs s1, s2 <= d/p and
               s1+s2 > d*max(0, 2/p-1).
    * "mixed": fg     in B^{s1+s2-d/p}_{p,inf}; needs s1 <= d/p, s2 < d/p,
               s1+s2 >= d*max(0, 2/p-1); the g factor is measured in r = inf.

    Violated conditions raise, since the estimate is not claimed there.
    """
    d = bank.grid.d
    dp = d / p
    low = d * max(0.0, 2.0 / p - 1.0)
    sum_above = (s1 + s2 > low,
                 f"s1+s2 > d*max(0, 2/p-1): s1+s2={s1 + s2}, bound={low}")
    conditions = {
        "T": [(s2 <= dp, f"s2 <= d/p: s2={s2}, d/p={dp}")],
        "R": [sum_above],
        "full": [(s1 <= dp and s2 <= dp, f"s1, s2 <= d/p: s1={s1}, s2={s2}, d/p={dp}"),
                 sum_above],
        "mixed": [(s1 <= dp and s2 < dp, f"s1 <= d/p and s2 < d/p: s1={s1}, s2={s2}, d/p={dp}"),
                  (s1 + s2 >= low,
                   f"s1+s2 >= d*max(0, 2/p-1): s1+s2={s1 + s2}, bound={low}")],
    }
    if variant not in conditions:
        raise ValueError(f"unknown variant {variant!r}")
    for holds, condition in conditions[variant]:
        if not holds:
            raise ValueError(f"variant {variant} requires {condition}")

    if variant == "T":
        obj = paraproduct(bank, g, f)
    elif variant == "R":
        obj = remainder(bank, f, g)
    else:
        obj = dealiased_product(f, g)
    r = math.inf if variant == "mixed" else 1.0
    lhs = besov_norm(obj, BesovSpec(s1 + s2 - dp, p, r), bank)
    factors = [
        ("f_B{s1}_p1", besov_norm(f, BesovSpec(s1, p, 1.0), bank)),
        ("g_B{s2}_pinf" if variant == "mixed" else "g_B{s2}_p1",
         besov_norm(g, BesovSpec(s2, p, r), bank)),
    ]
    indices = {"s1": s1, "s2": s2, "p": p, "d": d}
    return _ratio_report(variant, indices, lhs, factors, seed)


def log_interpolation_ratio(
    series: TimeSeriesField,
    s: float,
    p: float,
    q: float,
    eps: float,
    bank: FilterBank,
    seed: int | None = None,
) -> EstimateReport:
    """Measure the logarithmic interpolation bound

        ||f||_{Lq(B^s_{p,1})} <= C * (||f||_{Lq(B^s_{p,inf})}/eps)
                                  * log(e + bridge / ||f||_{Lq(B^s_{p,inf})}),

    bridge = ||f||_{Lq(B^{s-eps}_{p,inf})} + ||f||_{Lq(B^{s+eps}_{p,inf})},
    all norms shell-first in time.  Requires 0 < eps <= 1; a zero series is
    reported degenerate.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    mat = shell_lp_matrix(series, p, bank)
    return _log_interpolation_from_matrix(mat, series.times, s, p, q, eps, bank, seed)


def _log_interpolation_from_matrix(
    mat: np.ndarray,
    times: np.ndarray,
    s: float,
    p: float,
    q: float,
    eps: float,
    bank: FilterBank,
    seed: int | None = None,
) -> EstimateReport:
    """``log_interpolation_ratio`` of the series whose shell matrix at p is mat."""
    lhs, denom, lo, hi = (
        float(_running_norm(mat, times, BesovSpec(s_j, p, r, q), bank)[-1])
        for s_j, r in ((s, 1.0), (s, math.inf), (s - eps, math.inf), (s + eps, math.inf))
    )
    if denom == 0.0:
        factors = [("sup_norm", 0.0), ("log_factor", 0.0)]
    else:
        log_factor = math.log(math.e + (lo + hi) / denom)
        factors = [("sup_norm_over_eps", denom / eps), ("log_factor", log_factor)]
    return _ratio_report("loginterp", {"s": s, "p": p, "q": q, "eps": eps}, lhs, factors, seed)
