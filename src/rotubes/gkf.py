"""Expected-Euler-characteristic machinery for the max-Hotelling quantile.

The tail probability P(max_t H_t > h) of the Hotelling process of a smooth
Gaussian residual field over [0, 1] is approximated by the expected Euler
characteristic of its excursion set.  For the three-dimensional algebra
this expands into Student-t EC densities with N - 1 degrees of freedom,
weighted by the intrinsic volumes of the 2-sphere (2 and 4*pi) and the two
Lipschitz-Killing curvatures of the interval, L0 = 1 and L1.

The combination implemented in expected_ec is the fully additive one,

    2 rho0(sqrt(h)) + 4 pi rho2(sqrt(h)) + L1 (2 rho1(sqrt(h)) + 4 pi rho3(sqrt(h))),

which evaluates to exactly 1 at h = 0 (the excursion set is the whole
interval) and matches Monte Carlo quantiles of the max-Hotelling statistic;
see tests/test_acceptance.py for the cross-check that fixed this choice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import (InvalidDof, NoConvergence, NonMonotoneBracket, NoRoot,
                     ZeroResidualColumn)

__all__ = ["EcContext", "lkc_estimate", "expected_ec", "solve_quantile"]

_BRACKET_TOL = 1e-12       # well below the 1e-8 contract; keeps roots reproducible
_VALUE_TOL = 1e-8


@dataclass(frozen=True)
class EcContext:
    """Inputs of the quantile equation: sample size N and interval LKC L1."""

    n: int
    l1: float

    def __post_init__(self):
        if self.n < 3:
            raise InvalidDof(f"need N >= 3, got N = {self.n}")
        if not (self.l1 >= 0.0 and math.isfinite(self.l1)):
            raise ValueError(f"L1 must be finite and nonnegative, got {self.l1}")


@functools.lru_cache(maxsize=64)
def _gamma_ratio(n: int) -> float:
    """Gamma(n / 2) / Gamma((n - 1) / 2)."""
    return math.exp(special.gammaln(n / 2.0) - special.gammaln((n - 1) / 2.0))


def _ec_densities(t: np.ndarray, n: int) -> tuple:
    """EC densities rho_0..rho_3 of a t-process with n - 1 dof, at t.

    rho_0 is the upper tail of Student's t (regularized incomplete beta, not
    quadrature); rho_1..rho_3 are closed forms sharing one power of 1 + t^2 / nu.
    """
    nu = n - 1
    base = (1.0 + t * t / nu) ** (1.0 - n / 2.0)
    return (special.stdtr(nu, -t),
            base / (2.0 * np.pi),
            (2.0 * np.pi) ** -1.5 * _gamma_ratio(n) / math.sqrt(nu / 2.0) * t * base,
            (2.0 * np.pi) ** -2.0 * ((n - 2.0) / nu * t * t - 1.0) * base)


def lkc_estimate(x: np.ndarray) -> float:
    """Interval LKC from the normalized increments of residuals x, shape (N, K, 3).

    Each residual coordinate d gives a unit vector in R^N per time point;
    summed chord lengths of that path, averaged over the three coordinates,
    estimate the metric length of [0, 1] under the residual process.
    """
    if x.ndim != 3 or x.shape[2] != 3:
        raise ValueError(f"residuals must have shape (N, K, 3), got {x.shape}")
    norms = np.linalg.norm(x, axis=0)             # (K, 3)
    if np.any(norms == 0.0):
        k, d = np.argwhere(norms == 0.0)[0]
        raise ZeroResidualColumn(
            f"residual coordinate {d} vanishes across the sample at grid index {k}")
    unit = x / norms                               # (N, K, 3)
    increments = np.linalg.norm(np.diff(unit, axis=1), axis=0)   # (K-1, 3)
    return float(increments.sum() / 3.0)


def expected_ec(h, ctx: EcContext):
    """Expected Euler characteristic of the excursion set {t : H_t >= h}.

    Approximates P(max_t H_t > h); equals 1 at h = 0 and decreases to 0.
    """
    rho0, rho1, rho2, rho3 = _ec_densities(np.sqrt(np.asarray(h, dtype=float)), ctx.n)
    value = 2.0 * rho0 + 4.0 * np.pi * rho2 + ctx.l1 * (2.0 * rho1 + 4.0 * np.pi * rho3)
    return value if value.ndim else float(value)


def solve_quantile(alpha: float, ctx: EcContext) -> float:
    """Threshold h with expected_ec(h, ctx) = alpha, by guarded bisection.

    The lower end of the bracket is pushed past the mode region (largest
    scanned h with value >= 0.5); the upper end doubles from 100 until the
    value drops below alpha.  Once the bracket is narrower than 1e-8 * h
    the function must be strictly decreasing on it, otherwise
    NonMonotoneBracket is raised.  Bisection stops at a bracket 1e-12 wide
    or of adjacent floats; a midpoint there whose value misses alpha by
    more than 1e-8 raises NoConvergence.
    """
    if not (0.0 < alpha <= 0.5):
        raise ValueError(f"alpha must be in (0, 0.5], got {alpha}")

    def f(h: float) -> float:
        return expected_ec(h, ctx)

    lo, f_lo = 0.0, None
    h = 1.0
    while h <= 100.0 and (f_h := f(h)) >= 0.5:
        lo, f_lo = h, f_h
        h *= 2.0
    if f_lo is None:
        f_lo = f(lo)
    hi = 100.0
    while (f_hi := f(hi)) >= alpha:
        hi *= 2.0
        if hi > 1e15:
            limit = f"; at 3 dof its limit is 2 L1/pi = {2 * ctx.l1 / math.pi:.6g}"
            raise NoRoot(f"expected_ec never falls below alpha = {alpha} for N = {ctx.n}, "
                         f"L1 = {ctx.l1:.6g}" + (limit if ctx.n == 4 else ""))

    checked = False
    while True:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        width = hi - lo
        if width < _VALUE_TOL * max(1.0, lo) and not checked:
            # Strict-decrease guard on the contracted bracket, at a width relative
            # to h so that it spans many floats: across a few, rounding ties and
            # wiggles in expected_ec would fail it on a decreasing function.
            if not (f_lo > f_mid > f_hi):
                raise NonMonotoneBracket(
                    f"expected_ec not strictly decreasing on [{lo}, {hi}]")
            checked = True
        adjacent = mid in (lo, hi)      # the bracket cannot contract any further
        if (width < _BRACKET_TOL or adjacent) and abs(f_mid - alpha) <= _VALUE_TOL:
            return mid
        if adjacent:
            raise NoConvergence(f"expected_ec misses alpha = {alpha} by {f_mid - alpha:.3g} "
                                f"at h = {mid!r}, between adjacent floats")
        if f_mid >= alpha:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
