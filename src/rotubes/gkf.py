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

from .errors import (InvalidDof, NoConvergence, NonMonotoneBracket, NoRoot,
                     ZeroResidualColumn, _is_int, _is_real)

_BRACKET_TOL = 1e-12       # well below the 1e-8 contract; keeps roots reproducible
_SECANT_STEPS = 12         # at most; 6-10 pin a battery root to 1e-12 * h
_VALUE_TOL = 1e-8
_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi
_RHO3_SCALE = _TWO_PI ** -2.0


@dataclass(frozen=True)
class EcContext:
    """Inputs of the quantile equation: sample size N and interval LKC L1."""

    n: int
    l1: float

    def __post_init__(self):
        if not (_is_int(self.n) and self.n >= 3):
            raise InvalidDof(f"need an integer N >= 3, got N = {self.n!r}")
        if not (_is_real(self.l1) and self.l1 >= 0.0 and math.isfinite(self.l1)):
            raise ValueError(f"L1 must be finite and nonnegative, got {self.l1!r}")
        object.__setattr__(self, "l1", float(self.l1))


@functools.lru_cache(maxsize=64)
def _n_constants(n: int) -> tuple:
    """(2 pi)^-1.5 Gamma(n / 2) / Gamma((n - 1) / 2) / sqrt((n - 1) / 2), rounded left
    to right, and Student's t CDF, from scipy.special loaded at the first call."""
    from scipy.special import cython_special, gammaln
    gamma_ratio = math.exp(gammaln(n / 2.0) - gammaln((n - 1) / 2.0))
    return _TWO_PI ** -1.5 * gamma_ratio / math.sqrt((n - 1) / 2.0), cython_special.stdtr


def _ec_densities(t: float, n: int) -> tuple:
    """EC densities rho_0..rho_3 of a t-process with n - 1 dof, at t.

    rho_0 is the upper tail of Student's t (regularized incomplete beta, not
    quadrature); rho_1..rho_3 are closed forms sharing one power of 1 + t^2 / nu.
    """
    nu = n - 1
    base = (1.0 + t * t / nu) ** (1.0 - n / 2.0)
    rho2_scale, stdtr = _n_constants(n)
    return (stdtr(float(nu), -t),
            base / _TWO_PI,
            rho2_scale * t * base,
            _RHO3_SCALE * ((n - 2.0) / nu * t * t - 1.0) * base)


def lkc_estimate(x: np.ndarray) -> float:
    """Interval LKC from the normalized increments of residuals x, shape (N, K, 3).

    Each residual coordinate d gives a unit vector in R^N per time point;
    summed chord lengths of that path, averaged over the three coordinates,
    estimate the metric length of [0, 1] under the residual process.
    """
    if x.ndim != 3 or x.shape[2] != 3:
        raise ValueError(f"residuals must have shape (N, K, 3), got {x.shape}")
    norms = np.linalg.norm(x, axis=0)             # (K, 3)
    if (norms == 0.0).any():
        k, d = np.argwhere(norms == 0.0)[0]
        raise ZeroResidualColumn(
            f"residual coordinate {d} vanishes across the sample at grid index {k}")
    unit = x / norms                               # (N, K, 3)
    increments = np.linalg.norm(np.diff(unit, axis=1), axis=0)   # (K-1, 3)
    return float(increments.sum() / 3.0)


def expected_ec(h: float, ctx: EcContext) -> float:
    """Expected Euler characteristic of {t : H_t >= h}, a float, at a float h >= 0.

    Approximates P(max_t H_t > h); equals 1 at h = 0 and decreases to 0.
    """
    if not 0.0 <= h < math.inf:
        raise ValueError(f"h must be finite and nonnegative, got h = {h}")
    rho0, rho1, rho2, rho3 = _ec_densities(math.sqrt(h), ctx.n)
    return 2.0 * rho0 + _FOUR_PI * rho2 + ctx.l1 * (2.0 * rho1 + _FOUR_PI * rho3)


def _check_alpha(alpha) -> float:
    if not (_is_real(alpha) and 0.0 < alpha <= 0.5):
        raise ValueError(f"alpha must be in (0, 0.5], got {alpha!r}")
    return float(alpha)


def _doubt_interval(f, alpha: float, a: float, f_a: float, b: float, f_b: float) -> tuple:
    """The interval where a bisection step on [a, b] is in doubt: Illinois regula falsi
    on log f (nearly linear in h past the mode) narrows [a, b], keeping f(a) >= alpha >
    f(b), and 1e-12 * max(1, b) on either side covers the rounding wiggles of f."""
    def g(v: float) -> float:                   # log(v / alpha), -inf where v <= 0
        return math.log(v) - math.log(alpha) if v > 0.0 else -math.inf

    g_a, g_b, side = g(f_a), g(f_b), 0
    for _ in range(_SECANT_STEPS):
        x = a + (b - a) * (g_a / (g_a - g_b)) if g_a > g_b else a
        if not (a < x < b and b - a > _BRACKET_TOL * max(1.0, b)):
            break
        if (f_x := f(x)) >= alpha:              # Illinois: halve g at an end kept twice
            a, g_a, g_b, side = x, g(f_x), g_b * (0.5 if side > 0 else 1.0), 1
        else:
            b, g_b, g_a, side = x, g(f_x), g_a * (0.5 if side < 0 else 1.0), -1
    margin = _BRACKET_TOL * max(1.0, b)
    return a - margin, b + margin


def solve_quantile(alpha: float, ctx: EcContext) -> float:
    """Threshold h with expected_ec(h, ctx) = alpha, by guarded bisection.

    The lower end of the bracket is pushed past the mode region (largest
    scanned h with value >= 0.5); the upper end doubles from 100 until the
    value drops below alpha.  Once the bracket is narrower than 1e-8 * h
    the function must be strictly decreasing on it, otherwise
    NonMonotoneBracket is raised.  Bisection stops at a bracket 1e-12 wide
    or of adjacent floats; a midpoint there whose value misses alpha by
    more than 1e-8 raises NoConvergence.
    The loop mirrors tests/test_gkf.py::full_bisection but calls expected_ec only to
    check, to stop or where a step is in doubt; elsewhere f, decreasing, sets the side.
    """
    alpha = _check_alpha(alpha)

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

    a, b = _doubt_interval(f, alpha, lo, f_lo, hi, f_hi)
    checked = False
    while True:
        mid = 0.5 * (lo + hi)
        check = not checked and hi - lo < _VALUE_TOL * max(1.0, lo)
        adjacent = mid in (lo, hi)      # the bracket cannot contract any further
        stop = hi - lo < _BRACKET_TOL or adjacent
        f_mid = f(mid) if check or stop or a <= mid <= b else None
        if check:
            # Strict-decrease guard on the contracted bracket, at a width relative
            # to h so that it spans many floats: across a few, rounding ties and
            # wiggles in expected_ec would fail it on a decreasing function.
            f_lo = f(lo) if f_lo is None else f_lo
            f_hi = f(hi) if f_hi is None else f_hi
            if not (f_lo > f_mid > f_hi):
                raise NonMonotoneBracket(
                    f"expected_ec not strictly decreasing on [{lo}, {hi}]")
            checked = True
        if stop and abs(f_mid - alpha) <= _VALUE_TOL:
            return mid
        if adjacent:
            raise NoConvergence(f"expected_ec misses alpha = {alpha} by {f_mid - alpha:.3g} "
                                f"at h = {mid!r}, between adjacent floats")
        if (mid < a) if f_mid is None else (f_mid >= alpha):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
