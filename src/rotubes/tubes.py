"""Hotelling statistic, simultaneous confidence tubes and tube comparison.

The pointwise Mahalanobis statistic of the intrinsic residuals,
H_t = N xbar_t^T S_t^{-1} xbar_t, drives simultaneous inference: a curve
lies in the tube when its algebra displacement a from the tube center
satisfies N a^T S_t^{-1} a <= h at every t, with h the expected-Euler-
characteristic quantile of max_t H_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gkf, so3
from .curves import (CurveSample, RotationCurve, SpatioTemporalAction, TimeGrid,
                     _bracket, _require_same_grid, apply_action, residuals)
from .errors import NoConvergence, SingularCovariance

__all__ = [
    "ConfidenceTube",
    "OverlapReport",
    "TubeIngredients",
    "tube_ingredients",
    "build_tube",
    "tube_contains",
    "compare_tubes",
    "act_on_tube",
]

MIN_CURVES = 4           # smallest sample with an invertible 3x3 covariance
_COND_FLOOR = 1e-12      # min eigenvalue must exceed this times the max
_SYM_TOL = 1e-10
_OVERLAP_MARGIN = 1e-6


def _check_spd(S: np.ndarray, grid: TimeGrid) -> None:
    """Runs where S enters: tube_ingredients (a sample) and io.tube_from_dict (JSON)."""
    sym_err = np.abs(S - np.swapaxes(S, -1, -2)).max()
    if sym_err > _SYM_TOL:
        raise SingularCovariance(f"covariance asymmetric by {sym_err:.3e}")
    eig = np.linalg.eigvalsh(S)
    bad = (eig[..., 0] <= 0.0) | (eig[..., 0] <= _COND_FLOOR * eig[..., -1])
    if np.any(bad):
        k = int(np.argmax(bad))
        raise SingularCovariance(
            f"residual covariance singular at t = {grid.t[k]:.4f}",
            t=float(grid.t[k]), index=k)


@dataclass(frozen=True, eq=False)
class ConfidenceTube:
    """Center curve, per-time covariance and max-statistic quantile."""

    center: RotationCurve
    s: np.ndarray
    hquant: float
    alpha: float
    n: int

    def __post_init__(self):
        S = np.asarray(self.s, dtype=float)
        if S.shape != (len(self.grid), 3, 3):
            raise ValueError(f"S must have shape ({len(self.grid)}, 3, 3)")
        object.__setattr__(self, "s", S)
        if not self.n >= MIN_CURVES:
            raise ValueError(f"n must be at least {MIN_CURVES}, got {self.n}")
        if not (self.hquant > 0.0 and math.isfinite(self.hquant)):
            raise ValueError(f"quantile must be finite and positive, got {self.hquant}")
        if not (0.0 < self.alpha <= 0.5):
            raise ValueError(f"alpha must be in (0, 0.5], got {self.alpha}")

    @property
    def grid(self) -> TimeGrid:
        return self.center.grid


@dataclass(frozen=True, eq=False)
class OverlapReport:
    """Pointwise overlap decisions plus the maximal non-overlap intervals."""

    grid: TimeGrid
    overlap: np.ndarray
    loci: tuple[tuple[int, int], ...] = field(init=False)   # filled from `overlap`

    def __post_init__(self):
        ov = np.asarray(self.overlap, dtype=bool)
        if ov.shape != (len(self.grid),):
            raise ValueError("overlap must hold one boolean per grid point")
        object.__setattr__(self, "overlap", ov)
        object.__setattr__(self, "loci", _false_runs(ov))

    def loci_times(self) -> list[tuple[float, float]]:
        return [(float(self.grid.t[i]), float(self.grid.t[j])) for i, j in self.loci]


def _false_runs(flags: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Maximal index intervals [i, j] where flags is False."""
    edges = np.diff(np.concatenate(([0], ~flags, [0])).astype(np.int8))
    return tuple(zip(np.flatnonzero(edges == 1).tolist(),
                     (np.flatnonzero(edges == -1) - 1).tolist()))


def _hotelling(n: int, S: np.ndarray, a: np.ndarray) -> np.ndarray:
    """n a_t^T S_t^{-1} a_t per grid point: the statistic H_t and the membership form."""
    return n * np.einsum("ka,ka->k", a, np.linalg.solve(S, a[..., None])[..., 0])


@dataclass(frozen=True, eq=False)
class TubeIngredients:
    """Per-sample pieces of a tube: center (the mean curve), S, the LKC and, given a center, H."""

    center: RotationCurve
    s: np.ndarray
    l1: float
    n: int
    h: np.ndarray | None = None


def tube_ingredients(sample: CurveSample,
                     center: RotationCurve | None = None) -> TubeIngredients:
    """Everything a tube needs except the quantile; raises on singular S.

    S holds the uncentered second-moment matrices (1/(N-1)) sum_n x_n x_n^T
    of the residuals per t.  With a center curve the population residuals
    xbar and the Hotelling statistic H_t = N xbar_t^T S_t^{-1} xbar_t are
    filled in as well.
    """
    if sample.size < MIN_CURVES:
        raise ValueError(f"need at least {MIN_CURVES} curves, got {sample.size}")
    mean, x, xbar = residuals(sample, center)
    S = np.einsum("nka,nkb->kab", x, x) / (sample.size - 1)
    _check_spd(S, sample.grid)
    h = None if xbar is None else np.maximum(_hotelling(sample.size, S, xbar), 0.0)
    return TubeIngredients(center=mean, s=S, l1=gkf.lkc_estimate(x), n=sample.size, h=h)


def assemble_tube(ing: TubeIngredients, alpha: float) -> ConfidenceTube:
    h = gkf.solve_quantile(alpha, gkf.EcContext(ing.n, ing.l1))
    return ConfidenceTube(center=ing.center, s=ing.s, hquant=h, alpha=alpha, n=ing.n)


def build_tube(sample: CurveSample, alpha: float) -> ConfidenceTube:
    """Simultaneous (1 - alpha) confidence tube around the pointwise mean."""
    return assemble_tube(tube_ingredients(sample), alpha)


def tube_contains(tube: ConfidenceTube, curve: RotationCurve) -> tuple[np.ndarray, bool]:
    """Pointwise and overall membership of a curve in the tube (closed boundary)."""
    _require_same_grid(tube.grid, curve.grid, "tube and curve")
    rel = np.einsum("kij,kil->kjl", tube.center.values, curve.values)
    a = so3.log_so3(rel, validate=False)
    per_point = _hotelling(tube.n, tube.s, a) <= tube.hquant
    return per_point, bool(per_point.all())


def act_on_tube(tube: ConfidenceTube, act: SpatioTemporalAction,
                out_grid: TimeGrid | None = None) -> ConfidenceTube:
    """Tube of the acted sample, derived without re-estimation.

    The center transforms like any curve, the covariance is conjugated by the
    right rotation factor and read off at the warped times (linear
    interpolation between grid points), and the quantile is unchanged.
    """
    grid = tube.grid if out_grid is None else out_grid
    center = apply_action(tube.center, act, grid)
    k, u = _bracket(tube.grid.t, act.warp(grid.t))
    u = u[:, None, None]
    s_interp = (1.0 - u) * tube.s[k] + u * tube.s[k + 1]
    # Convex combinations of checked SPD matrices, conjugated by Q, stay SPD above the floor.
    s_acted = np.swapaxes(act.q, -1, -2) @ s_interp @ act.q
    return ConfidenceTube(center=center, s=s_acted, hquant=tube.hquant,
                          alpha=tube.alpha, n=tube.n)


# ---------------------------------------------------------------------------
# Tube overlap: constrained minimization in the algebra at one tube's center.

def _right_jacobian(u: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(u)
    U = so3.hat(u)
    U2 = U @ U
    if theta < 1e-6:
        return np.eye(3) - 0.5 * U + U2 / 6.0
    t2 = theta * theta
    return (np.eye(3) - (1.0 - np.cos(theta)) / t2 * U
            + (theta - np.sin(theta)) / (t2 * theta) * U2)


def _right_jacobian_inv(u: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(u)
    U = so3.hat(u)
    U2 = U @ U
    if theta < 1e-6:
        return np.eye(3) + 0.5 * U + U2 / 12.0
    sin = np.sin(theta)
    if abs(sin) < 1e-12:
        sin = 1e-12
    c = 1.0 / (theta * theta) - (1.0 + np.cos(theta)) / (2.0 * theta * sin)
    return np.eye(3) + 0.5 * U + c * U2


def _min_mahalanobis_to_other(D: np.ndarray, L: np.ndarray, B: np.ndarray,
                              w_edge: np.ndarray, t: float) -> float:
    """min over the unit ball |w| <= 1 of m(w)^T B m(w), m(w) = log(D exp(L w)).

    SLSQP under 1 - w^T w >= 0 from w = 0 and from w_edge, each value read at
    the solution rescaled into the ball; a start that ends unconverged above
    the threshold 1 raises NoConvergence.
    """
    # Imported here: at module level scipy.optimize adds ~0.25 s to `import rotubes`.
    from scipy.optimize import minimize

    def objective(w: np.ndarray) -> tuple[float, np.ndarray]:
        m = so3.log_so3(D @ so3.exp_so3(L @ w), validate=False)
        grad = 2.0 * (_right_jacobian_inv(m) @ _right_jacobian(L @ w) @ L).T @ (B @ m)
        return float(m @ B @ m), grad

    ball = {"type": "ineq", "fun": lambda w: 1.0 - w @ w, "jac": lambda w: -2.0 * w}
    best = np.inf
    for w0 in (np.zeros(3), w_edge):
        res = minimize(objective, w0, jac=True, method="SLSQP", constraints=[ball])
        best = min(best, objective(res.x / max(1.0, np.linalg.norm(res.x)))[0])
        if best <= 1.0:
            return best
        if not res.success:
            raise NoConvergence(f"overlap search did not converge at t = {t:.4f}: {res.message}")
    return best


def compare_tubes(a: ConfidenceTube, b: ConfidenceTube) -> OverlapReport:
    """Pointwise intersection test of two tubes on a shared grid.

    At each t, tube a's cross-section is the image u = L w of the unit ball,
    L = sqrt(h_a / n_a) chol(S_a), in the algebra at a's center; tube b's is
    pulled back through the exact group logarithm (no linearization), and the
    minimum of b's form over a's ellipsoid decides.  Array certificates
    settle most points: overlap if a's ellipsoid holds b's center, or a's
    center or a's boundary point toward b's center lies in b's tube;
    non-overlap if the centers lie further apart than the two largest
    semi-axes.  SLSQP decides the rest and raises NoConvergence rather than
    report an unconverged non-overlap.  Non-overlap needs the minimum to
    exceed b's threshold by a relative margin of 1e-6.
    """
    _require_same_grid(a.grid, b.grid, "tubes")
    D = np.swapaxes(b.center.values, -1, -2) @ a.center.values
    L = math.sqrt(a.hquant / a.n) * np.linalg.cholesky(a.s)
    B = (b.n / b.hquant) * np.linalg.inv(b.s)           # b's tube: m^T B m <= 1
    m0 = so3.log_so3(D, validate=False)                 # exp(-m0) = D^T: b's center
    w_center = np.linalg.solve(L, -m0[..., None])[..., 0]
    q = np.where(np.linalg.norm(w_center, axis=-1) <= 1.0, 0.0,
                 np.einsum("ka,kab,kb->k", m0, B, m0))
    # Triangle inequality: a common point is within a semi-axis of each center.
    reach = np.linalg.norm(L, 2, axis=(1, 2)) + np.sqrt(
        (1.0 + _OVERLAP_MARGIN) / np.linalg.eigvalsh(B)[:, 0])
    q[np.linalg.norm(m0, axis=-1) > reach] = np.inf
    todo = np.flatnonzero((q > 1.0) & np.isfinite(q))
    w_edge = w_center[todo] / np.linalg.norm(w_center[todo], axis=-1, keepdims=True)
    m = so3.log_so3(D[todo] @ so3.exp_so3(np.einsum("kab,kb->ka", L[todo], w_edge)),
                    validate=False)
    q[todo] = np.einsum("ka,kab,kb->k", m, B[todo], m)
    for k, w in zip(todo, w_edge):
        if q[k] > 1.0:
            q[k] = _min_mahalanobis_to_other(D[k], L[k], B[k], w, a.grid.t[k])
    return OverlapReport(grid=a.grid, overlap=q <= 1.0 + _OVERLAP_MARGIN)
