"""Synthetic perturbation models and the coverage-rate experiment.

Three zero-mean, unit-variance error-process families drive the simulations:

  1. trigonometric: b1 sin(pi t / 2) + b2 cos(pi t / 2), smooth;
  2. normalized Gaussian-bump expansion with 10 coefficients, smooth;
  3. stationary Ornstein-Uhlenbeck (mean reversion 5, diffusion sqrt(10)),
     continuous but nowhere differentiable.

A variance modulation f_l (1, 4, or sin(4 pi t) + 1.5) scales each family so
that var = f_l(t)^2, and a mixing matrix correlates the three algebra
coordinates.  Curves are drawn as center(t) @ exp(a_t) with a_t the mixed,
sigma-scaled error vector.

All sampling is keyed off integer seeds through SeedSequence streams indexed
by (replication, curve, coordinate), so results do not depend on execution
order and are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import so3, tubes
from .curves import CurveSample, RotationCurve, TimeGrid
from .errors import SingularCovariance

__all__ = [
    "ErrorProcessSpec",
    "CoverageReport",
    "sample_gp_sample",
    "coverage_experiment",
    "mc_quantile_oracle",
]

MIXING_MATRICES = {
    1: np.eye(3),
    2: np.array([[1.0, 0.0, 0.0],
                 [0.5, 0.5, 0.0],
                 [1.0 / math.sqrt(3.0)] * 3]),
}

_OU_RATE = 5.0
_BUMP_CENTERS = np.arange(10) / 9.0
_BUMP_WIDTH = 0.2


def modulation(l: int, t: np.ndarray) -> np.ndarray:
    """Variance modulation f_l; the processes satisfy var = f_l(t)^2."""
    t = np.asarray(t, dtype=float)
    if l == 1:
        return np.ones_like(t)
    if l == 2:
        return np.full_like(t, 4.0)
    if l == 3:
        return np.sin(4.0 * np.pi * t) + 1.5
    raise ValueError(f"modulation index must be 1, 2 or 3, got {l}")


@dataclass(frozen=True)
class ErrorProcessSpec:
    """Selects family i, modulation l, mixing j and noise scale sigma."""

    i: int
    l: int
    j: int
    sigma: float

    def __post_init__(self):
        if self.i not in (1, 2, 3):
            raise ValueError(f"family must be 1, 2 or 3, got {self.i}")
        if self.l not in (1, 2, 3):
            raise ValueError(f"modulation must be 1, 2 or 3, got {self.l}")
        if self.j not in (1, 2):
            raise ValueError(f"mixing must be 1 or 2, got {self.j}")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    def label(self) -> str:
        return f"A({self.i},{self.l},{self.j},{self.sigma:g})"


@dataclass(frozen=True)
class CoverageReport:
    """Empirical simultaneous coverage of the center curve, per alpha."""

    spec: ErrorProcessSpec
    n: int
    reps: int
    alphas: tuple[float, ...]
    rates: tuple[float, ...]
    mc_stderr: tuple[float, ...]
    n_singular: int = 0
    seed: int | None = None


def _error_paths(i: int, l: int, grid: TimeGrid, rng,
                 lead_shape: tuple[int, ...] = ()) -> np.ndarray:
    """Stacked error paths of family i, modulation l, shape lead_shape + (K,).

    rng is a Generator drawing all paths in one call (step-major for the OU
    family), or one Generator per path in C order over lead_shape.  A vector
    draw yields the same numbers as the equivalent run of scalar draws.
    """
    t = grid.t
    k = t.size
    width = (2, 10, k)[i - 1]
    if isinstance(rng, np.random.Generator):
        if i == 3:
            z = np.moveaxis(rng.standard_normal((k,) + lead_shape), 0, -1)
        else:
            z = rng.standard_normal(lead_shape + (width,))
        rows = z
    else:
        z = np.array([g.standard_normal(width) for g in rng]).reshape(lead_shape + (width,))
        # One vector-matrix product per path, so that a path does not depend on
        # how many are stacked with it: a stacked product rounds differently.
        rows = z[..., None, :]
    if i == 1:
        basis = np.stack([np.sin(0.5 * np.pi * t), np.cos(0.5 * np.pi * t)])
        raw = (rows @ basis).reshape(lead_shape + (k,))
    elif i == 2:
        bumps = np.exp(-((t[:, None] - _BUMP_CENTERS[None, :]) ** 2) / _BUMP_WIDTH)
        scale = np.sqrt(np.sum(bumps * bumps, axis=1))
        raw = (rows @ bumps.T).reshape(lead_shape + (k,)) / scale
    else:
        # Exact AR(1) transition of the stationary OU process; unit variance.
        decay = np.exp(-_OU_RATE * np.diff(t))
        innov = np.moveaxis(np.sqrt(1.0 - decay ** 2) * z[..., 1:], -1, 0)
        walk = np.empty((k,) + z.shape[:-1])
        walk[0] = z[..., 0]
        for step in range(k - 1):
            walk[step + 1] = decay[step] * walk[step] + innov[step]
        raw = np.moveaxis(walk, 0, -1)
    return raw * modulation(l, t)


def _generating_paths(spec: ErrorProcessSpec, grid: TimeGrid, streams) -> np.ndarray:
    """Paths a_t, shape (N, K, 3): curve m mixes the sigma-scaled error paths
    drawn from streams[3m:3m + 3], one per coordinate."""
    eps = _error_paths(spec.i, spec.l, grid, streams, (len(streams) // 3, 3))
    return np.swapaxes(MIXING_MATRICES[spec.j] @ (spec.sigma * eps), -1, -2)


def sample_gp_sample(spec: ErrorProcessSpec, center: RotationCurve, grid: TimeGrid,
                     n: int, seed) -> tuple[CurveSample, np.ndarray]:
    """N model curves plus their generating paths, shape (N, K, 3).

    seed is an integer or a key tuple; curve n draws from the substream
    keyed (seed..., n).
    """
    key = (seed,) if isinstance(seed, int) else tuple(seed)
    # spawn_key=(d,) builds SeedSequence(key + (m,)).spawn(3)[d] without the parent.
    paths = _generating_paths(spec, grid, [
        np.random.default_rng(np.random.SeedSequence(key + (m,), spawn_key=(d,)))
        for m in range(n) for d in range(3)])
    values = center.values @ so3.exp_so3(paths)
    return CurveSample(grid, values), paths


def coverage_experiment(spec: ErrorProcessSpec, n: int, reps: int,
                        alphas: list[float], grid: TimeGrid | None = None,
                        seed: int | tuple = 0) -> CoverageReport:
    """Simultaneous coverage of the identity center over `reps` replications.

    Each replication simulates n curves around the identity, builds the
    confidence tube for every alpha and records whether the center lies
    inside at all grid points.  Replications hitting a singular residual
    covariance are tolerated as non-covering up to 0.1 percent of reps,
    beyond that the run aborts.
    """
    if n < tubes.MIN_CURVES:
        raise ValueError(f"need n >= {tubes.MIN_CURVES} for an invertible covariance, got {n}")
    if reps < 1:
        raise ValueError("need at least one replication")
    grid = grid if grid is not None else TimeGrid.uniform(101)
    alphas = [float(a) for a in alphas]
    center = RotationCurve.identity(grid)
    key = (seed,) if isinstance(seed, int) else tuple(seed)

    covered = np.zeros((reps, len(alphas)), dtype=bool)
    n_singular = 0
    for rep in range(reps):
        sample, _ = sample_gp_sample(spec, center, grid, n, key + (rep,))
        try:
            ing = tubes.tube_ingredients(sample)
            for a_idx, alpha in enumerate(alphas):
                tube = tubes.assemble_tube(ing, alpha)
                _, inside = tubes.tube_contains(tube, center)
                covered[rep, a_idx] = inside
        except SingularCovariance:
            n_singular += 1

    if n_singular > 0.001 * reps:
        raise SingularCovariance(
            f"{n_singular} of {reps} replications hit a singular covariance")

    rates = covered.mean(axis=0)
    stderr = np.sqrt(rates * (1.0 - rates) / reps)
    return CoverageReport(spec=spec, n=n, reps=reps, alphas=tuple(alphas),
                          rates=tuple(float(r) for r in rates),
                          mc_stderr=tuple(float(s) for s in stderr),
                          n_singular=n_singular, seed=seed if isinstance(seed, int) else None)


# Replications per batch of mc_quantile_oracle, part of its seed contract: the
# batches draw from one generator in turn, so another size reorders the draws.
_ORACLE_BATCH = 2000


def mc_quantile_oracle(spec: ErrorProcessSpec, n: int, reps: int, alpha: float,
                       grid: TimeGrid | None = None, seed: int = 0) -> float:
    """Empirical (1 - alpha)-quantile of max_t H_t from generating residuals.

    Works directly on the algebra-valued paths (no exponential map), with the
    mean-centered covariance of the generating process, so it is an
    independent reference for the expected-Euler-characteristic quantile.
    """
    grid = grid if grid is not None else TimeGrid.uniform(101)
    rng = np.random.default_rng(seed)
    maxima = np.empty(reps)
    for done in range(0, reps, _ORACLE_BATCH):
        m = min(_ORACLE_BATCH, reps - done)
        eps = np.stack([_error_paths(spec.i, spec.l, grid, rng, (m, n))
                        for _ in range(3)], axis=-1)          # (m, n, K, 3)
        a = (spec.sigma * eps) @ MIXING_MATRICES[spec.j].T
        abar = a.mean(axis=1)                                  # (m, K, 3)
        dev = a - abar[:, None]
        cov = np.einsum("mnka,mnkb->mkab", dev, dev) / (n - 1)
        h = n * np.einsum("mka,mka->mk", abar, np.linalg.solve(cov, abar[..., None])[..., 0])
        maxima[done:done + m] = h.max(axis=1)
    return float(np.quantile(maxima, 1.0 - alpha))
