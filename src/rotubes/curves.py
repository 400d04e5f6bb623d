"""Discretized rotation-valued curves and their sample statistics.

Curves live on a shared time grid over [0, 1].  Sample inference rests on
pointwise extrinsic means (nearest-rotation projection of the entrywise
average) and on intrinsic residuals, the algebra coordinates of
mean(t)^T curve(t).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import so3
from .errors import GridMismatch

__all__ = [
    "TimeGrid",
    "RotationCurve",
    "CurveSample",
    "SpatioTemporalAction",
    "pointwise_extrinsic_mean",
    "residuals",
    "apply_action",
    "curve_length",
    "length_loss",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time points with t[0] = 0 and t[-1] = 1."""

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float).reshape(-1)
        if t.size < 2:
            raise ValueError("grid needs at least 2 points")
        if not (t[0] == 0.0 and t[-1] == 1.0):
            raise ValueError("grid must start at 0 and end at 1")
        if not np.all(np.diff(t) > 0):          # NaN fails too
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "t", _freeze(t))

    @classmethod
    def uniform(cls, size: int) -> "TimeGrid":
        return cls(np.linspace(0.0, 1.0, size))

    def __len__(self) -> int:
        return self.t.size

    def __eq__(self, other) -> bool:
        return isinstance(other, TimeGrid) and np.array_equal(self.t, other.t)

    def __hash__(self):
        return hash((self.t.size, float(self.t[1])))


def _require_same_grid(a: TimeGrid, b: TimeGrid, what: str) -> None:
    if a != b:
        raise GridMismatch(f"{what} must share the time grid")


@dataclass(frozen=True, eq=False)
class RotationCurve:
    """A curve t -> R(t) sampled on a grid; values shaped (K, 3, 3)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (len(self.grid), 3, 3):
            raise ValueError(f"values must have shape ({len(self.grid)}, 3, 3), got {v.shape}")
        so3.check_rotation(v)
        object.__setattr__(self, "values", _freeze(v))

    @classmethod
    def identity(cls, grid: TimeGrid) -> "RotationCurve":
        return cls(grid, np.broadcast_to(np.eye(3), (len(grid), 3, 3)).copy())


@dataclass(frozen=True, eq=False)
class CurveSample:
    """N independent rotation curves on one shared grid; values (N, K, 3, 3)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 4 or v.shape[1:] != (len(self.grid), 3, 3):
            raise ValueError(f"values must have shape (N, {len(self.grid)}, 3, 3), got {v.shape}")
        so3.check_rotation(v)
        object.__setattr__(self, "values", _freeze(v))

    @property
    def size(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class SpatioTemporalAction:
    """Group element (P, Q, warp) acting by curve -> P curve(warp(t)) Q.

    The warp is a strictly increasing piecewise-linear map of [0, 1] given by
    its knots; knots (u, v) require u and v strictly increasing with
    warp(0) = 0 and warp(1) = 1.
    """

    p: np.ndarray
    q: np.ndarray
    warp_knots: np.ndarray = field(default_factory=lambda: np.array([[0.0, 0.0], [1.0, 1.0]]))

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        q = np.asarray(self.q, dtype=float)
        so3.check_rotation(p)
        so3.check_rotation(q)
        knots = np.asarray(self.warp_knots, dtype=float)
        if knots.ndim != 2 or knots.shape[1] != 2 or knots.shape[0] < 2:
            raise ValueError("warp_knots must be an (n >= 2, 2) array")
        if not np.all(np.diff(knots, axis=0) > 0):         # NaN fails too
            raise ValueError("warp knots must be strictly increasing in both coordinates")
        if not (knots[0, 0] == 0.0 and knots[0, 1] == 0.0
                and knots[-1, 0] == 1.0 and knots[-1, 1] == 1.0):
            raise ValueError("warp must fix the endpoints 0 and 1")
        object.__setattr__(self, "p", _freeze(p))
        object.__setattr__(self, "q", _freeze(q))
        object.__setattr__(self, "warp_knots", _freeze(knots))

    @classmethod
    def identity(cls) -> "SpatioTemporalAction":
        return cls(np.eye(3), np.eye(3))

    def warp(self, t: np.ndarray) -> np.ndarray:
        return np.interp(t, self.warp_knots[:, 0], self.warp_knots[:, 1])


def pointwise_extrinsic_mean(sample: CurveSample) -> RotationCurve:
    """Projection of the entrywise mean onto SO(3), per grid point.

    Raises DegenerateMean where the nearest rotation is non-unique; for
    samples from a perturbation model this is a vanishing-probability event.
    """
    mean = sample.values.mean(axis=0)
    return RotationCurve(sample.grid, so3.project_to_so3(mean))


def residuals(sample: CurveSample, center: RotationCurve | None = None) -> tuple:
    """The pointwise extrinsic mean and the intrinsic residuals around it.

    Returns (mean, x, xbar): x[n, k] holds the algebra coordinates of
    mean(t_k)^T curve_n(t_k), shape (N, K, 3); xbar[k] those of
    mean(t_k)^T center(t_k), shape (K, 3), or None without a center.
    """
    pem = pointwise_extrinsic_mean(sample)
    rel = np.einsum("kij,nkil->nkjl", pem.values, sample.values)
    xbar = None
    if center is not None:
        _require_same_grid(sample.grid, center.grid, "sample and center")
        rel0 = np.einsum("kij,kil->kjl", pem.values, center.values)
        xbar = so3.log_so3(rel0, validate=False)
    return pem, so3.log_so3(rel, validate=False), xbar


def _bracket(t: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grid interval k holding each s, and u with s = (1 - u) t[k] + u t[k + 1]."""
    k = np.clip(np.searchsorted(t, s, side="right") - 1, 0, len(t) - 2)
    return k, (s - t[k]) / (t[k + 1] - t[k])


def _geodesic(R0: np.ndarray, R1: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Rotations the fraction u along the geodesics from stacked R0 to R1; u has
    the trailing stack shape of R0 or all of it."""
    step = so3.log_so3(np.swapaxes(R0, -1, -2) @ R1, validate=False)
    out = R0 @ so3.exp_so3(u[..., None] * step)
    # Exact values at grid points, including the right endpoint.
    out[..., u == 0.0, :, :] = R0[..., u == 0.0, :, :]
    out[..., u == 1.0, :, :] = R1[..., u == 1.0, :, :]
    return out


def apply_action(curves: RotationCurve | CurveSample, act: SpatioTemporalAction,
                 out_grid: TimeGrid | None = None) -> RotationCurve | CurveSample:
    """Curve t -> P curve(warp(t)) Q on out_grid (default: own grid); a CurveSample
    is acted on curve by curve, in one stacked interpolation, and stays a sample."""
    grid = curves.grid if out_grid is None else out_grid
    k, u = _bracket(curves.grid.t, act.warp(grid.t))
    vals = _geodesic(curves.values[..., k, :, :], curves.values[..., k + 1, :, :], u)
    return type(curves)(grid, act.p @ vals @ act.q)


def _chord_sum(values: np.ndarray) -> float:
    """Sum of the geodesic distances between consecutive rotations of a (K, 3, 3) stack."""
    steps = so3.log_so3(np.swapaxes(values[:-1], -1, -2) @ values[1:], validate=False)
    return float(np.sum(np.linalg.norm(steps, axis=-1)))


def curve_length(curve: RotationCurve) -> float:
    """First-order quadrature of the bi-invariant length: sum of chord distances."""
    return _chord_sum(curve.values)


def length_loss(g: RotationCurve, h: RotationCurve) -> tuple[float, float, float]:
    """Intrinsic length loss (delta, delta1, delta2) between two curves.

    delta1 is the length of t -> g(t) h(t)^T, delta2 that of t -> g(t)^T h(t),
    delta their mean.
    """
    _require_same_grid(g.grid, h.grid, "loss arguments")
    d1 = _chord_sum(np.einsum("kij,klj->kil", g.values, h.values))    # g h^T
    d2 = _chord_sum(np.einsum("kji,kjl->kil", g.values, h.values))    # g^T h
    return 0.5 * (d1 + d2), d1, d2
