"""Numerically stable operations on SO(3) and its Lie algebra so(3).

Vectors in R^3 are identified with skew matrices through the hat map.
All functions accept stacked inputs: shapes (..., 3) for algebra vectors and
(..., 3, 3) for matrices, operating on the trailing axes.  The logarithm
treats every matrix of a stack at once, the ones near angle pi included:
there the axis comes from the symmetric part, and on the cut locus itself,
where both signs give the same rotation, a fixed sign convention picks one.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateMean, InvalidRotation

ROTATION_TOL = 1e-9
_SMALL_ANGLE = 1e-6
_NEAR_PI = 1e-4
_AXIS_SIGN_TOL = 1e-12


def hat(a: np.ndarray) -> np.ndarray:
    """Map a 3-vector to the corresponding skew-symmetric matrix.

    hat((a1,a2,a3)) = [[0, -a3, a2], [a3, 0, -a1], [-a2, a1, 0]].
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-1] != 3:
        raise ValueError(f"expected trailing dimension 3, got shape {a.shape}")
    A = np.zeros(a.shape[:-1] + (3, 3))
    A[..., 0, 1] = -a[..., 2]
    A[..., 0, 2] = a[..., 1]
    A[..., 1, 0] = a[..., 2]
    A[..., 1, 2] = -a[..., 0]
    A[..., 2, 0] = -a[..., 1]
    A[..., 2, 1] = a[..., 0]
    return A


def exp_so3(a: np.ndarray) -> np.ndarray:
    """Rotation matrix exp(hat(a)) via the Rodriguez formula.

    Below ||a|| = 1e-6 the sinc and (1-cos)/theta^2 factors use 4th-order
    Taylor expansions to avoid cancellation.
    """
    a = np.asarray(a, dtype=float)
    theta2 = np.sum(a * a, axis=-1)
    theta = np.sqrt(theta2)
    small = theta < _SMALL_ANGLE

    # Guard the divisions; the small branch overwrites the guarded values.
    safe2 = np.where(small, 1.0, theta2)
    c1 = np.where(small, 1.0 - theta2 / 6.0 + theta2 * theta2 / 120.0,
                  np.sin(theta) / np.sqrt(safe2))
    c2 = np.where(small, 0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0,
                  (1.0 - np.cos(theta)) / safe2)

    A = hat(a)
    A2 = A @ A
    return np.eye(3) + c1[..., None, None] * A + c2[..., None, None] * A2


def _check_shape_33(A: np.ndarray) -> None:
    if A.shape[-2:] != (3, 3):
        raise ValueError(f"expected trailing shape (3, 3), got {A.shape}")


def _rotation_test(R: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per stacked matrix: whether R^T R = I and det(R) = 1 hold within
    ROTATION_TOL, the Gram error max|R^T R - I|, and det(R).

    Both errors come from the columns c0, c1, c2: the Gram error from the six
    unique dot products c_i . c_j, the determinant as the triple product
    c0 . (c1 x c2).  NaN and inf entries fail the test.
    """
    c0, c1, c2 = np.moveaxis(R, (-2, -1), (1, 0))     # c_i[k] = R[..., k, i]

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    with np.errstate(over="ignore", invalid="ignore"):      # inf and NaN fail the <= below
        gram_err = np.abs([dot(c0, c0) - 1.0, dot(c1, c1) - 1.0, dot(c2, c2) - 1.0,
                           dot(c0, c1), dot(c0, c2), dot(c1, c2)]).max(axis=0)
        det = dot(c0, (c1[1] * c2[2] - c1[2] * c2[1], c1[2] * c2[0] - c1[0] * c2[2],
                       c1[0] * c2[1] - c1[1] * c2[0]))
    ok = (gram_err <= ROTATION_TOL) & (np.abs(det - 1.0) <= ROTATION_TOL)
    return ok, gram_err, det


def is_rotation(R: np.ndarray) -> np.ndarray:
    """Elementwise check of R^T R = I and det(R) = 1 within ROTATION_TOL."""
    R = np.asarray(R, dtype=float)
    _check_shape_33(R)
    return _rotation_test(R)[0]


def check_rotation(R: np.ndarray) -> None:
    """Raise InvalidRotation unless every stacked matrix passes is_rotation."""
    ok = is_rotation(R)
    if not np.all(ok):
        raise InvalidRotation(f"{np.size(ok) - np.count_nonzero(ok)} matrix(es) violate "
                              f"rotation invariants (tol {ROTATION_TOL:.1e})")


def log_so3(R: np.ndarray, validate: bool = True) -> np.ndarray:
    """Axis-angle vector a with exp_so3(a) = R and ||a|| in [0, pi].

    The rotation angle comes from atan2 of the skew and trace parts, which is
    stable over the whole range.  Near angle pi the axis is recovered from the
    symmetric part of R; exactly at pi (skew part below 1e-12), where both
    signs give the same rotation, the axis with positive first nonzero
    component is returned.
    """
    R = np.asarray(R, dtype=float)
    if validate:
        check_rotation(R)

    S = 0.5 * (R - np.swapaxes(R, -1, -2))
    w = np.stack([S[..., 2, 1], S[..., 0, 2], S[..., 1, 0]], axis=-1)     # sin(theta) * axis
    s = np.linalg.norm(w, axis=-1)
    c = 0.5 * (np.trace(R, axis1=-2, axis2=-1) - 1.0)
    theta = np.arctan2(s, c)

    small = theta < _SMALL_ANGLE
    near_pi = (np.pi - theta) < _NEAR_PI

    # Generic branch: a = theta * w / ||w||.
    safe_s = np.where(small | near_pi, 1.0, s)
    out = w * (theta / safe_s)[..., None]

    # Small angles: theta/sin(theta) = 1 + theta^2/6 + 7 theta^4/360 + ...
    t2 = theta * theta
    scale_small = 1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0
    out = np.where(small[..., None], w * scale_small[..., None], out)

    if np.any(near_pi):
        out[near_pi] = _log_near_pi(R[near_pi], w[near_pi], theta[near_pi])
    return out


def _row_norms(v: np.ndarray) -> np.ndarray:
    # One dot product per row: rounds as np.linalg.norm does on a single vector.
    return np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0, 0]


def _log_near_pi(R: np.ndarray, w: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Axis extraction from the symmetric part, stable as theta -> pi.

    R is (m, 3, 3), w (m, 3) and theta (m,); returns the (m, 3) logarithms.
    """
    rows = np.arange(len(R))
    c = np.cos(theta)[:, None, None]
    M = (0.5 * (R + np.swapaxes(R, -1, -2)) - c * np.eye(3)) / (1.0 - c)   # axis outer product
    i = np.argmax(np.diagonal(M, axis1=-2, axis2=-1), axis=-1)
    pivot = np.sqrt(np.maximum(M[rows, i, i], 0.0))
    v = M[rows, i] / pivot[:, None]
    v[rows, i] = pivot
    v /= _row_norms(v)[:, None]

    # The sign comes from the skew part while it is resolvable.  On the cut
    # locus the axis whose first nonzero component is positive is taken.
    first = v[rows, np.argmax(np.abs(v) > 1e-8, axis=-1)]
    flip = np.where(_row_norms(w) > _AXIS_SIGN_TOL,
                    (v[:, None, :] @ w[:, :, None])[:, 0, 0] < 0.0, first < 0.0)
    v[flip] = -v[flip]
    return theta[:, None] * v


def project_to_so3(M: np.ndarray) -> np.ndarray:
    """Rotation nearest to M in Frobenius norm, via SVD with sign correction.

    Raises DegenerateMean when the projection is non-unique, i.e. the two
    smallest singular values coincide within ROTATION_TOL while det(U V^T) < 0.
    """
    M = np.asarray(M, dtype=float)
    _check_shape_33(M)
    U, sv, Vt = np.linalg.svd(M)
    d = np.linalg.det(U @ Vt)
    gap = sv[..., 1] - sv[..., 2]
    bad = (d < 0.0) & (gap <= ROTATION_TOL)
    if np.any(bad):
        raise DegenerateMean(
            f"{int(np.count_nonzero(bad))} matrix(es) have a non-unique nearest rotation")
    D = np.ones(M.shape[:-2] + (3,))
    D[..., 2] = d
    return (U * D[..., None, :]) @ Vt


def geodesic_distance(R1: np.ndarray, R2: np.ndarray) -> np.ndarray:
    """Bi-invariant distance ||log(R1^T R2)|| in [0, pi]."""
    R1 = np.asarray(R1, dtype=float)
    R2 = np.asarray(R2, dtype=float)
    rel = np.swapaxes(R1, -1, -2) @ R2
    return np.linalg.norm(log_so3(rel), axis=-1)

