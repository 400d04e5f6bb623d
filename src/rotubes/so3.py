"""Numerically stable operations on SO(3) and its Lie algebra so(3).

Vectors in R^3 are identified with skew matrices through the hat/vee pair;
norms of skew matrices use the rescaled Frobenius norm sqrt(trace(A A^T)/2)
so that ||hat(a)|| equals the Euclidean norm of a.  All functions accept
stacked inputs: shapes (..., 3) for algebra vectors and (..., 3, 3) for
matrices, operating on the trailing axes.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateMean, InvalidRotation, NonSkewInput

ROTATION_TOL = 1e-9
SKEW_TOL = 1e-9
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


def vee(A: np.ndarray) -> np.ndarray:
    """Inverse of hat; extracts the vector of the skew part (A - A^T)/2.

    Raises NonSkewInput if the symmetry violation max|A + A^T| exceeds SKEW_TOL.
    """
    A = np.asarray(A, dtype=float)
    _check_shape_33(A)
    violation = np.abs(A + np.swapaxes(A, -1, -2)).max()
    if violation > SKEW_TOL:
        raise NonSkewInput(f"skew symmetry violated by {violation:.3e} (tol {SKEW_TOL:.1e})")
    return _vee_raw(0.5 * (A - np.swapaxes(A, -1, -2)))


def _vee_raw(A: np.ndarray) -> np.ndarray:
    """Extract (A[2,1], A[0,2], A[1,0]) without any symmetry check."""
    return np.stack([A[..., 2, 1], A[..., 0, 2], A[..., 1, 0]], axis=-1)


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


def is_rotation(R: np.ndarray, tol: float = ROTATION_TOL) -> np.ndarray:
    """Elementwise check of R^T R = I and det(R) = 1 within tol."""
    R = np.asarray(R, dtype=float)
    _check_shape_33(R)
    gram_err = np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3)).max(axis=(-1, -2))
    det_err = np.abs(np.linalg.det(R) - 1.0)
    return (gram_err <= tol) & (det_err <= tol)


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

    w = _vee_raw(0.5 * (R - np.swapaxes(R, -1, -2)))      # sin(theta) * axis
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
        flat_R = R.reshape(-1, 3, 3)
        flat_w = w.reshape(-1, 3)
        flat_theta = theta.reshape(-1)
        flat_out = out.reshape(-1, 3)
        for idx in np.nonzero(near_pi.reshape(-1))[0]:
            flat_out[idx] = _log_near_pi(flat_R[idx], flat_w[idx], flat_theta[idx])
        out = flat_out.reshape(out.shape)
    return out


def _log_near_pi(R: np.ndarray, w: np.ndarray, theta: float) -> np.ndarray:
    """Axis extraction from the symmetric part, stable as theta -> pi."""
    c = np.cos(theta)
    M = (0.5 * (R + R.T) - c * np.eye(3)) / (1.0 - c)     # axis outer product
    i = int(np.argmax(np.diag(M)))
    v = np.empty(3)
    v[i] = np.sqrt(max(M[i, i], 0.0))
    for j in range(3):
        if j != i:
            v[j] = M[i, j] / v[i]
    v /= np.linalg.norm(v)

    if np.linalg.norm(w) > _AXIS_SIGN_TOL:
        # Sign still determined by the skew part.
        if np.dot(v, w) < 0.0:
            v = -v
    else:
        # Cut locus: pick the axis whose first nonzero component is positive.
        for comp in v:
            if abs(comp) > 1e-8:
                if comp < 0.0:
                    v = -v
                break
    return theta * v


def frob_norm_rescaled(A: np.ndarray) -> np.ndarray:
    """Rescaled Frobenius norm sqrt(trace(A A^T)/2); equals ||vee(A)|| on skews."""
    A = np.asarray(A, dtype=float)
    _check_shape_33(A)
    return np.sqrt(np.sum(A * A, axis=(-1, -2)) / 2.0)


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

