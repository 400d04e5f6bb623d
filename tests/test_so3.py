import warnings

import numpy as np
import pytest
from scipy.linalg import expm, logm
from scipy.spatial.transform import Rotation

from rotubes import so3
from rotubes.errors import DegenerateMean, InvalidRotation


def haar_rotations(n, seed):
    return Rotation.random(n, rng=np.random.default_rng(seed)).as_matrix()


def brute_force_nearest_rotation(M, rng, n_global=20000):
    """Random global search plus shrinking local perturbations."""
    candidates = Rotation.random(n_global, rng=rng).as_matrix()
    objective = np.square(candidates - M).sum(axis=(1, 2))
    best = candidates[objective.argmin()]
    for scale in (0.3, 0.1, 0.03, 0.01, 0.003, 0.001):
        steps = so3.exp_so3(scale * rng.standard_normal((300, 3)))
        local = best @ steps
        obj = np.square(local - M).sum(axis=(1, 2))
        if obj.min() < np.square(best - M).sum():
            best = local[obj.argmin()]
    return best


class TestHatVee:
    def test_hat_pattern_first_axis(self):
        expected = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        assert np.array_equal(so3.hat([1.0, 0.0, 0.0]), expected)

    def test_hat_zero(self):
        assert np.array_equal(so3.hat([0.0, 0.0, 0.0]), np.zeros((3, 3)))

    def test_conjugation_identity(self):
        # Q hat(a) Q^T = hat(Q a) for rotations Q.
        rng = np.random.default_rng(1)
        Q = haar_rotations(50, 2)
        a = rng.standard_normal((50, 3))
        lhs = Q @ so3.hat(a) @ np.swapaxes(Q, -1, -2)
        rhs = so3.hat(np.einsum("nij,nj->ni", Q, a))
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestExp:
    def test_identity(self):
        assert np.array_equal(so3.exp_so3([0.0, 0.0, 0.0]), np.eye(3))

    def test_half_turn(self):
        assert np.allclose(so3.exp_so3([np.pi, 0.0, 0.0]), np.diag([1.0, -1.0, -1.0]),
                           atol=1e-15)

    def test_quarter_turn_sends_e2_to_e3(self):
        R = so3.exp_so3([np.pi / 2.0, 0.0, 0.0])
        assert np.allclose(R @ np.array([0.0, 1.0, 0.0]), [0.0, 0.0, 1.0], atol=1e-15)

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.standard_normal(3) * rng.uniform(0.0, np.pi)
            assert np.allclose(so3.exp_so3(a), expm(so3.hat(a)), atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-12, 1e-8, 1e-7, 1e-3, 1.0, 3.0, np.pi - 1e-9])
    def test_output_is_rotation_at_all_scales(self, scale):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((100, 3))
        a *= scale / np.linalg.norm(a, axis=1, keepdims=True)
        assert np.all(so3.is_rotation(so3.exp_so3(a)))


class TestIsRotation:
    # Agreement with the matmul Gram / LU determinant form around ROTATION_TOL
    # is a property test in test_properties.py.
    def test_reflections_fail(self):
        R = haar_rotations(50, 12)
        assert not np.any(so3.is_rotation(-R))
        assert not np.any(so3.is_rotation(R * np.array([1.0, 1.0, -1.0])))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_fail(self, bad):
        R = np.tile(np.eye(3), (9, 1, 1))
        R.reshape(9, 9)[np.arange(9), np.arange(9)] = bad     # one entry per matrix
        assert not np.any(so3.is_rotation(R))
        assert so3.is_rotation(np.concatenate([R, np.eye(3)[None]])).tolist() == \
            [False] * 9 + [True]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_entries_fail_without_warnings(self, bad):
        R = np.tile(np.eye(3), (9, 1, 1))
        R.reshape(9, 9)[np.arange(9), np.arange(9)] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.any(so3.is_rotation(R))

    def test_result_shapes(self):
        assert so3.is_rotation(np.eye(3)).shape == ()
        assert so3.is_rotation(np.eye(3))
        assert so3.is_rotation(np.zeros((3, 3))).shape == ()
        R = haar_rotations(24, 13).reshape(6, 4, 3, 3)
        assert so3.is_rotation(R).shape == (6, 4)
        assert np.all(so3.is_rotation(R))
        with pytest.raises(ValueError):
            so3.is_rotation(np.eye(4))


class TestLog:
    def test_identity(self):
        assert np.array_equal(so3.log_so3(np.eye(3)), np.zeros(3))

    def test_half_turn_sign_rule(self):
        assert np.allclose(so3.log_so3(np.diag([1.0, -1.0, -1.0])), [np.pi, 0.0, 0.0])

    def test_pi_axis_first_nonzero_positive(self):
        # Half turns about -y and a mixed axis resolve to the positive choice.
        a = so3.log_so3(so3.exp_so3([0.0, -np.pi, 0.0]))
        assert np.allclose(a, [0.0, np.pi, 0.0], atol=1e-12)
        axis = np.array([-1.0, 1.0, 0.0]) / np.sqrt(2.0)
        got = so3.log_so3(so3.exp_so3(axis * np.pi))
        assert got[0] > 0.0 or (abs(got[0]) < 1e-8 and got[1] > 0.0)
        assert np.allclose(so3.exp_so3(got), so3.exp_so3(axis * np.pi), atol=1e-9)

    def test_roundtrip_below_cut_locus(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5000, 3))
        a *= (rng.uniform(0.0, np.pi - 1e-3, 5000) / np.linalg.norm(a, axis=1))[:, None]
        back = so3.log_so3(so3.exp_so3(a))
        assert np.linalg.norm(back - a, axis=1).max() <= 1e-9

    def test_roundtrip_near_pi(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((500, 3))
        angles = np.pi - 10.0 ** rng.uniform(-7, -3, 500)
        a *= (angles / np.linalg.norm(a, axis=1))[:, None]
        back = so3.log_so3(so3.exp_so3(a))
        assert np.linalg.norm(back - a, axis=1).max() <= 1e-9

    def test_matches_scipy_logm(self):
        for k, R in enumerate(haar_rotations(20, 7)):
            mine = so3.hat(so3.log_so3(R))
            ref = np.real(logm(R))
            assert np.allclose(mine, ref, atol=1e-8), k

    def test_rejects_invalid_rotation(self):
        with pytest.raises(InvalidRotation):
            so3.log_so3(np.eye(3) * 1.001)
        with pytest.raises(InvalidRotation):
            so3.log_so3(np.diag([1.0, 1.0, -1.0]))


class TestProjection:
    def test_fixed_point(self):
        for R in haar_rotations(10, 9):
            assert np.allclose(so3.project_to_so3(R), R, atol=1e-12)

    def test_positive_scaling_invariance(self):
        for R in haar_rotations(10, 10):
            assert np.allclose(so3.project_to_so3(2.5 * R), R, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
        P = so3.project_to_so3(M)
        assert np.allclose(so3.project_to_so3(P), P, atol=1e-12)

    def test_matches_brute_force_search(self):
        # Derivative-free search over rotations: global candidates plus local
        # random refinement, fully independent of the SVD solution path.
        rng = np.random.default_rng(12)
        for _ in range(5):
            M = rng.standard_normal((3, 3))
            if np.linalg.det(M) <= 0.1:
                M += 1.5 * np.eye(3)
            P = so3.project_to_so3(M)
            best = brute_force_nearest_rotation(M, rng)
            assert np.square(P - M).sum() <= np.square(best - M).sum() + 1e-9
            assert so3.geodesic_distance(P, best) <= 1e-2

    def test_degenerate_reflection(self):
        with pytest.raises(DegenerateMean):
            so3.project_to_so3(np.diag([1.0, 1.0, -1.0]))


class TestGeodesicDistance:
    def test_self_distance_zero(self):
        for R in haar_rotations(5, 13):
            assert so3.geodesic_distance(R, R) == pytest.approx(0.0, abs=1e-12)

    def test_half_turn_distance(self):
        assert so3.geodesic_distance(np.eye(3), np.diag([1.0, -1.0, -1.0])) == (
            pytest.approx(np.pi))

    def test_bi_invariance(self):
        rng = np.random.default_rng(14)
        R1 = haar_rotations(30, 15)
        R2 = haar_rotations(30, 16)
        P = haar_rotations(30, 17)
        Q = haar_rotations(30, 18)
        d0 = so3.geodesic_distance(R1, R2)
        d1 = so3.geodesic_distance(P @ R1 @ Q, P @ R2 @ Q)
        assert np.abs(d0 - d1).max() <= 1e-9

    def test_symmetry(self):
        R1, R2 = haar_rotations(2, 19)
        assert so3.geodesic_distance(R1, R2) == pytest.approx(
            so3.geodesic_distance(R2, R1), abs=1e-12)
