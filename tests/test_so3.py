import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
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


def where_exp(a):
    """exp_so3 as it was written with np.where over every point: the byte reference."""
    a = np.asarray(a, dtype=float)
    theta2 = np.sum(a * a, axis=-1)
    theta = np.sqrt(theta2)
    small = theta < so3._SMALL_ANGLE

    # Guard the divisions; the small branch overwrites the guarded values.
    safe2 = np.where(small, 1.0, theta2)
    c1 = np.where(small, 1.0 - theta2 / 6.0 + theta2 * theta2 / 120.0,
                  np.sin(theta) / np.sqrt(safe2))
    c2 = np.where(small, 0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0,
                  (1.0 - np.cos(theta)) / safe2)

    A = so3.hat(a)
    A2 = A @ A
    return np.eye(3) + c1[..., None, None] * A + c2[..., None, None] * A2


def full_skew_log(R):
    """log_so3 as it was written with the full skew part and an unconditional
    small-angle series: the byte reference."""
    R = np.asarray(R, dtype=float)
    S = 0.5 * (R - np.swapaxes(R, -1, -2))
    w = np.stack([S[..., 2, 1], S[..., 0, 2], S[..., 1, 0]], axis=-1)     # sin(theta) * axis
    s = np.linalg.norm(w, axis=-1)
    c = 0.5 * (np.trace(R, axis1=-2, axis2=-1) - 1.0)
    theta = np.arctan2(s, c)

    small = theta < so3._SMALL_ANGLE
    near_pi = (np.pi - theta) < so3._NEAR_PI

    # Generic branch: a = theta * w / ||w||.
    safe_s = np.where(small | near_pi, 1.0, s)
    out = w * (theta / safe_s)[..., None]

    # Small angles: theta/sin(theta) = 1 + theta^2/6 + 7 theta^4/360 + ...
    t2 = theta * theta
    scale_small = 1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0
    out = np.where(small[..., None], w * scale_small[..., None], out)

    if np.any(near_pi):
        out[near_pi] = so3._log_near_pi(R[near_pi], w[near_pi], theta[near_pi])
    return out


def strided_views(X, c):
    """Views holding X's values in other layouts, none C-contiguous: the first and last
    axes transposed, every stride negative, the c trailing component axes made the
    slowest, and every other row of a buffer twice as long."""
    comp, front = tuple(range(-c, 0)), tuple(range(c))
    return [np.swapaxes(np.swapaxes(X, 0, -1).copy(), 0, -1),
            np.flip(np.flip(X).copy()),
            np.moveaxis(np.moveaxis(X, comp, front).copy(), front, comp),
            np.repeat(X, 2, axis=0)[::2]]


# Entries that stress rounding and the sign of zero, beside arbitrary ones.
ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5]) | st.floats(-2.0, 2.0)
# Entries a rotation check must refuse, and a zero whose sign must survive.
SPECIAL_ENTRIES = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 1e300])
# Angles at zero, below and at the small-angle switch, generic, near and at pi.
ANGLES = (st.sampled_from([0.0, 1e-6, np.pi, np.pi - 1e-5]) | st.floats(0.0, 1e-6)
          | st.floats(0.0, np.pi) | st.floats(np.pi - 1e-4, np.pi))


@st.composite
def algebra_stacks(draw):
    """(m, 3) vectors: ENTRIES directions scaled by ANGLES or by up to 1e150."""
    m = draw(st.integers(1, 12))
    directions = draw(hnp.arrays(float, (m, 3), elements=ENTRIES))
    scales = draw(hnp.arrays(float, (m, 1), elements=ANGLES | st.floats(np.pi, 1e150)))
    return directions * scales


@st.composite
def rotation_stacks(draw):
    """(m, 3, 3) rotations of ANGLES about unit axes, plus exact half turns and
    identities whose off-diagonal zeros carry drawn signs."""
    m = draw(st.integers(1, 12))
    axes = draw(hnp.arrays(float, (m, 3), elements=ENTRIES))
    norms = np.linalg.norm(axes, axis=-1, keepdims=True)
    axes = axes / np.where(norms > 0.1, norms, np.inf)      # short directions become zero
    angles = draw(hnp.arrays(float, (m, 1), elements=ANGLES))
    diagonals = draw(st.lists(st.sampled_from([[1.0, -1.0, -1.0], [-1.0, 1.0, -1.0],
                                               [-1.0, -1.0, 1.0], [1.0, 1.0, 1.0]]),
                              max_size=3))
    zeros = draw(hnp.arrays(float, (len(diagonals), 3, 3), elements=st.sampled_from([0.0, -0.0])))
    exact = np.where(np.eye(3, dtype=bool), np.reshape([np.diag(d) for d in diagonals],
                                                       (-1, 3, 3)), zeros)
    return np.concatenate([where_exp(axes * angles), exact])


def strided_rotation_test(R):
    """so3._rotation_test's formula on the strided column views of R, restated as the
    reference for any rewrite of the check (a contiguous copy of the planes, say)."""
    c0, c1, c2 = R.transpose((-1, -2, *range(R.ndim - 2)))

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    with np.errstate(over="ignore", invalid="ignore"):
        gram_err = np.abs([dot(c0, c0) - 1.0, dot(c1, c1) - 1.0, dot(c2, c2) - 1.0,
                           dot(c0, c1), dot(c0, c2), dot(c1, c2)]).max(axis=0)
        det = dot(c0, (c1[1] * c2[2] - c1[2] * c2[1], c1[2] * c2[0] - c1[0] * c2[2],
                       c1[0] * c2[1] - c1[1] * c2[0]))
    ok = (gram_err <= so3.ROTATION_TOL) & (np.abs(det - 1.0) <= so3.ROTATION_TOL)
    return ok, gram_err, det


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
        assert np.all(so3._rotation_test(so3.exp_so3(a))[0])


class TestIsRotation:
    # Agreement with the matmul Gram / LU determinant form around ROTATION_TOL
    # is a property test in test_properties.py.
    def test_reflections_fail(self):
        R = haar_rotations(50, 12)
        assert not np.any(so3._rotation_test(-R)[0])
        assert not np.any(so3._rotation_test(R * np.array([1.0, 1.0, -1.0]))[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_fail(self, bad):
        R = np.tile(np.eye(3), (9, 1, 1))
        R.reshape(9, 9)[np.arange(9), np.arange(9)] = bad     # one entry per matrix
        assert not np.any(so3._rotation_test(R)[0])
        assert so3._rotation_test(np.concatenate([R, np.eye(3)[None]]))[0].tolist() == \
            [False] * 9 + [True]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_entries_fail_without_warnings(self, bad):
        R = np.tile(np.eye(3), (9, 1, 1))
        R.reshape(9, 9)[np.arange(9), np.arange(9)] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.any(so3._rotation_test(R)[0])

    def test_result_shapes(self):
        assert so3._rotation_test(np.eye(3))[0].shape == ()
        assert so3._rotation_test(np.eye(3))[0]
        assert so3._rotation_test(np.zeros((3, 3)))[0].shape == ()
        R = haar_rotations(24, 13).reshape(6, 4, 3, 3)
        assert so3._rotation_test(R)[0].shape == (6, 4)
        assert np.all(so3._rotation_test(R)[0])
        with pytest.raises(ValueError):
            so3.check_rotation(np.eye(4))


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


class TestSameBytesAsTheArrayFormulas:
    # Each rewrite must round as the formula it replaced, to the last bit and
    # the sign of zero, so seeded tubes, counts and JSON records stay the same.
    @given(data=st.data(), k=st.integers(1, 40), n=st.integers(1, 4))
    def test_transpose_times_equals_both_einsums(self, data, k, n):
        P = data.draw(hnp.arrays(float, (k, 3, 3), elements=ENTRIES))
        V = data.draw(hnp.arrays(float, (n, k, 3, 3), elements=ENTRIES))
        assert (so3._transpose_times(P, V).tobytes()
                == np.einsum("kij,nkil->nkjl", P, V).tobytes())
        assert (so3._transpose_times(P, V[0]).tobytes()
                == np.einsum("kij,kil->kjl", P, V[0]).tobytes())

    @pytest.mark.parametrize("n", [10, 30])
    def test_transpose_times_equals_einsum_at_sample_size(self, n):
        # A coverage sample's shape, a third of its entries signed zeros.
        rng = np.random.default_rng(n)
        P = haar_rotations(101, n)
        V = haar_rotations(101 * n, n + 1).reshape(n, 101, 3, 3)
        P[rng.random(P.shape) < 0.3] = -0.0
        V[rng.random(V.shape) < 0.3] = -0.0
        assert (so3._transpose_times(P, V).tobytes()
                == np.einsum("kij,nkil->nkjl", P, V).tobytes())

    @given(a=algebra_stacks())
    @example(a=np.array([[0.3, -0.2, 0.1], [1.0, 2.0, -0.5]]))              # no small angle
    @example(a=np.array([[0.0, -0.0, 0.0], [1e-8, 0.0, -0.0], [0.3, 0.2, 0.1]]))
    @example(a=np.array([[1e150, -1e150, 0.5], [1e-9, 0.0, 0.0]]))
    def test_exp_so3(self, a):
        with np.errstate(over="ignore"):        # the reference squares 1e300
            reference = where_exp(a), where_exp(a[0])
        assert so3.exp_so3(a).tobytes() == reference[0].tobytes()
        assert so3.exp_so3(a[0]).tobytes() == reference[1].tobytes()

    @given(R=rotation_stacks())
    @example(R=where_exp(np.array([[0.3, -0.2, 0.1], [1.0, 0.5, -0.5]])))  # generic only
    @example(R=np.stack([np.eye(3), np.diag([1.0, -1.0, -1.0]),
                         where_exp(np.array([1e-8, 0.0, -0.0])),
                         where_exp(np.array([0.0, np.pi - 1e-6, 0.0]))]))
    def test_log_so3(self, R):
        assert so3.log_so3(R, validate=False).tobytes() == full_skew_log(R).tobytes()
        assert so3.log_so3(R[0], validate=False).tobytes() == full_skew_log(R[0]).tobytes()
        assert (so3.log_so3(R[None], validate=False).tobytes()
                == full_skew_log(R[None]).tobytes())

    @given(data=st.data(), k=st.integers(2, 12), n=st.integers(2, 3))
    def test_strided_inputs_give_the_bytes_of_contiguous_ones(self, data, k, n):
        # The kernels read component planes, so input strides must not matter.
        P = data.draw(hnp.arrays(float, (k, 3, 3), elements=ENTRIES))
        V = data.draw(hnp.arrays(float, (n, k, 3, 3), elements=ENTRIES))
        a, R = data.draw(algebra_stacks()), data.draw(rotation_stacks())
        for Pv, Vv in zip(strided_views(P, 2), strided_views(V, 2)):
            assert not (Pv.flags.c_contiguous or Vv.flags.c_contiguous)
            assert so3._transpose_times(Pv, Vv).tobytes() == so3._transpose_times(P, V).tobytes()
            assert (so3._transpose_times(Pv, Vv[0]).tobytes()
                    == so3._transpose_times(P, V[0]).tobytes())
        for av in strided_views(a, 1):
            assert so3.exp_so3(av).tobytes() == so3.exp_so3(a).tobytes()
        for Rv in strided_views(R, 2):
            assert so3.log_so3(Rv, validate=False).tobytes() == so3.log_so3(R, validate=False).tobytes()

    @given(data=st.data(), lead=st.sampled_from([(), (7,), (3, 5)]))
    @example(data=None, lead=(2,))
    def test_rotation_test_equals_the_strided_formula(self, data, lead):
        # Every output, the sign of zero included, is the strided formula's float.
        if data is None:
            R = np.array([np.eye(3), -0.0 * np.eye(3)])
            R[1, 0, 1], R[1, 2, 2] = np.nan, np.inf
        else:
            R = np.resize(data.draw(rotation_stacks()), lead + (3, 3))
            edit = data.draw(hnp.arrays(bool, R.shape, elements=st.sampled_from([False] * 6
                                                                                  + [True])))
            values = data.draw(hnp.arrays(float, R.shape, elements=ENTRIES | SPECIAL_ENTRIES))
            R = np.where(edit, values, R)
        for X in (R, *strided_views(R, 2)):
            (ok, gram_err, det), want = so3._rotation_test(X), strided_rotation_test(X)
            assert np.asarray(ok).tobytes() == np.asarray(want[0]).tobytes()
            # x86 returns the NaN of either operand, and numpy's contiguous and strided
            # loops order them differently: a NaN may change its sign bit, nothing else.
            for got, ref in ((gram_err, want[1]), (det, want[2])):
                assert np.shape(got) == np.shape(ref)
                assert np.array_equal(np.isnan(got), np.isnan(ref))
                assert (np.where(np.isnan(got), 0.0, got).tobytes()
                        == np.where(np.isnan(ref), 0.0, ref).tobytes())

    def test_read_only_inputs_stay_untouched(self):
        # CurveSample and RotationCurve hold read-only arrays; the kernels that
        # accumulate in place must write only into buffers of their own.
        rng = np.random.default_rng(25)
        a = rng.standard_normal((4, 7, 3))
        a[0, :3] = [[0.0, 0.0, 0.0], [1e-8, 0.0, -0.0], [0.0, np.pi - 1e-6, 0.0]]
        R = so3.exp_so3(a)
        P = R[1]
        for X in (a, R, P):
            X.flags.writeable = False
        before = [X.tobytes() for X in (a, R, P)]
        results = [(so3.exp_so3(a), (a,)), (so3.exp_so3(a[0, 1]), (a,)),
                   (so3.log_so3(R), (R,)), (so3.log_so3(R[0, 2]), (R,)),
                   (so3._transpose_times(P, R), (P, R)), (so3._transpose_times(P, R[2]), (P, R))]
        assert [X.tobytes() for X in (a, R, P)] == before
        for out, inputs in results:
            assert not any(np.shares_memory(out, X) for X in inputs)
