import dataclasses
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.transform import Rotation

import rotubes as rt
from rotubes import io as rio
from rotubes import so3
from rotubes.curves import (CurveSample, RotationCurve, SpatioTemporalAction, TimeGrid,
                            apply_action)
from rotubes.errors import GridMismatch, NoConvergence, SingularCovariance
from rotubes.tubes import (ConfidenceTube, OverlapReport, _check_spd, _right_jacobian, act_on_tube,
                           build_tube, compare_tubes, hotelling, tube_contains, tube_ingredients)


def gp_sample(n=8, k=41, sigma=0.05, seed=0, center=None):
    grid = TimeGrid.uniform(k)
    center = center or RotationCurve.identity(grid)
    sample, paths = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, sigma),
                                        center, grid, n, seed)
    return sample, center, paths


def eigvalsh_flag(S):
    """Index of the first point the eigensolver rule flags, or None: the SPD rule
    evaluated point by point, without a certificate.  A point that is not finite
    is flagged; otherwise its eigvalsh eigenvalues must pass lmin > max(0, 1e-12 lmax)."""
    for k, P in enumerate(S):
        if not np.isfinite(P).all():
            return k
        eig = np.linalg.eigvalsh(P)
        if not eig[0] > max(0.0, 1e-12 * eig[-1]):
            return k
    return None


# Smallest-to-largest eigenvalue ratios: clearly conditioned, straddling the 1e-12
# floor, zero (rank deficient) and negative (indefinite).
RATIOS = (st.floats(1e-9, 1.0) | st.floats(-14.0, -10.0).map(lambda u: 10.0 ** u)
          | st.sampled_from([0.0, 1e-12, -1e-12, -1e-3, -1.0]))
# Entries for matrices drawn one entry at a time: off-diagonals beyond the diagonal,
# magnitudes near the float limits, NaN and inf.
RAW = st.floats(-10.0, 10.0) | st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 1e-300, 1e200])


@st.composite
def covariance_points(draw):
    """One exactly symmetric 3x3 matrix: Q diag(lam) Q^T with lam = scale (ratio, mid, 1),
    or six drawn entries."""
    if draw(st.booleans()):
        a, b, c, d, e, f = draw(hnp.arrays(float, 6, elements=RAW))
        return np.array([[a, b, c], [b, d, e], [c, e, f]])
    lam = 10.0 ** draw(st.integers(-8, 8) | st.sampled_from([-107, -106, 95, 110])) * np.array(
        [draw(RATIOS), draw(st.floats(0.0, 1.0) | RATIOS), 1.0])
    Q = so3.exp_so3(draw(hnp.arrays(float, 3, elements=st.floats(-3.0, 3.0))))
    M = (Q * lam) @ Q.T
    return M + M.T                      # entry (i, j) and (j, i) are the same float


class TestSpdCertificate:
    @settings(max_examples=400)
    @given(points=st.lists(covariance_points(), min_size=2, max_size=6))
    @example(points=[np.diag([1.0, 2.0, 3.0]), np.diag([1e-12, 1.0, 1.0])])
    @example(points=[np.eye(3), np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])])
    @example(points=[np.eye(3), np.full((3, 3), np.nan), np.diag([np.inf, 1.0, 1.0])])
    # One point that is not finite, which eigvalsh alone passes or refuses with LinAlgError.
    @example(points=[np.eye(3), np.array([[1.0, np.nan, 0.0], [np.nan, 1.0, 0.0],
                                          [0.0, 0.0, 1.0]]), np.eye(3)])
    @example(points=[np.eye(3), np.eye(3), np.diag([np.inf, 1.0, 1.0])])
    @example(points=[np.full((3, 3), np.nan), np.eye(3), np.eye(3)])
    @example(points=[1e-100 * np.eye(3), 1e95 * np.eye(3), np.diag([1.0, 1.0, 0.0])])
    # Rank deficient at a scale where det rounds in subnormal steps of 5e-324, not
    # relative ones: 4 det reads above 1e-9 tr^3 though lmin / lmax is below 1e-12.
    @example(points=[np.eye(3), np.array([
        [7.771067142574105e-108, 2.955216258115292e-109, 9.743948136446797e-108],
        [2.955216258115292e-109, 1.999285849122402e-107, -2.3547004703337043e-109],
        [9.743948136446797e-108, -2.3547004703337043e-109, 1.2236074366201894e-107]])])
    def test_raises_where_the_eigensolver_rule_flags(self, points):
        S, grid = np.array(points), TimeGrid.uniform(len(points))
        k = eigvalsh_flag(S)
        if k is None:
            _check_spd(S, grid)
            return
        with pytest.raises(SingularCovariance) as info:
            _check_spd(S, grid)
        assert (info.value.index, info.value.t) == (k, float(grid.t[k]))

    def test_well_conditioned_covariance_needs_no_eigensolver(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(S):
            calls.append(S.shape)
            return eigvalsh(S)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        sample, _, _ = gp_sample(n=10, k=101, seed=26)
        tube_ingredients(sample)
        _check_spd(np.tile(np.diag([1.0, 2.0, 3.0]), (4, 1, 1)), TimeGrid.uniform(4))
        assert calls == []
        with pytest.raises(SingularCovariance):
            _check_spd(np.array([np.eye(3), np.diag([1e-13, 1.0, 1.0])]), TimeGrid.uniform(2))
        assert calls == [(2, 3, 3)]


class TestHotelling:
    def test_center_equal_to_mean_gives_zero_statistic(self):
        sample, _, _ = gp_sample(seed=1)
        pem = rt.pointwise_extrinsic_mean(sample)
        h = hotelling(tube_ingredients(sample), pem)
        assert np.abs(h).max() <= 1e-18

    def test_hand_built_matches_direct_solve(self):
        grid = TimeGrid.uniform(2)
        rng = np.random.default_rng(2)
        disp = 0.1 * rng.standard_normal((4, 3))
        mats = so3.exp_so3(disp)
        sample = CurveSample(grid, np.broadcast_to(mats[:, None], (4, 2, 3, 3)).copy())
        center = RotationCurve.identity(grid)
        proc = tube_ingredients(sample)
        h = hotelling(proc, center)
        # Direct evaluation from the definition.
        pem = rt.pointwise_extrinsic_mean(sample).values[0]
        x = np.stack([so3.log_so3(pem.T @ R) for R in mats])
        S = sum(np.outer(v, v) for v in x) / 3.0
        xbar = so3.log_so3(pem.T @ np.eye(3))
        expected = 4.0 * xbar @ np.linalg.inv(S) @ xbar
        assert h[0] == pytest.approx(expected, rel=1e-10)
        assert np.allclose(proc.s[0], S, atol=1e-15)

    def test_approximates_generating_process_statistic(self):
        # Plug-in Hotelling approaches the generating one linearly in sigma.
        errs = {}
        for sigma in (0.08, 0.02):
            devs = []
            for rep in range(10):
                sample, center, paths = gp_sample(n=10, sigma=sigma, seed=(3, rep))
                h = hotelling(tube_ingredients(sample), center)
                abar = paths.mean(axis=0)
                dev = paths - abar
                S = np.einsum("nka,nkb->kab", dev, dev) / (paths.shape[0] - 1)
                h_gen = 10.0 * np.einsum(
                    "ka,ka->k", abar, np.linalg.solve(S, abar[..., None])[..., 0])
                devs.append(np.abs(h - h_gen).max())
            errs[sigma] = np.median(devs)
        assert errs[0.02] < errs[0.08]
        assert errs[0.02] < 2.0 * (0.02 / 0.08) * errs[0.08]

    def test_invariance_under_right_rotation_and_warp(self):
        # Statistic values are unchanged when all curves and the center are
        # right-multiplied by a fixed rotation and time is rewarped.
        grid_y = TimeGrid.uniform(31)
        knots = np.array([[0.0, 0.0], [0.3, 0.5], [1.0, 1.0]])
        act = SpatioTemporalAction(np.eye(3), Rotation.random(
            rng=np.random.default_rng(5)).as_matrix(), knots)
        grid_x = TimeGrid(act.warp(grid_y.t))
        center = RotationCurve(grid_x, so3.exp_so3(
            np.stack([0.3 * np.sin(grid_x.t), 0.2 * grid_x.t, 0.1 * grid_x.t ** 2], -1)))
        sample, _ = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 0.05),
                                        center, grid_x, 8, 17)
        acted = apply_action(sample, act, out_grid=grid_y)
        acted_center = apply_action(center, act, out_grid=grid_y)
        h_x = hotelling(tube_ingredients(sample), center)
        h_y = hotelling(tube_ingredients(acted), acted_center)
        assert np.abs(h_x - h_y).max() <= 1e-9

    def test_singular_covariance_reported_with_location(self):
        # All residual variation lies in a 2-plane: S is rank deficient.
        grid = TimeGrid.uniform(3)
        rng = np.random.default_rng(6)
        disp = np.zeros((5, 3, 3))
        disp[:, :, :2] = 0.2 * rng.standard_normal((5, 3, 2))
        sample = CurveSample(grid, so3.exp_so3(disp))
        with pytest.raises(SingularCovariance) as info:
            tube_ingredients(sample)
        assert info.value.index is not None

    @pytest.mark.parametrize("n, k, sigma, seed", [(5, 3, 0.05, 0), (7, 21, 0.2, 1),
                                                   (12, 41, 0.6, 2), (30, 101, 0.1, 3)])
    def test_covariance_is_built_exactly_symmetric(self, tmp_path, n, k, sigma, seed):
        # Both places S enters build S[a, b] and S[b, a] as the same float, so
        # the SPD check needs no symmetry test.
        sample, _, _ = gp_sample(n=n, k=k, sigma=sigma, seed=seed)
        path = tmp_path / "tube.json"
        rio.atomic_write_json(str(path), rio.tube_to_dict(build_tube(sample, 0.05)))
        for S in (tube_ingredients(sample).s, rio.tube_from_json(str(path)).s):
            assert np.array_equal(S, S.swapaxes(-1, -2))

    def test_minimum_sample_size(self):
        sample, _, _ = gp_sample(n=3, seed=7)
        with pytest.raises(ValueError):
            tube_ingredients(sample)


class TestBuildTubeAndContains:
    def test_tube_contains_own_center(self):
        sample, _, _ = gp_sample(seed=8)
        tube = build_tube(sample, 0.05)
        per_point, overall = tube_contains(tube, tube.center)
        assert overall and per_point.all()

    def test_far_curve_not_contained(self):
        sample, center, _ = gp_sample(sigma=0.05, seed=9)
        tube = build_tube(sample, 0.05)
        displaced = RotationCurve(
            tube.grid, tube.center.values @ so3.exp_so3([np.pi / 2.0, 0.0, 0.0]))
        per_point, overall = tube_contains(tube, displaced)
        assert not overall and not per_point.any()

    def test_boundary_is_closed(self):
        sample, _, _ = gp_sample(seed=10)
        tube = build_tube(sample, 0.05)
        eigval, eigvec = np.linalg.eigh(tube.s[0])
        scale = np.sqrt(tube.hquant * eigval[-1] / tube.n)
        for factor, expected in ((1.0 - 1e-9, True), (1.0 + 1e-9, False)):
            a = factor * scale * eigvec[:, -1]
            values = tube.center.values.copy()
            values[0] = values[0] @ so3.exp_so3(a)
            per_point, _ = tube_contains(tube, RotationCurve(tube.grid, values))
            assert per_point[0] == expected

    def test_grid_mismatch(self):
        sample, _, _ = gp_sample(seed=11)
        tube = build_tube(sample, 0.05)
        with pytest.raises(GridMismatch):
            tube_contains(tube, RotationCurve.identity(TimeGrid.uniform(7)))

    def test_statistic_and_membership_are_the_same_floats(self):
        # A tube whose quantile is max_t H_t holds the center H was taken at,
        # and the next float below it drops the point where H peaks.
        sample, center, _ = gp_sample(sigma=0.05, seed=12)
        ing = tube_ingredients(sample)
        h = hotelling(ing, center)
        tube = ConfidenceTube(center=ing.center, s=ing.s, hquant=float(h.max()),
                              alpha=0.05, n=ing.n)
        assert tube_contains(tube, center)[1]
        below = dataclasses.replace(tube, hquant=np.nextafter(tube.hquant, 0.0))
        assert not tube_contains(below, center)[0][np.argmax(h)]

    def test_alpha_ordering(self):
        sample, _, _ = gp_sample(seed=12)
        assert build_tube(sample, 0.05).hquant > build_tube(sample, 0.10).hquant

    def test_acted_tube_preserves_membership(self):
        rng = np.random.default_rng(13)
        sample, center, _ = gp_sample(n=9, seed=13)
        tube = build_tube(sample, 0.1)
        act = SpatioTemporalAction(Rotation.random(rng=rng).as_matrix(),
                                   Rotation.random(rng=rng).as_matrix())
        acted_tube = act_on_tube(tube, act)
        probe = RotationCurve(tube.grid, center.values @ so3.exp_so3(
            0.03 * rng.standard_normal((len(tube.grid), 3))))
        before, _ = tube_contains(tube, probe)
        after, _ = tube_contains(acted_tube, apply_action(probe, act))
        assert np.array_equal(before, after)


class TestJacobians:
    def test_differential_of_log_pullback(self):
        # dm/du = Jr(m)^-1 Jr(u) against central differences.
        rng = np.random.default_rng(15)
        for _ in range(10):
            D = Rotation.random(rng=rng).as_matrix()
            u = 0.3 * rng.standard_normal(3)
            m = so3.log_so3(D @ so3.exp_so3(u))
            J = np.linalg.solve(_right_jacobian(m), _right_jacobian(u))
            eps = 1e-6
            for d in range(3):
                du = np.zeros(3)
                du[d] = eps
                m_plus = so3.log_so3(D @ so3.exp_so3(u + du))
                m_minus = so3.log_so3(D @ so3.exp_so3(u - du))
                fd = (m_plus - m_minus) / (2.0 * eps)
                assert np.allclose(J[:, d], fd, atol=1e-6)


def make_tube(center_values, grid, s, hquant, n):
    return ConfidenceTube(RotationCurve(grid, center_values), s, hquant, 0.05, n)


class TestTubeRecordValidation:
    def test_impossible_records_rejected(self):
        # n below the estimation minimum or a non-finite quantile describe
        # no tube; n = -3 would otherwise contain every curve everywhere.
        grid = TimeGrid.uniform(5)
        eye = np.broadcast_to(np.eye(3), (5, 3, 3)).copy()
        s = 0.01 * eye
        for hquant, n in ((1.0, -3), (1.0, 0), (1.0, 3), (np.inf, 10), (np.nan, 10)):
            with pytest.raises(ValueError):
                make_tube(eye, grid, s, hquant, n)
        assert make_tube(eye, grid, s, 1.0, 4).n == 4

    @pytest.mark.parametrize("entry, n", [(entry, n) for entry in ("tube", "coverage", "oracle")
                                          for n in (3, 2.5, True)] + [("ingredients", 3)])
    def test_one_sample_size_rule(self, entry, n):
        # A stored tube, both simulations and the estimator refuse n < 4 (singular S)
        # and a non-integer n with one message.
        grid, spec = TimeGrid.uniform(5), rt.ErrorProcessSpec(1, 1, 1, 0.05)
        eye = np.broadcast_to(np.eye(3), (5, 3, 3))
        build = {"tube": lambda: make_tube(eye, grid, 0.01 * eye, 1.0, n),
                 "coverage": lambda: rt.coverage_experiment(spec, n, 2, [0.1], grid),
                 "oracle": lambda: rt.mc_quantile_oracle(spec, n, 2, 0.1, grid),
                 "ingredients": lambda: tube_ingredients(gp_sample(n=n, k=5)[0])}[entry]
        with pytest.raises(ValueError, match=rf"^need n >= 4, an integer, got {n!r}$"):
            build()
        assert type(make_tube(eye, grid, 0.01 * eye, 1.0, np.int64(4)).n) is int

    @pytest.mark.parametrize("build, message", [
        (lambda: CurveSample(TimeGrid.uniform(5), np.broadcast_to(np.eye(3), (5, 3, 3))),
         r"^values must have shape \(N, 5, 3, 3\), got \(5, 3, 3\)$"),
        (lambda: so3.hat(np.zeros((4, 2))), r"^expected trailing dimension 3, got shape \(4, 2\)$"),
        (lambda: make_tube(np.broadcast_to(np.eye(3), (5, 3, 3)), TimeGrid.uniform(5),
                           0.01 * np.broadcast_to(np.eye(3), (4, 3, 3)), 1.0, 10),
         r"^S must have shape \(5, 3, 3\)$"),
        (lambda: OverlapReport(TimeGrid.uniform(5), np.ones(4, bool)),
         r"^overlap must hold one boolean per grid point$")])
    def test_shape_refusals(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_tube_arrays_are_read_only(self):
        # S is frozen where tube_ingredients builds it, as the center's values are.
        sample, _, _ = gp_sample(seed=3)
        tube = build_tube(sample, 0.1)
        report = compare_tubes(tube, tube)
        for array, index, value in ((tube.s, (0, 0, 0), 1.0),
                                    (tube_ingredients(sample).s, (0, 0, 0), 1.0),
                                    (report.overlap, 0, False)):
            with pytest.raises(ValueError, match="read-only"):
                array[index] = value


class TestCompareTubes:
    def test_identical_tubes_overlap_everywhere(self):
        sample, _, _ = gp_sample(seed=16)
        tube = build_tube(sample, 0.05)
        report = compare_tubes(tube, tube)
        assert report.overlap.all() and report.loci == ()

    def test_separated_narrow_tubes_do_not_overlap(self):
        grid = TimeGrid.uniform(5)
        eye = np.broadcast_to(np.eye(3), (5, 3, 3)).copy()
        s = np.broadcast_to(0.01 ** 2 * np.eye(3), (5, 3, 3)).copy()
        # Max Mahalanobis extent sqrt(h s / n) ~ 0.012 << pi/8; separation pi/2.
        tube_a = make_tube(eye, grid, s, 15.0, 10)
        displaced = eye @ so3.exp_so3([np.pi / 2.0, 0.0, 0.0])
        tube_b = make_tube(displaced, grid, s, 15.0, 10)
        report = compare_tubes(tube_a, tube_b)
        assert not report.overlap.any()
        assert report.loci == ((0, 4),)

    def test_symmetry_of_decisions(self):
        rng = np.random.default_rng(17)
        grid = TimeGrid.uniform(9)
        for trial in range(5):
            base = so3.exp_so3(np.stack([0.4 * np.sin(2 * np.pi * grid.t + trial),
                                         0.2 * grid.t, 0.1 * np.cos(grid.t)], -1))
            offset = rng.uniform(0.0, 0.2) * rng.standard_normal(3)
            other = base @ so3.exp_so3(np.tile(offset, (9, 1)))
            s_a = np.stack([_random_spd(rng, 0.04) for _ in range(9)])
            s_b = np.stack([_random_spd(rng, 0.04) for _ in range(9)])
            tube_a = make_tube(base, grid, s_a, rng.uniform(8, 20), 10)
            tube_b = make_tube(other, grid, s_b, rng.uniform(8, 20), 10)
            ab = compare_tubes(tube_a, tube_b)
            ba = compare_tubes(tube_b, tube_a)
            assert np.array_equal(ab.overlap, ba.overlap)

    def test_grid_mismatch(self):
        sample, _, _ = gp_sample(seed=18)
        tube = build_tube(sample, 0.05)
        other, _, _ = gp_sample(k=21, seed=19)
        with pytest.raises(GridMismatch):
            compare_tubes(tube, build_tube(other, 0.05))

    def test_touching_tubes_via_direct_minimization(self):
        # Spherical cross sections at known separation: the minimum of b's
        # form over a's ball has closed form; check against the solver.
        grid = TimeGrid.uniform(2)
        eye = np.broadcast_to(np.eye(3), (2, 3, 3)).copy()
        sep = 0.3
        for gap_sign in (+1.0, -1.0):
            r_a = 0.1
            r_b = sep - r_a - gap_sign * 0.02
            s = np.broadcast_to(np.eye(3), (2, 3, 3)).copy()
            n_a, n_b = 10, 12
            h_a = n_a * r_a ** 2
            h_b = n_b * r_b ** 2
            displaced = eye @ so3.exp_so3([sep, 0.0, 0.0])
            report = compare_tubes(make_tube(eye, grid, s, h_a, n_a),
                                   make_tube(displaced, grid, s, h_b, n_b))
            assert report.overlap.all() == (gap_sign < 0)

    def test_coincident_centers_raise_no_warning(self):
        grid = TimeGrid.uniform(5)
        center = so3.exp_so3(np.stack([0.3 * grid.t, 0.1 * np.sin(grid.t), 0.2 * grid.t], -1))
        rng = np.random.default_rng(31)
        tube_a, tube_b = (make_tube(center, grid, np.stack([_random_spd(rng, scale)
                                                            for _ in range(5)]), 12.0, 8)
                          for scale in (0.05, 0.2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert compare_tubes(tube_a, tube_b).overlap.all()
            assert compare_tubes(tube_b, tube_a).overlap.all()

    @staticmethod
    def _flat_against_round():
        # a: semi-axes 0.05 along the separation, 0.2 across; b: a ball of
        # radius 0.2 centered 0.3 away.  The bounding radii (0.2 + 0.2)
        # exceed the separation and a's tip toward b lies outside b, so no
        # certificate settles the point and the search must.
        grid = TimeGrid.uniform(2)
        eye = np.broadcast_to(np.eye(3), (2, 3, 3)).copy()
        s_a = np.broadcast_to(np.diag([0.05 ** 2, 0.2 ** 2, 0.2 ** 2]), (2, 3, 3)).copy()
        displaced = eye @ so3.exp_so3([0.3, 0.0, 0.0])
        return (make_tube(eye, grid, s_a, 10.0, 10),
                make_tube(displaced, grid, 0.04 * eye, 10.0, 10))

    @pytest.fixture
    def searches(self, monkeypatch):
        """The result of every SLSQP run, in order."""
        results = []
        minimize = scipy.optimize.minimize

        def recorded(*args, **kwargs):
            results.append(minimize(*args, **kwargs))
            return results[-1]
        monkeypatch.setattr(scipy.optimize, "minimize", recorded)
        return results

    def test_search_decides_uncertified_points(self, searches):
        report = compare_tubes(*self._flat_against_round())
        assert not report.overlap.any()
        assert len(searches) == 4 and all(res.success for res in searches)   # 2 points x 2 starts

    def test_failed_search_raises_no_convergence(self, monkeypatch):
        # A search that stops unconverged above the threshold must not be
        # reported as a non-overlap.
        def stalled(fun, x0, **kwargs):
            return scipy.optimize.OptimizeResult(x=np.asarray(x0), success=False,
                                                 message="Iteration limit reached")
        monkeypatch.setattr(scipy.optimize, "minimize", stalled)
        with pytest.raises(NoConvergence, match="t = 0.0000: Iteration limit reached"):
            compare_tubes(*self._flat_against_round())

    @pytest.mark.parametrize("excess, overlaps, runs", [
        (-1e-4, True, 0),     # a's edge point toward b's center certifies overlap
        (5e-7, True, 0),      # within one tube's margin: the widened edge point certifies it
        (1.01e-6, True, 0),   # beyond one tube's margin, within the two tubes' margins
        (3e-6, False, 0),     # beyond the margins of both tubes: the reach certificate
        (1e-5, False, 0),     # the centers lie beyond the reach of both tubes
    ])
    def test_near_tie_at_one_grid_point(self, searches, excess, overlaps, runs):
        # Isotropic tubes on one center curve, except at t = 0.5, where b's
        # center lies d = r_a + r_b sqrt(1 + excess) from a's.  There a's
        # cross-section and b's tube are geodesic balls of radii r_a and r_b,
        # so the minimum of b's form over a's is ((d - r_a) / r_b)^2 = 1 + excess.
        # Widened by 1e-6 each, the tubes meet up to excess about (r_a + r_b) / r_b * 1e-6,
        # whichever of them is passed first.
        grid = TimeGrid.uniform(5)
        base = so3.exp_so3(np.stack([0.3 * grid.t, 0.1 * np.sin(grid.t), 0.2 * grid.t], -1))
        eye = np.broadcast_to(np.eye(3), (5, 3, 3))
        for r_a, r_b in ((0.02, 0.015), (0.015, 0.02)):
            other = base.copy()
            d = r_a + r_b * np.sqrt(1.0 + excess)
            other[2] = base[2] @ so3.exp_so3(d * np.array([2.0, -1.0, 2.0]) / 3.0)
            a = make_tube(base, grid, r_a ** 2 * eye, 10.0, 10)
            b = make_tube(other, grid, r_b ** 2 * eye, 12.0, 12)
            for first, second in ((a, b), (b, a)):
                searches.clear()
                report = compare_tubes(first, second)
                assert report.overlap.tolist() == [True, True, overlaps, True, True]
                assert len(searches) == runs and all(res.success for res in searches)

    @pytest.mark.parametrize("r_b", [0.01, 1e-17])
    def test_b_center_inside_a_certifies_overlap(self, searches, r_b):
        # Isotropic tubes on one center curve, except at t = 0.5, where the centers
        # lie 0.03 apart: b's center (r_b = 0.01) is inside a's cross-section
        # (r_a = 0.05), a's center is outside b's tube.  b's center certifies the
        # overlap; a's boundary point toward it lies 0.02 beyond it, outside b.
        # With r_b = 1e-17 (a hand-built S_b = 1e-34 I) b's form read at a
        # round-off distance of 1e-16 from b's center exceeds 1, so b's center
        # must be decided exactly, at t = 0.5 and at the points of equal centers.
        grid = TimeGrid.uniform(5)
        base = so3.exp_so3(np.stack([0.3 * grid.t, 0.1 * np.sin(grid.t), 0.2 * grid.t], -1))
        eye = np.broadcast_to(np.eye(3), (5, 3, 3))
        other = base.copy()
        other[2] = base[2] @ so3.exp_so3(0.03 * np.array([2.0, -1.0, 2.0]) / 3.0)
        a = make_tube(base, grid, 0.05 ** 2 * eye, 10.0, 10)
        b = make_tube(other, grid, r_b ** 2 * eye, 12.0, 12)
        for first, second in ((a, b), (b, a)):
            searches.clear()
            assert compare_tubes(first, second).overlap.all()
            assert len(searches) == 0

    def test_wide_and_near_pi_fixtures(self):
        # Beyond criterion 9: separations up to 1.2 rad, cross-section scales
        # up to 0.3 and, in every third fixture, displacements within 1e-2 of
        # pi.  The flags (1 = overlap) are pinned; a declared non-overlap must
        # also survive a sampled search of a's ellipsoid for a point in b.
        grid = TimeGrid.uniform(7)
        flags = []
        for fixture in range(60):
            rng = np.random.default_rng((29, fixture))
            base = so3.exp_so3(np.stack([0.5 * np.sin(2 * np.pi * grid.t + fixture),
                                         0.3 * grid.t, 0.2 * np.cos(3 * grid.t)], -1))
            axis = rng.standard_normal((7, 3))
            axis /= np.linalg.norm(axis, axis=1, keepdims=True)
            sep = (np.pi - rng.uniform(0.0, 1e-2, 7) if fixture % 3 == 2
                   else rng.uniform(0.0, 1.2, 7))
            tubes = []
            for center in (base, base @ so3.exp_so3(sep[:, None] * axis)):
                scale = rng.uniform(0.02, 0.3)
                s = np.stack([_random_spd(rng, scale) for _ in range(7)])
                tubes.append(make_tube(center, grid, s, rng.uniform(8.0, 25.0),
                                       int(rng.integers(6, 15))))
            a, b = tubes
            ab, ba = compare_tubes(a, b), compare_tubes(b, a)
            assert np.array_equal(ab.overlap, ba.overlap), fixture
            flags.append("".join("1" if f else "0" for f in ab.overlap))
            for k in np.flatnonzero(~ab.overlap):
                z = rng.uniform(-1.0, 1.0, (10000, 3))
                z = z[np.einsum("ij,ij->i", z, z) <= 1.0]
                u = z @ (np.sqrt(a.hquant / a.n) * np.linalg.cholesky(a.s[k])).T
                m = so3.log_so3(b.center.values[k].T @ a.center.values[k] @ so3.exp_so3(u),
                                validate=False)
                q = b.n * np.einsum("ij,ij->i", m, np.linalg.solve(b.s[k], m.T).T)
                assert q.min() > b.hquant, (fixture, k)
        assert flags == [
            "0000000", "0001100", "0000000", "0000010", "0110111", "0000000", "0100001",
            "0010000", "0000000", "0000010", "0000000", "0000000", "1000000", "1000000",
            "0000000", "0001010", "0000001", "0000000", "0000101", "0000011", "0000000",
            "0000011", "0001000", "0000000", "0100000", "0001000", "0000000", "0000000",
            "0100000", "0000000", "1100000", "0100000", "0000000", "0010000", "0010001",
            "0000000", "0000000", "0000000", "0000000", "0000000", "1000000", "0000000",
            "0001101", "0000000", "0000000", "0000000", "1101000", "0000000", "1000000",
            "0000000", "0000000", "0000110", "0001010", "0000000", "1000001", "1011010",
            "0000000", "0000100", "0000000", "0000000"]


def _random_spd(rng, scale):
    B = rng.standard_normal((3, 3))
    S = B @ B.T + 0.5 * np.eye(3)
    return scale ** 2 * S / np.linalg.norm(S, 2)


class TestOverlapReport:
    def test_loci_are_maximal_false_runs(self):
        grid = TimeGrid.uniform(10)
        flags = np.array([True, False, False, True, False, True, True, False,
                          False, False])
        report = OverlapReport(grid, flags)
        assert report.loci == ((1, 2), (4, 4), (7, 9))
        assert OverlapReport(grid, np.ones(10, dtype=bool)).loci == ()
        assert OverlapReport(grid, np.zeros(10, dtype=bool)).loci == ((0, 9),)

    def test_partition_covers_grid_exactly_once(self):
        grid = TimeGrid.uniform(12)
        rng = np.random.default_rng(20)
        flags = rng.uniform(size=12) < 0.5
        report = OverlapReport(grid, flags)
        marked = np.zeros(12, dtype=int)
        for i, j in report.loci:
            marked[i:j + 1] += 1
        assert np.array_equal(marked == 1, ~flags)
        assert np.array_equal(marked == 0, flags)
