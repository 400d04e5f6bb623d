import numpy as np
import pytest
from scipy.linalg import expm, logm
from scipy.spatial.transform import Rotation

import rotubes as rt
from rotubes import so3
from rotubes.curves import (CurveSample, RotationCurve, SpatioTemporalAction, TimeGrid,
                            _bracket, _geodesic, apply_action, curve_length, length_loss,
                            pointwise_extrinsic_mean, residuals)
from rotubes.errors import GridMismatch


def smooth_curve(grid, amp=0.4, phase=0.0):
    t = grid.t
    path = np.stack([amp * np.sin(2.0 * np.pi * t + phase),
                     0.5 * amp * t * t,
                     0.3 * amp * np.cos(3.0 * t)], axis=-1)
    return RotationCurve(grid, so3.exp_so3(path))


def interpolate(curve, s):
    """Geodesic interpolation of the curve at times s, as apply_action does it."""
    k, u = _bracket(curve.grid.t, s)
    return _geodesic(curve.values[k], curve.values[k + 1], u)


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid([0.0])
        with pytest.raises(ValueError):
            TimeGrid([0.0, 0.5, 0.4, 1.0])
        with pytest.raises(ValueError):
            TimeGrid([0.1, 1.0])
        with pytest.raises(ValueError):
            TimeGrid([0.0, 0.9])

    def test_uniform_equality(self):
        assert TimeGrid.uniform(11) == TimeGrid.uniform(11)
        assert TimeGrid.uniform(11) != TimeGrid.uniform(12)


class TestCurveTypes:
    def test_rotation_curve_validation(self):
        grid = TimeGrid.uniform(3)
        with pytest.raises(ValueError):
            RotationCurve(grid, np.zeros((2, 3, 3)))
        bad = np.broadcast_to(np.eye(3) * 1.01, (3, 3, 3)).copy()
        with pytest.raises(rt.InvalidRotation):
            RotationCurve(grid, bad)


class TestPointwiseExtrinsicMean:
    def test_single_curve_is_fixed_point(self):
        curve = smooth_curve(TimeGrid.uniform(9))
        mean = pointwise_extrinsic_mean(CurveSample(curve.grid, np.stack([curve.values])))
        assert np.abs(mean.values - curve.values).max() <= 1e-12

    def test_symmetric_pair_averages_to_identity(self):
        grid = TimeGrid.uniform(5)
        theta = 0.3
        plus = RotationCurve(grid, np.tile(so3.exp_so3([theta, 0, 0]), (5, 1, 1)))
        minus = RotationCurve(grid, np.tile(so3.exp_so3([-theta, 0, 0]), (5, 1, 1)))
        mean = pointwise_extrinsic_mean(CurveSample(grid, np.stack([plus.values, minus.values])))
        assert np.abs(mean.values - np.eye(3)).max() <= 1e-12

    def test_matches_brute_force_minimizer(self):
        from test_so3 import brute_force_nearest_rotation
        # Constant curves: the mean minimizes the average squared Frobenius
        # distance, equivalently the distance to the entrywise average.
        rng = np.random.default_rng(21)
        grid = TimeGrid.uniform(2)
        mats = Rotation.random(5, rng=rng).as_matrix()
        sample = CurveSample(grid, np.broadcast_to(mats[:, None], (5, 2, 3, 3)).copy())
        mean = pointwise_extrinsic_mean(sample).values[0]
        objective = lambda mu: np.square(mu - mats).sum(axis=(1, 2)).mean()
        best = brute_force_nearest_rotation(mats.mean(axis=0), rng)
        assert objective(mean) <= objective(best) + 1e-9
        assert so3.geodesic_distance(mean, best) <= 1e-2

    def test_equivariance_under_rotations(self):
        rng = np.random.default_rng(22)
        grid = TimeGrid.uniform(7)
        sample = CurveSample(grid, np.stack([smooth_curve(grid, 0.3, p).values for p in range(5)]))
        P, Q = Rotation.random(2, rng=rng).as_matrix()
        acted = CurveSample(grid, P @ sample.values @ Q)
        lhs = pointwise_extrinsic_mean(acted).values
        rhs = P @ pointwise_extrinsic_mean(sample).values @ Q
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_consistency_in_sample_size(self):
        # Median sup-distance to the center shrinks as N grows.
        grid = TimeGrid.uniform(41)
        center = RotationCurve.identity(grid)
        spec = rt.ErrorProcessSpec(1, 1, 1, 0.2)
        med = {}
        for n in (5, 20, 80):
            dists = []
            for rep in range(100):
                sample, _ = rt.sample_gp_sample(spec, center, grid, n, (37, n, rep))
                pem = pointwise_extrinsic_mean(sample)
                dists.append(so3.geodesic_distance(pem.values, center.values).max())
            med[n] = np.median(dists)
        assert med[5] > med[20] > med[80]


class TestResiduals:
    def test_identical_curves_zero_residuals(self):
        curve = smooth_curve(TimeGrid.uniform(6))
        sample = CurveSample(curve.grid, np.stack([curve.values] * 3))
        _, x, xbar = residuals(sample, center=curve)
        assert np.abs(x).max() <= 1e-12
        assert np.abs(xbar).max() <= 1e-12

    def test_hand_built_pair_matches_direct_formula(self):
        # Independent evaluation through scipy's expm/logm.
        grid = TimeGrid.uniform(2)
        v, w = np.array([0.3, -0.1, 0.2]), np.array([-0.2, 0.25, 0.05])
        R1, R2 = expm(so3.hat(v)), expm(so3.hat(w))
        sample = CurveSample(grid, np.stack([np.tile(R1, (2, 1, 1)),
                                             np.tile(R2, (2, 1, 1))]))
        _, x, _ = residuals(sample)
        mean = so3.project_to_so3((R1 + R2) / 2.0)
        for n, R in enumerate([R1, R2]):
            direct = np.real(logm(mean.T @ R))
            expected = np.array([direct[2, 1], direct[0, 2], direct[1, 0]])
            assert np.allclose(x[n, 0], expected, atol=1e-10)

    def test_population_residual_tracks_generating_mean(self):
        # Population residual = minus the mean generating path + O(sigma^2).
        grid = TimeGrid.uniform(51)
        center = RotationCurve.identity(grid)
        sigma = 0.01
        sample, paths = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, sigma),
                                            center, grid, 8, 99)
        _, _, xbar = residuals(sample, center=center)
        err = np.linalg.norm(xbar + paths.mean(axis=0), axis=1).max()
        assert err <= 10.0 * sigma ** 2
        assert err < 0.1 * sigma

    def test_grid_mismatch(self):
        curve = smooth_curve(TimeGrid.uniform(4))
        sample = CurveSample(curve.grid, np.stack([curve.values] * 2))
        with pytest.raises(GridMismatch):
            residuals(sample, center=RotationCurve.identity(TimeGrid.uniform(5)))


class TestActions:
    def test_identity_action(self):
        curve = smooth_curve(TimeGrid.uniform(11))
        out = apply_action(curve, SpatioTemporalAction.identity())
        assert np.abs(out.values - curve.values).max() == 0.0

    def test_identity_warp_knots(self):
        curve = smooth_curve(TimeGrid.uniform(11))
        act = SpatioTemporalAction(np.eye(3), np.eye(3),
                                   np.array([[0.0, 0.0], [0.4, 0.4], [1.0, 1.0]]))
        out = apply_action(curve, act)
        assert np.abs(out.values - curve.values).max() <= 1e-14

    def test_warp_validation(self):
        with pytest.raises(ValueError):
            SpatioTemporalAction(np.eye(3), np.eye(3), np.array([[0.0, 0.0], [0.9, 1.0]]))
        with pytest.raises(ValueError):
            SpatioTemporalAction(np.eye(3), np.eye(3),
                                 np.array([[0.0, 0.0], [0.5, 0.7], [0.4, 0.9], [1.0, 1.0]]))


class TestInterpolation:
    def test_exact_at_grid_points(self):
        curve = smooth_curve(TimeGrid.uniform(13))
        for k, t in enumerate(curve.grid.t):
            got = interpolate(curve, np.array([t]))[0]
            assert np.array_equal(got, curve.values[k])

    def test_geodesic_bisection(self):
        grid = TimeGrid([0.0, 1.0])
        theta = 0.8
        curve = RotationCurve(grid, np.stack([np.eye(3), so3.exp_so3([theta, 0, 0])]))
        mid = interpolate(curve, np.array([0.5]))[0]
        assert np.allclose(mid, so3.exp_so3([theta / 2.0, 0, 0]), atol=1e-12)

    def test_quadratic_error_decay(self):
        # Interpolation error shrinks ~4x when the grid is refined 2x.
        def path(t):
            return np.stack([0.5 * np.sin(2.0 * np.pi * t), 0.4 * t * t,
                             0.3 * np.cos(3.0 * t)], axis=-1)

        s = np.linspace(0.013, 0.987, 101)
        truth = so3.exp_so3(path(s))
        errs = {}
        for k in (26, 51, 101, 201):
            grid = TimeGrid.uniform(k)
            curve = RotationCurve(grid, so3.exp_so3(path(grid.t)))
            got = interpolate(curve, s)
            errs[k] = so3.geodesic_distance(got, truth).max()
        for k in (26, 51, 101):
            ratio = errs[k] / errs[2 * k - 1]
            assert 2.5 <= ratio <= 6.0, (k, errs)


class TestLength:
    def test_constant_curve_zero(self):
        assert curve_length(RotationCurve.identity(TimeGrid.uniform(20))) == 0.0

    def test_one_parameter_subgroup_speed(self):
        grid = TimeGrid.uniform(200)
        vals = so3.exp_so3(np.outer(grid.t * np.pi / 2.0, [1.0, 0.0, 0.0]))
        assert curve_length(RotationCurve(grid, vals)) == pytest.approx(np.pi / 2.0,
                                                                        abs=1e-4)

    def test_refinement_consistency(self):
        def make(k):
            grid = TimeGrid.uniform(k)
            path = np.stack([0.5 * np.sin(2.0 * np.pi * grid.t), 0.4 * grid.t ** 2,
                             0.3 * np.cos(3.0 * grid.t)], axis=-1)
            return curve_length(RotationCurve(grid, so3.exp_so3(path)))

        l1, l2, l3 = make(26), make(51), make(101)
        # Second-order quadrature: successive differences shrink ~4x.
        assert 2.5 <= (l2 - l1) / (l3 - l2) <= 6.0


class TestLengthLoss:
    def test_self_loss_zero(self):
        curve = smooth_curve(TimeGrid.uniform(15))
        delta, d1, d2 = length_loss(curve, curve)
        assert delta == pytest.approx(0.0, abs=1e-12)
        assert d1 == pytest.approx(0.0, abs=1e-12)
        assert d2 == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        grid = TimeGrid.uniform(15)
        g, h = smooth_curve(grid, 0.4), smooth_curve(grid, 0.25, 1.0)
        assert length_loss(g, h)[0] == pytest.approx(length_loss(h, g)[0], abs=1e-12)

    def test_matches_direct_recomputation(self):
        grid = TimeGrid.uniform(9)
        g, h = smooth_curve(grid, 0.4), smooth_curve(grid, 0.3, 2.0)
        delta, d1, d2 = length_loss(g, h)
        prod1 = [g.values[k] @ h.values[k].T for k in range(9)]
        prod2 = [g.values[k].T @ h.values[k] for k in range(9)]
        ref1 = sum(so3.geodesic_distance(prod1[k], prod1[k + 1]) for k in range(8))
        ref2 = sum(so3.geodesic_distance(prod2[k], prod2[k + 1]) for k in range(8))
        assert d1 == pytest.approx(ref1, abs=1e-12)
        assert d2 == pytest.approx(ref2, abs=1e-12)
        assert delta == pytest.approx(0.5 * (ref1 + ref2), abs=1e-12)

    def test_invariant_under_joint_warp_on_pullback_grid(self):
        # Warping both curves and evaluating on the pulled-back grid permutes
        # the summands of the length quadrature, so the loss is unchanged.
        grid_y = TimeGrid.uniform(21)
        knots = np.array([[0.0, 0.0], [0.25, 0.4], [0.7, 0.8], [1.0, 1.0]])
        act = SpatioTemporalAction(np.eye(3), np.eye(3), knots)
        grid_x = TimeGrid(act.warp(grid_y.t))
        g = smooth_curve(grid_x, 0.4)
        h = smooth_curve(grid_x, 0.3, 2.0)
        before = length_loss(g, h)
        after = length_loss(apply_action(g, act, grid_y), apply_action(h, act, grid_y))
        assert before[0] == pytest.approx(after[0], abs=1e-10)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            length_loss(smooth_curve(TimeGrid.uniform(4)),
                        smooth_curve(TimeGrid.uniform(5)))


class TestResidualApproximationOrder:
    def test_sample_residual_error_is_quadratic(self):
        grid = TimeGrid.uniform(51)
        center = RotationCurve.identity(grid)
        med = {}
        for sigma in (0.08, 0.04):
            errs = []
            for rep in range(40):
                sample, paths = rt.sample_gp_sample(
                    rt.ErrorProcessSpec(1, 1, 1, sigma), center, grid, 10, (71, rep))
                _, x, _ = residuals(sample)
                errs.append(np.abs(x - (paths - paths.mean(0))).max())
            med[sigma] = np.median(errs)
        assert 2.5 <= med[0.08] / med[0.04] <= 6.0

    def test_population_error_bounded_relative_to_sigma_squared(self):
        grid = TimeGrid.uniform(51)
        center = RotationCurve.identity(grid)
        ratios = []
        for sigma in (0.08, 0.04, 0.02):
            errs = []
            for rep in range(40):
                sample, paths = rt.sample_gp_sample(
                    rt.ErrorProcessSpec(1, 1, 1, sigma), center, grid, 10, (72, rep))
                _, _, xbar = residuals(sample, center=center)
                errs.append(np.linalg.norm(xbar + paths.mean(0), axis=1).max())
            ratios.append(np.median(errs) / sigma ** 2)
        # Linear order would grow 4x from sigma .08 to .02; bound the growth.
        assert ratios[-1] <= 4.0 * ratios[0]
        assert ratios[-1] <= 2.0 * ratios[0]
