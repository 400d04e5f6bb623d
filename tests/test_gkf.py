import math

import numpy as np
import pytest
from scipy import integrate

import rotubes as rt
from rotubes import gkf
from rotubes.curves import TimeGrid
from rotubes.errors import InvalidDof, NoConvergence, NoRoot, ZeroResidualColumn
from rotubes.gkf import EcContext, expected_ec, lkc_estimate, solve_quantile
from rotubes.simulation import _error_paths


def tail_by_quadrature(t, n):
    """Upper tail of Student's t with n-1 dof, integrating the density."""
    nu = n - 1
    const = math.gamma(n / 2.0) / (math.sqrt(nu * math.pi) * math.gamma(nu / 2.0))
    value, err = integrate.quad(lambda u: const * (1.0 + u * u / nu) ** (-n / 2.0),
                                t, np.inf)
    assert err < 1e-7
    return value


class TestEcDensities:
    def test_order_zero_at_zero(self):
        assert gkf._ec_densities(0.0, 10)[0] == pytest.approx(0.5, abs=1e-14)

    def test_order_one_at_zero(self):
        assert gkf._ec_densities(0.0, 10)[1] == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-15)

    def test_order_two_at_zero(self):
        assert gkf._ec_densities(0.0, 10)[2] == 0.0

    @pytest.mark.parametrize("n", [4, 10, 31])
    def test_tail_matches_quadrature(self, n):
        for t in np.linspace(0.0, 8.0, 17):
            assert gkf._ec_densities(t, n)[0] == pytest.approx(tail_by_quadrature(t, n),
                                                               abs=1e-8)

    def test_tail_example(self):
        assert gkf._ec_densities(2.0, 10)[0] == pytest.approx(tail_by_quadrature(2.0, 10),
                                                              abs=1e-10)

    def test_invalid_dof(self):
        with pytest.raises(InvalidDof):
            EcContext(2, 1.0)

    def test_invalid_order(self):
        # Densities exist for orders 0..3 only.
        with pytest.raises(ValueError):
            rho0, rho1, rho2, rho3, rho4 = gkf._ec_densities(1.0, 10)


class TestLkcEstimate:
    def test_time_constant_residuals_give_zero(self):
        rng = np.random.default_rng(0)
        x = np.repeat(rng.standard_normal((5, 1, 3)), 7, axis=1)
        assert lkc_estimate(x) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 11, 3))
        base = lkc_estimate(x)
        assert lkc_estimate(37.5 * x) == pytest.approx(base, rel=1e-12)

    def test_trigonometric_process_analytic_value(self):
        # Unit-variance trigonometric process: derivative sd is pi/2 at all t.
        grid = TimeGrid.uniform(101)
        rng = np.random.default_rng(0)
        a = np.stack([_error_paths(1, 1, grid, rng, (200,)) for _ in range(3)], axis=-1)
        x = a - a.mean(axis=0, keepdims=True)
        assert lkc_estimate(x) == pytest.approx(np.pi / 2.0, abs=0.05)

    def test_zero_column_raises(self):
        x = np.ones((5, 4, 3))
        x[:, 2, 1] = 0.0
        with pytest.raises(ZeroResidualColumn):
            lkc_estimate(x)

    def test_residuals_of_the_wrong_shape_are_refused(self):
        # A (K, 3) array, such as the residuals of a center, is not a sample's.
        with pytest.raises(ValueError, match=r"shape \(N, K, 3\)"):
            lkc_estimate(np.ones((4, 3)))


class TestExpectedEc:
    def test_vanishes_at_infinity(self):
        ctx = EcContext(10, np.pi / 2.0)
        assert expected_ec(1e8, ctx) == pytest.approx(0.0, abs=1e-12)

    def test_unit_value_at_zero_without_lkc(self):
        assert expected_ec(0.0, EcContext(10, 0.0)) == pytest.approx(1.0, abs=1e-14)

    def test_unit_value_at_zero_with_lkc(self):
        # The two L1 terms cancel at h = 0 for every dof.
        for n in (4, 10, 31):
            assert expected_ec(0.0, EcContext(n, 2.0)) == pytest.approx(1.0, abs=1e-12)

    def test_decreasing_past_mode(self):
        ctx = EcContext(8, 1.2)
        hs = np.linspace(5.0, 400.0, 200)
        vals = np.array([expected_ec(h, ctx) for h in hs])
        assert np.all(np.diff(vals) < 0.0)

    @pytest.mark.parametrize("n", [4, 5, 10, 31])
    def test_is_the_density_combination_exactly(self, n):
        # One formula: expected_ec is 2 rho0 + 4 pi rho2 + L1 (2 rho1 + 4 pi rho3)
        # of the EC densities, to the last bit.
        ctx = EcContext(n, 1.7)
        for h in np.concatenate([[0.0], np.geomspace(1e-3, 1e7, 49)]):
            root = np.sqrt(h)
            rho = gkf._ec_densities(root, n)
            combination = (2.0 * rho[0] + 4.0 * np.pi * rho[2]
                           + ctx.l1 * (2.0 * rho[1] + 4.0 * np.pi * rho[3]))
            assert expected_ec(h, ctx) == combination, h


class TestSolveQuantile:
    def test_residual_equation_value(self):
        for alpha in (0.5, 0.25, 0.1, 0.05, 0.01):
            ctx = EcContext(10, np.pi / 2.0)
            h = solve_quantile(alpha, ctx)
            assert expected_ec(h, ctx) == pytest.approx(alpha, abs=1e-8)

    def test_monotone_in_alpha(self):
        ctx = EcContext(10, np.pi / 2.0)
        assert solve_quantile(0.05, ctx) > solve_quantile(0.10, ctx)

    def test_median_root_without_lkc_matches_direct_bisection(self):
        ctx = EcContext(10, 0.0)
        h = solve_quantile(0.5, ctx)
        lo, hi = 0.0, 100.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if expected_ec(mid, ctx) >= 0.5:
                lo = mid
            else:
                hi = mid
        assert h == pytest.approx(0.5 * (lo + hi), abs=1e-7)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            solve_quantile(0.7, EcContext(10, 1.0))
        with pytest.raises(ValueError):
            solve_quantile(0.0, EcContext(10, 1.0))

    def test_bisection_tolerance_contract(self):
        ctx = EcContext(6, 3.0)
        h = solve_quantile(0.05, ctx)
        assert abs(expected_ec(h, ctx) - 0.05) <= 1e-8

    @pytest.mark.parametrize("n, pinned", [(5, None), (6, "0x1.8dae12064a0acp+13")])
    def test_large_root_stops_at_float_resolution(self, n, pinned, monkeypatch):
        # Roots beyond ~8e3 are more than 1e-12 from their float neighbours.
        # Bisection stops on adjacent floats: n = 5 used to raise a spurious
        # NonMonotoneBracket there, n = 6 to run out 200 unchecked iterations
        # (its root is pinned to the value it returned then).
        ctx = EcContext(n, 100.0)
        evals = []

        def counted(h, c):
            evals.append(h)
            return expected_ec(h, c)

        monkeypatch.setattr(gkf, "expected_ec", counted)
        h = solve_quantile(0.05, ctx)
        assert h > 1e4
        assert abs(expected_ec(h, ctx) - 0.05) <= 1e-8
        assert len(evals) < 200
        if pinned is not None:
            assert h == float.fromhex(pinned)

    def test_jump_across_alpha_raises_no_convergence(self, monkeypatch):
        # Strictly decreasing, but it jumps from above to below alpha at h = 5,
        # so no h meets the value tolerance: a typed error, not a midpoint.
        def jump(h, ctx):
            return 0.3 * math.exp(-h / 1e4) + (0.4 if h < 5.0 else 0.0)

        monkeypatch.setattr(gkf, "expected_ec", jump)
        with pytest.raises(NoConvergence):
            solve_quantile(0.5, EcContext(10, 1.0))

    def test_no_root_at_three_dof_names_the_limit(self):
        # With N = 4, expected_ec tends to 2 L1/pi = 1.27 > alpha as h grows.
        with pytest.raises(NoRoot, match=r"N = 4, L1 = 2;.*2 L1/pi = 1\.27324"):
            solve_quantile(0.05, EcContext(4, 2.0))


class TestGkfAgainstMonteCarlo:
    def test_quantile_tracks_simulation(self):
        # Small-rep version of the acceptance cross-check.
        spec = rt.ErrorProcessSpec(1, 1, 1, 0.05)
        h_mc = rt.mc_quantile_oracle(spec, n=10, reps=4000, alpha=0.05,
                                     grid=TimeGrid.uniform(51), seed=5)
        h_gkf = solve_quantile(0.05, EcContext(10, np.pi / 2.0))
        assert abs(h_gkf - h_mc) / h_mc <= 0.15
