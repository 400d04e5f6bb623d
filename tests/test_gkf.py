import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import rotubes as rt
from rotubes import gkf
from rotubes.curves import TimeGrid
from rotubes.errors import (InvalidDof, NoConvergence, NonMonotoneBracket, NoRoot,
                            ZeroResidualColumn)
from rotubes.gkf import EcContext, expected_ec, lkc_estimate, solve_quantile
from rotubes.simulation import _error_paths


def full_bisection(alpha, ctx):
    """solve_quantile as it was written with an expected_ec call at every midpoint:
    the float-for-float reference of the solver that evaluates only steps in doubt."""
    if not (0.0 < alpha <= 0.5):
        raise ValueError(f"alpha must be in (0, 0.5], got {alpha}")

    def f(h: float) -> float:
        return gkf.expected_ec(h, ctx)

    lo, f_lo = 0.0, None
    h = 1.0
    while h <= 100.0 and (f_h := f(h)) >= 0.5:
        lo, f_lo = h, f_h
        h *= 2.0
    if f_lo is None:
        f_lo = f(lo)
    hi = 100.0
    while (f_hi := f(hi)) >= alpha:
        hi *= 2.0
        if hi > 1e15:
            limit = f"; at 3 dof its limit is 2 L1/pi = {2 * ctx.l1 / math.pi:.6g}"
            raise NoRoot(f"expected_ec never falls below alpha = {alpha} for N = {ctx.n}, "
                         f"L1 = {ctx.l1:.6g}" + (limit if ctx.n == 4 else ""))

    checked = False
    while True:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        width = hi - lo
        if width < gkf._VALUE_TOL * max(1.0, lo) and not checked:
            if not (f_lo > f_mid > f_hi):
                raise NonMonotoneBracket(
                    f"expected_ec not strictly decreasing on [{lo}, {hi}]")
            checked = True
        adjacent = mid in (lo, hi)
        if (width < gkf._BRACKET_TOL or adjacent) and abs(f_mid - alpha) <= gkf._VALUE_TOL:
            return mid
        if adjacent:
            raise NoConvergence(f"expected_ec misses alpha = {alpha} by {f_mid - alpha:.3g} "
                                f"at h = {mid!r}, between adjacent floats")
        if f_mid >= alpha:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid


def outcome(solver, alpha, ctx):
    """The root as float.hex, or the type and message of the error raised."""
    try:
        return solver(alpha, ctx).hex()
    except (NoRoot, NoConvergence, NonMonotoneBracket) as err:
        return type(err).__name__, str(err)


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

    @pytest.mark.parametrize("n", [10.5, 10.0, np.float64(10.0), True])
    def test_non_integer_dof_is_refused(self, n):
        with pytest.raises(InvalidDof, match="integer N"):
            EcContext(n, 1.0)

    def test_numpy_integer_dof_is_accepted(self):
        assert solve_quantile(0.05, EcContext(np.int64(10), 1.0)) == solve_quantile(
            0.05, EcContext(10, 1.0))

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

    @given(h=st.floats(0.0, 1e15), n=st.integers(4, 60), l1=st.floats(0.0, 50.0))
    @example(h=0.0, n=4, l1=0.0)
    @example(h=37.0, n=10, l1=4.3)
    def test_equals_the_array_formula_bit_for_bit(self, h, n, l1):
        # The formula as it was evaluated on 0-d arrays with the stdtr ufunc;
        # the scalar evaluation must round the same way everywhere.
        t = np.sqrt(np.asarray(h, dtype=float))
        nu = n - 1
        base = (1.0 + t * t / nu) ** (1.0 - n / 2.0)
        rho0, rho1 = special.stdtr(nu, -t), base / (2.0 * np.pi)
        gamma_ratio = math.exp(special.gammaln(n / 2.0) - special.gammaln(nu / 2.0))
        rho2 = (2.0 * np.pi) ** -1.5 * gamma_ratio / math.sqrt(nu / 2.0) * t * base
        rho3 = (2.0 * np.pi) ** -2.0 * ((n - 2.0) / nu * t * t - 1.0) * base
        reference = 2.0 * rho0 + 4.0 * np.pi * rho2 + l1 * (2.0 * rho1 + 4.0 * np.pi * rho3)
        value = expected_ec(h, EcContext(n, l1))
        assert type(value) is float
        assert value == float(reference)


    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
    def test_h_outside_the_domain_is_refused(self, h):
        with pytest.raises(ValueError, match="h must be finite and nonnegative"):
            expected_ec(h, EcContext(10, 2.0))


class TestSolveQuantile:
    @pytest.mark.parametrize("alpha", [True, "0.05", None])
    def test_alpha_must_be_a_number(self, alpha):
        # The float-field rule: a Real that is not a bool, named in the error.
        with pytest.raises(ValueError, match=r"^alpha must be in \(0, 0\.5\], got "):
            solve_quantile(alpha, EcContext(10, 1.0))

    def test_numpy_alpha_gives_the_same_root(self):
        ctx = EcContext(10, 1.0)
        assert solve_quantile(np.float64(0.05), ctx).hex() == solve_quantile(0.05, ctx).hex()

    def test_float32_l1_gives_the_root_of_its_float(self):
        # float32 arithmetic in expected_ec would break the strict-decrease guard.
        l1 = np.float32(1.6)
        assert (solve_quantile(0.05, EcContext(10, l1)).hex()
                == solve_quantile(0.05, EcContext(10, float(l1))).hex())
        assert type(expected_ec(3.0, EcContext(10, l1))) is float
        alpha = np.float32(0.05)
        assert (solve_quantile(alpha, EcContext(10, 1.6)).hex()
                == solve_quantile(float(alpha), EcContext(10, 1.6)).hex())

    def test_residual_equation_value(self):
        for alpha in (0.5, 0.25, 0.1, 0.05, 0.01):
            ctx = EcContext(10, np.pi / 2.0)
            h = solve_quantile(alpha, ctx)
            assert expected_ec(h, ctx) == pytest.approx(alpha, abs=1e-8)

    def test_battery_quantiles_are_pinned(self):
        # float.hex of solve_quantile(alpha, EcContext(n, 4.3)) at the battery's
        # alphas and sample sizes.
        pins = {10: ("0x1.a86928338753cp+4", "0x1.010e38696c40ep+5", "0x1.5cabbc1fd1ca6p+5"),
                15: ("0x1.0ad6fe5967a4cp+4", "0x1.35a2a742dcee4p+4", "0x1.859ee07f6030cp+4"),
                30: ("0x1.7e0b0fbd67f40p+3", "0x1.af3dcb7aa4bc0p+3", "0x1.02ba13d4248e0p+4")}
        for n, expected in pins.items():
            got = tuple(solve_quantile(alpha, EcContext(n, 4.3)).hex()
                        for alpha in (0.15, 0.10, 0.05))
            assert got == expected, n

    def test_first_solves_in_a_fresh_interpreter_are_pinned(self):
        # scipy.special loads at the first EC evaluation of a sample size; these
        # first calls, each through that import, give the recorded floats.
        code = ("from rotubes.gkf import EcContext, expected_ec, solve_quantile; print("
                "solve_quantile(0.05, EcContext(15, 4.3)).hex(), "
                "solve_quantile(0.15, EcContext(10, 2.5)).hex(), "
                "solve_quantile(0.10, EcContext(30, 7.0)).hex(), "
                "expected_ec(12.5, EcContext(8, 3.0)).hex())")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gkf.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["0x1.859ee07f6030cp+4", "0x1.508755f02f93cp+4",
                               "0x1.e491a77f1ebf8p+3", "0x1.37ad33cd98826p-1"]

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


class TestSameFloatsAsFullBisection:
    # The solver skips expected_ec where a bisection step is not in doubt; every
    # root and every error must still be the one full bisection gives.
    @settings(max_examples=400)
    @given(n=st.integers(5, 200), l1=st.floats(0.0, 50.0),
           alpha=st.floats(0.0, 0.5, exclude_min=True))
    @example(n=10, l1=4.3, alpha=0.05)
    @example(n=30, l1=0.0, alpha=0.5)
    @example(n=200, l1=50.0, alpha=5e-324)          # NoRoot past 1e15 or a tiny root
    # Three solves that go astray when midpoints just outside [a, b] are not evaluated.
    @example(n=112, l1=12.782007218912844, alpha=0.20002098824359638)
    @example(n=6, l1=27.225726313732746, alpha=0.23034721130449304)
    @example(n=5, l1=100.0, alpha=0.07867466188590438)
    def test_roots_and_errors(self, n, l1, alpha):
        ctx = EcContext(n, l1)
        assert outcome(solve_quantile, alpha, ctx) == outcome(full_bisection, alpha, ctx)

    @pytest.mark.parametrize("n, l1", [(4, 2.0), (5, 100.0), (6, 100.0), (4, 0.0)])
    def test_no_root_and_adjacent_float_stops(self, n, l1):
        ctx = EcContext(n, l1)
        assert outcome(solve_quantile, 0.05, ctx) == outcome(full_bisection, 0.05, ctx)

    def test_jump_across_alpha(self, monkeypatch):
        def jump(h, ctx):
            return 0.3 * math.exp(-h / 1e4) + (0.4 if h < 5.0 else 0.0)

        monkeypatch.setattr(gkf, "expected_ec", jump)
        got = outcome(solve_quantile, 0.5, EcContext(10, 1.0))
        assert got[0] == "NoConvergence"
        assert got == outcome(full_bisection, 0.5, EcContext(10, 1.0))

    @pytest.mark.parametrize("freq, r, raised", [(1e9, 25.0, True), (1e10, 300.0, True),
                                                 (1e9, 20.0, False)])
    def test_wiggles_near_the_root(self, monkeypatch, freq, r, raised):
        # At or above alpha for h < r and below it for h > r, a few floats around r
        # aside, but not monotone at the scale of the strict-decrease guard.
        def wiggle(h, ctx):
            return 0.05 * math.exp((r - h) * (1.01 + math.sin(freq * h)) / r)

        monkeypatch.setattr(gkf, "expected_ec", wiggle)
        got = outcome(solve_quantile, 0.05, EcContext(10, 1.0))
        assert (got[0] == "NonMonotoneBracket") == raised
        assert got == outcome(full_bisection, 0.05, EcContext(10, 1.0))

    def test_few_evaluations_per_solve(self, monkeypatch):
        # A count, not a timing: full bisection takes about 54 per solve here.
        evals = []

        def counted(h, c):
            evals.append(h)
            return expected_ec(h, c)

        monkeypatch.setattr(gkf, "expected_ec", counted)
        solves = [solve_quantile(alpha, EcContext(n, l1)) for l1 in (1.0, 4.3, 10.0)
                  for n in (10, 15, 30) for alpha in (0.15, 0.10, 0.05)]
        assert len(evals) / len(solves) <= 30.0

    def test_evaluation_count_is_pinned(self, monkeypatch):
        # Steps on a bracket too wide to stop or check evaluate exactly the midpoints
        # the doubt rule puts in [a, b]: no more and no fewer than these 230, and the
        # same floats in the same order.
        evals = []

        def counted(h, c):
            evals.append(h)
            return expected_ec(h, c)

        monkeypatch.setattr(gkf, "expected_ec", counted)
        for n, l1 in ((15, 4.3), (10, 1.6), (30, 31.0)):
            for alpha in (0.15, 0.10, 0.05):
                solve_quantile(alpha, EcContext(n, l1))
        assert len(evals) == 230
        assert hashlib.sha256("".join(h.hex() for h in evals).encode()).hexdigest() == (
            "d4489bcc9226d7e9963b7d650dd93824fb5b1df816011440d7fdfd69f3fa2c35")


class TestGkfAgainstMonteCarlo:
    def test_quantile_tracks_simulation(self):
        # Small-rep version of the acceptance cross-check.
        spec = rt.ErrorProcessSpec(1, 1, 1, 0.05)
        h_mc = rt.mc_quantile_oracle(spec, n=10, reps=4000, alpha=0.05,
                                     grid=TimeGrid.uniform(51), seed=5)
        h_gkf = solve_quantile(0.05, EcContext(10, np.pi / 2.0))
        assert abs(h_gkf - h_mc) / h_mc <= 0.15
