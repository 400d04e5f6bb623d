import numpy as np
import pytest

import rotubes as rt
from rotubes.curves import RotationCurve, TimeGrid
from rotubes.simulation import MIXING_MATRICES, _error_paths, _generating_paths, modulation


def keyed_generating_path(spec, grid, seed_seq):
    """Generating path of one curve drawn from the three children of seed_seq."""
    return _generating_paths(spec, grid, [np.random.default_rng(c) for c in seed_seq.spawn(3)])[0]


class TestErrorProcesses:
    @pytest.mark.parametrize("family", [1, 2, 3])
    @pytest.mark.parametrize("mod", [1, 2, 3])
    def test_pointwise_variance_matches_modulation(self, family, mod):
        grid = TimeGrid.uniform(11)
        rng = np.random.default_rng(family * 100 + mod)
        paths = _error_paths(family, mod, grid, rng, (60000,))
        target = modulation(mod, grid.t) ** 2
        sample_var = paths.var(axis=0, ddof=1)
        # Gaussian sample variance: sd = target * sqrt(2 / (n - 1)).
        three_se = 3.0 * target * np.sqrt(2.0 / 59999.0)
        for k in (0, 3, 6, 10):
            assert abs(sample_var[k] - target[k]) <= three_se[k], (k, sample_var[k])

    def test_sinusoidal_modulation_at_zero(self):
        assert modulation(3, np.array([0.0]))[0] == pytest.approx(1.5)
        grid = TimeGrid.uniform(3)
        rng = np.random.default_rng(33)
        paths = _error_paths(1, 3, grid, rng, (60000,))
        assert paths[:, 0].var(ddof=1) == pytest.approx(2.25, rel=0.03)

    def test_ou_variance_is_stationary(self):
        # Unit variance at every grid point before modulation.
        grid = TimeGrid.uniform(7)
        rng = np.random.default_rng(34)
        paths = _error_paths(3, 1, grid, rng, (60000,))
        assert np.allclose(paths.var(axis=0, ddof=1), 1.0, atol=0.03)

    def test_ou_autocorrelation_matches_exact_transition(self):
        grid = TimeGrid.uniform(21)
        rng = np.random.default_rng(35)
        paths = _error_paths(3, 1, grid, rng, (60000,))
        lag = np.mean(paths[:, :-1] * paths[:, 1:], axis=0)
        assert np.allclose(lag, np.exp(-5.0 * 0.05), atol=0.02)

    def test_smoothness_split_between_families(self):
        # Families 1-2: second differences scale ~4x down per grid halving.
        # Family 3: first differences scale ~sqrt(2)x down (rough paths).
        stats = {}
        for k in (101, 201):
            grid = TimeGrid.uniform(k)
            rng = np.random.default_rng(36)
            for family in (1, 2, 3):
                paths = _error_paths(family, 1, grid, rng, (200,))
                if family == 3:
                    stats[(family, k)] = np.sqrt(np.mean(np.diff(paths, 1, axis=1) ** 2))
                else:
                    stats[(family, k)] = np.sqrt(np.mean(np.diff(paths, 2, axis=1) ** 2))
        for family in (1, 2):
            ratio = stats[(family, 101)] / stats[(family, 201)]
            assert 3.0 <= ratio <= 5.0, (family, ratio)
        rough_ratio = stats[(3, 101)] / stats[(3, 201)]
        assert 1.2 <= rough_ratio <= 1.7, rough_ratio

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            rt.ErrorProcessSpec(0, 1, 1, 0.05)
        with pytest.raises(ValueError):
            rt.ErrorProcessSpec(1, 4, 1, 0.05)
        with pytest.raises(ValueError):
            rt.ErrorProcessSpec(1, 1, 3, 0.05)
        with pytest.raises(ValueError):
            rt.ErrorProcessSpec(1, 1, 1, 0.0)


class TestGpSampling:
    def test_small_sigma_limit_returns_center(self):
        grid = TimeGrid.uniform(21)
        center = RotationCurve(grid, rt.exp_so3(
            np.stack([0.3 * grid.t, 0.1 * np.sin(grid.t), grid.t ** 2 * 0.2], -1)))
        sample, _ = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 1e-12), center, grid,
                                        1, 0)
        curve = RotationCurve(grid, sample.values[0])
        assert np.abs(curve.values - center.values).max() <= 1e-9

    def test_second_coordinate_variance_halved_under_mixing(self):
        # Mixing row (1/2, 1/2, 0) gives variance sigma^2 f^2 / 2.
        grid = TimeGrid.uniform(5)
        sigma = 0.3
        rng = np.random.default_rng(37)
        eps = np.stack([_error_paths(1, 1, grid, rng, (40000,)) for _ in range(3)])
        a = np.einsum("cd,dnk->nkc", MIXING_MATRICES[2], sigma * eps)
        var2 = a[..., 1].var(axis=0, ddof=1)
        assert np.allclose(var2, sigma ** 2 / 2.0, rtol=0.05)
        var3 = a[..., 2].var(axis=0, ddof=1)
        assert np.allclose(var3, sigma ** 2, rtol=0.05)

    def test_fixed_seed_reproduces_curves_bitwise(self):
        grid = TimeGrid.uniform(31)
        center = RotationCurve.identity(grid)
        spec = rt.ErrorProcessSpec(2, 3, 2, 0.1)
        c1 = RotationCurve(grid, rt.sample_gp_sample(spec, center, grid, 1, 99)[0].values[0])
        c2 = RotationCurve(grid, rt.sample_gp_sample(spec, center, grid, 1, 99)[0].values[0])
        assert np.array_equal(c1.values, c2.values)

    def test_generating_path_mixes_coordinates(self):
        grid = TimeGrid.uniform(11)
        path = keyed_generating_path(rt.ErrorProcessSpec(1, 1, 2, 0.2), grid,
                                     np.random.SeedSequence(5))
        assert path.shape == (11, 3)

    def test_error_path_shape(self):
        grid = TimeGrid.uniform(17)
        path = _error_paths(3, 2, grid, np.random.default_rng(1))
        assert path.shape == (17,)

    @pytest.mark.parametrize("family", [1, 2, 3])
    @pytest.mark.parametrize("grid", [TimeGrid.uniform(31),
                                      TimeGrid(np.linspace(0.0, 1.0, 41) ** 1.5)],
                             ids=["uniform", "nonuniform"])
    def test_sample_curve_is_its_keyed_generating_path(self, family, grid):
        # Curve m of a sample is the generating path of substream (key..., m),
        # whatever the sample size.
        spec = rt.ErrorProcessSpec(family, 3, 2, 0.1)
        center = RotationCurve.identity(grid)
        key = (31, family)
        small, small_paths = rt.sample_gp_sample(spec, center, grid, 4, key)
        large, large_paths = rt.sample_gp_sample(spec, center, grid, 9, key)
        for m in range(4):
            alone = keyed_generating_path(spec, grid, np.random.SeedSequence(key + (m,)))
            assert np.array_equal(small_paths[m], alone)
        assert np.array_equal(large_paths[:4], small_paths)
        assert np.array_equal(large.values[:4], small.values)

    def test_paths_are_pinned_bitwise(self):
        # float.hex of path entries (curve, grid index, coordinate) of
        # sample_gp_sample(A(i, 3, 2, 0.1), n=4, seed=(2026, 7)) per family.
        pins = {
            "uniform": (TimeGrid.uniform(101), ((0, 0, 0), (1, 37, 1), (3, 100, 2)), {
                1: ("-0x1.5b68d8e4e8973p-4", "0x1.43562ec1bfd04p-5", "-0x1.2cf89932737bap-5"),
                2: ("-0x1.57317b3f89533p-3", "-0x1.650cc9f7dbe05p-7", "-0x1.496d2e5fd5de7p-9"),
                3: ("-0x1.204a80ff67f9bp-3", "0x1.47e936cc1cfedp-8", "-0x1.089ab956deeccp-3"),
            }),
            "nonuniform": (TimeGrid(np.linspace(0.0, 1.0, 41) ** 1.5),
                           ((0, 0, 0), (1, 17, 1), (3, 40, 2)), {
                1: ("-0x1.5b68d8e4e8973p-4", "0x1.934969fe19160p-4", "-0x1.2cf89932737bap-5"),
                2: ("-0x1.57317b3f89533p-3", "-0x1.b1afc185a430cp-7", "-0x1.496d2e5fd5de7p-9"),
                3: ("-0x1.204a80ff67f9bp-3", "-0x1.5d3c57e85c644p-3", "0x1.76118c993512ap-6"),
            }),
        }
        for grid, entries, by_family in pins.values():
            for family, expected in by_family.items():
                _, paths = rt.sample_gp_sample(rt.ErrorProcessSpec(family, 3, 2, 0.1),
                                               RotationCurve.identity(grid), grid, 4, (2026, 7))
                got = tuple(float(paths[idx]).hex() for idx in entries)
                assert got == expected, (family, len(grid))


class TestCoverageExperiment:
    def test_single_replication_smoke(self):
        report = rt.coverage_experiment(rt.ErrorProcessSpec(1, 1, 1, 0.05), n=5,
                                        reps=1, alphas=[0.1, 0.05],
                                        grid=TimeGrid.uniform(21), seed=3)
        assert report.reps == 1
        assert all(r in (0.0, 1.0) for r in report.rates)

    def test_coverage_monotone_in_confidence(self):
        report = rt.coverage_experiment(rt.ErrorProcessSpec(1, 1, 1, 0.05), n=8,
                                        reps=60, alphas=[0.25, 0.10, 0.05],
                                        grid=TimeGrid.uniform(31), seed=4)
        assert report.rates[0] <= report.rates[1] <= report.rates[2]

    def test_seeded_covered_counts_are_pinned(self):
        # Exact covered counts (of 40 reps, per alpha) of one small cell per
        # family at a fixed seed; any change to sampling or estimation shows.
        cells = {(1, 2, 2, 0.1, 5, 51): (34, 36, 37),
                 (2, 1, 1, 0.2, 8, 51): (38, 38, 39),
                 (3, 3, 2, 0.1, 10, 101): (33, 36, 38)}
        for (i, l, j, sigma, n, k), counts in cells.items():
            report = rt.coverage_experiment(rt.ErrorProcessSpec(i, l, j, sigma), n=n,
                                            reps=40, alphas=[0.15, 0.10, 0.05],
                                            grid=TimeGrid.uniform(k), seed=2026)
            assert tuple(round(40 * r) for r in report.rates) == counts
            assert report.n_singular == 0

    def test_determinism_across_runs(self):
        kwargs = dict(n=6, reps=25, alphas=[0.1], grid=TimeGrid.uniform(21), seed=11)
        r1 = rt.coverage_experiment(rt.ErrorProcessSpec(3, 1, 2, 0.1), **kwargs)
        r2 = rt.coverage_experiment(rt.ErrorProcessSpec(3, 1, 2, 0.1), **kwargs)
        assert r1.rates == r2.rates
        assert r1.mc_stderr == r2.mc_stderr

    def test_stderr_formula(self):
        report = rt.coverage_experiment(rt.ErrorProcessSpec(1, 1, 1, 0.05), n=6,
                                        reps=40, alphas=[0.1],
                                        grid=TimeGrid.uniform(21), seed=12)
        r = report.rates[0]
        assert report.mc_stderr[0] == pytest.approx(np.sqrt(r * (1 - r) / 40.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            rt.coverage_experiment(rt.ErrorProcessSpec(1, 1, 1, 0.05), n=3, reps=5,
                                   alphas=[0.1])
        with pytest.raises(ValueError):
            rt.coverage_experiment(rt.ErrorProcessSpec(1, 1, 1, 0.05), n=5, reps=0,
                                   alphas=[0.1])


class TestMcQuantileOracle:
    def test_monotone_in_confidence(self):
        spec = rt.ErrorProcessSpec(1, 1, 1, 0.05)
        grid = TimeGrid.uniform(21)
        q50 = rt.mc_quantile_oracle(spec, 10, 2000, 0.5, grid, seed=6)
        q05 = rt.mc_quantile_oracle(spec, 10, 2000, 0.05, grid, seed=6)
        assert q05 > q50

    def test_determinism_and_chunk_independence(self):
        spec = rt.ErrorProcessSpec(1, 1, 1, 0.05)
        grid = TimeGrid.uniform(21)
        a = rt.mc_quantile_oracle(spec, 8, 1500, 0.1, grid, seed=7)
        b = rt.mc_quantile_oracle(spec, 8, 1500, 0.1, grid, seed=7)
        assert a == b

    def test_seeded_value_past_one_batch_is_pinned(self):
        # 3000 reps span two batches, so a change of the batch size, which
        # reorders the seeded draws, changes this value.
        q = rt.mc_quantile_oracle(rt.ErrorProcessSpec(1, 1, 1, 0.05), 8, 3000, 0.1,
                                  TimeGrid.uniform(21), seed=7)
        assert q == pytest.approx(32.31078915916943, rel=1e-12)

    @pytest.mark.parametrize("n, reps, what", [(1, 100, "need n >= 4"),
                                               (2, 100, "need n >= 4"),
                                               (3, 100, "need n >= 4"),
                                               (8, 0, "at least one replication")])
    def test_inputs_it_cannot_answer_are_refused(self, n, reps, what):
        # n < 4 leaves S singular (NaN or LinAlgError) and reps = 0 has no quantile.
        with pytest.raises(ValueError, match=what):
            rt.mc_quantile_oracle(rt.ErrorProcessSpec(1, 1, 1, 0.05), n, reps, 0.1,
                                  TimeGrid.uniform(11), seed=1)

    def test_bootstrap_stderr_halves_when_reps_double(self):
        # Quantile sampling error shrinks ~sqrt(2)x when reps double.
        spec = rt.ErrorProcessSpec(1, 1, 1, 0.05)
        grid = TimeGrid.uniform(21)
        rng = np.random.default_rng(8)

        def bootstrap_se(reps):
            base = rt.mc_quantile_oracle(spec, 8, reps, 0.1, grid, seed=9)
            # Bootstrap over independent re-runs with distinct seeds.
            draws = [rt.mc_quantile_oracle(spec, 8, reps, 0.1, grid,
                                           seed=int(rng.integers(1 << 30)))
                     for _ in range(12)]
            return np.std(draws, ddof=1), base

        se_small, _ = bootstrap_se(1000)
        se_large, _ = bootstrap_se(4000)
        ratio = se_small / se_large
        assert 1.3 <= ratio <= 3.2, ratio
