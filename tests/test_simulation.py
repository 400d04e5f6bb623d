import importlib.util
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import rotubes as rt
from rotubes import battery, gkf, simulation, tubes
from rotubes.curves import RotationCurve, TimeGrid
from rotubes.errors import NoRoot, SingularCovariance
from rotubes.simulation import (MIXING_MATRICES, _error_paths, _generating_paths,
                                _keyed_streams, modulation)


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

    @pytest.mark.parametrize("l", [True, 2.0, np.float64(3.0), 0, 4])
    def test_modulation_refuses_what_the_spec_refuses(self, l):
        # One rule for l: modulation refuses every value ErrorProcessSpec refuses.
        message = r"^modulation l must be an integer in 1\.\.3, got "
        with pytest.raises(ValueError, match=message):
            modulation(l, np.linspace(0.0, 1.0, 5))
        with pytest.raises(ValueError, match=message):
            rt.ErrorProcessSpec(1, l, 1, 0.05)

    def test_float32_sigma_is_stored_as_its_float(self):
        # Under tier-1's warning filter a float32 sigma compared with the 1e150 bound
        # would raise its overflow warning; the spec stores float(sigma) first.
        spec = rt.ErrorProcessSpec(1, 1, 1, np.float32(0.05))
        assert type(spec.sigma) is float and spec.sigma == float(np.float32(0.05))

    def test_modulation_takes_numpy_integers(self):
        t = np.linspace(0.0, 1.0, 5)
        for l in (1, 2, 3):
            assert modulation(np.int64(l), t).tobytes() == modulation(l, t).tobytes()

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

    @pytest.mark.parametrize("sigma", [float("inf"), -float("inf"), float("nan"), -0.1])
    def test_sigma_must_be_finite_and_positive(self, sigma):
        # Refused here, not deep in the rotation check by a message naming neither.
        with pytest.raises(ValueError, match=r"^sigma must be finite and positive, got "):
            rt.ErrorProcessSpec(1, 1, 1, sigma)

    def test_sigma_above_the_bound_is_refused(self):
        # exp_so3 would overflow squaring the angle; the spec names the bound instead.
        with pytest.raises(ValueError, match=r"^sigma must be at most 1e\+150, got 1e\+300$"):
            rt.ErrorProcessSpec(1, 1, 1, 1e300)


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

    @pytest.mark.parametrize("family", [1, 2, 3])
    @pytest.mark.parametrize("grid", [TimeGrid.uniform(101),
                                      TimeGrid(np.linspace(0.0, 1.0, 41) ** 1.5)],
                             ids=["uniform", "nonuniform"])
    def test_chunk_is_its_replications_bitwise(self, family, grid):
        # One keyed pass over reps gives each replication's sample and paths, as
        # a call keyed (seed..., r) gives them, to the last bit.
        spec = rt.ErrorProcessSpec(family, 3, 2, 0.1)
        center = RotationCurve(grid, rt.exp_so3(np.stack([0.3 * grid.t, 0.1 * np.sin(grid.t),
                                                          0.2 * grid.t ** 2], -1)))
        reps = range(4, 9)
        chunk = rt.sample_gp_sample(spec, center, grid, 6, (2026, family), reps)
        assert len(chunk) == len(reps)
        for r, (sample, paths) in zip(reps, chunk):
            alone, alone_paths = rt.sample_gp_sample(spec, center, grid, 6, (2026, family, r))
            assert paths.shape == alone_paths.shape == (6, len(grid), 3)
            assert paths.tobytes() == alone_paths.tobytes(), r
            assert sample.values.tobytes() == alone.values.tobytes(), r

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


# Key words of one, two and more than two 32-bit words.
key_ints = (st.integers(0, 2 ** 32 - 1) | st.integers(2 ** 32, 2 ** 64 - 1)
            | st.integers(2 ** 64, 2 ** 130))


class TestKeyedStreams:
    @given(key=st.lists(key_ints, max_size=6).map(tuple), n=st.integers(1, 12))
    @example(key=(2026, 7), n=4)
    @example(key=(7, 3, 1, 5), n=3)
    @example(key=(2 ** 32, 2 ** 64 + 5, 0), n=2)
    def test_streams_are_numpys_seed_sequence_streams(self, key, n):
        # The stacked restatement of SeedSequence and PCG64 seeding gives each
        # stream the state, and so the draws, of its own default_rng; a numpy
        # release that changes SeedSequence (NEP 19) fails here.
        streams = _keyed_streams(key, n)
        for m in range(n):
            for d in range(3):
                got = next(streams)
                ref = np.random.default_rng(np.random.SeedSequence(key + (m,), spawn_key=(d,)))
                assert got.bit_generator.state == ref.bit_generator.state, (m, d)
                for width in (2, 10, 101):
                    assert np.array_equal(got.standard_normal(width), ref.standard_normal(width))
        assert next(streams, None) is None

    @given(key=st.lists(key_ints, max_size=4).map(tuple), n=st.integers(1, 4),
           start=st.integers(0, 2 ** 32 - 1) | st.integers(0, 20), count=st.integers(1, 3))
    @example(key=(), n=2, start=0, count=3)
    @example(key=(2 ** 40 + 3, 9), n=3, start=7, count=2)
    @example(key=(2026, 7), n=1, start=2 ** 32 - 1, count=1)
    def test_chunk_streams_are_numpys_seed_sequence_streams(self, key, n, start, count):
        # With reps, stream (r, m, d) is the stream keyed key + (r, m): a chunk
        # of replications is seeded as its replications would be one by one.
        reps = range(start, min(start + count, 2 ** 32))
        streams = _keyed_streams(key, n, reps)
        for r in reps:
            for m in range(n):
                for d in range(3):
                    got = next(streams)
                    ref = np.random.default_rng(
                        np.random.SeedSequence(key + (r, m), spawn_key=(d,)))
                    assert got.bit_generator.state == ref.bit_generator.state, (r, m, d)
                    for width in (2, 10, 101):
                        assert np.array_equal(got.standard_normal(width),
                                              ref.standard_normal(width))
        assert next(streams, None) is None

    @pytest.mark.parametrize("reps", [range(2 ** 32 - 1, 2 ** 32 + 1), range(2 ** 32, 2 ** 32 + 3),
                                      range(-1, 2), range(2, -3, -1)])
    def test_rep_indices_outside_one_entropy_word_are_refused(self, reps):
        # A rep index must be one 32-bit entropy word; numpy alone would raise
        # a bare OverflowError, or hash a two-word index as two keys.
        grid = TimeGrid.uniform(11)
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            next(_keyed_streams((5,), 2, reps))
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 0.1),
                                RotationCurve.identity(grid), grid, 2, 5, reps)

    @pytest.mark.parametrize("key, error, message", [
        ((3, -1), ValueError, "expected non-negative integer"),
        ((-2,), ValueError, "expected non-negative integer"),
        ((3, 1.5), TypeError, "seed must be integer"),
        ((np.float64(2.0),), TypeError, "seed must be integer"),
    ])
    def test_bad_key_elements_raise_numpys_errors(self, key, error, message):
        grid = TimeGrid.uniform(11)
        with pytest.raises(error, match=message):
            np.random.SeedSequence(key + (0,), spawn_key=(0,))
        with pytest.raises(error, match=message):
            rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 0.1),
                                RotationCurve.identity(grid), grid, 2, key)

    def test_numpy_integer_seed_is_its_python_int(self):
        grid = TimeGrid.uniform(21)
        spec = rt.ErrorProcessSpec(2, 1, 1, 0.1)
        center = RotationCurve.identity(grid)
        for seed in (np.int64(5), np.uint32(5)):
            _, paths = rt.sample_gp_sample(spec, center, grid, 4, seed)
            assert np.array_equal(paths, rt.sample_gp_sample(spec, center, grid, 4, 5)[1])
        kwargs = dict(n=5, reps=3, alphas=[0.1], grid=grid)
        report = rt.coverage_experiment(spec, seed=np.int64(3), **kwargs)
        assert report == rt.coverage_experiment(spec, seed=3, **kwargs)
        assert type(report.seed) is int


def per_alpha_covered(spec, n, reps, alphas, grid, seed):
    """Covered flags (reps, alphas) and singular count, one containment test per alpha."""
    center = RotationCurve.identity(grid)
    covered = np.zeros((reps, len(alphas)), dtype=bool)
    n_singular = 0
    for rep in range(reps):
        sample, _ = rt.sample_gp_sample(spec, center, grid, n, (seed, rep))
        try:
            ing = tubes.tube_ingredients(sample)
            for a_idx, alpha in enumerate(alphas):
                tube = tubes.assemble_tube(ing, alpha)
                _, inside = tubes.tube_contains(tube, center)
                covered[rep, a_idx] = inside
        except SingularCovariance:
            n_singular += 1
    return covered, n_singular


def narrowest_first_covered(spec, n, reps, alphas, grid, seed):
    """Covered flags, singular count and tubes tested, with every quantile solved up
    front: the tubes tested in increasing quantile, and the first that holds the
    center covering every tube of a larger quantile."""
    center = RotationCurve.identity(grid)
    covered = np.zeros((reps, len(alphas)), dtype=bool)
    n_singular = tested = 0
    for rep in range(reps):
        key = (seed, rep) if isinstance(seed, int) else (*seed, rep)
        sample, _ = rt.sample_gp_sample(spec, center, grid, n, key)
        try:
            ing = tubes.tube_ingredients(sample)
            built = [tubes.assemble_tube(ing, alpha) for alpha in alphas]
            order = sorted(range(len(alphas)), key=lambda a: built[a].hquant)
            for pos, a_idx in enumerate(order):
                tested += 1
                if tubes.tube_contains(built[a_idx], center)[1]:
                    covered[rep, order[pos:]] = True
                    break
        except SingularCovariance:
            n_singular += 1
    return covered, n_singular, tested


def bench_module(name, monkeypatch):
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)        # dataclasses look it up
    spec.loader.exec_module(module)
    return module


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

    @pytest.mark.parametrize("reps", [1000, 999])
    def test_one_singular_replication_in_a_thousand_is_tolerated(self, reps, monkeypatch):
        # Up to 0.1 % of reps may hit a singular covariance: each is counted and is
        # not covered.  One in 999 is more than that, and the run aborts.
        spec, alphas = rt.ErrorProcessSpec(1, 1, 1, 0.05), [0.15, 0.05]
        grid = TimeGrid.uniform(11)
        center = RotationCurve.identity(grid)
        singular = next(r for r in range(reps) if all(
            tubes.tube_contains(tubes.build_tube(
                rt.sample_gp_sample(spec, center, grid, 5, (3, r))[0], alpha), center)[1]
            for alpha in alphas))                       # a replication every tube covers
        clean = rt.coverage_experiment(spec, 5, reps, alphas, grid, seed=3)
        ingredients, calls = tubes.tube_ingredients, []

        def singular_once(sample, center=None):
            calls.append(sample)
            if len(calls) == singular + 1:
                raise SingularCovariance("residual covariance singular", t=0.0, index=0)
            return ingredients(sample, center)

        monkeypatch.setattr(tubes, "tube_ingredients", singular_once)
        if reps == 999:
            with pytest.raises(SingularCovariance,
                               match=r"^1 of 999 replications hit a singular covariance$"):
                rt.coverage_experiment(spec, 5, reps, alphas, grid, seed=3)
            return
        report = rt.coverage_experiment(spec, 5, reps, alphas, grid, seed=3)
        assert clean.n_singular == 0 and report.n_singular == 1 and len(calls) == reps
        assert [round(reps * r) for r in report.rates] == [round(reps * r) - 1
                                                           for r in clean.rates]

    @pytest.mark.parametrize("n, reps, message", [(10.5, 3, r"need n >= 4, an integer"),
                                                  (10, 2.5, r"need an integer reps"),
                                                  (True, 3, r"need n >= 4, an integer"),
                                                  (10, True, r"need an integer reps")])
    def test_fractional_design_is_refused_before_any_draw(self, n, reps, message,
                                                          monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew before checking the design")

        monkeypatch.setattr(simulation, "_keyed_streams", no_draw)
        with pytest.raises(ValueError, match=message):
            rt.coverage_experiment(rt.ErrorProcessSpec(1, 1, 1, 0.05), n, reps, [0.1])

    @pytest.mark.parametrize("alphas", [[0.15, 0.0], [0.1, math.nan], [0.1, 0.7]])
    def test_bad_alpha_is_refused_before_any_draw(self, alphas, monkeypatch):
        # The widest tube's quantile is often never solved, so solve_quantile alone
        # would not see a bad small alpha: it would be counted covered.
        def no_draw(*args):
            raise AssertionError("drew before checking the alphas")

        monkeypatch.setattr(simulation, "_keyed_streams", no_draw)
        with pytest.raises(ValueError, match=r"^alpha must be in \(0, 0\.5\], got "):
            rt.coverage_experiment(rt.ErrorProcessSpec(1, 1, 1, 0.05), 10, 3, alphas)

    def test_rough_sample_at_n4_still_names_the_first_alpha_without_a_root(self):
        # At 3 degrees of freedom the EEC tends to 2 L1 / pi, so no alpha below that
        # has a root; the largest alpha is solved first and raises.
        with pytest.raises(NoRoot, match=r"never falls below alpha = 0\.15 for N = 4"):
            rt.coverage_experiment(rt.ErrorProcessSpec(3, 2, 2, 0.1), n=4, reps=40,
                                   alphas=[0.15, 0.10, 0.05], grid=TimeGrid.uniform(51),
                                   seed=2026)

    @pytest.mark.parametrize("alphas", [battery.ALPHAS, (0.05, 0.15, 0.10), (0.1, 0.1, 0.05),
                                        (0.1, 0.1 - 1e-9)])
    @pytest.mark.parametrize("family", [1, 2, 3])
    def test_lazy_solves_decide_as_solving_every_quantile(self, family, alphas, monkeypatch):
        spec, n, reps, grid = rt.ErrorProcessSpec(family, 3, 2, 0.6), 10, 12, TimeGrid.uniform(51)
        for seed in (1, 2, 3, 4):
            covered, n_singular, _ = narrowest_first_covered(spec, n, reps, alphas, grid, seed)
            calls = {"solve": 0, "contains": 0}
            solve, contains = gkf.solve_quantile, tubes.tube_contains

            def counted_solve(alpha, ctx):
                calls["solve"] += 1
                return solve(alpha, ctx)

            def counted_contains(tube, curve):
                calls["contains"] += 1
                return contains(tube, curve)

            with monkeypatch.context() as patch:
                patch.setattr(gkf, "solve_quantile", counted_solve)
                patch.setattr(tubes, "tube_contains", counted_contains)
                report = rt.coverage_experiment(spec, n, reps, list(alphas), grid, seed=seed)
            assert report.rates == tuple(float(r) for r in covered.mean(axis=0))
            assert report.n_singular == n_singular
            assert calls["solve"] == calls["contains"] <= len(alphas) * reps

    @pytest.mark.parametrize("sigma", [1e100, 1e150])
    def test_huge_finite_sigma_runs_without_warnings(self, sigma):
        # The small-angle series of exp_so3 is evaluated on small angles only,
        # so squaring a squared angle of 1e200 no longer overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = rt.coverage_experiment(rt.ErrorProcessSpec(1, 1, 1, sigma), 5, 2, [0.05],
                                            TimeGrid.uniform(11))
        assert report.reps == 2 and report.n_singular == 0

    # (i, l, j, sigma, n): two nominal cells and the low-coverage sigma = 0.6, l = 3 one.
    @pytest.mark.parametrize("cell", [(1, 1, 1, 0.1, 5), (2, 1, 2, 0.05, 8),
                                      (1, 3, 2, 0.6, 10)])
    def test_nested_exit_decides_as_one_test_per_alpha(self, cell):
        # Unsorted alphas with a repeat: the narrowest-first order is by quantile.
        spec, n = rt.ErrorProcessSpec(*cell[:4]), cell[4]
        alphas, grid = [0.05, 0.15, 0.10, 0.15], TimeGrid.uniform(51)
        covered, n_singular = per_alpha_covered(spec, n, 40, alphas, grid, 17)
        report = rt.coverage_experiment(spec, n, 40, alphas, grid, seed=17)
        assert report.rates == tuple(float(r) for r in covered.mean(axis=0))
        assert report.n_singular == n_singular
        assert (covered.any(axis=1) & ~covered.all(axis=1)).any()   # tubes disagree somewhere

    def test_containment_stops_at_the_narrowest_covering_tube(self, monkeypatch):
        reps = []
        assemble, contains = tubes.assemble_tube, tubes.tube_contains

        def counted_assemble(ing, alpha):
            tube = assemble(ing, alpha)
            if not reps or reps[-1]["ing"] is not ing:
                reps.append({"ing": ing, "built": [], "tested": []})
            reps[-1]["built"].append(tube.hquant)
            return tube

        def counted_contains(tube, curve):
            per_point, inside = contains(tube, curve)
            reps[-1]["tested"].append((tube.hquant, inside))
            return per_point, inside

        monkeypatch.setattr(tubes, "assemble_tube", counted_assemble)
        monkeypatch.setattr(tubes, "tube_contains", counted_contains)
        alphas = [0.05, 0.15, 0.10, 0.15]
        rt.coverage_experiment(rt.ErrorProcessSpec(1, 3, 2, 0.6), 10, 40, alphas,
                               TimeGrid.uniform(51), seed=17)
        assert len(reps) == 40
        for rep in reps:
            quants, inside = zip(*rep["tested"])
            assert 1 <= len(quants) <= len(alphas)
            assert quants[0] == min(rep["built"]) and list(quants) == sorted(quants)
            assert not any(inside[:-1])                 # stops at the first covering tube
            if inside[0]:
                assert len(quants) == 1
        assert {len(rep["tested"]) == 1 for rep in reps} == {True, False}

    @pytest.mark.parametrize("cell", [(1, 2, 2, 0.1, 5, 21), (3, 3, 2, 0.1, 6, 31)])
    def test_report_does_not_depend_on_the_chunk_size(self, cell, monkeypatch):
        spec, n, grid = rt.ErrorProcessSpec(*cell[:4]), cell[4], TimeGrid.uniform(cell[5])
        reports = []
        for reps_per_chunk in (None, 1, 3):
            if reps_per_chunk is not None:
                monkeypatch.setattr(simulation, "_CHUNK_POINTS", reps_per_chunk * n * len(grid))
            reports.append(rt.coverage_experiment(spec, n, 11, [0.15, 0.05], grid, seed=(3, 1)))
        assert reports[0] == reports[1] == reports[2]
        assert reports[0].n_singular == 0

    def test_samples_are_drawn_once_per_chunk(self, monkeypatch):
        calls = []
        sample = simulation.sample_gp_sample

        def counted(*args, **kwargs):
            calls.append(len(args[5]))
            return sample(*args, **kwargs)

        monkeypatch.setattr(simulation, "sample_gp_sample", counted)
        n, reps, grid = 10, 40, TimeGrid.uniform(101)
        rt.coverage_experiment(rt.ErrorProcessSpec(1, 1, 1, 0.1), n, reps, [0.1], grid, seed=4)
        per_chunk = max(1, simulation._CHUNK_POINTS // (n * len(grid)))
        assert per_chunk > 1
        assert len(calls) <= math.ceil(reps / per_chunk)
        assert sum(calls) == reps and max(calls) <= per_chunk

    def test_bench_coverage_hooks_fire(self, monkeypatch):
        # bench/run.py --trace 1 exits 2 when a coverage hook never fires, so
        # the coverage decision must keep reaching assemble_tube and tube_contains.
        tracing = bench_module("tracing", monkeypatch)
        expected_hooks = bench_module("run", monkeypatch).EXPECTED_HOOKS["coverage"]
        tracer = tracing.Tracer()
        try:
            tracer.install()
            battery.run_battery(2, 5, TimeGrid.uniform(21), rows=battery.ROWS[:1])
        finally:
            tracer.uninstall()
        assert [h for h in expected_hooks if tracer.calls_of(h) == 0] == []
        # One quantile solved, one tube assembled and one tested per tube the
        # narrowest-first loop tests on the same draws.
        n, sigma, l, j = battery.ROWS[0]
        tested = sum(narrowest_first_covered(rt.ErrorProcessSpec(family, l, j, sigma), n, 2,
                                             battery.ALPHAS, TimeGrid.uniform(21),
                                             (5, 0, family))[2] for family in (1, 2, 3))
        assert tested < 2 * 3 * len(battery.ALPHAS)
        for hook in ("tubes.assemble", "gkf.solve_quantile", "tubes.contains"):
            assert tracer.calls_of(hook) == tested, hook


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
