"""Self-tests of the benchmark's output checkers.

Each checker gets one correct result, which must pass, and one corrupted
result, which must be counted as a failure.  Run with
`python3 -m pytest bench/test_checks.py`.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import checks

HERE = Path(__file__).resolve().parent
K = 101
RADIUS = 0.05                  # every cross-section radius of the synthetic tubes
H, N = 20.0, 10


def _tube_record(rotvecs: np.ndarray) -> dict:
    t = np.linspace(0.0, 1.0, K)
    var = RADIUS ** 2 * N / H      # isotropic S, so r_min = r_max = RADIUS
    return {"grid": t.tolist(),
            "center": Rotation.from_rotvec(rotvecs).as_matrix().reshape(K, 9).tolist(),
            "cov_upper": [[var, 0.0, 0.0, var, 0.0, var]] * K,
            "hquant": H, "n": N}


def _report(overlap: np.ndarray) -> dict:
    runs = checks._false_runs([bool(v) for v in overlap])
    return {"overlap": [bool(v) for v in overlap],
            "loci": [{"start_index": i, "end_index": j} for i, j in runs]}


@pytest.fixture
def separated_pair():
    """Centers 0.3 rad apart on [0.40, 0.60], equal elsewhere; radii sum 0.1."""
    t = np.linspace(0.0, 1.0, K)
    shift = np.where((t >= 0.4 - 1e-9) & (t <= 0.6 + 1e-9), 0.3, 0.0)
    tube_a = _tube_record(np.zeros((K, 3)))
    tube_b = _tube_record(np.column_stack([np.zeros(K), np.zeros(K), shift]))
    return tube_a, tube_b, shift == 0.0


def test_correct_decisions_pass(separated_pair):
    tube_a, tube_b, overlap = separated_pair
    res = checks.check_pair(tube_a, tube_b, _report(overlap), None, (0.4, 0.6), True)
    assert res.failures == []
    assert res.checked == K and res.unchecked == 0


def test_flipped_decision_fails(separated_pair):
    tube_a, tube_b, overlap = separated_pair
    flipped = overlap.copy()
    flipped[10] = False          # d = 0 there, so the inner balls force overlap
    res = checks.check_pair(tube_a, tube_b, _report(flipped), None, None, False)
    assert len(res.failures) == 1 and "t=0.10" in res.failures[0]


def test_shifted_locus_fails(separated_pair):
    tube_a, tube_b, overlap = separated_pair
    shifted = np.roll(overlap, 2)
    res = checks.check_pair(tube_a, tube_b, _report(shifted), None, (0.4, 0.6), True)
    assert any("localized" in f for f in res.failures)


def test_distant_extra_locus_is_not_a_localization_failure(separated_pair):
    tube_a, tube_b, overlap = separated_pair
    extra = overlap.copy()
    extra[80:83] = False         # the ball bounds flag these three; localization must not
    res = checks.check_pair(tube_a, tube_b, _report(extra), None, (0.4, 0.6), True)
    assert len(res.failures) == 3
    assert not any("localized" in f for f in res.failures)


def test_alignment_transport_matches_direct_frame(separated_pair):
    """Session B written in its own frame and mapped back must check as before."""
    tube_a, tube_b, overlap = separated_pair
    p = Rotation.from_rotvec([0.1, -0.2, 0.05])
    q = Rotation.from_rotvec([-0.15, 0.1, 0.2])
    centers = Rotation.from_matrix(np.asarray(tube_b["center"]).reshape(K, 3, 3))
    own_frame = dict(tube_b, center=(p.inv() * centers * q.inv()).as_matrix()
                     .reshape(K, 9).tolist())
    align = {"p": p.as_matrix().reshape(-1).tolist(), "q": q.as_matrix().reshape(-1).tolist(),
             "warp": [[0.0, 0.0], [1.0, 1.0]]}
    res = checks.check_pair(tube_a, own_frame, _report(overlap), align, (0.4, 0.6), True)
    assert res.failures == []


def _golden_cells():
    golden = json.loads((HERE / "golden_coverage.json").read_text())
    cells = [{"n": c["key"][0], "sigma": c["key"][1], "modulation": c["key"][2],
              "mixing": c["key"][3], "family": c["key"][4], "covered": list(c["covered"]),
              "n_singular": c["n_singular"]} for c in golden["cells"]]
    return golden, cells


def test_golden_counts_pass():
    golden, cells = _golden_cells()
    assert all(f == [] for f in checks.golden_failures(cells, golden))


def test_golden_count_off_by_one_fails():
    golden, cells = _golden_cells()
    cells[4]["covered"][1] += 1
    failures = checks.golden_failures(cells, golden)
    assert sum(1 for f in failures if f) == 1 and failures[4]


def test_cell_checks():
    cell = {"n": 10, "sigma": 0.05, "modulation": 1, "mixing": 1, "family": 1, "reps": 100,
            "covered": [86, 91, 95], "n_singular": 0, "reference": [86.1, 91.0, 95.0]}
    assert checks.check_cell(cell) == []
    assert checks.check_cell(dict(cell, covered=[86, 95, 91]))
    assert checks.check_reference(cell).failures == []
    assert checks.check_reference(dict(cell, covered=[40, 45, 50])).failures
    cut_locus = dict(cell, n=15, sigma=0.6, modulation=3, mixing=2, covered=[40, 45, 50])
    res = checks.check_reference(cut_locus)
    assert res.failures == [] and len(res.reference_deviation) == 3
