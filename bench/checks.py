"""Output checks for both workloads.

The session checks read only the JSON records the CLI wrote and use
scipy.spatial.transform for every rotation operation, so they do not share
code with the package's own so3 layer.  Each checker returns a list of
failure messages (empty when the output is correct) plus counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats
from scipy.spatial.transform import Rotation, Slerp

# -- coverage ----------------------------------------------------------------

BINOMIAL_TAIL = 1e-6      # two-sided tail mass outside the accepted count range
# Design rows (n, sigma, modulation, mixing) whose generating displacements
# wrap the cut locus, so the package covers far below the reference rates.
# This is the known defect listed under "Input and record hardening" in
# ROADMAP.md; their reference comparison is reported, not gated.  The PR that
# fixes the wrap removes its row here, so that the check gates it again.
CUT_LOCUS_ROWS = {(15, 0.6, 3, 2)}


def wraps_cut_locus(cell: dict) -> bool:
    return (cell["n"], cell["sigma"], cell["modulation"], cell["mixing"]) in CUT_LOCUS_ROWS


def count_range(reps: int, percent: float) -> tuple[int, int]:
    """Covered counts accepted for `reps` replications at a reference rate."""
    dist = stats.binom(reps, percent / 100.0)
    return int(dist.ppf(BINOMIAL_TAIL / 2)), int(dist.isf(BINOMIAL_TAIL / 2))


def check_cell(cell: dict) -> list[str]:
    """One battery cell: {n, sigma, modulation, mixing, family, reps, covered,
    n_singular, reference}; covered holds counts at alphas 0.15, 0.10, 0.05."""
    covered = cell["covered"]
    failures = []
    if not covered[2] >= covered[1] >= covered[0]:
        failures.append(f"{_label(cell)}: coverage not monotone in alpha: {covered}")
    if not (isinstance(cell.get("n_singular"), int) and cell["n_singular"] >= 0):
        failures.append(f"{_label(cell)}: n_singular missing or invalid")
    return failures


@dataclass
class ReferenceCheck:
    failures: list[str] = field(default_factory=list)
    reference_deviation: list[str] = field(default_factory=list)   # reported only


def check_reference(cell: dict) -> ReferenceCheck:
    """Covered counts of a cell (usually pooled over sweeps) against the reference."""
    out = ReferenceCheck()
    exempt = wraps_cut_locus(cell)
    for count, ref in zip(cell["covered"], cell["reference"]):
        lo, hi = count_range(cell["reps"], ref)
        if not lo <= count <= hi:
            msg = (f"{_label(cell)}: {count}/{cell['reps']} covered, outside [{lo}, {hi}] "
                   f"for reference {ref}%")
            (out.reference_deviation if exempt else out.failures).append(msg)
    return out


def _label(cell: dict) -> str:
    return (f"cell n={cell['n']} sigma={cell['sigma']} l={cell['modulation']} "
            f"j={cell['mixing']} family={cell['family']}")


def golden_failures(cells: list[dict], golden: dict) -> list[list[str]]:
    """Failures per recorded cell: covered and singular counts must match exactly."""
    found = {(c["n"], c["sigma"], c["modulation"], c["mixing"], c["family"]): c for c in cells}
    out = []
    for rec in golden["cells"]:
        key = tuple(rec["key"])
        cell = found.pop(key, None)
        if cell is None:
            out.append([f"golden: no result for cell {key}"])
        elif rec["covered"] != list(cell["covered"]) or rec["n_singular"] != cell["n_singular"]:
            out.append([f"golden: cell {key} covered {list(cell['covered'])} singular "
                        f"{cell['n_singular']}, recorded {rec['covered']} "
                        f"singular {rec['n_singular']}"])
        else:
            out.append([])
    if found:
        out.append([f"golden: unrecorded cells {sorted(found)}"])
    return out


# -- sessions ------------------------------------------------------------------

BOUND_MARGIN = 1e-3       # relative margin before a ball bound decides a point
_UPPER = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


@dataclass(frozen=True)
class Tube:
    t: np.ndarray
    center: Rotation
    s: np.ndarray          # (K, 3, 3)
    h: float
    n: int


def tube_from_record(rec: dict) -> Tube:
    t = np.asarray(rec["grid"], dtype=float)
    upper = np.asarray(rec["cov_upper"], dtype=float)
    s = np.empty((t.size, 3, 3))
    for col, (i, j) in enumerate(_UPPER):
        s[:, i, j] = s[:, j, i] = upper[:, col]
    center = Rotation.from_matrix(np.asarray(rec["center"], dtype=float).reshape(-1, 3, 3))
    return Tube(t, center, s, float(rec["hquant"]), int(rec["n"]))


def act_on(tube: Tube, align: dict, out_t: np.ndarray) -> Tube:
    """Tube transport as act_on_tube documents it.

    Center: P center(warp(t)) Q with geodesic interpolation; covariance:
    Q^T S(warp(t)) Q with S linear between grid points; quantile and n kept.
    """
    p = Rotation.from_matrix(np.asarray(align["p"], dtype=float).reshape(3, 3))
    q = Rotation.from_matrix(np.asarray(align["q"], dtype=float).reshape(3, 3))
    knots = np.asarray(align.get("warp", [[0.0, 0.0], [1.0, 1.0]]), dtype=float)
    warped = np.interp(out_t, knots[:, 0], knots[:, 1])
    center = p * Slerp(tube.t, tube.center)(warped) * q
    s_interp = np.stack([np.interp(warped, tube.t, tube.s[:, i, j])
                         for i in range(3) for j in range(3)], axis=-1).reshape(-1, 3, 3)
    qm = q.as_matrix()
    return Tube(out_t, center, qm.T @ s_interp @ qm, tube.h, tube.n)


def _radii(tube: Tube) -> tuple[np.ndarray, np.ndarray]:
    lam = np.linalg.eigvalsh(tube.s)
    r = np.sqrt(np.clip(lam, 0.0, None) * tube.h / tube.n)
    return r[:, 0], r[:, -1]


def _false_runs(overlap: list[bool]) -> list[tuple[int, int]]:
    runs, start = [], None
    for k, ok in enumerate(overlap + [True]):
        if not ok and start is None:
            start = k
        elif ok and start is not None:
            runs.append((start, k - 1))
            start = None
    return runs


@dataclass
class PairCheck:
    failures: list[str] = field(default_factory=list)
    checked: int = 0
    unchecked: int = 0


def check_pair(tube_a: dict, tube_b: dict, report: dict, align: dict | None,
               interval: tuple[float, float] | None, clear: bool) -> PairCheck:
    """Overlap decisions of one compare against the ball bounds.

    With d the center distance and r = sqrt(lambda(S) h / n): tube a holds the
    ball of radius r_min,a about its center and lies inside the ball of radius
    r_max,a, and likewise for b.  So d <= r_min,a + r_min,b forces overlap and
    d > r_max,a + r_max,b forces non-overlap; points in between are unchecked.
    A clear injected difference on [t0, t1] must come out as one locus whose
    ends lie within one grid step of t0 and t1.  Loci further away are judged
    by the ball bounds alone: two samples of the same center can have
    narrow tubes that miss each other by chance.
    """
    out = PairCheck()
    a = tube_from_record(tube_a)
    b = tube_from_record(tube_b)
    if align is not None:
        b = act_on(b, align, a.t)
    overlap = [bool(v) for v in report["overlap"]]
    if len(overlap) != a.t.size:
        out.failures.append(f"report has {len(overlap)} decisions for {a.t.size} grid points")
        return out

    d = (a.center.inv() * b.center).magnitude()
    rmin_a, rmax_a = _radii(a)
    rmin_b, rmax_b = _radii(b)
    must_overlap = d <= (rmin_a + rmin_b) * (1.0 - BOUND_MARGIN)
    must_separate = d >= (rmax_a + rmax_b) * (1.0 + BOUND_MARGIN)
    for k in range(a.t.size):
        if must_overlap[k] or must_separate[k]:
            out.checked += 1
            if overlap[k] != bool(must_overlap[k]):
                out.failures.append(
                    f"t={a.t[k]:.2f}: reported {'overlap' if overlap[k] else 'non-overlap'}, "
                    f"ball bounds force {'overlap' if must_overlap[k] else 'non-overlap'} "
                    f"(d={d[k]:.4g}, inner sum {rmin_a[k] + rmin_b[k]:.4g}, "
                    f"outer sum {rmax_a[k] + rmax_b[k]:.4g})")
        else:
            out.unchecked += 1

    loci = [(int(l["start_index"]), int(l["end_index"])) for l in report["loci"]]
    if loci != _false_runs(overlap):
        out.failures.append(f"loci {loci} disagree with the overlap flags")
    if clear and interval is not None:
        step = float(a.t[1] - a.t[0])
        t0, t1 = interval
        found = [(float(a.t[i]), float(a.t[j])) for i, j in loci]
        near = [(s, e) for s, e in found if s <= t1 + step + 1e-9 and e >= t0 - step - 1e-9]
        if not (len(near) == 1 and abs(near[0][0] - t0) <= step + 1e-9
                and abs(near[0][1] - t1) <= step + 1e-9):
            out.failures.append(f"injected difference on [{t0:.2f}, {t1:.2f}] "
                                f"localized to {found}")
    return out
