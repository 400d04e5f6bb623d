"""Long-running coverage benchmark across the full simulation design.

Thirty-six configurations (sample size x noise scale x modulation/mixing),
each run for all three error-process families at confidence levels
85/90/95, and reported side by side with the published reference covering
rates for the same design.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import DEFAULT_GRID, TimeGrid
from .io import SCHEMA
from .simulation import CoverageReport, ErrorProcessSpec, coverage_experiment

ALPHAS = (0.15, 0.10, 0.05)

# Covering rates in percent at 85/90/95 per family i, keyed by row (n, sigma, l, j).
REFERENCE_RATES = {
    (10, 0.05, 1, 1): {1: (86.1, 91.0, 95.0), 2: (85.3, 90.1, 95.6), 3: (90.4, 93.9, 96.6)},
    (15, 0.05, 1, 1): {1: (85.0, 90.1, 95.4), 2: (85.7, 90.7, 94.9), 3: (89.4, 93.0, 96.6)},
    (30, 0.05, 1, 1): {1: (85.1, 91.0, 94.9), 2: (86.4, 90.6, 94.7), 3: (90.1, 93.5, 96.5)},
    (10, 0.05, 1, 2): {1: (85.3, 89.9, 94.6), 2: (86.1, 90.9, 95.4), 3: (90.1, 93.1, 97.2)},
    (15, 0.05, 1, 2): {1: (85.4, 89.8, 95.4), 2: (85.9, 90.5, 94.9), 3: (90.3, 93.0, 96.7)},
    (30, 0.05, 1, 2): {1: (85.0, 90.2, 95.6), 2: (85.9, 89.8, 94.9), 3: (90.2, 92.9, 96.6)},
    (10, 0.05, 3, 1): {1: (84.8, 90.0, 95.3), 2: (86.2, 90.9, 95.5), 3: (91.0, 93.6, 97.1)},
    (15, 0.05, 3, 1): {1: (84.3, 89.9, 95.2), 2: (86.2, 90.6, 95.0), 3: (90.3, 93.0, 96.2)},
    (30, 0.05, 3, 1): {1: (84.7, 90.1, 95.2), 2: (86.6, 90.8, 94.9), 3: (90.0, 92.6, 96.5)},
    (10, 0.05, 3, 2): {1: (86.0, 90.6, 95.0), 2: (85.4, 90.3, 95.5), 3: (90.3, 93.3, 96.9)},
    (15, 0.05, 3, 2): {1: (84.9, 90.0, 94.7), 2: (85.4, 90.5, 95.3), 3: (90.1, 93.5, 97.3)},
    (30, 0.05, 3, 2): {1: (85.1, 89.7, 95.3), 2: (85.9, 90.7, 94.9), 3: (89.9, 92.9, 96.5)},
    (10, 0.1, 1, 1): {1: (84.7, 90.8, 94.9), 2: (85.2, 91.4, 95.4), 3: (90.3, 93.4, 96.7)},
    (15, 0.1, 1, 1): {1: (84.9, 89.8, 95.1), 2: (86.1, 90.4, 95.1), 3: (89.5, 91.6, 96.6)},
    (30, 0.1, 1, 1): {1: (85.0, 90.5, 95.1), 2: (85.8, 91.1, 95.5), 3: (89.9, 92.7, 96.3)},
    (10, 0.1, 1, 2): {1: (85.5, 90.4, 94.5), 2: (86.3, 90.8, 95.1), 3: (90.3, 93.3, 96.4)},
    (15, 0.1, 1, 2): {1: (85.4, 89.9, 94.7), 2: (86.1, 89.9, 95.3), 3: (89.9, 93.1, 95.9)},
    (30, 0.1, 1, 2): {1: (85.1, 89.6, 95.0), 2: (85.4, 90.7, 95.7), 3: (89.9, 93.1, 96.4)},
    (10, 0.1, 3, 1): {1: (85.4, 90.1, 96.0), 2: (85.4, 90.2, 94.6), 3: (90.1, 93.6, 97.0)},
    (15, 0.1, 3, 1): {1: (84.1, 89.6, 94.7), 2: (86.0, 90.5, 95.0), 3: (88.9, 92.9, 96.5)},
    (30, 0.1, 3, 1): {1: (85.4, 90.3, 94.9), 2: (85.3, 90.1, 95.3), 3: (88.9, 93.4, 96.5)},
    (10, 0.1, 3, 2): {1: (84.6, 90.5, 95.1), 2: (86.5, 91.0, 95.3), 3: (89.9, 93.4, 96.3)},
    (15, 0.1, 3, 2): {1: (85.2, 90.2, 95.1), 2: (86.2, 89.8, 95.3), 3: (89.8, 93.1, 96.2)},
    (30, 0.1, 3, 2): {1: (85.7, 89.6, 95.0), 2: (85.1, 90.6, 95.5), 3: (90.9, 93.2, 96.6)},
    (10, 0.6, 1, 1): {1: (82.4, 87.7, 93.9), 2: (81.6, 87.3, 93.6), 3: (87.1, 91.2, 95.5)},
    (15, 0.6, 1, 1): {1: (79.9, 85.7, 92.7), 2: (80.7, 86.4, 92.9), 3: (85.2, 90.2, 94.6)},
    (30, 0.6, 1, 1): {1: (79.4, 85.5, 92.4), 2: (78.7, 84.8, 92.3), 3: (82.8, 87.6, 92.9)},
    (10, 0.6, 1, 2): {1: (81.5, 87.7, 93.8), 2: (82.0, 88.6, 93.8), 3: (88.1, 92.1, 96.0)},
    (15, 0.6, 1, 2): {1: (81.9, 86.8, 93.1), 2: (81.0, 87.1, 93.2), 3: (86.3, 90.5, 94.7)},
    (30, 0.6, 1, 2): {1: (80.0, 85.7, 91.9), 2: (80.9, 85.6, 92.1), 3: (85.2, 87.6, 93.9)},
    (10, 0.6, 3, 1): {1: (83.0, 88.7, 94.7), 2: (84.2, 88.8, 94.2), 3: (88.1, 91.6, 96.0)},
    (15, 0.6, 3, 1): {1: (81.9, 88.5, 93.5), 2: (80.9, 87.2, 93.8), 3: (86.0, 90.5, 95.1)},
    (30, 0.6, 3, 1): {1: (80.2, 86.7, 93.1), 2: (80.0, 86.3, 92.8), 3: (85.0, 89.5, 94.0)},
    (10, 0.6, 3, 2): {1: (84.3, 89.7, 94.4), 2: (84.2, 89.0, 94.9), 3: (87.4, 92.5, 96.2)},
    (15, 0.6, 3, 2): {1: (81.5, 86.8, 93.5), 2: (81.6, 87.2, 94.0), 3: (86.2, 89.7, 95.2)},
    (30, 0.6, 3, 2): {1: (81.3, 86.6, 92.4), 2: (81.8, 86.7, 92.4), 3: (85.8, 89.2, 93.2)},
}

ROWS = list(REFERENCE_RATES)


@dataclass(frozen=True)
class BatteryEntry:
    n: int
    sigma: float
    modulation: int
    mixing: int
    family: int
    report: CoverageReport
    reference: tuple[float, float, float]


def run_battery(reps: int, seed: int, grid: TimeGrid = DEFAULT_GRID,
                rows: list[tuple[int, float, int, int]] | None = None,
                progress=None) -> list[BatteryEntry]:
    """Run every configuration (optionally a subset of rows) at `reps` each.

    Entries are keyed (seed, position in rows, family), independent of execution
    order; only a prefix of ROWS reproduces the full run's entries for its rows.
    """
    rows = ROWS if rows is None else rows
    entries = []
    for row_idx, (n, sigma, l, j) in enumerate(rows):
        for family in (1, 2, 3):
            spec = ErrorProcessSpec(family, l, j, sigma)
            report = coverage_experiment(spec, n, reps, list(ALPHAS), grid,
                                         seed=(seed, row_idx, family))
            entry = BatteryEntry(n=n, sigma=sigma, modulation=l, mixing=j,
                                 family=family, report=report,
                                 reference=REFERENCE_RATES[(n, sigma, l, j)][family])
            entries.append(entry)
            if progress is not None:
                progress(entry)
    return entries


def battery_to_dict(entries: list[BatteryEntry], reps: int, seed: int) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "coverage_battery",
        "reps": reps,
        "seed": seed,
        "alphas": list(ALPHAS),
        "entries": [{
            "n": e.n,
            "sigma": e.sigma,
            "modulation": e.modulation,
            "mixing": e.mixing,
            "family": e.family,
            "rates_percent": [round(100.0 * r, 2) for r in e.report.rates],
            "reference_percent": list(e.reference),
            "n_singular": e.report.n_singular,
        } for e in entries],
    }


def format_battery_table(entries: list[BatteryEntry]) -> str:
    """Side-by-side text table: simulated vs reference covering rates."""
    lines = [
        f"{'n':>3} {'sigma':>5} {'l':>2} {'j':>2} {'fam':>3}   "
        f"{'simulated 85/90/95':>22}   {'reference 85/90/95':>22}",
    ]
    for e in entries:
        sim = "/".join(f"{100.0 * r:.1f}" for r in e.report.rates)
        ref = "/".join(f"{r:.1f}" for r in e.reference)
        lines.append(f"{e.n:>3} {e.sigma:>5} {e.modulation:>2} {e.mixing:>2} "
                     f"{e.family:>3}   {sim:>22}   {ref:>22}")
    return "\n".join(lines)
