#!/usr/bin/env python3
"""Record the fixed-seed covered counts that the coverage workload checks.

    python3 bench/record_golden.py

Run it only when a change to seeded coverage results is intended; the
benchmark fails every coverage run whose counts differ from the record.
"""

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from rotubes import battery
    from rotubes.curves import TimeGrid

    cells = run.golden_cells(battery, TimeGrid.uniform(run.GRID_SIZE))
    record = {"seed": run.DEFAULT_SEED, "reps": run.GOLDEN_REPS,
              "rows": [list(r) for r in run.SLICE],
              "cells": [{"key": list(run._key(c)), "covered": c["covered"],
                         "n_singular": c["n_singular"]} for c in cells]}
    cells = ",\n  ".join(json.dumps(c) for c in record.pop("cells"))
    head = json.dumps(record)[:-1]
    with open(run.BENCH / "golden_coverage.json", "w") as fh:
        fh.write(f'{head}, "cells": [\n  {cells}\n]}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
