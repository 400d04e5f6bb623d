#!/usr/bin/env python3
"""Layered benchmark of the rotubes package: end-to-end and per-layer metrics.

    python3 bench/run.py --workload coverage|sessions --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's src/ directory, never from an installed copy.  Each workload runs
in this one process as a closed loop with one client.

  coverage  battery.run_battery over a fixed 6-row slice of the paper's
            design, all 3 families at alphas 0.15/0.10/0.05 (18 cells per
            sweep).  An op is one cell; work is counted in replications.
  sessions  the gait pipeline through the CLI entry point, in process:
            `tube` for session A, `tube` for session B, `compare`.  An op is
            that triple; the session pairs are CSV fixtures written during
            set-up from the seed (see fixtures.py).

A run is one pass over at least 100 distinct ops (108 cells, or 3 x 34
pipelines), repeated identically while less than --seconds has been
measured.  Op times are scaled by a reference kernel timed between
ops, to cancel the slow phases of a shared host (see Calibration).

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 the same work runs once untraced and once with the package's
module attributes rebound to span wrappers (tracing.py), and the last line
holds the per-layer metrics.  Every op's output is checked (checks.py); a
full record with provenance is written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("coverage", "sessions")
DEFAULT_SEED = 20261017
GRID_SIZE = 101
ALPHA = 0.05                       # sessions tube level
SLICE = [(10, 0.05, 1, 1), (30, 0.05, 3, 2), (15, 0.1, 1, 2),
         (10, 0.1, 3, 1), (30, 0.6, 1, 1), (15, 0.6, 3, 2)]
REPS_PER_CELL = 15
SWEEPS_PER_PASS = 6                # 108 cells per pass, so the p90 has ten cells beyond it
CONTENT_ROUNDS = 3                 # sessions: 3 x 34 = 102 distinct ops per pass
SETUP_ROUNDS = 7                   # timed set-up rounds; setup_s is their median
GOLDEN_REPS = 5                    # per-cell reps of the fixed-seed reproducibility sweep
MAX_MEASURE_S = 150.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import rotubes; print(time.perf_counter() - t)")
# Set-up reference: the package's dependencies imported in a fresh interpreter.
# It is timed next to every set-up round, and setup_s is scaled to a host where
# it takes REFERENCE_NOMINAL_S (a quiet 2-vCPU Xeon virtual machine).
IMPORT_REFERENCE = ("import time; t = time.perf_counter(); import numpy, scipy.special; "
                    "print(time.perf_counter() - t)")
REFERENCE_NOMINAL_S = 0.30

# Hooks that must fire on each workload; a rename or bypass fails the traced run.
EXPECTED_HOOKS = {
    "coverage": ["so3.exp", "so3.log", "so3.check_rotation", "so3.project",
                 "curves.extrinsic_mean", "gkf.solve_quantile", "gkf.expected_ec", "gkf.lkc",
                 "tubes.ingredients", "tubes.spd_check", "tubes.assemble", "tubes.contains",
                 "simulation.sample", "simulation.coverage", "battery.run"],
    "sessions": ["so3.exp", "so3.log", "so3.check_rotation", "so3.project",
                 "curves.extrinsic_mean", "curves.apply_action", "gkf.solve_quantile",
                 "gkf.expected_ec", "gkf.lkc", "tubes.ingredients", "tubes.spd_check",
                 "tubes.assemble", "tubes.build", "tubes.compare", "tubes.act_on_tube",
                 "io.ingest", "io.ingest.parse", "io.json_write", "io.json_read",
                 "cli.tube", "cli.compare"],
}


class Fatal(Exception):
    """The benchmark cannot produce a result (wrong package imported, hook guard)."""



def install_tracer(ctx):
    """A tracer with its hooks installed; a missing hook target is fatal."""
    tracer = ctx["tracing"].Tracer()
    try:
        tracer.install()
    except ctx["tracing"].HookError as exc:
        tracer.uninstall()
        raise Fatal(str(exc)) from exc
    return tracer


# -- shared bookkeeping ---------------------------------------------------------

class Tally:
    """Ops attempted and failed, plus the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(failures[:3])
            for msg in failures[:3]:
                print(f"check failed: {msg}", file=sys.stderr)


class Calibration:
    """Host speed while the ops ran, from a fixed reference kernel.

    Other tenants of a shared host slow it down by up to a third, in phases
    that can outlast a whole run.  The kernel (small numpy calls driven by a
    Python loop, like the package's numerical hot paths) is timed between
    ops; a scaled op time is divided by the kernel times around it and
    multiplied by NOMINAL_S, giving the time on a host where the kernel takes
    NOMINAL_S (a quiet 2-vCPU Xeon virtual machine).
    """

    NOMINAL_S = 0.010

    def __init__(self):
        import numpy as np
        self._np = np
        self._a = np.random.default_rng(0).standard_normal((64, 3, 3))
        self.times: list[float] = []

    def measure(self) -> None:
        np, a = self._np, self._a
        start = time.perf_counter()
        acc = 0.0
        for i in range(1500):
            m = a[i % 64]
            acc += float(np.linalg.det(m @ m.T)) + sum(range(20))
        np.linalg.svd(a)
        self.times.append(time.perf_counter() - start)

    def scale(self, before: int) -> float:
        """Factor for an op between kernel runs `before` and `before + 1`: the
        median of the five nearest kernel runs, which smooths sub-second bursts."""
        window = self.times[max(0, before - 1):before + 4]
        return self.NOMINAL_S / statistics.median(window)


class Passes:
    """Latencies of one fixed op list run in identical passes.

    An op's latency is the median of its times over the passes, each time
    optionally scaled by the calibration kernel measured around it.
    """

    def __init__(self, calibration: Calibration):
        self.cal = calibration
        self.runs: list[tuple[int, float, int]] = []   # (op, raw seconds, kernel run before)
        self.count = 0                                   # passes finished
        self.busy = 0.0                                  # raw measured seconds

    def add(self, op: int, seconds: float) -> None:
        self.runs.append((op, seconds, len(self.cal.times) - 1))
        self.busy += seconds

    def per_op(self, scaled: bool = True) -> dict[int, float]:
        by_op: dict[int, list[float]] = {}
        for op, seconds, before in self.runs:
            by_op.setdefault(op, []).append(
                seconds * self.cal.scale(before) if scaled else seconds)
        return {op: statistics.median(v) for op, v in sorted(by_op.items())}

    def scaled_total(self) -> float:
        return sum(seconds * self.cal.scale(before) for _, seconds, before in self.runs)


def run_passes(one_pass, seconds: float, passes: int | None = None) -> None:
    """Call one_pass() `passes` times, or until it reports `seconds` measured in total."""
    done, busy = 0, 0.0
    while True:
        if done == passes or (passes is None and busy >= min(seconds, MAX_MEASURE_S)):
            return
        busy = one_pass()
        done += 1


def percentile_ms(latencies: list[float]) -> tuple[float, float]:
    p90 = statistics.quantiles(latencies, n=10)[8]
    return 1000.0 * statistics.median(latencies), 1000.0 * p90


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure_span(args) -> float:
    """Seconds of the measured loop.  A traced run measures half its time
    untraced, then repeats exactly those passes traced."""
    return args.seconds / 2 if args.trace else args.seconds


# -- coverage workload ----------------------------------------------------------

def _cell_from_entry(entry) -> dict:
    reps = entry.report.reps
    return {"n": entry.n, "sigma": entry.sigma, "modulation": entry.modulation,
            "mixing": entry.mixing, "family": entry.family, "reps": reps,
            "covered": [int(round(r * reps)) for r in entry.report.rates],
            "n_singular": int(entry.report.n_singular),
            "reference": list(entry.reference)}


def coverage_sweep(battery, grid, seed: int, reps: int, on_cell) -> None:
    """One run_battery call over the slice; on_cell(cell, seconds) per finished cell."""
    last = [time.perf_counter()]

    def progress(entry):
        now = time.perf_counter()
        on_cell(_cell_from_entry(entry), now - last[0])
        last[0] = time.perf_counter()

    battery.run_battery(reps, seed, grid, rows=SLICE, progress=progress)


def _key(cell: dict) -> tuple:
    return (cell["n"], cell["sigma"], cell["modulation"], cell["mixing"], cell["family"])


class CoverageRun:
    """Passes of SWEEPS_PER_PASS run_battery sweeps; an op is one cell."""

    def __init__(self, ctx, tally: Tally):
        self.ctx = ctx
        self.tally = tally
        self.passes = Passes(ctx["calibration"])
        self.first: dict[int, dict] = {}         # op -> cell of the first pass
        self.deviations: dict[str, int] = {}     # cut-locus cell -> reference misses

    def one_pass(self, tracer=None) -> float:
        battery, grid, checks = self.ctx["battery"], self.ctx["grid"], self.ctx["checks"]
        op = 0

        def on_cell(cell, seconds):
            nonlocal op
            self._finish_cell(op, cell, seconds)
            self.passes.cal.measure()
            op += 1
            if tracer is not None:
                tracer.op += 1

        if tracer is not None:
            # A span of its own keeps checks and calibration out of battery.run's self time.
            on_cell = tracer.span_wrapper("bench.check", on_cell, None)
        n_cells = len(SLICE) * 3
        for sweep in range(SWEEPS_PER_PASS):
            self.passes.cal.measure()
            try:
                coverage_sweep(battery, grid, self.ctx["seed"] * 1000 + sweep, REPS_PER_CELL,
                               on_cell)
            except Exception:
                traceback.print_exc()
                missing = (sweep + 1) * n_cells - op
                for _ in range(missing):
                    self.tally.record(["run_battery raised before finishing the sweep"])
                op = (sweep + 1) * n_cells
        if self.passes.count == 0:
            self._check_reference()
        self.passes.count += 1
        return self.passes.busy

    def _finish_cell(self, op: int, cell: dict, seconds: float) -> None:
        failures = self.ctx["checks"].check_cell(cell)
        first = self.first.setdefault(op, cell)
        if (first["covered"], first["n_singular"]) != (cell["covered"], cell["n_singular"]):
            failures.append(f"cell {_key(cell)}: pass {self.passes.count} covered "
                            f"{cell['covered']}, first pass {first['covered']}")
        self.tally.record(failures)
        self.passes.add(op, seconds)

    def _check_reference(self) -> None:
        """Rates pooled over the pass's sweeps against the reference, one check per cell."""
        for cell in pooled_cells(self.first.values()):
            res = self.ctx["checks"].check_reference(cell)
            if res.reference_deviation:
                label = f"cell {_key(cell)}"
                self.deviations[label] = len(res.reference_deviation)
            self.tally.record(res.failures)

    def units(self) -> int:
        return sum(c["reps"] for c in self.first.values())

    def best_rate(self, family: int) -> float:
        """Replications per second of one family's cells, from scaled op times."""
        times = self.passes.per_op()
        ops = [op for op, c in self.first.items() if c["family"] == family]
        return sum(self.first[op]["reps"] for op in ops) / sum(times[op] for op in ops)


def pooled_cells(cells) -> list[dict]:
    pooled: dict[tuple, dict] = {}
    for cell in cells:
        agg = pooled.setdefault(_key(cell), dict(cell, reps=0, covered=[0, 0, 0], n_singular=0))
        agg["reps"] += cell["reps"]
        agg["n_singular"] += cell["n_singular"]
        agg["covered"] = [a + b for a, b in zip(agg["covered"], cell["covered"])]
    return list(pooled.values())


def golden_cells(battery, grid) -> list[dict]:
    """The fixed-seed sweep whose covered counts golden_coverage.json records."""
    cells: list[dict] = []
    coverage_sweep(battery, grid, DEFAULT_SEED, GOLDEN_REPS, lambda cell, _: cells.append(cell))
    return cells


def check_golden(ctx, tally: Tally) -> None:
    with open(BENCH / "golden_coverage.json") as fh:
        golden = json.load(fh)
    try:
        cells = golden_cells(ctx["battery"], ctx["grid"])
    except Exception:
        traceback.print_exc()
        cells = []
    for failures in ctx["checks"].golden_failures(cells, golden):
        tally.record(failures)


def coverage_summary(run: CoverageRun, design_rows: list[tuple]) -> dict:
    """Per-cell rates of the first pass, and a 36x3x1000 battery estimate."""
    rates = [{"cell": list(_key(c)), "reps": c["reps"], "n_singular": c["n_singular"],
              "rates_percent": [round(100.0 * k / c["reps"], 2) for k in c["covered"]],
              "reference_percent": c["reference"]} for c in pooled_cells(run.first.values())]
    # Scaled seconds per replication by (n, family), averaged over the slice's sigma/l/j.
    times = run.passes.per_op()
    per_rep: dict[tuple, list[float]] = {}
    for op, cell in run.first.items():
        per_rep.setdefault((cell["n"], cell["family"]), []).append(times[op] / cell["reps"])
    estimate = sum(1000 * statistics.mean(per_rep[(row[0], fam)])
                   for row in design_rows for fam in (1, 2, 3) if (row[0], fam) in per_rep)
    return {"cells": rates, "battery_36x3x1000_estimate_s": estimate}


def run_coverage(ctx, args, tally: Tally) -> dict:
    battery = ctx["battery"]
    # Warm-up: one small cell outside the timed loop.
    battery.run_battery(1, 0, ctx["grid"], rows=SLICE[:1])
    measured = CoverageRun(ctx, tally)
    run_passes(measured.one_pass, _measure_span(args))
    check_golden(ctx, tally)
    result = {
        "units": measured.units(), "passes": measured.passes,
        "reps_per_s_ou": measured.best_rate(3),
        "summary": coverage_summary(measured, battery.ROWS),
        "reference_deviations": measured.deviations,
    }
    if args.trace:
        tracer = install_tracer(ctx)
        try:
            traced = CoverageRun(ctx, tally)
            run_passes(lambda: traced.one_pass(tracer), 0.0, measured.passes.count)
        finally:
            tracer.uninstall()
        result.update(tracer=tracer, traced=traced.passes,
                      traced_units=traced.units() * traced.passes.count,
                      traced_ou_units=sum(c["reps"] for c in traced.first.values()
                                          if c["family"] == 3) * traced.passes.count)
    return result


# -- sessions workload ----------------------------------------------------------

def _pipeline(cli, pf, work: Path) -> tuple[list[str], float]:
    """Run tube A, tube B and compare; return (non-zero exit messages, seconds)."""
    ta, tb, out = str(work / "tube_a.json"), str(work / "tube_b.json"), str(work / "loci.json")
    commands = [["tube", "--input", pf.dir_a, "--alpha", str(ALPHA), "--out", ta],
                ["tube", "--input", pf.dir_b, "--alpha", str(ALPHA), "--out", tb],
                ["compare", "--tube-a", ta, "--tube-b", tb, "--out", out]
                + (["--alignment", pf.alignment] if pf.alignment else [])]
    errors = []
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        for argv in commands:
            rc = cli.cli_main(argv)
            if rc != 0:
                errors.append(f"{pf.spec.label}: `{argv[0]}` exited {rc}")
                break
    return errors, time.perf_counter() - start


class SessionsRun:
    """Passes over the pair mix; an op is tube A + tube B + compare of one pair."""

    def __init__(self, ctx, tally: Tally):
        self.ctx = ctx
        self.tally = tally
        self.passes = Passes(ctx["calibration"])
        self.first: dict[int, list[bool]] = {}   # op -> overlap flags of the first pass
        self.counts = {"checked": 0, "unchecked": 0}

    def one_pass(self, tracer=None) -> float:
        cli, work = self.ctx["cli"], self.ctx["work"]
        for op, pf in enumerate(self.ctx["pairs"]):
            self.passes.cal.measure()
            try:
                errors, seconds = _pipeline(cli, pf, work)
                self.passes.add(op, seconds)
                self.tally.record(errors or self._check(op, pf))
            except Exception:
                traceback.print_exc()
                self.tally.record([f"{pf.spec.label}: pipeline or its check raised"])
            if tracer is not None:
                tracer.op += 1
        self.passes.cal.measure()
        self.passes.count += 1
        return self.passes.busy

    def _check(self, op: int, pf) -> list[str]:
        work = self.ctx["work"]
        records = []
        for name in ("tube_a.json", "tube_b.json", "loci.json"):
            with open(work / name) as fh:
                records.append(json.load(fh))
        align = None
        if pf.alignment:
            with open(pf.alignment) as fh:
                align = json.load(fh)
        res = self.ctx["checks"].check_pair(*records, align, pf.interval,
                                            pf.spec.strength == "clear")
        self.counts["checked"] += res.checked
        self.counts["unchecked"] += res.unchecked
        failures = [f"{pf.spec.label}: {msg}" for msg in res.failures]
        if self.first.setdefault(op, records[2]["overlap"]) != records[2]["overlap"]:
            failures.append(f"{pf.spec.label}: decisions differ from the first pass")
        return failures


def run_sessions(ctx, args, tally: Tally) -> dict:
    # Warm-up: the first plain and the first aligned pair, outside the timed loop.
    pairs = ctx["pairs"]
    for pf in (pairs[0], next(p for p in pairs if p.alignment)):
        _pipeline(ctx["cli"], pf, ctx["work"])
    measured = SessionsRun(ctx, tally)
    run_passes(measured.one_pass, _measure_span(args))
    result = {"units": len(pairs), "passes": measured.passes,
              "decisions": dict(measured.counts),
              "pair_ms": {f"{op:03d}-{pairs[op].spec.label}": 1000.0 * s
                          for op, s in measured.passes.per_op().items()}}
    if args.trace:
        tracer = install_tracer(ctx)
        try:
            traced = SessionsRun(ctx, tally)
            run_passes(lambda: traced.one_pass(tracer), 0.0, measured.passes.count)
        finally:
            tracer.uninstall()
        result.update(tracer=tracer, traced=traced.passes,
                      traced_units=len(pairs) * traced.passes.count, traced_ou_units=0)
    return result


# -- set-up -----------------------------------------------------------------------

def import_seconds(env: dict, code: str) -> float:
    """Seconds a fresh interpreter spends in the import timed by `code`."""
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def set_up(args, env: dict, work_root: Path) -> tuple[dict, dict]:
    """Import the package, then time SETUP_ROUNDS rounds of import probe + inputs.

    For sessions, round r writes the r-th copy of the pair mix, with its own
    random content; a pass runs the first CONTENT_ROUNDS of them, and the
    later rounds, written for timing only, are deleted.  setup_s is the
    median round on a reference host, like the op times: the import probe
    is scaled by IMPORT_REFERENCE, timed before every round, and each pair's
    inputs by the calibration kernel timed around it.  The kernel alone does
    not track a fresh interpreter's imports, and one kernel window per round
    is too coarse for seconds of input generation; both made setup_s less
    steady.
    """
    sys.path.insert(0, str(SRC))
    import rotubes          # numpy loads here, after main() capped the BLAS threads
    if Path(rotubes.__file__).resolve().parent != (SRC / "rotubes").resolve():
        raise Fatal(f"imported rotubes from {rotubes.__file__}, not from {SRC}")
    from rotubes import battery, cli
    from rotubes.curves import TimeGrid

    sys.path.insert(0, str(BENCH))
    import checks
    import fixtures
    import tracing

    cal = Calibration()
    ctx = {"rotubes": rotubes, "battery": battery, "cli": cli, "checks": checks,
           "fixtures": fixtures, "tracing": tracing, "seed": args.seed, "calibration": cal}
    references, probes, inputs = [], [], []     # inputs: per round, (seconds, kernel run before)
    ctx["pairs"] = []
    for rep in range(SETUP_ROUNDS):
        references.append(import_seconds(env, IMPORT_REFERENCE))
        probes.append(import_seconds(env, IMPORT_PROBE))
        ctx["grid"] = TimeGrid.uniform(GRID_SIZE)
        inputs.append([])
        if args.workload == "sessions":
            root = work_root / f"fixtures{rep}"
            root.mkdir()
            for index, spec in enumerate(fixtures.PAIR_MIX):
                cal.measure()
                start = time.perf_counter()
                pair = fixtures.write_pair(str(root), index, spec, args.seed, rep)
                inputs[-1].append((time.perf_counter() - start, len(cal.times) - 1))
                if rep < CONTENT_ROUNDS:
                    ctx["pairs"].append(pair)
            cal.measure()
            if rep >= CONTENT_ROUNDS:
                shutil.rmtree(root, ignore_errors=True)
    probe_scale = REFERENCE_NOMINAL_S / statistics.median(references)
    raw = [p + sum(s for s, _ in pairs) for p, pairs in zip(probes, inputs)]
    scaled = [p * probe_scale + sum(s * cal.scale(before) for s, before in pairs)
              for p, pairs in zip(probes, inputs)]
    setup = {"raw_s": statistics.median(raw), "scaled_s": statistics.median(scaled),
             "rounds_raw_s": raw, "rounds_scaled_s": scaled, "reference_s": references}
    ctx["work"] = work_root / "ops"
    ctx["work"].mkdir()
    return ctx, setup


# -- metrics and provenance -------------------------------------------------------

def end_to_end(result: dict, setup: dict, scaled: bool) -> dict:
    times = list(result["passes"].per_op(scaled).values())
    p50, p90 = percentile_ms(times)
    return {"setup_s": (setup["scaled_s" if scaled else "raw_s"], "s"),
            "throughput": (result["units"] / sum(times), "1/s"),
            "latency_ms_p50": (p50, "ms"),
            "latency_ms_p90": (p90, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB")}


def per_layer(result: dict) -> dict:
    tr = result["tracer"]
    units = max(result["traced_units"], 1)

    def per(x):
        return x / units

    m = {}
    for name in ("so3.exp", "so3.log", "so3.check_rotation", "so3.project"):
        m[f"{name}.calls"] = (per(tr.calls_of(name)), "1/op")
        m[f"{name}.points"] = (per(tr.points_of(name)), "1/op")
        m[f"{name}.self_s"] = (per(tr.self_of(name)), "s/op")
    for name in ("curves.extrinsic_mean", "curves.apply_action", "gkf.solve_quantile",
                 "tubes.ingredients", "tubes.contains", "tubes.compare",
                 "simulation.sample", "io.ingest"):
        m[f"{name}.calls"] = (per(tr.calls_of(name)), "1/op")
        m[f"{name}.self_s"] = (per(tr.self_of(name)), "s/op")
    for name in ("gkf.lkc", "tubes.assemble", "tubes.act_on_tube", "simulation.coverage",
                 "battery.run", "io.json_write", "io.json_read", "cli.tube", "cli.compare"):
        m[f"{name}.self_s"] = (per(tr.self_of(name)), "s/op")
    solves = tr.calls_of("gkf.solve_quantile")
    compare_points = tr.points_of("tubes.compare")
    m["gkf.expected_ec.calls"] = (per(tr.calls_of("gkf.expected_ec")), "1/op")
    m["gkf.ec_evals_per_solve"] = (tr.extra.get("gkf.expected_ec.in_solve", 0.0) / solves
                                   if solves else 0.0, "1/solve")
    m["tubes.ingredients.errors"] = (per(tr.errors_of("tubes.ingredients")), "1/op")
    m["tubes.spd_checks_per_rep"] = (per(tr.calls_of("tubes.spd_check")), "1/op")
    m["tubes.compare.points"] = (per(compare_points), "1/op")
    m["tubes.compare.nonoverlap_points"] = (
        per(tr.extra.get("tubes.compare.nonoverlap_points", 0.0)), "1/op")
    m["tubes.compare.exp_calls_per_point"] = (
        tr.extra.get("tubes.compare.exp_calls", 0.0) / compare_points
        if compare_points else 0.0, "1/point")
    ou_units = result["traced_ou_units"]
    m["simulation.sample.self_s_ou"] = (
        tr.extra.get("simulation.sample.self_s_ou", 0.0) / ou_units if ou_units else 0.0,
        "s/op")
    m["reps_per_s_ou"] = (result.get("reps_per_s_ou", 0.0), "reps/s")
    m["io.ingest.rows"] = (per(tr.points_of("io.ingest.parse")), "1/op")
    m["io.ingest.rows_projected"] = (per(tr.extra.get("io.ingest.rows_projected", 0.0)), "1/op")
    m["io.json_write.bytes"] = (per(tr.points_of("io.json_write")), "B/op")
    m["trace.overhead_frac"] = (
        result["traced"].scaled_total() / result["passes"].scaled_total() - 1.0, "fraction")
    return m


def hook_guard(workload: str, tracer) -> None:
    silent = [h for h in EXPECTED_HOOKS[workload] if tracer.calls_of(h) == 0]
    if silent:
        raise Fatal(f"hook guard: {', '.join(silent)} never fired on {workload}; "
                    f"a traced function was renamed or bypassed")


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_config() -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        return {k: deps.get(k) for k in ("blas", "lapack")}
    except TypeError:                       # numpy older than 1.25 has no mode argument
        return {"numpy_config": "unavailable"}


def provenance(args, ctx, setup: dict) -> dict:
    import numpy as np
    import scipy
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    prov = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "grid_size": GRID_SIZE,
        "rotubes_version": ctx["rotubes"].__version__, "git_commit": _git_commit(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": _blas_config(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_cap": {v: os.environ.get(v) for v in BLAS_VARS},
        "machine": platform.machine(), "cpu": _cpu_model(), "src_lines": src_lines,
        "setup": {k: setup[k] for k in ("rounds_raw_s", "rounds_scaled_s", "reference_s")},
    }
    if args.workload == "coverage":
        prov.update(slice_rows=[list(r) for r in SLICE], reps_per_cell=REPS_PER_CELL,
                    sweeps_per_pass=SWEEPS_PER_PASS,
                    alphas=[0.15, 0.10, 0.05], golden_seed=DEFAULT_SEED,
                    golden_reps=GOLDEN_REPS)
    else:
        prov.update(pair_mix=ctx["fixtures"].mix_composition(), alpha=ALPHA,
                    content_rounds=CONTENT_ROUNDS,
                    pairs=[spec.label for spec in ctx["fixtures"].PAIR_MIX])
    return prov


def _benchmark_spec() -> dict | None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    with open(path) as fh:
        return json.load(fh)


# -- main -------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    env = dict(os.environ)

    if not (SRC / "rotubes" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    work_root = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        try:
            work_root.mkdir(parents=True)
            ctx, setup = set_up(args, env, work_root)
            tally = Tally()
            runner = run_coverage if args.workload == "coverage" else run_sessions
            result = runner(ctx, args, tally)
            if args.trace:
                hook_guard(args.workload, result["tracer"])
        except Fatal as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

        metrics = per_layer(result) if args.trace else end_to_end(result, setup, True)
        spec = _benchmark_spec()
        declared = spec and [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
        if declared and sorted(declared) != sorted(metrics):
            print(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}",
                  file=sys.stderr)
            return 2
        record = {
            "benchmark": spec,
            "provenance": provenance(args, ctx, setup),
            "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
            "error_rate": tally.failed / tally.attempted,
            "failure_messages": tally.messages[:50],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        passes = result["passes"]
        record.update(passes=passes.count, ops_per_pass=len(passes.per_op()),
                      calibration_s=passes.cal.times,
                      unscaled=None if args.trace else end_to_end(result, setup, False))
        if args.workload == "coverage":
            record.update(coverage=result["summary"], reps_per_s_ou=result["reps_per_s_ou"],
                          reference_deviations=result["reference_deviations"])
        else:
            record.update(decisions=result["decisions"], pair_ms=result["pair_ms"])
        results_dir = OUT / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        with open(results_dir / f"{stem}.json", "w") as fh:
            json.dump(record, fh, indent=1)
        if args.trace:
            result["tracer"].write(str(results_dir / f"{stem}-spans.npz"))

        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        print(f"error_rate = {record['error_rate']:.6g} fraction "
              f"({tally.failed} of {tally.attempted} ops)")
        if not args.trace:
            if args.workload == "coverage":
                print(f"reps_per_s = {metrics['throughput'][0]:.6g} reps/s")
                print(f"reps_per_s_ou = {result['reps_per_s_ou']:.6g} reps/s")
                for label, misses in sorted(result["reference_deviations"].items()):
                    print(f"reference deviation, reported only (cut-locus cell): {label}: "
                          f"{misses} rate(s) outside the binomial tolerance")
            else:
                print(f"pipeline_ms_p50 = {metrics['latency_ms_p50'][0]:.6g} ms")
                print(f"pipeline_ms_p90 = {metrics['latency_ms_p90'][0]:.6g} ms")
        print(json.dumps({"correct": record["correct"], "attempted": tally.attempted,
                          "failed": tally.failed, "metrics": record["metrics"]}))
        return 0
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
