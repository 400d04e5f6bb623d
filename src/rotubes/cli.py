"""Command-line surface: simulation studies and the curve-data pipeline.

Exit codes: 0 on success, 1 on domain errors (bad data, singular covariance,
...), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys

from . import battery as battery_mod
from . import gkf
from . import io as rio
from .curves import GRID_SIZE, CurveSample, TimeGrid, apply_action
from .errors import RotubesError
from .simulation import ErrorProcessSpec, coverage_experiment
from .tubes import act_on_tube, build_tube, compare_tubes


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotubes",
        description="Simultaneous confidence tubes for rotation-valued curve data.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate-coverage",
                         help="coverage rates of the tube construction on synthetic data")
    sim.add_argument("--family", type=int, required=True, choices=(1, 2, 3))
    sim.add_argument("--modulation", type=int, required=True, choices=(1, 2, 3))
    sim.add_argument("--mixing", type=int, required=True, choices=(1, 2))
    sim.add_argument("--sigma", type=float, required=True)
    sim.add_argument("--n", type=int, required=True, help="curves per replication")
    sim.add_argument("--reps", type=int, required=True, help="number of replications")
    sim.add_argument("--alphas", type=_alpha_list, default=list(battery_mod.ALPHAS),
                     help="comma-separated alpha levels (default 0.15,0.10,0.05)")
    sim.add_argument("--seed", type=_unsigned, required=True)
    sim.add_argument("--grid-size", type=int, default=GRID_SIZE)
    sim.add_argument("--out", required=True, help="JSON report path")

    tube = sub.add_parser("tube", help="build a confidence tube from curve CSV files")
    src = tube.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="directory of curve CSV files (all *.csv, sorted)")
    src.add_argument("--manifest", help="dataset manifest JSON")
    tube.add_argument("--session", help="session label (with --manifest)")
    tube.add_argument("--alpha", type=_alpha, required=True)
    tube.add_argument("--grid-size", type=int)
    tube.add_argument("--euler-axes")
    tube.add_argument("--euler-mode", choices=("intrinsic", "extrinsic"))
    tube.add_argument("--alignment", help="apply this alignment to the sample first")
    tube.add_argument("--out", required=True, help="JSON tube path")

    cmp_ = sub.add_parser("compare", help="non-overlap loci of two stored tubes")
    cmp_.add_argument("--tube-a", required=True)
    cmp_.add_argument("--tube-b", required=True)
    cmp_.add_argument("--alignment",
                      help="alignment mapping tube-b into tube-a's frame and time scale")
    cmp_.add_argument("--out", required=True, help="JSON overlap report path")

    exp = sub.add_parser("export-euler", help="angle-table export of one curve file")
    exp.add_argument("--input", required=True, help="curve CSV file")
    exp.add_argument("--grid-size", type=int, default=GRID_SIZE)
    exp.add_argument("--euler-axes", default=rio.EulerConvention.axes)
    exp.add_argument("--euler-mode", default=rio.EulerConvention.mode,
                     choices=("intrinsic", "extrinsic"))
    exp.add_argument("--out", required=True, help="CSV angle table path")

    bat = sub.add_parser("battery",
                         help="full simulation benchmark vs the reference covering rates "
                              "(long-running at --reps 1000)")
    bat.add_argument("--reps", type=int, required=True)
    bat.add_argument("--seed", type=_unsigned, required=True)
    bat.add_argument("--rows", type=_row_count, default=None,
                     help=f"run only the first ROWS of the {len(battery_mod.ROWS)} "
                          f"configurations (smoke runs)")
    bat.add_argument("--grid-size", type=int, default=GRID_SIZE)
    bat.add_argument("--out", required=True, help="JSON battery report path")
    return parser


def _alpha(text: str) -> float:
    try:
        return gkf._check_alpha(float(text))
    except ValueError as exc:           # the library's rule, refused as a usage error
        raise argparse.ArgumentTypeError(str(exc)) from None


def _alpha_list(text: str) -> list[float]:
    values = [_alpha(v) for v in text.split(",") if v.strip()]
    if not values:
        raise argparse.ArgumentTypeError("need at least one alpha")
    return values


def _unsigned(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be a nonnegative integer")
    return value


def _row_count(text: str) -> int:
    value = int(text)
    if not 1 <= value <= len(battery_mod.ROWS):
        raise argparse.ArgumentTypeError(f"must be between 1 and {len(battery_mod.ROWS)}")
    return value


_PARSER = _build_parser()
# Defaults of the tube flags that only --input reads.  With --manifest the
# manifest sets them, so they parse as None to tell an explicit flag apart.
_INPUT_DEFAULTS = {"grid_size": GRID_SIZE, "euler_axes": rio.EulerConvention.axes,
                   "euler_mode": rio.EulerConvention.mode}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """Parse argv; a tube flag that its data source would ignore is a usage error."""
    args = _PARSER.parse_args(argv)
    if args.command == "tube":
        by_manifest = args.manifest is not None
        source = "--manifest" if by_manifest else "--input"
        for name in _INPUT_DEFAULTS if by_manifest else ["session"]:
            if getattr(args, name) is not None:
                _PARSER.error(f"tube: --{name.replace('_', '-')} cannot be used with {source}")
        for name, default in _INPUT_DEFAULTS.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
    return args


def _load_sample(args) -> CurveSample:
    """The sample of one manifest session; --input DIR is a one-session manifest."""
    if args.manifest is not None:
        manifest = rio.DatasetManifest.from_json(args.manifest)
        label = args.session
        if not label:
            raise RotubesError("--session is required with --manifest")
        if label not in manifest.sessions:
            raise RotubesError(f"session {label!r} not in manifest "
                               f"(have {sorted(manifest.sessions)})")
    else:
        if not os.path.isdir(args.input):
            raise RotubesError(f"--input must be a directory: {args.input}")
        label = args.input
        manifest = rio.DatasetManifest(
            {label: sorted(glob.glob(os.path.join(glob.escape(label), "*.csv")))},
            args.grid_size, rio.EulerConvention(args.euler_axes, args.euler_mode))
    return rio.ingest_curve_csv(manifest.sessions[label], manifest.grid_size,
                                manifest.euler_convention)


def _cmd_simulate(args) -> None:
    spec = ErrorProcessSpec(args.family, args.modulation, args.mixing, args.sigma)
    report = coverage_experiment(spec, args.n, args.reps, args.alphas,
                                 TimeGrid.uniform(args.grid_size), seed=args.seed)
    rio.atomic_write_json(args.out, rio.coverage_report_to_dict(report))
    print(f"process {spec.label()}  n={report.n}  reps={report.reps}")
    for alpha, rate, se in zip(report.alphas, report.rates, report.mc_stderr):
        print(f"  1-alpha={1 - alpha:.2f}  coverage={100 * rate:5.1f}%  "
              f"mc-se={100 * se:.1f}pp")
    if report.n_singular:
        print(f"  singular replications: {report.n_singular}")


def _cmd_tube(args) -> None:
    sample = _load_sample(args)
    if args.alignment:
        sample = apply_action(sample, rio.action_from_json(args.alignment))
    tube = build_tube(sample, args.alpha)
    rio.atomic_write_json(args.out, rio.tube_to_dict(tube))
    print(f"tube: n={tube.n} curves, grid {len(tube.grid)} points, "
          f"alpha={tube.alpha}, quantile={tube.hquant:.4f}")


def _cmd_compare(args) -> None:
    tube_a = rio.tube_from_json(args.tube_a)
    tube_b = rio.tube_from_json(args.tube_b)
    if args.alignment:
        tube_b = act_on_tube(tube_b, rio.action_from_json(args.alignment),
                             out_grid=tube_a.grid)
    record = rio.overlap_report_to_dict(compare_tubes(tube_a, tube_b))
    rio.atomic_write_json(args.out, record)
    if record["loci"]:
        spans = ", ".join(f"{loc['start_percent']:.0f}%-{loc['end_percent']:.0f}%"
                          for loc in record["loci"])
        print(f"non-overlap loci (cycle percent): {spans}")
    else:
        print("tubes overlap everywhere")


def _cmd_export_euler(args) -> None:
    convention = rio.EulerConvention(args.euler_axes, args.euler_mode)
    curve = rio.ingest_curve_csv(args.input, args.grid_size, convention)
    table, lock = rio.export_euler(curve, convention)
    lines = [f"# t,angle1,angle2,angle3,gimbal_lock  (degrees, {convention.axes} "
             f"{convention.mode})"]
    for row, flagged in zip(table, lock):
        lines.append(",".join(repr(float(v)) for v in row) + f",{int(flagged)}")
    rio.atomic_write_text(args.out, "\n".join(lines) + "\n")
    if lock.any():
        print(f"warning: {int(lock.sum())} row(s) at gimbal lock")


def _cmd_battery(args) -> None:
    rows = battery_mod.ROWS[:args.rows] if args.rows else None

    def progress(entry):
        sim = "/".join(f"{100 * r:.1f}" for r in entry.report.rates)
        print(f"  n={entry.n} sigma={entry.sigma} l={entry.modulation} "
              f"j={entry.mixing} family={entry.family}: {sim}", flush=True)

    entries = battery_mod.run_battery(args.reps, args.seed,
                                      TimeGrid.uniform(args.grid_size),
                                      rows=rows, progress=progress)
    rio.atomic_write_json(args.out, battery_mod.battery_to_dict(entries, args.reps,
                                                                args.seed))
    print(battery_mod.format_battery_table(entries))


_COMMANDS = {
    "simulate-coverage": _cmd_simulate,
    "tube": _cmd_tube,
    "compare": _cmd_compare,
    "export-euler": _cmd_export_euler,
    "battery": _cmd_battery,
}


def cli_main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _COMMANDS[args.command](args)
    except (RotubesError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out}")
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
