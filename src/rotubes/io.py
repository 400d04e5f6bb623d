"""File formats: curve CSV ingestion, Euler-angle export, JSON records.

All JSON records carry a schema version field "rotubes/1".  Floats go
through Python's shortest-roundtrip repr, so write/read cycles are exact.
File writes are atomic (temp file in the target directory, then rename).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial.transform import Rotation

from . import so3
from .curves import RotationCurve, SpatioTemporalAction, TimeGrid, _interpolate_many
from .errors import (InvalidRotation, NonMonotoneTime, NonRotationRow, ParseError,
                     SingularCovariance)
from .simulation import CoverageReport
from .tubes import ConfidenceTube, OverlapReport, _check_spd

SCHEMA = "rotubes/1"

_PROJECTABLE_ORTH_ERR = 1e-3


@dataclass(frozen=True)
class EulerConvention:
    """Euler/Cardan factorization order, e.g. axes "zxy" intrinsic."""

    axes: str = "zxy"
    mode: str = "intrinsic"

    def __post_init__(self):
        if len(self.axes) != 3 or any(c not in "xyz" for c in self.axes):
            raise ValueError(f"axes must be three of x, y, z, got {self.axes!r}")
        if self.axes[0] == self.axes[1] or self.axes[1] == self.axes[2]:
            raise ValueError(f"consecutive axes must differ, got {self.axes!r}")
        if self.mode not in ("intrinsic", "extrinsic"):
            raise ValueError(f"mode must be intrinsic or extrinsic, got {self.mode!r}")

    @property
    def scipy_seq(self) -> str:
        return self.axes.upper() if self.mode == "intrinsic" else self.axes

    @property
    def is_proper_euler(self) -> bool:
        """First and third axis equal (zxz style); middle angle singular at 0, 180 deg."""
        return self.axes[0] == self.axes[2]


@dataclass(frozen=True)
class DatasetManifest:
    """Session label -> curve files, plus grid size and angle convention."""

    sessions: dict[str, list[str]]
    grid_size: int
    euler_convention: EulerConvention = EulerConvention()

    def __post_init__(self):
        if self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")
        if not self.sessions:
            raise ValueError("manifest needs at least one session")

    @classmethod
    def from_json(cls, path: str) -> "DatasetManifest":
        data = _load_json(path)
        try:
            conv = data.get("euler_convention", {})
            convention = EulerConvention(conv.get("axes", "zxy"), conv.get("mode", "intrinsic"))
            base = os.path.dirname(os.path.abspath(path))
            sessions = {
                label: [p if os.path.isabs(p) else os.path.join(base, p) for p in paths]
                for label, paths in data["sessions"].items()
            }
            return cls(sessions=sessions, grid_size=int(data["grid_size"]),
                       euler_convention=convention)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: bad manifest field ({exc})") from exc


def _parse_numeric_rows(path: str) -> list[tuple[int, list[float]]]:
    """(line_number, floats) per data row; '#' comments and one header allowed."""
    rows = []
    header_allowed = True
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            fields = [f.strip() for f in text.split(",")]
            try:
                values = [float(f) for f in fields]
            except ValueError:
                if header_allowed:
                    header_allowed = False
                    continue
                bad = next(i for i, f in enumerate(fields) if not _is_float(f))
                raise ParseError(f"{path}:{lineno}: field {bad + 1} is not numeric: "
                                 f"{fields[bad]!r}")
            header_allowed = False
            if not all(map(math.isfinite, values)):
                bad = next(i for i, v in enumerate(values) if not math.isfinite(v))
                raise ParseError(f"{path}:{lineno}: field {bad + 1} is not finite")
            rows.append((lineno, values))
    if len(rows) < 2:
        raise ParseError(f"{path}: need at least 2 data rows, found {len(rows)}")
    return rows


def _is_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def ingest_curve_csv(path: str, grid_size: int,
                     convention: EulerConvention | None = None) -> RotationCurve:
    """Read one curve file and resample it onto the uniform unit-time grid.

    Two row schemas are accepted: "t,r11,...,r33" (row-major matrix entries)
    and "t,angle1,angle2,angle3" (degrees, factored per `convention`).
    Matrix rows with orthogonality error in (1e-9, 1e-3] are projected onto
    the rotation group; rows beyond that are rejected.  Times are min-max
    normalized to [0, 1] and must be strictly increasing.
    """
    convention = convention or EulerConvention()
    rows = _parse_numeric_rows(path)
    widths = {len(vals) for _, vals in rows}
    if widths == {10}:
        values = _matrix_rows(path, rows)
    elif widths == {4}:
        angles = np.array([vals[1:] for _, vals in rows])
        values = Rotation.from_euler(convention.scipy_seq, angles, degrees=True).as_matrix()
    else:
        raise ParseError(f"{path}: rows must have 4 or 10 fields uniformly, "
                         f"found widths {sorted(widths)}")

    times = np.array([vals[0] for _, vals in rows])
    if np.any(np.diff(times) <= 0):
        k = int(np.argmax(np.diff(times) <= 0))
        raise NonMonotoneTime(f"{path}:{rows[k + 1][0]}: time stamps must be "
                              f"strictly increasing")
    times = (times - times[0]) / (times[-1] - times[0])
    raw = RotationCurve(TimeGrid(times), values)
    grid = TimeGrid.uniform(grid_size)
    return RotationCurve(grid, _interpolate_many(raw, grid.t))


def _matrix_rows(path: str, rows: list[tuple[int, list[float]]]) -> np.ndarray:
    values = np.array([vals[1:] for _, vals in rows]).reshape(-1, 3, 3)
    orth_err = np.abs(np.swapaxes(values, -1, -2) @ values - np.eye(3)).max(axis=(-1, -2))
    det = np.linalg.det(values)
    bad = (orth_err > _PROJECTABLE_ORTH_ERR) | (det <= 0.0)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NonRotationRow(f"{path}:{rows[k][0]}: orthogonality error {orth_err[k]:.2e} "
                             f"or non-positive determinant; not repairable")
    repair = (orth_err > so3.ROTATION_TOL) | (np.abs(det - 1.0) > so3.ROTATION_TOL)
    if np.any(repair):
        values[repair] = so3.project_to_so3(values[repair])
    return values


def write_curve_csv(path: str, curve: RotationCurve) -> None:
    """Matrix-schema counterpart of ingest_curve_csv (t,r11,...,r33 rows)."""
    lines = ["# t,r11,r12,r13,r21,r22,r23,r31,r32,r33"]
    for t, R in zip(curve.grid.t, curve.values):
        lines.append(",".join(repr(float(v)) for v in [t, *R.reshape(-1)]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def export_euler(curve: RotationCurve,
                 conv: EulerConvention) -> tuple[np.ndarray, np.ndarray]:
    """Angle table (t, angle1, angle2, angle3) in degrees, plus lock flags.

    At gimbal lock (middle angle within 1e-9 degrees of its singular value)
    the third angle is set to zero, the ambiguity is folded into the first,
    and the row is flagged.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*[Gg]imbal lock.*")
        angles = Rotation.from_matrix(np.asarray(curve.values)).as_euler(
            conv.scipy_seq, degrees=True)
    middle = angles[:, 1]
    if conv.is_proper_euler:
        lock = np.minimum(np.abs(middle), np.abs(180.0 - np.abs(middle))) <= 1e-9
    else:
        lock = np.abs(90.0 - np.abs(middle)) <= 1e-9
    table = np.column_stack([curve.grid.t, angles])
    return table, lock


# ---------------------------------------------------------------------------
# JSON records

def _require(data: dict, key: str, path: str):
    if key not in data:
        raise ParseError(f"{path}: missing field {key!r}")
    return data[key]


def _load_json(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def action_from_json(path: str) -> SpatioTemporalAction:
    """Alignment file: rotations p, q as 9 row-major numbers, warp as (u,v) knots."""
    data = _load_json(path)
    try:
        p = np.array(_require(data, "p", path), dtype=float).reshape(3, 3)
        q = np.array(_require(data, "q", path), dtype=float).reshape(3, 3)
        warp = np.array(data.get("warp", [[0.0, 0.0], [1.0, 1.0]]), dtype=float)
        return SpatioTemporalAction(p, q, warp)
    except (ValueError, TypeError, InvalidRotation) as exc:
        raise ParseError(f"{path}: bad alignment record ({exc})") from exc


def action_to_dict(act: SpatioTemporalAction) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "alignment",
        "p": [float(v) for v in act.p.reshape(-1)],
        "q": [float(v) for v in act.q.reshape(-1)],
        "warp": [[float(u), float(v)] for u, v in act.warp_knots],
    }


_UPPER = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


def tube_to_dict(tube: ConfidenceTube) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "confidence_tube",
        "grid": [float(t) for t in tube.grid.t],
        "center": [[float(v) for v in R.reshape(-1)] for R in tube.center.values],
        "cov_upper": [[float(S[i, j]) for i, j in _UPPER] for S in tube.s],
        "hquant": float(tube.hquant),
        "alpha": float(tube.alpha),
        "n": int(tube.n),
    }


def tube_from_dict(data: dict, path: str = "<tube>") -> ConfidenceTube:
    try:
        grid = TimeGrid(np.array(_require(data, "grid", path), dtype=float))
        center = RotationCurve(grid, np.array(_require(data, "center", path),
                                              dtype=float).reshape(-1, 3, 3))
        upper = np.array(_require(data, "cov_upper", path), dtype=float)
        S = upper[:, [0, 1, 2, 1, 3, 4, 2, 4, 5]].reshape(-1, 3, 3)   # inverse of _UPPER
        _check_spd(S, grid)
        return ConfidenceTube(center=center, s=S,
                              hquant=float(_require(data, "hquant", path)),
                              alpha=float(_require(data, "alpha", path)),
                              n=int(_require(data, "n", path)))
    except (ValueError, TypeError, IndexError, InvalidRotation, SingularCovariance) as exc:
        raise ParseError(f"{path}: bad tube record ({exc})") from exc


def tube_from_json(path: str) -> ConfidenceTube:
    return tube_from_dict(_load_json(path), path)


def overlap_report_to_dict(report: OverlapReport) -> dict:
    t = report.grid.t
    loci = [{
        "start_index": int(i),
        "end_index": int(j),
        "start": float(t[i]),
        "end": float(t[j]),
        "start_percent": float(100.0 * t[i]),
        "end_percent": float(100.0 * t[j]),
    } for i, j in report.loci]
    return {
        "schema": SCHEMA,
        "kind": "overlap_report",
        "grid": [float(v) for v in t],
        "overlap": [bool(v) for v in report.overlap],
        "loci": loci,
    }


def coverage_report_to_dict(report: CoverageReport) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "coverage_report",
        "process": {
            "family": report.spec.i,
            "modulation": report.spec.l,
            "mixing": report.spec.j,
            "sigma": float(report.spec.sigma),
        },
        "n": report.n,
        "reps": report.reps,
        "alphas": [float(a) for a in report.alphas],
        "rates": [float(r) for r in report.rates],
        "mc_stderr": [float(s) for s in report.mc_stderr],
        "n_singular": report.n_singular,
        "seed": report.seed,
    }


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path: str, data: dict) -> None:
    atomic_write_text(path, json.dumps(data, indent=1) + "\n")
