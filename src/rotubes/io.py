"""File formats: curve CSV ingestion, Euler-angle export, JSON records.

All JSON records carry a schema version field "rotubes/1".  Floats go
through Python's shortest-roundtrip repr, so write/read cycles are exact.
File writes are atomic (temp file in the target directory, then rename); as
with open(), a new file gets its mode from the umask and an existing one keeps its own.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import warnings
from dataclasses import dataclass

import numpy as np

from . import so3
from .curves import (CurveSample, RotationCurve, SpatioTemporalAction, TimeGrid, _bracket,
                     _geodesic)
from .errors import (InvalidRotation, NonMonotoneTime, NonRotationRow, ParseError,
                     SingularCovariance, _is_int)
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


@dataclass(frozen=True)
class DatasetManifest:
    """Session label -> curve files, plus grid size and angle convention."""

    sessions: dict[str, list[str]]
    grid_size: int
    euler_convention: EulerConvention = EulerConvention()

    def __post_init__(self):
        if not (_is_int(self.grid_size) and self.grid_size >= 2):
            raise ValueError(f"grid_size must be an integer >= 2, got {self.grid_size!r}")
        if not self.sessions:
            raise ValueError("manifest needs at least one session")
        for label, paths in self.sessions.items():
            if not paths:
                raise ValueError(f"session {label!r} lists no curve files")

    @classmethod
    def from_json(cls, path: str) -> "DatasetManifest":
        data = _load_json(path)
        try:
            conv = data.get("euler_convention", {})
            convention = EulerConvention(conv.get("axes", EulerConvention.axes),
                                         conv.get("mode", EulerConvention.mode))
            base = os.path.dirname(os.path.abspath(path))
            sessions = {}
            for label, paths in data["sessions"].items():
                if not (isinstance(paths, list) and all(isinstance(p, str) for p in paths)):
                    raise ParseError(f"{path}: session {label!r} must be a list of file names")
                sessions[label] = [os.path.join(base, p) for p in paths]   # absolute p stays p
            return cls(sessions=sessions, grid_size=_require_int(data, "grid_size", path),
                       euler_convention=convention)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: bad manifest field ({exc})") from exc


def _read_text(path: str) -> str:
    """The whole file, read as UTF-8 text after an optional byte-order mark."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc


def _parse_numeric_rows(path: str) -> np.ndarray:
    """Data rows as one table: each row's line number, then its fields.

    Blank lines, '#' comment lines and one header line (the first other line,
    if a field of it is not a number) are skipped; one np.loadtxt call reads
    the rest, which must be at least 2 rows of 4 or 10 finite numbers.
    Wherever that fails, or loadtxt might read differently from float() per
    field, the line scanner reads the lines again and raises the located error.
    """
    lines = _read_text(path).split("\n")
    text = list(map(str.strip, lines))
    data = [n for n, s in enumerate(text, start=1) if s and s[0] != "#"]    # line numbers
    if data:
        try:
            list(map(float, text[data[0] - 1].split(",")))
        except ValueError:                  # the first of them is a header
            del data[0]
    if len(data) >= 2:
        try:
            fields = np.loadtxt([text[n - 1] for n in data], delimiter=",", comments=None,
                                ndmin=2)
        except ValueError:
            pass
        else:
            if fields.shape[1] in (4, 10) and np.isfinite(fields).all():
                table = np.empty((len(data), fields.shape[1] + 1))
                table[:, 0], table[:, 1:] = data, fields
                return table
    return _scan_numeric_rows(path, lines)


def _scan_numeric_rows(path: str, lines: list[str]) -> np.ndarray:
    """_parse_numeric_rows line by line, float() per field; raises on the first bad
    line, then on too few rows or on widths other than 4 or 10 throughout."""
    rows = []
    header_allowed = True
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.split(",")
        try:
            values = [float(f) for f in fields]     # float() strips whitespace itself
        except ValueError:
            if header_allowed:
                header_allowed = False
                continue
            for i, f in enumerate(fields):
                try:
                    float(f)
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: field {i + 1} is not numeric: "
                                     f"{f.strip()!r}")
        header_allowed = False
        if not all(map(math.isfinite, values)):
            bad = next(i for i, v in enumerate(values) if not math.isfinite(v))
            raise ParseError(f"{path}:{lineno}: field {bad + 1} is not finite")
        rows.append([lineno, *values])
    if len(rows) < 2:
        raise ParseError(f"{path}: need at least 2 data rows, found {len(rows)}")
    widths = sorted({len(row) - 1 for row in rows})
    if widths not in ([4], [10]):
        raise ParseError(f"{path}: rows must have 4 or 10 fields uniformly, "
                         f"found widths {widths}")
    return np.array(rows)


def ingest_curve_csv(paths: str | list[str], grid_size: int,
                     convention: EulerConvention | None = None) -> RotationCurve | CurveSample:
    """Read curve files and resample them onto the uniform unit-time grid.

    A path gives a RotationCurve; a list of paths, one session, gives a
    CurveSample.  Two row schemas are accepted: "t,r11,...,r33" (row-major
    matrix entries) and "t,angle1,angle2,angle3" (degrees, factored per
    `convention`).  Matrix rows with orthogonality error in (1e-9, 1e-3] are
    projected onto the rotation group where resampling reads them; rows beyond
    that are rejected.  Times are min-max normalized to [0, 1] and must be
    strictly increasing.  One stacked pass checks the session and raises as checking
    file by file would: the first bad file's error before a later file's read error.
    """
    convention = convention or EulerConvention()
    single = isinstance(paths, (str, os.PathLike))
    tables, failure = [], None
    for path in [paths] if single else paths:
        try:
            tables.append((path, _parse_numeric_rows(path)))
        except Exception as exc:        # raised once the files read before it pass
            failure = exc
            break
    if not tables:
        raise failure or ValueError("empty sample")
    lens = np.array([len(rows) for _, rows in tables])
    ends = np.cumsum(lens)
    starts = ends - lens
    times = np.concatenate([rows[:, 1] for _, rows in tables])
    matrix = np.repeat(np.array([rows.shape[1] == 11 for _, rows in tables], bool), lens)
    values = np.empty((len(times), 3, 3))
    faults = np.zeros((3, len(times)), bool)     # rotation rows, stamps, normalized stamps
    fixable = np.zeros(len(times), bool)
    if matrix.any():
        values[matrix] = R = np.concatenate([rows[:, 2:] for _, rows in tables
                                             if rows.shape[1] == 11]).reshape(-1, 3, 3)
        ok, orth_err, det = so3._rotation_test(R)
        faults[0, matrix] = ~((orth_err <= _PROJECTABLE_ORTH_ERR) & (det > 0.0))  # NaN is bad
        fixable[matrix] = ~ok
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        first = np.repeat(times[starts], lens)
        unit = (times - first) / (np.repeat(times[ends - 1], lens) - first)
        # Increasing stamps can still collapse (underflow) or overflow once normalized.
        for stuck, stamps in zip(faults[1:], (times, unit)):
            stuck[1:] = ~(np.diff(stamps) > 0)
            stuck[starts] = False                 # no step across a file boundary
    if faults.any():
        f = int(np.searchsorted(ends, np.argmax(faults.any(axis=0)), side="right"))
        kind = int(np.argmax(faults[:, starts[f]:ends[f]].any(axis=1)))
        k = starts[f] + int(np.argmax(faults[kind, starts[f]:ends[f]]))
        where = f"{tables[f][0]}:{int(tables[f][1][k - starts[f], 0])}"
        if kind == 0:
            raise NonRotationRow(f"{where}: orthogonality error "
                                 f"{orth_err[np.count_nonzero(matrix[:k])]:.2e} or "
                                 f"non-positive determinant; not repairable")
        what = ("time stamps", "normalized time stamps")[kind - 1]
        raise NonMonotoneTime(f"{where}: {what} must be strictly increasing")
    if failure is not None:
        raise failure
    if not matrix.all():
        angles = np.concatenate([rows[:, 2:] for _, rows in tables if rows.shape[1] == 5])
        values[~matrix] = _euler_matrices(convention.scipy_seq, angles)
    grid = TimeGrid.uniform(grid_size)
    k, u = map(np.stack, zip(*(_bracket(unit[s:e], grid.t) for s, e in zip(starts, ends))))
    k += starts[:, None]
    repair = np.zeros(len(times), bool)
    repair[k] = repair[k + 1] = True            # the rows _geodesic reads ...
    repair &= fixable                           # ... that need projecting
    if repair.any():
        values[repair] = so3.project_to_so3(values[repair])
    resampled = _geodesic(values[k], values[k + 1], u)
    return RotationCurve(grid, resampled[0]) if single else CurveSample(grid, resampled)


def _euler_matrices(seq: str, angles: np.ndarray) -> np.ndarray:
    """scipy's Rotation.from_euler(seq, angles, degrees=True).as_matrix(), bit for bit: its
    half-angle quaternions composed in its order (upper-case seq intrinsic), then its matrix."""
    half = (angles * (np.pi / 180.0) / 2.0).T
    e = np.zeros((3, 4, len(angles)))       # elementary quaternions, component-major x y z w
    e[:, 3] = np.cos(half)
    e[[0, 1, 2], ["xyz".index(axis) for axis in seq.lower()]] = np.sin(half)
    quat = e[0]
    for f in e[1:]:                         # compose_quat(p, q), its sums rounded as there
        (px, py, pz, pw), (qx, qy, qz, qw) = (quat, f) if seq.isupper() else (f, quat)
        quat = (pw * qx + qw * px + (py * qz - pz * qy), pw * qy + qw * py + (pz * qx - px * qz),
                pw * qz + qw * pz + (px * qy - py * qx), pw * qw - px * qx - py * qy - pz * qz)
    x, y, z, w = quat
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return np.stack([x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw),
                     2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw),
                     2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2], axis=-1).reshape(-1, 3, 3)


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
    from scipy.spatial.transform import Rotation
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*[Gg]imbal lock.*")
        angles = Rotation.from_matrix(np.asarray(curve.values)).as_euler(
            conv.scipy_seq, degrees=True)
    middle = angles[:, 1]
    if conv.axes[0] == conv.axes[2]:        # proper Euler (zxz): singular at 0, 180 deg
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


def _require_int(data: dict, key: str, path: str) -> int:
    value = _require(data, key, path)
    if type(value) is not int:          # a float, a string or a bool is refused
        raise ParseError(f"{path}: field {key!r} must be a JSON integer, got {value!r}")
    return value


def _require_floats(data: dict, key: str, path: str, default=None) -> np.ndarray:
    """Field `key` (or `default` where it is absent) as a float array of JSON numbers.

    The float conversion runs first and raises on ragged or non-numeric
    input; the entries it accepted must then be numbers, not bools or strings,
    and finite (Python's json reads bare NaN and Infinity).
    """
    value = _require(data, key, path) if default is None else data.get(key, default)
    floats = np.array(value, dtype=float)
    if not set(map(type, np.array(value, dtype=object).flat)) <= {int, float}:
        raise ParseError(f"{path}: field {key!r} must hold JSON numbers only")
    if not np.isfinite(floats).all():
        raise ValueError(f"field {key!r} must hold finite numbers")
    return floats


def _load_json(path: str) -> dict:
    try:
        return json.loads(_read_text(path))     # _read_text's ParseError is no ValueError
    except ValueError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def action_from_json(path: str) -> SpatioTemporalAction:
    """Alignment file: rotations p, q as 9 row-major numbers, warp as (u,v) knots."""
    data = _load_json(path)
    try:
        p = _require_floats(data, "p", path).reshape(3, 3)
        q = _require_floats(data, "q", path).reshape(3, 3)
        warp = _require_floats(data, "warp", path, default=[[0.0, 0.0], [1.0, 1.0]])
        return SpatioTemporalAction(p, q, warp)
    except (ValueError, TypeError, OverflowError, InvalidRotation) as exc:
        raise ParseError(f"{path}: bad alignment record ({exc})") from exc


def action_to_dict(act: SpatioTemporalAction) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "alignment",
        "p": act.p.reshape(-1).tolist(),
        "q": act.q.reshape(-1).tolist(),
        "warp": act.warp_knots.tolist(),
    }


_UPPER = np.triu_indices(3)             # cov_upper order: S11, S12, S13, S22, S23, S33


def tube_to_dict(tube: ConfidenceTube) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "confidence_tube",
        "grid": tube.grid.t.tolist(),
        "center": tube.center.values.reshape(-1, 9).tolist(),
        "cov_upper": tube.s[:, _UPPER[0], _UPPER[1]].tolist(),
        "hquant": float(tube.hquant),
        "alpha": float(tube.alpha),
        "n": int(tube.n),
    }


def tube_from_json(path: str) -> ConfidenceTube:
    data = _load_json(path)
    try:
        grid = TimeGrid(_require_floats(data, "grid", path))
        center = RotationCurve(grid, _require_floats(data, "center", path).reshape(-1, 3, 3))
        upper = _require_floats(data, "cov_upper", path).reshape(len(grid), 6)
        S = np.empty((len(grid), 3, 3))
        S[:, _UPPER[0], _UPPER[1]] = S[:, _UPPER[1], _UPPER[0]] = upper
        _check_spd(S, grid)
        return ConfidenceTube(center=center, s=S,
                              hquant=float(_require_floats(data, "hquant", path)),
                              alpha=float(_require_floats(data, "alpha", path)),
                              n=_require_int(data, "n", path))
    except (ValueError, TypeError, OverflowError, InvalidRotation, SingularCovariance) as exc:
        raise ParseError(f"{path}: bad tube record ({exc})") from exc


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
        "grid": t.tolist(),
        "overlap": report.overlap.tolist(),
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
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)    # umask applies, as in open()
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        if os.path.exists(path):
            shutil.copymode(path, tmp)      # an existing file keeps its mode, as with open()
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path: str, data: dict) -> None:
    atomic_write_text(path, _json_text(data) + "\n")


def _json_text(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=1) for str keys, without json's pure-Python encoder: finite
    floats are spelt by float.__repr__ as json spells them, other scalars by its C encoder."""
    inner = indent + " "
    if isinstance(value, dict):
        items = [json.dumps(key) + ": " + _json_text(v, inner) for key, v in value.items()]
    elif not isinstance(value, (list, tuple)):
        return json.dumps(value)
    elif set(map(type, value)) == {float} and math.isfinite(sum(value)):   # no NaN, no inf
        items = map(float.__repr__, value)
    elif any(isinstance(v, (dict, list, tuple)) for v in value):
        items = [_json_text(v, inner) for v in value]
    else:                                   # scalars: one C-encoded call, spaced as indent=1
        items = [json.dumps(value, separators=("," + inner, ": "))[1:-1]] if value else []
    body = ("," + inner).join(items)
    return ("{%s}" if isinstance(value, dict) else "[%s]") % (body and inner + body + indent)
