import hashlib
import importlib.util
import itertools
import json
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.transform import Rotation

import rotubes as rt
from rotubes import cli as rcli
from rotubes import gkf
from rotubes import io as rio
from rotubes import so3
from rotubes.cli import cli_main
from rotubes.curves import (CurveSample, RotationCurve, SpatioTemporalAction, TimeGrid,
                            _bracket, _geodesic, apply_action)
from rotubes.errors import NonMonotoneTime, NonRotationRow, ParseError
from rotubes.tubes import build_tube


def smooth_curve(grid, amp=0.4, phase=0.0):
    t = grid.t
    path = np.stack([amp * np.sin(2.0 * np.pi * t + phase), 0.3 * amp * t,
                     0.2 * amp * np.cos(3.0 * t)], axis=-1)
    return RotationCurve(grid, so3.exp_so3(path))


def record_text(kind):
    """A valid JSON record of `kind` whose text holds the non-ASCII letter of 'Käthe'."""
    if kind == "manifest":
        data = {"sessions": {"Käthe": ["k.csv"]}, "grid_size": 5}
    elif kind == "tube":
        grid = TimeGrid.uniform(5)
        sample, _ = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 0.05),
                                        smooth_curve(grid), grid, 5, 8)
        data = dict(rio.tube_to_dict(build_tube(sample, 0.05)), note="Käthe")
    else:
        data = dict(rio.action_to_dict(SpatioTemporalAction(np.eye(3), np.eye(3))), note="Käthe")
    return json.dumps(data, ensure_ascii=False)


RECORD_READERS = {          # kind -> (loader, a comparable dump of what it loaded)
    "manifest": (rio.DatasetManifest.from_json, lambda manifest: manifest),
    "tube": (rio.tube_from_json, rio.tube_to_dict),
    "alignment": (rio.action_from_json, rio.action_to_dict),
}


def axis_rotation(axis, degrees):
    v = {"x": [1.0, 0.0, 0.0], "y": [0.0, 1.0, 0.0], "z": [0.0, 0.0, 1.0]}[axis]
    return so3.exp_so3(np.deg2rad(degrees) * np.array(v))


class TestEulerConvention:
    def test_validation(self):
        with pytest.raises(ValueError):
            rio.EulerConvention("zzy")
        with pytest.raises(ValueError):
            rio.EulerConvention("zxw")
        with pytest.raises(ValueError):
            rio.EulerConvention("zxy", "sideways")

    def test_scipy_sequence_casing(self):
        assert rio.EulerConvention("zxy", "intrinsic").scipy_seq == "ZXY"
        assert rio.EulerConvention("zxy", "extrinsic").scipy_seq == "zxy"


# All 24 Euler sequences: the 12 axis strings, extrinsic (lower case) and intrinsic.
EULER_SEQS = [s for s in map("".join, itertools.product("xyz", repeat=3)) if s[0] != s[1] != s[2]]
EULER_SEQS += [s.upper() for s in EULER_SEQS]
SPECIAL_ANGLES = [0.0, -0.0, 90.0, -90.0, 180.0, -180.0, 360.0, -360.0, 720.0, 5e-324]
EULER_ANGLES = st.one_of(st.integers(-1440, 1440).map(lambda k: k / 4.0),    # quarter degrees
                         st.sampled_from(SPECIAL_ANGLES))


def assert_scipy_euler_bits(seq, angles):
    got = rio._euler_matrices(seq, angles)
    want = Rotation.from_euler(seq, angles, degrees=True).as_matrix()
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), seq


class TestEulerMatrices:
    # Euler rows are converted in numpy.  Every entry must carry scipy's bits, the
    # sign of zero included, or the seeded Euler session digests would move; where
    # numpy's sin/cos round differently from the math library scipy calls, this fails.
    @pytest.mark.parametrize("seq", EULER_SEQS)
    def test_fixed_rows_equal_scipy(self, seq):
        angles = np.array([[30.0, -45.25, 120.5], [0.0, -0.0, 180.0], [90.0, -360.0, 5e-324],
                           [-180.0, 720.0, -90.0], [17.75, 89.75, -179.25]])
        assert_scipy_euler_bits(seq, angles)

    @given(seq=st.sampled_from(EULER_SEQS),
           angles=hnp.arrays(float, st.tuples(st.integers(1, 40), st.just(3)),
                             elements=EULER_ANGLES))
    def test_lattice_and_special_angles_equal_scipy(self, seq, angles):
        assert_scipy_euler_bits(seq, angles)


class TestIngest:
    def test_identity_matrix_file(self, tmp_path):
        path = tmp_path / "ident.csv"
        row = ",".join(["1", "0", "0", "0", "1", "0", "0", "0", "1"])
        path.write_text("\n".join(f"{t},{row}" for t in (0.0, 0.5, 1.0)) + "\n")
        curve = rio.ingest_curve_csv(str(path), 7)
        assert np.abs(curve.values - np.eye(3)).max() == 0.0
        assert len(curve.grid) == 7

    def test_single_axis_euler_file(self, tmp_path):
        path = tmp_path / "angles.csv"
        path.write_text("t,a1,a2,a3\n" + "\n".join(
            f"{t},{30.0 * t},0,0" for t in np.linspace(0.0, 2.0, 9)) + "\n")
        curve = rio.ingest_curve_csv(str(path), 9, rio.EulerConvention("xyz"))
        expected = so3.exp_so3(np.outer(np.deg2rad(30.0) * curve.grid.t * 2.0,
                                        [1.0, 0.0, 0.0]))
        assert np.abs(curve.values - expected).max() <= 1e-9

    def test_write_then_ingest_roundtrip(self, tmp_path):
        curve = smooth_curve(TimeGrid.uniform(33))
        path = tmp_path / "c.csv"
        rio.write_curve_csv(str(path), curve)
        back = rio.ingest_curve_csv(str(path), 33)
        assert np.abs(back.values - curve.values).max() <= 1e-9

    def test_times_are_normalized(self, tmp_path):
        path = tmp_path / "frames.csv"
        row = ",".join(["1", "0", "0", "0", "1", "0", "0", "0", "1"])
        path.write_text("\n".join(f"{t},{row}" for t in (12.0, 14.0, 19.0)) + "\n")
        curve = rio.ingest_curve_csv(str(path), 5)
        assert curve.grid.t[0] == 0.0 and curve.grid.t[-1] == 1.0

    def test_near_rotation_rows_are_projected(self, tmp_path):
        rng = np.random.default_rng(0)
        R = Rotation.random(rng=rng).as_matrix()
        noisy = R + 1e-5 * rng.standard_normal((3, 3))
        path = tmp_path / "noisy.csv"
        rows = [f"{t}," + ",".join(repr(float(v)) for v in noisy.reshape(-1))
                for t in (0.0, 1.0)]
        path.write_text("\n".join(rows) + "\n")
        curve = rio.ingest_curve_csv(str(path), 3)
        assert so3.geodesic_distance(curve.values[0], R) <= 1e-4

    def test_far_from_rotation_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        mat = np.eye(3) + 0.1
        rows = [f"{t}," + ",".join(repr(float(v)) for v in mat.reshape(-1))
                for t in (0.0, 1.0)]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(NonRotationRow):
            rio.ingest_curve_csv(str(path), 3)
        # The message names the line of the first bad row.
        good = ",".join(repr(float(v)) for v in np.eye(3).reshape(-1))
        bad = ",".join(repr(float(v)) for v in mat.reshape(-1))
        path.write_text(f"# t,r11,...\n0,{good}\n0.5,{good}\n0.7,{bad}\n1,{bad}\n")
        with pytest.raises(NonRotationRow) as info:
            rio.ingest_curve_csv(str(path), 3)
        assert str(info.value).startswith(f"{path}:4:")

    def test_reflection_rejected(self, tmp_path):
        path = tmp_path / "reflect.csv"
        mat = np.diag([1.0, 1.0, -1.0])
        rows = [f"{t}," + ",".join(repr(float(v)) for v in mat.reshape(-1))
                for t in (0.0, 1.0)]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(NonRotationRow):
            rio.ingest_curve_csv(str(path), 3)

    def test_overflowing_matrix_row_rejected_without_warnings(self, tmp_path):
        # Its Gram error and determinant overflow to NaN; the row is not repairable.
        path = tmp_path / "huge.csv"
        eye = "1,0,0,0,1,0,0,0,1"
        huge = "1.7e308,-1.7e308,-1.7e308,-1.7e308,-1.7e308,1.7e308,1.7e308,1.7e308,1.7e308"
        path.write_text(f"0,{eye}\n0.5,{huge}\n1,{eye}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonRotationRow) as info:
                rio.ingest_curve_csv(str(path), 3)
        assert str(info.value).startswith(f"{path}:2:")

    def test_parse_error_diagnostics(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# comment\nt,a,b,c\n0,1,2,3\n0.5,1,x,3\n")
        with pytest.raises(ParseError) as info:
            rio.ingest_curve_csv(str(path), 3)
        assert ":4:" in str(info.value) and "field 3" in str(info.value)

    def test_non_finite_matrix_field_located(self, tmp_path):
        path = tmp_path / "nan.csv"
        eye = "1,0,0,0,1,0,0,0,1"
        path.write_text(f"# t,r11,...\n0,{eye}\n0.5,1,0,0,0,nan,0,0,0,1\n1,{eye}\n")
        with pytest.raises(ParseError) as info:
            rio.ingest_curve_csv(str(path), 3)
        assert str(info.value) == f"{path}:3: field 6 is not finite"

    def test_non_finite_euler_field_located(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("t,a,b,c\n0,1,2,3\n0.5,1,2,3\n1,-inf,2,3\n")
        with pytest.raises(ParseError) as info:
            rio.ingest_curve_csv(str(path), 3)
        assert str(info.value) == f"{path}:4: field 2 is not finite"

    def test_mixed_widths_rejected(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("0,1,2,3\n0.5,1,2,3,4,5,6,7,8,9\n")
        with pytest.raises(ParseError):
            rio.ingest_curve_csv(str(path), 3)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("0,10,0,0\n")
        with pytest.raises(ParseError):
            rio.ingest_curve_csv(str(path), 3)

    def test_non_monotone_time(self, tmp_path):
        path = tmp_path / "time.csv"
        path.write_text("0,1,0,0\n2,2,0,0\n1,3,0,0\n")
        with pytest.raises(NonMonotoneTime):
            rio.ingest_curve_csv(str(path), 3)

    @pytest.mark.parametrize("stamps, line, what", [
        ("0,2,1", 3, "time stamps"),
        ("0,1,0", 3, "time stamps"),                        # normalizing divides by 0
        ("0,5e-324,2", 2, "normalized time stamps"),        # collapses to 0, 0, 1
        ("-1e308,0,1e308", 2, "normalized time stamps"),    # overflows to 0, 0, nan
    ])
    def test_time_stamps_that_stop_increasing_are_located(self, tmp_path, stamps, line, what):
        path = tmp_path / "time.csv"
        path.write_text("".join(f"{t},{10 * k},0,0\n" for k, t in enumerate(stamps.split(","))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonMonotoneTime) as info:
                rio.ingest_curve_csv(str(path), 3)
        assert str(info.value) == f"{path}:{line}: {what} must be strictly increasing"

    def test_comments_and_header_skipped(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("# a comment\nt,angle1,angle2,angle3\n0,0,0,0\n1,90,0,0\n")
        curve = rio.ingest_curve_csv(str(path), 3, rio.EulerConvention("xyz"))
        assert len(curve.grid) == 3

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path):
        # A BOM glued to the first data row must not turn that row into a header.
        rows = "0,0,0,0\n1,30,0,0\n2,45,10,0\n3,90,0,5\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(rows)
        marked.write_bytes(b"\xef\xbb\xbf" + rows.encode())
        expected = rio.ingest_curve_csv(str(plain), 9)
        assert np.array_equal(rio.ingest_curve_csv(str(marked), 9).values, expected.values)

    def test_text_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("t,\xe4ngle1,angle2,angle3\n0,0,0,0\n1,90,0,0\n".encode("latin-1"))
        with pytest.raises(ParseError) as info:
            rio.ingest_curve_csv(str(path), 3)
        assert str(info.value).startswith(f"{path}: not UTF-8 text")
        assert cli_main(["tube", "--input", str(tmp_path), "--alpha", "0.05",
                         "--out", str(tmp_path / "tube.json")]) == 1
        assert f"error: ParseError: {path}: not UTF-8 text" in capsys.readouterr().err

    def _mixed_session(self, tmp_path):
        """Matrix and Euler files of different lengths; one matrix row needs repair."""
        rng = np.random.default_rng(3)
        paths = []
        for n, (schema, rows) in enumerate([("matrix", 7), ("euler", 5), ("matrix", 12)]):
            t = np.sort(rng.uniform(0.0, 4.0, rows))
            R = smooth_curve(TimeGrid(np.linspace(0.0, 1.0, rows)), 0.5, n).values.copy()
            if schema == "matrix":
                R[3] += 1e-6 * rng.standard_normal((3, 3))
                assert not so3._rotation_test(R[3])[0]
                body = np.column_stack([t, R.reshape(-1, 9)])
            else:
                body = np.column_stack([t, Rotation.from_matrix(R).as_euler("ZXY", degrees=True)])
            paths.append(str(tmp_path / f"walk{n}.csv"))
            with open(paths[-1], "w") as fh:
                fh.write("".join(",".join(map(repr, row)) + "\n" for row in body.tolist()))
        return paths

    def test_session_list_equals_per_file_ingest(self, tmp_path):
        paths = self._mixed_session(tmp_path)
        sample = rio.ingest_curve_csv(paths, 9)
        expected = CurveSample(TimeGrid.uniform(9),
                               np.stack([rio.ingest_curve_csv(p, 9).values for p in paths]))
        assert isinstance(sample, CurveSample) and sample.grid == expected.grid
        assert np.array_equal(sample.values, expected.values)

    def test_session_raises_the_first_bad_files_error(self, tmp_path):
        paths = self._mixed_session(tmp_path)
        with open(paths[0]) as fh:
            lines = fh.read().splitlines()
        lines[2] = lines[2].split(",")[0] + ",1.1" * 9             # not a rotation
        with open(paths[0], "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(paths[1], "a") as fh:
            fh.write("9,1,x,3\n")                                   # not numeric
        with pytest.raises(NonRotationRow) as info:
            rio.ingest_curve_csv(paths, 9)
        assert str(info.value).startswith(f"{paths[0]}:3: orthogonality error")
        with pytest.raises(ParseError) as info:
            rio.ingest_curve_csv(paths[1:], 9)
        assert str(info.value) == f"{paths[1]}:6: field 3 is not numeric: 'x'"

    def test_a_later_files_read_error_is_raised_once_the_files_before_it_pass(self, tmp_path):
        paths = self._mixed_session(tmp_path)
        with open(paths[1], "a") as fh:
            fh.write("9,1,x,3\n")                                   # not numeric
        with pytest.raises(ParseError) as info:
            rio.ingest_curve_csv(paths, 9)
        assert str(info.value) == f"{paths[1]}:6: field 3 is not numeric: 'x'"

    @staticmethod
    def _rewrite(path, line, new):
        """Replace 1-based line `line` of the file by `new`."""
        with open(path) as fh:
            lines = fh.read().splitlines()
        lines[line - 1] = new
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def test_first_files_time_fault_wins_over_a_later_rotation_fault(self, tmp_path):
        paths = self._mixed_session(tmp_path)
        self._rewrite(paths[0], 4, "-1,1,0,0,0,1,0,0,0,1")           # a rotation, out of order
        self._rewrite(paths[2], 2, "0" + ",1.1" * 9)                # not a rotation
        with pytest.raises(NonMonotoneTime) as info:
            rio.ingest_curve_csv(paths, 9)
        assert str(info.value) == f"{paths[0]}:4: time stamps must be strictly increasing"

    @pytest.mark.parametrize("later", ["missing", "latin-1"])
    def test_first_files_rotation_fault_wins_over_a_later_read_error(self, tmp_path, later):
        paths = self._mixed_session(tmp_path)
        self._rewrite(paths[0], 5, "2" + ",1.1" * 9)
        if later == "missing":
            os.remove(paths[1])
        else:
            Path(paths[1]).write_bytes("t,\xe4,b,c\n0,0,0,0\n1,9,0,0\n".encode("latin-1"))
        with pytest.raises(NonRotationRow) as info:
            rio.ingest_curve_csv(paths, 9)
        assert str(info.value) == (f"{paths[0]}:5: orthogonality error 3.63e+00 or "
                                   f"non-positive determinant; not repairable")
        with pytest.raises(FileNotFoundError if later == "missing" else ParseError):
            rio.ingest_curve_csv(paths[1:], 9)

    def test_rotation_fault_wins_over_an_earlier_time_fault_in_its_file(self, tmp_path):
        paths = self._mixed_session(tmp_path)
        self._rewrite(paths[2], 2, "-1,1,0,0,0,1,0,0,0,1")           # a rotation, out of order
        self._rewrite(paths[2], 9, "2" + ",1.1" * 9)
        with pytest.raises(NonRotationRow) as info:
            rio.ingest_curve_csv(paths, 9)
        assert str(info.value).startswith(f"{paths[2]}:9: orthogonality error")

    def test_a_bad_matrix_row_after_an_euler_file_names_its_own_line(self, tmp_path):
        paths = self._mixed_session(tmp_path)[1:]                   # Euler, then matrix
        self._rewrite(paths[1], 7, "2" + ",-1,0,0" * 3)
        with pytest.raises(NonRotationRow) as info:
            rio.ingest_curve_csv(paths, 9)
        assert str(info.value) == (f"{paths[1]}:7: orthogonality error 2.00e+00 or "
                                   f"non-positive determinant; not repairable")

    def test_only_the_rows_resampling_reads_are_projected(self, tmp_path, monkeypatch):
        # Every row is repairable (noise as the bench fixtures write it); the 40-row
        # file has more rows than grid points, so resampling skips some of them.
        rng = np.random.default_rng(7)
        grid, paths, reference, read = TimeGrid.uniform(11), [], [], []
        for n, rows in enumerate((40, 11)):
            t = np.sort(rng.uniform(0.0, 3.0, rows))
            R = smooth_curve(TimeGrid(np.linspace(0.0, 1.0, rows)), 0.6, n).values
            R = R + rng.uniform(-1.5e-7, 1.5e-7, R.shape)
            assert not so3._rotation_test(R)[0].any()
            paths.append(str(tmp_path / f"walk{n}.csv"))
            Path(paths[-1]).write_text("".join(",".join(map(repr, row)) + "\n" for row in
                                               np.column_stack([t, R.reshape(-1, 9)]).tolist()))
            P = so3.project_to_so3(R)                               # every row, then resample
            k, u = _bracket((t - t[0]) / (t[-1] - t[0]), grid.t)
            reference.append(_geodesic(P[k], P[k + 1], u))
            read.append(R[np.union1d(k, k + 1)])
        assert sum(map(len, read)) < 40 + 11
        seen = []
        project = so3.project_to_so3
        monkeypatch.setattr(so3, "project_to_so3", lambda M: seen.append(M) or project(M))
        sample = rio.ingest_curve_csv(paths, 11)
        assert sample.values.view(np.uint64).tolist() == \
            np.stack(reference).view(np.uint64).tolist()
        assert len(seen) == 1
        assert seen[0].view(np.uint64).tolist() == np.concatenate(read).view(np.uint64).tolist()


class TestExportEuler:
    def test_identity_gives_zero_angles(self):
        curve = RotationCurve.identity(TimeGrid.uniform(5))
        table, lock = rio.export_euler(curve, rio.EulerConvention())
        assert np.abs(table[:, 1:]).max() == 0.0
        assert not lock.any()

    def test_single_axis_only_matching_angle(self):
        grid = TimeGrid.uniform(5)
        vals = np.stack([axis_rotation("z", 40.0 * t) for t in grid.t])
        table, _ = rio.export_euler(RotationCurve(grid, vals),
                                    rio.EulerConvention("zxy", "intrinsic"))
        assert np.allclose(table[:, 1], 40.0 * grid.t, atol=1e-9)
        assert np.abs(table[:, 2:]).max() <= 1e-9

    def test_recomposition_reproduces_rotations(self):
        # Independent recomposition through explicit axis rotations.
        conv = rio.EulerConvention("zxy", "intrinsic")
        curve = smooth_curve(TimeGrid.uniform(21), amp=0.8)
        table, lock = rio.export_euler(curve, conv)
        assert not lock.any()
        for k in range(21):
            a1, a2, a3 = table[k, 1:]
            recomposed = (axis_rotation("z", a1) @ axis_rotation("x", a2)
                          @ axis_rotation("y", a3))
            assert np.abs(recomposed - curve.values[k]).max() <= 1e-9

    def test_extrinsic_recomposition(self):
        conv = rio.EulerConvention("zxy", "extrinsic")
        curve = smooth_curve(TimeGrid.uniform(9), amp=0.7, phase=1.0)
        table, _ = rio.export_euler(curve, conv)
        for k in range(9):
            a1, a2, a3 = table[k, 1:]
            recomposed = (axis_rotation("y", a3) @ axis_rotation("x", a2)
                          @ axis_rotation("z", a1))
            assert np.abs(recomposed - curve.values[k]).max() <= 1e-9

    def test_gimbal_lock_flagged_and_third_angle_zero(self):
        grid = TimeGrid.uniform(2)
        locked = axis_rotation("z", 25.0) @ axis_rotation("x", 90.0) @ axis_rotation(
            "y", 10.0)
        vals = np.stack([locked, axis_rotation("z", 10.0)])
        table, lock = rio.export_euler(RotationCurve(grid, vals),
                                       rio.EulerConvention("zxy", "intrinsic"))
        assert lock[0] and not lock[1]
        assert table[0, 3] == 0.0
        recomposed = (axis_rotation("z", table[0, 1]) @ axis_rotation("x", table[0, 2]))
        assert np.abs(recomposed - locked).max() <= 1e-9

    def test_proper_euler_lock_at_zero_middle_angle(self):
        # zxz factors are singular where the middle angle is 0 (or 180 degrees).
        grid = TimeGrid.uniform(2)
        locked = axis_rotation("z", 25.0) @ axis_rotation("z", 10.0)
        free = axis_rotation("z", 10.0) @ axis_rotation("x", 30.0) @ axis_rotation("z", 5.0)
        table, lock = rio.export_euler(RotationCurve(grid, np.stack([locked, free])),
                                       rio.EulerConvention("zxz", "intrinsic"))
        assert lock[0] and not lock[1]
        assert table[0, 3] == 0.0
        recomposed = axis_rotation("z", table[0, 1]) @ axis_rotation("x", table[0, 2])
        assert np.abs(recomposed - locked).max() <= 1e-9


JSON_FLOATS = (st.floats() | st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-7])
               | st.floats().map(np.float64))
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2**80, 2**80) | JSON_FLOATS
                | st.text(st.sampled_from(list('ab", \\/\n\t\x00\x1fäé€😀'))))
JSON_VALUES = st.recursive(
    JSON_SCALARS | st.lists(JSON_FLOATS),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(st.sampled_from(list('k", \\ä\n'))), inner)),
    max_leaves=40)


class TestRecords:
    @given(JSON_VALUES)
    def test_record_text_is_json_dumps_with_indent_1(self, value):
        assert rio._json_text(value) == json.dumps(value, indent=1)

    def test_tube_json_roundtrip_is_exact(self, tmp_path):
        grid = TimeGrid.uniform(9)
        sample, _ = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 0.05),
                                        smooth_curve(grid), grid, 5, 8)
        tube = build_tube(sample, 0.05)
        path = tmp_path / "tube.json"
        rio.atomic_write_json(str(path), rio.tube_to_dict(tube))
        back = rio.tube_from_json(str(path))
        assert back.hquant == tube.hquant
        assert back.alpha == tube.alpha and back.n == tube.n
        assert np.array_equal(back.center.values, tube.center.values)
        assert np.array_equal(back.s, tube.s)
        assert back.grid == tube.grid

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
    def test_written_file_gets_the_mode_of_a_plain_open(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            with open(tmp_path / "plain.txt", "w") as fh:
                fh.write("x\n")
            rio.atomic_write_text(str(tmp_path / "atomic.txt"), "x\n")
        finally:
            os.umask(previous)
        modes = {name: stat.S_IMODE(os.stat(tmp_path / name).st_mode)
                 for name in ("plain.txt", "atomic.txt")}
        assert modes == {"plain.txt": 0o666 & ~umask, "atomic.txt": 0o666 & ~umask}
        # Rewriting keeps a mode the user set, as open(path, "w") does.
        os.chmod(tmp_path / "atomic.txt", 0o604)
        rio.atomic_write_text(str(tmp_path / "atomic.txt"), "y\n")
        assert stat.S_IMODE(os.stat(tmp_path / "atomic.txt").st_mode) == 0o604
        assert sorted(os.listdir(tmp_path)) == ["atomic.txt", "plain.txt"]

    def test_a_failed_replace_removes_the_temporary_file(self, tmp_path, monkeypatch):
        target = tmp_path / "record.txt"
        target.write_text("old\n")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="^replace refused$"):
            rio.atomic_write_text(str(target), "new\n")
        assert target.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["record.txt"]

    def test_seeded_tube_record_is_pinned(self):
        # One seeded tube, bit for bit: float.hex of the quantile, the LKC and
        # three S entries, and the sha256 of its indented JSON record.
        grid = TimeGrid.uniform(21)
        sample, _ = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 0.05),
                                        RotationCurve.identity(grid), grid, 8, 2026)
        tube = build_tube(sample, 0.05)
        assert tube.hquant.hex() == "0x1.ac1455c49a032p+5"
        assert rt.tube_ingredients(sample).l1.hex() == "0x1.d1bb147489e24p+0"
        got = [float(tube.s[idx]).hex() for idx in ((0, 0, 0), (10, 0, 1), (20, 2, 2))]
        assert got == ["0x1.ce62d5b7cb590p-10", "0x1.514572f0d982bp-11",
                       "0x1.1745fd74338a3p-8"]
        text = json.dumps(rio.tube_to_dict(tube), indent=1)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "84831e11ce9e3765763c9895feda858b86584fd9f4dd3360fee458c885741032")

    def test_bad_tube_records_name_the_file(self, tmp_path):
        # Impossible fields and a singular covariance are both refused at
        # the JSON boundary with the file in the message.
        grid = TimeGrid.uniform(9)
        sample, _ = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 0.05),
                                        smooth_curve(grid), grid, 5, 8)
        record = rio.tube_to_dict(build_tube(sample, 0.05))
        singular = [list(row) for row in record["cov_upper"]]
        singular[4] = [1.0] * 6                        # rank one at t = 0.5
        scaled = [list(row) for row in record["center"]]
        scaled[2] = [2.0 * v for v in scaled[2]]       # not a rotation
        wide = [list(row) + [0.0] for row in record["cov_upper"]]   # 7 entries a row
        flagged = [list(row) for row in record["center"]]
        flagged[0] = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, True]  # identity, one `true`
        # float("inf") is also what the JSON number 1e400 parses to.  Strings and
        # booleans are not JSON numbers, even where float() would take them.
        for field, value in (("n", -3), ("n", 3), ("n", 5.7), ("n", "7"), ("n", float("inf")),
                             ("hquant", float("inf")), ("hquant", 0.0), ("hquant", 10 ** 400),
                             ("hquant", True), ("hquant", "3.5"), ("alpha", "0.05"),
                             ("grid", [str(t) for t in record["grid"]]), ("center", flagged),
                             ("center", scaled), ("cov_upper", wide), ("cov_upper", singular)):
            path = tmp_path / f"{field}.json"
            path.write_text(json.dumps(dict(record, **{field: value})))
            with pytest.raises(ParseError) as info:
                rio.tube_from_json(str(path))
            assert str(path) in str(info.value)
        assert "t = 0.5000" in str(info.value)

    def test_nan_grid_time_names_the_file(self, tmp_path):
        # Python's json reads a bare NaN; a grid holding one is not increasing.
        grid = TimeGrid.uniform(5)
        record = rio.tube_to_dict(build_tube(rt.sample_gp_sample(
            rt.ErrorProcessSpec(1, 1, 1, 0.05), smooth_curve(grid), grid, 5, 8)[0], 0.05))
        record["grid"][2] = float("nan")
        path = tmp_path / "nan_grid.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ParseError, match="bad tube record") as info:
            rio.tube_from_json(str(path))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_covariance_names_file_and_field(self, tmp_path, value):
        # Python's json writes and reads bare Infinity and NaN.
        grid = TimeGrid.uniform(5)
        record = rio.tube_to_dict(build_tube(rt.sample_gp_sample(
            rt.ErrorProcessSpec(1, 1, 1, 0.05), smooth_curve(grid), grid, 5, 8)[0], 0.05))
        record["cov_upper"][3][0] = value
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ParseError, match="bad tube record") as info:
            rio.tube_from_json(str(path))
        assert str(path) in str(info.value) and "'cov_upper'" in str(info.value)

    def test_nan_warp_knot_names_the_file(self, tmp_path):
        record = rio.action_to_dict(SpatioTemporalAction(np.eye(3), np.eye(3)))
        record["warp"] = [[0.0, 0.0], [float("nan"), 0.5], [1.0, 1.0]]
        path = tmp_path / "nan_warp.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ParseError, match="bad alignment record") as info:
            rio.action_from_json(str(path))
        assert str(path) in str(info.value)

    def test_action_file_roundtrip(self, tmp_path):
        act = SpatioTemporalAction(
            Rotation.random(rng=np.random.default_rng(1)).as_matrix(),
            Rotation.random(rng=np.random.default_rng(2)).as_matrix(),
            np.array([[0.0, 0.0], [0.4, 0.3], [1.0, 1.0]]))
        path = tmp_path / "act.json"
        rio.atomic_write_json(str(path), rio.action_to_dict(act))
        back = rio.action_from_json(str(path))
        assert np.array_equal(back.p, act.p)
        assert np.array_equal(back.q, act.q)
        assert np.array_equal(back.warp_knots, act.warp_knots)

    def test_malformed_action_file(self, tmp_path):
        path = tmp_path / "bad.json"
        eye = [1, 0, 0, 0, 1, 0, 0, 0, 1]
        for text in ('{"p": [1, 2, 3]}', "not json",
                     json.dumps({"p": [str(v) for v in eye], "q": eye}),
                     json.dumps({"p": eye, "q": eye, "warp": [[0, 0], [True, True]]})):
            path.write_text(text)
            with pytest.raises(ParseError):
                rio.action_from_json(str(path))

    def test_bad_alignment_rotations_name_the_file(self, tmp_path):
        record = rio.action_to_dict(SpatioTemporalAction(np.eye(3), np.eye(3)))
        reflection = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0]
        for field in ("p", "q"):
            path = tmp_path / f"{field}.json"
            path.write_text(json.dumps(dict(record, **{field: reflection})))
            with pytest.raises(ParseError, match="bad alignment record") as info:
                rio.action_from_json(str(path))
            assert str(path) in str(info.value)

    def test_manifest_that_is_not_an_object_names_the_file(self, tmp_path):
        for name, data in (("sessions", {"sessions": [], "grid_size": 5}),
                           ("top", [{"sessions": {"A": ["a.csv"]}, "grid_size": 5}]),
                           ("convention", {"sessions": {"A": ["a.csv"]}, "grid_size": 5,
                                           "euler_convention": ["zxy"]}),
                           ("files", {"sessions": {"A": "walk.csv"}, "grid_size": 5}),
                           ("fraction", {"sessions": {"A": ["a.csv"]}, "grid_size": 5.9}),
                           ("text", {"sessions": {"A": ["a.csv"]}, "grid_size": "7"}),
                           ("overflow", {"sessions": {"A": ["a.csv"]},
                                         "grid_size": float("inf")})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data))
            with pytest.raises(ParseError) as info:
                rio.DatasetManifest.from_json(str(path))
            assert str(path) in str(info.value)

    def test_manifest_session_without_files_names_manifest_and_session(self, tmp_path,
                                                                       capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"sessions": {"A": ["a.csv"], "B": []}, "grid_size": 5}))
        with pytest.raises(ParseError) as info:
            rio.DatasetManifest.from_json(str(path))
        assert str(path) in str(info.value) and "session 'B'" in str(info.value)
        capsys.readouterr()
        assert cli_main(["tube", "--manifest", str(path), "--session", "B", "--alpha", "0.05",
                         "--out", str(tmp_path / "t.json")]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "session 'B'" in err

    def test_manifest_roundtrip(self, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps({
            "schema": "rotubes/1",
            "grid_size": 11,
            "euler_convention": {"axes": "xyz", "mode": "extrinsic"},
            "sessions": {"A": ["a1.csv", "a2.csv"], "B": ["b1.csv"]},
        }))
        manifest = rio.DatasetManifest.from_json(str(manifest_path))
        assert manifest.grid_size == 11
        assert manifest.euler_convention.axes == "xyz"
        assert manifest.sessions["A"][0].endswith(os.path.join(str(tmp_path), "a1.csv"))

    @pytest.mark.parametrize("kind", sorted(RECORD_READERS))
    def test_records_with_a_byte_order_mark_load(self, tmp_path, kind):
        # JSON records drop a leading BOM as curve CSVs do.
        load, dump = RECORD_READERS[kind]
        plain, marked = tmp_path / "plain.json", tmp_path / "bom.json"
        plain.write_text(record_text(kind), encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + record_text(kind).encode("utf-8"))
        assert dump(load(str(marked))) == dump(load(str(plain)))

    @pytest.mark.parametrize("kind", sorted(RECORD_READERS))
    def test_record_that_is_not_utf8_names_the_file(self, tmp_path, kind):
        path = tmp_path / "latin1.json"
        path.write_bytes(record_text(kind).encode("latin-1"))
        with pytest.raises(ParseError) as info:
            RECORD_READERS[kind][0](str(path))
        assert str(info.value).startswith(f"{path}: not UTF-8 text")

    def test_utf8_manifest_loads_under_an_ascii_locale(self, tmp_path):
        # Records decode as UTF-8 whatever encoding the locale prefers.
        path = tmp_path / "manifest.json"
        path.write_bytes(record_text("manifest").encode("utf-8"))
        src = os.path.dirname(os.path.dirname(rio.__file__))
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=src)
        code = ("import codecs, locale, sys; from rotubes.io import DatasetManifest; "
                "print(codecs.lookup(locale.getpreferredencoding(False)).name, "
                "ascii(list(DatasetManifest.from_json(sys.argv[1]).sessions)))")
        run = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["ascii", "['K\\xe4the']"]

    def test_schema_version_present_everywhere(self, tmp_path):
        grid = TimeGrid.uniform(5)
        sample, _ = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 0.05),
                                        smooth_curve(grid), grid, 5, 9)
        tube = build_tube(sample, 0.1)
        from rotubes.tubes import compare_tubes
        report = rt.coverage_experiment(rt.ErrorProcessSpec(1, 1, 1, 0.05), 5, 2,
                                        [0.1], TimeGrid.uniform(11), seed=1)
        for record in (rio.tube_to_dict(tube),
                       rio.coverage_report_to_dict(report),
                       rio.overlap_report_to_dict(compare_tubes(tube, tube)),
                       rio.action_to_dict(SpatioTemporalAction(np.eye(3), np.eye(3)))):
            assert record["schema"] == "rotubes/1"

    def test_numpy_integer_design_writes_the_int_record(self):
        # The coverage record of np.int64 family, n and reps is the record of
        # the Python ints, byte for byte, not a TypeError from json.
        def record(i, n, reps):
            report = rt.coverage_experiment(rt.ErrorProcessSpec(i, 1, 1, 0.05), n, reps,
                                            [0.1], TimeGrid.uniform(11), seed=1)
            return json.dumps(rio.coverage_report_to_dict(report), indent=1)

        assert record(np.int64(2), np.int64(5), np.int64(3)) == record(2, 5, 3)


class TestManifestAlignment:
    def test_identity_action_keeps_sample(self):
        grid = TimeGrid.uniform(9)
        sample = CurveSample(grid, np.stack([smooth_curve(grid, 0.3, p).values for p in range(4)]))
        out = apply_action(sample, SpatioTemporalAction(np.eye(3), np.eye(3)))
        assert np.abs(out.values - sample.values).max() == 0.0

    def test_sample_action_equals_per_curve_action(self):
        # The stacked interpolation reproduces apply_action curve by curve, bit
        # for bit, also where warped points fall on grid points (t = 0, 0.5, 1).
        grid_x = TimeGrid.uniform(21)
        grid_y = TimeGrid.uniform(41)
        sample = CurveSample(grid_x,
                             np.stack([smooth_curve(grid_x, 0.3, p).values for p in range(5)]))
        act = SpatioTemporalAction(so3.exp_so3([0.1, -0.2, 0.05]), so3.exp_so3([0.0, 0.3, 0.1]),
                                   np.array([[0.0, 0.0], [0.4, 0.5], [1.0, 1.0]]))
        acted = apply_action(sample, act, out_grid=grid_y)
        assert acted.grid == grid_y
        for n in range(sample.size):
            curve = RotationCurve(sample.grid, sample.values[n])
            expected = rt.apply_action(curve, act, out_grid=grid_y).values
            assert np.array_equal(acted.values[n], expected)

    def test_pure_warp_with_grid_knots_keeps_quantile(self):
        # Equivariance: the quantile of the rebuilt tube is unchanged.
        grid_y = TimeGrid.uniform(26)
        knots = np.array([[0.0, 0.0], [grid_y.t[10], grid_y.t[15]], [1.0, 1.0]])
        act = SpatioTemporalAction(np.eye(3), np.eye(3), knots)
        grid_x = TimeGrid(act.warp(grid_y.t))
        center = RotationCurve(grid_x, so3.exp_so3(
            np.stack([0.3 * grid_x.t, 0.1 * np.sin(grid_x.t), 0.05 * grid_x.t], -1)))
        sample, _ = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 0.05), center,
                                        grid_x, 8, 44)
        from rotubes.curves import apply_action
        acted = apply_action(sample, act, out_grid=grid_y)
        assert build_tube(acted, 0.05).hquant == pytest.approx(
            build_tube(sample, 0.05).hquant, abs=1e-9)


class TestCli:
    def run(self, *argv):
        return cli_main(list(argv))

    def test_simulate_coverage_is_deterministic(self, tmp_path):
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        args = ["simulate-coverage", "--family", "1", "--modulation", "1", "--mixing",
                "1", "--sigma", "0.05", "--n", "5", "--reps", "8", "--alphas",
                "0.15,0.05", "--seed", "3", "--grid-size", "21"]
        assert self.run(*args, "--out", out1) == 0
        assert self.run(*args, "--out", out2) == 0
        r1, r2 = json.load(open(out1)), json.load(open(out2))
        r1.pop("schema"), r2.pop("schema")
        assert r1 == r2
        assert r1["rates"] is not None and len(r1["rates"]) == 2

    def test_tube_compare_pipeline(self, tmp_path):
        grid = TimeGrid.uniform(21)
        spec = rt.ErrorProcessSpec(1, 1, 1, 0.03)
        center = RotationCurve.identity(grid)
        for session, seed in (("a", 1), ("b", 2)):
            directory = tmp_path / session
            directory.mkdir()
            sample, _ = rt.sample_gp_sample(spec, center, grid, 6, seed)
            for n in range(6):
                rio.write_curve_csv(str(directory / f"walk{n}.csv"),
                                    RotationCurve(grid, sample.values[n]))
        tube_a, tube_b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert self.run("tube", "--input", str(tmp_path / "a"), "--alpha", "0.05",
                        "--grid-size", "21", "--out", tube_a) == 0
        assert self.run("tube", "--input", str(tmp_path / "b"), "--alpha", "0.05",
                        "--grid-size", "21", "--out", tube_b) == 0
        out = str(tmp_path / "overlap.json")
        assert self.run("compare", "--tube-a", tube_a, "--tube-b", tube_b,
                        "--out", out) == 0
        report = json.load(open(out))
        assert report["kind"] == "overlap_report"
        # Same center process, tight tubes: everything overlaps.
        assert all(report["overlap"])

    def test_compare_with_alignment(self, tmp_path):
        grid = TimeGrid.uniform(21)
        sample, _ = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 0.05),
                                        smooth_curve(grid), grid, 6, 10)
        tube = build_tube(sample, 0.05)
        act = SpatioTemporalAction(
            Rotation.random(rng=np.random.default_rng(5)).as_matrix(),
            Rotation.random(rng=np.random.default_rng(6)).as_matrix())
        from rotubes.tubes import act_on_tube
        moved = act_on_tube(tube, act)
        tube_a, tube_b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        rio.atomic_write_json(tube_a, rio.tube_to_dict(tube))
        rio.atomic_write_json(tube_b, rio.tube_to_dict(moved))
        align = str(tmp_path / "align.json")
        inverse = SpatioTemporalAction(act.p.T, act.q.T)
        rio.atomic_write_json(align, rio.action_to_dict(inverse))
        out = str(tmp_path / "overlap.json")
        assert self.run("compare", "--tube-a", tube_a, "--tube-b", tube_b,
                        "--alignment", align, "--out", out) == 0
        assert all(json.load(open(out))["overlap"])

    @pytest.mark.parametrize("amp, summary", [
        (0.0, "tubes overlap everywhere"),
        (0.2, "non-overlap loci (cycle percent): 15%-38%, 60%-88%"),
    ], ids=["overlap", "two_loci"])
    def test_compare_prints_the_loci_in_cycle_percent(self, tmp_path, capsys, amp, summary):
        # Session B's center turns about z by amp * sin(2 pi t); on 41 points
        # the loci end at 37.5 % and 87.5 %, which print rounded half to even.
        grid = TimeGrid.uniform(41)
        path = np.zeros((41, 3))
        path[:, 2] = amp * np.sin(2.0 * np.pi * grid.t)
        tubes = []
        for label, center, seed in (("a", RotationCurve.identity(grid), 11),
                                    ("b", RotationCurve(grid, so3.exp_so3(path)), 12)):
            sample, _ = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 0.02),
                                            center, grid, 6, seed)
            tubes.append(str(tmp_path / f"{label}.json"))
            rio.atomic_write_json(tubes[-1], rio.tube_to_dict(build_tube(sample, 0.05)))
        capsys.readouterr()
        assert self.run("compare", "--tube-a", tubes[0], "--tube-b", tubes[1],
                        "--out", str(tmp_path / "loci.json")) == 0
        assert capsys.readouterr().out.splitlines()[0] == summary

    def test_manifest_session_matches_input_directory(self, tmp_path, capsys):
        grid = TimeGrid.uniform(11)
        sample, _ = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 0.05),
                                        smooth_curve(grid), grid, 5, 4)
        names = [f"walk{n}.csv" for n in range(5)]
        for n, name in enumerate(names):
            rio.write_curve_csv(str(tmp_path / name), RotationCurve(grid, sample.values[n]))
        manifest = str(tmp_path / "manifest.json")
        rio.atomic_write_json(manifest, {"sessions": {"A": names}, "grid_size": 11})
        by_dir, by_manifest = str(tmp_path / "dir.json"), str(tmp_path / "manifest_tube.json")
        assert self.run("tube", "--input", str(tmp_path), "--alpha", "0.05", "--grid-size",
                        "11", "--out", by_dir) == 0
        assert self.run("tube", "--manifest", manifest, "--session", "A", "--alpha", "0.05",
                        "--out", by_manifest) == 0
        assert open(by_dir, "rb").read() == open(by_manifest, "rb").read()
        capsys.readouterr()
        argv = ["tube", "--manifest", manifest, "--alpha", "0.05", "--out", by_manifest]
        for extra, message in (([], "--session is required with --manifest"),
                               (["--session", "B"], "session 'B' not in manifest")):
            assert self.run(*argv, *extra) == 1
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("source, flag, value", [
        ("--manifest", "--grid-size", "51"),
        ("--manifest", "--euler-axes", "xyz"),
        ("--manifest", "--euler-mode", "extrinsic"),
        ("--input", "--session", "A"),
    ])
    def test_tube_flag_its_source_ignores_is_a_usage_error(self, tmp_path, capsys,
                                                           source, flag, value):
        grid = TimeGrid.uniform(11)
        sample, _ = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 0.05),
                                        smooth_curve(grid), grid, 5, 4)
        names = [f"walk{n}.csv" for n in range(5)]
        for n, name in enumerate(names):
            rio.write_curve_csv(str(tmp_path / name), RotationCurve(grid, sample.values[n]))
        manifest = str(tmp_path / "manifest.json")
        rio.atomic_write_json(manifest, {"sessions": {"A": names}, "grid_size": 11})
        data = ([source, manifest, "--session", "A"] if source == "--manifest"
                else [source, str(tmp_path)])
        out = str(tmp_path / "tube.json")
        capsys.readouterr()
        assert self.run("tube", *data, flag, value, "--alpha", "0.05", "--out", out) == 2
        assert f"{flag} cannot be used with {source}" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_tube_with_alignment_equals_library_path(self, tmp_path):
        grid = TimeGrid.uniform(11)
        sample, _ = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 0.05),
                                        smooth_curve(grid), grid, 5, 6)
        for n in range(5):
            rio.write_curve_csv(str(tmp_path / f"walk{n}.csv"),
                                RotationCurve(grid, sample.values[n]))
        act = SpatioTemporalAction(
            Rotation.random(rng=np.random.default_rng(7)).as_matrix(),
            Rotation.random(rng=np.random.default_rng(8)).as_matrix(),
            np.array([[0.0, 0.0], [0.45, 0.55], [1.0, 1.0]]))
        align, out = str(tmp_path / "align.json"), str(tmp_path / "tube.json")
        rio.atomic_write_json(align, rio.action_to_dict(act))
        assert self.run("tube", "--input", str(tmp_path), "--alpha", "0.05", "--grid-size",
                        "11", "--alignment", align, "--out", out) == 0
        ingested = CurveSample(grid, np.stack(
            [rio.ingest_curve_csv(str(tmp_path / f"walk{n}.csv"), 11).values for n in range(5)]))
        expected = build_tube(apply_action(ingested, act), 0.05)
        assert json.load(open(out)) == rio.tube_to_dict(expected)

    # sha256 of each output of one seeded session pair per schema: tube A,
    # tube B, compare, and compare under an alignment.
    SESSION_DIGESTS = {
        "matrix": ("9d90dff3e8303dd12fa12954dcd530b71748f370a5578448d8621692e357664a",
                   "c568737415c1bac0d474e81ea631f89b0cff2b1659c648420466840d6f07a5fa",
                   "40c86225957814e1f6905a6dc05143503fa5b18cebfadd4b1837ee7a8719cc3e",
                   "b36a530369179d0003ad96a1fe4986181b2f744d117a8d84b308b8c3088a5fbf"),
        "euler": ("48c0cd503cba2b4178ef8498541709852831e2f6b7ac83bddf1c78e38cedd99f",
                  "30ec9d4c72b43e555f4245c2afe347154f21c3507c770fc2761a5718ee87c3df",
                  "40c86225957814e1f6905a6dc05143503fa5b18cebfadd4b1837ee7a8719cc3e",
                  "b36a530369179d0003ad96a1fe4986181b2f744d117a8d84b308b8c3088a5fbf"),
    }

    @pytest.mark.parametrize("schema", ["matrix", "euler"])
    def test_seeded_session_outputs_are_pinned(self, tmp_path, schema):
        def write_angle_csv(path, curve):
            angles = Rotation.from_matrix(curve.values).as_euler("ZXY", degrees=True)
            rows = np.column_stack([curve.grid.t, angles]).tolist()
            Path(path).write_text("t,angle_z,angle_x,angle_y\n"
                                  + "".join(",".join(map(repr, row)) + "\n" for row in rows))

        write = rio.write_curve_csv if schema == "matrix" else write_angle_csv
        grid = TimeGrid.uniform(31)
        for label, phase, seed in (("A", 0.0, 2026), ("B", 0.2, 2027)):
            sample, _ = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 0.01),
                                            smooth_curve(grid, phase=phase), grid, 8, seed)
            os.mkdir(tmp_path / label)
            for n in range(8):
                write(str(tmp_path / label / f"walk{n}.csv"),
                      RotationCurve(grid, sample.values[n]))
        align = str(tmp_path / "align.json")
        act = SpatioTemporalAction(axis_rotation("z", 1.0), axis_rotation("x", -0.5),
                                   np.array([[0.0, 0.0], [0.5, 0.45], [1.0, 1.0]]))
        rio.atomic_write_json(align, rio.action_to_dict(act))
        ta, tb, plain, aligned = (str(tmp_path / f"{name}.json")
                                  for name in ("a", "b", "plain", "aligned"))
        for argv in (["tube", "--input", str(tmp_path / "A"), "--alpha", "0.05",
                      "--grid-size", "21", "--out", ta],
                     ["tube", "--input", str(tmp_path / "B"), "--alpha", "0.05",
                      "--grid-size", "21", "--out", tb],
                     ["compare", "--tube-a", ta, "--tube-b", tb, "--out", plain],
                     ["compare", "--tube-a", ta, "--tube-b", tb, "--out", aligned,
                      "--alignment", align]):
            assert self.run(*argv) == 0
        digests = tuple(hashlib.sha256(Path(out).read_bytes()).hexdigest()
                        for out in (ta, tb, plain, aligned))
        assert digests == self.SESSION_DIGESTS[schema]

    def test_bench_sessions_hooks_fire(self, tmp_path, monkeypatch, capsys):
        # bench/run.py --trace 1 exits 2 when a sessions hook never fires; the
        # pipeline must keep reaching every traced function, once per file parsed.
        def bench_module(name):
            path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
            spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
            module = importlib.util.module_from_spec(spec)
            monkeypatch.setitem(sys.modules, spec.name, module)    # dataclasses look it up
            spec.loader.exec_module(module)
            return module

        fixtures, tracing = bench_module("fixtures"), bench_module("tracing")
        expected_hooks = bench_module("run").EXPECTED_HOOKS["sessions"]
        spec = next(p for p in fixtures.PAIR_MIX if p.aligned and p.schema == "matrix")
        pair = fixtures.write_pair(str(tmp_path / "pairs"), 0, spec, 5, 0)
        ta, tb, out = (str(tmp_path / name) for name in ("a.json", "b.json", "loci.json"))
        tracer = tracing.Tracer()
        try:
            tracer.install()
            for argv in (["tube", "--input", pair.dir_a, "--alpha", "0.05", "--out", ta],
                         ["tube", "--input", pair.dir_b, "--alpha", "0.05", "--out", tb],
                         ["compare", "--tube-a", ta, "--tube-b", tb, "--out", out,
                          "--alignment", pair.alignment]):
                assert rcli.cli_main(argv) == 0                    # through the rebound name
        finally:
            tracer.uninstall()
        assert [h for h in expected_hooks if tracer.calls_of(h) == 0] == []
        assert tracer.calls_of("io.ingest.parse") == 2 * spec.n
        assert tracer.points_of("io.ingest.parse") == 2 * spec.n * spec.rows

    def test_input_directory_name_is_read_literally(self, tmp_path):
        # "walks[12]" names a directory; it is not a pattern that matches walks1.
        grid = TimeGrid.uniform(11)
        names = ("walks[12]", "walks1")
        for seed, name in enumerate(names, start=4):
            (tmp_path / name).mkdir()
            sample, _ = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 0.05),
                                            smooth_curve(grid), grid, 5, seed)
            for n in range(5):
                rio.write_curve_csv(str(tmp_path / name / f"walk{n}.csv"),
                                    RotationCurve(grid, sample.values[n]))
        records = {}
        for name in names:
            out = str(tmp_path / "tube.json")
            assert self.run("tube", "--input", str(tmp_path / name), "--alpha", "0.05",
                            "--grid-size", "11", "--out", out) == 0
            records[name] = json.load(open(out))
        own = rio.ingest_curve_csv([str(tmp_path / "walks[12]" / f"walk{n}.csv")
                                    for n in range(5)], 11)
        assert records["walks[12]"] == rio.tube_to_dict(build_tube(own, 0.05))
        assert records["walks[12]"] != records["walks1"]

    @pytest.mark.parametrize("command, schema, loaded", [
        ("compare", "matrix", []),
        ("tube", "matrix", ["scipy.special"]),
        ("tube", "euler", ["scipy.special"]),
        ("export-euler", "euler", ["scipy.special", "scipy.spatial"])])
    def test_a_command_loads_only_the_scipy_it_runs(self, tmp_path, command, schema, loaded):
        # One command in a fresh interpreter, as a user runs it.  A tube compared
        # with itself is decided by the array certificates, so SLSQP never runs.
        grid = TimeGrid.uniform(11)
        sample, _ = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 0.05),
                                        smooth_curve(grid), grid, 5, 4)
        for n in range(5):
            path, curve = str(tmp_path / f"walk{n}.csv"), RotationCurve(grid, sample.values[n])
            if schema == "matrix":
                rio.write_curve_csv(path, curve)
            else:
                table, _ = rio.export_euler(curve, rio.EulerConvention())
                Path(path).write_text("t,angle1,angle2,angle3\n" + "".join(
                    ",".join(map(repr, row)) + "\n" for row in table.tolist()))
        tube = str(tmp_path / "tube.json")
        rio.atomic_write_json(tube, rio.tube_to_dict(build_tube(sample, 0.05)))
        argv = {"tube": ["tube", "--input", str(tmp_path), "--alpha", "0.05", "--grid-size", "11"],
                "compare": ["compare", "--tube-a", tube, "--tube-b", tube],
                "export-euler": ["export-euler", "--input", str(tmp_path / "walk0.csv"),
                                 "--grid-size", "11"]}[command]
        parts = ["scipy.special", "scipy.spatial", "scipy.optimize"]
        code = ("import sys; from rotubes.cli import cli_main; status = cli_main(sys.argv[1:]); "
                f"print(*[m for m in {parts!r} if m in sys.modules]); sys.exit(status)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rio.__file__)))
        run = subprocess.run([sys.executable, "-c", code, *argv, "--out",
                              str(tmp_path / "out.json")], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1].split() == loaded

    @pytest.mark.parametrize("command", ["simulate-coverage", "tube", "compare",
                                         "export-euler", "battery"])
    def test_every_command_reports_what_it_wrote(self, tmp_path, capsys, command):
        grid = TimeGrid.uniform(11)
        sample, _ = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 0.05),
                                        smooth_curve(grid), grid, 5, 4)
        for n in range(5):
            rio.write_curve_csv(str(tmp_path / f"walk{n}.csv"),
                                RotationCurve(grid, sample.values[n]))
        tube, missing = str(tmp_path / "tube.json"), str(tmp_path / "missing")
        rio.atomic_write_json(tube, rio.tube_to_dict(build_tube(sample, 0.05)))
        design = ["--family", "1", "--modulation", "1", "--mixing", "1", "--sigma", "0.05",
                  "--reps", "2", "--seed", "3", "--grid-size", "11"]
        good, bad = {       # each bad run is a domain error of its command
            "simulate-coverage": (design + ["--n", "5"], design + ["--n", "3"]),
            "tube": (["--input", str(tmp_path), "--alpha", "0.05", "--grid-size", "11"],
                     ["--input", missing, "--alpha", "0.05"]),
            "compare": (["--tube-a", tube, "--tube-b", tube],
                        ["--tube-a", tube, "--tube-b", missing]),
            "export-euler": (["--input", str(tmp_path / "walk0.csv"), "--grid-size", "11"],
                             ["--input", missing]),
            "battery": (["--reps", "2", "--seed", "1", "--rows", "1", "--grid-size", "11"],
                        ["--reps", "0", "--seed", "1", "--rows", "1"]),
        }[command]
        out = str(tmp_path / "out")
        capsys.readouterr()
        assert self.run(command, *bad, "--out", out) == 1
        assert "wrote" not in capsys.readouterr().out and not os.path.exists(out)
        assert self.run(command, *good, "--out", out) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"wrote {out}"
        assert os.path.exists(out)
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize("command", ["simulate-coverage", "tube", "compare", "battery"])
    def test_written_records_are_json_dumps_with_indent_1(self, tmp_path, command):
        grid = TimeGrid.uniform(11)
        sample, _ = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 0.05),
                                        smooth_curve(grid), grid, 5, 4)
        for n in range(5):
            rio.write_curve_csv(str(tmp_path / f"walk{n}.csv"),
                                RotationCurve(grid, sample.values[n]))
        tube = str(tmp_path / "tube.json")
        assert self.run("tube", "--input", str(tmp_path), "--alpha", "0.05", "--grid-size",
                        "11", "--out", tube) == 0
        argv = {"simulate-coverage": ["--family", "1", "--modulation", "1", "--mixing", "1",
                                      "--sigma", "0.05", "--n", "5", "--reps", "2", "--seed",
                                      "3", "--grid-size", "11"],
                "tube": ["--input", str(tmp_path), "--alpha", "0.1", "--grid-size", "11"],
                "compare": ["--tube-a", tube, "--tube-b", tube],
                "battery": ["--reps", "2", "--seed", "1", "--rows", "1", "--grid-size", "11"],
                }[command]
        out = tmp_path / "out.json"
        assert self.run(command, *argv, "--out", str(out)) == 0
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=1) + "\n"

    def test_simulate_coverage_refuses_an_infinite_sigma(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        capsys.readouterr()
        assert self.run("simulate-coverage", "--family", "1", "--modulation", "1",
                        "--mixing", "1", "--sigma", "inf", "--n", "5", "--reps", "2",
                        "--seed", "3", "--grid-size", "11", "--out", out) == 1
        err = capsys.readouterr().err
        assert err == "error: ValueError: sigma must be finite and positive, got inf\n"
        assert not os.path.exists(out)

    def test_simulate_coverage_refuses_a_sigma_above_the_bound(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        capsys.readouterr()
        assert self.run("simulate-coverage", "--family", "1", "--modulation", "1",
                        "--mixing", "1", "--sigma", "1e300", "--n", "5", "--reps", "2",
                        "--seed", "3", "--grid-size", "11", "--out", out) == 1
        err = capsys.readouterr().err
        assert err == "error: ValueError: sigma must be at most 1e+150, got 1e+300\n"
        assert not os.path.exists(out)

    def test_simulate_coverage_prints_its_singular_replications(self, tmp_path, capsys,
                                                                monkeypatch):
        ingredients, calls = rt.tubes.tube_ingredients, []

        def singular_first(sample, center=None):
            calls.append(sample)
            if len(calls) == 1:
                raise rt.SingularCovariance("residual covariance singular", t=0.0, index=0)
            return ingredients(sample, center)

        monkeypatch.setattr(rt.tubes, "tube_ingredients", singular_first)
        out = str(tmp_path / "report.json")
        capsys.readouterr()
        assert self.run("simulate-coverage", "--family", "1", "--modulation", "1",
                        "--mixing", "1", "--sigma", "0.05", "--n", "5", "--reps", "1000",
                        "--alphas", "0.1", "--seed", "3", "--grid-size", "11",
                        "--out", out) == 0
        assert "\n  singular replications: 1\n" in capsys.readouterr().out
        assert json.load(open(out))["n_singular"] == 1 and len(calls) == 1000

    @pytest.mark.parametrize("flag, value, message", [
        ("--alphas", ",", "argument --alphas: need at least one alpha"),
        ("--seed", "-1", "argument --seed: seed must be a nonnegative integer")])
    def test_simulate_coverage_usage_errors(self, tmp_path, capsys, flag, value, message):
        argv = {"--family": "1", "--modulation": "1", "--mixing": "1", "--sigma": "0.05",
                "--n": "5", "--reps": "2", "--seed": "3", "--out": str(tmp_path / "r.json"),
                flag: value}
        capsys.readouterr()
        assert self.run("simulate-coverage", *itertools.chain(*argv.items())) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "r.json")

    def test_export_euler_warns_of_gimbal_lock(self, tmp_path, capsys):
        locked = axis_rotation("z", 25.0) @ axis_rotation("x", 90.0) @ axis_rotation("y", 10.0)
        free = axis_rotation("z", 10.0)
        src, out = str(tmp_path / "c.csv"), str(tmp_path / "angles.csv")
        rio.write_curve_csv(src, RotationCurve(TimeGrid.uniform(3), np.stack([locked, free,
                                                                              locked])))
        capsys.readouterr()
        assert self.run("export-euler", "--input", src, "--grid-size", "3",
                        "--out", out) == 0
        assert capsys.readouterr().out.startswith("warning: 2 row(s) at gimbal lock\n")
        flags = [l.split(",")[-1] for l in open(out).read().splitlines()[1:]]
        assert flags == ["1", "0", "1"]

    def test_export_euler_command(self, tmp_path):
        curve = smooth_curve(TimeGrid.uniform(9))
        src = str(tmp_path / "c.csv")
        rio.write_curve_csv(src, curve)
        out = str(tmp_path / "angles.csv")
        assert self.run("export-euler", "--input", src, "--grid-size", "9",
                        "--out", out) == 0
        lines = [l for l in open(out).read().splitlines() if not l.startswith("#")]
        assert len(lines) == 9 and len(lines[0].split(",")) == 5

    def test_compare_refuses_an_infinite_covariance(self, tmp_path, capsys):
        grid = TimeGrid.uniform(5)
        record = rio.tube_to_dict(build_tube(rt.sample_gp_sample(
            rt.ErrorProcessSpec(1, 1, 1, 0.05), smooth_curve(grid), grid, 5, 8)[0], 0.05))
        good, bad = str(tmp_path / "good.json"), str(tmp_path / "bad.json")
        rio.atomic_write_json(good, record)
        record["cov_upper"][2][3] = float("inf")
        Path(bad).write_text(json.dumps(record))
        out = str(tmp_path / "loci.json")
        assert self.run("compare", "--tube-a", good, "--tube-b", bad, "--out", out) == 1
        assert f"{bad}: bad tube record" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("alpha", ["0.7", "0", "nan"])
    def test_tube_alpha_out_of_range_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                      alpha):
        # Refused as the arguments are parsed, before any file is read.
        calls = []
        monkeypatch.setattr(rio, "ingest_curve_csv", lambda *a, **kw: calls.append(a))
        capsys.readouterr()
        assert self.run("tube", "--input", str(tmp_path), "--alpha", alpha,
                        "--out", str(tmp_path / "t.json")) == 2
        assert "--alpha" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("alpha", ["0.5", "5e-324", "0.05", "0.5000000000000001", "0",
                                       "-0.0", "nan", "inf", "0.7", "half"])
    def test_tube_alpha_rule_is_the_library_rule(self, tmp_path, capsys, alpha):
        # Exit 2 with _check_alpha's message exactly where it refuses the parsed float;
        # an accepted alpha gets past parsing to the empty --input directory (exit 1).
        try:
            library = gkf._check_alpha(float(alpha))
        except ValueError as exc:
            library = str(exc)
        code = self.run("tube", "--input", str(tmp_path), "--alpha", alpha,
                        "--out", str(tmp_path / "t.json"))
        err = capsys.readouterr().err
        if isinstance(library, float):
            assert code == 1 and "lists no curve files" in err
        else:
            assert code == 2 and f"argument --alpha: {library}" in err

    def test_usage_error_exit_code(self):
        assert self.run("tube", "--alpha", "0.05") == 2
        assert self.run("unknown-command") == 2

    def test_empty_manifest_path_is_a_domain_error(self, tmp_path, capsys):
        assert self.run("tube", "--manifest", "", "--session", "A", "--alpha", "0.05",
                        "--out", str(tmp_path / "t.json")) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_domain_error_exit_code(self, tmp_path):
        directory = tmp_path / "two"
        directory.mkdir()
        grid = TimeGrid.uniform(5)
        for n in range(2):
            rio.write_curve_csv(str(directory / f"c{n}.csv"),
                                smooth_curve(grid, 0.2, p := float(n)))
        assert self.run("tube", "--input", str(directory), "--alpha", "0.05",
                        "--grid-size", "5", "--out", str(tmp_path / "t.json")) == 1
        assert self.run("tube", "--input", str(tmp_path / "missing"), "--alpha",
                        "0.05", "--out", str(tmp_path / "t.json")) == 1

    def test_battery_smoke(self, tmp_path):
        out = str(tmp_path / "battery.json")
        assert self.run("battery", "--reps", "4", "--seed", "2", "--rows", "1",
                        "--grid-size", "21", "--out", out) == 0
        data = json.load(open(out))
        assert data["kind"] == "coverage_battery"
        assert len(data["entries"]) == 3
        assert all(len(e["reference_percent"]) == 3 for e in data["entries"])

    @pytest.mark.parametrize("rows", ["0", "-1", "37", "99"])
    def test_battery_rows_outside_the_design_is_a_usage_error(self, tmp_path, capsys,
                                                              monkeypatch, rows):
        from rotubes import battery
        calls = []
        monkeypatch.setattr(battery, "run_battery", lambda *a, **kw: calls.append(kw) or [])
        capsys.readouterr()
        assert self.run("battery", "--reps", "4", "--seed", "2", "--rows", rows,
                        "--out", str(tmp_path / "battery.json")) == 2
        assert "--rows" in capsys.readouterr().err
        assert calls == []
        assert self.run("battery", "--reps", "4", "--seed", "2", "--rows", "36",
                        "--out", str(tmp_path / "battery.json")) == 0
        assert calls[0]["rows"] == battery.ROWS
