"""Property tests: the rotation check, the logarithm at the cut locus, file round
trips, hostile records."""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rotubes as rt
from rotubes import io as rio
from rotubes import so3
from rotubes.curves import RotationCurve, SpatioTemporalAction, TimeGrid
from rotubes.errors import ParseError


def _unit(v):
    return v / np.linalg.norm(v)


# Components are 0 or clear of the 1e-8 threshold that decides "nonzero" on the
# cut locus, so the expected sign does not hang on rounding.
component = st.just(0.0) | st.floats(-1.0, -1e-6) | st.floats(1e-6, 1.0)
axes = st.tuples(component, component, component).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 1e-3).map(_unit)


def _matmul_is_rotation(R):
    """Reference check by the matmul Gram matrix and an LU determinant, plus
    whether either error lies within O(1) rounding of the tolerance."""
    gram_err = np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3)).max(axis=(-1, -2))
    det_err = np.abs(np.linalg.det(R) - 1.0)
    on_edge = ((np.abs(gram_err - so3.ROTATION_TOL) <= 1e-15)
               | (np.abs(det_err - so3.ROTATION_TOL) <= 1e-15))
    return (gram_err <= so3.ROTATION_TOL) & (det_err <= so3.ROTATION_TOL), on_edge


class TestIsRotation:
    @given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(1e-10, 5e-9))
    @example(seed=0, scale=1e-9)
    def test_agrees_with_matmul_check_around_the_tolerance(self, seed, scale):
        rng = np.random.default_rng(seed)
        R = so3.exp_so3(rng.uniform(-3.0, 3.0, (200, 3)))
        R = R + R @ (scale * rng.standard_normal((200, 3, 3)))
        expected, on_edge = _matmul_is_rotation(R)
        assert np.array_equal(so3._rotation_test(R)[0][~on_edge], expected[~on_edge])

    @given(entries=st.lists(st.floats(width=64), min_size=9, max_size=9))
    @example(entries=[0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    @example(entries=[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0])
    @example(entries=[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, float("nan")])
    @example(entries=[float("inf"), 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0])
    def test_agrees_with_matmul_check_on_any_matrix(self, entries):
        R = np.reshape(entries, (3, 3))
        with np.errstate(all="ignore"):
            expected, on_edge = _matmul_is_rotation(R)
            assume(not on_edge)
            assert so3._rotation_test(R)[0] == expected


class TestLogNearPi:
    @given(axis=axes, delta=st.floats(0.0, 1e-6))
    @example(axis=np.array([0.0, -1.0, 0.0]), delta=0.0)
    def test_exp_log_round_trip(self, axis, delta):
        R = so3.exp_so3((np.pi - delta) * axis)
        back = so3.log_so3(R)
        assert abs(np.linalg.norm(back) - (np.pi - delta)) <= 1e-12
        assert np.abs(so3.exp_so3(back) - R).max() <= 1e-12
        if delta >= 1e-9:           # the skew part still fixes the sign
            assert np.abs(back - (np.pi - delta) * axis).max() <= 1e-9

    @given(axis=axes)
    @example(axis=np.array([0.0, 0.0, -1.0]))
    @example(axis=np.array([0.0, -0.6, 0.8]))
    def test_half_turn_takes_the_axis_with_positive_first_component(self, axis):
        # 2 u u^T - I is exactly symmetric, so the skew part is exactly zero.
        back = so3.log_so3(2.0 * np.outer(axis, axis) - np.eye(3))
        first = back[np.argmax(np.abs(axis) > 0.0)]
        assert first > 0.0
        assert np.abs(np.abs(back) - np.pi * np.abs(axis)).max() <= 1e-12

    def test_outputs_are_pinned_bitwise(self):
        # float.hex of log_so3 on an exact half turn about -e2, an exact half
        # turn about (-1, 2, -2)/3, and rotations by pi - 1e-7, pi - 1e-12 and
        # pi - 5e-5, taken as one stack.
        u = np.array([-1.0, 2.0, -2.0]) / 3.0
        R = np.stack([
            np.diag([-1.0, 1.0, -1.0]),
            2.0 * np.outer(u, u) - np.eye(3),
            so3.exp_so3((np.pi - 1e-7) * np.array([0.36, -0.48, 0.8])),
            so3.exp_so3((np.pi - 1e-12) * np.array([-0.6, 0.0, 0.8])),
            so3.exp_so3((np.pi - 5e-5) * np.array([0.48, 0.6, -0.64])),
        ])
        pins = [
            ("0x0.0p+0", "0x1.921fb54442d18p+1", "0x0.0p+0"),
            ("0x1.0c152382d7366p+0", "-0x1.0c152382d7366p+1", "0x1.0c152382d7366p+1"),
            ("0x1.218777ab0254ap+0", "-0x1.8209f4e4031b8p+0", "0x1.41b2f6be02970p+1"),
            ("-0x1.e28c731eb5ec1p+0", "0x0.0p+0", "0x1.41b2f769ce9d7p+1"),
            ("0x1.8208630af4998p+0", "0x1.e28a7bcdb1bfcp+0", "-0x1.015aecb1f8664p+1"),
        ]
        stacked = so3.log_so3(R)
        assert [tuple(float(v).hex() for v in row) for row in stacked] == pins
        for k, Rk in enumerate(R):
            assert tuple(float(v).hex() for v in so3.log_so3(Rk)) == pins[k]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([10 ** 400, -0.0, 1e308]),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=4),
    max_leaves=12)


def _tube_record():
    grid = TimeGrid.uniform(5)
    sample, _ = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 0.1),
                                    RotationCurve.identity(grid), grid, 6, 3)
    return rio.tube_to_dict(rt.build_tube(sample, 0.1))


RECORDS = {
    "tube": (_tube_record(), rio.tube_from_json),
    "alignment": (rio.action_to_dict(SpatioTemporalAction(np.eye(3), np.eye(3))),
                  rio.action_from_json),
    "manifest": ({"sessions": {"A": ["a.csv"]}, "grid_size": 11,
                  "euler_convention": {"axes": "zxy", "mode": "intrinsic"}},
                 rio.DatasetManifest.from_json),
}


def _loads_or_names_the_file(load, path):
    try:
        load(str(path))
    except ParseError as exc:
        assert str(path) in str(exc)


@pytest.fixture(scope="module")
def record_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("records")


class TestRoundTrips:
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(2, 40))
    def test_curve_csv_round_trip_is_exact(self, record_dir, seed, k):
        grid = TimeGrid.uniform(k)
        rotvecs = np.random.default_rng(seed).uniform(-3.0, 3.0, (k, 3))
        curve = RotationCurve(grid, so3.exp_so3(rotvecs))
        path = record_dir / "curve.csv"
        rio.write_curve_csv(str(path), curve)
        assert np.array_equal(rio.ingest_curve_csv(str(path), k).values, curve.values)

    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(2, 30), n=st.integers(5, 12),
           alpha=st.floats(0.01, 0.5))
    def test_tube_json_round_trip_is_exact(self, record_dir, seed, k, n, alpha):
        grid = TimeGrid.uniform(k)
        sample, _ = rt.sample_gp_sample(rt.ErrorProcessSpec(1, 1, 1, 0.1),
                                        RotationCurve.identity(grid), grid, n, seed)
        tube = rt.build_tube(sample, alpha)
        path = record_dir / "tube.json"
        rio.atomic_write_json(str(path), rio.tube_to_dict(tube))
        back = rio.tube_from_json(str(path))
        assert np.array_equal(back.center.values, tube.center.values)
        assert np.array_equal(back.s, tube.s)
        assert (back.hquant, back.alpha, back.n) == (tube.hquant, tube.alpha, tube.n)


class TestHostileRecords:
    @pytest.mark.parametrize("kind", sorted(RECORDS))
    @given(data=st.data())
    def test_a_hostile_field_raises_only_parse_error(self, record_dir, kind, data):
        record, load = RECORDS[kind]
        field = data.draw(st.sampled_from(sorted(record) + ["extra"]))
        hostile = dict(record)
        if data.draw(st.booleans()):
            hostile.pop(field, None)
        else:
            hostile[field] = data.draw(json_values)
        path = record_dir / f"{kind}.json"
        path.write_text(json.dumps(hostile))
        _loads_or_names_the_file(load, path)

    @pytest.mark.parametrize("kind", sorted(RECORDS))
    @given(document=json_values | st.binary(max_size=40))
    def test_a_hostile_document_raises_only_parse_error(self, record_dir, kind, document):
        path = record_dir / f"{kind}.json"
        if isinstance(document, bytes):
            path.write_bytes(document)
        else:
            path.write_text(json.dumps(document))
        _loads_or_names_the_file(RECORDS[kind][1], path)


# CSV text: rows of one width (ragged ones too in messy files), numbers with
# spaces around them, an optional header anywhere, '#' lines (indented too),
# blank lines and mixed line endings.  Messy files also hold tokens that
# float() and np.loadtxt may read differently, or that neither reads.
csv_number = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
              | st.integers(-10 ** 20, 10 ** 20).map(str)
              | st.sampled_from(["1e5", "-0", ".5", "+7", "1E-3", "1e400"]))
csv_odd = st.sampled_from(["nan", "inf", "-Infinity", "1_0", "x", "", "1#2", "0x10", "١",
                           "1 2", '"3"', "1,", "\x0c4"])
csv_pad = st.sampled_from(["", " ", "\t", "  "])


@st.composite
def csv_texts(draw):
    defects = draw(st.sampled_from([(), (), ("ragged",), ("inline",), ("odd",),
                                    ("ragged", "inline", "odd")]))
    ragged, inline, odd = ("ragged" in defects, "inline" in defects, "odd" in defects)
    widths = st.sampled_from([4, 4, 10, 1, 3])
    width = draw(widths)
    field = st.builds(lambda a, v, b: a + v + b, csv_pad,
                      csv_number | csv_odd if odd else csv_number, csv_pad)
    lines = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "comment"]))
        if kind == "row":
            w = draw(widths) if ragged and draw(st.booleans()) else width
            line = ",".join(draw(st.lists(field, min_size=w, max_size=w)))
            if inline and draw(st.booleans()):
                line += " # inline"
        elif kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t"]))
        else:
            line = draw(st.sampled_from(["# t,r11", "  # indented", "#", "\t#x,1"]))
        lines.append(line)
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["t,a,b,c", "time, x", "t", "t,1"])))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)


def _rows_or_message(parse):
    try:
        return parse()
    except ParseError as exc:
        return str(exc)


class TestCsvParse:
    @settings(max_examples=500)
    @given(text=csv_texts())
    @example(text="# t,a,b,c\r\nt,a,b,c\r\n\r\n 0, 1.5 ,2,3\r\n  # mid\r\n1,2,3,4\r\n")
    @example(text="0,1_0,2,3\n1,2,3,4\n")
    @example(text="0,1,2,3\n")
    @example(text="0,1,2,3\n1,2,3,4 # inline\n")
    def test_fast_path_agrees_with_line_scanner(self, record_dir, text):
        path = str(record_dir / "rows.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        fast = _rows_or_message(lambda: rio._parse_numeric_rows(path))
        scanned = _rows_or_message(
            lambda: rio._scan_numeric_rows(path, rio._read_text(path).split("\n")))
        if isinstance(fast, str) or isinstance(scanned, str):
            assert fast == scanned
        else:
            assert fast.dtype == scanned.dtype and np.array_equal(fast, scanned)
