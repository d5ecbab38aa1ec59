"""Deterministic output: canonical hashing, CSV and JSON writers."""
import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rapflow import __version__
from rapflow.classify import (
    CLASS_ORDER,
    ClassifyConfig,
    almost_period_scan,
    classify_trajectory,
)
from rapflow.dynamics import ScalarField, Trajectory, iterate, sample_function
from rapflow.serialize import (
    _fmt,
    almost_period_set_csv,
    canonical_hash,
    classification_json,
    csv_text,
    json_text,
    jsonable,
    trajectory_csv,
    trajectory_json,
    write_text,
)


@dataclasses.dataclass
class _Point:
    x: float
    label: str


class TestJsonable:
    def test_passthrough_scalars(self):
        assert jsonable(3) == 3
        assert jsonable(1.5) == 1.5
        assert jsonable("abc") == "abc"
        assert jsonable(True) is True
        assert jsonable(None) is None

    def test_numpy_scalars_and_arrays(self):
        assert jsonable(np.float64(2.5)) == 2.5
        assert jsonable(np.int64(7)) == 7
        assert jsonable(np.bool_(True)) is True
        assert jsonable(np.array([1.0, 2.0])) == [1.0, 2.0]

    def test_non_finite_floats_become_tokens(self):
        assert jsonable(float("nan")) is None
        assert jsonable(math.inf) == "inf"
        assert jsonable(-math.inf) == "-inf"
        assert jsonable(np.array([1.0, np.nan, np.inf])) == [1.0, None, "inf"]

    @pytest.mark.parametrize("arr", [
        np.array([1.5, np.nan, np.inf, -np.inf, -0.0, 0.0]),
        np.array([-0.0, 2.0, -3.25e-300]),
        np.array([np.nan]),
        np.array([], float),
        np.array([0.1, np.inf], np.float32),
        np.array([True, False, True]),
        np.array([[1.0, np.nan], [-0.0, np.inf]]),
    ])
    def test_arrays_match_the_per_element_conversion(self, arr):
        # the 1-D float and bool fast path gives what converting each
        # element on its own gives: the same tokens, types and zero signs
        got = jsonable(arr)
        want = [jsonable(v) for v in arr.tolist()]
        assert json.dumps(got) == json.dumps(want)
        if arr.ndim == 1:
            assert [type(v) for v in got] == [type(v) for v in want]
            assert [math.copysign(1.0, v) for v in got
                    if isinstance(v, float)] == [
                math.copysign(1.0, x) for x in arr.tolist()
                if isinstance(x, float) and math.isfinite(x)]

    def test_dataclasses_become_dicts(self):
        assert jsonable(_Point(1.0, "a")) == {"x": 1.0, "label": "a"}

    def test_containers_recurse(self):
        got = jsonable({"a": (1, 2), 3: [np.float64(0.5)]})
        assert got == {"a": [1, 2], "3": [0.5]}

    def test_unknown_types_raise(self):
        with pytest.raises(TypeError):
            jsonable(object())


class TestCanonicalHash:
    def test_stable_across_key_order(self):
        assert canonical_hash({"a": 1, "b": 2}) == canonical_hash({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert canonical_hash({"a": 1}) != canonical_hash({"a": 2})

    def test_twelve_hex_chars(self):
        digest = canonical_hash([1, 2, 3])
        assert len(digest) == 12
        int(digest, 16)

    def test_dataclass_and_dict_agree(self):
        assert canonical_hash(_Point(1.0, "a")) == canonical_hash(
            {"x": 1.0, "label": "a"})


class TestCsvText:
    def test_meta_lines_then_header_then_rows(self):
        text = csv_text(("a", "b"), [(1.5, "x"), (None, True)], "cafe01234567")
        lines = text.split("\n")
        assert lines[0] == "# config_hash: cafe01234567"
        assert lines[1].startswith("# tool_version: ")
        assert lines[2] == "a,b"
        assert lines[3] == "1.5,x"
        assert lines[4] == ",true"
        assert text.endswith("\n")

    def test_extra_meta_in_given_order(self):
        text = csv_text(("a",), [], "cafe01234567",
                        extra_meta={"kind": "continuous", "samples": 3})
        lines = text.split("\n")
        assert lines[2] == "# kind: continuous"
        assert lines[3] == "# samples: 3"

    def test_floats_round_trip_through_repr(self):
        value = 0.1 + 0.2
        text = csv_text(("v",), [(value,)], "0" * 12)
        body = text.split("\n")[3]
        assert float(body) == value

    def test_fields_with_commas_are_quoted(self):
        text = csv_text(("v",), [("a,b",)], "0" * 12)
        assert '"a,b"' in text

    @given(st.lists(st.lists(st.floats() | st.sampled_from([-0.0, 0.0])
                             | st.booleans() | st.none() | st.integers(),
                             max_size=4), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_plain_rows_render_as_csv_writer_does(self, rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("a", "b"))
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        text = csv_text(("a", "b"), [tuple(r) for r in rows], "0" * 12)
        assert text.split("\n", 2)[2] == buf.getvalue()


class TestJsonEnvelope:
    def test_envelope_keys_and_digest(self):
        text = json_text({"k": 1}, "abc123abc123")
        data = json.loads(text)
        assert sorted(data) == ["config_hash", "payload", "tool_version"]
        assert data["config_hash"] == "abc123abc123"
        assert data["payload"] == {"k": 1}

    def test_non_finite_payload_is_tokenized(self):
        data = json.loads(json_text({"v": math.inf, "w": math.nan}, "0" * 12))
        assert data["payload"] == {"v": "inf", "w": None}

    def test_text_is_one_compact_line(self):
        text = json_text({"b": [1, 2.5], "a": None}, "0" * 12)
        assert text == ('{"config_hash":"000000000000","payload":'
                        '{"a":null,"b":[1,2.5]},"tool_version":"%s"}\n'
                        % __version__)

    def test_reruns_are_byte_identical(self):
        a = json_text({"b": [1, 2], "a": 0.1}, "0" * 12)
        b = json_text({"a": 0.1, "b": [1, 2]}, "0" * 12)
        assert a == b


def _short_trajectory() -> Trajectory:
    return sample_function("sin(t)", (0.0, 3.0), 0.5, name="demo")


class TestTrajectoryWriters:
    def test_csv_round_trips_values_exactly(self):
        traj = _short_trajectory()
        text = trajectory_csv(traj)
        rows = [line.split(",") for line in text.strip().split("\n")
                if not line.startswith("#")][1:]
        ts = np.array([float(r[0]) for r in rows])
        vs = np.array([float(r[1]) for r in rows])
        assert np.array_equal(ts, traj.grid())
        assert np.array_equal(vs, traj.values)

    def test_csv_carries_kind_and_count(self):
        text = trajectory_csv(_short_trajectory())
        assert "# kind: continuous" in text
        assert "# samples: 7" in text

    def test_csv_rerun_is_byte_identical(self):
        assert trajectory_csv(_short_trajectory()) == trajectory_csv(
            _short_trajectory())

    def test_json_payload_has_grid_and_provenance(self):
        traj = _short_trajectory()
        data = json.loads(trajectory_json(traj))
        payload = data["payload"]
        assert payload["kind"] == "continuous"
        assert payload["t0"] == 0.0
        assert payload["dt"] == 0.5
        assert payload["values"] == list(traj.values)
        assert "provenance" in payload


class TestScanWriters:
    def test_almost_period_set_csv_layout(self):
        fld = ScalarField(kind="discrete", rhs="x", time_domain="half-line")
        traj = iterate(fld, 1.0, 40)
        scan = almost_period_scan(traj, 0.5, (0, 10), 1)
        text = almost_period_set_csv(scan)
        lines = [l for l in text.strip().split("\n") if not l.startswith("#")]
        assert lines[0] == "tau,sup,admitted,level"
        assert len(lines) == 1 + len(scan.taus)
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert first[2] == "true"


class TestClassificationWriter:
    def test_envelope_and_label(self):
        fld = ScalarField(kind="discrete", rhs="x", time_domain="half-line")
        traj = iterate(fld, 2.0, 60)
        res = classify_trajectory(traj, ClassifyConfig(tau_range=(0, 20), tau_step=1))
        data = json.loads(classification_json(res))
        assert data["config_hash"] == canonical_hash(res.config)
        payload = data["payload"]
        assert payload["label"] == "stationary"
        assert set(payload["verdicts"]) == set(CLASS_ORDER)
        assert payload["hierarchy_ok"] is True
        assert payload["global_scan"]["taus"] == res.global_scan.taus.tolist()
        assert payload["global_scan"]["certified"] == [False] * 21

    def test_certified_positions_carry_their_bound(self):
        traj = sample_function("sin(t)", (0.0, 60.0), 0.05)
        res = classify_trajectory(traj, ClassifyConfig(
            eps=0.1, tau_range=(0.0, 20.0), tau_step=0.02))
        payload = json.loads(classification_json(res))["payload"]
        for name in ("global_scan", "remote_scan"):
            scan, written = getattr(res, name), payload[name]
            assert written["certified"] == scan.certified.tolist()
            assert scan.certified.sum() > 500
            bounds = np.array(written["sups"])[scan.certified]
            assert bounds.tolist() == scan.sups[scan.certified].tolist()
            assert np.all(bounds > 0.1)


class TestWriteText:
    def test_writes_bytes_verbatim(self, tmp_path):
        target = tmp_path / "out.csv"
        write_text(target, "a,b\n1,2\n")
        assert target.read_bytes() == b"a,b\n1,2\n"
