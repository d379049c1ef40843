"""File formats: feature matrices, label lists, ground truth, canonical JSON.

Round trips are checked bitwise. Feature payloads are float32 on disk, so
round-trip inputs are drawn from float32-representable values.
"""

import json
import struct

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from spherekit import FormatError, ProtocolError, QueryGroundTruth
from spherekit.io import (
    canonical_json,
    format_float,
    read_features,
    read_ground_truth,
    read_labels,
    write_csv_atomic,
    write_features,
    write_ground_truth,
    write_json_atomic,
    write_labels,
)


class TestFeatures:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(120)
        for i in range(20):
            rows = int(rng.integers(1, 30))
            cols = int(rng.integers(2, 12))
            X = rng.standard_normal((rows, cols)).astype(np.float32).astype(np.float64)
            path = tmp_path / f"X{i}.emb"
            write_features(path, X)
            back = read_features(path)
            assert back.dtype == np.float64
            assert_array_equal(back, X)

    def test_on_disk_layout(self, tmp_path):
        X = np.array([[1.5, -2.25], [0.125, 3.0]])
        path = tmp_path / "layout.emb"
        write_features(path, X)
        raw = path.read_bytes()
        assert raw[:4] == b"EMB1"
        assert struct.unpack("<II", raw[4:12]) == (2, 2)
        payload = np.frombuffer(raw[12:], dtype="<f4")
        assert_array_equal(payload.reshape(2, 2), X.astype(np.float32))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_bytes(b"XMB1" + b"\x00" * 8)
        with pytest.raises(FormatError, match="magic at byte 0"):
            read_features(path)

    def test_truncated_payload(self, tmp_path):
        X = np.ones((2, 2))
        path = tmp_path / "t.emb"
        write_features(path, X)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError, match="wanted 16 bytes, got 12"):
            read_features(path)

    def test_trailing_bytes(self, tmp_path):
        X = np.ones((2, 2))
        path = tmp_path / "t.emb"
        write_features(path, X)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_features(path)

    @pytest.mark.parametrize("rows, cols", [(2**20, 4096), (2**32 - 1, 2**32 - 1)])
    def test_header_counts_beyond_the_file_are_truncation(self, tmp_path, rows, cols):
        # Read as sized, these would ask for 16 GiB, or overflow a size.
        path = tmp_path / "t.emb"
        path.write_bytes(b"EMB1" + struct.pack("<II", rows, cols))
        with pytest.raises(FormatError, match=f"truncated payload: wanted {4 * rows * cols} "
                                              "bytes, got 0"):
            read_features(path)

    def test_non_finite_payload_names_byte(self, tmp_path):
        X = np.ones((2, 2))
        path = tmp_path / "t.emb"
        write_features(path, X)
        raw = bytearray(path.read_bytes())
        raw[16:20] = struct.pack("<f", np.inf)  # element 1 starts at byte 16
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=r"byte 16 \(element 1\)"):
            read_features(path)

    def test_write_rejects_bad_input(self, tmp_path):
        with pytest.raises(FormatError, match="non-finite"):
            write_features(tmp_path / "n.emb", np.array([[np.nan, 1.0]]))
        with pytest.raises(FormatError, match="2-D"):
            write_features(tmp_path / "n.emb", np.arange(4.0))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="cannot open"):
            read_features(tmp_path / "absent.emb")


class TestLabels:
    def test_round_trip(self, tmp_path):
        labels = np.array([0, 5, 2, 2, 19])
        path = tmp_path / "l.labels"
        write_labels(path, labels)
        assert path.read_text() == "0\n5\n2\n2\n19\n"
        assert_array_equal(read_labels(path), labels)

    def test_write_rejects_negative(self, tmp_path):
        with pytest.raises(FormatError, match="nonnegative"):
            write_labels(tmp_path / "n.labels", np.array([-1]))

    @pytest.mark.parametrize(
        "text,pattern",
        [
            ("1\n\n2\n", r":2: blank line"),
            ("1\nabc\n", r":2: not an integer"),
            ("1\n-3\n", r":2: negative label"),
            ("1\n1_0\n", r":2: not an integer"),
            ("1\n+3\n", r":2: not an integer"),
            ("1\n\u0663\n", r":2: not an integer"),
            ("1\n2.0\n", r":2: not an integer"),
            ("1\n9223372036854775808\n", r":2: label 9223372036854775808 is out of range"),
            ("1\n1" + "0" * 30 + "\n", r":2: label 1000.* is out of range"),
        ],
    )
    def test_read_errors_name_the_line(self, tmp_path, text, pattern):
        path = tmp_path / "bad.labels"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError, match=pattern):
            read_labels(path)

    def test_largest_label_and_leading_zeros_and_whitespace(self, tmp_path):
        path = tmp_path / "edge.labels"
        path.write_text("9223372036854775807\n" + "0" * 30 + "7\n 3 \n", encoding="utf-8")
        assert read_labels(path).tolist() == [2**63 - 1, 7, 3]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="cannot open"):
            read_labels(tmp_path / "absent.labels")


def gt_record(easy=(), hard=(), junk=()):
    return QueryGroundTruth(
        easy=np.asarray(easy, dtype=np.int64),
        hard=np.asarray(hard, dtype=np.int64),
        junk=np.asarray(junk, dtype=np.int64),
    )


class TestGroundTruth:
    def test_round_trip(self, tmp_path):
        records = {
            2: gt_record(easy=[1], hard=[3], junk=[0]),
            0: gt_record(easy=[2]),
        }
        path = tmp_path / "gt.json"
        write_ground_truth(path, records)
        back = read_ground_truth(path)
        assert sorted(back) == [0, 2]
        for key, record in records.items():
            assert_array_equal(back[key].easy, record.easy)
            assert_array_equal(back[key].hard, record.hard)
            assert_array_equal(back[key].junk, record.junk)

    def test_file_is_sorted_canonical_json(self, tmp_path):
        path = tmp_path / "gt.json"
        write_ground_truth(path, {1: gt_record(easy=[0]), 0: gt_record(easy=[1])})
        payload = json.loads(path.read_text())
        assert [r["query_index"] for r in payload] == [0, 1]
        assert path.read_text().endswith("\n")

    def test_rejects_non_array(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text('{"query_index": 0}', encoding="utf-8")
        with pytest.raises(FormatError):
            read_ground_truth(path)

    def test_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text(
            '[{"query_index": 0, "easy": [], "hard": [], "junk": [], "extra": 1}]'
        )
        with pytest.raises(FormatError, match="extra"):
            read_ground_truth(path)

    def test_rejects_duplicate_query_index(self, tmp_path):
        path = tmp_path / "gt.json"
        record = '{"query_index": 0, "easy": [1], "hard": [], "junk": []}'
        path.write_text(f"[{record}, {record}]")
        with pytest.raises(FormatError, match="duplicate"):
            read_ground_truth(path)

    def test_rejects_bool_indices(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text('[{"query_index": 0, "easy": [true], "hard": [], "junk": []}]')
        with pytest.raises(FormatError):
            read_ground_truth(path)

    @pytest.mark.parametrize("value", [1.9, True, "2", -1, None, "missing"])
    def test_rejects_query_index_other_than_a_non_negative_integer(self, tmp_path, value):
        # int() would read 1.9 and true as query 1 and "2" as query 2.
        good = {"query_index": 0, "easy": [1], "hard": [], "junk": []}
        bad = {"query_index": value, "easy": [2], "hard": [], "junk": []}
        if value == "missing":
            del bad["query_index"]
        path = tmp_path / "gt.json"
        path.write_text(json.dumps([good, bad]), encoding="utf-8")
        with pytest.raises(FormatError, match="record 1 query_index must be a non-negative"):
            read_ground_truth(path)

    def test_bounds_check_with_gallery_size(self, tmp_path):
        path = tmp_path / "gt.json"
        write_ground_truth(path, {0: gt_record(easy=[7])})
        read_ground_truth(path, gallery_size=8)
        with pytest.raises(ProtocolError, match="outside gallery"):
            read_ground_truth(path, gallery_size=7)
        # The first offending record and set in file order is named.
        write_ground_truth(path, {0: gt_record(easy=[1], hard=[2]),
                                  1: gt_record(easy=[3], junk=[-1]),
                                  2: gt_record(easy=[9])})
        with pytest.raises(ProtocolError,
                           match="^junk indices fall outside gallery of size 8$"):
            read_ground_truth(path, gallery_size=8)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="cannot open"):
            read_ground_truth(tmp_path / "absent.json")


class TestCanonicalJson:
    def test_sorted_indented_trailing_newline(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text == '{\n  "a": 2,\n  "b": 1\n}\n'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_format_float_uses_repr(self):
        assert format_float(0.1) == "0.1"
        assert format_float(1.0) == "1.0"
        assert format_float(np.float64(2.5)) == "2.5"

    def test_byte_identical_for_equal_objects(self):
        a = canonical_json({"x": [1.5, 2], "y": {"k": "v"}})
        b = canonical_json({"y": {"k": "v"}, "x": [1.5, 2]})
        assert a == b


class TestAtomicWrites:
    def test_csv_layout(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv_atomic(path, ["a", "b"], [[1, 0.5], [2, 0.25]])
        assert path.read_text() == "a,b\n1,0.5\n2,0.25\n"

    def test_json_overwrites_in_place(self, tmp_path):
        path = tmp_path / "x.json"
        write_json_atomic(path, {"v": 1})
        write_json_atomic(path, {"v": 2})
        assert json.loads(path.read_text()) == {"v": 2}

    def test_no_temp_files_left_behind(self, tmp_path):
        write_json_atomic(tmp_path / "a.json", {"v": 1})
        write_csv_atomic(tmp_path / "b.csv", ["h"], [[1]])
        write_features(tmp_path / "c.emb", np.ones((2, 2)))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["a.json", "b.csv", "c.emb"]
