"""File formats: feature matrices, label lists, ground truth, canonical JSON.

Round trips are checked bitwise. Feature payloads are float32 on disk, so
round-trip inputs are drawn from float32-representable values.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


def reference_read_labels(path):
    """The per-line rules ``read_labels`` keeps: each line of the file in
    text mode (UTF-8, universal newlines), stripped, then checked."""
    values = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            text = line.strip()
            if not text:
                raise FormatError(f"{path}:{lineno}: blank line in labels file")
            if not (text.isascii() and text.isdigit()):
                if text[:1] == "-" and text[1:].isascii() and text[1:].isdigit():
                    raise FormatError(f"{path}:{lineno}: negative label {text}")
                raise FormatError(f"{path}:{lineno}: not an integer label: {text!r}")
            value = int(text[-19:])
            if value > 2**63 - 1 or text[:-19].strip("0"):
                raise FormatError(
                    f"{path}:{lineno}: label {text[:24]} is out of range (above 2**63 - 1)"
                )
            values.append(value)
    return np.asarray(values, dtype=np.int64)


def outcome(read, *args):
    """A reader's array, or the type and message of what it raised."""
    try:
        return read(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def assert_same_outcome(got, expected):
    if isinstance(expected, np.ndarray):
        assert isinstance(got, np.ndarray), got
        assert got.dtype == expected.dtype == np.int64
        assert_array_equal(got, expected)
    else:
        assert got == expected


LABEL_FILES = {
    "digits": b"0\n5\n2\n19\n",
    "eighteen-digits": b"999999999999999999\n000000000000000001\n7\n",
    "no-final-newline": b"3\n1\n4",
    "one-line-no-newline": b"42",
    "empty": b"",
    "lone-newline": b"\n",
    "blank-line": b"1\n\n2\n",
    "blank-last-line": b"1\n2\n\n",
    "negative": b"1\n-3\n",
    "non-digit": b"1\n1a\n",
    "plus-sign": b"1\n+3\n",
    "decimal-point": b"1\n2.0\n",
    "nineteen-digits-leading-zeros": b"1\n0000000000000000007\n",
    "thirty-digits-leading-zeros": b"0" * 30 + b"9\n",
    "largest": b"9223372036854775807\n",
    "two-to-the-63": b"1\n9223372036854775808\n",
    "nineteen-nines": b"9999999999999999999\n",
    "many-digits": b"1" + b"0" * 30 + b"\n",
    "crlf": b"1\r\n2\r\n",
    "lone-cr": b"1\r2\r3",
    "cr-then-bad": b"1\r\rx\n",
    "padded": b" 3 \n\t4\n5  \n",
    "unicode-whitespace": "\u00a03\u2003\n4\n".encode(),
    "unicode-line-separator": "3\u20284\n".encode(),
    "form-feed": b"3\x0c4\n",
    "next-line": "3\x854\n".encode(),
    "arabic-digit": "1\n\u0663\n".encode(),
    "byte-order-mark": "\ufeff1\n".encode(),
    "not-utf8": b"1\n\xff\n",
    "nul": b"1\n\x002\n",
}


@pytest.mark.parametrize("name", sorted(LABEL_FILES))
def test_read_labels_matches_the_per_line_rules(tmp_path, name):
    path = tmp_path / f"{name}.labels"
    path.write_bytes(LABEL_FILES[name])
    assert_same_outcome(outcome(read_labels, path), outcome(reference_read_labels, path))


def test_read_labels_of_a_large_file_matches_the_per_line_rules(tmp_path):
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 10 ** rng.integers(1, 19, size=5000), dtype=np.int64)
    path = tmp_path / "many.labels"
    write_labels(path, labels)
    assert_array_equal(read_labels(path), labels)
    text = path.read_bytes()
    for index, line in ((4999, b"x\n"), (2500, b"-1\n"), (17, b"\n")):
        lines = text.splitlines(keepends=True)
        lines[index] = line
        path.write_bytes(b"".join(lines))
        assert_same_outcome(outcome(read_labels, path), outcome(reference_read_labels, path))


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



def reference_read_ground_truth(path, gallery_size=None):
    """The per-record rules ``read_ground_truth`` keeps: each record's JSON
    checks, then its int64 sets, then its ``QueryGroundTruth``, in file
    order; then the bounds of the first record outside the gallery."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, list):
        raise FormatError(f"{path}: expected a JSON array of records")
    records = {}
    for i, rec in enumerate(payload):
        if not isinstance(rec, dict):
            raise FormatError(f"{path}: record {i} is not an object")
        unknown = set(rec) - {"query_index", "easy", "hard", "junk"}
        if unknown:
            raise FormatError(f"{path}: record {i} has unknown keys {sorted(unknown)}")
        query_index = rec.get("query_index")
        if type(query_index) is not int or query_index < 0:
            raise FormatError(
                f"{path}: record {i} query_index must be a non-negative integer,"
                f" got {query_index!r}"
            )
        if query_index in records:
            raise FormatError(f"{path}: duplicate record for query {query_index}")
        sets = {}
        for name in ("easy", "hard", "junk"):
            values = rec.get(name, [])
            if not isinstance(values, list) or not all(type(v) is int for v in values):
                raise FormatError(
                    f"{path}: record {i} field {name!r} must be a list of integers"
                )
            sets[name] = np.asarray(values, dtype=np.int64)
        records[query_index] = QueryGroundTruth(**sets)
    if gallery_size is not None:
        for gt in records.values():
            gt.check_bounds(gallery_size)
    return records


def record(query_index=0, **sets):
    return {"query_index": query_index, **sets}


GROUND_TRUTH_FILES = {
    "valid": [record(0, easy=[1, 2], hard=[3], junk=[0]), record(4, easy=[5]),
              record(2), record(3, junk=[7, 6])],
    "empty-array": [],
    "not-an-object": [record(0, easy=[1]), [1, 2]],
    "unknown-key": [record(0, easy=[1]), record(1, extra=1)],
    "query-index-float": [record(0), record(1.5)],
    "query-index-bool": [record(0), record(True)],
    "query-index-negative": [record(0), record(-1)],
    "query-index-missing": [record(0), {"easy": [1]}],
    "duplicate-record": [record(0, easy=[1]), record(0, easy=[2])],
    "set-not-a-list": [record(0, easy=[1]), record(1, hard=3)],
    "set-holds-float": [record(0, easy=[1]), record(1, easy=[2], junk=[1.0])],
    "set-holds-bool": [record(0, easy=[True])],
    "set-holds-string": [record(0, hard=["1"])],
    "set-holds-null": [record(0, junk=[None])],
    "repeat-in-easy": [record(0, easy=[1]), record(1, easy=[2, 2])],
    "repeat-in-hard": [record(0, hard=[3, 1, 3])],
    "repeat-in-junk": [record(0, junk=[4, 4])],
    "easy-and-hard-overlap": [record(0, easy=[1, 2], hard=[2])],
    "easy-and-junk-overlap": [record(0, easy=[1], junk=[5, 1])],
    "hard-and-junk-overlap": [record(0, hard=[9], junk=[9])],
    "junk-repeat-before-overlap": [record(0, easy=[1], hard=[1], junk=[2, 2])],
    "repeat-across-records": [record(0, easy=[1]), record(1, easy=[1], hard=[2])],
    "repeat-then-float": [record(0, easy=[1]), record(1, easy=[2, 2]),
                          record(2, easy=[3.0])],
    "float-then-repeat": [record(0, easy=[1]), record(1, easy=[2.0]), record(2, easy=[3, 3])],
    "repeat-then-duplicate-record": [record(0, hard=[1, 1]), record(0)],
    "repeat-and-float-in-one-record": [record(0, easy=[1, 1], hard=[0.5])],
    "too-large": [record(0, easy=[1]), record(1, hard=[2**63])],
    "too-small": [record(0, junk=[-(2**63) - 1])],
    "largest-int64": [record(0, easy=[2**63 - 1, -(2**63)])],
    "too-large-then-float": [record(0, easy=[2**63], hard=[1.5])],
    "float-then-too-large": [record(0, easy=[1.5], hard=[2**63])],
    "repeat-then-too-large": [record(0, easy=[1, 1]), record(1, easy=[2**64])],
    "too-large-then-repeat": [record(0, easy=[2**64]), record(1, easy=[1, 1])],
    "too-large-beside-repeat": [record(0, easy=[1, 1], junk=[2**64])],
    "outside-gallery": [record(0, easy=[1], hard=[2]), record(1, easy=[3], junk=[-1]),
                        record(2, easy=[9])],
    "outside-gallery-then-float": [record(0, easy=[99]), record(1, easy=[0.5])],
}


@pytest.mark.parametrize("gallery_size", [None, 8])
@pytest.mark.parametrize("name", sorted(GROUND_TRUTH_FILES))
def test_read_ground_truth_matches_the_per_record_rules(tmp_path, name, gallery_size):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(GROUND_TRUTH_FILES[name]), encoding="utf-8")
    expected = outcome(reference_read_ground_truth, path, gallery_size)
    got = outcome(read_ground_truth, path, gallery_size)
    if isinstance(expected, dict):
        assert isinstance(got, dict), got
        assert list(got) == list(expected)
        for key, gt in expected.items():
            for name in ("easy", "hard", "junk"):
                assert_same_outcome(getattr(got[key], name), getattr(gt, name))
    else:
        assert got == expected


def test_read_ground_truth_names_the_first_repeat_before_a_later_float(tmp_path):
    # Record 1 repeats an index and record 2 holds a float: the repeat is
    # the first offending record in file order.
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(GROUND_TRUTH_FILES["repeat-then-float"]), encoding="utf-8")
    with pytest.raises(ProtocolError, match="^easy contains duplicate gallery indices$"):
        read_ground_truth(path)


def reference_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


JSON_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**100), max_value=2**100),
    JSON_FLOATS,
    st.text(),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        # Lists of exactly floats, exactly ints, or both, as a head's rows are.
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
        st.lists(st.integers(), max_size=6),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=6),
        st.dictionaries(st.text(), inner, max_size=6),
    ),
    max_leaves=40,
)


class TestCanonicalJson:
    def test_sorted_indented_trailing_newline(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text == '{\n  "a": 2,\n  "b": 1\n}\n'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_text_is_that_of_json_dumps(self, obj):
        assert canonical_json(obj) == reference_json(obj)

    @pytest.mark.parametrize("obj", [
        [[0.1, -0.0], [1.0, 5e-324, 1e308]],
        {"w": [[1.5] * 3, [2, 3]], "b": (0.25, 0.5), "é": ["\u2603", "a\"b\\c\n"]},
        [True, False, 1, 2],
        [1, 2.5],
        [np.float64(0.1), 0.2],
        [10**30, -(2**70)],
        [[], {}, (), ""],
    ])
    def test_examples_are_those_of_json_dumps(self, obj):
        assert canonical_json(obj) == reference_json(obj)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
    @pytest.mark.parametrize("where", [
        lambda v: v,
        lambda v: {"x": v},
        lambda v: [0.5, v, 1.5],
        lambda v: [[0.5], [1.5, v]],
        lambda v: (v,),
        lambda v: [1, v],
    ])
    def test_rejects_non_finite_floats(self, value, where):
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            canonical_json(where(value))

    @pytest.mark.parametrize("obj", [np.int64(3), [np.int64(3)], {"x": {1, 2}}, [b"x"]])
    def test_rejects_values_json_cannot_hold(self, obj):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            canonical_json(obj)

    @pytest.mark.parametrize("key", [1, 1.5, True, None, (1, 2)])
    def test_rejects_keys_that_are_not_str(self, key):
        with pytest.raises(TypeError, match="keys must be str"):
            canonical_json({"a": {key: 1, "b": 2}})

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
