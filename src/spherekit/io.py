"""On-disk formats and atomic artifact writing.

Formats:

* feature file: magic ``EMB1``, then row and column counts as little-endian
  uint32, then the matrix as little-endian float32, row-major. Payload values
  must be finite.
* labels file: UTF-8 text, one nonnegative integer per line.
* ground-truth file: a JSON array of records
  ``{"query_index": int, "easy": [...], "hard": [...], "junk": [...]}``.
* JSON artifacts are written canonically (``canonical_json``): the bytes of
  ``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)`` and one
  trailing newline. Dict keys must be ``str``.

Every writer is atomic: content goes to a temporary file in the target
directory which is then renamed over the destination, so a crash never
leaves a half-written artifact. Writers are deterministic byte for byte
given equal inputs; floats in text artifacts use Python's shortest
round-trip representation.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import tempfile
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import FormatError
from .evaluation import QueryGroundTruth, _name_repeat

__all__ = [
    "FEATURE_MAGIC",
    "CONVENTIONS",
    "write_features",
    "read_features",
    "write_labels",
    "read_labels",
    "write_ground_truth",
    "read_ground_truth",
    "canonical_json",
    "format_float",
    "write_bytes_atomic",
    "write_text_atomic",
    "write_json_atomic",
    "write_csv_atomic",
]

FEATURE_MAGIC = b"EMB1"
# The largest label an int64 array holds.
_LABEL_MAX = 2**63 - 1
# 10**k for the place values of labels of up to 18 digits, and a last entry 0
# for a newline's place of -1.
_POWERS_OF_TEN = np.append(10 ** np.arange(18, dtype=np.int64), 0)

# Tie-break, estimator, and protocol choices that affect reported numbers.
# Emitted into run metadata so artifacts are interpretable on their own.
CONVENTIONS = {
    "ap": "mean over positives of k/rank_k after junk removal; empty queries skipped",
    "category_eval": "leave-one-out when the query set is the gallery",
    "entropy_proxies": "literal (1/N) double sums, no extra constants",
    "gamma": (
        "per-sample contrastive gradients, unit-normalized, covariance with "
        "n-1 denominator, nuclear norm, averaged over measured steps"
    ),
    "hinge_boundary": "negative pairs count only when similarity strictly exceeds the margin",
    "koleo": "nearest neighbor within the batch; ties to the lowest row index",
    "memory_refresh": "entries update only when re-enqueued, never recomputed in place",
    "pair_counting": "each ordered pair counted once per anchor, divided by batch size",
    "pca_input": "fit on pre-normalization pooled descriptors; renormalize after projection",
    "pca_sign": "each component's largest-magnitude entry is positive",
    "tie_break": "descending similarity, ties by ascending gallery index",
}


def _read_exact(f, count: int, what: str, path: Path) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise FormatError(
            f"{path}: truncated {what}: wanted {count} bytes, got {len(data)}"
        )
    return data


def write_features(path, X) -> None:
    """Write a 2-D float array as a feature file (cast to float32)."""
    X = np.asarray(X)
    if X.ndim != 2:
        raise FormatError(f"feature matrix must be 2-D, got ndim={X.ndim}")
    data = np.ascontiguousarray(X, dtype="<f4")
    if not np.all(np.isfinite(data)):
        raise FormatError("feature matrix contains non-finite values")
    rows, cols = data.shape
    header = FEATURE_MAGIC + struct.pack("<II", rows, cols)
    # The array's own buffer follows the header: no bytes copy of the payload.
    _atomic_write(path, lambda f: f.writelines((header, data)))


def read_features(path) -> np.ndarray:
    """Read a feature file; returns float64 (lossless widening of float32)."""
    path = Path(path)
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise FormatError(f"{path}: cannot open feature file: {exc}") from exc
    with f:
        magic = _read_exact(f, 4, "magic", path)
        if magic != FEATURE_MAGIC:
            raise FormatError(
                f"{path}: bad magic at byte 0: {magic!r}, expected {FEATURE_MAGIC!r}"
            )
        rows, cols = struct.unpack("<II", _read_exact(f, 8, "header", path))
        # Checked against the file's size first: a corrupt header must not size a read.
        count = 4 * rows * cols
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size < count:
            raise FormatError(f"{path}: truncated payload: wanted {count} bytes, got {size}")
        if size > count:
            raise FormatError(f"{path}: trailing bytes after payload")
        payload = _read_exact(f, count, "payload", path)
    flat = np.frombuffer(payload, dtype="<f4")
    bad = ~np.isfinite(flat)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise FormatError(
            f"{path}: non-finite value at byte {12 + 4 * i} (element {i})"
        )
    return flat.astype(np.float64).reshape(rows, cols)


def write_labels(path, labels) -> None:
    """Write integer labels, one per line."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
        raise FormatError("labels must be a 1-D integer array")
    if labels.size and labels.min() < 0:
        raise FormatError("labels must be nonnegative")
    write_text_atomic(path, "\n".join(map(str, labels.tolist())) + "\n" if labels.size else "")


def _digit_lines(data: bytes) -> np.ndarray | None:
    """The labels of ``data`` if it is lines of 1-18 ASCII digits, each ended
    by ``\n`` (the last one may lack it), read in one array pass; None for
    any other text, an empty file included."""
    if data and not data.endswith(b"\n"):
        data += b"\n"
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    if ends.size == 0:
        return None
    sizes = np.diff(ends, prepend=-1) - 1
    digits = raw - ord("0")  # wraps around below "0": a digit is at most 9
    if sizes.min() < 1 or sizes.max() > 18 or np.count_nonzero(digits <= 9) != sizes.sum():
        return None
    # A digit's place value; each newline's place is -1, whose power is 0.
    place = np.repeat(ends - 1, sizes + 1) - np.arange(digits.size)
    return np.add.reduceat(_POWERS_OF_TEN[place] * digits, ends - sizes)


def read_labels(path) -> np.ndarray:
    """Read one nonnegative integer label per line: ASCII decimal digits,
    optionally surrounded by whitespace, at most 2**63 - 1. Raises
    FormatError naming ``path:line`` for any other text.

    A file of lines of 1-18 ASCII digits ended by ``\n`` is read in one array
    pass. Any other file (CR or CRLF line ends, padding, 19 or more digits,
    an error, no lines) is read line by line as text with universal newlines,
    which names the first bad line.
    """
    path = Path(path)
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise FormatError(f"{path}: cannot open labels file: {exc}") from exc
    labels = _digit_lines(data)
    if labels is not None:
        return labels
    values = []
    for lineno, line in enumerate(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), start=1):
        text = line.strip()
        if not text:
            raise FormatError(f"{path}:{lineno}: blank line in labels file")
        if not (text.isascii() and text.isdigit()):
            if text[:1] == "-" and text[1:].isascii() and text[1:].isdigit():
                raise FormatError(f"{path}:{lineno}: negative label {text}")
            raise FormatError(f"{path}:{lineno}: not an integer label: {text!r}")
        value = int(text[-19:])  # past 19 digits, only leading zeros fit
        if value > _LABEL_MAX or text[:-19].strip("0"):
            raise FormatError(
                f"{path}:{lineno}: label {text[:24]} is out of range (above 2**63 - 1)"
            )
        values.append(value)
    return np.asarray(values, dtype=np.int64)


def write_ground_truth(path, records: dict[int, QueryGroundTruth]) -> None:
    """Write per-query ground truth as a JSON array sorted by query index."""
    payload = []
    for query_index in sorted(records):
        gt = records[query_index]
        payload.append(
            {
                "query_index": int(query_index),
                "easy": gt.easy.tolist(),
                "hard": gt.hard.tolist(),
                "junk": gt.junk.tolist(),
            }
        )
    write_text_atomic(path, canonical_json(payload))


def _record_sets(path, i: int, rec, seen: set) -> tuple[int, list[list]]:
    """Record ``i``'s query index and its easy, hard and junk lists, after
    every per-record JSON check (FormatError naming the record). ``json``
    gives a JSON integer exactly the type int (a bool has its own type). A
    set that is not a list of integers is reported after any earlier set of
    the record that holds an integer no int64 holds (OverflowError), as
    converting each set in turn would."""
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
    if query_index in seen:
        raise FormatError(f"{path}: duplicate record for query {query_index}")
    sets = []
    for name in ("easy", "hard", "junk"):
        values = rec.get(name, [])
        if not isinstance(values, list) or not set(map(type, values)) <= {int}:
            for earlier in sets:
                np.asarray(earlier, dtype=np.int64)
            raise FormatError(
                f"{path}: record {i} field {name!r} must be a list of integers"
            )
        sets.append(values)
    seen.add(query_index)
    return query_index, sets


def _first_repeat(flat: np.ndarray, sizes: np.ndarray) -> int | None:
    """The first record that holds an index twice, or None, from one sort of
    the records' indices ``flat`` (three sets a record, of ``sizes``) by
    (record, index)."""
    record = np.repeat(np.arange(sizes.size) // 3, sizes)
    order = np.lexsort((flat, record))
    record, flat = record[order], flat[order]
    repeat = (record[1:] == record[:-1]) & (flat[1:] == flat[:-1])
    return int(record[1:][repeat][0]) if repeat.any() else None


def read_ground_truth(path, gallery_size: int | None = None) -> dict[int, QueryGroundTruth]:
    """Read ground truth records into a query_index -> sets mapping.

    A record's ``query_index`` must be a non-negative JSON integer, and its
    sets lists of JSON integers; anything else raises FormatError naming the
    record. An index no int64 holds raises OverflowError, and sets that
    repeat an index ProtocolError, as ``QueryGroundTruth`` would. A file
    raises the error of its first offending record in file order. Queries
    without a record are simply absent; evaluation treats them as empty
    (they are skipped and reported, not scored zero). With ``gallery_size``,
    an index outside the gallery raises ProtocolError, after every record
    has been parsed.

    Only the JSON checks run per record. The indices of every record go into
    one int64 array, checked for repeats by one sort and against the gallery
    by one compare, and each record's sets are slices of it.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise FormatError(f"{path}: cannot open ground-truth file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise FormatError(f"{path}: expected a JSON array of records")
    keys, sets, seen, error = [], [], set(), None
    for i, rec in enumerate(payload):
        try:
            query_index, record_sets = _record_sets(path, i, rec, seen)
        except (FormatError, OverflowError) as exc:
            error = exc  # raised unless an earlier record repeats an index
            break
        keys.append(query_index)
        sets += record_sets
    try:
        flat = np.fromiter(chain.from_iterable(sets), dtype=np.int64)
    except OverflowError:
        # The first record with an index no int64 holds fails in converting
        # it, unless an earlier record repeats an index.
        for first in range(0, len(sets), 3):
            try:
                for values in sets[first : first + 3]:
                    np.asarray(values, dtype=np.int64)
            except OverflowError as exc:
                error = exc
                break
        del sets[first:]
        flat = np.fromiter(chain.from_iterable(sets), dtype=np.int64)
    sizes = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    ends = np.cumsum(sizes).tolist()
    slices = [flat[start:end] for start, end in zip([0] + ends, ends)]
    repeat = _first_repeat(flat, sizes)
    if repeat is not None:
        _name_repeat(dict(zip(("easy", "hard", "junk"), slices[3 * repeat : 3 * repeat + 3])))
    if error is not None:
        raise error
    gts = [QueryGroundTruth._checked(*slices[j : j + 3]) for j in range(0, len(slices), 3)]
    if gallery_size is not None:
        # One check over every index; the first offending record, in file
        # order, then names its set.
        outside = (flat < 0) | (flat >= gallery_size)
        if outside.any():
            gts[int(np.searchsorted(ends, np.argmax(outside), "right")) // 3].check_bounds(
                gallery_size)
    return dict(zip(keys, gts))


def format_float(x) -> str:
    """Shortest exact decimal for a float; byte-stable across runs."""
    return repr(float(x))


def canonical_json(obj) -> str:
    """Canonical JSON text: the text of ``json.dumps(obj, sort_keys=True,
    indent=2, allow_nan=False)`` plus one trailing newline.

    Dict keys must be ``str`` (TypeError otherwise; ``json.dumps`` would
    convert int, float, bool and None keys). NaN and infinities raise
    ValueError, and any other type than dict, list, tuple, str, int, float,
    bool and None raises TypeError, as in ``json.dumps``.
    """
    return _json_text(obj, "") + "\n"


def _json_text(obj, indent: str) -> str:
    """``obj`` as canonical JSON whose lines after the first start with
    ``indent``. A list or tuple of items all exactly float (finite) or all
    exactly int is one join of their reprs, where ``json.dumps`` with an
    indent runs its pure-Python encoder item by item: a head's weights then
    cost little more than ``float.__repr__`` of each."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        return float.__repr__(obj)
    inner = indent + "  "
    separator = ",\n" + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        types = set(map(type, obj))
        if types == {float} and all(map(math.isfinite, obj)):
            body = separator.join(map(float.__repr__, obj))
        elif types == {int}:
            body = separator.join(map(int.__repr__, obj))
        else:
            body = separator.join([_json_text(item, inner) for item in obj])
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        body = separator.join(
            [f"{encode_basestring_ascii(key)}: {_json_text(obj[key], inner)}" for key in sorted(obj)])
        return f"{{\n{inner}{body}\n{indent}}}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _atomic_write(path, write_payload) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            write_payload(f)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_bytes_atomic(path, data: bytes) -> None:
    _atomic_write(path, lambda f: f.write(data))


def write_text_atomic(path, text: str) -> None:
    write_bytes_atomic(path, text.encode("utf-8"))


def write_json_atomic(path, obj) -> None:
    write_bytes_atomic(path, canonical_json(obj).encode("utf-8"))


def write_csv_atomic(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV with deterministic formatting (ints plain, floats via repr)."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            elif isinstance(cell, (float, np.floating)):
                cells.append(format_float(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    write_text_atomic(path, "\n".join(lines) + "\n")
