"""On-disk formats and atomic artifact writing.

Formats:

* feature file: magic ``EMB1``, then row and column counts as little-endian
  uint32, then the matrix as little-endian float32, row-major. Payload values
  must be finite.
* labels file: UTF-8 text, one nonnegative integer per line.
* ground-truth file: a JSON array of records
  ``{"query_index": int, "easy": [...], "hard": [...], "junk": [...]}``.
* JSON artifacts are written canonically: sorted keys, two-space indent, one
  trailing newline.

Every writer is atomic: content goes to a temporary file in the target
directory which is then renamed over the destination, so a crash never
leaves a half-written artifact. Writers are deterministic byte for byte
given equal inputs; floats in text artifacts use Python's shortest
round-trip representation.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import FormatError
from .evaluation import QueryGroundTruth

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
    write_bytes_atomic(path, header + data.tobytes(order="C"))


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
    write_text_atomic(path, "".join(f"{int(v)}\n" for v in labels))


def read_labels(path) -> np.ndarray:
    """Read one nonnegative integer label per line: ASCII decimal digits,
    optionally surrounded by whitespace, at most 2**63 - 1. Raises
    FormatError naming ``path:line`` for any other text."""
    path = Path(path)
    values = []
    try:
        f = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"{path}: cannot open labels file: {exc}") from exc
    with f:
        for lineno, line in enumerate(f, start=1):
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
                "easy": [int(v) for v in gt.easy],
                "hard": [int(v) for v in gt.hard],
                "junk": [int(v) for v in gt.junk],
            }
        )
    write_text_atomic(path, canonical_json(payload))


def _is_json_int(value) -> bool:
    """True for a JSON integer as ``json`` parses it: an int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def read_ground_truth(path, gallery_size: int | None = None) -> dict[int, QueryGroundTruth]:
    """Read ground truth records into a query_index -> sets mapping.

    A record's ``query_index`` must be a non-negative JSON integer, and its
    sets lists of JSON integers; anything else raises FormatError naming the
    record. Queries without a record are simply absent; evaluation treats
    them as empty (they are skipped and reported, not scored zero). With
    ``gallery_size``, an index outside the gallery raises ProtocolError,
    after every record has been parsed.
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
    records: dict[int, QueryGroundTruth] = {}
    for i, rec in enumerate(payload):
        if not isinstance(rec, dict):
            raise FormatError(f"{path}: record {i} is not an object")
        unknown = set(rec) - {"query_index", "easy", "hard", "junk"}
        if unknown:
            raise FormatError(f"{path}: record {i} has unknown keys {sorted(unknown)}")
        query_index = rec.get("query_index")
        if not _is_json_int(query_index) or query_index < 0:
            raise FormatError(
                f"{path}: record {i} query_index must be a non-negative integer,"
                f" got {query_index!r}"
            )
        if query_index in records:
            raise FormatError(f"{path}: duplicate record for query {query_index}")
        sets = {}
        for name in ("easy", "hard", "junk"):
            values = rec.get(name, [])
            if not isinstance(values, list) or not all(_is_json_int(v) for v in values):
                raise FormatError(
                    f"{path}: record {i} field {name!r} must be a list of integers"
                )
            sets[name] = np.asarray(values, dtype=np.int64)
        records[query_index] = QueryGroundTruth(
            easy=sets["easy"], hard=sets["hard"], junk=sets["junk"]
        )
    if gallery_size is not None and records:
        # One check over every index; the first offending record, in file
        # order, then names its set.
        gts = list(records.values())
        merged = np.concatenate([arr for gt in gts for arr in (gt.easy, gt.hard, gt.junk)])
        outside = (merged < 0) | (merged >= gallery_size)
        if outside.any():
            ends = np.cumsum([gt.easy.size + gt.hard.size + gt.junk.size for gt in gts])
            gts[int(np.searchsorted(ends, np.argmax(outside), "right"))].check_bounds(gallery_size)
    return records


def format_float(x) -> str:
    """Shortest exact decimal for a float; byte-stable across runs."""
    return repr(float(x))


def canonical_json(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


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
