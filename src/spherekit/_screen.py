"""The pair screen every blocked product of the package goes through.

Recall, mAP, the ``diagnose`` histogram, hard-negative mining and the loss's
memory term all decide pairs by their float64 row dot (``_row_dots``: no
BLAS, so a value depends only on its two rows). They score rows in tiles
(``_span_tiles``) and decide a pair from its tile score where the score is
provably on one side of a threshold (``_screen_thresholds``): only the pairs
within the tile precision's slack of it are row-dotted. So a decision is
the row dot's, whatever the tile's shape, precision, BLAS build or thread
count.

Mining, the histogram and the memory term take their tiles in two
precisions through one function (``_screened_spans``): a row span is screened
on float32 tiles while its undecided pairs stay within ``_PER_PAIR_SHARE``
of the pairs it screened, and otherwise on float64 tiles of its rows, whose
slack is about ``2d * 2**-53`` of a score. Both screens make the same
decisions, so the share chooses speed only. Recall and mAP take float32
tiles alone and row-dot every undecided pair.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import ShapeError

# The least rows of a metric's row span at the default budget (a smaller one
# shrinks it with the tile, _metric_shape), so a wide gallery is scored in
# tiles, not in thin blocks of full rows (69 rows at 60,000). Leave-one-out
# recall and histograms of unit rows at d 128, one thread of a 2-core Xeon,
# against spans of at least 512 rows in tiles of 512 x 1,024 scores: at 4,000
# rows (spans of 1,048; medians of 7) tiles of 512 x 512, 256 x 1,024, 1,024 x
# 1,024 and 512 x 2,048 took 7-12% longer in recall and 2-19% in histograms (a
# repeat of the chosen shape read +9% and -4%); at 60,000 rows (single runs)
# every shape lay within the host's drift of the chosen one, whose two runs
# read 8.3 and 9.6 s in recall and 14.1 and 15.9 s in histograms. An upper
# span's diagonal square goes in strips of _TILE_ROWS // 4 rows: at 4,000 rows
# (5,920), strips of 64, 128 and 256 rows and the whole square took 82, 75, 74
# and 78 ms (108, 105, 100, 109) in recall and 136, 127, 129 and 150 ms (197,
# 187, 198, 212) in histograms, medians of 21 (11).
_TILE_ROWS = 512

# Per tile precision: the unit roundoff u, and eta, half the smallest
# subnormal (the largest absolute error of a rounding that underflows).
# Float64's eta, 2**-1075, is no float64, so it is rounded up to 2**-1074.
_ROUNDING = {np.float32: (2.0**-24, 2.0**-150), np.float64: (2.0**-53, 2.0**-1074)}
# The screen's bound is proven for row norms up to this size (no float32
# overflow anywhere) and for dims up to _SCREEN_MAX_DIM (d * 2**-24 <= 1/4).
_SCREEN_MAX_NORM = 2.0**60
_SCREEN_MAX_DIM = 2**22
# A float32 screen scores the pairs it cannot decide with one float64 row dot
# each while they are at most this share of the pairs it screened; above it
# one float64 product is faster. Measured on the loss's memory term (n 32-64,
# d 64-384, M 8k-16k, one BLAS thread of a 2-core Xeon: equal cost at about
# 1/100). The memory term's passes, a histogram span's undecided pairs and a
# mining span's kept entries past it are screened again over float64 tiles
# (_screened_spans): the same decisions, bins and negatives, so the share
# chooses speed only. Recall and mAP do not read it: they score every
# undecided item in row dots, however many there are.
_PER_PAIR_SHARE = 1 / 128


def _check_integer_labels(labels: np.ndarray, what: str) -> None:
    """Raise ShapeError unless ``labels`` are integers; an empty array passes."""
    if labels.size and not np.issubdtype(labels.dtype, np.integer):
        raise ShapeError(f"{what} must be integers, got dtype {labels.dtype}")


def _label_codes(*labels: np.ndarray) -> list[np.ndarray]:
    """Per array of ``labels``, its labels as dense codes, equal where the
    labels are (``np.unique`` over all of them), in the smallest unsigned
    dtype that holds their number: a tile's same-label entries are then one
    broadcast compare of small integers."""
    if np.result_type(*labels).kind == "f":
        # Signed with uint64 labels concatenate to float64, which merges
        # labels above 2**53; as Python ints they compare exactly.
        labels = [part.astype(object) for part in labels]
    values, codes = np.unique(np.concatenate(labels), return_inverse=True)
    codes = codes.reshape(-1).astype(np.min_scalar_type(values.size))
    return np.split(codes, np.cumsum([part.size for part in labels[:-1]]))


def _span_tiles(
    queries: np.ndarray,
    gallery: np.ndarray,
    rows: int,
    values: int,
    upper: bool = False,
    within: tuple[int, int] | None = None,
) -> Iterator[tuple[int, int, Iterator[tuple[int, int, np.ndarray]]]]:
    """Yield ``(start, stop, tiles)`` per span of ``rows`` rows of ``queries``
    (of its rows ``within``, a ``(start, stop)`` pair), in order; ``tiles``
    yields ``(a, first, queries[a:b] @ gallery[first:last].T)``, ``a..b`` the
    span's rows, in column order, as many columns as fit ``values`` scores
    with them and at least one. With ``upper`` (rows against themselves)
    strips of ``_TILE_ROWS // 4`` rows ``a..b`` over columns ``a..stop`` come
    first: the upper trapezoid, every pair once but in a strip's diagonal block.

    Every blocked product in the package comes from here, its caller stating
    the shape; no decision taken from a tile depends on its shape or last
    bits. A tile is computed only when asked for, so a span that stops early
    (a screen that falls back) computes no more of its tiles.
    """
    begin, end = within or (0, queries.shape[0])
    width = max(1, values // max(min(rows, end - begin), 1))
    strip = max(1, _TILE_ROWS // 4)

    def tiles(start, stop):
        for a in range(start, stop, strip) if upper else ():
            b = min(a + strip, stop)
            step = max(1, values // (b - a))
            for first in range(a, stop, step):
                yield a, first, queries[a:b] @ gallery[first : min(first + step, stop)].T
        for first in range(stop if upper else 0, gallery.shape[0], width):
            yield start, first, queries[start:stop] @ gallery[first : first + width].T
    for start in range(begin, end, rows):
        stop = min(start + rows, end)
        yield start, stop, tiles(start, stop)


def _metric_shape(gallery_rows: int, block_bytes: int) -> tuple[int, int]:
    """``(rows, values)`` of the metrics' float32 ``_span_tiles`` under a
    budget of ``block_bytes`` of float64 scores: spans of as many rows as fit
    ``block_bytes // 8`` scores across the gallery, and at least
    ``_TILE_ROWS`` or, under a smaller budget, the rows of a tile twice as
    wide as it is tall (90 x 182 at 1 MiB, not 512 x 32), in tiles of
    ``block_bytes // 64`` scores."""
    tile = block_bytes // 64
    return max(1, min(_TILE_ROWS, math.isqrt(tile // 2)), block_bytes // 8 // gallery_rows), tile


def _metric_spans(queries, gallery, block_bytes: int, upper: bool = False):
    """``_span_tiles`` of the metrics' float32 rows, in ``_metric_shape``."""
    return _span_tiles(queries, gallery, *_metric_shape(len(gallery), block_bytes), upper)


def _screened_spans(x, y, rows, values, screens, upper=False, one_span=False):
    """Yield, per span of ``rows`` rows of ``x`` in order, the result of one
    of the caller's two ``screens``, each called as ``screen(start, stop,
    tiles, limit)`` on tiles ``(a, first, tile)`` of the span's rows.

    ``x``, ``y`` and ``values`` pair the float32 and the float64 operands
    and tile budgets (scores) of ``_span_tiles``, with ``upper`` as there;
    with ``one_span`` every row is one span, in tiles of ``rows`` rows.

    The float32 screen gets the span's float32 tiles, each computed only
    when it asks for it, and a ``limit`` of ``_PER_PAIR_SHARE`` of a span
    row's pairs (the columns of ``y``, past ``start`` if ``upper``); it
    returns None to decline the span: when its undecided pairs pass the
    limit, or at once when it cannot screen the span. Its tiles are then
    closed, so none is computed after, and the float64 screen gets float64
    tiles of exactly the span's rows, with no limit (``inf``).
    """
    spans = _span_tiles(x[0], y[0], rows, values[0], upper)
    if one_span:
        spans = [(0, x[0].shape[0], (tile for _, _, tiles in spans for tile in tiles))]
    for start, stop, tiles in spans:
        result = screens[0](start, stop, tiles, _PER_PAIR_SHARE * (y[1].shape[0] - start * upper))
        tiles.close()
        if result is None:
            rows64 = rows if one_span else stop - start
            tiles = _span_tiles(x[1], y[1], rows64, values[1], upper, (start, stop))
            result = screens[1](start, stop, (tile for _, _, part in tiles for tile in part),
                                np.inf)
        yield result


def _screen_slack(z_norm, d: int, norm_bound: float, dtype=np.float32):
    """The bound on ``|s - s64|`` of ``_screen_thresholds`` for ``dtype`` tiles."""
    u, eta = _ROUNDING[dtype]
    return (2 * d + 8) * (u * z_norm * norm_bound + eta * (z_norm + norm_bound + 1.0))


def _screen_thresholds(z_norm, d: int, norm_bound: float, centers, dtype=np.float32):
    """Bounds ``(below, above)`` of ``dtype`` around float64 ``centers``.

    For a row ``z`` of norm ``z_norm`` and a row ``m`` with ``||m|| <=
    norm_bound`` (float64, dim ``d``), ``s`` is a score of a ``dtype`` tile
    and ``s64`` any float64 evaluation of ``sum_k z_k * m_k``, such as a row
    dot. A float32 ``s`` is any evaluation of ``sum_k fl32(z_k) *
    fl32(m_k)`` (any summation order, FMA or not). With ``u = 2**-24``,
    ``eta = 2**-150`` and ``|fl32(x) - x| <= u|x| + eta``:

    * rounding the inputs moves the exact sum by at most
      ``(2u + u**2) ||z|| ||m|| + 2 eta sqrt(d) (||z|| + ||m||) + d eta**2``;
    * every product passes through at most ``d`` float32 roundings, so the
      accumulation adds at most ``gamma_d * sum_k |fl32(z_k) fl32(m_k)|``,
      ``gamma_d = d u / (1 - d u) <= 2 d u`` for ``d u <= 1/4``, plus ``eta``
      per underflowing product (sums of subnormals are exact);
    * the float64 value is within ``d 2**-53 ||z|| ||m||`` (plus float64
      underflow) of the exact sum, which is below ``2**-29 d u ||z|| ||m||``.

    Summed, ``|s - s64| <= (2d + 5) u ||z|| ||m|| + (2d + 8) eta (||z|| +
    ||m|| + 1)``. A float64 ``s``, a row of a BLAS product say, rounds no
    input: with ``u = 2**-53`` and ``eta = 2**-1075`` each float64 evaluation
    lies within ``gamma_d ||z|| ||m||`` of the exact sum, plus ``eta`` per
    underflowing product (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2002, ch. 3), so ``|s - s64| <= 2 gamma_d ||z|| ||m|| + 2 d
    eta``, where ``2 gamma_d <= 2 d u + 4 d**2 u**2`` and ``d**2 u <=
    2**-9``. Both bounds assume that the BLAS sums each entry's d products in
    some order (OpenBLAS and MKL gemm do, Strassen-type routines do not).
    Either precision takes the slack ``(2d + 8) (u ||z|| ||m|| + eta (||z||
    + ||m|| + 1))``; the spare ``3u`` (float64: nearly ``8u``) covers the
    float64 rounding of the slack itself and of a norm bound. ``center -
    slack`` is stepped one float64 ulp down and then rounded down to
    ``dtype``, and ``center + slack`` one ulp up and rounded up, so ``s <=
    below`` gives ``s64 <= s + slack < center`` and ``s >= above`` gives
    ``s64 >= s - slack > center``. Both are strict, so an item decided either
    way never ties the center. ``z_norm`` and ``centers`` broadcast: the
    metrics pass one norm and one center per row (or a scalar center), and
    ``diagnostics.similarity_histograms`` one scalar norm, the largest of its
    rows' (so it also bounds ``||m||``), with one center per interior bin
    edge. Rows outside the proven range (a norm above 2**60, or ``d`` above
    2**22) get bounds -inf and +inf, which decide none of their items.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        slack = _screen_slack(z_norm, d, norm_bound, dtype)
        below64 = np.nextafter(centers - slack, -np.inf)
        above64 = np.nextafter(centers + slack, np.inf)
        below = below64.astype(dtype)
        above = above64.astype(dtype)
    below = np.where(below > below64, np.nextafter(below, dtype(-np.inf)), below)
    above = np.where(above < above64, np.nextafter(above, dtype(np.inf)), above)
    in_range = (z_norm <= _SCREEN_MAX_NORM) & (norm_bound <= _SCREEN_MAX_NORM)
    in_range &= d <= _SCREEN_MAX_DIM
    return np.where(in_range, below, dtype(-np.inf)), np.where(in_range, above, dtype(np.inf))


def _row_dots(A, rows, B, cols, values: int) -> np.ndarray:
    """``A[rows[i]] . B[cols[i]]`` for every i, by ``einsum`` over gathered
    chunks of at most ``values`` values per operand (and at least one row).

    No BLAS runs, so a value depends only on its two rows, never on the other
    pairs, their number or the thread count.
    """
    out = np.empty(rows.size)
    step = max(1, values // A.shape[1])
    for start in range(0, rows.size, step):
        chunk = slice(start, start + step)
        np.einsum("ij,ij->i", A[rows[chunk]], B[cols[chunk]], out=out[chunk])
    return out
