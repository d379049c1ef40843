"""Embedding-space diagnostics.

Three instruments for judging an embedding beyond task metrics:

* pairwise-similarity histograms for same-label vs different-label pairs,
  plus their overlap (a separability score in [0, 1]). Every pair lands in
  the bin of its float64 row dot. Rows of norm at most 1 + UNIT_ATOL are
  scored in float32 tiles of the metrics' size, row span by row span, each
  unordered pair once (both ways in a diagonal strip's block); each pair is
  binned once, and counted as same-label where the label codes of its row
  and column are equal. A pair is scored in a row dot only where its
  float32 score lies within the proven float32 error of an interior bin
  edge; a span with more such pairs than the metrics' per-pair share stops
  its tiles, and it and every span of other rows (a larger norm, bands too
  wide) go through the same edge screen again over float64 tiles of its
  rows, as many scores as a float32 tile. Memory is one tile;
* the PCA energy profile of a descriptor set, summarized as the number of
  components needed to reach fixed energy thresholds (a dimensional-collapse
  gauge: fewer components for 90% energy means a flatter, more collapsed
  spectrum in fewer directions);
* the gradient-direction noise statistic: per measured step, take the
  per-sample contrastive-loss gradients, normalize each to unit length,
  form their unbiased covariance (n-1 denominator), and take its nuclear
  norm; average over measured steps. Aligned gradient directions give a
  small value, conflicting directions a large one. The nuclear norm is
  computed as the trace of a PSD covariance (the two are equal), so no
  covariance matrix or SVD is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from . import _screen, evaluation
from .errors import NumericalError, ShapeError
from .geometry import UNIT_ATOL, cumulative_energy, pca_fit

__all__ = [
    "ENERGY_THRESHOLDS",
    "GRAD_NORM_FLOOR",
    "SimilarityHistogram",
    "EnergyReport",
    "similarity_histograms",
    "histogram_overlap",
    "pca_energy_report",
    "step_gradient_dispersion",
]

# Cumulative-energy levels summarized by pca_energy_report, in percent.
ENERGY_THRESHOLDS = (50, 90, 95)

# Per-sample gradients with norm at or below this are treated as zero and
# skipped when measuring gradient-direction dispersion.
GRAD_NORM_FLOOR = 1e-12

# Scores per _EdgeScreen.binned at any budget: its fixed cost swamps far smaller chunks.
_SPLIT_VALUES = 2**16
# The largest squared row norm the histogram scores. For rows of norm at most
# 2**511 (about 6.7e153) every partial sum of a pair's dot product stays below
# 2**1023 in any order, so no score overflows to inf or to NaN.
_MAX_SQUARED_NORM = 2.0**1022


@dataclass(frozen=True)
class SimilarityHistogram:
    """Counts of pairwise similarities over [-1, 1], split by label agreement.

    Bins are equal-width; each bin is right-exclusive except the last, which
    closes at +1 so the full similarity range is covered. Counts are over
    unordered pairs (i < j).
    """

    bin_edges: np.ndarray
    positive_counts: np.ndarray
    negative_counts: np.ndarray

    def __post_init__(self):
        edges = np.ascontiguousarray(self.bin_edges, dtype=np.float64)
        pos = np.ascontiguousarray(self.positive_counts, dtype=np.int64)
        neg = np.ascontiguousarray(self.negative_counts, dtype=np.int64)
        if edges.ndim != 1 or edges.shape[0] < 2:
            raise ShapeError("bin_edges must be 1-D with at least 2 entries")
        if pos.shape[0] != edges.shape[0] - 1 or neg.shape[0] != edges.shape[0] - 1:
            raise ShapeError("need one count per bin on both sides")
        if np.any(pos < 0) or np.any(neg < 0):
            raise NumericalError("histogram counts must be nonnegative")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "positive_counts", pos)
        object.__setattr__(self, "negative_counts", neg)

    @property
    def num_bins(self) -> int:
        return self.bin_edges.shape[0] - 1


@dataclass(frozen=True)
class _EdgeScreen:
    """Bounds ``below < above`` around each interior edge of a histogram,
    for scores of ``dtype`` tiles (``_screen._screen_thresholds``, the
    edges as centers and the rows' largest norm standing for both norms of a
    pair). A pair's tile score ``>= above`` puts every float64 score of the
    pair above the edge, its row dot included, and one ``<= below`` puts it
    below; a score strictly between is undecided. A decided score's bin is
    the number of ``above`` bounds it reaches.

    ``x = s * scale + scale``, clipped to ``[1/2, B - 1/2]`` for B bins, puts
    edge k at k. Its rounding (at most ``4 * 2**-24 * scale`` in float32 for
    ``|s| <= 2``) and the float64 edges' own are well inside the ``2**-20 *
    scale`` that ``tol`` adds to the widest band times ``scale``, so ``x >=
    k + tol`` gives ``s - edge_k > tol / scale - 2**-20 >= above_k -
    edge_k``, and ``x <= k - tol`` gives ``s < below_k``. A score with ``|x -
    k| >= tol`` for every k thus reaches ``above_k`` for exactly the
    ``floor(x)`` edges ``k <= x``: ``floor(x)`` is its bin. ``tol < 1/2``
    keeps the bands disjoint, so a score within ``tol`` of edge k (the
    integer nearest x) is decided for every other edge: its bin is k if it
    reaches ``above_k``, k - 1 if it is at most ``below_k``, else it is
    undecided. Wider bands decide no score.
    """

    below: np.ndarray
    above: np.ndarray
    scale: np.floating
    tol: np.floating

    @classmethod
    def around(cls, norm: float, d: int, edges, dtype) -> "_EdgeScreen | None":
        """The screen of ``edges`` for ``dtype`` tiles of rows of dim ``d``
        and norm at most ``norm``. In float32 it is None for a norm above 1 +
        ``UNIT_ATOL`` or bands too wide (a large dim or many bins); a float64
        screen bounds any finite rows, and decides no score where its bands
        are too wide (rows past the proven range, or norms of about 2e6 at d
        16 and 50 bins)."""
        centers = edges[1:-1]
        below, above = _screen._screen_thresholds(norm, d, norm, centers, dtype)
        scale = (edges.size - 1) / 2
        tol = (max(np.max(above - centers), np.max(centers - below)) + 2.0**-20) * scale
        if dtype is np.float32 and (norm > 1.0 + UNIT_ATOL or tol >= 0.5):
            return None
        return cls(below, above, dtype(scale), dtype(tol))

    def binned(self, values):
        """Per tile score of ``values``, its bin, or the bin count where it
        is undecided, and the indices of the undecided ones."""
        bins = self.above.size + 1
        if not self.tol < 0.5:
            return np.full(values.size, bins), np.arange(values.size)
        x = values * self.scale
        x += self.scale
        np.clip(x, 0.5, bins - 0.5, out=x)  # half a bin off the outer edges
        at = x.astype(np.intp)  # floor(x), as x > 0
        k = np.rint(x)
        x -= k
        near = np.flatnonzero(np.abs(x, out=x) < self.tol)
        edge = k[near].astype(np.int64) - 1
        score = values[near]
        up = score >= self.above[edge]
        at[near] = edge + up
        near = near[~up & (score > self.below[edge])]
        at[near] = bins
        return at, near


@dataclass(frozen=True)
class _PairBins:
    """Bins pairs of rows of ``Z`` by their float64 row dots, from their
    scores in a tile through the ``screen``, rescoring the undecided pairs
    with row dots of ``chunk`` values per operand; two rows share a label
    where their ``codes`` (``_screen._label_codes``) are equal."""

    Z: np.ndarray
    open_edges: np.ndarray
    screen: _EdgeScreen
    chunk: int
    codes: np.ndarray

    def span(self, start, stop, tiles, limit) -> tuple[np.ndarray, np.ndarray] | None:
        """Bin counts of all pairs and of the same-label pairs of the rows
        ``start..stop`` with every later row, from the row span's upper
        ``tiles`` (``(start, first, tile)``), or None, asking for no further
        tile, once more than ``limit`` pairs per span row are undecided.

        Each score is binned once, into the all-pair counts and, where the
        tile's row and column codes are equal, the same-label counts. A
        tile's entries of a row with itself or an earlier row (in a diagonal
        strip's block, rows from the tile's ``start``) go to a discard slot
        past the undecided one. The undecided pairs of a tile are row-dotted
        once and binned in both counts alike. Counts add up over the tiles."""
        bins = self.open_edges.size - 1
        counts = np.zeros((2, bins + 2), dtype=np.int64)
        total = 0
        for a, first, S in tiles:
            r, width = S.shape
            same = (self.codes[a : a + r, None] == self.codes[first : first + width]).reshape(-1)
            lower = np.tri(r, width, a - first, dtype=bool).reshape(-1) if first < a + r else None
            flat = S.reshape(-1)
            undecided = []
            for i in range(0, flat.size, _SPLIT_VALUES):
                part = slice(i, i + _SPLIT_VALUES)
                at, near = self.screen.binned(flat[part])
                if lower is not None:
                    at[lower[part]] = bins + 1
                    near = near[at[near] == bins]
                counts[0] += np.bincount(at, minlength=bins + 2)
                counts[1] += np.bincount(at[same[part]], minlength=bins + 2)
                total += near.size
                if total > limit * (stop - start):
                    return None
                undecided.append(near + i)
            near = np.concatenate(undecided)
            if near.size:
                rows, cols = np.divmod(near, width)
                scores = _screen._row_dots(self.Z, rows + a, self.Z, cols + first, self.chunk)
                counts[0, :bins] += np.histogram(scores, self.open_edges)[0]
                counts[1, :bins] += np.histogram(scores[same[near]], self.open_edges)[0]
            del S
        return counts[0, :bins], counts[1, :bins]


def similarity_histograms(Z, labels, num_bins: int = 50) -> SimilarityHistogram:
    """Histogram all unordered pairwise similarities, split by label match.

    Rows are scored in row spans of their product with themselves
    (``_screen._metric_shape``, upper trapezoids): a span holds its rows'
    pairs with every later row, so each unordered pair is binned once, in
    tiles of a fixed size, and memory stays bounded by one tile, not by n^2.
    A tile's scores are binned once, a bounded chunk at a time, into the
    all-pair counts and, where the dense codes of the labels
    (``_screen._label_codes``) of a score's row and column are equal, the
    same-label counts; the different-label counts are the difference. Counts
    add up over tiles.

    Labels that are not integers raise ShapeError, and a non-finite row, or
    one of norm above 2**511 (about 6.7e153, where a pair's score could
    overflow), NumericalError naming it, before any tile. Every
    pair lands in the bin of its float64 row dot (``_screen._row_dots``),
    whatever the route, the budget, the BLAS build or its thread count. Rows
    of norm at most 1 + ``UNIT_ATOL`` are scored in float32 tiles. A pair's
    float32 score decides its bin unless it lies within the float32 error
    bound of an interior edge (``_EdgeScreen``); only those undecided pairs
    are scored in row dots. A row span whose undecided pairs are more than
    ``_screen._PER_PAIR_SHARE`` of its entries (most scores on an edge, as
    with coarsely quantized rows) computes no further float32 tile and is
    screened again (``_screen._screened_spans``) over float64 tiles of its
    rows, as many scores as a float32 tile, with no limit; so is every span
    when a norm is above 1 + ``UNIT_ATOL`` or the float32 bands are too wide
    (a large dim or many bins). The float64 bands are about ``2 d 2**-53`` of a score wide, so
    there only pairs within that of an edge are row-dotted, or every pair
    where even those bands are too wide (norms past 2**60 or about 2e6 at d
    16 and 50 bins). The share thus chooses speed only.
    """
    Z = np.asarray(Z, dtype=np.float64)
    labels = np.asarray(labels)
    if Z.ndim != 2 or Z.shape[0] < 2:
        raise ShapeError("need at least two embedding rows")
    if labels.shape != (Z.shape[0],):
        raise ShapeError("one label per row required")
    _screen._check_integer_labels(labels, "labels")
    if not isinstance(num_bins, (int, np.integer)) or isinstance(num_bins, bool) or num_bins < 2:
        raise ShapeError(f"num_bins must be an integer >= 2, got {num_bins!r}")
    bad = np.flatnonzero(~np.isfinite(Z).all(axis=1))
    if bad.size:
        raise NumericalError(f"row {bad[0]} contains non-finite values")
    squared_norms = np.einsum("ij,ij->i", Z, Z)
    bad = np.flatnonzero(squared_norms > _MAX_SQUARED_NORM)
    if bad.size:
        raise NumericalError(
            f"row {bad[0]} has a norm above 2**511; its pair scores could overflow")
    edges = np.linspace(-1.0, 1.0, num_bins + 1)
    # Unit-row dot products can exceed +/-1 by float dust. Open outer edges
    # bin them in the end bins, as clipping them to +/-1 would. np.histogram
    # uses half-open bins with a closed final bin, matching the
    # right-exclusive-except-last convention.
    open_edges = edges.copy()
    open_edges[0], open_edges[-1] = -np.inf, np.inf
    all_counts = np.zeros(num_bins, dtype=np.int64)
    pos_counts = np.zeros(num_bins, dtype=np.int64)
    chunk = max(1, evaluation.SCORE_BLOCK_BYTES // 512)
    codes = _screen._label_codes(labels)[0]
    norm, d = math.sqrt(np.max(squared_norms)), Z.shape[1]
    exact = _PairBins(Z, open_edges, _EdgeScreen.around(norm, d, edges, np.float64), chunk, codes)
    screen = _EdgeScreen.around(norm, d, edges, np.float32)
    # Without a float32 screen no float32 tile is asked for: every span is float64.
    screened = (lambda *span: None) if screen is None else replace(exact, screen=screen).span
    X = Z if screen is None else Z.astype(np.float32)
    # Float64 tiles of a span's rows hold as many scores as a float32 tile.
    rows, tile = _screen._metric_shape(Z.shape[0], evaluation.SCORE_BLOCK_BYTES)
    for counts in _screen._screened_spans((X, Z), (X, Z), rows, (tile, tile),
                                          (screened, exact.span), upper=True):
        all_counts += counts[0]
        pos_counts += counts[1]
    return SimilarityHistogram(
        bin_edges=edges, positive_counts=pos_counts, negative_counts=all_counts - pos_counts
    )


def histogram_overlap(hist: SimilarityHistogram) -> float:
    """Sum over bins of min(positive mass, negative mass), each normalized.

    1.0 means the two distributions are indistinguishable at this binning,
    0.0 means disjoint support.
    """
    pos_total = int(hist.positive_counts.sum())
    neg_total = int(hist.negative_counts.sum())
    if pos_total == 0 or neg_total == 0:
        raise NumericalError(
            "histogram overlap needs mass on both sides "
            f"(positive={pos_total}, negative={neg_total})"
        )
    pos = hist.positive_counts / pos_total
    neg = hist.negative_counts / neg_total
    return float(np.minimum(pos, neg).sum())


@dataclass(frozen=True)
class EnergyReport:
    """Full-rank cumulative energy plus components needed per threshold."""

    cumulative: np.ndarray
    components_for: dict[int, int]

    def __post_init__(self):
        object.__setattr__(
            self, "cumulative", np.ascontiguousarray(self.cumulative, dtype=np.float64)
        )


def pca_energy_report(Z, thresholds: Iterable[int] = ENERGY_THRESHOLDS) -> EnergyReport:
    """Fit full-rank PCA on descriptor rows and report spectrum concentration.

    ``components_for[t]`` is the smallest k whose top-k cumulative energy
    reaches t percent. Rank here means min(n - 1, d).
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[0] < 2:
        raise ShapeError("need at least two descriptor rows")
    model = pca_fit(Z, out_dim=min(Z.shape[0] - 1, Z.shape[1]))
    cumulative = cumulative_energy(model.eigenvalues)
    components_for = {}
    for t in thresholds:
        level = t / 100.0
        k = int(np.searchsorted(cumulative, level, side="left")) + 1
        # Guard against float dust just below the level at the last index.
        components_for[int(t)] = min(k, cumulative.shape[0])
    return EnergyReport(cumulative=cumulative, components_for=components_for)


def step_gradient_dispersion(per_sample_grads) -> float | None:
    """Nuclear norm of the covariance of unit-normalized gradient rows.

    Rows with norm <= 1e-12 are dropped; returns None when fewer than two
    usable rows remain (the unbiased covariance needs at least two).
    """
    G = np.asarray(per_sample_grads, dtype=np.float64)
    if G.ndim != 2:
        raise ShapeError("per-sample gradients must be 2-D")
    if not np.all(np.isfinite(G)):
        raise NumericalError("per-sample gradients contain non-finite values")
    norms = np.linalg.norm(G, axis=1)
    keep = norms > GRAD_NORM_FLOOR
    if int(keep.sum()) < 2:
        return None
    U = G[keep] / norms[keep][:, None]
    centered = U - U.mean(axis=0)
    # Sum of squared centered entries / (n-1) is the covariance trace.
    return float(np.sum(centered * centered) / (U.shape[0] - 1))
