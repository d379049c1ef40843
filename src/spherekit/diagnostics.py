"""Embedding-space diagnostics.

Three instruments for judging an embedding beyond task metrics:

* pairwise-similarity histograms for same-label vs different-label pairs,
  plus their overlap (a separability score in [0, 1]);
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

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NumericalError, ShapeError
from .geometry import cumulative_energy, pca_fit

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


def similarity_histograms(Z, labels, num_bins: int = 50) -> SimilarityHistogram:
    """Histogram all unordered pairwise similarities, split by label match."""
    Z = np.asarray(Z, dtype=np.float64)
    labels = np.asarray(labels)
    if Z.ndim != 2 or Z.shape[0] < 2:
        raise ShapeError("need at least two embedding rows")
    if labels.shape != (Z.shape[0],):
        raise ShapeError("one label per row required")
    if num_bins < 2:
        raise ShapeError(f"num_bins must be >= 2, got {num_bins}")
    sims = Z @ Z.T
    iu = np.triu_indices(Z.shape[0], k=1)
    # Unit-row dot products can exceed +/-1 by float dust; clipping keeps
    # every pair inside the binned range.
    pair_sims = np.clip(sims[iu], -1.0, 1.0)
    pair_same = labels[iu[0]] == labels[iu[1]]
    edges = np.linspace(-1.0, 1.0, num_bins + 1)
    # np.histogram uses half-open bins with a closed final bin, matching the
    # right-exclusive-except-last convention.
    pos_counts, _ = np.histogram(pair_sims[pair_same], bins=edges)
    neg_counts, _ = np.histogram(pair_sims[~pair_same], bins=edges)
    return SimilarityHistogram(
        bin_edges=edges,
        positive_counts=pos_counts.astype(np.int64),
        negative_counts=neg_counts.astype(np.int64),
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
