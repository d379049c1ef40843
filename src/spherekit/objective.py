"""Training objective on the unit sphere.

Two ingredients, combined additively:

* a margin contrastive loss over labeled batch descriptors, where every
  same-label ordered pair (j != i) contributes ``1 - z_i.z_j`` and every
  different-label pair contributes the hinge ``max(z_i.z_j - beta, 0)``, all
  divided by the batch size N once. Anchors may also be compared against a
  read-only memory of past descriptors: those pairs add to the loss value and
  to the anchor gradients, but memory entries themselves receive no gradient.

* a differential-entropy regularizer ``-(1/N) sum_i log rho_i`` where
  ``rho_i`` is the distance from z_i to its nearest batch neighbor. It pushes
  the batch to spread over the sphere and is computed within the batch only.

Both losses return value and analytic gradient together; the trainer never
differentiates numerically.

The memory term takes its positives from the labels. It decides the other
pairs through one screen around ``beta`` in two precisions
(``_screen._screen_thresholds``, as the metrics, the histogram and mining
do): a tile score ``<= below`` proves the float64 row dot
(``_screen._row_dots``: no BLAS, so a value depends only on its two rows)
``< beta``, one ``>= above`` proves it ``> beta``, and only the pairs
strictly between are row-dotted, so every decision is the row dot's. The
memory is one span of ``_screen._screened_spans``, in tiles of whole anchor
rows of the float32 product with the bank's float32 copy, or of the float64
product with the memory when the float32 passes (different-label scores
above ``below``) exceed ``_screen._PER_PAIR_SHARE`` of the pairs screened or
a float32 bound is -inf (a norm past 2**60). The float64 bounds are about
``2d * 2**-53`` of a score wide; an anchor past the proven range scores 0 in
its float64 tiles, between bounds -inf and +inf, so all its pairs are
row-dotted. A tile is compared once, against the least ``below``; only its
passes are classified, into (memory row, anchor) pairs, so no step holds a
memory × batch array.

Value and gradient come from the decided sets: with ``P`` and ``A`` the
positive and active indicators over their memory rows ``M`` (``A``
scattered from the active pairs), ``sum_pos (1 - s) = n_pos - sum_i z_i .
(P M)_i``, ``sum_act (s - beta) = sum_i z_i . (A M)_i - n_act beta`` and
the gradient is ``(A M - P M) / N``. So the loss and
gradient, ``trace.csv`` and ``head.json`` depend only on the decisions,
never on the precision: the share chooses speed only. The hinge sum's
rounding error is absolute, about the row dots' own ``n_act d 2**-53``:
thousands of active pairs within a few ULPs of ``beta`` can sum to 1e-13
off their row dots' sum, even below 0.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import _screen
from .errors import (
    DegenerateBatchError,
    NormalizationError,
    NumericalError,
    ShapeError,
)
from .geometry import _check_unit_norms, _row_norms

if TYPE_CHECKING:  # avoids a runtime import cycle with .memory
    from .memory import MemoryView

__all__ = [
    "RHO_FLOOR",
    "LabeledEmbeddingBatch",
    "ContrastiveConfig",
    "TermBreakdown",
    "LossOutput",
    "contrastive_loss",
    "koleo_loss",
    "combined_loss",
    "backprop_through_normalization_rows",
]

# Nearest-neighbor distances below this are treated as coincident points.
RHO_FLOOR = 1e-12


@dataclass(frozen=True)
class LabeledEmbeddingBatch:
    """N unit-norm embedding rows with one integer label each.

    ``validate=False`` skips the unit-norm check so finite-difference probes
    and other deliberately off-sphere constructions stay possible; shape and
    finiteness are always enforced.
    """

    embeddings: np.ndarray
    labels: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        embeddings = np.asarray(self.embeddings, dtype=np.float64)
        labels = np.asarray(self.labels)
        if embeddings.ndim != 2:
            raise ShapeError(f"embeddings must be 2-D, got ndim={embeddings.ndim}")
        if labels.ndim != 1:
            raise ShapeError(f"labels must be 1-D, got ndim={labels.ndim}")
        if labels.shape[0] != embeddings.shape[0]:
            raise ShapeError(
                f"{labels.shape[0]} labels for {embeddings.shape[0]} embedding rows"
            )
        if embeddings.shape[0] < 2 or embeddings.shape[1] < 2:
            raise ShapeError(
                f"batch must be (N >= 2, d >= 2), got {embeddings.shape}"
            )
        _screen._check_integer_labels(labels, "labels")
        if not np.all(np.isfinite(embeddings)):
            raise NumericalError("batch embeddings contain non-finite values")
        if validate:
            _check_unit_norms(np.linalg.norm(embeddings, axis=1), NormalizationError,
                              "batch row {} has norm {!r}, expected unit")
        object.__setattr__(self, "embeddings", embeddings)
        object.__setattr__(self, "labels", np.ascontiguousarray(labels, dtype=np.int64))

    def __len__(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


def _check_beta(beta: float) -> None:
    if not (np.isfinite(beta) and 0.0 < beta < 1.0):
        raise ValueError(f"margin must lie strictly in (0, 1), got {beta!r}")


@dataclass(frozen=True)
class ContrastiveConfig:
    """Margin and regularizer weight for the combined objective."""

    beta: float = 0.5
    lam: float = 0.7

    def __post_init__(self):
        _check_beta(self.beta)
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"regularizer weight must be finite and >= 0, got {self.lam!r}")


@dataclass(frozen=True)
class TermBreakdown:
    """Unweighted loss components: positive pull, negative hinge, entropy term."""

    positive: float
    negative: float
    regularizer: float


@dataclass(frozen=True)
class LossOutput:
    """Scalar loss with its gradient over the batch rows (always N rows).

    ``contrastive_grad`` is the contrastive term's share of ``grad`` (None
    for the entropy term alone); the gradient-noise measurement reads it.
    """

    value: float
    grad: np.ndarray
    term_breakdown: TermBreakdown
    contrastive_grad: Optional[np.ndarray] = None


# Scores per tile of the screen, in either precision, and per operand of the
# gathered pair dots.
_BLOCK_VALUES = 2**16


def _memory_arrays(memory: Optional["MemoryView"]):
    """Unpack a memory view, treating None and the empty view identically.

    Returns None or ``(descriptors, labels, descriptors32, norm_bound)``; the
    last two come from the bank, or for a view built by hand from its rows,
    after a non-finite row raises NumericalError naming it. Labels that are
    not integers raise ShapeError.
    """
    if memory is None:
        return None
    descriptors = np.asarray(memory.descriptors, dtype=np.float64)
    labels = np.asarray(memory.labels)
    if descriptors.shape[0] == 0:
        return None
    if descriptors.ndim != 2:
        raise ShapeError("memory descriptors must be 2-D")
    if labels.shape != (descriptors.shape[0],):
        raise ShapeError("memory labels must be one per descriptor row")
    _screen._check_integer_labels(labels, "memory labels")
    if memory.descriptors32 is not None:
        return descriptors, labels, memory.descriptors32, memory.norm_bound
    bad = np.flatnonzero(~np.isfinite(descriptors).all(axis=1))
    if bad.size:
        raise NumericalError(f"memory row {bad[0]} contains non-finite values")
    with np.errstate(over="ignore"):
        descriptors32 = descriptors.astype(np.float32)
    norm_bound = float(np.sqrt(np.max(np.einsum("ij,ij->i", descriptors, descriptors))))
    return descriptors, labels, descriptors32, norm_bound


def _decided(tiles, labels, mem_labels, below, above, limit):
    """``(memory rows, anchors, up)`` of the different-label pairs scoring
    above their anchor's ``below`` in ``tiles`` of memory rows by whole
    anchor rows, ascending; ``up`` marks those ``>= above``. A tile is
    compared once, against the least ``below``, and only its passes are
    classified. None, asking for no further tile, once the pairs are more
    than ``limit`` per memory row screened."""
    n = labels.size
    floor, passed = below.min(), 0
    kept = [(np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0, dtype=bool),)]
    for start, _, S in tiles:
        passes = np.flatnonzero(S > floor)
        if passes.size:  # on real data most tiles have none
            rows, anchors = np.divmod(passes + start * n, n)
            scores = S.reshape(-1)[passes]
            keep = (scores > below[anchors]) & (mem_labels[rows] != labels[anchors])
            rows, anchors, scores = rows[keep], anchors[keep], scores[keep]
            passed += rows.size
            if passed > limit * (start + S.shape[0]):
                return None
            kept.append((rows, anchors, scores >= above[anchors]))
    return tuple(map(np.concatenate, zip(*kept)))


def _memory_pairs(Z, labels, mem_Z, mem_labels, mem_Z32, norm_bound, beta):
    """``(positives, hinges, (memory rows, anchors))``: the memory rows that
    share a label with an anchor, those with an active pair, and the active
    pairs, ascending: of different labels and a float64 row dot above
    ``beta``. The memory is one span of ``_screen._screened_spans``, in
    tiles of ``mem_Z @ Z.T`` (memory-major runs faster) that hold whole
    anchor rows, ``_BLOCK_VALUES`` scores or, if more, one memory row's."""
    n, d = Z.shape
    positives = np.flatnonzero(np.isin(mem_labels, labels))
    z_norm = np.sqrt(np.einsum("ij,ij->i", Z, Z))
    bounds = _screen._screen_thresholds(z_norm, d, norm_bound, beta)
    proven = bounds[0] > -np.inf
    # An anchor past the proven range asks for no float32 tile, and scores 0
    # in the float64 ones, strictly between its float64 bounds -inf and +inf.
    Z32 = Z.astype(np.float32) if proven.all() else Z
    Z64 = Z if proven.all() else np.where(proven[:, None], Z, 0.0)

    def screened(start, stop, tiles, limit):
        return _decided(tiles, labels, mem_labels, *bounds, limit) if proven.all() else None

    def exact(start, stop, tiles, limit):
        bounds64 = _screen._screen_thresholds(z_norm, d, norm_bound, beta, np.float64)
        return _decided(tiles, labels, mem_labels, *bounds64, limit)
    block = max(1, _BLOCK_VALUES // n)
    (rows, anchors, up), = _screen._screened_spans(
        (mem_Z32, mem_Z), (Z32, Z64), block, (block * n,) * 2, (screened, exact), one_span=True)
    band = np.flatnonzero(~up)
    up[band] = _screen._row_dots(Z, anchors[band], mem_Z, rows[band], _BLOCK_VALUES) > beta
    hinge = np.zeros(mem_Z.shape[0], dtype=bool)
    hinge[rows[up]] = True
    return positives, np.flatnonzero(hinge), (rows[up], anchors[up])


def contrastive_loss(
    batch: LabeledEmbeddingBatch,
    memory: Optional["MemoryView"],
    beta: float,
) -> LossOutput:
    """Margin contrastive loss over batch (and optionally memory) pairs.

    Pairs whose similarity equals the margin exactly contribute nothing to
    value or gradient (the hinge's active set is strictly above ``beta``).
    The gradient has one row per batch row; memory rows get none.
    """
    _check_beta(beta)
    Z = batch.embeddings
    labels = batch.labels
    n = Z.shape[0]

    sims = Z @ Z.T
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    diff = labels[:, None] != labels[None, :]
    active = diff & (sims > beta)

    positive = float(np.sum(np.where(same, 1.0 - sims, 0.0))) / n
    negative = float(np.sum(np.where(active, sims - beta, 0.0))) / n
    # Both indicator matrices are symmetric, so each row's gradient collects
    # its anchor term and the mirror term from every pair it appears in.
    grad = (2.0 / n) * ((active.astype(np.float64) - same.astype(np.float64)) @ Z)

    arrays = _memory_arrays(memory)
    if arrays is not None:
        mem_Z, mem_labels = arrays[:2]
        if mem_Z.shape[1] != Z.shape[1]:
            raise ShapeError(
                f"memory dim {mem_Z.shape[1]} != batch dim {Z.shape[1]}"
            )
        positives, hinges, (rows, anchors) = _memory_pairs(Z, labels, *arrays, beta)
        P = (labels[:, None] == mem_labels[positives]).astype(np.float64)
        column = np.empty(mem_Z.shape[0], dtype=np.intp)
        column[hinges] = np.arange(hinges.size)
        A = np.zeros((hinges.size, n))
        A[column[rows], anchors] = 1.0
        PM, AM = P @ mem_Z[positives], A.T @ mem_Z[hinges]
        positive += (np.count_nonzero(P) - float(np.einsum("ij,ij->", Z, PM))) / n
        negative += (float(np.einsum("ij,ij->", Z, AM)) - rows.size * beta) / n
        grad += (AM - PM) / n

    value = positive + negative
    if not np.isfinite(value):
        raise NumericalError(f"contrastive loss is {value!r}")
    return LossOutput(
        value=value,
        grad=grad,
        term_breakdown=TermBreakdown(positive=positive, negative=negative, regularizer=0.0),
        contrastive_grad=grad,
    )


def koleo_loss(batch: LabeledEmbeddingBatch) -> LossOutput:
    """Nearest-neighbor differential-entropy term, ``-(1/N) sum log rho_i``.

    Label-free and batch-local. Nearest-neighbor ties resolve to the lowest
    row index; a neighbor closer than 1e-12 raises DegenerateBatchError
    because the logarithm diverges.
    """
    Z = batch.embeddings
    n, d = Z.shape
    if n < 2:
        raise ShapeError("entropy term needs at least 2 rows")
    sq_norms = np.sum(Z * Z, axis=1)
    d2 = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (Z @ Z.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, np.inf)
    nn = np.argmin(d2, axis=1)  # first occurrence wins: lowest-index tie-break
    rho = np.sqrt(d2[np.arange(n), nn])
    if float(rho.min()) < RHO_FLOOR:
        i = int(np.argmin(rho))
        raise DegenerateBatchError(
            f"rows {i} and {int(nn[i])} are within {RHO_FLOOR}; entropy term diverges"
        )
    value = float(-np.mean(np.log(rho)))

    # d/dz_i of -log rho_i is -(z_i - z_nn(i)) / rho_i^2; the neighbor row
    # receives the opposite contribution, in row order (numpy's fast 1-D add.at).
    diffs = Z - Z[nn]
    scaled = diffs / (n * rho * rho)[:, None]
    grad = -scaled
    np.add.at(grad.reshape(-1), (nn[:, None] * d + np.arange(d)).ravel(), scaled.ravel())
    if not np.isfinite(value):
        raise NumericalError(f"entropy term is {value!r}")
    return LossOutput(
        value=value,
        grad=grad,
        term_breakdown=TermBreakdown(positive=0.0, negative=0.0, regularizer=value),
    )


def combined_loss(
    batch: LabeledEmbeddingBatch,
    memory: Optional["MemoryView"],
    config: ContrastiveConfig,
) -> LossOutput:
    """Contrastive loss plus ``lam`` times the entropy term.

    With ``lam == 0`` the entropy computation is skipped entirely, so the
    result (value, gradient, and error behavior) is exactly that of
    :func:`contrastive_loss`. An empty memory view counts as no memory.
    """
    contr = contrastive_loss(batch, memory, config.beta)
    if config.lam == 0.0:
        return contr
    ent = koleo_loss(batch)
    value = contr.value + config.lam * ent.value
    grad = contr.grad + config.lam * ent.grad
    if not np.isfinite(value):
        raise NumericalError(f"combined loss is {value!r}")
    return LossOutput(
        value=value,
        grad=grad,
        term_breakdown=TermBreakdown(
            positive=contr.term_breakdown.positive,
            negative=contr.term_breakdown.negative,
            regularizer=ent.value,
        ),
        contrastive_grad=contr.grad,
    )


def backprop_through_normalization_rows(E, grad_Z) -> np.ndarray:
    """Pull gradients at Z = E/||E|| (row-wise) back to the raw rows E.

    Each row gets ``(I - z z^T) g / ||e||``, computed without materializing
    the projector.
    """
    E = np.asarray(E, dtype=np.float64)
    grad_Z = np.asarray(grad_Z, dtype=np.float64)
    if E.shape != grad_Z.shape or E.ndim != 2:
        raise ShapeError(f"mismatched shapes {E.shape} vs {grad_Z.shape}")
    norms = _row_norms(E)
    Z = E / norms[:, None]
    radial = np.sum(Z * grad_Z, axis=1, keepdims=True)
    return (grad_Z - radial * Z) / norms[:, None]
