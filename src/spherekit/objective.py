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

The memory term does not score every (anchor, memory row) pair in float64.
A float32 product ``s32 = float32(Z) @ float32(M).T`` screens them with the
bounds of ``evaluation._screen_thresholds``, the helper the retrieval metrics
also use. It gives each row two float32 bounds around a float64 center,
here ``beta``: ``s32 <= below`` proves a float64 similarity ``< beta`` and
``s32 >= above`` one ``> beta``, in any float64 evaluation. The loss needs
only the first, so a pair whose ``s32`` is ``<= below_i`` is inactive. The
slack ``(2d + 8) * 2**-24 * ||z_i|| * max||m||`` (plus an underflow term)
bounds the distance between the float32 score and the float64 one; the
helper's docstring derives it. A memory column is touched when its label
occurs in the batch or when any of its scores is not ``<=`` the bound. An
anchor outside the helper's proven range gets the bound -inf and a float32
row of zeros, so all of its pairs pass. Only the same-label pairs and the
hinge candidates of touched columns are scored in float64, by
``evaluation._row_dots``; those values alone enter the loss and decide the
active set, summed in row-major pair order. The gradient multiplies the
columns with a positive or an active pair.

The gain needs few pairs to pass the screen: a margin well above the typical
different-label similarity. While at most 1/128 of the ``n x M`` pairs pass,
each is one row dot product, in blocks of bounded size. Otherwise, for a
memory of at most 2**16 pairs, and for one outside the helper's proven range
(every bound -inf), the term comes from one float64 product over the whole
memory, exactly as before the screen existed; the screen scores blocks of
memory rows (``evaluation.score_tiles``) and stops at the first block that
shows the share exceeded, so that case costs little more than the product.
The two evaluations of a pair may differ in the last bits, and the choice
between them rests on float32 counts: a step whose count sits at the limit
could choose differently under a float32 product that rounds differently
(another BLAS build or thread count).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import (
    DegenerateBatchError,
    NormalizationError,
    NumericalError,
    ShapeError,
)
from .evaluation import _PER_PAIR_SHARE, _row_dots, _screen_thresholds, score_tiles
from .geometry import _check_unit_norms

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
        if not np.issubdtype(labels.dtype, np.integer):
            raise ShapeError(f"labels must be integers, got dtype {labels.dtype}")
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


# Values per block of the screen (``score_tiles`` at 8 bytes each) and per
# operand of the gathered pair dots; a memory of no more pairs is not screened.
_BLOCK_VALUES = 2**16


def _memory_arrays(memory: Optional["MemoryView"]):
    """Unpack a memory view, treating None and the empty view identically.

    Returns None or ``(descriptors, labels, descriptors32, norm_bound)``; the
    last two come from the bank, or for a view built by hand from its rows,
    after a non-finite row raises NumericalError naming it.
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
    if memory.descriptors32 is not None:
        return descriptors, labels, memory.descriptors32, memory.norm_bound
    bad = np.flatnonzero(~np.isfinite(descriptors).all(axis=1))
    if bad.size:
        raise NumericalError(f"memory row {bad[0]} contains non-finite values")
    with np.errstate(over="ignore"):
        descriptors32 = descriptors.astype(np.float32)
    norm_bound = float(np.sqrt(np.max(np.einsum("ij,ij->i", descriptors, descriptors))))
    return descriptors, labels, descriptors32, norm_bound


def _memory_pairs(Z, labels, mem_Z, mem_labels, mem_Z32, norm_bound, beta):
    """Float64 similarities of the positive and of the active memory pairs.

    Both come in row-major pair order, with the gradient coefficients
    ``coef`` (+1 active, -1 positive, else 0) over the memory columns
    ``cols`` that have either kind of pair. The float32 screen picks the
    pairs to score, one ``score_tiles`` block of memory rows at a time. Few
    are row dot products (``_row_dots``: no BLAS, so a value depends only on
    its two rows), gathered a block at a time. As soon as the pairs passed so far
    are more than ``_PER_PAIR_SHARE`` of the pairs screened so far, the rest
    of the screen is skipped and :func:`_memory_pairs_dense` scores them. It also
    scores a memory that fits in one block: the screen's fixed cost (about
    0.2 ms on one thread of a 2-core Xeon) is more than the product it would
    save there.
    """
    n, d = Z.shape
    m = mem_Z.shape[0]
    z_norm = np.sqrt(np.einsum("ij,ij->i", Z, Z))
    thresholds, _ = _screen_thresholds(z_norm, d, norm_bound, beta)
    if n * m <= _BLOCK_VALUES or thresholds.max() == -np.inf:
        return _memory_pairs_dense(Z, labels, mem_Z, mem_labels, beta)
    with np.errstate(over="ignore"):
        Z32 = Z.astype(np.float32)
    Z32[thresholds == -np.inf] = 0  # finite scores of 0: all of the row's pairs pass
    # Memory-major (rows x n): this orientation of the product runs faster.
    # A block is compared flat against the thresholds tiled to its rows, and
    # its passed pairs are kept as flat indices (memory row * n + anchor).
    tiled = thresholds[:0]
    passed, count = [], 0
    for start, _, S in score_tiles(mem_Z32, Z32, 8 * _BLOCK_VALUES):
        stop = start + S.shape[0]
        if tiled.size < S.size:
            tiled = np.tile(thresholds, S.shape[0])
            screened = np.empty(S.size, dtype=bool)
        screen = np.less_equal(S.ravel(), tiled[: S.size], out=screened[: S.size])
        flat = np.flatnonzero(np.logical_not(screen, out=screen))
        passed.append(start * n + flat)
        count += flat.size
        if count > _PER_PAIR_SHARE * n * stop:
            return _memory_pairs_dense(Z, labels, mem_Z, mem_labels, beta)
    mem_rows, anchors = np.divmod(np.concatenate(passed), n)
    touched = np.isin(mem_labels, labels)
    touched[mem_rows] = True
    cols = np.flatnonzero(touched)
    same = labels[:, None] == mem_labels[cols]
    scored = same.copy()
    scored[anchors, np.searchsorted(cols, mem_rows)] = True
    count = np.count_nonzero(scored)
    if count > _PER_PAIR_SHARE * n * m:
        return _memory_pairs_dense(Z, labels, mem_Z, mem_labels, beta)
    rows, at = np.nonzero(scored)
    sims = _row_dots(Z, rows, mem_Z, cols[at], _BLOCK_VALUES)
    same = same[scored]
    active = ~same & (sims > beta)
    coef = np.zeros((n, cols.size))
    coef[scored] = active.astype(np.float64) - same
    # A column with no positive and no active pair adds exact zeros to the
    # gradient, so only those with one are kept.
    keep = np.flatnonzero(coef.any(axis=0))
    return sims[same], sims[active], cols[keep], coef[:, keep]


def _memory_pairs_dense(Z, labels, mem_Z, mem_labels, beta):
    """:func:`_memory_pairs` from one float64 product over the whole memory."""
    sims = Z @ mem_Z.T
    same = labels[:, None] == mem_labels[None, :]
    active = ~same & (sims > beta)
    cols = np.flatnonzero(np.any(same | active, axis=0))
    coef = active[:, cols].astype(np.float64) - same[:, cols]
    return sims[same], sims[active], cols, coef


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
        mem_Z, mem_labels, mem_Z32, norm_bound = arrays
        if mem_Z.shape[1] != Z.shape[1]:
            raise ShapeError(
                f"memory dim {mem_Z.shape[1]} != batch dim {Z.shape[1]}"
            )
        positives, actives, cols, coef = _memory_pairs(
            Z, labels, mem_Z, mem_labels, mem_Z32, norm_bound, beta
        )
        positive += float(np.sum(1.0 - positives)) / n
        negative += float(np.sum(actives - beta)) / n
        grad += coef @ mem_Z[cols] / n

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
    n, _ = Z.shape
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
    # receives the opposite contribution.
    diffs = Z - Z[nn]
    scaled = diffs / (n * rho * rho)[:, None]
    grad = -scaled
    np.add.at(grad, nn, scaled)
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
    norms = np.linalg.norm(E, axis=1)
    bad = ~np.isfinite(norms) | (norms == 0.0)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise NormalizationError(f"row {i} has norm {norms[i]!r}")
    Z = E / norms[:, None]
    radial = np.sum(Z * grad_Z, axis=1, keepdims=True)
    return (grad_Z - radial * Z) / norms[:, None]
