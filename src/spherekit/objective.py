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
from .geometry import UNIT_ATOL

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
            norms = np.linalg.norm(embeddings, axis=1)
            off = np.abs(norms - 1.0)
            if float(off.max()) > UNIT_ATOL:
                i = int(np.argmax(off))
                raise NormalizationError(
                    f"batch row {i} has norm {norms[i]!r}, expected unit"
                )
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


def _memory_arrays(memory: Optional["MemoryView"]):
    """Unpack a memory view, treating None and the empty view identically."""
    if memory is None:
        return None, None
    descriptors = np.asarray(memory.descriptors, dtype=np.float64)
    labels = np.asarray(memory.labels)
    if descriptors.shape[0] == 0:
        return None, None
    if descriptors.ndim != 2:
        raise ShapeError("memory descriptors must be 2-D")
    if labels.shape != (descriptors.shape[0],):
        raise ShapeError("memory labels must be one per descriptor row")
    return descriptors, labels


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

    mem_Z, mem_labels = _memory_arrays(memory)
    if mem_Z is not None:
        if mem_Z.shape[1] != Z.shape[1]:
            raise ShapeError(
                f"memory dim {mem_Z.shape[1]} != batch dim {Z.shape[1]}"
            )
        sims_m = Z @ mem_Z.T
        same_m = labels[:, None] == mem_labels[None, :]
        active_m = ~same_m & (sims_m > beta)
        positive += float(np.sum(np.where(same_m, 1.0 - sims_m, 0.0))) / n
        negative += float(np.sum(np.where(active_m, sims_m - beta, 0.0))) / n
        grad += (active_m.astype(np.float64) - same_m.astype(np.float64)) @ mem_Z / n

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
