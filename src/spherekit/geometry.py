"""Descriptor geometry: token pooling, unit-sphere projection, and PCA.

Everything here works on plain float64 numpy arrays. Descriptors produced by
the pipeline live on the unit sphere; similarity between unit vectors is their
dot product, so downstream code never recomputes norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NormalizationError,
    NumericalError,
    PoolingError,
    ShapeError,
)

__all__ = [
    "GEM_CLAMP",
    "UNIT_ATOL",
    "POOLING_MODES",
    "TokenGrid",
    "PcaModel",
    "normalize_rows",
    "pool",
    "gem_pool_backward",
    "pca_fit",
    "pca_transform_rows",
    "cumulative_energy",
]

# Tokens are clamped to this floor before the generalized-mean power; keeps
# fractional powers real and the operator differentiable on the active set.
GEM_CLAMP = 1e-6

# Tolerance on |norm - 1| for vectors that claim to be unit-norm.
UNIT_ATOL = 1e-9

POOLING_MODES = ("cls", "avg", "max", "gem")


def _as_float_matrix(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D array, got ndim={arr.ndim}")
    return arr


def _as_float_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be a 1-D array, got ndim={arr.ndim}")
    return arr


@dataclass(frozen=True)
class TokenGrid:
    """Per-image transformer output: one cls vector plus M patch tokens.

    ``tokens`` has shape (M, D) with M >= 0; grids without patch tokens are
    legal but only support cls pooling. All entries must be finite.
    """

    cls_token: np.ndarray
    tokens: np.ndarray

    def __post_init__(self):
        cls_token = _as_float_vector(self.cls_token, "cls_token")
        tokens = _as_float_matrix(self.tokens, "tokens")
        if tokens.shape[1] != cls_token.shape[0]:
            raise ShapeError(
                f"token dim {tokens.shape[1]} does not match cls dim {cls_token.shape[0]}"
            )
        if cls_token.shape[0] < 1:
            raise ShapeError("token dimension must be at least 1")
        if not np.all(np.isfinite(cls_token)) or not np.all(np.isfinite(tokens)):
            raise NumericalError("token grid contains non-finite values")
        object.__setattr__(self, "cls_token", cls_token)
        object.__setattr__(self, "tokens", tokens)

    @property
    def dim(self) -> int:
        return self.cls_token.shape[0]


def normalize_rows(X) -> np.ndarray:
    """Row-wise unit normalization of a matrix; errors name the offending row."""
    X = _as_float_matrix(X, "X")
    norms = np.linalg.norm(X, axis=1)
    bad = ~np.isfinite(norms) | (norms == 0.0)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise NormalizationError(f"row {i} has norm {norms[i]!r}")
    return X / norms[:, None]


def pool(grid: TokenGrid, mode: str, p: float = 3.0) -> np.ndarray:
    """Reduce a token grid to one raw (unnormalized) descriptor vector.

    Modes: "cls" returns the cls vector; "avg"/"max" reduce tokens
    coordinate-wise; "gem" is the generalized mean
    ``(mean(clamp(tokens, 1e-6) ** p)) ** (1/p)`` with p >= 1.
    """
    if mode not in POOLING_MODES:
        raise ValueError(f"unknown pooling mode {mode!r}; expected one of {POOLING_MODES}")
    if mode == "cls":
        return grid.cls_token.copy()
    if grid.tokens.shape[0] == 0:
        raise PoolingError(f"pooling mode {mode!r} needs at least one token")
    if mode == "avg":
        return grid.tokens.mean(axis=0)
    if mode == "max":
        return grid.tokens.max(axis=0)
    if p < 1.0 or not np.isfinite(p):
        raise ValueError(f"generalized-mean exponent must be finite and >= 1, got {p!r}")
    clamped = np.maximum(grid.tokens, GEM_CLAMP)
    return np.mean(clamped**p, axis=0) ** (1.0 / p)


def gem_pool_backward(tokens, p: float, grad_output) -> np.ndarray:
    """Vector-Jacobian product of generalized-mean pooling.

    ``tokens`` is the (M, D) input that was pooled, ``grad_output`` the (D,)
    gradient at the pooled vector. Tokens at or below the clamp floor get zero
    gradient (the clamp is saturated there).
    """
    tokens = _as_float_matrix(tokens, "tokens")
    grad_output = _as_float_vector(grad_output, "grad_output")
    m, d = tokens.shape
    if m == 0:
        raise PoolingError("cannot backpropagate through an empty token set")
    if grad_output.shape[0] != d:
        raise ShapeError(f"grad_output dim {grad_output.shape[0]} != token dim {d}")
    if p < 1.0 or not np.isfinite(p):
        raise ValueError(f"generalized-mean exponent must be finite and >= 1, got {p!r}")
    clamped = np.maximum(tokens, GEM_CLAMP)
    mean_pow = np.mean(clamped**p, axis=0)  # (D,)
    # y_k = mean_pow_k ** (1/p); dy_k/dx_ik = y'_k * p * c_ik^(p-1) / M on the
    # active set, which collapses to mean_pow^(1/p - 1) * c^(p-1) / M.
    outer = mean_pow ** (1.0 / p - 1.0) / m  # (D,)
    active = tokens > GEM_CLAMP  # strictly above the floor
    grad = grad_output[None, :] * outer[None, :] * clamped ** (p - 1.0)
    return np.where(active, grad, 0.0)


@dataclass(frozen=True)
class PcaModel:
    """Orthonormal principal directions with their variances.

    ``components`` is (out_dim, D) with rows sorted by nonincreasing
    eigenvalue; the sign of each row is fixed so its entry of largest
    magnitude is positive.
    """

    mean: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        mean = _as_float_vector(self.mean, "mean")
        components = _as_float_matrix(self.components, "components")
        eigenvalues = _as_float_vector(self.eigenvalues, "eigenvalues")
        k, d = components.shape
        if mean.shape[0] != d:
            raise ShapeError(f"mean dim {mean.shape[0]} != component dim {d}")
        if eigenvalues.shape[0] != k:
            raise ShapeError("one eigenvalue per component required")
        if k < 1 or k > d:
            raise ShapeError(f"need 1 <= out_dim <= input dim, got {k} vs {d}")
        if np.any(eigenvalues < 0.0):
            raise NumericalError("negative eigenvalue in PCA model")
        if np.any(np.diff(eigenvalues) > 0.0):
            raise NumericalError("eigenvalues must be nonincreasing")
        gram = components @ components.T
        if not np.allclose(gram, np.eye(k), atol=1e-8):
            raise NumericalError("PCA components are not orthonormal within 1e-8")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "eigenvalues", eigenvalues)

    @property
    def out_dim(self) -> int:
        return self.components.shape[0]


def pca_fit(X, out_dim: int) -> PcaModel:
    """Fit PCA by eigendecomposition of the unbiased sample covariance.

    No whitening: projections keep the data's scale. Requires
    1 <= out_dim <= min(n - 1, D) so every kept direction is estimable.
    """
    X = _as_float_matrix(X, "X")
    n, d = X.shape
    if n < 2:
        raise ShapeError(f"need at least 2 samples to fit PCA, got {n}")
    if not np.all(np.isfinite(X)):
        raise NumericalError("PCA input contains non-finite values")
    max_dim = min(n - 1, d)
    if not 1 <= out_dim <= max_dim:
        raise ShapeError(
            f"out_dim must be in [1, {max_dim}] for {n} samples in dim {d}, got {out_dim}"
        )
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (n - 1)
    evals, evecs = np.linalg.eigh(cov)  # ascending order
    order = np.arange(d - 1, d - 1 - out_dim, -1)
    eigenvalues = np.maximum(evals[order], 0.0)
    components = evecs[:, order].T.copy()
    for row in components:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0.0:
            np.negative(row, out=row)
    return PcaModel(mean=mean, components=components, eigenvalues=eigenvalues)


def pca_transform_rows(model: PcaModel, X) -> np.ndarray:
    """Center, project, and renormalize rows; returns (n, out_dim) unit rows."""
    X = _as_float_matrix(X, "X")
    if X.shape[1] != model.mean.shape[0]:
        raise ShapeError(
            f"row dim {X.shape[1]} != model input dim {model.mean.shape[0]}"
        )
    if model.out_dim < 2:
        raise ShapeError("projection output dimension must be at least 2")
    return normalize_rows((X - model.mean) @ model.components.T)


def cumulative_energy(eigenvalues) -> np.ndarray:
    """Cumulative fraction of variance captured by the top-k directions.

    Nondecreasing with final entry exactly 1.0 (the running sum is divided by
    its own last element, not by an independently computed total).
    """
    eigenvalues = _as_float_vector(eigenvalues, "eigenvalues")
    if eigenvalues.shape[0] < 1:
        raise ShapeError("need at least one eigenvalue")
    if not np.all(np.isfinite(eigenvalues)):
        raise NumericalError("eigenvalues contain non-finite values")
    if np.any(eigenvalues < 0.0):
        raise NumericalError("eigenvalues must be nonnegative")
    running = np.cumsum(eigenvalues)
    total = running[-1]
    if total <= 0.0:
        raise NumericalError("total variance is zero; energy profile undefined")
    return running / total
