"""Training: encoder heads, AdamW, batch samplers, and the run loop.

The encoder head is a small trainable map (linear, or one hidden tanh layer)
from frozen backbone features to the embedding space; its output is
unit-normalized row by row. Each optimization step follows a fixed order:

    sample batch -> forward -> loss against the current memory view ->
    backprop through normalization -> head gradients -> AdamW update ->
    momentum update -> re-embed the batch with the (momentum) encoder and
    enqueue into memory.

Enqueueing re-embeds with post-step parameters, so memory entries always
reflect the newest encoder available at the time they were stored. All
randomness flows through one generator seeded from the config; a run is
reproducible bit for bit.

Category-level training samples class-balanced batches. Particular-object
training builds tuples per epoch: an anchor-positive pair plus the five
hardest negatives mined by descriptor similarity from a random candidate
pool. Every pair of the epoch is drawn first; then all anchors are mined in
one blocked pass (mining draws no random numbers, so the draws are those of
mining each pair as it is drawn). Tuples are rows of dataset indices
(anchor, positive, five negatives), checked as arrays and flattened (five
tuples per batch) into labeled batches that reuse the same step above. The
per-epoch pair and candidate budgets (2000 and 22000 at full scale) shrink
proportionally with ``particular_scale``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import PoolingSpec, RunConfig, SyntheticSpec
from .diagnostics import (
    histogram_overlap,
    pca_energy_report,
    similarity_histograms,
    step_gradient_dispersion,
)
from .errors import (
    ConfigError,
    DegenerateBatchError,
    NormalizationError,
    NumericalError,
    SamplingError,
    ShapeError,
    TrainingError,
)
from .evaluation import score_blocks
from .geometry import TokenGrid, normalize_rows, pool
from .memory import MemoryBank, MomentumTrack
from .objective import (
    ContrastiveConfig,
    LabeledEmbeddingBatch,
    backprop_through_normalization_rows,
    combined_loss,
    contrastive_loss,  # noqa: F401  re-exported: the benchmark's tracer test reads it here
)

__all__ = [
    "NEGATIVES_PER_TUPLE",
    "TUPLES_PER_BATCH",
    "PAIRS_PER_EPOCH_FULL",
    "CANDIDATES_PER_EPOCH_FULL",
    "MINING_BLOCK_BYTES",
    "LabeledFeatureDataset",
    "LabeledFeatureBatch",
    "TupleSample",
    "EncoderHead",
    "OptimizerState",
    "TraceRow",
    "DiagnosticSnapshot",
    "MetricTrace",
    "TrainedModel",
    "forward",
    "adamw_step",
    "sample_category_batch",
    "mine_hard_negatives",
    "check_tuple_rows",
    "make_synthetic",
    "make_synthetic_grids",
    "build_synthetic_dataset",
    "split_holdout",
    "synthetic_splits",
    "train_run",
]

NEGATIVES_PER_TUPLE = 5
TUPLES_PER_BATCH = 5
PAIRS_PER_EPOCH_FULL = 2000
CANDIDATES_PER_EPOCH_FULL = 22000

# Bytes of float64 scores one block of mined anchors may hold. Scoring every
# anchor of an epoch at once would hold anchors x candidates scores (22 MB at
# 500 x 5,500) plus their label mask.
MINING_BLOCK_BYTES = 2**20


@dataclass(frozen=True)
class LabeledFeatureDataset:
    """Raw (pre-head) feature rows with one integer label each.

    ``labels`` is a private read-only copy, so the class index built on
    first use can never go stale.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        if features.ndim != 2 or features.shape[0] < 1:
            raise ShapeError("features must be a nonempty 2-D array")
        if labels.shape != (features.shape[0],):
            raise ShapeError("one label per feature row required")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ShapeError(f"labels must be integers, got dtype {labels.dtype}")
        if not np.all(np.isfinite(features)):
            raise NumericalError("features contain non-finite values")
        labels = np.array(labels, dtype=np.int64)
        labels.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def _class_table(self) -> tuple[dict[int, np.ndarray], np.ndarray, np.ndarray]:
        """(label -> sorted row indices, ascending labels, rows per label)."""
        order = np.argsort(self.labels, kind="stable")
        order.flags.writeable = False  # the groups below are views of it
        classes, starts, counts = np.unique(
            self.labels[order], return_index=True, return_counts=True
        )
        groups = np.split(order, starts[1:])
        return dict(zip(classes.tolist(), groups)), classes, counts

    def class_indices(self) -> dict[int, np.ndarray]:
        """Label -> sorted row indices, labels in ascending order (built once)."""
        return self._class_table[0]


@dataclass(frozen=True)
class LabeledFeatureBatch:
    """One sampled batch: feature rows, labels, and their dataset indices."""

    features: np.ndarray
    labels: np.ndarray
    indices: np.ndarray


# Training builds tuples as index rows (see check_tuple_rows) and no longer
# constructs this class; it stays because the benchmark's tracer patches
# ``TupleSample.__init__`` by name.
@dataclass(frozen=True)
class TupleSample:
    """Anchor and positive feature vectors plus exactly five mined negatives.

    The index fields record which dataset rows the vectors came from, so a
    batch assembled from tuples keeps its label provenance.
    """

    anchor: np.ndarray
    positive: np.ndarray
    negatives: np.ndarray
    anchor_index: int
    positive_index: int
    negative_indices: np.ndarray

    def __post_init__(self):
        anchor = np.ascontiguousarray(self.anchor, dtype=np.float64)
        positive = np.ascontiguousarray(self.positive, dtype=np.float64)
        negatives = np.ascontiguousarray(self.negatives, dtype=np.float64)
        if anchor.ndim != 1 or positive.shape != anchor.shape:
            raise ShapeError("anchor and positive must be same-length feature vectors")
        if negatives.shape != (NEGATIVES_PER_TUPLE, anchor.shape[0]):
            raise ShapeError(
                f"a tuple carries exactly {NEGATIVES_PER_TUPLE} negatives of "
                f"dim {anchor.shape[0]}, got {negatives.shape}"
            )
        negative_indices = np.ascontiguousarray(self.negative_indices, dtype=np.int64)
        if negative_indices.shape != (NEGATIVES_PER_TUPLE,):
            raise ShapeError("one dataset index per negative required")
        if self.anchor_index == self.positive_index:
            raise SamplingError("anchor and positive must be distinct samples")
        if np.unique(negative_indices).size != negative_indices.size:
            raise SamplingError("tuple negatives must be distinct samples")
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "negatives", negatives)
        object.__setattr__(self, "negative_indices", negative_indices)

    def indices(self) -> np.ndarray:
        return np.concatenate(
            [[self.anchor_index, self.positive_index], self.negative_indices]
        )


class EncoderHead:
    """Small trainable head: linear, or linear-tanh-linear.

    Parameters live in ``layers`` as (W, b) pairs with W of shape
    (fan_out, fan_in); :meth:`params` exposes them as a flat dict of live
    references, which is what the optimizer mutates.
    """

    def __init__(self, layers: list[tuple[np.ndarray, np.ndarray]]):
        if not 1 <= len(layers) <= 2:
            raise ShapeError("head must have one or two layers")
        checked = []
        prev_out = None
        for W, b in layers:
            W = np.ascontiguousarray(W, dtype=np.float64)
            b = np.ascontiguousarray(b, dtype=np.float64)
            if W.ndim != 2 or b.shape != (W.shape[0],):
                raise ShapeError(f"bad layer shapes W{W.shape}, b{b.shape}")
            if prev_out is not None and W.shape[1] != prev_out:
                raise ShapeError(
                    f"layer input {W.shape[1]} does not match previous output {prev_out}"
                )
            prev_out = W.shape[0]
            checked.append((W, b))
        self.layers = checked

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    @classmethod
    def initialize(
        cls, rng: np.random.Generator, in_dim: int, out_dim: int, hidden: int | None = None
    ) -> "EncoderHead":
        """Gaussian fan-in init (std 1/sqrt(fan_in)), zero biases."""
        dims = [in_dim, out_dim] if hidden is None else [in_dim, hidden, out_dim]
        layers = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            W = rng.standard_normal((fan_out, fan_in)) / math.sqrt(fan_in)
            layers.append((W, np.zeros(fan_out)))
        return cls(layers)

    def params(self) -> dict[str, np.ndarray]:
        out = {}
        for i, (W, b) in enumerate(self.layers):
            out[f"w{i}"] = W
            out[f"b{i}"] = b
        return out

    @classmethod
    def from_params(cls, params: dict[str, np.ndarray]) -> "EncoderHead":
        layers = []
        for i in range(len(params) // 2):
            layers.append((params[f"w{i}"].copy(), params[f"b{i}"].copy()))
        return cls(layers)

    def clone(self) -> "EncoderHead":
        return EncoderHead([(W.copy(), b.copy()) for W, b in self.layers])

    def apply(self, X) -> tuple[np.ndarray, list[np.ndarray]]:
        """Raw head output E (no normalization) plus the per-layer input cache."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.in_dim:
            raise ShapeError(f"expected (n, {self.in_dim}) input, got {X.shape}")
        cache = [X]
        h = X
        for i, (W, b) in enumerate(self.layers):
            a = h @ W.T + b
            if i < len(self.layers) - 1:
                h = np.tanh(a)
                cache.append(h)
            else:
                h = a
        return h, cache

    def backward(
        self, cache: list[np.ndarray], grad_out: np.ndarray
    ) -> dict[str, np.ndarray]:
        """Parameter gradients given the gradient at the raw head output."""
        grad_a = np.ascontiguousarray(grad_out, dtype=np.float64)
        grads: dict[str, np.ndarray] = {}
        for i in range(len(self.layers) - 1, -1, -1):
            W, _ = self.layers[i]
            h_in = cache[i]
            grads[f"w{i}"] = grad_a.T @ h_in
            grads[f"b{i}"] = grad_a.sum(axis=0)
            if i > 0:
                grad_h = grad_a @ W
                grad_a = grad_h * (1.0 - cache[i] * cache[i])  # tanh'(a) = 1 - tanh(a)^2
        return grads

    def to_dict(self) -> dict:
        return {
            "layers": [
                {"w": W.tolist(), "b": b.tolist()} for W, b in self.layers
            ]
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EncoderHead":
        try:
            layers = [
                (np.asarray(layer["w"], dtype=np.float64), np.asarray(layer["b"], dtype=np.float64))
                for layer in payload["layers"]
            ]
        except (KeyError, TypeError) as exc:
            raise ShapeError(f"malformed head payload: {exc}") from exc
        return cls(layers)


def forward(head: EncoderHead, X) -> tuple[np.ndarray, np.ndarray]:
    """Head output before and after row normalization: (E, Z)."""
    E, _ = head.apply(X)
    return E, normalize_rows(E)


@dataclass
class OptimizerState:
    """AdamW state: first/second moment per parameter plus the step count."""

    lr: float
    weight_decay: float
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def initialize(
        cls,
        params: dict[str, np.ndarray],
        lr: float,
        weight_decay: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> "OptimizerState":
        if lr <= 0 or not np.isfinite(lr):
            raise ValueError(f"learning rate must be positive, got {lr!r}")
        if weight_decay < 0 or not np.isfinite(weight_decay):
            raise ValueError(f"weight decay must be >= 0, got {weight_decay!r}")
        return cls(
            lr=lr,
            weight_decay=weight_decay,
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            beta1=beta1,
            beta2=beta2,
            eps=eps,
        )


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
) -> None:
    """One decoupled-weight-decay Adam update, in place.

    param -= lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * param), with
    bias-corrected moments m_hat and v_hat.
    """
    if set(params) != set(grads):
        raise ShapeError(
            f"parameter/gradient keys differ: {sorted(params)} vs {sorted(grads)}"
        )
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for key in params:
        p = params[key]
        g = grads[key]
        if g.shape != p.shape:
            raise ShapeError(f"gradient for {key!r} has shape {g.shape}, expected {p.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"gradient for {key!r} contains non-finite values")
        m = state.m[key]
        v = state.v[key]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        p -= state.lr * (m_hat / (np.sqrt(v_hat) + state.eps) + state.weight_decay * p)


def sample_category_batch(
    dataset: LabeledFeatureDataset,
    batch_size: int,
    instances_per_class: int,
    rng: np.random.Generator,
) -> LabeledFeatureBatch:
    """Class-balanced sampling: distinct classes, distinct rows per class.

    Guarantees every anchor has at least one in-batch positive (needs
    instances_per_class >= 2). Classes with fewer rows than requested are
    simply ineligible.
    """
    if instances_per_class < 2:
        raise SamplingError(
            f"instances_per_class must be >= 2, got {instances_per_class}"
        )
    if batch_size % instances_per_class != 0:
        raise SamplingError(
            f"batch_size {batch_size} not divisible by instances_per_class "
            f"{instances_per_class}"
        )
    num_classes = batch_size // instances_per_class
    by_class, classes, counts = dataset._class_table
    eligible = classes[counts >= instances_per_class]
    if eligible.size < num_classes:
        raise SamplingError(
            f"need {num_classes} classes with >= {instances_per_class} rows, "
            f"only {eligible.size} available"
        )
    chosen = rng.choice(eligible, size=num_classes, replace=False)
    parts = []
    for c in chosen:
        parts.append(rng.choice(by_class[int(c)], size=instances_per_class, replace=False))
    indices = np.concatenate(parts)
    return LabeledFeatureBatch(
        features=dataset.features[indices],
        labels=dataset.labels[indices],
        indices=indices,
    )


def mine_hard_negatives(
    anchor_descriptors: np.ndarray,
    pool_descriptors: np.ndarray,
    pool_labels: np.ndarray,
    exclude_labels: np.ndarray,
    k: int = NEGATIVES_PER_TUPLE,
    block_rows: int | None = None,
) -> np.ndarray:
    """Per anchor row, pool indices of the k most similar entries whose label
    differs from that anchor's ``exclude_labels`` entry; shape (anchors, k).

    Each row is ordered by descending similarity, ties resolved to the lowest
    pool index. Anchors are scored in blocks of ``block_rows`` (default: as
    many as fit in ``MINING_BLOCK_BYTES``) by ``evaluation.score_blocks``.
    The result is exact for exact scores; at near-ties within a few ULPs a
    negative at the k-th place may depend on the block size, because a row of
    a matrix product can differ in the last bits from the same dot product
    computed alone. Raises SamplingError when an anchor has fewer than k
    candidates outside its label.
    """
    anchors = np.asarray(anchor_descriptors, dtype=np.float64)
    pool_descriptors = np.asarray(pool_descriptors, dtype=np.float64)
    pool_labels = np.asarray(pool_labels)
    exclude_labels = np.asarray(exclude_labels)
    if (
        pool_descriptors.ndim != 2
        or anchors.ndim != 2
        or anchors.shape[1] != pool_descriptors.shape[1]
    ):
        raise ShapeError("anchor rows and pool rows must share one descriptor dim")
    if exclude_labels.shape != (anchors.shape[0],):
        raise ShapeError("one excluded label per anchor row required")
    if pool_labels.shape != (pool_descriptors.shape[0],):
        raise ShapeError("one label per pool row required")
    n = pool_descriptors.shape[0]
    if block_rows is None:
        block_rows = max(2, MINING_BLOCK_BYTES // (8 * max(n, 1)))
    out = np.empty((anchors.shape[0], k), dtype=np.int64)
    for start, S in score_blocks(anchors, pool_descriptors, block_rows):
        same = exclude_labels[start : start + S.shape[0], None] == pool_labels
        available = n - np.count_nonzero(same, axis=1)
        if np.any(available < k):
            r = int(np.argmax(available < k))
            raise SamplingError(
                f"pool has {available[r]} candidates outside label "
                f"{exclude_labels[start + r]}, need {k}"
            )
        S[same] = -np.inf
        top = np.argpartition(S, n - k, axis=1)[:, n - k :]
        kth = np.take_along_axis(S, top, axis=1).min(axis=1)
        # argpartition picks arbitrarily among entries tied at the k-th score;
        # where such ties straddle the cut, keep every entry strictly above it
        # and fill with the lowest-index entries equal to it.
        straddles = np.count_nonzero(S >= kth[:, None], axis=1) > k
        for r in np.flatnonzero(straddles):
            above = np.flatnonzero(S[r] > kth[r])
            equal = np.flatnonzero(S[r] == kth[r])
            top[r] = np.concatenate([above, equal[: k - above.size]])
        scores = np.take_along_axis(S, top, axis=1)
        order = np.lexsort((top, -scores), axis=-1)
        out[start : start + S.shape[0]] = np.take_along_axis(top, order, axis=1)
    return out


def check_tuple_rows(rows: np.ndarray, labels: np.ndarray) -> None:
    """Validate tuples given as rows of dataset indices.

    Each row is (anchor, positive, negatives...). Raises SamplingError when an
    anchor equals its positive, a row repeats a negative, or a negative
    carries its anchor's label.
    """
    bad = np.flatnonzero(rows[:, 0] == rows[:, 1])
    if bad.size:
        raise SamplingError(
            f"tuple {bad[0]}: anchor and positive are the same sample {rows[bad[0], 0]}"
        )
    negatives = np.sort(rows[:, 2:], axis=1)
    bad = np.flatnonzero(np.any(negatives[:, 1:] == negatives[:, :-1], axis=1))
    if bad.size:
        raise SamplingError(f"tuple {bad[0]}: negatives must be distinct samples")
    bad = np.flatnonzero(np.any(labels[rows[:, 2:]] == labels[rows[:, :1]], axis=1))
    if bad.size:
        raise SamplingError(
            f"tuple {bad[0]}: a negative carries the anchor's label {labels[rows[bad[0], 0]]}"
        )


def make_synthetic(spec: SyntheticSpec) -> LabeledFeatureDataset:
    """Gaussian blobs around unit-sphere class means (flat feature vectors)."""
    if spec.tokens_per_image != 0:
        raise ConfigError(
            "make_synthetic builds flat vectors; use make_synthetic_grids for tokens"
        )
    rng = np.random.default_rng(spec.seed)
    means = normalize_rows(rng.standard_normal((spec.num_classes, spec.feature_dim)))
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), spec.per_class)
    noise = rng.standard_normal((spec.num_classes * spec.per_class, spec.feature_dim))
    features = np.repeat(means, spec.per_class, axis=0) + spec.noise_sigma * noise
    return LabeledFeatureDataset(features=features, labels=labels)


def make_synthetic_grids(spec: SyntheticSpec) -> tuple[list[TokenGrid], np.ndarray]:
    """Token-grid variant: per sample, one cls vector plus M noisy tokens."""
    if spec.tokens_per_image < 1:
        raise ConfigError("make_synthetic_grids needs tokens_per_image >= 1")
    rng = np.random.default_rng(spec.seed)
    means = normalize_rows(rng.standard_normal((spec.num_classes, spec.feature_dim)))
    grids = []
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), spec.per_class)
    for label in labels:
        mu = means[label]
        cls_token = mu + spec.noise_sigma * rng.standard_normal(spec.feature_dim)
        tokens = mu + spec.noise_sigma * rng.standard_normal(
            (spec.tokens_per_image, spec.feature_dim)
        )
        grids.append(TokenGrid(cls_token=cls_token, tokens=tokens))
    return grids, labels


def build_synthetic_dataset(
    spec: SyntheticSpec, pooling: PoolingSpec | None = None
) -> LabeledFeatureDataset:
    """Generate the configured synthetic dataset, pooling token grids if any."""
    if spec.tokens_per_image == 0:
        return make_synthetic(spec)
    pooling = pooling or PoolingSpec()
    grids, labels = make_synthetic_grids(spec)
    features = np.stack([pool(g, pooling.mode, pooling.p) for g in grids])
    return LabeledFeatureDataset(features=features, labels=labels)


def split_holdout(
    dataset: LabeledFeatureDataset, holdout_classes: int
) -> tuple[LabeledFeatureDataset, LabeledFeatureDataset | None]:
    """Split off the highest ``holdout_classes`` labels as a disjoint eval set."""
    if holdout_classes == 0:
        return dataset, None
    labels = np.unique(dataset.labels)
    if holdout_classes >= labels.size:
        raise ConfigError(
            f"cannot hold out {holdout_classes} of {labels.size} classes"
        )
    held = set(labels[-holdout_classes:].tolist())
    mask = np.array([int(l) in held for l in dataset.labels])
    train = LabeledFeatureDataset(dataset.features[~mask], dataset.labels[~mask])
    eval_ = LabeledFeatureDataset(dataset.features[mask], dataset.labels[mask])
    return train, eval_


def synthetic_splits(
    config: RunConfig,
) -> tuple[LabeledFeatureDataset, LabeledFeatureDataset | None]:
    """The config's synthetic dataset, split into training and held-out classes."""
    if config.synthetic is None:
        raise ConfigError("config has no synthetic source")
    full = build_synthetic_dataset(config.synthetic, config.pooling)
    return split_holdout(full, config.synthetic.holdout_classes)


@dataclass(frozen=True)
class TraceRow:
    """One optimization step: total loss and its unweighted components."""

    step: int
    loss: float
    positive: float
    negative: float
    regularizer: float


@dataclass(frozen=True)
class DiagnosticSnapshot:
    """Collapse gauges on the training split at a given step."""

    step: int
    components_for_90: int
    overlap: float


@dataclass
class MetricTrace:
    """Everything measured during a run, in step order."""

    rows: list[TraceRow] = field(default_factory=list)
    gamma_steps: list[int] = field(default_factory=list)
    gamma_values: list[float] = field(default_factory=list)
    gamma_skipped: int = 0
    snapshots: list[DiagnosticSnapshot] = field(default_factory=list)

    @property
    def losses(self) -> np.ndarray:
        return np.asarray([r.loss for r in self.rows], dtype=np.float64)

    @property
    def mean_gamma(self) -> float | None:
        if not self.gamma_values:
            return None
        return float(np.mean(self.gamma_values))


@dataclass
class TrainedModel:
    """A trained head plus its optional momentum shadow."""

    head: EncoderHead
    momentum: MomentumTrack | None = None

    def encoder(self, use_momentum: bool = False) -> EncoderHead:
        if use_momentum:
            if self.momentum is None:
                raise ConfigError("run has no momentum track")
            return EncoderHead.from_params(self.momentum.shadow)
        return self.head

    def embed(self, X) -> np.ndarray:
        """Unit-norm descriptors for raw feature rows."""
        return forward(self.head, X)[1]


class _RunState:
    """Mutable loop state shared by the category and particular drivers."""

    def __init__(self, config: RunConfig, dataset: LabeledFeatureDataset):
        self.config = config
        self.dataset = dataset
        self.rng = np.random.default_rng(config.seed)
        self.head = EncoderHead.initialize(
            self.rng, dataset.dim, config.head.out_dim, config.head.hidden
        )
        self.opt = OptimizerState.initialize(
            self.head.params(), lr=config.lr, weight_decay=config.weight_decay
        )
        self.loss_config = ContrastiveConfig(beta=config.beta, lam=config.lam)
        capacity = int(math.floor(config.memory_capacity_ratio * len(dataset)))
        self.bank = MemoryBank(capacity, config.head.out_dim)
        self.track = (
            MomentumTrack(self.head.params(), config.momentum_m)
            if config.momentum_m is not None
            else None
        )
        self.trace = MetricTrace()
        self.step = 0

    def optimize_batch(self, features: np.ndarray, labels: np.ndarray) -> None:
        config = self.config
        step = self.step
        E, cache = self.head.apply(features)
        try:
            Z = normalize_rows(E)
        except NormalizationError as exc:
            raise TrainingError(f"embedding collapsed to zero norm ({exc})", step) from exc
        batch = LabeledEmbeddingBatch(Z, labels, validate=False)

        try:
            out = combined_loss(batch, self.bank.view(), self.loss_config)
        except DegenerateBatchError as exc:
            raise DegenerateBatchError(str(exc), step=step) from exc
        if not np.isfinite(out.value) or not np.all(np.isfinite(out.grad)):
            raise TrainingError(f"loss or gradient is non-finite (loss={out.value!r})", step)

        if step % config.gamma_every == 0:
            dispersion = step_gradient_dispersion(out.contrastive_grad)
            if dispersion is None:
                self.trace.gamma_skipped += 1
            else:
                self.trace.gamma_steps.append(step)
                self.trace.gamma_values.append(dispersion)

        grad_E = backprop_through_normalization_rows(E, out.grad)
        grads = self.head.backward(cache, grad_E)
        adamw_step(self.head.params(), grads, self.opt)
        if self.track is not None:
            self.track.update(self.head.params())
            refresh_encoder = EncoderHead.from_params(self.track.shadow)
        else:
            refresh_encoder = self.head
        E_mem, _ = refresh_encoder.apply(features)
        try:
            Z_mem = normalize_rows(E_mem)
        except NormalizationError as exc:
            raise TrainingError(f"post-step embedding degenerate ({exc})", step) from exc
        self.bank.enqueue(LabeledEmbeddingBatch(Z_mem, labels, validate=False))

        terms = out.term_breakdown
        self.trace.rows.append(
            TraceRow(
                step=step,
                loss=out.value,
                positive=terms.positive,
                negative=terms.negative,
                regularizer=terms.regularizer,
            )
        )
        if config.snapshot_every > 0 and (step + 1) % config.snapshot_every == 0:
            self.snapshot()
        self.step += 1

    def snapshot(self) -> None:
        Z = forward(self.head, self.dataset.features)[1]
        report = pca_energy_report(Z)
        hist = similarity_histograms(Z, self.dataset.labels)
        self.trace.snapshots.append(
            DiagnosticSnapshot(
                step=self.step,
                components_for_90=report.components_for[90],
                overlap=histogram_overlap(hist),
            )
        )


def _run_category(state: _RunState) -> None:
    config = state.config
    for _ in range(config.iterations):
        batch = sample_category_batch(
            state.dataset, config.batch_size, config.instances_per_class, state.rng
        )
        state.optimize_batch(batch.features, batch.labels)


def _run_particular(state: _RunState) -> None:
    config = state.config
    dataset = state.dataset
    n = len(dataset)
    pairs_per_epoch = max(1, round(PAIRS_PER_EPOCH_FULL * config.particular_scale))
    candidate_budget = max(
        NEGATIVES_PER_TUPLE + 1, round(CANDIDATES_PER_EPOCH_FULL * config.particular_scale)
    )
    by_class = dataset.class_indices()
    pair_classes = np.asarray(
        [c for c, idx in by_class.items() if idx.size >= 2], dtype=np.int64
    )
    if pair_classes.size == 0:
        raise SamplingError("no class has two samples; cannot form positive pairs")
    for _ in range(config.iterations):  # iterations double as epochs here
        Z_all = forward(state.head, dataset.features)[1]
        candidates = state.rng.choice(n, size=min(candidate_budget, n), replace=False)
        rows = np.empty((pairs_per_epoch, 2 + NEGATIVES_PER_TUPLE), dtype=np.int64)
        pair_labels = np.empty(pairs_per_epoch, dtype=np.int64)
        for i in range(pairs_per_epoch):
            c = int(state.rng.choice(pair_classes))
            pair_labels[i] = c
            rows[i, :2] = state.rng.choice(by_class[c], size=2, replace=False)
        local = mine_hard_negatives(
            Z_all[rows[:, 0]], Z_all[candidates], dataset.labels[candidates], pair_labels
        )
        rows[:, 2:] = candidates[local]
        check_tuple_rows(rows, dataset.labels)
        for start in range(0, pairs_per_epoch, TUPLES_PER_BATCH):
            idx = rows[start : start + TUPLES_PER_BATCH].ravel()
            # Two tuples may mine the same sample; duplicates would make the
            # batch degenerate for the entropy term, so keep first occurrences.
            first = np.sort(np.unique(idx, return_index=True)[1])
            idx = idx[first]
            state.optimize_batch(dataset.features[idx], dataset.labels[idx])


def train_run(
    config: RunConfig, dataset: LabeledFeatureDataset | None = None
) -> tuple[TrainedModel, MetricTrace]:
    """Run training per config; returns the trained model and its trace.

    When no dataset is passed, the config's synthetic source is generated and
    its holdout classes (if any) are excluded from training.
    """
    if dataset is None:
        dataset, _ = synthetic_splits(config)
    state = _RunState(config, dataset)
    if config.mode == "category":
        _run_category(state)
    elif config.mode == "particular":
        _run_particular(state)
    else:
        raise ConfigError(f"unknown mode {config.mode!r}")
    return TrainedModel(head=state.head, momentum=state.track), state.trace
