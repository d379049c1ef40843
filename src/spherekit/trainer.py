"""Training: encoder heads, AdamW, batch samplers, and the run loop.

The encoder head is a small trainable map (linear, or one hidden tanh layer)
from frozen backbone features to the embedding space; its output is
unit-normalized row by row. Each optimization step follows a fixed order:

    sample batch -> forward -> loss against the current memory view ->
    backprop through normalization -> head gradients -> AdamW update ->
    momentum update -> (memory with capacity only) re-embed the batch with
    the (momentum) encoder and enqueue into memory.

Enqueueing re-embeds with post-step parameters, so memory entries always
reflect the newest encoder available at the time they were stored. A
zero-capacity memory would discard every entry, so a memoryless step skips
the re-embed and the enqueue. All randomness flows through one generator
seeded from the config; a run is reproducible bit for bit.

Category-level training samples class-balanced batches. Particular-object
training builds tuples per epoch: an anchor-positive pair plus the five
hardest negatives mined by descriptor similarity from a random candidate
pool. Every pair of the epoch is drawn first; then all anchors are mined in
one pass over tiles of ``MINING_BLOCK_BYTES`` of scores, by one selection
rule in two precisions: float32 tiles, and float64 tiles where a span of
anchors cannot be screened in float32. Either way an anchor's negatives are
its top k by float64 row dot, ties to the lower pool index (mining draws no
random numbers, so the draws are those of mining each pair as it is drawn).
Tuples are rows of dataset indices (anchor, positive, five negatives),
checked as arrays and flattened (five tuples per batch) into labeled batches
that reuse the same step above. The per-epoch pair and candidate budgets
(2000 and 22000 at full scale) shrink proportionally with
``particular_scale``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _screen
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

# Bytes of scores one mining tile may hold: MINING_BLOCK_BYTES // 4 float32
# scores (262,144: _MINING_ROWS anchors by 2,048 pool rows), or where a span
# falls back MINING_BLOCK_BYTES // 8 float64 scores (131,072: its anchors by
# 1,024). Scoring every anchor of an epoch at once would hold anchors x
# candidates scores (22 MB at 500 x 5,500). An anchor's negatives depend on
# neither the tile shape nor its precision: its kept entries are scored in
# float64 row dots. A span takes in a tile's entries at most a 64th of this
# many at a time, and a float64 span cuts its kept entries to each anchor's
# top k past that many, since each kept entry costs about 70 bytes of index
# and sort temporaries.
MINING_BLOCK_BYTES = 2**20
# Anchors per float32 tile. A thinner tile re-reads the pool more often, a
# wider one screens fewer columns per anchor: one desk mining call (500 x 5,500
# x 128, one thread of a 2-core Xeon, medians of 21) took 14% longer with 32
# rows, 13% with 64, 3% with 256 and 11% with all 500 than with 128.
_MINING_ROWS = 128


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
        _screen._check_integer_labels(labels, "labels")
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
        """A head over ``params``' own arrays (float64, contiguous), not copies."""
        return cls([(params[f"w{i}"], params[f"b{i}"]) for i in range(len(params) // 2)])

    def apply(self, X) -> tuple[np.ndarray, list[np.ndarray]]:
        """Raw head output E (no normalization) plus the per-layer input cache."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.in_dim:
            raise ShapeError(f"expected (n, {self.in_dim}) input, got {X.shape}")
        cache = [X]
        h = X
        for i, (W, b) in enumerate(self.layers):
            a = h @ W.T
            a += b  # in place: the same add, without a second full-size array
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
        except (KeyError, TypeError, ValueError) as exc:
            raise ShapeError(f"malformed head payload: {exc}") from exc
        return cls(layers)


def forward(head: EncoderHead, X) -> tuple[np.ndarray, np.ndarray]:
    """Head output before and after row normalization: (E, Z)."""
    E, _ = head.apply(X)
    return E, normalize_rows(E)


@dataclass
class OptimizerState:
    """AdamW state: first/second moment per parameter plus the step count.

    ``scratch`` holds two work arrays per parameter, shaped like its first
    moment and allocated once, so a step allocates no parameter-sized array.
    """

    lr: float
    weight_decay: float
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    scratch: dict[str, tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = {k: (np.empty_like(a), np.empty_like(a)) for k, a in self.m.items()}

    @classmethod
    def initialize(
        cls, params: dict[str, np.ndarray], lr: float, weight_decay: float
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
        )


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
) -> None:
    """One decoupled-weight-decay Adam update, in place.

    param -= lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * param), with
    bias-corrected moments m_hat and v_hat. Every operation writes into the
    state's scratch arrays, in the order of that expression, so the result is
    bitwise that of evaluating it with temporaries.
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
        a, b = state.scratch[key]
        m *= state.beta1
        m += np.multiply(g, 1.0 - state.beta1, out=a)
        v *= state.beta2
        np.multiply(g, g, out=a)
        v += np.multiply(a, 1.0 - state.beta2, out=a)
        update = np.divide(m, bc1, out=a)  # m_hat
        denom = np.divide(v, bc2, out=b)  # v_hat
        np.sqrt(denom, out=denom)
        denom += state.eps
        update /= denom
        update += np.multiply(p, state.weight_decay, out=b)
        update *= state.lr
        p -= update


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


class _SpanScreen:
    """The screen of one row span of anchors (``mine_hard_negatives``) over
    tiles of ``dtype`` scores.

    ``tau`` is a tile score that at least k other-label entries of each
    anchor reach, so at least k entries score at least ``tau - slack`` in
    float64 row dots. ``below`` is the bound under which an entry scores less
    than that in any float64 evaluation: it can neither enter the top k nor
    tie it. An anchor outside the screen's proven range gets ``below`` -inf
    and keeps every entry. The span keeps the entries above ``below`` (row,
    pool index and tile score).
    """

    def __init__(self, z_norm, d: int, norm_bound: float, k: int, dtype):
        self.z_norm, self.d, self.norm_bound, self.k = z_norm, d, norm_bound, k
        self.dtype = dtype
        self.slack = _screen._screen_slack(z_norm, d, norm_bound, dtype)
        self.tau = np.full(z_norm.size, -np.inf, dtype=dtype)
        self.rows = self.cols = np.zeros(0, dtype=np.int64)
        self.values = np.zeros(0, dtype=dtype)

    def below(self) -> np.ndarray:
        floor = np.nextafter(self.tau.astype(np.float64) - self.slack, -np.inf)
        return _screen._screen_thresholds(self.z_norm, self.d, self.norm_bound, floor,
                                          self.dtype)[0]

    def scan(self, tiles, codes, limit: float, operands=None) -> bool:
        """Screen ``tiles`` (``(start, first, S)``) of the span's anchors,
        same-label entries (``codes``: the anchors' label codes and the
        pool's) set to -inf, keeping a tile's entries above the bound a few
        rows at a time, at most ``MINING_BLOCK_BYTES // 64`` of them (or one
        row). Once the kept entries are more than ``limit`` it returns False,
        asking for no further tile, or, given the span's ``operands`` (its
        anchors and the pool), cuts each anchor's kept entries to its top k
        (``best``): k entries beat every entry cut."""
        k, piece = self.k, MINING_BLOCK_BYTES // 64
        for _, first, S in tiles:
            r, w = S.shape
            S[codes[0][:, None] == codes[1][first : first + w]] = -np.inf
            if w >= k and self.tau.min() == -np.inf:
                # The least of k disjoint column chunks' maxima is reached k times.
                chunk_max = np.maximum.reduceat(S, np.arange(k) * w // k, axis=1)
                np.maximum(self.tau, chunk_max.min(axis=1), out=self.tau)
            above = S > self.below()[:, None]
            sizes = np.zeros(r, dtype=np.int64)
            if np.count_nonzero(above) > piece:  # else all rows are one piece
                sizes = np.count_nonzero(above, axis=1)
            ends = np.cumsum(sizes)
            a = 0
            while a < r:
                b = max(a + 1, int(np.searchsorted(ends, ends[a] - sizes[a] + piece, "right")))
                self._keep(a, first, S[a:b], above[a:b])
                a = b
                if self.rows.size > limit:
                    if operands is None:
                        return False
                    best = self.best(*operands)
                    self.rows, self.cols = self.rows[best], self.cols[best]
                    self.values = self.values[best]
        return True

    def _keep(self, a: int, first: int, S: np.ndarray, above: np.ndarray) -> None:
        """Add the entries ``above`` of tile rows ``S`` (anchors ``a, ...``,
        pool rows ``first, ...``) to the kept ones, raise tau to each anchor's
        k-th kept score and drop what falls under."""
        k = self.k
        flat = np.flatnonzero(above)
        rows, cols = np.divmod(flat, S.shape[1])
        rows = np.concatenate([self.rows, a + rows])
        cols = np.concatenate([self.cols, first + cols])
        values = np.concatenate([self.values, S.ravel()[flat]])
        by_value = np.argsort(-values)
        order = by_value[np.argsort(rows[by_value], kind="stable")]
        rows, cols, values = rows[order], cols[order], values[order]
        counts = np.bincount(rows, minlength=self.tau.size)
        full = np.flatnonzero(counts >= k)
        kth = values[np.cumsum(counts)[full] - counts[full] + k - 1]
        self.tau[full] = np.maximum(self.tau[full], kth)
        kept = values > self.below()[rows]
        self.rows, self.cols, self.values = rows[kept], cols[kept], values[kept]

    def best(self, anchors: np.ndarray, pool: np.ndarray) -> np.ndarray:
        """Indices of each anchor's k kept entries (all, if fewer) with the
        highest float64 row dots, lowest pool index among equals, by anchor;
        ``anchors`` are the span's rows."""
        rows, cols = self.rows, self.cols
        scores = _screen._row_dots(anchors, rows, pool, cols, MINING_BLOCK_BYTES // 64)
        order = np.lexsort((cols, -scores, rows))
        counts = np.bincount(rows, minlength=anchors.shape[0])
        return order[np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts) < self.k]

    def top(self, anchors: np.ndarray, pool: np.ndarray) -> np.ndarray:
        """Each anchor's top k kept entries (``best``), as pool indices."""
        return self.cols[self.best(anchors, pool)].reshape(-1, self.k)


def mine_hard_negatives(
    anchor_descriptors: np.ndarray,
    pool_descriptors: np.ndarray,
    pool_labels: np.ndarray,
    exclude_labels: np.ndarray,
    k: int = NEGATIVES_PER_TUPLE,
) -> np.ndarray:
    """Per anchor row, pool indices of the k most similar entries whose label
    differs from that anchor's ``exclude_labels`` entry; shape (anchors, k).

    Similarity is the float64 row dot (``_screen._row_dots``); each row is
    ordered by descending similarity, ties to the lowest pool index. Raises
    ShapeError, before any work, when k is not an integer of at least 1 or a
    label is not an integer, NumericalError, naming the input and the row, on
    a non-finite anchor or pool row, and SamplingError when an anchor has
    fewer than k candidates outside its label. Labels are compared as dense
    codes (``_screen._label_codes``), tile by tile; only an anchor's
    same-label entries are set to -inf.

    Spans of ``_MINING_ROWS`` anchors (``_screen._screened_spans``) go through
    one screen (``_SpanScreen``) against successive tiles of pool rows. Per
    anchor, a tile score ``tau`` that at least k other-label entries reach
    gives, through the screen the loss and the metrics use
    (``_screen._screen_thresholds``), a bound under which an entry
    provably scores below the k-th row dot. Each tile raises ``tau`` (the
    least of k column chunks' maxima, then the k-th entry kept so far) and
    keeps only the entries above the bound; the kept entries, about k per
    anchor on real data, are scored in row dots and the top k taken by
    (-row dot, pool index).

    A span is screened over float32 tiles of ``MINING_BLOCK_BYTES``, or over
    float64 tiles of its rows within the same budget, with no limit, when its
    kept entries pass ``_screen._PER_PAIR_SHARE`` of its pairs (quantized,
    tie-heavy rows; it computes no further float32 tile), a bound is -inf (a
    norm above 2**60), or the pool has fewer than k / ``_PER_PAIR_SHARE``
    rows (640 for k = 5). The float64 slack, about 2 d 2**-53 of a score,
    keeps only the near-ties of an anchor's k-th place, and an anchor whose
    bound is -inf keeps every entry; whenever a float64 span's kept entries
    pass ``MINING_BLOCK_BYTES // 64`` (rows collapsed to within a few ULPs
    keep them all), each anchor's are cut to its top k, so memory stays a
    few tiles. Both precisions pick the same top k, so the route chooses
    speed only.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise ShapeError(f"k must be an integer of at least 1, got {k!r}")
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
    _screen._check_integer_labels(pool_labels, "pool labels")
    _screen._check_integer_labels(exclude_labels, "excluded labels")
    for name, rows in (("anchor", anchors), ("pool", pool_descriptors)):
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if bad.size:
            raise NumericalError(f"{name} row {bad[0]} contains non-finite values")
    n, d = pool_descriptors.shape
    pool_codes, anchor_codes = _screen._label_codes(pool_labels, exclude_labels)
    per_code = np.bincount(pool_codes, minlength=int(anchor_codes.max(initial=0)) + 1)
    available = n - per_code[anchor_codes]
    if np.any(available < k):
        r = int(np.argmax(available < k))
        raise SamplingError(
            f"pool has {available[r]} candidates outside label {exclude_labels[r]}, need {k}"
        )
    z_norm = np.sqrt(np.einsum("ij,ij->i", anchors, anchors))
    norm_bound = float(np.sqrt(np.max(np.einsum("ij,ij->i", pool_descriptors, pool_descriptors))))
    proven = _screen._screen_thresholds(z_norm, d, norm_bound, 0.0)[0] > -np.inf
    with np.errstate(over="ignore"):
        anchors32 = anchors.astype(np.float32)
        pool32 = pool_descriptors.astype(np.float32)

    def screened(start, stop, tiles, limit):
        # A float32 screen needs a proven bound, and k entries an anchor within the share.
        screen = _SpanScreen(z_norm[start:stop], d, norm_bound, k, np.float32)
        if k <= limit and proven[start:stop].all() and screen.scan(
                tiles, (anchor_codes[start:stop], pool_codes), limit * (stop - start)):
            return screen.top(anchors[start:stop], pool_descriptors)

    def exact(start, stop, tiles, _):
        screen = _SpanScreen(z_norm[start:stop], d, norm_bound, k, np.float64)
        screen.scan(tiles, (anchor_codes[start:stop], pool_codes), MINING_BLOCK_BYTES // 64,
                    (anchors[start:stop], pool_descriptors))
        return screen.top(anchors[start:stop], pool_descriptors)
    # Spans of as many anchors as fit a float32 tile across the pool, at least _MINING_ROWS.
    values = MINING_BLOCK_BYTES // 4
    tops = _screen._screened_spans((anchors32, anchors), (pool32, pool_descriptors),
                                   max(_MINING_ROWS, values // n),
                                   (values, MINING_BLOCK_BYTES // 8), (screened, exact))
    return np.concatenate([np.empty((0, k), dtype=np.int64), *tops])


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
    features = rng.standard_normal((spec.num_classes * spec.per_class, spec.feature_dim))
    # In place, through a (classes, per_class, d) view: one full-size array.
    features *= spec.noise_sigma
    features.reshape(spec.num_classes, spec.per_class, -1)[...] += means[:, None, :]
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
    """Split off the highest ``holdout_classes`` labels as a disjoint eval set.

    When the held-out rows are the last rows, as the synthetic builders lay
    them out (by class), the two sets are row slices of the dataset's one
    feature array; otherwise each is a copy of its rows.
    """
    bad = not isinstance(holdout_classes, (int, np.integer)) or isinstance(holdout_classes, bool)
    if bad or holdout_classes < 0:
        raise ConfigError(f"holdout_classes must be an integer >= 0, got {holdout_classes!r}")
    if holdout_classes == 0:
        return dataset, None
    labels = np.unique(dataset.labels)
    if holdout_classes >= labels.size:
        raise ConfigError(
            f"cannot hold out {holdout_classes} of {labels.size} classes"
        )
    mask = np.isin(dataset.labels, labels[-holdout_classes:])
    kept = mask.size - np.count_nonzero(mask)
    if mask[kept:].all():
        train, held = slice(None, kept), slice(kept, None)
    else:
        train, held = ~mask, mask
    return (LabeledFeatureDataset(dataset.features[train], dataset.labels[train]),
            LabeledFeatureDataset(dataset.features[held], dataset.labels[held]))


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
        if self.bank.capacity > 0:
            refresh_encoder = (
                EncoderHead.from_params(self.track.shadow)
                if self.track is not None
                else self.head
            )
            try:
                _, Z_mem = forward(refresh_encoder, features)
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
