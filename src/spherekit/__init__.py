"""Metric learning on the unit sphere, at desk scale.

Margin contrastive training against a cross-batch memory, an optional
nearest-neighbor entropy regularizer that fights dimensional collapse, a
descriptor pipeline (pooling, normalization, PCA), retrieval evaluation
(recall@K, mean average precision with junk handling), and embedding
diagnostics (energy spectra, similarity histograms, gradient-direction
noise). Deterministic end to end: same config, same seed, same bytes.
"""

from ._version import __version__
from .config import (
    DataPaths,
    HeadSpec,
    PoolingSpec,
    RunConfig,
    SyntheticSpec,
    dump_run_config,
    parse_run_config,
)
from .diagnostics import (
    EnergyReport,
    SimilarityHistogram,
    histogram_overlap,
    pca_energy_report,
    similarity_histograms,
    step_gradient_dispersion,
)
from .errors import (
    ConfigError,
    DegenerateBatchError,
    FormatError,
    NormalizationError,
    NumericalError,
    PoolingError,
    ProtocolError,
    SamplingError,
    ShapeError,
    ToolkitError,
    TrainingError,
)
from .evaluation import (
    QueryGroundTruth,
    Retrieval,
    RetrievalIndex,
    mean_average_precision,
    recall_at_k,
    retrieve,
)
from .geometry import (
    PcaModel,
    TokenGrid,
    cumulative_energy,
    gem_pool_backward,
    normalize_rows,
    pca_fit,
    pca_transform_rows,
    pool,
)
from .memory import MemoryBank, MemoryView, MomentumTrack
from .objective import (
    ContrastiveConfig,
    LabeledEmbeddingBatch,
    LossOutput,
    TermBreakdown,
    backprop_through_normalization_rows,
    combined_loss,
    contrastive_loss,
    koleo_loss,
)
from .trainer import (
    EncoderHead,
    LabeledFeatureDataset,
    MetricTrace,
    OptimizerState,
    TrainedModel,
    TupleSample,
    adamw_step,
    build_synthetic_dataset,
    forward,
    make_synthetic,
    make_synthetic_grids,
    mine_hard_negatives,
    sample_category_batch,
    split_holdout,
    train_run,
)
