"""Run configuration: schema, defaults, and validation.

A run is described by one JSON document. Validation is strict: unknown keys
are rejected, and cross-field rules (exactly one data source, margin default
by mode) are applied after schema validation so error messages name the
offending key. Defaults follow the reference training recipe: margin 0.5 for
category-level runs and 0.85 for particular-object runs, regularizer weight
0.7, AdamW at lr 3e-5 with weight decay 5e-4, batch 64 with 4 instances per
class, memory capacity equal to dataset size, momentum 0.999 (an explicit
null disables the momentum track entirely).
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import jsonschema

from .errors import ConfigError

__all__ = [
    "PoolingSpec",
    "HeadSpec",
    "DataPaths",
    "SyntheticSpec",
    "RunConfig",
    "CONFIG_SCHEMA",
    "parse_run_config",
    "load_run_config",
    "dump_run_config",
]

DEFAULT_BETA = {"category": 0.5, "particular": 0.85}


@dataclass(frozen=True)
class PoolingSpec:
    """How to reduce a token grid to one raw descriptor."""

    mode: str = "cls"
    p: float = 3.0


@dataclass(frozen=True)
class HeadSpec:
    """Encoder head shape; ``hidden=None`` means a single linear layer."""

    out_dim: int
    hidden: int | None = None


@dataclass(frozen=True)
class DataPaths:
    """File-backed dataset locations; eval/query/ground-truth are optional."""

    train_features: str
    train_labels: str
    eval_features: str | None = None
    eval_labels: str | None = None
    query_features: str | None = None
    query_labels: str | None = None
    ground_truth: str | None = None


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator for a labeled Gaussian-blob dataset on the feature sphere.

    Class means are drawn uniformly on the unit sphere in ``feature_dim``
    dimensions; each sample adds isotropic Gaussian noise of scale
    ``noise_sigma``. ``holdout_classes`` reserves that many classes (the
    highest labels) for a class-disjoint evaluation split.
    ``tokens_per_image`` > 0 emits token grids instead of flat vectors, so
    the pooling stage is exercised.
    """

    num_classes: int
    per_class: int
    feature_dim: int
    noise_sigma: float
    seed: int
    tokens_per_image: int = 0
    holdout_classes: int = 0


@dataclass(frozen=True)
class RunConfig:
    """Everything a training or evaluation run needs, resolved and validated."""

    mode: str
    iterations: int
    seed: int
    head: HeadSpec
    beta: float
    lam: float = 0.7
    lr: float = 3e-5
    weight_decay: float = 5e-4
    batch_size: int = 64
    instances_per_class: int = 4
    memory_capacity_ratio: float = 1.0
    momentum_m: float | None = 0.999
    pooling: PoolingSpec = field(default_factory=PoolingSpec)
    pca_out_dim: int | None = None
    eval_ks: tuple[int, ...] = (1, 2, 4, 8)
    particular_scale: float = 1.0
    gamma_every: int = 1
    snapshot_every: int = 0
    data: DataPaths | None = None
    synthetic: SyntheticSpec | None = None


CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["mode", "iterations", "seed", "head"],
    "properties": {
        "mode": {"enum": ["category", "particular"]},
        "iterations": {"type": "integer", "minimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "head": {
            "type": "object",
            "additionalProperties": False,
            "required": ["out_dim"],
            "properties": {
                "out_dim": {"type": "integer", "minimum": 2},
                "hidden": {"type": ["integer", "null"], "minimum": 1},
            },
        },
        "beta": {
            "type": ["number", "null"],
            "exclusiveMinimum": 0,
            "exclusiveMaximum": 1,
        },
        "lambda": {"type": "number", "minimum": 0},
        "lr": {"type": "number", "exclusiveMinimum": 0},
        "weight_decay": {"type": "number", "minimum": 0},
        "batch_size": {"type": "integer", "minimum": 2},
        "instances_per_class": {"type": "integer", "minimum": 2},
        "memory_capacity_ratio": {"type": "number", "minimum": 0},
        "momentum_m": {
            "type": ["number", "null"],
            "minimum": 0,
            "exclusiveMaximum": 1,
        },
        "pooling": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["cls", "avg", "max", "gem"]},
                "p": {"type": "number", "minimum": 1},
            },
        },
        "pca_out_dim": {"type": ["integer", "null"], "minimum": 2},
        "eval_ks": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
            "minItems": 1,
        },
        "particular_scale": {
            "type": "number",
            "exclusiveMinimum": 0,
            "maximum": 1,
        },
        "gamma_every": {"type": "integer", "minimum": 1},
        "snapshot_every": {"type": "integer", "minimum": 0},
        "data": {
            "type": ["object", "null"],
            "additionalProperties": False,
            "required": ["train_features", "train_labels"],
            "properties": {
                "train_features": {"type": "string"},
                "train_labels": {"type": "string"},
                "eval_features": {"type": ["string", "null"]},
                "eval_labels": {"type": ["string", "null"]},
                "query_features": {"type": ["string", "null"]},
                "query_labels": {"type": ["string", "null"]},
                "ground_truth": {"type": ["string", "null"]},
            },
        },
        "synthetic": {
            "type": ["object", "null"],
            "additionalProperties": False,
            "required": ["num_classes", "per_class", "feature_dim", "noise_sigma", "seed"],
            "properties": {
                "num_classes": {"type": "integer", "minimum": 2},
                "per_class": {"type": "integer", "minimum": 2},
                "feature_dim": {"type": "integer", "minimum": 2},
                "noise_sigma": {"type": "number", "exclusiveMinimum": 0},
                "seed": {"type": "integer", "minimum": 0},
                "tokens_per_image": {"type": "integer", "minimum": 0},
                "holdout_classes": {"type": "integer", "minimum": 0},
            },
        },
    },
}


@functools.cache
def _config_validator():
    """CONFIG_SCHEMA's validator, checked against its metaschema once per process."""
    cls = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    cls.check_schema(CONFIG_SCHEMA)
    return cls(CONFIG_SCHEMA)


def parse_run_config(raw: dict) -> RunConfig:
    """Validate a config dict and resolve defaults into a RunConfig."""
    # The error jsonschema.validate would raise, from a validator built once.
    error = jsonschema.exceptions.best_match(_config_validator().iter_errors(raw))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"config key {path!r}: {error.message}") from error

    has_data = raw.get("data") is not None
    has_synthetic = raw.get("synthetic") is not None
    if has_data == has_synthetic:
        raise ConfigError("exactly one of 'data' or 'synthetic' must be set")

    mode = raw["mode"]
    beta = raw.get("beta")
    if beta is None:
        beta = DEFAULT_BETA[mode]

    head_raw = raw["head"]
    head = HeadSpec(out_dim=head_raw["out_dim"], hidden=head_raw.get("hidden"))

    pooling_raw = raw.get("pooling") or {}
    pooling = PoolingSpec(
        mode=pooling_raw.get("mode", "cls"), p=float(pooling_raw.get("p", 3.0))
    )

    data = None
    if has_data:
        data = DataPaths(**raw["data"])

    synthetic = None
    if has_synthetic:
        synthetic = SyntheticSpec(**raw["synthetic"])
        if synthetic.holdout_classes >= synthetic.num_classes:
            raise ConfigError(
                "synthetic.holdout_classes must leave at least one training class"
            )

    eval_ks = tuple(sorted(set(raw.get("eval_ks", (1, 2, 4, 8)))))

    config = RunConfig(
        mode=mode,
        iterations=raw["iterations"],
        seed=raw["seed"],
        head=head,
        beta=float(beta),
        lam=float(raw.get("lambda", 0.7)),
        lr=float(raw.get("lr", 3e-5)),
        weight_decay=float(raw.get("weight_decay", 5e-4)),
        batch_size=int(raw.get("batch_size", 64)),
        instances_per_class=int(raw.get("instances_per_class", 4)),
        memory_capacity_ratio=float(raw.get("memory_capacity_ratio", 1.0)),
        momentum_m=(
            None
            if ("momentum_m" in raw and raw["momentum_m"] is None)
            else float(raw.get("momentum_m", 0.999))
        ),
        pooling=pooling,
        pca_out_dim=raw.get("pca_out_dim"),
        eval_ks=eval_ks,
        particular_scale=float(raw.get("particular_scale", 1.0)),
        gamma_every=int(raw.get("gamma_every", 1)),
        snapshot_every=int(raw.get("snapshot_every", 0)),
        data=data,
        synthetic=synthetic,
    )
    if config.batch_size % config.instances_per_class != 0:
        raise ConfigError(
            f"batch_size {config.batch_size} is not divisible by "
            f"instances_per_class {config.instances_per_class}"
        )
    return config


def load_run_config(path) -> RunConfig:
    """Read and validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return parse_run_config(raw)


def dump_run_config(config: RunConfig) -> dict:
    """Resolved config as a plain JSON-serializable dict (for run metadata)."""
    out = asdict(config)
    out["lambda"] = out.pop("lam")
    out["eval_ks"] = list(config.eval_ks)
    return out
