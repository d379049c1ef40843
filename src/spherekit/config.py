"""Run configuration: schema, defaults, and validation.

A run is described by one JSON document. Validation is strict: unknown keys
are rejected, and cross-field rules (exactly one data source, margin default
by mode) are applied after schema validation so error messages name the
offending key. Each config fact is declared once. ``CONFIG_SCHEMA`` gives
every key's type, and parsing casts each number to it: an ``integer`` key
becomes an ``int`` (``3.0`` is a valid integer) and a ``number`` key a
``float``. The dataclasses below give every default: a key that is absent
takes its field's default, and only the margin's default depends on the
mode (``DEFAULT_BETA``). The defaults follow the reference training recipe:
margin 0.5 for category-level runs and 0.85 for particular-object runs,
regularizer weight 0.7, AdamW at lr 3e-5 with weight decay 5e-4, batch 64
with 4 instances per class, memory capacity equal to dataset size, momentum
0.999 (an explicit null disables the momentum track entirely).
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
    "$schema": "https://json-schema.org/draft/2020-12/schema",
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


def _cast_numbers(value, schema: dict):
    """``value`` with each number cast to its schema type, at any depth.

    An ``integer`` key gets an ``int`` (JSON Schema counts ``3.0`` as an
    integer) and a ``number`` key a ``float``; other values, bools among
    them, are returned as they are. ``value`` must already be valid.
    """
    if isinstance(value, dict):
        properties = schema["properties"]
        return {k: _cast_numbers(v, properties[k]) for k, v in value.items()}
    if isinstance(value, list):
        return [_cast_numbers(v, schema["items"]) for v in value]
    if type(value) not in (int, float):
        return value
    types = schema["type"]
    types = [types] if isinstance(types, str) else types
    return int(value) if "integer" in types else float(value)


def parse_run_config(raw: dict) -> RunConfig:
    """Validate a config dict and resolve defaults into a RunConfig."""
    # The error jsonschema.validate would raise, from a validator built once.
    error = jsonschema.exceptions.best_match(_config_validator().iter_errors(raw))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"config key {path!r}: {error.message}") from error

    if (raw.get("data") is None) == (raw.get("synthetic") is None):
        raise ConfigError("exactly one of 'data' or 'synthetic' must be set")

    fields = _cast_numbers(raw, CONFIG_SCHEMA)
    if fields.get("beta") is None:
        fields["beta"] = DEFAULT_BETA[fields["mode"]]
    if "lambda" in fields:
        fields["lam"] = fields.pop("lambda")
    if "eval_ks" in fields:
        fields["eval_ks"] = tuple(sorted(set(fields["eval_ks"])))
    specs = {"head": HeadSpec, "pooling": PoolingSpec, "data": DataPaths,
             "synthetic": SyntheticSpec}
    for key, spec in specs.items():
        if fields.get(key) is not None:
            fields[key] = spec(**fields[key])

    synthetic = fields.get("synthetic")
    if synthetic is not None and synthetic.holdout_classes >= synthetic.num_classes:
        raise ConfigError("synthetic.holdout_classes must leave at least one training class")
    config = RunConfig(**fields)
    if config.batch_size % config.instances_per_class != 0:
        raise ConfigError(
            f"batch_size {config.batch_size} is not divisible by "
            f"instances_per_class {config.instances_per_class}"
        )
    return config


def _read_config(path) -> dict:
    """The JSON object of a config file, not yet validated."""
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
    return raw


def dump_run_config(config: RunConfig) -> dict:
    """Resolved config as a plain JSON-serializable dict (for run metadata)."""
    out = asdict(config)
    out["lambda"] = out.pop("lam")
    out["eval_ks"] = list(config.eval_ks)
    return out
