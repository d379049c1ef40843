"""Command-line interface: train, eval, diagnose.

Every command reads declared inputs, runs deterministically, and writes its
artifacts atomically into --out-dir. Exit codes: 0 on success, 2 when inputs
violate a contract (bad config, malformed file, protocol misuse), 3 when a
computation degenerates numerically (collapsed embeddings, non-finite loss;
the message names the failing training step when there is one).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import io as sk_io
from ._version import __version__
from .config import RunConfig, load_run_config, dump_run_config
from .diagnostics import (
    pca_energy_report,
    similarity_histograms,
    histogram_overlap,
)
from .errors import ConfigError, FormatError, NumericalError, ToolkitError
from .evaluation import (
    QueryGroundTruth,
    RetrievalIndex,
    mean_average_precision,
    recall_at_k,
    retrieve,
)
from .geometry import pca_fit, pca_transform_rows
from .trainer import (
    EncoderHead,
    LabeledFeatureDataset,
    forward,
    synthetic_splits,
    train_run,
)

__all__ = ["main", "build_parser"]

DEFAULT_HISTOGRAM_BINS = 50


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherekit",
        description="Metric learning on the unit sphere: train, evaluate, diagnose.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run training and write model artifacts")
    train.add_argument("--config", required=True, help="run config JSON")
    train.add_argument("--seed", type=int, default=None, help="override config seed")
    train.add_argument("--mode", choices=["category", "particular"], default=None,
                       help="override config mode")
    train.add_argument("--out-dir", default=".", help="artifact directory")
    train.set_defaults(func=cmd_train)

    evaluate = sub.add_parser("eval", help="evaluate a trained head")
    evaluate.add_argument("--config", required=True, help="run config JSON")
    evaluate.add_argument("--model", required=True, help="trained head JSON")
    evaluate.add_argument("--gt", default=None, help="ground-truth JSON (particular mode)")
    evaluate.add_argument("--mode", choices=["category", "particular"], default=None,
                          help="override config mode")
    evaluate.add_argument("--out-dir", default=".", help="artifact directory")
    evaluate.set_defaults(func=cmd_eval)

    diagnose = sub.add_parser("diagnose", help="embedding-space diagnostics")
    diagnose.add_argument("--model", required=True, help="trained head JSON")
    diagnose.add_argument("--features", required=True, help="feature file to embed")
    diagnose.add_argument("--labels", required=True, help="labels file")
    diagnose.add_argument("--gamma", action="store_true",
                          help="also measure gradient-direction noise over a training run")
    diagnose.add_argument("--config", default=None,
                          help="run config JSON (required with --gamma)")
    diagnose.add_argument("--out-dir", default=".", help="artifact directory")
    diagnose.set_defaults(func=cmd_diagnose)
    return parser


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if getattr(args, "mode", None) is not None and args.mode != config.mode:
        config = dataclasses.replace(config, mode=args.mode)
    return config


def _load_head(path) -> EncoderHead:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read model {path}: {exc}") from exc
    if not isinstance(payload, dict) or "head" not in payload:
        raise ConfigError(f"model {path} lacks a 'head' section")
    return EncoderHead.from_dict(payload["head"])


def _load_file_dataset(features_path, labels_path) -> LabeledFeatureDataset:
    features = sk_io.read_features(features_path)
    labels = sk_io.read_labels(labels_path)
    if labels.shape[0] != features.shape[0]:
        raise FormatError(
            f"{labels_path} has {labels.shape[0]} labels for "
            f"{features.shape[0]} feature rows in {features_path}"
        )
    return LabeledFeatureDataset(features=features, labels=labels)


def _train_split(config: RunConfig):
    """Training dataset plus the synthetic held-out split (None for files)."""
    if config.synthetic is not None:
        return synthetic_splits(config)
    data = config.data
    return _load_file_dataset(data.train_features, data.train_labels), None


def _resolve_splits(config: RunConfig):
    """Training and evaluation datasets per the config's data source."""
    train, eval_ds = _train_split(config)
    data = config.data
    if data is not None and data.eval_features is not None:
        if data.eval_labels is None:
            raise ConfigError("data.eval_features given without data.eval_labels")
        eval_ds = _load_file_dataset(data.eval_features, data.eval_labels)
    return train, (eval_ds if eval_ds is not None else train)


def cmd_train(args) -> int:
    config = _apply_overrides(load_run_config(args.config), args)
    out_dir = Path(args.out_dir)
    dataset, _ = _train_split(config)
    model, trace = train_run(config, dataset)

    sk_io.write_json_atomic(out_dir / "head.json", {"head": model.head.to_dict()})
    sk_io.write_csv_atomic(
        out_dir / "trace.csv",
        ["step", "loss", "positive", "negative", "koleo"],
        [(r.step, r.loss, r.positive, r.negative, r.regularizer) for r in trace.rows],
    )
    metadata = {
        "command": "train",
        "version": __version__,
        "config": dump_run_config(config),
        "conventions": sk_io.CONVENTIONS,
        "dataset": {
            "num_samples": len(dataset),
            "num_classes": int(np.unique(dataset.labels).size),
            "feature_dim": dataset.dim,
        },
        "trace": {
            "steps": len(trace.rows),
            "final_loss": (trace.rows[-1].loss if trace.rows else None),
            "mean_gamma": trace.mean_gamma,
            "gamma_steps_measured": len(trace.gamma_values),
            "gamma_steps_skipped": trace.gamma_skipped,
        },
        "snapshots": [
            {
                "step": s.step,
                "components_for_90": s.components_for_90,
                "overlap": s.overlap,
            }
            for s in trace.snapshots
        ],
    }
    sk_io.write_json_atomic(out_dir / "run.json", metadata)
    return 0


def _category_eval(config: RunConfig, head: EncoderHead, out_dir: Path) -> int:
    train, eval_ds = _resolve_splits(config)
    has_query_files = (
        config.data is not None and config.data.query_features is not None
    )
    E_eval, Z_eval = forward(head, eval_ds.features)
    pca_block = None
    if config.pca_out_dim is not None:
        E_train, _ = forward(head, train.features)
        pca_model = pca_fit(E_train, config.pca_out_dim)
        Z_eval = pca_transform_rows(pca_model, E_eval)
        pca_block = {
            "out_dim": config.pca_out_dim,
            "fit_on": "train-split embeddings before normalization",
        }
    index = RetrievalIndex(gallery=Z_eval)
    if has_query_files:
        queries_ds = _load_file_dataset(
            config.data.query_features, config.data.query_labels
        )
        E_q, Z_q = forward(head, queries_ds.features)
        if config.pca_out_dim is not None:
            Z_q = pca_transform_rows(pca_model, E_q)
        rankings = retrieve(index, Z_q, exclude_self=False)
        query_labels = queries_ds.labels
    else:
        rankings = retrieve(index, Z_eval, exclude_self=True)
        query_labels = eval_ds.labels
    recalls = recall_at_k(
        rankings, query_labels, config.eval_ks, gallery_labels=eval_ds.labels
    )
    metrics = {
        "command": "eval",
        "version": __version__,
        "mode": "category",
        "num_gallery": len(eval_ds),
        "num_queries": int(query_labels.shape[0]),
        "pca": pca_block,
        "recall": {str(k): v for k, v in recalls.items()},
        "conventions": sk_io.CONVENTIONS,
    }
    sk_io.write_json_atomic(out_dir / "metrics.json", metrics)
    return 0


def _particular_eval(config: RunConfig, head: EncoderHead, args, out_dir: Path) -> int:
    if config.data is None:
        raise ConfigError(
            "particular-mode evaluation needs file-backed data with queries and ground truth"
        )
    data = config.data
    gt_path = args.gt if args.gt is not None else data.ground_truth
    if gt_path is None:
        raise ConfigError("particular-mode evaluation needs --gt or data.ground_truth")
    if data.eval_features is None or data.eval_labels is None:
        raise ConfigError("particular-mode evaluation needs data.eval_features/eval_labels")
    if data.query_features is None or data.query_labels is None:
        raise ConfigError("particular-mode evaluation needs data.query_features/query_labels")

    gallery = _load_file_dataset(data.eval_features, data.eval_labels)
    queries = _load_file_dataset(data.query_features, data.query_labels)
    E_g, Z_g = forward(head, gallery.features)
    E_q, Z_q = forward(head, queries.features)
    if config.pca_out_dim is not None:
        train = _load_file_dataset(data.train_features, data.train_labels)
        E_train, _ = forward(head, train.features)
        pca_model = pca_fit(E_train, config.pca_out_dim)
        Z_g = pca_transform_rows(pca_model, E_g)
        Z_q = pca_transform_rows(pca_model, E_q)
    records = sk_io.read_ground_truth(gt_path, gallery_size=len(gallery))
    ground_truths = [
        records.get(i, QueryGroundTruth(easy=[], hard=[], junk=[]))
        for i in range(len(queries))
    ]
    index = RetrievalIndex(gallery=Z_g)
    rankings = retrieve(index, Z_q, exclude_self=False)
    maps = {}
    skipped = {}
    for split in ("medium", "hard"):
        value, skip = mean_average_precision(rankings, ground_truths, split)
        maps[split] = value
        skipped[split] = skip
    metrics = {
        "command": "eval",
        "version": __version__,
        "mode": "particular",
        "num_gallery": len(gallery),
        "num_queries": len(queries),
        "map": maps,
        "skipped_queries": skipped,
        "pca": (
            None
            if config.pca_out_dim is None
            else {"out_dim": config.pca_out_dim, "fit_on": "train-split embeddings"}
        ),
        "conventions": sk_io.CONVENTIONS,
    }
    sk_io.write_json_atomic(out_dir / "metrics.json", metrics)
    return 0


def cmd_eval(args) -> int:
    config = _apply_overrides(load_run_config(args.config), args)
    head = _load_head(args.model)
    out_dir = Path(args.out_dir)
    if config.mode == "category":
        return _category_eval(config, head, out_dir)
    return _particular_eval(config, head, args, out_dir)


def cmd_diagnose(args) -> int:
    head = _load_head(args.model)
    dataset = _load_file_dataset(args.features, args.labels)
    out_dir = Path(args.out_dir)
    _, Z = forward(head, dataset.features)

    report = pca_energy_report(Z)
    sk_io.write_csv_atomic(
        out_dir / "energy.csv",
        ["component_index", "cumulative_energy"],
        [(i + 1, v) for i, v in enumerate(report.cumulative)],
    )
    hist = similarity_histograms(Z, dataset.labels, num_bins=DEFAULT_HISTOGRAM_BINS)
    sk_io.write_csv_atomic(
        out_dir / "hist.csv",
        ["bin_left", "bin_right", "positive_count", "negative_count"],
        [
            (
                hist.bin_edges[i],
                hist.bin_edges[i + 1],
                int(hist.positive_counts[i]),
                int(hist.negative_counts[i]),
            )
            for i in range(hist.num_bins)
        ],
    )
    summary = {
        "command": "diagnose",
        "version": __version__,
        "num_descriptors": len(dataset),
        "descriptor_dim": int(Z.shape[1]),
        "components_for": {str(t): k for t, k in report.components_for.items()},
        "histogram_overlap": histogram_overlap(hist),
        "conventions": sk_io.CONVENTIONS,
    }
    if args.gamma:
        if args.config is None:
            raise ConfigError("--gamma needs --config to define the training run")
        config = load_run_config(args.config)
        train_split, _ = _resolve_splits(config)
        _, trace = train_run(config, train_split)
        if trace.mean_gamma is None:
            raise NumericalError("no step yielded usable per-sample gradients")
        summary["gamma"] = {
            "gamma": trace.mean_gamma,
            "num_steps": len(trace.gamma_values),
            "beta": config.beta,
            "lambda": config.lam,
            "steps_skipped": trace.gamma_skipped,
        }
    sk_io.write_json_atomic(out_dir / "summary.json", summary)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
