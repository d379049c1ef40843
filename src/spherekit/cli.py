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


def _category_splits(config: RunConfig):
    """Training and evaluation datasets for a category eval.

    Eval files, when given, are the evaluation set, and the training files
    are then read only for the PCA fit (``train`` is None without one).
    Otherwise the evaluation set is the synthetic held-out split, or the
    training files themselves.
    """
    data = config.data
    if data is None or data.eval_features is None:
        train, held_out = _train_split(config)
        return train, (held_out if held_out is not None else train)
    if data.eval_labels is None:
        raise ConfigError("data.eval_features given without data.eval_labels")
    eval_ds = _load_file_dataset(data.eval_features, data.eval_labels)
    train = None if config.pca_out_dim is None else _train_split(config)[0]
    return train, eval_ds


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


def _eval_descriptors(config: RunConfig, head: EncoderHead, train, fit_on, *datasets):
    """Unit descriptors of each dataset for retrieval, and the metrics' "pca".

    With ``pca_out_dim`` the descriptors are PCA projections of the head's
    raw outputs, the PCA fitted on ``train``'s raw outputs (``fit_on`` names
    them in the report); when ``train`` is one of ``datasets`` its outputs
    are reused.
    """
    outputs = [forward(head, ds.features) for ds in datasets]
    if config.pca_out_dim is None:
        return [Z for _, Z in outputs], None
    fit_rows = next((E for ds, (E, _) in zip(datasets, outputs) if ds is train), None)
    if fit_rows is None:
        fit_rows = forward(head, train.features)[0]
    pca_model = pca_fit(fit_rows, config.pca_out_dim)
    pca_block = {"out_dim": config.pca_out_dim, "fit_on": fit_on}
    return [pca_transform_rows(pca_model, E) for E, _ in outputs], pca_block


def _category_eval(config: RunConfig, head: EncoderHead, out_dir: Path) -> int:
    data = config.data
    has_queries = data is not None and data.query_features is not None
    if has_queries and data.query_labels is None:
        raise ConfigError("data.query_features given without data.query_labels")
    train, eval_ds = _category_splits(config)
    fit_on = "train-split embeddings before normalization"
    if has_queries:
        queries_ds = _load_file_dataset(data.query_features, data.query_labels)
        (Z_eval, Z_q), pca_block = _eval_descriptors(
            config, head, train, fit_on, eval_ds, queries_ds
        )
        retrieval = retrieve(RetrievalIndex(gallery=Z_eval), Z_q)
    else:
        queries_ds = eval_ds
        (Z_eval,), pca_block = _eval_descriptors(config, head, train, fit_on, eval_ds)
        retrieval = retrieve(RetrievalIndex(gallery=Z_eval), Z_eval, exclude_self=True)
    recalls = recall_at_k(
        retrieval, queries_ds.labels, config.eval_ks, gallery_labels=eval_ds.labels
    )
    metrics = {
        "command": "eval",
        "version": __version__,
        "mode": "category",
        "num_gallery": len(eval_ds),
        "num_queries": len(queries_ds),
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
    train = None
    if config.pca_out_dim is not None:
        train_files = (data.train_features, data.train_labels)
        if train_files == (data.eval_features, data.eval_labels):
            train = gallery  # read and embedded once, for retrieval and the fit
        else:
            train = _load_file_dataset(*train_files)
    (Z_g, Z_q), pca_block = _eval_descriptors(
        config, head, train, "train-split embeddings", gallery, queries
    )
    records = sk_io.read_ground_truth(gt_path, gallery_size=len(gallery))
    no_record = QueryGroundTruth(easy=[], hard=[], junk=[])
    ground_truths = [records.get(i, no_record) for i in range(len(queries))]
    per_split = mean_average_precision(
        retrieve(RetrievalIndex(gallery=Z_g), Z_q), ground_truths, ("medium", "hard")
    )
    maps = {split: value for split, (value, _) in per_split.items()}
    skipped = {split: skip for split, (_, skip) in per_split.items()}
    metrics = {
        "command": "eval",
        "version": __version__,
        "mode": "particular",
        "num_gallery": len(gallery),
        "num_queries": len(queries),
        "map": maps,
        "skipped_queries": skipped,
        "pca": pca_block,
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
    hist = similarity_histograms(Z, dataset.labels)
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
        _, trace = train_run(config, _train_split(config)[0])
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
