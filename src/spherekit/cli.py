"""Command-line interface: train, eval, diagnose.

Every command reads declared inputs, runs deterministically, and writes its
artifacts atomically into --out-dir. Exit codes: 0 on success, 2 when inputs
violate a contract (bad config, malformed file, protocol misuse), 3 when a
computation degenerates numerically (collapsed embeddings, non-finite loss;
the message names the failing training step when there is one).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io as sk_io
from ._version import __version__
from .config import RunConfig, _read_config, dump_run_config, parse_run_config
from .diagnostics import (
    pca_energy_report,
    similarity_histograms,
    histogram_overlap,
)
from .errors import ConfigError, FormatError, NumericalError, ProtocolError, ToolkitError
from .evaluation import (
    QueryGroundTruth,
    RetrievalIndex,
    mean_average_precision,
    recall_at_k,
    retrieve,
)
from .geometry import _row_norms, pca_fit, pca_transform_rows
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


def _load_config(args) -> RunConfig:
    """``--config`` with ``--seed`` and ``--mode`` applied before its
    defaults resolve, so an absent margin takes the overriding mode's."""
    raw = _read_config(args.config)
    for key in ("seed", "mode"):
        if getattr(args, key, None) is not None:
            raw[key] = getattr(args, key)
    return parse_run_config(raw)


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


def cmd_train(args) -> int:
    config = _load_config(args)
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


def _eval_datasets(config: RunConfig, gt_path):
    """Gallery, queries and PCA-fit datasets of an eval, in either mode.

    The gallery is the eval files, else the synthetic held-out split or the
    training set. The queries are the query files; a category eval without
    them is leave-one-out on the gallery (queries None). The PCA fit, with
    ``pca_out_dim`` only, is on the training set; training files that are
    the eval files are the gallery, read and embedded once.
    """
    data = config.data
    if config.mode == "particular":
        if data is None:
            raise ConfigError(
                "particular-mode evaluation needs file-backed data with queries and ground truth"
            )
        if gt_path is None:
            raise ConfigError("particular-mode evaluation needs --gt or data.ground_truth")
        if data.eval_features is None or data.eval_labels is None:
            raise ConfigError("particular-mode evaluation needs data.eval_features/eval_labels")
        if data.query_features is None or data.query_labels is None:
            raise ConfigError("particular-mode evaluation needs data.query_features/query_labels")
    has_queries = data is not None and data.query_features is not None
    if has_queries and data.query_labels is None:
        raise ConfigError("data.query_features given without data.query_labels")
    train = None
    if data is None or data.eval_features is None:
        train, held_out = _train_split(config)
        gallery = held_out if held_out is not None else train
    elif data.eval_labels is None:
        raise ConfigError("data.eval_features given without data.eval_labels")
    else:
        gallery = _load_file_dataset(data.eval_features, data.eval_labels)
    queries = _load_file_dataset(data.query_features, data.query_labels) if has_queries else None
    if config.pca_out_dim is None:
        return gallery, queries, None
    if train is None:
        train_files = (data.train_features, data.train_labels)
        same = train_files == (data.eval_features, data.eval_labels)
        train = gallery if same else _load_file_dataset(*train_files)
    return gallery, queries, train


def _eval_descriptors(config: RunConfig, head: EncoderHead, train, *datasets):
    """Unit descriptors of each dataset for retrieval, and the metrics' "pca".

    With ``pca_out_dim`` the descriptors are PCA projections of the head's
    raw outputs, the PCA fitted on ``train``'s raw outputs; when ``train`` is
    one of ``datasets`` its outputs are reused. The raw outputs are dropped
    on return, before any scoring.
    """
    if config.pca_out_dim is None:
        return [forward(head, ds.features)[1] for ds in datasets], None

    def raw(ds):
        E = head.apply(ds.features)[0]
        _row_norms(E)  # a row forward could not normalize raises here too
        return E
    outputs = [raw(ds) for ds in datasets]
    fit_rows = next((E for ds, E in zip(datasets, outputs) if ds is train), None)
    if fit_rows is None:
        fit_rows = raw(train)
    pca_model = pca_fit(fit_rows, config.pca_out_dim)
    fit_on = {"category": "train-split embeddings before normalization",
              "particular": "train-split embeddings"}[config.mode]
    pca_block = {"out_dim": config.pca_out_dim, "fit_on": fit_on}
    return [pca_transform_rows(pca_model, E) for E in outputs], pca_block


def cmd_eval(args) -> int:
    config = _load_config(args)
    head = _load_head(args.model)
    out_dir = Path(args.out_dir)
    gt_path = args.gt if args.gt is not None or config.data is None else config.data.ground_truth
    gallery, queries, train = _eval_datasets(config, gt_path)
    datasets = [gallery] if queries is None else [gallery, queries]
    descriptors, pca_block = _eval_descriptors(config, head, train, *datasets)
    index = RetrievalIndex(gallery=descriptors[0])
    metrics = {
        "command": "eval",
        "version": __version__,
        "mode": config.mode,
        "num_gallery": len(gallery),
        "num_queries": len(datasets[-1]),
        "pca": pca_block,
        "conventions": sk_io.CONVENTIONS,
    }
    if config.mode == "category":
        retrieval = retrieve(index, descriptors[-1], exclude_self=queries is None)
        recalls = recall_at_k(
            retrieval, datasets[-1].labels, config.eval_ks, gallery_labels=gallery.labels
        )
        metrics["recall"] = {str(k): v for k, v in recalls.items()}
    else:
        records = sk_io.read_ground_truth(gt_path, gallery_size=len(gallery))
        last = max(records, default=-1)
        if last >= len(queries):
            raise ProtocolError(
                f"ground truth has a record for query {last}, but the query file"
                f" has {len(queries)} queries"
            )
        no_record = QueryGroundTruth(easy=[], hard=[], junk=[])
        ground_truths = [records.get(i, no_record) for i in range(len(queries))]
        per_split = mean_average_precision(
            retrieve(index, descriptors[1]), ground_truths, ("medium", "hard")
        )
        metrics.update(
            map={split: value for split, (value, _) in per_split.items()},
            skipped_queries={split: skip for split, (_, skip) in per_split.items()},
        )
    sk_io.write_json_atomic(out_dir / "metrics.json", metrics)
    return 0


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
        config = _load_config(args)
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
