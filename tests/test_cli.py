"""Command-line workflows: artifacts, exit codes, error reporting."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import spherekit
from spherekit import EncoderHead, QueryGroundTruth
from spherekit.cli import main
from spherekit.io import write_features, write_ground_truth, write_labels


def write_config(path, **overrides):
    cfg = {
        "mode": "category",
        "iterations": 3,
        "seed": 4,
        "head": {"out_dim": 4},
        "batch_size": 6,
        "instances_per_class": 2,
        "lr": 0.01,
        "eval_ks": [1, 2],
        "synthetic": {
            "num_classes": 4,
            "per_class": 5,
            "feature_dim": 5,
            "noise_sigma": 0.2,
            "seed": 1,
            "holdout_classes": 1,
        },
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return cfg


def write_head(path, in_dim=5, out_dim=4, seed=0):
    head = EncoderHead.initialize(np.random.default_rng(seed), in_dim, out_dim)
    path.write_text(json.dumps({"head": head.to_dict()}), encoding="utf-8")
    return head


def write_particular_setup(tmp_path, ground_truth):
    """Train/gallery/query files, a head and a particular-mode config."""
    rng = np.random.default_rng(7)
    train_X = rng.standard_normal((12, 5))
    gallery_X = rng.standard_normal((8, 5))
    query_X = rng.standard_normal((2, 5))
    write_features(tmp_path / "train.emb", train_X)
    write_labels(tmp_path / "train.labels", np.repeat([0, 1, 2], 4))
    write_features(tmp_path / "gal.emb", gallery_X)
    write_labels(tmp_path / "gal.labels", np.repeat([0, 1], 4))
    write_features(tmp_path / "q.emb", query_X)
    write_labels(tmp_path / "q.labels", np.array([0, 1]))
    write_ground_truth(tmp_path / "gt.json", ground_truth)
    cfg = {
        "mode": "particular",
        "iterations": 0,
        "seed": 0,
        "head": {"out_dim": 4},
        "data": {
            "train_features": str(tmp_path / "train.emb"),
            "train_labels": str(tmp_path / "train.labels"),
            "eval_features": str(tmp_path / "gal.emb"),
            "eval_labels": str(tmp_path / "gal.labels"),
            "query_features": str(tmp_path / "q.emb"),
            "query_labels": str(tmp_path / "q.labels"),
            "ground_truth": str(tmp_path / "gt.json"),
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    write_head(tmp_path / "head.json", in_dim=5, out_dim=4)
    return cfg_path


class TestTrain:
    def test_writes_expected_artifacts(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "head.json",
            "run.json",
            "trace.csv",
        ]
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "step,loss,positive,negative,koleo"
        assert len(lines) == 1 + 3  # header plus one row per iteration

        meta = json.loads((out / "run.json").read_text())
        assert meta["command"] == "train"
        assert meta["version"]
        assert meta["config"]["lambda"] == 0.7
        assert "lam" not in meta["config"]
        assert len(meta["conventions"]) >= 10
        # one holdout class is excluded from the training split
        assert meta["dataset"]["num_classes"] == 3
        assert meta["dataset"]["num_samples"] == 15
        assert meta["trace"]["steps"] == 3

        head_payload = json.loads((out / "head.json").read_text())
        head = EncoderHead.from_dict(head_payload["head"])
        assert head.in_dim == 5
        assert head.out_dim == 4

    def test_seed_override_lands_in_metadata(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        out = tmp_path / "run"
        code = main(
            ["train", "--config", str(cfg_path), "--out-dir", str(out), "--seed", "99"]
        )
        assert code == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["config"]["seed"] == 99

    def test_degenerate_batch_exits_three(self, tmp_path, capsys):
        v = [1.0, 0.5]
        w = [-0.5, 1.0]
        write_features(tmp_path / "X.emb", np.array([v, v, w, w]))
        write_labels(tmp_path / "y.labels", np.array([0, 0, 1, 1]))
        cfg_path = tmp_path / "cfg.json"
        cfg = {
            "mode": "category",
            "iterations": 1,
            "seed": 0,
            "head": {"out_dim": 4},
            "batch_size": 4,
            "instances_per_class": 2,
            "data": {
                "train_features": str(tmp_path / "X.emb"),
                "train_labels": str(tmp_path / "y.labels"),
            },
        }
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        code = main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "step 0" in err

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, warmup=5)  # unknown key
        code = main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "warmup" in capsys.readouterr().err

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code = main(
            ["train", "--config", str(tmp_path / "none.json"), "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestEval:
    def test_category_recall_metrics(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(run_dir)]) == 0
        out = tmp_path / "eval"
        code = main(
            [
                "eval",
                "--config", str(cfg_path),
                "--model", str(run_dir / "head.json"),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["mode"] == "category"
        assert metrics["num_gallery"] == 5  # the held-out class
        assert sorted(metrics["recall"]) == ["1", "2"]
        for value in metrics["recall"].values():
            assert 0.0 <= value <= 1.0

    def test_particular_map_metrics(self, tmp_path):
        cfg_path = write_particular_setup(
            tmp_path,
            {
                0: QueryGroundTruth(
                    easy=np.array([0, 1]), hard=np.array([2]), junk=np.array([3])
                ),
                1: QueryGroundTruth(
                    easy=np.array([4]), hard=np.array([5, 6]), junk=np.zeros(0, np.int64)
                ),
            },
        )
        out = tmp_path / "eval"
        code = main(
            [
                "eval",
                "--config", str(cfg_path),
                "--model", str(tmp_path / "head.json"),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["mode"] == "particular"
        assert set(metrics["map"]) == {"medium", "hard"}
        for value in metrics["map"].values():
            assert 0.0 < value <= 1.0
        assert metrics["skipped_queries"] == {"medium": [], "hard": []}

    def test_every_query_empty_under_hard_exits_two(self, tmp_path, capsys):
        cfg_path = write_particular_setup(
            tmp_path,
            {
                0: QueryGroundTruth(easy=np.array([0, 1]), hard=[], junk=np.array([3])),
                1: QueryGroundTruth(easy=np.array([4]), hard=[], junk=[]),
            },
        )
        code = main(
            [
                "eval",
                "--config", str(cfg_path),
                "--model", str(tmp_path / "head.json"),
                "--out-dir", str(tmp_path / "eval"),
            ]
        )
        assert code == 2
        assert "every query is empty under the 'hard' split" in capsys.readouterr().err

    def test_k_beyond_leave_one_out_depth_exits_two(self, tmp_path, capsys):
        # the held-out class has 5 rows: leave-one-out ranks 4 others
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, eval_ks=[1, 5])
        write_head(tmp_path / "head.json", in_dim=5, out_dim=4)
        code = main(
            [
                "eval",
                "--config", str(cfg_path),
                "--model", str(tmp_path / "head.json"),
                "--out-dir", str(tmp_path / "eval"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "K=5" in err
        assert "depth 4" in err

    def test_no_repeated_label_exits_two(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        write_features(tmp_path / "train.emb", rng.standard_normal((6, 5)))
        write_labels(tmp_path / "train.labels", np.repeat([0, 1, 2], 2))
        write_features(tmp_path / "eval.emb", rng.standard_normal((4, 5)))
        write_labels(tmp_path / "eval.labels", np.arange(4))
        write_head(tmp_path / "head.json", in_dim=5, out_dim=4)
        cfg = {
            "mode": "category",
            "iterations": 0,
            "seed": 0,
            "head": {"out_dim": 4},
            "eval_ks": [1],
            "data": {
                "train_features": str(tmp_path / "train.emb"),
                "train_labels": str(tmp_path / "train.labels"),
                "eval_features": str(tmp_path / "eval.emb"),
                "eval_labels": str(tmp_path / "eval.labels"),
            },
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        code = main(
            [
                "eval",
                "--config", str(cfg_path),
                "--model", str(tmp_path / "head.json"),
                "--out-dir", str(tmp_path / "eval"),
            ]
        )
        assert code == 2
        assert "no query has a same-label gallery item" in capsys.readouterr().err

    def test_missing_model_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        code = main(
            [
                "eval",
                "--config", str(cfg_path),
                "--model", str(tmp_path / "nope.json"),
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2
        assert "cannot read model" in capsys.readouterr().err


class TestDiagnose:
    def test_reports_and_artifacts(self, tmp_path):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((20, 5))
        write_features(tmp_path / "X.emb", X)
        write_labels(tmp_path / "y.labels", rng.integers(0, 4, size=20))
        write_head(tmp_path / "head.json", in_dim=5, out_dim=4)
        out = tmp_path / "diag"
        code = main(
            [
                "diagnose",
                "--model", str(tmp_path / "head.json"),
                "--features", str(tmp_path / "X.emb"),
                "--labels", str(tmp_path / "y.labels"),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "energy.csv",
            "hist.csv",
            "summary.json",
        ]
        hist_lines = (out / "hist.csv").read_text().splitlines()
        assert hist_lines[0] == "bin_left,bin_right,positive_count,negative_count"
        assert len(hist_lines) == 1 + 50
        energy_lines = (out / "energy.csv").read_text().splitlines()
        assert energy_lines[0] == "component_index,cumulative_energy"
        assert len(energy_lines) == 1 + 4  # embeddings live in 4 dimensions

        summary = json.loads((out / "summary.json").read_text())
        assert summary["num_descriptors"] == 20
        assert summary["descriptor_dim"] == 4
        assert sorted(summary["components_for"]) == ["50", "90", "95"]
        assert 0.0 <= summary["histogram_overlap"] <= 1.0
        assert "gamma" not in summary

    def test_gamma_block(self, tmp_path):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((12, 5))
        write_features(tmp_path / "X.emb", X)
        write_labels(tmp_path / "y.labels", rng.integers(0, 3, size=12))
        write_head(tmp_path / "head.json", in_dim=5, out_dim=4)
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, beta=0.4)
        out = tmp_path / "diag"
        code = main(
            [
                "diagnose",
                "--model", str(tmp_path / "head.json"),
                "--features", str(tmp_path / "X.emb"),
                "--labels", str(tmp_path / "y.labels"),
                "--gamma",
                "--config", str(cfg_path),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        gamma = json.loads((out / "summary.json").read_text())["gamma"]
        assert gamma["beta"] == 0.4
        assert gamma["lambda"] == 0.7
        assert gamma["num_steps"] == 3
        assert gamma["steps_skipped"] == 0
        assert np.isfinite(gamma["gamma"])

    def test_gamma_reads_only_the_training_files(self, tmp_path):
        # eval_features without eval_labels: train accepts it, so must diagnose
        rng = np.random.default_rng(11)
        write_features(tmp_path / "X.emb", rng.standard_normal((12, 5)))
        write_labels(tmp_path / "y.labels", np.repeat([0, 1, 2], 4))
        write_head(tmp_path / "head.json", in_dim=5, out_dim=4)
        cfg = {
            "mode": "category",
            "iterations": 2,
            "seed": 0,
            "head": {"out_dim": 4},
            "batch_size": 4,
            "instances_per_class": 2,
            "data": {
                "train_features": str(tmp_path / "X.emb"),
                "train_labels": str(tmp_path / "y.labels"),
                "eval_features": str(tmp_path / "X.emb"),
            },
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "run")]) == 0
        out = tmp_path / "diag"
        code = main(
            [
                "diagnose",
                "--model", str(tmp_path / "head.json"),
                "--features", str(tmp_path / "X.emb"),
                "--labels", str(tmp_path / "y.labels"),
                "--gamma",
                "--config", str(cfg_path),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["gamma"]["num_steps"] == 2

    def test_gamma_without_config_exits_two(self, tmp_path, capsys):
        rng = np.random.default_rng(10)
        write_features(tmp_path / "X.emb", rng.standard_normal((6, 5)))
        write_labels(tmp_path / "y.labels", rng.integers(0, 2, size=6))
        write_head(tmp_path / "head.json", in_dim=5, out_dim=4)
        code = main(
            [
                "diagnose",
                "--model", str(tmp_path / "head.json"),
                "--features", str(tmp_path / "X.emb"),
                "--labels", str(tmp_path / "y.labels"),
                "--gamma",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2
        assert "--config" in capsys.readouterr().err


def run_cli_with_blas_threads(threads, *args):
    """``python -m spherekit.cli *args`` in a subprocess whose own environment
    sets the OpenBLAS thread count."""
    src = str(Path(spherekit.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "spherekit.cli", *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


class TestBlasThreadCount:
    @pytest.mark.parametrize("mode", ["category", "particular"])
    def test_eval_metrics_identical_for_one_and_two_threads(self, tmp_path, mode):
        # Sizes above OpenBLAS's threading threshold, so two threads split
        # the score products; each subprocess gets its own thread count.
        rng = np.random.default_rng(14)
        means = rng.standard_normal((60, 24))
        labels = np.repeat(np.arange(60), 10)
        write_features(tmp_path / "train.emb", means[labels] + rng.standard_normal((600, 24)))
        write_labels(tmp_path / "train.labels", labels)
        write_features(tmp_path / "gal.emb", means[labels] + rng.standard_normal((600, 24)))
        write_labels(tmp_path / "gal.labels", labels)
        query_labels = np.arange(120) % 60
        write_features(tmp_path / "q.emb",
                       means[query_labels] + rng.standard_normal((120, 24)))
        write_labels(tmp_path / "q.labels", query_labels)
        records = {}
        for q, c in enumerate(query_labels):
            rows = rng.permutation(np.flatnonzero(labels == c))
            records[q] = QueryGroundTruth(easy=np.sort(rows[:3]), hard=np.sort(rows[3:5]),
                                          junk=np.sort(rows[5:7]))
        write_ground_truth(tmp_path / "gt.json", records)
        write_head(tmp_path / "head.json", in_dim=24, out_dim=32)
        data = {
            "train_features": str(tmp_path / "train.emb"),
            "train_labels": str(tmp_path / "train.labels"),
            "eval_features": str(tmp_path / "gal.emb"),
            "eval_labels": str(tmp_path / "gal.labels"),
        }
        if mode == "particular":
            data.update(query_features=str(tmp_path / "q.emb"),
                        query_labels=str(tmp_path / "q.labels"),
                        ground_truth=str(tmp_path / "gt.json"))
        cfg = {"mode": mode, "iterations": 0, "seed": 0, "head": {"out_dim": 32},
               "eval_ks": [1, 2, 4, 8, 16], "pca_out_dim": 16, "data": data}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"eval-{threads}"
            run_cli_with_blas_threads(threads, "eval", "--config", str(cfg_path),
                                      "--model", str(tmp_path / "head.json"),
                                      "--out-dir", str(out))
            outputs.append((out / "metrics.json").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("mode", ["category", "particular"])
    def test_train_artifacts_identical_for_one_and_two_threads(self, tmp_path, mode):
        # 1,080 training rows: the memory (648 rows) and snapshot products of
        # the category run, and the per-epoch re-embed and the 100 x 1,080
        # mining block of the particular run, are above OpenBLAS's threading
        # threshold, so two threads split them.
        cfg = {"mode": mode, "iterations": 40 if mode == "category" else 2, "seed": 6,
               "head": {"out_dim": 32}, "lr": 0.01,
               "synthetic": {"num_classes": 100, "per_class": 12, "feature_dim": 48,
                             "noise_sigma": 0.3, "seed": 2, "holdout_classes": 10}}
        if mode == "category":
            cfg.update(memory_capacity_ratio=0.6, momentum_m=0.9, snapshot_every=20)
        else:
            cfg.update(particular_scale=0.05, memory_capacity_ratio=0.0, momentum_m=None)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"train-{threads}"
            run_cli_with_blas_threads(threads, "train", "--config", str(cfg_path),
                                      "--out-dir", str(out))
            outputs.append({name: (out / name).read_bytes()
                            for name in ("head.json", "trace.csv", "run.json")})
        assert json.loads(outputs[0]["run.json"])["trace"]["steps"] == 40
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], name


class TestParser:
    def test_unknown_command_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["compress"])

    def test_mode_override_changes_eval_protocol(self, tmp_path, capsys):
        # category config forced to particular mode must demand ground truth
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(run_dir)]) == 0
        code = main(
            [
                "eval",
                "--config", str(cfg_path),
                "--model", str(run_dir / "head.json"),
                "--mode", "particular",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2
        assert "particular" in capsys.readouterr().err
