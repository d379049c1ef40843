"""Command-line workflows: artifacts, exit codes, error reporting."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import spherekit
from spherekit import (
    EncoderHead,
    QueryGroundTruth,
    objective,
    parse_run_config,
    train_run,
)
from spherekit import _screen
from spherekit import io as sk_io
from spherekit import cli
from spherekit.cli import main
from spherekit.io import write_features, write_ground_truth, write_labels

from conftest import histogram_routes, screen_routes


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

    def test_json_artifacts_are_the_text_of_json_dumps(self, tmp_path):
        # A two-layer head and snapshots: nested float lists and every kind
        # of run.json value. Floats read back exactly, so the reference is
        # json.dumps of what each file holds.
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, head={"out_dim": 4, "hidden": 6}, snapshot_every=1)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        for name in ("head.json", "run.json"):
            text = (out / name).read_text(encoding="utf-8")
            reference = json.dumps(json.loads(text), sort_keys=True, indent=2, allow_nan=False)
            assert text == reference + "\n"
        assert len(json.loads((out / "head.json").read_text())["head"]["layers"]) == 2
        assert json.loads((out / "run.json").read_text())["snapshots"]

    def test_forced_memory_routes_write_identical_artifacts(self, tmp_path, monkeypatch):
        # Both precisions of the memory screen decide the same pairs, and
        # the loss takes value and gradient from the decided sets, so
        # forcing float32 tiles (a share of 1) or float64 tiles (a share of
        # 0, from any step with a pass) writes the same bytes. A 2,280-row
        # memory passes 2**16 pairs at batch 64 from 1,024 rows on.
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, iterations=40, seed=6, head={"out_dim": 32}, batch_size=64,
                     instances_per_class=4, beta=0.8, memory_capacity_ratio=1.0,
                     momentum_m=0.9,
                     synthetic={"num_classes": 200, "per_class": 12, "feature_dim": 48,
                                "noise_sigma": 0.3, "seed": 2, "holdout_classes": 10})
        routes = memory_routes(monkeypatch)
        outputs, float64_steps = [], []
        for share in (1.0, 0.0):
            monkeypatch.setattr(_screen, "_PER_PAIR_SHARE", share)
            routes.clear()
            out = tmp_path / f"share-{share}"
            assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
            outputs.append({name: (out / name).read_bytes()
                            for name in ("head.json", "trace.csv", "run.json")})
            float64_steps.append(sum(np.float64 in route for route in routes))
            assert len(routes) == 39  # every step after the first has a memory
        # Float32 tiles decided some steps under a share of 1, float64 tiles
        # more under a share of 0.
        assert float64_steps[0] < 39 and float64_steps[1] > float64_steps[0]
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], name

    def test_integral_float_counts_run_as_integers(self, tmp_path):
        # JSON Schema counts 3.0 as an integer; the run must not see a float.
        outputs = []
        for iterations in (3, 3.0):
            cfg_path = tmp_path / f"cfg-{iterations}.json"
            write_config(cfg_path, iterations=iterations)
            out = tmp_path / f"run-{iterations}"
            assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] == outputs[1]

    def test_readme_run_does_not_depend_on_the_holdout_split_sharing_rows(self, tmp_path,
                                                                         monkeypatch):
        # The README config's held-out classes are its last rows, so its two
        # sets are row slices of one feature array. Artifacts equal those of
        # a run whose sets are copies, as a mask split gives them.
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block)["synthetic"]["holdout_classes"] == 8
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(block, encoding="utf-8")
        split = spherekit.trainer.split_holdout
        shared = []

        def copied(dataset, holdout_classes):
            train, held = split(dataset, holdout_classes)
            shared.append(train.features.base is held.features.base is dataset.features)
            return (spherekit.LabeledFeatureDataset(train.features.copy(), train.labels),
                    spherekit.LabeledFeatureDataset(held.features.copy(), held.labels))
        outputs = []
        for copies in (False, True):
            if copies:
                monkeypatch.setattr(spherekit.trainer, "split_holdout", copied)
            # Identical argv both times, so the recorded command lines match.
            assert main(["train", "--config", "config.json", "--out-dir", "run"]) == 0
            outputs.append({p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()})
            shutil.rmtree(tmp_path / "run")
        assert shared == [True]
        assert outputs[0] == outputs[1]

    def test_run_json_records_gradient_noise_and_the_recipe(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, beta=0.4)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["config"]["beta"] == 0.4
        assert meta["config"]["lambda"] == 0.7
        assert meta["trace"]["gamma_steps_measured"] == 3
        assert meta["trace"]["gamma_steps_skipped"] == 0
        assert np.isfinite(meta["trace"]["mean_gamma"])

    def test_accepts_eval_features_without_eval_labels(self, tmp_path):
        # train reads only the training files
        rng = np.random.default_rng(11)
        write_features(tmp_path / "X.emb", rng.standard_normal((12, 5)))
        write_labels(tmp_path / "y.labels", np.repeat([0, 1, 2], 4))
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
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        assert json.loads((out / "run.json").read_text())["trace"]["gamma_steps_measured"] == 2

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

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read config {}: "),
        ("{not json", "config {} is not valid JSON: "),
        ("[1, 2]", "config {} must contain a JSON object\n"),
    ], ids=["missing", "invalid-json", "non-object"])
    def test_an_unusable_config_file_exits_two_naming_it(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        code = main(["train", "--config", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: " + message.format(path))
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("mode", ["category", "particular"])
    def test_particular_pca_on_the_eval_files_reads_them_once(self, tmp_path, monkeypatch,
                                                              mode):
        # Training files that are the eval files are read and embedded once,
        # with the same metrics.json as copies of them under other names, in
        # either mode (a category eval of the query files: split-query recall).
        cfg_path = write_particular_setup(
            tmp_path,
            {
                0: QueryGroundTruth(easy=np.array([0, 1]), hard=np.array([2]), junk=[]),
                1: QueryGroundTruth(easy=np.array([4]), hard=np.array([5, 6]), junk=[]),
            },
        )
        for suffix in ("emb", "labels"):
            shutil.copy(tmp_path / f"gal.{suffix}", tmp_path / f"copy.{suffix}")
        reads = []
        read_features = sk_io.read_features
        monkeypatch.setattr(sk_io, "read_features",
                            lambda path: reads.append(Path(path).name) or read_features(path))
        embedded = []
        apply = EncoderHead.apply
        monkeypatch.setattr(EncoderHead, "apply",
                            lambda head, X: embedded.append(len(X)) or apply(head, X))
        outputs = []
        for stem in ("gal", "copy"):
            cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
            cfg.update(mode=mode, pca_out_dim=3)
            cfg["data"].update(train_features=str(tmp_path / f"{stem}.emb"),
                               train_labels=str(tmp_path / f"{stem}.labels"))
            cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
            out = tmp_path / f"eval-{stem}"
            assert main(["eval", "--config", str(cfg_path),
                         "--model", str(tmp_path / "head.json"), "--out-dir", str(out)]) == 0
            outputs.append((out / "metrics.json").read_bytes())
        assert reads == ["gal.emb", "q.emb", "gal.emb", "q.emb", "copy.emb"]
        assert embedded == [8, 2, 8, 2, 8]
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["mode"] == mode

    @pytest.mark.parametrize("mode", ["category", "particular"])
    @pytest.mark.parametrize("stem", ["gal", "q", "train"])
    def test_a_zero_head_output_exits_three_under_pca(self, tmp_path, capsys, mode, stem):
        # The head has zero biases, so a zero feature row has a zero output,
        # which PCA alone would project. Under PCA the eval refuses it as the
        # normalization does without PCA (which does not embed the train
        # split), with the same message.
        cfg_path = write_particular_setup(
            tmp_path,
            {
                0: QueryGroundTruth(easy=np.array([0, 1]), hard=np.array([2]), junk=[]),
                1: QueryGroundTruth(easy=np.array([4]), hard=np.array([5, 6]), junk=[]),
            },
        )
        features = sk_io.read_features(tmp_path / f"{stem}.emb")
        features[1] = 0.0
        write_features(tmp_path / f"{stem}.emb", features)
        results = []
        for pca in ({}, {"pca_out_dim": 3}):
            cfg = {**json.loads(cfg_path.read_text(encoding="utf-8")), "mode": mode, **pca}
            cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
            code = main(["eval", "--config", str(cfg_path), "--model",
                         str(tmp_path / "head.json"), "--out-dir", str(tmp_path / "out")])
            results.append((code, capsys.readouterr().err))
        refused = (3, f"error: row 1 has norm {np.float64(0.0)!r}\n")
        assert results == [(0, "") if stem == "train" else refused, refused]

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

    def test_record_beyond_the_query_file_exits_two(self, tmp_path, capsys):
        # Two query rows: dropping the record of query 7 would report query 1
        # as skipped and exit 0.
        cfg_path = write_particular_setup(
            tmp_path,
            {
                0: QueryGroundTruth(easy=np.array([0, 1]), hard=np.array([2]), junk=[]),
                7: QueryGroundTruth(easy=np.array([4]), hard=np.array([5]), junk=[]),
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
        err = capsys.readouterr().err
        assert "record for query 7" in err and "has 2 queries" in err
        assert not (tmp_path / "eval").exists()

    def test_ground_truth_index_beyond_int64_exits_two_naming_the_file(self, tmp_path, capsys):
        cfg_path = write_particular_setup(tmp_path, {})
        gt_path = tmp_path / "gt.json"
        gt_path.write_text('[{"query_index": 0, "easy": [1, 18446744073709551616],'
                           ' "hard": [], "junk": []}]', encoding="utf-8")
        code = main(["eval", "--config", str(cfg_path), "--model", str(tmp_path / "head.json"),
                     "--out-dir", str(tmp_path / "eval")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {gt_path}: ")
        assert not (tmp_path / "eval").exists()

    def test_particular_config_without_ground_truth_exits_two(self, tmp_path, capsys):
        cfg_path = write_particular_setup(tmp_path, {})
        cfg = json.loads(cfg_path.read_text())
        del cfg["data"]["ground_truth"]
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        code = main(["eval", "--config", str(cfg_path), "--model", str(tmp_path / "head.json"),
                     "--out-dir", str(tmp_path / "eval")])
        assert code == 2
        assert "data.ground_truth" in capsys.readouterr().err

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

    def test_query_features_without_query_labels_exits_two(self, tmp_path, capsys):
        rng = np.random.default_rng(19)
        write_features(tmp_path / "eval.emb", rng.standard_normal((8, 5)))
        write_labels(tmp_path / "eval.labels", np.repeat([0, 1], 4))
        write_features(tmp_path / "q.emb", rng.standard_normal((2, 5)))
        write_head(tmp_path / "head.json", in_dim=5, out_dim=4)
        cfg = {"mode": "category", "iterations": 0, "seed": 0, "head": {"out_dim": 4},
               "eval_ks": [1],
               "data": {"train_features": str(tmp_path / "eval.emb"),
                        "train_labels": str(tmp_path / "eval.labels"),
                        "eval_features": str(tmp_path / "eval.emb"),
                        "eval_labels": str(tmp_path / "eval.labels"),
                        "query_features": str(tmp_path / "q.emb")}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        code = main(["eval", "--config", str(cfg_path), "--model", str(tmp_path / "head.json"),
                     "--out-dir", str(tmp_path / "eval")])
        assert code == 2
        assert "data.query_labels" in capsys.readouterr().err

    def test_label_beyond_int64_exits_two(self, tmp_path, capsys):
        rng = np.random.default_rng(20)
        write_features(tmp_path / "eval.emb", rng.standard_normal((4, 5)))
        (tmp_path / "eval.labels").write_text("0\n0\n1\n9223372036854775808\n",
                                              encoding="utf-8")
        write_head(tmp_path / "head.json", in_dim=5, out_dim=4)
        cfg = {"mode": "category", "iterations": 0, "seed": 0, "head": {"out_dim": 4},
               "eval_ks": [1],
               "data": {"train_features": str(tmp_path / "eval.emb"),
                        "train_labels": str(tmp_path / "eval.labels"),
                        "eval_features": str(tmp_path / "eval.emb"),
                        "eval_labels": str(tmp_path / "eval.labels")}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        code = main(["eval", "--config", str(cfg_path), "--model", str(tmp_path / "head.json"),
                     "--out-dir", str(tmp_path / "eval")])
        assert code == 2
        assert "eval.labels:4: label 9223372036854775808 is out of range" in capsys.readouterr().err

    def test_file_category_eval_reads_train_files_only_for_pca(self, tmp_path):
        rng = np.random.default_rng(17)
        write_features(tmp_path / "train.emb", rng.standard_normal((12, 5)))
        write_labels(tmp_path / "train.labels", np.repeat([0, 1, 2], 4))
        write_features(tmp_path / "eval.emb", rng.standard_normal((8, 5)))
        write_labels(tmp_path / "eval.labels", np.repeat([0, 1], 4))
        write_head(tmp_path / "head.json", in_dim=5, out_dim=4)
        data = {
            "train_features": str(tmp_path / "train.emb"),
            "train_labels": str(tmp_path / "train.labels"),
            "eval_features": str(tmp_path / "eval.emb"),
            "eval_labels": str(tmp_path / "eval.labels"),
        }

        def run(name, **extra):
            cfg = {"mode": "category", "iterations": 0, "seed": 0,
                   "head": {"out_dim": 4}, "eval_ks": [1, 2], "data": data, **extra}
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
            code = main(["eval", "--config", str(cfg_path),
                         "--model", str(tmp_path / "head.json"),
                         "--out-dir", str(tmp_path / name)])
            return code, tmp_path / name / "metrics.json"

        code, with_train = run("with_train")
        assert code == 0
        assert run("pca", pca_out_dim=2)[0] == 0
        (tmp_path / "train.emb").unlink()
        (tmp_path / "train.labels").unlink()
        code, without_train = run("without_train")
        assert code == 0
        assert without_train.read_bytes() == with_train.read_bytes()
        assert run("pca_without_train", pca_out_dim=2)[0] == 2

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

    @pytest.mark.parametrize("labels, why", [(np.zeros(40), "every row has one label"),
                                             (np.arange(40), "no two rows share a label")],
                             ids=["one-label", "all-distinct"])
    def test_a_gallery_without_both_kinds_of_pair_exits_two(self, tmp_path, capsys, labels,
                                                             why):
        write_features(tmp_path / "X.emb", np.random.default_rng(11).standard_normal((40, 5)))
        write_labels(tmp_path / "y.labels", labels.astype(np.int64))
        write_head(tmp_path / "head.json")
        out = tmp_path / "diag"
        assert main(["diagnose", "--model", str(tmp_path / "head.json"),
                     "--features", str(tmp_path / "X.emb"),
                     "--labels", str(tmp_path / "y.labels"), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'y.labels'}: ") and why in err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["string", "numeric-string", "boolean", "huge-integer",
                                      "ragged", "nan"])
    def test_a_malformed_model_exits_two_naming_it(self, tmp_path, capsys, case):
        rng = np.random.default_rng(10)
        write_features(tmp_path / "X.emb", rng.standard_normal((6, 5)))
        write_labels(tmp_path / "y.labels", np.repeat([0, 1], 3))
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        model = tmp_path / "head.json"
        write_head(model)
        payload = json.loads(model.read_text())
        w = payload["head"]["layers"][0]["w"]
        if case == "string":
            w[0][0] = "half"
        elif case == "numeric-string":
            w[0][0] = "0.5"
        elif case == "boolean":
            w[0][0] = True
        elif case == "huge-integer":
            w[0][0] = 10**400  # a JSON number that no float64 holds
        elif case == "ragged":
            w[0].pop()
        else:
            w[0][0] = float("nan")
        model.write_text(json.dumps(payload), encoding="utf-8")
        for argv in (["eval", "--config", str(cfg_path)],
                     ["diagnose", "--features", str(tmp_path / "X.emb"),
                      "--labels", str(tmp_path / "y.labels")]):
            out = tmp_path / argv[0]
            assert main([*argv, "--model", str(model), "--out-dir", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"error: model {model}")
            assert not out.exists()


def run_cli_with_blas_threads(threads, *args):
    """``python -m spherekit.cli *args`` in a subprocess whose own environment
    sets the OpenBLAS thread count."""
    src = str(Path(spherekit.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "spherekit.cli", *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def memory_routes(monkeypatch):
    """Per memory term of an in-process run, the dtypes of the tiles that
    decided its pairs, in order (``_screen._span_tiles`` while
    ``objective._memory_pairs`` runs)."""
    routes, inside = [], []
    pairs, spans = objective._memory_pairs, _screen._span_tiles

    def counted_pairs(*args):
        routes.append([])
        inside.append(True)
        try:
            return pairs(*args)
        finally:
            inside.clear()

    def counted_spans(*args):
        for start, stop, tiles in spans(*args):
            if inside:
                tiles = (routes[-1].append(tile[2].dtype) or tile for tile in tiles)
            yield start, stop, tiles
    monkeypatch.setattr(objective, "_memory_pairs", counted_pairs)
    monkeypatch.setattr(_screen, "_span_tiles", counted_spans)
    return routes


def screened_memory_steps(monkeypatch, config):
    """In-process ``train_run``: how many steps' memory terms were decided on
    float32 tiles alone, with no float64 tile."""
    routes = memory_routes(monkeypatch)
    train_run(config)
    return sum(np.float64 not in route for route in routes)


def eval_routes(monkeypatch, argv):
    """In-process ``spherekit eval``: how many score blocks the float32
    screen counted (``screen_routes``)."""
    routes = screen_routes(monkeypatch)
    assert main(argv) == 0
    return routes


class TestBlasThreadCount:
    @pytest.mark.parametrize("case", ["category", "particular", "two_blocks", "routes",
                                      "split", "cub"])
    def test_eval_metrics_identical_for_one_and_two_threads(self, tmp_path, monkeypatch, case):
        # Sizes above OpenBLAS's threading threshold, so two threads split
        # the score products; each subprocess gets its own thread count.
        # The 600-row gallery is one score block; the leave-one-out gallery
        # of "two_blocks" and "routes", 2,400 rows, splits into blocks of
        # 1,747 and 653. In "routes" a 300-row class gives the first block
        # 90,000 positives, a fifth of its pairs, and the second block has
        # 10-row classes; both are screened. "split" is a category eval of
        # the 120 query rows against a 600-row gallery of 4-row classes,
        # screened in one block. "cub" is a CUB-shaped leave-one-out gallery,
        # 100 classes of 59 rows (a positive share of 1/100), in 8 blocks of
        # 710 rows and a last one of 220, all screened.
        mode = "particular" if case == "particular" else "category"
        rng = np.random.default_rng(14)
        means = rng.standard_normal((60, 24))
        labels = np.repeat(np.arange(60), 10)
        write_features(tmp_path / "train.emb", means[labels] + rng.standard_normal((600, 24)))
        write_labels(tmp_path / "train.labels", labels)
        if case == "two_blocks":
            labels = np.repeat(np.arange(60), 40)
            assert spherekit.evaluation.SCORE_BLOCK_BYTES // (8 * labels.size) < labels.size
        elif case == "routes":
            labels = np.concatenate([np.zeros(300, np.int64), 1 + np.arange(2100) // 10])
            means = rng.standard_normal((211, 24))
        elif case == "split":
            labels = np.repeat(np.arange(150), 4)
            means = rng.standard_normal((150, 24))
        elif case == "cub":
            labels = np.repeat(np.arange(100), 59)
            means = rng.standard_normal((100, 24))
        write_features(tmp_path / "gal.emb",
                       means[labels] + rng.standard_normal((labels.size, 24)))
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
        if case in ("particular", "split"):
            data.update(query_features=str(tmp_path / "q.emb"),
                        query_labels=str(tmp_path / "q.labels"))
        if mode == "particular":
            data.update(ground_truth=str(tmp_path / "gt.json"))
        cfg = {"mode": mode, "iterations": 0, "seed": 0, "head": {"out_dim": 32},
               "eval_ks": [1, 2, 4, 8, 16], "pca_out_dim": 16, "data": data}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        argv = ["eval", "--config", str(cfg_path), "--model", str(tmp_path / "head.json")]
        if case in ("routes", "split", "cub"):
            routes = eval_routes(monkeypatch, [*argv, "--out-dir", str(tmp_path / "in")])
            assert routes == {"screened": {"routes": 2, "split": 1, "cub": 9}[case]}
            assert not routes.tiles["float64"]
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"eval-{threads}"
            run_cli_with_blas_threads(threads, *argv, "--out-dir", str(out))
            outputs.append((out / "metrics.json").read_bytes())
        assert outputs[0] == outputs[1]
        if case in ("routes", "split", "cub"):
            assert outputs[0] == (tmp_path / "in" / "metrics.json").read_bytes()

    def test_diagnose_artifacts_identical_for_one_and_two_threads(self, tmp_path, monkeypatch):
        # The 2,400-row gallery scores its pairs in two blocks of its product
        # with itself, of 1,747 and 653 rows, both above OpenBLAS's threading
        # threshold, so two threads split them. Blob rows through a random
        # head are screened in both blocks. In "routes" the head copies the
        # features into its first 24 outputs, and the first 300 rows are
        # signed axes: most of their pairs score exactly 0, a bin edge, so
        # the first block falls back to its float64 product, while the
        # second, of blob rows, is screened.
        rng = np.random.default_rng(15)
        labels = np.repeat(np.arange(60), 40)
        assert spherekit.evaluation.SCORE_BLOCK_BYTES // (8 * labels.size) < labels.size
        means = rng.standard_normal((60, 24))
        features = means[labels] + rng.standard_normal((labels.size, 24))
        write_labels(tmp_path / "gal.labels", labels)
        names = ("hist.csv", "energy.csv", "summary.json")
        routes = histogram_routes(monkeypatch)
        for case, expected in (("blobs", (2, 0)), ("routes", (1, 1))):
            head = tmp_path / f"head-{case}.json"
            if case == "routes":
                features[:300] = np.eye(24)[rng.integers(0, 24, size=300)] * rng.choice(
                    [-1.0, 1.0], size=(300, 1))
                identity = EncoderHead([(np.eye(32, 24), np.zeros(32))])
                head.write_text(json.dumps({"head": identity.to_dict()}), encoding="utf-8")
            else:
                write_head(head, in_dim=24, out_dim=32)
            gallery = tmp_path / f"gal-{case}.emb"
            write_features(gallery, features)
            argv = ["diagnose", "--model", str(head), "--features", str(gallery),
                    "--labels", str(tmp_path / "gal.labels")]
            routes.update(dict.fromkeys(routes, 0))
            assert main([*argv, "--out-dir", str(tmp_path / f"{case}-in")]) == 0
            assert (routes["screened"], routes["fallback"]) == expected, case
            outputs = [{name: (tmp_path / f"{case}-in" / name).read_bytes() for name in names}]
            for threads in ("1", "2"):
                out = tmp_path / f"{case}-{threads}"
                run_cli_with_blas_threads(threads, *argv, "--out-dir", str(out))
                outputs.append({name: (out / name).read_bytes() for name in names})
            for name in names:
                assert outputs[0][name] == outputs[1][name] == outputs[2][name], (case, name)

    @pytest.mark.parametrize("case", ["category", "particular", "screened"])
    def test_train_artifacts_identical_for_one_and_two_threads(self, tmp_path, monkeypatch,
                                                                case):
        # 1,080 training rows: the memory (648 rows) and snapshot products of
        # the category run, and the per-epoch re-embed and the 100 x 1,080
        # mining block of the particular run, are above OpenBLAS's threading
        # threshold, so two threads split them.
        mode = "particular" if case == "particular" else "category"
        cfg = {"mode": mode, "iterations": 40 if mode == "category" else 2, "seed": 6,
               "head": {"out_dim": 32}, "lr": 0.01,
               "synthetic": {"num_classes": 100, "per_class": 12, "feature_dim": 48,
                             "noise_sigma": 0.3, "seed": 2, "holdout_classes": 10}}
        if case == "category":
            cfg.update(memory_capacity_ratio=0.6, momentum_m=0.9, snapshot_every=20)
        elif case == "particular":
            cfg.update(particular_scale=0.05, memory_capacity_ratio=0.0, momentum_m=None)
        else:
            # A 2,280-row memory passes 2**16 pairs at batch 64 (1,024 rows),
            # so the memory term also takes the float32 screen.
            cfg["synthetic"]["num_classes"] = 200
            cfg.update(beta=0.8, memory_capacity_ratio=1.0, momentum_m=0.9)
            assert screened_memory_steps(monkeypatch, parse_run_config(cfg)) >= 1
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

    @pytest.mark.parametrize("command, removed", [
        ("train", ["--seed", "99"]),
        ("train", ["--mode", "particular"]),
        ("eval", ["--gt", "gt.json"]),
        ("eval", ["--mode", "particular"]),
        ("diagnose", ["--gamma"]),
        ("diagnose", ["--config", "cfg.json"]),
    ], ids=["train-seed", "train-mode", "eval-gt", "eval-mode", "diagnose-gamma",
            "diagnose-config"])
    def test_removed_options_are_usage_errors(self, capsys, command, removed):
        # Run settings come from the config file alone.
        given = {
            "train": ["--config", "cfg.json"],
            "eval": ["--config", "cfg.json", "--model", "head.json"],
            "diagnose": ["--model", "head.json", "--features", "X.emb", "--labels", "y.labels"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *given, *removed])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(removed)}\n" in capsys.readouterr().err
