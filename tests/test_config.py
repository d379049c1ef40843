"""Config schema validation, defaults, and round-tripping."""

import json

import jsonschema
import pytest

from spherekit import (
    ConfigError,
    dump_run_config,
    load_run_config,
    parse_run_config,
)
from spherekit.config import CONFIG_SCHEMA


def minimal(**overrides):
    raw = {
        "mode": "category",
        "iterations": 10,
        "seed": 0,
        "head": {"out_dim": 8},
        "synthetic": {
            "num_classes": 4,
            "per_class": 4,
            "feature_dim": 6,
            "noise_sigma": 0.2,
            "seed": 1,
        },
    }
    raw.update(overrides)
    return raw


class TestParse:
    def test_defaults(self):
        config = parse_run_config(minimal())
        assert config.beta == 0.5
        assert config.lam == 0.7
        assert config.lr == 3e-5
        assert config.weight_decay == 5e-4
        assert config.batch_size == 64
        assert config.instances_per_class == 4
        assert config.memory_capacity_ratio == 1.0
        assert config.momentum_m == 0.999
        assert config.pooling.mode == "cls"
        assert config.pooling.p == 3.0
        assert config.eval_ks == (1, 2, 4, 8)
        assert config.particular_scale == 1.0
        assert config.gamma_every == 1
        assert config.snapshot_every == 0
        assert config.pca_out_dim is None
        assert config.data is None

    def test_particular_default_margin(self):
        config = parse_run_config(minimal(mode="particular"))
        assert config.beta == 0.85

    def test_explicit_margin_wins(self):
        config = parse_run_config(minimal(beta=0.3))
        assert config.beta == 0.3

    def test_null_margin_falls_back_to_mode_default(self):
        config = parse_run_config(minimal(beta=None))
        assert config.beta == 0.5

    def test_lambda_key_maps_to_lam(self):
        config = parse_run_config(minimal(**{"lambda": 0.25}))
        assert config.lam == 0.25

    def test_momentum_tri_state(self):
        assert parse_run_config(minimal()).momentum_m == 0.999
        assert parse_run_config(minimal(momentum_m=None)).momentum_m is None
        assert parse_run_config(minimal(momentum_m=0.0)).momentum_m == 0.0

    def test_eval_ks_sorted_and_deduplicated(self):
        config = parse_run_config(minimal(eval_ks=[4, 1, 4, 2]))
        assert config.eval_ks == (1, 2, 4)

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="warmup"):
            parse_run_config(minimal(warmup=5))

    def test_nested_error_names_key_path(self):
        raw = minimal()
        raw["head"] = {"out_dim": 1}
        with pytest.raises(ConfigError, match="head/out_dim"):
            parse_run_config(raw)

    def test_margin_bounds_enforced(self):
        with pytest.raises(ConfigError):
            parse_run_config(minimal(beta=0.0))
        with pytest.raises(ConfigError):
            parse_run_config(minimal(beta=1.0))

    def test_exactly_one_source_required(self):
        raw = minimal()
        raw["data"] = {"train_features": "a.emb", "train_labels": "a.labels"}
        with pytest.raises(ConfigError, match="exactly one"):
            parse_run_config(raw)
        raw = minimal()
        del raw["synthetic"]
        with pytest.raises(ConfigError, match="exactly one"):
            parse_run_config(raw)

    def test_batch_divisibility(self):
        with pytest.raises(ConfigError, match="divisible"):
            parse_run_config(minimal(batch_size=10, instances_per_class=4))

    def test_holdout_must_leave_training_classes(self):
        raw = minimal()
        raw["synthetic"]["holdout_classes"] = 4
        with pytest.raises(ConfigError, match="holdout"):
            parse_run_config(raw)

    def test_data_source_parses(self):
        raw = minimal()
        del raw["synthetic"]
        raw["data"] = {
            "train_features": "train.emb",
            "train_labels": "train.labels",
            "eval_features": "eval.emb",
            "eval_labels": "eval.labels",
        }
        config = parse_run_config(raw)
        assert config.data.train_features == "train.emb"
        assert config.data.ground_truth is None

    def test_non_integer_iterations_rejected(self):
        with pytest.raises(ConfigError, match="iterations"):
            parse_run_config(minimal(iterations=2.5))

    @pytest.mark.parametrize(
        "raw",
        [
            minimal(warmup=5),
            minimal(head={"out_dim": 1}),
            minimal(head={"out_dim": 8, "width": 3}),
            minimal(beta=1.0),
            minimal(iterations=2.5, mode="retrieval", beta=-1),
            minimal(synthetic={"num_classes": "many"}),
            {"mode": "category"},
            [],
        ],
        ids=["unknown-key", "nested-bound", "nested-unknown", "margin", "three-errors",
             "nested-type-and-missing", "missing-keys", "not-an-object"],
    )
    def test_error_text_is_that_of_jsonschema_validate(self, raw):
        with pytest.raises(jsonschema.ValidationError) as reference:
            jsonschema.validate(raw, CONFIG_SCHEMA)
        path = "/".join(str(p) for p in reference.value.absolute_path) or "<root>"
        for _ in range(2):  # the second call reuses the process's validator
            with pytest.raises(ConfigError) as got:
                parse_run_config(raw)
            assert str(got.value) == f"config key {path!r}: {reference.value.message}"


class TestDump:
    def test_round_trip(self):
        raw = minimal(
            beta=0.4,
            momentum_m=None,
            eval_ks=[1, 5],
            pooling={"mode": "gem", "p": 4.0},
        )
        raw["lambda"] = 0.3
        config = parse_run_config(raw)
        dumped = dump_run_config(config)
        assert dumped["lambda"] == 0.3
        assert "lam" not in dumped
        assert dumped["eval_ks"] == [1, 5]
        assert json.dumps(dumped)  # JSON-serializable
        assert parse_run_config(dumped) == config


class TestLoad:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_run_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_run_config(path)

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON object"):
            load_run_config(path)

    def test_valid_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(minimal()), encoding="utf-8")
        config = load_run_config(path)
        assert config.mode == "category"
        assert config.synthetic.num_classes == 4
