import json
from dataclasses import replace

import pytest

from semtrack.config import EVAL_SEED_OFFSET, ExperimentConfig, SceneParams
from semtrack.quality import QualityRanges


def custom_config():
    return ExperimentConfig(
        scene=SceneParams(num_targets=5, motion_jitter=0.25),
        degradation_chain=({"kind": "gaussian_blur", "sigma": 2.0, "kernel_size": 5},
                           {"kind": "gaussian_noise", "sigma": 0.05, "seed": 3}),
        alpha=0.3,
        dswr=QualityRanges(clarity=(0.001, 0.03), noise=(0.0, 0.2)),
        ratio=(1, 1),
    )


@pytest.mark.parametrize("config", [ExperimentConfig(), custom_config()],
                         ids=["default", "custom"])
def test_json_round_trip(tmp_path, config):
    loaded = ExperimentConfig.from_json(config.to_json())
    assert loaded == config
    assert isinstance(loaded.dswr.clarity, tuple)
    assert isinstance(loaded.ratio, tuple)
    assert loaded.degradation_chain == config.degradation_chain
    assert loaded.chain() == config.chain()
    assert loaded.to_json() == config.to_json()
    path = tmp_path / "config.json"
    config.save(path)
    assert ExperimentConfig.load(path) == config


def test_ratio_none_round_trips_as_null():
    config = replace(ExperimentConfig(), ratio=None)
    assert json.loads(config.to_json())["ratio"] is None
    assert ExperimentConfig.from_json(config.to_json()) == config


def test_train_scene_count_capped_at_eval_seed_offset():
    # more training scenes would reuse the evaluation scenes' seeds
    ExperimentConfig(num_train_scenes=EVAL_SEED_OFFSET)
    with pytest.raises(ValueError, match="num_train_scenes"):
        ExperimentConfig(num_train_scenes=EVAL_SEED_OFFSET + 1)


@pytest.mark.parametrize("where, key", [
    (None, "temperature"),
    (None, "no_such_knob"),
    ("dswr", "w_init"),
    ("seeds", "no_such_seed"),
])
def test_unknown_key_raises(where, key):
    raw = json.loads(ExperimentConfig().to_json())
    (raw if where is None else raw[where])[key] = 1.0
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("where, key", [
    ("student", "no_such_knob"),
    ("training", "bogus"),
    ("tracker", "match_gat"),
    ("training", "alpha"),
    ("training", "teacher_seed"),
    ("tracker", "quality_ranges"),
])
def test_module_config_dict_keys_checked_on_build(where, key):
    # unknown keys, and keys the derived configs fill in from alpha,
    # seeds.teacher and dswr, raise when the config is built, not later
    raw = json.loads(ExperimentConfig().to_json())
    raw[where][key] = 1
    with pytest.raises(ValueError, match=f"{where}.*{key}"):
        ExperimentConfig.from_dict(raw)
    with pytest.raises(ValueError, match=f"{where}.*{key}"):
        ExperimentConfig(**{where: raw[where]})
    with pytest.raises(ValueError, match=f"{where}.*{key}"):
        replace(ExperimentConfig(), **{where: raw[where]})


def test_module_config_dicts_accept_every_module_field():
    config = ExperimentConfig(
        student=dict(ExperimentConfig().student, hidden_dim=32, num_heads=2),
        training=dict(ExperimentConfig().training, epochs=1, match_iou=0.4),
        tracker=dict(ExperimentConfig().tracker, max_age=5))
    assert config.student_config().hidden_dim == 32
    assert config.train_config().epochs == 1
    assert config.train_config().match_iou == 0.4
    assert config.tracker_config().max_age == 5
    assert ExperimentConfig.from_json(config.to_json()) == config


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
def test_alpha_outside_open_unit_interval_raises(alpha):
    with pytest.raises(ValueError, match="alpha"):
        ExperimentConfig(alpha=alpha)
    raw = json.loads(ExperimentConfig().to_json())
    raw["alpha"] = alpha
    with pytest.raises(ValueError, match="alpha"):
        ExperimentConfig.from_dict(raw)


def test_tracker_config_takes_quality_ranges_from_dswr():
    config = custom_config()
    assert config.tracker_config().quality_ranges == config.dswr
    assert ExperimentConfig().tracker_config().quality_ranges == QualityRanges()


@pytest.mark.parametrize("where, key, value, match", [
    (None, "num_eval_scenes", 0, "num_eval_scenes"),
    (None, "num_train_scenes", -2, "num_train_scenes"),
    (None, "ratio", [0, 1], "ratio"),
    (None, "ratio", [1, 2, 3], "ratio"),
    (None, "degradation_chain", [{"kind": "nope"}], "nope"),
    (None, "degradation_chain",
     [{"kind": "gaussian_blur", "sigma": 1.0, "kernel_size": 3, "bogus": 1}], "bogus"),
    ("student", "num_heads", 3, "num_heads"),
    ("training", "epochs", 0, "epochs"),
    ("training", "contrastive_temperature", 0.0, "contrastive_temperature"),
    ("training", "learning_rate", -5e-3, "learning_rate"),
    ("training", "decay_factor", 0.0, "decay_factor"),
    ("training", "decay_at", 5, "decay_at"),
    ("training", "decay_at", -0.5, "decay_at"),
    ("training", "match_iou", 0.0, "match_iou"),
    ("training", "match_iou", 1.0, "match_iou"),
    ("detector", "fp_rate", 2.0, "fp_rate"),
    ("dswr", "clarity", [1.0, 0.0], "clarity"),
], ids=["no-eval-scenes", "negative-train-scenes", "ratio-no-low", "ratio-three",
        "unknown-degradation", "unknown-degradation-key", "heads-not-dividing",
        "no-epochs", "zero-temperature", "negative-learning-rate", "zero-decay-factor",
        "decay-after-last-epoch", "decay-before-first-epoch", "match-iou-zero",
        "match-iou-one", "fp-rate-above-one", "clarity-range-reversed"])
def test_malformed_value_raises_when_built(where, key, value, match):
    raw = json.loads(ExperimentConfig().to_json())
    (raw if where is None else raw[where])[key] = value
    with pytest.raises(ValueError, match=match):
        ExperimentConfig.from_dict(raw)
