import json
from dataclasses import replace

import pytest

from semtrack.config import EVAL_SEED_OFFSET, ExperimentConfig, SceneParams
from semtrack.quality import QualityRanges
from semtrack.scenes import DetectorNoise
from semtrack.student import StudentConfig
from semtrack.tracker import TrackerConfig
from semtrack.training import TrainConfig


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
    (None, "tracker"),          # snapshots from before the tracker constants had one
])
def test_unknown_key_raises(where, key):
    raw = json.loads(ExperimentConfig().to_json())
    (raw if where is None else raw[where])[key] = 1.0
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("where, key", [
    ("student", "no_such_knob"),
    ("training", "bogus"),
    ("training", "learning_rate"),  # a knob of a snapshot from before the constants
    ("training", "alpha"),
    ("training", "teacher_seed"),
])
def test_module_config_dict_keys_checked_on_build(where, key):
    # unknown keys, and keys the derived configs fill in from alpha and
    # seeds.teacher, raise when the config is built, not later
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
        training=dict(ExperimentConfig().training, epochs=1))
    assert config.student_config().hidden_dim == 32
    assert config.train_config().epochs == 1
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
    ("detector", "fp_rate", 2.0, "fp_rate"),
    ("dswr", "clarity", [1.0, 0.0], "clarity"),
    ("training", "epochs", "3", r"training\.epochs: expected int, got '3'"),
    ("student", "ff_dim", "1024", r"student\.ff_dim: expected int"),
    ("detector", "fp_rate", "0.1", r"detector\.fp_rate: expected float"),
    ("dswr", "clarity", 0.5, r"dswr\.clarity: expected tuple\[float, float\]"),
    (None, "ratio", 5, r"ratio: expected tuple\[int, int\] \| None"),
    (None, "scene", None, "scene: expected an object"),
    (None, "degradation_chain", [{"kind": "gaussian_blur"}],
     r"gaussian_blur: missing keys \['sigma', 'kernel_size'\]"),
    (None, "degradation_chain", [{"kind": "gaussian_blur", "sigma": "1", "kernel_size": 3}],
     "degradation_chain: "),
    ("scene", "num_targets", "3", r"scene\.num_targets: expected int"),
    ("seeds", "model", "x", r"seeds\.model: expected int"),
], ids=["no-eval-scenes", "negative-train-scenes", "ratio-no-low", "ratio-three",
        "unknown-degradation", "unknown-degradation-key", "heads-not-dividing",
        "no-epochs", "fp-rate-above-one", "clarity-range-reversed",
        "string-epochs", "string-ff-dim", "string-fp-rate", "scalar-clarity",
        "scalar-ratio", "null-scene", "op-missing-fields", "string-op-sigma",
        "string-num-targets", "string-model-seed"])
def test_malformed_value_raises_when_built(where, key, value, match):
    raw = json.loads(ExperimentConfig().to_json())
    (raw if where is None else raw[where])[key] = value
    with pytest.raises(ValueError, match=match):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("key, value, match", [
    ("ratio", 5, r"ratio: expected tuple\[int, int\] \| None, got 5"),
    ("num_eval_scenes", "3", "num_eval_scenes: expected int, got '3'"),
    ("alpha", "0.4", "alpha: expected float, got '0.4'"),
    ("output_dir", 3, "output_dir: expected str, got 3"),
    ("scene", SceneParams(width="128"), r"scene\.width: expected int, got '128'"),
], ids=["int-ratio", "string-eval-scenes", "string-alpha", "int-output-dir",
        "nested-string-width"])
def test_built_config_is_type_checked_like_a_loaded_one(key, value, match):
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(**{key: value})
    with pytest.raises(ValueError, match=match):
        replace(ExperimentConfig(), **{key: value})


@pytest.mark.parametrize("where, key, value, accepted", [
    ("seeds", "model", True, False),
    ("training", "epochs", False, False),
    ("detector", "fp_rate", 0, True),
    ("dswr", "noise", [0, 1], True),
    ("student", "ff_dim", 1024.0, False),
])
def test_json_types_bool_is_no_int_and_int_is_a_float(where, key, value, accepted):
    raw = json.loads(ExperimentConfig().to_json())
    raw[where][key] = value
    if accepted:
        assert json.loads(ExperimentConfig.from_dict(raw).to_json())[where][key] == value
    else:
        with pytest.raises(ValueError, match=rf"{where}\.{key}: expected int"):
            ExperimentConfig.from_dict(raw)


def test_module_dict_defaults_are_the_module_defaults():
    config = ExperimentConfig()
    assert config.student_config() == StudentConfig()
    assert config.train_config() == TrainConfig(teacher_seed=config.seeds.teacher)
    assert config.tracker_config() == TrackerConfig()
    assert config.training == {"epochs": 12}
    assert config.detector == DetectorNoise(jitter_sigma=0.6, fp_rate=0.1, fn_rate=0.05)
