import json

import pytest

from semtrack.config import ExperimentConfig, SceneParams
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
