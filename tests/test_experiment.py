import pickle

import numpy as np
import pytest

from semtrack import experiment
from semtrack.config import ExperimentConfig, SceneParams, Seeds
from semtrack.experiment import (build_model, evaluation_corpus, training_corpus)
from semtrack.scenes import generate_scene, random_scene_config


def small_config(**overrides):
    return ExperimentConfig(scene=SceneParams(width=64, height=48, num_frames=6,
                                              num_targets=2),
                            num_train_scenes=3, num_eval_scenes=2, **overrides)


@pytest.mark.parametrize("variant, student, dswr, logits_trainable", [
    ("baseline", False, False, None),
    ("distill", True, False, False),
    ("dcsd", True, False, True),
    ("full", True, True, True),
])
def test_build_model_wires_each_variant(variant, student, dswr, logits_trainable):
    config = ExperimentConfig(seeds=Seeds(model=7))
    model = build_model(config, variant)
    assert (model.student is not None) == student
    assert (model.dcsd is not None) == student
    assert (model.dswr is not None) == dswr
    assert model.use_dswr == dswr
    assert model.seed == 7
    if student:
        assert model.student.config == config.student_config()
        logits = model.dcsd.loss_logits
        assert logits.trainable == logits_trainable
        assert logits.value.requires_grad == logits_trainable


def test_unknown_variant_raises():
    with pytest.raises(ValueError, match="unknown variant 'dswr'"):
        build_model(ExperimentConfig(), "dswr")


def test_corpora_rebuilt_from_one_config_are_byte_identical():
    config = small_config()
    for build in (training_corpus, evaluation_corpus):
        assert pickle.dumps(build(config)) == pickle.dumps(build(config))
    rebuilt = ExperimentConfig.from_json(config.to_json())
    assert pickle.dumps(training_corpus(rebuilt)) == pickle.dumps(training_corpus(config))


def clean_frames(config, index):
    scene = random_scene_config(seed=config.seeds.scenes + index,
                                num_targets=config.scene.num_targets,
                                num_frames=config.scene.num_frames,
                                width=config.scene.width, height=config.scene.height,
                                jitter=config.scene.motion_jitter)
    return generate_scene(scene)[0]


def test_training_corpus_without_ratio_degrades_nothing():
    config = small_config()
    for i, sample in enumerate(training_corpus(config, ratio=None)):
        assert all(np.array_equal(a, b) for a, b in zip(sample.frames, clean_frames(config, i)))
    # the comparison can tell: with every scene low-quality, no frame is clean
    for i, sample in enumerate(training_corpus(config, ratio=(1, 0))):
        assert not any(np.array_equal(a, b)
                       for a, b in zip(sample.frames, clean_frames(config, i)))


def test_evaluation_seeds_never_overlap_training_seeds(monkeypatch):
    seen = {"scene": [], "detector": []}
    real_scene, real_detector = experiment.random_scene_config, experiment.synth_detector

    def scene_seed(*args, seed, **kwargs):
        seen["scene"].append(seed)
        return real_scene(*args, seed=seed, **kwargs)

    def detector_seed(*args, seed, **kwargs):
        seen["detector"].append(seed)
        return real_detector(*args, seed=seed, **kwargs)

    monkeypatch.setattr(experiment, "random_scene_config", scene_seed)
    monkeypatch.setattr(experiment, "synth_detector", detector_seed)
    config = small_config()
    train = training_corpus(config)
    train_seeds = {k: set(v) for k, v in seen.items()}
    seen["scene"].clear()
    seen["detector"].clear()
    evaluation_corpus(config)
    assert len(train_seeds["scene"]) == len(train) == config.num_train_scenes
    assert len(set(seen["scene"])) == config.num_eval_scenes
    for kind in seen:
        assert not train_seeds[kind] & set(seen[kind])
