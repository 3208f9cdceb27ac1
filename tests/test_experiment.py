import math
import pickle
from dataclasses import astuple, replace

import numpy as np
import pytest

from semtrack import experiment
from semtrack.config import EVAL_SEED_OFFSET, ExperimentConfig, SceneParams, Seeds
from semtrack.experiment import (RATIO_GRID, VARIANTS, ablation_trend, alpha_sweep,
                                 build_model, degraded_train_scenes, evaluate_samples,
                                 evaluation_corpus, ratio_sweep, run_sweep,
                                 training_corpus)
from semtrack.scenes import (MAX_FALSE_BOX, DetectorNoise, generate_scene,
                             random_scene_config, synth_detector)
from semtrack.tracks import TrackSet


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
    assert model.variant == variant
    assert (model.student is not None) == student
    assert (model.dcsd is not None) == student
    assert (model.dswr is not None) == dswr
    assert model.seed == 7
    assert model.student_config == config.student
    if student:
        assert model.student.config == config.student
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


@pytest.mark.parametrize("chain", [None, ()], ids=["degraded", "clean"])
def test_no_corpus_frame_nor_the_memory_under_it_can_be_written(chain):
    config = small_config(ratio=(1, 1))
    if chain is not None:
        config = replace(config, degradation_chain=chain)
    for sample in training_corpus(config) + evaluation_corpus(config):
        for frame in sample.frames:
            assert not frame.flags.writeable and not frame.base.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                frame.base[...] = 0.0


def clean_frames(config, index):
    scene = random_scene_config(seed=config.seeds.scenes + index,
                                num_targets=config.scene.num_targets,
                                num_frames=config.scene.num_frames,
                                width=config.scene.width, height=config.scene.height,
                                jitter=config.scene.motion_jitter)
    return generate_scene(scene)[0]


def is_clean(sample, config, index):
    return all(np.array_equal(a, b) for a, b in zip(sample.frames, clean_frames(config, index)))


def is_degraded(sample, config, index):
    return not any(np.array_equal(a, b)
                   for a, b in zip(sample.frames, clean_frames(config, index)))


def test_training_corpus_without_ratio_degrades_nothing():
    config = small_config()
    for i, sample in enumerate(training_corpus(replace(config, ratio=None))):
        assert is_clean(sample, config, i)
    # the comparison can tell: with every scene low-quality, no frame is clean
    for i, sample in enumerate(training_corpus(replace(config, ratio=(1, 0)))):
        assert is_degraded(sample, config, i)


def test_evaluation_corpus_with_empty_chain_is_clean():
    config = small_config()
    for i, sample in enumerate(evaluation_corpus(replace(config, degradation_chain=()))):
        assert is_clean(sample, config, EVAL_SEED_OFFSET + i)
    for i, sample in enumerate(evaluation_corpus(config)):
        assert is_degraded(sample, config, EVAL_SEED_OFFSET + i)


def test_the_smallest_frame_the_config_allows_builds_its_corpora():
    # false detections are drawn up to MAX_FALSE_BOX on a side: a frame of
    # that size holds every one, a frame a pixel smaller cannot
    side = MAX_FALSE_BOX
    config = replace(small_config(detector=DetectorNoise(fp_rate=0.9)),
                     scene=SceneParams(width=side, height=side, num_frames=8,
                                       num_targets=2))
    samples = training_corpus(config) + evaluation_corpus(config)
    false = [d.box for s in samples for d in s.detections if d.confidence < 0.5]
    assert false and max(max(w, h) for _, _, w, h in false) > side - 1
    assert all(l >= 0 and t >= 0 and l + w <= side + 1e-9 and t + h <= side + 1e-9
               for l, t, w, h in false)
    with pytest.raises(ValueError):
        synth_detector([np.zeros((side - 1, side - 1))] * 64, TrackSet(),
                       DetectorNoise(fp_rate=0.9), seed=0)


def test_evaluate_samples_rejects_empty_corpus():
    config = small_config()
    with pytest.raises(ValueError, match="no evaluation scenes"):
        evaluate_samples(build_model(config, "baseline"), [], config)


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


def sweep_config(num_train_scenes=2):
    return ExperimentConfig(scene=SceneParams(width=64, height=48, num_frames=8,
                                              num_targets=2),
                            training=dict(ExperimentConfig().training, epochs=1),
                            num_train_scenes=num_train_scenes, num_eval_scenes=2)


@pytest.fixture
def trained(monkeypatch):
    """(model, samples, train_config) of every run, in the order trained."""
    runs = []
    real_train = experiment.train

    def spy(model, samples, train_config, *args, **kwargs):
        runs.append((model, samples, train_config))
        return real_train(model, samples, train_config, *args, **kwargs)

    monkeypatch.setattr(experiment, "train", spy)
    return runs


def assert_scored(scores, names):
    assert list(scores) == list(names)
    assert all(math.isfinite(v) for score in scores.values() for v in astuple(score))


def test_ablation_trains_every_variant_on_one_config(trained):
    config = sweep_config()
    runs = ablation_trend(config)
    assert runs == {variant: (config, variant) for variant in VARIANTS}
    assert_scored(run_sweep(runs), VARIANTS)
    assert [m.variant for m, _, _ in trained] == list(VARIANTS)


def test_alpha_sweep_trains_each_point_with_its_alpha(trained):
    runs = alpha_sweep(sweep_config())
    assert [c.alpha for c, _ in runs.values()] == [0.2, 0.4, 0.6]
    assert_scored(run_sweep(runs), ["alpha=0.2", "alpha=0.4", "alpha=0.6"])
    assert [train_config.alpha for _, _, train_config in trained] == [0.2, 0.4, 0.6]
    assert all(model.variant == "full" for model, _, _ in trained)


def test_ratio_sweep_trains_each_point_on_its_mix(trained):
    # with 2 training scenes 1:1 and 2:1 degrade the same one
    config = sweep_config(num_train_scenes=4)
    runs = ratio_sweep(config)
    assert {name: c.ratio for name, (c, _) in runs.items()} == RATIO_GRID
    assert_scored(run_sweep(runs), RATIO_GRID)
    samples = dict(zip(RATIO_GRID, (s for _, s, _ in trained)))
    assert all(is_clean(s, config, i) for i, s in enumerate(samples["all-high"]))
    assert all(is_degraded(s, config, i) for i, s in enumerate(samples["all-low"]))


def test_every_sweep_point_config_survives_json():
    config = sweep_config(num_train_scenes=4)
    for runs in (ablation_trend(config), alpha_sweep(config), ratio_sweep(config)):
        for point, _ in runs.values():
            assert ExperimentConfig.from_json(point.to_json()) == point


def test_ratio_sweep_rejects_points_that_degrade_the_same_scenes():
    with pytest.raises(ValueError, match=r"'1:1' and '2:1' both degrade 1 of 2 training"):
        ratio_sweep(sweep_config(num_train_scenes=2))
    runs = ratio_sweep(sweep_config(num_train_scenes=4))
    assert [len(degraded_train_scenes(c)) for c, _ in runs.values()] == [0, 2, 3, 4]
