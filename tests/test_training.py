import csv

import numpy as np
import pytest

from semtrack import autodiff as ad
from semtrack.autodiff import Tape
from semtrack.degrade import DEFAULT_CHAIN_SPEC, DegradationChain, apply_chain
from semtrack.scenes import (DetectorNoise, detections_by_frame, generate_scene,
                             random_scene_config, synth_detector)
from semtrack.student import StudentConfig, StudentModel
from semtrack.tracker import TrackerConfig, TrackerModel
from semtrack.training import (LOG_COLUMNS, SceneSample, TrainConfig, scene_losses,
                               train, write_training_log)

from gradcheck import assert_grad_close, finite_diff

# scene_losses total for make_sample(seed=2, num_frames=5) and a full model with
# seed 3, as computed when the student still ran twice per frame
TOTAL_SEED2_FULL = 0.4095100522416797
TINY_STUDENT = StudentConfig(input_dim=256, hidden_dim=16, num_heads=2, ff_dim=32,
                             output_dim=256)


def make_sample(seed=0, degraded=False, num_frames=8):
    config = random_scene_config(seed=seed, num_targets=2, num_frames=num_frames)
    frames, gt = generate_scene(config)
    if degraded:
        chain = DegradationChain.from_spec(DEFAULT_CHAIN_SPEC, master_seed=seed)
        frames = [apply_chain(chain, f, sequence_id=f"s{seed}", frame_index=i)
                  for i, f in enumerate(frames)]
    dets = synth_detector(frames, gt, DetectorNoise(jitter_sigma=0.5), seed=seed + 1)
    return SceneSample(frames=frames, detections=dets, gt=gt, name=f"s{seed}")


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(alpha=0.0)
    with pytest.raises(ValueError):
        TrainConfig(alpha=1.5)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


def test_alpha_mixing_identities():
    sample = make_sample(seed=2, num_frames=5)
    model = TrackerModel(use_student=True, use_dswr=True,
                         student_config=TINY_STUDENT, seed=3)
    tracker_config = TrackerConfig()

    def parts(alpha):
        losses = scene_losses(model, sample, TrainConfig(alpha=alpha), tracker_config)
        return (losses["l_distill"].item(), losses["l_mot"].item(),
                losses["total"].item())

    d, m, total = parts(0.5)
    assert total == (d + m) / 2  # exact float identity
    d, m, total = parts(1e-15)
    assert abs(total - m) <= 1e-12
    d, m, total = parts(1.0 - 1e-15)
    assert abs(total - d) <= 1e-12


def test_student_runs_once_per_frame_with_detections(monkeypatch):
    # the distillation loss reuses the features encode_queries computed
    sample = make_sample(seed=2, num_frames=5)
    model = TrackerModel(use_student=True, use_dswr=True,
                         student_config=TINY_STUDENT, seed=3)
    calls = []
    forward = StudentModel.forward

    def counted(self, x):
        calls.append(x.rows)
        return forward(self, x)

    monkeypatch.setattr(StudentModel, "forward", counted)
    with Tape():
        losses = scene_losses(model, sample, TrainConfig(alpha=0.4), TrackerConfig())
    per_frame = detections_by_frame(sample.detections)
    assert calls == [len(per_frame[f]) for f in sorted(per_frame)]
    assert losses["total"].item() == TOTAL_SEED2_FULL


def test_baseline_total_is_mot_loss():
    sample = make_sample(seed=4, num_frames=5)
    model = TrackerModel(use_student=False, seed=5)
    losses = scene_losses(model, sample, TrainConfig(alpha=0.4), TrackerConfig())
    assert losses["total"].item() == losses["l_mot"].item()
    assert losses["l_distill"].item() == 0.0


def test_distillation_loss_decreases_over_60_steps():
    sample = make_sample(seed=6, num_frames=6)
    model = TrackerModel(use_student=True, use_dswr=True,
                         student_config=TINY_STUDENT, seed=7)
    log = train(model, [sample], TrainConfig(alpha=0.4, epochs=60))
    assert len(log) == 60
    assert log[-1]["l_distill"] < log[0]["l_distill"]


def test_mot_loss_decreases():
    sample = make_sample(seed=8, num_frames=6)
    model = TrackerModel(use_student=False, seed=9)
    log = train(model, [sample], TrainConfig(alpha=0.4, epochs=40))
    assert log[-1]["l_mot"] < log[0]["l_mot"]


def test_training_determinism():
    def run():
        sample = make_sample(seed=10, num_frames=5)
        model = TrackerModel(use_student=True, use_dswr=True,
                             student_config=TINY_STUDENT, seed=11)
        return train(model, [sample], TrainConfig(alpha=0.4, epochs=3))

    assert run() == run()


def test_training_log_csv_format(tmp_path):
    sample = make_sample(seed=12, num_frames=5)
    model = TrackerModel(use_student=True, use_dswr=True,
                         student_config=TINY_STUDENT, seed=13)
    path = tmp_path / "log.csv"
    log = train(model, [sample], TrainConfig(alpha=0.4, epochs=2), log_path=path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(LOG_COLUMNS)
    assert len(rows) == len(log) + 1
    assert float(rows[1][5]) == pytest.approx(log[0]["l_distill"], rel=1e-9)


def test_frozen_loss_logits_stay_fixed_under_training():
    sample = make_sample(seed=14, num_frames=5)
    model = TrackerModel(use_student=True, use_dswr=False, train_loss_weights=False,
                         student_config=TINY_STUDENT, seed=15)
    before = model.dcsd.loss_logits.value.data.copy()
    train(model, [sample], TrainConfig(alpha=0.4, epochs=3))
    assert np.array_equal(model.dcsd.loss_logits.value.data, before)
    w1, w2 = model.dcsd.loss_weights()
    assert w1 == w2 == 0.5


def test_trainable_loss_logits_move():
    sample = make_sample(seed=16, num_frames=5)
    model = TrackerModel(use_student=True, use_dswr=False, train_loss_weights=True,
                         student_config=TINY_STUDENT, seed=17)
    before = model.dcsd.loss_logits.value.data.copy()
    train(model, [sample], TrainConfig(alpha=0.4, epochs=5))
    assert not np.array_equal(model.dcsd.loss_logits.value.data, before)


def test_dswr_parameters_receive_gradients():
    sample = make_sample(seed=18, degraded=True, num_frames=5)
    model = TrackerModel(use_student=True, use_dswr=True,
                         student_config=TINY_STUDENT, seed=19)
    with Tape() as tape:
        losses = scene_losses(model, sample, TrainConfig(alpha=0.4), TrackerConfig())
        tape.backward(losses["total"])
    assert model.dswr.w.value.grad is not None
    assert model.dswr.b.value.grad is not None


def test_mot_loss_gradient_matches_fd_on_embed_bias():
    # spot-check the full tracking-loss graph against finite differences
    sample = make_sample(seed=20, num_frames=4)
    model = TrackerModel(use_student=False, seed=21)
    train_config = TrainConfig(alpha=0.4)
    tracker_config = TrackerConfig()

    with Tape() as tape:
        losses = scene_losses(model, sample, train_config, tracker_config)
        tape.backward(losses["total"])
    analytic = model.embed_bias.value.grad.copy()

    base = model.embed_bias.value.data.copy()

    def f(x):
        from semtrack.autodiff import Parameter
        model.embed_bias = Parameter(x, name="embed.bias")
        value = scene_losses(model, sample, train_config, tracker_config)["total"].item()
        model.embed_bias = Parameter(base, name="embed.bias")
        return value

    indices = list(range(0, 256, 37))
    numeric = finite_diff(f, base, indices=indices)
    for i, fd_value in numeric.items():
        assert_grad_close(analytic.reshape(-1)[i], fd_value, f"embed.bias[{i}]")
