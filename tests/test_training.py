import csv
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from semtrack import autodiff as ad
from semtrack import tracker, training
from semtrack.autodiff import Matrix, Tape
from semtrack.degrade import DEFAULT_CHAIN, DegradationChain, apply_chain
from semtrack.quality import QualityRanges
from semtrack.scenes import (Detection, DetectorNoise, detections_by_frame,
                             generate_scene, random_scene_config, synth_detector)
from semtrack.student import StudentConfig, StudentModel
from semtrack.teacher import TEACHER_DIM
from semtrack.tracker import VARIANTS, TrackerModel
from semtrack.training import (LOG_COLUMNS, SceneSample, TrainConfig, scene_losses,
                               train, write_training_log)

from gradcheck import assert_grad_close, finite_diff
from oracles import (composite_attention_sublayer, composite_blend_rows,
                     composite_feed_forward_sublayer, per_frame_scene_losses)

# scene_losses total for make_sample(seed=2, num_frames=5) and a full model with
# seed 3, as computed when the student still ran twice per frame
TOTAL_SEED2_FULL = 0.4095100522416797
TINY_STUDENT = StudentConfig(hidden_dim=16, num_heads=2, ff_dim=32)


def make_sample(seed=0, degraded=False, num_frames=8):
    config = random_scene_config(seed=seed, num_targets=2, num_frames=num_frames)
    frames, gt = generate_scene(config)
    if degraded:
        chain = DegradationChain(DEFAULT_CHAIN, master_seed=seed)
        frames = apply_chain(chain, frames, sequence_id=f"s{seed}")
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
    model = TrackerModel("full", TINY_STUDENT, seed=3)
    quality_ranges = QualityRanges()

    def parts(alpha):
        losses = scene_losses(model, sample, TrainConfig(alpha=alpha), quality_ranges)
        return (losses["l_distill"].item(), losses["l_mot"].item(),
                losses["total"].item())

    d, m, total = parts(0.5)
    assert total == (d + m) / 2  # exact float identity
    d, m, total = parts(1e-15)
    assert abs(total - m) <= 1e-12
    d, m, total = parts(1.0 - 1e-15)
    assert abs(total - d) <= 1e-12


def test_student_runs_once_per_scene_on_all_rows(monkeypatch):
    # one call on every frame's rows, each row labelled with its frame among
    # the frames with detections; the distillation loss reuses its features
    sample = make_sample(seed=2, num_frames=5)
    model = TrackerModel("full", TINY_STUDENT, seed=3)
    calls = []
    forward = StudentModel.forward

    def counted(self, x, segments):
        calls.append((x.rows, list(segments)))
        return forward(self, x, segments)

    monkeypatch.setattr(StudentModel, "forward", counted)
    with Tape():
        losses = scene_losses(model, sample, TrainConfig(alpha=0.4), QualityRanges())
    per_frame = detections_by_frame(sample.detections, len(sample.frames))
    rows = [k for k, f in enumerate(sorted(per_frame)) for _ in per_frame[f]]
    assert calls == [(len(rows), rows)]
    assert losses["total"].item() == TOTAL_SEED2_FULL


LOSS_KEYS = ("total", "l_mot", "l_distill", "l_local", "l_global", "w1", "w2")


def losses_and_grads(loss_fn, model, sample):
    with Tape() as tape:
        losses = loss_fn(model, sample, TrainConfig(alpha=0.4), QualityRanges())
        tape.backward(losses["total"])
    values = {k: v.item() if k in ("total", "l_mot", "l_distill") else v
              for k, v in losses.items()}
    grads = {name: p.value.grad for name, p in model.named_parameters().items()}
    model.zero_grads()
    return values, grads


def assert_matches_per_frame_reference(model, sample):
    # the stacked scene differs from the frame-by-frame reference only in
    # summation order: every loss agrees to 1e-12 relative, and every
    # gradient entry to 1e-12 of the model's largest one. (An entry-wise
    # bound cannot hold: the attention key biases shift every logit of a
    # softmax row equally, so their true gradient is 0 and both sides hold
    # rounding noise near 1e-19.)
    got, got_grads = losses_and_grads(scene_losses, model, sample)
    ref, ref_grads = losses_and_grads(per_frame_scene_losses, model, sample)
    assert got.keys() == ref.keys() == set(LOSS_KEYS)
    for key in LOSS_KEYS:
        assert abs(got[key] - ref[key]) <= 1e-12 * abs(ref[key]), key
    assert got_grads.keys() == ref_grads.keys()
    assert [n for n, g in got_grads.items() if g is None] == \
        [n for n, g in ref_grads.items() if g is None]
    scale = max(np.max(np.abs(g)) for g in ref_grads.values() if g is not None)
    for name, ref_grad in ref_grads.items():
        if ref_grad is not None:
            assert np.max(np.abs(got_grads[name] - ref_grad)) <= 1e-12 * scale, name
    return got


@pytest.mark.parametrize("variant", VARIANTS)
def test_scene_losses_match_the_per_frame_reference(variant):
    # the first call fills the sample's cache, the second reads it
    sample = make_sample(seed=22, degraded=True, num_frames=6)
    model = TrackerModel(variant, TINY_STUDENT, seed=23)
    first = assert_matches_per_frame_reference(model, sample)
    assert assert_matches_per_frame_reference(model, sample) == first
    assert first["l_mot"] > 0.0
    assert (first["l_distill"] > 0.0) == (variant != "baseline")


CONSTANT_BUILDERS = ((training, "sequence_rows"), (training, "match_detections_to_gt"),
                     (training, "pseudo_teacher"), (tracker, "assess_quality"))


def test_later_steps_on_a_sample_reuse_its_constants(monkeypatch):
    calls = {name: 0 for _, name in CONSTANT_BUILDERS}
    for module, name in CONSTANT_BUILDERS:
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    sample = make_sample(seed=2, num_frames=5)
    model = TrackerModel("full", TINY_STUDENT, seed=3)
    config = TrainConfig(alpha=0.4)

    def step(scene):
        before = dict(calls)
        total = scene_losses(model, scene, config, QualityRanges())["total"].item()
        return total, {name: calls[name] - before[name] for name in calls}

    total, first = step(sample)
    assert total == TOTAL_SEED2_FULL
    assert all(count > 0 for count in first.values()), first
    assert step(sample) == (total, dict.fromkeys(calls, 0))
    # a replaced sample starts with an empty cache
    assert step(replace(sample)) == (total, first)


def test_a_scene_plan_gathers_its_descriptors_once(monkeypatch):
    # frame 2 of 5 has no detections; one call covers the other four
    sample = make_sample(seed=2, num_frames=5)
    sample = replace(sample, detections=[d for d in sample.detections if d.frame != 2])
    calls = {"sequence_rows": [], "box_descriptor": []}
    for module, name in ((training, "sequence_rows"), (tracker, "box_descriptor")):
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls[_name].append(args)
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    plan = training._scene_plan(sample)
    assert len(calls["sequence_rows"]) == 1
    rows = plan.rows
    assert rows.frame_ids == [0, 1, 3, 4]
    (frames, boxes), = calls["box_descriptor"]
    assert [len(b) for b in boxes] == [sum(d.frame == f for d in sample.detections)
                                       for f in rows.frame_ids]
    assert all(a is sample.frames[f] for a, f in zip(frames, rows.frame_ids, strict=True))
    assert all(a is b for a, b in zip(rows.frames, frames, strict=True))
    assert rows.descriptors.shape == (len(rows.segments), tracker.DESCRIPTOR_DIM)


def test_the_teacher_block_is_one_frozen_matrix_built_once(monkeypatch):
    # frame 2 of 5 has no detections, so four frames are planned
    sample = make_sample(seed=2, num_frames=5)
    sample = replace(sample, detections=[d for d in sample.detections if d.frame != 2])
    original = training.pseudo_teacher
    calls = []

    def counted(frame, seed):
        calls.append(frame)
        return original(frame, seed)

    monkeypatch.setattr(training, "pseudo_teacher", counted)
    train(TrackerModel("full", TINY_STUDENT, seed=3), [sample], TrainConfig(epochs=2))
    frames = sample._constants["plan"].rows.frames
    assert len(calls) == len(frames) == 4
    assert all(a is b for a, b in zip(calls, frames, strict=True))
    block = sample._constants[("teacher", 0)]
    assert isinstance(block, Matrix) and not block.requires_grad
    assert block.shape == (4, TEACHER_DIM)
    assert np.array_equal(block.data, np.concatenate([original(f, 0) for f in frames]))


@pytest.mark.parametrize("variant, saved", [("full", 4), ("dcsd", 2), ("distill", 2)])
def test_a_step_records_fewer_ops_than_the_composite_fusion(monkeypatch, variant, saved):
    # the composite records its weight's spread and 1 - w only when DSWR's
    # weight needs a gradient; either way the step's numbers are the same
    sample = make_sample(seed=2, num_frames=5)

    def step():
        model = TrackerModel(variant, TINY_STUDENT, seed=3)
        with Tape() as tape:
            total = scene_losses(model, sample, TrainConfig(alpha=0.4), QualityRanges())["total"]
            tape.backward(total)
        grads = [p.value.grad for p in model.parameters()]
        return len(tape._records), total.item(), grads

    ops, total, grads = step()
    monkeypatch.setattr(ad, "blend_rows", composite_blend_rows)
    composite_ops, composite_total, composite_grads = step()
    assert composite_ops == ops + saved
    assert total == composite_total
    for got, expected in zip(grads, composite_grads, strict=True):
        assert (got is None and expected is None) or np.array_equal(got, expected)


@pytest.mark.parametrize("variant", ["full", "dcsd", "distill"])
def test_a_step_records_30_fewer_ops_than_the_composite_sublayers(monkeypatch, variant):
    # a step runs the student once: each of its 3 layers records 2 ops where
    # the small ops would record 12, with the same loss and gradients
    sample = make_sample(seed=2, num_frames=5)

    def step():
        model = TrackerModel(variant, TINY_STUDENT, seed=3)
        with Tape() as tape:
            total = scene_losses(model, sample, TrainConfig(alpha=0.4), QualityRanges())["total"]
            tape.backward(total)
        return len(tape._records), total.item(), [p.value.grad for p in model.parameters()]

    ops, total, grads = step()
    monkeypatch.setattr(ad, "attention_sublayer", composite_attention_sublayer)
    monkeypatch.setattr(ad, "feed_forward_sublayer", composite_feed_forward_sublayer)
    composite_ops, composite_total, composite_grads = step()
    assert composite_ops == ops + 30
    assert total == composite_total
    for got, expected in zip(grads, composite_grads, strict=True):
        assert (got is None and expected is None) or got.tobytes() == expected.tobytes()


def test_a_changed_key_gives_the_losses_of_a_fresh_sample():
    sample = make_sample(seed=2, degraded=True, num_frames=5)
    model = TrackerModel("full", TINY_STUDENT, seed=3)

    def values(scene, train_config, quality_ranges):
        losses = scene_losses(model, scene, train_config, quality_ranges)
        return {k: v.item() if isinstance(v, Matrix) else v for k, v in losses.items()}

    # a model without DSWR reads no quality, so it leaves none for the next
    scene_losses(TrackerModel("distill", TINY_STUDENT, seed=3), sample,
                 TrainConfig(alpha=0.4), QualityRanges())
    default = values(sample, TrainConfig(alpha=0.4), QualityRanges())
    for train_config, quality_ranges in [
            (TrainConfig(alpha=0.4, teacher_seed=1), QualityRanges()),
            (TrainConfig(alpha=0.4), QualityRanges(contrast=(0.0, 0.2))),
            (TrainConfig(alpha=0.4), QualityRanges())]:
        got = values(sample, train_config, quality_ranges)
        assert got == values(replace(sample), train_config, quality_ranges)
        assert (got == default) == (train_config.teacher_seed == 0
                                    and quality_ranges == QualityRanges())


def test_a_sample_cannot_be_reassigned():
    sample = make_sample(seed=2, num_frames=5)
    with pytest.raises(FrozenInstanceError):
        sample.detections = []


def test_a_sample_cannot_be_changed_in_place():
    sample = make_sample(seed=2, num_frames=5)
    scene_losses(TrackerModel("baseline", seed=3), sample, TrainConfig(), QualityRanges())
    with pytest.raises(TypeError):
        sample.detections[:] = [d for d in sample.detections if d.frame != 2]
    with pytest.raises(TypeError):
        sample.frames[0] = np.zeros_like(sample.frames[0])
    with pytest.raises(AttributeError):
        sample.detections.append(sample.detections[0])
    assert replace(sample, detections=list(sample.detections)).detections == sample.detections


def test_a_sample_frame_is_read_only_but_the_callers_array_is_not():
    # generate_scene's frames are read-only themselves; writable copies show
    # that the sample leaves the caller's flags alone
    frames, gt = generate_scene(random_scene_config(seed=2, num_targets=2, num_frames=5))
    frames = [frame.copy() for frame in frames]
    sample = SceneSample(frames=frames, detections=[], gt=gt)
    with pytest.raises(ValueError):
        sample.frames[0][:] = 0.0
    assert all(frame.flags.writeable for frame in frames)
    assert all(np.shares_memory(kept, given) for kept, given in zip(sample.frames, frames))


def test_samples_are_equal_only_to_themselves():
    a, b = make_sample(seed=2, num_frames=5), make_sample(seed=2, num_frames=5)
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_detection_free_frames_keep_numbering_and_pairing(monkeypatch):
    # frame 2 of 5 has no detection: frames 0, 1, 3, 4 become segments 0-3,
    # and only the consecutive pairs (0, 1) and (3, 4) give contrastive terms
    sample = make_sample(seed=24, degraded=True, num_frames=5)
    sample = replace(sample, detections=[d for d in sample.detections if d.frame != 2])
    model = TrackerModel("full", TINY_STUDENT, seed=25)
    assert_matches_per_frame_reference(model, sample)

    segments, pairs = [], []
    forward, contrastive = StudentModel.forward, ad.contrastive_pairs

    def recorded_forward(self, x, labels):
        segments.append(list(labels))
        return forward(self, x, labels)

    def recorded_contrastive(m, scene_pairs, factor):
        pairs.extend(scene_pairs)
        return contrastive(m, scene_pairs, factor)

    monkeypatch.setattr(StudentModel, "forward", recorded_forward)
    monkeypatch.setattr(ad, "contrastive_pairs", recorded_contrastive)
    with Tape():
        scene_losses(model, sample, TrainConfig(alpha=0.4), QualityRanges())
    per_frame = detections_by_frame(sample.detections, len(sample.frames))
    assert sorted(per_frame) == [0, 1, 3, 4]
    assert segments == [[k for k, f in enumerate([0, 1, 3, 4]) for _ in per_frame[f]]]
    # segment k starts at row first[k]; each pair's candidates are all of the
    # next segment's rows
    first = np.cumsum([0] + [len(per_frame[f]) for f in [0, 1, 3, 4]]).tolist()
    assert [candidates for _, _, candidates in pairs] == [range(first[1], first[2]),
                                                          range(first[3], first[4])]
    for anchors, targets, _ in pairs:
        assert len(anchors) == len(targets) > 0


@pytest.mark.parametrize("variant", ["baseline", "full"])
def test_scene_without_detections_trains_a_zero_step(variant):
    sample = replace(make_sample(seed=26, num_frames=4), detections=[])
    model = TrackerModel(variant, TINY_STUDENT, seed=27)
    before = {name: p.value.data.copy() for name, p in model.named_parameters().items()}
    with Tape() as tape:
        losses = scene_losses(model, sample, TrainConfig(alpha=0.4), QualityRanges())
        tape.backward(losses["total"])
    assert all(p.value.grad is None for p in model.parameters())
    (row,) = train(model, [sample], TrainConfig(alpha=0.4, epochs=1))
    assert row == dict.fromkeys(LOG_COLUMNS, 0.0) | {"step": 1}
    for name, p in model.named_parameters().items():
        assert np.array_equal(p.value.data, before[name]), name


def test_detection_outside_the_scene_is_rejected():
    # a detection past the last frame must fail here as it does in tracking
    sample = make_sample(seed=4, num_frames=32)
    sample = replace(sample, detections=sample.detections
                     + (Detection(frame=37, box=(0, 0, 5, 5), confidence=0.9),))
    with pytest.raises(ValueError, match="frame 37 outside sequence of 32"):
        scene_losses(TrackerModel("baseline", seed=5), sample, TrainConfig(alpha=0.4),
                     QualityRanges())


def test_baseline_total_is_mot_loss():
    sample = make_sample(seed=4, num_frames=5)
    model = TrackerModel("baseline", seed=5)
    losses = scene_losses(model, sample, TrainConfig(alpha=0.4), QualityRanges())
    assert losses["total"].item() == losses["l_mot"].item()
    assert losses["l_distill"].item() == 0.0


@pytest.mark.parametrize("variant", ["baseline", "full"])
def test_non_finite_loss_fails_loudly(variant):
    # every op output is checked, so a diverging run raises at the first op
    # whose output overflows (baseline: in the second step); numpy's overflow
    # warning is silenced to reach that check
    sample = make_sample(seed=28, num_frames=4)
    model = TrackerModel(variant, TINY_STUDENT, seed=29)
    model.embed_weight.value = Matrix(np.full(model.embed_weight.value.shape, 1e200),
                                      requires_grad=True)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="operation produced non-finite values"):
            train(model, [sample], TrainConfig(alpha=0.4, epochs=2))


def test_distillation_loss_decreases_over_60_steps():
    sample = make_sample(seed=6, num_frames=6)
    model = TrackerModel("full", TINY_STUDENT, seed=7)
    log = train(model, [sample], TrainConfig(alpha=0.4, epochs=60))
    assert len(log) == 60
    assert log[-1]["l_distill"] < log[0]["l_distill"]


def test_mot_loss_decreases():
    sample = make_sample(seed=8, num_frames=6)
    model = TrackerModel("baseline", seed=9)
    log = train(model, [sample], TrainConfig(alpha=0.4, epochs=40))
    assert log[-1]["l_mot"] < log[0]["l_mot"]


def test_training_determinism():
    def run():
        sample = make_sample(seed=10, num_frames=5)
        model = TrackerModel("full", TINY_STUDENT, seed=11)
        return train(model, [sample], TrainConfig(alpha=0.4, epochs=3))

    assert run() == run()


def test_training_log_csv_format(tmp_path):
    sample = make_sample(seed=12, num_frames=5)
    model = TrackerModel("full", TINY_STUDENT, seed=13)
    path = tmp_path / "log.csv"
    log = train(model, [sample], TrainConfig(alpha=0.4, epochs=2))
    write_training_log(log, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(LOG_COLUMNS)
    assert len(rows) == len(log) + 1
    assert float(rows[1][5]) == pytest.approx(log[0]["l_distill"], rel=1e-9)


def test_frozen_loss_logits_stay_fixed_under_training():
    sample = make_sample(seed=14, num_frames=5)
    model = TrackerModel("distill", TINY_STUDENT, seed=15)
    before = model.dcsd.loss_logits.value.data.copy()
    log = train(model, [sample], TrainConfig(alpha=0.4, epochs=3))
    assert np.array_equal(model.dcsd.loss_logits.value.data, before)
    assert all(row["w1"] == row["w2"] == 0.5 for row in log)


def test_trainable_loss_logits_move():
    sample = make_sample(seed=16, num_frames=5)
    model = TrackerModel("dcsd", TINY_STUDENT, seed=17)
    before = model.dcsd.loss_logits.value.data.copy()
    train(model, [sample], TrainConfig(alpha=0.4, epochs=5))
    assert not np.array_equal(model.dcsd.loss_logits.value.data, before)


def test_dswr_parameters_receive_gradients():
    sample = make_sample(seed=18, degraded=True, num_frames=5)
    model = TrackerModel("full", TINY_STUDENT, seed=19)
    with Tape() as tape:
        losses = scene_losses(model, sample, TrainConfig(alpha=0.4), QualityRanges())
        tape.backward(losses["total"])
    assert model.dswr.w.value.grad is not None
    assert model.dswr.b.value.grad is not None


def test_a_full_step_gives_every_leaf_a_gradient_buffer_of_its_own():
    # Parameter.step writes its update into the gradient, which is safe only
    # while no other leaf's gradient and no parameter value share its memory
    sample = make_sample(seed=18, degraded=True, num_frames=5)
    model = TrackerModel("full", seed=19)
    with Tape() as tape:
        tape.backward(scene_losses(model, sample, TrainConfig(alpha=0.4),
                                   QualityRanges())["total"])
    params = model.parameters()
    grads = [p.value.grad for p in params if p.value.grad is not None]
    assert len(grads) == sum(p.trainable for p in params)
    for i, grad in enumerate(grads):
        assert grad.base is None and grad.flags.writeable
        assert not any(np.shares_memory(grad, other) for other in grads[i + 1:])
        assert not any(np.shares_memory(grad, p.value.data) for p in params)


def test_training_leaves_no_gradient_behind():
    sample = make_sample(seed=18, degraded=True, num_frames=5)
    model = TrackerModel("full", TINY_STUDENT, seed=19)
    train(model, [sample], TrainConfig(alpha=0.4, epochs=2))
    assert all(p.value.grad is None for p in model.parameters())


def test_mot_loss_gradient_matches_fd_on_embed_bias():
    # spot-check the full tracking-loss graph against finite differences
    sample = make_sample(seed=20, num_frames=4)
    model = TrackerModel("baseline", seed=21)
    train_config = TrainConfig(alpha=0.4)
    quality_ranges = QualityRanges()

    with Tape() as tape:
        losses = scene_losses(model, sample, train_config, quality_ranges)
        tape.backward(losses["total"])
    analytic = model.embed_bias.value.grad.copy()

    base = model.embed_bias.value.data.copy()

    def f(x):
        from semtrack.autodiff import Parameter
        model.embed_bias = Parameter(x, name="embed.bias")
        value = scene_losses(model, sample, train_config, quality_ranges)["total"].item()
        model.embed_bias = Parameter(base, name="embed.bias")
        return value

    indices = list(range(0, 256, 37))
    numeric = finite_diff(f, base, indices=indices)
    for i, fd_value in numeric.items():
        assert_grad_close(analytic.reshape(-1)[i], fd_value, f"embed.bias[{i}]")
