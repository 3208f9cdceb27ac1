import math

import numpy as np
import pytest

from semtrack.scenes import (MAX_FALSE_BOX, Detection, DetectorNoise, SceneConfig,
                             TargetSpec, crossing_preset, detections_by_frame,
                             generate_scene, random_scene_config, synth_detector)
from semtrack.tracks import TrackRecord, TrackSet, box_iou

from oracles import by_frame


def test_scene_determinism():
    config = random_scene_config(seed=3)
    frames_a, gt_a = generate_scene(config)
    frames_b, gt_b = generate_scene(config)
    assert all(np.array_equal(a, b) for a, b in zip(frames_a, frames_b))
    assert [(r.frame, r.track_id, r.box) for r in gt_a] \
        == [(r.frame, r.track_id, r.box) for r in gt_b]


def test_two_targets_ten_frames_counting():
    config = SceneConfig(
        num_frames=10,
        targets=(
            TargetSpec(track_id=1, x=5, y=5, vx=1.0, vy=0.5, width=12, height=12,
                       intensity=0.8, texture_seed=1),
            TargetSpec(track_id=2, x=80, y=40, vx=-1.0, vy=0.0, width=12, height=12,
                       intensity=0.2, texture_seed=2),
        ))
    frames, gt = generate_scene(config)
    assert len(frames) == 10
    assert len(gt) == 20


def test_boxes_stay_inside_frame():
    config = random_scene_config(seed=11, num_targets=4, num_frames=60)
    _, gt = generate_scene(config)
    for record in gt:
        l, t, w, h = record.box
        assert l >= 0 and t >= 0
        assert l + w <= config.width and t + h <= config.height


def test_frames_stay_in_unit_range():
    frames, _ = generate_scene(random_scene_config(seed=5))
    for frame in frames:
        assert frame.min() >= 0.0 and frame.max() <= 1.0


def test_frames_are_read_only():
    frames, _ = generate_scene(random_scene_config(seed=5, num_frames=3))
    for frame in frames:
        assert frame.base is None and not frame.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            frame[0, 0] = 0.5


def test_scene_validation():
    with pytest.raises(ValueError):
        SceneConfig(targets=())
    with pytest.raises(ValueError):
        SceneConfig(num_frames=1, targets=(
            TargetSpec(track_id=1, x=0, y=0, vx=0, vy=0, width=10, height=10,
                       intensity=0.5, texture_seed=0),))
    with pytest.raises(ValueError):
        SceneConfig(targets=(
            TargetSpec(track_id=1, x=0, y=0, vx=0, vy=0, width=500, height=10,
                       intensity=0.5, texture_seed=0),))


def test_crossing_preset_overlaps_mid_sequence():
    config = crossing_preset(seed=2)
    _, gt = generate_scene(config)
    grouped = by_frame(gt)
    overlaps = []
    for frame, records in grouped.items():
        if len(records) == 2:
            overlaps.append(box_iou(records[0].box, records[1].box))
    assert max(overlaps) > 0.3  # the two targets really cross
    assert overlaps[0] == 0.0 and overlaps[-1] == 0.0  # separated at the ends


def test_noiseless_detector_reproduces_gt():
    frames, gt = generate_scene(random_scene_config(seed=7))
    dets = synth_detector(frames, gt, DetectorNoise(), seed=1)
    assert len(dets) == len(gt)
    gt_sorted = sorted(gt, key=lambda r: (r.frame, r.track_id))
    for det, record in zip(dets, gt_sorted):
        assert det.frame == record.frame
        assert det.box == record.box
        assert det.confidence == 0.9


def test_detector_noise_validation():
    with pytest.raises(ValueError):
        DetectorNoise(fn_rate=1.0)
    with pytest.raises(ValueError):
        DetectorNoise(fp_rate=-0.1)
    with pytest.raises(ValueError):
        DetectorNoise(jitter_sigma=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="jitter_sigma must be finite"):
            DetectorNoise(jitter_sigma=bad)
        with pytest.raises(ValueError, match="fp_rate"):
            DetectorNoise(fp_rate=bad)
        with pytest.raises(ValueError, match="fn_rate"):
            DetectorNoise(fn_rate=bad)


@pytest.mark.parametrize("box", [
    (math.nan, 1.0, 5.0, 5.0), (1.0, math.inf, 5.0, 5.0), (1.0, 1.0, -math.inf, 5.0),
    (1.0, 1.0, 5.0, math.nan), (1.0, 1.0, -5.0, 5.0), (1.0, 1.0, 5.0, 0.0),
], ids=["nan-left", "infinite-top", "infinite-width", "nan-height", "negative-width",
        "zero-height"])
def test_detection_rejects_a_non_finite_or_empty_box(box):
    with pytest.raises(ValueError, match="box must be finite with a positive width"):
        Detection(frame=0, box=box, confidence=0.5)


def test_false_positive_rate_binomial():
    frames, gt = generate_scene(random_scene_config(seed=9, num_frames=100))
    dets = synth_detector(frames, gt, DetectorNoise(fp_rate=0.5), seed=4)
    n_false = len(dets) - len(gt)
    # Binomial(100, 0.5): 99% interval is about [37, 63]
    assert 37 <= n_false <= 63


def test_false_boxes_need_frames_of_max_false_box():
    frames = [np.zeros((29, 29))] * 64
    with pytest.raises(ValueError, match="30x30 \\(MAX_FALSE_BOX\\), got 29x29"):
        synth_detector(frames, TrackSet(), DetectorNoise(fp_rate=0.9), seed=0)
    # without false boxes the frame size does not matter
    assert synth_detector(frames, TrackSet(), DetectorNoise(fp_rate=0.0), seed=0) == []
    frames = [np.zeros((MAX_FALSE_BOX, MAX_FALSE_BOX))] * 64
    assert synth_detector(frames, TrackSet(), DetectorNoise(fp_rate=0.9), seed=0)


def test_fn_rate_drops_boxes():
    frames, gt = generate_scene(random_scene_config(seed=13, num_frames=50))
    dets = synth_detector(frames, gt, DetectorNoise(fn_rate=0.5), seed=5)
    assert len(dets) < len(gt)


def test_detector_determinism_and_grouping():
    frames, gt = generate_scene(random_scene_config(seed=15))
    a = synth_detector(frames, gt, DetectorNoise(jitter_sigma=1.0, fp_rate=0.2), seed=6)
    b = synth_detector(frames, gt, DetectorNoise(jitter_sigma=1.0, fp_rate=0.2), seed=6)
    assert a == b
    grouped = detections_by_frame(a, len(frames))
    assert sum(len(v) for v in grouped.values()) == len(a)


@pytest.mark.parametrize("frame", [-1, 32])
def test_detections_by_frame_rejects_a_frame_outside_the_sequence(frame):
    det = Detection(frame=frame, box=(0.0, 0.0, 5.0, 5.0), confidence=0.9)
    with pytest.raises(ValueError, match=f"frame {frame} outside sequence of 32"):
        detections_by_frame([det], 32)


def test_jittered_confidence_below_point_nine():
    frames, gt = generate_scene(random_scene_config(seed=17))
    dets = synth_detector(frames, gt, DetectorNoise(jitter_sigma=2.0), seed=7)
    assert all(0.05 <= d.confidence <= 0.9 for d in dets)
    assert any(d.confidence < 0.9 for d in dets)


def test_every_field_of_a_jittered_detection_is_a_python_float(default_evaluation):
    # the default corpus jitters every box; boxes that fill their frame are
    # clamped to the frame's size, and half of them to each side
    _, corpus = default_evaluation
    dets = [d for sample in corpus for d in sample.detections]
    gt = TrackSet([TrackRecord(f, 1, (0.0, 0.0, 32.0, 24.0)) for f in range(8)])
    filled = synth_detector([np.zeros((24, 32))] * 8, gt, DetectorNoise(jitter_sigma=3.0),
                            seed=0)
    assert any(d.box[2:] == (32.0, 24.0) for d in filled)
    assert all(type(v) is float for d in dets + filled for v in (*d.box, d.confidence))
