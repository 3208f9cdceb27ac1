import json

import numpy as np
import pytest

from semtrack.metrics import evaluate
from semtrack.scenes import (Detection, DetectorNoise, SceneConfig, TargetSpec,
                             generate_scene, random_scene_config, synth_detector)
from semtrack.student import StudentConfig
from semtrack.tracker import (DESCRIPTOR_DIM, TrackerConfig, TrackerModel,
                              box_descriptor, track_sequence)

TINY_STUDENT = StudentConfig(input_dim=256, hidden_dim=32, num_heads=2, ff_dim=64,
                             output_dim=256)


def separated_scene(seed=0):
    return SceneConfig(
        num_frames=12, seed=seed,
        targets=(
            TargetSpec(track_id=1, x=8, y=8, vx=1.5, vy=0.5, width=14, height=14,
                       intensity=0.8, texture_seed=seed + 1),
            TargetSpec(track_id=2, x=90, y=60, vx=-1.5, vy=-0.5, width=14, height=14,
                       intensity=0.2, texture_seed=seed + 2),
        ))


def test_descriptor_shape_and_geometry():
    frame = np.random.default_rng(0).uniform(0, 1, (96, 128))
    desc = box_descriptor(frame, (12.0, 24.0, 16.0, 32.0))
    assert desc.shape == (1, DESCRIPTOR_DIM)
    assert desc[0, 0] == pytest.approx(12.0 / 128)
    assert desc[0, 1] == pytest.approx(24.0 / 96)
    assert desc[0, 2] == pytest.approx(16.0 / 128)
    assert desc[0, 3] == pytest.approx(32.0 / 96)


def test_untrained_tracker_perfect_on_separated_targets():
    frames, gt = generate_scene(separated_scene(seed=3))
    dets = synth_detector(frames, gt, DetectorNoise(), seed=1)
    model = TrackerModel(use_student=True, use_dswr=True,
                         student_config=TINY_STUDENT, seed=42)
    pred = track_sequence(frames, dets, model)
    report = evaluate(gt, pred)
    assert report.mota == 1.0
    assert report.idf1 == 1.0


def test_untrained_baseline_tracker_also_perfect_when_separated():
    frames, gt = generate_scene(separated_scene(seed=5))
    dets = synth_detector(frames, gt, DetectorNoise(), seed=2)
    model = TrackerModel(use_student=False, seed=0)
    pred = track_sequence(frames, dets, model)
    report = evaluate(gt, pred)
    assert report.mota == 1.0
    assert report.idf1 == 1.0


def test_empty_detections_give_empty_trackset():
    frames, _ = generate_scene(separated_scene(seed=7))
    model = TrackerModel(use_student=False, seed=0)
    pred = track_sequence(frames, [], model)
    assert len(pred) == 0


def test_detection_outside_sequence_rejected():
    frames, _ = generate_scene(separated_scene(seed=9))
    model = TrackerModel(use_student=False, seed=0)
    with pytest.raises(ValueError):
        track_sequence(frames, [Detection(frame=99, box=(0, 0, 5, 5), confidence=0.9)],
                       model)


def test_propagation_threshold_is_strict():
    cfg = TrackerConfig()
    # a track at exactly 0.5 confidence must not be carried; 0.5 + eps must be
    assert not (0.5 > cfg.propagate_confidence)
    assert 0.5 + 1e-9 > cfg.propagate_confidence


def test_low_confidence_detections_do_not_start_tracks():
    frames, gt = generate_scene(separated_scene(seed=11))
    low = [Detection(frame=r.frame, box=r.box, confidence=0.3)
           for r in sorted(gt, key=lambda r: (r.frame, r.track_id))]
    model = TrackerModel(use_student=False, seed=0)
    pred = track_sequence(frames, low, model)
    assert len(pred) == 0  # below the birth threshold, never matched


def test_association_is_one_to_one_per_frame():
    frames, gt = generate_scene(random_scene_config(seed=13, num_targets=4))
    dets = synth_detector(frames, gt, DetectorNoise(jitter_sigma=1.0, fp_rate=0.3),
                          seed=3)
    model = TrackerModel(use_student=False, seed=1)
    pred = track_sequence(frames, dets, model)
    for frame, records in pred.by_frame().items():
        ids = [r.track_id for r in records]
        assert len(ids) == len(set(ids))


def test_tracker_determinism():
    frames, gt = generate_scene(random_scene_config(seed=17))
    dets = synth_detector(frames, gt, DetectorNoise(jitter_sigma=0.8, fp_rate=0.2),
                          seed=4)
    model_args = dict(use_student=True, use_dswr=True, student_config=TINY_STUDENT,
                      seed=5)
    pred_a = track_sequence(frames, dets, TrackerModel(**model_args))
    pred_b = track_sequence(frames, dets, TrackerModel(**model_args))
    assert [(r.frame, r.track_id, r.box, r.confidence) for r in pred_a] \
        == [(r.frame, r.track_id, r.box, r.confidence) for r in pred_b]


def test_track_survives_short_gap_with_same_id():
    frames, gt = generate_scene(separated_scene(seed=19))
    dets = synth_detector(frames, gt, DetectorNoise(), seed=5)
    # drop all detections from one middle frame: tracks must coast through
    dets = [d for d in dets if d.frame != 5]
    model = TrackerModel(use_student=False, seed=0)
    pred = track_sequence(frames, dets, model)
    assert len(pred.ids()) == 2


def test_parameter_counts():
    base = TrackerModel(use_student=False, seed=0)
    assert base.added_parameter_count() == 0
    full = TrackerModel(use_student=True, use_dswr=True, seed=0)
    expected_tracker = (DESCRIPTOR_DIM * 256 + 256) + (256 * 4 + 4)
    assert full.tracker_parameter_count() == expected_tracker
    added = full.added_parameter_count()
    assert added == full.student.parameter_count() + full.dcsd.parameter_count() + 2


def test_model_save_load_round_trip(tmp_path):
    model = TrackerModel(use_student=True, use_dswr=True, student_config=TINY_STUDENT,
                         seed=21)
    frames, gt = generate_scene(separated_scene(seed=23))
    dets = synth_detector(frames, gt, DetectorNoise(jitter_sigma=0.5), seed=6)
    before = track_sequence(frames, dets, model)
    path = tmp_path / "model.bin"
    model.save(path)
    loaded = TrackerModel.load(path)
    after = track_sequence(frames, dets, loaded)
    assert [(r.frame, r.track_id, r.box) for r in before] \
        == [(r.frame, r.track_id, r.box) for r in after]


def _drop_dswr_b(header, blob):
    header["params"] = [e for e in header["params"] if e["name"] != "dswr.b"]
    return header, blob


def _add_extra(header, blob):
    header["params"].append({"name": "dswr.extra", "rows": 1, "cols": 1,
                             "offset": len(blob)})
    return header, blob + np.zeros(1, dtype="<f8").tobytes()


def _transpose_embed_bias(header, blob):
    entry = next(e for e in header["params"] if e["name"] == "embed.bias")
    entry["rows"], entry["cols"] = entry["cols"], entry["rows"]
    return header, blob


def _trailing_bytes(header, blob):
    return header, blob + b"\0" * 8


def _shift_offset(header, blob):
    entry = next(e for e in header["params"] if e["name"] == "dswr.w")
    entry["offset"] += 8
    return header, blob


def _foreign_format(header, blob):
    header["format"] = "semtrack-student-v1"
    return header, blob


def _drop_use_student(header, blob):
    del header["use_student"]
    return header, blob


def _unknown_student_key(header, blob):
    header["student_config"]["bogus"] = 1
    return header, blob


def _entry_without_rows(header, blob):
    del next(e for e in header["params"] if e["name"] == "dswr.w")["rows"]
    return header, blob


@pytest.mark.parametrize("corrupt, message", [
    (_drop_dswr_b, r"missing parameters \['dswr.b'\]"),
    (_add_extra, r"unknown parameters \['dswr.extra'\]"),
    (_transpose_embed_bias, r"'embed.bias' is \(256, 1\)"),
    (_trailing_bytes, "8 bytes after the last parameter"),
    (_shift_offset, "'dswr.w' starts at byte"),
    (_foreign_format, "not a semtrack-tracker-v1 model file"),
    (_drop_use_student, r"header is missing keys \['use_student'\]"),
    (_unknown_student_key, r"student_config .*unknown keys \['bogus'\]"),
    (_entry_without_rows, r"parameter entry is missing keys \['rows'\]"),
], ids=["missing", "extra", "shape", "trailing", "offset", "format", "no-use-student",
        "unknown-student-key", "entry-without-rows"])
def test_load_rejects_malformed_file(tmp_path, corrupt, message):
    path = tmp_path / "model.bin"
    TrackerModel(use_student=True, use_dswr=True, student_config=TINY_STUDENT,
                 seed=3).save(path)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        blob = fh.read()
    header, blob = corrupt(header, blob)
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + blob)
    with pytest.raises(ValueError, match=message):
        TrackerModel.load(path)


def test_frozen_loss_logits_variant():
    model = TrackerModel(use_student=True, use_dswr=False, train_loss_weights=False,
                         student_config=TINY_STUDENT, seed=2)
    assert not model.dcsd.loss_logits.trainable
    assert model.dswr is None
