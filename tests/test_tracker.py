import json

import numpy as np
import pytest

from semtrack.metrics import evaluate
from semtrack.scenes import (Detection, DetectorNoise, SceneConfig, TargetSpec,
                             generate_scene, random_scene_config, synth_detector)
from semtrack.student import StudentConfig
from semtrack.tracker import (DESCRIPTOR_DIM, PROPAGATE_CONFIDENCE, VARIANTS, TrackerModel,
                              box_descriptor, track_sequence)

from oracles import per_box_descriptor

TINY_STUDENT = StudentConfig(hidden_dim=32, num_heads=2, ff_dim=64)


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


# (l, t, w, h) on a 48 x 64 frame, by the crop each box gives
DESCRIPTOR_CASES = {
    "clipped-left": [(-5.5, 10.2, 12.0, 9.0)],
    "clipped-top": [(20.3, -3.0, 7.5, 11.0)],
    "clipped-right": [(58.6, 12.0, 15.0, 10.0)],
    "clipped-bottom": [(30.0, 44.2, 9.0, 20.0)],
    "negative-origin": [(-9.0, -7.5, 20.0, 14.0), (-30.0, -30.0, 10.0, 10.0)],
    "one-row": [(10.2, 20.3, 5.5, 0.4)],
    "one-column": [(33.1, 5.0, 0.3, 17.0)],
    "one-pixel": [(40.25, 30.5, 0.2, 0.1)],
    "exactly-8x8": [(16.0, 8.0, 8.0, 8.0), (3.5, 4.5, 7.0, 7.0)],
    "16x8": [(2.0, 30.0, 8.0, 16.0)],
}


@pytest.mark.parametrize("boxes", [
    *DESCRIPTOR_CASES.values(),
    [box for boxes in DESCRIPTOR_CASES.values() for box in boxes],
], ids=[*DESCRIPTOR_CASES, "all-at-once"])
def test_box_descriptor_equals_the_per_box_reference(boxes):
    frame = np.random.default_rng(0).uniform(0, 1, (48, 64))
    expected = np.concatenate([per_box_descriptor(frame, box) for box in boxes])
    got = box_descriptor(frame, boxes)
    assert got.shape == (len(boxes), DESCRIPTOR_DIM)
    assert got.tobytes() == expected.tobytes()


def test_box_descriptor_equals_the_per_box_reference_on_random_boxes():
    rng = np.random.default_rng(1)
    for _ in range(20):
        height, width = (int(v) for v in rng.integers(12, 120, size=2))
        frame = rng.uniform(0, 1, (height, width))
        boxes = [(float(rng.uniform(-10, width)), float(rng.uniform(-10, height)),
                  float(rng.uniform(0.1, 40)), float(rng.uniform(0.1, 40)))
                 for _ in range(int(rng.integers(1, 25)))]
        expected = np.concatenate([per_box_descriptor(frame, box) for box in boxes])
        assert box_descriptor(frame, boxes).tobytes() == expected.tobytes()


def test_untrained_tracker_perfect_on_separated_targets():
    frames, gt = generate_scene(separated_scene(seed=3))
    dets = synth_detector(frames, gt, DetectorNoise(), seed=1)
    model = TrackerModel("full", TINY_STUDENT, seed=42)
    pred = track_sequence(frames, dets, model)
    report = evaluate(gt, pred)
    assert report.mota == 1.0
    assert report.idf1 == 1.0


def test_untrained_baseline_tracker_also_perfect_when_separated():
    frames, gt = generate_scene(separated_scene(seed=5))
    dets = synth_detector(frames, gt, DetectorNoise(), seed=2)
    model = TrackerModel("baseline", seed=0)
    pred = track_sequence(frames, dets, model)
    report = evaluate(gt, pred)
    assert report.mota == 1.0
    assert report.idf1 == 1.0


def test_empty_detections_give_empty_trackset():
    frames, _ = generate_scene(separated_scene(seed=7))
    model = TrackerModel("baseline", seed=0)
    pred = track_sequence(frames, [], model)
    assert len(pred) == 0


def test_detection_outside_sequence_rejected():
    frames, _ = generate_scene(separated_scene(seed=9))
    model = TrackerModel("baseline", seed=0)
    with pytest.raises(ValueError):
        track_sequence(frames, [Detection(frame=99, box=(0, 0, 5, 5), confidence=0.9)],
                       model)


def test_propagation_threshold_is_strict():
    # a track matched at frame 1 takes that detection's confidence; it is
    # carried into frame 2 only if the confidence exceeds the threshold, and
    # otherwise frame 2's detection is born under a new id
    frames = [np.random.default_rng(0).uniform(0, 1, (32, 32))] * 3
    box = (8.0, 8.0, 10.0, 10.0)

    def ids(frame1_confidence):
        dets = [Detection(frame=0, box=box, confidence=0.9),
                Detection(frame=1, box=box, confidence=frame1_confidence),
                Detection(frame=2, box=box, confidence=0.9)]
        pred = track_sequence(frames, dets, TrackerModel("baseline", seed=0))
        return [(r.frame, r.track_id) for r in pred]

    assert ids(PROPAGATE_CONFIDENCE) == [(0, 1), (1, 1), (2, 2)]
    assert ids(PROPAGATE_CONFIDENCE + 1e-9) == [(0, 1), (1, 1), (2, 1)]


def test_low_confidence_detections_do_not_start_tracks():
    frames, gt = generate_scene(separated_scene(seed=11))
    low = [Detection(frame=r.frame, box=r.box, confidence=0.3)
           for r in sorted(gt, key=lambda r: (r.frame, r.track_id))]
    model = TrackerModel("baseline", seed=0)
    pred = track_sequence(frames, low, model)
    assert len(pred) == 0  # below the birth threshold, never matched


def test_association_is_one_to_one_per_frame():
    frames, gt = generate_scene(random_scene_config(seed=13, num_targets=4))
    dets = synth_detector(frames, gt, DetectorNoise(jitter_sigma=1.0, fp_rate=0.3),
                          seed=3)
    model = TrackerModel("baseline", seed=1)
    pred = track_sequence(frames, dets, model)
    for frame, records in pred.by_frame().items():
        ids = [r.track_id for r in records]
        assert len(ids) == len(set(ids))


def test_tracker_determinism():
    frames, gt = generate_scene(random_scene_config(seed=17))
    dets = synth_detector(frames, gt, DetectorNoise(jitter_sigma=0.8, fp_rate=0.2),
                          seed=4)
    pred_a = track_sequence(frames, dets, TrackerModel("full", TINY_STUDENT, seed=5))
    pred_b = track_sequence(frames, dets, TrackerModel("full", TINY_STUDENT, seed=5))
    assert [(r.frame, r.track_id, r.box, r.confidence) for r in pred_a] \
        == [(r.frame, r.track_id, r.box, r.confidence) for r in pred_b]


def test_track_survives_short_gap_with_same_id():
    frames, gt = generate_scene(separated_scene(seed=19))
    dets = synth_detector(frames, gt, DetectorNoise(), seed=5)
    # drop all detections from one middle frame: tracks must coast through
    dets = [d for d in dets if d.frame != 5]
    model = TrackerModel("baseline", seed=0)
    pred = track_sequence(frames, dets, model)
    assert len(pred.ids()) == 2


def test_parameter_counts():
    base = TrackerModel("baseline", seed=0)
    assert base.added_parameter_count() == 0
    full = TrackerModel("full", seed=0)
    expected_tracker = (DESCRIPTOR_DIM * 256 + 256) + (256 * 4 + 4)
    assert full.tracker_parameter_count() == expected_tracker
    added = full.added_parameter_count()
    assert added == full.student.parameter_count() + full.dcsd.parameter_count() + 2


def test_model_save_load_round_trip(tmp_path):
    model = TrackerModel("full", TINY_STUDENT, seed=21)
    frames, gt = generate_scene(separated_scene(seed=23))
    dets = synth_detector(frames, gt, DetectorNoise(jitter_sigma=0.5), seed=6)
    before = track_sequence(frames, dets, model)
    path = tmp_path / "model.bin"
    model.save(path)
    loaded = TrackerModel.load(path)
    after = track_sequence(frames, dets, loaded)
    assert [(r.frame, r.track_id, r.box) for r in before] \
        == [(r.frame, r.track_id, r.box) for r in after]


@pytest.mark.parametrize("variant", VARIANTS)
def test_model_file_names_its_variant(tmp_path, variant):
    model = TrackerModel(variant, TINY_STUDENT, seed=4)
    path = tmp_path / "model.bin"
    model.save(path)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
    assert set(header) == {"format", "variant", "seed", "student_config", "params"}
    assert (header["format"], header["variant"]) == ("semtrack-tracker-v2", variant)
    loaded = TrackerModel.load(path)
    assert (loaded.variant, loaded.student_config, loaded.seed) == (variant, TINY_STUDENT, 4)
    named = model.named_parameters()
    assert {name: (p.value.data.tobytes(), p.trainable)
            for name, p in loaded.named_parameters().items()} \
        == {name: (p.value.data.tobytes(), p.trainable) for name, p in named.items()}


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


def _previous_format(header, blob):
    header["format"] = "semtrack-tracker-v1"
    return header, blob


def _drop_variant(header, blob):
    del header["variant"]
    return header, blob


def _unknown_variant(header, blob):
    header["variant"] = "dswr"
    return header, blob


def _unknown_student_key(header, blob):
    header["student_config"]["bogus"] = 1
    return header, blob


def _entry_without_rows(header, blob):
    del next(e for e in header["params"] if e["name"] == "dswr.w")["rows"]
    return header, blob


def _duplicate_first_entry(header, blob):
    header["params"].append(dict(header["params"][0]))
    return header, blob


def _set(*keys, value):
    """A corruption that sets the header value ``keys`` lead to."""
    def corrupt(header, blob):
        target = header
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return header, blob
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (_drop_dswr_b, r"missing parameters \['dswr.b'\]"),
    (_add_extra, r"unknown parameters \['dswr.extra'\]"),
    (_transpose_embed_bias, r"'embed.bias' is \(256, 1\)"),
    (_trailing_bytes, "8 bytes after the last parameter"),
    (_shift_offset, "'dswr.w' starts at byte"),
    (_foreign_format, "not a semtrack-tracker-v2 model file"),
    (_previous_format, "not a semtrack-tracker-v2 model file"),
    (_drop_variant, r"header is missing keys \['variant'\]"),
    (_unknown_variant, "unknown variant 'dswr'"),
    (_unknown_student_key, r"student_config .*unknown keys \['bogus'\]"),
    (_entry_without_rows, r"parameter entry is missing keys \['rows'\]"),
    (_set("variant", value=1), "header key 'variant' must be str, got 1"),
    (_set("seed", value="x"), "header key 'seed' must be int, got 'x'"),
    (_set("seed", value=True), "header key 'seed' must be int, got True"),
    (_set("student_config", "hidden_dim", value="8"),
     "student_config key 'hidden_dim' must be int, got '8'"),
    (_set("params", 0, "name", value=3), "parameter entry key 'name' must be str, got 3"),
    (_set("params", 0, "rows", value=1.0), "parameter entry key 'rows' must be int"),
    (_set("params", 0, "cols", value="1"), "parameter entry key 'cols' must be int"),
    (_set("params", 0, "offset", value=None), "parameter entry key 'offset' must be int"),
    (_duplicate_first_entry, r"parameters listed more than once: \['box_head.bias'\]"),
], ids=["missing", "extra", "shape", "trailing", "offset", "format", "v1-format",
        "no-variant", "unknown-variant", "unknown-student-key", "entry-without-rows",
        "variant-int", "seed-str", "seed-bool", "student-value-str", "entry-name-int",
        "entry-rows-float", "entry-cols-str", "entry-offset-null", "duplicate-entry"])
def test_load_rejects_malformed_file(tmp_path, corrupt, message):
    path = tmp_path / "model.bin"
    TrackerModel("full", TINY_STUDENT, seed=3).save(path)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        blob = fh.read()
    header, blob = corrupt(header, blob)
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + blob)
    with pytest.raises(ValueError, match=message):
        TrackerModel.load(path)


def test_frozen_loss_logits_variant():
    model = TrackerModel("distill", TINY_STUDENT, seed=2)
    assert not model.dcsd.loss_logits.trainable
    assert model.dswr is None
