import json

import numpy as np
import pytest

from semtrack import tracker
from semtrack.autodiff import Matrix
from semtrack.degrade import DEFAULT_CHAIN, DegradationChain, apply_chain
from semtrack.experiment import build_model
from semtrack.metrics import evaluate
from semtrack.quality import QualityRanges
from semtrack.scenes import (Detection, DetectorNoise, SceneConfig, TargetSpec,
                             generate_scene, random_scene_config, synth_detector)
from semtrack.student import StudentConfig, StudentModel
from semtrack.tracker import (DESCRIPTOR_BLOCK_BOXES, DESCRIPTOR_DIM, INFERENCE_DTYPE,
                              PROPAGATE_CONFIDENCE, VARIANTS, TrackerModel, associate,
                              box_descriptor, prepare_sequence, queries, sequence_rows,
                              track_sequence)
from semtrack.tracks import TrackSet

from oracles import by_frame, per_box_descriptor, reference_track_sequence, track_ids

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
    desc = box_descriptor([frame], [(12.0, 24.0, 16.0, 32.0)])
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
    got = box_descriptor([frame], [boxes])
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
        assert box_descriptor([frame], [boxes]).tobytes() == expected.tobytes()


def per_box_reference(frames, boxes_per_frame):
    rows = [per_box_descriptor(frame, box)
            for frame, boxes in zip(frames, boxes_per_frame) for box in boxes]
    return np.concatenate(rows) if rows else np.zeros((0, DESCRIPTOR_DIM))


def random_boxes(rng, count, height, width):
    return [(float(rng.uniform(-10, width)), float(rng.uniform(-10, height)),
             float(rng.uniform(0.1, 40)), float(rng.uniform(0.1, 40)))
            for _ in range(count)]


# boxes per frame of a 7-frame sequence; 0 marks a frame without boxes
B = DESCRIPTOR_BLOCK_BOXES
SEQUENCE_COUNTS = {
    "empty-start-middle-end": [0, 3, 5, 0, 1, 4, 0],
    "every-frame": [2, 1, 6, 3, 1, 1, 2],
    "one-frame": [0, 0, 0, 9, 0, 0, 0],
    "no-boxes": [0] * 7,
    # blocks of frames of up to B boxes; a frame of more is a block alone
    "blocks": [B // 2, 0, B // 3, B // 4, 0, B + 12, B // 2],
    "full-blocks": [B // 2, B // 2, 1, B - 1, 1, B, 0],
}


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("counts", SEQUENCE_COUNTS.values(), ids=SEQUENCE_COUNTS)
def test_sequence_box_descriptor_equals_the_per_box_reference(counts, order):
    rng = np.random.default_rng(2)
    frames = [np.asarray(rng.uniform(0, 1, (48, 64)), order=order) for _ in counts]
    assert all(frame.flags.f_contiguous == (order == "F") for frame in frames)
    boxes = [random_boxes(rng, count, 48, 64) for count in counts]
    got = box_descriptor(frames, boxes)
    expected = per_box_reference(frames, boxes)
    assert got.shape == (sum(counts), DESCRIPTOR_DIM)
    assert got.tobytes() == expected.tobytes()


def test_sequence_box_descriptor_of_an_empty_sequence_is_0_x_70():
    assert box_descriptor([], []).shape == (0, DESCRIPTOR_DIM)


def test_sequence_box_descriptor_on_read_only_views_of_one_degraded_block():
    rng = np.random.default_rng(4)
    clean = [rng.uniform(0, 1, (40, 56)) for _ in range(6)]
    frames = apply_chain(DegradationChain(DEFAULT_CHAIN, master_seed=4), clean, "s")
    assert not any(frame.flags.writeable for frame in frames)
    assert all(frame.base is frames[0].base for frame in frames)
    boxes = [random_boxes(rng, count, 40, 56) for count in (4, 0, 2, 7, 0, 3)]
    assert box_descriptor(frames, boxes).tobytes() == \
        per_box_reference(frames, boxes).tobytes()


def test_sequence_box_descriptor_rejects_a_mismatched_sequence():
    frames = [np.zeros((20, 30)), np.zeros((20, 31))]
    box = (1.0, 2.0, 5.0, 5.0)
    with pytest.raises(ValueError, match="2 frames but boxes for 1"):
        box_descriptor(frames, [[box]])
    with pytest.raises(ValueError, match="shape"):
        box_descriptor(frames, [[box], [box]])


def test_sequence_rows_stack_only_the_frames_with_detections():
    # the first, a middle and the last frame have no detections
    rng = np.random.default_rng(6)
    frames = [rng.uniform(0, 1, (48, 64)) for _ in range(6)]
    counts = [0, 2, 0, 3, 1, 0]
    dets = [Detection(frame=f, box=box, confidence=0.8)
            for f in (4, 1, 3) for box in random_boxes(rng, counts[f], 48, 64)]
    rows = tracker.sequence_rows(frames, dets)
    assert rows.frame_ids == [1, 3, 4]
    assert all(a is frames[f] for a, f in zip(rows.frames, rows.frame_ids, strict=True))
    assert rows.detections == [[d for d in dets if d.frame == f] for f in rows.frame_ids]
    assert rows.starts.tolist() == [0, 2, 5, 6]
    assert rows.segments.tolist() == [0, 0, 1, 1, 1, 2]
    stacked = [d.box for frame_dets in rows.detections for d in frame_dets]
    assert rows.boxes.tolist() == [list(box) for box in stacked]
    expected = per_box_reference(rows.frames, [[d.box for d in frame_dets]
                                               for frame_dets in rows.detections])
    assert rows.descriptors.data.tobytes() == expected.tobytes()


def test_sequence_rows_without_detections_are_empty():
    frames = [np.zeros((20, 30))] * 4
    rows = tracker.sequence_rows(frames, [])
    assert (rows.frame_ids, rows.frames, rows.detections) == ([], [], [])
    assert rows.starts.tolist() == [0]
    assert rows.segments.shape == (0,) and rows.segments.dtype.kind == "i"
    assert rows.boxes.shape == (0, 4)
    assert rows.descriptors.shape == (0, DESCRIPTOR_DIM)


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


def test_one_missed_frame_is_bridged_only_from_above_the_decay_boundary():
    # a miss multiplies the confidence by MISS_DECAY 0.7: a track born at
    # 0.72 is still carried after missing frame 1 (0.504 > 0.5), one born at
    # 0.71 is not (0.497), so frame 2's detection starts a new track
    frames = [np.random.default_rng(0).uniform(0, 1, (32, 32))] * 3
    box = (8.0, 8.0, 10.0, 10.0)

    def ids(frame0_confidence):
        dets = [Detection(frame=0, box=box, confidence=frame0_confidence),
                Detection(frame=2, box=box, confidence=0.9)]
        pred = track_sequence(frames, dets, TrackerModel("baseline", seed=0))
        return [(r.frame, r.track_id) for r in pred]

    assert ids(0.72) == [(0, 1), (2, 1)]
    assert ids(0.71) == [(0, 1), (2, 2)]


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
    for frame, records in by_frame(pred).items():
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


def noisy_scene():
    """A 6-target jittery scene with detector jitter, false positives and misses."""
    frames, gt = generate_scene(random_scene_config(seed=0, num_targets=6, num_frames=24,
                                                    jitter=1.5))
    dets = synth_detector(frames, gt, DetectorNoise(jitter_sigma=2.0, fp_rate=0.4,
                                                    fn_rate=0.3), seed=0)
    return frames, dets


def records_of(frames, dets, model):
    return [(r.frame, r.track_id, r.box, r.confidence)
            for r in track_sequence(frames, dets, model)]


@pytest.mark.parametrize("variant", VARIANTS)
def test_track_sequence_equals_the_reference(variant):
    # the reference runs the student in float64, the tracker in float32
    frames, dets = noisy_scene()
    model = TrackerModel(variant, TINY_STUDENT, seed=3)
    records = records_of(frames, dets, model)
    assert records == [(r.frame, r.track_id, r.box, r.confidence)
                       for r in reference_track_sequence(frames, dets, model)]
    # the scene exercises both ends of a track's life: a track carried
    # through a missed frame, and a match too weak to be carried further
    seen = {(frame, track_id) for frame, track_id, _, _ in records}
    assert any((f + 1, i) not in seen and (f + 2, i) in seen for f, i in seen)
    assert any(confidence <= PROPAGATE_CONFIDENCE for *_, confidence in records)


@pytest.mark.parametrize("variant", ["distill", "full"])
def test_a_frame_without_detections_runs_no_student(monkeypatch, variant):
    frames, dets = noisy_scene()
    dets = [d for d in dets if d.frame not in (5, 6)]
    model = TrackerModel(variant, TINY_STUDENT, seed=3)
    expected = [(r.frame, r.track_id, r.box, r.confidence)
                for r in reference_track_sequence(frames, dets, model)]
    calls = []
    forward = StudentModel.forward

    def counting(self, x, segments):
        calls.append(x.rows)
        return forward(self, x, segments)

    monkeypatch.setattr(StudentModel, "forward", counting)
    records = records_of(frames, dets, model)
    assert len(calls) == len({d.frame for d in dets}) == len(frames) - 2
    assert records == expected
    # a track is carried into frame 5, so the frame had rows to encode
    assert any(f == 4 and c > PROPAGATE_CONFIDENCE for f, _, _, c in records)


@pytest.mark.parametrize("variant", VARIANTS)
def test_track_sequence_equals_the_reference_around_frames_without_detections(variant):
    # the first, a middle and the last frame have no detections
    frames, dets = noisy_scene()
    empty = (0, 11, len(frames) - 1)
    dets = [d for d in dets if d.frame not in empty]
    model = TrackerModel(variant, TINY_STUDENT, seed=3)
    records = records_of(frames, dets, model)
    assert records == [(r.frame, r.track_id, r.box, r.confidence)
                       for r in reference_track_sequence(frames, dets, model)]
    assert not {f for f, *_ in records} & set(empty)
    assert any(f == 10 and c > PROPAGATE_CONFIDENCE for f, _, _, c in records)


def count_calls(monkeypatch, calls, owner, name):
    """Replace ``owner.name`` by a wrapper that appends to ``calls[name]``."""
    original = getattr(owner, name)
    calls[name] = []

    def counted(*args):
        calls[name].append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_sequence_without_detections_gives_an_empty_trackset(monkeypatch, variant):
    frames, _ = noisy_scene()
    calls = {}
    for owner, name in ((tracker, "assess_quality"), (StudentModel, "forward")):
        count_calls(monkeypatch, calls, owner, name)
    pred = track_sequence(frames, [], TrackerModel(variant, TINY_STUDENT, seed=3))
    assert isinstance(pred, TrackSet) and len(pred) == 0
    assert calls == {"assess_quality": [], "forward": []}


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_sequence_gathers_its_descriptors_and_quality_once(monkeypatch, variant):
    frames, dets = noisy_scene()
    dets = [d for d in dets if d.frame not in (0, 7, 8)]
    model = TrackerModel(variant, TINY_STUDENT, seed=3)
    expected = records_of(frames, dets, model)
    calls = {}
    for owner, name in ((tracker, "sequence_rows"), (tracker, "box_descriptor"),
                        (tracker, "assess_quality"), (TrackerModel, "quality_column"),
                        (StudentModel, "forward")):
        count_calls(monkeypatch, calls, owner, name)
    assert records_of(frames, dets, model) == expected
    detected = len({d.frame for d in dets})
    assert len(calls["sequence_rows"]) == 1
    assert len(calls["box_descriptor"]) == 1
    assert len(calls["quality_column"]) == 1
    assert len(calls["assess_quality"]) == (detected if variant == "full" else 0)
    assert len(calls["forward"]) == (0 if variant == "baseline" else detected)
    # only the frames with detections are gathered
    (sequence, boxes), = calls["box_descriptor"]
    kept = sorted({d.frame for d in dets})
    assert all(a is frames[f] for a, f in zip(sequence, kept, strict=True))
    assert [len(b) for b in boxes] == [sum(d.frame == f for d in dets) for f in kept]


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_sequence_wraps_its_descriptors_once(monkeypatch, variant):
    # one Matrix (a copy and a scan) for the sequence's descriptors; then per
    # frame with detections one for its queries, whose cast to float32 may
    # overflow, and one for a student variant's fusion weight
    frames, dets = noisy_scene()
    dets = [d for d in dets if d.frame not in (0, 7, 8)]
    model = TrackerModel(variant, TINY_STUDENT, seed=3)
    expected = records_of(frames, dets, model)     # casts the student to float32
    built = []
    init = Matrix.__init__

    def counting(self, *args, **kwargs):
        built.append(np.shape(args[0]))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Matrix, "__init__", counting)
    assert records_of(frames, dets, model) == expected
    detected = len({d.frame for d in dets})
    assert built[0] == (len(dets), DESCRIPTOR_DIM)
    assert len(built) == 1 + detected * (1 if variant == "baseline" else 2)


@pytest.mark.parametrize("variant", ["baseline", "full"])
def test_the_steps_carry_exactly_the_tracks_above_the_threshold(variant):
    # stepping a sequence by hand gives track_sequence's records frame by
    # frame, and between frames the state holds, in birth order, the tracks
    # carried into the next one, each with its last match's box and its
    # confidence decayed since
    frames, dets = noisy_scene()
    dets = [d for d in dets if d.frame not in (3, 4)]
    model = TrackerModel(variant, TINY_STUDENT, seed=3)
    expected = by_frame(track_sequence(frames, dets, model))
    state = prepare_sequence(frames, dets, model, QualityRanges())
    segment_of = {f: k for k, f in enumerate(state.rows.frame_ids)}
    row_dets = [det for segment in state.rows.detections for det in segment]
    confidence, box = {}, {}
    for frame_index in range(len(frames)):
        segment, fused = segment_of.get(frame_index), None
        if segment is not None:
            x = queries(state, segment)
            assert x.rows == len(state.ids) + len(state.rows.detections[segment])
            fused = model.encode_queries(x, state.quality, np.full(x.rows, segment))[0]
        ids, rows = associate(state, frame_index, segment, fused)
        assert ids.dtype == rows.dtype == np.int64
        # the records are the track ids and their detections' rows in the state
        ids, chosen = ids.tolist(), [row_dets[row] for row in rows.tolist()]
        assert [(r.track_id, r.box, r.confidence) for r in expected.get(frame_index, [])] \
            == [(i, d.box, d.confidence) for i, d in zip(ids, chosen, strict=True)]
        confidence = {i: c * tracker.MISS_DECAY for i, c in confidence.items()}
        for i, det in zip(ids, chosen):
            confidence[i], box[i] = det.confidence, det.box
        confidence = {i: c for i, c in confidence.items() if c > PROPAGATE_CONFIDENCE}
        carried = sorted(confidence)       # ids are given in birth order
        assert state.ids.tolist() == carried
        assert state.confidences.tolist() == [confidence[i] for i in carried]
        assert state.boxes.tolist() == [list(box[i]) for i in carried]
        assert state.features.shape == (len(carried), 256)
        assert state.features.dtype == np.float64
    assert state.next_id == max(box) + 1


def test_a_sequence_is_stepped_one_frame_at_a_time():
    frames, dets = noisy_scene()
    state = prepare_sequence(frames, dets, TrackerModel("baseline", seed=3), QualityRanges())
    with pytest.raises(ValueError, match="stepped frame 1, but the sequence is at frame 0"):
        associate(state, 1, None, None)


def test_track_survives_short_gap_with_same_id():
    frames, gt = generate_scene(separated_scene(seed=19))
    dets = synth_detector(frames, gt, DetectorNoise(), seed=5)
    # drop all detections from one middle frame: tracks must coast through
    dets = [d for d in dets if d.frame != 5]
    model = TrackerModel("baseline", seed=0)
    pred = track_sequence(frames, dets, model)
    assert len(track_ids(pred)) == 2


def test_parameter_counts():
    base = TrackerModel("baseline", seed=0)
    assert base.added_parameter_count() == 0
    full = TrackerModel("full", seed=0)
    expected_tracker = (DESCRIPTOR_DIM * 256 + 256) + (256 * 4 + 4)
    assert full.tracker_parameter_count() == expected_tracker
    added = full.added_parameter_count()
    student = sum(p.value.data.size for p in full.student.named_parameters().values())
    dcsd = sum(p.value.data.size for p in full.dcsd.parameters())
    assert added == student + dcsd + 2


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


def _repeated_seed(header, blob):
    # a header's JSON text with "seed" twice, the first value a valid one
    return json.dumps(header, sort_keys=True).replace('"seed": ', '"seed": 3, "seed": '), blob


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
    (_repeated_seed, "repeated JSON key 'seed'"),
], ids=["missing", "extra", "shape", "trailing", "offset", "format", "v1-format",
        "no-variant", "unknown-variant", "unknown-student-key", "entry-without-rows",
        "variant-int", "seed-str", "seed-bool", "student-value-str", "entry-name-int",
        "entry-rows-float", "entry-cols-str", "entry-offset-null", "duplicate-entry",
        "repeated-key"])
def test_load_rejects_malformed_file(tmp_path, corrupt, message):
    path = tmp_path / "model.bin"
    TrackerModel("full", TINY_STUDENT, seed=3).save(path)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        blob = fh.read()
    header, blob = corrupt(header, blob)
    # a corruption returns the header as an object, or as JSON text of its own
    text = header if isinstance(header, str) else json.dumps(header, sort_keys=True)
    path.write_bytes(text.encode() + b"\n" + blob)
    with pytest.raises(ValueError, match=message):
        TrackerModel.load(path)


def test_frozen_loss_logits_variant():
    model = TrackerModel("distill", TINY_STUDENT, seed=2)
    assert not model.dcsd.loss_logits.trainable
    assert model.dswr is None


@pytest.mark.parametrize("variant", VARIANTS)
def test_only_a_student_reads_float32_queries(monkeypatch, variant):
    seen = set()
    encode = TrackerModel.encode_queries

    def spy(self, x, quality, segments):
        fused, semantic = encode(self, x, quality, segments)
        seen.add((x.data.dtype.type, fused.data.dtype.type))
        return fused, semantic

    monkeypatch.setattr(TrackerModel, "encode_queries", spy)
    records_of(*noisy_scene(), TrackerModel(variant, TINY_STUDENT, seed=3))
    # the fusion promotes back to float64, so the association costs are float64
    queries = np.float64 if variant == "baseline" else INFERENCE_DTYPE
    assert seen == {(queries, np.float64)}


@pytest.mark.parametrize("variant", VARIANTS)
def test_tracking_hands_the_model_what_training_does(monkeypatch, variant):
    # the sequence's whole F x 1 quality column, and each query row labelled
    # with its frame's segment: frame 0 has no detections, so segment k is
    # frame k + 1 or later
    frames, dets = noisy_scene()
    dets = [d for d in dets if d.frame not in (0, 7)]
    model = TrackerModel(variant, TINY_STUDENT, seed=3)
    rows = sequence_rows(frames, dets)
    column = model.quality_column(rows.frames, QualityRanges())
    seen = []
    encode = TrackerModel.encode_queries

    def spy(self, x, quality, segments):
        seen.append((x.rows, quality, np.array(segments)))
        return encode(self, x, quality, segments)

    monkeypatch.setattr(TrackerModel, "encode_queries", spy)
    records_of(frames, dets, model)
    assert len(seen) == len(rows.frame_ids)
    for segment, (n, quality, labels) in enumerate(seen):
        assert n >= len(rows.detections[segment])
        assert labels.shape == (n,) and np.all(labels == segment)
        if variant == "full":
            assert quality.shape == (len(rows.frame_ids), 1)
            assert quality.tobytes() == column.tobytes()
        else:
            assert quality is None and column is None


def holding_weights_of(model):
    """A freshly built model of ``model``'s kind that holds copies of its weights."""
    fresh = TrackerModel(model.variant, model.student_config, model.seed)
    weights = model.named_parameters()
    for name, p in fresh.named_parameters().items():
        p.value = Matrix(weights[name].value.data, requires_grad=p.trainable)
    return fresh


def step_student_to(model, other, learning_rate=0.5):
    """One :meth:`TrackerModel.step` that moves ``model``'s student, and only
    it, to (within rounding) ``other``'s student."""
    targets = other.named_parameters()
    for name, p in model.named_parameters().items():
        if name.startswith("student."):
            p.value.grad = (p.value.data - targets[name].value.data) / learning_rate
    model.step(learning_rate)


def test_tracking_after_a_step_reads_the_stepped_student():
    frames, dets = noisy_scene()
    model = TrackerModel("full", TINY_STUDENT, seed=3)
    before = records_of(frames, dets, model)       # casts the student to float32
    step_student_to(model, TrackerModel("full", TINY_STUDENT, seed=11))
    after = records_of(frames, dets, model)
    assert after == records_of(frames, dets, holding_weights_of(model))
    # the two students track the scene differently, so tracking with the
    # float32 copy of the old weights would show
    assert after != before


def test_tracking_after_a_load_reads_the_loaded_student(tmp_path):
    frames, dets = noisy_scene()
    model = TrackerModel("full", TINY_STUDENT, seed=3)
    built = records_of(frames, dets, model)
    step_student_to(model, TrackerModel("full", TINY_STUDENT, seed=11))
    model.save(tmp_path / "model.bin")
    # load builds the seed's model, then replaces its values by the file's
    loaded = records_of(frames, dets, TrackerModel.load(tmp_path / "model.bin"))
    assert loaded == records_of(frames, dets, holding_weights_of(model))
    assert loaded != built


def test_tracking_leaves_the_model_file_unchanged(tmp_path):
    model = TrackerModel("full", TINY_STUDENT, seed=3)
    model.save(tmp_path / "before.bin")
    records_of(*noisy_scene(), model)
    model.save(tmp_path / "after.bin")
    assert (tmp_path / "after.bin").read_bytes() == (tmp_path / "before.bin").read_bytes()
    assert all(p.value.data.dtype == np.float64 for p in model.parameters())


# the default evaluation sequences each variant tracks, all eight between them
DEFAULT_SEQUENCES = {"distill": slice(0, 4), "dcsd": slice(2, 6), "full": slice(4, 8)}


@pytest.mark.parametrize("variant", list(DEFAULT_SEQUENCES))
def test_the_default_student_tracked_in_float32_gives_the_float64_records(
        variant, default_evaluation):
    # the full-size student, whose float32 products of a few rows run in
    # column blocks; the reference runs it in float64, in single products
    config, corpus = default_evaluation
    model = build_model(config, variant)
    for sample in corpus[DEFAULT_SEQUENCES[variant]]:
        records = [(r.frame, r.track_id, r.box, r.confidence)
                   for r in track_sequence(sample.frames, sample.detections, model,
                                           config.tracker_config())]
        reference = reference_track_sequence(sample.frames, sample.detections, model,
                                             config.tracker_config())
        assert records and records == [(r.frame, r.track_id, r.box, r.confidence)
                                       for r in reference]
