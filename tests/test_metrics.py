import ast
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import semtrack
from semtrack import experiment, metrics
from semtrack.config import ExperimentConfig, SceneParams
from semtrack.metrics import (ALPHAS, UndefinedMetricError, evaluate, frame_table, hota,
                              idf1, mota)
from semtrack.tracker import track_sequence
from semtrack.tracks import (Records, TrackRecord, TrackSet, box_iou, broadcast_iou,
                             iou_matrix)

from oracles import (brute_hota, brute_idf1, brute_mota, by_frame, random_sequence,
                     random_tiny_case, reference_evaluate, reference_frame_table,
                     reference_potential, track_ids)


def simple_track(track_id, frames, box):
    return [TrackRecord(frame=f, track_id=track_id, box=box) for f in frames]


def test_box_iou_basics():
    assert box_iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0
    assert box_iou((0, 0, 10, 10), (20, 20, 5, 5)) == 0.0
    assert box_iou((0, 0, 10, 10), (5, 0, 10, 10)) == pytest.approx(50 / 150)
    assert box_iou((0, 0, 0, 10), (0, 0, 10, 10)) == 0.0  # degenerate


def assert_iou_matrix_is_box_iou(a, b):
    got = iou_matrix(a, b)
    assert got.shape == (len(a), len(b))
    assert [[v.hex() for v in row] for row in got.tolist()] == \
        [[box_iou(x, y).hex() for y in b] for x in a]


def random_boxes(rng, n):
    return [tuple(box) for box in np.column_stack(
        [rng.uniform(0, 60, (n, 2)), rng.uniform(1, 30, (n, 2))]).tolist()]


def test_iou_matrix_equals_box_iou_on_random_boxes():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n_a, n_b = rng.integers(1, 12, size=2)
        assert_iou_matrix_is_box_iou(random_boxes(rng, n_a), random_boxes(rng, n_b))


def test_iou_matrix_equals_box_iou_on_degenerate_and_touching_boxes():
    boxes = [(0.0, 0.0, 10.0, 10.0),
             (0.0, 0.0, 0.0, 10.0), (2.0, 2.0, 0.0, 5.0),        # zero width
             (0.0, 0.0, 10.0, -4.0), (1.0, 8.0, 3.0, -10.0),     # negative height
             (10.0, 0.0, 5.0, 10.0), (0.0, 10.0, 10.0, 5.0),     # touch at an edge
             (10.0, 10.0, 3.0, 3.0),                             # touch at a corner
             (5.0, 5.0, 10.0, 10.0), (0.0, 0.0, 10.0, 10.0)]
    assert_iou_matrix_is_box_iou(boxes, boxes)
    assert np.count_nonzero(iou_matrix(boxes[:1], boxes[1:8])) == 0


@pytest.mark.parametrize("n_a, n_b", [(0, 3), (3, 0), (0, 0)])
def test_iou_matrix_of_no_boxes_is_empty(n_a, n_b):
    boxes = [(float(i), 0.0, 5.0, 5.0) for i in range(3)]
    assert_iou_matrix_is_box_iou(boxes[:n_a], boxes[:n_b])


def test_broadcast_iou_of_aligned_pairs_equals_box_iou():
    rng = np.random.default_rng(9)
    a = random_boxes(rng, 20) + [(0.0, 0.0, 0.0, 4.0), (3.0, 3.0, 5.0, 5.0)]
    b = random_boxes(rng, 20) + [(0.0, 0.0, 4.0, 4.0), (8.0, 3.0, 2.0, 2.0)]
    got = broadcast_iou(np.array(a), np.array(b))
    assert got.shape == (len(a),)
    assert [v.hex() for v in got.tolist()] == [box_iou(x, y).hex() for x, y in zip(a, b)]
    assert broadcast_iou(np.zeros((0, 4)), np.zeros((0, 4))).shape == (0,)


def test_no_module_in_src_calls_box_iou():
    # box_iou is the scalar reference for tests (and a binding the benchmark
    # reads); the program scores box pairs through iou_matrix only
    callers = []
    for path in sorted(Path(semtrack.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    == "box_iou"):
                callers.append(f"{path.name}:{node.lineno}")
    assert callers == []


def test_trackset_validation():
    ts = TrackSet()
    ts.add(TrackRecord(frame=0, track_id=1, box=(0, 0, 5, 5)))
    with pytest.raises(ValueError):
        ts.add(TrackRecord(frame=0, track_id=1, box=(1, 1, 5, 5)))  # duplicate key
    with pytest.raises(ValueError):
        ts.add(TrackRecord(frame=0, track_id=0, box=(0, 0, 5, 5)))  # ids start at 1
    with pytest.raises(ValueError):
        ts.add(TrackRecord(frame=-1, track_id=2, box=(0, 0, 5, 5)))


@pytest.mark.parametrize("box, confidence", [
    ((float("nan"), 0.0, 5.0, 5.0), 1.0), ((0.0, float("inf"), 5.0, 5.0), 1.0),
    ((0.0, 0.0, -float("inf"), 5.0), 1.0), ((0.0, 0.0, 5.0, np.nan), 1.0),
    ((0.0, 0.0, 5.0, 5.0), float("nan")), ((0.0, 0.0, 5.0, 5.0), np.float64("inf"))],
    ids=["left", "top", "width", "height", "confidence-nan", "confidence-inf"])
def test_trackset_rejects_a_non_finite_box_or_confidence(box, confidence):
    # such a record would be written as a file that read refuses
    ts = TrackSet()
    with pytest.raises(ValueError, match="non-finite box or confidence for frame 0, id 1"):
        ts.add(TrackRecord(frame=0, track_id=1, box=box, confidence=confidence))
    assert len(ts) == 0
    ts.add(TrackRecord(frame=0, track_id=1, box=(0.0, 0.0, 5.0, 5.0)))   # the key is free


def test_trackset_frames_monotone_within_id():
    ts = TrackSet(simple_track(1, [0, 1, 2], (0, 0, 5, 5)))
    with pytest.raises(ValueError):
        ts.add(TrackRecord(frame=1, track_id=1, box=(0, 0, 5, 5)))


@pytest.mark.parametrize("frame", [2, 1], ids=["same-frame", "earlier-frame"])
def test_add_refuses_a_repeated_frame_and_id(frame):
    ts = TrackSet(simple_track(1, [0, 2], (0, 0, 5, 5)))
    message = ("duplicate record for frame 2, id 1" if frame == 2
               else "frames must be increasing within id 1")
    with pytest.raises(ValueError, match=f"^{message}$"):
        ts.add(TrackRecord(frame=frame, track_id=1, box=(0, 0, 5, 5)))
    assert len(ts) == 2


BOX = (0.0, 0.0, 5.0, 5.0)

# each block's first refused record and the message add gives it; the set
# already holds id 1 at frames 0 and 2
REFUSED_BLOCKS = {
    "id-zero": (3, [2, 0, 3], [BOX] * 3, [0.9] * 3, "track ids start at 1, got 0"),
    "repeated-id": (3, [2, 4, 2], [BOX] * 3, [0.9] * 3,
                    "duplicate record for frame 3, id 2"),
    "last-frame-of-an-id": (2, [3, 1], [BOX] * 2, [0.9] * 2,
                            "duplicate record for frame 2, id 1"),
    "before-last-frame-of-an-id": (1, [3, 1], [BOX] * 2, [0.9] * 2,
                                   "frames must be increasing within id 1"),
    "negative-frame": (-1, [2], [BOX], [0.9], "negative frame index -1"),
    "nan-box": (3, [2, 3], [BOX, (0.0, np.nan, 5.0, 5.0)], [0.9] * 2,
                "non-finite box or confidence for frame 3, id 3"),
    "inf-confidence": (3, [2, 3], [BOX] * 2, [0.9, float("inf")],
                       "non-finite box or confidence for frame 3, id 3"),
    "minus-inf-width": (3, [2], [(0.0, 0.0, -np.inf, 5.0)], [0.9],
                        "non-finite box or confidence for frame 3, id 2"),
    "short-box": (3, [2, 3], [BOX, (0.0, 0.0, 5.0)], [0.9] * 2,
                  r"a box is \(l, t, w, h\), got \(0.0, 0.0, 5.0\) for frame 3, id 3"),
}


@pytest.mark.parametrize("block", REFUSED_BLOCKS.values(), ids=REFUSED_BLOCKS.keys())
def test_add_frame_refuses_a_block_as_add_refuses_its_record(block):
    frame, ids, boxes, confidences, message = block
    held = simple_track(1, [0, 2], BOX)
    ts = TrackSet(held)
    with pytest.raises(ValueError, match=f"^{message}$"):
        ts.add_frame(frame, ids, boxes, confidences)
    assert ts.records == held      # a refused block adds nothing
    one_by_one = TrackSet(held)
    with pytest.raises(ValueError, match=f"^{message}$"):
        for record in map(TrackRecord, [frame] * len(ids), ids, boxes, confidences):
            one_by_one.add(record)


# the blocks above as arrays, n x 4 boxes and all, and an n x 3 box array
ARRAY_BLOCKS = {name: block for name, block in REFUSED_BLOCKS.items()
                if name != "short-box"}
ARRAY_BLOCKS["three-column-boxes"] = (
    3, [2, 3], [(0.0, 0.0, 5.0)] * 2, [0.9] * 2,
    r"a box is \(l, t, w, h\), got \(0.0, 0.0, 5.0\) for frame 3, id 2")


@pytest.mark.parametrize("block", ARRAY_BLOCKS.values(), ids=ARRAY_BLOCKS.keys())
def test_add_frame_refuses_an_array_block_as_add_refuses_its_record(block):
    frame, ids, boxes, confidences, message = block
    held = simple_track(1, [0, 2], BOX)
    ts = TrackSet(held)
    with pytest.raises(ValueError, match=f"^{message}$"):
        ts.add_frame(frame, np.array(ids), np.array(boxes), np.array(confidences))
    one_by_one = TrackSet(held)
    with pytest.raises(ValueError, match=f"^{message}$"):
        for record in map(TrackRecord, [frame] * len(ids), ids, boxes, confidences):
            one_by_one.add(record)
    # the refused block added no record and claimed no (frame, id)
    assert ts.records == held and len(ts) == 2
    ts.add_frame(3, np.array([2, 3, 4]), np.array([BOX] * 3), np.array([0.9] * 3))
    assert len(ts) == 5


@pytest.mark.parametrize("ids, shown", [
    ([1.5], "1.5"), ([2, 1.5], "1.5"), (np.array([2.0, 0.5]), "0.5"),
    ([float("nan")], "nan"), ([np.inf], "inf"), (["2"], "2")])
def test_add_frame_refuses_a_non_integer_id(ids, shown):
    # an int64 cast would make 1.5 id 1; written as it is, read refuses it
    ts = TrackSet()
    with pytest.raises(ValueError, match=f"^track ids must be integers, got {shown}$"):
        ts.add_frame(0, ids, [BOX] * len(ids), [0.5] * len(ids))
    assert len(ts) == 0


@pytest.mark.parametrize("frame", [1.5, float("nan"), "1"])
def test_add_frame_refuses_a_non_integer_frame(frame):
    with pytest.raises(ValueError, match=f"^frames must be integers, got {frame}$"):
        TrackSet().add_frame(frame, [1], [BOX], [0.5])


# blocks add_frame accepts, of every input kind it takes
ACCEPTED_BLOCKS = [
    (0, [1], [(0, 0, 5, 5)], [1]),
    (np.int64(1), [2.0, 3], [[1.5, -2.25, 1e308, 0.0], (0.125, 3.0, 7.0, 8.0)],
     [0.5, np.float64(1e-7)]),
    (2.0, np.array([3, 2 ** 62 + 1], dtype=np.int64),
     np.array([(-1e-3, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0, 8.0)]), np.array([0.25, -3.0])),
    (4, np.array([9], dtype=np.uint8), np.array([(1.0, 1.0, 2.0, 2.0)], dtype=np.float32),
     np.array([0.75], dtype=np.float32)),
    (7, np.array([2.0, 1.0]), [np.array([1.0, 2.0, 3.0, 4.0])] * 2, (0.5, 0.5)),
]


def test_whatever_add_frame_accepts_round_trips_through_write_and_read(tmp_path):
    ts = TrackSet()
    for block in ACCEPTED_BLOCKS:
        ts.add_frame(*block)
    path = tmp_path / "pred.txt"
    ts.write(path)
    back = TrackSet.read(path)
    ordered = sorted(ts, key=lambda r: (r.frame, r.track_id))
    assert [(r.frame, r.track_id) for r in back] == [(r.frame, r.track_id) for r in ordered]
    assert [(r.box, r.confidence) for r in back] == \
        [(tuple(float(f"{v:.2f}") for v in r.box), float(f"{r.confidence:.6f}"))
         for r in ordered]
    again = tmp_path / "again.txt"
    back.write(again)
    assert again.read_bytes() == path.read_bytes()


def records_case():
    ts = TrackSet(simple_track(7, [0, 1], (0.5, 1.0, 10.0, 12.0)))
    ts.add_frame(1, np.array([3, 9]), np.array([(1.0, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0, 8.0)]),
                 np.array([0.25, 1.0]))
    ts.add_frame(0, [2], [(-1.0, 0.0, 2.0, 2.0)], [0.5])
    listed = [TrackRecord(0, 7, (0.5, 1.0, 10.0, 12.0), 1.0),
              TrackRecord(1, 7, (0.5, 1.0, 10.0, 12.0), 1.0),
              TrackRecord(1, 3, (1.0, 2.0, 3.0, 4.0), 0.25),
              TrackRecord(1, 9, (5.0, 6.0, 7.0, 8.0), 1.0),
              TrackRecord(0, 2, (-1.0, 0.0, 2.0, 2.0), 0.5)]
    return ts, listed


def test_records_equal_a_list_of_records_and_records_of_equal_columns():
    ts, listed = records_case()
    records = ts.records
    assert isinstance(records, Records) and len(records) == len(ts) == 5
    assert records == listed and listed == records
    assert records != listed[:-1] and records != listed[::-1]
    assert records == TrackSet(listed).records
    assert records != TrackSet(listed[:-1]).records
    assert records != TrackSet(listed[:-1] + [listed[-1]._replace(confidence=0.75)]).records
    assert records != tuple(listed)     # a list, not any sequence
    with pytest.raises(TypeError):
        hash(records)


def test_records_repr_is_the_list_repr():
    ts, listed = records_case()
    assert repr(ts.records) == repr(listed)
    assert repr(listed[2]) == \
        "TrackRecord(frame=1, track_id=3, box=(1.0, 2.0, 3.0, 4.0), confidence=0.25)"
    assert repr(TrackSet().records) == "[]"


def test_records_slices_and_indices_read_the_columns():
    ts, listed = records_case()
    records = ts.records
    for index in (slice(1, 3), slice(None, None, -2), slice(4, 1), slice(None)):
        assert isinstance(records[index], Records)
        assert records[index] == listed[index]
    assert [records[i] for i in range(-5, 5)] == listed[-5:] + listed
    with pytest.raises(IndexError):
        records[5]
    assert list(reversed(records)) == listed[::-1] and listed[3] in records
    assert TrackSet(records[1:]).records == listed[1:]


def test_records_hold_python_ints_and_floats():
    ts, _ = records_case()
    records = ts.records
    for record in [*records, *(records[i] for i in range(len(records)))]:
        assert type(record.frame) is int and type(record.track_id) is int
        assert type(record.box) is tuple
        assert [type(v) for v in (*record.box, record.confidence)] == [float] * 5


def test_columns_are_read_only_and_a_set_grows_after_reading_them():
    ts, listed = records_case()
    columns = ts.columns()
    with pytest.raises(ValueError):
        columns.boxes[0, 0] = 1.0
    ts.add_frame(2, [7], [(0.0, 0.0, 1.0, 1.0)], [0.5])
    assert ts.records == listed + [TrackRecord(2, 7, (0.0, 0.0, 1.0, 1.0), 0.5)]
    assert columns.frames.tolist() == [r.frame for r in listed]   # unchanged


def test_frame_blocks_keep_each_frames_records_in_the_order_added():
    ts, listed = records_case()
    blocks = ts.frame_blocks()
    assert list(blocks) == [0, 1]
    for frame, block in blocks.items():
        assert Records(block) == [r for r in listed if r.frame == frame]
    assert TrackSet().frame_blocks() == {}


def test_add_frame_refuses_blocks_of_unequal_lengths():
    with pytest.raises(ValueError, match="2 ids, 1 boxes and 2 confidences for frame 0"):
        TrackSet().add_frame(0, [1, 2], [BOX], [0.9, 0.9])


def test_add_frame_adds_records_in_order_as_copies_of_their_values():
    boxes = np.array([(1.0, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0, 8.0)])
    confidences = np.array([0.75, 0.5])
    ts = TrackSet(simple_track(7, [0], BOX))
    ts.add_frame(1, np.array([7, 3]), boxes, confidences)
    ts.add_frame(2, [], [], [])
    # the set copies the arrays it is given
    boxes[:] = 0.0
    confidences[:] = 0.0
    assert ts.records == [TrackRecord(0, 7, BOX, 1.0),
                          TrackRecord(1, 7, (1.0, 2.0, 3.0, 4.0), 0.75),
                          TrackRecord(1, 3, (5.0, 6.0, 7.0, 8.0), 0.5)]
    # a sum of finite values that overflows is no non-finite record
    ts.add_frame(3, [7, 3], [(1e308, 0.0, 5.0, 5.0), (1e308, 0.0, 5.0, 5.0)], [0.5, 0.5])
    assert len(ts) == 5


def test_mot_file_round_trip(tmp_path):
    ts = TrackSet(simple_track(1, [0, 1], (3.0, 4.0, 10.0, 12.0))
                  + simple_track(2, [1], (20.0, 21.0, 8.0, 9.0)))
    path = tmp_path / "pred.txt"
    ts.write(path)
    text = path.read_text()
    assert text.splitlines()[0] == "1,1,3.00,4.00,10.00,12.00,1.000000,-1,-1,-1"
    back = TrackSet.read(path)
    assert len(back) == 3
    assert back.records[0].frame == 0 and back.records[0].track_id == 1


@pytest.mark.parametrize("field, value", [
    (0, "nan"), (1, "inf"), (2, "nan"), (3, "inf"), (4, "-inf"), (5, "nan"),
    (6, "nan"), (6, "inf")])
def test_read_rejects_a_non_finite_field(tmp_path, field, value):
    fields = "1,1,3.00,4.00,10.00,12.00,1.000000,-1,-1,-1".split(",")
    fields[field] = value
    path = tmp_path / "pred.txt"
    path.write_text("1,2,0.00,0.00,5.00,5.00,0.500000,-1,-1,-1\n" + ",".join(fields) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: non-finite field")):
        TrackSet.read(path)


@pytest.mark.parametrize("frame, track_id, message", [
    ("1.7", "2", "frame and id must be integers"),
    ("2", "2.9", "frame and id must be integers"),
    ("1.5e0", "1", "frame and id must be integers"),
    ("0", "1", "frames start at 1, got 0"),
    ("-3", "1", "frames start at 1, got -3")])
def test_read_rejects_a_fractional_or_out_of_range_frame_or_id(tmp_path, frame, track_id,
                                                              message):
    path = tmp_path / "pred.txt"
    path.write_text("1,2,0.00,0.00,5.00,5.00,0.500000,-1,-1,-1\n"
                    f"{frame},{track_id},3.00,4.00,10.00,12.00,1.000000,-1,-1,-1\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
        TrackSet.read(path)


@pytest.mark.parametrize("lines, lineno, message", [
    (["1,2", "1,2"], 2, "duplicate record for frame 0, id 2"),
    (["1,2", "3,0"], 2, "track ids start at 1, got 0"),
    (["1,2", "3,2", "2,2"], 3, "frames must be increasing within id 2"),
    (["1,2", "2,x"], 2, "could not convert string to float: 'x'")],
    ids=["repeated-frame-and-id", "id-zero", "decreasing-frame", "non-numeric"])
def test_read_names_the_line_of_every_record_it_refuses(tmp_path, lines, lineno, message):
    path = tmp_path / "pred.txt"
    path.write_text("".join(f"{line},3.00,4.00,10.00,12.00,1.000000,-1,-1,-1\n"
                            for line in lines))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{lineno}: {message}')}$"):
        TrackSet.read(path)


def test_read_accepts_integers_written_as_floats(tmp_path):
    path = tmp_path / "pred.txt"
    path.write_text("2.0,3.00,0.00,0.00,5.00,5.00,0.500000,-1,-1,-1\n")
    (record,) = TrackSet.read(path).records
    assert (record.frame, record.track_id) == (1, 3)


def table_case():
    """Frames 0, 1 and 4 hold both sides (frame 1 two boxes of each), frame 2
    ground truth only, frame 3 predictions only; ids not added in order."""
    gt = TrackSet(simple_track(7, [0, 1, 2, 4], (0.0, 0.0, 10.0, 10.0))
                  + simple_track(3, [1], (4.0, 4.0, 8.0, 6.0)))
    pred = TrackSet(simple_track(5, [1, 3], (2.0, 1.0, 10.0, 10.0))
                    + simple_track(2, [0, 1, 4], (0.0, 0.0, 10.0, 5.0))
                    + [TrackRecord(frame=4, track_id=9, box=(20.0, 20.0, 0.0, 5.0))])
    return gt, pred


@pytest.mark.parametrize("empty_pred", [False, True])
def test_frame_table_blocks_equal_iou_matrix_bit_for_bit(empty_pred):
    gt, pred = table_case()
    if empty_pred:
        pred = TrackSet()
    table = frame_table(gt, pred)
    gt_by_frame, pred_by_frame = by_frame(gt), by_frame(pred)
    frames = sorted(set(gt_by_frame) | set(pred_by_frame))
    assert table.frames.tolist() == frames
    assert (table.gt_ids.tolist(), table.pred_ids.tolist()) == (track_ids(gt), track_ids(pred))
    gt_recs = [gt_by_frame.get(f, []) for f in frames]
    pred_recs = [pred_by_frame.get(f, []) for f in frames]
    assert table.n_gt.tolist() == [len(recs) for recs in gt_recs]
    assert table.n_pred.tolist() == [len(recs) for recs in pred_recs]
    # records are numbered frame by frame in by_frame order
    assert table.gt_index.tolist() == \
        [track_ids(gt).index(r.track_id) for recs in gt_recs for r in recs]
    assert table.pred_index.tolist() == \
        [track_ids(pred).index(r.track_id) for recs in pred_recs for r in recs]
    # each frame's pairs, row-major, are its IoU block
    pairs, ious, blocks = [], [], []
    first_gt = first_pred = 0
    for g_recs, p_recs in zip(gt_recs, pred_recs):
        if g_recs and p_recs:
            blocks.append((len(pairs), len(g_recs), len(p_recs)))
        pairs += [(first_gt + i, first_pred + j)
                  for i in range(len(g_recs)) for j in range(len(p_recs))]
        ious += iou_matrix([r.box for r in g_recs], [r.box for r in p_recs]).ravel().tolist()
        first_gt += len(g_recs)
        first_pred += len(p_recs)
    assert list(zip(table.pair_gt.tolist(), table.pair_pred.tolist())) == pairs
    assert table.pair_cell.tolist() == \
        [table.gt_index[i] * len(track_ids(pred)) + table.pred_index[j] for i, j in pairs]
    assert [v.hex() for v in table.pair_iou.tolist()] == [v.hex() for v in ious]
    assert [tuple(b) for b in zip(*(a.tolist() for a in table.blocks()))] == blocks
    shapes = {(bool(g), bool(q)) for g, q in zip(gt_recs, pred_recs)}
    assert shapes == ({(True, False)} if empty_pred
                      else {(True, True), (True, False), (False, True)})


def report_bits(report):
    """Every field of a MetricReport, each float as its hex string."""
    c = report.counts
    return ([v.hex() for v in (report.hota, report.deta, report.assa, report.mota,
                               report.idf1)],
            (c.tp, c.fp, c.fn, c.idsw),
            [(alpha, [type(v).__name__ + v.hex() for v in values])
             for alpha, values in report.per_alpha.items()])


@pytest.mark.parametrize("n_ids, n_frames, cases", [(3, 5, 120), (6, 8, 60), (16, 12, 12)],
                         ids=["tiny", "small", "crowded"])
def test_evaluate_equals_the_per_frame_reference_bit_for_bit(n_ids, n_frames, cases):
    # crowded frames hold rows of 9 or more IoUs, which numpy sums pairwise
    rng = np.random.default_rng(n_ids)
    compared = 0
    for case in range(cases):
        gt, pred = random_sequence(rng, n_ids, n_frames)
        if len(gt) == 0:
            continue
        assert report_bits(evaluate(gt, pred)) == report_bits(reference_evaluate(gt, pred)), \
            f"case {case}"
        compared += 1
    assert compared >= cases * 3 // 4


def test_hota_potential_equals_the_per_frame_sums_bit_for_bit():
    # the potential only steers HOTA's matching, so a last-bit change in a
    # row or column sum rarely moves a score; compare it directly, with
    # frames of a single prediction against 8 or more ground truths
    rng = np.random.default_rng(12)
    for case in range(30):
        gt, pred = random_sequence(rng, int(rng.integers(1, 20)), 6)
        if case % 3 == 0:   # one wide prediction a frame overlaps most ground truths
            pred = TrackSet(TrackRecord(f, 1, tuple(rng.uniform(0, 5, 2).tolist())
                                        + (70.0, 70.0)) for f in range(6))
        got = metrics._potential(frame_table(gt, pred))
        expected = reference_potential(reference_frame_table(gt, pred))
        assert got.shape == expected.shape
        assert [v.hex() for v in got.ravel().tolist()] == \
            [v.hex() for v in expected.ravel().tolist()], f"case {case}"


def test_evaluate_equals_the_standalone_metrics():
    rng = np.random.default_rng(4)
    for case in range(20):
        gt, pred = random_tiny_case(rng)
        report = evaluate(gt, pred)
        table = frame_table(gt, pred)
        h, d, a, per_alpha = hota(gt, pred, table)
        m, counts = mota(gt, pred, table)
        assert (report.hota, report.deta, report.assa, report.per_alpha) == \
            (h, d, a, per_alpha), f"case {case}"
        assert (report.mota, report.counts) == (m, counts), f"case {case}"
        assert report.idf1 == idf1(gt, pred, table), f"case {case}"


def test_evaluate_builds_the_frame_table_once(monkeypatch):
    built = []

    def counting(gt, pred):
        built.append(1)
        return frame_table(gt, pred)

    monkeypatch.setattr(metrics, "frame_table", counting)
    gt, pred = random_tiny_case(np.random.default_rng(2))
    evaluate(gt, pred)
    assert len(built) == 1


# One track-crowded-shaped sequence (16 targets, 64 frames, jitter 0.5,
# degraded) tracked by the untrained baseline; the scores and counts were
# taken from the code before the metrics shared one frame table, so a
# reordered sum or a changed tie-break shows here first.
CROWDED_PIN = dict(hota=0.71803192749447, deta=0.834929090418565,
                   assa=0.6175810011989172, mota=0.927734375, idf1=0.7986006996501749)
CROWDED_COUNTS = (974, 3, 50, 21)   # tp, fp, fn, idsw
# (HOTA, DetA, AssA) at every alpha, as float.hex, from the code that summed
# one frame at a time: a reordered sum at one alpha shows even where the
# means hide it
CROWDED_PER_ALPHA = {
    0.05: ('0x1.9fb827aa70602p-1', '0x1.e593d12325a3cp-1', '0x1.63e957cb24638p-1'),
    0.1: ('0x1.9fb827aa70602p-1', '0x1.e593d12325a3cp-1', '0x1.63e957cb24638p-1'),
    0.15: ('0x1.9fb827aa70602p-1', '0x1.e593d12325a3cp-1', '0x1.63e957cb24638p-1'),
    0.2: ('0x1.9fb827aa70602p-1', '0x1.e593d12325a3cp-1', '0x1.63e957cb24638p-1'),
    0.25: ('0x1.9fb827aa70602p-1', '0x1.e593d12325a3cp-1', '0x1.63e957cb24638p-1'),
    0.3: ('0x1.9f0a63b77b9e2p-1', '0x1.e49b649b649b6p-1', '0x1.6375e8891a775p-1'),
    0.35: ('0x1.9dbcdf14ec866p-1', '0x1.e2abfe02fb86bp-1', '0x1.62a61238bf7fdp-1'),
    0.4: ('0x1.9dbcdf14ec866p-1', '0x1.e2abfe02fb86bp-1', '0x1.62a61238bf7fdp-1'),
    0.45: ('0x1.9d143d5bc90f7p-1', '0x1.e1b5033a59e2bp-1', '0x1.623a760900c08p-1'),
    0.5: ('0x1.9c7073c0782fap-1', '0x1.e0be82fa0be83p-1', '0x1.61d6d7315fafdp-1'),
    0.55: ('0x1.9bd157ed40632p-1', '0x1.dfc87ce6f8515p-1', '0x1.617aeff8ce814p-1'),
    0.6: ('0x1.9b7d127fadedap-1', '0x1.ded2f0a6600fep-1', '0x1.619f4ef19955ap-1'),
    0.65: ('0x1.9adde6c16cf7cp-1', '0x1.ddddddddddddep-1', '0x1.6142bf70082d9p-1'),
    0.7: ('0x1.99f17bd59ae11p-1', '0x1.dbf5234d44e02p-1', '0x1.6115c64e77395p-1'),
    0.75: ('0x1.91b01e3913557p-1', '0x1.d196792909c56p-1', '0x1.5a8edf9440f16p-1'),
    0.8: ('0x1.6acc4d64f87e3p-1', '0x1.9f29019f2901ap-1', '0x1.3d0a44a3ff028p-1'),
    0.85: ('0x1.0eaa52894e82ap-1', '0x1.3839aabc3dc93p-1', '0x1.d5465651d0fcfp-2'),
    0.9: ('0x1.0268de306a5cep-2', '0x1.24da7d09df186p-2', '0x1.c808a7e4c86dbp-3'),
    0.95: ('0x1.de928a174b3efp-5', '0x1.e11e11e11e11ep-5', '0x1.dc0a749b4fd62p-5'),
}


def test_crowded_sequence_scores_are_pinned():
    config = replace(ExperimentConfig(), num_eval_scenes=1,
                     scene=SceneParams(width=256, height=192, num_frames=64,
                                       num_targets=16, motion_jitter=0.5))
    (sample,) = experiment.evaluation_corpus(config)
    pred = track_sequence(sample.frames, sample.detections,
                          experiment.build_model(config, "baseline"),
                          config.tracker_config())
    report = evaluate(sample.gt, pred)
    assert {k: getattr(report, k) for k in CROWDED_PIN} == CROWDED_PIN
    c = report.counts
    assert (c.tp, c.fp, c.fn, c.idsw) == CROWDED_COUNTS
    assert {alpha: tuple(v.hex() for v in values)
            for alpha, values in report.per_alpha.items()} == CROWDED_PER_ALPHA


def test_evaluate_calls_the_assignment_once_a_frame_and_the_iou_once(monkeypatch):
    # the sums are whole-sequence array calls; only the per-frame Hungarian
    # calls of HOTA and MOTA and IDF1's one global call may loop
    calls = {"lsa": [], "iou": 0}

    def counting_lsa(cost):
        calls["lsa"].append(cost.shape)
        return linear_sum_assignment(cost)

    def counting_iou(a, b):
        calls["iou"] += 1
        return broadcast_iou(a, b)

    monkeypatch.setattr(metrics, "linear_sum_assignment", counting_lsa)
    monkeypatch.setattr(metrics, "broadcast_iou", counting_iou)
    gt, pred = random_sequence(np.random.default_rng(8), 6, 12)
    gt_by_frame, pred_by_frame = by_frame(gt), by_frame(pred)
    blocks = [(len(gt_by_frame[f]), len(pred_by_frame[f]))
              for f in sorted(set(gt_by_frame) & set(pred_by_frame))]
    assert len(set(gt_by_frame) ^ set(pred_by_frame)) > 0   # one-sided frames exist
    evaluate(gt, pred)
    assert calls["iou"] == 1
    assert calls["lsa"] == blocks + blocks + [(len(track_ids(gt)), len(track_ids(pred)))]


def test_perfect_prediction_scores():
    gt = TrackSet(simple_track(1, range(5), (0, 0, 10, 10))
                  + simple_track(2, range(5), (30, 30, 12, 12)))
    report = evaluate(gt, gt)
    assert report.mota == 1.0
    assert report.idf1 == 1.0
    assert report.hota == 1.0 and report.deta == 1.0 and report.assa == 1.0
    assert (report.counts.tp, report.counts.fp, report.counts.fn,
            report.counts.idsw) == (10, 0, 0, 0)


def test_mota_formula_point_eight():
    # 10 gt boxes; predictions miss one (FN) and add one spurious box (FP)
    gt = TrackSet(simple_track(1, range(10), (0, 0, 10, 10)))
    pred = TrackSet(simple_track(1, range(9), (0, 0, 10, 10))
                    + simple_track(2, [9], (50, 50, 5, 5)))
    value, counts = mota(gt, pred, frame_table(gt, pred))
    assert value == pytest.approx(0.8)
    assert counts.fn == 1 and counts.fp == 1 and counts.idsw == 0


def test_mota_can_go_negative():
    gt = TrackSet(simple_track(1, [0, 1], (0, 0, 10, 10)))
    pred = TrackSet(
        simple_track(1, [0, 1], (0, 0, 10, 10))
        + simple_track(2, [0, 1], (40, 40, 5, 5))
        + simple_track(3, [0], (60, 60, 5, 5)))
    value, counts = mota(gt, pred, frame_table(gt, pred))
    assert value == pytest.approx(1 - 3 / 2)
    assert counts.fp == 3 and counts.fn == 0


def test_mota_counts_identity_switch_across_gap():
    box = (0, 0, 10, 10)
    gt = TrackSet(simple_track(1, [0, 1, 2], box))
    pred = TrackSet(simple_track(1, [0], box) + simple_track(2, [2], box))
    value, counts = mota(gt, pred, frame_table(gt, pred))
    assert counts.idsw == 1  # id changed relative to last matched frame
    assert value == pytest.approx(1 - (1 + 0 + 1) / 3)


def test_mota_undefined_for_empty_gt():
    pred = TrackSet(simple_track(1, [0], (0, 0, 5, 5)))
    with pytest.raises(UndefinedMetricError):
        mota(TrackSet(), pred, frame_table(TrackSet(), pred))


def test_idf1_split_track_is_half():
    box = (0, 0, 10, 10)
    gt = TrackSet(simple_track(1, range(10), box))
    pred = TrackSet(simple_track(1, range(5), box) + simple_track(2, range(5, 10), box))
    assert idf1(gt, pred, frame_table(gt, pred)) == pytest.approx(0.5)
    assert brute_idf1(gt, pred) == pytest.approx(0.5)


def test_idf1_empty_prediction_is_zero():
    gt = TrackSet(simple_track(1, [0], (0, 0, 10, 10)))
    assert idf1(gt, TrackSet(), frame_table(gt, TrackSet())) == 0.0


def test_hota_empty_prediction_all_zero():
    gt = TrackSet(simple_track(1, [0, 1], (0, 0, 10, 10)))
    h, d, a, per_alpha = hota(gt, TrackSet(), frame_table(gt, TrackSet()))
    assert h == d == a == 0.0
    assert all(v == (0.0, 0.0, 0.0) for v in per_alpha.values())


def test_an_empty_prediction_scores_exactly_zero_on_random_ground_truths():
    # an empty prediction takes the general path; it must give the plain
    # zeros a special case would return
    rng = np.random.default_rng(5)
    for case in range(200):
        gt, _ = random_tiny_case(rng)
        report = evaluate(gt, TrackSet())
        assert (report.hota, report.deta, report.assa, report.idf1, report.mota) == \
            (0.0, 0.0, 0.0, 0.0, 0.0), f"case {case}"
        assert report.per_alpha == {alpha: (0.0, 0.0, 0.0) for alpha in ALPHAS}
        assert all(type(v) is float for v in report.per_alpha[ALPHAS[0]])
        c = report.counts
        assert (c.tp, c.fp, c.fn, c.idsw) == (0, 0, len(gt), 0), f"case {case}"


def test_hota_geometric_mean_identity():
    rng = np.random.default_rng(0)
    for _ in range(10):
        gt, pred = random_tiny_case(rng)
        _, _, _, per_alpha = hota(gt, pred, frame_table(gt, pred))
        for h, d, a in per_alpha.values():
            assert h == pytest.approx(np.sqrt(d * a), abs=1e-12)


def test_id_relabeling_does_not_change_scores():
    rng = np.random.default_rng(1)
    gt, pred = random_tiny_case(rng)
    relabel = {pid: 10 + i for i, pid in enumerate(track_ids(pred))}
    shuffled = TrackSet(TrackRecord(frame=r.frame, track_id=relabel[r.track_id],
                                    box=r.box, confidence=r.confidence)
                        for r in pred)
    a = evaluate(gt, pred)
    b = evaluate(gt, shuffled)
    assert b.idf1 == pytest.approx(a.idf1, abs=1e-12)
    assert b.hota == pytest.approx(a.hota, abs=1e-12)
    assert b.assa == pytest.approx(a.assa, abs=1e-12)


def test_hota_keeps_a_match_at_an_alpha_equal_to_its_iou():
    gt = TrackSet(simple_track(1, [0], (0.0, 0.0, 10.0, 10.0)))
    pred = TrackSet(simple_track(1, [0], (0.0, 0.0, 10.0, 5.0)))   # IoU exactly 0.5
    _, _, _, per_alpha = hota(gt, pred, frame_table(gt, pred))
    assert [a for a, (_, deta, _) in per_alpha.items() if deta == 1.0] == \
        [a for a in ALPHAS if a <= 0.5]
    assert all(deta == 0.0 for a, (_, deta, _) in per_alpha.items() if a > 0.5)


def test_removing_correct_prediction_never_raises_deta():
    box = (0, 0, 10, 10)
    gt = TrackSet(simple_track(1, range(4), box))
    pred_full = TrackSet(simple_track(1, range(4), box))
    pred_miss = TrackSet(simple_track(1, range(3), box))
    _, full_d, _, _ = hota(gt, pred_full, frame_table(gt, pred_full))
    _, miss_d, _, _ = hota(gt, pred_miss, frame_table(gt, pred_miss))
    assert miss_d <= full_d


@pytest.mark.parametrize("seed", [11, 23, 37])
def test_metrics_match_brute_force_on_random_cases(seed):
    rng = np.random.default_rng(seed)
    for case in range(25):
        gt, pred = random_tiny_case(rng)
        got = evaluate(gt, pred)
        exp_mota, exp_counts = brute_mota(gt, pred)
        assert got.mota == pytest.approx(exp_mota, abs=1e-9), f"case {case}"
        assert (got.counts.tp, got.counts.fp, got.counts.fn, got.counts.idsw) \
            == exp_counts, f"case {case}"
        assert got.idf1 == pytest.approx(brute_idf1(gt, pred), abs=1e-9), f"case {case}"
        bh, bd, ba = brute_hota(gt, pred, ALPHAS)
        assert got.hota == pytest.approx(bh, abs=1e-9), f"case {case}"
        assert got.deta == pytest.approx(bd, abs=1e-9), f"case {case}"
        assert got.assa == pytest.approx(ba, abs=1e-9), f"case {case}"
