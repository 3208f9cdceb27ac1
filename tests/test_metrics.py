import numpy as np
import pytest

from semtrack.metrics import ALPHAS, UndefinedMetricError, evaluate, hota, idf1, mota
from semtrack.tracks import TrackRecord, TrackSet, box_iou

from oracles import brute_hota, brute_idf1, brute_mota, random_tiny_case


def simple_track(track_id, frames, box):
    return [TrackRecord(frame=f, track_id=track_id, box=box) for f in frames]


def test_box_iou_basics():
    assert box_iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0
    assert box_iou((0, 0, 10, 10), (20, 20, 5, 5)) == 0.0
    assert box_iou((0, 0, 10, 10), (5, 0, 10, 10)) == pytest.approx(50 / 150)
    assert box_iou((0, 0, 0, 10), (0, 0, 10, 10)) == 0.0  # degenerate


def test_trackset_validation():
    ts = TrackSet()
    ts.add(TrackRecord(frame=0, track_id=1, box=(0, 0, 5, 5)))
    with pytest.raises(ValueError):
        ts.add(TrackRecord(frame=0, track_id=1, box=(1, 1, 5, 5)))  # duplicate key
    with pytest.raises(ValueError):
        ts.add(TrackRecord(frame=0, track_id=0, box=(0, 0, 5, 5)))  # ids start at 1
    with pytest.raises(ValueError):
        ts.add(TrackRecord(frame=-1, track_id=2, box=(0, 0, 5, 5)))


def test_trackset_frames_monotone_within_id():
    ts = TrackSet(simple_track(1, [0, 1, 2], (0, 0, 5, 5)))
    with pytest.raises(ValueError):
        ts.add(TrackRecord(frame=1, track_id=1, box=(0, 0, 5, 5)))


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
    value, counts = mota(gt, pred)
    assert value == pytest.approx(0.8)
    assert counts.fn == 1 and counts.fp == 1 and counts.idsw == 0


def test_mota_can_go_negative():
    gt = TrackSet(simple_track(1, [0, 1], (0, 0, 10, 10)))
    pred = TrackSet(
        simple_track(1, [0, 1], (0, 0, 10, 10))
        + simple_track(2, [0, 1], (40, 40, 5, 5))
        + simple_track(3, [0], (60, 60, 5, 5)))
    value, counts = mota(gt, pred)
    assert value == pytest.approx(1 - 3 / 2)
    assert counts.fp == 3 and counts.fn == 0


def test_mota_counts_identity_switch_across_gap():
    box = (0, 0, 10, 10)
    gt = TrackSet(simple_track(1, [0, 1, 2], box))
    pred = TrackSet(simple_track(1, [0], box) + simple_track(2, [2], box))
    value, counts = mota(gt, pred)
    assert counts.idsw == 1  # id changed relative to last matched frame
    assert value == pytest.approx(1 - (1 + 0 + 1) / 3)


def test_mota_undefined_for_empty_gt():
    with pytest.raises(UndefinedMetricError):
        mota(TrackSet(), TrackSet(simple_track(1, [0], (0, 0, 5, 5))))


def test_idf1_split_track_is_half():
    box = (0, 0, 10, 10)
    gt = TrackSet(simple_track(1, range(10), box))
    pred = TrackSet(simple_track(1, range(5), box) + simple_track(2, range(5, 10), box))
    assert idf1(gt, pred) == pytest.approx(0.5)
    assert brute_idf1(gt, pred) == pytest.approx(0.5)


def test_idf1_empty_prediction_is_zero():
    gt = TrackSet(simple_track(1, [0], (0, 0, 10, 10)))
    assert idf1(gt, TrackSet()) == 0.0


def test_hota_empty_prediction_all_zero():
    gt = TrackSet(simple_track(1, [0, 1], (0, 0, 10, 10)))
    h, d, a, per_alpha = hota(gt, TrackSet())
    assert h == d == a == 0.0
    assert all(v == (0.0, 0.0, 0.0) for v in per_alpha.values())


def test_hota_geometric_mean_identity():
    rng = np.random.default_rng(0)
    for _ in range(10):
        gt, pred = random_tiny_case(rng)
        _, _, _, per_alpha = hota(gt, pred)
        for h, d, a in per_alpha.values():
            assert h == pytest.approx(np.sqrt(d * a), abs=1e-12)


def test_id_relabeling_does_not_change_scores():
    rng = np.random.default_rng(1)
    gt, pred = random_tiny_case(rng)
    relabel = {pid: 10 + i for i, pid in enumerate(pred.ids())}
    shuffled = TrackSet(TrackRecord(frame=r.frame, track_id=relabel[r.track_id],
                                    box=r.box, confidence=r.confidence)
                        for r in pred)
    a = evaluate(gt, pred)
    b = evaluate(gt, shuffled)
    assert b.idf1 == pytest.approx(a.idf1, abs=1e-12)
    assert b.hota == pytest.approx(a.hota, abs=1e-12)
    assert b.assa == pytest.approx(a.assa, abs=1e-12)


def test_removing_correct_prediction_never_raises_deta():
    box = (0, 0, 10, 10)
    gt = TrackSet(simple_track(1, range(4), box))
    pred_full = TrackSet(simple_track(1, range(4), box))
    pred_miss = TrackSet(simple_track(1, range(3), box))
    _, full_d, _, _ = hota(gt, pred_full)
    _, miss_d, _, _ = hota(gt, pred_miss)
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
