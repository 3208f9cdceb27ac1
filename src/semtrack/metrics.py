"""Tracking metrics: MOTA, IDF1 and HOTA with its DetA/AssA decomposition.

Definitions follow the reference evaluators for the three metric families:

* MOTA: per frame, predictions are matched to ground truth among pairs with
  IoU >= :data:`IOU_THRESHOLD` (0.5), maximizing match count first and total
  IoU second. Identity switches compare a ground-truth id's matched prediction
  id against its last matched frame (gaps allowed).
  MOTA = 1 - (FN + FP + IDSW) / num_gt.
* IDF1: one global bipartite matching between ground-truth and prediction ids
  maximizes identity-consistent frame matches (IoU >= 0.5 per frame);
  IDF1 = 2*IDTP / (2*IDTP + IDFP + IDFN).
* HOTA: per localization threshold alpha, detections are matched per frame by
  maximizing global-alignment-weighted similarity (the reference two-pass
  scheme), gated at alpha; DetA = TP/(TP+FN+FP), AssA averages the pairwise
  association Jaccard over TPs, HOTA(alpha) = sqrt(DetA*AssA); final scores
  average over the alpha grid :data:`ALPHAS` (0.05, 0.10, ..., 0.95).

All scores are fractions in [0, 1] (MOTA can go negative).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from semtrack.tracks import TrackSet, box_iou

ALPHAS = tuple(np.round(np.arange(0.05, 1.0, 0.05), 2).tolist())
IOU_THRESHOLD = 0.5
_BIG_COST = 1e9


class UndefinedMetricError(ValueError):
    """Raised when a metric is undefined (empty ground truth)."""


@dataclass
class MetricCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    idsw: int = 0


@dataclass
class MetricReport:
    hota: float
    deta: float
    assa: float
    mota: float
    idf1: float
    counts: MetricCounts
    per_alpha: dict[float, tuple[float, float, float]] = field(default_factory=dict)


def _frame_tables(gt: TrackSet, pred: TrackSet):
    gt_by_frame = gt.by_frame()
    pred_by_frame = pred.by_frame()
    frames = sorted(set(gt_by_frame) | set(pred_by_frame))
    return frames, gt_by_frame, pred_by_frame


def _iou_matrix(gt_recs, pred_recs) -> np.ndarray:
    return np.array([[box_iou(g.box, p.box) for p in pred_recs] for g in gt_recs],
                    dtype=np.float64).reshape(len(gt_recs), len(pred_recs))


def mota(gt: TrackSet, pred: TrackSet) -> tuple[float, MetricCounts]:
    """CLEAR-style accuracy with per-frame count-then-IoU optimal matching."""
    if len(gt) == 0:
        raise UndefinedMetricError("MOTA is undefined for empty ground truth")
    frames, gt_by_frame, pred_by_frame = _frame_tables(gt, pred)
    counts = MetricCounts()
    last_match: dict[int, int] = {}  # gt id -> pred id at last matched frame
    for frame in frames:
        gt_recs = gt_by_frame.get(frame, [])
        pred_recs = pred_by_frame.get(frame, [])
        ious = _iou_matrix(gt_recs, pred_recs)
        matches = []
        if gt_recs and pred_recs:
            cost = np.where(ious >= IOU_THRESHOLD, 1.0 - ious, _BIG_COST)
            rows, cols = linear_sum_assignment(cost)
            matches = [(r, c) for r, c in zip(rows, cols)
                       if ious[r, c] >= IOU_THRESHOLD]
        counts.tp += len(matches)
        counts.fn += len(gt_recs) - len(matches)
        counts.fp += len(pred_recs) - len(matches)
        for r, c in matches:
            gid = gt_recs[r].track_id
            pid = pred_recs[c].track_id
            if gid in last_match and last_match[gid] != pid:
                counts.idsw += 1
            last_match[gid] = pid
    value = 1.0 - (counts.fn + counts.fp + counts.idsw) / len(gt)
    return value, counts


def idf1(gt: TrackSet, pred: TrackSet) -> float:
    """F1 over identity-consistent matches under optimal global id pairing."""
    if len(gt) == 0:
        raise UndefinedMetricError("IDF1 is undefined for empty ground truth")
    if len(pred) == 0:
        return 0.0
    gt_ids = gt.ids()
    pred_ids = pred.ids()
    overlap = np.zeros((len(gt_ids), len(pred_ids)))
    gt_index = {g: i for i, g in enumerate(gt_ids)}
    pred_index = {p: j for j, p in enumerate(pred_ids)}
    frames, gt_by_frame, pred_by_frame = _frame_tables(gt, pred)
    for frame in frames:
        gt_recs = gt_by_frame.get(frame, [])
        pred_recs = pred_by_frame.get(frame, [])
        for r, c in zip(*np.nonzero(_iou_matrix(gt_recs, pred_recs) >= IOU_THRESHOLD)):
            overlap[gt_index[gt_recs[r].track_id], pred_index[pred_recs[c].track_id]] += 1
    rows, cols = linear_sum_assignment(-overlap)
    idtp = overlap[rows, cols].sum()
    idfn = len(gt) - idtp
    idfp = len(pred) - idtp
    denominator = 2 * idtp + idfp + idfn
    return float(2 * idtp / denominator) if denominator else 0.0


def hota(gt: TrackSet, pred: TrackSet
         ) -> tuple[float, float, float, dict[float, tuple[float, float, float]]]:
    """HOTA / DetA / AssA averaged over the alpha grid, plus per-alpha values."""
    if len(gt) == 0:
        raise UndefinedMetricError("HOTA is undefined for empty ground truth")
    gt_ids = gt.ids()
    pred_ids = pred.ids()
    per_alpha: dict[float, tuple[float, float, float]] = {}
    if not pred_ids:
        for alpha in ALPHAS:
            per_alpha[alpha] = (0.0, 0.0, 0.0)
        return 0.0, 0.0, 0.0, per_alpha

    gt_index = {g: i for i, g in enumerate(gt_ids)}
    pred_index = {p: j for j, p in enumerate(pred_ids)}
    frames, gt_by_frame, pred_by_frame = _frame_tables(gt, pred)

    frame_data = []
    potential = np.zeros((len(gt_ids), len(pred_ids)))
    gt_count = np.zeros(len(gt_ids))
    pred_count = np.zeros(len(pred_ids))
    for frame in frames:
        gt_recs = gt_by_frame.get(frame, [])
        pred_recs = pred_by_frame.get(frame, [])
        sim = _iou_matrix(gt_recs, pred_recs)
        gi = np.array([gt_index[r.track_id] for r in gt_recs], dtype=int)
        pj = np.array([pred_index[r.track_id] for r in pred_recs], dtype=int)
        if gi.size and pj.size:
            denom = sim.sum(axis=0)[None, :] + sim.sum(axis=1)[:, None] - sim
            ratio = np.zeros_like(sim)
            positive = denom > 1e-12
            ratio[positive] = sim[positive] / denom[positive]
            potential[np.ix_(gi, pj)] += ratio
        gt_count[gi] += 1
        pred_count[pj] += 1
        frame_data.append((gi, pj, sim))

    union = gt_count[:, None] + pred_count[None, :] - potential
    alignment = np.where(union > 0, potential / np.maximum(union, 1e-12), 0.0)

    n_alphas = len(ALPHAS)
    tp = np.zeros(n_alphas)
    fn = np.zeros(n_alphas)
    fp = np.zeros(n_alphas)
    match_counts = [np.zeros((len(gt_ids), len(pred_ids))) for _ in range(n_alphas)]
    for gi, pj, sim in frame_data:
        if gi.size and pj.size:
            score = alignment[np.ix_(gi, pj)] * sim
            rows, cols = linear_sum_assignment(-score)
        else:
            rows = cols = np.array([], dtype=int)
        for a, alpha in enumerate(ALPHAS):
            if rows.size:
                keep = sim[rows, cols] >= alpha
                kept_rows, kept_cols = rows[keep], cols[keep]
            else:
                kept_rows = kept_cols = rows
            n_match = len(kept_rows)
            tp[a] += n_match
            fn[a] += gi.size - n_match
            fp[a] += pj.size - n_match
            if n_match:
                match_counts[a][gi[kept_rows], pj[kept_cols]] += 1

    for a, alpha in enumerate(ALPHAS):
        det_denom = tp[a] + fn[a] + fp[a]
        deta = tp[a] / det_denom if det_denom else 0.0
        if tp[a]:
            pair_union = gt_count[:, None] + pred_count[None, :] - match_counts[a]
            jaccard = match_counts[a] / np.maximum(pair_union, 1.0)
            assa = float((match_counts[a] * jaccard).sum() / tp[a])
        else:
            assa = 0.0
        per_alpha[alpha] = (float(np.sqrt(deta * assa)), float(deta), assa)

    hota_avg = float(np.mean([v[0] for v in per_alpha.values()]))
    deta_avg = float(np.mean([v[1] for v in per_alpha.values()]))
    assa_avg = float(np.mean([v[2] for v in per_alpha.values()]))
    return hota_avg, deta_avg, assa_avg, per_alpha


def evaluate(gt: TrackSet, pred: TrackSet) -> MetricReport:
    """Full metric report over one sequence."""
    hota_v, deta_v, assa_v, per_alpha = hota(gt, pred)
    mota_v, counts = mota(gt, pred)
    idf1_v = idf1(gt, pred)
    return MetricReport(hota=hota_v, deta=deta_v, assa=assa_v, mota=mota_v,
                        idf1=idf1_v, counts=counts, per_alpha=per_alpha)
