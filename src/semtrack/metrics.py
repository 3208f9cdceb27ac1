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

The three metrics read one :class:`FrameTable` of the sequence: every frame
either track set has, its ground-truth and prediction records in
``TrackSet.by_frame`` order (row and column order decide assignment ties),
their positions in the sorted id lists, and the frame's ground-truth-by-
prediction IoU block. :func:`frame_table` computes the blocks of every frame
in one :func:`semtrack.tracks.broadcast_iou` call over all within-frame box
pairs; :func:`evaluate` builds the table once and hands it to :func:`hota`,
:func:`mota` and :func:`idf1`, which each take it as a required argument.
They stay three module-level calls so that each can be timed on its own.
HOTA gates a frame's matches at every alpha with one comparison.

All scores are fractions in [0, 1] (MOTA can go negative).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np
from scipy.optimize import linear_sum_assignment

# box_iou is unused here but stays bound: the benchmark's harness tests read it
from semtrack.tracks import TrackRecord, TrackSet, box_iou, broadcast_iou

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


@dataclass(frozen=True)
class FrameTable:
    """Per-frame view of one sequence that every metric reads. Lists run over
    ``frames`` (sorted); frame k's IoU block ``ious[k]`` has one row per
    ``gt[k]`` record and one column per ``pred[k]`` record, in that order, and
    ``gt_index[k]`` / ``pred_index[k]`` give each record's position in
    ``gt_ids`` / ``pred_ids``."""
    frames: list[int]
    gt: list[list[TrackRecord]]
    pred: list[list[TrackRecord]]
    gt_ids: list[int]
    pred_ids: list[int]
    gt_index: list[np.ndarray]
    pred_index: list[np.ndarray]
    ious: list[np.ndarray]


def _split(flat: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    """``flat`` cut into consecutive pieces of ``sizes`` items."""
    return [flat[end - n:end] for end, n in zip(np.cumsum(sizes).tolist(), sizes.tolist())]


def _side(by_frame: dict[int, list[TrackRecord]], frames: list[int], ids: list[int]):
    """(records per frame, record count per frame, the boxes of all of them
    as an n x 4 array, each record's position in the sorted ``ids``)."""
    records = [by_frame.get(f, []) for f in frames]
    flat = [r for recs in records for r in recs]
    sizes = np.array([len(recs) for recs in records], dtype=np.intp)
    boxes = np.array([r.box for r in flat], dtype=np.float64).reshape(-1, 4)
    index = np.searchsorted(np.array(ids, dtype=np.int64),
                            np.array([r.track_id for r in flat], dtype=np.int64))
    return records, sizes, boxes, index


def frame_table(gt: TrackSet, pred: TrackSet) -> FrameTable:
    """The :class:`FrameTable` of ``gt`` against ``pred``; every frame's IoU
    block comes from one aligned IoU call over all within-frame pairs."""
    gt_by_frame = gt.by_frame()
    pred_by_frame = pred.by_frame()
    frames = sorted(set(gt_by_frame) | set(pred_by_frame))
    gt_ids, pred_ids = gt.ids(), pred.ids()
    gt_recs, n_gt, gt_boxes, gt_index = _side(gt_by_frame, frames, gt_ids)
    pred_recs, n_pred, pred_boxes, pred_index = _side(pred_by_frame, frames, pred_ids)

    # pair p of frame k, counted from the frame's first pair, is gt row
    # p // n_pred[k] and pred column p % n_pred[k] of that frame
    n_pairs = n_gt * n_pred
    p = np.arange(n_pairs.sum()) - np.repeat(np.cumsum(n_pairs) - n_pairs, n_pairs)
    width = np.repeat(n_pred, n_pairs)
    rows = np.repeat(np.cumsum(n_gt) - n_gt, n_pairs) + p // width
    cols = np.repeat(np.cumsum(n_pred) - n_pred, n_pairs) + p % width
    pair_ious = broadcast_iou(gt_boxes[rows], pred_boxes[cols])
    ious = [block.reshape(g, q) for block, g, q in
            zip(_split(pair_ious, n_pairs), n_gt.tolist(), n_pred.tolist())]
    return FrameTable(frames, gt_recs, pred_recs, gt_ids, pred_ids,
                      _split(gt_index, n_gt), _split(pred_index, n_pred), ious)


def mota(gt: TrackSet, pred: TrackSet, table: FrameTable) -> tuple[float, MetricCounts]:
    """CLEAR-style accuracy with per-frame count-then-IoU optimal matching."""
    if len(gt) == 0:
        raise UndefinedMetricError("MOTA is undefined for empty ground truth")
    counts = MetricCounts()
    last_match: dict[int, int] = {}  # gt id -> pred id at last matched frame
    for gt_recs, pred_recs, ious in zip(table.gt, table.pred, table.ious):
        matches = []
        if gt_recs and pred_recs:
            cost = np.where(ious >= IOU_THRESHOLD, 1.0 - ious, _BIG_COST)
            rows, cols = linear_sum_assignment(cost)
            kept = ious[rows, cols] >= IOU_THRESHOLD
            matches = list(zip(rows[kept].tolist(), cols[kept].tolist()))
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


def idf1(gt: TrackSet, pred: TrackSet, table: FrameTable) -> float:
    """F1 over identity-consistent matches under optimal global id pairing."""
    if len(gt) == 0:
        raise UndefinedMetricError("IDF1 is undefined for empty ground truth")
    overlap = np.zeros((len(table.gt_ids), len(table.pred_ids)))
    for gi, pj, ious in zip(table.gt_index, table.pred_index, table.ious):
        r, c = np.nonzero(ious >= IOU_THRESHOLD)
        # a frame holds each id once, so no (gt, pred) cell repeats
        overlap[gi[r], pj[c]] += 1
    rows, cols = linear_sum_assignment(-overlap)
    idtp = overlap[rows, cols].sum()
    idfn = len(gt) - idtp
    idfp = len(pred) - idtp
    denominator = 2 * idtp + idfp + idfn
    return float(2 * idtp / denominator) if denominator else 0.0


def hota(gt: TrackSet, pred: TrackSet, table: FrameTable
         ) -> tuple[float, float, float, dict[float, tuple[float, float, float]]]:
    """HOTA / DetA / AssA averaged over the alpha grid, plus per-alpha values."""
    if len(gt) == 0:
        raise UndefinedMetricError("HOTA is undefined for empty ground truth")
    shape = (len(ALPHAS), len(table.gt_ids), len(table.pred_ids))

    frame_data = []
    potential = np.zeros(shape[1:])
    for gi, pj, sim in zip(table.gt_index, table.pred_index, table.ious):
        if gi.size and pj.size:
            denom = sim.sum(axis=0)[None, :] + sim.sum(axis=1)[:, None] - sim
            ratio = np.divide(sim, denom, out=np.zeros_like(sim), where=denom > 1e-12)
            potential[gi[:, None], pj] += ratio
            frame_data.append((gi, pj, sim))
    gt_count = np.bincount(np.concatenate(table.gt_index),
                           minlength=shape[1]).astype(np.float64)
    pred_count = np.bincount(np.concatenate(table.pred_index),
                             minlength=shape[2]).astype(np.float64)

    union = gt_count[:, None] + pred_count[None, :] - potential
    alignment = np.where(union > 0, potential / np.maximum(union, 1e-12), 0.0)

    # each frame's optimal matching; a match counts at every alpha its
    # similarity reaches, so one (alphas x matches) comparison serves them all
    matched = [(np.zeros(0, int), np.zeros(0, int), np.zeros(0))]
    for gi, pj, sim in frame_data:
        rows, cols = linear_sum_assignment(-(alignment[gi[:, None], pj] * sim))
        matched.append((gi[rows], pj[cols], sim[rows, cols]))
    match_g, match_p, match_sim = (np.concatenate(part) for part in zip(*matched))
    kept = match_sim[None, :] >= np.array(ALPHAS)[:, None]
    a_idx, m_idx = np.nonzero(kept)
    cells = np.ravel_multi_index((a_idx, match_g[m_idx], match_p[m_idx]), shape)
    match_counts = np.bincount(cells, minlength=prod(shape)).reshape(shape)
    tp = kept.sum(axis=1).astype(np.float64)
    fn = len(gt) - tp
    fp = len(pred) - tp

    per_alpha: dict[float, tuple[float, float, float]] = {}
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
    """Full metric report over one sequence, from one :class:`FrameTable`."""
    table = frame_table(gt, pred)
    hota_v, deta_v, assa_v, per_alpha = hota(gt, pred, table)
    mota_v, counts = mota(gt, pred, table)
    idf1_v = idf1(gt, pred, table)
    return MetricReport(hota=hota_v, deta=deta_v, assa=assa_v, mota=mota_v,
                        idf1=idf1_v, counts=counts, per_alpha=per_alpha)
