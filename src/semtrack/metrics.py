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

The three metrics read one :class:`FrameTable` of the sequence, built once by
:func:`frame_table` and handed by :func:`evaluate` to :func:`hota`,
:func:`mota` and :func:`idf1`, which each take it as a required argument and
stay three module-level calls so that each can be timed on its own. The
table is flat: each side's columns (:meth:`~semtrack.tracks.TrackSet.columns`)
are put in frame order once, by a stable sort that keeps each frame's records
in the order they were added (row and column order decide assignment ties),
and every within-frame (ground truth, prediction) pair of the sequence is one
entry of the pair arrays, its IoU from one
:func:`semtrack.tracks.broadcast_iou` call over all of them. A frame's pairs
are consecutive and row-major, so its IoU block is a reshaped slice.

Every gather by an index array goes through ``ndarray.take``, which copies
the same values as fancy indexing at a fraction of its cost in numpy 2.4: a
crowded sequence's 15 488 pairs gather their ``k x 4`` boxes in about 25 µs
with ``take(index, axis=0)`` and about 190 µs with ``boxes[index]`` (timeit,
one BLAS thread, a 2-vCPU x86-64 host). That made :func:`evaluate` about
1.13x faster on 16-target, 64-frame sequences, bit for bit.

Only the Hungarian calls loop over frames, one per frame with both sides in
HOTA and in MOTA, each on such a slice. Every sum is one array call over the
whole sequence that adds in the order the per-frame computation did, so
scores are bit for bit those of summing frame by frame:

* ``np.bincount`` adds in array order, one value after another. It gives a
  block column's sum (numpy's ``sum(axis=0)`` adds the rows in turn), a row
  of fewer than 8 entries, HOTA's potential (a cell gets at most one term a
  frame, in frame order) and the count grids.
* numpy's ``sum`` adds 8 or more contiguous values pairwise. A longer block
  row, or the column of a frame's only prediction, is summed again as a row
  of a stacked array of rows of its length, one call per length; AssA sums
  each alpha's grid as one row of an ``alphas x cells`` array.
* MOTA's identity switches come from a stable sort of the matches by
  ground-truth id, which keeps each id's matches in frame order.

All scores are fractions in [0, 1] (MOTA can go negative).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np
from scipy.optimize import linear_sum_assignment

# box_iou is unused here but stays bound: the benchmark's harness tests read it
from semtrack.tracks import TrackSet, box_iou, broadcast_iou

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
    """Flat view of one sequence that every metric reads.

    Records of each side are numbered in frame order: by frame, and within
    a frame in the order they were added, which decides assignment ties.
    ``gt_index`` / ``pred_index`` give each record's position in the sorted
    ``gt_ids`` / ``pred_ids``. ``frames`` are the sorted frames either side
    has, with ``n_gt`` / ``n_pred`` records each.

    A pair is one ground-truth and one prediction record of the same frame.
    Pairs run frame by frame, each frame row-major (its first ground-truth
    record against every prediction of the frame, then the next), so a
    frame's pairs reshaped ``n_gt x n_pred`` are its IoU block. ``pair_gt``,
    ``pair_pred`` and ``pair_iou`` give each pair's records and IoU, and
    ``pair_cell`` its flat position in a ``gt_ids x pred_ids`` grid."""
    frames: np.ndarray
    n_gt: np.ndarray
    n_pred: np.ndarray
    gt_ids: np.ndarray
    pred_ids: np.ndarray
    gt_index: np.ndarray
    pred_index: np.ndarray
    pair_gt: np.ndarray
    pair_pred: np.ndarray
    pair_cell: np.ndarray
    pair_iou: np.ndarray

    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """First pair, row count and column count of the IoU block of every
        frame that has both sides, in frame order."""
        n_pairs = self.n_gt * self.n_pred
        both = np.flatnonzero(n_pairs)
        return (np.cumsum(n_pairs)[both] - n_pairs[both], self.n_gt[both],
                self.n_pred[both])


def _side(tracks: TrackSet):
    """(frame, id position, box) arrays of the records of ``tracks`` in
    frame order, and the sorted ids."""
    frame, track_id, boxes, _ = tracks.columns()
    order = np.argsort(frame, kind="stable")
    ids, index = np.unique(track_id, return_inverse=True)
    return frame.take(order), index.take(order), boxes.take(order, axis=0), ids


def frame_table(gt: TrackSet, pred: TrackSet) -> FrameTable:
    """The :class:`FrameTable` of ``gt`` against ``pred``, with the IoUs of
    all within-frame pairs from one aligned IoU call. Every box is finite, as
    :meth:`~semtrack.tracks.TrackSet.add` checks."""
    gt_frame, gt_index, gt_boxes, gt_ids = _side(gt)
    pred_frame, pred_index, pred_boxes, pred_ids = _side(pred)
    frames = np.union1d(gt_frame, pred_frame)
    n_gt = np.bincount(np.searchsorted(frames, gt_frame), minlength=frames.size)
    n_pred = np.bincount(np.searchsorted(frames, pred_frame), minlength=frames.size)

    # a ground-truth record pairs with every prediction of its frame, in order
    row_len = np.repeat(n_pred, n_gt)
    pair_gt = np.repeat(np.arange(row_len.size), row_len)
    first_pred = np.repeat(np.cumsum(n_pred) - n_pred, n_gt)
    pair_pred = (np.repeat(first_pred - (np.cumsum(row_len) - row_len), row_len)
                 + np.arange(pair_gt.size))
    pair_cell = gt_index.take(pair_gt) * pred_ids.size + pred_index.take(pair_pred)
    pair_iou = broadcast_iou(gt_boxes.take(pair_gt, axis=0),
                             pred_boxes.take(pair_pred, axis=0))
    return FrameTable(frames, n_gt, n_pred, gt_ids, pred_ids, gt_index, pred_index,
                      pair_gt, pair_pred, pair_cell, pair_iou)


def _assign(table: FrameTable, cost: np.ndarray) -> np.ndarray:
    """The pairs each frame's optimal assignment on ``cost`` (one entry per
    pair) picks, in frame order and by row within a frame."""
    starts, n_rows, n_cols = table.blocks()
    rows, cols = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    for start, stop, width in zip(starts.tolist(), (starts + n_rows * n_cols).tolist(),
                                  n_cols.tolist()):
        r, c = linear_sum_assignment(cost[start:stop].reshape(-1, width))
        rows.append(r)
        cols.append(c)
    picks = np.minimum(n_rows, n_cols)   # a rectangular assignment fills the shorter side
    return (np.repeat(starts, picks) + np.concatenate(rows) * np.repeat(n_cols, picks)
            + np.concatenate(cols))


def _sums(values: np.ndarray, owner: np.ndarray, size: int, first: np.ndarray,
          count: np.ndarray) -> np.ndarray:
    """Each owner's sum of ``values``, bit for bit as numpy's ``sum`` adds the
    owner's row or column of its IoU block. ``first`` and ``count`` mark the
    runs of contiguous values numpy sums as one. ``np.bincount`` adds in pair
    order, as numpy sums a block's column or a run of fewer than 8 values; a
    run of 8 or more numpy sums pairwise, so those runs are summed again,
    stacked as rows of one length."""
    sums = np.bincount(owner, values, minlength=size)
    for n in np.unique(count[count >= 8]).tolist():
        run = first[count == n]
        sums[owner.take(run)] = values.take(run[:, None] + np.arange(n)).sum(axis=1)
    return sums


def _potential(table: FrameTable) -> np.ndarray:
    """The HOTA alignment potential, ground-truth ids by prediction ids: over
    frames, the sum of each pair's IoU over its row sum plus its column sum
    minus itself."""
    iou = table.pair_iou
    # a record's row is one contiguous run of pairs, and so is the column of
    # a frame's only prediction
    row_len = np.repeat(table.n_pred, table.n_gt)
    row_sum = _sums(iou, table.pair_gt, row_len.size, np.cumsum(row_len) - row_len, row_len)
    starts, n_rows, n_cols = table.blocks()
    alone = n_cols == 1
    col_sum = _sums(iou, table.pair_pred, table.pred_index.size, starts[alone], n_rows[alone])
    denom = col_sum.take(table.pair_pred) + row_sum.take(table.pair_gt) - iou
    ratio = np.divide(iou, denom, out=np.zeros_like(iou), where=denom > 1e-12)
    # a frame adds at most one ratio to a cell, so each cell sums in frame
    # order (bincount of no pairs gives integer zeros)
    shape = (len(table.gt_ids), len(table.pred_ids))
    return np.bincount(table.pair_cell, ratio, minlength=shape[0] * shape[1]).reshape(
        shape).astype(np.float64, copy=False)


def mota(gt: TrackSet, pred: TrackSet, table: FrameTable) -> tuple[float, MetricCounts]:
    """CLEAR-style accuracy with per-frame count-then-IoU optimal matching."""
    if len(gt) == 0:
        raise UndefinedMetricError("MOTA is undefined for empty ground truth")
    iou = table.pair_iou
    match = _assign(table, np.where(iou >= IOU_THRESHOLD, 1.0 - iou, _BIG_COST))
    match = match[iou.take(match) >= IOU_THRESHOLD]
    # a stable sort by ground-truth id keeps each id's matches in frame order,
    # so neighbours of one id are its consecutive matches
    gid = table.gt_index.take(table.pair_gt.take(match))
    order = np.argsort(gid, kind="stable")
    gid = gid.take(order)
    pid = table.pred_index.take(table.pair_pred.take(match.take(order)))
    idsw = int(np.count_nonzero((gid[1:] == gid[:-1]) & (pid[1:] != pid[:-1])))
    tp = int(match.size)
    counts = MetricCounts(tp=tp, fp=len(pred) - tp, fn=len(gt) - tp, idsw=idsw)
    value = 1.0 - (counts.fn + counts.fp + counts.idsw) / len(gt)
    return value, counts


def idf1(gt: TrackSet, pred: TrackSet, table: FrameTable) -> float:
    """F1 over identity-consistent matches under optimal global id pairing."""
    if len(gt) == 0:
        raise UndefinedMetricError("IDF1 is undefined for empty ground truth")
    n_gt_ids, n_pred_ids = len(table.gt_ids), len(table.pred_ids)
    # a frame holds each id once, so a (gt, pred) cell counts frames
    hits = table.pair_cell[table.pair_iou >= IOU_THRESHOLD]
    overlap = np.bincount(hits, minlength=n_gt_ids * n_pred_ids).reshape(
        n_gt_ids, n_pred_ids).astype(np.float64)
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
    n_gt_ids, n_pred_ids = len(table.gt_ids), len(table.pred_ids)
    n_cells = n_gt_ids * n_pred_ids
    iou, cell = table.pair_iou, table.pair_cell
    potential = _potential(table)
    gt_count = np.bincount(table.gt_index, minlength=n_gt_ids).astype(np.float64)
    pred_count = np.bincount(table.pred_index, minlength=n_pred_ids).astype(np.float64)
    pair_count = gt_count[:, None] + pred_count[None, :]
    union = pair_count - potential
    alignment = np.where(union > 0, potential / np.maximum(union, 1e-12), 0.0)

    # each frame's optimal matching; a match counts at every alpha its
    # similarity reaches, so one (alphas x matches) comparison serves them all
    match = _assign(table, -(alignment.take(cell) * iou))
    kept = iou.take(match)[None, :] >= np.array(ALPHAS)[:, None]
    a_idx, m_idx = np.nonzero(kept)
    match_counts = np.bincount(a_idx * n_cells + cell.take(match.take(m_idx)),
                               minlength=len(ALPHAS) * n_cells).reshape(len(ALPHAS), -1)
    tp = kept.sum(axis=1).astype(np.float64)
    fn = len(gt) - tp
    fp = len(pred) - tp

    det_denom = tp + fn + fp
    deta = np.divide(tp, det_denom, out=np.zeros_like(tp), where=det_denom > 0)
    jaccard = match_counts / np.maximum(pair_count.ravel() - match_counts, 1.0)
    # a row of an alpha's cells sums pairwise, as a sum over its G x P grid does
    assa = np.divide((match_counts * jaccard).sum(axis=1), tp, out=np.zeros_like(tp),
                     where=tp > 0)
    hota_a = np.sqrt(deta * assa)
    per_alpha = dict(zip(ALPHAS, zip(hota_a.tolist(), deta.tolist(), assa.tolist())))
    return float(hota_a.mean()), float(deta.mean()), float(assa.mean()), per_alpha


def evaluate(gt: TrackSet, pred: TrackSet) -> MetricReport:
    """Full metric report over one sequence, from one :class:`FrameTable`."""
    table = frame_table(gt, pred)
    hota_v, deta_v, assa_v, per_alpha = hota(gt, pred, table)
    mota_v, counts = mota(gt, pred, table)
    idf1_v = idf1(gt, pred, table)
    return MetricReport(hota=hota_v, deta=deta_v, assa=assa_v, mota=mota_v,
                        idf1=idf1_v, counts=counts, per_alpha=per_alpha)
