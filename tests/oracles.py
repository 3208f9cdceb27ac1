"""Reference implementations for tests: brute-force metric oracles for tiny
cases, the bilinear resize formula, a one-box-at-a-time proposal descriptor,
the ops no run records alone and the compositions of them that the fused ops
of :mod:`semtrack.autodiff` are tested against (the fusion, both transformer
sublayers and the contrastive term), a frame-by-frame reference for the
training losses, a one-frame degradation chain, and the tracker loop with its
miss counter.

The ops :func:`transpose`, :func:`concat`, :func:`relu`,
:func:`multi_head_attention`, :func:`layer_norm_rows` and
:func:`cross_entropy_rows` record through ``autodiff._emit`` as the package's
ops do. The last four run the private formula a fused op chains (``_relu``,
``_attention``, ``_layer_norm``, ``_cross_entropy``), so a composition of
them is the fused op step by step, recorded one op a step, and must equal it
bit for bit in value and every gradient. :func:`masked_attention` is the
reference for ``_attention``: the masked n x n formula, for labels in any
order.

The metric oracles recompute everything from the metric definitions with
plain loops and dicts; optimal assignments are found by enumerating every
matching instead of the Hungarian algorithm the implementation uses.
:func:`reference_evaluate` is the exact reference instead: the metrics as
they were computed one frame at a time, each frame's IoU block summed and
matched on its own, so the flat-array :func:`semtrack.metrics.evaluate` must
reproduce every field of its report bit for bit.

:func:`per_frame_scene_losses` computes the losses of one training scene the
way the tracker sees frames: one embedding, one student call and one fusion
per frame, a one-frame distillation loss per frame averaged over frames, and
the contrastive and box terms built from those per-frame features.

:func:`reference_track_sequence` is the tracker loop before tracks were
dropped as soon as they could no longer be carried: it keeps every track for
up to ``MAX_AGE`` misses and filters the carried ones out each frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import prod

import numpy as np
from scipy.optimize import linear_sum_assignment

from semtrack import autodiff as ad
from semtrack.autodiff import DimensionError, Matrix
from semtrack.degrade import (DegradationChain, Downsample, GaussianBlur, GaussianNoise,
                              _gaussian_kernel, _noise_rng)
from semtrack.frames import resize
from semtrack.metrics import (_BIG_COST, ALPHAS, IOU_THRESHOLD, MetricCounts, MetricReport,
                              UndefinedMetricError)
from semtrack.quality import QualityRanges
from semtrack.scenes import detections_by_frame
from semtrack.student import FEATURE_DIM
from semtrack.teacher import pseudo_teacher
from semtrack.tracker import (BIRTH_CONFIDENCE, IOU_WEIGHT, MATCH_GATE, MISS_DECAY, PATCH,
                              PROPAGATE_CONFIDENCE, box_descriptor)
from semtrack.training import CONTRASTIVE_TEMPERATURE, match_detections_to_gt
from semtrack.tracks import TrackRecord, TrackSet, box_iou, broadcast_iou, iou_matrix


def all_matchings(n: int, m: int):
    """Yield every one-to-one partial matching between range(n) and range(m)."""

    def extend(i, used, current):
        if i == n:
            yield list(current)
            return
        yield from extend(i + 1, used, current)  # leave row i unmatched
        for j in range(m):
            if j not in used:
                used.add(j)
                current.append((i, j))
                yield from extend(i + 1, used, current)
                current.pop()
                used.remove(j)

    yield from extend(0, set(), [])


def track_ids(tracks: TrackSet) -> list[int]:
    """The sorted ids of ``tracks``, from its records one at a time."""
    return sorted({r.track_id for r in tracks})


def by_frame(tracks: TrackSet) -> dict[int, list[TrackRecord]]:
    """The records of ``tracks`` grouped by frame, each frame's in the order
    they were added, from its records one at a time."""
    out: dict[int, list[TrackRecord]] = {}
    for r in tracks:
        out.setdefault(r.frame, []).append(r)
    return out


def _frames(gt: TrackSet, pred: TrackSet):
    gt_by_frame = by_frame(gt)
    pred_by_frame = by_frame(pred)
    for frame in sorted(set(gt_by_frame) | set(pred_by_frame)):
        yield frame, gt_by_frame.get(frame, []), pred_by_frame.get(frame, [])


def brute_mota(gt: TrackSet, pred: TrackSet, iou_threshold: float = 0.5):
    """MOTA with per-frame matchings chosen by exhaustive enumeration."""
    tp = fp = fn = idsw = 0
    last_pred_for_gt: dict[int, int] = {}
    for _, gt_recs, pred_recs in _frames(gt, pred):
        eligible = {}
        for i, g in enumerate(gt_recs):
            for j, p in enumerate(pred_recs):
                iou = box_iou(g.box, p.box)
                if iou >= iou_threshold:
                    eligible[(i, j)] = iou
        best = None
        best_key = None
        for matching in all_matchings(len(gt_recs), len(pred_recs)):
            if any(pair not in eligible for pair in matching):
                continue
            key = (len(matching), sum(eligible[pair] for pair in matching))
            if best_key is None or key > best_key:
                best_key = key
                best = matching
        best = best or []
        tp += len(best)
        fn += len(gt_recs) - len(best)
        fp += len(pred_recs) - len(best)
        for i, j in best:
            gid = gt_recs[i].track_id
            pid = pred_recs[j].track_id
            if gid in last_pred_for_gt and last_pred_for_gt[gid] != pid:
                idsw += 1
            last_pred_for_gt[gid] = pid
    return 1.0 - (fn + fp + idsw) / len(gt), (tp, fp, fn, idsw)


def brute_idf1(gt: TrackSet, pred: TrackSet, iou_threshold: float = 0.5) -> float:
    """IDF1 by enumerating every ground-truth-id to prediction-id pairing."""
    gt_ids = track_ids(gt)
    pred_ids = track_ids(pred)
    if not pred_ids:
        return 0.0
    overlap = {(g, p): 0 for g in gt_ids for p in pred_ids}
    for _, gt_recs, pred_recs in _frames(gt, pred):
        for g in gt_recs:
            for p in pred_recs:
                if box_iou(g.box, p.box) >= iou_threshold:
                    overlap[(g.track_id, p.track_id)] += 1
    best_idtp = 0
    for matching in all_matchings(len(gt_ids), len(pred_ids)):
        idtp = sum(overlap[(gt_ids[i], pred_ids[j])] for i, j in matching)
        best_idtp = max(best_idtp, idtp)
    denominator = len(gt) + len(pred)
    return 2.0 * best_idtp / denominator if denominator else 0.0


def brute_hota(gt: TrackSet, pred: TrackSet, alphas) -> tuple[float, float, float]:
    """HOTA/DetA/AssA with the per-frame optimization done by enumeration."""
    gt_ids = track_ids(gt)
    pred_ids = track_ids(pred)
    if not pred_ids:
        return 0.0, 0.0, 0.0

    frame_cache = []
    potential = {(g, p): 0.0 for g in gt_ids for p in pred_ids}
    gt_frames = {g: 0 for g in gt_ids}
    pred_frames = {p: 0 for p in pred_ids}
    for _, gt_recs, pred_recs in _frames(gt, pred):
        sims = [[box_iou(g.box, p.box) for p in pred_recs] for g in gt_recs]
        for g in gt_recs:
            gt_frames[g.track_id] += 1
        for p in pred_recs:
            pred_frames[p.track_id] += 1
        for i, g in enumerate(gt_recs):
            for j, p in enumerate(pred_recs):
                row_sum = sum(sims[i])
                col_sum = sum(sims[k][j] for k in range(len(gt_recs)))
                denom = row_sum + col_sum - sims[i][j]
                if denom > 1e-12:
                    potential[(g.track_id, p.track_id)] += sims[i][j] / denom
        frame_cache.append((gt_recs, pred_recs, sims))

    alignment = {}
    for g in gt_ids:
        for p in pred_ids:
            union = gt_frames[g] + pred_frames[p] - potential[(g, p)]
            alignment[(g, p)] = potential[(g, p)] / union if union > 0 else 0.0

    chosen = []
    for gt_recs, pred_recs, sims in frame_cache:
        best = []
        best_score = -1.0
        for matching in all_matchings(len(gt_recs), len(pred_recs)):
            score = sum(alignment[(gt_recs[i].track_id, pred_recs[j].track_id)] * sims[i][j]
                        for i, j in matching)
            if score > best_score:
                best_score = score
                best = matching
        chosen.append((gt_recs, pred_recs, sims, best))

    hotas, detas, assas = [], [], []
    for alpha in alphas:
        tp = fn = fp = 0
        pair_matches = {(g, p): 0 for g in gt_ids for p in pred_ids}
        for gt_recs, pred_recs, sims, matching in chosen:
            kept = [(i, j) for i, j in matching if sims[i][j] >= alpha]
            tp += len(kept)
            fn += len(gt_recs) - len(kept)
            fp += len(pred_recs) - len(kept)
            for i, j in kept:
                pair_matches[(gt_recs[i].track_id, pred_recs[j].track_id)] += 1
        deta = tp / (tp + fn + fp) if (tp + fn + fp) else 0.0
        if tp:
            total = 0.0
            for (g, p), count in pair_matches.items():
                if count:
                    union = gt_frames[g] + pred_frames[p] - count
                    total += count * (count / union)
            assa = total / tp
        else:
            assa = 0.0
        hotas.append(math.sqrt(deta * assa))
        detas.append(deta)
        assas.append(assa)
    k = len(alphas)
    return sum(hotas) / k, sum(detas) / k, sum(assas) / k


@dataclass(frozen=True)
class ReferenceFrameTable:
    """Per-frame view of one sequence: lists run over ``frames`` (sorted);
    frame k's IoU block ``ious[k]`` has one row per ``gt[k]`` record and one
    column per ``pred[k]`` record, and ``gt_index[k]`` / ``pred_index[k]``
    give each record's position in ``gt_ids`` / ``pred_ids``."""
    frames: list[int]
    gt: list[list[TrackRecord]]
    pred: list[list[TrackRecord]]
    gt_ids: list[int]
    pred_ids: list[int]
    gt_index: list[np.ndarray]
    pred_index: list[np.ndarray]
    ious: list[np.ndarray]


def _split(flat: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    return [flat[end - n:end] for end, n in zip(np.cumsum(sizes).tolist(), sizes.tolist())]


def _reference_side(grouped: dict[int, list[TrackRecord]], frames: list[int],
                    ids: list[int]):
    records = [grouped.get(f, []) for f in frames]
    flat = [r for recs in records for r in recs]
    sizes = np.array([len(recs) for recs in records], dtype=np.intp)
    boxes = np.array([r.box for r in flat], dtype=np.float64).reshape(-1, 4)
    index = np.searchsorted(np.array(ids, dtype=np.int64),
                            np.array([r.track_id for r in flat], dtype=np.int64))
    return records, sizes, boxes, index


def reference_frame_table(gt: TrackSet, pred: TrackSet) -> ReferenceFrameTable:
    """Every frame's records, in the order they were added, and its IoU
    block."""
    gt_by_frame = by_frame(gt)
    pred_by_frame = by_frame(pred)
    frames = sorted(set(gt_by_frame) | set(pred_by_frame))
    gt_ids, pred_ids = track_ids(gt), track_ids(pred)
    gt_recs, n_gt, gt_boxes, gt_index = _reference_side(gt_by_frame, frames, gt_ids)
    pred_recs, n_pred, pred_boxes, pred_index = _reference_side(pred_by_frame, frames,
                                                                pred_ids)
    n_pairs = n_gt * n_pred
    p = np.arange(n_pairs.sum()) - np.repeat(np.cumsum(n_pairs) - n_pairs, n_pairs)
    width = np.repeat(n_pred, n_pairs)
    rows = np.repeat(np.cumsum(n_gt) - n_gt, n_pairs) + p // width
    cols = np.repeat(np.cumsum(n_pred) - n_pred, n_pairs) + p % width
    pair_ious = broadcast_iou(gt_boxes[rows], pred_boxes[cols])
    ious = [block.reshape(g, q) for block, g, q in
            zip(_split(pair_ious, n_pairs), n_gt.tolist(), n_pred.tolist())]
    return ReferenceFrameTable(frames, gt_recs, pred_recs, gt_ids, pred_ids,
                               _split(gt_index, n_gt), _split(pred_index, n_pred), ious)


def reference_mota(gt: TrackSet, pred: TrackSet, table: ReferenceFrameTable):
    """MOTA and its counts, one frame's matching and ID switches at a time."""
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


def reference_idf1(gt: TrackSet, pred: TrackSet, table: ReferenceFrameTable) -> float:
    """IDF1 with the id overlap counted one frame at a time."""
    if len(gt) == 0:
        raise UndefinedMetricError("IDF1 is undefined for empty ground truth")
    overlap = np.zeros((len(table.gt_ids), len(table.pred_ids)))
    for gi, pj, ious in zip(table.gt_index, table.pred_index, table.ious):
        r, c = np.nonzero(ious >= IOU_THRESHOLD)
        overlap[gi[r], pj[c]] += 1
    rows, cols = linear_sum_assignment(-overlap)
    idtp = overlap[rows, cols].sum()
    idfn = len(gt) - idtp
    idfp = len(pred) - idtp
    denominator = 2 * idtp + idfp + idfn
    return float(2 * idtp / denominator) if denominator else 0.0


def reference_potential(table: ReferenceFrameTable) -> np.ndarray:
    """HOTA's alignment potential, ground-truth ids by prediction ids, added
    up one frame's IoU block at a time."""
    potential = np.zeros((len(table.gt_ids), len(table.pred_ids)))
    for gi, pj, sim in zip(table.gt_index, table.pred_index, table.ious):
        if sim.size:
            denom = sim.sum(axis=0)[None, :] + sim.sum(axis=1)[:, None] - sim
            ratio = np.divide(sim, denom, out=np.zeros_like(sim), where=denom > 1e-12)
            potential[gi[:, None], pj] += ratio
    return potential


def reference_hota(gt: TrackSet, pred: TrackSet, table: ReferenceFrameTable):
    """HOTA / DetA / AssA and the per-alpha values, with each frame's row and
    column sums, alignment potential and matching computed on its own block
    and one AssA sum per alpha."""
    if len(gt) == 0:
        raise UndefinedMetricError("HOTA is undefined for empty ground truth")
    shape = (len(ALPHAS), len(table.gt_ids), len(table.pred_ids))
    potential = reference_potential(table)
    frame_data = [(gi, pj, sim) for gi, pj, sim in
                  zip(table.gt_index, table.pred_index, table.ious) if sim.size]
    gt_count = np.bincount(np.concatenate(table.gt_index),
                           minlength=shape[1]).astype(np.float64)
    pred_count = np.bincount(np.concatenate(table.pred_index),
                             minlength=shape[2]).astype(np.float64)

    union = gt_count[:, None] + pred_count[None, :] - potential
    alignment = np.where(union > 0, potential / np.maximum(union, 1e-12), 0.0)

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


def reference_evaluate(gt: TrackSet, pred: TrackSet) -> MetricReport:
    """The :class:`MetricReport` of the three per-frame reference metrics."""
    table = reference_frame_table(gt, pred)
    hota_v, deta_v, assa_v, per_alpha = reference_hota(gt, pred, table)
    mota_v, counts = reference_mota(gt, pred, table)
    return MetricReport(hota=hota_v, deta=deta_v, assa=assa_v, mota=mota_v,
                        idf1=reference_idf1(gt, pred, table), counts=counts,
                        per_alpha=per_alpha)


def random_sequence(rng, n_ids: int, n_frames: int) -> tuple[TrackSet, TrackSet]:
    """A ground-truth and prediction pair over ``n_frames`` frames with up to
    ``n_ids`` targets a frame. Frames hold both sides, ground truth only,
    predictions only or nothing. Boxes sit on an integer grid, so IoUs tie;
    some boxes are degenerate, some predictions copy a box exactly, ids
    switch, and each frame's records are added in shuffled id order."""
    base = np.column_stack([rng.integers(0, 60, (n_ids, 2)), rng.integers(4, 20, (n_ids, 2))])
    velocity = rng.integers(-2, 3, (n_ids, 2))
    pred_id = np.arange(1, n_ids + 1) + 100
    gt, pred = TrackSet(), TrackSet()
    for frame in range(n_frames):
        kind = rng.choice(["both", "both", "both", "gt", "pred", "none"])
        if rng.uniform() < 0.15:                     # an identity switch
            a, b = rng.integers(0, n_ids, 2)
            pred_id[[a, b]] = pred_id[[b, a]]
        gt_recs, pred_recs = [], []
        for k in rng.permutation(n_ids).tolist():
            if rng.uniform() < 0.2:
                continue
            box = base[k].astype(float)
            box[:2] += velocity[k] * frame
            if rng.uniform() < 0.05:                 # zero width or negative height
                box[2 + int(rng.integers(0, 2))] = float(rng.integers(-3, 1))
            if kind in ("both", "gt"):
                gt_recs.append(TrackRecord(frame, k + 1, tuple(box.tolist())))
            if kind in ("both", "pred") and rng.uniform() < 0.85:
                jitter = rng.integers(-2, 3, 4) * (rng.uniform() < 0.6)
                pred_recs.append(TrackRecord(frame, int(pred_id[k]),
                                             tuple((box + jitter).tolist())))
        if kind in ("both", "pred") and pred_recs and rng.uniform() < 0.3:
            # a false positive on another prediction's exact box
            copied = pred_recs[int(rng.integers(0, len(pred_recs)))].box
            pred_recs.append(TrackRecord(frame, 1000 + frame, copied))
        for record in gt_recs:
            gt.add(record)
        for record in pred_recs:
            pred.add(record)
    return gt, pred


def random_tiny_case(rng, max_ids=3, max_frames=4):
    """Random gt/pred TrackSet pair with <= max_ids ids and <= max_frames frames."""
    from semtrack.tracks import TrackRecord

    def random_set(forbid_empty: bool):
        while True:
            n_ids = int(rng.integers(1, max_ids + 1))
            n_frames = int(rng.integers(1, max_frames + 1))
            records = []
            for track_id in range(1, n_ids + 1):
                for frame in range(n_frames):
                    if rng.uniform() < 0.75:
                        box = (float(rng.uniform(0, 60)), float(rng.uniform(0, 60)),
                               float(rng.uniform(8, 40)), float(rng.uniform(8, 40)))
                        records.append(TrackRecord(frame=frame, track_id=track_id,
                                                   box=box))
            if records or not forbid_empty:
                return TrackSet(records)

    return random_set(True), random_set(False)


def reference_bilinear_resize(frame: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """``frames.resize(frame, out_h, out_w, "bilinear")`` for a frame whose
    size changes, written with one row gather per corner and each weight
    spelled out where it is used."""
    frame = np.asarray(frame, dtype=np.float64)
    h, w = frame.shape
    src_r = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0.0, h - 1.0)
    src_c = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0.0, w - 1.0)
    r0 = np.minimum(src_r.astype(np.int64), h - 2) if h > 1 else np.zeros(out_h, np.int64)
    c0 = np.minimum(src_c.astype(np.int64), w - 2) if w > 1 else np.zeros(out_w, np.int64)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = (src_r - r0)[:, None]
    fc = (src_c - c0)[None, :]
    top = frame[r0][:, c0] * (1 - fc) + frame[r0][:, c1] * fc
    bottom = frame[r1][:, c0] * (1 - fc) + frame[r1][:, c1] * fc
    return top * (1 - fr) + bottom * fr


def _reference_convolve_axis(frame: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    half = kernel.size // 2
    if half == 0:
        return frame * kernel[0]
    pad = [(0, 0), (0, 0)]
    pad[axis] = (half, half)
    padded = np.pad(frame, pad, mode="reflect")
    out = np.zeros_like(frame)
    for i, k in enumerate(kernel):
        if axis == 0:
            out += k * padded[i:i + frame.shape[0], :]
        else:
            out += k * padded[:, i:i + frame.shape[1]]
    return out


def reference_apply_chain(chain: DegradationChain, frame: np.ndarray,
                          sequence_id: str = "", frame_index: int = 0) -> np.ndarray:
    """Frame ``frame_index`` of :func:`semtrack.degrade.apply_chain` on a
    sequence, computed for that frame alone: ``np.pad`` and one temporary per
    blur tap, a fresh array per op, the noise keyed as the sequence call keys
    it."""
    frame = np.asarray(frame, dtype=np.float64)
    h, w = frame.shape
    out = frame.copy()
    for op in chain.ops:
        if isinstance(op, GaussianBlur):
            kernel = _gaussian_kernel(op.sigma, op.kernel_size)
            out = _reference_convolve_axis(_reference_convolve_axis(out, kernel, 0), kernel, 1)
        elif isinstance(op, Downsample):
            small_h = max(1, int(round(h * op.scale)))
            small_w = max(1, int(round(w * op.scale)))
            out = resize(resize(out, small_h, small_w, op.resample), h, w, op.resample)
        elif isinstance(op, GaussianNoise):
            if op.sigma > 0.0:
                rng = _noise_rng(chain, op, sequence_id, frame_index)
                out = out + rng.normal(0.0, op.sigma, size=out.shape)
    return np.clip(out, 0.0, 1.0)


def per_box_descriptor(frame: np.ndarray, box) -> np.ndarray:
    """1 x 70 descriptor of one box: its pixel crop resized to 8x8 by
    ``frames.resize``, as :func:`semtrack.tracker.box_descriptor` computes it
    for many boxes at once."""
    height, width = frame.shape
    l, t, w, h = box
    c0 = min(max(int(math.floor(l)), 0), width - 1)
    r0 = min(max(int(math.floor(t)), 0), height - 1)
    c1 = min(max(int(math.ceil(l + w)), c0 + 1), width)
    r1 = min(max(int(math.ceil(t + h)), r0 + 1), height)
    patch = resize(frame[r0:r1, c0:c1], PATCH, PATCH, "bilinear")
    geometry = np.array([l / width, t / height, w / width, h / height])
    return np.concatenate([geometry, patch.reshape(-1),
                           [patch.mean(), patch.std()]]).reshape(1, -1)


def reference_quality_figures(frame: np.ndarray) -> tuple[float, float, float]:
    """Clarity, noise sigma and contrast as :func:`semtrack.quality.assess_quality`
    defines them, each one plain numpy expression: the variance of the 3x3
    Laplacian, Immerkaer's estimate and the pixel standard deviation."""
    core = frame[1:-1, 1:-1]
    lap = (frame[:-2, 1:-1] + frame[2:, 1:-1] + frame[1:-1, :-2] + frame[1:-1, 2:]
           - 4.0 * core)
    resid = (frame[:-2, :-2] - 2.0 * frame[:-2, 1:-1] + frame[:-2, 2:]
             - 2.0 * frame[1:-1, :-2] + 4.0 * core - 2.0 * frame[1:-1, 2:]
             + frame[2:, :-2] - 2.0 * frame[2:, 1:-1] + frame[2:, 2:])
    h, w = frame.shape
    noise_sigma = float(math.sqrt(math.pi / 2.0)
                        * np.abs(resid).sum() / (6.0 * (w - 2) * (h - 2)))
    return float(lap.var()), noise_sigma, float(frame.std())


def transpose(m: Matrix) -> Matrix:
    """The transposed matrix as a recorded op, a C-ordered copy; its rule
    hands back a view of the output gradient."""
    return ad._emit((m,), m.data.T.copy(), lambda g: (g.T,))


def concat(parts: list[Matrix], axis: int) -> Matrix:
    """The matrices stacked (``axis=0``) or side by side (``axis=1``); each
    part's gradient is its block of the output's, a view."""
    if len({p.shape[1 - axis] for p in parts}) != 1:
        raise DimensionError(f"concat along axis {axis} needs matrices of one "
                             f"{('width', 'height')[axis]}, got {[p.shape for p in parts]}")
    edges = np.cumsum([0] + [p.shape[axis] for p in parts]).tolist()
    spans = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]

    def vjp(g):
        return [g[span] if axis == 0 else g[:, span] for span in spans]

    return ad._emit(parts, np.concatenate([p.data for p in parts], axis=axis), vjp)


def relu(m: Matrix) -> Matrix:
    data, rule = ad._relu(m.data)
    return ad._emit((m,), data, lambda g: (rule(g),))


def multi_head_attention(q: Matrix, k: Matrix, v: Matrix, num_heads: int,
                         segments) -> Matrix:
    """Attention over ``num_heads`` heads, each row within its segment, as
    one op of ``autodiff._attention``: each segment's rows are contiguous."""
    _check_attention(q, k, v)
    bounds = ad._attention_segments(q.shape, num_heads, segments)
    return ad._emit((q, k, v), *ad._attention(q.data, k.data, v.data, num_heads, bounds))


def masked_attention(q: Matrix, k: Matrix, v: Matrix, num_heads: int, segments) -> Matrix:
    """The reference for :func:`multi_head_attention`, for any labels: every
    head's n x n logits, those between rows of different labels ``-inf``,
    so that their weights are exactly 0 and the rule needs no mask."""
    _check_attention(q, k, v)
    n, width = q.shape
    if width % num_heads:
        raise DimensionError(f"width {width} is not divisible by {num_heads} heads")
    labels = np.asarray(segments)
    if labels.shape != (n,):
        raise DimensionError(f"need one segment label per row ({n}), got {labels.shape}")
    head_dim = width // num_heads
    inv_scale = 1.0 / math.sqrt(head_dim)

    def heads(m: np.ndarray) -> np.ndarray:   # n x width -> heads x n x head_dim
        return m.reshape(n, num_heads, head_dim).transpose(1, 0, 2)

    def merge(m: np.ndarray) -> np.ndarray:   # heads x n x head_dim -> n x width
        return np.ascontiguousarray(m.transpose(1, 0, 2).reshape(n, width))

    qh = np.ascontiguousarray(heads(q.data))
    kt = np.ascontiguousarray(heads(k.data).transpose(0, 2, 1))
    vh = np.ascontiguousarray(heads(v.data))
    attn = qh @ kt
    attn *= inv_scale
    attn = np.where(labels[:, None] == labels[None, :], attn, -np.inf)
    attn -= attn.max(axis=2, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=2, keepdims=True)

    def vjp(g):
        gh = heads(g)
        dattn = gh @ vh.transpose(0, 2, 1)
        inner = (dattn * attn).sum(axis=2, keepdims=True)
        dz = attn * (dattn - inner) * inv_scale
        return (merge(dz @ kt.transpose(0, 2, 1)),
                merge((qh.transpose(0, 2, 1) @ dz).transpose(0, 2, 1)),
                merge(attn.transpose(0, 2, 1) @ gh))

    return ad._emit((q, k, v), merge(attn @ vh), vjp)


def _check_attention(q: Matrix, k: Matrix, v: Matrix) -> None:
    if not q.shape == k.shape == v.shape:
        raise DimensionError(
            f"attention needs equal q/k/v shapes, got {q.shape}, {k.shape}, {v.shape}")


def layer_norm_rows(x: Matrix, gain: Matrix, bias: Matrix) -> Matrix:
    ad._check_norm(x.cols, gain, bias)
    return ad._emit((x, gain, bias), *ad._layer_norm(x.data, gain.data, bias.data))


def cross_entropy_rows(logits: Matrix, targets) -> Matrix:
    """Mean cross-entropy of the row-wise softmax against integer targets."""
    value, rule = ad._cross_entropy(logits.data, targets)
    return ad._emit((logits,), np.array([[value]]), lambda g: (rule(g),))


def composite_blend_rows(w: Matrix, a: Matrix, b: Matrix) -> Matrix:
    """``autodiff.blend_rows`` as five ops: the n x 1 weight spread over the
    columns by a product with a row of ones, then ``w*a + (1 - w)*b``
    element-wise."""
    rows, cols = a.shape
    spread = ad.matmul(w, Matrix(np.ones((1, cols))))
    one_minus = ad.sub(Matrix(np.ones((rows, cols))), spread)
    return ad.add(ad.multiply(spread, a), ad.multiply(one_minus, b))


def composite_attention_sublayer(h: Matrix, wq: Matrix, bq: Matrix, wk: Matrix, bk: Matrix,
                                 wv: Matrix, bv: Matrix, wo: Matrix, bo: Matrix,
                                 gain: Matrix, bias: Matrix, num_heads: int,
                                 segments) -> Matrix:
    """``autodiff.attention_sublayer`` as seven ops: the query, key and value
    projections, multi-head attention, the output projection, the residual
    add and the layer norm."""
    merged = multi_head_attention(ad.linear(h, wq, bq), ad.linear(h, wk, bk),
                                     ad.linear(h, wv, bv), num_heads, segments)
    return layer_norm_rows(ad.add(h, ad.linear(merged, wo, bo)), gain, bias)


def composite_feed_forward_sublayer(h: Matrix, w1: Matrix, b1: Matrix, w2: Matrix,
                                    b2: Matrix, gain: Matrix, bias: Matrix) -> Matrix:
    """``autodiff.feed_forward_sublayer`` as five ops: a projection, ReLU,
    a projection, the residual add and the layer norm."""
    out = ad.linear(relu(ad.linear(h, w1, b1)), w2, b2)
    return layer_norm_rows(ad.add(h, out), gain, bias)


def composite_contrastive_pairs(m: Matrix, pairs, factor: float) -> Matrix:
    """``autodiff.contrastive_pairs`` as seven ops a pair: both row picks, the
    transpose, the product, the scale and the cross-entropy, and the ``add``
    that sums the pair terms left to right."""
    total = None
    for anchors, targets, candidates in pairs:
        logits = ad.scale(ad.matmul(ad.take_rows(m, anchors),
                                    transpose(ad.take_rows(m, candidates))), factor)
        term = cross_entropy_rows(logits, targets)
        total = term if total is None else ad.add(total, term)
    return total


def per_frame_scene_losses(model, sample, train, quality_ranges) -> dict:
    """The dict :func:`semtrack.training.scene_losses` returns, computed one
    frame at a time."""
    per_frame = detections_by_frame(sample.detections, len(sample.frames))
    gt_by_frame = by_frame(sample.gt)
    height, width = sample.frames[0].shape

    def mean(terms):
        total = terms[0]
        for term in terms[1:]:
            total = ad.add(total, term)
        return ad.scale(total, 1.0 / len(terms))

    fused, labels, breakdowns = {}, {}, []
    for f in sorted(per_frame):
        frame, dets = sample.frames[f], per_frame[f]
        descriptors = box_descriptor([frame], [[det.box for det in dets]])
        x = model.embed_descriptors(Matrix(descriptors))
        quality = model.quality_column([frame], quality_ranges)
        fused[f], semantic = model.encode_queries(x, quality, [0] * x.rows)
        gt_recs = gt_by_frame.get(f, [])
        labels[f] = match_detections_to_gt(dets, [r.track_id for r in gt_recs],
                                           [r.box for r in gt_recs])
        if semantic is not None:
            teacher = Matrix(pseudo_teacher(frame, train.teacher_seed))
            breakdowns.append(model.dcsd.loss(semantic, [0] * semantic.rows, teacher))

    mot_terms = []
    for f in sorted(fused):
        if f + 1 not in fused or not labels[f] or not labels[f + 1]:
            continue
        id_to_next = {gid: det for det, gid in labels[f + 1].items()}
        pairs = [(det, id_to_next[gid]) for det, gid in sorted(labels[f].items())
                 if gid in id_to_next]
        if not pairs:
            continue
        anchors = ad.take_rows(fused[f], [det for det, _ in pairs])
        sims = ad.matmul(ad.l2_normalize_rows(anchors),
                         transpose(ad.l2_normalize_rows(fused[f + 1])))
        mot_terms.append(cross_entropy_rows(
            ad.scale(sims, 1.0 / CONTRASTIVE_TEMPERATURE), [nxt for _, nxt in pairs]))

    preds, targets = [], []
    for f, frame_labels in sorted(labels.items()):
        if not frame_labels:
            continue
        gt_recs = {r.track_id: r for r in gt_by_frame.get(f, [])}
        rows = sorted(frame_labels)
        preds.append(ad.take_rows(model.predict_boxes(fused[f]), rows))
        for det in rows:
            l, t, w, h = gt_recs[frame_labels[det]].box
            targets.append([l / width, t / height, w / width, h / height])
    if preds:
        mot_terms.append(ad.mean_abs_diff(concat(preds, axis=0), Matrix(np.array(targets))))

    zero = Matrix([[0.0]])
    l_mot = mean(mot_terms) if mot_terms else zero
    if not breakdowns:
        return {"total": l_mot, "l_mot": l_mot, "l_distill": zero,
                "l_local": 0.0, "l_global": 0.0, "w1": 0.0, "w2": 0.0}
    l_distill = mean([b.loss_node for b in breakdowns])
    n = len(breakdowns)
    return {
        "total": ad.add(ad.scale(l_distill, train.alpha), ad.scale(l_mot, 1.0 - train.alpha)),
        "l_mot": l_mot,
        "l_distill": l_distill,
        "l_local": sum(b.l_local for b in breakdowns) / n,
        "l_global": sum(b.l_global for b in breakdowns) / n,
        "w1": breakdowns[0].w1,
        "w2": breakdowns[0].w2,
    }


MAX_AGE = 3


@dataclass
class _ReferenceTrack:
    track_id: int
    feature: np.ndarray
    box: tuple[float, float, float, float]
    confidence: float
    misses: int = 0


def _cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine similarity of every row of ``a`` with every row of ``b``."""
    an = a / np.maximum(np.linalg.norm(a, axis=1, keepdims=True), 1e-12)
    bn = b / np.maximum(np.linalg.norm(b, axis=1, keepdims=True), 1e-12)
    return an @ bn.T


def reference_track_sequence(frames, detections, model,
                             quality_ranges: QualityRanges = QualityRanges()) -> TrackSet:
    """:func:`semtrack.tracker.track_sequence` with every track kept for up
    to ``MAX_AGE`` misses, carried only while its confidence exceeds
    ``PROPAGATE_CONFIDENCE``."""
    per_frame = detections_by_frame(detections, len(frames))
    output = TrackSet()
    active: list[_ReferenceTrack] = []
    next_id = 1
    for frame_index, frame in enumerate(frames):
        dets = per_frame.get(frame_index, [])
        carried = [trk for trk in active if trk.confidence > PROPAGATE_CONFIDENCE]
        rows = [trk.feature for trk in carried]
        n_carried = len(rows)
        if dets:
            rows.append(model.embed_descriptors(
                Matrix(box_descriptor([frame], [[det.box for det in dets]]))).data)
        x = Matrix(np.concatenate(rows, axis=0)) if rows else None
        fused = None
        if x is not None:
            quality = model.quality_column([frame], quality_ranges)
            fused = model.encode_queries(x, quality, [0] * x.rows)[0].data

        track_feats = fused[:n_carried] if fused is not None else np.zeros((0, FEATURE_DIM))
        prop_feats = (fused[n_carried:] if fused is not None
                      else np.zeros((0, FEATURE_DIM)))

        matched_tracks: set[int] = set()
        matched_props: set[int] = set()
        if carried and dets:
            cost = (1.0 - _cosine(track_feats, prop_feats)
                    + IOU_WEIGHT * (1.0 - iou_matrix([trk.box for trk in carried],
                                                     [det.box for det in dets])))
            gated = np.where(cost <= MATCH_GATE, cost, 1e9)
            rows_idx, cols_idx = linear_sum_assignment(gated)
            for r, c in zip(rows_idx, cols_idx):
                if cost[r, c] <= MATCH_GATE:
                    trk = carried[r]
                    trk.box = dets[c].box
                    trk.feature = prop_feats[c:c + 1].copy()
                    trk.confidence = dets[c].confidence
                    trk.misses = 0
                    matched_tracks.add(id(trk))
                    matched_props.add(c)
                    output.add(TrackRecord(frame=frame_index, track_id=trk.track_id,
                                           box=dets[c].box,
                                           confidence=dets[c].confidence))

        newborn: set[int] = set()
        for c, det in enumerate(dets):
            if c in matched_props or det.confidence < BIRTH_CONFIDENCE:
                continue
            track = _ReferenceTrack(track_id=next_id, feature=prop_feats[c:c + 1].copy(),
                                    box=det.box, confidence=det.confidence)
            next_id += 1
            active.append(track)
            newborn.add(id(track))
            output.add(TrackRecord(frame=frame_index, track_id=track.track_id,
                                   box=det.box, confidence=det.confidence))

        # age everything that neither matched nor was born this frame
        survivors = []
        for trk in active:
            if id(trk) in matched_tracks or id(trk) in newborn:
                survivors.append(trk)
                continue
            trk.misses += 1
            trk.confidence *= MISS_DECAY
            if trk.misses <= MAX_AGE:
                survivors.append(trk)
        active = survivors
    return output
