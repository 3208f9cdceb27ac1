"""Reference implementations for tests: brute-force metric oracles for tiny
cases, a one-box-at-a-time proposal descriptor, and a frame-by-frame
reference for the training losses.

The metric oracles recompute everything from the metric definitions with
plain loops and dicts; optimal assignments are found by enumerating every
matching instead of the Hungarian algorithm the implementation uses.

:func:`per_frame_scene_losses` computes the losses of one training scene the
way the tracker sees frames: one embedding, one student call and one fusion
per frame, a one-frame distillation loss per frame averaged over frames, and
the contrastive and box terms built from those per-frame features.
"""

from __future__ import annotations

import math

import numpy as np

from semtrack import autodiff as ad
from semtrack.autodiff import Matrix
from semtrack.frames import resize
from semtrack.scenes import detections_by_frame
from semtrack.teacher import pseudo_teacher
from semtrack.tracker import PATCH, box_descriptor
from semtrack.training import CONTRASTIVE_TEMPERATURE, match_detections_to_gt
from semtrack.tracks import TrackSet, box_iou


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


def _frames(gt: TrackSet, pred: TrackSet):
    gt_by_frame = gt.by_frame()
    pred_by_frame = pred.by_frame()
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
    gt_ids = gt.ids()
    pred_ids = pred.ids()
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
    gt_ids = gt.ids()
    pred_ids = pred.ids()
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


def per_frame_scene_losses(model, sample, train, tracker_config) -> dict:
    """The dict :func:`semtrack.training.scene_losses` returns, computed one
    frame at a time."""
    per_frame = detections_by_frame(sample.detections, len(sample.frames))
    gt_by_frame = sample.gt.by_frame()
    height, width = sample.frames[0].shape

    def mean(terms):
        total = terms[0]
        for term in terms[1:]:
            total = ad.add(total, term)
        return ad.scale(total, 1.0 / len(terms))

    fused, labels, breakdowns = {}, {}, []
    for f in sorted(per_frame):
        frame, dets = sample.frames[f], per_frame[f]
        x = model.embed_descriptors(box_descriptor(frame, [det.box for det in dets]))
        fused[f], semantic = model.encode_queries(x, [frame], tracker_config)
        labels[f] = match_detections_to_gt(dets, gt_by_frame.get(f, []))
        if semantic is not None:
            breakdowns.append(model.dcsd.loss(semantic, [0] * semantic.rows,
                                              [pseudo_teacher(frame, train.teacher_seed)]))

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
                         ad.transpose(ad.l2_normalize_rows(fused[f + 1])))
        mot_terms.append(ad.cross_entropy_rows(
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
        mot_terms.append(ad.mean_abs_diff(ad.concat_rows(preds), Matrix(np.array(targets))))

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
