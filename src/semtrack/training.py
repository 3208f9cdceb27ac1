"""Joint training of tracker, student and fusion heads.

The tracking loss is a declared simplification of the full end-to-end
tracker's objective: a contrastive association term (cross-entropy over
temperature-scaled cosine similarities between a frame's ground-truth-matched
queries and the next frame's candidates) plus an L1 box-regression term from
a linear box head, summed 1:1. The total per step is
``alpha * distillation + (1 - alpha) * tracking`` with alpha in (0, 1). The
distillation target of each frame is its pseudo-teacher embedding
(:func:`semtrack.teacher.pseudo_teacher` under ``teacher_seed``).

One training step consumes one scene; plain gradient descent with a single
x0.1 learning-rate drop two-thirds of the way through the epoch budget.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from semtrack import autodiff as ad
from semtrack.autodiff import Matrix, Tape
from semtrack.scenes import Detection, detections_by_frame
from semtrack.teacher import pseudo_teacher
from semtrack.tracker import TrackerConfig, TrackerModel, box_descriptor
from semtrack.tracks import TrackSet, box_iou

LOG_COLUMNS = ("step", "l_local", "l_global", "w1", "w2", "l_distill", "l_mot", "total")


class TrainingDivergedError(RuntimeError):
    def __init__(self, step: int):
        super().__init__(f"loss became non-finite at step {step}")
        self.step = step


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.4
    epochs: int = 12
    learning_rate: float = 5e-3
    decay_factor: float = 0.1
    decay_at: float = 2.0 / 3.0          # fraction of epochs before the lr drop
    contrastive_temperature: float = 0.1
    box_loss_weight: float = 1.0
    teacher_seed: int = 0
    match_iou: float = 0.5               # gt-to-detection supervision matching

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        for name in ("learning_rate", "decay_factor", "contrastive_temperature"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0.0 <= self.decay_at <= 1.0:
            raise ValueError(f"decay_at must lie in [0, 1], got {self.decay_at}")
        if not 0.0 < self.match_iou < 1.0:
            raise ValueError(f"match_iou must lie in (0, 1), got {self.match_iou}")


@dataclass
class SceneSample:
    """One training scene: frames, detections and ground truth."""

    frames: list[np.ndarray]
    detections: list[Detection]
    gt: TrackSet
    name: str = ""


def match_detections_to_gt(dets: Sequence[Detection], gt_records,
                           iou_threshold: float) -> dict[int, int]:
    """Index of detection -> ground-truth id, by optimal IoU matching."""
    if not dets or not gt_records:
        return {}
    ious = np.array([[box_iou(g.box, d.box) for d in dets] for g in gt_records])
    cost = np.where(ious >= iou_threshold, 1.0 - ious, 1e9)
    rows, cols = linear_sum_assignment(cost)
    return {int(c): gt_records[r].track_id for r, c in zip(rows, cols)
            if ious[r, c] >= iou_threshold}


def scene_losses(model: TrackerModel, sample: SceneSample, train: TrainConfig,
                 tracker_config: TrackerConfig) -> dict:
    """Differentiable distillation + tracking losses for one scene.

    Returns node and float views of every component; must run inside a Tape
    for gradients to be recorded.
    """
    per_frame = detections_by_frame(sample.detections)
    gt_by_frame = sample.gt.by_frame()
    height, width = sample.frames[0].shape

    fused_rows: dict[int, Matrix] = {}
    labels: dict[int, dict[int, int]] = {}
    distill_terms = []
    breakdowns = []
    for frame_index, frame in enumerate(sample.frames):
        dets = per_frame.get(frame_index, [])
        if not dets:
            continue
        descriptors = np.concatenate(
            [box_descriptor(frame, det.box) for det in dets], axis=0)
        x = model.embed_descriptors(descriptors)
        fused, semantic = model.encode_queries(x, frame, tracker_config)
        fused_rows[frame_index] = fused
        labels[frame_index] = match_detections_to_gt(
            dets, gt_by_frame.get(frame_index, []), train.match_iou)
        if semantic is not None:
            breakdown = model.dcsd.loss(semantic, pseudo_teacher(frame, train.teacher_seed))
            distill_terms.append(breakdown.loss_node)
            breakdowns.append(breakdown)

    mot_terms = []
    # association: every gt id seen in consecutive frames must pick its own
    # detection among all of the next frame's candidates
    for frame_index in sorted(fused_rows):
        nxt = frame_index + 1
        if nxt not in fused_rows:
            continue
        cur_labels = labels[frame_index]
        nxt_labels = labels[nxt]
        if not cur_labels or not nxt_labels:
            continue
        id_to_next = {gid: det_idx for det_idx, gid in nxt_labels.items()}
        anchor_rows = []
        targets = []
        for det_idx, gid in sorted(cur_labels.items()):
            if gid in id_to_next:
                anchor_rows.append(det_idx)
                targets.append(id_to_next[gid])
        if not anchor_rows:
            continue
        cur = fused_rows[frame_index]
        anchors = ad.concat_rows([ad.slice_rows(cur, i, i + 1) for i in anchor_rows]) \
            if len(anchor_rows) > 1 else ad.slice_rows(cur, anchor_rows[0], anchor_rows[0] + 1)
        sims = ad.matmul(ad.l2_normalize_rows(anchors),
                         ad.transpose(ad.l2_normalize_rows(fused_rows[nxt])))
        logits = ad.scale(sims, 1.0 / train.contrastive_temperature)
        mot_terms.append(ad.cross_entropy_rows(logits, targets))

    # box regression on every gt-matched query
    box_preds = []
    box_targets = []
    for frame_index, frame_labels in sorted(labels.items()):
        if not frame_labels:
            continue
        dets = per_frame[frame_index]
        gt_recs = {r.track_id: r for r in gt_by_frame.get(frame_index, [])}
        pred = model.predict_boxes(fused_rows[frame_index])
        for det_idx, gid in sorted(frame_labels.items()):
            l, t, w, h = gt_recs[gid].box
            box_preds.append(ad.slice_rows(pred, det_idx, det_idx + 1))
            box_targets.append([l / width, t / height, w / width, h / height])
    if box_preds:
        stacked = box_preds[0] if len(box_preds) == 1 else ad.concat_rows(box_preds)
        box_loss = ad.mean_abs_diff(stacked, Matrix(np.array(box_targets)))
        mot_terms.append(ad.scale(box_loss, train.box_loss_weight))

    def mean_node(terms):
        if not terms:
            return Matrix([[0.0]])
        total = terms[0]
        for term in terms[1:]:
            total = ad.add(total, term)
        return ad.scale(total, 1.0 / len(terms))

    l_mot = mean_node(mot_terms)
    if model.student is not None:
        l_distill = mean_node(distill_terms)
        total = ad.add(ad.scale(l_distill, train.alpha),
                       ad.scale(l_mot, 1.0 - train.alpha))
    else:
        l_distill = Matrix([[0.0]])
        total = l_mot

    n = max(len(breakdowns), 1)
    return {
        "total": total,
        "l_mot": l_mot,
        "l_distill": l_distill,
        "l_local": sum(b.l_local for b in breakdowns) / n if breakdowns else 0.0,
        "l_global": sum(b.l_global for b in breakdowns) / n if breakdowns else 0.0,
        "w1": breakdowns[0].w1 if breakdowns else 0.0,
        "w2": breakdowns[0].w2 if breakdowns else 0.0,
    }


def train(model: TrackerModel, samples: Sequence[SceneSample], train_config: TrainConfig,
          tracker_config: TrackerConfig = TrackerConfig(),
          log_path: str | Path | None = None) -> list[dict]:
    """Run the full schedule; returns (and optionally writes) the step log."""
    if not samples:
        raise ValueError("no training scenes")
    decay_epoch = int(train_config.epochs * train_config.decay_at)
    log: list[dict] = []
    step = 0
    for epoch in range(train_config.epochs):
        lr = train_config.learning_rate
        if epoch >= decay_epoch:
            lr *= train_config.decay_factor
        for sample in samples:
            step += 1
            with Tape() as tape:
                losses = scene_losses(model, sample, train_config, tracker_config)
                total = losses["total"].item()
                if not np.isfinite(total):
                    raise TrainingDivergedError(step)
                tape.backward(losses["total"])
            model.step(lr)
            model.zero_grads()
            log.append({
                "step": step,
                "l_local": losses["l_local"],
                "l_global": losses["l_global"],
                "w1": losses["w1"],
                "w2": losses["w2"],
                "l_distill": losses["l_distill"].item(),
                "l_mot": losses["l_mot"].item(),
                "total": total,
            })
    if log_path is not None:
        write_training_log(log, log_path)
    return log


def write_training_log(log: list[dict], path: str | Path) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_COLUMNS)
        for row in log:
            writer.writerow([row["step"]] + [f"{row[c]:.10g}" for c in LOG_COLUMNS[1:]])
