"""Joint training of tracker, student and fusion heads.

The tracking loss is a declared simplification of the full end-to-end
tracker's objective: a contrastive association term (cross-entropy over
temperature-scaled cosine similarities between a frame's ground-truth-matched
queries and the next frame's candidates) plus an L1 box-regression term from
a linear box head, summed 1:1. The total per step is
``alpha * distillation + (1 - alpha) * tracking`` with alpha in (0, 1). The
distillation target of each frame is its pseudo-teacher embedding
(:func:`semtrack.teacher.pseudo_teacher` under ``teacher_seed``), and the
distillation loss is the mean of the per-frame losses.

A scene's frames are independent sets of queries, so a step runs the whole
scene as one stack of rows: one query embedding, one student call (its
attention masked to each frame's rows) and one box-head call per scene. The
losses are those of running the frames one by one, up to summation order.

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
from semtrack.tracks import TrackSet, iou_matrix

LOG_COLUMNS = ("step", "l_local", "l_global", "w1", "w2", "l_distill", "l_mot", "total")

# the schedule and loss settings; the paper tunes none of them
LEARNING_RATE = 5e-3
DECAY_FACTOR = 0.1
DECAY_AT = 2.0 / 3.0                # fraction of epochs before the lr drop
CONTRASTIVE_TEMPERATURE = 0.1
MATCH_IOU = 0.5                     # gt-to-detection supervision matching


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.4
    epochs: int = 12
    teacher_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class SceneSample:
    """One training scene: frames, detections and ground truth."""

    frames: list[np.ndarray]
    detections: list[Detection]
    gt: TrackSet
    name: str = ""


def match_detections_to_gt(dets: Sequence[Detection], gt_records) -> dict[int, int]:
    """Index of detection -> ground-truth id, by optimal IoU matching."""
    if not dets or not gt_records:
        return {}
    ious = iou_matrix([g.box for g in gt_records], [d.box for d in dets])
    cost = np.where(ious >= MATCH_IOU, 1.0 - ious, 1e9)
    rows, cols = linear_sum_assignment(cost)
    return {int(c): gt_records[r].track_id for r, c in zip(rows, cols)
            if ious[r, c] >= MATCH_IOU}


def scene_losses(model: TrackerModel, sample: SceneSample, train: TrainConfig,
                 tracker_config: TrackerConfig) -> dict:
    """Differentiable distillation + tracking losses for one scene.

    The rows of every frame with detections are stacked into one matrix and
    embedded, encoded and box-predicted in one call each; ``segments`` gives
    each row's frame, counted over the frames with detections only. Returns
    node and float views of every component; must run inside a Tape for
    gradients to be recorded.
    """
    per_frame = detections_by_frame(sample.detections, len(sample.frames))
    gt_by_frame = sample.gt.by_frame()
    height, width = sample.frames[0].shape

    # one pass over the scene: segment k holds the rows of frame frame_ids[k],
    # rows first_row[k] to first_row[k + 1]
    frame_ids = sorted(per_frame)
    descriptors = []
    segments = []
    first_row = [0]
    labels: list[dict[int, int]] = []
    for segment, frame_index in enumerate(frame_ids):
        dets = per_frame[frame_index]
        first_row.append(first_row[-1] + len(dets))
        descriptors.append(box_descriptor(sample.frames[frame_index],
                                          [det.box for det in dets]))
        segments.extend([segment] * len(dets))
        labels.append(match_detections_to_gt(dets, gt_by_frame.get(frame_index, [])))
    zero = Matrix([[0.0]])
    losses = {"total": zero, "l_mot": zero, "l_distill": zero,
              "l_local": 0.0, "l_global": 0.0, "w1": 0.0, "w2": 0.0}
    if not frame_ids:
        return losses
    segments = np.array(segments)
    frames = [sample.frames[frame_index] for frame_index in frame_ids]
    x = model.embed_descriptors(np.concatenate(descriptors, axis=0))
    fused, semantic = model.encode_queries(x, frames, tracker_config, segments)

    mot_terms = []
    # association: every gt id seen in consecutive frames must pick its own
    # detection among all of the next frame's candidates
    normed = ad.l2_normalize_rows(fused)
    for segment in range(len(frame_ids) - 1):
        if frame_ids[segment + 1] != frame_ids[segment] + 1:
            continue
        cur_labels = labels[segment]
        nxt_labels = labels[segment + 1]
        if not cur_labels or not nxt_labels:
            continue
        id_to_next = {gid: det_idx for det_idx, gid in nxt_labels.items()}
        anchor_rows = []
        targets = []
        for det_idx, gid in sorted(cur_labels.items()):
            if gid in id_to_next:
                anchor_rows.append(first_row[segment] + det_idx)
                targets.append(id_to_next[gid])
        if not anchor_rows:
            continue
        candidates = range(first_row[segment + 1], first_row[segment + 2])
        sims = ad.matmul(ad.take_rows(normed, anchor_rows),
                         ad.transpose(ad.take_rows(normed, candidates)))
        logits = ad.scale(sims, 1.0 / CONTRASTIVE_TEMPERATURE)
        mot_terms.append(ad.cross_entropy_rows(logits, targets))

    # box regression on every gt-matched query
    box_rows = []
    box_targets = []
    for segment, frame_labels in enumerate(labels):
        gt_recs = {r.track_id: r for r in gt_by_frame.get(frame_ids[segment], [])}
        for det_idx in sorted(frame_labels):
            box_rows.append(first_row[segment] + det_idx)
            l, t, w, h = gt_recs[frame_labels[det_idx]].box
            box_targets.append([l / width, t / height, w / width, h / height])
    if box_rows:
        predicted = model.predict_boxes(ad.take_rows(fused, box_rows))
        mot_terms.append(ad.mean_abs_diff(predicted, Matrix(np.array(box_targets))))

    if mot_terms:
        l_mot = mot_terms[0]
        for term in mot_terms[1:]:
            l_mot = ad.add(l_mot, term)
        losses["total"] = losses["l_mot"] = ad.scale(l_mot, 1.0 / len(mot_terms))
    if semantic is None:
        return losses
    breakdown = model.dcsd.loss(
        semantic, segments, [pseudo_teacher(frame, train.teacher_seed) for frame in frames])
    losses.update(
        total=ad.add(ad.scale(breakdown.loss_node, train.alpha),
                     ad.scale(losses["l_mot"], 1.0 - train.alpha)),
        l_distill=breakdown.loss_node, l_local=breakdown.l_local,
        l_global=breakdown.l_global, w1=breakdown.w1, w2=breakdown.w2)
    return losses


def train(model: TrackerModel, samples: Sequence[SceneSample], train_config: TrainConfig,
          tracker_config: TrackerConfig = TrackerConfig(),
          log_path: str | Path | None = None) -> list[dict]:
    """Run the full schedule; returns (and optionally writes) the step log."""
    if not samples:
        raise ValueError("no training scenes")
    decay_epoch = int(train_config.epochs * DECAY_AT)
    log: list[dict] = []
    step = 0
    for epoch in range(train_config.epochs):
        lr = LEARNING_RATE
        if epoch >= decay_epoch:
            lr *= DECAY_FACTOR
        for sample in samples:
            step += 1
            with Tape() as tape:
                losses = scene_losses(model, sample, train_config, tracker_config)
                tape.backward(losses["total"])
            # the tape keeps every activation and the weights it read; free it
            # before the update allocates the new weights
            del tape
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
                "total": losses["total"].item(),
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
