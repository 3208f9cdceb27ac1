"""Joint training of tracker, student and fusion heads.

The tracking loss is a declared simplification of the full end-to-end
tracker's objective: a contrastive association term (cross-entropy over
temperature-scaled cosine similarities between a frame's ground-truth-matched
queries and the next frame's candidates) plus an L1 box-regression term from
a linear box head, summed 1:1. The total per step is
``alpha * distillation + (1 - alpha) * tracking`` with alpha in (0, 1). The
distillation target of each frame is its pseudo-teacher row
(:func:`semtrack.teacher.pseudo_teacher` under ``teacher_seed``), and the
distillation loss is the mean of the per-frame losses.

A scene's frames are independent sets of queries, so a step runs the whole
scene as one stack of rows: one query embedding, one student call (its
attention masked to each frame's rows), one box-head call and one
contrastive op (:func:`semtrack.autodiff.contrastive_pairs`, every
consecutive-frame pair's association term) per scene. The losses are those of
running the frames one by one, up to summation order.

The teacher is frozen, so on a fixed corpus everything a step computes
before the model runs is a constant of the scene: the scene's stacked rows
(one :func:`~semtrack.tracker.sequence_rows` call, the layout tracking reads
too), gt labels and what the losses derive from them, the teacher block and
frame quality. Each :class:`SceneSample` caches them on its first step (keyed
on the teacher seed and the quality ranges where those matter), so only the
first epoch computes them; see :class:`SceneSample`.

One training step consumes one scene; plain gradient descent with a single
x0.1 learning-rate drop two-thirds of the way through the epoch budget.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from semtrack import autodiff as ad
from semtrack.autodiff import Matrix, Tape
from semtrack.quality import QualityRanges
from semtrack.scenes import Detection
from semtrack.teacher import pseudo_teacher
from semtrack.tracker import SequenceRows, TrackerModel, sequence_rows
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


def _read_only(frame) -> np.ndarray:
    view = np.asarray(frame).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class SceneSample:
    """One training scene: frames, detections and ground truth.

    Frozen, with a cache of the scene's training constants: everything a
    step computes that no parameter changes. :func:`scene_losses` fills it on
    the sample's first step and reads it on every later one, so a scene
    trained for many epochs pays for the constants once. Entries, each built
    on first use:

    * ``"plan"``: the :class:`_ScenePlan`, with the scene's stacked rows,
      contrastive pairs and box targets, from the frames, detections and
      ground truth alone;
    * ``("teacher", teacher_seed)``: one F x 1024 :class:`Matrix` holding
      each planned frame's pseudo-teacher row, for a model with a student;
    * ``("quality", quality_ranges)``: the planned frames' F x 1 quality
      column, for a model with DSWR.

    The cache starts empty, so building a corpus costs nothing extra, and a
    sample that is never trained, or trained once, computes each constant at
    most once, as an uncached step would. It is built from the fields, which is why they cannot be
    reassigned, and why ``frames`` and ``detections`` are stored as tuples,
    whatever sequence they are given as, and each frame as a read-only view
    of the array given: make a changed scene with ``dataclasses.replace``,
    which starts an empty cache. The array given keeps its flags and shares
    its memory with the view, so it, like the ground truth, must not be
    changed in place after the first step. The corpus builders cannot: the
    frames of ``scenes.generate_scene`` and ``degrade.apply_chain`` are
    read-only where they are made.

    Two samples are equal only when they are the same object: a field-wise
    comparison would compare frame arrays, whose truth value is ambiguous.
    """

    frames: tuple[np.ndarray, ...]
    detections: tuple[Detection, ...]
    gt: TrackSet
    name: str = ""
    _constants: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(_read_only(frame) for frame in self.frames))
        object.__setattr__(self, "detections", tuple(self.detections))


@dataclass(frozen=True)
class _ScenePlan:
    """The model-independent part of a training step on one scene.

    ``rows`` stacks the rows of every frame with detections, as tracking
    does. Each contrastive pair is (anchor rows, their target indices among
    the candidates, candidate rows): the gt-matched rows of a frame whose gt
    id is matched in the next frame too, and all of that next frame's rows.
    ``box_targets`` holds the normalised gt box of each ``box_rows`` row,
    every gt-matched row of the scene.
    """

    rows: SequenceRows
    pairs: list[tuple[list[int], list[int], range]]
    box_rows: list[int]
    box_targets: np.ndarray


def match_detections_to_gt(dets: Sequence[Detection], gt_ids: Sequence[int],
                           gt_boxes) -> dict[int, int]:
    """Index of detection -> ground-truth id, by optimal IoU matching of
    ``dets`` with the ground-truth boxes ``gt_boxes`` of ids ``gt_ids``."""
    if not dets or not len(gt_ids):
        return {}
    ious = iou_matrix(gt_boxes, [d.box for d in dets])
    cost = np.where(ious >= MATCH_IOU, 1.0 - ious, 1e9)
    rows, cols = linear_sum_assignment(cost)
    return {int(c): gt_ids[r] for r, c in zip(rows, cols) if ious[r, c] >= MATCH_IOU}


def _scene_plan(sample: SceneSample) -> _ScenePlan:
    """The scene's :class:`_ScenePlan`, computed afresh."""
    rows = sequence_rows(sample.frames, sample.detections)
    gt_blocks = sample.gt.frame_blocks()
    height, width = sample.frames[0].shape
    # segment k is frame frame_ids[k], rows first_row[k] to first_row[k + 1]
    frame_ids, first_row = rows.frame_ids, rows.starts.tolist()
    # each segment's ground truth: its ids and boxes, as Python values
    gt = [(block.ids.tolist(), block.boxes.tolist()) if block is not None else ([], [])
          for block in map(gt_blocks.get, frame_ids)]
    labels = [match_detections_to_gt(dets, *frame_gt)
              for dets, frame_gt in zip(rows.detections, gt)]

    # association: every gt id seen in consecutive frames must pick its own
    # detection among all of the next frame's candidates
    pairs = []
    for segment in range(len(frame_ids) - 1):
        if frame_ids[segment + 1] != frame_ids[segment] + 1:
            continue
        id_to_next = {gid: det_idx for det_idx, gid in labels[segment + 1].items()}
        anchor_rows = []
        targets = []
        for det_idx, gid in sorted(labels[segment].items()):
            if gid in id_to_next:
                anchor_rows.append(first_row[segment] + det_idx)
                targets.append(id_to_next[gid])
        if anchor_rows:
            pairs.append((anchor_rows, targets,
                          range(first_row[segment + 1], first_row[segment + 2])))

    # box regression on every gt-matched query
    box_rows = []
    box_targets = []
    for segment, frame_labels in enumerate(labels):
        gt_boxes = dict(zip(*gt[segment]))
        for det_idx in sorted(frame_labels):
            box_rows.append(first_row[segment] + det_idx)
            l, t, w, h = gt_boxes[frame_labels[det_idx]]
            box_targets.append([l / width, t / height, w / width, h / height])
    return _ScenePlan(rows, pairs, box_rows, np.array(box_targets))


def _constant(sample: SceneSample, key, build):
    """The sample's cached value under ``key``, from ``build()`` on first
    use. A ``None`` is not kept: it is built again on the next use."""
    value = sample._constants.get(key)
    if value is None:
        value = sample._constants[key] = build()
    return value


def scene_losses(model: TrackerModel, sample: SceneSample, train: TrainConfig,
                 quality_ranges: QualityRanges) -> dict:
    """Differentiable distillation + tracking losses for one scene.

    The rows of every frame with detections are embedded, encoded and
    box-predicted in one call each, as the sample's :class:`_ScenePlan`
    stacks them. The plan, teacher block and quality column come from
    the sample's cache (see :class:`SceneSample`). Returns node and float
    views of every component; must run inside a Tape for gradients to be
    recorded.
    """
    plan = _constant(sample, "plan", lambda: _scene_plan(sample))
    zero = Matrix([[0.0]])
    losses = {"total": zero, "l_mot": zero, "l_distill": zero,
              "l_local": 0.0, "l_global": 0.0, "w1": 0.0, "w2": 0.0}
    if not plan.rows.frame_ids:
        return losses
    frames = plan.rows.frames
    quality = _constant(sample, ("quality", quality_ranges),
                        lambda: model.quality_column(frames, quality_ranges))
    x = model.embed_descriptors(plan.rows.descriptors)
    fused, semantic = model.encode_queries(x, quality, plan.rows.segments)

    # the mean of the pairs' association terms and the box term
    mot_terms = []
    if plan.pairs:
        mot_terms.append(ad.contrastive_pairs(ad.l2_normalize_rows(fused), plan.pairs,
                                              1.0 / CONTRASTIVE_TEMPERATURE))
    if plan.box_rows:
        predicted = model.predict_boxes(ad.take_rows(fused, plan.box_rows))
        mot_terms.append(ad.mean_abs_diff(predicted, Matrix(plan.box_targets)))
    if mot_terms:
        l_mot = ad.add(*mot_terms) if len(mot_terms) == 2 else mot_terms[0]
        count = len(plan.pairs) + bool(plan.box_rows)
        losses["total"] = losses["l_mot"] = ad.scale(l_mot, 1.0 / count)
    if semantic is None:
        return losses
    seed = train.teacher_seed
    teachers = _constant(sample, ("teacher", seed), lambda: Matrix(
        np.concatenate([pseudo_teacher(frame, seed) for frame in frames])))
    breakdown = model.dcsd.loss(semantic, plan.rows.segments, teachers)
    losses.update(
        total=ad.add(ad.scale(breakdown.loss_node, train.alpha),
                     ad.scale(losses["l_mot"], 1.0 - train.alpha)),
        l_distill=breakdown.loss_node, l_local=breakdown.l_local,
        l_global=breakdown.l_global, w1=breakdown.w1, w2=breakdown.w2)
    return losses


def train(model: TrackerModel, samples: Sequence[SceneSample], train_config: TrainConfig,
          quality_ranges: QualityRanges = QualityRanges()) -> list[dict]:
    """Run the full schedule; returns the step log, which
    :func:`write_training_log` writes."""
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
                losses = scene_losses(model, sample, train_config, quality_ranges)
                tape.backward(losses["total"])
            # the tape keeps every activation and the weights it read; free it
            # before the update, so each old weight goes as it is replaced
            del tape
            # the step spends every gradient, so none is left to zero
            model.step(lr)
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
    return log


def write_training_log(log: list[dict], path: str | Path) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_COLUMNS)
        for row in log:
            writer.writerow([row["step"]] + [f"{row[c]:.10g}" for c in LOG_COLUMNS[1:]])
