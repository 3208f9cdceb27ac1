"""Dual-constraint distillation loss between student features and frozen
teacher rows.

Pipeline, per frame: project the frame's 1x1024 teacher row to 256, align
it to the frame's student rows by repeating the projected row once per row,
then combine a local MSE term and a global L1-of-means term with
softmax-normalized learnable weights: ``w1 * l_local + w2 * l_global``,
where ``(w1, w2)`` is the softmax of two logits. A repeat is all the
alignment there is to do: the teacher gives one row per frame, and
interpolating a single row to any length gives copies of it.

The paper's local term compares the student with the teacher aggregated
through a temperature-scaled attention map between the two L2-normalized
sequences. Here the teacher is a single row, so the aligned teacher has n
identical rows: every logit in a row of the map is equal, the map is uniform
(1/n), and each aggregated row is the mean of n identical rows, i.e. the
aligned teacher itself. The local term is therefore ``mse(s, t_align)``, and
the attention map is not computed.

A training scene passes all its frames at once: the student rows stacked, a
frame index per row, and an F x 1024 block with one teacher row per frame.
Each term is the mean over frames of its per-frame value, taken through a
constant frames x rows averaging matrix, so a frame with few rows weighs as
much as one with many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from semtrack import autodiff as ad
from semtrack.autodiff import DimensionError, Matrix, Parameter
from semtrack.student import FEATURE_DIM
from semtrack.teacher import TEACHER_DIM


@dataclass
class DcsdBreakdown:
    """Per-call loss components: the two terms and their weights as plain
    floats, and the combined loss as a node, kept for backprop; its value is
    ``loss_node.item()``."""

    l_local: float
    l_global: float
    w1: float
    w2: float
    loss_node: Matrix


class DcsdHead:
    """Teacher projection + learnable loss-weight logits."""

    def __init__(self, seed: int = 0, train_loss_weights: bool = True):
        rng = np.random.default_rng(seed)
        bound = 1.0 / math.sqrt(TEACHER_DIM)
        self.teacher_weight = Parameter(
            rng.uniform(-bound, bound, size=(TEACHER_DIM, FEATURE_DIM)),
            name="dcsd.teacher_proj.weight")
        self.teacher_bias = Parameter(
            rng.uniform(-bound, bound, size=(1, FEATURE_DIM)),
            name="dcsd.teacher_proj.bias")
        # logits start equal: w1 = w2 = 0.5
        self.loss_logits = Parameter(np.zeros((1, 2)), trainable=train_loss_weights,
                                     name="dcsd.loss_logits")

    def parameters(self) -> list[Parameter]:
        return [self.teacher_weight, self.teacher_bias, self.loss_logits]

    def project_teacher(self, teachers: Matrix) -> Matrix:
        """The F x 1024 teacher rows projected to F x 256; ``DimensionError``
        for another width."""
        return ad.linear(teachers, self.teacher_weight.value, self.teacher_bias.value)

    def loss(self, s: Matrix, segments: Sequence[int], teachers: Matrix) -> DcsdBreakdown:
        """The loss of student rows ``s``, row ``i`` from frame ``segments[i]``
        and distilled towards teacher row ``segments[i]``; every frame needs at
        least one row. Each component is the mean of its per-frame values."""
        if s.cols != FEATURE_DIM:
            raise DimensionError(
                f"student features must have {FEATURE_DIM} columns, got {s.cols}")
        if s.rows < 1:
            raise DimensionError("student sequence must be non-empty")
        frames = np.asarray(segments)
        if (frames.shape != (s.rows,) or frames.dtype.kind not in "iu"
                or not np.array_equal(np.unique(frames), np.arange(teachers.rows))):
            raise DimensionError(
                f"need one frame index per row ({s.rows}) that covers each of the "
                f"{teachers.rows} teacher rows, got {segments!r}")
        counts = np.bincount(frames)
        averaging = np.zeros((teachers.rows, s.rows))             # F x n
        averaging[frames, np.arange(s.rows)] = 1.0 / counts[frames]
        averaging = Matrix(averaging)

        t_proj = self.project_teacher(teachers)                    # F x 256
        t_align = ad.take_rows(t_proj, frames)                     # n x 256

        diff = ad.sub(s, t_align)
        per_frame_sq = ad.matmul(averaging, ad.multiply(diff, diff))   # F x 256
        l_local = ad.scale(ad.sum_all(per_frame_sq), 1.0 / per_frame_sq.data.size)
        l_global = ad.mean_abs_diff(ad.matmul(averaging, s), t_proj)

        weights = ad.softmax_rows(self.loss_logits.value)          # 1 x 2
        w1 = ad.slice_cols(weights, 0, 1)
        w2 = ad.slice_cols(weights, 1, 2)
        l_distill = ad.add(ad.multiply(w1, l_local), ad.multiply(w2, l_global))

        return DcsdBreakdown(
            l_local=l_local.item(),
            l_global=l_global.item(),
            w1=w1.item(),
            w2=w2.item(),
            loss_node=l_distill,
        )
