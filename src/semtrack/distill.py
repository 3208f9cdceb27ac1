"""Dual-constraint distillation loss between student features and a frozen
teacher vector.

Pipeline: project the 1x1024 teacher vector to 256, align it to the student
sequence length by repeating the projected row once per student row, then
combine a local MSE term and a global L1-of-means term with softmax-normalized
learnable weights. A repeat is all the alignment there is to do:
:class:`TeacherEmbedding` holds exactly one 1x1024 row per frame, and
interpolating a single row to any length gives copies of it.

The paper's local term compares the student with the teacher aggregated
through a temperature-scaled attention map between the two L2-normalized
sequences. Here the teacher is a single row, so the aligned teacher has n
identical rows: every logit in a row of the map is equal, the map is uniform
(1/n), and each aggregated row is the mean of n identical rows, i.e. the
aligned teacher itself. The local term is therefore ``mse(s, t_align)``, and
the attention map is not computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from semtrack import autodiff as ad
from semtrack.autodiff import DimensionError, Matrix, Parameter
from semtrack.teacher import TEACHER_DIM, TeacherEmbedding

STUDENT_DIM = 256


@dataclass
class DcsdBreakdown:
    """Per-call loss components; values are plain floats, the loss node is
    kept for backprop."""

    l_local: float
    l_global: float
    w1: float
    w2: float
    l_distill: float
    loss_node: Matrix


class DcsdHead:
    """Teacher projection + learnable loss-weight logits."""

    def __init__(self, seed: int = 0, student_dim: int = STUDENT_DIM):
        self.student_dim = student_dim
        rng = np.random.default_rng(seed)
        bound = 1.0 / math.sqrt(TEACHER_DIM)
        self.teacher_weight = Parameter(
            rng.uniform(-bound, bound, size=(TEACHER_DIM, student_dim)),
            name="dcsd.teacher_proj.weight")
        self.teacher_bias = Parameter(
            rng.uniform(-bound, bound, size=(1, student_dim)),
            name="dcsd.teacher_proj.bias")
        # logits start equal: w1 = w2 = 0.5
        self.loss_logits = Parameter(np.zeros((1, 2)), name="dcsd.loss_logits")

    def parameters(self) -> list[Parameter]:
        return [self.teacher_weight, self.teacher_bias, self.loss_logits]

    def parameter_count(self) -> int:
        return sum(p.value.rows * p.value.cols for p in self.parameters() if p.trainable)

    def loss_weights(self) -> tuple[float, float]:
        """Softmax of the two logits: positive, summing to one."""
        w = ad.softmax_rows(self.loss_logits.value).data
        return float(w[0, 0]), float(w[0, 1])

    def project_teacher(self, t: TeacherEmbedding) -> Matrix:
        return ad.linear(t.vector, self.teacher_weight.value, self.teacher_bias.value)

    def loss(self, s: Matrix, t: TeacherEmbedding) -> DcsdBreakdown:
        if s.cols != self.student_dim:
            raise DimensionError(
                f"student features must have {self.student_dim} columns, got {s.cols}")
        if s.rows < 1:
            raise DimensionError("student sequence must be non-empty")

        t_proj = self.project_teacher(t)                       # 1 x 256
        t_align = ad.repeat_row(t_proj, s.rows)                # n x 256

        l_local = ad.mse(s, t_align)
        l_global = ad.l1_of_means(s, t_align)

        weights = ad.softmax_rows(self.loss_logits.value)      # 1 x 2
        w1 = ad.slice_cols(weights, 0, 1)
        w2 = ad.slice_cols(weights, 1, 2)
        l_distill = ad.add(ad.scalar_mul(w1, l_local), ad.scalar_mul(w2, l_global))

        return DcsdBreakdown(
            l_local=l_local.item(),
            l_global=l_global.item(),
            w1=w1.item(),
            w2=w2.item(),
            l_distill=l_distill.item(),
            loss_node=l_distill,
        )
