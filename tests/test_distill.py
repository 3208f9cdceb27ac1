import math

import numpy as np
import pytest

from semtrack import autodiff as ad
from semtrack.autodiff import DimensionError, Matrix, Tape
from semtrack.distill import DcsdHead
from semtrack.teacher import TEACHER_DIM, TeacherEmbedding, pseudo_teacher

from gradcheck import check_against_fd

# the attention temperature of the paper's local term; with one teacher row the
# map is uniform whatever its value, which the oracle below demonstrates
TEMPERATURE = 2.0


def make_teacher(seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return TeacherEmbedding(Matrix(scale * rng.standard_normal((1, TEACHER_DIM))))


def oracle_dcsd(head: DcsdHead, s: np.ndarray, t: np.ndarray) -> dict:
    """Step-by-step plain-numpy recomputation of the paper's loss pipeline,
    attention-weighted local term included."""
    w = head.teacher_weight.value.data
    b = head.teacher_bias.value.data
    t_proj = t @ w + b                                             # 1 x d
    t_align = np.repeat(t_proj, s.shape[0], axis=0)                # n x d

    def l2n(m):
        norms = np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        return m / norms

    logits = l2n(s) @ l2n(t_align).T / TEMPERATURE
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    attention = e / e.sum(axis=1, keepdims=True)
    t_weighted = attention @ t_align
    l_local = float(((s - t_weighted) ** 2).mean())
    l_global = float(np.abs(s.mean(axis=0) - t_align.mean(axis=0)).mean())
    lw = head.loss_logits.value.data[0]
    ew = np.exp(lw - lw.max())
    w1, w2 = (ew / ew.sum()).tolist()
    return {
        "l_local": l_local,
        "l_global": l_global,
        "w1": w1,
        "w2": w2,
        "l_distill": w1 * l_local + w2 * l_global,
        "attention": attention,
        "t_align": t_align,
    }


def test_aggregated_teacher_equals_aligned_teacher():
    # single-teacher-row identity: attention cannot change the target, so the
    # plain MSE against the aligned teacher equals the attention-weighted term
    head = DcsdHead(seed=4)
    rng = np.random.default_rng(5)
    s_arr = rng.standard_normal((6, 256))
    t = make_teacher(6)
    out = head.loss(Matrix(s_arr), t)
    reference = oracle_dcsd(head, s_arr, t.vector.data)
    assert np.max(np.abs(reference["attention"] - 1.0 / 6)) < 1e-12
    assert abs(out.l_local - reference["l_local"]) < 1e-12


def test_perfect_alignment_gives_zero_loss():
    head = DcsdHead(seed=7)
    t = make_teacher(8)
    t_align = oracle_dcsd(head, np.zeros((4, 256)), t.vector.data)["t_align"]
    out = head.loss(Matrix(t_align), t)
    assert out.l_local == 0.0
    assert out.l_global == 0.0
    assert out.l_distill == 0.0


def test_seeded_pipeline_matches_oracle():
    head = DcsdHead(seed=7)
    head.loss_logits = type(head.loss_logits)(np.array([[0.3, -0.2]]),
                                              name="dcsd.loss_logits")
    rng = np.random.default_rng(7)
    s_arr = rng.standard_normal((3, 256))
    t = make_teacher(7)
    out = head.loss(Matrix(s_arr), t)
    ref = oracle_dcsd(head, s_arr, t.vector.data)
    for key in ("l_local", "l_global", "w1", "w2", "l_distill"):
        assert abs(getattr(out, key) - ref[key]) < 1e-10, key


def test_breakdown_combination_identity():
    head = DcsdHead(seed=9)
    rng = np.random.default_rng(10)
    for trial in range(20):
        s = Matrix(rng.standard_normal((int(rng.integers(1, 8)), 256)))
        out = head.loss(s, make_teacher(trial))
        assert abs(out.l_distill - (out.w1 * out.l_local + out.w2 * out.l_global)) < 1e-12
        lo, hi = sorted((out.l_local, out.l_global))
        assert lo - 1e-12 <= out.l_distill <= hi + 1e-12


def test_loss_weights_examples():
    head = DcsdHead(seed=0)
    assert head.loss_weights() == (0.5, 0.5)
    head.loss_logits = type(head.loss_logits)(np.array([[math.log(3.0), 0.0]]))
    w1, w2 = head.loss_weights()
    assert abs(w1 - 0.75) < 1e-12 and abs(w2 - 0.25) < 1e-12
    rng = np.random.default_rng(11)
    for _ in range(50):
        head.loss_logits = type(head.loss_logits)(rng.standard_normal((1, 2)) * 3)
        w1, w2 = head.loss_weights()
        assert abs(w1 + w2 - 1.0) <= 1e-12
        assert 0.0 < w1 < 1.0 and 0.0 < w2 < 1.0


def test_gradient_flow_targets():
    head = DcsdHead(seed=12)
    s = Matrix(np.random.default_rng(13).standard_normal((4, 256)), requires_grad=True)
    t = make_teacher(14)
    with Tape() as tape:
        out = head.loss(s, t)
        tape.backward(out.loss_node)
    assert s.grad is not None and np.any(s.grad != 0)
    assert head.teacher_weight.value.grad is not None
    assert head.teacher_bias.value.grad is not None
    assert head.loss_logits.value.grad is not None
    assert t.vector.grad is None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dcsd_loss_gradient_matches_fd(seed):
    head = DcsdHead(seed=20 + seed)
    rng = np.random.default_rng(30 + seed)
    s_arr = rng.standard_normal((3, 256))
    t = make_teacher(40 + seed)
    check_against_fd(lambda s: head.loss(s, t).loss_node, [s_arr], sample=40,
                     seed=seed, label=f"dcsd[{seed}]")


def test_dimension_errors():
    head = DcsdHead(seed=0)
    with pytest.raises(DimensionError, match="256"):
        head.loss(Matrix(np.zeros((2, 128))), make_teacher(0))


def test_works_with_pseudo_teacher():
    head = DcsdHead(seed=1)
    frame = np.random.default_rng(5).uniform(0, 1, (24, 32))
    out = head.loss(Matrix(np.random.default_rng(6).standard_normal((2, 256))),
                    pseudo_teacher(frame, seed=9))
    assert np.isfinite(out.l_distill)
