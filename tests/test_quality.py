import math

import numpy as np
import pytest

from semtrack import autodiff as ad
from semtrack.autodiff import DimensionError, Matrix, Tape
from semtrack.quality import DswrHead, QualityRanges, assess_quality, fuse

from gradcheck import check_against_fd


def checkerboard(h=64, w=64, cell=4):
    rows = (np.arange(h) // cell)[:, None]
    cols = (np.arange(w) // cell)[None, :]
    return ((rows + cols) % 2).astype(np.float64)


def blur3(frame, passes=3):
    # box-blur with edge replication, enough to soften a checkerboard
    out = frame.copy()
    for _ in range(passes):
        padded = np.pad(out, 1, mode="edge")
        out = sum(padded[r:r + out.shape[0], c:c + out.shape[1]]
                  for r in range(3) for c in range(3)) / 9.0
    return out


def test_constant_frame_scores_one_third():
    report = assess_quality(np.full((32, 32), 0.5))
    assert report.clarity == 0.0
    assert report.noise_sigma == 0.0
    assert report.contrast == 0.0
    assert report.q == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_frame_too_small():
    with pytest.raises(ValueError):
        assess_quality(np.zeros((2, 5)))


@pytest.mark.parametrize("sigma", [0.02, 0.04, 0.08])
def test_immerkaer_estimate_on_gaussian_noise(sigma):
    rng = np.random.default_rng(int(sigma * 1000))
    frame = 0.5 + rng.normal(0.0, sigma, size=(256, 256))
    report = assess_quality(frame)
    assert abs(report.noise_sigma - sigma) <= 0.15 * sigma


def test_clarity_orders_sharp_above_blurred():
    sharp = checkerboard()
    blurred = blur3(sharp)
    assert assess_quality(sharp).clarity > assess_quality(blurred).clarity


def test_intensity_offset_invariance():
    rng = np.random.default_rng(3)
    frame = rng.uniform(0.0, 0.5, size=(40, 40))
    a = assess_quality(frame)
    b = assess_quality(frame + 0.3)  # still inside [0,1], no clipping
    assert a.clarity == pytest.approx(b.clarity, abs=1e-12)
    assert a.noise_sigma == pytest.approx(b.noise_sigma, abs=1e-12)
    assert a.contrast == pytest.approx(b.contrast, abs=1e-12)


def test_q_stays_in_unit_interval():
    rng = np.random.default_rng(4)
    for _ in range(25):
        frame = rng.uniform(0, 1, size=(24, 24))
        assert 0.0 <= assess_quality(frame).q <= 1.0


def test_invalid_range_rejected():
    with pytest.raises(ValueError):
        assess_quality(np.zeros((8, 8)), QualityRanges(clarity=(0.5, 0.5)))


def test_semantic_weight_forced_values():
    head = DswrHead()  # W=-4, b=2
    assert head.semantic_weight(0.5).item() == pytest.approx(0.5, abs=1e-12)
    assert head.semantic_weight(0.0).item() == pytest.approx(1 / (1 + math.exp(-2)), abs=1e-12)
    assert head.semantic_weight(1.0).item() == pytest.approx(1 / (1 + math.exp(2)), abs=1e-12)


def test_semantic_weight_open_interval_and_domain():
    rng = np.random.default_rng(5)
    for _ in range(30):
        head = DswrHead(w_init=rng.normal(scale=5), b_init=rng.normal(scale=5))
        w = head.semantic_weight(float(rng.uniform())).item()
        assert 0.0 < w < 1.0
    with pytest.raises(ValueError):
        DswrHead().semantic_weight(1.5)
    with pytest.raises(ValueError):
        DswrHead().semantic_weight(-0.01)


def test_lower_quality_higher_weight_monotonicity():
    head = DswrHead()  # W < 0
    rng = np.random.default_rng(6)
    for _ in range(100):
        q1, q2 = sorted(rng.uniform(0, 1, size=2))
        if q1 == q2:
            continue
        assert head.semantic_weight(q1).item() > head.semantic_weight(q2).item()


def test_semantic_weight_gradients():
    head = DswrHead()
    with Tape() as tape:
        w = head.semantic_weight(0.3)
        tape.backward(w)
    assert head.w.value.grad is not None
    assert head.b.value.grad is not None
    # d sigmoid(z)/dW = sigmoid'(z) * q
    z = -4 * 0.3 + 2
    s = 1 / (1 + math.exp(-z))
    assert head.w.value.grad[0, 0] == pytest.approx(s * (1 - s) * 0.3, abs=1e-12)


def test_fuse_limit_and_fixed_point():
    rng = np.random.default_rng(7)
    f_sem = Matrix(rng.standard_normal((4, 8)))
    f_query = Matrix(rng.standard_normal((4, 8)))
    near_one = Matrix([[1.0 - 1e-15]])
    fused = fuse(near_one, f_sem, f_query)
    assert np.max(np.abs(fused.data - f_sem.data)) < 1e-12
    same = fuse(Matrix([[0.5]]), f_sem, f_sem)
    assert np.allclose(same.data, f_sem.data, atol=1e-15)


def test_fuse_convexity_bounds():
    rng = np.random.default_rng(8)
    f_sem = Matrix(rng.standard_normal((5, 6)))
    f_query = Matrix(rng.standard_normal((5, 6)))
    fused = fuse(Matrix([[0.37]]), f_sem, f_query).data
    lo = np.minimum(f_sem.data, f_query.data)
    hi = np.maximum(f_sem.data, f_query.data)
    assert np.all(fused >= lo - 1e-12) and np.all(fused <= hi + 1e-12)


def test_fuse_shape_errors():
    with pytest.raises(DimensionError):
        fuse(Matrix([[0.5]]), Matrix(np.zeros((2, 3))), Matrix(np.zeros((3, 2))))
    with pytest.raises(DimensionError):
        fuse(Matrix(np.zeros((2, 2))), Matrix(np.zeros((2, 3))), Matrix(np.zeros((2, 3))))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fuse_gradient_matches_fd(seed):
    rng = np.random.default_rng(40 + seed)
    w = np.array([[rng.uniform(0.1, 0.9)]])
    f_sem = rng.standard_normal((3, 5))
    f_query = rng.standard_normal((3, 5))
    target = Matrix(rng.standard_normal((3, 5)))
    check_against_fd(lambda a, b, c: ad.mse(fuse(a, b, c), target),
                     [w, f_sem, f_query], label=f"fuse[{seed}]")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_semantic_weight_gradient_matches_fd(seed):
    rng = np.random.default_rng(50 + seed)
    q = float(rng.uniform(0.05, 0.95))
    w0 = rng.standard_normal((1, 1))
    b0 = rng.standard_normal((1, 1))

    def build(wm, bm):
        affine = ad.add(ad.scale(wm, q), bm)
        return ad.sigmoid(affine)

    check_against_fd(build, [w0, b0], label=f"semantic_weight[{seed}]")
