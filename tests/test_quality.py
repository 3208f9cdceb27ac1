import math

import numpy as np
import pytest

from semtrack import autodiff as ad
from semtrack.autodiff import DimensionError, Matrix, Tape
from semtrack.quality import DswrHead, QualityRanges, assess_quality

from gradcheck import check_against_fd, mse, weighted_scalar
from oracles import composite_blend_rows, reference_quality_figures


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_a_non_finite_pixel_raises(value):
    frame = np.full((8, 9), 0.5)
    frame[3, 4] = value
    with pytest.raises(ValueError, match="non-finite"):
        assess_quality(frame)


@pytest.mark.parametrize("shape", [(3, 3), (4, 7), (96, 128)])
def test_figures_equal_the_plain_numpy_expressions_bit_for_bit(shape):
    rng = np.random.default_rng(shape[0] * shape[1])
    strided = rng.random((2 * shape[0], 3 * shape[1]))[::2, ::3]
    for frame in (rng.random(shape), blur3(rng.random(shape)), strided,
                  np.clip(0.5 + rng.normal(0.0, 0.3, shape), 0.0, 1.0)):
        report = assess_quality(frame)
        figures = (report.clarity, report.noise_sigma, report.contrast)
        assert [x.hex() for x in figures] == [x.hex() for x in reference_quality_figures(frame)]


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
    for bounds in ((0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="invalid clarity normalization range"):
            QualityRanges(clarity=bounds)


def weight_of(head: DswrHead, q: float) -> float:
    return head.semantic_weight(Matrix([[q]])).item()


def head_holding(w: float, b: float) -> DswrHead:
    """A DSWR head whose scalars were moved to ``w`` and ``b``, as training
    moves them."""
    head = DswrHead()
    head.w.value, head.b.value = Matrix([[w]]), Matrix([[b]])
    return head


def test_semantic_weight_forced_values():
    head = DswrHead()  # W=-4, b=2
    assert weight_of(head, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert weight_of(head, 0.0) == pytest.approx(1 / (1 + math.exp(-2)), abs=1e-12)
    assert weight_of(head, 1.0) == pytest.approx(1 / (1 + math.exp(2)), abs=1e-12)


def test_semantic_weight_open_interval_and_domain():
    rng = np.random.default_rng(5)
    for _ in range(30):
        head = head_holding(rng.normal(scale=5), rng.normal(scale=5))
        w = weight_of(head, float(rng.uniform()))
        assert 0.0 < w < 1.0
    with pytest.raises(ValueError):
        weight_of(DswrHead(), 1.5)
    with pytest.raises(ValueError):
        DswrHead().semantic_weight(Matrix([[0.3], [-0.01]]))
    with pytest.raises(DimensionError, match="column"):
        DswrHead().semantic_weight(Matrix([[0.3, 0.4]]))


def test_lower_quality_higher_weight_monotonicity():
    head = DswrHead()  # W < 0
    rng = np.random.default_rng(6)
    for _ in range(100):
        q1, q2 = sorted(rng.uniform(0, 1, size=2))
        if q1 == q2:
            continue
        assert weight_of(head, q1) > weight_of(head, q2)


def test_semantic_weight_gradients():
    head = DswrHead()
    with Tape() as tape:
        w = head.semantic_weight(Matrix([[0.3]]))
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
    near_one = Matrix(np.full((4, 1), 1.0 - 1e-15))
    fused = ad.blend_rows(near_one, f_sem, f_query)
    assert np.max(np.abs(fused.data - f_sem.data)) < 1e-12
    same = ad.blend_rows(Matrix(np.full((4, 1), 0.5)), f_sem, f_sem)
    assert np.allclose(same.data, f_sem.data, atol=1e-15)


def test_fuse_convexity_bounds():
    rng = np.random.default_rng(8)
    f_sem = Matrix(rng.standard_normal((5, 6)))
    f_query = Matrix(rng.standard_normal((5, 6)))
    fused = ad.blend_rows(Matrix([[0.37], [0.9], [0.0], [1.0], [0.5]]), f_sem, f_query).data
    lo = np.minimum(f_sem.data, f_query.data)
    hi = np.maximum(f_sem.data, f_query.data)
    assert np.all(fused >= lo - 1e-12) and np.all(fused <= hi + 1e-12)


def test_fuse_shape_errors():
    zeros = Matrix(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        ad.blend_rows(Matrix([[0.5], [0.5]]), zeros, Matrix(np.zeros((3, 2))))
    with pytest.raises(DimensionError):
        ad.blend_rows(Matrix(np.zeros((2, 2))), zeros, zeros)
    with pytest.raises(DimensionError, match="2x1"):   # no scalar broadcast
        ad.blend_rows(Matrix([[0.5]]), zeros, zeros)


def test_fuse_of_a_repeated_weight_is_the_scalar_combination_bit_for_bit():
    # one frame's rows share one weight, so the result is
    # w*f_sem + (1-w)*f_query to the last bit
    rng = np.random.default_rng(9)
    f_sem = rng.standard_normal((6, 256))
    f_query = rng.standard_normal((6, 256))
    head = head_holding(-3.3, 1.7)
    q = 0.61803
    w = head.semantic_weight(Matrix(np.full((6, 1), q)))
    scalar = 1.0 / (1.0 + np.exp(-np.full((6, 1), -3.3 * q + 1.7)))
    assert np.array_equal(w.data, scalar)
    fused = ad.blend_rows(w, Matrix(f_sem), Matrix(f_query)).data
    assert np.array_equal(fused, f_sem * scalar + f_query * (1.0 - scalar))


def test_fuse_weighs_each_row_by_its_own_weight():
    rng = np.random.default_rng(10)
    f_sem = rng.standard_normal((3, 5))
    f_query = rng.standard_normal((3, 5))
    weights = [0.2, 0.9, 0.5]
    fused = ad.blend_rows(Matrix(np.array(weights)[:, None]), Matrix(f_sem),
                          Matrix(f_query)).data
    for i, w in enumerate(weights):
        assert np.array_equal(fused[i], w * f_sem[i] + (1.0 - w) * f_query[i])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fuse_gradient_matches_fd(seed):
    rng = np.random.default_rng(40 + seed)
    w = rng.uniform(0.1, 0.9, size=(3, 1))
    f_sem = rng.standard_normal((3, 5))
    f_query = rng.standard_normal((3, 5))
    target = Matrix(rng.standard_normal((3, 5)))
    check_against_fd(lambda a, b, c: mse(ad.blend_rows(a, b, c), target),
                     [w, f_sem, f_query], label=f"blend_rows[{seed}]")


def test_fuse_equals_the_five_op_composite_bit_for_bit():
    # values and every gradient, in float64 as training records them
    rng = np.random.default_rng(60)
    w = Matrix(rng.uniform(0.05, 0.95, size=(7, 1)), requires_grad=True)
    a = Matrix(rng.standard_normal((7, 256)), requires_grad=True)
    b = Matrix(rng.standard_normal((7, 256)), requires_grad=True)
    target = Matrix(rng.standard_normal((7, 256)))
    results = []
    for blend in (ad.blend_rows, composite_blend_rows):
        with Tape() as tape:
            out = blend(w, a, b)
            tape.backward(ad.sum_all(ad.multiply(out, target)))
        results.append([out.data, w.grad, a.grad, b.grad])
        for m in (w, a, b):
            m.grad = None
    for got, expected in zip(*results, strict=True):
        assert np.array_equal(got, expected)


def test_fuse_of_float32_features_at_a_float64_weight_equals_the_composite():
    # tracking: the student's float32 output and queries, DSWR's float64 weight
    rng = np.random.default_rng(61)
    w = Matrix(rng.uniform(0.05, 0.95, size=(5, 1)))
    a = Matrix(rng.standard_normal((5, 256)).astype(np.float32))
    b = Matrix(rng.standard_normal((5, 256)).astype(np.float32))
    fused = ad.blend_rows(w, a, b).data
    assert fused.dtype == np.float64
    assert np.array_equal(fused, composite_blend_rows(w, a, b).data)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_semantic_weight_gradient_matches_fd(seed):
    rng = np.random.default_rng(50 + seed)
    q = Matrix(rng.uniform(0.05, 0.95, size=(4, 1)))
    w0 = rng.standard_normal((1, 1))
    b0 = rng.standard_normal((1, 1))
    head = DswrHead()

    def build(wm, bm):
        head.w.value, head.b.value = wm, bm
        return head.semantic_weight(q)

    check_against_fd(weighted_scalar(build), [w0, b0], label=f"semantic_weight[{seed}]")
