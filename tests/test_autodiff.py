import gc
import math
import weakref

import numpy as np
import pytest

from semtrack import autodiff as ad
from semtrack.autodiff import DimensionError, Matrix, Parameter, Tape

from gradcheck import check_against_fd, weighted_scalar


def test_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        Matrix([[1.0, float("nan")]])
    with pytest.raises(ValueError):
        Matrix([[float("inf")]])


def test_matrix_is_immutable():
    m = Matrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        m.data[0, 0] = 5.0


def test_matmul_identity():
    m = Matrix([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(Matrix(np.eye(2)), m)
    assert np.array_equal(out.data, m.data)


def test_matmul_forced_arithmetic():
    out = ad.matmul(Matrix([[1.0, 2.0]]), Matrix([[3.0], [4.0]]))
    assert out.item() == 11.0


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 4\)"):
        ad.matmul(Matrix(np.zeros((2, 3))), Matrix(np.zeros((2, 4))))


def test_matmul_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal((2, 4))
    check_against_fd(lambda x, y: ad.sum_all(ad.matmul(x, y)), [a, b], label="matmul")


def test_softmax_rows_symmetry():
    out = ad.softmax_rows(Matrix([[0.0, 0.0]]))
    assert np.allclose(out.data, [[0.5, 0.5]], atol=1e-15)


def test_softmax_rows_forced_values():
    out = ad.softmax_rows(Matrix([[math.log(3.0), 0.0]]))
    assert np.allclose(out.data, [[0.75, 0.25]], atol=1e-12)
    shifted = ad.softmax_rows(Matrix([[math.log(3.0) + 50.0, 50.0]]))
    assert np.allclose(shifted.data, [[0.75, 0.25]], atol=1e-12)


def test_softmax_rows_sum_to_one_and_open_interval():
    rng = np.random.default_rng(3)
    m = Matrix(rng.standard_normal((5, 7)) * 8.0)
    out = ad.softmax_rows(m)
    assert np.all(np.abs(out.data.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(out.data > 0.0) and np.all(out.data < 1.0)


def test_l2_normalize_345_triangle():
    out = ad.l2_normalize_rows(Matrix([[3.0, 4.0]]))
    assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-15)


def test_l2_normalize_zero_row_guard():
    out = ad.l2_normalize_rows(Matrix([[0.0, 0.0]]))
    assert np.array_equal(out.data, [[0.0, 0.0]])


def test_l2_normalize_unit_norm_and_idempotent():
    rng = np.random.default_rng(11)
    m = Matrix(rng.standard_normal((6, 9)))
    out = ad.l2_normalize_rows(m)
    norms = np.linalg.norm(out.data, axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-9)
    again = ad.l2_normalize_rows(out)
    assert np.allclose(again.data, out.data, atol=1e-12)


def test_mse_trivial_cases():
    x = Matrix([[1.0, 2.0], [3.0, 4.0]])
    assert ad.mse(x, x).item() == 0.0
    assert ad.mse(Matrix([[1.0, 1.0]]), Matrix([[0.0, 0.0]])).item() == 1.0


def test_mse_gradient_closed_form():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    ma = Matrix(a, requires_grad=True)
    with Tape() as tape:
        loss = ad.mse(ma, Matrix(b))
        tape.backward(loss)
    assert np.allclose(ma.grad, 2.0 * (a - b) / a.size, atol=1e-9)


def test_l1_of_means_trivial_cases():
    a = Matrix([[2.0], [4.0]])
    b = Matrix([[3.0], [3.0]])
    assert ad.l1_of_means(a, a).item() == 0.0
    assert ad.l1_of_means(a, b).item() == 0.0  # equal means, unequal matrices
    assert ad.l1_of_means(Matrix([[1.0, 1.0]]), Matrix([[0.0, 2.0]])).item() == 1.0


def test_l1_of_means_column_mismatch():
    with pytest.raises(DimensionError):
        ad.l1_of_means(Matrix(np.zeros((2, 3))), Matrix(np.zeros((2, 4))))


def test_repeat_row_broadcasts_single_row():
    row = np.arange(256.0).reshape(1, 256)
    out = ad.repeat_row(Matrix(row), 7)
    assert out.shape == (7, 256)
    assert np.array_equal(out.data, np.repeat(row, 7, axis=0))
    assert np.array_equal(ad.repeat_row(Matrix(row), 1).data, row)


def test_repeat_row_rejects_zero_times_and_many_rows():
    with pytest.raises(DimensionError, match="times"):
        ad.repeat_row(Matrix([[1.0]]), 0)
    with pytest.raises(DimensionError, match="single row"):
        ad.repeat_row(Matrix([[0.0], [2.0]]), 3)


def test_backward_closed_form_on_mse():
    p = Parameter([[3.0]], name="p")
    with Tape() as tape:
        loss = ad.mse(p.value, Matrix([[0.0]]))
        tape.backward(loss)
    assert np.allclose(p.grad.data, [[6.0]])


def test_backward_requires_scalar_loss():
    p = Parameter([[1.0, 2.0]])
    with Tape() as tape:
        out = ad.scale(p.value, 2.0)
        with pytest.raises(DimensionError):
            tape.backward(out)


def test_consecutive_backward_accumulates():
    p = Parameter([[3.0]])
    with Tape() as tape:
        loss = ad.mse(p.value, Matrix([[0.0]]))
        tape.backward(loss)
        tape.backward(loss)
    assert np.allclose(p.grad.data, [[12.0]])
    p.zero_grad()
    assert np.allclose(p.grad.data, [[0.0]])


def test_frozen_parameter_never_gets_grad():
    frozen = Parameter(np.ones((2, 2)), trainable=False, name="frozen")
    live = Parameter(np.ones((2, 2)), name="live")
    with Tape() as tape:
        out = ad.matmul(live.value, frozen.value)
        tape.backward(ad.sum_all(out))
    assert frozen.value.grad is None
    assert np.array_equal(frozen.grad.data, np.zeros((2, 2)))
    assert live.value.grad is not None


def test_no_recording_outside_tape():
    p = Parameter([[2.0]])
    out = ad.scale(p.value, 3.0)
    assert out.requires_grad is False


def test_parameter_step_applies_gradient_descent():
    p = Parameter([[1.0]])
    with Tape() as tape:
        tape.backward(ad.mse(p.value, Matrix([[0.0]])))
    p.step(0.5)
    assert np.allclose(p.value.data, [[0.0]])  # 1 - 0.5 * 2


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_elementwise_ops_match_fd(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal((3, 5))
    check_against_fd(lambda x, y: ad.mse(x, y), [a, b], label="mse")
    check_against_fd(lambda x, y: ad.mse(ad.add(x, y), Matrix(np.ones((3, 5)))),
                     [a, b], label="add")
    check_against_fd(lambda x, y: ad.mse(ad.sub(x, y), Matrix(np.ones((3, 5)))),
                     [a, b], label="sub")
    check_against_fd(lambda x, y: ad.sum_all(ad.multiply(x, y)), [a, b], label="multiply")
    check_against_fd(ad.sum_all, [a], label="sum_all")
    check_against_fd(weighted_scalar(lambda x: ad.scale(x, -1.7)), [a], label="scale")
    check_against_fd(weighted_scalar(ad.transpose), [a], label="transpose")


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_structural_ops_match_fd(seed):
    rng = np.random.default_rng(100 + seed)
    a = rng.standard_normal((4, 6))
    w = rng.standard_normal((6, 3))
    bias = rng.standard_normal((1, 3))
    check_against_fd(weighted_scalar(ad.linear), [a, w, bias], label="linear")
    check_against_fd(weighted_scalar(lambda m: ad.slice_cols(m, 1, 4)), [a],
                     label="slice_cols")
    check_against_fd(weighted_scalar(lambda m: ad.slice_rows(m, 1, 3)), [a],
                     label="slice_rows")
    b = rng.standard_normal((4, 3))
    check_against_fd(weighted_scalar(lambda x, y: ad.concat_cols([x, y])), [a, b],
                     label="concat_cols")
    c = rng.standard_normal((2, 6))
    check_against_fd(weighted_scalar(lambda x, y: ad.concat_rows([x, y])), [a, c],
                     label="concat_rows")
    s = rng.standard_normal((1, 1))
    check_against_fd(weighted_scalar(lambda x, y: ad.scalar_mul(x, y)), [s, a],
                     label="scalar_mul")


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_nonlinear_ops_match_fd(seed):
    rng = np.random.default_rng(200 + seed)
    a = rng.standard_normal((3, 7))
    a = a + 0.2 * np.sign(a)  # keep clear of the relu kink for central diffs
    check_against_fd(weighted_scalar(ad.relu), [a], label="relu")
    check_against_fd(weighted_scalar(ad.sigmoid), [a], label="sigmoid")
    check_against_fd(weighted_scalar(ad.softmax_rows), [a], label="softmax_rows")
    check_against_fd(weighted_scalar(ad.l2_normalize_rows), [a], label="l2_normalize")
    gain = rng.standard_normal((1, 7))
    bias = rng.standard_normal((1, 7))
    check_against_fd(weighted_scalar(lambda x, g, b: ad.layer_norm_rows(x, g, b)),
                     [a, gain, bias], label="layer_norm")


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_reduction_ops_match_fd(seed):
    rng = np.random.default_rng(300 + seed)
    a = rng.standard_normal((4, 5))
    b = rng.standard_normal((4, 5))
    c = rng.standard_normal((2, 5))
    check_against_fd(lambda x, y: ad.mean_abs_diff(x, y), [a, b], label="mean_abs_diff")
    check_against_fd(weighted_scalar(ad.sequence_mean), [a], label="sequence_mean")
    check_against_fd(lambda x, y: ad.l1_of_means(x, y), [a, c], label="l1_of_means")
    check_against_fd(weighted_scalar(lambda m: ad.repeat_row(m, 7)), [a[:1]],
                     label="repeat_row")
    logits = rng.standard_normal((4, 6))
    targets = rng.integers(0, 6, size=4).tolist()
    check_against_fd(lambda m: ad.cross_entropy_rows(m, targets), [logits],
                     label="cross_entropy")


def test_input_used_twice_in_one_op_gets_both_gradients():
    # the tape routes each of a rule's gradients in turn, so an input at two
    # positions of one op, leaf or produced, must collect both of them
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 4))
    check_against_fd(weighted_scalar(lambda x: ad.multiply(x, x)), [a], label="leaf twice")
    check_against_fd(weighted_scalar(lambda x: ad.multiply(*[ad.scale(x, 1.5)] * 2)), [a],
                     label="produced twice")


def test_grad_of_sum_matmul_matches_fd_closely():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal((2, 4))
    ma = Matrix(a, requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.sum_all(ad.matmul(ma, Matrix(b))))
    expected = np.ones((3, 4)) @ b.T
    assert np.all(np.abs(ma.grad - expected) < 1e-6)


def composed_attention(q, k, v, num_heads):
    """Per-head slice/scale/softmax/matmul/concat: the reference composition."""
    head_dim = q.cols // num_heads
    heads = []
    for i in range(num_heads):
        lo, hi = i * head_dim, (i + 1) * head_dim
        logits = ad.scale(ad.matmul(ad.slice_cols(q, lo, hi),
                                    ad.transpose(ad.slice_cols(k, lo, hi))),
                          1.0 / math.sqrt(head_dim))
        heads.append(ad.matmul(ad.softmax_rows(logits), ad.slice_cols(v, lo, hi)))
    return heads[0] if num_heads == 1 else ad.concat_cols(heads)


def test_linear_single_row_matches_fd_and_numpy():
    rng = np.random.default_rng(400)
    x = rng.standard_normal((1, 5))
    w = rng.standard_normal((5, 3))
    b = rng.standard_normal((1, 3))
    check_against_fd(weighted_scalar(ad.linear), [x, w, b], label="linear[1 row]")
    assert np.array_equal(ad.linear(Matrix(x), Matrix(w), Matrix(b)).data, x @ w + b)


def test_linear_shape_errors():
    x = Matrix(np.zeros((2, 3)))
    with pytest.raises(DimensionError, match="linear"):
        ad.linear(x, Matrix(np.zeros((4, 2))), Matrix(np.zeros((1, 2))))
    with pytest.raises(DimensionError, match="bias"):
        ad.linear(x, Matrix(np.zeros((3, 2))), Matrix(np.zeros((1, 3))))


@pytest.mark.parametrize("rows, num_heads", [(1, 1), (1, 4), (5, 1), (5, 4)])
def test_multi_head_attention_matches_fd(rows, num_heads):
    rng = np.random.default_rng(500 + 10 * rows + num_heads)
    q, k, v = (rng.standard_normal((rows, 8)) for _ in range(3))
    attention = weighted_scalar(lambda a, b, c: ad.multi_head_attention(a, b, c, num_heads))
    check_against_fd(attention, [q, k, v], label=f"attention[{rows}x8, {num_heads} heads]")


@pytest.mark.parametrize("rows, num_heads", [(1, 1), (1, 4), (3, 2), (9, 4), (17, 8)])
def test_multi_head_attention_matches_composition(rows, num_heads):
    rng = np.random.default_rng(600 + rows)
    q, k, v = (Matrix(rng.standard_normal((rows, 64)) * 3.0) for _ in range(3))
    fused = ad.multi_head_attention(q, k, v, num_heads).data
    reference = composed_attention(q, k, v, num_heads).data
    assert fused.shape == (rows, 64)
    assert np.max(np.abs(fused - reference)) <= 1e-12


@pytest.mark.parametrize("rows", [2, 3, 5])
def test_multi_head_attention_gradient_through_projections_equals_composition(rows):
    # q, k and v are produced on the tape here, so the gradient each one sends
    # on goes through another matmul; it must come out as the composition's
    rng = np.random.default_rng(700 + rows)
    x = rng.standard_normal((rows, 32))
    weights = [rng.standard_normal((32, 32)) for _ in range(3)]
    upstream = rng.standard_normal((rows, 32))
    grads = []
    for attention in (ad.multi_head_attention, composed_attention):
        leaf = Matrix(x, requires_grad=True)
        with Tape() as tape:
            q, k, v = (ad.matmul(leaf, Matrix(w)) for w in weights)
            out = attention(q, k, v, 4)
            tape.backward(ad.sum_all(ad.multiply(out, Matrix(upstream))))
        grads.append(leaf.grad)
    assert np.array_equal(grads[0], grads[1])


def test_multi_head_attention_shape_errors():
    m = Matrix(np.zeros((3, 8)))
    with pytest.raises(DimensionError, match="shapes"):
        ad.multi_head_attention(m, Matrix(np.zeros((2, 8))), m, 2)
    with pytest.raises(DimensionError, match="shapes"):
        ad.multi_head_attention(m, m, Matrix(np.zeros((3, 4))), 2)
    with pytest.raises(DimensionError, match="divisible"):
        ad.multi_head_attention(m, m, m, 3)
    with pytest.raises(DimensionError, match="divisible"):
        ad.multi_head_attention(m, m, m, 0)


def test_tape_is_freed_without_the_cyclic_gc():
    rng = np.random.default_rng(8)
    w = Parameter(rng.standard_normal((8, 8)))
    b = Parameter(rng.standard_normal((3, 8)))
    gc.disable()
    try:
        with Tape() as tape:
            h = ad.add(ad.matmul(Matrix(rng.standard_normal((3, 8))), w.value), b.value)
            tape.backward(ad.sum_all(ad.relu(h)))
        freed = weakref.ref(tape)
        del tape
        assert freed() is None
    finally:
        gc.enable()
    assert w.value.grad is not None and b.value.grad is not None
