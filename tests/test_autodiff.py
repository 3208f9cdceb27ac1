import ast
import gc
import inspect
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from semtrack import autodiff as ad
from semtrack.autodiff import DimensionError, Matrix, Parameter, Tape

from gradcheck import check_against_fd, mse, weighted_scalar
from oracles import (composite_attention_sublayer, composite_contrastive_pairs,
                     composite_feed_forward_sublayer, concat, cross_entropy_rows,
                     layer_norm_rows, multi_head_attention, relu, transpose)


def test_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        Matrix([[1.0, float("nan")]])
    with pytest.raises(ValueError):
        Matrix([[float("inf")]])


@pytest.mark.parametrize("data", [[1.0, 2.0], np.zeros((1, 2, 2))],
                         ids=["1-D", "3-D"])
def test_matrix_must_be_2d(data):
    with pytest.raises(DimensionError, match="2-D"):
        Matrix(data)


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


def test_l2_normalize_gradient_is_its_formula_bit_for_bit():
    # the backward writes each step into one buffer; a zero row gets no gradient
    rng = np.random.default_rng(12)
    x = rng.standard_normal((9, 256))
    x[4] = 0.0
    g = rng.standard_normal((9, 256))
    with Tape() as tape:
        ad.l2_normalize_rows(Matrix(x, requires_grad=True))
        (_, _, vjp), = tape._records
    (grad,) = vjp(g)
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    safe = np.maximum(norms, ad.NORMALIZE_EPS)
    data = x / safe
    live = (norms > ad.NORMALIZE_EPS).astype(np.float64)
    expected = live * (g - data * (g * data).sum(axis=1, keepdims=True)) / safe
    assert grad.tobytes() == expected.tobytes()
    assert not grad[4].any()


def test_backward_closed_form_on_mse():
    p = Parameter([[3.0]], name="p")
    with Tape() as tape:
        loss = mse(p.value, Matrix([[0.0]]))
        tape.backward(loss)
    assert np.allclose(p.value.grad, [[6.0]])


def test_backward_requires_scalar_loss():
    p = Parameter([[1.0, 2.0]])
    with Tape() as tape:
        out = ad.scale(p.value, 2.0)
        with pytest.raises(DimensionError):
            tape.backward(out)


def test_consecutive_backward_accumulates():
    p = Parameter([[3.0]])
    with Tape() as tape:
        loss = mse(p.value, Matrix([[0.0]]))
        tape.backward(loss)
        tape.backward(loss)
    assert np.allclose(p.value.grad, [[12.0]])
    p.zero_grad()
    assert p.value.grad is None


def test_frozen_parameter_never_gets_grad():
    frozen = Parameter(np.ones((2, 2)), trainable=False, name="frozen")
    live = Parameter(np.ones((2, 2)), name="live")
    with Tape() as tape:
        out = ad.matmul(live.value, frozen.value)
        tape.backward(ad.sum_all(out))
    assert frozen.value.grad is None
    assert live.value.grad is not None


def test_no_recording_outside_tape():
    p = Parameter([[2.0]])
    out = ad.scale(p.value, 3.0)
    assert out.requires_grad is False


def test_parameter_step_applies_gradient_descent():
    p = Parameter([[1.0]])
    with Tape() as tape:
        tape.backward(mse(p.value, Matrix([[0.0]])))
    p.step(0.5)
    assert np.allclose(p.value.data, [[0.0]])  # 1 - 0.5 * 2


@pytest.mark.parametrize("seed", range(6))
def test_step_is_bit_for_bit_value_minus_scaled_gradient(seed):
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(1, 40, size=2))
    p = Parameter(rng.standard_normal(shape))
    grad = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3)
    for learning_rate in (5e-3, 5e-4, 0.1, 1 / 3, 0.7):
        p.value.grad = grad.copy()
        expected = p.value.data - learning_rate * grad
        p.step(learning_rate)
        assert p.value.data.tobytes() == expected.tobytes()


def test_step_turns_the_spent_gradient_into_the_value():
    p = Parameter([[1.0, -2.0], [0.5, 3.0]])
    with Tape() as tape:
        tape.backward(mse(p.value, Matrix(np.zeros((2, 2)))))
    old, grad = p.value, p.value.grad
    p.step(0.1)
    assert p.value is not old and p.value.grad is None and old.grad is None
    assert p.value.data is grad and not grad.flags.writeable
    assert np.array_equal(old.data, [[1.0, -2.0], [0.5, 3.0]])


@pytest.mark.parametrize("trainable", [True, False], ids=["gradient-less", "frozen"])
def test_a_parameter_without_an_update_keeps_its_value_object(trainable):
    p = Parameter(np.ones((2, 3)), trainable=trainable)
    value = p.value
    p.step(0.1)
    assert p.value is value and p.value.grad is None


def _read_only(arr):
    arr.flags.writeable = False
    return arr


@pytest.mark.parametrize("learning_rate, grad, error, message", [
    (math.nan, np.ones((2, 3)), ValueError, "learning rate must be finite"),
    (math.inf, np.ones((2, 3)), ValueError, "learning rate must be finite"),
    (-math.inf, np.ones((2, 3)), ValueError, "learning rate must be finite"),
    (0.1, np.ones((1, 1)), DimensionError, r"gradient of shape \(1, 1\) for a value of shape \(2, 3\)"),
    (0.1, np.ones((3, 2)), DimensionError, r"gradient of shape \(3, 2\)"),
    (0.1, np.ones((2, 3), dtype=np.float32), ValueError, "float64 ndarray, got float32"),
    (0.1, [[1.0] * 3] * 2, ValueError, "float64 ndarray, got list"),
    (0.1, _read_only(np.ones((2, 3))), ValueError, "writable and own its memory"),
    (0.1, np.ones((4, 3))[::2], ValueError, "writable and own its memory"),
], ids=["nan-rate", "inf-rate", "minus-inf-rate", "1x1-gradient", "transposed-gradient",
        "float32-gradient", "list-gradient", "read-only-gradient", "view-gradient"])
def test_step_rejects_bad_inputs_before_writing(learning_rate, grad, error, message):
    p = Parameter(np.arange(6.0).reshape(2, 3), name="w")
    value = p.value
    p.value.grad = grad
    before = np.array(grad, copy=True)
    with pytest.raises(error, match=message):
        p.step(learning_rate)
    assert p.value is value and np.array_equal(value.data, np.arange(6.0).reshape(2, 3))
    assert p.value.grad is grad and np.array_equal(grad, before)


@pytest.mark.parametrize("grad", [np.full((2, 3), np.inf), np.full((2, 3), -1e308)],
                         ids=["infinite-gradient", "overflowing-update"])
def test_a_non_finite_update_keeps_the_value_and_drops_the_gradient(grad):
    p = Parameter(np.full((2, 3), 1e308), name="w")
    value, bits = p.value, p.value.data.tobytes()
    p.value.grad = grad
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match=r"Parameter\(w, 2x3, trainable\): the update is not finite"):
            p.step(10.0)
    assert p.value is value and value.data.tobytes() == bits
    assert p.value.grad is None
    p.step(10.0)   # nothing left to apply
    assert p.value is value and value.data.tobytes() == bits


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_elementwise_ops_match_fd(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal((3, 5))
    check_against_fd(lambda x, y: mse(ad.add(x, y), Matrix(np.ones((3, 5)))),
                     [a, b], label="add")
    check_against_fd(lambda x, y: mse(ad.sub(x, y), Matrix(np.ones((3, 5)))),
                     [a, b], label="sub")
    check_against_fd(lambda x, y: ad.sum_all(ad.multiply(x, y)), [a, b], label="multiply")
    check_against_fd(ad.sum_all, [a], label="sum_all")
    check_against_fd(weighted_scalar(lambda x: ad.scale(x, -1.7)), [a], label="scale")
    check_against_fd(weighted_scalar(transpose), [a], label="transpose")


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_structural_ops_match_fd(seed):
    rng = np.random.default_rng(100 + seed)
    a = rng.standard_normal((4, 6))
    w = rng.standard_normal((6, 3))
    bias = rng.standard_normal((1, 3))
    check_against_fd(weighted_scalar(ad.linear), [a, w, bias], label="linear")
    check_against_fd(weighted_scalar(lambda m: ad.slice_cols(m, 1, 4)), [a],
                     label="slice_cols")
    check_against_fd(weighted_scalar(lambda m: ad.take_rows(m, [3, 1])), [a],
                     label="take_rows")
    b = rng.standard_normal((4, 3))
    check_against_fd(weighted_scalar(lambda x, y: concat([x, y], axis=1)), [a, b],
                     label="concat[cols]")
    c = rng.standard_normal((2, 6))
    check_against_fd(weighted_scalar(lambda x, y: concat([x, y], axis=0)), [a, c],
                     label="concat[rows]")


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_nonlinear_ops_match_fd(seed):
    rng = np.random.default_rng(200 + seed)
    a = rng.standard_normal((3, 7))
    a = a + 0.2 * np.sign(a)  # keep clear of the relu kink for central diffs
    check_against_fd(weighted_scalar(relu), [a], label="relu")
    check_against_fd(weighted_scalar(ad.sigmoid), [a], label="sigmoid")
    check_against_fd(weighted_scalar(ad.softmax_rows), [a], label="softmax_rows")
    check_against_fd(weighted_scalar(ad.l2_normalize_rows), [a], label="l2_normalize_rows")
    gain = rng.standard_normal((1, 7))
    bias = rng.standard_normal((1, 7))
    check_against_fd(weighted_scalar(lambda x, g, b: layer_norm_rows(x, g, b)),
                     [a, gain, bias], label="layer_norm_rows")


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_reduction_ops_match_fd(seed):
    rng = np.random.default_rng(300 + seed)
    a = rng.standard_normal((4, 5))
    b = rng.standard_normal((4, 5))
    check_against_fd(lambda x, y: ad.mean_abs_diff(x, y), [a, b], label="mean_abs_diff")
    logits = rng.standard_normal((4, 6))
    targets = rng.integers(0, 6, size=4).tolist()
    check_against_fd(lambda m: cross_entropy_rows(m, targets), [logits],
                     label="cross_entropy_rows")


@pytest.mark.parametrize("rows", [[2, 0, 2, 2], [1], [3, 2, 1, 0]])
def test_take_rows_matches_fd_and_sums_a_repeated_row(rows):
    rng = np.random.default_rng(150 + len(rows))
    a = rng.standard_normal((4, 5))
    check_against_fd(weighted_scalar(lambda m: ad.take_rows(m, rows)), [a],
                     label=f"take_rows[{rows}]")
    assert np.array_equal(ad.take_rows(Matrix(a), rows).data, a[rows])


def test_take_rows_gradient_never_adds_into_a_shared_buffer():
    # add hands one array to both its inputs; the rows take_rows sends to h
    # afterwards must not be added into that array, which k's gradient is too
    rng = np.random.default_rng(160)
    a = rng.standard_normal((4, 5))

    def build(x):
        h = ad.scale(x, 1.5)
        k = ad.scale(x, -0.5)
        taken = ad.take_rows(h, [3, 0, 3])
        both = ad.add(h, k)
        return ad.add(weighted_scalar(lambda m: m)(both), weighted_scalar(lambda m: m)(taken))

    check_against_fd(build, [a], label="take_rows[after a shared gradient]")


@pytest.mark.parametrize("rows, increasing", [
    ([0, 3, 5, 9], True), ([7], True), ([2, 0, 2], False), ([3, 2, 1, 0], False),
    ([1, 1, 4], False)])
def test_take_rows_adds_its_rows_as_np_add_at_does(rows, increasing):
    rng = np.random.default_rng(170)
    with Tape() as tape:
        ad.take_rows(Parameter(rng.standard_normal((10, 6))).value, rows)
    (delta,) = tape._records[-1][2](rng.standard_normal((len(rows), 6)))
    assert delta.increasing is increasing
    buffer = rng.standard_normal((10, 6))
    expected = buffer.copy()
    np.add.at(expected, delta.index, delta.values)
    delta.add_to(buffer)
    assert buffer.tobytes() == expected.tobytes()
    summed = np.zeros((10, 6))
    delta.add_to(summed)
    for r in set(rows):   # a row taken more than once gets the sum of its copies' gradients
        assert np.array_equal(summed[r],
                              sum(delta.values[i] for i, k in enumerate(rows) if k == r))


def test_take_rows_gradients_equal_the_np_add_at_path_bit_for_bit(monkeypatch):
    # rows taken from a leaf and from a recorded op, in increasing order and
    # repeated, on a tape that runs backward twice
    rng = np.random.default_rng(171)
    data, weight = rng.standard_normal((12, 5)), rng.standard_normal((12, 5))

    def grads():
        p = Parameter(data.copy())
        with Tape() as tape:
            h = ad.multiply(p.value, Matrix(weight))
            parts = [ad.take_rows(p.value, [0, 4, 7]), ad.take_rows(h, [1, 2, 11]),
                     ad.take_rows(h, [5, 5, 0]), ad.take_rows(p.value, [9, 3])]
            loss = weighted_scalar(lambda m: m)(concat(parts, axis=0))
            tape.backward(loss)
            tape.backward(loss)
        return p.value.grad.tobytes()

    fast = grads()
    monkeypatch.setattr(ad._Rows, "add_to",
                        lambda self, buffer: np.add.at(buffer, self.index, self.values))
    assert fast == grads()


@pytest.mark.parametrize("rows", [[], [4], [-1], [[0, 1]], [0.0], [True, False]],
                         ids=["empty", "past-end", "negative", "2-D", "float", "bool"])
def test_take_rows_rejects_bad_index_lists(rows):
    with pytest.raises(DimensionError, match="take_rows|out of range"):
        ad.take_rows(Matrix(np.zeros((4, 3))), rows)


def test_one_tape_records_at_a_time():
    p = Parameter([[2.0]])
    with Tape() as outer:
        with pytest.raises(RuntimeError, match="already recording"):
            with Tape():
                pass
        # the refused tape leaves the outer one recording
        outer.backward(mse(p.value, Matrix([[0.0]])))
    assert np.allclose(p.value.grad, [[4.0]])
    with Tape() as again:   # and a finished tape frees the slot
        again.backward(mse(p.value, Matrix([[0.0]])))
    assert np.allclose(p.value.grad, [[8.0]])


def test_every_op_has_an_fd_gradcheck():
    # a label names its op, optionally followed by "[case]"
    labels = set()
    for path in Path(__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None)
                    == "check_against_fd"):
                continue
            for kw in node.keywords:
                if kw.arg != "label":
                    continue
                value = kw.value
                if isinstance(value, ast.JoinedStr):
                    value = value.values[0]
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    labels.add(value.value.split("[")[0])
    ops = {name for name in ad.__all__ if inspect.isfunction(getattr(ad, name))}
    # and the oracles' ops, from which the fused ops' references are built
    ops |= {"transpose", "concat", "relu", "multi_head_attention", "layer_norm_rows",
            "cross_entropy_rows"}
    assert ops and sorted(ops - labels) == []


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
                                    transpose(ad.slice_cols(k, lo, hi))),
                          1.0 / math.sqrt(head_dim))
        heads.append(ad.matmul(ad.softmax_rows(logits), ad.slice_cols(v, lo, hi)))
    return heads[0] if num_heads == 1 else concat(heads, axis=1)


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
    attention = weighted_scalar(
        lambda a, b, c: multi_head_attention(a, b, c, num_heads, [0] * rows))
    check_against_fd(attention, [q, k, v],
                     label=f"multi_head_attention[{rows}x8, {num_heads} heads]")


@pytest.mark.parametrize("rows, num_heads", [(1, 1), (1, 4), (3, 2), (9, 4), (17, 8)])
def test_multi_head_attention_matches_composition(rows, num_heads):
    rng = np.random.default_rng(600 + rows)
    q, k, v = (Matrix(rng.standard_normal((rows, 64)) * 3.0) for _ in range(3))
    fused = multi_head_attention(q, k, v, num_heads, [0] * rows).data
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
    for attention in (lambda q, k, v: multi_head_attention(q, k, v, 4, [0] * rows),
                      lambda q, k, v: composed_attention(q, k, v, 4)):
        leaf = Matrix(x, requires_grad=True)
        with Tape() as tape:
            q, k, v = (ad.matmul(leaf, Matrix(w)) for w in weights)
            out = attention(q, k, v)
            tape.backward(ad.sum_all(ad.multiply(out, Matrix(upstream))))
        grads.append(leaf.grad)
    assert np.array_equal(grads[0], grads[1])


def test_multi_head_attention_shape_errors():
    m = Matrix(np.zeros((3, 8)))
    with pytest.raises(DimensionError, match="shapes"):
        multi_head_attention(m, Matrix(np.zeros((2, 8))), m, 2, [0] * 3)
    with pytest.raises(DimensionError, match="shapes"):
        multi_head_attention(m, m, Matrix(np.zeros((3, 4))), 2, [0] * 3)
    with pytest.raises(DimensionError, match="divisible"):
        multi_head_attention(m, m, m, 3, [0] * 3)
    with pytest.raises(DimensionError, match="divisible"):
        multi_head_attention(m, m, m, 0, [0] * 3)


# three segments, interleaved and of unequal sizes, one of a single row
SEGMENTS = [2, 0, 0, 1, 2, 0, 2]


@pytest.mark.parametrize("num_heads", [1, 4])
def test_masked_multi_head_attention_matches_fd(num_heads):
    rng = np.random.default_rng(800 + num_heads)
    q, k, v = (rng.standard_normal((len(SEGMENTS), 8)) for _ in range(3))
    attention = weighted_scalar(
        lambda a, b, c: multi_head_attention(a, b, c, num_heads, SEGMENTS))
    check_against_fd(attention, [q, k, v],
                     label=f"multi_head_attention[segments {SEGMENTS}, {num_heads} heads]")


@pytest.mark.parametrize("num_heads", [1, 2, 4])
def test_masked_attention_equals_each_segment_on_its_own(num_heads):
    rng = np.random.default_rng(810 + num_heads)
    q, k, v = (rng.standard_normal((len(SEGMENTS), 16)) * 3.0 for _ in range(3))
    masked = multi_head_attention(Matrix(q), Matrix(k), Matrix(v), num_heads, SEGMENTS).data
    labels = np.array(SEGMENTS)
    for segment in set(SEGMENTS):
        rows = labels == segment
        alone = multi_head_attention(Matrix(q[rows]), Matrix(k[rows]), Matrix(v[rows]),
                                     num_heads, labels[rows]).data
        assert np.max(np.abs(masked[rows] - alone)) <= 1e-12


@pytest.mark.parametrize("segments", [[0, 0, 1], [0, 0, 1, 1, 1], [[0, 0, 1, 1]], 0])
def test_multi_head_attention_rejects_segments_of_the_wrong_shape(segments):
    m = Matrix(np.zeros((4, 8)))
    with pytest.raises(DimensionError, match="segment"):
        multi_head_attention(m, m, m, 2, segments)


def test_tape_is_freed_without_the_cyclic_gc():
    rng = np.random.default_rng(8)
    w = Parameter(rng.standard_normal((8, 8)))
    b = Parameter(rng.standard_normal((3, 8)))
    gc.disable()
    try:
        with Tape() as tape:
            h = ad.add(ad.matmul(Matrix(rng.standard_normal((3, 8))), w.value), b.value)
            tape.backward(ad.sum_all(relu(h)))
        freed = weakref.ref(tape)
        del tape
        assert freed() is None
    finally:
        gc.enable()
    assert w.value.grad is not None and b.value.grad is not None


# -- float types: float32 serves untaped inference, everything else is float64

F32_OPS = {
    "matmul": lambda a, b: ad.matmul(a, transpose(b)),
    "linear": lambda a, b: ad.linear(a, transpose(b), ad.take_rows(a, [0])),
    "add": ad.add,
    "multiply": ad.multiply,
    "scale": lambda a, b: ad.scale(a, 0.3),
    "relu": lambda a, b: relu(a),
    "sigmoid": lambda a, b: ad.sigmoid(a),
    "softmax_rows": lambda a, b: ad.softmax_rows(a),
    "l2_normalize_rows": lambda a, b: ad.l2_normalize_rows(a),
    "layer_norm_rows": lambda a, b: layer_norm_rows(a, ad.take_rows(b, [0]),
                                                    ad.take_rows(b, [1])),
    "multi_head_attention": lambda a, b: multi_head_attention(a, b, a, 2, [0] * a.rows),
    "masked_attention": lambda a, b: multi_head_attention(a, b, a, 2, [0, 1, 1, 0]),
    "sum_all": lambda a, b: ad.sum_all(a),
    "attention_sublayer": lambda a, b: ad.attention_sublayer(
        a, *[b, ad.take_rows(b, [0])] * 4, ad.take_rows(b, [1]), ad.take_rows(b, [2]), 2,
        [0] * a.rows),
    "feed_forward_sublayer": lambda a, b: ad.feed_forward_sublayer(
        a, *[b, ad.take_rows(b, [0])] * 2, ad.take_rows(b, [1]), ad.take_rows(b, [2])),
}


@pytest.mark.parametrize("op", F32_OPS.values(), ids=F32_OPS.keys())
def test_float32_input_stays_float32(op):
    rng = np.random.default_rng(31)
    a, b = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    wide = op(Matrix(a), Matrix(b))
    narrow = op(Matrix(a.astype(np.float32)), Matrix(b.astype(np.float32)))
    assert wide.data.dtype == np.float64 and narrow.data.dtype == np.float32
    assert not narrow.data.flags.writeable
    np.testing.assert_allclose(narrow.data, wide.data, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("data", [
    np.ones((2, 3), dtype=np.int64), np.ones((2, 3), dtype=np.float16),
    np.ones((2, 3), dtype=bool), [[1, 2, 3]], [[1.0, 2.0, 3.0]]],
    ids=["int64", "float16", "bool", "int-list", "float-list"])
def test_every_other_input_becomes_float64(data):
    assert Matrix(data).data.dtype == np.float64


def test_float32_with_float64_gives_float64():
    rng = np.random.default_rng(32)
    narrow = Matrix(rng.standard_normal((3, 4)).astype(np.float32))
    wide = Matrix(rng.standard_normal((3, 4)))
    assert ad.add(narrow, wide).data.dtype == np.float64
    assert ad.multiply(wide, narrow).data.dtype == np.float64
    weight, bias = Matrix(rng.standard_normal((4, 2))), Matrix(np.zeros((1, 2)))
    assert ad.linear(narrow, weight, bias).data.dtype == np.float64


def test_a_float32_op_that_overflows_still_raises():
    big = np.full((1, 2), 3e38)
    assert np.all(np.isfinite(ad.scale(Matrix(big), 10.0).data))   # fine in float64
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            ad.scale(Matrix(big.astype(np.float32)), 10.0)
        with pytest.raises(ValueError, match="non-finite"):
            ad.matmul(Matrix(big.astype(np.float32)), Matrix(big.T.astype(np.float32)))
    with pytest.raises(ValueError, match="non-finite"):
        Matrix(np.array([[np.inf]], dtype=np.float32))


def test_a_tape_refuses_to_record_a_float32_op():
    rng = np.random.default_rng(33)
    weight, bias = Parameter(rng.standard_normal((4, 2))), Parameter(np.zeros((1, 2)))
    narrow = Matrix(rng.standard_normal((3, 4)).astype(np.float32))
    with Tape() as tape:
        with pytest.raises(TypeError, match="float64"):
            ad.linear(narrow, weight.value, bias.value)
        with pytest.raises(TypeError, match="float64"):
            relu(Matrix(narrow.data, requires_grad=True))
        # nothing to record, so nothing to refuse: a constant may be float32
        assert relu(narrow).data.dtype == np.float32
        tape.backward(ad.sum_all(ad.linear(Matrix(narrow.data.astype(np.float64)),
                                           weight.value, bias.value)))
    assert weight.value.grad.dtype == np.float64


def test_cast_is_the_value_in_float64_and_a_cached_copy_in_float32():
    p = Parameter(np.random.default_rng(34).standard_normal((3, 2)))
    assert p.cast(np.float64) is p.value
    narrow = p.cast(np.float32)
    assert narrow.data.dtype == np.float32 and narrow.requires_grad
    assert np.array_equal(narrow.data, p.value.data.astype(np.float32))
    assert p.cast(np.float32) is narrow and p.value.data.dtype == np.float64
    assert not Parameter([[1.0]], trainable=False).cast(np.float32).requires_grad


def test_cast_follows_every_new_value():
    p = Parameter(np.ones((2, 2)))
    first = p.cast(np.float32)
    p.value.grad = np.full((2, 2), 2.0)
    p.step(0.25)
    assert np.array_equal(p.cast(np.float32).data, np.full((2, 2), 0.5, dtype=np.float32))
    p.value = Matrix(np.full((2, 2), 3.0))   # as a model file's load assigns it
    assert np.array_equal(p.cast(np.float32).data, np.full((2, 2), 3.0, dtype=np.float32))
    assert np.array_equal(first.data, np.ones((2, 2)))


def test_cast_keeps_no_replaced_value_alive():
    p = Parameter(np.ones((2, 2)))
    p.cast(np.float32)
    old = weakref.ref(p.value)
    p.value = Matrix(np.zeros((2, 2)))
    assert old() is None


# -- the formulas the tracked student runs, pinned bit for bit to plain numpy

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [1, 3, 100, 255, 256, 1024])
def test_layer_norm_rows_equals_numpys_mean_and_var(dtype, width):
    # at a width that is not a power of two the row mean and variance round
    # in the division; numpy divides a float32 sum by its intp count in float64
    rng = np.random.default_rng(width)
    x = (rng.standard_normal((7, width)) * 30.0 + 5.0).astype(dtype)
    gain = rng.standard_normal((1, width)).astype(dtype)
    bias = rng.standard_normal((1, width)).astype(dtype)
    out = layer_norm_rows(Matrix(x), Matrix(gain), Matrix(bias)).data
    inv = 1.0 / np.sqrt(x.var(axis=1, keepdims=True) + ad.LAYER_NORM_EPS)
    expected = (x - x.mean(axis=1, keepdims=True)) * inv * gain + bias
    assert out.dtype == expected.dtype == dtype
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("x_type, weight_type, bias_type", [
    (np.float64, np.float64, np.float64), (np.float32, np.float32, np.float32),
    (np.float32, np.float32, np.float64), (np.float32, np.float64, np.float32),
    (np.float64, np.float32, np.float32)])
def test_linear_equals_matmul_plus_bias(x_type, weight_type, bias_type):
    # a float64 bias on a float32 product must still promote the sum to float64.
    # A 256-deep float32 product in column blocks is x @ weight bit for bit; a
    # 1024-deep one sums in another order, so that case has more rows than
    # BLOCKED_MAX_ROWS, and the blocks are pinned by the test below
    rng = np.random.default_rng(41)
    for rows, depth, width in ((5, 256, 1024), (16, 1024, 256)):
        x = rng.standard_normal((rows, depth)).astype(x_type)
        weight = (rng.standard_normal((depth, width)) / math.sqrt(depth)).astype(weight_type)
        bias = rng.standard_normal((1, width)).astype(bias_type)
        out = ad.linear(Matrix(x), Matrix(weight), Matrix(bias)).data
        expected = x @ weight + bias
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()


# -- float32 products of a few rows run as column blocks

STUDENT_SHAPES = [(256, 256), (256, 1024), (1024, 256)]


def column_blocks(rows, depth, width):
    """The (start, width) column blocks of a float32 ``rows x depth`` by
    ``depth x width`` product, by the documented rule: one block unless it
    has at most BLOCKED_MAX_ROWS rows and rows * depth * width exceeds
    SMALL_PRODUCT_LIMIT; then the fewest equal blocks, each a multiple of 16
    wide (the last takes what is left), that keep rows * depth * block within
    the limit."""
    if rows > ad.BLOCKED_MAX_ROWS or rows * depth * width <= ad.SMALL_PRODUCT_LIMIT:
        return [(0, width)]
    blocks = 2
    while rows * depth * (math.ceil(width / blocks / 16) * 16) > ad.SMALL_PRODUCT_LIMIT:
        blocks += 1
    step = math.ceil(width / blocks / 16) * 16
    return [(s, min(step, width - s)) for s in range(0, width, step)]


@pytest.mark.parametrize("depth, width", STUDENT_SHAPES, ids=["256x256", "256x1024", "1024x256"])
@pytest.mark.parametrize("rows", range(1, 17))
def test_a_few_rows_of_float32_are_the_concatenation_of_their_blocks(rows, depth, width):
    rng = np.random.default_rng(rows * 7 + depth + width)
    x = rng.standard_normal((rows, depth)).astype(np.float32)
    weight = (rng.uniform(-1.0, 1.0, (depth, width)) / math.sqrt(depth)).astype(np.float32)
    bias = (rng.uniform(-1.0, 1.0, (1, width)) / math.sqrt(depth)).astype(np.float32)
    out = ad.linear(Matrix(x), Matrix(weight), Matrix(bias)).data
    blocks = column_blocks(rows, depth, width)
    expected = np.concatenate([x @ weight[:, s:s + w] for s, w in blocks], axis=1) + bias
    assert out.dtype == np.float32
    assert out.tobytes() == expected.tobytes()
    if depth == 256:   # a 256-deep block sums as the whole product does
        assert out.tobytes() == (x @ weight + bias).tobytes()
    # Higham's bound for a float32 dot product of depth terms and one more
    # rounding for the bias, against the float64 value of the same inputs
    exact = x.astype(np.float64) @ weight.astype(np.float64) + bias
    scale = np.abs(x).astype(np.float64) @ np.abs(weight) + np.abs(bias)
    assert np.all(np.abs(out - exact) <= (depth + 2) * 2.0 ** -24 * scale)


def test_a_product_too_deep_for_16_columns_of_blocks_stays_whole():
    # 8 rows x 8192 deep: even a 16-column block would exceed the limit
    rng = np.random.default_rng(8192)
    x = rng.standard_normal((8, 8192)).astype(np.float32)
    weight = rng.standard_normal((8192, 32)).astype(np.float32)
    bias = np.zeros((1, 32), dtype=np.float32)
    assert 8 * 8192 * 16 > ad.SMALL_PRODUCT_LIMIT
    out = ad.linear(Matrix(x), Matrix(weight), Matrix(bias)).data
    assert out.tobytes() == (x @ weight + bias).tobytes()


class RecordedWeight(np.ndarray):
    """A weight whose products record themselves: each ``x @ w`` with this
    weight, or a view of it, as ``w`` appends ``(x.shape, w)`` to ``log``."""

    log: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and isinstance(inputs[1], RecordedWeight):
            RecordedWeight.log.append((inputs[0].shape, inputs[1]))
        return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)


def student_forward(monkeypatch, dtype, rows, taped):
    """The products with a weight, as ``(x.shape, w)``, of one forward of the
    default student on ``rows`` rows in ``dtype``, recorded under a tape when
    ``taped``; and the weights, as the forward reads them."""
    from semtrack.student import StudentModel
    model = StudentModel(seed=3)
    weights = []
    for name, parameter in model.named_parameters().items():
        if name.endswith(".weight"):
            matrix = parameter.cast(dtype)
            matrix.data = matrix.data.view(RecordedWeight)
            weights.append(matrix.data)
    monkeypatch.setattr(RecordedWeight, "log", [])
    x = Matrix(np.random.default_rng(rows).standard_normal((rows, 256)).astype(dtype))
    if taped:
        with Tape():
            model.forward(x, [0] * rows)
    else:
        model.forward(x, [0] * rows)
    return RecordedWeight.log, weights


@pytest.mark.parametrize("rows", range(1, 13))
def test_no_product_of_a_few_float32_rows_leaves_the_small_kernel(monkeypatch, rows):
    products, weights = student_forward(monkeypatch, np.float32, rows, taped=False)
    assert len(products) >= len(weights) == 20
    for (m, k), w in products:
        assert m * k * w.shape[1] <= ad.SMALL_PRODUCT_LIMIT
        assert w.shape[1] % 16 == 0   # every student width is, so every block is too


@pytest.mark.parametrize("dtype, rows, taped", [
    (np.float64, 6, False), (np.float64, 6, True), (np.float32, 13, False),
    (np.float32, 40, False)], ids=["float64", "taped", "float32-13-rows", "float32-40-rows"])
def test_other_forwards_make_one_product_per_weight(monkeypatch, dtype, rows, taped):
    # the input and output projections and six per layer, each on the whole
    # weight
    products, weights = student_forward(monkeypatch, dtype, rows, taped)
    assert len(weights) == 20
    assert sorted(id(w) for _, w in products) == sorted(map(id, weights))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_equals_where_including_negative_zero(dtype):
    top = np.finfo(dtype).max
    x = np.array([[-0.0, 0.0, -1.5, 2.5, 1e-40, -1e-40, -top, top]] * 3, dtype=dtype)
    out = relu(Matrix(x)).data
    expected = np.where(x > 0, x, 0.0)
    assert out.dtype == expected.dtype == dtype
    assert out.tobytes() == expected.tobytes()
    assert not np.signbit(out).any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("segments", [pytest.param([7] * 5, id="one-set"), [0, 1, 1, 0, 1]])
def test_multi_head_attention_equals_numpys_softmax(dtype, segments):
    # one label masks nothing: the result is numpy's plain softmax attention
    rng = np.random.default_rng(42)
    q, k, v = (rng.standard_normal((5, 8)).astype(dtype) for _ in range(3))
    out = multi_head_attention(Matrix(q), Matrix(k), Matrix(v), 2, segments).data

    def heads(m):
        return np.ascontiguousarray(m.reshape(5, 2, 4).transpose(1, 0, 2))

    z = (heads(q) @ np.ascontiguousarray(heads(k).transpose(0, 2, 1))) * (1.0 / math.sqrt(4))
    if len(set(segments)) > 1:
        labels = np.asarray(segments)
        z = np.where(labels[:, None] == labels[None, :], z, -np.inf)
    e = np.exp(z - z.max(axis=2, keepdims=True))
    expected = ((e / e.sum(axis=2, keepdims=True)) @ heads(v)).transpose(1, 0, 2).reshape(5, 8)
    assert out.dtype == expected.dtype == dtype
    assert out.tobytes() == np.ascontiguousarray(expected).tobytes()


def _huge(dtype, shape=(2, 4)):
    return Matrix(np.full(shape, np.finfo(dtype).max * 0.75, dtype=dtype))


def _identity_projection(dtype, width=4):
    return [Matrix(np.eye(width, dtype=dtype)), Matrix(np.zeros((1, width), dtype=dtype))]


def _unit_norm(dtype, width=4):
    return [Matrix(np.ones((1, width), dtype=dtype)), Matrix(np.zeros((1, width), dtype=dtype))]


# each op the student and the fusion run, and each small op the sublayers
# compose, on finite operands whose result overflows; relu has no case, as
# the relu of a finite matrix is finite
STUDENT_OPS = {
    "linear": lambda m: ad.linear(m, _huge(m.data.dtype, (4, 3)),
                                  Matrix(np.zeros((1, 3), dtype=m.data.dtype))),
    "add": lambda m: ad.add(m, m),
    "sub": lambda m: ad.sub(m, ad.scale(m, -1.0)),
    "multiply": lambda m: ad.multiply(m, m),
    "matmul": lambda m: ad.matmul(m, transpose(m)),
    "layer_norm_rows": lambda m: layer_norm_rows(
        m, Matrix(np.ones((1, 4), dtype=m.data.dtype)),
        Matrix(np.zeros((1, 4), dtype=m.data.dtype))),
    "multi_head_attention": lambda m: multi_head_attention(m, m, m, 2, [0] * m.rows),
    "attention_sublayer": lambda m: ad.attention_sublayer(
        m, *_identity_projection(m.data.dtype) * 4, *_unit_norm(m.data.dtype), 2,
        [0] * m.rows),
    "feed_forward_sublayer": lambda m: ad.feed_forward_sublayer(
        m, *_identity_projection(m.data.dtype) * 2, *_unit_norm(m.data.dtype)),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", STUDENT_OPS.values(), ids=STUDENT_OPS.keys())
def test_every_student_op_raises_on_a_non_finite_result(op, dtype):
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
        op(_huge(dtype))


# -- a leaf's gradient buffer is its own

def test_both_leaves_of_add_get_their_own_gradient_across_two_backward_passes():
    # add hands its one output gradient to both inputs
    rng = np.random.default_rng(43)
    p, q = Parameter(rng.standard_normal((3, 4))), Parameter(rng.standard_normal((3, 4)))
    c = rng.standard_normal((3, 4))
    with Tape() as tape:
        loss = ad.sum_all(ad.multiply(ad.add(p.value, q.value), Matrix(c)))
        tape.backward(loss)
        tape.backward(loss)
    assert np.array_equal(p.value.grad, 2 * c) and np.array_equal(q.value.grad, 2 * c)
    assert not np.shares_memory(p.value.grad, q.value.grad)


def test_a_leaf_keeps_a_gradient_made_for_it_and_copies_a_view():
    rng = np.random.default_rng(44)
    x = Matrix(rng.standard_normal((5, 3)))
    weight, bias = Parameter(rng.standard_normal((3, 4))), Parameter(np.zeros((1, 4)))
    other = Parameter(rng.standard_normal((4, 5)))
    made = []
    with Tape() as tape:
        out = ad.linear(x, weight.value, bias.value)
        (out_node, inputs, vjp), = tape._records

        def spy(g):
            grads = vjp(g)
            made.append(grads[1])
            return grads

        tape._records[0] = (out_node, inputs, spy)
        # the transpose's rule hands ``other`` a view of its output gradient
        tape.backward(ad.add(ad.sum_all(out), ad.sum_all(transpose(other.value))))
    # x.T @ g is made for the weight alone, so the weight keeps it
    assert weight.value.grad is made[0]
    assert np.array_equal(weight.value.grad, x.data.T @ np.ones((5, 4)))
    assert other.value.grad.base is None
    assert np.array_equal(other.value.grad, np.ones((4, 5)))


# -- the transformer sublayers: one op each, the bits of their composition

def attention_arrays(rng, rows=5, width=8, dtype=np.float64) -> list[np.ndarray]:
    """h and an attention sublayer's ten weights, in argument order."""
    shapes = [(rows, width)] + [(width, width), (1, width)] * 4 + [(1, width)] * 2
    arrays = [rng.standard_normal(shape) for shape in shapes]
    arrays[9] += 1.0   # a layer-norm gain about 1
    return [a.astype(dtype) for a in arrays]


def feed_forward_arrays(rng, rows=5, width=8, dtype=np.float64) -> list[np.ndarray]:
    """h and a feed-forward sublayer's six weights, in argument order."""
    hidden = 2 * width
    shapes = [(rows, width), (width, hidden), (1, hidden), (hidden, width), (1, width),
              (1, width), (1, width)]
    arrays = [rng.standard_normal(shape) for shape in shapes]
    arrays[5] += 1.0
    return [a.astype(dtype) for a in arrays]


# segment labels of up to 7 rows: three segments, interleaved, one of a single row
SUBLAYER_SEGMENTS = [1, 0, 1, 1, 0, 2, 0]


def _attention_case(segmented: bool):
    def segments(h):
        return SUBLAYER_SEGMENTS[:h.rows] if segmented else [0] * h.rows

    return (lambda h, *m: ad.attention_sublayer(h, *m, 2, segments(h)),
            lambda h, *m: composite_attention_sublayer(h, *m, 2, segments(h)),
            attention_arrays)


# a sublayer, its composition of small ops, and its inputs
SUBLAYERS = {
    "attention": _attention_case(False),
    "attention-segments": _attention_case(True),
    "feed_forward": (ad.feed_forward_sublayer, composite_feed_forward_sublayer,
                     feed_forward_arrays),
}


@pytest.mark.parametrize("segments", [[0] * 5, SUBLAYER_SEGMENTS[:5]],
                         ids=["one-set", "segments"])
def test_attention_sublayer_matches_fd(segments):
    arrays = attention_arrays(np.random.default_rng(900))
    check_against_fd(weighted_scalar(lambda *m: ad.attention_sublayer(*m, 2, segments)),
                     arrays, label=f"attention_sublayer[{segments}]")


def test_feed_forward_sublayer_matches_fd():
    arrays = feed_forward_arrays(np.random.default_rng(901))
    check_against_fd(weighted_scalar(ad.feed_forward_sublayer), arrays,
                     label="feed_forward_sublayer")


@pytest.mark.parametrize("size", [(5, 8), (7, 64)], ids=["5x8", "7x64"])
@pytest.mark.parametrize("produced", [False, True], ids=["leaf", "produced"])
@pytest.mark.parametrize("case", SUBLAYERS)
def test_a_sublayer_equals_its_composition_bit_for_bit(case, produced, size):
    # the value, and the gradient of every input, whether h is a leaf or was
    # produced on the tape
    op, composite, make = SUBLAYERS[case]
    rows, width = size
    arrays = make(np.random.default_rng(910 + width), rows, width)
    upstream = Matrix(np.random.default_rng(911).standard_normal((rows, width)))
    results = []
    for f in (op, composite):
        leaves = [Matrix(a, requires_grad=True) for a in arrays]
        with Tape() as tape:
            h = ad.scale(leaves[0], 2.0) if produced else leaves[0]
            out = f(h, *leaves[1:])
            tape.backward(ad.sum_all(ad.multiply(out, upstream)))
        results.append([out.data] + [m.grad for m in leaves])
    for k, (got, expected) in enumerate(zip(*results, strict=True)):
        assert got.dtype == expected.dtype == np.float64
        assert got.tobytes() == expected.tobytes(), f"{case}: entry {k} differs"


@pytest.mark.parametrize("case", SUBLAYERS)
def test_a_float32_sublayer_equals_its_float32_composition(case):
    op, composite, make = SUBLAYERS[case]
    arrays = make(np.random.default_rng(920), 7, 64, np.float32)
    got = op(*map(Matrix, arrays)).data
    expected = composite(*map(Matrix, arrays)).data
    assert got.dtype == expected.dtype == np.float32
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("case", SUBLAYERS)
def test_a_tape_refuses_a_float32_sublayer(case):
    op, _, make = SUBLAYERS[case]
    h, *weights = make(np.random.default_rng(930))
    narrow = [Parameter(w).cast(np.float32) for w in weights]
    with Tape():
        with pytest.raises(TypeError, match="float64"):
            op(Matrix(h.astype(np.float32)), *narrow)


def _planted(m: Matrix, value: float) -> Matrix:
    """``m`` with ``value`` at [0, 0]: a matrix no constructor would make,
    standing for a non-finite value that reached an op's input."""
    data = m.data.copy()
    data[0, 0] = value
    out = Matrix(m.data)
    out.data = data
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", SUBLAYERS)
def test_a_non_finite_input_still_raises(case, dtype):
    # the sublayer scans the intermediates the softmax's exp and relu could
    # turn finite, so a bad value raises wherever it enters, as the
    # composition's per-op scans raise
    op, composite, make = SUBLAYERS[case]
    inputs = [Matrix(a) for a in make(np.random.default_rng(940), dtype=dtype)]
    for position in range(len(inputs)):
        for value in (np.inf, -np.inf, np.nan):
            bad = list(inputs)
            bad[position] = _planted(inputs[position], value)
            for f in (op, composite):
                with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
                    f(*bad)


def test_a_float32_overflow_that_relu_would_zero_still_raises():
    # every hidden unit overflows to -inf in float32, which relu makes 0 and
    # the rest of the sublayer finite again
    h = np.full((2, 4), 1e20)
    weights = [np.full((4, 3), -1e20), np.zeros((1, 3)), np.ones((3, 4)), np.zeros((1, 4)),
               np.ones((1, 4)), np.zeros((1, 4))]
    wide = ad.feed_forward_sublayer(Matrix(h), *map(Matrix, weights))
    assert np.array_equal(wide.data, np.zeros((2, 4)))
    for f in (ad.feed_forward_sublayer, composite_feed_forward_sublayer):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            f(*(Matrix(a.astype(np.float32)) for a in [h] + weights))


def test_a_float32_overflow_that_the_softmax_would_zero_still_raises():
    # the first key overflows to -inf in float32: its logits are -inf, so
    # the softmax gives it a weight of exactly 0 and the output is finite
    h = np.array([[1e20, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    wq, wk = np.zeros((4, 4)), np.zeros((4, 4))
    wq[0, 0], wq[1, 0] = 1e-20, 1.0
    wk[0, 0], wk[1, 0] = -1e20, 1.0
    zero = np.zeros((1, 4))
    inputs = [h, wq, zero, wk, zero, np.zeros((4, 4)), zero, np.eye(4), zero,
              np.ones((1, 4)), zero]
    assert np.all(np.isfinite(ad.attention_sublayer(*map(Matrix, inputs), 1, [0, 0]).data))
    for f in (ad.attention_sublayer, composite_attention_sublayer):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            f(*(Matrix(a.astype(np.float32)) for a in inputs), 1, [0, 0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_an_attention_sublayer_over_no_rows_raises(dtype):
    h, *weights = attention_arrays(np.random.default_rng(950), rows=0, dtype=dtype)
    with pytest.raises(DimensionError, match="at least one row"):
        ad.attention_sublayer(Matrix(h), *map(Matrix, weights), 2, [])
    with pytest.raises(DimensionError, match="at least one row"):
        multi_head_attention(Matrix(h), Matrix(h), Matrix(h), 2, [])


def _resized(arrays, shapes: dict) -> list[Matrix]:
    """The arrays as matrices, with ones of ``shapes[i]`` at each position ``i``."""
    return [Matrix(np.ones(shapes[i]) if i in shapes else a) for i, a in enumerate(arrays)]


@pytest.mark.parametrize("shapes, message", [
    ({1: (7, 8)}, "linear"), ({4: (1, 7)}, "bias"), ({5: (8, 4), 6: (1, 4)}, "equal q/k/v"),
    ({7: (8, 6)}, "residual"), ({9: (1, 7)}, "layer norm")],
    ids=["query", "key-bias", "value", "output", "gain"])
def test_attention_sublayer_shape_errors(shapes, message):
    arrays = attention_arrays(np.random.default_rng(960))
    with pytest.raises(DimensionError, match=message):
        ad.attention_sublayer(*_resized(arrays, shapes), 2, [0] * 5)
    with pytest.raises(DimensionError, match="divisible"):
        ad.attention_sublayer(*map(Matrix, arrays), 3, [0] * 5)
    with pytest.raises(DimensionError, match="segment"):
        ad.attention_sublayer(*map(Matrix, arrays), 2, [0, 1])


@pytest.mark.parametrize("shapes, message", [
    ({1: (7, 16)}, "linear"), ({2: (1, 8)}, "bias"), ({3: (15, 8)}, "linear"),
    ({3: (16, 6)}, "residual"), ({6: (1, 7)}, "layer norm")],
    ids=["first", "first-bias", "second", "second-width", "bias"])
def test_feed_forward_sublayer_shape_errors(shapes, message):
    arrays = feed_forward_arrays(np.random.default_rng(970))
    with pytest.raises(DimensionError, match=message):
        ad.feed_forward_sublayer(*_resized(arrays, shapes))


# -- the contrastive association term: one op for a scene's pairs

# (anchors, targets, candidates) over 8 rows, in order: anchors among their own
# candidates, in the pair a backward pass reaches last, so that rows 2 and 6
# collect a later pair's gradient first and the order of the next two decides
# their bits; increasing anchors; anchors that decrease (np.add.at) and overlap
# the previous pair's candidates; one candidate; a repeated anchor with
# candidates out of order
CONTRASTIVE_PAIRS = [([2, 6], [0, 1], [6, 2, 3]), ([0, 2], [1, 0], range(3, 6)),
                     ([5, 3, 4], [0, 0, 1], [6, 7]), ([7], [0], [1]),
                     ([1, 1], [2, 0], [4, 0, 2])]


@pytest.mark.parametrize("pairs", [CONTRASTIVE_PAIRS, CONTRASTIVE_PAIRS[2:3],
                                   CONTRASTIVE_PAIRS[3:4]],
                         ids=["all", "decreasing-anchors", "one-candidate"])
@pytest.mark.parametrize("width", [5, 64])
@pytest.mark.parametrize("produced", [False, True], ids=["leaf", "normalized"])
def test_contrastive_pairs_equals_its_composition_bit_for_bit(pairs, width, produced):
    arr = np.random.default_rng(950 + width).standard_normal((8, width))
    results = []
    for f in (ad.contrastive_pairs, composite_contrastive_pairs):
        leaf = Matrix(arr, requires_grad=True)
        with Tape() as tape:
            m = ad.l2_normalize_rows(leaf) if produced else leaf
            out = f(m, pairs, 1.0 / 0.1)
            tape.backward(ad.scale(out, 0.37))
        results.append((out.data, leaf.grad))
    (value, grad), (expected_value, expected_grad) = results
    assert value.shape == (1, 1)
    assert value.tobytes() == expected_value.tobytes()
    assert grad.tobytes() == expected_grad.tobytes()


def test_contrastive_pairs_is_one_record():
    m = Matrix(np.random.default_rng(951).standard_normal((8, 5)), requires_grad=True)
    with Tape() as tape:
        ad.contrastive_pairs(m, CONTRASTIVE_PAIRS, 2.0)
    assert len(tape._records) == 1


def test_contrastive_pairs_matches_fd():
    arr = np.random.default_rng(952).standard_normal((8, 5))
    check_against_fd(lambda m: ad.contrastive_pairs(m, CONTRASTIVE_PAIRS, 0.5), [arr],
                     label="contrastive_pairs")


@pytest.mark.parametrize("pairs, message", [
    ([], "at least one pair"),
    ([([], [], [0, 1])], "contrastive_pairs needs a non-empty"),
    ([([0], [0], [])], "contrastive_pairs needs a non-empty"),
    ([([0, 1], [0], [2, 3])], "need 2 targets"),
    ([([0, 1], [0, 2], [2, 3])], "target index out of range"),
    ([([0], [0], [2, 8])], "out of range"),
    ([([-1], [0], [2, 3])], "out of range")],
    ids=["no-pairs", "no-anchors", "no-candidates", "targets-short", "target-past-end",
         "candidate-past-end", "negative-anchor"])
def test_contrastive_pairs_rejects_bad_pairs(pairs, message):
    with pytest.raises(DimensionError, match=message):
        ad.contrastive_pairs(Matrix(np.zeros((8, 3))), pairs, 1.0)


@pytest.mark.parametrize("op", [ad.contrastive_pairs, composite_contrastive_pairs],
                         ids=["op", "composition"])
@pytest.mark.parametrize("scale, factor", [(1e200, 1.0), (1.0, math.inf)],
                         ids=["overflow", "infinite-factor"])
def test_contrastive_pairs_raises_on_a_non_finite_logit(op, scale, factor):
    m = Matrix(np.random.default_rng(953).standard_normal((8, 5)) * scale)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
        op(m, CONTRASTIVE_PAIRS, factor)
