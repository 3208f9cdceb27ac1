"""Dense float64 matrices with reverse-mode gradient recording.

Values are immutable 2-D numpy arrays wrapped in :class:`Matrix`. An
operation executed inside an active :class:`Tape` context records its output,
its inputs and a backward rule. The rule maps the gradient of the output to
one gradient per input, or ``None`` for an input that needs none; it does not
know where those gradients go. A later ``tape.backward(loss)`` replays the
records in reverse and routes every gradient itself: into the tape's buffer
for an input that an earlier record produced, or into the ``grad`` of a leaf
matrix that requires it (typically the value of a :class:`Parameter`).
Outside a tape, operations are plain numpy math.

A backward rule closes over its op's inputs and forward arrays, never over
the tape. Nothing in a recorded graph points back at its tape, so a tape and
every activation it keeps are freed by reference counting as soon as the last
name for the tape goes; nothing waits on the cyclic garbage collector.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "DimensionError",
    "Matrix",
    "Parameter",
    "Tape",
    "matmul",
    "linear",
    "add",
    "sub",
    "multiply",
    "scale",
    "scalar_mul",
    "transpose",
    "slice_cols",
    "slice_rows",
    "concat_cols",
    "concat_rows",
    "relu",
    "sigmoid",
    "softmax_rows",
    "multi_head_attention",
    "l2_normalize_rows",
    "layer_norm_rows",
    "mse",
    "mean_abs_diff",
    "sequence_mean",
    "l1_of_means",
    "repeat_row",
    "cross_entropy_rows",
    "sum_all",
]

NORMALIZE_EPS = 1e-12

# A backward rule: output gradient -> one gradient (or None) per input.
Vjp = Callable[[np.ndarray], Sequence["np.ndarray | None"]]


class DimensionError(ValueError):
    """Raised when operand shapes are incompatible."""


class Matrix:
    """Immutable rows x cols float64 value, optionally tied to a tape.

    ``grad`` holds the accumulated gradient (a plain ndarray) once a backward
    pass has reached this matrix; it stays ``None`` until then.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise DimensionError(f"matrix must be 2-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix contains non-finite values")
        arr.flags.writeable = False
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool) -> "Matrix":
        # Internal fast path for freshly computed op outputs (no copy).
        out = object.__new__(cls)
        if not np.all(np.isfinite(arr)):
            raise ValueError("operation produced non-finite values")
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        arr.flags.writeable = False
        out.data = arr
        out.grad = None
        out.requires_grad = requires_grad
        return out

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(np.zeros((rows, cols)))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise DimensionError(f"item() needs a 1x1 matrix, got {self.shape}")
        return float(self.data[0, 0])

    def tolist(self) -> list[list[float]]:
        return self.data.tolist()

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


class Parameter:
    """A (possibly frozen) model weight with an accumulated gradient.

    Gradients accumulate across backward passes until :meth:`zero_grad`;
    frozen parameters never receive gradient.
    """

    def __init__(self, value, trainable: bool = True, name: str = ""):
        self.value = value if isinstance(value, Matrix) else Matrix(value)
        self.value.requires_grad = trainable
        self.trainable = trainable
        self.name = name

    @property
    def grad(self) -> Matrix:
        if self.value.grad is None:
            return Matrix.zeros(self.value.rows, self.value.cols)
        return Matrix(self.value.grad)

    def zero_grad(self) -> None:
        self.value.grad = None

    def step(self, learning_rate: float) -> None:
        """Gradient-descent update; no-op for frozen or gradient-less params."""
        if not self.trainable or self.value.grad is None:
            return
        new_value = Matrix(self.value.data - learning_rate * self.value.grad)
        new_value.requires_grad = True
        self.value = new_value

    def __repr__(self) -> str:
        tag = "trainable" if self.trainable else "frozen"
        return f"Parameter({self.name or '?'}, {self.value.rows}x{self.value.cols}, {tag})"


_ACTIVE = threading.local()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_ACTIVE, "stack", None)
    if stack is None:
        stack = []
        _ACTIVE.stack = stack
    return stack


def _active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of differentiable operations, one ``(output, inputs,
    vjp)`` entry per op.

    Execution order is a topological order, so backward replays the records
    in reverse. The tape alone decides where each gradient a rule returns
    goes: an input some record produced collects its gradient in a buffer
    that lives for one backward pass; any other input is a leaf, and adds it
    to its ``grad`` when it requires one. Repeated backward calls therefore
    accumulate additively into leaves, matching the training contract.
    """

    def __init__(self):
        self._records: list[tuple[Matrix, Sequence[Matrix], Vjp]] = []
        self._produced: set[int] = set()

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise RuntimeError("tape context exited out of order")
        stack.pop()

    def backward(self, loss: Matrix) -> None:
        """Accumulate d(loss)/d(leaf) into every reachable leaf's ``grad``."""
        if loss.shape != (1, 1):
            raise DimensionError(f"backward needs a scalar (1x1) loss, got {loss.shape}")
        produced = self._produced
        grads: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
        for out, inputs, vjp in reversed(self._records):
            # every consumer of ``out`` comes later on the tape, so its
            # gradient is complete here and the buffer can go
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for node, delta in zip(inputs, vjp(g)):
                if delta is None:
                    continue
                if id(node) in produced:
                    prev = grads.get(id(node))
                    grads[id(node)] = delta if prev is None else prev + delta
                elif node.requires_grad:
                    _leaf_accum(node, delta)
        # the seed is a leaf only when the "loss" was never produced by a
        # recorded op
        if loss.requires_grad and id(loss) not in produced:
            _leaf_accum(loss, grads[id(loss)])


def _leaf_accum(node: Matrix, delta: np.ndarray) -> None:
    # the first contribution is copied, so the leaf owns its buffer and later
    # ones can be added in place
    if node.grad is None:
        node.grad = delta.copy()
    else:
        node.grad += delta


def _emit(inputs: Sequence[Matrix], data: np.ndarray, vjp: Vjp) -> Matrix:
    """Wrap an op result; inside an active tape, record ``(out, inputs, vjp)``
    when any input requires a gradient.

    ``vjp(g)`` returns one gradient per input, in input order, or ``None`` for
    an input that needs none; the tape routes them."""
    tape = _active_tape()
    needs = tape is not None and any(m.requires_grad for m in inputs)
    out = Matrix._wrap(data, requires_grad=bool(needs))
    if needs:
        tape._records.append((out, inputs, vjp))
        tape._produced.add(id(out))
    return out


def _as_matrix(m) -> Matrix:
    return m if isinstance(m, Matrix) else Matrix(m)


# ---------------------------------------------------------------------------
# arithmetic


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product; gradients d(AB) = G @ B^T and A^T @ G."""
    a, b = _as_matrix(a), _as_matrix(b)
    if a.cols != b.rows:
        raise DimensionError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def vjp(g):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _emit((a, b), data, vjp)


def linear(x: Matrix, weight: Matrix, bias: Matrix) -> Matrix:
    """``x @ weight`` plus a 1 x cols bias row added to every row, recorded
    as one op."""
    x, weight, bias = _as_matrix(x), _as_matrix(weight), _as_matrix(bias)
    if x.cols != weight.rows:
        raise DimensionError(f"linear shape mismatch: {x.shape} @ {weight.shape}")
    if bias.shape != (1, weight.cols):
        raise DimensionError(f"bias must be 1x{weight.cols}, got {bias.shape}")
    data = x.data @ weight.data + bias.data

    def vjp(g):
        return (g @ weight.data.T if x.requires_grad else None,
                x.data.T @ g if weight.requires_grad else None,
                g.sum(axis=0, keepdims=True))

    return _emit((x, weight, bias), data, vjp)


def add(a: Matrix, b: Matrix) -> Matrix:
    a, b = _as_matrix(a), _as_matrix(b)
    if a.shape != b.shape:
        raise DimensionError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _emit((a, b), a.data + b.data, lambda g: (g, g))


def sub(a: Matrix, b: Matrix) -> Matrix:
    a, b = _as_matrix(a), _as_matrix(b)
    if a.shape != b.shape:
        raise DimensionError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    return _emit((a, b), a.data - b.data, lambda g: (g, -g))


def multiply(a: Matrix, b: Matrix) -> Matrix:
    """Element-wise (Hadamard) product."""
    a, b = _as_matrix(a), _as_matrix(b)
    if a.shape != b.shape:
        raise DimensionError(f"multiply shape mismatch: {a.shape} vs {b.shape}")
    return _emit((a, b), a.data * b.data, lambda g: (g * b.data, g * a.data))


def scale(m: Matrix, factor: float) -> Matrix:
    """Multiply by a non-differentiable constant."""
    m = _as_matrix(m)
    factor = float(factor)
    return _emit((m,), m.data * factor, lambda g: (g * factor,))


def scalar_mul(s: Matrix, m: Matrix) -> Matrix:
    """Multiply a matrix by a 1x1 node, differentiable in both."""
    s, m = _as_matrix(s), _as_matrix(m)
    if s.shape != (1, 1):
        raise DimensionError(f"scalar_mul needs a 1x1 scalar, got {s.shape}")
    sval = s.data[0, 0]

    def vjp(g):
        return np.array([[float(np.sum(g * m.data))]]), g * sval

    return _emit((s, m), m.data * sval, vjp)


def transpose(m: Matrix) -> Matrix:
    m = _as_matrix(m)
    return _emit((m,), m.data.T.copy(), lambda g: (g.T,))


def slice_cols(m: Matrix, start: int, stop: int) -> Matrix:
    m = _as_matrix(m)
    if not (0 <= start < stop <= m.cols):
        raise DimensionError(f"column slice [{start}:{stop}] out of range for {m.shape}")

    def vjp(g):
        full = np.zeros(m.shape)
        full[:, start:stop] = g
        return (full,)

    return _emit((m,), m.data[:, start:stop].copy(), vjp)


def slice_rows(m: Matrix, start: int, stop: int) -> Matrix:
    m = _as_matrix(m)
    if not (0 <= start < stop <= m.rows):
        raise DimensionError(f"row slice [{start}:{stop}] out of range for {m.shape}")

    def vjp(g):
        full = np.zeros(m.shape)
        full[start:stop, :] = g
        return (full,)

    return _emit((m,), m.data[start:stop, :].copy(), vjp)


def concat_cols(parts: Iterable[Matrix]) -> Matrix:
    parts = [_as_matrix(p) for p in parts]
    if not parts:
        raise DimensionError("concat_cols needs at least one matrix")
    rows = parts[0].rows
    if any(p.rows != rows for p in parts):
        raise DimensionError("concat_cols row mismatch")
    edges = np.cumsum([0] + [p.cols for p in parts])

    def vjp(g):
        return [g[:, lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]

    return _emit(parts, np.concatenate([p.data for p in parts], axis=1), vjp)


def concat_rows(parts: Iterable[Matrix]) -> Matrix:
    parts = [_as_matrix(p) for p in parts]
    if not parts:
        raise DimensionError("concat_rows needs at least one matrix")
    cols = parts[0].cols
    if any(p.cols != cols for p in parts):
        raise DimensionError("concat_rows column mismatch")
    edges = np.cumsum([0] + [p.rows for p in parts])

    def vjp(g):
        return [g[lo:hi, :] for lo, hi in zip(edges[:-1], edges[1:])]

    return _emit(parts, np.concatenate([p.data for p in parts], axis=0), vjp)


# ---------------------------------------------------------------------------
# nonlinearities


def relu(m: Matrix) -> Matrix:
    m = _as_matrix(m)
    mask = m.data > 0
    return _emit((m,), np.where(mask, m.data, 0.0), lambda g: (g * mask,))


def sigmoid(m: Matrix) -> Matrix:
    m = _as_matrix(m)
    data = 1.0 / (1.0 + np.exp(-m.data))
    return _emit((m,), data, lambda g: (g * data * (1.0 - data),))


def softmax_rows(m: Matrix) -> Matrix:
    """Row-wise softmax, computed with max subtraction."""
    m = _as_matrix(m)
    e = np.exp(m.data - m.data.max(axis=1, keepdims=True))
    data = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        return (data * (g - (g * data).sum(axis=1, keepdims=True)),)

    return _emit((m,), data, vjp)


def multi_head_attention(q: Matrix, k: Matrix, v: Matrix, num_heads: int) -> Matrix:
    """Scaled dot-product self-attention over ``num_heads`` column blocks,
    recorded as one op.

    Head ``i`` takes columns ``[i*d, (i+1)*d)`` of ``q``, ``k`` and ``v``
    (``d = cols / num_heads``) and computes
    ``softmax_rows(q_i @ k_i^T / sqrt(d)) @ v_i``; the heads' outputs are
    concatenated in head order. The heads run as one batched matmul, each
    head's matrices laid out as the per-head slices would be, so the result
    equals the slice/softmax/concat composition.
    """
    q, k, v = _as_matrix(q), _as_matrix(k), _as_matrix(v)
    if not q.shape == k.shape == v.shape:
        raise DimensionError(
            f"attention needs equal q/k/v shapes, got {q.shape}, {k.shape}, {v.shape}")
    n, width = q.shape
    if num_heads < 1 or width % num_heads:
        raise DimensionError(f"width {width} is not divisible by {num_heads} heads")
    head_dim = width // num_heads
    inv_scale = 1.0 / math.sqrt(head_dim)

    def heads(m: np.ndarray) -> np.ndarray:   # n x width -> heads x n x head_dim
        return m.reshape(n, num_heads, head_dim).transpose(1, 0, 2)

    def merge(m: np.ndarray) -> np.ndarray:   # heads x n x head_dim -> n x width
        # C order always: a reshape that happens to be a view can come out
        # column-major, and BLAS rounds a product differently for that layout
        return np.ascontiguousarray(m.transpose(1, 0, 2).reshape(n, width))

    qh = np.ascontiguousarray(heads(q.data))
    kt = np.ascontiguousarray(heads(k.data).transpose(0, 2, 1))
    vh = np.ascontiguousarray(heads(v.data))
    z = (qh @ kt) * inv_scale
    z = z - z.max(axis=2, keepdims=True)
    e = np.exp(z)
    attn = e / e.sum(axis=2, keepdims=True)
    data = merge(attn @ vh)

    def vjp(g):
        gh = heads(g)
        dattn = gh @ vh.transpose(0, 2, 1)
        inner = (dattn * attn).sum(axis=2, keepdims=True)
        dz = attn * (dattn - inner) * inv_scale
        return (merge(dz @ kt.transpose(0, 2, 1)),
                merge((qh.transpose(0, 2, 1) @ dz).transpose(0, 2, 1)),
                merge(attn.transpose(0, 2, 1) @ gh))

    return _emit((q, k, v), data, vjp)


def l2_normalize_rows(m: Matrix) -> Matrix:
    """Divide each row by max(||row||_2, eps); zero rows stay zero."""
    m = _as_matrix(m)
    norms = np.sqrt((m.data * m.data).sum(axis=1, keepdims=True))
    safe = np.maximum(norms, NORMALIZE_EPS)
    data = m.data / safe

    def vjp(g):
        # Degenerate rows (norm <= eps) get zero gradient: the forward
        # guard's kink, where 1/eps scaling would explode training.
        live = (norms > NORMALIZE_EPS).astype(np.float64)
        inner = (g * data).sum(axis=1, keepdims=True)
        return (live * (g - data * inner) / safe,)

    return _emit((m,), data, vjp)


def layer_norm_rows(x: Matrix, gain: Matrix, bias: Matrix, eps: float = 1e-5) -> Matrix:
    """Per-row layer normalization with 1 x cols gain and bias."""
    x, gain, bias = _as_matrix(x), _as_matrix(gain), _as_matrix(bias)
    if gain.shape != (1, x.cols) or bias.shape != (1, x.cols):
        raise DimensionError(f"layer norm gain/bias must be 1x{x.cols}")
    mu = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = xhat * gain.data + bias.data

    def vjp(g):
        dxhat = g * gain.data
        gx = inv * (dxhat
                    - dxhat.mean(axis=1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=1, keepdims=True))
        return gx, (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)

    return _emit((x, gain, bias), data, vjp)


# ---------------------------------------------------------------------------
# reductions / losses


def sum_all(m: Matrix) -> Matrix:
    m = _as_matrix(m)
    return _emit((m,), np.array([[m.data.sum()]]), lambda g: (np.full(m.shape, g[0, 0]),))


def mse(a: Matrix, b: Matrix) -> Matrix:
    """Mean over all elements of (a - b)^2, as a 1x1 node."""
    a, b = _as_matrix(a), _as_matrix(b)
    if a.shape != b.shape:
        raise DimensionError(f"mse shape mismatch: {a.shape} vs {b.shape}")
    diff = a.data - b.data
    count = diff.size

    def vjp(g):
        d = g[0, 0] * 2.0 * diff / count
        return d, -d

    return _emit((a, b), np.array([[float((diff * diff).mean())]]), vjp)


def mean_abs_diff(a: Matrix, b: Matrix) -> Matrix:
    """Mean over all elements of |a - b| (L1 loss), as a 1x1 node."""
    a, b = _as_matrix(a), _as_matrix(b)
    if a.shape != b.shape:
        raise DimensionError(f"l1 shape mismatch: {a.shape} vs {b.shape}")
    diff = a.data - b.data
    count = diff.size

    def vjp(g):
        d = g[0, 0] * np.sign(diff) / count
        return d, -d

    return _emit((a, b), np.array([[float(np.abs(diff).mean())]]), vjp)


def sequence_mean(m: Matrix) -> Matrix:
    """Column-wise mean over rows (the mean feature of a sequence), 1 x cols."""
    m = _as_matrix(m)
    rows = m.rows

    def vjp(g):
        return (np.broadcast_to(g / rows, m.shape).copy(),)

    return _emit((m,), m.data.mean(axis=0, keepdims=True), vjp)


def l1_of_means(a: Matrix, b: Matrix) -> Matrix:
    """Mean absolute difference between the two sequences' mean vectors."""
    a, b = _as_matrix(a), _as_matrix(b)
    if a.cols != b.cols:
        raise DimensionError(f"l1_of_means column mismatch: {a.cols} vs {b.cols}")
    return mean_abs_diff(sequence_mean(a), sequence_mean(b))


def repeat_row(m: Matrix, times: int) -> Matrix:
    """Stack ``times`` copies of the single row of ``m``; the gradient is the
    column-wise sum of the copies' gradients."""
    m = _as_matrix(m)
    if m.rows != 1:
        raise DimensionError(f"repeat_row needs a single row, got {m.shape}")
    if times < 1:
        raise DimensionError(f"times must be >= 1, got {times}")
    return _emit((m,), np.repeat(m.data, times, axis=0),
                 lambda g: (g.sum(axis=0, keepdims=True),))


def cross_entropy_rows(logits: Matrix, targets: Sequence[int]) -> Matrix:
    """Mean cross-entropy of row-wise softmax against integer targets."""
    logits = _as_matrix(logits)
    targets = np.asarray(list(targets), dtype=np.int64)
    if targets.shape != (logits.rows,):
        raise DimensionError(f"need {logits.rows} targets, got {targets.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= logits.cols):
        raise DimensionError("target index out of range")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    rows = np.arange(logits.rows)
    losses = -np.log(np.maximum(p[rows, targets], 1e-300))

    def vjp(g):
        d = p.copy()
        d[rows, targets] -= 1.0
        return (g[0, 0] * d / logits.rows,)

    return _emit((logits,), np.array([[float(losses.mean())]]), vjp)
