"""Dense float matrices with reverse-mode gradient recording.

Values are immutable 2-D numpy arrays wrapped in :class:`Matrix`; every op
takes :class:`Matrix` operands, never raw arrays. One :class:`Tape` records
at a time: an operation executed while it is active records its output, its
inputs and a backward rule. The rule maps the gradient of the output to one
gradient per input, or ``None`` for an input that needs none; it does not
know where those gradients go. A gradient is a full array, except that
``take_rows`` returns only the rows it took, which the tape adds in place
into a buffer of its own. A later ``tape.backward(loss)`` replays the
records in reverse and routes every gradient itself: into the tape's buffer
for an input that an earlier record produced, or into the ``grad`` of a leaf
matrix that requires it (typically the value of a :class:`Parameter`).
Outside a tape, operations are plain numpy math.

A backward rule closes over its op's inputs and forward arrays, never over
the tape. Nothing in a recorded graph points back at its tape, so a tape and
every activation it keeps are freed by reference counting as soon as the last
name for the tape goes; nothing waits on the cyclic garbage collector.

A matrix holds float64, or float32 when it is given float32 data; every
other input becomes float64. An op's result takes numpy's type of its
inputs, so float32 stays float32 and a float32 with a float64 operand gives
float64. Only float64 is ever recorded: a tape that would record an op with
a float32 operand raises, so training and its gradients stay float64, and
float32 serves untaped inference alone.

A tracked frame runs the student on a few rows, so an op's fixed cost
weighs about as much as its arithmetic. Each op therefore makes one
finiteness scan of its result and nothing else beyond its arithmetic: a
C-ordered float result is kept without a copy, a bias row is added in
place where that keeps numpy's result type, and a leaf keeps as its
``grad`` a gradient that its rule made for it alone. :meth:`Parameter.step`
takes that buffer over: it writes the update into it and keeps it as the new
value, so a training step makes no model-sized temporary. Every result is bit
for bit the plain numpy expression's, with one exception: a float32 product
of a few rows that OpenBLAS would otherwise compute by packing all of its
weight first runs as column blocks that each stay on its small-matrix
kernel (:func:`_column_blocks`). That is about twice as fast for a tracked
frame's feed-forward products, and bit for bit the blocks' concatenation;
a 256-deep block sums as the whole product does, and a 1024-deep one in
another order, within float32 rounding of it. Float64, and so training and
every taped op, always makes the single product.

The student's two sublayer ops (:func:`attention_sublayer` and
:func:`feed_forward_sublayer`) each run a chain of private formulas and
record it as one op, so a forward pays 9 wrappings and scans, not 39. No run
records a step alone, so no op here does: the test oracles
(``tests/oracles.py``) record each formula through :func:`_emit` and compose
the reference each fused op is tested against bit for bit. A fused op scans
its result and, besides, each intermediate that a later step could turn
finite again: the inputs of the softmax's ``exp`` (the query, key and value
projections) and of a ReLU, both of which make ``-inf`` a finite 0. Every
other step carries a non-finite value through to the result, so a
non-finite value raises ``ValueError`` wherever in the chain it appears, as
a scan after each step would make it.

Every attention call labels its rows' segments, and a row attends within
its own. Each segment's rows are contiguous (a label that comes back raises
:class:`DimensionError`), so :func:`_attention` pads the segments to the
longest and attends over heads x segments x longest x longest in one batched
pass rather than over every n x n row pair, so a training scene's attention
grows with its frames times the square of its longest one, not with the
square of all its rows. A single-segment call, every tracked frame's, pads
and masks nothing.

Training's contrastive association term is one op as well
(:func:`contrastive_pairs`): a crowded scene has dozens of consecutive-frame
pairs, and as small ops each pair cost seven records, whose fixed costs
outweighed its small products.

A training step uses a second CPU in two places. In the backward rule of
every linear product that needs both gradients (:func:`_handoff`), it hands
the weight's, ``x.T @ g``, to a thread of the process's shared worker pool
(:mod:`semtrack.workers`) and makes the input's, ``g @ weight.T``, meanwhile.
The rule returns the weight's as a :class:`Future`, and the tape joins it
only when it must (:meth:`Tape.backward`), so the worker's product overlaps
the rest of the backward pass. And a taped float64 forward product of enough
rows (:func:`_splits_rows`) makes its second half of rows on a worker while
the caller makes the first (:func:`_row_halves`). Each product is the BLAS
call it would be on one thread, or its rows halves where that gives the same
bits, so every value and gradient is the serial one's bit for bit. A worker
writes into a buffer that the caller's thread allocates: a gradient that the
worker allocated came from that thread's own malloc arena, and keeping such
gradients raised a training run's peak resident memory by about 17 MB. A
product under its limit and a process that may run on one CPU only compute
inline and call no pool, and an untaped call (float32 tracking among them)
neither splits a product nor runs a backward rule, so it never reaches the
pool.
"""

from __future__ import annotations

import math
import weakref
from concurrent.futures import Future, wait
from typing import Callable, NamedTuple, Sequence

import numpy as np

from semtrack import workers as _workers

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
    "blend_rows",
    "scale",
    "slice_cols",
    "take_rows",
    "sigmoid",
    "softmax_rows",
    "l2_normalize_rows",
    "attention_sublayer",
    "feed_forward_sublayer",
    "mean_abs_diff",
    "contrastive_pairs",
    "sum_all",
]

NORMALIZE_EPS = 1e-12
LAYER_NORM_EPS = 1e-5
# OpenBLAS 0.3.31's SkylakeX-class kernels (which Sapphire Rapids runs) hand
# a float32 product with m·k·n at most this to the small-matrix kernel, which
# reads the operands in place (``sgemm_small_kernel_permit``). A larger
# product first copies all of the weight into packed panels, which at a few
# rows costs more than the arithmetic: on one BLAS thread of a 2-vCPU
# Sapphire Rapids host, a 6-row 256 x 1024 product took about 99 µs in one
# call and 53 µs as two column blocks within the limit.
SMALL_PRODUCT_LIMIT = 10**6
# the most rows a float32 product splits into such blocks: on that host the
# blocks took 0.4-0.9x the time of one call at 4-12 rows, 1.0-1.9x at 16-40
BLOCKED_MAX_ROWS = 12
# the least m·k·n of a weight gradient that a linear's rule hands to a worker
# (:func:`_handoff`). On that host, with one BLAS thread, a hop to the pool
# and back costs 27-41 µs. Handed off while the caller made the input
# gradient and then one 96 x 256 x 256 linear's backward products before the
# tape joined it, a weight gradient and its input gradient took, against the
# serial pair: 4.0-4.1x for the box head's 91 x 256 x 4 (m·k·n 9·10^4),
# 1.3-1.4x at 94 x 256 x 32 (8·10^5), 0.7-0.9x at 94 x 256 x 64
# (1.5·10^6), 0.6-0.7x for a crowded box head's 984 x 256 x 4 (10^6) and
# 0.6-0.7x for a 94 x 256 x 256 projection (6·10^6); joined before the rule
# returned, the same pairs took 6.0x, 2.4x, 1.3-1.6x, 0.9-1.2x and 0.7-0.8x.
# A narrow product runs far below the host's peak, so it gains at a smaller
# m·k·n than a wide one. The benchmark's steps make no weight gradient with
# both gradients needed between the default box head's 9·10^4 and the
# crowded one's 10^6
HANDOFF_MIN_PRODUCT = 5 * 10**5


class _Rows(NamedTuple):
    """A gradient that is zero outside some rows: ``values[i]`` adds to row
    ``index[i]``. The tape adds it into a buffer in place, so taking a few
    rows of a large matrix costs the rows taken, not the matrix."""

    index: np.ndarray
    values: np.ndarray
    # no row repeats, so one indexed add gives each element its one addition,
    # as ``np.add.at`` would, at a fraction of its cost
    increasing: bool

    def add_to(self, buffer: np.ndarray) -> None:
        if self.increasing:
            buffer[self.index] += self.values
        else:
            np.add.at(buffer, self.index, self.values)

    def zeros_plus(self, shape: tuple[int, int]) -> np.ndarray:
        """A new zero buffer of ``shape`` with this gradient added. Distinct
        rows are written, not gathered, added and scattered: ``values + 0.0``
        is bit for bit ``0.0 + values``, -0.0 becoming +0.0 as well."""
        buffer = np.zeros(shape)
        if self.increasing:
            buffer[self.index] = self.values + 0.0
        else:
            np.add.at(buffer, self.index, self.values)
        return buffer


# A backward rule: output gradient -> one gradient (or None) per input; a
# weight gradient that a worker is still making is a Future of it.
Vjp = Callable[[np.ndarray], Sequence["np.ndarray | _Rows | Future | None"]]


class DimensionError(ValueError):
    """Raised when operand shapes are incompatible."""


def _float_type(data) -> type:
    """float32 for float32 data, float64 for anything else."""
    return np.float32 if getattr(data, "dtype", None) == np.float32 else np.float64


_FLOAT32 = np.dtype(np.float32)
_FLOAT64 = np.dtype(np.float64)
_FLOAT_TYPES = (_FLOAT32, _FLOAT64)


class Matrix:
    """Immutable rows x cols float64 (or float32) value, optionally tied to a
    tape.

    ``grad`` holds the accumulated gradient (a plain ndarray) once a backward
    pass has reached this matrix; it stays ``None`` until then.
    """

    __slots__ = ("data", "grad", "requires_grad", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=_float_type(data))
        if arr.ndim != 2:
            raise DimensionError(f"matrix must be 2-D, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("matrix contains non-finite values")
        arr.flags.writeable = False
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool) -> "Matrix":
        # Internal fast path for freshly computed op outputs: one finiteness
        # scan, and a copy only of a result that is not C-ordered float32/64.
        out = object.__new__(cls)
        _require_finite(arr)
        if arr.dtype not in _FLOAT_TYPES or not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr, dtype=_float_type(arr))
        arr.flags.writeable = False
        out.data = arr
        out.grad = None
        out.requires_grad = requires_grad
        return out

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def row_block(self, rows: slice) -> "Matrix":
        """Rows ``rows`` as a constant: a view of this matrix's data, with no
        copy and no scan, as its values are known finite. Nothing records it,
        so no gradient flows back through it; :func:`take_rows` is the
        differentiable row pick."""
        out = object.__new__(Matrix)
        out.data = self.data[rows]
        out.grad = None
        out.requires_grad = False
        return out

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise DimensionError(f"item() needs a 1x1 matrix, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


class Parameter:
    """A (possibly frozen) model weight with an accumulated gradient.

    Gradients accumulate in ``value.grad`` across backward passes until
    :meth:`zero_grad` or :meth:`step`, which takes the gradient's buffer
    over as the new ``value``; frozen parameters never receive gradient.
    ``value`` is float64; :meth:`cast` gives it in float32 for inference.
    """

    def __init__(self, value, trainable: bool = True, name: str = ""):
        self.value = value if isinstance(value, Matrix) else Matrix(value)
        self.value.requires_grad = trainable
        self.trainable = trainable
        self.name = name
        # (the value it was cast from, held weakly; the float32 copy)
        self._float32: tuple[weakref.ref, Matrix] | None = None

    def cast(self, dtype) -> Matrix:
        """The value in ``dtype``: ``value`` itself for float64, else a float32
        copy, cast once per value object. A :meth:`step` or a load replaces
        ``value``, so the next call casts the new one. The copy requires a
        gradient as the value does, so a tape refuses to record it."""
        # the identity tests spare the student's many casts a dtype lookup
        if dtype is _FLOAT64 or (dtype is not _FLOAT32 and np.dtype(dtype) == _FLOAT64):
            return self.value
        if self._float32 is None or self._float32[0]() is not self.value:
            self._float32 = (weakref.ref(self.value),
                             Matrix(self.value.data.astype(np.float32),
                                    requires_grad=self.value.requires_grad))
        return self._float32[1]

    def zero_grad(self) -> None:
        self.value.grad = None

    def step(self, learning_rate: float) -> None:
        """Gradient-descent update, bit for bit ``value - learning_rate *
        grad``; no-op for frozen or gradient-less params.

        The update is written into the gradient's buffer, which becomes the
        new ``value``, so a step copies nothing; the gradient is spent and
        ``value.grad`` is ``None`` afterwards. That buffer must therefore be
        the gradient's alone, as the tape makes it: a writable float64 array
        of the value's shape that owns its memory. Anything else, or a
        non-finite learning rate, raises before anything is written. A
        non-finite update raises ``ValueError`` and leaves ``value`` as it
        was, with the spent gradient dropped.
        """
        if not math.isfinite(learning_rate):
            raise ValueError(f"{self!r}: learning rate must be finite, got {learning_rate}")
        value = self.value
        g = value.grad
        if not self.trainable or g is None:
            return
        if not isinstance(g, np.ndarray) or g.dtype != _FLOAT64:
            raise ValueError(f"{self!r}: gradient must be a float64 ndarray, "
                             f"got {getattr(g, 'dtype', type(g).__name__)}")
        if not g.flags.writeable or g.base is not None:
            raise ValueError(f"{self!r}: gradient must be writable and own its memory")
        if g.shape != value.shape:
            raise DimensionError(f"{self!r}: gradient of shape {g.shape} for a value "
                                 f"of shape {value.shape}")
        value.grad = None
        g *= learning_rate
        np.subtract(value.data, g, out=g)
        try:
            self.value = Matrix._wrap(g, requires_grad=True)
        except ValueError:
            raise ValueError(f"{self!r}: the update is not finite") from None

    def __repr__(self) -> str:
        tag = "trainable" if self.trainable else "frozen"
        return f"Parameter({self.name or '?'}, {self.value.rows}x{self.value.cols}, {tag})"


# the tape recording now, if any; only one records at a time
_active: "Tape | None" = None


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
        global _active
        if _active is not None:
            raise RuntimeError("a tape is already recording; tapes do not nest")
        _active = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _active
        _active = None

    def backward(self, loss: Matrix) -> None:
        """Accumulate d(loss)/d(leaf) into every reachable leaf's ``grad``.

        A rule may return a leaf's gradient as a :class:`Future` that a
        worker is still making (:func:`_handoff`). The pass joins it only
        when it must: before it adds a later gradient to the same leaf, so
        each leaf's additions keep the replay's order; at once for an input
        that a record produced; and, for every leaf still waiting, when the
        replay ends. If a rule or a worker raises, the pass waits for every
        future it was handed before the first error propagates, so no
        worker writes into a gradient after backward returns."""
        if loss.shape != (1, 1):
            raise DimensionError(f"backward needs a scalar (1x1) loss, got {loss.shape}")
        produced = self._produced
        grads: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
        # buffers this pass allocated: only these may be added into in place,
        # since a rule may hand one array to several inputs
        owned: set[int] = set()
        # the leaves whose latest gradient a worker is still making, and every
        # future this pass was handed
        waiting: dict[int, tuple[Matrix, Future]] = {}
        futures: list[Future] = []
        try:
            for out, inputs, vjp in reversed(self._records):
                # every consumer of ``out`` comes later on the tape, so its
                # gradient is complete here and the buffer can go
                g = grads.pop(id(out), None)
                if g is None:
                    continue
                owned.discard(id(out))
                deltas = vjp(g)
                for node, delta in zip(inputs, deltas):
                    if delta is None:
                        continue
                    key = id(node)
                    handed = isinstance(delta, Future)
                    if handed:
                        futures.append(delta)
                    if key not in produced:
                        if node.requires_grad:
                            earlier = waiting.pop(key, None)
                            if earlier is not None:
                                _leaf_accum(node, earlier[1].result(), owned=True)
                            if handed:
                                waiting[key] = (node, delta)
                            else:
                                _leaf_accum(node, delta, _made_for_one(delta, g, deltas))
                        continue
                    if handed:
                        delta = delta.result()
                    prev = grads.get(key)
                    if isinstance(delta, _Rows):
                        if prev is None:
                            prev = delta.zeros_plus(node.shape)
                        else:
                            if key not in owned:
                                prev = prev.copy()
                            delta.add_to(prev)
                        owned.add(key)
                        grads[key] = prev
                    elif prev is None:
                        grads[key] = delta
                    else:
                        grads[key] = prev + delta
                        owned.add(key)
            # a handed-off gradient is a buffer made for its leaf alone
            for node, future in waiting.values():
                _leaf_accum(node, future.result(), owned=True)
        except BaseException:
            wait(futures)
            raise
        # the seed is a leaf only when the "loss" was never produced by a
        # recorded op
        if loss.requires_grad and id(loss) not in produced:
            _leaf_accum(loss, grads[id(loss)], owned=False)


def _made_for_one(delta, g: np.ndarray, deltas: Sequence) -> bool:
    """Whether a rule made ``delta`` for one input alone: an array of its own
    (not a view, not the output gradient ``g``, which other holders may
    share) that it returned once."""
    return (isinstance(delta, np.ndarray) and delta.base is None and delta is not g
            and sum(d is delta for d in deltas) == 1)


def _leaf_accum(node: Matrix, delta: "np.ndarray | _Rows", owned: bool) -> None:
    # the leaf owns its buffer, so later contributions can be added in place:
    # its first one becomes the buffer when no one else holds it (``owned``),
    # and is copied otherwise
    if isinstance(delta, _Rows):
        if node.grad is None:
            node.grad = delta.zeros_plus(node.shape)
        else:
            delta.add_to(node.grad)
    elif node.grad is None:
        node.grad = delta if owned else delta.copy()
    else:
        node.grad += delta


def _emit(inputs: Sequence[Matrix], data: np.ndarray, vjp: Vjp) -> Matrix:
    """Wrap an op result; inside an active tape, record ``(out, inputs, vjp)``
    when any input requires a gradient.

    ``vjp(g)`` returns one gradient per input, in input order, or ``None`` for
    an input that needs none; the tape routes them. Raises ``TypeError``
    rather than record an op with a float32 input."""
    tape = _active
    needs = tape is not None and any(m.requires_grad for m in inputs)
    out = Matrix._wrap(data, requires_grad=bool(needs))
    if needs:
        if any(m.data.dtype != np.float64 for m in inputs):
            raise TypeError("a tape records float64 ops only; float32 is for "
                            "untaped inference")
        tape._records.append((out, inputs, vjp))
        tape._produced.add(id(out))
    return out


def _require_finite(*arrays: np.ndarray) -> None:
    for arr in arrays:
        # arr.all() without its Python wrapper, which costs as much as the
        # scan of a tracked frame's few rows
        if not np.logical_and.reduce(np.isfinite(arr), axis=None):
            raise ValueError("operation produced non-finite values")


def _add_row(data: np.ndarray, row: np.ndarray) -> np.ndarray:
    """``data + row`` for a fresh ``data``: in place, unless the row's float
    type is wider and numpy's sum would promote to it."""
    if data.dtype == row.dtype or data.dtype == _FLOAT64:
        data += row
        return data
    return data + row


# ---------------------------------------------------------------------------
# formulas on plain arrays, shared by the ops that record them inside one
# (and by the test oracles' ops that record one alone). Each returns the
# result and its backward rule.


def _handoff(a: np.ndarray, b: np.ndarray) -> "np.ndarray | Future":
    """The float64 product ``a @ b``, or a :class:`Future` of it that a
    worker is making.

    When the process may run on two CPUs or more
    (:func:`semtrack.workers.cpus`) and the product's m·k·n reaches
    :data:`HANDOFF_MIN_PRODUCT`, a thread of the shared pool runs it, into a
    buffer allocated here, and the caller's thread goes on with its own work
    until it asks for the result; a worker's exception re-raises then.
    Otherwise it is made inline, here. Either way it is one BLAS call on the
    same operands, so the same bits."""
    m, k = a.shape
    n = b.shape[1]
    if m * k * n < HANDOFF_MIN_PRODUCT or _workers.cpus() < 2:
        return a @ b
    out = np.empty((m, n))
    return _workers.pool().submit(np.matmul, a, b, out=out)


def _splits_rows(m: int, k: int, n: int) -> bool:
    """Whether a taped float64 product of m x k by k x n makes its rows
    ``[m//2:]`` on a worker (:func:`_row_halves`): on two CPUs or more, when
    each half has at least 2 rows and a half's m·k·n exceeds
    :data:`SMALL_PRODUCT_LIMIT`. A product split so comes out bit for bit the
    single product's; halves of one row or within the limit do not."""
    half = m // 2
    return half >= 2 and half * k * n > SMALL_PRODUCT_LIMIT and _workers.cpus() >= 2


def _row_halves(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``x @ weight`` with the rows ``[m//2:]`` made on a worker while the
    caller's thread makes the rows before them, both into one buffer the
    caller allocates."""
    half = len(x) // 2
    out = np.empty((len(x), weight.shape[1]))
    rest = _workers.pool().submit(np.matmul, x[half:], weight, out=out[half:])
    np.matmul(x[:half], weight, out=out[:half])
    rest.result()
    return out


def _check_linear(x_shape: tuple[int, int], weight: Matrix, bias: Matrix) -> None:
    if x_shape[1] != weight.rows:
        raise DimensionError(f"linear shape mismatch: {x_shape} @ {weight.shape}")
    if bias.shape != (1, weight.cols):
        raise DimensionError(f"bias must be 1x{weight.cols}, got {bias.shape}")


def _column_blocks(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``x @ weight`` as the concatenation of ``x @ weight[:, s:s + w]`` over
    equal column blocks (the last may be narrower) whose width ``w`` is a
    multiple of 16 and whose m·k·w stays within :data:`SMALL_PRODUCT_LIMIT`;
    the single product where even 16 columns would exceed it."""
    m, k = x.shape
    n = weight.shape[1]
    widest = SMALL_PRODUCT_LIMIT // (m * k) // 16 * 16
    if widest == 0:
        return x @ weight
    blocks = -(-n // widest)
    width = -(-n // (16 * blocks)) * 16   # n / blocks, rounded up to a multiple of 16
    return np.concatenate([x @ weight[:, s:s + width] for s in range(0, n, width)], axis=1)


def _linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, need_x: bool,
            need_weight: bool):
    """``x @ weight + bias``; the rule gives the gradients of x and of the
    weight (each None unless needed) and of the bias. A float32 product of at
    most :data:`BLOCKED_MAX_ROWS` rows whose m·k·n exceeds
    :data:`SMALL_PRODUCT_LIMIT` runs in :func:`_column_blocks`; a float64
    product while a tape records runs in :func:`_row_halves` where
    :func:`_splits_rows` allows.

    When both the x and the weight gradients are needed, the rule starts the
    weight's, ``x.T @ g``, through :func:`_handoff`, makes x's, ``g @
    weight.T``, and returns the weight's as it stands: on two CPUs a
    :class:`Future` that the tape joins when it needs it, so the worker's
    product overlaps the rest of the backward pass. Each is the BLAS call it
    would be alone, on the same operands, so the gradients are the serial
    rule's bit for bit. The worker writes the weight's into a buffer that
    the caller's thread allocated, so it comes from the main malloc arena,
    not a worker's; a leaf keeps that buffer as its ``grad`` and
    :meth:`Parameter.step` takes it over."""
    if x.dtype == _FLOAT32 and weight.dtype == _FLOAT32:
        if x.size * weight.shape[1] > SMALL_PRODUCT_LIMIT and len(x) <= BLOCKED_MAX_ROWS:
            product = _column_blocks(x, weight)
        else:
            product = x @ weight
    elif (_active is not None and x.dtype == _FLOAT64 and weight.dtype == _FLOAT64
            and _splits_rows(*x.shape, weight.shape[1])):
        product = _row_halves(x, weight)
    else:
        product = x @ weight
    data = _add_row(product, bias)

    def vjp(g):
        if need_x and need_weight:
            weight_grad = _handoff(x.T, g)
            return g @ weight.T, weight_grad, g.sum(axis=0, keepdims=True)
        return (g @ weight.T if need_x else None,
                x.T @ g if need_weight else None,
                g.sum(axis=0, keepdims=True))

    return data, vjp


def _relu(x: np.ndarray):
    # max(x, 0), then + 0.0 turns a -0.0 into 0.0: the bits of
    # where(x > 0, x, 0.0), without building the mask outside a tape
    data = np.maximum(x, 0.0)
    data += 0.0
    return data, lambda g: g * (x > 0)


def _attention_segments(shape: tuple[int, int], num_heads: int,
                        segments: Sequence[int]) -> np.ndarray | None:
    """Check attention's n x width operands against ``num_heads`` and
    ``segments``, one label per row; the bounds of the segments' runs of
    rows, segment ``i`` being rows ``[bounds[i], bounds[i + 1])``, or
    ``None`` when every row has one label. Each segment's rows must be
    contiguous: a label that comes back after another raises
    :class:`DimensionError`."""
    n, width = shape
    if n == 0:
        raise DimensionError("attention needs at least one row")
    if num_heads < 1 or width % num_heads:
        raise DimensionError(f"width {width} is not divisible by {num_heads} heads")
    labels = np.asarray(segments)
    if labels.shape != (n,):
        raise DimensionError(
            f"attention needs one segment label per row ({n}), got shape {labels.shape}")
    starts = np.flatnonzero(labels[1:] != labels[:-1])
    if not starts.size:
        return None
    starts += 1
    runs = labels.take(np.concatenate(([0], starts)))
    if np.unique(runs).size < runs.size:
        raise DimensionError(
            f"attention needs each segment's rows together, got labels {labels.tolist()}")
    return np.concatenate(([0], starts, [n]))


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, num_heads: int,
               bounds: np.ndarray | None):
    """Self-attention on checked arrays: head ``i``, columns ``[i*d, (i+1)*d)``
    of each, gives ``softmax_rows(q_i @ k_i^T / sqrt(d)) @ v_i`` over the rows
    of each segment in ``bounds`` (:func:`_attention_segments`, ``None``
    for one segment) on its own, and the heads are concatenated in order.
    The rule gives the gradients of q, k and v.

    The segments are padded to the longest, L rows, and every head and
    segment attends in one batched pass over heads x segments x L x L:
    a padded row copies its segment's first row, a padded key's logit is
    ``-inf``, so its weight is exactly 0, a padded row's output is dropped,
    and the gradient that reaches it is zero. With one segment nothing is
    gathered or masked: the pass is the heads' plain attention, each product
    on the same operands as a single-segment call always made."""
    n, width = q.shape
    head_dim = width // num_heads
    inv_scale = 1.0 / math.sqrt(head_dim)

    def split(m: np.ndarray) -> np.ndarray:   # n x width -> heads x n x head_dim
        return m.reshape(n, num_heads, head_dim).transpose(1, 0, 2)

    if bounds is None:
        qh = np.ascontiguousarray(split(q))
        kt = np.ascontiguousarray(split(k).transpose(0, 2, 1))
        vh = np.ascontiguousarray(split(v))

        def merge(m: np.ndarray) -> np.ndarray:   # heads x n x head_dim -> n x width
            # C order always: a reshape that happens to be a view can come out
            # column-major, and BLAS rounds a product differently for that layout
            return np.ascontiguousarray(m.transpose(1, 0, 2).reshape(n, width))
    else:
        lengths = np.diff(bounds)
        count, longest = len(lengths), int(lengths.max())
        padded = count * longest
        # padded row s·L + j holds row bounds[s] + j, or past the segment's
        # end a copy of its first row
        within = np.arange(longest) < lengths[:, None]
        first = bounds[:-1, None]
        source = np.where(within, first + np.arange(longest), first).ravel()
        slot = np.flatnonzero(within)   # the padded row of each row, in row order
        pad = np.where(within, 0.0, -np.inf).astype(q.dtype)[:, None, :]
        # each array is gathered in one copy of head_dim-wide pieces: piece
        # h·padded + p of the heads is piece source[p]·heads + h of the rows
        # (an n x width array seen as (n·heads) x head_dim), and piece
        # i·heads + h of the rows is piece h·padded + slot[i] of the heads
        gather = (source * num_heads + np.arange(num_heads)[:, None]).ravel()
        drop = (slot[:, None] + np.arange(num_heads) * padded).ravel()

        def heads(m: np.ndarray) -> np.ndarray:
            # n x width -> (heads·segments) x L x head_dim
            return (m.reshape(n * num_heads, head_dim).take(gather, axis=0)
                    .reshape(num_heads * count, longest, head_dim))

        def merge(m: np.ndarray) -> np.ndarray:
            # (heads·segments) x L x head_dim -> n x width, padded rows dropped
            return m.reshape(num_heads * padded, head_dim).take(drop, axis=0).reshape(n, width)

        # the keys stay row-major: BLAS reads them transposed in place
        qh, kt, vh = heads(q), heads(k).transpose(0, 2, 1), heads(v)

    # the logits' softmax, in place in one buffer
    attn = qh @ kt
    attn *= inv_scale
    if bounds is not None:
        logits = attn.reshape(num_heads, count, longest, longest)
        logits += pad   # -inf at every padded key
    attn -= attn.max(axis=2, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=2, keepdims=True)
    data = merge(attn @ vh)

    def vjp(g):
        if bounds is None:
            gh = split(g)
        else:
            # zero at the padded rows
            gh = np.zeros((num_heads * padded, head_dim))
            gh[drop] = g.reshape(n * num_heads, head_dim)
            gh = gh.reshape(num_heads * count, longest, head_dim)
        dattn = gh @ vh.transpose(0, 2, 1)
        inner = (dattn * attn).sum(axis=2, keepdims=True)
        dz = attn * (dattn - inner) * inv_scale
        # the keys' gradient as a single-segment call makes it; padded, as
        # the C-ordered product dz^T @ q
        gk = ((qh.transpose(0, 2, 1) @ dz).transpose(0, 2, 1) if bounds is None
              else dz.transpose(0, 2, 1) @ qh)
        return (merge(dz @ kt.transpose(0, 2, 1)), merge(gk),
                merge(attn.transpose(0, 2, 1) @ gh))

    return data, vjp


def _check_norm(width: int, gain: Matrix, bias: Matrix) -> None:
    if gain.shape != (1, width) or bias.shape != (1, width):
        raise DimensionError(f"layer norm gain/bias must be 1x{width}")


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Per-row layer normalization of ``x`` with 1 x cols ``gain`` and
    ``bias``, the variance plus :data:`LAYER_NORM_EPS`; the rule gives the
    gradients of x, the gain and the bias."""
    # numpy's mean and var, with the row mean taken once: each row sum is
    # divided by the intp column count under unsafe casting, so a float32 sum
    # is divided in float64, as np.mean and np.var divide it
    count = np.intp(x.shape[1])
    mu = x.sum(axis=1, keepdims=True)
    np.true_divide(mu, count, out=mu, casting="unsafe")
    centred = x - mu
    var = np.square(centred).sum(axis=1, keepdims=True)
    np.true_divide(var, count, out=var, casting="unsafe")
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centred * inv
    data = _add_row(xhat * gain, bias)

    def vjp(g):
        dxhat = g * gain
        gx = inv * (dxhat
                    - dxhat.mean(axis=1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=1, keepdims=True))
        return gx, (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)

    return data, vjp


def _check_residual(width: int, weight: Matrix) -> None:
    if weight.cols != width:
        raise DimensionError(
            f"the residual needs a {width}-wide projection, got {weight.shape}")


# ---------------------------------------------------------------------------
# arithmetic


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product; gradients d(AB) = G @ B^T and A^T @ G."""
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
    _check_linear(x.shape, weight, bias)
    data, vjp = _linear(x.data, weight.data, bias.data, x.requires_grad,
                        weight.requires_grad)
    return _emit((x, weight, bias), data, vjp)


def add(a: Matrix, b: Matrix) -> Matrix:
    if a.shape != b.shape:
        raise DimensionError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _emit((a, b), a.data + b.data, lambda g: (g, g))


def sub(a: Matrix, b: Matrix) -> Matrix:
    if a.shape != b.shape:
        raise DimensionError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    return _emit((a, b), a.data - b.data, lambda g: (g, -g))


def multiply(a: Matrix, b: Matrix) -> Matrix:
    """Element-wise (Hadamard) product."""
    if a.shape != b.shape:
        raise DimensionError(f"multiply shape mismatch: {a.shape} vs {b.shape}")
    return _emit((a, b), a.data * b.data, lambda g: (g * b.data, g * a.data))


def blend_rows(w: Matrix, a: Matrix, b: Matrix) -> Matrix:
    """Row-wise convex combination ``w * a + (1 - w) * b`` with one weight
    per row in the n x 1 column ``w``, recorded as one op.

    The same bits as spreading ``w`` over the columns with a product by a
    1 x cols row of ones and combining element-wise: the spread is exact,
    and ``w``'s gradient is the row sum that product's backward takes, a
    product with a column of ones (numpy's ``sum`` rounds differently)."""
    if a.shape != b.shape:
        raise DimensionError(f"blend shape mismatch: {a.shape} vs {b.shape}")
    rows, cols = a.shape
    if w.shape != (rows, 1):
        raise DimensionError(f"blend weight must be {rows}x1, got {w.shape}")
    one_minus = 1.0 - w.data
    data = w.data * a.data + one_minus * b.data

    def vjp(g):
        return ((g * a.data - g * b.data) @ np.ones((cols, 1)) if w.requires_grad else None,
                g * w.data if a.requires_grad else None,
                g * one_minus if b.requires_grad else None)

    return _emit((w, a, b), data, vjp)


def scale(m: Matrix, factor: float) -> Matrix:
    """Multiply by a non-differentiable constant."""
    factor = float(factor)
    return _emit((m,), m.data * factor, lambda g: (g * factor,))


def slice_cols(m: Matrix, start: int, stop: int) -> Matrix:
    if not (0 <= start < stop <= m.cols):
        raise DimensionError(f"column slice [{start}:{stop}] out of range for {m.shape}")

    def vjp(g):
        full = np.zeros(m.shape)
        full[:, start:stop] = g
        return (full,)

    return _emit((m,), m.data[:, start:stop].copy(), vjp)


def _row_index(m: Matrix, rows: Sequence[int], op: str) -> tuple[np.ndarray, bool]:
    """``rows`` as an index array into ``m``, checked for ``op``, and whether
    it is strictly increasing."""
    index = np.asarray(rows)
    if index.ndim != 1 or index.size == 0 or index.dtype.kind not in "iu":
        raise DimensionError(f"{op} needs a non-empty 1-D list of ints, got {rows!r}")
    if index.min() < 0 or index.max() >= m.rows:
        raise DimensionError(f"row index out of range for {m.shape}: {rows!r}")
    return index, bool((index[1:] > index[:-1]).all())


def take_rows(m: Matrix, rows: Sequence[int]) -> Matrix:
    """The rows of ``m`` at the given indices, in that order; the gradient of
    a row taken more than once is the sum of its copies' gradients."""
    index, increasing = _row_index(m, rows, "take_rows")
    return _emit((m,), m.data.take(index, axis=0), lambda g: (_Rows(index, g, increasing),))


# ---------------------------------------------------------------------------
# nonlinearities


def sigmoid(m: Matrix) -> Matrix:
    data = 1.0 / (1.0 + np.exp(-m.data))
    return _emit((m,), data, lambda g: (g * data * (1.0 - data),))


def softmax_rows(m: Matrix) -> Matrix:
    """Row-wise softmax, computed with max subtraction."""
    e = np.exp(m.data - m.data.max(axis=1, keepdims=True))
    data = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        return (data * (g - (g * data).sum(axis=1, keepdims=True)),)

    return _emit((m,), data, vjp)


def l2_normalize_rows(m: Matrix) -> Matrix:
    """Divide each row by max(||row||_2, eps); zero rows stay zero."""
    norms = np.sqrt((m.data * m.data).sum(axis=1, keepdims=True))
    safe = np.maximum(norms, NORMALIZE_EPS)
    data = m.data / safe

    def vjp(g):
        # Degenerate rows (norm <= eps) get zero gradient: the forward
        # guard's kink, where 1/eps scaling would explode training.
        # live * (g - data * inner) / safe, each step written into one buffer
        live = (norms > NORMALIZE_EPS).astype(np.float64)
        out = np.multiply(g, data)
        inner = out.sum(axis=1, keepdims=True)
        np.multiply(data, inner, out=out)
        np.subtract(g, out, out=out)
        out *= live
        out /= safe
        return (out,)

    return _emit((m,), data, vjp)


# ---------------------------------------------------------------------------
# transformer sublayers: a post-norm encoder layer's two halves, one op each


def attention_sublayer(h: Matrix, wq: Matrix, bq: Matrix, wk: Matrix, bk: Matrix,
                       wv: Matrix, bv: Matrix, wo: Matrix, bo: Matrix,
                       gain: Matrix, bias: Matrix, num_heads: int,
                       segments: Sequence[int]) -> Matrix:
    """``layer_norm_rows(h + linear(multi_head_attention(linear(h, wq, bq),
    linear(h, wk, bk), linear(h, wv, bv), num_heads, segments), wo, bo),
    gain, bias)``, recorded as one op.

    Its value and every gradient are the composition's bit for bit: each
    step runs the composed op's formula, and ``h``'s gradient adds the
    residual's share first, then the value, key and query projections'
    shares, the order in which a tape replaying the composition adds them
    when nothing later reads ``h``."""
    n, width = h.shape
    for weight, b in ((wq, bq), (wk, bk), (wv, bv)):
        _check_linear(h.shape, weight, b)
    if not wq.shape == wk.shape == wv.shape:
        raise DimensionError(f"attention needs equal q/k/v projections, "
                             f"got {wq.shape}, {wk.shape}, {wv.shape}")
    bounds = _attention_segments((n, wq.cols), num_heads, segments)
    _check_residual(width, wo)
    _check_linear((n, wq.cols), wo, bo)
    _check_norm(width, gain, bias)
    x, need_h = h.data, h.requires_grad
    q, q_rule = _linear(x, wq.data, bq.data, need_h, wq.requires_grad)
    k, k_rule = _linear(x, wk.data, bk.data, need_h, wk.requires_grad)
    v, v_rule = _linear(x, wv.data, bv.data, need_h, wv.requires_grad)
    # the softmax's exp would turn a -inf logit into a finite weight of 0
    _require_finite(q, k, v)
    merged, attention_rule = _attention(q, k, v, num_heads, bounds)
    out, out_rule = _linear(merged, wo.data, bo.data, True, wo.requires_grad)
    out += x   # the residual, as x + out: addition commutes bit for bit
    data, norm_rule = _layer_norm(out, gain.data, bias.data)

    def vjp(g):
        gs, ggain, gbias = norm_rule(g)
        gmerged, gwo, gbo = out_rule(gs)
        gq, gk, gv = attention_rule(gmerged)
        ghv, gwv, gbv = v_rule(gv)
        ghk, gwk, gbk = k_rule(gk)
        ghq, gwq, gbq = q_rule(gq)
        gh = None
        if need_h:
            gh = gs + ghv
            gh += ghk
            gh += ghq
        return gh, gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo, ggain, gbias

    return _emit((h, wq, bq, wk, bk, wv, bv, wo, bo, gain, bias), data, vjp)


def feed_forward_sublayer(h: Matrix, w1: Matrix, b1: Matrix, w2: Matrix, b2: Matrix,
                          gain: Matrix, bias: Matrix) -> Matrix:
    """``layer_norm_rows(h + linear(relu(linear(h, w1, b1)), w2, b2), gain,
    bias)``, recorded as one op; its value and every gradient are the
    composition's bit for bit, ``h``'s the residual's share plus the first
    projection's."""
    _check_linear(h.shape, w1, b1)
    _check_residual(h.cols, w2)
    _check_linear((h.rows, w1.cols), w2, b2)
    _check_norm(h.cols, gain, bias)
    x = h.data
    hidden, hidden_rule = _linear(x, w1.data, b1.data, h.requires_grad, w1.requires_grad)
    # relu would turn a -inf into a finite 0
    _require_finite(hidden)
    active, relu_rule = _relu(hidden)
    out, out_rule = _linear(active, w2.data, b2.data, True, w2.requires_grad)
    out += x   # the residual, as x + out: addition commutes bit for bit
    data, norm_rule = _layer_norm(out, gain.data, bias.data)

    def vjp(g):
        gs, ggain, gbias = norm_rule(g)
        gactive, gw2, gb2 = out_rule(gs)
        gx, gw1, gb1 = hidden_rule(relu_rule(gactive))
        return (None if gx is None else gs + gx), gw1, gb1, gw2, gb2, ggain, gbias

    return _emit((h, w1, b1, w2, b2, gain, bias), data, vjp)


# ---------------------------------------------------------------------------
# reductions / losses


def sum_all(m: Matrix) -> Matrix:
    return _emit((m,), np.array([[m.data.sum()]]), lambda g: (np.full(m.shape, g[0, 0]),))


def mean_abs_diff(a: Matrix, b: Matrix) -> Matrix:
    """Mean over all elements of |a - b| (L1 loss), as a 1x1 node."""
    if a.shape != b.shape:
        raise DimensionError(f"l1 shape mismatch: {a.shape} vs {b.shape}")
    diff = a.data - b.data
    count = diff.size

    def vjp(g):
        d = g[0, 0] * np.sign(diff) / count
        return d, -d

    return _emit((a, b), np.array([[float(np.abs(diff).mean())]]), vjp)


def _cross_entropy(logits: np.ndarray, targets: Sequence[int]):
    """The mean cross-entropy of the row-wise softmax of ``logits`` against
    integer ``targets``, as a float, and a rule from the 1 x 1 output
    gradient to the logits' gradient."""
    targets = np.asarray(list(targets), dtype=np.int64)
    rows, cols = logits.shape
    if targets.shape != (rows,):
        raise DimensionError(f"need {rows} targets, got {targets.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= cols):
        raise DimensionError("target index out of range")
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    picked = np.arange(rows)
    losses = -np.log(np.maximum(p[picked, targets], 1e-300))

    def rule(g):
        d = p.copy()
        d[picked, targets] -= 1.0
        return g[0, 0] * d / rows

    return float(losses.mean()), rule


def contrastive_pairs(m: Matrix, pairs: Sequence[tuple[Sequence[int], Sequence[int],
                                                       Sequence[int]]],
                      factor: float) -> Matrix:
    """The sum over ``(anchors, targets, candidates)`` pairs of
    ``cross_entropy_rows(scale(matmul(take_rows(m, anchors),
    transpose(take_rows(m, candidates))), factor), targets)``, recorded as one
    1 x 1 op.

    Its value and ``m``'s gradient are those of that composition with its
    terms summed by a chain of ``add``, bit for bit, because the op keeps the
    composition's orders:

    * each pair makes its own product, with the candidates' rows transposed
      into a C-ordered copy, as ``transpose`` makes them (BLAS rounds a
      product by its shape and layout);
    * the pair values are added left to right, as the ``add`` chain adds them;
    * the gradient goes through the pairs in reverse and, within a pair, adds
      the candidates' rows, then the anchors', into one zeroed buffer, as a
      tape replaying the composition adds its ``take_rows`` gradients. A leaf
      ``m`` with a gradient from an earlier pass receives that buffer in one
      addition.

    A non-finite logit raises ``ValueError``, as the composition's ``matmul``
    or ``scale`` would; an empty pair list or an empty or out-of-range row
    list, and targets that do not give one candidate per anchor, raise
    :class:`DimensionError`."""
    if not pairs:
        raise DimensionError("contrastive_pairs needs at least one pair")
    factor = float(factor)
    steps = []
    total = None
    for anchors, targets, candidates in pairs:
        anchor_rows = _row_index(m, anchors, "contrastive_pairs")
        candidate_rows = _row_index(m, candidates, "contrastive_pairs")
        a = m.data.take(anchor_rows[0], axis=0)
        ct = m.data.take(candidate_rows[0], axis=0).T.copy()
        logits = a @ ct
        logits *= factor
        _require_finite(logits)
        value, rule = _cross_entropy(logits, targets)
        total = value if total is None else total + value
        steps.append((a, ct, rule, anchor_rows, candidate_rows))

    def vjp(g):
        grad = np.zeros(m.shape)
        for a, ct, rule, anchor_rows, candidate_rows in reversed(steps):
            glogits = rule(g) * factor
            index, increasing = candidate_rows
            _Rows(index, (a.T @ glogits).T, increasing).add_to(grad)
            index, increasing = anchor_rows
            _Rows(index, glogits @ ct.T, increasing).add_to(grad)
        return (grad,)

    return _emit((m,), np.array([[total]]), vjp)
