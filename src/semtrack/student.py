"""Student network: input projection, 3 transformer encoder layers, output
projection, and an identity shortcut from input to output.

The student reads and writes the tracker's 256-wide query features
(:data:`FEATURE_DIM`) and is :data:`NUM_LAYERS` layers deep; only the inner
widths are configurable. The inputs are per-object query vectors, an
unordered set, so the encoder uses no positional encoding; the forward pass
is permutation-equivariant. Layers are post-norm (attention -> add -> norm ->
feed-forward -> add -> norm), and each layer is two recorded ops:
``autodiff.attention_sublayer`` (the query, key and value projections,
multi-head attention, the output projection, the residual and the norm) and
``autodiff.feed_forward_sublayer`` (two projections around a ReLU, the
residual and the norm). With the input and output projections and the
shortcut, a forward is 9 ops. Each sublayer equals, bit for bit in value
and every gradient, its steps recorded one op each (the reference
compositions in ``tests/oracles.py``), and saves each step's wrapping and
scan, a fixed cost that a tracked frame's few rows feel.

The forward runs in the input's float type: a float32 input (tracking) reads
each parameter's float32 copy (:meth:`~semtrack.autodiff.Parameter.cast`),
so every step stays float32; a float64 input (training) reads the float64
values.

Attention is the only step that mixes rows, and it stays within a frame:
``segments`` labels each row with its frame, in training (a scene's frames
stacked) as in tracking (one frame's rows). A frame's rows must be
contiguous, as stacking puts them; labels that come back after another raise
:class:`~semtrack.autodiff.DimensionError`. Attention pads a stack's frames
to the longest and runs them as one batch, so a scene's attention grows with
its frames times the square of its longest one, not with the square of its
rows. Every other step is row-wise, so each frame's rows come out as the
frame would alone, to within rounding: a frame padded among others sums its
softmax over a longer row than it would alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from semtrack import autodiff as ad
from semtrack.autodiff import DimensionError, Matrix, Parameter

FEATURE_DIM = 256
NUM_LAYERS = 3

# each sublayer op's parameters, in its argument order
_ATTENTION = ("query.weight", "query.bias", "key.weight", "key.bias", "value.weight",
              "value.bias", "attn_out.weight", "attn_out.bias", "norm1.gain", "norm1.bias")
_FEED_FORWARD = ("ff1.weight", "ff1.bias", "ff2.weight", "ff2.bias", "norm2.gain",
                 "norm2.bias")
_LAYERS = [([f"layer{i}.{name}" for name in _ATTENTION],
            [f"layer{i}.{name}" for name in _FEED_FORWARD]) for i in range(NUM_LAYERS)]
_INPUT_PROJ = ("input_proj.weight", "input_proj.bias")
_OUTPUT_PROJ = ("output_proj.weight", "output_proj.bias")


@dataclass(frozen=True)
class StudentConfig:
    hidden_dim: int = 256
    num_heads: int = 4
    ff_dim: int = 1024

    def __post_init__(self):
        for name in ("hidden_dim", "num_heads", "ff_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}")


class StudentModel:
    """Query-vector encoder with named parameters and seeded init.

    Weights are drawn uniformly from [-1/sqrt(fan_in), +1/sqrt(fan_in)];
    layer-norm gains start at 1 and biases at 0.
    """

    def __init__(self, config: StudentConfig = StudentConfig(), seed: int = 0):
        self.config = config
        self._params: dict[str, Parameter] = {}
        rng = np.random.default_rng(seed)

        def linear(name: str, fan_in: int, fan_out: int) -> None:
            bound = 1.0 / math.sqrt(fan_in)
            self._params[f"{name}.weight"] = Parameter(
                rng.uniform(-bound, bound, size=(fan_in, fan_out)), name=f"{name}.weight")
            self._params[f"{name}.bias"] = Parameter(
                rng.uniform(-bound, bound, size=(1, fan_out)), name=f"{name}.bias")

        def norm(name: str, dim: int) -> None:
            self._params[f"{name}.gain"] = Parameter(np.ones((1, dim)), name=f"{name}.gain")
            self._params[f"{name}.bias"] = Parameter(np.zeros((1, dim)), name=f"{name}.bias")

        c = config
        linear("input_proj", FEATURE_DIM, c.hidden_dim)
        for i in range(NUM_LAYERS):
            for proj in ("query", "key", "value", "attn_out"):
                linear(f"layer{i}.{proj}", c.hidden_dim, c.hidden_dim)
            norm(f"layer{i}.norm1", c.hidden_dim)
            linear(f"layer{i}.ff1", c.hidden_dim, c.ff_dim)
            linear(f"layer{i}.ff2", c.ff_dim, c.hidden_dim)
            norm(f"layer{i}.norm2", c.hidden_dim)
        linear("output_proj", c.hidden_dim, FEATURE_DIM)

    def named_parameters(self) -> dict[str, Parameter]:
        return dict(self._params)

    def _cast(self, names: Sequence[str], dtype) -> list[Matrix]:
        """The parameters ``names`` in the float type ``dtype``."""
        return [self._params[name].cast(dtype) for name in names]

    def forward(self, x: Matrix, segments: Sequence[int]) -> Matrix:
        """Encode n x 256 queries to n x 256 features, each set of rows that
        ``segments`` (one label per row) labels alike on its own."""
        if x.cols != FEATURE_DIM:
            raise DimensionError(
                f"student expects {FEATURE_DIM} input columns, got {x.cols}")
        dtype = x.data.dtype
        h = ad.linear(x, *self._cast(_INPUT_PROJ, dtype))
        for attention, feed_forward in _LAYERS:
            h = ad.attention_sublayer(h, *self._cast(attention, dtype),
                                      self.config.num_heads, segments)
            h = ad.feed_forward_sublayer(h, *self._cast(feed_forward, dtype))
        return ad.add(ad.linear(h, *self._cast(_OUTPUT_PROJ, dtype)), x)
