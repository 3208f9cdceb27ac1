"""Student network: input projection, 3 transformer encoder layers, output
projection, and an identity shortcut from input to output.

The student reads and writes the tracker's 256-wide query features
(:data:`FEATURE_DIM`) and is :data:`NUM_LAYERS` layers deep; only the inner
widths are configurable. The inputs are per-object query vectors, an
unordered set, so the encoder uses no positional encoding; the forward pass
is permutation-equivariant. Layers are post-norm (attention -> add -> norm ->
feed-forward -> add -> norm). Each layer's multi-head attention is one
``autodiff.multi_head_attention`` op over the query, key and value
projections, and every projection one ``autodiff.linear`` op.

The forward runs in the input's float type: a float32 input (tracking) reads
each parameter's float32 copy (:meth:`~semtrack.autodiff.Parameter.cast`),
so every step stays float32; a float64 input (training) reads the float64
values.

Attention is the only step that mixes rows, so many independent sets (the
frames of a training scene) run as one stacked call: ``segments`` labels
each row with its set, and attention stays within a set. Every other step
is row-wise, so each set's rows come out as the set would alone.
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

    def _param(self, name: str, x: Matrix) -> Matrix:
        """Parameter ``name`` in ``x``'s float type."""
        return self._params[name].cast(x.data.dtype)

    def _apply_linear(self, name: str, x: Matrix) -> Matrix:
        return ad.linear(x, self._param(f"{name}.weight", x), self._param(f"{name}.bias", x))

    def _apply_norm(self, name: str, x: Matrix) -> Matrix:
        return ad.layer_norm_rows(x, self._param(f"{name}.gain", x),
                                  self._param(f"{name}.bias", x))

    def _attention(self, layer: int, h: Matrix, segments: Sequence[int] | None) -> Matrix:
        q = self._apply_linear(f"layer{layer}.query", h)
        k = self._apply_linear(f"layer{layer}.key", h)
        v = self._apply_linear(f"layer{layer}.value", h)
        merged = ad.multi_head_attention(q, k, v, self.config.num_heads, segments)
        return self._apply_linear(f"layer{layer}.attn_out", merged)

    def forward(self, x: Matrix, segments: Sequence[int] | None = None) -> Matrix:
        """Encode an n x 256 query sequence to n x 256 features; with
        ``segments`` (one label per row), each labelled set of rows on its
        own."""
        if x.cols != FEATURE_DIM:
            raise DimensionError(
                f"student expects {FEATURE_DIM} input columns, got {x.cols}")
        h = self._apply_linear("input_proj", x)
        for i in range(NUM_LAYERS):
            attended = self._attention(i, h, segments)
            h = self._apply_norm(f"layer{i}.norm1", ad.add(h, attended))
            ff = self._apply_linear(
                f"layer{i}.ff2", ad.relu(self._apply_linear(f"layer{i}.ff1", h)))
            h = self._apply_norm(f"layer{i}.norm2", ad.add(h, ff))
        return ad.add(self._apply_linear("output_proj", h), x)

    def __call__(self, x: Matrix, segments: Sequence[int] | None = None) -> Matrix:
        return self.forward(x, segments)
