"""Student network: input projection, 3 transformer encoder layers, output
projection with a residual connection.

The inputs are per-object query vectors, an unordered set, so the encoder
uses no positional encoding; the forward pass is permutation-equivariant.
Layers are post-norm (attention -> add -> norm -> feed-forward -> add -> norm).
Each layer's multi-head attention is one ``autodiff.multi_head_attention`` op
over the query, key and value projections, and every projection one
``autodiff.linear`` op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from semtrack import autodiff as ad
from semtrack.autodiff import DimensionError, Matrix, Parameter


@dataclass(frozen=True)
class StudentConfig:
    input_dim: int = 256
    hidden_dim: int = 256
    num_layers: int = 3
    num_heads: int = 4
    ff_dim: int = 1024
    output_dim: int = 256
    # Force a learned residual projection even when input_dim == output_dim
    # (the identity shortcut is used by default in that case).
    residual_projection: bool = False

    def __post_init__(self):
        if self.num_layers != 3:
            raise ValueError(f"encoder depth is fixed at 3 layers, got {self.num_layers}")
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}")
        for name in ("input_dim", "hidden_dim", "num_heads", "ff_dim", "output_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.num_heads

    @property
    def uses_identity_residual(self) -> bool:
        return self.input_dim == self.output_dim and not self.residual_projection


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
        linear("input_proj", c.input_dim, c.hidden_dim)
        for i in range(c.num_layers):
            for proj in ("query", "key", "value", "attn_out"):
                linear(f"layer{i}.{proj}", c.hidden_dim, c.hidden_dim)
            norm(f"layer{i}.norm1", c.hidden_dim)
            linear(f"layer{i}.ff1", c.hidden_dim, c.ff_dim)
            linear(f"layer{i}.ff2", c.ff_dim, c.hidden_dim)
            norm(f"layer{i}.norm2", c.hidden_dim)
        linear("output_proj", c.hidden_dim, c.output_dim)
        if not c.uses_identity_residual:
            bound = 1.0 / math.sqrt(c.input_dim)
            self._params["residual_proj.weight"] = Parameter(
                rng.uniform(-bound, bound, size=(c.input_dim, c.output_dim)),
                name="residual_proj.weight")

    def named_parameters(self) -> dict[str, Parameter]:
        return dict(self._params)

    def parameter_count(self) -> int:
        """Exact number of trainable scalar parameters."""
        return sum(p.value.rows * p.value.cols
                   for p in self._params.values() if p.trainable)

    def _apply_linear(self, name: str, x: Matrix) -> Matrix:
        return ad.linear(x, self._params[f"{name}.weight"].value,
                         self._params[f"{name}.bias"].value)

    def _apply_norm(self, name: str, x: Matrix) -> Matrix:
        return ad.layer_norm_rows(x, self._params[f"{name}.gain"].value,
                                  self._params[f"{name}.bias"].value)

    def _attention(self, layer: int, h: Matrix) -> Matrix:
        q = self._apply_linear(f"layer{layer}.query", h)
        k = self._apply_linear(f"layer{layer}.key", h)
        v = self._apply_linear(f"layer{layer}.value", h)
        merged = ad.multi_head_attention(q, k, v, self.config.num_heads)
        return self._apply_linear(f"layer{layer}.attn_out", merged)

    def forward(self, x: Matrix) -> Matrix:
        """Encode an n x input_dim query sequence to n x output_dim features."""
        if x.cols != self.config.input_dim:
            raise DimensionError(
                f"student expects {self.config.input_dim} input columns, got {x.cols}")
        h = self._apply_linear("input_proj", x)
        for i in range(self.config.num_layers):
            h = self._apply_norm(f"layer{i}.norm1", ad.add(h, self._attention(i, h)))
            ff = self._apply_linear(
                f"layer{i}.ff2", ad.relu(self._apply_linear(f"layer{i}.ff1", h)))
            h = self._apply_norm(f"layer{i}.norm2", ad.add(h, ff))
        out = self._apply_linear("output_proj", h)
        if self.config.uses_identity_residual:
            return ad.add(out, x)
        return ad.add(out, ad.matmul(x, self._params["residual_proj.weight"].value))

    def __call__(self, x: Matrix) -> Matrix:
        return self.forward(x)
