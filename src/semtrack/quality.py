"""Frame-quality assessment and quality-driven feature fusion.

Quality combines three no-reference measurements on a grayscale frame in
[0, 1]: clarity (variance of the 3x3 Laplacian response), noise (Immerkaer's
fast estimate from the high-frequency residual) and contrast (pixel standard
deviation). Each raw value is min-max normalized against a configured range
and the score is q = (clarity_n + (1 - noise_n) + contrast_n) / 3, so lower q
means poorer quality.

The semantic weight is sigmoid(W*q + b) with learnable scalars; the default
init (W = -4, b = 2) already realizes "lower quality, higher semantic weight".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from semtrack import autodiff as ad
from semtrack.autodiff import DimensionError, Matrix, Parameter


@dataclass(frozen=True)
class QualityRanges:
    """Min-max normalization bounds, calibrated on the synthetic corpus."""

    clarity: tuple[float, float] = (0.0, 0.02)
    noise: tuple[float, float] = (0.0, 0.1)
    contrast: tuple[float, float] = (0.0, 0.35)

    def __post_init__(self):
        for name in ("clarity", "noise", "contrast"):
            lo, hi = getattr(self, name)
            if hi <= lo:
                raise ValueError(f"invalid {name} normalization range [{lo}, {hi}]")


@dataclass(frozen=True)
class QualityReport:
    clarity: float
    noise_sigma: float
    contrast: float
    q: float


def _normalize(value: float, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    return min(max((value - lo) / (hi - lo), 0.0), 1.0)


def assess_quality(frame: np.ndarray, ranges: QualityRanges = QualityRanges()) -> QualityReport:
    """Compute the clarity / noise / contrast report for one frame."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 2 or frame.shape[0] < 3 or frame.shape[1] < 3:
        raise ValueError(f"frame must be at least 3x3, got shape {frame.shape}")

    core = frame[1:-1, 1:-1]
    # 3x3 Laplacian [[0,1,0],[1,-4,1],[0,1,0]], valid region
    lap = (frame[:-2, 1:-1] + frame[2:, 1:-1] + frame[1:-1, :-2] + frame[1:-1, 2:]
           - 4.0 * core)
    clarity = float(lap.var())

    # Immerkaer kernel [[1,-2,1],[-2,4,-2],[1,-2,1]], valid region
    resid = (frame[:-2, :-2] - 2.0 * frame[:-2, 1:-1] + frame[:-2, 2:]
             - 2.0 * frame[1:-1, :-2] + 4.0 * core - 2.0 * frame[1:-1, 2:]
             + frame[2:, :-2] - 2.0 * frame[2:, 1:-1] + frame[2:, 2:])
    h, w = frame.shape
    noise_sigma = float(math.sqrt(math.pi / 2.0)
                        * np.abs(resid).sum() / (6.0 * (w - 2) * (h - 2)))

    contrast = float(frame.std())

    q = (_normalize(clarity, ranges.clarity)
         + (1.0 - _normalize(noise_sigma, ranges.noise))
         + _normalize(contrast, ranges.contrast)) / 3.0
    return QualityReport(clarity=clarity, noise_sigma=noise_sigma,
                         contrast=contrast, q=q)


class DswrHead:
    """Learnable scalar mapping from quality score to semantic weight."""

    def __init__(self, w_init: float = -4.0, b_init: float = 2.0):
        self.w = Parameter([[float(w_init)]], name="dswr.w")
        self.b = Parameter([[float(b_init)]], name="dswr.b")

    def parameters(self) -> list[Parameter]:
        return [self.w, self.b]

    def semantic_weight(self, q: float) -> Matrix:
        """sigmoid(W*q + b) as a differentiable 1x1 node, strictly in (0, 1)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quality score must lie in [0, 1], got {q}")
        affine = ad.add(ad.scale(self.w.value, q), self.b.value)
        return ad.sigmoid(affine)


def fuse(w: Matrix, f_semantic: Matrix, f_query: Matrix) -> Matrix:
    """Convex combination w*f_semantic + (1-w)*f_query with a shared scalar."""
    if f_semantic.shape != f_query.shape:
        raise DimensionError(
            f"fuse shape mismatch: {f_semantic.shape} vs {f_query.shape}")
    if w.shape != (1, 1):
        raise DimensionError(f"fusion weight must be 1x1, got {w.shape}")
    one_minus = ad.sub(Matrix([[1.0]]), w)
    return ad.add(ad.scalar_mul(w, f_semantic), ad.scalar_mul(one_minus, f_query))
