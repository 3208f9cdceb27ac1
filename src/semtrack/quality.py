"""Frame-quality assessment and the quality-driven fusion weight (DSWR).

Quality combines three no-reference measurements on a grayscale frame in
[0, 1]: clarity (variance of the 3x3 Laplacian response), noise (Immerkaer's
fast estimate from the high-frequency residual) and contrast (pixel standard
deviation). Each raw value is min-max normalized against a configured range
and the score is q = (clarity_n + (1 - noise_n) + contrast_n) / 3, so lower q
means poorer quality.

The semantic weight is sigmoid(W*q + b) with learnable scalars W and b, taken
row by row over a column of q values, one per query: a query gets the weight
of the frame it comes from. W and b start at -4 and 2, which already realize
"lower quality, higher semantic weight". The tracker fuses each row at its
weight with :func:`semtrack.autodiff.blend_rows`.
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
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
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


def _variance(x: np.ndarray, out: np.ndarray) -> float:
    """``x.var()`` bit for bit, numpy's sums in numpy's order, with the
    squared deviations written into ``out``, C-ordered and of ``x``'s
    shape (``x`` itself may be ``out``)."""
    mean = x.sum() / x.size
    np.subtract(x, mean, out=out)
    np.square(out, out=out)
    return float(out.sum() / x.size)


def assess_quality(frame: np.ndarray, ranges: QualityRanges = QualityRanges()) -> QualityReport:
    """Compute the clarity / noise / contrast report for one frame.

    The two 3x3 filter responses are built in place in two frame-sized
    buffers. Each kernel tap is one contiguous run of the flattened frame,
    which covers the valid region row by row and, between rows, two
    wrapped-around positions that are then dropped. Every response value is
    its plain numpy expression's, and every sum runs over a C-ordered block,
    as numpy's own do unless the frame is Fortran-ordered; so each figure is
    that expression's bit for bit on a C-ordered or strided frame. Raises
    ``ValueError`` for a frame with a non-finite pixel."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 2 or frame.shape[0] < 3 or frame.shape[1] < 3:
        raise ValueError(f"frame must be at least 3x3, got shape {frame.shape}")
    if not np.isfinite(frame).all():
        raise ValueError("frame has a non-finite pixel")
    h, w = frame.shape
    flat = np.ascontiguousarray(frame).reshape(-1)
    # output (i, j) sits at flat position i*w + j; tap (r, c) reads pixel
    # (i + r, j + c), which is r*w + c further on
    span = (h - 2) * w - 2

    def tap(r: int, c: int) -> np.ndarray:
        return flat[r * w + c:r * w + c + span]

    scratch = np.empty((2, h * w))
    resp, term = scratch[0, :span], scratch[1, :span]   # a response, a scaled tap
    valid = scratch[0, :(h - 2) * w].reshape(h - 2, w)[:, :w - 2]
    block = scratch[1, :(h - 2) * (w - 2)].reshape(h - 2, w - 2)   # valid, C-ordered

    # 3x3 Laplacian [[0,1,0],[1,-4,1],[0,1,0]]: up + down + left + right - 4 * core
    np.add(tap(0, 1), tap(2, 1), out=resp)
    resp += tap(1, 0)
    resp += tap(1, 2)
    resp -= np.multiply(tap(1, 1), 4.0, out=term)
    np.copyto(block, valid)
    clarity = _variance(block, block)

    # Immerkaer kernel [[1,-2,1],[-2,4,-2],[1,-2,1]], row by row from the top left
    np.subtract(tap(0, 0), np.multiply(tap(0, 1), 2.0, out=term), out=resp)
    resp += tap(0, 2)
    resp -= np.multiply(tap(1, 0), 2.0, out=term)
    resp += np.multiply(tap(1, 1), 4.0, out=term)
    resp -= np.multiply(tap(1, 2), 2.0, out=term)
    resp += tap(2, 0)
    resp -= np.multiply(tap(2, 1), 2.0, out=term)
    resp += tap(2, 2)
    np.copyto(block, valid)
    noise_sigma = float(math.sqrt(math.pi / 2.0)
                        * np.abs(block, out=block).sum() / (6.0 * (w - 2) * (h - 2)))

    contrast = math.sqrt(_variance(frame, scratch[0].reshape(h, w)))

    q = (_normalize(clarity, ranges.clarity)
         + (1.0 - _normalize(noise_sigma, ranges.noise))
         + _normalize(contrast, ranges.contrast)) / 3.0
    return QualityReport(clarity=clarity, noise_sigma=noise_sigma,
                         contrast=contrast, q=q)


class DswrHead:
    """Learnable scalar mapping from quality score to semantic weight."""

    def __init__(self):
        self.w = Parameter([[-4.0]], name="dswr.w")
        self.b = Parameter([[2.0]], name="dswr.b")

    def parameters(self) -> list[Parameter]:
        return [self.w, self.b]

    def semantic_weight(self, q: Matrix) -> Matrix:
        """sigmoid(W*q + b) of an n x 1 column of quality scores, as a
        differentiable n x 1 node strictly in (0, 1)."""
        if q.cols != 1:
            raise DimensionError(f"quality scores must be an n x 1 column, got {q.shape}")
        if np.any(q.data < 0.0) or np.any(q.data > 1.0):
            raise ValueError(f"quality scores must lie in [0, 1], got {q.data.ravel()}")
        return ad.sigmoid(ad.linear(q, self.w.value, self.b.value))
