"""Raster resampling for [0, 1] grayscale frames held as 2-D float arrays."""

from __future__ import annotations

import numpy as np


def resize(frame: np.ndarray, out_h: int, out_w: int, method: str = "bilinear"
           ) -> np.ndarray:
    """Resample with half-pixel-center coordinates (nearest or bilinear)."""
    frame = np.asarray(frame, dtype=np.float64)
    h, w = frame.shape
    if out_h < 1 or out_w < 1:
        raise ValueError(f"target size must be positive, got {out_h}x{out_w}")
    if (h, w) == (out_h, out_w):
        return frame.copy()
    if method not in ("nearest", "bilinear"):
        raise ValueError(f"unknown resample method {method!r}")
    r0, r1, fr = bilinear_taps(h, out_h)
    c0, c1, fc = bilinear_taps(w, out_w)
    if method == "nearest":
        # lo + frac is the clipped sample point exactly, so its nearest pixel
        return frame[np.rint(r0 + fr).astype(np.intp)][:, np.rint(c0 + fc).astype(np.intp)]
    fr = fr[:, None]
    fc = fc[None, :]
    one_minus_fc = 1 - fc
    # each row set is gathered once, and the second only after the first is
    # used: fewer frame-sized temporaries live at once
    upper = frame[r0]
    top = upper[:, c0] * one_minus_fc + upper[:, c1] * fc
    lower = frame[r1]
    bottom = lower[:, c0] * one_minus_fc + lower[:, c1] * fc
    return top * (1 - fr) + bottom * fr


def bilinear_taps(size, out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half-pixel-centre bilinear taps of ``out`` samples along one axis of
    length ``size`` (an int, or an array of lengths): the lower and upper
    source indices of each sample and the weight of the upper one, each of
    shape ``np.shape(size) + (out,)``. A sample point is clipped to
    ``[0, size - 1]``, so the weight lies in [0, 1]."""
    size = np.asarray(size, dtype=np.intp)[..., None]
    src = np.clip((np.arange(out) + 0.5) * size / out - 0.5, 0.0, size - 1.0)
    lo = np.minimum(src.astype(np.intp), np.maximum(size - 2, 0))
    return lo, np.minimum(lo + 1, size - 1), src - lo
