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
    src_r = (np.arange(out_h) + 0.5) * h / out_h - 0.5
    src_c = (np.arange(out_w) + 0.5) * w / out_w - 0.5
    if method == "nearest":
        rows = np.clip(np.rint(src_r).astype(np.int64), 0, h - 1)
        cols = np.clip(np.rint(src_c).astype(np.int64), 0, w - 1)
        return frame[rows][:, cols]
    if method != "bilinear":
        raise ValueError(f"unknown resample method {method!r}")
    src_r = np.clip(src_r, 0.0, h - 1.0)
    src_c = np.clip(src_c, 0.0, w - 1.0)
    r0 = np.minimum(src_r.astype(np.int64), h - 2) if h > 1 else np.zeros(out_h, np.int64)
    c0 = np.minimum(src_c.astype(np.int64), w - 2) if w > 1 else np.zeros(out_w, np.int64)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = (src_r - r0)[:, None]
    fc = (src_c - c0)[None, :]
    top = frame[r0][:, c0] * (1 - fc) + frame[r0][:, c1] * fc
    bottom = frame[r1][:, c0] * (1 - fc) + frame[r1][:, c1] * fc
    return top * (1 - fr) + bottom * fr
