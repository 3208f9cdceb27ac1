"""Frozen 1x1024 teacher rows from a deterministic pseudo-teacher.

The paper's teacher is a frozen CLIP image encoder. No encoder weights ship
with this testbed, so a stand-in takes its place: it block-averages the frame
to 16x16, projects the 256 pooled values through a fixed seed-derived 256x1024
matrix and applies tanh. A frame's teacher row is a plain array; training
stacks a scene's rows into one constant F x 1024 matrix, which no gradient
reaches.
"""

from __future__ import annotations

import functools
import math

import numpy as np

TEACHER_DIM = 1024
_POOL = 16


@functools.lru_cache(maxsize=4)
def _projection(seed: int) -> np.ndarray:
    """The seed's fixed 256 x 1024 projection, built once and shared read-only.

    A run uses one teacher seed; the bound keeps a sweep over many seeds from
    holding 2 MB per seed for the life of the process."""
    rng = np.random.default_rng(seed)
    out = rng.standard_normal((_POOL * _POOL, TEACHER_DIM)) / math.sqrt(_POOL * _POOL)
    out.flags.writeable = False
    return out


def _block_average(frame: np.ndarray) -> np.ndarray:
    """Average-pool a frame to 16x16; every input pixel carries weight."""
    h, w = frame.shape
    # integer-repeat small frames up so no pooling block is empty
    if h < _POOL:
        frame = np.repeat(frame, -(-_POOL // h), axis=0)
        h = frame.shape[0]
    if w < _POOL:
        frame = np.repeat(frame, -(-_POOL // w), axis=1)
        w = frame.shape[1]
    row_edges = (np.arange(_POOL + 1) * h) // _POOL
    col_edges = (np.arange(_POOL + 1) * w) // _POOL
    # both sides are now >= 16, so the edges strictly increase: reduceat
    # would return a lone row or column, not an empty sum, for an empty block
    sums = np.add.reduceat(np.add.reduceat(frame, row_edges[:-1], axis=0),
                           col_edges[:-1], axis=1)
    return sums / np.outer(np.diff(row_edges), np.diff(col_edges))


def pseudo_teacher(frame: np.ndarray, seed: int) -> np.ndarray:
    """The frame's 1 x 1024 teacher row: a deterministic, content-correlated
    stand-in for a frozen image encoder."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 2 or frame.size == 0:
        raise ValueError(f"frame must be a non-empty 2-D array, got shape {frame.shape}")
    pooled = _block_average(frame).reshape(1, _POOL * _POOL)
    return np.tanh(pooled @ _projection(seed))
