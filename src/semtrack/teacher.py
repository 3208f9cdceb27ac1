"""Frozen 1x1024 teacher embeddings.

Real encoder features can be precomputed offline and ingested from a
JSON-lines file (one ``{"frame": i, "values": [...]}`` record per line), or a
deterministic pseudo-teacher can stand in: it block-averages the frame to
16x16, projects the 256 pooled values through a fixed seed-derived 256x1024
matrix and applies tanh. Teacher vectors never participate in gradient flow.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from semtrack.autodiff import Matrix

TEACHER_DIM = 1024
_POOL = 16


class TeacherFormatError(ValueError):
    """Raised for malformed or dimensionally wrong embedding records."""


@dataclass(frozen=True)
class TeacherEmbedding:
    vector: Matrix  # 1 x 1024, frozen (requires_grad stays False)
    source: str     # "file" or "pseudo"

    def __post_init__(self):
        if self.vector.shape != (1, TEACHER_DIM):
            raise TeacherFormatError(
                f"teacher embedding must be 1x{TEACHER_DIM}, got {self.vector.shape}")
        if self.vector.requires_grad:
            raise TeacherFormatError("teacher embeddings are frozen")


def load_embeddings(path: str | Path) -> dict[int, TeacherEmbedding]:
    """Read one embedding per frame index; duplicate frames are rejected."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"embedding file not found: {path}")
    out: dict[int, TeacherEmbedding] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                frame = int(record["frame"])
                values = record["values"]
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise TeacherFormatError(f"{path}:{lineno}: malformed record: {exc}") from exc
            if frame in out:
                raise TeacherFormatError(f"{path}:{lineno}: duplicate frame {frame}")
            if not isinstance(values, list) or len(values) != TEACHER_DIM:
                raise TeacherFormatError(
                    f"{path}:{lineno}: frame {frame} has dimension "
                    f"{len(values) if isinstance(values, list) else '?'}, expected {TEACHER_DIM}")
            vec = np.asarray(values, dtype=np.float64).reshape(1, TEACHER_DIM)
            out[frame] = TeacherEmbedding(vector=Matrix(vec), source="file")
    return out


def save_embeddings(embeddings: dict[int, TeacherEmbedding], path: str | Path) -> None:
    """Write embeddings as JSON lines; floats round-trip bit-exactly."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for frame in sorted(embeddings):
            values = embeddings[frame].vector.data[0].tolist()
            fh.write(json.dumps({"frame": frame, "values": values}) + "\n")


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
    pooled = np.empty((_POOL, _POOL))
    for i in range(_POOL):
        for j in range(_POOL):
            block = frame[row_edges[i]:row_edges[i + 1], col_edges[j]:col_edges[j + 1]]
            pooled[i, j] = block.mean()
    return pooled


def pseudo_teacher(frame: np.ndarray, seed: int) -> TeacherEmbedding:
    """Deterministic content-correlated stand-in for a frozen image encoder."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 2 or frame.size == 0:
        raise ValueError(f"frame must be a non-empty 2-D array, got shape {frame.shape}")
    pooled = _block_average(frame).reshape(1, _POOL * _POOL)
    vec = np.tanh(pooled @ _projection(seed))
    return TeacherEmbedding(vector=Matrix(vec), source="pseudo")
