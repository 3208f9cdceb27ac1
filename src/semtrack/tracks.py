"""Identified per-frame boxes for ground truth and predictions, with
MOTChallenge text serialization.

Boxes are (left, top, width, height) in pixels. Frames are 0-based in memory
and 1-based in files; ids are 1-based everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True, slots=True)
class TrackRecord:
    frame: int
    track_id: int
    box: tuple[float, float, float, float]
    confidence: float = 1.0


class TrackSet:
    """Validated collection of (frame, id, box, confidence) records: each
    (frame, id) once, frames from 0 and increasing within an id, ids from 1,
    and a finite box and confidence."""

    def __init__(self, records=()):
        self._records: list[TrackRecord] = []
        self._seen: set[tuple[int, int]] = set()
        self._last_frame: dict[int, int] = {}
        for record in records:
            self.add(record)

    def add(self, record: TrackRecord) -> None:
        key = (record.frame, record.track_id)
        if key in self._seen:
            raise ValueError(f"duplicate record for frame {record.frame},"
                             f" id {record.track_id}")
        if record.frame < 0:
            raise ValueError(f"negative frame index {record.frame}")
        if record.track_id < 1:
            raise ValueError(f"track ids start at 1, got {record.track_id}")
        # a non-finite record would be written as a file that read refuses
        l, t, w, h = record.box
        if not (math.isfinite(l) and math.isfinite(t) and math.isfinite(w)
                and math.isfinite(h) and math.isfinite(record.confidence)):
            raise ValueError(f"non-finite box or confidence for frame {record.frame},"
                             f" id {record.track_id}")
        last = self._last_frame.get(record.track_id)
        if last is not None and record.frame <= last:
            raise ValueError(f"frames must be increasing within id {record.track_id}")
        self._seen.add(key)
        self._last_frame[record.track_id] = record.frame
        self._records.append(record)

    @property
    def records(self) -> list[TrackRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def ids(self) -> list[int]:
        return sorted({r.track_id for r in self._records})

    def by_frame(self) -> dict[int, list[TrackRecord]]:
        out: dict[int, list[TrackRecord]] = {}
        for r in self._records:
            out.setdefault(r.frame, []).append(r)
        return out

    def write(self, path: str | Path) -> None:
        """MOTChallenge text: frame,id,l,t,w,h,conf,-1,-1,-1 with 1-based frames."""
        ordered = sorted(self._records, key=lambda r: (r.frame, r.track_id))
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            for r in ordered:
                l, t, w, h = r.box
                fh.write(f"{r.frame + 1},{r.track_id},{l:.2f},{t:.2f},{w:.2f},{h:.2f},"
                         f"{r.confidence:.6f},-1,-1,-1\n")

    @classmethod
    def read(cls, path: str | Path) -> "TrackSet":
        """The records of a MOTChallenge text file. A line that gives no valid
        record raises ``ValueError`` starting ``path:lineno``."""
        out = cls()
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    out.add(_parse_record(line))
                except ValueError as err:
                    raise ValueError(f"{path}:{lineno}: {err}") from None
        return out


def _parse_record(line: str) -> TrackRecord:
    """One MOTChallenge line's record, with its frame made 0-based."""
    parts = line.split(",")
    if len(parts) < 7:
        raise ValueError("expected >= 7 fields")
    values = [float(v) for v in parts[:7]]
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite field")
    if not (values[0].is_integer() and values[1].is_integer()):
        raise ValueError("frame and id must be integers")
    if values[0] < 1:
        raise ValueError(f"frames start at 1, got {parts[0]}")
    return TrackRecord(frame=int(values[0]) - 1, track_id=int(values[1]),
                       box=tuple(values[2:6]), confidence=values[6])


def box_iou(a: tuple[float, float, float, float],
            b: tuple[float, float, float, float]) -> float:
    """IoU of two (l, t, w, h) boxes; degenerate boxes score 0."""
    al, at, aw, ah = a
    bl, bt, bw, bh = b
    if aw <= 0 or ah <= 0 or bw <= 0 or bh <= 0:
        return 0.0
    ix = min(al + aw, bl + bw) - max(al, bl)
    iy = min(at + ah, bt + bh) - max(at, bt)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (aw * ah + bw * bh - inter)


def broadcast_iou(a, b) -> np.ndarray:
    """IoUs of (l, t, w, h) boxes stored along the last axis of ``a`` and
    ``b``, whose leading axes broadcast together: each entry equals
    ``box_iou`` of its two boxes bit for bit, 0 for degenerate or disjoint
    pairs. The one IoU formula of the program: :func:`iou_matrix` is its outer
    product, and aligned ``k x 4`` arrays give the IoU of each pair ``k``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    al, at, aw, ah = (a[..., k] for k in range(4))
    bl, bt, bw, bh = (b[..., k] for k in range(4))
    ix = np.minimum(al + aw, bl + bw) - np.maximum(al, bl)
    iy = np.minimum(at + ah, bt + bh) - np.maximum(at, bt)
    overlap = (aw > 0) & (ah > 0) & (bw > 0) & (bh > 0) & (ix > 0) & (iy > 0)
    inter = ix * iy
    return np.divide(inter, aw * ah + bw * bh - inter, out=np.zeros(inter.shape),
                     where=overlap)


def iou_matrix(a, b) -> np.ndarray:
    """len(a) x len(b) IoUs of two sequences of (l, t, w, h) boxes: entry
    (i, j) equals ``box_iou(a[i], b[j])`` bit for bit, through the outer
    product of :func:`broadcast_iou`. The tracker's cost matrix and training's
    detection-to-ground-truth matching use it; the metrics score a whole
    sequence's within-frame pairs in one aligned :func:`broadcast_iou` call."""
    return broadcast_iou(np.asarray(a, dtype=np.float64).reshape(-1, 1, 4),
                         np.asarray(b, dtype=np.float64).reshape(1, -1, 4))
