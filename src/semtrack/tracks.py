"""Identified per-frame boxes for ground truth and predictions, with
MOTChallenge text serialization.

Boxes are (left, top, width, height) in pixels. Frames are 0-based in memory
and 1-based in files; ids are 1-based everywhere.
"""

from __future__ import annotations

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
    """Validated collection of (frame, id, box, confidence) records."""

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

    def frames(self) -> list[int]:
        return sorted({r.frame for r in self._records})

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
        out = cls()
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) < 7:
                    raise ValueError(f"{path}:{lineno}: expected >= 7 fields")
                frame = int(float(parts[0])) - 1
                track_id = int(float(parts[1]))
                box = tuple(float(v) for v in parts[2:6])
                conf = float(parts[6])
                out.add(TrackRecord(frame=frame, track_id=track_id, box=box,
                                    confidence=conf))
        return out


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


def iou_matrix(a, b) -> np.ndarray:
    """len(a) x len(b) IoUs of two sequences of (l, t, w, h) boxes: entry
    (i, j) equals ``box_iou(a[i], b[j])`` bit for bit, 0 for degenerate or
    disjoint pairs."""
    al, at, aw, ah = np.asarray(a, dtype=np.float64).reshape(-1, 4).T[:, :, None]
    bl, bt, bw, bh = np.asarray(b, dtype=np.float64).reshape(-1, 4).T[:, None, :]
    ix = np.minimum(al + aw, bl + bw) - np.maximum(al, bl)
    iy = np.minimum(at + ah, bt + bh) - np.maximum(at, bt)
    overlap = (aw > 0) & (ah > 0) & (bw > 0) & (bh > 0) & (ix > 0) & (iy > 0)
    inter = ix * iy
    return np.divide(inter, aw * ah + bw * bh - inter, out=np.zeros(inter.shape),
                     where=overlap)
