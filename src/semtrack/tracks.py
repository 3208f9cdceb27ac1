"""Identified per-frame boxes for ground truth and predictions, with
MOTChallenge text serialization.

Boxes are (left, top, width, height) in pixels. Frames are 0-based in memory
and 1-based in files; ids are 1-based everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Sequence

import numpy as np


@dataclass(frozen=True, slots=True)
class TrackRecord:
    frame: int
    track_id: int
    box: tuple[float, float, float, float]
    confidence: float = 1.0


class TrackSet:
    """Validated collection of (frame, id, box, confidence) records: frames
    from 0 and strictly increasing within an id, so each (frame, id) once, ids
    from 1, and a finite box and confidence."""

    def __init__(self, records=()):
        self._records: list[TrackRecord] = []
        self._last_frame: dict[int, int] = {}
        for record in records:
            self.add(record)

    def add(self, record: TrackRecord) -> None:
        """Add one record: :meth:`add_frame`'s one-record case."""
        self.add_frame(record.frame, (record.track_id,), (record.box,),
                       (record.confidence,))

    def add_frame(self, frame: int, ids: Sequence[int], boxes: Sequence,
                  confidences: Sequence[float]) -> None:
        """Add frame ``frame``'s records, ``ids[i]`` with ``boxes[i]`` and
        ``confidences[i]``, in order. Each record keeps the box and confidence
        objects it is given. A block holding a record that adding the records
        one at a time would refuse adds nothing and raises that record's
        ``ValueError``."""
        if not (len(ids) == len(boxes) == len(confidences)):
            raise ValueError(f"{len(ids)} ids, {len(boxes)} boxes and "
                             f"{len(confidences)} confidences for frame {frame}")
        if not ids:
            return
        last_frame = self._last_frame
        # one pass over the block; a sum is finite only if every term is
        if (frame < 0 or min(ids) < 1 or len(set(ids)) < len(ids)
                or max(map(last_frame.get, ids, repeat(-1))) >= frame
                or set(map(len, boxes)) != {4}
                or not math.isfinite(sum(chain.from_iterable(boxes), sum(confidences)))):
            self._refuse(frame, ids, boxes, confidences)
        self._records.extend(map(TrackRecord, repeat(frame), ids, boxes, confidences))
        last_frame.update(zip(ids, repeat(frame)))

    def _refuse(self, frame: int, ids, boxes, confidences) -> None:
        """Raise the ``ValueError`` of the block's first record that adding
        the records one at a time would refuse; return if there is none (a
        sum of large finite values can overflow)."""
        earlier: set[int] = set()
        for track_id, box, confidence in zip(ids, boxes, confidences):
            last = frame if track_id in earlier else self._last_frame.get(track_id)
            if last == frame:
                raise ValueError(f"duplicate record for frame {frame}, id {track_id}")
            if frame < 0:
                raise ValueError(f"negative frame index {frame}")
            if track_id < 1:
                raise ValueError(f"track ids start at 1, got {track_id}")
            if len(box) != 4:
                raise ValueError(f"a box is (l, t, w, h), got {box!r} for frame {frame},"
                                 f" id {track_id}")
            # a non-finite record would be written as a file that read refuses
            if not (all(map(math.isfinite, box)) and math.isfinite(confidence)):
                raise ValueError(f"non-finite box or confidence for frame {frame},"
                                 f" id {track_id}")
            if last is not None and frame < last:
                raise ValueError(f"frames must be increasing within id {track_id}")
            earlier.add(track_id)

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
    al, at, aw, ah = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bl, bt, bw, bh = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    # the formula's operations in its order, each full-size one written in place
    ix = np.minimum(al + aw, bl + bw)
    ix -= np.maximum(al, bl)
    iy = np.minimum(at + ah, bt + bh)
    iy -= np.maximum(at, bt)
    # every side and both overlaps positive: then so is their minimum, which
    # a NaN among them makes NaN
    overlap = np.minimum(np.minimum(np.minimum(aw, ah), np.minimum(bw, bh)),
                         np.minimum(ix, iy)) > 0
    inter = ix * iy
    union = aw * ah + bw * bh
    union -= inter
    return np.divide(inter, union, out=np.zeros(inter.shape), where=overlap)


def iou_matrix(a, b) -> np.ndarray:
    """len(a) x len(b) IoUs of two sequences of (l, t, w, h) boxes: entry
    (i, j) equals ``box_iou(a[i], b[j])`` bit for bit, through the outer
    product of :func:`broadcast_iou`. The tracker's cost matrix and training's
    detection-to-ground-truth matching use it; the metrics score a whole
    sequence's within-frame pairs in one aligned :func:`broadcast_iou` call."""
    return broadcast_iou(np.asarray(a, dtype=np.float64).reshape(-1, 1, 4),
                         np.asarray(b, dtype=np.float64).reshape(1, -1, 4))
