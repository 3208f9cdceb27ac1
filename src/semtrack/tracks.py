"""Identified per-frame boxes for ground truth and predictions, with
MOTChallenge text serialization.

Boxes are (left, top, width, height) in pixels. Frames are 0-based in memory
and 1-based in files; ids are 1-based everywhere.

A :class:`TrackSet` keeps what each :meth:`TrackSet.add_frame` call adds as
one block of columns: the frame, int64 ids, an ``n x 4`` float64 box array
and float64 confidences. Its checks run on those arrays, and the metrics,
the detector and training read the columns. A record object is built only
when one is read, from Python ints and floats (``tolist``), so a record's
``repr`` and the written file hold no numpy scalar: tracking a 16-target,
64-frame sequence adds about 1 000 records, and building an object for each
would cost about 15% of tracking, and turning them back into arrays about a
tenth of scoring.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import groupby, repeat
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, NoReturn

import numpy as np


class TrackRecord(NamedTuple):
    """One record, as :meth:`TrackSet.add` takes it and :class:`Records`
    yields it."""
    frame: int
    track_id: int
    box: tuple[float, float, float, float]
    confidence: float = 1.0


class Columns(NamedTuple):
    """Records as parallel arrays: int64 ``frames`` and ``ids``, an
    ``n x 4`` float64 ``boxes`` array and float64 ``confidences``."""
    frames: np.ndarray
    ids: np.ndarray
    boxes: np.ndarray
    confidences: np.ndarray


_EMPTY = Columns(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                 np.zeros((0, 4)), np.zeros(0))


class Records(Sequence):
    """A read-only sequence of records over :class:`Columns`. Indexing and
    iteration build each :class:`TrackRecord` when read, of Python ints and
    floats; a slice is a :class:`Records` over views of the columns. It
    equals another :class:`Records` with equal columns and a list of equal
    records, and its ``repr`` is that list's."""

    __slots__ = ("_columns",)

    def __init__(self, columns: Columns):
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns.frames)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Records(Columns(*(column[index] for column in self._columns)))
        frames, ids, boxes, confidences = self._columns
        return TrackRecord(int(frames[index]), int(ids[index]),
                           tuple(boxes[index].tolist()), float(confidences[index]))

    def __iter__(self):
        frames, ids, boxes, confidences = self._columns
        return map(TrackRecord, frames.tolist(), ids.tolist(), map(tuple, boxes.tolist()),
                   confidences.tolist())

    def __eq__(self, other):
        if isinstance(other, Records):
            return all(map(np.array_equal, self._columns, other._columns))
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))


class TrackSet:
    """Validated collection of (frame, id, box, confidence) records: frames
    from 0 and strictly increasing within an id, so each (frame, id) once, ids
    from 1, and a finite box and confidence. Frames and ids are integers."""

    def __init__(self, records=()):
        """A set of ``records``, added in order: each run of records of one
        frame as one :meth:`add_frame` block, which refuses what adding its
        records one at a time would."""
        self._blocks: list[Columns] = []
        self._count = 0
        self._last_frame: dict[int, int] = {}
        for frame, run in groupby(records, attrgetter("frame")):
            run = list(run)
            self.add_frame(frame, [r.track_id for r in run], [r.box for r in run],
                           [r.confidence for r in run])

    def add(self, record: TrackRecord) -> None:
        """Add one record: :meth:`add_frame`'s one-record case."""
        self.add_frame(record.frame, (record.track_id,), (record.box,),
                       (record.confidence,))

    def add_frame(self, frame: int, ids, boxes, confidences) -> None:
        """Add frame ``frame``'s records, ``ids[i]`` with ``boxes[i]`` and
        ``confidences[i]``, in order, as one block of copied arrays. Ids,
        boxes and confidences may be sequences or arrays (``n x 4`` boxes). A
        block holding a record that adding the records one at a time would
        refuse adds nothing and raises that record's ``ValueError``."""
        if not (len(ids) == len(boxes) == len(confidences)):
            raise ValueError(f"{len(ids)} ids, {len(boxes)} boxes and "
                             f"{len(confidences)} confidences for frame {frame}")
        if not len(ids):
            return
        if not _is_integer(frame):
            raise ValueError(f"frames must be integers, got {frame}")
        frame = int(frame)
        block = _block(frame, ids, boxes, confidences)
        listed = block.ids.tolist() if block is not None else []
        last_frame = self._last_frame
        if (block is None or frame < 0 or min(listed) < 1 or len(set(listed)) < len(listed)
                or max(map(last_frame.get, listed, repeat(-1))) >= frame):
            self._refuse(frame, ids, boxes, confidences)
        self._blocks.append(block)
        self._count += len(listed)
        last_frame.update(zip(listed, repeat(frame)))

    def _refuse(self, frame: int, ids, boxes, confidences) -> NoReturn:
        """Raise the ``ValueError`` of the block's first record that adding
        the records one at a time would refuse, or, if there is none, the
        block's: an id beyond int64, or a value numpy cannot store."""
        if isinstance(boxes, np.ndarray):
            boxes = list(map(tuple, boxes.tolist()))
        earlier: set[int] = set()
        for track_id, box, confidence in zip(_listed(ids), boxes, _listed(confidences)):
            last = frame if track_id in earlier else self._last_frame.get(track_id)
            if last == frame:
                raise ValueError(f"duplicate record for frame {frame}, id {track_id}")
            if frame < 0:
                raise ValueError(f"negative frame index {frame}")
            # an id cast to int64 would change; as written, read would refuse it
            if not _is_integer(track_id):
                raise ValueError(f"track ids must be integers, got {track_id}")
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
        raise ValueError(f"the records of frame {frame} do not fit int64 ids and "
                         f"float64 boxes and confidences")

    def columns(self) -> Columns:
        """Every record's fields as read-only :class:`Columns`, in the order
        they were added: the blocks joined once, and kept as one block."""
        if len(self._blocks) != 1:
            self._blocks = [Columns(*map(np.concatenate, zip(*self._blocks)))
                            if self._blocks else _EMPTY]
        for column in self._blocks[0]:
            column.flags.writeable = False
        return self._blocks[0]

    def frame_blocks(self) -> dict[int, Columns]:
        """Each frame's records as :class:`Columns`, in the order they were
        added, by increasing frame; a frame without records has none."""
        columns = self.columns()
        if not len(columns.frames):
            return {}
        order = np.argsort(columns.frames, kind="stable")
        frames = columns.frames.take(order)
        cuts = np.flatnonzero(np.diff(frames)) + 1
        parts = [np.split(column.take(order, axis=0), cuts) for column in columns]
        return dict(zip(frames.take(np.r_[0, cuts]).tolist(),
                        map(Columns._make, zip(*parts))))

    @property
    def records(self) -> Records:
        return Records(self.columns())

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return iter(self.records)

    def write(self, path: str | Path) -> None:
        """MOTChallenge text: frame,id,l,t,w,h,conf,-1,-1,-1 with 1-based frames."""
        columns = self.columns()
        order = np.lexsort((columns.ids, columns.frames))
        frames, ids, boxes, confidences = (column.take(order, axis=0).tolist()
                                           for column in columns)
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            for frame, track_id, (l, t, w, h), confidence in zip(frames, ids, boxes,
                                                                 confidences):
                fh.write(f"{frame + 1},{track_id},{l:.2f},{t:.2f},{w:.2f},{h:.2f},"
                         f"{confidence:.6f},-1,-1,-1\n")

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


def _is_integer(value) -> bool:
    """Whether ``value`` equals an int: ``3`` and ``3.0``, not ``1.5``, NaN
    or infinity."""
    try:
        return value == int(value)
    except (TypeError, ValueError, OverflowError):
        return False


def _listed(values):
    """An array's values as Python scalars; a sequence as it is."""
    return values.tolist() if isinstance(values, np.ndarray) else values


def _block(frame: int, ids, boxes, confidences) -> Columns | None:
    """A block's :class:`Columns`, or ``None`` unless its ids are integers
    that fit int64, its boxes are an ``n x 4`` array and every box and
    confidence is finite."""
    try:
        ids = np.array(ids)
        if ids.dtype.kind != "i":
            listed = ids.tolist()
            if ids.ndim != 1 or not all(map(_is_integer, listed)):
                return None
            ids = np.array([int(value) for value in listed])
        ids = ids.astype(np.int64, copy=False)
        boxes = np.array(boxes, dtype=np.float64)
        confidences = np.array(confidences, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    n = len(ids)
    if (ids.shape != (n,) or boxes.shape != (n, 4) or confidences.shape != (n,)
            or not (np.isfinite(boxes).all() and np.isfinite(confidences).all())):
        return None
    return Columns(np.full(n, frame, dtype=np.int64), ids, boxes, confidences)


def _parse_record(line: str) -> TrackRecord:
    """One MOTChallenge line's record, with its frame made 0-based. An
    integer frame or id is read exactly, beyond a float's 53 bits."""
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
    frame, track_id = (int(text) if text.strip().lstrip("+-").isdigit() else int(value)
                       for text, value in zip(parts[:2], values))
    return TrackRecord(frame=frame - 1, track_id=track_id,
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
