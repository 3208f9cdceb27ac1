"""Query-propagation tracker over synthetic detections.

Each detection becomes a proposal query: a 70-value descriptor (normalized
box geometry, an 8x8 appearance patch, and the patch mean/std) mapped through
a learned embedding to 256 features. Track queries carry over from the
previous frame while their confidence stays above 0.5, and a track that can
no longer be carried is dropped. A match sets a track's confidence to its
detection's, which is at most 1; a miss multiplies it by 0.7. So a track
survives at most one missed frame (1 x 0.7^2 = 0.49), and only from a
confidence above 0.5 / 0.7 ~ 0.714. Every variant but ``baseline`` runs the
student encoder, which turns the stacked queries into semantic features that
are fused back into the queries, with a fixed ratio or (``full``) a
quality-driven one; a frame without detections runs none of this, since
nothing would read its features. The model is called as training calls it:
the sequence's whole quality column, and each query row labelled with its
frame's segment. Fused track and proposal features are associated
one-to-one per frame by Hungarian assignment on cosine-plus-IoU cost: the
cosine of the rows :func:`~semtrack.autodiff.l2_normalize_rows` gives, as
in training's contrastive term, and one track-by-detection IoU matrix.

Tracking a sequence is one step per frame, the shape of the per-frame
``update`` of SORT (Bewley et al., 2016) and ByteTrack (Zhang et al., 2022):
:func:`prepare_sequence`, then per frame :func:`queries`,
:meth:`TrackerModel.encode_queries` and :func:`associate`. The
:class:`SequenceState` between steps holds the active tracks as parallel
arrays (ids, boxes, confidences and float64 fused features), so a step
decays, matches, updates and filters them by array indexing, and
:func:`track_sequence` adds each frame's records to its
:class:`~semtrack.tracks.TrackSet` as one validated block of arrays:
:func:`associate` gives the records' track ids and detection rows, and the
boxes and confidences are gathered from the sequence's rows.

What no tracking state feeds is computed once per sequence, by
:func:`prepare_sequence`: :func:`sequence_rows` stacks the detections of the
frames that have any, with their boxes, per-row segments and every row's
descriptor (one :func:`box_descriptor` call, which works through blocks of
frames so that its temporaries stay small, wrapped in one
:class:`~semtrack.autodiff.Matrix` whose row block each frame embeds without
a copy), and one quality column covers the same frames. Training's scene
plan reads the same rows. The query embedding and the student stay per
frame: one matmul over a sequence's stacked rows rounds some row blocks
differently from the per-frame calls, so track records would change.

When tracking, the student runs in :data:`INFERENCE_DTYPE` (float32), which
halves the bytes of every weight its products read. A frame's call sees a
few rows (3-7 on the default corpus), and at that size OpenBLAS packs a
whole weight before a product unless the product is small;
:func:`~semtrack.autodiff.linear` therefore runs a float32 product of a few
rows as column blocks small enough to be read in place, which halves the
time of the feed-forward products. Training, the query embedding, the
quality-driven weight and the association costs stay float64, and the bare
tracker casts nothing. The fusion is one
:func:`~semtrack.autodiff.blend_rows` op: its float64 weight column promotes
the float32 features back to float64.

Where a tracked frame's time goes (one BLAS thread on the 2-CPU target host,
each step timed by a wrapper). For the untrained ``full`` model on the
default degraded corpus, about 1.7 ms a frame: the student's
:meth:`TrackerModel.encode_queries` takes four fifths of it,
:func:`~semtrack.quality.assess_quality` about 8%, :func:`associate` about
6%, and the descriptors, query embedding and records the rest. For
``baseline`` on the benchmark's crowded corpus (about 15 detections and 16
tracks a frame), about 0.3 ms a frame inside a benchmark run: the
sequence's descriptors about 28%, :func:`associate` about 37% (the IoU
matrix 11%, the row normalisation 10%, the Hungarian assignment 2%),
:func:`queries` 16% (the embedding 11%) and adding the records about 6%
(18 µs a frame to check and copy its block of arrays).
"""

from __future__ import annotations

import json
import math
import typing
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from semtrack import autodiff as ad
from semtrack.autodiff import Matrix, Parameter
from semtrack.distill import DcsdHead
from semtrack.frames import bilinear_taps
from semtrack.quality import DswrHead, QualityRanges, assess_quality
from semtrack.scenes import Detection, detections_by_frame
from semtrack.student import FEATURE_DIM, StudentConfig, StudentModel
# box_iou is unused here but stays bound: the benchmark's harness tests read it
from semtrack.tracks import TrackSet, box_iou, iou_matrix

PATCH = 8
DESCRIPTOR_DIM = 4 + PATCH * PATCH + 2
VARIANTS = ("baseline", "distill", "dcsd", "full")
MODEL_FORMAT = "semtrack-tracker-v2"
_TRACKER_PREFIXES = ("embed.", "box_head.")
# the keys of each object in a model file's header, with their JSON types
_HEADER_TYPES = {"format": str, "variant": str, "seed": int, "student_config": dict,
                 "params": list}
_STUDENT_TYPES = typing.get_type_hints(StudentConfig)
_ENTRY_TYPES = {"name": str, "rows": int, "cols": int, "offset": int}


# association gates, confidence thresholds and the fixed fusion weight; the
# paper tunes none of them
MATCH_GATE = 0.7
IOU_WEIGHT = 0.5
BIRTH_CONFIDENCE = 0.6
PROPAGATE_CONFIDENCE = 0.5          # strictly-greater propagation threshold
MISS_DECAY = 0.7
FIXED_FUSION_WEIGHT = 0.5           # used when the student runs without DSWR
# the float type of the queries a tracked student reads
INFERENCE_DTYPE = np.float32
# the most boxes whose descriptors one block computes. A block's temporaries,
# about 4 KB a box, then stay small enough that the allocator keeps and reuses
# their memory from block to block; with a crowded sequence's thousand boxes
# in one block (about 7 MB), it handed the memory back after each sequence,
# and faulting it in again cost more than the arithmetic (13 600 page faults
# a pass of the track-crowded corpus, against about 120)
DESCRIPTOR_BLOCK_BOXES = 128


def box_descriptor(frames: Sequence[np.ndarray], boxes_per_frame: Sequence) -> np.ndarray:
    """Every box's 70-value proposal descriptor, stacked in frame order:
    geometry, an 8x8 bilinear patch of the box's pixel crop, and the patch
    mean/std. ``boxes_per_frame[f]`` holds frame ``f``'s (l, t, w, h) boxes
    (one box may be given bare); a sequence without boxes gives 0 x 70.

    Equal bit for bit to cropping each box and calling
    ``frames.resize(crop, 8, 8)``. The frames share one shape, so the crop
    bounds, sample taps, interpolation, mean/std and geometry are computed
    for many boxes at once: for each block of consecutive frames holding at
    most :data:`DESCRIPTOR_BLOCK_BOXES` boxes (a frame with more is a block
    alone), with one gather of each frame's sample points. The mean and std
    sum in the order ``resize``'s result is laid out: by columns, except for
    a crop of exactly 8x8, which ``resize`` copies row by row.
    """
    if len(frames) != len(boxes_per_frame):
        raise ValueError(f"{len(frames)} frames but boxes for {len(boxes_per_frame)}")
    per_frame = [np.asarray(b, dtype=np.float64).reshape(-1, 4) for b in boxes_per_frame]
    counts = [len(b) for b in per_frame]
    if not any(counts):
        return np.zeros((0, DESCRIPTOR_DIM))
    out = np.empty((sum(counts), DESCRIPTOR_DIM))
    shape = np.shape(frames[0])
    first = row = size = 0
    # a sentinel count past the limit closes the last block
    for f, count in enumerate(counts + [DESCRIPTOR_BLOCK_BOXES + 1]):
        if size and size + count > DESCRIPTOR_BLOCK_BOXES:
            out[row:row + size] = _descriptor_block(frames[first:f], per_frame[first:f], shape)
            first, row, size = f, row + size, 0
        size += count
    return out


def _descriptor_block(frames: Sequence[np.ndarray], per_frame: list[np.ndarray],
                      shape: tuple[int, int]) -> np.ndarray:
    """:func:`box_descriptor` of frames that hold at least one box between
    them, each a ``height x width`` frame with its ``k x 4`` boxes."""
    counts = [len(b) for b in per_frame]
    boxes = np.concatenate(per_frame)
    height, width = shape
    l, t, w, h = boxes.T
    # pixel crop [top, bottom) x [left, right) of each box, at least 1x1
    left = np.clip(np.floor(l), 0, width - 1).astype(np.intp)
    top = np.clip(np.floor(t), 0, height - 1).astype(np.intp)
    right = np.minimum(np.maximum(np.ceil(l + w).astype(np.intp), left + 1), width)
    bottom = np.minimum(np.maximum(np.ceil(t + h).astype(np.intp), top + 1), height)
    r0, r1, fr = bilinear_taps(bottom - top, PATCH)
    c0, c1, fc = bilinear_taps(right - left, PATCH)
    # corners[:, i, j] is the crop's pixel at rows (r0, r1)[i], columns (c0, c1)[j]
    rows = (top[:, None, None] + np.stack([r0, r1], axis=1))[:, :, None, :, None]
    cols = (left[:, None, None] + np.stack([c0, c1], axis=1))[:, None, :, None, :]
    index = rows * width + cols
    corners = np.empty(index.shape)
    end = 0
    for frame, count in zip(frames, counts):
        if count:
            frame = np.asarray(frame)
            if frame.shape != (height, width):
                raise ValueError(f"frame of shape {frame.shape} in a sequence of "
                                 f"{(height, width)} frames")
            start, end = end, end + count
            corners[start:end] = frame.reshape(-1).take(index[start:end])
    fc = fc[:, None, :]
    upper = corners[:, 0, 0] * (1 - fc) + corners[:, 0, 1] * fc
    lower = corners[:, 1, 0] * (1 - fc) + corners[:, 1, 1] * fc
    patch = upper * (1 - fr[:, :, None]) + lower * fr[:, :, None]
    square = (bottom - top == PATCH) & (right - left == PATCH)
    in_sum_order = np.where(square[:, None], patch.reshape(-1, PATCH * PATCH),
                            patch.transpose(0, 2, 1).reshape(-1, PATCH * PATCH))
    geometry = np.stack([l / width, t / height, w / width, h / height], axis=1)
    return np.concatenate([geometry, patch.reshape(-1, PATCH * PATCH),
                           in_sum_order.mean(axis=1, keepdims=True),
                           in_sum_order.std(axis=1, keepdims=True)], axis=1)


class SequenceRows(NamedTuple):
    """A sequence's detections stacked as rows, the one layout that tracking
    and training read. Segment ``k`` is the ``k``-th frame with detections:
    frame ``frame_ids[k]``, that is ``frames[k]``, whose ``detections[k]``
    (in input order) are rows ``starts[k]`` to ``starts[k + 1]``. Each row
    has its segment in ``segments``, its (l, t, w, h) box in ``boxes`` and
    its proposal descriptor in ``descriptors``."""

    frame_ids: list[int]
    frames: list[np.ndarray]
    detections: list[list[Detection]]
    starts: np.ndarray
    segments: np.ndarray
    boxes: np.ndarray
    descriptors: Matrix


def sequence_rows(frames: Sequence[np.ndarray], detections: Sequence[Detection]
                  ) -> SequenceRows:
    """The :class:`SequenceRows` of ``detections`` over ``frames``, with every
    descriptor from one :func:`box_descriptor` call; raises ``ValueError``
    for a detection outside the sequence."""
    per_frame = detections_by_frame(detections, len(frames))
    frame_ids = sorted(per_frame)
    dets = [per_frame[f] for f in frame_ids]
    counts = [len(frame_dets) for frame_dets in dets]
    starts = np.cumsum([0] + counts)
    boxes = np.array([det.box for frame_dets in dets for det in frame_dets],
                     dtype=np.float64).reshape(-1, 4)
    kept = [frames[f] for f in frame_ids]
    descriptors = box_descriptor(kept, [boxes[a:b] for a, b in zip(starts[:-1], starts[1:])])
    return SequenceRows(frame_ids, kept, dets, starts,
                        np.repeat(np.arange(len(frame_ids)), counts), boxes,
                        Matrix(descriptors))


class TrackerModel:
    """Learnable tracker pieces of one variant of the ablation ladder:

    * ``baseline``: query embedding and box head only.
    * ``distill``: adds the student and the distillation head, with the
      loss-weight logits frozen at 0.5/0.5, and fuses at a fixed weight.
    * ``dcsd``: the same with the loss-weight logits trainable.
    * ``full``: adds the quality-driven fusion head (DSWR).
    """

    def __init__(self, variant: str = "full",
                 student_config: StudentConfig = StudentConfig(), seed: int = 0):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        rng = np.random.default_rng(seed)
        bound = 1.0 / math.sqrt(DESCRIPTOR_DIM)
        self.embed_weight = Parameter(
            rng.uniform(-bound, bound, (DESCRIPTOR_DIM, FEATURE_DIM)),
            name="embed.weight")
        self.embed_bias = Parameter(rng.uniform(-bound, bound, (1, FEATURE_DIM)),
                                    name="embed.bias")
        bound = 1.0 / math.sqrt(FEATURE_DIM)
        self.box_weight = Parameter(rng.uniform(-bound, bound, (FEATURE_DIM, 4)),
                                    name="box_head.weight")
        self.box_bias = Parameter(rng.uniform(-bound, bound, (1, 4)),
                                  name="box_head.bias")
        with_student = variant != "baseline"
        self.student = StudentModel(student_config, seed=seed + 1) if with_student else None
        self.dcsd = (DcsdHead(seed=seed + 2, train_loss_weights=variant != "distill")
                     if with_student else None)
        self.dswr = DswrHead() if variant == "full" else None
        self.variant = variant
        self.student_config = student_config
        self.seed = seed

    # -- the parameter tree; every other view of the parameters derives from it --

    def named_parameters(self) -> dict[str, Parameter]:
        """Every parameter, keyed by the name the model file stores it under."""
        named = {"embed.weight": self.embed_weight, "embed.bias": self.embed_bias,
                 "box_head.weight": self.box_weight, "box_head.bias": self.box_bias}
        if self.student is not None:
            named.update((f"student.{name}", p)
                         for name, p in self.student.named_parameters().items())
        for head in (self.dcsd, self.dswr):
            if head is not None:
                named.update((p.name, p) for p in head.parameters())
        return named

    def parameters(self) -> list[Parameter]:
        return list(self.named_parameters().values())

    def zero_grads(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def step(self, learning_rate: float) -> None:
        for p in self.parameters():
            p.step(learning_rate)

    def tracker_parameter_count(self) -> int:
        """Scalars of the bare tracker: query embedding and box head."""
        return sum(p.value.rows * p.value.cols
                   for name, p in self.named_parameters().items()
                   if name.startswith(_TRACKER_PREFIXES))

    def added_parameter_count(self) -> int:
        """Trainable scalars added by the student, distillation head and DSWR."""
        return sum(p.value.rows * p.value.cols
                   for name, p in self.named_parameters().items()
                   if p.trainable and not name.startswith(_TRACKER_PREFIXES))

    # -- differentiable building blocks (shared by inference and training) --

    def embed_descriptors(self, descriptors: Matrix) -> Matrix:
        return ad.linear(descriptors, self.embed_weight.value, self.embed_bias.value)

    def quality_column(self, frames: Sequence[np.ndarray], ranges: QualityRanges
                       ) -> np.ndarray | None:
        """F x 1 column of the frames' quality scores q, the input of DSWR's
        fusion weight; ``None`` for a model without DSWR, which fuses at a
        fixed weight and reads no quality. The one place frames are assessed."""
        if self.dswr is None:
            return None
        return np.array([[assess_quality(frame, ranges).q] for frame in frames])

    def fusion_weight(self, quality: np.ndarray | None, segments: np.ndarray) -> Matrix:
        """n x 1 fusion weight: row ``i`` gets frame ``segments[i]``'s, from
        that row of the :meth:`quality_column` (DSWR) or fixed."""
        if self.dswr is not None:
            return self.dswr.semantic_weight(Matrix(quality[segments]))
        return Matrix(np.full((len(segments), 1), FIXED_FUSION_WEIGHT))

    def encode_queries(self, x: Matrix, quality: np.ndarray | None,
                       segments: np.ndarray) -> tuple[Matrix, Matrix | None]:
        """Queries -> (fused features, the student's semantic features).

        Row ``i`` of ``x`` comes from frame ``segments[i]``, and ``quality``
        is the frames' :meth:`quality_column`. The student attends within a
        frame only, and each row is fused at its frame's weight. The bare
        tracker returns ``(x, None)``. Training feeds the semantic features to
        the distillation loss, so the student runs once per scene.
        """
        if self.student is None:
            return x, None
        semantic = self.student.forward(x, segments)
        return ad.blend_rows(self.fusion_weight(quality, segments), semantic, x), semantic

    def predict_boxes(self, features: Matrix) -> Matrix:
        return ad.linear(features, self.box_weight.value, self.box_bias.value)

    # -- persistence --

    def save(self, path: str | Path) -> None:
        """Write a ``semtrack-tracker-v2`` file: one sorted-key JSON header
        line (variant, seed, student config, and each parameter's name, shape
        and byte offset), then every parameter as a little-endian float64
        blob, in name order with no gaps. :meth:`load` accepts only that
        layout."""
        named = self.named_parameters()
        entries = []
        blobs = []
        offset = 0
        for name in sorted(named):
            value = named[name].value
            blobs.append(np.ascontiguousarray(value.data, dtype="<f8").tobytes())
            entries.append({"name": name, "rows": value.rows, "cols": value.cols,
                            "offset": offset})
            offset += len(blobs[-1])
        header = {
            "format": MODEL_FORMAT,
            "variant": self.variant,
            "seed": self.seed,
            "student_config": asdict(self.student_config),
            "params": entries,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            fh.write(b"".join(blobs))

    @classmethod
    def load(cls, path: str | Path) -> "TrackerModel":
        """Rebuild the model a :meth:`save` file describes and copy the stored
        values into its parameters, each keeping its ``trainable`` flag.

        Strict: raises ``ValueError`` unless the header line names the
        ``semtrack-tracker-v2`` format and a known variant, it and each of its
        objects hold exactly the keys :meth:`save` writes, each with a value
        of the JSON type :meth:`save` gives it, its entries name exactly the
        parameters of the rebuilt model, each once, with their shapes, and the
        blobs follow one another in name order and end where the file ends.
        """
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode("utf-8"), object_pairs_hook=unique_keys)
            blob = fh.read()
        if not isinstance(header, dict) or header.get("format") != MODEL_FORMAT:
            raise ValueError(f"{path}: not a {MODEL_FORMAT} model file")
        _require_fields(path, "header", header, _HEADER_TYPES)
        _require_fields(path, "student_config", header["student_config"], _STUDENT_TYPES)
        for entry in header["params"]:
            _require_fields(path, "parameter entry", entry, _ENTRY_TYPES)
        model = cls(header["variant"], StudentConfig(**header["student_config"]),
                    header["seed"])
        named = model.named_parameters()
        listed = Counter(entry["name"] for entry in header["params"])
        repeated = sorted(name for name, count in listed.items() if count > 1)
        if repeated:
            raise ValueError(f"{path}: parameters listed more than once: {repeated}")
        entries = {entry["name"]: entry for entry in header["params"]}
        missing = sorted(named.keys() - entries.keys())
        extra = sorted(entries.keys() - named.keys())
        if missing or extra:
            raise ValueError(f"{path}: missing parameters {missing}, "
                             f"unknown parameters {extra}")
        end = 0
        for name in sorted(named):
            p, entry = named[name], entries[name]
            shape = (entry["rows"], entry["cols"])
            if shape != p.value.shape:
                raise ValueError(f"{path}: parameter {name!r} is {shape}, "
                                 f"the model needs {p.value.shape}")
            if entry["offset"] != end:
                raise ValueError(f"{path}: parameter {name!r} starts at byte "
                                 f"{entry['offset']}, expected {end}")
            values = np.frombuffer(blob, dtype="<f8", count=shape[0] * shape[1],
                                   offset=end)
            p.value = Matrix(values.reshape(shape), requires_grad=p.trainable)
            end += values.nbytes
        if end != len(blob):
            raise ValueError(f"{path}: {len(blob) - end} bytes after the last parameter")
        return model


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's ``(key, value)`` pairs as a dict, for ``json.loads``'s
    ``object_pairs_hook``: a ``ValueError`` names a key the object repeats,
    which plain ``json.loads`` would let the last value win."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated JSON key {key!r}")
        obj[key] = value
    return obj


def _require_fields(path, where: str, raw, types: dict[str, type]) -> None:
    """Raise ``ValueError`` unless ``raw`` is an object with exactly the keys
    of ``types``, each holding a value of its type (a bool is no int)."""
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: {where} is not an object")
    missing, unknown = sorted(types.keys() - raw.keys()), sorted(raw.keys() - types.keys())
    if missing or unknown:
        raise ValueError(f"{path}: {where} is missing keys {missing}, "
                         f"has unknown keys {unknown}")
    for key, kind in types.items():
        value = raw[key]
        if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
            raise ValueError(f"{path}: {where} key {key!r} must be {kind.__name__}, "
                             f"got {value!r}")


# a step's records when it has none: no ids and no detection rows
_NO_RECORDS = np.zeros(0, dtype=np.int64)
_NO_RECORDS.flags.writeable = False


@dataclass(slots=True)
class SequenceState:
    """What tracking one sequence carries from frame to frame: its
    :class:`SequenceRows`, quality column and model, each detection row's
    confidence, the next track id, the next frame to step and, as parallel
    arrays in birth order, the active tracks: those carried into that frame.
    Track ``i`` has id ``ids[i]``, (l, t, w, h) box ``boxes[i]``, confidence
    ``confidences[i]`` and fused feature ``features[i]``."""

    rows: SequenceRows
    quality: np.ndarray | None
    model: TrackerModel
    detection_confidences: np.ndarray
    next_id: int = 1
    frame: int = 0
    ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    boxes: np.ndarray = field(default_factory=lambda: np.zeros((0, 4)))
    confidences: np.ndarray = field(default_factory=lambda: np.zeros(0))
    features: np.ndarray = field(default_factory=lambda: np.zeros((0, FEATURE_DIM)))


def prepare_sequence(frames: Sequence[np.ndarray], detections: Sequence[Detection],
                     model: TrackerModel, quality_ranges: QualityRanges) -> SequenceState:
    """A sequence's :class:`SequenceState` before its first frame, with no
    active track."""
    rows = sequence_rows(frames, detections)
    return SequenceState(rows, model.quality_column(rows.frames, quality_ranges), model,
                         np.array([det.confidence for dets in rows.detections
                                   for det in dets]))


def queries(state: SequenceState, segment: int) -> Matrix:
    """Segment ``segment``'s query rows: the active tracks' features, then
    the embedding of each of its detections; in :data:`INFERENCE_DTYPE` for
    a model with a student."""
    rows = state.rows
    block = rows.descriptors.row_block(slice(rows.starts[segment], rows.starts[segment + 1]))
    stacked = np.concatenate([state.features, state.model.embed_descriptors(block).data])
    if state.model.student is not None:
        stacked = stacked.astype(INFERENCE_DTYPE)
    return Matrix(stacked)


def associate(state: SequenceState, frame_index: int, segment: int | None,
              fused: Matrix | None) -> tuple[np.ndarray, np.ndarray]:
    """Step ``state`` through frame ``frame_index``, whose detections are
    segment ``segment`` (``None`` for a frame without any) and whose
    :func:`queries` the model encoded as ``fused``.

    Every track's confidence decays by ``MISS_DECAY``. Tracks and detections
    are matched one-to-one by Hungarian assignment on cosine-plus-IoU cost
    within ``MATCH_GATE``; a match takes its detection's box, confidence and
    fused feature. Each other detection of at least ``BIRTH_CONFIDENCE``
    starts a track, in detection order. Only tracks above
    ``PROPAGATE_CONFIDENCE`` stay active. Returns the frame's records as
    int64 arrays of track ids and of their detections' rows in
    ``state.rows``: the matches in track order, then the births. Raises
    ``ValueError`` unless ``frame_index`` is the state's next frame, since
    each step is one frame's decay."""
    if frame_index != state.frame:
        raise ValueError(f"stepped frame {frame_index}, but the sequence is at "
                         f"frame {state.frame}")
    state.frame += 1
    state.confidences *= MISS_DECAY
    ids = rows = _NO_RECORDS
    if segment is not None:
        start, stop = state.rows.starts[segment], state.rows.starts[segment + 1]
        k = len(state.ids)
        proposals = fused.data[k:]
        boxes = state.rows.boxes[start:stop]
        confidences = state.detection_confidences[start:stop]
        born = confidences >= BIRTH_CONFIDENCE
        if k:
            normed = ad.l2_normalize_rows(fused).data
            cost = (1.0 - normed[:k] @ normed[k:].T
                    + IOU_WEIGHT * (1.0 - iou_matrix(state.boxes, boxes)))
            r, c = linear_sum_assignment(np.where(cost <= MATCH_GATE, cost, 1e9))
            within = cost[r, c] <= MATCH_GATE
            r, c = r[within], c[within]
            state.boxes[r] = boxes[c]
            state.confidences[r] = confidences[c]
            state.features[r] = proposals[c]
            born[c] = False
            ids, rows = state.ids.take(r), c + start
        births = born.nonzero()[0]
        if len(births):
            new_ids = np.arange(state.next_id, state.next_id + len(births))
            state.next_id += len(births)
            state.ids = np.concatenate([state.ids, new_ids])
            state.boxes = np.concatenate([state.boxes, boxes[births]])
            state.confidences = np.concatenate([state.confidences, confidences[births]])
            state.features = np.concatenate([state.features, proposals[births]])
            ids, rows = np.concatenate([ids, new_ids]), np.concatenate([rows, births + start])
    # a birth's confidence is at least BIRTH_CONFIDENCE, so no birth goes
    keep = state.confidences > PROPAGATE_CONFIDENCE
    if np.count_nonzero(keep) < len(keep):
        state.ids, state.boxes, state.confidences, state.features = (
            state.ids[keep], state.boxes[keep], state.confidences[keep],
            state.features[keep])
    return ids, rows


def track_sequence(frames: list[np.ndarray], detections: list[Detection],
                   model: TrackerModel,
                   quality_ranges: QualityRanges = QualityRanges()) -> TrackSet:
    """Run the tracker over a frame sequence; returns per-frame records.

    One :func:`prepare_sequence`, then per frame :func:`queries`,
    :meth:`TrackerModel.encode_queries` and :func:`associate`, whose records
    are added as one block. A frame without detections only goes through
    :func:`associate`."""
    state = prepare_sequence(frames, detections, model, quality_ranges)
    segment_of = {frame_index: k for k, frame_index in enumerate(state.rows.frame_ids)}
    output = TrackSet()
    for frame_index in range(len(frames)):
        segment = segment_of.get(frame_index)
        fused = None
        # without detections nothing reads the features: no match, no birth
        if segment is not None:
            x = queries(state, segment)
            fused = model.encode_queries(x, state.quality, np.full(x.rows, segment))[0]
        ids, rows = associate(state, frame_index, segment, fused)
        if len(ids):
            output.add_frame(frame_index, ids, state.rows.boxes.take(rows, axis=0),
                             state.detection_confidences.take(rows))
    return output
