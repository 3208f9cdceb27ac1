"""Query-propagation tracker over synthetic detections.

Each detection becomes a proposal query: a 70-value descriptor (normalized
box geometry, an 8x8 appearance patch, and the patch mean/std) mapped through
a learned embedding to 256 features. Track queries carry over from the
previous frame while their confidence stays above 0.5. Every variant but
``baseline`` runs the student encoder, which turns the stacked queries into
semantic features that are fused back into the queries, with a fixed ratio or
(``full``) a quality-driven one. Fused track and proposal features are
associated one-to-one per frame by Hungarian assignment on cosine-plus-IoU
cost. Per frame, one gather of every box's sample points gives all the
descriptors, and one track-by-detection IoU matrix gives the IoU term.
"""

from __future__ import annotations

import json
import math
import typing
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from semtrack import autodiff as ad
from semtrack.autodiff import Matrix, Parameter
from semtrack.distill import DcsdHead
from semtrack.quality import DswrHead, QualityRanges, assess_quality, fuse
from semtrack.scenes import Detection, detections_by_frame
from semtrack.student import FEATURE_DIM, StudentConfig, StudentModel
# box_iou is unused here but stays bound: the benchmark's harness tests read it
from semtrack.tracks import TrackRecord, TrackSet, box_iou, iou_matrix

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


# association gates, track ages and the fixed fusion weight; the paper tunes
# none of them
MATCH_GATE = 0.7
IOU_WEIGHT = 0.5
BIRTH_CONFIDENCE = 0.6
PROPAGATE_CONFIDENCE = 0.5          # strictly-greater propagation threshold
MAX_AGE = 3
MISS_DECAY = 0.7
FIXED_FUSION_WEIGHT = 0.5           # used when the student runs without DSWR


@dataclass(frozen=True)
class TrackerConfig:
    quality_ranges: QualityRanges = QualityRanges()


def box_descriptor(frame: np.ndarray, boxes) -> np.ndarray:
    """n x 70 proposal descriptors of n (l, t, w, h) boxes (one box may be
    given bare): geometry, an 8x8 bilinear patch of the box's pixel crop,
    and the patch mean/std.

    Equal bit for bit to cropping each box and calling
    ``frames.resize(crop, 8, 8)``; every sample point of every box comes from
    one gather. The mean and std sum in the order ``resize``'s result is laid
    out: by columns, except for a crop of exactly 8x8, which ``resize`` copies
    row by row.
    """
    frame = np.asarray(frame, dtype=np.float64)
    height, width = frame.shape
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    l, t, w, h = boxes.T
    # pixel crop [top, bottom) x [left, right) of each box, at least 1x1
    left = np.clip(np.floor(l), 0, width - 1).astype(np.intp)
    top = np.clip(np.floor(t), 0, height - 1).astype(np.intp)
    right = np.minimum(np.maximum(np.ceil(l + w).astype(np.intp), left + 1), width)
    bottom = np.minimum(np.maximum(np.ceil(t + h).astype(np.intp), top + 1), height)
    r0, r1, fr = _sample_axis(bottom - top)
    c0, c1, fc = _sample_axis(right - left)
    # corners[:, i, j] is the crop's pixel at rows (r0, r1)[i], columns (c0, c1)[j]
    rows = top[:, None, None] + np.stack([r0, r1], axis=1)
    cols = left[:, None, None] + np.stack([c0, c1], axis=1)
    corners = frame[rows[:, :, None, :, None], cols[:, None, :, None, :]]
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


def _sample_axis(size: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``frames.resize``'s bilinear taps along one axis, for crops of the
    given sizes: the n x 8 lower and upper pixel indices and the weight of
    the upper one."""
    src = (np.arange(PATCH) + 0.5)[None, :] * size[:, None] / PATCH - 0.5
    src = np.clip(src, 0.0, size[:, None] - 1.0)
    lo = np.minimum(src.astype(np.intp), np.maximum(size - 2, 0)[:, None])
    hi = np.minimum(lo + 1, size[:, None] - 1)
    return lo, hi, src - lo


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

    def embed_descriptors(self, descriptors: np.ndarray) -> Matrix:
        return ad.linear(Matrix(descriptors), self.embed_weight.value,
                         self.embed_bias.value)

    def fusion_weight(self, frames: Sequence[np.ndarray], rows: np.ndarray,
                      config: TrackerConfig) -> Matrix:
        """n x 1 fusion weight: row ``i`` gets the weight of ``frames[rows[i]]``,
        from its quality (DSWR) or fixed. Each frame is assessed once."""
        if self.dswr is not None:
            q = np.array([[assess_quality(frame, config.quality_ranges).q]
                          for frame in frames])
            return self.dswr.semantic_weight(Matrix(q[rows]))
        return Matrix(np.full((len(rows), 1), FIXED_FUSION_WEIGHT))

    def encode_queries(self, x: Matrix, frames: Sequence[np.ndarray], config: TrackerConfig,
                       segments: np.ndarray | None = None) -> tuple[Matrix, Matrix | None]:
        """Queries -> (fused features, the student's semantic features).

        Row ``i`` of ``x`` comes from ``frames[segments[i]]``; without
        ``segments`` every row comes from ``frames[0]``, as in tracking. The
        student attends within a frame only, and each row is fused at its
        frame's weight. The bare tracker returns ``(x, None)``. Training feeds
        the semantic features to the distillation loss, so the student runs
        once per scene.
        """
        if self.student is None:
            return x, None
        semantic = self.student(x, segments)
        rows = np.zeros(x.rows, dtype=np.intp) if segments is None else segments
        return fuse(self.fusion_weight(frames, rows, config), semantic, x), semantic

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
            header = json.loads(fh.readline().decode("utf-8"))
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


@dataclass
class _ActiveTrack:
    track_id: int
    feature: np.ndarray            # 1 x 256 fused feature
    box: tuple[float, float, float, float]
    confidence: float
    misses: int = 0


def _cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    an = a / np.maximum(np.linalg.norm(a, axis=1, keepdims=True), 1e-12)
    bn = b / np.maximum(np.linalg.norm(b, axis=1, keepdims=True), 1e-12)
    return an @ bn.T


def track_sequence(frames: list[np.ndarray], detections: list[Detection],
                   model: TrackerModel,
                   config: TrackerConfig = TrackerConfig()) -> TrackSet:
    """Run the tracker over a frame sequence; returns per-frame records."""
    per_frame = detections_by_frame(detections, len(frames))
    output = TrackSet()
    active: list[_ActiveTrack] = []
    next_id = 1
    for frame_index, frame in enumerate(frames):
        dets = per_frame.get(frame_index, [])
        carried = [trk for trk in active if trk.confidence > PROPAGATE_CONFIDENCE]
        rows: list[np.ndarray] = [trk.feature for trk in carried]
        n_carried = len(rows)
        if dets:
            rows.append(model.embed_descriptors(
                box_descriptor(frame, [det.box for det in dets])).data)
        x = Matrix(np.concatenate(rows, axis=0)) if rows else None
        fused = model.encode_queries(x, [frame], config)[0].data if x is not None else None

        track_feats = fused[:n_carried] if fused is not None else np.zeros((0, FEATURE_DIM))
        prop_feats = (fused[n_carried:] if fused is not None
                      else np.zeros((0, FEATURE_DIM)))

        matched_tracks: set[int] = set()
        matched_props: set[int] = set()
        if carried and dets:
            cost = (1.0 - _cosine(track_feats, prop_feats)
                    + IOU_WEIGHT * (1.0 - iou_matrix([trk.box for trk in carried],
                                                     [det.box for det in dets])))
            gated = np.where(cost <= MATCH_GATE, cost, 1e9)
            rows_idx, cols_idx = linear_sum_assignment(gated)
            for r, c in zip(rows_idx, cols_idx):
                if cost[r, c] <= MATCH_GATE:
                    trk = carried[r]
                    trk.box = dets[c].box
                    trk.feature = prop_feats[c:c + 1].copy()
                    trk.confidence = dets[c].confidence
                    trk.misses = 0
                    matched_tracks.add(id(trk))
                    matched_props.add(c)
                    output.add(TrackRecord(frame=frame_index, track_id=trk.track_id,
                                           box=dets[c].box,
                                           confidence=dets[c].confidence))

        newborn: set[int] = set()
        for c, det in enumerate(dets):
            if c in matched_props or det.confidence < BIRTH_CONFIDENCE:
                continue
            track = _ActiveTrack(track_id=next_id, feature=prop_feats[c:c + 1].copy(),
                                 box=det.box, confidence=det.confidence)
            next_id += 1
            active.append(track)
            newborn.add(id(track))
            output.add(TrackRecord(frame=frame_index, track_id=track.track_id,
                                   box=det.box, confidence=det.confidence))

        # age everything that neither matched nor was born this frame
        survivors = []
        for trk in active:
            if id(trk) in matched_tracks or id(trk) in newborn:
                survivors.append(trk)
                continue
            trk.misses += 1
            trk.confidence *= MISS_DECAY
            if trk.misses <= MAX_AGE:
                survivors.append(trk)
        active = survivors
    return output
