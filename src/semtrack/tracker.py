"""Query-propagation tracker over synthetic detections.

Each detection becomes a proposal query: a 70-value descriptor (normalized
box geometry, an 8x8 appearance patch, and the patch mean/std) mapped through
a learned embedding to 256 features. Track queries carry over from the
previous frame while their confidence stays above 0.5. The optional student
encoder turns the stacked queries into semantic features which are fused
back into the queries, with a fixed ratio or a quality-driven one. Fused
track and proposal features are associated one-to-one per frame by Hungarian
assignment on cosine-plus-IoU cost.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from semtrack import autodiff as ad
from semtrack.autodiff import Matrix, Parameter
from semtrack.distill import DcsdHead
from semtrack.frames import resize
from semtrack.quality import DswrHead, QualityRanges, assess_quality, fuse
from semtrack.scenes import Detection
from semtrack.student import StudentConfig, StudentModel
from semtrack.tracks import TrackRecord, TrackSet, box_iou

PATCH = 8
DESCRIPTOR_DIM = 4 + PATCH * PATCH + 2
FEATURE_DIM = 256
MODEL_FORMAT = "semtrack-tracker-v1"
_TRACKER_PREFIXES = ("embed.", "box_head.")
_HEADER_KEYS = {"format", "use_student", "use_dswr", "train_loss_weights", "seed",
                "student_config", "params"}
_ENTRY_KEYS = {"name", "rows", "cols", "offset"}


@dataclass(frozen=True)
class TrackerConfig:
    match_gate: float = 0.7
    iou_weight: float = 0.5
    birth_confidence: float = 0.6
    propagate_confidence: float = 0.5   # strictly-greater propagation threshold
    max_age: int = 3
    miss_decay: float = 0.7
    fixed_fusion_weight: float = 0.5    # used when the student runs without DSWR
    quality_ranges: QualityRanges = QualityRanges()


def box_descriptor(frame: np.ndarray, box: tuple[float, float, float, float]
                   ) -> np.ndarray:
    """1 x 70 proposal descriptor: geometry, 8x8 patch, patch mean/std."""
    height, width = frame.shape
    l, t, w, h = box
    c0 = min(max(int(math.floor(l)), 0), width - 1)
    r0 = min(max(int(math.floor(t)), 0), height - 1)
    c1 = min(max(int(math.ceil(l + w)), c0 + 1), width)
    r1 = min(max(int(math.ceil(t + h)), r0 + 1), height)
    region = frame[r0:r1, c0:c1]
    patch = resize(region, PATCH, PATCH, "bilinear")
    geometry = np.array([l / width, t / height, w / width, h / height])
    return np.concatenate([geometry, patch.reshape(-1),
                           [patch.mean(), patch.std()]]).reshape(1, -1)


class TrackerModel:
    """Learnable tracker pieces: query embedding, box head, optional student,
    distillation head and fusion head."""

    def __init__(self, use_student: bool = True, use_dswr: bool = True,
                 train_loss_weights: bool = True,
                 student_config: StudentConfig = StudentConfig(), seed: int = 0):
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
        self.student = StudentModel(student_config, seed=seed + 1) if use_student else None
        self.dcsd = (DcsdHead(seed=seed + 2, train_loss_weights=train_loss_weights)
                     if use_student else None)
        self.dswr = DswrHead() if (use_student and use_dswr) else None
        self.use_student = use_student
        self.use_dswr = use_student and use_dswr
        self.train_loss_weights = train_loss_weights
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

    def fusion_weight(self, frame: np.ndarray, config: TrackerConfig) -> Matrix:
        if self.dswr is not None:
            q = assess_quality(frame, config.quality_ranges).q
            return self.dswr.semantic_weight(q)
        return Matrix([[config.fixed_fusion_weight]])

    def encode_queries(self, x: Matrix, frame: np.ndarray,
                       config: TrackerConfig) -> tuple[Matrix, Matrix | None]:
        """Queries -> (fused features, the student's semantic features).

        The bare tracker returns ``(x, None)``. Training feeds the semantic
        features to the distillation loss, so the student runs once per frame.
        """
        if self.student is None:
            return x, None
        semantic = self.student(x)
        return fuse(self.fusion_weight(frame, config), semantic, x), semantic

    def predict_boxes(self, features: Matrix) -> Matrix:
        return ad.linear(features, self.box_weight.value, self.box_bias.value)

    # -- persistence --

    def save(self, path: str | Path) -> None:
        """Write a ``semtrack-tracker-v1`` file: one sorted-key JSON header
        line (build flags, seed, student config, and each parameter's name,
        shape and byte offset), then every parameter as a little-endian
        float64 blob, in name order with no gaps. :meth:`load` accepts only
        that layout."""
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
        student_config = (self.student.config if self.student is not None
                          else StudentConfig())
        header = {
            "format": MODEL_FORMAT,
            "use_student": self.use_student,
            "use_dswr": self.use_dswr,
            "train_loss_weights": self.train_loss_weights,
            "seed": self.seed,
            "student_config": asdict(student_config),
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
        ``semtrack-tracker-v1`` format, it and each of its objects hold
        exactly the keys :meth:`save` writes, its entries name exactly the
        parameters of the rebuilt model with their shapes, and the blobs
        follow one another in name order and end where the file ends.
        """
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode("utf-8"))
            blob = fh.read()
        if not isinstance(header, dict) or header.get("format") != MODEL_FORMAT:
            raise ValueError(f"{path}: not a {MODEL_FORMAT} model file")
        _require_keys(path, "header", header, _HEADER_KEYS)
        _require_keys(path, "student_config", header["student_config"],
                      {f.name for f in fields(StudentConfig)})
        for entry in header["params"]:
            _require_keys(path, "parameter entry", entry, _ENTRY_KEYS)
        model = cls(use_student=header["use_student"], use_dswr=header["use_dswr"],
                    train_loss_weights=header["train_loss_weights"],
                    student_config=StudentConfig(**header["student_config"]),
                    seed=header["seed"])
        named = model.named_parameters()
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


def _require_keys(path, where: str, raw, keys: set[str]) -> None:
    """Raise ``ValueError`` unless ``raw`` is an object with exactly ``keys``."""
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: {where} is not an object")
    missing, unknown = sorted(keys - raw.keys()), sorted(raw.keys() - keys)
    if missing or unknown:
        raise ValueError(f"{path}: {where} is missing keys {missing}, "
                         f"has unknown keys {unknown}")


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
    per_frame: dict[int, list[Detection]] = {}
    for det in detections:
        if det.frame < 0 or det.frame >= len(frames):
            raise ValueError(f"detection frame {det.frame} outside sequence "
                             f"of {len(frames)} frames")
        per_frame.setdefault(det.frame, []).append(det)

    output = TrackSet()
    active: list[_ActiveTrack] = []
    next_id = 1
    for frame_index, frame in enumerate(frames):
        dets = per_frame.get(frame_index, [])
        carried = [trk for trk in active
                   if trk.confidence > config.propagate_confidence]
        rows: list[np.ndarray] = [trk.feature for trk in carried]
        descriptors = [box_descriptor(frame, det.box) for det in dets]
        n_carried = len(rows)
        if descriptors:
            embedded = model.embed_descriptors(np.concatenate(descriptors, axis=0))
            rows.extend(embedded.data[i:i + 1] for i in range(len(descriptors)))
        x = Matrix(np.concatenate(rows, axis=0)) if rows else None
        fused = model.encode_queries(x, frame, config)[0].data if x is not None else None

        track_feats = fused[:n_carried] if fused is not None else np.zeros((0, FEATURE_DIM))
        prop_feats = (fused[n_carried:] if fused is not None
                      else np.zeros((0, FEATURE_DIM)))

        matched_tracks: set[int] = set()
        matched_props: set[int] = set()
        if carried and dets:
            cost = (1.0 - _cosine(track_feats, prop_feats)
                    + config.iou_weight * (1.0 - np.array(
                        [[box_iou(trk.box, det.box) for det in dets]
                         for trk in carried])))
            gated = np.where(cost <= config.match_gate, cost, 1e9)
            rows_idx, cols_idx = linear_sum_assignment(gated)
            for r, c in zip(rows_idx, cols_idx):
                if cost[r, c] <= config.match_gate:
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
            if c in matched_props or det.confidence < config.birth_confidence:
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
            trk.confidence *= config.miss_decay
            if trk.misses <= config.max_age:
                survivors.append(trk)
        active = survivors
    return output
