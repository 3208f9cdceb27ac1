"""Synthetic grayscale scenes with exact ground truth, plus a noisy detector.

Targets are textured rectangles moving with constant velocity (reflecting at
the frame borders) over a smooth textured background. The detector jitters
ground-truth boxes, drops them at a miss rate, and injects false boxes at a
per-frame rate; every detection above the 0.05 confidence floor is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from semtrack.tracks import TrackSet

# the background's grey level and structure amplitude; a target's stripe amplitude
BACKGROUND = 0.4
BACKGROUND_AMP = 0.1
TEXTURE_AMP = 0.25
# the largest side of a false detection box, so the smallest side of a frame
MAX_FALSE_BOX = 30


@dataclass(frozen=True)
class TargetSpec:
    track_id: int
    x: float
    y: float
    vx: float
    vy: float
    width: int
    height: int
    intensity: float
    texture_seed: int
    start_frame: int = 0
    end_frame: int | None = None    # inclusive; None = last frame
    jitter: float = 0.0


@dataclass(frozen=True)
class SceneConfig:
    width: int = 128
    height: int = 96
    num_frames: int = 40
    targets: tuple[TargetSpec, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.num_frames < 2:
            raise ValueError("scenes need at least 2 frames")
        if not self.targets:
            raise ValueError("scenes need at least 1 target")
        ids = [t.track_id for t in self.targets]
        if len(set(ids)) != len(ids):
            raise ValueError("target ids must be unique")
        for t in self.targets:
            if t.width >= self.width or t.height >= self.height:
                raise ValueError(f"target {t.track_id} too large for the frame")
            if t.width < 2 or t.height < 2:
                raise ValueError(f"target {t.track_id} smaller than 2x2")


def _smooth(noise: np.ndarray, passes: int = 2) -> np.ndarray:
    out = noise
    for _ in range(passes):
        padded = np.pad(out, 1, mode="edge")
        out = sum(padded[r:r + noise.shape[0], c:c + noise.shape[1]]
                  for r in range(3) for c in range(3)) / 9.0
    return out


def _texture(seed: int, h: int, w: int, amp: float) -> np.ndarray:
    # thin stripes of random width, level and orientation: locally 1-D
    # structure carries high Laplacian clarity yet reads as near-zero in the
    # separable high-frequency noise estimate, like real image edges
    rng = np.random.default_rng(seed)
    horizontal = rng.uniform() < 0.5
    length = h if horizontal else w
    profile = np.empty(length)
    at = 0
    sign = 1.0
    while at < length:
        width = int(rng.integers(1, 3))
        profile[at:at + width] = sign * rng.uniform(0.5, 1.0)
        sign = -sign
        at += width
    stripes = profile[:, None] if horizontal else profile[None, :]
    return np.broadcast_to(stripes, (h, w)).copy() * amp


def _background(config: SceneConfig) -> np.ndarray:
    # smooth macro structure plus sparse blocky clutter, so the background
    # also loses clarity under blur without reading as sensor noise
    rng = np.random.default_rng(config.seed)
    coarse = _smooth(rng.uniform(-1.0, 1.0, size=(config.height, config.width)),
                     passes=3) * BACKGROUND_AMP
    clutter = _texture(config.seed + 1, config.height, config.width, BACKGROUND_AMP)
    return np.clip(BACKGROUND + coarse + clutter, 0.0, 1.0)


def _reflect(value: float, limit: float) -> float:
    """Fold a coordinate back into [0, limit] (bouncing motion)."""
    if limit <= 0:
        return 0.0
    period = 2.0 * limit
    value = value % period
    return period - value if value > limit else value


def generate_scene(config: SceneConfig) -> tuple[list[np.ndarray], TrackSet]:
    """Render every frame, each a read-only array, and emit the exact
    ground-truth track set."""
    background = _background(config)
    patches = {t.track_id: np.clip(t.intensity + _texture(t.texture_seed, t.height,
                                                          t.width, TEXTURE_AMP),
                                   0.0, 1.0)
               for t in config.targets}
    jitter_rng = np.random.default_rng(config.seed + 7919)

    frames: list[np.ndarray] = []
    gt = TrackSet()
    for frame_index in range(config.num_frames):
        frame = background.copy()
        ids, boxes = [], []
        for target in config.targets:
            end = target.end_frame if target.end_frame is not None else config.num_frames - 1
            jx = jy = 0.0
            if target.jitter > 0.0:
                jx, jy = jitter_rng.normal(0.0, target.jitter, size=2)
            if not (target.start_frame <= frame_index <= end):
                continue
            t_rel = frame_index - target.start_frame
            raw_x = target.x + target.vx * t_rel + jx
            raw_y = target.y + target.vy * t_rel + jy
            x = _reflect(raw_x, config.width - target.width)
            y = _reflect(raw_y, config.height - target.height)
            ix, iy = int(round(x)), int(round(y))
            ix = min(max(ix, 0), config.width - target.width)
            iy = min(max(iy, 0), config.height - target.height)
            frame[iy:iy + target.height, ix:ix + target.width] = patches[target.track_id]
            ids.append(target.track_id)
            boxes.append((float(ix), float(iy), float(target.width), float(target.height)))
        gt.add_frame(frame_index, ids, boxes, [1.0] * len(ids))
        frame.flags.writeable = False
        frames.append(frame)
    return frames, gt


def crossing_preset(seed: int = 0, num_frames: int = 24,
                    width: int = 128, height: int = 96) -> SceneConfig:
    """Two targets that swap sides horizontally and overlap mid-sequence."""
    band = height // 2 - 9
    travel = (width - 50.0) / (num_frames - 1)
    return SceneConfig(
        width=width, height=height, num_frames=num_frames, seed=seed,
        targets=(
            TargetSpec(track_id=1, x=4.0, y=float(band), vx=travel, vy=0.2,
                       width=18, height=18, intensity=0.75, texture_seed=seed * 31 + 1),
            TargetSpec(track_id=2, x=float(width - 24), y=float(band + 4), vx=-travel,
                       vy=-0.2, width=18, height=18, intensity=0.2,
                       texture_seed=seed * 31 + 2),
        ))


def random_scene_config(seed: int, num_targets: int = 3, num_frames: int = 32,
                        width: int = 128, height: int = 96,
                        jitter: float = 0.0) -> SceneConfig:
    """Deterministic random scene: distinct intensities, mixed motions."""
    rng = np.random.default_rng(seed)
    levels = np.linspace(0.15, 0.85, num_targets)
    rng.shuffle(levels)
    targets = []
    for k in range(num_targets):
        w = int(rng.integers(14, 22))
        h = int(rng.integers(14, 22))
        speed = rng.uniform(1.0, 3.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        targets.append(TargetSpec(
            track_id=k + 1,
            x=float(rng.uniform(0, width - w)),
            y=float(rng.uniform(0, height - h)),
            vx=float(speed * math.cos(angle)),
            vy=float(speed * math.sin(angle)),
            width=w, height=h,
            intensity=float(levels[k]),
            texture_seed=int(rng.integers(0, 2 ** 31)),
            jitter=jitter,
        ))
    return SceneConfig(width=width, height=height, num_frames=num_frames,
                       targets=tuple(targets), seed=seed)


@dataclass(frozen=True)
class Detection:
    frame: int
    box: tuple[float, float, float, float]
    confidence: float

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must lie in [0, 1], got {self.confidence}")
        _, _, w, h = self.box
        if not (all(map(math.isfinite, self.box)) and w > 0 and h > 0):
            raise ValueError(f"box must be finite with a positive width and height, "
                             f"got {self.box}")


@dataclass(frozen=True)
class DetectorNoise:
    jitter_sigma: float = 0.0
    fp_rate: float = 0.0
    fn_rate: float = 0.0

    def __post_init__(self):
        for name in ("fp_rate", "fn_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {rate}")
        if not (math.isfinite(self.jitter_sigma) and self.jitter_sigma >= 0.0):
            raise ValueError(f"jitter_sigma must be finite and >= 0, got {self.jitter_sigma}")


def synth_detector(frames: list[np.ndarray], gt: TrackSet,
                   noise: DetectorNoise = DetectorNoise(),
                   seed: int = 0) -> list[Detection]:
    """Jittered, thinned and polluted detections derived from ground truth.

    False boxes are up to ``MAX_FALSE_BOX`` pixels a side, so with
    ``fp_rate > 0`` a frame smaller than that raises ``ValueError``."""
    height, width = map(float, frames[0].shape)
    if noise.fp_rate > 0.0 and min(height, width) < MAX_FALSE_BOX:
        raise ValueError(f"false boxes need frames of at least {MAX_FALSE_BOX}x"
                         f"{MAX_FALSE_BOX} (MAX_FALSE_BOX), got {height:g}x{width:g}")
    rng = np.random.default_rng(np.random.PCG64(seed))
    gt_blocks = gt.frame_blocks()
    detections: list[Detection] = []
    for frame_index in range(len(frames)):
        block = gt_blocks.get(frame_index)
        # the frame's ground-truth boxes by id, as Python floats, as are the
        # noise draws and the frame size: a detection's box holds Python floats
        gt_boxes = ([] if block is None
                    else block.boxes.take(np.argsort(block.ids), axis=0).tolist())
        for l, t, w, h in gt_boxes:
            if noise.fn_rate > 0.0 and rng.uniform() < noise.fn_rate:
                continue
            if noise.jitter_sigma > 0.0:
                dl, dt = rng.normal(0.0, noise.jitter_sigma, size=2).tolist()
                dw, dh = rng.normal(0.0, noise.jitter_sigma / 2.0, size=2).tolist()
            else:
                dl = dt = dw = dh = 0.0
            w = min(max(w + dw, 4.0), width)
            h = min(max(h + dh, 4.0), height)
            l = min(max(l + dl, 0.0), width - w)
            t = min(max(t + dt, 0.0), height - h)
            shift = math.hypot(dl, dt)
            confidence = min(max(0.9 - 0.08 * shift, 0.05), 0.9)
            detections.append(Detection(frame=frame_index, box=(l, t, w, h),
                                        confidence=confidence))
        if noise.fp_rate > 0.0 and rng.uniform() < noise.fp_rate:
            w = float(rng.uniform(8.0, MAX_FALSE_BOX))
            h = float(rng.uniform(8.0, MAX_FALSE_BOX))
            l = float(rng.uniform(0.0, width - w))
            t = float(rng.uniform(0.0, height - h))
            detections.append(Detection(frame=frame_index, box=(l, t, w, h),
                                        confidence=float(rng.uniform(0.05, 0.5))))
    return detections


def detections_by_frame(detections: list[Detection], num_frames: int
                        ) -> dict[int, list[Detection]]:
    """Detections grouped by frame index, in input order; raises
    ``ValueError`` for a detection outside a sequence of ``num_frames``."""
    out: dict[int, list[Detection]] = {}
    for det in detections:
        if not 0 <= det.frame < num_frames:
            raise ValueError(f"detection frame {det.frame} outside sequence "
                             f"of {num_frames} frames")
        out.setdefault(det.frame, []).append(det)
    return out
