"""Composable frame-degradation operators and the low/high split of a
training corpus.

A chain applies its operators in listed order (first entry first). Downsample
restores the original resolution immediately afterwards so frame geometry and
ground-truth boxes stay valid; every chain output is clamped to [0, 1]. Noise
draws are keyed by (master seed, op seed, sequence id, frame index), so whole
corpora regenerate bit-identically without global RNG state. Chains are built
from the JSON op specs an ``ExperimentConfig`` holds; frames stay in memory.
"""

from __future__ import annotations

import zlib
from dataclasses import MISSING, dataclass, fields

import numpy as np

from semtrack.frames import resize

DEFAULT_CHAIN_SPEC = [
    {"kind": "gaussian_blur", "sigma": 1.5, "kernel_size": 7},
    {"kind": "downsample", "scale": 0.5, "resample": "bilinear"},
    {"kind": "gaussian_noise", "sigma": 0.03, "seed": 0},
]


@dataclass(frozen=True)
class GaussianBlur:
    sigma: float
    kernel_size: int
    kind: str = "gaussian_blur"

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"blur sigma must be >= 0, got {self.sigma}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd and >= 1, got {self.kernel_size}")


@dataclass(frozen=True)
class Downsample:
    scale: float
    resample: str = "bilinear"
    kind: str = "downsample"

    def __post_init__(self):
        if not 0.0 < self.scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")
        if self.resample not in ("nearest", "bilinear"):
            raise ValueError(f"resample must be nearest or bilinear, got {self.resample!r}")


@dataclass(frozen=True)
class GaussianNoise:
    sigma: float
    seed: int = 0
    kind: str = "gaussian_noise"

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"noise sigma must be >= 0, got {self.sigma}")


DegradationOp = GaussianBlur | Downsample | GaussianNoise


def op_from_dict(spec: dict) -> DegradationOp:
    kinds = {"gaussian_blur": GaussianBlur, "downsample": Downsample,
             "gaussian_noise": GaussianNoise}
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind not in kinds:
        raise ValueError(f"unknown degradation op kind: {kind!r}")
    unknown = sorted(set(spec) - {f.name for f in fields(kinds[kind])})
    if unknown:
        raise ValueError(f"{kind}: unknown keys {unknown}")
    missing = [f.name for f in fields(kinds[kind])
               if f.default is MISSING and f.name not in spec]
    if missing:
        raise ValueError(f"{kind}: missing keys {missing}")
    return kinds[kind](**spec)


@dataclass(frozen=True)
class DegradationChain:
    ops: tuple[DegradationOp, ...] = ()
    master_seed: int = 0

    @classmethod
    def from_spec(cls, spec: list[dict], master_seed: int = 0) -> "DegradationChain":
        return cls(ops=tuple(op_from_dict(s) for s in spec), master_seed=master_seed)


def _gaussian_kernel(sigma: float, size: int) -> np.ndarray:
    if size == 1 or sigma == 0.0:
        kernel = np.zeros(size)
        kernel[size // 2] = 1.0
        return kernel
    offsets = np.arange(size) - size // 2
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    return kernel / kernel.sum()


def _convolve_axis(frame: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    half = kernel.size // 2
    if half == 0:
        return frame * kernel[0]
    pad = [(0, 0), (0, 0)]
    pad[axis] = (half, half)
    padded = np.pad(frame, pad, mode="reflect")
    out = np.zeros_like(frame)
    for i, k in enumerate(kernel):
        if axis == 0:
            out += k * padded[i:i + frame.shape[0], :]
        else:
            out += k * padded[:, i:i + frame.shape[1]]
    return out


def _noise_rng(chain: DegradationChain, op: GaussianNoise,
               sequence_id: str, frame_index: int) -> np.random.Generator:
    seq_key = zlib.crc32(sequence_id.encode("utf-8")) & 0xFFFFFFFF
    seq = np.random.SeedSequence(
        entropy=chain.master_seed & 0xFFFFFFFFFFFFFFFF,
        spawn_key=(op.seed & 0xFFFFFFFF, seq_key, frame_index & 0xFFFFFFFF))
    return np.random.Generator(np.random.Philox(seq))


def apply_chain(chain: DegradationChain, frame: np.ndarray,
                sequence_id: str = "", frame_index: int = 0) -> np.ndarray:
    """Run the full operator chain on one frame; output clamped to [0, 1]."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 2 or frame.size == 0:
        raise ValueError(f"frame must be a non-empty 2-D array, got {frame.shape}")
    if frame.min() < 0.0 or frame.max() > 1.0:
        raise ValueError("frame values must lie in [0, 1]")
    h, w = frame.shape
    out = frame.copy()
    for op in chain.ops:
        if isinstance(op, GaussianBlur):
            kernel = _gaussian_kernel(op.sigma, op.kernel_size)
            out = _convolve_axis(_convolve_axis(out, kernel, axis=0), kernel, axis=1)
        elif isinstance(op, Downsample):
            small_h = max(1, int(round(h * op.scale)))
            small_w = max(1, int(round(w * op.scale)))
            out = resize(resize(out, small_h, small_w, op.resample), h, w, op.resample)
        elif isinstance(op, GaussianNoise):
            if op.sigma > 0.0:
                rng = _noise_rng(chain, op, sequence_id, frame_index)
                out = out + rng.normal(0.0, op.sigma, size=out.shape)
        else:  # pragma: no cover - op types are closed
            raise TypeError(f"unknown op {op!r}")
    return np.clip(out, 0.0, 1.0)


def partition_sequences(sequence_ids: list[str], ratio: tuple[int, int],
                        seed: int) -> tuple[list[str], list[str]]:
    """Split ids into (low, high) matching low:high as closely as counts allow."""
    low_share, high_share = ratio
    if low_share < 1 or high_share < 0:
        raise ValueError(f"mixed-set ratio needs low >= 1 and high >= 0, got {ratio}")
    if not sequence_ids:
        raise ValueError("no sequences to partition")
    ids = sorted(sequence_ids)
    order = np.random.default_rng(seed).permutation(len(ids))
    n_low = int(round(len(ids) * low_share / (low_share + high_share)))
    n_low = min(max(n_low, 1), len(ids)) if high_share else len(ids)
    low = sorted(ids[i] for i in order[:n_low])
    high = sorted(ids[i] for i in order[n_low:])
    return low, high
