"""Composable frame-degradation operators and the low/high split of a
training corpus.

A chain applies its operators in listed order (first entry first). Downsample
restores the original resolution immediately afterwards so frame geometry and
ground-truth boxes stay valid; every chain output is clamped to [0, 1]. Noise
draws are keyed by (master seed, op seed, sequence id, frame index), so whole
corpora regenerate bit-identically without global RNG state; a
:class:`GaussianNoise` refuses a seed outside the key's 32-bit word and a
:class:`DegradationChain` a master seed outside its 64-bit one, so no seed
draws another's noise. An
``ExperimentConfig`` holds its chain as op instances, and a snapshot stores
each op as an object whose ``kind`` names its class; frames stay in memory.

:func:`apply_chain` degrades one whole sequence per call. Its frames are
independent, so they are spread over the process's shared worker threads
(:mod:`semtrack.workers`), one per CPU; each frame's result is what the
chain gives that frame alone, bit for bit, whatever the number of workers.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from semtrack import workers
from semtrack.frames import resize


@dataclass(frozen=True)
class GaussianBlur:
    sigma: float
    kernel_size: int
    kind: str = field(default="gaussian_blur", init=False)

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"blur sigma must be finite and >= 0, got {self.sigma}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd and >= 1, got {self.kernel_size}")


@dataclass(frozen=True)
class Downsample:
    scale: float
    resample: str = "bilinear"
    kind: str = field(default="downsample", init=False)

    def __post_init__(self):
        if not 0.0 < self.scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")
        if self.resample not in ("nearest", "bilinear"):
            raise ValueError(f"resample must be nearest or bilinear, got {self.resample!r}")


@dataclass(frozen=True)
class GaussianNoise:
    sigma: float
    seed: int = 0
    kind: str = field(default="gaussian_noise", init=False)

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"noise sigma must be finite and >= 0, got {self.sigma}")
        # the noise key holds the seed in one 32-bit word; a value of the
        # wrong type is the config checker's to reject
        if isinstance(self.seed, int) and not 0 <= self.seed < 2 ** 32:
            raise ValueError(f"seed must be in [0, 2**32), got {self.seed}")


DegradationOp = GaussianBlur | Downsample | GaussianNoise

DEFAULT_CHAIN = (GaussianBlur(sigma=1.5, kernel_size=7),
                 Downsample(scale=0.5, resample="bilinear"),
                 GaussianNoise(sigma=0.03, seed=0))


@dataclass(frozen=True)
class DegradationChain:
    ops: tuple[DegradationOp, ...] = ()
    master_seed: int = 0

    def __post_init__(self):
        # the noise key's entropy word is 64 bits wide
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError(f"master_seed must be in [0, 2**64), got {self.master_seed}")


def _gaussian_kernel(sigma: float, size: int) -> np.ndarray:
    if size == 1 or sigma == 0.0:
        kernel = np.zeros(size)
        kernel[size // 2] = 1.0
        return kernel
    offsets = np.arange(size) - size // 2
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    return kernel / kernel.sum()


@functools.lru_cache(maxsize=16)
def _reflect_index(size: int, half: int) -> np.ndarray:
    """Source index of each position of a ``size`` axis reflect-padded by
    ``half`` on both sides, as ``np.pad(..., mode="reflect")`` lays it out
    (including axes shorter than the pad); read-only, since it is cached."""
    index = np.pad(np.arange(size), half, mode="reflect")
    index.setflags(write=False)
    return index


def _blur(frame: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable convolution with reflect padding, rows first, into a new array.

    Each axis sums its taps in kernel order onto zeros, one scaled copy of the
    padded frame at a time, so the result is the same bit for bit as adding
    ``k * padded[i:i + n]`` tap by tap onto ``zeros_like(frame)``. One padded
    buffer serves both axes, and the row pass's output is reused for the
    column pass's once the padded buffer holds it."""
    half = kernel.size // 2
    if half == 0:
        return frame * kernel[0]
    h, w = frame.shape
    rows, cols = _reflect_index(h, half), _reflect_index(w, half)
    buffer = np.empty((h + 2 * half) * (w + 2 * half))
    scratch = np.empty_like(frame)
    out = np.zeros_like(frame)

    padded = buffer[:(h + 2 * half) * w].reshape(h + 2 * half, w)
    padded[half:half + h] = frame
    padded[:half] = frame[rows[:half]]
    padded[half + h:] = frame[rows[half + h:]]
    for i, k in enumerate(kernel):
        np.multiply(padded[i:i + h], k, out=scratch)
        out += scratch

    padded = buffer[:h * (w + 2 * half)].reshape(h, w + 2 * half)
    padded[:, half:half + w] = out
    padded[:, :half] = out[:, cols[:half]]
    padded[:, half + w:] = out[:, cols[half + w:]]
    out.fill(0.0)
    for i, k in enumerate(kernel):
        np.multiply(padded[:, i:i + w], k, out=scratch)
        out += scratch
    return out


def _noise_rng(chain: DegradationChain, op: GaussianNoise,
               sequence_id: str, frame_index: int) -> np.random.Generator:
    # the seeds enter the key whole: a masked seed would draw another's noise
    seq_key = zlib.crc32(sequence_id.encode("utf-8")) & 0xFFFFFFFF
    seq = np.random.SeedSequence(
        entropy=chain.master_seed,
        spawn_key=(op.seed, seq_key, frame_index & 0xFFFFFFFF))
    return np.random.Generator(np.random.Philox(seq))


def _degrade_frame(chain: DegradationChain, frame: np.ndarray, sequence_id: str,
                   frame_index: int) -> np.ndarray:
    """The chain's output on one checked frame, before clamping. Never writes
    to ``frame``."""
    h, w = frame.shape
    for op in chain.ops:
        if isinstance(op, GaussianBlur):
            frame = _blur(frame, _gaussian_kernel(op.sigma, op.kernel_size))
        elif isinstance(op, Downsample):
            small_h = max(1, int(round(h * op.scale)))
            small_w = max(1, int(round(w * op.scale)))
            frame = resize(resize(frame, small_h, small_w, op.resample), h, w, op.resample)
        elif isinstance(op, GaussianNoise):
            if op.sigma > 0.0:
                rng = _noise_rng(chain, op, sequence_id, frame_index)
                noise = rng.normal(0.0, op.sigma, size=frame.shape)
                frame = np.add(frame, noise, out=noise)
        else:  # pragma: no cover - op types are closed
            raise TypeError(f"unknown op {op!r}")
    return frame


def apply_chain(chain: DegradationChain, frames: Sequence[np.ndarray],
                sequence_id: str = "") -> list[np.ndarray]:
    """Run the full operator chain on every frame of one sequence; frame i
    draws its noise under frame index i. Returns the degraded frames, clamped
    to [0, 1], as read-only views of one C-ordered F x h x w block, which is
    read-only too, so no frame can change after a caller has used it.

    Every frame is checked before any is degraded: each must be a non-empty
    2-D array of finite values in [0, 1], all of one shape. The process's
    shared worker threads (:func:`semtrack.workers.pool`) degrade frames 1
    to F - 1 and the caller's thread frame 0, one task per frame, each
    clamping its frame into its own slice of the block; NumPy releases the
    interpreter lock in the arithmetic, so frames run on every CPU, and
    since no frame reads another's result the output does not depend on the
    number of workers.
    """
    frames = [np.ascontiguousarray(frame, dtype=np.float64) for frame in frames]
    if not frames:
        return []
    for index, frame in enumerate(frames):
        if frame.ndim != 2 or frame.size == 0:
            raise ValueError(f"frame {index} must be a non-empty 2-D array, "
                             f"got {frame.shape}")
        if frame.shape != frames[0].shape:
            raise ValueError(f"frame {index} has shape {frame.shape}, frame 0 "
                             f"has {frames[0].shape}")
        # written so that NaN fails too: every comparison with NaN is False
        if not (frame.min() >= 0.0 and frame.max() <= 1.0):
            raise ValueError(f"frame {index} must hold finite values in [0, 1]")
    block = np.empty((len(frames), *frames[0].shape))

    def degrade(index: int) -> None:
        np.clip(_degrade_frame(chain, frames[index], sequence_id, index), 0.0, 1.0,
                out=block[index])

    tasks = workers.pool().map(degrade, range(1, len(frames)))
    degrade(0)
    for _ in tasks:   # re-raises a worker's exception here
        pass
    block.flags.writeable = False
    return list(block)


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
