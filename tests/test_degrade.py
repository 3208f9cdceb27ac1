import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from semtrack import degrade, workers
from semtrack.config import ExperimentConfig
from semtrack.degrade import (DEFAULT_CHAIN, DegradationChain, Downsample, GaussianBlur,
                              GaussianNoise, apply_chain, partition_sequences)
from semtrack.experiment import build_model, training_corpus
from semtrack.quality import assess_quality
from semtrack.training import train

from oracles import reference_apply_chain


def checkerboard(h=40, w=40, cell=4):
    rows = (np.arange(h) // cell)[:, None]
    cols = (np.arange(w) // cell)[None, :]
    return ((rows + cols) % 2).astype(np.float64)


def test_empty_chain_is_identity():
    frame = checkerboard()
    [out] = apply_chain(DegradationChain(), [frame])
    assert np.array_equal(out, frame)


def test_degenerate_ops_are_identity():
    frame = checkerboard()
    chain = DegradationChain(ops=(GaussianNoise(sigma=0.0),
                                  GaussianBlur(sigma=2.0, kernel_size=1)))
    [out] = apply_chain(chain, [frame])
    assert np.array_equal(out, frame)


def test_chain_preserves_shape_and_range():
    frame = checkerboard()
    [out] = apply_chain(DegradationChain(DEFAULT_CHAIN, master_seed=3), [frame])
    assert out.shape == frame.shape
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_composition_is_order_sensitive():
    frame = checkerboard()
    down = Downsample(scale=0.5, resample="bilinear")
    noise = GaussianNoise(sigma=0.05, seed=1)
    [a] = apply_chain(DegradationChain(ops=(down, noise), master_seed=9), [frame])
    [b] = apply_chain(DegradationChain(ops=(noise, down), master_seed=9), [frame])
    assert not np.array_equal(a, b)


def test_determinism_given_seeds():
    frame = np.random.default_rng(1).uniform(0, 1, size=(32, 48))
    chain = DegradationChain(DEFAULT_CHAIN, master_seed=11)
    sequence = [frame] * 7
    a = apply_chain(chain, sequence, sequence_id="seq-3")[5]
    b = apply_chain(chain, sequence, sequence_id="seq-3")[5]
    assert np.array_equal(a, b)
    c = apply_chain(chain, sequence, sequence_id="seq-3")[6]
    assert not np.array_equal(a, c)
    d = apply_chain(DegradationChain(DEFAULT_CHAIN, master_seed=12), sequence,
                    sequence_id="seq-3")[5]
    assert not np.array_equal(a, d)


def test_blur_lowers_clarity_noise_raises_estimate():
    frame = checkerboard(64, 64)
    [blurred] = apply_chain(DegradationChain(
        ops=(GaussianBlur(sigma=1.5, kernel_size=7),)), [frame])
    assert assess_quality(blurred).clarity < assess_quality(frame).clarity
    flat = np.full((64, 64), 0.5)
    [noisy] = apply_chain(DegradationChain(ops=(GaussianNoise(sigma=0.05, seed=2),)), [flat])
    assert assess_quality(noisy).noise_sigma > assess_quality(flat).noise_sigma


@pytest.mark.parametrize("seed, master_seed, message", [
    (2 ** 32, 0, r"^seed must be in \[0, 2\*\*32\), got 4294967296$"),
    (-1, 0, r"^seed must be in \[0, 2\*\*32\), got -1$"),
    (0, 2 ** 64, r"^master_seed must be in \[0, 2\*\*64\), got 18446744073709551616$"),
    (0, -1, r"^master_seed must be in \[0, 2\*\*64\), got -1$"),
], ids=["noise-seed", "negative-noise-seed", "master-seed", "negative-master-seed"])
def test_a_seed_outside_its_key_word_is_refused(seed, master_seed, message):
    # a seed beyond the key's word would draw another seed's noise, and a
    # negative one would fail only inside numpy, naming no field
    with pytest.raises(ValueError, match=message):
        DegradationChain(ops=(GaussianNoise(sigma=0.1, seed=seed),), master_seed=master_seed)


def test_the_last_seed_of_each_key_word_draws_noise_of_its_own():
    flat = np.full((16, 16), 0.5)

    def noisy(seed, master_seed):
        chain = DegradationChain(ops=(GaussianNoise(sigma=0.1, seed=seed),),
                                 master_seed=master_seed)
        return apply_chain(chain, [flat])[0]

    assert not np.array_equal(noisy(2 ** 32 - 1, 0), noisy(0, 0))
    assert not np.array_equal(noisy(0, 2 ** 64 - 1), noisy(0, 0))


DEFAULT = DegradationChain(DEFAULT_CHAIN, master_seed=5)
NOISE_FIRST = DegradationChain(ops=(GaussianNoise(sigma=0.1, seed=3),
                                    Downsample(scale=0.5, resample="bilinear"),
                                    GaussianBlur(sigma=1.0, kernel_size=5)), master_seed=2)
ORACLE_CASES = {
    "default": (DEFAULT, 6, (24, 32)),
    "empty chain": (DegradationChain(), 3, (24, 32)),
    "noise before downsample": (NOISE_FIRST, 4, (24, 32)),
    "odd size": (DEFAULT, 3, (13, 7)),
    "one row": (DEFAULT, 3, (1, 9)),
    "one column": (DEFAULT, 3, (9, 1)),
    "one frame": (DEFAULT, 1, (24, 32)),
}


def random_sequence(num_frames, shape, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(size=shape) for _ in range(num_frames)]


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_sequence_equals_the_per_frame_reference(case):
    chain, num_frames, shape = ORACLE_CASES[case]
    frames = random_sequence(num_frames, shape)
    got = apply_chain(chain, frames, sequence_id="seq-7")
    assert len(got) == num_frames
    for index, (frame, out) in enumerate(zip(frames, got)):
        ref = reference_apply_chain(chain, frame, sequence_id="seq-7", frame_index=index)
        assert out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()


# a frame degraded alone is column-major after a downsample, and a blur
# keeps the layout it is given
LAST_OP_CHAINS = {
    "blur": NOISE_FIRST,
    "downsample": DegradationChain(ops=(GaussianBlur(sigma=1.0, kernel_size=5),
                                        Downsample(scale=0.5, resample="bilinear"))),
    "noise": DEFAULT,
}


@pytest.mark.parametrize("chain", LAST_OP_CHAINS.values(), ids=LAST_OP_CHAINS)
def test_the_block_is_c_ordered_whatever_op_ends_the_chain(chain):
    frames = random_sequence(3, (24, 32))
    got = apply_chain(chain, frames, sequence_id="seq-7")
    assert got[0].base.flags.c_contiguous
    for index, (frame, out) in enumerate(zip(frames, got)):
        assert out.flags.c_contiguous
        ref = reference_apply_chain(chain, frame, sequence_id="seq-7", frame_index=index)
        assert out.tobytes() == ref.tobytes()


def test_a_fortran_ordered_frame_is_degraded_as_its_c_ordered_copy():
    # a blur keeps its input's layout
    chain = DegradationChain(ops=(GaussianBlur(sigma=1.0, kernel_size=5),))
    frames = random_sequence(2, (13, 7))
    got = apply_chain(chain, [np.asfortranarray(frame) for frame in frames])
    for index, (frame, out) in enumerate(zip(frames, got)):
        ref = reference_apply_chain(chain, frame, frame_index=index)
        assert out.tobytes() == ref.tobytes()
        assert out.strides == ref.strides


def test_the_caller_frames_are_left_unchanged():
    frames = random_sequence(3, (16, 12))
    copies = [frame.copy() for frame in frames]
    apply_chain(NOISE_FIRST, frames)
    apply_chain(DegradationChain(), frames)
    assert all(np.array_equal(a, b) for a, b in zip(frames, copies))


@pytest.mark.parametrize("chain", [DEFAULT, NOISE_FIRST, DegradationChain()],
                         ids=["default", "noise-first", "empty"])
def test_the_returned_block_cannot_be_written(chain):
    # the block is what every frame's base is
    frames = apply_chain(chain, random_sequence(3, (16, 12)))
    block = frames[0].base
    assert all(frame.base is block for frame in frames)
    for array in (*frames, block):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.5


@pytest.mark.parametrize("count", [1, 8])
def test_output_does_not_depend_on_the_worker_count(monkeypatch, count):
    # 8 workers, more than the CPUs, switching often: a frame written into
    # another's slice, or read from another's buffers, would show
    frames = random_sequence(12, (24, 32))
    default = apply_chain(DEFAULT, frames, sequence_id="seq-1")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=count) as pool:
            monkeypatch.setattr(workers, "_pool", pool)
            got = apply_chain(DEFAULT, frames, sequence_id="seq-1")
    finally:
        sys.setswitchinterval(interval)
    assert [a.tobytes() for a in default] == [b.tobytes() for b in got]


def test_degrading_never_leaves_more_threads_than_cpus(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    before = set(threading.enumerate())

    def started():
        return set(threading.enumerate()) - before

    monkeypatch.setattr(workers, "_pool", None)
    try:
        apply_chain(DEFAULT, random_sequence(1, (8, 8)))
        assert started() == set()           # the caller's thread degrades frame 0
        apply_chain(DEFAULT, random_sequence(2, (8, 8)))
        assert len(started()) == 1
        for _ in range(3):
            apply_chain(DEFAULT, random_sequence(4 * cpus, (8, 8)))
            assert 1 <= len(started()) <= cpus
        # a training step hands its products to the same pool
        config = replace(ExperimentConfig(), num_train_scenes=1)
        train(build_model(config, "full"), training_corpus(config), config.train_config(),
              config.dswr)
        assert 1 <= len(started()) <= cpus
    finally:
        workers._pool.shutdown(wait=True)
    assert started() == set()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5, 1.5])
def test_a_bad_frame_is_named_and_stops_every_frame(monkeypatch, bad):
    frames = random_sequence(3, (8, 8))
    frames[2][4, 4] = bad
    degraded = []
    monkeypatch.setattr(degrade, "_degrade_frame", lambda *args: degraded.append(args))
    with pytest.raises(ValueError, match=r"frame 2 must hold finite values in \[0, 1\]"):
        apply_chain(DEFAULT, frames)
    assert degraded == []


def test_frames_of_one_sequence_must_share_a_shape():
    with pytest.raises(ValueError, match=r"frame 1 has shape \(8, 9\)"):
        apply_chain(DEFAULT, [np.zeros((8, 8)), np.zeros((8, 9))])
    with pytest.raises(ValueError, match="frame 0 must be a non-empty 2-D array"):
        apply_chain(DEFAULT, [np.zeros(8)])
    assert apply_chain(DEFAULT, []) == []


def test_op_validation():
    with pytest.raises(ValueError):
        GaussianBlur(sigma=-1.0, kernel_size=3)
    with pytest.raises(ValueError):
        GaussianBlur(sigma=1.0, kernel_size=4)
    with pytest.raises(ValueError):
        Downsample(scale=0.0)
    with pytest.raises(ValueError):
        Downsample(scale=0.5, resample="cubic")
    with pytest.raises(ValueError):
        GaussianNoise(sigma=-0.1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="blur sigma must be finite"):
            GaussianBlur(sigma=bad, kernel_size=3)
        with pytest.raises(ValueError, match="noise sigma must be finite"):
            GaussianNoise(sigma=bad)
        with pytest.raises(ValueError, match="scale must be in"):
            Downsample(scale=bad)


def test_partition_two_thirds_low():
    ids = [f"seq{i}" for i in range(9)]
    low, high = partition_sequences(ids, (2, 1), seed=4)
    assert len(low) == 6 and len(high) == 3
    assert sorted(low + high) == sorted(ids)


def test_partition_all_low_and_rejections():
    ids = ["a", "b", "c"]
    low, high = partition_sequences(ids, (1, 0), seed=0)
    assert low == sorted(ids) and high == []
    with pytest.raises(ValueError):
        partition_sequences(ids, (0, 1), seed=0)
    with pytest.raises(ValueError):
        partition_sequences([], (2, 1), seed=0)


def test_an_op_kind_is_fixed_by_its_class():
    # a snapshot names each op's class by its kind, so no op may carry another
    assert [op.kind for op in DEFAULT_CHAIN] == ["gaussian_blur", "downsample",
                                                 "gaussian_noise"]
    with pytest.raises(TypeError, match="kind"):
        GaussianBlur(sigma=1.0, kernel_size=3, kind="downsample")
    with pytest.raises(TypeError, match="kind"):
        Downsample(scale=0.5, kind="downsample")
    with pytest.raises(TypeError, match="kind"):
        GaussianNoise(sigma=0.1, kind="gaussian_blur")
