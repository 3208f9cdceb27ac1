import numpy as np
import pytest

from semtrack.degrade import (DEFAULT_CHAIN_SPEC, DegradationChain, Downsample, GaussianBlur,
                              GaussianNoise, apply_chain, op_from_dict, partition_sequences)
from semtrack.quality import assess_quality


def checkerboard(h=40, w=40, cell=4):
    rows = (np.arange(h) // cell)[:, None]
    cols = (np.arange(w) // cell)[None, :]
    return ((rows + cols) % 2).astype(np.float64)


def test_empty_chain_is_identity():
    frame = checkerboard()
    out = apply_chain(DegradationChain(), frame)
    assert np.array_equal(out, frame)


def test_degenerate_ops_are_identity():
    frame = checkerboard()
    chain = DegradationChain(ops=(GaussianNoise(sigma=0.0),
                                  GaussianBlur(sigma=2.0, kernel_size=1)))
    out = apply_chain(chain, frame)
    assert np.array_equal(out, frame)


def test_chain_preserves_shape_and_range():
    frame = checkerboard()
    out = apply_chain(DegradationChain.from_spec(DEFAULT_CHAIN_SPEC, master_seed=3), frame)
    assert out.shape == frame.shape
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_composition_is_order_sensitive():
    frame = checkerboard()
    down = Downsample(scale=0.5, resample="bilinear")
    noise = GaussianNoise(sigma=0.05, seed=1)
    a = apply_chain(DegradationChain(ops=(down, noise), master_seed=9), frame)
    b = apply_chain(DegradationChain(ops=(noise, down), master_seed=9), frame)
    assert not np.array_equal(a, b)


def test_determinism_given_seeds():
    frame = np.random.default_rng(1).uniform(0, 1, size=(32, 48))
    chain = DegradationChain.from_spec(DEFAULT_CHAIN_SPEC, master_seed=11)
    a = apply_chain(chain, frame, sequence_id="seq-3", frame_index=5)
    b = apply_chain(chain, frame, sequence_id="seq-3", frame_index=5)
    assert np.array_equal(a, b)
    c = apply_chain(chain, frame, sequence_id="seq-3", frame_index=6)
    assert not np.array_equal(a, c)
    d = apply_chain(DegradationChain.from_spec(DEFAULT_CHAIN_SPEC, master_seed=12), frame,
                    sequence_id="seq-3", frame_index=5)
    assert not np.array_equal(a, d)


def test_blur_lowers_clarity_noise_raises_estimate():
    frame = checkerboard(64, 64)
    blurred = apply_chain(DegradationChain(
        ops=(GaussianBlur(sigma=1.5, kernel_size=7),)), frame)
    assert assess_quality(blurred).clarity < assess_quality(frame).clarity
    flat = np.full((64, 64), 0.5)
    noisy = apply_chain(DegradationChain(ops=(GaussianNoise(sigma=0.05, seed=2),)), flat)
    assert assess_quality(noisy).noise_sigma > assess_quality(flat).noise_sigma


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


def test_op_from_dict_rejects_unknown_keys():
    spec = {"kind": "gaussian_blur", "sigma": 1.0, "kernel_size": 3}
    assert op_from_dict(spec) == GaussianBlur(sigma=1.0, kernel_size=3)
    with pytest.raises(ValueError, match=r"gaussian_blur: unknown keys \['bogus'\]"):
        op_from_dict(dict(spec, bogus=1))


def test_op_from_dict_rejects_missing_keys():
    with pytest.raises(ValueError,
                       match=r"gaussian_blur: missing keys \['sigma', 'kernel_size'\]"):
        op_from_dict({"kind": "gaussian_blur"})
    with pytest.raises(ValueError, match=r"downsample: missing keys \['scale'\]"):
        op_from_dict({"kind": "downsample", "resample": "nearest"})
    assert op_from_dict({"kind": "gaussian_noise", "sigma": 0.1}) == GaussianNoise(sigma=0.1)
