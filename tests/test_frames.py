import numpy as np
import pytest

from semtrack.frames import bilinear_taps, resize

from oracles import reference_bilinear_resize

SIZES = [(1, 1), (1, 7), (7, 1), (2, 2), (5, 9), (16, 12), (48, 64)]


@pytest.mark.parametrize("in_size, out_size",
                         [(a, b) for a in SIZES for b in SIZES if a != b])
def test_bilinear_resize_equals_the_reference_formula(in_size, out_size):
    # equal bit for bit and laid out alike in memory: later reductions over a
    # resized frame sum in memory order
    frame = np.random.default_rng(sum(in_size) * 100 + sum(out_size)).uniform(size=in_size)
    got = resize(frame, *out_size, "bilinear")
    ref = reference_bilinear_resize(frame, *out_size)
    assert got.shape == out_size
    assert got.tobytes() == ref.tobytes()
    assert got.strides == ref.strides


@pytest.mark.parametrize("in_size, out_size",
                         [(a, b) for a in SIZES for b in SIZES if a != b])
def test_nearest_resize_takes_the_pixel_nearest_each_sample_point(in_size, out_size):
    def nearest(size, out):   # half-pixel centres, rounded half to even
        return np.clip(np.rint((np.arange(out) + 0.5) * size / out - 0.5).astype(int),
                       0, size - 1)

    frame = np.random.default_rng(sum(in_size) * 100 + sum(out_size)).uniform(size=in_size)
    expected = frame[nearest(in_size[0], out_size[0])][:, nearest(in_size[1], out_size[1])]
    assert np.array_equal(resize(frame, *out_size, "nearest"), expected)


def test_taps_of_many_lengths_are_each_lengths_own():
    sizes = np.array([[1, 2, 3], [8, 13, 64]])
    taps = bilinear_taps(sizes, 8)
    assert [t.shape for t in taps] == [(2, 3, 8)] * 3
    for index in np.ndindex(sizes.shape):
        for got, alone in zip(taps, bilinear_taps(int(sizes[index]), 8), strict=True):
            assert np.array_equal(got[index], alone)
    lo, hi, frac = taps
    assert np.all((0 <= lo) & (lo <= hi) & (hi < sizes[..., None]))
    assert np.all((0.0 <= frac) & (frac <= 1.0))


def test_an_unchanged_size_is_a_copy():
    frame = np.arange(12.0).reshape(3, 4)
    out = resize(frame, 3, 4)
    assert np.array_equal(out, frame) and out is not frame


@pytest.mark.parametrize("out_h, out_w", [(0, 4), (4, 0), (-1, 2)])
def test_non_positive_target_size_is_rejected(out_h, out_w):
    with pytest.raises(ValueError, match="target size must be positive"):
        resize(np.zeros((4, 4)), out_h, out_w)


def test_unknown_method_is_rejected():
    with pytest.raises(ValueError, match="unknown resample method"):
        resize(np.zeros((4, 4)), 2, 2, "bicubic")
