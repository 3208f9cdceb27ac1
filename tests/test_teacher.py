import numpy as np
import pytest

from semtrack import autodiff as ad
from semtrack import teacher
from semtrack.autodiff import DimensionError, Matrix, Parameter, Tape
from semtrack.distill import DcsdHead
from semtrack.teacher import TEACHER_DIM, pseudo_teacher


def test_pseudo_teacher_deterministic():
    frame = np.random.default_rng(1).uniform(0, 1, size=(48, 64))
    a = pseudo_teacher(frame, seed=7)
    b = pseudo_teacher(frame, seed=7)
    assert np.array_equal(a, b)
    c = pseudo_teacher(frame, seed=8)
    assert not np.array_equal(a, c)


def test_pseudo_teacher_zero_frame_is_zero():
    out = pseudo_teacher(np.zeros((32, 32)), seed=3)
    assert np.array_equal(out, np.zeros((1, TEACHER_DIM)))


def test_pseudo_teacher_sensitive_to_single_pixel():
    # empirically: any one-pixel change must move the embedding
    rng = np.random.default_rng(123)
    for trial in range(100):
        h, w = int(rng.integers(16, 40)), int(rng.integers(16, 40))
        frame = rng.uniform(0, 1, size=(h, w))
        r, c = int(rng.integers(h)), int(rng.integers(w))
        bumped = frame.copy()
        bumped[r, c] = 1.0 - bumped[r, c] if abs(1.0 - 2 * bumped[r, c]) > 0.1 else 0.0
        a = pseudo_teacher(frame, seed=trial)
        b = pseudo_teacher(bumped, seed=trial)
        assert not np.array_equal(a, b), f"trial {trial}"


def test_pseudo_teacher_small_frames_supported():
    out = pseudo_teacher(np.full((3, 5), 0.25), seed=0)
    assert out.shape == (1, TEACHER_DIM)


def test_teacher_never_receives_gradient():
    t = Matrix(pseudo_teacher(np.random.default_rng(2).uniform(0, 1, (20, 20)), seed=1))
    w = Parameter(np.random.default_rng(3).standard_normal((TEACHER_DIM, 4)))
    with Tape() as tape:
        out = ad.matmul(t, w.value)
        tape.backward(ad.sum_all(out))
    assert t.grad is None
    assert w.value.grad is not None


def test_embedding_shape_enforced():
    # the teacher projection reads 1024-wide rows and turns any other width away
    with pytest.raises(DimensionError, match="linear shape mismatch"):
        DcsdHead(seed=0).loss(Matrix(np.zeros((2, 256))), [0, 0], Matrix(np.zeros((1, 512))))


def test_projection_is_built_once_and_read_only():
    first = teacher._projection(11)
    assert teacher._projection(11) is first
    assert first.shape == (256, TEACHER_DIM)
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 1.0


def block_average_loop(frame):
    """Reference pooling: repeat small frames up to 16 px, then one Python
    ``mean`` per block of the 16x16 grid."""
    h, w = frame.shape
    if h < 16:
        frame = np.repeat(frame, -(-16 // h), axis=0)
        h = frame.shape[0]
    if w < 16:
        frame = np.repeat(frame, -(-16 // w), axis=1)
        w = frame.shape[1]
    row_edges = (np.arange(17) * h) // 16
    col_edges = (np.arange(17) * w) // 16
    pooled = np.empty((16, 16))
    for i in range(16):
        for j in range(16):
            pooled[i, j] = frame[row_edges[i]:row_edges[i + 1],
                                 col_edges[j]:col_edges[j + 1]].mean()
    return pooled


@pytest.mark.parametrize("shape", [(96, 128), (5, 7), (1, 40), (37, 53), (16, 16)],
                         ids=["default", "small", "one-row", "uneven", "exact"])
def test_block_average_matches_loop(shape):
    # summation order differs from the per-block mean, so equal to 1e-12,
    # not bit for bit
    frame = np.random.default_rng(sum(shape)).uniform(0, 1, size=shape)
    pooled = teacher._block_average(frame)
    assert pooled.shape == (16, 16)
    assert np.allclose(pooled, block_average_loop(frame), rtol=0.0, atol=1e-12)
