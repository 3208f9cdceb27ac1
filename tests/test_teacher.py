import json

import numpy as np
import pytest

from semtrack import autodiff as ad
from semtrack import teacher
from semtrack.autodiff import Matrix, Parameter, Tape
from semtrack.teacher import (TEACHER_DIM, TeacherEmbedding, TeacherFormatError,
                              load_embeddings, pseudo_teacher, save_embeddings)


def _write_records(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def test_load_three_records(tmp_path):
    path = tmp_path / "emb.jsonl"
    _write_records(path, [{"frame": i, "values": [float(i)] * TEACHER_DIM} for i in range(3)])
    loaded = load_embeddings(path)
    assert set(loaded) == {0, 1, 2}
    assert loaded[2].vector.data[0, 0] == 2.0
    assert loaded[0].source == "file"


def test_wrong_dimension_error_cites_expected(tmp_path):
    path = tmp_path / "emb.jsonl"
    _write_records(path, [{"frame": 5, "values": [0.0] * 512}])
    with pytest.raises(TeacherFormatError, match="frame 5.*1024"):
        load_embeddings(path)


def test_duplicate_frame_rejected(tmp_path):
    path = tmp_path / "emb.jsonl"
    _write_records(path, [{"frame": 1, "values": [0.0] * TEACHER_DIM}] * 2)
    with pytest.raises(TeacherFormatError, match="duplicate frame 1"):
        load_embeddings(path)


def test_malformed_record_names_line(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"frame": 0, "values": [0.0]}\nnot json\n')
    with pytest.raises(TeacherFormatError):
        load_embeddings(path)


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_embeddings("/nonexistent/embeddings.jsonl")


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    original = {
        i: TeacherEmbedding(Matrix(rng.standard_normal((1, TEACHER_DIM))), "pseudo")
        for i in range(4)
    }
    path = tmp_path / "emb.jsonl"
    save_embeddings(original, path)
    loaded = load_embeddings(path)
    for i in range(4):
        assert np.array_equal(loaded[i].vector.data, original[i].vector.data)


def test_pseudo_teacher_deterministic():
    frame = np.random.default_rng(1).uniform(0, 1, size=(48, 64))
    a = pseudo_teacher(frame, seed=7)
    b = pseudo_teacher(frame, seed=7)
    assert np.array_equal(a.vector.data, b.vector.data)
    c = pseudo_teacher(frame, seed=8)
    assert not np.array_equal(a.vector.data, c.vector.data)


def test_pseudo_teacher_zero_frame_is_zero():
    out = pseudo_teacher(np.zeros((32, 32)), seed=3)
    assert np.array_equal(out.vector.data, np.zeros((1, TEACHER_DIM)))


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
        assert not np.array_equal(a.vector.data, b.vector.data), f"trial {trial}"


def test_pseudo_teacher_small_frames_supported():
    out = pseudo_teacher(np.full((3, 5), 0.25), seed=0)
    assert out.vector.shape == (1, TEACHER_DIM)


def test_teacher_never_receives_gradient():
    t = pseudo_teacher(np.random.default_rng(2).uniform(0, 1, (20, 20)), seed=1)
    w = Parameter(np.random.default_rng(3).standard_normal((TEACHER_DIM, 4)))
    with Tape() as tape:
        out = ad.matmul(t.vector, w.value)
        tape.backward(ad.sum_all(out))
    assert t.vector.grad is None
    assert w.value.grad is not None


def test_embedding_shape_enforced():
    with pytest.raises(TeacherFormatError):
        TeacherEmbedding(Matrix(np.zeros((1, 512))), "file")


def test_projection_is_built_once_and_read_only():
    first = teacher._projection(11)
    assert teacher._projection(11) is first
    assert first.shape == (256, TEACHER_DIM)
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 1.0
