"""The shared worker pool, the weight gradients a taped linear hands to it,
which the tape joins only when it must, and the forward products it makes
half of: the same bits as inline, buffers that :meth:`Parameter.step` can
take over, every worker done before an error propagates, no pool call while
tracking or outside a tape, and no thread at all on one CPU."""

import os
import pathlib
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from semtrack import autodiff as ad
from semtrack import tracker, workers
from semtrack.autodiff import Matrix, Tape
from semtrack.config import ExperimentConfig, SceneParams
from semtrack.experiment import build_model, training_corpus
from semtrack.student import StudentModel
from semtrack.training import scene_losses

# the benchmark's track-crowded scenes
CROWDED_SCENE = SceneParams(width=256, height=192, num_frames=64, num_targets=16,
                            motion_jitter=0.5)


@pytest.fixture(scope="module")
def scenes():
    """Scene name -> (config, its one training scene)."""
    default = replace(ExperimentConfig(), num_train_scenes=1)
    crowded = replace(default, scene=CROWDED_SCENE)
    return {name: (config, training_corpus(config)[0])
            for name, config in (("default", default), ("crowded", crowded))}


def taped_step(config, sample):
    """A ``full`` model and its loss after one taped forward and backward on
    ``sample``; the gradients are left in the leaves."""
    model = build_model(config, "full")
    with Tape() as tape:
        total = scene_losses(model, sample, config.train_config(), config.dswr)["total"]
        tape.backward(total)
    return model, total


def gradients(model):
    return {name: p.value.grad for name, p in model.named_parameters().items()}


class CountingPool(ThreadPoolExecutor):
    """A pool that counts the tasks it is given."""

    def __init__(self, workers: int):
        super().__init__(max_workers=workers)
        self.submitted = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submitted += 1
        return super().submit(fn, *args, **kwargs)


def cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.mark.parametrize("scene", ["default", "crowded"])
def test_handing_products_off_changes_no_bit(monkeypatch, scenes, scene):
    # 8 workers, switching often: a product written into another's buffer,
    # or read before its worker is done, would show
    config, sample = scenes[scene]
    cpus(monkeypatch, 1)
    inline_model, inline_total = taped_step(config, sample)
    cpus(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with CountingPool(8) as pool:
            monkeypatch.setattr(workers, "_pool", pool)
            model, total = taped_step(config, sample)
    finally:
        sys.setswitchinterval(interval)
    assert pool.submitted > 0
    assert total.data.tobytes() == inline_total.data.tobytes()
    inline, handed = gradients(inline_model), gradients(model)
    assert [n for n, g in handed.items() if g is None] == \
        [n for n, g in inline.items() if g is None]
    for name, grad in inline.items():
        if grad is not None:
            assert handed[name].tobytes() == grad.tobytes(), name


def shared_weight_step(arrays):
    """The leaf gradients of a tape on which one weight feeds two linears
    directly and a third through ``scale``: the weight's leaf gets a handed-off
    gradient, then a second one while the first may still be running, and
    the scaled copy's product is joined at once, as its input was produced."""
    x, w, c = arrays
    inp, weight = Matrix(x, requires_grad=True), Matrix(w, requires_grad=True)
    bias = Matrix(np.zeros((1, w.shape[1])), requires_grad=True)
    with Tape() as tape:
        h = ad.linear(ad.linear(inp, weight, bias), weight, bias)
        out = ad.linear(h, ad.scale(weight, 0.5), bias)
        tape.backward(ad.sum_all(ad.multiply(out, Matrix(c))))
    return [leaf.grad for leaf in (inp, weight, bias)]


def test_deferred_joins_keep_every_bit(monkeypatch):
    rng = np.random.default_rng(3)
    arrays = (rng.normal(size=(96, 256)), rng.normal(size=(256, 256)) / 16,
              rng.normal(size=(96, 256)))
    cpus(monkeypatch, 1)
    inline = shared_weight_step(arrays)
    cpus(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with CountingPool(8) as pool:
            monkeypatch.setattr(workers, "_pool", pool)
            handed = shared_weight_step(arrays)
    finally:
        sys.setswitchinterval(interval)
    # three weight gradients and three forward products' halves
    assert pool.submitted == 6
    for grad, expected in zip(handed, inline):
        assert grad.tobytes() == expected.tobytes()


class RecordingPool(CountingPool):
    """A pool that keeps every future it hands out."""

    def __init__(self, workers: int):
        super().__init__(workers)
        self.futures = []

    def submit(self, fn, /, *args, **kwargs):
        future = super().submit(fn, *args, **kwargs)
        self.futures.append(future)
        return future


def test_backward_raises_a_worker_error_only_once_every_product_is_done(monkeypatch):
    cpus(monkeypatch, 2)
    rng = np.random.default_rng(4)
    x = Matrix(rng.normal(size=(16, 256)), requires_grad=True)
    weights = [Matrix(rng.normal(size=(256, 256)) / 16, requires_grad=True)
               for _ in range(3)]
    bias = Matrix(np.zeros((1, 256)))
    with Tape() as tape:
        h = x
        for weight in weights:
            h = ad.linear(h, weight, bias)
        loss = ad.sum_all(h)
    matmul = np.matmul
    calls = []

    def first_refused(*args, **kwargs):
        # the first product handed off raises at once; the others take long
        calls.append(None)
        if len(calls) == 1:
            raise FloatingPointError("refused")
        time.sleep(0.05)
        return matmul(*args, **kwargs)

    with RecordingPool(8) as pool:
        monkeypatch.setattr(workers, "_pool", pool)
        # the caller's own products are ``@``, which does not read np.matmul
        monkeypatch.setattr(np, "matmul", first_refused)
        with pytest.raises(FloatingPointError, match="refused"):
            tape.backward(loss)
        assert len(pool.futures) == 3
        assert all(future.done() for future in pool.futures)


def split_products(monkeypatch, config, sample):
    """Every (x, weight) pair a taped step on ``sample`` splits by rows, each
    with its split and its single product."""
    split = ad._row_halves
    seen = []

    def spy(x, weight):
        out = split(x, weight)
        # a copy, as the caller adds its bias into ``out``
        seen.append(((x.shape, weight.shape), out.copy(), x @ weight))
        return out

    monkeypatch.setattr(ad, "_row_halves", spy)
    taped_step(config, sample)
    return seen


@pytest.mark.parametrize("scene", ["default", "crowded"])
def test_a_split_product_equals_the_single_product_bit_for_bit(monkeypatch, scenes, scene):
    cpus(monkeypatch, 2)
    seen = split_products(monkeypatch, *scenes[scene])
    shapes = {shape for shape, _, _ in seen}
    # at least the student's products: its input, query, key, value, output
    # and feed-forward projections, at each scene's rows
    assert {(k, n) for (_, k), (_, n) in shapes} >= {(256, 256), (256, 1024), (1024, 256)}
    for shape, out, single in seen:
        assert out.tobytes() == single.tobytes(), shape


@pytest.mark.parametrize("m, k, n", [(2, 256, 4096), (3, 256, 4096), (984, 256, 4),
                                     (14, 256, 4)])
def test_the_row_split_refuses_one_row_halves_and_small_halves(monkeypatch, m, k, n):
    cpus(monkeypatch, 2)
    assert not ad._splits_rows(m, k, n)


def test_the_row_split_runs_on_two_cpus_only(monkeypatch):
    cpus(monkeypatch, 2)
    assert ad._splits_rows(96, 256, 256) and ad._splits_rows(4, 1024, 1024)
    cpus(monkeypatch, 1)
    assert not ad._splits_rows(96, 256, 256)


def test_an_untaped_float64_forward_makes_no_pool_call(monkeypatch):
    def refuse():
        raise AssertionError("an untaped forward called the worker pool")

    cpus(monkeypatch, 2)
    monkeypatch.setattr(workers, "pool", refuse)
    x = np.random.default_rng(5).normal(size=(96, 256))
    out = StudentModel().forward(Matrix(x), [0] * 96)
    assert out.shape == (96, 256)


def test_a_worker_exception_reaches_the_caller(monkeypatch):
    def refuse(*args, **kwargs):
        raise FloatingPointError(f"refused on {threading.current_thread().name}")

    cpus(monkeypatch, 2)
    rng = np.random.default_rng(0)
    x = Matrix(rng.normal(size=(16, 256)), requires_grad=True)
    weight = Matrix(rng.normal(size=(256, 256)), requires_grad=True)
    bias = Matrix(np.zeros((1, 256)))
    with Tape() as tape:
        loss = ad.sum_all(ad.linear(x, weight, bias))
    with CountingPool(2) as pool:
        monkeypatch.setattr(workers, "_pool", pool)
        # the caller's own product is ``@``, which does not read np.matmul
        monkeypatch.setattr(np, "matmul", refuse)
        with pytest.raises(FloatingPointError, match="refused on ThreadPoolExecutor"):
            tape.backward(loss)
    assert pool.submitted == 1


def test_every_gradient_is_a_buffer_the_step_takes_over(monkeypatch, scenes):
    config, sample = scenes["default"]
    cpus(monkeypatch, 2)
    with CountingPool(2) as pool:
        monkeypatch.setattr(workers, "_pool", pool)
        model, _ = taped_step(config, sample)
    assert pool.submitted > 0
    grads = {name: g for name, g in gradients(model).items() if g is not None}
    assert {name for name, p in model.named_parameters().items() if p.trainable} == \
        grads.keys()
    for name, grad in grads.items():
        assert grad.dtype == np.float64, name
        assert grad.flags.c_contiguous and grad.base is None, name
    model.step(0.01)
    for name, p in model.named_parameters().items():
        if name in grads:
            assert p.value.data is grads[name], name


def test_tracking_makes_no_pool_call(monkeypatch, default_evaluation):
    def refuse():
        raise AssertionError("tracking called the worker pool")

    config, corpus = default_evaluation
    cpus(monkeypatch, 2)
    monkeypatch.setattr(workers, "pool", refuse)
    sample = corpus[0]
    tracks = tracker.track_sequence(sample.frames, sample.detections,
                                    build_model(config, "full"), config.dswr)
    assert len(tracks) > 0


def test_the_program_has_one_thread_pool():
    source = pathlib.Path(workers.__file__).parent
    threaded = [path.name for path in sorted(source.rglob("*.py"))
                if any(name in path.read_text()
                       for name in ("ThreadPoolExecutor", "threading", "multiprocessing"))]
    assert threaded == ["workers.py"]


def test_a_step_on_one_cpu_starts_no_thread(monkeypatch, scenes):
    cpus(monkeypatch, 1)
    monkeypatch.setattr(workers, "_pool", None)
    before = set(threading.enumerate())
    taped_step(*scenes["default"])
    assert set(threading.enumerate()) == before
    assert workers._pool is None
