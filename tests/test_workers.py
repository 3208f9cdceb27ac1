"""The shared worker pool and the weight gradients a taped linear hands to
it: the same bits as inline, buffers that :meth:`Parameter.step` can take
over, no pool call while tracking, and no thread at all on one CPU."""

import os
import pathlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from semtrack import autodiff as ad
from semtrack import tracker, workers
from semtrack.autodiff import Matrix, Tape
from semtrack.config import ExperimentConfig, SceneParams
from semtrack.experiment import build_model, training_corpus
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
