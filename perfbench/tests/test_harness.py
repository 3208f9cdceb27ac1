"""Tests of the benchmark harness itself: tracer bindings and spans, the
metrics a run emits, and the correctness checks. They assert nothing about
the program's call counts or speed, which later changes are meant to move.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
import types
from dataclasses import replace
from pathlib import Path

import pytest

from semtrack import autodiff, distill, experiment, metrics, student, teacher, tracker, \
    tracks, training

from perfbench import layers, run, workloads
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


def _bindings():
    return {
        "training.pseudo_teacher": training.pseudo_teacher,
        "teacher.pseudo_teacher": teacher.pseudo_teacher,
        "tracker.assess_quality": tracker.assess_quality,
        "metrics.box_iou": metrics.box_iou,
        "tracker.box_iou": tracker.box_iou,
        "experiment.track_sequence": experiment.track_sequence,
        "StudentModel.forward": student.StudentModel.__dict__["forward"],
        "DcsdHead.loss": distill.DcsdHead.__dict__["loss"],
        "Tape.backward": autodiff.Tape.__dict__["backward"],
    }


def test_tracer_restores_every_binding_even_after_an_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer("semtrack") as tracer:
            layers.install(tracer)
            during = _bindings()
            raise RuntimeError("boom")
    assert all(during[k] is not before[k] for k in before)
    assert all(_bindings()[k] is before[k] for k in before)


def test_tracer_rejects_a_function_bound_nowhere():
    with Tracer("semtrack") as tracer, pytest.raises(LookupError):
        tracer.trace_function(lambda: None, "nowhere")


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.work")

    # callees are looked up on the module, as package code looks up its globals
    def leaf():
        time.sleep(0.002)

    def middle():
        mod.leaf()
        time.sleep(0.001)
        mod.leaf()

    def top():
        mod.middle()
        mod.leaf()

    mod.leaf, mod.middle, mod.top = leaf, middle, top
    pkg.work = mod
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.work", mod)
    return mod


def test_children_fall_inside_parent_and_self_time_is_bounded(fake_package):
    mod = fake_package
    with Tracer("fakepkg") as tracer:
        tracer.trace_function(mod.top, "top")
        tracer.trace_function(mod.middle, "middle")
        tracer.trace_function(mod.leaf, "leaf")
        mod.top()
    names = [s.name for s in tracer.spans]
    assert names == ["top", "middle", "leaf", "leaf", "leaf"]
    for span in tracer.spans:
        if span.parent is not None:
            parent = tracer.spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    for span, own in zip(tracer.spans, tracer.self_times()):
        assert 0.0 <= own <= span.duration
    assert [tracer.spans[s.parent].name for s in tracer.spans[1:]] == \
        ["top", "middle", "middle", "top"]


def _tiny(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    scene = replace(w.config.scene, num_frames=4)
    return replace(w, config=replace(w.config, scene=scene, num_train_scenes=1,
                                     num_eval_scenes=1))


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", ["train-full", "track-crowded"])
def test_tiny_run_emits_every_end_to_end_metric_with_its_unit(name):
    result = workloads.run_end_to_end(_tiny(name), seed=1, seconds=0)
    line = run.report(result, _spec()["end_to_end"])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in line["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in _spec()["end_to_end"]]
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_tiny_traced_run_emits_every_per_layer_metric_and_matches_untraced(tmp_path):
    result = workloads.run_traced(_tiny("train-full"), seed=1, out_dir=tmp_path)
    line = run.report(result, _spec()["per_layer"])
    assert line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in _spec()["per_layer"]]
    assert set(layers.LAYER_MAP) == set(line["metrics"])
    spans = (tmp_path / "spans-train-full-seed1.jsonl").read_text().splitlines()
    assert json.loads(spans[0])["name"] and "counts" in json.loads(spans[-1])


def test_a_repeat_that_differs_is_a_failed_operation(monkeypatch):
    real = tracker.track_sequence
    calls = []

    def drifting(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(1)
        if len(calls) > 1:   # every repeat drops its first record
            out = tracks.TrackSet(out.records[1:])
        return out

    monkeypatch.setattr(tracker, "track_sequence", drifting)
    result = workloads.run_end_to_end(_tiny("track-crowded"), seed=1, seconds=0)
    assert not result["correct"] and result["failed"] >= 2


def test_without_program_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-full",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_every_workload_is_declared_in_benchmark_json():
    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)
