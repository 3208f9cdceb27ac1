"""Trace points at the public calls into each ``semtrack`` module, and the
per-layer metrics computed from the spans they record.

``frames`` and ``config`` are not traced: their cost shows inside the callers.
``LAYER_MAP`` says which end-to-end metric each per-layer metric should move,
and on which workload; it is written down before any optimisation is
measured, so a later change can be checked against it.
"""

from __future__ import annotations

from collections import defaultdict

from semtrack import (autodiff, degrade, distill, experiment, metrics, quality,
                      scenes, student, teacher, tracker, tracks, training)

from perfbench.tracer import Tracer

# per-layer metric -> (end-to-end metric it should move, workloads)
LAYER_MAP: dict[str, tuple[str, str]] = {
    # track-crowded trains the student-free baseline, so the tape moves its
    # train_scenes_per_s a little too
    "autodiff.tape_ops_per_step": ("train_scenes_per_s", "train-full"),
    "autodiff.backward.s": ("train_scenes_per_s", "train-full"),
    "training.train.s": ("train_scenes_per_s", "all"),
    "training.scene_losses.s": ("train_scenes_per_s", "train-full"),
    "training.optimizer.s": ("train_scenes_per_s", "train-full"),
    "training.match_detections_to_gt.s": ("train_scenes_per_s", "track-crowded"),
    "student.forward.calls": ("train_scenes_per_s, track_fps", "train-full"),
    "student.forward.rows_mean": ("train_scenes_per_s, track_fps", "train-full"),
    "student.forward.s": ("train_scenes_per_s, track_fps", "train-full"),
    "student.forward.calls_per_train_frame": ("train_scenes_per_s", "train-full"),
    "student.forward.calls_per_track_frame": ("track_fps", "train-full"),
    "teacher.pseudo_teacher.calls": ("train_scenes_per_s", "train-full"),
    "teacher.pseudo_teacher.s": ("train_scenes_per_s", "train-full"),
    "distill.loss.calls": ("train_scenes_per_s", "train-full"),
    "distill.loss.s": ("train_scenes_per_s", "train-full"),
    "quality.assess_quality.calls": ("track_fps, train_scenes_per_s", "train-full"),
    "quality.assess_quality.s": ("track_fps, train_scenes_per_s", "train-full"),
    "tracker.encode_queries.s": ("track_fps, train_scenes_per_s", "train-full"),
    "tracker.track_sequence.s": ("track_fps", "all"),
    "tracker.box_descriptor.calls": ("track_fps", "track-crowded"),
    "tracker.box_descriptor.s": ("track_fps", "track-crowded"),
    "tracker.linear_sum_assignment.calls": ("track_fps", "track-crowded"),
    "tracker.linear_sum_assignment.s": ("track_fps", "track-crowded"),
    "tracker.track_sequence.self_s": ("track_fps", "track-crowded"),
    "tracks.box_iou.calls.tracker": ("track_fps", "track-crowded"),
    "tracks.box_iou.calls.training": ("train_scenes_per_s", "track-crowded"),
    "tracks.box_iou.calls.metrics": ("eval_seqs_per_s", "track-crowded"),
    "metrics.evaluate.s": ("eval_seqs_per_s", "all"),
    "metrics.hota.s": ("eval_seqs_per_s", "track-crowded"),
    "metrics.mota.s": ("eval_seqs_per_s", "track-crowded"),
    "metrics.idf1.s": ("eval_seqs_per_s", "track-crowded"),
    "metrics.idsw": ("mota, idf1", "all"),
    "scenes.generate_scene.s": ("setup_s", "track-crowded"),
    "scenes.synth_detector.s": ("setup_s", "track-crowded"),
    "degrade.apply_chain.calls": ("setup_s", "track-crowded"),
    "degrade.apply_chain.s": ("setup_s", "track-crowded"),
    "experiment.training_corpus.s": ("setup_s", "all"),
    "experiment.evaluation_corpus.s": ("setup_s", "all"),
    "trace.overhead": ("none: traced over untraced time", "all"),
}


def _rows(args, kwargs) -> dict:
    return {"rows": args[1].rows}


def _tape_ops(args, kwargs) -> dict:
    # the tape has no public size; the record list is read, never changed
    return {"tape_ops": len(args[0]._records)}


def _scene_frames(args, kwargs) -> dict:
    return {"frames": len(args[1].frames)}


def _sequence_frames(args, kwargs) -> dict:
    return {"frames": len(args[0])}


def install(tracer: Tracer) -> None:
    """Wrap every traced call; ``tracer.close()`` undoes all of it."""
    tracer.trace_method(autodiff.Tape, "backward", "autodiff.backward", _tape_ops)
    tracer.trace_function(training.train, "training.train")
    tracer.trace_function(training.scene_losses, "training.scene_losses", _scene_frames)
    tracer.trace_function(training.match_detections_to_gt,
                          "training.match_detections_to_gt")
    tracer.trace_method(tracker.TrackerModel, "step", "training.optimizer")
    tracer.trace_method(tracker.TrackerModel, "zero_grads", "training.optimizer")
    tracer.trace_method(student.StudentModel, "forward", "student.forward", _rows)
    tracer.trace_function(teacher.pseudo_teacher, "teacher.pseudo_teacher")
    tracer.trace_method(distill.DcsdHead, "loss", "distill.loss")
    tracer.trace_function(quality.assess_quality, "quality.assess_quality")
    tracer.trace_method(tracker.TrackerModel, "encode_queries", "tracker.encode_queries")
    tracer.trace_function(tracker.box_descriptor, "tracker.box_descriptor")
    tracer.trace_function(tracker.linear_sum_assignment, "{module}.linear_sum_assignment")
    tracer.trace_function(tracker.track_sequence, "tracker.track_sequence",
                          _sequence_frames)
    tracer.count_function(tracks.box_iou, "tracks.box_iou.calls.{module}")
    tracer.trace_function(metrics.evaluate, "metrics.evaluate")
    tracer.trace_function(metrics.hota, "metrics.hota")
    tracer.trace_function(metrics.mota, "metrics.mota")
    tracer.trace_function(metrics.idf1, "metrics.idf1")
    tracer.trace_function(scenes.generate_scene, "scenes.generate_scene")
    tracer.trace_function(scenes.synth_detector, "scenes.synth_detector")
    tracer.trace_function(degrade.apply_chain, "degrade.apply_chain")
    tracer.trace_function(experiment.training_corpus, "experiment.training_corpus")
    tracer.trace_function(experiment.evaluation_corpus, "experiment.evaluation_corpus")


def layer_metrics(tracer: Tracer, idsw: int, overhead: float) -> dict[str, float]:
    """Every per-layer metric of ``LAYER_MAP`` from one traced pass; a layer
    the workload never enters reads 0."""
    calls: dict[str, int] = defaultdict(int)
    seconds: dict[str, float] = defaultdict(float)
    self_seconds: dict[str, float] = defaultdict(float)
    self_times = tracer.self_times()
    forward_rows = 0
    forwards_in = {"training.scene_losses": 0, "tracker.track_sequence": 0}
    frames_in = {"training.scene_losses": 0, "tracker.track_sequence": 0}
    tape_ops: list[int] = []
    for index, span in enumerate(tracer.spans):
        calls[span.name] += 1
        self_seconds[span.name] += self_times[index]
        ancestors = {a.name for a in tracer.ancestors(index)}
        if span.name not in ancestors:   # inclusive time counts the outermost span only
            seconds[span.name] += span.duration
        if span.name in frames_in:
            frames_in[span.name] += span.attrs["frames"]
        elif span.name == "student.forward":
            forward_rows += span.attrs["rows"]
            for caller in forwards_in.keys() & ancestors:
                forwards_in[caller] += 1
        elif span.name == "autodiff.backward":
            tape_ops.append(span.attrs["tape_ops"])

    def per(count: int, base: int) -> float:
        return count / base if base else 0.0

    out: dict[str, float] = {}
    for metric in LAYER_MAP:
        layer, _, kind = metric.rpartition(".")
        if kind == "s":
            out[metric] = seconds[layer]
        elif kind == "self_s":
            out[metric] = self_seconds[layer]
        elif kind == "calls":
            out[metric] = float(calls[layer])
        elif metric.startswith("tracks.box_iou.calls."):   # counted, not spanned
            out[metric] = float(tracer.counts[metric])
    out["autodiff.tape_ops_per_step"] = per(sum(tape_ops), len(tape_ops))
    out["student.forward.rows_mean"] = per(forward_rows, calls["student.forward"])
    out["student.forward.calls_per_train_frame"] = per(
        forwards_in["training.scene_losses"], frames_in["training.scene_losses"])
    out["student.forward.calls_per_track_frame"] = per(
        forwards_in["tracker.track_sequence"], frames_in["tracker.track_sequence"])
    out["metrics.idsw"] = float(idsw)
    out["trace.overhead"] = overhead
    missing = LAYER_MAP.keys() - out.keys()
    if missing:
        raise KeyError(f"per-layer metrics without a value: {sorted(missing)}")
    return {metric: out[metric] for metric in LAYER_MAP}
