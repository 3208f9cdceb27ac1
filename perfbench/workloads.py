"""The benchmark workloads and the phases every one of them runs.

Each run is closed-loop and single-process: set-up (corpora and model, built
``SETUP_REPEATS`` times), then a training phase, then a tracking and
evaluation phase. A phase repeats identical units (one training epoch from
the same seeded model; one tracking and evaluation pass over the evaluation
corpus) until its share of ``--seconds`` is spent, at least twice, so the
first unit is the reference every repeat must equal bit for bit. A speed
probe runs after every unit, and each unit's time is restated at the
reference machine speed (``speed``) before the lower median over units is
taken.

The workload seed offsets only the input seeds (scenes, detector noise,
degradation noise, low/high partition) by ``seed * SEED_STRIDE``; the model
and teacher seeds belong to the program and stay fixed. The stride keeps the
corpora of different seeds disjoint.

Calls go through module attributes (``tracker.track_sequence``), so the
tracer, which patches module bindings, sees them.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

from semtrack import experiment, metrics, tracker, training
from semtrack.config import ExperimentConfig, SceneParams

from perfbench import layers
from perfbench.speed import SpeedProbe
from perfbench.tracer import Tracer

SETUP_REPEATS = 3
SEED_STRIDE = 100_000
INPUT_SEEDS = ("scenes", "detector", "degradation", "partition")
# one epoch per training unit; the schedule's lr drop then applies throughout
_ONE_EPOCH = dict(ExperimentConfig().training, epochs=1)


@dataclass(frozen=True)
class Workload:
    name: str
    train_variant: str           # trained for whole epochs from the seeded init
    track_variant: str           # tracked untrained, as built in set-up
    config: ExperimentConfig
    train_share: float           # fraction of --seconds spent training


# Why each workload exists is recorded in BENCHMARK.json. Every workload runs
# every phase, because every run reports every end-to-end metric; the shares
# give most of the time to the phase the workload is about.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-full",
        train_variant="full", track_variant="full",
        config=replace(ExperimentConfig(), training=_ONE_EPOCH),
        train_share=0.7),
    Workload(
        name="track-crowded",
        train_variant="baseline", track_variant="baseline",
        # two crowded training scenes keep the thrice-repeated set-up short
        config=replace(ExperimentConfig(), training=_ONE_EPOCH, num_train_scenes=2,
                       scene=SceneParams(width=256, height=192, num_frames=64,
                                         num_targets=16, motion_jitter=0.5)),
        train_share=0.2),
)}


def seeded(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    offset = seed * SEED_STRIDE
    return replace(config, seeds=replace(config.seeds, **{
        k: getattr(config.seeds, k) + offset for k in INPUT_SEEDS}))


# -- correctness --

def _corpus_digest(samples) -> str:
    h = hashlib.sha256()
    for s in samples:
        h.update(s.name.encode())
        for frame in s.frames:
            h.update(frame.tobytes())
        h.update(repr(s.detections).encode())
        h.update(repr(s.gt.records).encode())
    return h.hexdigest()


def _report_key(report: metrics.MetricReport) -> tuple:
    c = report.counts
    return (report.hota, report.deta, report.assa, report.mota, report.idf1,
            c.tp, c.fp, c.fn, c.idsw, tuple(sorted(report.per_alpha.items())))


def _report_in_range(report: metrics.MetricReport) -> bool:
    unit = (report.hota, report.deta, report.assa, report.idf1)
    return (all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in unit)
            and math.isfinite(report.mota) and report.mota <= 1.0)


def _log_ok(row: dict) -> bool:
    return all(math.isfinite(v) for k, v in row.items() if k != "step")


class Ledger:
    """Operations attempted and failed; an operation is a training step, a
    tracked sequence or an evaluated sequence."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


# -- phases --

@dataclass
class Prepared:
    config: ExperimentConfig
    train_set: list
    eval_set: list
    model: tracker.TrackerModel


def set_up(workload: Workload, seed: int) -> Prepared:
    config = seeded(workload.config, seed)
    return Prepared(config=config,
                    train_set=experiment.training_corpus(config),
                    eval_set=experiment.evaluation_corpus(config),
                    model=experiment.build_model(config, workload.track_variant))


class Epoch(NamedTuple):
    log: list[dict]
    step_s: list[float]          # wall seconds of each training step
    scale: list[float]           # speed scale of each step (1.0 unprobed)


class Pass(NamedTuple):
    reports: list                # (records, report key, report) or None per sequence
    track_s: list[float]         # wall seconds per sequence
    eval_s: list[float]
    scale: float


def _probe(probe: SpeedProbe | None) -> float:
    return probe.scale() if probe is not None else 1.0


def train_epoch(workload: Workload, prep: Prepared, ledger: Ledger,
                reference: list | None, probe: SpeedProbe | None = None) -> Epoch:
    """One epoch from the seeded init. Each scene is its own
    ``training.train`` call (``epochs=1``), which is the same arithmetic as one
    call over the corpus, so every step is timed and probed on its own."""
    model = experiment.build_model(prep.config, workload.train_variant)
    epoch = Epoch([], [], [])
    for i, sample in enumerate(prep.train_set):
        start = time.perf_counter()
        try:
            (row,) = training.train(model, [sample], prep.config.train_config(),
                                    prep.config.tracker_config())
        except Exception:   # an op that raises is a failed op, not a crashed run
            traceback.print_exc(file=sys.stderr)
            for _ in prep.train_set[i:]:   # the model is spoilt for later steps
                ledger.record(False, f"training step on {sample.name} raised")
            return epoch
        epoch.step_s.append(time.perf_counter() - start)
        epoch.scale.append(_probe(probe))
        same = reference is None or (i < len(reference) and row == reference[i])
        ledger.record(_log_ok(row) and same, f"training step on {sample.name}")
        epoch.log.append(row)
    return epoch


def track_pass(prep: Prepared, ledger: Ledger, reference: list | None,
               probe: SpeedProbe | None = None) -> Pass:
    """Track and evaluate every eval sequence, then probe the speed once."""
    tracker_config = prep.config.tracker_config()
    reports, track_s, eval_s = [], [], []
    for i, sample in enumerate(prep.eval_set):
        ref = reference[i] if reference is not None else None
        try:
            start = time.perf_counter()
            pred = tracker.track_sequence(sample.frames, sample.detections, prep.model,
                                          tracker_config)
            track_s.append(time.perf_counter() - start)
            records = pred.records
            ledger.record(ref is None or records == ref[0], f"track {sample.name}")
            start = time.perf_counter()
            report = metrics.evaluate(sample.gt, pred)
            eval_s.append(time.perf_counter() - start)
        except Exception:   # an op that raises is a failed op, not a crashed run
            traceback.print_exc(file=sys.stderr)
            ledger.record(False, f"track/evaluate {sample.name} raised")
            reports.append(None)
            continue
        key = _report_key(report)
        ledger.record(_report_in_range(report) and (ref is None or key == ref[1]),
                      f"evaluate {sample.name}")
        reports.append((records, key, report))
    return Pass(reports, track_s, eval_s, _probe(probe))


def _mean(reports, attr: str) -> float:
    values = [getattr(r[2], attr) for r in reports if r is not None]
    return sum(values) / len(values) if values else float("nan")


def _frames(prep: Prepared) -> int:
    return sum(len(s.frames) for s in prep.eval_set)


def _rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else float("nan")


def _typical(times) -> float:
    """Lower median of repeated timings of the same work: with two samples it
    is the faster, so one unit slowed by a busy neighbour does not count."""
    return statistics.median_low(times)


def _unit_seconds(per_unit: list[list[float]]) -> float:
    """Sum over the items of a unit (scenes, sequences) of each item's typical
    time across units: a burst of machine noise then moves one item's sample,
    not a whole unit."""
    if not per_unit or any(len(u) != len(per_unit[0]) for u in per_unit):
        return float("nan")   # an item failed; the run is already incorrect
    return sum(_typical(times) for times in zip(*per_unit))


def _repeat(unit, budget: float) -> list:
    """Run ``unit(first result or None)`` at least twice and until ``budget``
    seconds pass."""
    results = []
    start = time.perf_counter()
    while len(results) < 2 or time.perf_counter() - start < budget:
        results.append(unit(results[0] if results else None))
    return results


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- runs --

def _timings(prep: Prepared, setups: list[tuple[float, float]], epochs: list[Epoch],
             passes: list[Pass], calibrated: bool) -> dict:
    """The four timing metrics, restated at the reference speed or as wall time."""
    def k(scale: float) -> float:
        return scale if calibrated else 1.0
    return {
        "setup_s": _typical(s * k(scale) for s, scale in setups),
        "train_scenes_per_s": _rate(len(prep.train_set), _unit_seconds(
            [[s * k(x) for s, x in zip(e.step_s, e.scale)] for e in epochs])),
        "track_fps": _rate(_frames(prep), _unit_seconds(
            [[t * k(p.scale) for t in p.track_s] for p in passes])),
        "eval_seqs_per_s": _rate(len(prep.eval_set), _unit_seconds(
            [[t * k(p.scale) for t in p.eval_s] for p in passes])),
    }


def run_end_to_end(workload: Workload, seed: int, seconds: float) -> dict:
    """Untraced run: every end-to-end metric. Times are restated at the
    reference machine speed (see ``speed``); the wall-clock figures go to the
    run's detail."""
    ledger = Ledger()
    probe = SpeedProbe()
    setups, digests = [], set()
    for _ in range(SETUP_REPEATS):
        prep = None   # drop the previous corpora before building the next
        start = time.perf_counter()
        prep = set_up(workload, seed)
        setups.append((time.perf_counter() - start, probe.scale()))
        digests.add(_corpus_digest(prep.train_set) + _corpus_digest(prep.eval_set))
    if len(digests) != 1:
        ledger.problems.append("set-up is not repeatable")

    epochs = _repeat(lambda ref: train_epoch(workload, prep, ledger,
                                             ref.log if ref else None, probe),
                     workload.train_share * seconds)
    passes = _repeat(lambda ref: track_pass(prep, ledger, ref.reports if ref else None,
                                            probe),
                     (1.0 - workload.train_share) * seconds)
    reference_log, reference_reports = epochs[0].log, passes[0].reports
    values = {
        **_timings(prep, setups, epochs, passes, calibrated=True),
        "train_loss": (sum(r["total"] for r in reference_log) / len(reference_log)
                       if reference_log else float("nan")),
        "hota": _mean(reference_reports, "hota"),
        "mota": _mean(reference_reports, "mota"),
        "idf1": _mean(reference_reports, "idf1"),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return _result(ledger, values, {
        "wall": _timings(prep, setups, epochs, passes, calibrated=False),
        "setup_s": [s for s, _ in setups], "step_s": [e.step_s for e in epochs],
        "track_s": [p.track_s for p in passes], "eval_s": [p.eval_s for p in passes],
        "probe_s": probe.samples})


def run_traced(workload: Workload, seed: int, out_dir: Path | None) -> dict:
    """Two untraced units of every phase and one traced: per-layer metrics,
    tracing overhead, and a check that tracing changed no result."""
    ledger = Ledger()
    probe = SpeedProbe()

    def one_of_each(ref_log=None, ref_reports=None):
        start = time.perf_counter()
        prep = set_up(workload, seed)
        log = train_epoch(workload, prep, ledger, ref_log).log
        reports = track_pass(prep, ledger, ref_reports).reports
        seconds = (time.perf_counter() - start) * probe.scale()
        digest = _corpus_digest(prep.train_set) + _corpus_digest(prep.eval_set)
        return seconds, log, reports, digest

    _, log, reports, digest = one_of_each()   # reference, and warm-up: the
    # first set-up in a process pays for fresh memory pages
    seconds = one_of_each(log, reports)[0]
    with Tracer("semtrack") as tracer:
        layers.install(tracer)
        traced_seconds, _, traced_reports, traced_digest = one_of_each(log, reports)
    if traced_digest != digest:
        ledger.problems.append("tracing changed the corpora")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    idsw = sum(r[2].counts.idsw for r in traced_reports if r is not None)
    values = layers.layer_metrics(tracer, idsw, traced_seconds / seconds)
    return _result(ledger, values, {"spans": len(tracer.spans)})


def _result(ledger: Ledger, values: dict, detail: dict) -> dict:
    for problem in ledger.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not ledger.problems and all(math.isfinite(v) for v in values.values())
    return {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
            "values": values, "detail": detail}
