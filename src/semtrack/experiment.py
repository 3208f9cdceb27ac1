"""Experiment orchestration: corpora, model variants, training runs, sweeps.

Variants mirror the ablation ladder:

* ``baseline``: bare tracker, no student, trained on the tracking loss only.
* ``distill``: student attached, distillation on, loss weights frozen at
  0.5/0.5, fixed 0.5 fusion.
* ``dcsd``: same with the loss-weight logits trainable.
* ``full``: adds quality-driven fusion.

All corpora are derived deterministically from one ExperimentConfig: scene i
uses seed ``seeds.scenes + i`` (training) or ``seeds.scenes + 10_000 + i``
(evaluation), detections use ``seeds.detector + i``, and degradation keys off
the sequence name, so every run of the same snapshot is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from semtrack.config import ExperimentConfig
from semtrack.degrade import apply_chain, partition_sequences
from semtrack.metrics import MetricReport, evaluate
from semtrack.scenes import generate_scene, random_scene_config, synth_detector
from semtrack.tracker import TrackerModel, track_sequence
from semtrack.training import SceneSample, train
from semtrack.tracks import TrackSet

VARIANTS = ("baseline", "distill", "dcsd", "full")
EVAL_SEED_OFFSET = 10_000

RATIO_GRID: dict[str, tuple[int, int] | None] = {
    "all-high": None,          # no degradation at all
    "1:1": (1, 1),
    "2:1": (2, 1),
    "all-low": (1, 0),
}


def build_model(config: ExperimentConfig, variant: str) -> TrackerModel:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return TrackerModel(
        use_student=variant != "baseline",
        use_dswr=variant == "full",
        train_loss_weights=variant in ("dcsd", "full"),
        student_config=config.student_config(),
        seed=config.seeds.model,
    )


def _make_sample(config: ExperimentConfig, scene_seed: int, detector_seed: int,
                 name: str, degraded: bool) -> SceneSample:
    scene_config = random_scene_config(
        seed=scene_seed,
        num_targets=config.scene.num_targets,
        num_frames=config.scene.num_frames,
        width=config.scene.width,
        height=config.scene.height,
        jitter=config.scene.motion_jitter,
    )
    frames, gt = generate_scene(scene_config)
    if degraded:
        chain = config.chain()
        frames = [apply_chain(chain, frame, sequence_id=name, frame_index=i)
                  for i, frame in enumerate(frames)]
    detections = synth_detector(frames, gt, config.detector_noise(), seed=detector_seed)
    return SceneSample(frames=frames, detections=detections, gt=gt, name=name)


def training_corpus(config: ExperimentConfig,
                    ratio: tuple[int, int] | None = "config") -> list[SceneSample]:
    """Mixed training scenes at the configured (or overridden) low:high ratio.

    ``ratio=None`` means all-high (nothing degraded).
    """
    if ratio == "config":
        ratio = config.ratio
    names = [f"train{i:03d}" for i in range(config.num_train_scenes)]
    if ratio is None:
        low: list[str] = []
    else:
        low, _ = partition_sequences(names, ratio, seed=config.seeds.partition)
    return [
        _make_sample(config, config.seeds.scenes + i, config.seeds.detector + i,
                     name, degraded=name in low)
        for i, name in enumerate(names)
    ]


def evaluation_corpus(config: ExperimentConfig, count: int | None = None,
                      degraded: bool = True) -> list[SceneSample]:
    count = config.num_eval_scenes if count is None else count
    return [
        _make_sample(config,
                     config.seeds.scenes + EVAL_SEED_OFFSET + i,
                     config.seeds.detector + EVAL_SEED_OFFSET + i,
                     f"eval{i:03d}", degraded=degraded)
        for i in range(count)
    ]


def train_variant(config: ExperimentConfig, variant: str,
                  samples: list[SceneSample] | None = None,
                  alpha: float | None = None,
                  log_path=None) -> tuple[TrackerModel, list[dict]]:
    model = build_model(config, variant)
    if samples is None:
        samples = training_corpus(config)
    log = train(model, samples, config.train_config(alpha=alpha),
                config.tracker_config(), log_path=log_path)
    return model, log


def track_samples(model: TrackerModel, samples: list[SceneSample],
                  config: ExperimentConfig) -> dict[str, TrackSet]:
    tracker_config = config.tracker_config()
    return {s.name: track_sequence(s.frames, s.detections, model, tracker_config)
            for s in samples}


@dataclass
class MeanScores:
    hota: float
    deta: float
    assa: float
    mota: float
    idf1: float

    def row(self) -> dict:
        return {"HOTA": self.hota, "DetA": self.deta, "AssA": self.assa,
                "MOTA": self.mota, "IDF1": self.idf1}


def evaluate_samples(model: TrackerModel, samples: list[SceneSample],
                     config: ExperimentConfig) -> tuple[MeanScores, dict[str, MetricReport]]:
    predictions = track_samples(model, samples, config)
    reports = {s.name: evaluate(s.gt, predictions[s.name]) for s in samples}
    scores = MeanScores(
        hota=float(np.mean([r.hota for r in reports.values()])),
        deta=float(np.mean([r.deta for r in reports.values()])),
        assa=float(np.mean([r.assa for r in reports.values()])),
        mota=float(np.mean([r.mota for r in reports.values()])),
        idf1=float(np.mean([r.idf1 for r in reports.values()])),
    )
    return scores, reports


def ablation_trend(config: ExperimentConfig, eval_count: int | None = None
                   ) -> dict[str, MeanScores]:
    """Train each variant on the same corpus; evaluate on degraded scenes."""
    train_set = training_corpus(config)
    eval_set = evaluation_corpus(config, count=eval_count, degraded=True)
    out: dict[str, MeanScores] = {}
    for variant in VARIANTS:
        model, _ = train_variant(config, variant, samples=train_set)
        out[variant], _ = evaluate_samples(model, eval_set, config)
    return out


def alpha_sweep(config: ExperimentConfig, alphas=(0.2, 0.4, 0.6),
                eval_count: int | None = None) -> dict[float, MeanScores]:
    train_set = training_corpus(config)
    eval_set = evaluation_corpus(config, count=eval_count, degraded=True)
    out: dict[float, MeanScores] = {}
    for alpha in alphas:
        model, _ = train_variant(config, "full", samples=train_set, alpha=alpha)
        out[alpha], _ = evaluate_samples(model, eval_set, config)
    return out


def ratio_sweep(config: ExperimentConfig, ratios=None,
                eval_count: int | None = None) -> dict[str, MeanScores]:
    ratios = RATIO_GRID if ratios is None else ratios
    eval_set = evaluation_corpus(config, count=eval_count, degraded=True)
    out: dict[str, MeanScores] = {}
    for name, ratio in ratios.items():
        train_set = training_corpus(config, ratio=ratio)
        model, _ = train_variant(config, "full", samples=train_set)
        out[name], _ = evaluate_samples(model, eval_set, config)
    return out
