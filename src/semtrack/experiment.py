"""Experiment orchestration: corpora, model variants, training runs, sweeps.

Variants mirror the ablation ladder:

* ``baseline``: bare tracker, no student, trained on the tracking loss only.
* ``distill``: student attached, distillation on, loss weights frozen at
  0.5/0.5, fixed 0.5 fusion.
* ``dcsd``: same with the loss-weight logits trainable.
* ``full``: adds quality-driven fusion.

A run is one ExperimentConfig plus a variant name, and every corpus derives
deterministically from the config. Training scene i uses scene seed
``seeds.scenes + i`` and detector seed ``seeds.detector + i``; evaluation
scene i adds ``EVAL_SEED_OFFSET`` to both, and the config caps
``num_train_scenes`` at that offset, so the two corpora never share a seed.
Degradation keys off the sequence name, so every run of the same snapshot is
bit-identical. ``ratio`` picks the degraded share of the training scenes;
``ratio=None`` degrades none of them. Every evaluation scene is degraded by
``degradation_chain``; an empty chain gives a clean corpus.

The sweeps (:func:`ablation_trend`, :func:`alpha_sweep`, :func:`ratio_sweep`)
only build ``{name: (config, variant)}``; :func:`run_sweep` trains and scores
each run from its own config. :func:`ratio_sweep` rejects two ratios that
degrade the same training scenes, which a small corpus can make them do.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from semtrack.config import EVAL_SEED_OFFSET, ExperimentConfig
from semtrack.degrade import apply_chain, partition_sequences
from semtrack.metrics import MetricReport, evaluate
from semtrack.scenes import generate_scene, random_scene_config, synth_detector
from semtrack.tracker import TrackerModel, track_sequence
from semtrack.training import SceneSample, train
from semtrack.tracks import TrackSet

VARIANTS = ("baseline", "distill", "dcsd", "full")

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


def _train_names(config: ExperimentConfig) -> list[str]:
    return [f"train{i:03d}" for i in range(config.num_train_scenes)]


def degraded_train_scenes(config: ExperimentConfig) -> list[str]:
    """Names of the training scenes ``config.ratio`` degrades; none for None."""
    if config.ratio is None:
        return []
    low, _ = partition_sequences(_train_names(config), config.ratio,
                                 seed=config.seeds.partition)
    return low


def training_corpus(config: ExperimentConfig) -> list[SceneSample]:
    """Training scenes, degraded in the configured low:high ratio."""
    low = degraded_train_scenes(config)
    return [
        _make_sample(config, config.seeds.scenes + i, config.seeds.detector + i,
                     name, degraded=name in low)
        for i, name in enumerate(_train_names(config))
    ]


def evaluation_corpus(config: ExperimentConfig) -> list[SceneSample]:
    return [
        _make_sample(config,
                     config.seeds.scenes + EVAL_SEED_OFFSET + i,
                     config.seeds.detector + EVAL_SEED_OFFSET + i,
                     f"eval{i:03d}", degraded=True)
        for i in range(config.num_eval_scenes)
    ]


def train_variant(config: ExperimentConfig, variant: str
                  ) -> tuple[TrackerModel, list[dict]]:
    model = build_model(config, variant)
    log = train(model, training_corpus(config), config.train_config(),
                config.tracker_config())
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
    if not samples:
        raise ValueError("no evaluation scenes")
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


Runs = dict[str, tuple[ExperimentConfig, str]]


def run_sweep(runs: Runs) -> dict[str, MeanScores]:
    """Train each run's variant on its config's corpus; score it on the
    config's evaluation corpus."""
    out: dict[str, MeanScores] = {}
    for name, (config, variant) in runs.items():
        model, _ = train_variant(config, variant)
        out[name], _ = evaluate_samples(model, evaluation_corpus(config), config)
    return out


def ablation_trend(config: ExperimentConfig) -> Runs:
    return {variant: (config, variant) for variant in VARIANTS}


def alpha_sweep(config: ExperimentConfig, alphas=(0.2, 0.4, 0.6)) -> Runs:
    return {f"alpha={alpha:g}": (replace(config, alpha=alpha), "full")
            for alpha in alphas}


def ratio_sweep(config: ExperimentConfig, ratios=RATIO_GRID) -> Runs:
    """One ``full`` run per ratio; raises ``ValueError`` when two ratios
    degrade the same training scenes, since they would train the same model."""
    runs = {name: (replace(config, ratio=ratio), "full")
            for name, ratio in ratios.items()}
    seen: dict[tuple[str, ...], str] = {}
    for name, (point, _) in runs.items():
        low = tuple(degraded_train_scenes(point))
        if low in seen:
            raise ValueError(
                f"ratio points {seen[low]!r} and {name!r} both degrade {len(low)} of "
                f"{config.num_train_scenes} training scenes, the same ones")
        seen[low] = name
    return runs
