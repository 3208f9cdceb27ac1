"""Experiment configuration: one JSON-serializable object holding every knob
and seed a run needs, so a saved snapshot reproduces the run byte-for-byte."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from semtrack.degrade import DEFAULT_CHAIN_SPEC, DegradationChain
from semtrack.quality import QualityRanges
from semtrack.scenes import DetectorNoise
from semtrack.student import StudentConfig
from semtrack.tracker import TrackerConfig
from semtrack.training import TrainConfig

# evaluation scene i takes the scene and detector seeds of training scene
# EVAL_SEED_OFFSET + i, so no config may train on that many scenes
EVAL_SEED_OFFSET = 10_000


@dataclass(frozen=True)
class SceneParams:
    width: int = 128
    height: int = 96
    num_frames: int = 32
    num_targets: int = 3
    motion_jitter: float = 0.0


@dataclass(frozen=True)
class DetectorParams:
    jitter_sigma: float = 0.6
    fp_rate: float = 0.1
    fn_rate: float = 0.05


@dataclass(frozen=True)
class Seeds:
    scenes: int = 100
    detector: int = 200
    teacher: int = 300
    model: int = 400
    degradation: int = 500
    partition: int = 600


@dataclass(frozen=True)
class ExperimentConfig:
    scene: SceneParams = SceneParams()
    detector: DetectorParams = DetectorParams()
    degradation_chain: tuple[dict, ...] = tuple(
        {k: v for k, v in spec.items()} for spec in DEFAULT_CHAIN_SPEC)
    student: dict = field(default_factory=lambda: {
        "input_dim": 256, "hidden_dim": 256, "num_layers": 3, "num_heads": 4,
        "ff_dim": 1024, "output_dim": 256, "residual_projection": False})
    alpha: float = 0.4
    dswr: QualityRanges = QualityRanges()
    training: dict = field(default_factory=lambda: {
        "epochs": 12, "learning_rate": 5e-3, "decay_factor": 0.1,
        "decay_at": 2.0 / 3.0, "contrastive_temperature": 0.1,
        "box_loss_weight": 1.0})
    tracker: dict = field(default_factory=lambda: {
        "match_gate": 0.7, "iou_weight": 0.5, "birth_confidence": 0.6,
        "propagate_confidence": 0.5, "max_age": 3, "miss_decay": 0.7,
        "fixed_fusion_weight": 0.5})
    ratio: tuple[int, int] | None = (2, 1)      # low:high; None degrades nothing
    num_train_scenes: int = 6
    num_eval_scenes: int = 8
    seeds: Seeds = Seeds()
    output_dir: str = "runs/default"

    def __post_init__(self):
        for name in ("num_train_scenes", "num_eval_scenes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.num_train_scenes > EVAL_SEED_OFFSET:
            raise ValueError(f"num_train_scenes must be <= {EVAL_SEED_OFFSET}, the "
                             f"evaluation seed offset, got {self.num_train_scenes}")
        ratio = self.ratio
        if ratio is not None and (len(ratio) != 2 or ratio[0] < 1 or ratio[1] < 0):
            raise ValueError(f"ratio must be (low >= 1, high >= 0) or None, got {ratio}")
        for key, kind in _MODULE_CONFIGS.items():
            given = getattr(self, key)
            _reject_unknown(kind, given, key)
            for name, source in _DERIVED.get(key, {}).items():
                if name in given:
                    raise ValueError(f"{key}: {name!r} is taken from {source!r}, "
                                     "not set here")
        # the derived configs validate their own values; build each once so a
        # bad value fails here rather than when a run first needs it
        self.chain()
        self.student_config()
        self.train_config()
        self.detector_noise()

    # -- derived module configs --

    def student_config(self) -> StudentConfig:
        return StudentConfig(**self.student)

    def chain(self) -> DegradationChain:
        return DegradationChain.from_spec(list(self.degradation_chain),
                                          master_seed=self.seeds.degradation)

    def detector_noise(self) -> DetectorNoise:
        return DetectorNoise(**asdict(self.detector))

    def tracker_config(self) -> TrackerConfig:
        return TrackerConfig(quality_ranges=self.dswr, **self.tracker)

    def train_config(self) -> TrainConfig:
        return TrainConfig(alpha=self.alpha, teacher_seed=self.seeds.teacher,
                           **self.training)

    # -- serialization --

    def to_dict(self) -> dict:
        raw = asdict(self)
        raw["degradation_chain"] = [dict(s) for s in self.degradation_chain]
        return raw

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`; JSON lists become tuples again, and an
        unknown key at any level raises ``ValueError``."""
        raw = _known_fields(cls, raw, "config")
        for key, kind in _NESTED.items():
            if key in raw:
                raw[key] = kind(**_known_fields(kind, raw[key], key))
        return cls(**raw)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


_NESTED = {"scene": SceneParams, "detector": DetectorParams, "dswr": QualityRanges,
           "seeds": Seeds}
# the dict-valued fields and the module config each one's keys are passed to
_MODULE_CONFIGS = {"student": StudentConfig, "training": TrainConfig,
                   "tracker": TrackerConfig}
# module config fields the derived-config methods fill in from other fields
_DERIVED = {"training": {"alpha": "alpha", "teacher_seed": "seeds.teacher"},
            "tracker": {"quality_ranges": "dswr"}}


def _reject_unknown(kind, raw: dict, where: str) -> None:
    unknown = sorted(set(raw) - {f.name for f in fields(kind)})
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}")


def _known_fields(kind, raw: dict, where: str) -> dict:
    """``raw`` with lists turned to tuples; raises on a key ``kind`` lacks."""
    _reject_unknown(kind, raw, where)
    return {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}
