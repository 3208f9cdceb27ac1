"""Experiment configuration: one JSON-serializable object holding every knob
and seed a run needs, so a saved snapshot reproduces the run byte-for-byte."""

from __future__ import annotations

import json
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass
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
    detector: DetectorNoise = DetectorNoise(jitter_sigma=0.6, fp_rate=0.1, fn_rate=0.05)
    degradation_chain: tuple[dict, ...] = tuple(
        {k: v for k, v in spec.items()} for spec in DEFAULT_CHAIN_SPEC)
    student: dict = field(default_factory=lambda: _module_defaults("student"))
    alpha: float = 0.4
    dswr: QualityRanges = QualityRanges()
    training: dict = field(default_factory=lambda: _module_defaults("training"))
    ratio: tuple[int, int] | None = (2, 1)      # low:high; None degrades nothing
    num_train_scenes: int = 6
    num_eval_scenes: int = 8
    seeds: Seeds = Seeds()
    output_dir: str = "runs/default"

    def __post_init__(self):
        # a field of the wrong type fails here, however the config was built
        _check_value(self, ExperimentConfig, "")
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
            _check_object(kind, given, key)
            for name, source in _DERIVED.get(key, {}).items():
                if name in given:
                    raise ValueError(f"{key}: {name!r} is taken from {source!r}, "
                                     "not set here")
        # the derived configs validate their own values; build each once so a
        # bad value fails here rather than when a run first needs it
        try:
            self.chain()
        except TypeError as err:    # an op field of the wrong type
            raise ValueError(f"degradation_chain: {err}") from None
        self.student_config()
        self.train_config()

    # -- derived module configs --

    def student_config(self) -> StudentConfig:
        return StudentConfig(**self.student)

    def chain(self) -> DegradationChain:
        return DegradationChain.from_spec(list(self.degradation_chain),
                                          master_seed=self.seeds.degradation)

    def tracker_config(self) -> TrackerConfig:
        return TrackerConfig(quality_ranges=self.dswr)

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
        """Inverse of :meth:`to_dict`; JSON lists become tuples again. An
        unknown key at any level, or a value whose JSON type does not fit its
        field, raises ``ValueError`` naming the key."""
        return _from_json(cls, raw, "")

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


# the dict-valued fields and the module config each one's keys are passed to
_MODULE_CONFIGS = {"student": StudentConfig, "training": TrainConfig}
# module config fields the derived-config methods fill in from other fields
_DERIVED = {"training": {"alpha": "alpha", "teacher_seed": "seeds.teacher"}}


def _module_defaults(key: str) -> dict:
    """The defaults of a module config, minus the fields derived elsewhere."""
    return {name: value for name, value in asdict(_MODULE_CONFIGS[key]()).items()
            if name not in _DERIVED.get(key, {})}


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a field type: a bool is no int, an int is a
    float, and a list is a tuple."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, arg) for arg in args)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1] is Ellipsis:
            return all(_fits(item, args[0]) for item in value)
        return len(value) == len(args) and all(map(_fits, value, args))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _key(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _check_value(value, hint, key: str) -> None:
    """Raise ``ValueError`` naming the dotted ``key`` unless ``value`` fits
    ``hint``; a dataclass value must be an instance whose fields fit theirs."""
    if is_dataclass(hint):
        if not isinstance(value, hint):
            raise ValueError(f"{key}: expected {hint.__name__}, got {value!r}")
        hints = typing.get_type_hints(hint)
        for f in fields(hint):
            _check_value(getattr(value, f.name), hints[f.name], _key(key, f.name))
    elif not _fits(value, hint):
        name = str(hint) if typing.get_args(hint) else hint.__name__
        raise ValueError(f"{key}: expected {name}, got {value!r}")


def _check_object(kind, raw, where: str) -> None:
    """Raise ``ValueError`` unless ``raw`` is an object whose keys are fields
    of the dataclass ``kind`` and whose non-dataclass values fit their types.
    ``where`` is the object's dotted key, empty for the whole config."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where or 'config'}: expected an object, got {raw!r}")
    unknown = sorted(set(raw) - {f.name for f in fields(kind)})
    if unknown:
        raise ValueError(f"{where or 'config'}: unknown keys {unknown}")
    hints = typing.get_type_hints(kind)
    for key, value in raw.items():
        if not is_dataclass(hints[key]):
            _check_value(value, hints[key], _key(where, key))


def _from_json(kind, raw, where: str):
    """The dataclass ``kind`` built from a checked JSON object: lists become
    tuples, and objects for dataclass fields become those dataclasses."""
    _check_object(kind, raw, where)
    hints = typing.get_type_hints(kind)
    values = {}
    for key, value in raw.items():
        if is_dataclass(hints[key]):
            value = _from_json(hints[key], value, _key(where, key))
        elif isinstance(value, list):
            value = tuple(value)
        values[key] = value
    return kind(**values)
