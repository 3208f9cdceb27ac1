"""Experiment configuration: one typed, JSON-serializable object holding
every knob and seed a run needs, so a saved snapshot reproduces the run
byte-for-byte.

Each section holds its module's own type: ``student`` a
:class:`~semtrack.student.StudentConfig`, ``degradation_chain`` a tuple of
degradation ops, whose ``kind`` names the op's class in a snapshot. One
checker covers every field of a config, built in Python or loaded from JSON
alike: a value of the wrong type, a non-finite float, an unknown key or a
missing required key raises ``ValueError`` naming its dotted key, such as
``degradation_chain[0].kernel_size``; a loaded value that its section's own
check turns away names the section. ``training`` alone stays a dict, of
:class:`~semtrack.training.TrainConfig` fields checked against that class."""

from __future__ import annotations

import json
import sys
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from semtrack.degrade import DEFAULT_CHAIN, DegradationChain, DegradationOp
from semtrack.quality import QualityRanges
from semtrack.scenes import MAX_FALSE_BOX, DetectorNoise
from semtrack.student import StudentConfig
from semtrack.tracker import unique_keys
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

    def __post_init__(self):
        for name, least in (("width", MAX_FALSE_BOX), ("height", MAX_FALSE_BOX),
                            ("num_frames", 2), ("num_targets", 1), ("motion_jitter", 0)):
            value = getattr(self, name)
            # NaN fails too; a value of the wrong type is the checker's to reject
            if isinstance(value, (int, float)) and not value >= least:
                raise ValueError(f"scene.{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class Seeds:
    scenes: int = 100
    detector: int = 200
    teacher: int = 300
    model: int = 400
    degradation: int = 500
    partition: int = 600

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # a value of the wrong type is the checker's to reject
            if isinstance(value, int) and value < 0:
                raise ValueError(f"seeds.{f.name} must be >= 0, got {value}")
        if isinstance(self.degradation, int) and self.degradation >= 2 ** 64:
            raise ValueError(f"seeds.degradation must be < 2**64, got {self.degradation}")


@dataclass(frozen=True)
class ExperimentConfig:
    scene: SceneParams = SceneParams()
    detector: DetectorNoise = DetectorNoise(jitter_sigma=0.6, fp_rate=0.1, fn_rate=0.05)
    degradation_chain: tuple[DegradationOp, ...] = DEFAULT_CHAIN
    student: StudentConfig = StudentConfig()
    alpha: float = 0.4
    dswr: QualityRanges = QualityRanges()
    # TrainConfig fields other than those in _DERIVED; a dict, so that a
    # caller can override one key: dict(config.training, epochs=1)
    training: dict = field(default_factory=lambda: {"epochs": TrainConfig.epochs})
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
        for name, source in _DERIVED.items():
            if name in self.training:
                raise ValueError(f"training: {name!r} is taken from {source!r}, "
                                 "not set here")
        # training's keys and types, then its values and alpha's, so a bad
        # value fails here rather than when a run first builds its TrainConfig
        _from_json(TrainConfig, self.training, "training")
        self.train_config()

    # -- derived module configs --

    def chain(self) -> DegradationChain:
        return DegradationChain(self.degradation_chain, master_seed=self.seeds.degradation)

    def tracker_config(self) -> QualityRanges:
        """``dswr``, the tracking settings; the benchmark's workloads call this
        and pass the result on to ``train`` and ``track_sequence``."""
        return self.dswr

    def train_config(self) -> TrainConfig:
        return TrainConfig(alpha=self.alpha, teacher_seed=self.seeds.teacher,
                           **self.training)

    # -- serialization --

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`; JSON lists become tuples again. A key
        left out takes its field's default. An unknown key at any level, a
        missing key of a field without a default, or a value whose JSON type
        does not fit its field raises ``ValueError`` naming the key."""
        return _from_json(cls, raw, "")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text, object_pairs_hook=unique_keys))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


# TrainConfig fields the config fills in from its own, and where from
_DERIVED = {"alpha": "alpha", "teacher_seed": "seeds.teacher"}
# the op class each chain entry's ``kind`` names
_OPS = {op.kind: op for op in typing.get_args(DegradationOp)}


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a field type: a bool is no int, an int is a
    float, a float must be finite, and a list is a tuple."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, arg) for arg in args)
    if origin is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(map(_fits, value, args)))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        # NaN, the infinities and an int beyond the float range all fail
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, hint)


def _key(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _items(hint):
    """``X`` for a ``tuple[X, ...]`` hint, else None."""
    args = typing.get_args(hint)
    return args[0] if typing.get_origin(hint) is tuple and args[-1] is Ellipsis else None


def _check_value(value, hint, key: str) -> None:
    """Raise ``ValueError`` naming the dotted ``key`` unless ``value`` fits
    ``hint``: a ``tuple[X, ...]`` value must be a tuple of items that fit
    ``X``, and a dataclass value (any op for ``DegradationOp``) an instance
    whose fields fit theirs."""
    items = _items(hint)
    if items is not None and isinstance(value, tuple):
        for i, item in enumerate(value):
            _check_value(item, items, f"{key}[{i}]")
    elif (is_dataclass(hint) or hint is DegradationOp) and isinstance(value, hint):
        hints = typing.get_type_hints(type(value))
        for f in fields(value):
            _check_value(getattr(value, f.name), hints[f.name], _key(key, f.name))
    elif items is not None or not _fits(value, hint):
        name = str(hint) if typing.get_args(hint) else hint.__name__
        raise ValueError(f"{key}: expected {name}, got {value!r}")


def _from_json(hint, raw, key: str):
    """The value of type ``hint`` that the JSON value ``raw`` stands for:
    lists become tuples, and objects dataclasses, each checked before it is
    built; a chain entry becomes the op class its ``kind`` names. ``key`` is
    the dotted key of ``raw``, empty for the whole config, and every
    ``ValueError`` names the key that does not fit, in front of the message of
    a section's own value check."""
    if hint is DegradationOp and isinstance(raw, dict):
        if raw.get("kind") not in _OPS:
            raise ValueError(f"{key}: unknown degradation op kind {raw.get('kind')!r}")
        hint = _OPS[raw["kind"]]
    if _items(hint) is not None:
        if not isinstance(raw, list):
            raise ValueError(f"{key}: expected a list, got {raw!r}")
        return tuple(_from_json(_items(hint), item, f"{key}[{i}]")
                     for i, item in enumerate(raw))
    if not is_dataclass(hint):
        _check_value(raw, hint, key)
        return tuple(raw) if isinstance(raw, list) else raw
    where = key or "config"
    if not isinstance(raw, dict):
        raise ValueError(f"{where}: expected an object, got {raw!r}")
    unknown = sorted(set(raw) - {f.name for f in fields(hint)})
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}")
    missing = [f.name for f in fields(hint) if f.name not in raw
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"{where}: missing keys {missing}")
    hints = typing.get_type_hints(hint)
    values = {f.name: _from_json(hints[f.name], raw[f.name], _key(key, f.name))
              for f in fields(hint) if f.init and f.name in raw}
    try:
        return hint(**values)
    except ValueError as err:   # a section's own check may not know its key
        if not key or str(err).startswith(f"{key}."):
            raise
        raise ValueError(f"{key}: {err}") from None
