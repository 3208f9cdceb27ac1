import json
import math
import re
import typing
from dataclasses import fields, is_dataclass, replace

import pytest

from semtrack.config import EVAL_SEED_OFFSET, ExperimentConfig, SceneParams, Seeds
from semtrack.degrade import DEFAULT_CHAIN, DegradationOp, Downsample, GaussianBlur, GaussianNoise
from semtrack.quality import QualityRanges
from semtrack.scenes import MAX_FALSE_BOX, DetectorNoise
from semtrack.student import StudentConfig
from semtrack.training import TrainConfig


def custom_config():
    return ExperimentConfig(
        scene=SceneParams(num_targets=5, motion_jitter=0.25),
        degradation_chain=(GaussianBlur(sigma=2.0, kernel_size=5),
                           GaussianNoise(sigma=0.05, seed=3)),
        alpha=0.3,
        dswr=QualityRanges(clarity=(0.001, 0.03), noise=(0.0, 0.2)),
        ratio=(1, 1),
    )


@pytest.mark.parametrize("config", [ExperimentConfig(), custom_config()],
                         ids=["default", "custom"])
def test_json_round_trip(tmp_path, config):
    loaded = ExperimentConfig.from_json(config.to_json())
    assert loaded == config
    assert isinstance(loaded.dswr.clarity, tuple)
    assert isinstance(loaded.ratio, tuple)
    assert loaded.degradation_chain == config.degradation_chain
    assert loaded.chain() == config.chain()
    assert loaded.to_json() == config.to_json()
    path = tmp_path / "config.json"
    config.save(path)
    assert ExperimentConfig.load(path) == config


def test_ratio_none_round_trips_as_null():
    config = replace(ExperimentConfig(), ratio=None)
    assert json.loads(config.to_json())["ratio"] is None
    assert ExperimentConfig.from_json(config.to_json()) == config


def test_train_scene_count_capped_at_eval_seed_offset():
    # more training scenes would reuse the evaluation scenes' seeds
    ExperimentConfig(num_train_scenes=EVAL_SEED_OFFSET)
    with pytest.raises(ValueError, match="num_train_scenes"):
        ExperimentConfig(num_train_scenes=EVAL_SEED_OFFSET + 1)


@pytest.mark.parametrize("where, key", [
    (None, "temperature"),
    (None, "no_such_knob"),
    ("dswr", "w_init"),
    ("seeds", "no_such_seed"),
    ("student", "no_such_knob"),
    (None, "tracker"),          # snapshots from before the tracker constants had one
])
def test_unknown_key_raises(where, key):
    raw = json.loads(ExperimentConfig().to_json())
    (raw if where is None else raw[where])[key] = 1.0
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_dict(raw)


def repeating(key: str, first) -> str:
    """The default config's JSON text with its first ``key`` given twice, the
    first time as ``first``."""
    return ExperimentConfig().to_json().replace(
        f'"{key}": ', f'"{key}": {json.dumps(first)}, "{key}": ', 1)


@pytest.mark.parametrize("text, key", [
    ('{"alpha": 0.2, "alpha": 0.6}', "alpha"),
    (repeating("clarity", [0.0, 0.03]), "clarity"),
    (repeating("kind", "downsample"), "kind"),
], ids=["alpha", "nested-clarity", "chain-op-kind"])
def test_repeated_key_raises(text, key):
    # json.loads alone keeps the last value, so each text would load
    with pytest.raises(ValueError, match=f"repeated JSON key '{key}'"):
        ExperimentConfig.from_json(text)


@pytest.mark.parametrize("where, key", [
    ("training", "bogus"),
    ("training", "learning_rate"),  # a knob of a snapshot from before the constants
    ("training", "alpha"),
    ("training", "teacher_seed"),
])
def test_module_config_dict_keys_checked_on_build(where, key):
    # unknown keys, and keys the derived configs fill in from alpha and
    # seeds.teacher, raise when the config is built, not later
    raw = json.loads(ExperimentConfig().to_json())
    raw[where][key] = 1
    with pytest.raises(ValueError, match=f"{where}.*{key}"):
        ExperimentConfig.from_dict(raw)
    with pytest.raises(ValueError, match=f"{where}.*{key}"):
        ExperimentConfig(**{where: raw[where]})
    with pytest.raises(ValueError, match=f"{where}.*{key}"):
        replace(ExperimentConfig(), **{where: raw[where]})


def test_module_config_dicts_accept_every_module_field():
    config = ExperimentConfig(
        student=StudentConfig(hidden_dim=32, num_heads=2),
        training=dict(ExperimentConfig().training, epochs=1))
    assert config.student.hidden_dim == 32
    assert config.train_config().epochs == 1
    assert ExperimentConfig.from_json(config.to_json()) == config


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
def test_alpha_outside_open_unit_interval_raises(alpha):
    with pytest.raises(ValueError, match="alpha"):
        ExperimentConfig(alpha=alpha)
    raw = json.loads(ExperimentConfig().to_json())
    raw["alpha"] = alpha
    with pytest.raises(ValueError, match="alpha"):
        ExperimentConfig.from_dict(raw)


def test_tracker_config_takes_quality_ranges_from_dswr():
    config = custom_config()
    assert config.tracker_config() is config.dswr
    assert ExperimentConfig().tracker_config() == QualityRanges()


def section(raw, where):
    """The object of a raw config at ``where``: a dotted path of keys and
    list indices, or None for the top level."""
    for part in where.split(".") if where else ():
        raw = raw[int(part)] if isinstance(raw, list) else raw[part]
    return raw


@pytest.mark.parametrize("where, key, value, match", [
    (None, "num_eval_scenes", 0, "num_eval_scenes"),
    (None, "num_train_scenes", -2, "num_train_scenes"),
    (None, "ratio", [0, 1], "ratio"),
    (None, "ratio", [1, 2, 3], "ratio"),
    (None, "degradation_chain", [{"kind": "nope"}], "nope"),
    (None, "degradation_chain",
     [{"kind": "gaussian_blur", "sigma": 1.0, "kernel_size": 3, "bogus": 1}], "bogus"),
    ("student", "num_heads", 3, "num_heads"),
    ("training", "epochs", 0, "epochs"),
    ("detector", "fp_rate", 2.0, "fp_rate"),
    ("dswr", "clarity", [1.0, 0.0], "clarity"),
    ("training", "epochs", "3", r"training\.epochs: expected int, got '3'"),
    ("student", "ff_dim", "1024", r"student\.ff_dim: expected int"),
    ("detector", "fp_rate", "0.1", r"detector\.fp_rate: expected float"),
    ("dswr", "clarity", 0.5, r"dswr\.clarity: expected tuple\[float, float\]"),
    (None, "ratio", 5, r"ratio: expected tuple\[int, int\] \| None"),
    (None, "scene", None, "scene: expected an object"),
    (None, "degradation_chain", [{"kind": "gaussian_blur"}],
     r"degradation_chain\[0\]: missing keys \['sigma', 'kernel_size'\]"),
    (None, "degradation_chain", [{"kind": "gaussian_blur", "sigma": "1", "kernel_size": 3}],
     r"degradation_chain\[0\]\.sigma: expected float, got '1'"),
    ("scene", "num_targets", "3", r"scene\.num_targets: expected int"),
    ("seeds", "model", "x", r"seeds\.model: expected int"),
    (None, "degradation_chain", [{"kind": "downsample", "resample": "nearest"}],
     r"degradation_chain\[0\]: missing keys \['scale'\]"),
    (None, "degradation_chain", [{"kind": "downsample", "scale": 0.5, "bogus": 1}],
     r"degradation_chain\[0\]: unknown keys \['bogus'\]"),
    (None, "degradation_chain", [{"sigma": 1.0, "kernel_size": 3}],
     r"degradation_chain\[0\]: unknown degradation op kind None"),
    (None, "degradation_chain", [0.5], r"degradation_chain\[0\]: expected .*GaussianBlur"),
    (None, "degradation_chain", {"kind": "downsample", "scale": 0.5},
     "degradation_chain: expected a list"),
    ("degradation_chain.0", "kernel_size", 7.5,
     r"degradation_chain\[0\]\.kernel_size: expected int, got 7\.5"),
    ("degradation_chain.0", "kernel_size", True,
     r"degradation_chain\[0\]\.kernel_size: expected int, got True"),
    ("degradation_chain.2", "seed", 1.5, r"degradation_chain\[2\]\.seed: expected int, got 1\.5"),
    ("dswr", "clarity", [0.0, math.nan], r"dswr\.clarity: expected tuple\[float, float\]"),
    ("dswr", "clarity", [0.0, math.inf], r"dswr\.clarity: expected tuple\[float, float\]"),
    ("degradation_chain.0", "sigma", math.nan,
     r"degradation_chain\[0\]\.sigma: expected float, got nan"),
    ("degradation_chain.0", "sigma", math.inf,
     r"degradation_chain\[0\]\.sigma: expected float, got inf"),
    ("scene", "motion_jitter", math.nan, r"scene\.motion_jitter: expected float, got nan"),
    ("scene", "motion_jitter", -math.inf, r"scene\.motion_jitter: expected float, got -inf"),
    ("scene", "motion_jitter", -1, r"scene\.motion_jitter must be >= 0, got -1"),
    ("scene", "num_targets", 0, r"scene\.num_targets must be >= 1, got 0"),
    (None, "alpha", 10 ** 400, r"^alpha: expected float, got 1000"),
    ("degradation_chain.0", "kernel_size", 4,
     r"^degradation_chain\[0\]: kernel_size must be odd and >= 1, got 4"),
    ("degradation_chain.1", "scale", 1.5, r"^degradation_chain\[1\]: scale must be in"),
    ("degradation_chain.2", "sigma", -0.1, r"^degradation_chain\[2\]: noise sigma must be"),
    ("scene", "width", 29, r"^scene\.width must be >= 30, got 29"),
    ("scene", "height", 8, r"^scene\.height must be >= 30, got 8"),
], ids=["no-eval-scenes", "negative-train-scenes", "ratio-no-low", "ratio-three",
        "unknown-degradation", "unknown-degradation-key", "heads-not-dividing",
        "no-epochs", "fp-rate-above-one", "clarity-range-reversed",
        "string-epochs", "string-ff-dim", "string-fp-rate", "scalar-clarity",
        "scalar-ratio", "null-scene", "op-missing-fields", "string-op-sigma",
        "string-num-targets", "string-model-seed", "downsample-missing-scale",
        "downsample-unknown-key", "op-without-kind", "op-not-an-object",
        "chain-not-a-list", "fractional-kernel-size", "bool-kernel-size",
        "fractional-noise-seed", "nan-clarity", "infinite-clarity", "nan-blur-sigma",
        "infinite-blur-sigma", "nan-motion-jitter", "infinite-motion-jitter",
        "negative-motion-jitter", "no-targets", "int-alpha-beyond-float",
        "even-kernel-size", "downsample-scale-above-one", "negative-noise-sigma",
        "narrow-frame", "low-frame"])
def test_malformed_value_raises_when_built(where, key, value, match):
    raw = json.loads(ExperimentConfig().to_json())
    section(raw, where)[key] = value
    with pytest.raises(ValueError, match=match):
        ExperimentConfig.from_dict(raw)
    # JSON text reads NaN and Infinity too
    with pytest.raises(ValueError, match=match):
        ExperimentConfig.from_json(json.dumps(raw))


@pytest.mark.parametrize("key, value, match", [
    ("ratio", 5, r"ratio: expected tuple\[int, int\] \| None, got 5"),
    ("num_eval_scenes", "3", "num_eval_scenes: expected int, got '3'"),
    ("alpha", "0.4", "alpha: expected float, got '0.4'"),
    ("output_dir", 3, "output_dir: expected str, got 3"),
    ("scene", SceneParams(width="128"), r"scene\.width: expected int, got '128'"),
    ("student", {"hidden_dim": 32}, "student: expected StudentConfig"),
    ("degradation_chain", ({"kind": "downsample", "scale": 0.5},),
     r"degradation_chain\[0\]: expected .*GaussianBlur"),
    ("degradation_chain", list(DEFAULT_CHAIN), r"degradation_chain: expected tuple\["),
    ("degradation_chain", (GaussianBlur(sigma=1.0, kernel_size=7.5),),
     r"degradation_chain\[0\]\.kernel_size: expected int, got 7\.5"),
    ("degradation_chain", (GaussianBlur(sigma=1.0, kernel_size=True),),
     r"degradation_chain\[0\]\.kernel_size: expected int, got True"),
    ("degradation_chain", (Downsample(scale=0.5), GaussianNoise(sigma=0.1, seed=1.5)),
     r"degradation_chain\[1\]\.seed: expected int, got 1\.5"),
    # QualityRanges and the ops turn NaN and infinity away themselves
    ("dswr", lambda: QualityRanges(clarity=(0.0, math.nan)),
     r"invalid clarity normalization range \[0\.0, nan\]"),
    ("dswr", lambda: QualityRanges(clarity=(0.0, math.inf)),
     r"invalid clarity normalization range \[0\.0, inf\]"),
    ("degradation_chain", lambda: (GaussianBlur(sigma=math.nan, kernel_size=3),),
     r"blur sigma must be finite and >= 0, got nan"),
    ("degradation_chain", lambda: (GaussianBlur(sigma=math.inf, kernel_size=3),),
     r"blur sigma must be finite and >= 0, got inf"),
    # SceneParams turns NaN away itself, as it does every jitter below 0
    ("scene", lambda: SceneParams(motion_jitter=math.nan),
     r"scene\.motion_jitter must be >= 0, got nan"),
    ("scene", SceneParams(motion_jitter=math.inf),
     r"scene\.motion_jitter: expected float, got inf"),
], ids=["int-ratio", "string-eval-scenes", "string-alpha", "int-output-dir",
        "nested-string-width", "dict-student", "dict-op", "list-chain",
        "fractional-kernel-size", "bool-kernel-size", "fractional-noise-seed",
        "nan-clarity", "infinite-clarity", "nan-blur-sigma", "infinite-blur-sigma",
        "nan-motion-jitter", "infinite-motion-jitter"])
def test_built_config_is_type_checked_like_a_loaded_one(key, value, match):
    build = value if callable(value) else lambda: value
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(**{key: build()})
    with pytest.raises(ValueError, match=match):
        replace(ExperimentConfig(), **{key: build()})


@pytest.mark.parametrize("field, value", [
    ("num_frames", 1), ("num_targets", 0), ("num_targets", -3),
    ("motion_jitter", -1.0), ("motion_jitter", -1e-9), ("motion_jitter", math.nan),
    ("width", 8), ("width", 21), ("width", 22), ("width", 29), ("height", 29),
])
def test_scene_params_check_their_values(field, value):
    with pytest.raises(ValueError, match=rf"scene\.{field} must be >= "):
        SceneParams(**{field: value})
    SceneParams(width=MAX_FALSE_BOX, height=MAX_FALSE_BOX, num_frames=2, num_targets=1,
                motion_jitter=0.0)


@pytest.mark.parametrize("name", [f.name for f in fields(Seeds)])
def test_a_negative_seed_raises_when_built(name):
    with pytest.raises(ValueError, match=rf"^seeds\.{name} must be >= 0, got -3$"):
        ExperimentConfig(seeds=Seeds(**{name: -3}))
    raw = json.loads(ExperimentConfig().to_json())
    raw["seeds"][name] = -3
    with pytest.raises(ValueError, match=rf"^seeds\.{name} must be >= 0, got -3$"):
        ExperimentConfig.from_dict(raw)
    ExperimentConfig(seeds=Seeds(**{name: 0}))


@pytest.mark.parametrize("seed, message", [
    (2 ** 32, r"seed must be in \[0, 2\*\*32\), got 4294967296$"),
    (-1, r"seed must be in \[0, 2\*\*32\), got -1$"),
], ids=["beyond-32-bits", "negative"])
def test_a_noise_seed_outside_its_key_word_raises_when_built(seed, message):
    # the noise key would otherwise draw the noise of another seed; the op
    # refuses it itself, and a loaded config names its entry
    with pytest.raises(ValueError, match="^" + message):
        GaussianNoise(sigma=0.03, seed=seed)
    raw = json.loads(ExperimentConfig().to_json())
    raw["degradation_chain"][2]["seed"] = seed
    with pytest.raises(ValueError, match=r"^degradation_chain\[2\]: " + message):
        ExperimentConfig.from_dict(raw)
    ExperimentConfig(degradation_chain=DEFAULT_CHAIN[:2]
                     + (GaussianNoise(sigma=0.03, seed=2 ** 32 - 1),))


def test_a_degradation_seed_beyond_64_bits_raises_when_built():
    match = r"^seeds\.degradation must be < 2\*\*64, got 18446744073709551616$"
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(seeds=Seeds(degradation=2 ** 64))
    raw = json.loads(ExperimentConfig().to_json())
    raw["seeds"]["degradation"] = 2 ** 64
    with pytest.raises(ValueError, match=match):
        ExperimentConfig.from_dict(raw)
    ExperimentConfig(seeds=Seeds(degradation=2 ** 64 - 1))


@pytest.mark.parametrize("where, key, value, accepted", [
    ("seeds", "model", True, False),
    ("training", "epochs", False, False),
    ("detector", "fp_rate", 0, True),
    ("dswr", "noise", [0, 1], True),
    ("student", "ff_dim", 1024.0, False),
])
def test_json_types_bool_is_no_int_and_int_is_a_float(where, key, value, accepted):
    raw = json.loads(ExperimentConfig().to_json())
    raw[where][key] = value
    if accepted:
        assert json.loads(ExperimentConfig.from_dict(raw).to_json())[where][key] == value
    else:
        with pytest.raises(ValueError, match=rf"{where}\.{key}: expected int"):
            ExperimentConfig.from_dict(raw)


def test_module_dict_defaults_are_the_module_defaults():
    config = ExperimentConfig()
    assert config.student == StudentConfig()
    assert config.degradation_chain == DEFAULT_CHAIN
    assert config.train_config() == TrainConfig(teacher_seed=config.seeds.teacher)
    assert config.tracker_config() == QualityRanges()
    assert config.training == {"epochs": 12}
    assert config.detector == DetectorNoise(jitter_sigma=0.6, fp_rate=0.1, fn_rate=0.05)


def leaf_fields(kind, key=""):
    """(dotted key, type) of every field of the dataclass ``kind`` that holds
    a JSON scalar or array, walking into each nested dataclass, into each op of
    the chain as its own class, and into the keys ``training`` holds."""
    hints = typing.get_type_hints(kind)
    for f in fields(kind):
        name = f"{key}.{f.name}" if key else f.name
        if not f.init:      # an op's kind, fixed by its class
            continue
        if is_dataclass(hints[f.name]):
            yield from leaf_fields(hints[f.name], name)
        elif f.name == "degradation_chain":
            for i, op in enumerate(DEFAULT_CHAIN):
                yield from leaf_fields(type(op), f"{name}[{i}]")
        elif f.name == "training":
            train_hints = typing.get_type_hints(TrainConfig)
            for train_key in ExperimentConfig().training:
                yield f"{name}.{train_key}", train_hints[train_key]
        else:
            yield name, hints[f.name]


LEAVES = dict(leaf_fields(ExperimentConfig))
# JSON values, each of a type some field may take, and the types taking it
JSON_VALUES = [("1", {str}), (3, {int, float}), (1.5, {float}), (True, set()),
               (None, {tuple[int, int] | None}), ([0.5, 2], {tuple[float, float]}),
               ({}, set()), (math.nan, set()), (-math.inf, set())]


def test_the_default_chain_holds_every_op_kind():
    # so that the coverage test below walks the fields of every kind
    assert {type(op) for op in DEFAULT_CHAIN} == set(typing.get_args(DegradationOp))
    assert "degradation_chain[0].kernel_size" in LEAVES and "training.epochs" in LEAVES


@pytest.mark.parametrize("key", sorted(LEAVES))
def test_every_leaf_field_rejects_a_json_value_of_the_wrong_type(key):
    path = re.sub(r"\[(\d+)\]", r".\1", key).split(".")
    for value, takers in JSON_VALUES:
        if LEAVES[key] in takers:
            continue
        raw = json.loads(ExperimentConfig().to_json())
        section(raw, ".".join(path[:-1]))[path[-1]] = value
        with pytest.raises(ValueError, match=rf"^{re.escape(key)}: expected "):
            ExperimentConfig.from_json(json.dumps(raw))


# ExperimentConfig().to_json() as the snapshots of earlier versions hold it
DEFAULT_SNAPSHOT = """\
{
  "alpha": 0.4,
  "degradation_chain": [
    {
      "kernel_size": 7,
      "kind": "gaussian_blur",
      "sigma": 1.5
    },
    {
      "kind": "downsample",
      "resample": "bilinear",
      "scale": 0.5
    },
    {
      "kind": "gaussian_noise",
      "seed": 0,
      "sigma": 0.03
    }
  ],
  "detector": {
    "fn_rate": 0.05,
    "fp_rate": 0.1,
    "jitter_sigma": 0.6
  },
  "dswr": {
    "clarity": [
      0.0,
      0.02
    ],
    "contrast": [
      0.0,
      0.35
    ],
    "noise": [
      0.0,
      0.1
    ]
  },
  "num_eval_scenes": 8,
  "num_train_scenes": 6,
  "output_dir": "runs/default",
  "ratio": [
    2,
    1
  ],
  "scene": {
    "height": 96,
    "motion_jitter": 0.0,
    "num_frames": 32,
    "num_targets": 3,
    "width": 128
  },
  "seeds": {
    "degradation": 500,
    "detector": 200,
    "model": 400,
    "partition": 600,
    "scenes": 100,
    "teacher": 300
  },
  "student": {
    "ff_dim": 1024,
    "hidden_dim": 256,
    "num_heads": 4
  },
  "training": {
    "epochs": 12
  }
}
"""


def test_default_snapshot_text_is_unchanged():
    assert ExperimentConfig().to_json() == DEFAULT_SNAPSHOT
    assert ExperimentConfig.from_json(DEFAULT_SNAPSHOT) == ExperimentConfig()


@pytest.mark.parametrize("spec, op", [
    ({"kind": "gaussian_blur", "sigma": 1.0, "kernel_size": 3},
     GaussianBlur(sigma=1.0, kernel_size=3)),
    ({"kind": "downsample", "scale": 0.25}, Downsample(scale=0.25)),
    ({"kind": "downsample", "scale": 0.5, "resample": "nearest"},
     Downsample(scale=0.5, resample="nearest")),
    ({"kind": "gaussian_noise", "sigma": 0.05}, GaussianNoise(sigma=0.05)),
    ({"kind": "gaussian_noise", "sigma": 0.1, "seed": 4}, GaussianNoise(sigma=0.1, seed=4)),
], ids=["blur", "downsample-default-resample", "downsample", "noise-default-seed", "noise"])
def test_chain_specs_of_earlier_snapshots_load(spec, op):
    # a key left out takes its default, as it did when the chain held dicts
    raw = json.loads(DEFAULT_SNAPSHOT)
    raw["degradation_chain"] = [spec, spec]
    config = ExperimentConfig.from_dict(raw)
    assert config == replace(ExperimentConfig(), degradation_chain=(op, op))
    assert ExperimentConfig.from_json(config.to_json()) == config


def test_a_snapshot_without_sections_takes_the_defaults():
    assert ExperimentConfig.from_dict({}) == ExperimentConfig()
    assert ExperimentConfig.from_dict({"scene": {"num_targets": 5}}) == ExperimentConfig(
        scene=SceneParams(num_targets=5))
