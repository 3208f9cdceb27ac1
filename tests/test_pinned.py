"""Pinned outputs: the values a run of the default config gives, written out.

A speed change must leave losses, parameters, track records and scores bit
for bit as they were; these tests check that directly, not against an oracle
built from the same helpers. A change that moves a pin on purpose states the
old and new values and the reason.

* Untrained, every variant tracks 4 of the default evaluation sequences:
  pinned are a digest of the track records and the mean HOTA, MOTA and IDF1.
* Every variant trains one epoch on a 2-scene training corpus of the
  default config: pinned are every step's ``total`` (as ``float.hex``), a
  digest of the final parameters and a digest of the trained model's records
  on the same 4 sequences. Each trained model also tracks the first crowded
  evaluation sequence (below): pinned are a digest of its records and its
  HOTA, MOTA and IDF1. There ``baseline`` differs from the three students,
  which give the same records as each other, though their parameters
  differ; on the default sequences all four differ only on ``eval004``.
* ``baseline`` and ``full`` each train one step on one crowded scene (the
  benchmark's ``track-crowded`` scene parameters: 16 targets, 64 frames, 63
  contrastive pairs): pinned are the step's ``total``, the squared size of
  its update and, for ``baseline``, a digest of the updated parameters.
* Untrained ``baseline`` and ``full`` track the first two evaluation
  sequences of those crowded scenes (about 15 detections a frame, where the
  default sequences have 3-7): pinned is a digest of the track records. The
  two variants' records differ there on both sequences, while on the default
  sequences they differ only on ``eval004``.
* The MOTChallenge file of untrained ``baseline``'s records on the first
  crowded sequence is pinned by its sha256. Its records, kept after tracking
  as the benchmark keeps every pass's, may cost at most ``RECORD_BYTES``
  each.
* Untrained ``baseline`` tracks two such crowded sequences at the
  benchmark's workload seed 31 (input seeds shifted by 31 x 100 000): pinned
  are a digest of the track records and the mean HOTA, MOTA and IDF1, which
  the metrics compute from their largest gathers there.

Records and scores are discrete or ratios of counts; losses and parameters
are float64 sums whose order numpy and the BLAS fix, so every pin is exact.
The tests run on one BLAS thread, as the benchmark does (``conftest.py``).
The pins came out the same on one thread and on two, except the updated
parameters of ``full`` on the crowded scene: its products of about a thousand
rows round differently when the BLAS splits them over another number of
threads, so that pin is the update's squared size, within a stated relative
tolerance.
"""

import ctypes
import hashlib
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from semtrack.config import SceneParams
from semtrack.experiment import (build_model, evaluation_corpus, track_samples,
                                 training_corpus)
from semtrack.metrics import evaluate
from semtrack.training import train
from semtrack.tracker import VARIANTS

# eval002-eval005: eval004 is the one default sequence whose records tell the
# variants apart (untrained ``full`` and every student after one epoch differ
# there from the others)
SEQUENCES = slice(2, 6)
TRAIN_SCENES = 2

# variant: (records digest, mean hota, mota, idf1)
UNTRAINED = {
    "baseline": ("664456b643407e9b9d7c86bd1650293609ca680de8b20f74d872e2a61cfb35b5",
        0.8218153200753899, 0.9401041666666666, 0.9362372822487439),
    "distill": ("664456b643407e9b9d7c86bd1650293609ca680de8b20f74d872e2a61cfb35b5",
        0.8218153200753899, 0.9401041666666666, 0.9362372822487439),
    "dcsd": ("664456b643407e9b9d7c86bd1650293609ca680de8b20f74d872e2a61cfb35b5",
        0.8218153200753899, 0.9401041666666666, 0.9362372822487439),
    "full": ("6e81b94f7a8a5599d14c559d982cc630241904b05a45f310948223c82f308222",
        0.8237100271731566, 0.9427083333333334, 0.9375023043866314),
}

# variant: (every step's total, parameters digest, trained records digest)
TRAINED = {
    "baseline": (["0x1.72a8649055f4fp-1", "0x1.1a5f1f843aa7cp-1"],
        "e5468ca945f0175e1b512d3aeac60d7562c69b67e75c6b29c3977d1a6dffc64e",
        "664456b643407e9b9d7c86bd1650293609ca680de8b20f74d872e2a61cfb35b5"),
    "distill": (["0x1.2749b2cb2e46bp-1", "0x1.005e27e3dbc7ap-1"],
        "bc8539ff96d2df041a6c0b0eef3ccf2bec15dd3cbea6d31d5a081ade892ed544",
        "6e81b94f7a8a5599d14c559d982cc630241904b05a45f310948223c82f308222"),
    "dcsd": (["0x1.2749b2cb2e46bp-1", "0x1.005e27702671ep-1"],
        "ec459c712abaabe3b8a88910ea6867d082749801941cb1f659748f477b277e85",
        "6e81b94f7a8a5599d14c559d982cc630241904b05a45f310948223c82f308222"),
    "full": (["0x1.25d87a64d955cp-1", "0x1.03c44b3a950a2p-1"],
        "10248c5f0f1ed04f5511f29239b0b204afa2ec715d4fe08faee99305e91552e8",
        "6e81b94f7a8a5599d14c559d982cc630241904b05a45f310948223c82f308222"),
}

# the benchmark's track-crowded scenes
CROWDED_SCENE = SceneParams(width=256, height=192, num_frames=64, num_targets=16,
                            motion_jitter=0.5)

# variant: (the step's total, the sum of its squared parameter updates,
# parameters digest or None) after one crowded scene
CROWDED = {
    "baseline": ("0x1.348d709591cfcp+1", 6.433364640413128e-08,
        "b94904bf58ba4118fd01d35629bb35f8b0ec7ec0110478973979c9ac87f98852"),
    # one and two BLAS threads give updates 1 ulp apart in this sum
    "full": ("0x1.9b10ddc632232p+0", 6.652395187858304e-07, None),
}
UPDATE_REL_TOL = 1e-12

CROWDED_EVAL_SCENES = 2
# variant: (records digest, hota, mota, idf1) of the one-epoch model on the
# first crowded sequence
TRAINED_CROWDED = {
    "baseline": ("c72db061e57b9460165b62d0b11d20713725cda0d3c314446c28b7a95268f764",
        0.71803192749447, 0.927734375, 0.7986006996501749),
    "distill": ("58885c67dd3e1159f4b7df1c983bb028f8cb60b2efed4e360971c92d6f37e3b5",
        0.6903449155337098, 0.92578125, 0.768615692153923),
    "dcsd": ("58885c67dd3e1159f4b7df1c983bb028f8cb60b2efed4e360971c92d6f37e3b5",
        0.6903449155337098, 0.92578125, 0.768615692153923),
    "full": ("58885c67dd3e1159f4b7df1c983bb028f8cb60b2efed4e360971c92d6f37e3b5",
        0.6903449155337098, 0.92578125, 0.768615692153923),
}
# variant: records digest of the untrained model on the crowded sequences
CROWDED_RECORDS = {
    "baseline": "2ba9ce82b77116c4442e7f0f5fbc41405bf95ba5fc620c0dbdb524e9253e4df2",
    "full": "30cc1c19d588bb121ffe5afcfe0ca5c58f9397e37f6e73a180e13b20fdc57f98",
}
# sha256 of the MOTChallenge file untrained baseline's records on the first
# crowded sequence write
CROWDED_FILE = "0db433bc3d52d8aa5e1f1c1eefeb36317f3a64eeb4c1332f8420041e38317eab"
# the tracemalloc bytes a kept record may cost: the benchmark keeps every
# tracking pass's records, so they count in its peak memory
RECORD_BYTES = 64

# the input seeds the benchmark's workload seed 31 shifts, and by how much
SHIFTED_SEEDS = ("scenes", "detector", "degradation", "partition")
SECOND_SEED_OFFSET = 31 * 100_000
# untrained baseline on the first two crowded sequences at that seed:
# (records digest, mean hota, mota, idf1)
CROWDED_SECOND_SEED = (
    "a7c585db06dbe5a3f61a1990ec1be3bbefa2ff230166a6efeec68bc5a9942e61",
    0.7231739887015736, 0.92431640625, 0.8068412063499737)


def records_digest(tracks):
    """sha256 of every sequence's name and records, floats as ``float.hex``."""
    digest = hashlib.sha256()
    for name, trackset in tracks.items():
        digest.update(f"{name}\n".encode())
        for r in trackset:
            fields = [str(r.frame), str(r.track_id), *map(float.hex, r.box),
                      float.hex(r.confidence)]
            digest.update((" ".join(fields) + "\n").encode())
    return digest.hexdigest()


def parameters_digest(model):
    """sha256 of every parameter's name, shape and float64 bytes, by name."""
    digest = hashlib.sha256()
    for name, p in sorted(model.named_parameters().items()):
        digest.update(f"{name} {p.value.rows} {p.value.cols}\n".encode())
        digest.update(p.value.data.tobytes())
    return digest.hexdigest()


def mean_scores(samples, tracks):
    reports = [evaluate(s.gt, tracks[s.name]) for s in samples]
    return tuple(float(np.mean([getattr(r, metric) for r in reports]))
                 for metric in ("hota", "mota", "idf1"))


@pytest.fixture(scope="module")
def pinned_evaluation(default_evaluation):
    config, corpus = default_evaluation
    return config, corpus[SEQUENCES]


@pytest.fixture(scope="module")
def pinned_training(default_evaluation):
    config, _ = default_evaluation
    config = replace(config, num_train_scenes=TRAIN_SCENES,
                     training=dict(config.training, epochs=1))
    return config, training_corpus(config)


@pytest.mark.parametrize("variant", VARIANTS)
def test_untrained_records_and_scores_are_pinned(variant, pinned_evaluation):
    config, samples = pinned_evaluation
    tracks = track_samples(build_model(config, variant), samples, config)
    assert (records_digest(tracks), *mean_scores(samples, tracks)) == UNTRAINED[variant]


@pytest.fixture(scope="module", params=VARIANTS)
def one_epoch(request, pinned_training):
    """A variant, its training log and its model after one epoch, trained
    once for every test that reads it."""
    config, corpus = pinned_training
    model = build_model(config, request.param)
    return request.param, train(model, corpus, config.train_config(), config.dswr), model


def test_one_epoch_of_training_is_pinned(one_epoch, pinned_training, pinned_evaluation):
    variant, log, model = one_epoch
    config, _ = pinned_training
    _, samples = pinned_evaluation
    tracks = track_samples(model, samples, config)
    totals, parameters, records = TRAINED[variant]
    assert [float.hex(row["total"]) for row in log] == totals
    assert parameters_digest(model) == parameters
    assert records_digest(tracks) == records


@pytest.fixture(scope="module")
def crowded_training(default_evaluation):
    config, _ = default_evaluation
    config = replace(config, num_train_scenes=1, scene=CROWDED_SCENE,
                     training=dict(config.training, epochs=1))
    return config, training_corpus(config)


@pytest.mark.parametrize("variant", CROWDED)
def test_one_step_on_a_crowded_scene_is_pinned(variant, crowded_training):
    config, corpus = crowded_training
    model = build_model(config, variant)
    before = {name: p.value.data for name, p in model.named_parameters().items()}
    (row,) = train(model, corpus, config.train_config(), config.dswr)
    total, update, parameters = CROWDED[variant]
    assert float.hex(row["total"]) == total
    moved = sum(float(np.square(p.value.data - before[name]).sum())
                for name, p in sorted(model.named_parameters().items()))
    assert moved == pytest.approx(update, rel=UPDATE_REL_TOL)
    if parameters is not None:
        assert parameters_digest(model) == parameters


@pytest.fixture(scope="module")
def crowded_evaluation(default_evaluation):
    config, _ = default_evaluation
    config = replace(config, scene=CROWDED_SCENE, num_eval_scenes=CROWDED_EVAL_SCENES)
    return config, evaluation_corpus(config)


@pytest.mark.parametrize("variant", CROWDED_RECORDS)
def test_untrained_records_on_crowded_sequences_are_pinned(variant, crowded_evaluation):
    config, samples = crowded_evaluation
    tracks = track_samples(build_model(config, variant), samples, config)
    assert records_digest(tracks) == CROWDED_RECORDS[variant]


def test_one_epoch_models_on_a_crowded_sequence_are_pinned(one_epoch, crowded_evaluation):
    variant, _, model = one_epoch
    config, samples = crowded_evaluation
    tracks = track_samples(model, samples[:1], config)
    assert (records_digest(tracks), *mean_scores(samples[:1], tracks)) \
        == TRAINED_CROWDED[variant]


def test_the_file_written_from_a_crowded_tracked_set_is_pinned(crowded_evaluation,
                                                               tmp_path):
    config, samples = crowded_evaluation
    (tracks,) = track_samples(build_model(config, "baseline"), samples[:1], config).values()
    path = tmp_path / "pred.txt"
    tracks.write(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CROWDED_FILE


def test_kept_records_of_crowded_sequences_stay_small(crowded_evaluation):
    config, samples = crowded_evaluation
    model = build_model(config, "baseline")
    track_samples(model, samples[:1], config)     # whatever a first call allocates
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        kept = [track_samples(model, [samples[i % len(samples)]], config).popitem()[1].records
                for i in range(5)]
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert grown <= RECORD_BYTES * sum(map(len, kept))


def test_untrained_baseline_on_crowded_sequences_at_a_second_seed_is_pinned(
        crowded_evaluation):
    config, _ = crowded_evaluation
    seeds = {name: getattr(config.seeds, name) + SECOND_SEED_OFFSET
             for name in SHIFTED_SEEDS}
    config = replace(config, seeds=replace(config.seeds, **seeds))
    samples = evaluation_corpus(config)
    tracks = track_samples(build_model(config, "baseline"), samples, config)
    assert (records_digest(tracks), *mean_scores(samples, tracks)) == CROWDED_SECOND_SEED


def test_the_blas_runs_on_one_thread():
    """``conftest.py`` fixes one BLAS thread before numpy loads; ask every
    OpenBLAS this process mapped how many threads it runs."""
    maps = Path("/proc/self/maps")
    if not maps.exists():
        pytest.skip("no /proc/self/maps to find the BLAS in")
    paths = {line.split()[-1] for line in maps.read_text().splitlines()
             if "openblas" in line.lower()}
    queries = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")
    counts = [getattr(library, name)() for library in map(ctypes.CDLL, paths)
              for name in queries if hasattr(library, name)]
    if not counts:
        pytest.skip("no OpenBLAS thread count to ask for")
    assert set(counts) == {1}
