import os
import sys
import pathlib

# one BLAS thread, as the benchmark runs: set before numpy first loads, so the
# tests' time does not hang on another process holding the second CPU, and
# every product rounds as in a benchmark run
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import pytest

from semtrack.config import ExperimentConfig
from semtrack.experiment import evaluation_corpus


@pytest.fixture(scope="session")
def default_evaluation():
    """The default config and its evaluation corpus, built once per session.
    Tests only track its samples, which changes nothing in them."""
    config = ExperimentConfig()
    return config, evaluation_corpus(config)
