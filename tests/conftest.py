import os
import sys
import pathlib

# one BLAS thread, as the benchmark runs: set before numpy first loads, so
# every product rounds as in a benchmark run, and the second CPU is left to
# the process's shared worker threads (semtrack.workers), which degrade frames
# and make a taped linear's weight gradient, not to BLAS threads that would
# compete with them
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
