import sys
import pathlib
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
