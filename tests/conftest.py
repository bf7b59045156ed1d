import numpy as np
import pytest

from spinkin.kinematics import sample_momenta


@pytest.fixture
def rng():
    return np.random.default_rng(20240810)


def momenta(seed: int, n: int):
    """Seeded on-shell momenta with the standard sampling distribution."""
    return sample_momenta(np.random.default_rng(seed), n)
