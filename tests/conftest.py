import numpy as np
import pytest

from spinkin.kinematics import sample_momenta


@pytest.fixture
def rng():
    return np.random.default_rng(20240810)


def direction_draw(rng):
    """Reference for the sampled directions: one unit vector from two scalar
    draws, z = 1 - 2 w0 and the azimuth 2 pi w1, in scalar arithmetic."""
    z = 1.0 - 2.0 * rng.random()
    azimuth = 2.0 * np.pi * rng.random()
    rho = np.sqrt((1.0 - z) * (1.0 + z))
    return np.array([rho * np.cos(azimuth), rho * np.sin(azimuth), z])


def momenta(seed: int, n: int):
    """Seeded on-shell momenta with the standard sampling distribution."""
    return sample_momenta(np.random.default_rng(seed), n)
