import numpy as np
import pytest

from ifalign.harness import AlignmentData
from ifalign.simulate import ScenarioConfig, generate_truth


@pytest.fixture(scope="session")
def short_truth():
    """Default maneuvering scenario truncated to 20 s (shared, read-only)."""
    return generate_truth(ScenarioConfig(duration_s=20.0))


@pytest.fixture(scope="session")
def short_data(short_truth):
    """:func:`short_truth`'s IMU intervals and aiding fixes (shared, read-only)."""
    return AlignmentData.from_simulation(short_truth)


@pytest.fixture(scope="session")
def static_truth():
    """Static vehicle at 30 deg latitude (all oscillations and velocity zero)."""
    from ifalign.simulate import SineProfile

    zero = SineProfile(0.0)
    cfg = ScenarioConfig(
        duration_s=20.0,
        roll=zero,
        pitch=zero,
        yaw=zero,
        vel_mean_mps=(0.0, 0.0, 0.0),
        vel_north=zero,
        vel_up=zero,
        vel_east=zero,
    )
    return generate_truth(cfg)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
