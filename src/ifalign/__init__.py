"""In-flight coarse alignment for strapdown INS from aided velocity/position.

Estimates the constant initial attitude of a maneuvering vehicle from IMU
increments plus GPS-style velocity/position fixes, using the recursive
velocity-integration and position-integration aligners, with a simulation
and Monte-Carlo harness for verification.
"""

from .align import (
    AlignmentEstimate,
    PositionIntegrationAligner,
    VelocityIntegrationAligner,
    aid_fix,
    make_aligner,
)
from .errors import (
    DegenerateSpectrum,
    FormatError,
    GapError,
    GimbalProximityWarning,
    IfalignError,
    NotARotation,
    PolarSingularity,
    RateMismatch,
)
from .harness import (
    AlignmentData,
    McSummary,
    RunReport,
    monte_carlo,
    run_alignment,
)
from .increments import (
    body_rotvec,
    double_integral_increment,
    imu_interval,
    sculling_increment,
)
from .quest import accumulate, optimal_quaternion
from .simulate import (
    ScenarioConfig,
    SensorErrors,
    SineProfile,
    Truth,
    generate_truth,
    gps_fixes,
    sample_imu,
    simulation_sensor_defaults,
    turning_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentData",
    "AlignmentEstimate",
    "DegenerateSpectrum",
    "FormatError",
    "GapError",
    "GimbalProximityWarning",
    "IfalignError",
    "McSummary",
    "NotARotation",
    "PolarSingularity",
    "PositionIntegrationAligner",
    "RateMismatch",
    "RunReport",
    "ScenarioConfig",
    "SensorErrors",
    "SineProfile",
    "Truth",
    "VelocityIntegrationAligner",
    "accumulate",
    "aid_fix",
    "body_rotvec",
    "double_integral_increment",
    "generate_truth",
    "gps_fixes",
    "imu_interval",
    "make_aligner",
    "monte_carlo",
    "optimal_quaternion",
    "run_alignment",
    "sample_imu",
    "sculling_increment",
    "simulation_sensor_defaults",
    "turning_scenario",
]
