"""Exception types shared across the package."""


class IfalignError(Exception):
    """Base class for all package-specific errors."""


class PolarSingularity(IfalignError):
    """Local-level-frame kinematics are undefined at the poles.

    Raised when |cos(latitude)| falls below 1e-9; the curvilinear position
    parameterization divides by (R_E + h) cos L.
    """


class NotARotation(IfalignError):
    """A matrix violates the orthonormality/determinant invariants of a DCM."""


class DegenerateSpectrum(IfalignError):
    """The two smallest eigenvalues of the accumulated 4x4 matrix coincide.

    Signals that the initial attitude is not (yet) observable from the
    accumulated vector pairs: fewer than two linearly independent
    observations have been absorbed.  Carries a deterministic candidate so
    callers that insist on an answer still get a reproducible one.
    """

    def __init__(self, message, q=None, lambda_min=None):
        super().__init__(message)
        self.q = q
        self.lambda_min = lambda_min


class FormatError(IfalignError):
    """A log file row failed to parse; carries the 1-based line number.

    Its text starts with the file and line it names, when it names them.
    """

    def __init__(self, message, path=None, line=None):
        super().__init__(message)
        self.path = path
        self.line = line

    def __str__(self):
        message = super().__str__()
        if self.line is not None:
            message = f"line {self.line}: {message}"
        if self.path is not None:
            message = f"{self.path}: {message}"
        return message


class GapError(IfalignError):
    """Aiding data has a gap larger than the configured maximum."""


class RateMismatch(IfalignError):
    """IMU sample rate is incompatible with the requested update interval."""


class GimbalProximityWarning(UserWarning):
    """Pitch is within 1e-6 rad of +-90 deg; roll/yaw split is ill-conditioned."""
