"""Exception hierarchy for qedtangle."""


class QedTangleError(Exception):
    """Base class for all package errors."""


class InvalidKinematicsError(QedTangleError):
    """Momentum off-shell, non-finite input, or otherwise unusable kinematics."""


class BelowThresholdError(InvalidKinematicsError):
    """Incoming momentum below the production threshold of the process."""


class DivergentKinematicsError(QedTangleError):
    """Kinematic point sits on (or too close to) a propagator pole."""


class UnfilterableStateError(QedTangleError):
    """Momentum filtering leaves no outgoing flux: Tr(M rho M+) ~ 0."""


class NonHermitianError(QedTangleError):
    """Matrix handed to the Hermitian eigensolver is not Hermitian."""


class InvalidConfigError(QedTangleError):
    """Scan configuration file or CLI flags are inconsistent or out of range."""
