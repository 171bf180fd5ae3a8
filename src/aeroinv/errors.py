"""Exception types shared across the package."""


class AeroinvError(Exception):
    """Base class for all package errors."""


class OutOfBand(AeroinvError):
    """Wavelength query outside the range of a refractive-index table."""


class DegenerateMix(AeroinvError):
    """Effective-medium mixing relation has no finite solution."""


class NonConvergent(AeroinvError):
    """Scattering series recurrences produced non-finite values."""


class GridTooCoarse(AeroinvError):
    """Collocation grid collapsed below the minimum of 3 points."""


class DimensionError(AeroinvError):
    """Model-space dimension exceeds the number of measurements."""


class OutOfRange(AeroinvError):
    """Radius outside the reconstruction domain, or Mie size parameter above
    the series' bound ``optics._X_MAX``."""


class MaxIterations(AeroinvError):
    """Active-set iteration cap exceeded."""


class IllConditioned(AeroinvError):
    """Cholesky factorization of a regularizer failed."""


class TargetOutOfRange(AeroinvError):
    """Discrepancy target outside the attainable residual range."""


class BracketFailure(AeroinvError):
    """Residual at the largest admissible regularization parameter is still
    below the discrepancy target."""


class CholeskyFailure(AeroinvError):
    """Matrix passed to the orthant integrator is not positive definite."""


class NoModels(AeroinvError):
    """Model generation produced no admissible candidate on any level."""


class EmptyCandidates(AeroinvError):
    """Model selection called with an empty candidate list."""


class ZeroTruth(AeroinvError):
    """Relative error against an identically-zero reference."""


class RootFailure(AeroinvError):
    """Auxiliary scalar root-finding failed."""


class UsageError(AeroinvError):
    """Invalid command-line arguments or configuration."""
