"""Exception hierarchy shared across the package.

Every error raised deliberately by this package derives from PdcohError,
so callers (and the command-line front end) can separate input problems
from genuine bugs.
"""

import contextlib
import math
import numbers


class PdcohError(Exception):
    """Base class for all errors raised by pdcoh."""


class ConfigurationError(PdcohError):
    """Invalid configuration value, file, or combination of inputs."""


class DensityPeakError(ConfigurationError):
    """Spectral density with no finite positive peak at its gain and length."""


class WavelengthRangeError(PdcohError):
    """Wavelength outside the valid range of a Sellmeier coefficient set."""


class EvanescentWaveError(PdcohError):
    """Transverse wavevector too large for a propagating wave."""


class RootNotFoundError(PdcohError):
    """A root solver found no sign change over its search interval."""


class EdgeDecayError(PdcohError):
    """Spectral grid does not decay at its edges; transform would alias."""


class ResolutionError(PdcohError):
    """Grid too coarse for the requested measurement.

    The refine_factor attribute states how much finer the sampling must
    be for the measurement to proceed.
    """

    def __init__(self, message, refine_factor=None):
        super().__init__(message)
        self.refine_factor = refine_factor


class SamplingError(PdcohError):
    """Fringe trace sampled too sparsely or too unevenly to analyze."""


class MapExtentError(PdcohError):
    """Requested (tau, xi) point lies outside the correlation map."""


def real(name, value):
    """value, if a real number (not a bool), finite or not; else
    ConfigurationError naming it. For a range test that words NaN and
    infinities itself; finite builds on it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    return value


def finite(name, value, positive=False):
    """value, if a real number (not a bool) that is finite, and above 0
    where positive; else ConfigurationError naming it."""
    if not -math.inf < real(name, value) < math.inf:
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    if positive and not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")
    return value


@contextlib.contextmanager
def blamed(field, *kinds):
    """Re-raise an exception of the given kinds as a ConfigurationError
    prefixed with the field or file that caused it, chained from it. Any
    kinds serve (OSError, ValueError, configparser.Error); the default is
    any PdcohError."""
    try:
        yield
    except kinds or PdcohError as exc:
        raise ConfigurationError(f"{field}: {exc}") from exc
