"""Exception hierarchy and the report of non-fatal events, shared across the package."""

import logging
import warnings

#: Non-fatal events go to this logger as well as to ``warnings``.  The
#: package itself adds only a NullHandler: applications choose the handlers.
LOGGER = logging.getLogger("floqdyn")
LOGGER.addHandler(logging.NullHandler())


class FloqdynError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(FloqdynError, ValueError):
    """An operator or state failed a structural precondition."""


class ConfigError(FloqdynError, ValueError):
    """A run/sweep configuration is malformed or inconsistent (CLI exit 2)."""


class NumericalError(FloqdynError, RuntimeError):
    """A numerical procedure failed to converge or lost accuracy (CLI exit 3)."""


class StepSizeError(NumericalError):
    """Integration step size too coarse for the requested accuracy."""


class ResolutionError(NumericalError):
    """Sampling grid too coarse for the requested harmonic content."""


def warn(message: str, stacklevel: int = 2) -> None:
    """Report a non-fatal event as a ``RuntimeWarning`` and a WARNING record
    on :data:`LOGGER`, which still receives it when callers silence
    warnings.  ``stacklevel`` is that of ``warnings.warn`` called in place
    of this function.
    """
    LOGGER.warning(message)
    warnings.warn(message, RuntimeWarning, stacklevel=stacklevel + 1)
