"""Exception hierarchy, and the number rules of every input.

Three families map onto the CLI exit codes: configuration/validation
problems (exit 2), numeric or domain failures (exit 3), and I/O failures
(exit 4).  ``json_number`` and ``json_integer`` are the one number rule of the
run config and of cell, surface and benchmark documents: every parser imports
this module, and it loads no numpy before ``--threads`` takes effect.
``check_positive`` is the one positivity rule: cells, surfaces, sources,
grids and the control figures apply it where each is built, so a value read
from a document and one passed through the Python API meet the same check.
``check_finite`` is the rule for values that may be zero or negative
(angles, source coordinates): it rejects NaN and infinity where they enter.
"""

from __future__ import annotations

import math
import sys


class RisBenchError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(RisBenchError):
    """Invalid specification, configuration, or input data."""

    exit_code = 2


class DomainError(RisBenchError):
    """Numerically or physically meaningless request on valid types."""

    exit_code = 3


class IoError(RisBenchError):
    """Filesystem or serialization failure."""

    exit_code = 4


# -- surface model -----------------------------------------------------------

class InvalidStateCount(ConfigError):
    """Cell state table length is not 2**n_bits."""


class InvalidGamma(ConfigError):
    """Reflection coefficient magnitude or phase outside its domain."""


class NonPositiveParam(ConfigError):
    """A parameter that must be positive is zero, negative, NaN or infinite."""


class GroupSizeMismatch(ConfigError):
    """Group size does not divide the cell count."""


class LengthMismatch(ConfigError):
    """Group-state vector length disagrees with the surface's group count."""


class InvalidStateIndex(ConfigError):
    """State index outside [0, 2**n_bits - 1]."""


class ConfigMismatch(ConfigError):
    """Configuration matrix incompatible with the surface."""


# -- field engine ------------------------------------------------------------

class SourceBelowSurface(ConfigError):
    """Point source placed at z <= 0."""


class GridMissingPlane(DomainError):
    """Grid lacks the phi = 0 or phi = 180 column required for a cut."""


class AllZeroField(DomainError):
    """Operation undefined on an identically zero field."""


class GridMismatch(DomainError):
    """Two grids do not share the same angular sampling."""


# -- benchmarks --------------------------------------------------------------

class UnknownBenchmark(ConfigError):
    """Benchmark id is not bundled and not a readable file."""


class OverlappingLobes(ConfigError):
    """Two intended beams share part of their lobe regions."""


# -- metrics -----------------------------------------------------------------

class EmptyRegion(DomainError):
    """No grid point falls inside the requested lobe region."""


class ZeroReferenceDirectivity(DomainError):
    """Reference field carries no power in the intended regions."""


# -- harness -----------------------------------------------------------------

class ConfigParseError(ConfigError):
    """Run-configuration file missing, unreadable, or malformed."""


# -- positivity and finiteness rules -----------------------------------------

def check_positive(owner: str = "", /, **values) -> None:
    """Raise NonPositiveParam unless every value is positive and finite; a
    plain ``v <= 0`` test would pass NaN and infinity.  ``owner`` (a cell id)
    leads the message when given."""
    for name, v in values.items():
        if not 0 < v < math.inf:
            prefix = f"{owner}: " if owner else ""
            raise NonPositiveParam(f"{prefix}{name} must be positive and finite, got {v}")


def check_finite(name: str, values) -> None:
    """Raise ConfigError unless every value is finite: a NaN angle or
    coordinate would otherwise reach the field as a wrong number (argmin
    over NaN distances picks state 0) or fail late as a DomainError."""
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{name} must be finite, got {tuple(values)}")


# -- number rules: both raise only ValueError ---------------------------------

def json_number(value) -> float:
    """A finite JSON number; float() would also take true, "12" and "nan".
    The exact type test keeps booleans out (bool subclasses int), and the
    bound keeps out NaN, infinities and integers too large for a float."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError(f"expected a finite number, got {value!r}")


def json_integer(value) -> int:
    """An integral JSON number; int() would truncate 6.9 and take true as 1."""
    if type(value) is int:
        return value  # exact, however large (ga.seed)
    if not json_number(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)
