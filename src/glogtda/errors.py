"""Exception types shared across the package.

Everything derives from GlogError so callers can catch the whole family;
the concrete classes mirror the failure modes of the individual layers
(container parsing, numeric domains, array shapes, metric definedness).
"""


class GlogError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(GlogError):
    """A binary container (NPY/NPZ/checkpoint/feature file) is malformed."""


class UnsupportedFeatureError(GlogError):
    """The input is well-formed but uses a feature we deliberately do not support."""


class LengthError(FormatError):
    """Payload size disagrees with the declared shape/dtype."""


class NotFoundError(GlogError):
    """A named entry is missing from an archive."""


class DomainError(GlogError, ValueError):
    """A numeric value lies outside its documented domain."""


class ShapeError(GlogError, ValueError):
    """Array dimensionality or extents violate a precondition."""


class ParameterError(GlogError, ValueError):
    """A configuration parameter violates its documented constraints."""


class UndefinedMetricError(GlogError):
    """A metric is mathematically undefined for the given inputs."""
