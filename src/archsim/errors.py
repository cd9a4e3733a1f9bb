"""Exception types shared across the package."""


class ArchsimError(Exception):
    """Base class for all archsim errors."""


class InvalidDimensionsError(ArchsimError):
    """Corridor/exit dimensions violate the geometry preconditions."""


class CrowdTooLargeError(ArchsimError):
    """Requested crowd size exceeds the available spawn cells."""


class ConfigError(ArchsimError):
    """Malformed configuration file or invalid parameter value."""


class DegenerateInputError(ArchsimError):
    """Statistical input has no usable variation (all-equal x, zero variance)."""
