"""Exception taxonomy shared across the package."""


class DimensionError(ValueError):
    """Two objects that must live on the same grid or index set do not."""


class ResolutionError(ValueError):
    """A grid is too coarse to carry the requested construction."""


class SpecValidationError(ValueError):
    """A specification object (design spec, config, ...) fails validation.

    ``field`` names the rejected field when one is to blame, so a config
    loader can point at the line that set it.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class DegenerateDesignError(RuntimeError):
    """A design sample is numerically rank deficient where full rank is required."""
