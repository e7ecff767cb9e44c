"""Exception hierarchy for circgeo."""


class CircGeoError(Exception):
    """Base class for all circgeo errors."""


class PointSkipped(CircGeoError):
    """The point (or a point its computation needs) is outside where the check applies.

    The CLI records such a point as skipped, with the subclass name as reason.
    """


class DegenerateMetric(PointSkipped):
    """The degeneracy factor D = (A-B)(A+2B) vanishes at the point."""


class ParseError(CircGeoError):
    """Malformed field-specification text, or a builtin name that does not exist.

    Carries the character offset where parsing failed (0 for an unknown builtin name).
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DependentOrbit(PointSkipped):
    """Seed vector x has x, qx, q^2x linearly dependent (cubic vanishes)."""


class IndefiniteMetric(PointSkipped):
    """Sectional curvature requested where the metric is not positive definite."""


class DegenerateSection(PointSkipped):
    """Spanning pair has (numerically) vanishing Gram determinant."""


class ConfigError(CircGeoError):
    """Invalid run configuration (CLI or config file)."""
