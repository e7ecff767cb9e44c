"""Numerical toolkit for the 3D Riemannian manifold with circulant metric."""

from .circulant import (
    IDENTITY,
    Q,
    S,
    CirculantMatrix,
    circ_apply,
    circ_mul,
)
from .connection import (
    christoffel_closed,
    christoffel_general,
    nabla_q,
    parallel_defect,
)
from .curvature import (
    CurvatureAtPoint,
    curvature_at,
    identity_32_residual,
    identity_residuals,
    independence_cubic,
    orbit_spreads,
    sectional_curvature,
    sectional_curvatures,
    sections_of,
    theorem3_check,
)
from .fields import (
    FieldPair,
    MetricAtPoint,
    Polynomial,
    domain_check,
    field_eval,
    field_grad,
    metric_at,
    parse_field_spec,
)

__all__ = [
    "IDENTITY",
    "Q",
    "S",
    "CirculantMatrix",
    "circ_apply",
    "circ_mul",
    "christoffel_closed",
    "christoffel_general",
    "nabla_q",
    "parallel_defect",
    "CurvatureAtPoint",
    "curvature_at",
    "identity_32_residual",
    "identity_residuals",
    "independence_cubic",
    "orbit_spreads",
    "sectional_curvature",
    "sectional_curvatures",
    "sections_of",
    "theorem3_check",
    "FieldPair",
    "MetricAtPoint",
    "Polynomial",
    "domain_check",
    "field_eval",
    "field_grad",
    "metric_at",
    "parse_field_spec",
]

__version__ = "0.1.0"
