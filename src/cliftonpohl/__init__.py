"""Geodesics of the complexified Clifton-Pohl torus.

The real surface R^2 \\ {0} with metric du dv / (u^2 + v^2) is the
classical compact-but-incomplete Lorentz example; over complex time its
geodesics extend along paths that flank the real-line singularities.
This package evaluates the closed-form solution families, continues
germs along arbitrary polylines in the complex t-plane, and probes how
far continuation reaches (obstructions form discrete sets).
"""

__version__ = "0.1.0"

from .errors import (
    ChartDegeneracyError,
    CliftonPohlError,
    ConvergenceError,
    DegenerateCoefficientsError,
    DegenerateGermError,
    NullVelocityComponentError,
    OutOfDomainError,
    PoleError,
    SingularPathError,
)
from .special import (
    EllipticTriple,
    carlson_rf,
    elliptic_F,
    jacobi_elliptic,
)
from .manifold import (
    Classification,
    FirstIntegrals,
    GeodesicClass,
    GeodesicGerm,
    Point,
    classify,
    dilate,
    first_integrals,
    geodesic_rhs,
    germ,
    in_domain,
    metric_eval,
)
from .families import (
    ExponentialSampler,
    GenericEllipticSampler,
    GeodesicSampler,
    NullRationalSampler,
    NullTanSampler,
    PsiCoefficients,
    psi_coefficients,
    sample,
    solve,
)
from .continuation import (
    ContinuationTrace,
    LoopResult,
    Obstruction,
    ObstructionReport,
    PathPolyline,
    TraceSample,
    completeness_probe,
    continue_path,
    loop_monodromy,
)

__all__ = [
    "__version__",
    "ChartDegeneracyError",
    "CliftonPohlError",
    "ConvergenceError",
    "DegenerateCoefficientsError",
    "DegenerateGermError",
    "NullVelocityComponentError",
    "OutOfDomainError",
    "PoleError",
    "SingularPathError",
    "EllipticTriple",
    "carlson_rf",
    "elliptic_F",
    "jacobi_elliptic",
    "Classification",
    "FirstIntegrals",
    "GeodesicClass",
    "GeodesicGerm",
    "Point",
    "classify",
    "dilate",
    "first_integrals",
    "geodesic_rhs",
    "germ",
    "in_domain",
    "metric_eval",
    "ExponentialSampler",
    "GenericEllipticSampler",
    "GeodesicSampler",
    "NullRationalSampler",
    "NullTanSampler",
    "PsiCoefficients",
    "psi_coefficients",
    "sample",
    "solve",
    "ContinuationTrace",
    "LoopResult",
    "Obstruction",
    "ObstructionReport",
    "PathPolyline",
    "TraceSample",
    "completeness_probe",
    "continue_path",
    "loop_monodromy",
]
