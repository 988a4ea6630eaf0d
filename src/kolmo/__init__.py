"""Kolmogorov problem on absolutely / multiply monotone functions via Markov moments."""

from .core import (
    Atom,
    ExponentVector,
    Family,
    FunctionFamily,
    HalfInteger,
    MomentVector,
    NormVector,
    Representation,
    curve_point,
    factorial_scale,
    index_of,
    moment_coordinates,
    moments_of,
    norms_from_moments,
)
from .errors import (
    DomainError,
    KolmoError,
    NotAttainableError,
    NotBoundaryError,
    NotInteriorError,
    NumericalFailureError,
    PinnedNodeCoincidenceError,
    UnsupportedSystemError,
)
from .kolmogorov import (
    AdmissibilityResult,
    Status,
    boundary_spline,
    canonical_spline,
    decide_admissible,
    decide_status,
    extremal_family_member,
    interior_spline,
    matching_spline,
)
from .oracle import FeasibilityReport, cone_membership
from .representations import (
    Certificate,
    ClassKind,
    Classification,
    canonical_representation,
    classify,
    principal_representation,
)
from .splines import (
    IdealSpline,
    evaluate,
    norms,
    random_member,
    representation_of,
    spline_from_representation,
    with_constant,
)

__version__ = "0.1.0"
