"""Admissibility of derivative-norm tuples on the AM and MM classes.

Builds the uniquely determined comparison splines, decides admissibility of a
norm tuple by the recursive trichotomy over trailing sub-tuples, and exposes
the extremal spline family whose norm tuples exhaust the admissible set.  The
witness of a decision is the top level's comparison spline plus the excess of
the one norm it does not match.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from enum import Enum

from .core import (
    ExponentVector,
    FunctionFamily,
    NormVector,
    moment_coordinates,
)
from .errors import (
    DomainError,
    NotAttainableError,
    NotBoundaryError,
    NumericalFailureError,
    PinnedNodeCoincidenceError,
    UnsupportedSystemError,
    require_tolerance,
)
from .representations import (
    ACCEPT_TOL,
    ClassKind,
    canonical_representation,
    classify,
    log_far_node,
    principal_representation,
)
from .splines import IdealSpline, evaluate, norms, spline_from_representation, with_constant


class Status(Enum):
    NOT_ADMISSIBLE = "not_admissible"
    ADMISSIBLE_BOUNDARY = "admissible_boundary"
    ADMISSIBLE_INTERIOR = "admissible_interior"


@dataclass(frozen=True)
class LevelRecord:
    """One recursion level: exponents, outcome, and the compared norms."""

    exponents: tuple[int, ...]
    classification: str
    lhs: float | None = None
    rhs: float | None = None


@dataclass(frozen=True)
class AdmissibilityResult:
    status: Status
    witness: IdealSpline | None
    trace: tuple[LevelRecord, ...]


def _require_positive(M: NormVector):
    if any(v <= 0 for v in M.values):
        raise DomainError(f"norm components must be strictly positive: {M.values}")


def interior_spline(M: NormVector, tol: float = ACCEPT_TOL) -> IdealSpline:
    """The unique spline with d/2 knots and no constant matching 2m norms."""
    if M.d % 2 != 0:
        raise DomainError(f"interior spline needs an even norm count, got {M.d}")
    _require_positive(M)
    rep = principal_representation(moment_coordinates(M), tol)
    return spline_from_representation(rep, M.family)


def boundary_spline(M: NormVector, tol: float = ACCEPT_TOL) -> IdealSpline:
    """Minimal spline with at most floor((d-1)/2) knots matching all d norms."""
    _require_positive(M)
    result = classify(moment_coordinates(M), tol)
    if result.kind is not ClassKind.BOUNDARY:
        raise NotBoundaryError(
            "no spline with at most floor((d-1)/2) knots matches the tuple; "
            "it is not a boundary point"
        )
    return spline_from_representation(result.witness, M.family)


def canonical_spline(
    M: NormVector, a_star: float, tol: float = ACCEPT_TOL
) -> IdealSpline:
    """Spline with (d+1)/2 knots, one pinned at a_star, matching an odd tuple."""
    if not 0 < a_star < math.inf:
        raise DomainError(f"prescribed knot must be positive and finite, got {a_star}")
    if M.d % 2 != 1:
        raise DomainError(f"canonical spline needs an odd norm count, got {M.d}")
    _require_positive(M)
    try:
        rep = canonical_representation(moment_coordinates(M), 1.0 / a_star, tol)
    except PinnedNodeCoincidenceError as exc:
        raise PinnedNodeCoincidenceError(
            f"prescribed knot {a_star} coincides with a knot of the minimal "
            "spline; the pinned system degenerates"
        ) from exc
    return spline_from_representation(rep, M.family)


@functools.lru_cache(maxsize=256)
def matching_spline(M: NormVector, tol: float = ACCEPT_TOL) -> IdealSpline:
    """The uniquely determined spline attaining an even-count norm tuple.

    One principal path gives the lowest-index spline: a boundary tuple
    yields its thin spline and an interior tuple the d/2-knot spline.
    Cached: the decision's levels, its witness and the points of a sweep
    share trailing sub-tuples, and the solve is deterministic, so a cached
    spline has the bits of a fresh one.  A solve that raises is not cached.
    """
    if M.d % 2 != 0:
        raise DomainError(f"matching spline needs an even norm count, got {M.d}")
    _require_positive(M)
    witness = classify(moment_coordinates(M), tol).witness
    if witness is None:
        raise NotAttainableError("no ideal spline attains the tuple")
    return spline_from_representation(witness, M.family)


def _attained_spline(M: NormVector, tol: float) -> IdealSpline:
    """:func:`matching_spline` of an admissible tuple or a sub-tuple of it, which a spline attains."""
    try:
        return matching_spline(M, tol)
    except NotAttainableError as exc:
        raise NumericalFailureError("no spline realized the admissible tuple or a sub-tuple of it") from exc


def decide_status(
    M: NormVector, tol: float = ACCEPT_TOL
) -> tuple[Status, tuple[LevelRecord, ...]]:
    """Trichotomy for a norm tuple with k_d = r: the verdict and the trace of
    the recursion, without building a witness."""
    require_tolerance(tol)
    k = M.exponents
    if k.exponents[-1] != k.r:
        raise UnsupportedSystemError(
            f"the decision procedure requires k_d = r, got k_d={k.exponents[-1]}, "
            f"r={k.r}"
        )
    _require_positive(M)
    trace: list[LevelRecord] = []
    status = _decide(M, tol, trace)
    return status, tuple(trace)


def decide_admissible(M: NormVector, tol: float = ACCEPT_TOL) -> AdmissibilityResult:
    """Trichotomy for a norm tuple with k_d = r, with a realizing witness.

    The witness is the top level's comparison spline S plus the excess of
    the one norm S does not match (:func:`_excess_witness`): M_{k_1} for odd
    d, where S matches M_{k_2..k_d} (empty for d = 1), and M_r for an even d
    whose top level compared equal, where S matches M_{k_1..k_{d-1}}; there
    the sublevel's spline comes first where it matches all d norms.
    :func:`classify` runs on the whole tuple only through
    :func:`matching_spline`, for the other even tuples.
    """
    status, trace = decide_status(M, tol)
    witness = None
    if status is not Status.NOT_ADMISSIBLE:
        top = trace[-1]
        if M.d % 2:
            S = _attained_spline(M.drop_first(), tol) if M.d > 1 else IdealSpline(M.family, (), ())
            witness = _excess_witness(S, M, 0, tol)
        elif top.lhs is None or _compare(top.lhs, top.rhs, tol):
            witness = _attained_spline(M, tol)
        else:
            witness = _attained_spline(M.drop_first().drop_first(), tol)
            if not _reproduces(witness, M, tol):
                witness = _excess_witness(_attained_spline(M.drop_first_and_last(), tol), M, -1, tol)
        _check_witness(witness, M, tol)
    return AdmissibilityResult(status, witness, trace)


def _excess_witness(S: IdealSpline, M: NormVector, end: int, tol: float) -> IdealSpline:
    """S, which matches M's norms but the one at ``end`` (0 or -1), plus
    that norm's excess e: S itself where they compare equal, S plus a
    constant e where its exponent k_j is 0 (a constant feeds M_0 alone), else
    S plus a knot a above S's knots (``end`` 0) or below them (-1) that feeds
    each other moment coordinate c_i with e*a^(k_j-k_i): the node 1/a of
    :func:`log_far_node`.  Raises :class:`NumericalFailureError` where M's
    norm lies below S's, or a does not clear S's knots, or a or its weight
    leaves the float range."""
    k, r = M.exponents.exponents, M.exponents.r
    k_j, S_j = k[end], evaluate(S, 0.0, k[end])
    order = _compare(M.values[end], S_j, tol)
    if order < 0:
        raise NumericalFailureError(f"M_{k_j} = {M.values[end]!r} lies below the spline's {S_j!r}")
    if order == 0:
        return S
    excess = M.values[end] - S_j
    if k_j == 0:
        return with_constant(S, excess)
    c = moment_coordinates(M).values
    e = excess * (c[end] / M.values[end])  # the excess in moment coordinates
    others = [i for i, ki in enumerate(k) if ki != k_j]
    log_a = -log_far_node(math.log(e), [c[i] for i in others], [k[i] - k_j for i in others], tol)
    try:
        a, w = math.exp(log_a), e * math.exp((k_j - r) * log_a)
        if end == 0:
            return IdealSpline(M.family, (a, *S.knots), (w, *S.weights), S.constant)
        return IdealSpline(M.family, (*S.knots, a), (*S.weights, w), S.constant)
    except (OverflowError, DomainError) as exc:
        raise NumericalFailureError(f"no far knot carries M_{k_j}'s excess in floats") from exc


def _decide(M: NormVector, tol: float, trace: list[LevelRecord]) -> Status:
    d = M.d
    k = M.exponents.exponents
    if d <= 2:
        # One or two strictly positive norms are always attained by a single
        # knot: two free parameters fit any positive pair exactly.
        trace.append(LevelRecord(k, "interior (base case)"))
        return Status.ADMISSIBLE_INTERIOR
    suffix = M.drop_first()
    sub = _decide(suffix, tol, trace)
    if sub is Status.NOT_ADMISSIBLE:
        trace.append(LevelRecord(k, "not_admissible (from sublevel)"))
        return Status.NOT_ADMISSIBLE
    cmp_M = suffix if d % 2 == 1 else M.drop_first_and_last()
    lhs = M.values[0]
    rhs = evaluate(_attained_spline(cmp_M, tol), 0.0, k[0])
    order = _compare(lhs, rhs, tol)
    if order < 0:
        status = Status.NOT_ADMISSIBLE
    elif order == 0:
        status = Status.ADMISSIBLE_BOUNDARY
    elif sub is Status.ADMISSIBLE_INTERIOR:
        status = Status.ADMISSIBLE_INTERIOR
    elif k[0] == 0:
        # Over a boundary sublevel a constant absorbs the excess of M_0.
        status = Status.ADMISSIBLE_BOUNDARY
    else:
        status = Status.NOT_ADMISSIBLE
    trace.append(LevelRecord(k, status.value, lhs, rhs))
    return status


def _compare(a: float, b: float, tol: float) -> int:
    """-1, 0 or 1 as norm a is below, equal to or above norm b: equal within
    10*tol of the larger, as a comparison norm extrapolates a spline that
    fits the other norms within tol."""
    band = 10 * tol * max(a, b)
    return -1 if a < b - band else int(a > b + band)


def _reproduces(spline: IdealSpline, M: NormVector, tol: float) -> bool:
    got = norms(spline, M.exponents)
    return not any(_compare(g, want, tol) for g, want in zip(got.values, M.values))


def _check_witness(spline: IdealSpline, M: NormVector, tol: float):
    if not _reproduces(spline, M, tol):
        raise NumericalFailureError(
            f"witness norms {norms(spline, M.exponents).values} do not reproduce {M.values}"
        )


def extremal_family_member(
    family: FunctionFamily,
    k: ExponentVector,
    knots: tuple[float, ...],
    weights: tuple[float, ...],
    constant: float = 0.0,
) -> IdealSpline:
    """Member of the extremal family for the system k: floor(d/2) knots.

    Its norm tuple is admissible by construction; for even d the constant is
    redundant and a nonzero value is accepted but flagged with a warning.
    """
    if family.r != k.r:
        raise DomainError(f"family order {family.r} != exponent order {k.r}")
    m = k.d // 2
    if len(knots) != m or len(weights) != m:
        raise DomainError(
            f"extremal family members for d={k.d} have exactly {m} knots, "
            f"got {len(knots)}"
        )
    if k.d % 2 == 0 and constant > 0:
        warnings.warn(
            "the constant is redundant for even-length exponent systems and "
            "may be set to zero",
            stacklevel=2,
        )
    return IdealSpline(family, knots, weights, constant)


__all__ = [
    "AdmissibilityResult",
    "LevelRecord",
    "Status",
    "boundary_spline",
    "canonical_spline",
    "decide_admissible",
    "decide_status",
    "extremal_family_member",
    "interior_spline",
    "matching_spline",
]
