"""Admissibility of derivative-norm tuples on the AM and MM classes.

Builds the uniquely determined comparison splines, decides admissibility of a
norm tuple by the recursive trichotomy over trailing sub-tuples, and exposes
the extremal spline family whose norm tuples exhaust the admissible set.
"""
from __future__ import annotations

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
)
from .representations import (
    ACCEPT_TOL,
    ClassKind,
    canonical_representation,
    classify,
    principal_representation,
)
from .splines import IdealSpline, evaluate, norms, spline_from_representation

#: Relative band inside which the recursion's "=" comparison is declared.
EQUALITY_BAND = 1e-7

#: Relative tolerance at which a witness must reproduce the norm tuple.
WITNESS_TOL = 1e-6


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


def interior_spline(
    M: NormVector, tol: float = ACCEPT_TOL, init_seed: int = 0
) -> IdealSpline:
    """The unique spline with d/2 knots and no constant matching 2m norms."""
    if M.d % 2 != 0:
        raise DomainError(f"interior spline needs an even norm count, got {M.d}")
    _require_positive(M)
    rep = principal_representation(moment_coordinates(M), tol, init_seed)
    return spline_from_representation(rep, M.family)


def _lowest_spline(M: NormVector, tol: float):
    """(kind, spline): the verdict of :func:`classify` on M and its witness as
    a spline of M's family, None if EXTERIOR.  An interior odd count without
    exponent 0 gets the canonical spline (its constant carries no norm).
    """
    result = classify(moment_coordinates(M), tol)
    if result.witness is None:
        return result.kind, None
    return result.kind, spline_from_representation(result.witness, M.family)


def boundary_spline(M: NormVector, tol: float = ACCEPT_TOL) -> IdealSpline:
    """Minimal spline with at most floor((d-1)/2) knots matching all d norms."""
    _require_positive(M)
    kind, spline = _lowest_spline(M, tol)
    if kind is not ClassKind.BOUNDARY:
        raise NotBoundaryError(
            "no spline with at most floor((d-1)/2) knots matches the tuple; "
            "it is not a boundary point"
        )
    return spline


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


def matching_spline(M: NormVector, tol: float = ACCEPT_TOL) -> IdealSpline:
    """The uniquely determined spline attaining an even-count norm tuple.

    One principal path gives the lowest-index spline: a boundary tuple
    yields its thin spline and an interior tuple the d/2-knot spline.
    """
    if M.d % 2 != 0:
        raise DomainError(f"matching spline needs an even norm count, got {M.d}")
    _require_positive(M)
    spline = _lowest_spline(M, tol)[1]
    if spline is None:
        raise NotAttainableError("no ideal spline attains the tuple")
    return spline


def decide_admissible(M: NormVector, tol: float = ACCEPT_TOL) -> AdmissibilityResult:
    """Trichotomy for a norm tuple with k_d = r, with a realizing witness."""
    k = M.exponents
    if k.exponents[-1] != k.r:
        raise UnsupportedSystemError(
            f"the decision procedure requires k_d = r, got k_d={k.exponents[-1]}, "
            f"r={k.r}"
        )
    _require_positive(M)
    trace: list[LevelRecord] = []
    status = _decide(M, tol, trace)
    witness = None
    if status is not Status.NOT_ADMISSIBLE:
        witness = _lowest_spline(M, tol)[1]
        if witness is None:
            raise NumericalFailureError("no spline realized the admissible tuple")
        _check_witness(witness, M)
    return AdmissibilityResult(status, witness, tuple(trace))


def _decide(M: NormVector, tol: float, trace: list[LevelRecord]) -> Status:
    d = M.d
    k = M.exponents.exponents
    if d <= 2:
        # One or two strictly positive norms are always attained by a single
        # knot: two free parameters fit any positive pair exactly.
        trace.append(LevelRecord(k, "interior (base case)"))
        return Status.ADMISSIBLE_INTERIOR
    sub = _decide(M.drop_first(), tol, trace)
    if sub is Status.NOT_ADMISSIBLE:
        trace.append(LevelRecord(k, "not_admissible (from sublevel)"))
        return Status.NOT_ADMISSIBLE
    cmp_M = M.drop_first() if d % 2 == 1 else M.drop_first_and_last()
    phi = matching_spline(cmp_M, tol)
    lhs = M.values[0]
    rhs = evaluate(phi, 0.0, k[0])
    band = EQUALITY_BAND * max(lhs, rhs)
    if sub is Status.ADMISSIBLE_INTERIOR:
        if lhs > rhs + band:
            status = Status.ADMISSIBLE_INTERIOR
        elif lhs >= rhs - band:
            status = Status.ADMISSIBLE_BOUNDARY
        else:
            status = Status.NOT_ADMISSIBLE
    else:
        if k[0] > 0:
            admissible = abs(lhs - rhs) <= band
        else:
            admissible = lhs >= rhs - band
        status = Status.ADMISSIBLE_BOUNDARY if admissible else Status.NOT_ADMISSIBLE
    trace.append(LevelRecord(k, status.value, lhs, rhs))
    return status


def _check_witness(spline: IdealSpline, M: NormVector):
    got = norms(spline, M.exponents)
    for g, want in zip(got.values, M.values):
        if abs(g - want) > WITNESS_TOL * max(abs(want), abs(g)):
            raise NumericalFailureError(
                f"witness norms {got.values} do not reproduce {M.values}"
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
    "extremal_family_member",
    "interior_spline",
    "matching_spline",
]
