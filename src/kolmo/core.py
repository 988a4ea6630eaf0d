"""Core value types and exact formulas.

Moment-curve evaluation, moments of atomic measures, index bookkeeping, and
the factorial diagonal map that carries norm tuples between the absolutely
monotone and the multiply monotone scales.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError

#: Largest supported spline order; factorials up to this stay exactly
#: representable in double precision arithmetic paths.
MAX_ORDER = 20

#: Atoms whose nodes differ by less than this fraction of the largest node
#: are considered duplicates and rejected at construction.
NODE_MERGE_REL = 1e-8


class Family(Enum):
    """Function class: absolutely monotone or multiply monotone."""

    AM = "am"
    MM = "mm"


@dataclass(frozen=True)
class ExponentVector:
    """Strictly increasing integer derivative orders k_1 < ... < k_d <= r."""

    exponents: tuple[int, ...]
    r: int

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(int(k) for k in self.exponents))
        object.__setattr__(self, "r", int(self.r))
        ks = self.exponents
        if len(ks) < 1:
            raise DomainError("need at least one exponent")
        if ks[0] < 0:
            raise DomainError(f"exponents must be nonnegative, got {ks[0]}")
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise DomainError(f"exponents must be strictly increasing: {ks}")
        if self.r < 1:
            raise DomainError(f"order r must be >= 1, got {self.r}")
        if self.r > MAX_ORDER:
            raise DomainError(f"order r={self.r} exceeds supported maximum {MAX_ORDER}")
        if ks[-1] > self.r:
            raise DomainError(f"largest exponent {ks[-1]} exceeds order r={self.r}")

    @property
    def d(self) -> int:
        return len(self.exponents)

    def drop_first(self) -> "ExponentVector":
        return ExponentVector(self.exponents[1:], self.r)

    def drop_first_and_last(self) -> "ExponentVector":
        return ExponentVector(self.exponents[1:-1], self.r)


@dataclass(frozen=True)
class MomentVector:
    """A candidate moment point c in R^d paired with its power system."""

    values: tuple[float, ...]
    exponents: ExponentVector

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) != self.exponents.d:
            raise DomainError(
                f"{len(self.values)} values for {self.exponents.d} exponents"
            )
        if not all(math.isfinite(v) for v in self.values):
            raise DomainError(f"moments must be finite, got {self.values}")

    @property
    def d(self) -> int:
        return self.exponents.d


@dataclass(frozen=True)
class Atom:
    """Point mass of the representing measure: node t >= 0, weight > 0."""

    node: float
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "node", float(self.node))
        object.__setattr__(self, "weight", float(self.weight))
        if not math.isfinite(self.node) or self.node < 0:
            raise DomainError(f"atom node must be finite and >= 0, got {self.node}")
        if not math.isfinite(self.weight) or self.weight <= 0:
            raise DomainError(f"atom weight must be finite and > 0, got {self.weight}")


@dataclass(frozen=True)
class Representation:
    """Finite atomic measure; atoms sorted by node, nodes pairwise distinct."""

    atoms: tuple[Atom, ...]

    def __post_init__(self):
        atoms = tuple(sorted(self.atoms, key=lambda a: a.node))
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            return
        top = atoms[-1].node
        gap = NODE_MERGE_REL * top
        for a, b in zip(atoms, atoms[1:]):
            if b.node - a.node <= gap:
                raise DomainError(
                    f"atoms at {a.node} and {b.node} are duplicates; merge first"
                )

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def has_zero_atom(self) -> bool:
        return bool(self.atoms) and self.atoms[0].node == 0.0

    @property
    def nodes(self) -> tuple[float, ...]:
        return tuple(a.node for a in self.atoms)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(a.weight for a in self.atoms)


@dataclass(frozen=True, order=True)
class HalfInteger:
    """Exact half-integer stored as its doubled value."""

    twice: int

    def __post_init__(self):
        object.__setattr__(self, "twice", int(self.twice))
        if self.twice < 0:
            raise DomainError("half-integer must be >= 0")

    @property
    def value(self) -> float:
        return self.twice / 2.0

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


@dataclass(frozen=True)
class FunctionFamily:
    """Function class tag plus spline order r."""

    kind: Family
    r: int

    def __post_init__(self):
        object.__setattr__(self, "r", int(self.r))
        if self.r < 1:
            raise DomainError(f"order r must be >= 1, got {self.r}")
        if self.r > MAX_ORDER:
            raise DomainError(f"order r={self.r} exceeds supported maximum {MAX_ORDER}")


@dataclass(frozen=True)
class NormVector:
    """Target derivative sup-norms M_{k_1}, ..., M_{k_d} for one family."""

    values: tuple[float, ...]
    exponents: ExponentVector
    family: FunctionFamily

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) != self.exponents.d:
            raise DomainError(
                f"{len(self.values)} values for {self.exponents.d} exponents"
            )
        if self.family.r != self.exponents.r:
            raise DomainError(
                f"family order {self.family.r} != exponent order {self.exponents.r}"
            )
        if any(not math.isfinite(v) for v in self.values):
            raise DomainError("norm values must be finite")

    @property
    def d(self) -> int:
        return self.exponents.d

    def drop_first(self) -> "NormVector":
        return NormVector(self.values[1:], self.exponents.drop_first(), self.family)

    def drop_first_and_last(self) -> "NormVector":
        return NormVector(
            self.values[1:-1], self.exponents.drop_first_and_last(), self.family
        )


def scaled_power(w: float, x: float, p: int) -> float:
    """w * x**p for finite w > 0, x >= 0 and integer p with |p| <= 1000.

    The plain product keeps its bits wherever x**p is a normal float.  Where
    it is not, mantissas and binary exponents are multiplied apart, so a
    product within float range is found although x**p overflows or
    underflows.  A product beyond float range raises DomainError.
    """
    try:
        power = x ** p
    except OverflowError:
        power = math.inf
    if x == 0.0 or sys.float_info.min <= power < math.inf:
        value = w * power
    else:
        (mw, ew), (mx, ex) = math.frexp(w), math.frexp(x)
        try:
            value = math.ldexp(mw * mx ** p, ew + ex * p)
        except OverflowError:
            value = math.inf
    if value == math.inf:
        raise DomainError(f"{w} * {x}**{p} exceeds the float range")
    return value


def curve_point(t: float, k: ExponentVector) -> MomentVector:
    """Point (t^{k_1}, ..., t^{k_d}) of the moment curve."""
    if t < 0:
        raise DomainError(f"curve parameter must be >= 0, got {t}")
    return MomentVector(tuple(scaled_power(1.0, t, ki) for ki in k.exponents), k)


def moments_of(rep: Representation, k: ExponentVector) -> MomentVector:
    """Moments c_i = sum_s lambda_s * t_s^{k_i} of an atomic measure.

    Python's 0.0 ** 0 == 1.0 gives an atom at node 0 the moments
    (1, 0, ..., 0) when k_1 = 0.
    """
    vals = [0.0] * k.d
    for atom in rep.atoms:
        for i, ki in enumerate(k.exponents):
            vals[i] += scaled_power(atom.weight, atom.node, ki)
    return MomentVector(tuple(vals), k)


def index_of(rep: Representation) -> HalfInteger:
    """Index: positive-node atoms count 1 each, a node-0 atom counts 1/2."""
    twice = 0
    for atom in rep.atoms:
        twice += 1 if atom.node == 0.0 else 2
    return HalfInteger(twice)


def factorial_scale(M: NormVector) -> NormVector:
    """Map a norm tuple to the other family via diag((r-k_1)!, ..., (r-k_d)!):
    MM norms are multiplied by the factors, AM norms divided by them; an MM
    product beyond the float range is a :class:`DomainError`."""
    r = M.family.r
    factors = [math.factorial(r - ki) for ki in M.exponents.exponents]
    if M.family.kind is Family.MM:
        vals = tuple(v * f for v, f in zip(M.values, factors))
        for ki, m, v in zip(M.exponents.exponents, M.values, vals):
            if math.isinf(v):
                raise DomainError(f"moment (r-k)! M_k at k={ki} exceeds the float range: "
                                  f"{r - ki}! * {m!r}")
        fam = FunctionFamily(Family.AM, r)
    else:
        vals = tuple(v / f for v, f in zip(M.values, factors))
        fam = FunctionFamily(Family.MM, r)
    return NormVector(vals, M.exponents, fam)


def moment_coordinates(M: NormVector) -> MomentVector:
    """Coordinates in which admissibility equals moment-cone membership.

    AM: c_i = M_{k_i}.  MM: c_i = (r - k_i)! * M_{k_i}.
    """
    if M.family.kind is Family.MM:
        M = factorial_scale(M)
    return MomentVector(M.values, M.exponents)


def norms_from_moments(c: MomentVector, family: FunctionFamily) -> NormVector:
    """Inverse of :func:`moment_coordinates` for a given family."""
    k = ExponentVector(c.exponents.exponents, family.r)
    if family.kind is Family.AM:
        return NormVector(c.values, k, family)
    return factorial_scale(NormVector(c.values, k, FunctionFamily(Family.AM, family.r)))
