"""Ideal splines of both families.

Construction from atomic representations, pointwise derivative evaluation on
the negative half-line, derivative sup-norms (attained at 0), and seeded
random generation of class members for property tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ._lazy import NumpyOnFirstUse
from .core import (
    Atom,
    ExponentVector,
    Family,
    FunctionFamily,
    HalfInteger,
    NormVector,
    Representation,
    scaled_power,
)
from .errors import DomainError

np = NumpyOnFirstUse(globals())


@dataclass(frozen=True)
class IdealSpline:
    """AM or MM(r) ideal spline.

    AM:  C + sum_s lambda_s * a_s^r * exp(t / a_s)
    MM:  C + (1/r!) * sum_s lambda_s * (a_s + t)_+^r

    Knots a_s > 0 are strictly decreasing; a constant C > 0 counts as an
    extra half knot.
    """

    family: FunctionFamily
    knots: tuple[float, ...]
    weights: tuple[float, ...]
    constant: float = 0.0

    def __post_init__(self):
        knots = tuple(float(a) for a in self.knots)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "constant", float(self.constant))
        if len(knots) != len(weights):
            raise DomainError("knot/weight length mismatch")
        if any(a <= 0 or not math.isfinite(a) for a in knots):
            raise DomainError("knots must be positive and finite")
        if any(w <= 0 or not math.isfinite(w) for w in weights):
            raise DomainError("weights must be positive and finite")
        if any(b >= a for a, b in zip(knots, knots[1:])):
            raise DomainError(f"knots must be strictly decreasing: {knots}")
        if self.constant < 0 or not math.isfinite(self.constant):
            raise DomainError("constant must be finite and >= 0")

    @property
    def knot_index(self) -> HalfInteger:
        """Knot count with the constant counted as half a knot."""
        return HalfInteger(2 * len(self.knots) + (1 if self.constant > 0 else 0))


def spline_from_representation(rep: Representation, family: FunctionFamily) -> IdealSpline:
    """Ideal spline generated by an atomic measure.

    An atom (u, w) with u > 0 maps to knot a = 1/u with weight lambda = w*u^r;
    an atom at 0 maps to the constant C = w (AM) or C = w/r! (MM).
    """
    r = family.r
    constant = 0.0
    pairs = []
    for atom in rep.atoms:
        if atom.node == 0.0:
            constant = atom.weight if family.kind is Family.AM else atom.weight / math.factorial(r)
        else:
            u = atom.node
            pairs.append((1.0 / u, scaled_power(atom.weight, u, r)))
    pairs.sort(key=lambda p: -p[0])
    knots = tuple(a for a, _ in pairs)
    weights = tuple(w for _, w in pairs)
    return IdealSpline(family, knots, weights, constant)


def representation_of(spline: IdealSpline) -> Representation:
    """Exact inverse of :func:`spline_from_representation`."""
    r = spline.family.r
    atoms = []
    if spline.constant > 0:
        w0 = spline.constant
        if spline.family.kind is Family.MM:
            w0 = spline.constant * math.factorial(r)
        atoms.append(Atom(0.0, w0))
    for a, lam in zip(spline.knots, spline.weights):
        atoms.append(Atom(1.0 / a, scaled_power(lam, a, r)))
    return Representation(tuple(atoms))


def evaluate(spline: IdealSpline, t: float, j: int = 0) -> float:
    """j-th derivative of the spline at t <= 0.

    The MM derivative of order r takes its right-limit value at knot points;
    MM derivatives of order j > r are identically 0 off knots and 0 is
    returned.
    """
    if t > 0:
        raise DomainError(f"splines live on the negative half-line, got t={t}")
    if j < 0:
        raise DomainError("derivative order must be >= 0")
    r = spline.family.r
    total = spline.constant if j == 0 else 0.0
    if spline.family.kind is Family.AM:
        for a, lam in zip(spline.knots, spline.weights):
            total += scaled_power(lam, a, r - j) * math.exp(t / a)
        return total
    if j > r:
        return total
    inv = 1.0 / math.factorial(r - j)
    for a, lam in zip(spline.knots, spline.weights):
        x = a + t
        if x < 0:
            continue
        total += scaled_power(lam * inv, x, r - j)
    return total


def norms(spline: IdealSpline, k: ExponentVector) -> NormVector:
    """Derivative sup-norms M_{k_i} = |phi^{(k_i)}(0)| (the sup sits at 0)."""
    if k.r != spline.family.r:
        raise DomainError(
            f"exponent order {k.r} incompatible with spline order {spline.family.r}"
        )
    vals = tuple(evaluate(spline, 0.0, ki) for ki in k.exponents)
    return NormVector(vals, k, spline.family)


def with_constant(spline: IdealSpline, extra: float) -> IdealSpline:
    """Spline plus a nonnegative constant (adds half a knot when it becomes positive)."""
    if extra < 0:
        raise DomainError("added constant must be >= 0")
    return replace(spline, constant=spline.constant + extra)


def random_member(
    family: FunctionFamily, knot_count: int, seed: int
) -> IdealSpline:
    """Deterministic random class member.

    Knots are log-uniform in [1e-2, 1e2] with pairwise ratio >= 1.05, weights
    log-uniform in [1e-1, 10]; the constant is log-uniform in [1e-1, 10] with
    probability 1/2, else 0.
    """
    if knot_count < 0:
        raise DomainError("knot count must be >= 0")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    knots: tuple[float, ...] = ()
    for _ in range(200):
        draw = np.sort(np.exp(rng.uniform(np.log(1e-2), np.log(1e2), knot_count)))[::-1]
        if all(a / b >= 1.05 for a, b in zip(draw, draw[1:])):
            knots = tuple(draw)
            break
    else:  # pragma: no cover - 200 rejections is vanishingly unlikely
        raise DomainError(f"cannot separate {knot_count} knots at ratio 1.05")
    weights = tuple(np.exp(rng.uniform(np.log(1e-1), np.log(10.0), knot_count)))
    constant = 0.0
    if rng.random() < 0.5:
        constant = float(np.exp(rng.uniform(np.log(1e-1), np.log(10.0))))
    return IdealSpline(family, knots, weights, constant)
