"""Brute-force moment-cone membership oracle.

Discretizes the moment curve on a geometric grid and solves a nonnegative
least-squares feasibility problem; it reports the verdict and the residual.
Deliberately independent of the exact solvers in
:mod:`kolmo.representations`, which it cross-checks.  scipy is imported on
first use, so importing kolmo does not pay for it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MomentVector
from .errors import DomainError

DEFAULT_GRID_SIZE = 2000
DEFAULT_FEASIBILITY_TOL = 1e-7


@dataclass(frozen=True)
class Grid:
    """Sorted evaluation nodes t >= 0 for the discretized curve."""

    nodes: tuple[float, ...]

    def __post_init__(self):
        nodes = tuple(float(t) for t in self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if len(nodes) < 2:
            raise DomainError("grid needs at least 2 nodes")
        if nodes[0] < 0:
            raise DomainError("grid nodes must be >= 0")
        if any(b <= a for a, b in zip(nodes, nodes[1:])):
            raise DomainError("grid nodes must be strictly increasing")

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    residual: float


def make_grid(t_max: float, count: int, include_zero: bool = True) -> Grid:
    """Geometric grid from t_max * 1e-6 to t_max, optionally prefixed by 0."""
    if t_max <= 0:
        raise DomainError(f"t_max must be positive, got {t_max}")
    if count < 2:
        raise DomainError(f"grid size must be >= 2, got {count}")
    nodes = np.geomspace(t_max * 1e-6, t_max, count)
    if include_zero:
        return Grid((0.0, *nodes))
    return Grid(tuple(nodes))


def t_max_heuristic(c: MomentVector) -> float:
    """Estimated largest atom location times 10.

    For a single atom at t the ratio (c_{i+1}/c_i)^{1/(k_{i+1}-k_i)} equals t
    exactly; the max over consecutive exponent pairs brackets the support.
    """
    ks = c.exponents.exponents
    best = 0.0
    for i in range(c.d - 1):
        lo, hi = c.values[i], c.values[i + 1]
        if lo > 0 and hi > 0:
            best = max(best, (hi / lo) ** (1.0 / (ks[i + 1] - ks[i])))
    if best <= 0 or not np.isfinite(best):
        best = 1.0
    return 10.0 * min(max(best, 1e-6), 1e12)


def nnls(
    columns: list[MomentVector], target: MomentVector
) -> tuple[list[float], float]:
    """Nonnegative least squares over the given columns.

    Returns weights >= 0 minimizing ||sum_j w_j col_j - target||_2 and the
    minimum, relative to max(1, ||target||).
    """
    import scipy.optimize

    if not columns:
        raise DomainError("need at least one column")
    d = target.d
    if any(col.d != d for col in columns):
        raise DomainError("column dimension mismatch")
    A = np.array([col.values for col in columns], dtype=float).T
    b = np.asarray(target.values, dtype=float)
    w, rnorm = scipy.optimize.nnls(A, b)
    return list(w), float(rnorm) / max(1.0, float(np.linalg.norm(b)))


def cone_membership(
    c: MomentVector,
    grid: Grid | None = None,
    tol: float = DEFAULT_FEASIBILITY_TOL,
) -> FeasibilityReport:
    """Discretized membership test for the moment cone over [0, inf)."""
    import scipy.optimize

    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if grid is None:
        grid = make_grid(
            t_max_heuristic(c), DEFAULT_GRID_SIZE,
            include_zero=c.exponents.exponents[0] == 0,
        )
    k = c.exponents
    nodes = np.asarray(grid.nodes)
    # Vectorized moment curve on the grid (t^0 = 1 also at t = 0, matching
    # curve_point).
    A = nodes[None, :] ** np.asarray(k.exponents, dtype=float)[:, None]
    b = np.asarray(c.values, dtype=float)
    # Unit-norm columns tame the Vandermonde conditioning.
    colnorm = np.linalg.norm(A, axis=0)
    _, rnorm = scipy.optimize.nnls(A / np.where(colnorm > 0, colnorm, 1.0), b)
    residual = float(rnorm) / max(1.0, float(np.linalg.norm(b)))
    return FeasibilityReport(residual <= tol, residual)
