"""Brute-force moment-cone membership oracle.

Discretizes the moment curve on a geometric grid and solves a nonnegative
least-squares feasibility problem.  Deliberately independent of the exact
solvers in :mod:`kolmo.representations`, which it cross-checks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .core import Atom, MomentVector, Representation
from .errors import DomainError

DEFAULT_GRID_SIZE = 2000
DEFAULT_FEASIBILITY_TOL = 1e-7
SUPPORT_WEIGHT_FLOOR = 1e-9


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
    support: Representation


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
    bscale = max(1.0, float(np.linalg.norm(b)))

    # Unit-norm columns tame the Vandermonde conditioning; unscale after.
    colnorm = np.linalg.norm(A, axis=0)
    safe = np.where(colnorm > 0, colnorm, 1.0)
    w, rnorm = scipy.optimize.nnls(A / safe, b)
    w = w / safe
    residual = float(rnorm) / bscale

    support_idx = _support_indices(w)
    support_idx, w, residual = _prune_support(
        A, b, bscale, nodes, support_idx, w, residual, tol, c.d + 1
    )
    support = _support_representation(nodes, support_idx, w)
    return FeasibilityReport(residual <= tol, residual, support)


def _support_indices(w: np.ndarray) -> list[int]:
    top = float(w.max(initial=0.0))
    if top <= 0:
        return []
    return [int(j) for j in np.flatnonzero(w > SUPPORT_WEIGHT_FLOOR * top)]


def _prune_support(A, b, bscale, nodes, idx, w, residual, tol, max_size):
    """Greedily drop smallest-weight atoms while the fit stays feasible."""
    idx = list(idx)
    weights = {j: float(w[j]) for j in idx}
    while residual <= tol and len(idx) > 1:
        j_min = min(idx, key=lambda j: weights[j])
        trial = [j for j in idx if j != j_min]
        tw, trnorm = scipy.optimize.nnls(A[:, trial], b)
        tres = float(trnorm) / bscale
        if tres > tol:
            break
        idx = trial
        weights = {j: float(tw[i]) for i, j in enumerate(trial)}
        residual = tres
    full = np.zeros_like(w)
    for j in idx:
        full[j] = weights[j]
    return idx, full, residual


def _support_representation(nodes, idx, w) -> Representation:
    """Build the support measure, merging near-duplicate grid nodes."""
    pairs = sorted((float(nodes[j]), float(w[j])) for j in idx if w[j] > 0)
    if not pairs:
        return Representation(())
    gap = 2e-8 * pairs[-1][0]
    merged: list[list[float]] = []
    for node, weight in pairs:
        if merged and node - merged[-1][0] <= gap:
            prev_n, prev_w = merged[-1]
            total = prev_w + weight
            merged[-1] = [(prev_n * prev_w + node * weight) / total, total]
        else:
            merged.append([node, weight])
    return Representation(tuple(Atom(n, w) for n, w in merged))
