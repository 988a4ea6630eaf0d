"""Brute-force moment-cone membership oracle.

One entry, :func:`cone_membership`: it discretizes the moment curve on a
geometric grid and solves a nonnegative least-squares feasibility problem,
reporting the verdict and the residual.  Deliberately independent of the
exact solvers in :mod:`kolmo.representations`, which it cross-checks.  scipy
is imported on first use, so importing kolmo does not pay for it; numpy too,
here as in the representations, splines and verify modules, so a decision
that compares only pairs (the README example among them) never loads it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import NumpyOnFirstUse
from .core import MomentVector
from .errors import require_tolerance

np = NumpyOnFirstUse(globals())

GRID_SIZE = 2000
DEFAULT_FEASIBILITY_TOL = 1e-7


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    residual: float


def _t_max(c: MomentVector) -> float:
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


def cone_membership(
    c: MomentVector, tol: float = DEFAULT_FEASIBILITY_TOL
) -> FeasibilityReport:
    """Discretized membership test for the moment cone over [0, inf).

    The grid runs geometrically from 1e-6 to 1 times :func:`_t_max`, with
    node 0 in front when the system has exponent 0.
    """
    import scipy.optimize

    require_tolerance(tol)
    k = c.exponents.exponents
    t_max = _t_max(c)
    nodes = np.geomspace(t_max * 1e-6, t_max, GRID_SIZE)
    if k[0] == 0:
        nodes = np.concatenate([[0.0], nodes])
    # Vectorized moment curve on the grid (t^0 = 1 also at t = 0, matching
    # curve_point).
    A = nodes[None, :] ** np.asarray(k, dtype=float)[:, None]
    b = np.asarray(c.values, dtype=float)
    # Unit-norm columns tame the Vandermonde conditioning.  hypot keeps both
    # norms finite where a square would pass the float range.
    colnorm = np.hypot.reduce(A, axis=0)
    _, rnorm = scipy.optimize.nnls(A / np.where(colnorm > 0, colnorm, 1.0), b)
    residual = float(rnorm) / max(1.0, math.hypot(*b))
    return FeasibilityReport(residual <= tol, residual)
