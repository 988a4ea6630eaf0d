"""Exact-structure solvers for the power-moment problem on [0, inf).

Classifies a moment vector against the cone (interior / boundary / exterior)
and computes minimal-index, principal, and prescribed-root representations by
damped Newton iteration on the moment-matching equations, initialized from
the brute-force oracle.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.optimize

from .core import (
    Atom,
    HalfInteger,
    MomentVector,
    Representation,
    moments_of,
)
from .errors import (
    DomainError,
    DomainExitError,
    InconsistencyError,
    NotInteriorError,
    NumericalFailureError,
    PinnedNodeCoincidenceError,
    UnsupportedSystemError,
)
from .oracle import cone_membership, make_grid, t_max_heuristic

# Tolerance ladder: Newton residual (near machine precision, so the iterate
# is parameter-converged, not just residual-converged) and acceptance of a
# representation.
NEWTON_TOL = 1e-13
ACCEPT_TOL = 1e-8

MAX_RESTARTS = 16
#: Iteration budget of each step rule within one Newton run.
MAX_ITER = 80
_RESTART_GRIDS = (2000, 512, 2624, 1024, 1536, 2000, 512, 2624, 2000)
_DEEP_EXTERIOR_RESIDUAL = 1e-3

#: A structure whose best residual stays above this after several restarts is
#: considered wrong, and the search for it is cut short.
_EARLY_ABORT_RESIDUAL = 1e-3


class ClassKind(Enum):
    ZERO = "zero"
    EXTERIOR = "exterior"
    BOUNDARY = "boundary"
    INTERIOR = "interior"


@dataclass(frozen=True)
class Classification:
    kind: ClassKind
    witness: Representation | None = None


@functools.lru_cache(maxsize=4096)
def _oracle_report(c: MomentVector, grid_size: int):
    """Brute-force cone membership of ``c`` on a grid of ``grid_size`` nodes.

    Deterministic in its arguments and requested repeatedly for the same
    moment vector (one solve per initialization seed, one per structure of
    a search), so memoized.
    """
    include_zero = c.exponents.exponents[0] == 0
    grid = make_grid(t_max_heuristic(c), grid_size, include_zero=include_zero)
    return cone_membership(c, grid)


class _Workspace:
    """Per-moment-vector node and equation scaling."""

    def __init__(self, c: MomentVector):
        self.c = c
        self.k = np.asarray(c.exponents.exponents, dtype=float)
        self.theta = t_max_heuristic(c)
        vals = np.asarray(c.values, dtype=float)
        self.c_scaled = vals / self.theta ** self.k
        # Per-equation relative scaling: each moment equation is solved to
        # relative accuracy, whatever its magnitude after node scaling.  A
        # floor at 1e-12 of the largest moment would leave the small equations
        # of a wide moment range to absolute accuracy, where a wrong node
        # still fits them.  The floor only caps the row weight of a zero or
        # subnormal moment, so that squared weighted residuals stay finite.
        top = float(np.max(np.abs(self.c_scaled)))
        self.sfac = np.maximum(np.abs(self.c_scaled), 1e-150 * top + 1e-300)

    def scaled_residual(self, rep: Representation) -> float:
        f = np.asarray(moments_of(rep, self.c.exponents).values, dtype=float)
        f_scaled = f / self.theta ** self.k
        return float(np.max(np.abs(f_scaled - self.c_scaled) / self.sfac))


def _system(x, k, c_scaled, sfac, has_zero, pinned, n_free):
    """Scaled residual vector and Jacobian of the moment-matching equations."""
    ofs = 1 if has_zero else 0
    p = len(pinned) + n_free
    w = x[ofs:ofs + p]
    if len(pinned):
        u = np.concatenate([pinned, x[ofs + p:]])
    else:
        u = x[ofs + p:]
    d = len(k)
    kcol = k[:, None]
    upow = u[None, :] ** kcol
    sinv = 1.0 / sfac
    F = (upow @ w - c_scaled) * sinv
    J = np.zeros((d, len(x)))
    J[:, ofs:ofs + p] = upow * sinv[:, None]
    if has_zero:
        zero_rows = k == 0
        F[zero_rows] += x[0] * sinv[zero_rows]
        J[zero_rows, 0] = sinv[zero_rows]
    if n_free:
        uf = u[len(pinned):]
        wf = w[len(pinned):]
        # d/du u^k = k u^(k-1) = k u^k / u; free nodes are strictly positive.
        J[:, ofs + p:] = (wf / uf)[None, :] * kcol * upow[:, len(pinned):] \
            * sinv[:, None]
    return F, J


def _newton(x0, k, c_scaled, sfac, has_zero, pinned, n_free, newton_tol, max_iter):
    """Damped Newton in log-variables.

    All unknowns (weights, free nodes, zero-atom mass) are positive, so
    iterating on their logarithms keeps them in the domain automatically and
    makes node steps multiplicative: the iterate can traverse several decades
    of node magnitude, which linear steps cannot.

    Two step rules alternate, because each one escapes stalls the other is
    prone to.  The primary rule is the full Gauss-Newton step with a
    backtracking line search; on very ill-conditioned systems that step can
    explode along tiny singular directions and the search collapses.  The
    fallback is Levenberg-Marquardt damping via the augmented least-squares
    system, which is robust there but can sit down at a stationary point of
    the sum of squares that is not a root.  When one rule stalls the other
    takes over from the best iterate seen.

    A variable collapsing below 1e-60 of the largest one with the residual
    stalled above tolerance signals that the requested structure is wrong,
    reported as :class:`DomainExitError`.  A milder collapse is returned as
    a stalled iterate without report: a free node that merges with t = 0
    (say at 1e-20) loses its Jacobian column and stalls there, and
    :func:`solve_structure` recognises and reseats it.
    """
    x = np.asarray(x0, dtype=float)
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise NumericalFailureError("initial guess is not strictly positive")
    y = np.log(x)

    # All evaluations run under one suppressed-warnings scope (overflow to
    # inf is routine during line searches and handled by finiteness checks).
    def _eval(yv):
        xv = np.exp(np.minimum(np.maximum(yv, -700.0), 700.0))
        F, J = _system(xv, k, c_scaled, sfac, has_zero, pinned, n_free)
        return xv, F, J * xv[None, :]

    # Line searches need the residual alone, many times per step, so its
    # loop-invariant pieces are computed once here.
    ofs = 1 if has_zero else 0
    p = len(pinned) + n_free
    kcol = k[:, None]
    sinv = 1.0 / sfac
    zero_rows = k == 0

    def _eval_f(yv):
        xv = np.exp(np.minimum(np.maximum(yv, -700.0), 700.0))
        u = xv[ofs + p:]
        if len(pinned):
            u = np.concatenate([pinned, u])
        F = ((u[None, :] ** kcol) @ xv[ofs:ofs + p] - c_scaled) * sinv
        if has_zero:
            F[zero_rows] += xv[0] * sinv[zero_rows]
        return F

    with np.errstate(all="ignore"):
        x, F, Jy = _eval(y)
    res = float(np.abs(F).max())

    def _gauss_newton(y, x, F, Jy, res, budget):
        stall = 0
        window = res
        for it in range(budget):
            if res <= newton_tol:
                break
            # Stagnation exit, applied only far from a solution: progress too
            # slow to ever reach the target within the budget.  Close in,
            # slow grinding through an ill-conditioned valley still pays off,
            # so it is left alone.
            if it % 10 == 9:
                if res > 1e-4 and res > 0.5 * window:
                    break
                window = res
            step, *_ = np.linalg.lstsq(Jy, -F, rcond=None)
            if not np.all(np.isfinite(step)):
                break
            smax = float(np.abs(step).max())
            alpha = min(1.0, 30.0 / smax) if smax > 30.0 else 1.0
            trial = None
            while True:
                Fn = _eval_f(y + alpha * step)
                rn = float(np.abs(Fn).max())
                if np.isfinite(rn) and rn < res:
                    trial = y + alpha * step
                    break
                if alpha < 1e-8:
                    break
                alpha *= 0.5
            if trial is None:
                stall += 1
                if stall >= 3:
                    break
                continue
            y = trial
            x, F, Jy = _eval(y)
            res = float(np.abs(F).max())
            stall = 0
        return y, x, F, Jy, res

    def _levenberg(y, x, F, Jy, res, budget):
        ssq = float(F @ F)
        lam = 1e-3
        for _ in range(budget):
            if res <= newton_tol:
                break
            # Column scaling for the damping term, floored so directions the
            # Jacobian barely sees are still regularized.
            dscale = np.sqrt(np.sum(Jy * Jy, axis=0))
            floor = max(float(dscale.max(initial=1.0)), 1e-300) * 1e-6
            dscale[dscale <= floor] = floor
            # One SVD of the column-scaled Jacobian gives the damped step in
            # closed form for every lambda (without squaring the condition
            # number, which for these moment systems exceeds reciprocal
            # machine precision), so retries with larger damping are cheap.
            try:
                svd_u, sv, svd_vt = np.linalg.svd(
                    Jy / dscale[None, :], full_matrices=False
                )
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(sv)):
                break
            utf = svd_u.T @ F
            accepted = False
            for _attempt in range(25):
                step = -(svd_vt.T @ (sv / (sv * sv + lam) * utf)) / dscale
                if not np.all(np.isfinite(step)) or np.abs(step).max() > 100.0:
                    lam *= 10.0
                    continue
                Fn = _eval_f(y + step)
                rn = float(np.abs(Fn).max())
                sn = float(Fn @ Fn)
                # Accept on sum-of-squares descent: insisting the max
                # component shrink every step rejects useful moves.
                if np.isfinite(sn) and sn < ssq:
                    y, res, ssq = y + step, rn, sn
                    x, F, Jy = _eval(y)
                    lam = max(lam * 0.3, 1e-14)
                    accepted = True
                    break
                lam *= 10.0
                if lam > 1e14:
                    break
            if not accepted:
                break
        return y, x, F, Jy, res

    state = (y, x, F, Jy, res)
    with np.errstate(all="ignore"):
        for phase in range(4):
            rule = _gauss_newton if phase % 2 == 0 else _levenberg
            before = state[4]
            state = rule(*state, max_iter)
            if state[4] <= newton_tol or state[4] >= before * (1.0 - 1e-6):
                if state[4] <= newton_tol or phase % 2 == 1:
                    break
    y, x, F, Jy, res = state
    if res > newton_tol:
        # Weights may legitimately span tens of decades, so only a collapse
        # far beyond any identifiable magnitude counts as leaving the domain.
        top = float(np.max(x, initial=1.0))
        if float(np.min(x, initial=1.0)) < 1e-60 * max(top, 1.0):
            raise DomainExitError(
                "a variable collapsed toward zero with the residual stalled; "
                "the requested structure has no positive solution here",
                residual=res,
            )
    return x, res


def _cluster_lognodes(nodes, weights, p):
    """Weighted k-means on log-nodes; returns p cluster centers."""
    nodes = list(nodes)
    weights = list(weights)
    while len(nodes) < p:
        j = int(np.argmax(weights))
        n, w = nodes[j], weights[j]
        nodes[j] = n * 1.25
        weights[j] = w / 2.0
        nodes.append(n / 1.25)
        weights.append(w / 2.0)
    logs = np.log(np.asarray(nodes, dtype=float))
    ws = np.asarray(weights, dtype=float)
    order = np.argsort(logs)
    logs, ws = logs[order], ws[order]
    cum = np.cumsum(ws)
    total = cum[-1]
    centers = np.interp((np.arange(p) + 0.5) / p * total, cum, logs)
    for _ in range(30):
        assign = np.argmin(np.abs(logs[:, None] - centers[None, :]), axis=1)
        new = centers.copy()
        for j in range(p):
            mask = assign == j
            if mask.any():
                new[j] = float(np.average(logs[mask], weights=ws[mask]))
        if np.allclose(new, centers, atol=1e-12):
            centers = new
            break
        centers = new
    return np.sort(np.exp(centers))


def _initial_guess(ws: _Workspace, n_pos, has_zero, pinned_s, grid_size, rng,
                   spread=0.25, scatter=False, free_hint=None):
    """Cluster the oracle support to the target atom count, weights by NNLS.

    ``spread`` is the log-normal jitter applied to the free nodes; with
    ``scatter`` the clusters are abandoned for log-uniform random nodes,
    which escapes basins where the oracle support is uninformative (for
    example a node parked at the bottom of the grid).  ``free_hint`` gives
    explicit starting positions for the free nodes (already node-scaled),
    bypassing the oracle clustering.
    """
    if free_hint is not None and not scatter:
        free = np.asarray(free_hint, dtype=float)
    else:
        if scatter and rng is not None:
            centers = np.sort(
                np.exp(rng.uniform(np.log(1e-6), np.log(1e3), n_pos))
            )
        else:
            atoms = [a for a in _oracle_report(ws.c, grid_size).support.atoms
                     if a.node > 0]
            pos_nodes = [a.node / ws.theta for a in atoms]
            pos_weights = [a.weight for a in atoms]
            if not pos_nodes:
                pos_nodes = list(np.geomspace(0.02, 0.3, max(n_pos, 1)))
                pos_weights = [1.0] * len(pos_nodes)
            centers = _cluster_lognodes(pos_nodes, pos_weights, n_pos)
        # Hand the cluster nearest each pinned node over to the pin.
        free = list(centers)
        for pin in pinned_s:
            if not free:
                break
            j = int(np.argmin(np.abs(np.log(np.asarray(free)) - math.log(pin))))
            free.pop(j)
        free = np.asarray(free, dtype=float)
    if rng is not None and not scatter:
        free = free * np.exp(rng.normal(0.0, spread, len(free)))
    nodes = np.concatenate([np.asarray(pinned_s, dtype=float), free])
    return _fit_weights(ws, nodes, free, has_zero, rng)


def _fit_weights(ws: _Workspace, nodes, free, has_zero, rng):
    """NNLS weights restricted to the chosen nodes (plus the zero column)."""
    k = ws.k
    cols = [nodes ** ki if ki > 0 else np.ones_like(nodes) for ki in k]
    A = np.asarray(cols) / ws.sfac[:, None]
    b = ws.c_scaled / ws.sfac
    if has_zero:
        zcol = np.array([1.0 if ki == 0 else 0.0 for ki in k]) / ws.sfac
        A = np.column_stack([zcol, A])
    col = np.linalg.norm(A, axis=0)
    col[col == 0] = 1.0
    try:
        wfit, _ = scipy.optimize.nnls(A / col[None, :], b)
        wfit = wfit / col
    except Exception:  # pragma: no cover - NNLS is robust on these sizes
        wfit = np.zeros(A.shape[1])
    # Replace vanishing weights by a small fraction of the largest weight the
    # node could carry without overshooting any moment: weights can differ by
    # tens of decades, so a floor tied to the largest weight would be wrong.
    pos_c = np.maximum(np.abs(ws.c_scaled), 1e-300)
    cap = np.min(pos_c[:, None] / np.maximum(np.asarray(cols), 1e-300), axis=0)
    if has_zero:
        zero_cap = np.min(pos_c[np.asarray(k) == 0], initial=1.0)
        cap = np.concatenate([[zero_cap], cap])
    wfit = np.maximum(wfit, 1e-3 * cap)
    if rng is not None:
        wfit = wfit * np.exp(rng.normal(0.0, 0.25, len(wfit)))
    return np.array(list(wfit) + list(free), dtype=float), nodes


# Node scan window for variable-projection searches, in node-scaled units.
# Nodes with negligible weight can sit far outside the heuristic node scale,
# so the scan covers many decades on both sides.
_VP_LOG_LO, _VP_LOG_HI = math.log(1e-8), math.log(1e4)


def _vp_fit(ws: _Workspace, has_zero, nodes):
    """Optimal (clamped positive) weights and residual for fixed nodes.

    Weights enter the moment equations linearly, so for any node placement
    the best weights come from a linear least-squares solve.
    """
    k = ws.k
    b = ws.c_scaled / ws.sfac
    with np.errstate(all="ignore"):
        A = np.stack(
            [nodes ** ki if ki > 0 else np.ones_like(nodes) for ki in k]
        ) / ws.sfac[:, None]
        if has_zero:
            zcol = (np.asarray(k) == 0).astype(float) / ws.sfac
            A = np.column_stack([zcol, A])
        # Equilibrate columns: weights can span tens of decades, and without
        # unit-norm columns the least-squares rank cutoff silently discards
        # exactly the directions those weights need.
        col = np.linalg.norm(A, axis=0)
        col[col == 0] = 1.0
        wn, *_ = np.linalg.lstsq(A / col[None, :], b, rcond=None)
        w = wn / col
        w = np.maximum(w, 1e-30 * float(np.max(np.abs(w), initial=1.0)))
        r = float(np.max(np.abs(A @ w - b)))
    return (r if np.isfinite(r) else math.inf), w


def _vp_fit_batch(ws: _Workspace, has_zero, pinned_s, free_batch):
    """Residuals and weights of :func:`_vp_fit` for many node placements.

    Each row of ``free_batch`` places the free nodes next to the pinned ones.

    The per-placement least squares is replaced by batched normal equations
    on column-equilibrated matrices (the equilibrated Gram has unit
    diagonal), with a tiny ridge standing in for the rank cutoff.  The ridge
    caps the achievable residual on very ill-conditioned placements, so the
    batch is used only to *rank* placements; winners are refit exactly.
    """
    k = ws.k
    b = ws.c_scaled / ws.sfac
    free = np.asarray(free_batch, dtype=float)
    pin = np.asarray(pinned_s, dtype=float)
    nodes = np.concatenate(
        [np.broadcast_to(pin, (len(free), len(pin))), free], axis=1
    )
    n = nodes.shape[0]
    with np.errstate(all="ignore"):
        cols = [nodes ** ki if ki > 0 else np.ones_like(nodes) for ki in k]
        A = np.stack(cols, axis=1) / ws.sfac[None, :, None]
        if has_zero:
            zcol = (np.asarray(k) == 0).astype(float) / ws.sfac
            A = np.concatenate(
                [np.broadcast_to(zcol[None, :, None], (n, len(k), 1)), A],
                axis=2,
            )
        col = np.linalg.norm(A, axis=1)
        col[~np.isfinite(col) | (col == 0)] = 1.0
        Ae = A / col[:, None, :]
        good = np.isfinite(Ae).all(axis=(1, 2))
        Ae = np.where(good[:, None, None], Ae, 0.0)
        At = Ae.transpose(0, 2, 1)
        p = Ae.shape[2]
        gram = At @ Ae + 1e-14 * np.eye(p)[None, :, :]
        rhs = At @ b
        try:
            wn = np.linalg.solve(gram, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            wn = np.linalg.solve(
                gram + 1e-8 * np.eye(p)[None, :, :], rhs[..., None]
            )[..., 0]
        w = wn / col
        w = np.maximum(
            w,
            1e-30 * np.maximum(np.max(np.abs(w), axis=1, keepdims=True), 1.0),
        )
        r = np.max(np.abs((A @ w[..., None])[..., 0] - b), axis=1)
        r = np.where(good & np.isfinite(r), r, math.inf)
    return r, w


def _varpro_candidates(ws: _Workspace, has_zero, pinned_s, n_free, rng, keep=8):
    """Best free-node placements from a global variable-projection scan."""
    if n_free == 1:
        cand = np.exp(np.linspace(_VP_LOG_LO, _VP_LOG_HI, 3000))[:, None]
    else:
        cand = np.sort(
            np.exp(rng.uniform(_VP_LOG_LO, _VP_LOG_HI, (6000, n_free))), axis=1
        )
    r, _ = _vp_fit_batch(ws, has_zero, pinned_s, cand)
    order = np.argsort(r)[:keep]
    out = []
    for i in order:
        if not math.isfinite(r[i]):
            continue
        # Exact refit: the batch weights are ridge-damped.
        _, w = _vp_fit(ws, has_zero, np.concatenate([pinned_s, cand[i]]))
        out.append(np.concatenate([w, cand[i]]))
    return out


def _vp_coordinate_descent(ws: _Workspace, has_zero, pinned_s, free0, sweeps=6):
    """Refine free nodes one at a time by global 1D variable-projection scans.

    Joint random sampling cannot align several nodes at once over many
    decades, but with the other nodes held fixed each node is found by an
    exhaustive 1D scan; a few sweeps recover well-separated constellations.
    """
    free = np.asarray(free0, dtype=float).copy()
    r0, _ = _vp_fit_batch(ws, has_zero, pinned_s, free[None, :])
    best_r = float(r0[0])
    coarse = np.exp(np.linspace(_VP_LOG_LO, _VP_LOG_HI, 300))
    for _ in range(sweeps):
        improved = False
        for j in range(len(free)):
            grid = coarse
            for _stage in range(2):
                trials = np.repeat(free[None, :], len(grid), axis=0)
                trials[:, j] = grid
                r, _ = _vp_fit_batch(ws, has_zero, pinned_s, trials)
                i = int(np.argmin(r))
                if r[i] < best_r:
                    best_r = float(r[i])
                    free[j] = grid[i]
                    improved = True
                width = (_VP_LOG_HI - _VP_LOG_LO) / len(grid)
                grid = np.exp(np.linspace(
                    math.log(free[j]) - 2 * width,
                    math.log(free[j]) + 2 * width,
                    60,
                ))
        if not improved:
            break
    # Exact refit at the chosen nodes: the batch residuals are ridge-damped
    # and must not be compared against the acceptance tolerances.
    best_r, best_w = _vp_fit(ws, has_zero, np.concatenate([pinned_s, free]))
    return free, best_w, best_r


def _vp_pair_descent(ws: _Workspace, has_zero, pinned_s, free0):
    """Refine pairs of free nodes by 2D variable-projection scans.

    One node at a time cannot resolve two coupled misplaced nodes; a coarse
    joint scan over each pair (others fixed), followed by a fine scan around
    the best cell, can.
    """
    free = np.asarray(free0, dtype=float).copy()
    r0, _ = _vp_fit_batch(ws, has_zero, pinned_s, free[None, :])
    best_r = float(r0[0])
    coarse = np.exp(np.linspace(_VP_LOG_LO, _VP_LOG_HI, 90))
    width = (_VP_LOG_HI - _VP_LOG_LO) / len(coarse)
    for j in range(len(free)):
        for l in range(j + 1, len(free)):
            grid_j, grid_l = coarse, coarse
            for _stage in range(2):
                vj, vl = np.meshgrid(grid_j, grid_l, indexing="ij")
                trials = np.repeat(free[None, :], vj.size, axis=0)
                trials[:, j] = vj.ravel()
                trials[:, l] = vl.ravel()
                r, _ = _vp_fit_batch(ws, has_zero, pinned_s, trials)
                i = int(np.argmin(r))
                if r[i] < best_r:
                    best_r = float(r[i])
                    free[j], free[l] = trials[i, j], trials[i, l]
                grid_j = np.exp(np.linspace(
                    math.log(free[j]) - 2 * width,
                    math.log(free[j]) + 2 * width, 40,
                ))
                grid_l = np.exp(np.linspace(
                    math.log(free[l]) - 2 * width,
                    math.log(free[l]) + 2 * width, 40,
                ))
    best_r, best_w = _vp_fit(ws, has_zero, np.concatenate([pinned_s, free]))
    return free, best_w, best_r


def _plausibility_probe(ws, n_pos, with_zero, pinned_s, n_free, hint_s):
    """Best residual a quick global variable-projection fit can reach."""
    if n_free == 0:
        r, _ = _vp_fit(ws, with_zero, np.asarray(pinned_s, dtype=float))
        return r
    try:
        x0d, _ = _initial_guess(
            ws, n_pos, with_zero, pinned_s, 2000, None, free_hint=hint_s
        )
    except (DomainError, NumericalFailureError, ValueError):
        return math.inf
    free0 = x0d[len(x0d) - n_free:]
    # The exact fit at the starting nodes guards against the (ridge-damped)
    # descent wandering away from an already plausible placement.
    r0, _ = _vp_fit(
        ws, with_zero, np.concatenate([np.asarray(pinned_s, float), free0])
    )
    free1, _, r = _vp_coordinate_descent(
        ws, with_zero, pinned_s, free0, sweeps=2
    )
    if r > 1e-4 and n_free >= 2:
        # Single-node moves cannot untangle two coupled misplaced nodes; one
        # joint 2D scan decides whether the structure is genuinely implausible.
        _, _, r_pair = _vp_pair_descent(ws, with_zero, pinned_s, free1)
        r = min(r, r_pair)
    return min(r, r0 if math.isfinite(r0) else math.inf)


def _finalize(ws, x, res, rep, with_zero, pinned, pinned_s, n_free, tol):
    """Parameter-converge an iterate accepted on residual alone.

    A residual inside the acceptance tolerance with Newton stalled well above
    its own target can sit a few 1e-6 away from the true parameters in a flat
    valley; Newton restarted from tiny multiplicative jitters of the iterate
    usually drops the rest of the way, making the answer independent of the
    initialization.
    """
    if res <= 100.0 * NEWTON_TOL:
        return rep
    rng = np.random.default_rng(424_243)
    best_x, best_res = x, res
    for spread in (1e-3, 1e-2, 3e-3, 3e-2, 1e-3, 1e-2):
        x0 = best_x * np.exp(rng.normal(0.0, spread, len(best_x)))
        try:
            xn, rn = _newton(
                x0, ws.k, ws.c_scaled, ws.sfac, with_zero,
                np.asarray(pinned_s), n_free, NEWTON_TOL, MAX_ITER,
            )
        except NumericalFailureError:
            continue
        if rn < best_res:
            best_x, best_res = xn, rn
        if best_res <= 100.0 * NEWTON_TOL:
            break
    if best_res < res:
        polished = _unpack(ws, best_x, with_zero, pinned, n_free)
        if polished is not None and ws.scaled_residual(polished) <= tol:
            return polished
    return rep


def _reseated_starts(ws, x, has_zero, pinned_s, n_free, tol):
    """Starts that put free nodes merged with t = 0 back into (0, u_min).

    A free node so small that its atom's contribution to every positive-power
    moment is below ``tol`` acts as a zero atom: its Jacobian column vanishes,
    so neither Newton steps nor multiplicative jitter can move it again.  Each
    start keeps the iterate but reseats such nodes at a halving fraction of the
    smallest surviving node.  Empty when no free node has collapsed.
    """
    ofs = 1 if has_zero else 0
    p = len(pinned_s) + n_free
    w, u = x[ofs + len(pinned_s):ofs + p], x[ofs + p:]
    pos = ws.k > 0
    with np.errstate(all="ignore"):
        contrib = w * u ** ws.k[pos, None] / ws.sfac[pos, None]
    collapsed = np.all(contrib < tol, axis=0)
    surviving = np.concatenate([np.asarray(pinned_s, float), u[~collapsed]])
    if not len(surviving):
        return []
    u_min = surviving.min()
    collapsed &= u < u_min
    # Several collapsed nodes are spread apart: coincident nodes would leave
    # the Jacobian singular.
    spread = 0.5 ** np.arange(int(collapsed.sum()))
    starts = []
    for frac in (0.5, 0.25, 0.125) if collapsed.any() else ():
        x0 = x.copy()
        x0[ofs + p:][collapsed] = frac * u_min * spread
        starts.append(x0)
    return starts


def _trivial_structure(ws: _Workspace, has_zero, tol):
    """Closed answers for structures without positive atoms."""
    c = ws.c
    if has_zero:
        mass = c.values[0]
        if mass <= 0:
            raise NumericalFailureError("zero-atom structure needs positive mass")
        rep = Representation((Atom(0.0, mass),))
    else:
        rep = Representation(())
    res = ws.scaled_residual(rep)
    if res > tol:
        raise NumericalFailureError(
            "moments do not match the atomless structure", residual=res
        )
    return rep


def solve_structure(
    c: MomentVector,
    n_pos: int,
    with_zero: bool,
    pinned: tuple[float, ...] = (),
    tol: float = ACCEPT_TOL,
    init_seed: int = 0,
    free_hint: tuple[float, ...] | None = None,
) -> Representation:
    """Find a representation with the given atom structure, or fail.

    ``n_pos`` counts all positive-node atoms including pinned ones; a zero
    atom is allowed only when the first exponent is 0 (otherwise it is
    unidentifiable).

    Newton runs from the starts of four stages in turn, and the first
    iterate that reproduces the moments is returned:

    1. restarts from jittered oracle-support clusters (or ``free_hint``);
    2. reseats: a free node of the best stalled iterate that merged with
       t = 0 is a degenerate structure rather than an answer, so it is put
       back between 0 and the smallest surviving node;
    3. variable-projection seeds: the best stalled iterate, the oracle
       clusters (also tried untouched) and a global scan, each sharpened
       by per-node scans;
    4. jittered polishes hill-climbing from the best stalled iterate.

    Stages 2-4 run only when the restarts came close or a global probe
    finds the structure plausible; a miss by orders of magnitude means the
    structure, not the initialization, is wrong.
    """
    if with_zero and c.exponents.exponents[0] != 0:
        raise DomainError("a zero atom needs exponent 0 in the system")
    if len(pinned) > n_pos:
        raise DomainError("more pinned nodes than positive atoms")
    if any(t <= 0 for t in pinned):
        raise DomainError("pinned nodes must be positive")
    ws = _Workspace(c)
    if n_pos == 0:
        return _trivial_structure(ws, with_zero, tol)

    pinned_s = tuple(t / ws.theta for t in pinned)
    n_free = n_pos - len(pinned)
    best_res = math.inf
    best_trap = None
    domain_exits = 0
    hint_s = None
    if free_hint is not None:
        hint_s = tuple(t / ws.theta for t in free_hint)
    probe_res: float | None = None

    def attempt(x0, count_exit=False):
        """Newton from ``x0``; the accepted representation, else None.

        Keeps the best residual and the best stalled iterate; with
        ``count_exit`` a domain exit counts toward the final error type.
        """
        nonlocal best_res, best_trap, domain_exits
        try:
            x, res = _newton(
                x0, ws.k, ws.c_scaled, ws.sfac, with_zero,
                np.asarray(pinned_s), n_free, NEWTON_TOL, MAX_ITER,
            )
        except NumericalFailureError as exc:
            if count_exit and isinstance(exc, DomainExitError):
                domain_exits += 1
            best_res = min(best_res, exc.residual or math.inf)
            return None
        if res < best_res:
            best_res = res
            best_trap = x.copy()
        rep = _unpack(ws, x, with_zero, pinned, n_free)
        if rep is None:
            return None
        final = ws.scaled_residual(rep)
        if final <= tol:
            return _finalize(ws, x, res, rep, with_zero, pinned, pinned_s,
                             n_free, tol)
        best_res = min(best_res, final)
        return None

    for restart in range(MAX_RESTARTS + 1):
        if restart >= 4 and best_res > _EARLY_ABORT_RESIDUAL:
            # Every start so far missed by orders of magnitude.  Distinguish
            # a wrong structure from unlucky starts with one global
            # variable-projection probe: if even an exhaustive per-node scan
            # cannot fit the moments approximately, the structure is wrong
            # and the remaining restarts are not worth burning.
            if probe_res is None:
                probe_res = _plausibility_probe(
                    ws, n_pos, with_zero, pinned_s, n_free, hint_s
                )
            # The probe is coarse (two sweeps), so give it a wide margin:
            # only a fit that misses by far marks the structure as wrong.
            if probe_res > 30.0 * _EARLY_ABORT_RESIDUAL:
                break
        grid_size = _RESTART_GRIDS[restart % len(_RESTART_GRIDS)]
        jitter = None
        if restart > 0 or init_seed != 0:
            jitter = np.random.default_rng(1_000_003 * (init_seed + 1) + restart)
        # Mostly jittered oracle-support starts, with widening jitter and an
        # occasional fully scattered start mixed in.
        spread = 0.25 if restart < 3 else (0.6 if restart < 9 else 1.0)
        scatter = restart >= 5 and restart % 3 == 2
        x0, _ = _initial_guess(
            ws, n_pos, with_zero, pinned_s, grid_size, jitter,
            spread=spread, scatter=scatter, free_hint=hint_s,
        )
        rep = attempt(x0, count_exit=True)
        if rep is not None:
            return rep
    plausible = probe_res is not None and probe_res <= 30.0 * _EARLY_ABORT_RESIDUAL
    if n_free > 0 and (best_res <= 10.0 * _EARLY_ABORT_RESIDUAL or plausible):
        # Reseats go down the ladder of gap fractions while each still gains.
        if best_trap is not None:
            for x0 in _reseated_starts(ws, best_trap, with_zero, pinned_s,
                                       n_free, tol):
                before = best_res
                rep = attempt(x0)
                if rep is not None:
                    return rep
                if best_res >= before:
                    break
        vp_rng = np.random.default_rng(777_000_001 * (init_seed + 1))
        seeds: list[tuple[np.ndarray, np.ndarray | None]] = []
        # Deterministic seeds first: the best stalled Newton iterate (often
        # one merged node away from the solution) and the oracle-support
        # clusters; the global coordinate scans can relocate a wrong node.
        # Oracle-cluster seeds carry their full initial vector so Newton can
        # also run from them untouched: the coordinate descent's ranking is
        # ridge-damped and can move an already excellent seed away.
        if best_trap is not None:
            seeds.append((best_trap[len(best_trap) - n_free:], None))
        hint_choices = (hint_s, None) if hint_s is not None else (None,)
        for hint in hint_choices:
            try:
                x0d, _ = _initial_guess(
                    ws, n_pos, with_zero, pinned_s, 2624, None, free_hint=hint
                )
                seeds.append((x0d[len(x0d) - n_free:], x0d))
            except (DomainError, NumericalFailureError, ValueError):
                pass
        first_scan = len(seeds)
        seeds.extend(
            (x0[len(x0) - n_free:], None)
            for x0 in _varpro_candidates(
                ws, with_zero, pinned_s, n_free, vp_rng, keep=3
            )
        )
        pair_budget = 1  # the 2D scans are expensive; one shot, best seed first
        misses = 0
        for seed_idx, (free0, x0_full) in enumerate(seeds):
            if misses >= 2 and seed_idx > first_scan:
                # Repeated refined seeds still far off, including a global
                # scan candidate: the structure, not the initialization, is
                # wrong.  Deterministic seeds alone (which may come from a
                # misleading hint) never cut the scan candidates off.
                break
            if x0_full is not None:
                rep = attempt(x0_full)
                if rep is not None:
                    return rep
            free1, w1, vp_res = _vp_coordinate_descent(
                ws, with_zero, pinned_s, free0
            )
            if tol < vp_res <= 1e-2 and n_free >= 2 and pair_budget > 0:
                pair_budget -= 1
                free1, w1, vp_res = _vp_pair_descent(
                    ws, with_zero, pinned_s, free1
                )
            if vp_res > 1e-4:
                misses += 1
            else:
                misses = 0
            best_res = min(best_res, vp_res)
            rep = attempt(np.concatenate([w1, free1]))
            if rep is not None:
                return rep
        # The stalled iterate usually sits close to the actual solution's
        # basin, so jittered Newton polishes around it often land inside
        # even when no single- or two-node move does.  Spreads cycle from
        # wide to tight: a wide kick escapes a wrong basin, a tight one keeps
        # an iterate that is already nearly right inside the right one.
        # Hill-climb: ``attempt`` keeps the best iterate, which later draws
        # jitter.
        if best_trap is not None:
            for i in range(24):
                spread = (0.3, 0.03, 0.003)[i % 3]
                rep = attempt(best_trap * np.exp(
                    vp_rng.normal(0.0, spread, len(best_trap))
                ))
                if rep is not None:
                    return rep
    if domain_exits > MAX_RESTARTS // 2 and best_res > tol:
        raise DomainExitError(
            f"structure ({n_pos} atoms, zero={with_zero}) repeatedly left the "
            f"positive domain; best residual {best_res:.3e}",
            residual=best_res,
        )
    raise NumericalFailureError(
        f"no representation with {n_pos} positive atoms"
        f"{' + zero atom' if with_zero else ''} within tolerance "
        f"(best residual {best_res:.3e})",
        residual=best_res,
    )


def _unpack(ws, x, has_zero, pinned, n_free):
    """Rebuild an unscaled representation from the Newton variables."""
    ofs = 1 if has_zero else 0
    p = len(pinned) + n_free
    weights = x[ofs:ofs + p]
    free_nodes = x[ofs + p:] * ws.theta
    nodes = list(pinned) + list(free_nodes)  # pinned nodes stay bit-exact
    atoms = []
    if has_zero:
        if x[0] <= 0:
            return None
        atoms.append(Atom(0.0, float(x[0])))
    try:
        for node, w in zip(nodes, weights):
            atoms.append(Atom(float(node), float(w)))
        return Representation(tuple(atoms))
    except DomainError:
        return None


def lowest_structure(
    c: MomentVector,
    max_twice: int,
    tol: float = ACCEPT_TOL,
) -> tuple[int, Representation] | None:
    """The lowest-index structure, up to index max_twice/2, that reproduces c.

    Structures are tried by ascending half-integer index; the odd ones (with
    a zero atom) only when exponent 0 is in the system.  Returns twice the
    index with the representation, or None when no structure solves.
    """
    k1_zero = c.exponents.exponents[0] == 0
    for twice in range(1, max_twice + 1):
        with_zero = twice % 2 == 1
        if with_zero and not k1_zero:
            continue
        try:
            rep = solve_structure(c, twice // 2, with_zero, tol=tol)
        except (NumericalFailureError, DomainError):
            continue
        return twice, rep
    return None


def _thin(ws: _Workspace, rep: Representation, tol: float):
    """``rep`` without its negligible atoms, when that still reproduces c.

    A weight below ``tol`` of the total mass means the structure degenerated:
    the vector has a strictly smaller index.  None when no weight is
    negligible or the thinned measure misses the moments.
    """
    mass = sum(a.weight for a in rep.atoms)
    kept = tuple(a for a in rep.atoms if a.weight > tol * mass)
    if len(kept) == len(rep.atoms):
        return None
    try:
        thin = Representation(kept)
    except DomainError:
        return None
    return thin if ws.scaled_residual(thin) <= 10 * tol else None


def classify(c: MomentVector, tol: float = ACCEPT_TOL) -> Classification:
    """Trichotomy of c relative to the moment cone, with a witness measure.

    Requires exponent 0 in the system; for systems with k_1 > 0 use the
    recursive machinery in :mod:`kolmo.kolmogorov`.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if c.exponents.exponents[0] != 0:
        raise UnsupportedSystemError(
            "classification needs exponent 0; use kolmogorov.decide_admissible "
            "for systems with k_1 > 0"
        )
    vals = np.asarray(c.values, dtype=float)
    if not vals.any():
        return Classification(ClassKind.ZERO)
    scale = float(np.max(np.abs(vals)))
    if np.any(vals < -tol * scale) or c.values[0] <= 0:
        return Classification(ClassKind.EXTERIOR)
    if _oracle_report(c, _RESTART_GRIDS[0]).residual > _DEEP_EXTERIOR_RESIDUAL:
        return Classification(ClassKind.EXTERIOR)
    found = lowest_structure(c, c.d, tol)
    if found is None:
        return Classification(ClassKind.EXTERIOR)
    twice, rep = found
    if twice < c.d:
        return Classification(ClassKind.BOUNDARY, rep)
    thin = _thin(_Workspace(c), rep, tol)
    if thin is not None:
        return Classification(ClassKind.BOUNDARY, thin)
    return Classification(ClassKind.INTERIOR, rep)


def minimal_index(
    c: MomentVector, tol: float = ACCEPT_TOL
) -> tuple[HalfInteger, Representation]:
    """Smallest half-integer index whose representation reproduces c."""
    found = lowest_structure(c, c.d + 1, tol)
    if found is None:
        raise InconsistencyError(
            "no representation up to index (d+1)/2; input is outside the cone "
            "or the solve failed numerically"
        )
    return HalfInteger(found[0]), found[1]


def principal_representation(
    c: MomentVector, tol: float = ACCEPT_TOL, init_seed: int = 0
) -> Representation:
    """Representation of index exactly d/2 for an interior moment vector."""
    d = c.d
    # Index d/2: d // 2 positive atoms, plus a zero atom when d is odd.
    n_pos, with_zero = d // 2, d % 2 == 1
    if with_zero and c.exponents.exponents[0] != 0:
        raise UnsupportedSystemError(
            "odd-dimensional principal structure needs exponent 0"
        )
    try:
        rep = solve_structure(c, n_pos, with_zero, tol=tol, init_seed=init_seed)
    except NumericalFailureError as exc:
        # Distinguish a genuine precondition violation from solver failure.
        found = lowest_structure(c, d - 1, tol)
        if found is None:
            raise
        raise NotInteriorError(
            f"moment vector has a representation of index {found[0]}/2 < d/2; "
            "it is not interior"
        ) from exc
    if _thin(_Workspace(c), rep, tol) is not None:
        raise NotInteriorError(
            "a representing weight vanishes at the requested index; "
            "the moment vector is not interior"
        )
    return rep


def interlace_hints(principal: Representation, t_star: float) -> tuple[float, ...]:
    """Starting positions for the free roots of a pinned solve.

    The positive roots of a representation of index (d+1)/2 fall one per gap
    between consecutive positive roots of the principal representation; the
    gap (0, u_1) is available exactly when the principal representation
    carries a zero atom (its zero slot is then free for a positive root).
    Raises :class:`DomainError` when no gap contains ``t_star``, in which
    case no such representation with the prescribed root exists.
    """
    us = [a.node for a in principal.atoms if a.node > 0]
    gaps: list[tuple[float, float]] = []
    if principal.has_zero_atom:
        gaps.append((0.0, us[0] if us else math.inf))
    for lo, hi in zip(us, us[1:]):
        gaps.append((lo, hi))
    if us:
        gaps.append((us[-1], math.inf))
    pin_gap = next(
        (j for j, (lo, hi) in enumerate(gaps) if lo < t_star < hi), None
    )
    if pin_gap is None:
        raise DomainError(
            f"no representation of index (d+1)/2 contains the root {t_star}: "
            "it lies below the smallest principal root, which is reserved "
            "for the zero atom"
        )
    hints = []
    for j, (lo, hi) in enumerate(gaps):
        if j == pin_gap:
            continue
        if math.isinf(hi):
            hints.append(lo * 4.0)
        elif lo == 0.0:
            hints.append(hi / 4.0)
        else:
            hints.append(math.sqrt(lo * hi))
    return tuple(hints)


def pinned_representation(
    c: MomentVector,
    t_star: float,
    principal: Representation | None,
    tol: float = ACCEPT_TOL,
) -> Representation:
    """Representation of index (d+1)/2 with a root pinned at t_star exactly.

    ``principal``, the index-d/2 representation when one is known, rejects a
    pin on one of its roots (the pinned system degenerates there) and gives
    the free roots their interlacing starts.
    """
    hints = None
    if principal is not None:
        theta = t_max_heuristic(c)
        for atom in principal.atoms:
            if atom.node > 0 and abs(atom.node - t_star) <= 1e-8 * theta:
                raise PinnedNodeCoincidenceError(
                    f"prescribed root {t_star} coincides with principal root "
                    f"{atom.node}; the pinned structure degenerates"
                )
        hints = interlace_hints(principal, t_star)
    # Index (d+1)/2: (d+1) // 2 positive atoms, plus a zero atom when d is even.
    return solve_structure(
        c, (c.d + 1) // 2, c.d % 2 == 0, pinned=(t_star,), tol=tol,
        free_hint=hints,
    )


def canonical_representation(
    c: MomentVector, t_star: float, tol: float = ACCEPT_TOL
) -> Representation:
    """Representation of index (d+1)/2 with a root pinned at t_star exactly."""
    if t_star <= 0:
        raise DomainError(f"prescribed root must be positive, got {t_star}")
    if c.exponents.exponents[0] != 0:
        raise UnsupportedSystemError("canonical representation needs exponent 0")
    principal = principal_representation(c, tol=tol)
    try:
        return pinned_representation(c, t_star, principal, tol)
    except NumericalFailureError as exc:
        raise NumericalFailureError(
            f"no representation of index (d+1)/2 with root {t_star} was "
            "found; prescribed roots are attainable only on the bands swept "
            "by that family, and this root may lie outside them",
            residual=exc.residual,
        ) from exc


def newton_refine(
    guess: Representation,
    pinned_nodes: list[float],
    c: MomentVector,
    tol: float = NEWTON_TOL,
    max_iter: int = MAX_ITER,
) -> Representation:
    """Refine a structurally correct guess by damped Newton iteration."""
    ws = _Workspace(c)
    has_zero = guess.has_zero_atom
    pos = [a for a in guess.atoms if a.node > 0]
    pinned = []
    free = []
    remaining = list(pinned_nodes)
    for atom in pos:
        match = next(
            (t for t in remaining if abs(t - atom.node) <= 1e-12 * max(t, atom.node)),
            None,
        )
        if match is not None:
            remaining.remove(match)
            pinned.append((match, atom.weight))
        else:
            free.append(atom)
    if remaining:
        raise DomainError(f"pinned nodes {remaining} not present in the guess")
    pinned_t = tuple(t for t, _ in pinned)
    weights = [w for _, w in pinned] + [a.weight for a in free]
    if has_zero:
        x0 = [guess.atoms[0].weight] + weights + [a.node / ws.theta for a in free]
    else:
        x0 = weights + [a.node / ws.theta for a in free]
    pinned_s = np.asarray([t / ws.theta for t in pinned_t])
    x, res = _newton(
        np.asarray(x0, dtype=float), ws.k, ws.c_scaled, ws.sfac,
        has_zero, pinned_s, len(free), tol, max_iter,
    )
    rep = _unpack(ws, x, has_zero, pinned_t, len(free))
    if rep is None:
        raise DomainExitError(
            "refined iterate left the positive domain; wrong structure",
            residual=res,
        )
    final = ws.scaled_residual(rep)
    if final > max(tol, 100 * NEWTON_TOL):
        raise NumericalFailureError(
            f"Newton did not converge (residual {final:.3e})", residual=final
        )
    return rep
