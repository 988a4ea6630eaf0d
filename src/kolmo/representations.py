"""Exact-structure solves for the power-moment problem on [0, inf).

One entry per structure: :func:`classify` solves for the lowest-index one
in every exponent system (:func:`minimal_index` reads it);
:func:`principal_representation` (index d/2) and
:func:`canonical_representation` (index (d+1)/2, through a prescribed root)
reject the systems without exponent 0 where that index has no structure.

Every solve runs one tracker.  Inside the convex moment cone the principal
(index d/2) representation is unique and smooth in the moments, so
:func:`_track` follows it (Euler predictor, Newton corrector, in log weights
and log nodes) along a straight path c_a + s (c_b - c_a) to s = 1, or to
the exit s* where the path leaves the cone and the measure loses a degree of
freedom: a weight or node goes to 0, or the top node runs to infinity.  One
rule locates every exit: a bordered Newton solve for the exit measure and s*.

- Classification and principal representations track from a start measure
  spread over the moment-ratio range of c to c, and get the principal
  representation at c, else the exit measure polished against c if it
  reproduces c (else c is exterior); the verdict is its index against d/2.
- A root pinned at t* tracks the ray c - s w v(t*), v(t*) the powers of t*,
  from the principal representation to its exit, where the mass at t* is
  maximal; the exit measure plus that atom is the canonical representation.

Every returned representation is re-checked against c in the original
system.  The brute-force oracle takes no part; it stays an independent
cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import NODE_MERGE_REL, Atom, HalfInteger, MomentVector, Representation, index_of
from .errors import (
    DomainError,
    InconsistencyError,
    NotInteriorError,
    NumericalFailureError,
    PinnedNodeCoincidenceError,
    UnsupportedSystemError,
    require_tolerance,
)

# Tolerance ladder: Newton step (near machine precision, so the iterate is
# parameter-converged, not just residual-converged) and acceptance of a
# representation.
NEWTON_TOL = 1e-13
ACCEPT_TOL = 1e-8

#: Iteration budget of one Newton polish.
MAX_ITER = 80

LAND_TOL = 0.1  # a loss below it starts the tracker's exit solve ...
LAND_ITER = 8  # ... of at most this many Newton iterations


class ClassKind(Enum):
    ZERO = "zero"
    EXTERIOR = "exterior"
    BOUNDARY = "boundary"
    INTERIOR = "interior"


@dataclass(frozen=True)
class Classification:
    kind: ClassKind
    witness: Representation | None = None


def _log_scales(target):
    """Logarithms of the per-equation scales of a moment target.

    Each equation is solved to relative accuracy: with an absolute floor a
    wrong node still fits the small moments of a wide range.  The floor only
    caps the row weight of a zero or subnormal moment.
    """
    a = np.abs(target)
    return np.log(np.maximum(a, 1e-150 * a.max() + 1e-300))


def _unpack(y, layout):
    """Log zero mass (or None), log weights and log nodes of the variables y.

    ``layout`` is (has_zero, pins); y holds the log zero mass, the log weights
    of all positive atoms and the log nodes of the free ones (pins first).
    """
    has_zero, pins = layout
    rest = y[1:] if has_zero else y
    p = (len(rest) + len(pins)) // 2
    lu = np.concatenate([np.log(np.asarray(pins, dtype=float)), rest[p:]])
    return (y[0] if has_zero else None), rest[:p], lu


def _relative(lw, lu, k, log_s):
    """Contributions of atoms (rows: exponents) relative to each equation's scale.

    Logarithms keep hundreds of decades finite; the cap at e^300 keeps squared
    Jacobian columns finite.  Extended precision, where the platform has it,
    keeps residual rounding from limiting close nodes to about 1e-6.
    """
    lw, lu = np.asarray(lw, np.longdouble), np.asarray(lu, np.longdouble)
    return np.exp(np.minimum(lw[None, :] + np.outer(k, lu) - log_s[:, None], 300.0))


def _system(y, layout, k, target, log_s, dc=None):
    """Scaled residual and Jacobian of the moment equations in log variables.

    With ``dc`` the last variable is a path offset σ and the target is
    target + σ dc: the bordered system of an exit.
    """
    if dc is not None:
        F, J = _system(y[:-1], layout, k, target + y[-1] * dc, log_s)
        return F, np.column_stack([J, -dc * np.exp(-log_s)])
    lz, lw, lu = _unpack(y, layout)
    R = _relative(lw, lu, k, log_s)
    if lz is not None:
        zero = np.exp(np.minimum(np.longdouble(lz) - log_s, 300.0))
        R = np.column_stack([np.where(k == 0, zero, 0.0), R])
    F = (R.sum(axis=1) - target * np.exp(-log_s.astype(np.longdouble))).astype(float)
    R = R.astype(float)
    # d/dlog w = contribution, d/dlog u = k * contribution (free nodes last).
    n_free = len(y) - R.shape[1]
    return F, np.hstack([R, k[:, None] * R[:, R.shape[1] - n_free:]])


def _lstsq(J, rhs):
    """Solve (square) or least squares, with unit-norm columns: contributions
    span tens of decades, and a rank cutoff would drop what small atoms need."""
    norms = np.linalg.norm(J, axis=0)
    norms[norms == 0] = 1.0
    J = J / norms
    if J.shape[0] == J.shape[1]:
        try:
            x = np.linalg.solve(J, rhs)
            if np.isfinite(x).all():
                return x / norms
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(J, rhs, rcond=None)[0] / norms


def _correct(y, layout, k, target, tol, max_iter, dc=None):
    """Gauss-Newton in log variables (and σ, with ``dc``): the best (y, residual).

    A step is halved until it lowers the residual or the next step from the
    same Jacobian is shorter: with weights over many decades a full step can
    raise the residual on its way to the root, and near the root rounding
    makes steps noisy.  Stops at ``tol``, ``max_iter`` or steps < NEWTON_TOL.
    """
    log_s = _log_scales(target)
    F, J = _system(y, layout, k, target, log_s, dc)
    res = float(np.abs(F).max())
    best = (y, res)
    for _ in range(max_iter):
        if best[1] <= tol:
            break
        step = _lstsq(J, -F)
        size = float(np.abs(step).max())
        if not size > NEWTON_TOL:
            break
        for alpha in 0.5 ** np.arange(8):
            trial = y + alpha * step
            Ft, Jt = _system(trial, layout, k, target, log_s, dc)
            rt = float(np.abs(Ft).max())
            if rt < res or np.abs(_lstsq(J, -Ft)).max() <= (1.0 - alpha / 2) * size:
                break
        else:
            break
        y, F, J, res = trial, Ft, Jt, rt
        if res < best[1]:
            best = (y, res)
    return best


def _losses(y, layout, k, log_s):
    """The measure (atoms by node), the costs (largest relative moment change)
    of dropping the zero atom, of moving each positive atom to 0, of merging
    each adjacent pair at their weighted log mean and of moving the top atom
    to infinity (it then feeds the top moment only), and the merged atoms.
    """
    lz, lw, lu = _unpack(y, layout)
    order = np.argsort(lu)
    lw, lu = lw[order], lu[order]
    R = _relative(lw, lu, k, log_s)
    mw = np.logaddexp(lw[:-1], lw[1:])
    mu = lu[:-1] * np.exp(lw[:-1] - mw) + lu[1:] * np.exp(lw[1:] - mw)
    costs = np.concatenate([
        [math.inf if lz is None else math.exp(min(lz - log_s[0], 300.0))],
        R[1:].max(axis=0, initial=0.0),
        np.abs(_relative(mw, mu, k, log_s) - R[:, :-1] - R[:, 1:]).max(axis=0, initial=0.0),
        [R[:-1, -1].max(initial=0.0) if len(lu) else math.inf],
    ]).astype(float)
    return (lz, lw, lu), costs, (mw, mu)


def _track(y, layout, k, c_a, c_b):
    """Follow the representation y of c_a along c_a + s (c_b - c_a): (1, y,
    layout) at c_b, or (s*, y, layout) of the exit measure where it leaves.

    Euler predictor, Newton corrector; the step doubles after a success and
    halves after a failure, and moves no log variable by more than one unit.

    One exit rule: a loss of :func:`_losses` vanishes linearly at an exit,
    so its last two values predict s*.  Once the earliest predicted loss is
    below LAND_TOL (a decade below its last try), one Newton solve of the
    bordered system, the exit measure of :func:`_exit_measure` without that
    loss (moved along the tangent to s*) and s* with moments c_a + s* (c_b -
    c_a), lands on it; a miss tracks on.  A loss below ACCEPT_TOL is the
    exit of last resort, without the solve.  A step below NEWTON_TOL raises.
    """
    dc = c_b - c_a
    # Degeneracy is measured against the larger end of the path: along a ray
    # a moment shrinks to 0 together with the atoms that feed it.
    log_ref = _log_scales(np.maximum(np.abs(c_a), np.abs(c_b)))
    s, h, s_prev = 0.0, 0.5, 0.0
    while s < 1.0:
        costs = _losses(y, layout, k, log_ref)[1]
        if s == 0.0:
            level, prev = np.full(len(costs), LAND_TOL), costs
        if costs[:-1].min() < ACCEPT_TOL:
            return (s, *_exit_measure(y, layout, k, log_ref))
        log_s = _log_scales(c_a + s * dc)
        tangent = _lstsq(_system(y, layout, k, c_a + s * dc, log_s)[1], dc * np.exp(-log_s))
        h = min(2.0 * h, 1.0 / max(float(np.abs(tangent).max()), 1e-300))
        fall = (costs < level) & (costs < prev)
        # A merge, or a move to 0 onto a zero atom, loses two degrees of freedom.
        fall[1 if costs[0] < math.inf else len(costs) // 2 + 1:-1] = False
        exits = np.full(len(costs), math.inf)
        exits[fall] = s + costs[fall] * (s - s_prev) / (prev[fall] - costs[fall])
        s_prev, prev, j = s, costs, int(np.argmin(exits))
        if exits[j] <= 1.0:
            level[j] = 0.1 * costs[j]
            y_e, layout_e = _exit_measure(y + (exits[j] - s) * tangent, layout, k, log_ref, j)
            n = len(k) - (j == len(costs) - 1)  # an atom at infinity frees the top moment
            z, res = _correct(np.append(y_e, exits[j] - s), layout_e, k[:n], (c_a + s * dc)[:n],
                              1e-2 * ACCEPT_TOL, LAND_ITER, dc[:n])
            # Its mass must be nonnegative.  An exit within the corrector's resolution
            # of c_b is c_b's own, or within ACCEPT_TOL if a far atom can carry c_b.
            excess = _system(z, layout_e, k, c_a + s * dc, log_s, dc)[0][-1]
            gap = (1.0 - s - z[-1]) * np.abs(dc * np.exp(-log_s)).max()
            if (max(res, excess) <= 1e-2 * ACCEPT_TOL and z[-1] >= 0.0
                    and gap > (ACCEPT_TOL if n < len(k) else -1e-2 * ACCEPT_TOL)):
                return s + z[-1], z[:-1], layout_e
        while True:
            if h < NEWTON_TOL:
                raise NumericalFailureError(f"the path's step underflows at s = {s!r}")
            s_new = min(s + h, 1.0)
            # Two decades below the degeneracy level, so that every atom
            # still in the structure is resolved.
            y_new, res = _correct(y + (s_new - s) * tangent, layout, k,
                                  c_a + s_new * dc, 1e-2 * ACCEPT_TOL, 4)
            if res <= 1e-2 * ACCEPT_TOL:
                break
            h *= 0.5
        s, y = s_new, y_new
    return s, y, layout


class _Problem:
    """A moment vector in the exponents k - k_1, nodes divided by 2^m.

    2^m sits mid moment-ratio range, so node logarithms stay small and pins
    scale exactly.  Weights become w u^{k_1}; an atom at 0 then has no
    counterpart in the original system unless k_1 = 0.
    """

    def __init__(self, c: MomentVector):
        ks = c.exponents.exponents
        self.shift = ks[0]
        self.k = np.asarray(ks, dtype=float) - ks[0]
        vals = np.asarray(c.values, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.diff(np.log(np.abs(vals))) / np.diff(self.k)
        ratios = ratios[(vals[:-1] > 0) & (vals[1:] > 0)]
        mid = (ratios.min() + ratios.max()) / 2 if len(ratios) else 0.0
        self.m = int(round(mid / math.log(2.0)))
        self.values = np.ldexp(vals, (-self.m * self.k).astype(int))

    def nodes(self, lu):
        """Log scaled nodes back to nodes."""
        return np.ldexp(np.exp(lu), self.m)

    def scaled_residual(self, rep: Representation) -> float:
        """Largest moment mismatch of ``rep``, each relative to its scale."""
        y, layout = self.variables(rep)
        F = _system(y, layout, self.k, self.values, _log_scales(self.values))[0]
        return float(np.abs(F).max())

    def representation(self, y, layout) -> Representation | None:
        """The measure of y in the original system, or None.

        An atom at 0 without exponent 0 is left out; callers check the rest.
        """
        lz, lw, lu = _unpack(y, layout)
        pins = layout[1]
        with np.errstate(over="ignore", under="ignore"):
            nodes = [math.ldexp(t, self.m) for t in pins] + list(self.nodes(lu[len(pins):]))
            weights = list(np.exp(lw - self.shift * (lu + self.m * math.log(2.0))))
            if lz is not None and not self.shift:
                nodes, weights = [0.0] + nodes, [np.exp(lz)] + weights
        if any(u <= 0 for u in nodes[len(nodes) - len(lw):]):
            return None
        try:
            return Representation(tuple(Atom(float(u), float(w)) for u, w in zip(nodes, weights)))
        except DomainError:
            return None

    def variables(self, rep: Representation):
        """Inverse of :meth:`representation`: (y, layout)."""
        zero = [math.log(a.weight) for a in rep.atoms if a.node == 0.0]
        pos = [a for a in rep.atoms if a.node > 0]
        lw = [math.log(a.weight) + self.shift * math.log(a.node) for a in pos]
        lu = [math.log(math.ldexp(a.node, -self.m)) for a in pos]
        return np.array(zero + lw + lu), (bool(zero), ())

    def start(self, init_seed: int):
        """Start measure of the principal path: (y, layout).

        Nodes spread geometrically over the moment-ratio range (each ratio
        (c_{i+1}/c_i)^(1/(k_{i+1}-k_i)) of one atom at t is t; a zero atom
        spoils the first), jittered within their spacing by ``init_seed``;
        each atom carries a share of the largest mass its node can carry.
        """
        k, c = self.k, self.values
        p, has_zero = len(k) // 2, len(k) % 2 == 1
        ratios = (np.diff(np.log(c)) / np.diff(k))[int(has_zero):]
        lo, hi = (ratios.min(), ratios.max()) if len(ratios) else (0.0, 0.0)
        spacing = (hi - lo + 2.0) / (p + 1)
        lu = lo - 1.0 + spacing * np.arange(1, p + 1)
        if init_seed:
            lu = lu + np.random.default_rng(init_seed).uniform(-0.4, 0.4, p) * spacing
        lw = _log_max_mass(c, k, lu) - math.log(p + has_zero)
        lz = [math.log(c[0] / (p + 1))] if has_zero else []
        return np.concatenate([lz, lw, lu]), (has_zero, ())


def _log_max_mass(c, k, lu):
    """Log of min_i c_i / u^k_i, the largest mass an atom at u can take from c."""
    return np.min(np.log(c)[:, None] - np.outer(k, np.atleast_1d(lu)), axis=0)


def _exit_measure(y, layout, k, log_s, drop=None):
    """The measure without its degenerate atoms: (y, layout).

    Takes every loss of :func:`_losses` below ACCEPT_TOL but the top atom's
    to infinity, and the loss ``drop`` (an index into the costs); drops a zero
    atom left below ACCEPT_TOL.  An atom moved to infinity leaves the measure.
    """
    (lz, lw, lu), costs, (mw, mu) = _losses(y, layout, k, log_s)
    taken = np.append(costs[:-1] < ACCEPT_TOL, False) | (np.arange(len(costs)) == drop)
    p = len(lw)
    moved, merged = taken[1:p + 1], taken[p + 1:-1]
    zero = ([] if lz is None or taken[0] else [lz]) + list(lw[moved])
    atoms, j = [], 0
    while j < p:
        if not moved[j]:
            pair = bool(j + 1 < p and merged[j] and not moved[j + 1])
            atoms.append((mw[j], mu[j]) if pair else (lw[j], lu[j]))
            j += pair
        j += 1
    if taken[-1]:
        atoms.pop()
    lz = np.logaddexp.reduce(zero) if zero else -math.inf
    lz = None if math.exp(min(lz - log_s[0], 300.0)) < ACCEPT_TOL else lz
    y = [w for w, _ in atoms] + [u for _, u in atoms]
    return np.array(y if lz is None else [lz] + y), (lz is not None, ())


def _principal_path(prob: _Problem, tol: float, init_seed: int = 0):
    """(y, layout) of the principal representation, the square system
    len(y) == d, if the path reaches c, else of the polished exit measure if
    it reproduces c within ``tol``; else None."""
    k, c = prob.k, prob.values
    log_c = _log_scales(c)
    if c[0] <= 0 or np.any(c[1:] <= 0):
        # An atom at a positive node feeds every moment: only a zero atom fits.
        y, layout = np.log([max(c[0], 1e-300)]), (True, ())
        res = float(np.abs(_system(y, layout, k, c, log_c)[0]).max())
        return (y, layout) if res <= tol else None
    y, layout = prob.start(init_seed)
    c_a = _system(y, layout, k, np.zeros(len(k)), np.zeros(len(k)))[0]
    s, y, layout = _track(y, layout, k, c_a, c)
    found = y, layout
    if s == 1.0:
        y, res = _correct(y, layout, k, c, 0.0, MAX_ITER)
        if res > tol:
            raise NumericalFailureError(f"the path misses c by {res:.3e}", residual=res)
        costs = _losses(y, layout, k, log_c)[1][:-1]
        if costs.min() >= tol:
            return y, layout
        # Within tol of a thinner measure, the cheapest loss is the lost freedom.
        found = _exit_measure(y, layout, k, log_c, int(np.argmin(costs)))
    # An exit can lose several degrees of freedom at once; the polish drives
    # out the rest, and they are taken after it.
    if len(found[0]):
        y_thin, res = _correct(*found, k, c, 0.0, MAX_ITER)
        if res <= tol:
            return _exit_measure(y_thin, found[1], k, log_c)
    # A near-degenerate principal representation whose thinning misses c.
    return (y, layout) if s == 1.0 else None


def _canonical(prob: _Problem, y, layout, t_star: float, tol: float):
    """Canonical representation through t_star from the principal y.

    Along the ray c - s w v(t_star) the mass at t_star is maximal at the
    exit s* (for odd d the zero atom vanishes, for even d the smallest node
    goes to 0).  :func:`_track` lands there like on any exit; the exit
    measure plus (t_star, s* w), polished, is the canonical representation.
    Raises :class:`NumericalFailureError` when it misses c.
    """
    k, c = prob.k, prob.values
    pin = math.ldexp(t_star, -prob.m)  # exact
    w_max = math.exp(_log_max_mass(c, k, math.log(pin))[0])
    # The ray runs on to twice that mass, so that its exit lies inside the
    # path and not where a moment reaches 0.
    s, y, layout = _track(y, layout, k, c, c - 2.0 * w_max * np.exp(k * math.log(pin)))
    if not 0.0 < s < 1.0 or len(y) != len(k) - 1:
        raise NumericalFailureError("the ray has no exit of index (d-1)/2 inside its path")
    y, layout = np.insert(y, int(layout[0]), math.log(2.0 * s * w_max)), (layout[0], (pin,))
    y, res = _correct(y, layout, k, c, 0.0, MAX_ITER)
    if res > tol:
        raise NumericalFailureError(
            f"no representation of index (d+1)/2 with root {t_star} reproduces c "
            f"(residual {res:.3e}); this root may lie off the bands its family sweeps",
            residual=res)
    return y, layout


def _witness(prob: _Problem, found, tol: float) -> Representation | None:
    """The measure of ``found``, (y, layout) or None, if it reproduces c within tol."""
    rep = prob.representation(*found) if found else None
    if rep is None or prob.scaled_residual(rep) > tol:
        return None
    return rep


def classify(c: MomentVector, tol: float = ACCEPT_TOL) -> Classification:
    """Trichotomy of c relative to the moment cone, with a lowest-index witness.

    The principal path finds the witness and its index alone is the verdict:
    below d/2 BOUNDARY, else INTERIOR.  Without exponent 0 an odd d has no
    index d/2 (its zero atom feeds no moment): an interior c gets the
    canonical representation through twice the largest principal root, of
    index (d+1)/2, or :class:`NumericalFailureError` if that solve misses c.
    """
    require_tolerance(tol)
    if not any(c.values):
        return Classification(ClassKind.ZERO)
    prob = _Problem(c)
    found = _principal_path(prob, tol)
    if found and len(found[0]) == c.d and found[1][0] and prob.shift:
        t_star = 2.0 * prob.nodes(_unpack(*found)[2]).max(initial=0.5)
        found = _canonical(prob, *found, t_star, tol)
    rep = _witness(prob, found, tol)
    if rep is None:
        return Classification(ClassKind.EXTERIOR)
    kind = ClassKind.BOUNDARY if index_of(rep).twice < c.d else ClassKind.INTERIOR
    return Classification(kind, rep)


def minimal_index(c: MomentVector, tol: float = ACCEPT_TOL) -> tuple[HalfInteger, Representation]:
    """Smallest half-integer index whose representation reproduces c."""
    result = classify(c, tol)
    if result.kind is ClassKind.ZERO:
        return HalfInteger(0), Representation(())
    if result.kind is ClassKind.EXTERIOR:
        raise InconsistencyError("no representation up to index (d+1)/2: c is outside the cone")
    return index_of(result.witness), result.witness


def principal_representation(
    c: MomentVector, tol: float = ACCEPT_TOL, init_seed: int = 0
) -> Representation:
    """Representation of index exactly d/2 for an interior moment vector: the
    end of the principal path from the start ``init_seed`` selects."""
    require_tolerance(tol)
    if c.d % 2 and c.exponents.exponents[0]:
        raise UnsupportedSystemError("odd-dimensional principal structure needs exponent 0")
    prob = _Problem(c)
    found = _principal_path(prob, tol, init_seed)
    rep = _witness(prob, found, tol) if found and len(found[0]) == c.d else None
    if rep is None:
        raise NotInteriorError("the moment vector is not interior")
    return rep


def canonical_representation(
    c: MomentVector, t_star: float, tol: float = ACCEPT_TOL
) -> Representation:
    """Representation of index (d+1)/2 with a root pinned at t_star exactly.

    The maximal-mass ray starts from the principal representation; a pin on
    one of its roots is rejected, the ray has no length there.  Without
    exponent 0 an even d has none: the ray's exit drives a node to 0, where
    an atom feeds no moment.
    """
    require_tolerance(tol)
    if not 0 < t_star < math.inf:
        raise DomainError(f"prescribed root must be positive and finite, got {t_star}")
    if c.d % 2 == 0 and c.exponents.exponents[0]:
        raise UnsupportedSystemError("even-dimensional canonical structure needs exponent 0")
    prob = _Problem(c)
    found = _principal_path(prob, tol)
    if not found or len(found[0]) != c.d:
        raise NotInteriorError("a canonical representation needs an interior vector")
    for u in prob.nodes(_unpack(*found)[2]):
        if abs(u - t_star) <= NODE_MERGE_REL * max(u, t_star):
            raise PinnedNodeCoincidenceError(
                f"prescribed root {t_star} coincides with principal root "
                f"{u}; the pinned structure degenerates"
            )
    rep = _witness(prob, _canonical(prob, *found, t_star, tol), tol)
    if rep is None:
        raise NumericalFailureError(f"no canonical representation through {t_star} here")
    return rep
