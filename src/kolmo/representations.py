"""Exact-structure solves for the power-moment problem on [0, inf).

:func:`classify` solves for the lowest-index structure in every exponent
system, from the path start its ``init_seed`` selects where it tracks (its
witness is the minimal-index representation); :func:`principal_representation`
(index d/2) is its INTERIOR witness, and it and
:func:`canonical_representation` (index (d+1)/2, through a prescribed root)
reject the systems without exponent 0 where their index has no structure.

A principal solve with d >= 6, one with d = 4 or 5 that the closed form
hands on (see :func:`_family_measure`), and every canonical ray run one
tracker.  Inside the convex moment cone the principal (index d/2)
representation is unique and smooth in the moments, so :func:`_track`
follows it (Euler predictor, Newton corrector, in log weights and log nodes)
along a straight path c_a + s (c_b - c_a) to s = 1, or to the exit s* where
the path leaves the cone and the measure loses a degree of freedom: a weight
or node goes to 0, or the top node runs to infinity.  Three rules locate an
exit, the first two by one face solve (:func:`_solve_face`) of the exit
measure.  A loss predicted to vanish nearer c than the path has come, or
just past c, is c's own exit, the end of a boundary c, which the path would
only crawl into (a vanishing weight's log falls a unit per step while 1 - s
shrinks about 0.85-fold): it is solved against c, once per loss.  One
predicted otherwise within the path is landed, bordered by the path offset.
Where the top atom runs to infinity the face is c's lower moments; the top
moment may fall short, for a far atom to carry without a polish
(:func:`_far_atom`), but never exceed.  A loss already below ACCEPT_TOL at
an accepted point ends the path there, without a solve.  A boundary c is a
singular end of its path: after a step onto c fails, the path closes in on c
without trying it again until the rest has shrunk ENDGAME_SHRINK-fold, and
the landing also takes exits predicted up to as far past c as s is short of
it.  Each step's tangent reuses the corrector's Jacobian at the point it
accepted.  An exit measure drops an atom whose weight vanishes, and every
Newton solve ends where further steps cannot gain: at its rounding floor, or
at a least-squares minimum.

Otherwise d <= 5 takes no path.  A positive pair needs no solve at all:
one atom attains it, found in closed form and checked in floats, and it is
the verdict and the principal representation both.  For d = 3, 4 and 5,
:func:`_family_measure` puts the principal or the thin measure where the
path would have ended, by one safeguarded Newton search over the two-atom
measures through the first three moments (d = 4), with a Newton solve for
their node gap inside each of its steps, and for an odd d by a zero atom
plus the measure of the top d - 1 moments, recursively down to a positive
pair; the polish, the thinning and the checks after it are those of the
path.

- Classification gets the principal representation at c, else the exit
  measure polished against c if it reproduces c (else c is exterior); where
  it tracks, the path runs from a start measure spread over the moment-ratio
  range of c to c.  The verdict is the witness's index against d/2.
  EXTERIOR is settled without a polish where a polynomial p(t) = Σ λ_i t^k_i
  >= 0 on [0, inf) has λ·c < -tol Σ|λ_i c_i|, which no measure within tol
  of c allows.  A negative moment c_i gives p(t) = t^k_i; before any path,
  three consecutive moments that break Lyapunov's inequality, a zero at
  either end included, give one in closed form (:func:`_lyapunov`); at an
  exit before c, the face normal of an exit measure of d - 1 or d - 2
  variables that misses c, with a double root of p at each node
  (:func:`_separation`).
  Without exponent 0 a zero atom of the solver's system is mass escaping to
  0: the witness puts it, in closed form, at a node near 0, where it counts
  as a whole atom.
- A root pinned at t* tracks the ray c - s w v(t*), v(t*) the powers of t*,
  from the principal representation to its exit, where the mass at t* is
  maximal: that measure and s, polished by the same bordered system, plus
  the atom (t*, s w) in closed form are the canonical representation.

Every verdict comes down to where c sits relative to a face of the moment
cone, a measure without one degree of freedom.  :func:`_faces` lists a
measure's faces with their bare costs, for the tracker's exits and the
thinning; :func:`_exit_measure` builds a face's measure from them; and
:func:`_face_normal` gives the normal n of the one face a caller asks
about, whose margin is, to first order, c's distance from it: the
thinning reads it for a zero atom, the other atoms refitted, and the
separating certificate for an exit measure.

Each equation is solved relative to its own moment, and every returned
representation is checked once against c in the original system.  The
brute-force oracle takes no part; it stays an independent cross-check.
Each Newton solve and each path enters np.errstate once, around its whole
loop, and its linear solves call numpy's LAPACK gufuncs without
np.linalg's per-call wrappers (:func:`_lstsq`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ._lazy import NumpyOnFirstUse
from .core import NODE_MERGE_REL, Atom, MomentVector, Representation, index_of, moments_of, scaled_power
from .errors import (
    DomainError,
    NotInteriorError,
    NumericalFailureError,
    PinnedNodeCoincidenceError,
    UnsupportedSystemError,
    require_tolerance,
)

np = NumpyOnFirstUse(globals())

# Tolerance ladder: Newton step (near machine precision, so the iterate is
# parameter-converged, not just residual-converged) and acceptance of a
# representation.
NEWTON_TOL = 1e-13
ACCEPT_TOL = 1e-8

#: Iteration budget of one Newton polish.
MAX_ITER = 80

LAND_TOL = 0.1  # a loss below it starts the tracker's exit solves
# A failed step onto the path's end shows it singular: from then on no step
# covers more than 3/4 of the rest of the path, and the end is tried again
# only once the rest has shrunk this many times (about three such steps).
# Each try onto a singular end is a corrector run that fails; halving the
# rest after each, as the step control alone does, pays one per halving.
# Factors 16 to 128 cost the same within 1 %; steps of 7/8 of the rest
# start the corrector too far off and cost a fifth more.
ENDGAME_SHRINK = 64

#: Step lengths of the corrector's line search.
_HALVINGS = tuple(0.5 ** i for i in range(8))

#: Share of every other moment, as a fraction of tol, that an atom placed
#: near 0 or near infinity to carry one moment's excess may take.
FAR_KNOT_SHARE = 0.01


class ClassKind(Enum):
    ZERO = "zero"
    EXTERIOR = "exterior"
    BOUNDARY = "boundary"
    INTERIOR = "interior"


@dataclass(frozen=True)
class Certificate:
    """A separating polynomial p(t) = Σ λ_i t^k_i >= 0 on [0, inf) with λ·c < 0.

    ``coefficients`` are λ in c's own exponents, and ``margin`` is -λ·c /
    Σ|λ_i c_i|: every measure's moments m have λ·m >= 0, so none is within a
    relative ``margin`` of c in every moment.
    """
    coefficients: tuple[float, ...]
    margin: float


@dataclass(frozen=True)
class Classification:
    kind: ClassKind
    witness: Representation | None = None
    certificate: Certificate | None = None


def _log_scales(target):
    """Logarithms of the per-equation scales of a moment target.

    Each equation is solved relative to its own moment, however many decades
    apart: under a shared floor a wrong node fits the small moments of a wide
    range.  1e-300 only caps the row weight of a zero or subnormal moment.
    """
    return np.log(np.maximum(np.abs(target), 1e-300))


def _unpack(y):
    """Log zero mass (or None), log weights and log nodes of the variables y.

    y holds the zero atom's log mass if there is one, then the log weights
    and the log nodes of the positive atoms: a zero atom is an odd len(y).
    """
    z, p = len(y) % 2, len(y) // 2
    return (y[0] if z else None), y[z:z + p], y[z + p:]


def _relative(lw, lu, k, log_s):
    """Contributions of atoms (rows: exponents) relative to each equation's
    scale, exp(min(lw + k lu - log s, 300)), a (len(k), len(lw)) array in
    extended precision.

    Logarithms keep hundreds of decades finite; the cap at e^300 keeps squared
    Jacobian columns finite.  Extended precision, where the platform has it,
    keeps residual rounding from limiting close nodes to about 1e-6.
    """
    R = k[:, None] * np.asarray(lu, np.longdouble)
    R += lw
    R -= log_s[:, None]
    np.minimum(R, 300.0, out=R)
    return np.exp(R, out=R)


def _system(y, k, target, log_s, dc=None, rhs=None):
    """Scaled residual and Jacobian of the moment equations in log variables.

    With ``dc`` the last variable is a path offset σ and the target is
    target + σ dc: the bordered system of an exit.  ``rhs`` is the scaled
    target, target e^(-log s) in extended precision (:func:`_scaled_target`),
    for a caller that evaluates many y against one unbordered target.

    R holds :func:`_relative`'s contributions, formed in place.  A zero
    atom's column holds its log mass in the first row and -inf below it, so
    it feeds exponent 0 alone (_Problem shifts k_1 to 0).
    """
    n = len(y) - (dc is not None)
    z, p = n % 2, n // 2  # see _unpack
    y_ext = np.asarray(y[:n], np.longdouble)
    R = np.empty((len(k), z + p), np.longdouble)
    if z:
        R[:, 0] = -math.inf
        R[0, 0] = y_ext[0]
    np.multiply(k[:, None], y_ext[z + p:], out=R[:, z:])
    R[:, z:] += y_ext[z:z + p]
    R -= log_s[:, None]
    np.minimum(R, 300.0, out=R)
    np.exp(R, out=R)
    if rhs is None:
        rhs = _scaled_target(target if dc is None else target + y[-1] * dc, log_s)
    F = (R.sum(axis=1) - rhs).astype(float)
    # d/dlog w = contribution, d/dlog u = k * contribution, d/dσ = -dc.
    J = np.empty((len(k), len(y)))
    J[:, :z + p] = R
    np.multiply(k[:, None], J[:, z:z + p], out=J[:, z + p:n])
    if dc is not None:
        J[:, -1] = -dc * np.exp(-log_s)
    return F, J


def _scaled_target(target, log_s):
    """target e^(-log s), in extended precision: the constant term of F."""
    return target * np.exp(-log_s.astype(np.longdouble))


def _unit_columns(J):
    """J with unit-norm columns, and the norms: contributions span tens of
    decades, and a rank cutoff would drop what small atoms need."""
    norms = np.sqrt(np.add.reduce(J * J, axis=0))
    if np.count_nonzero(norms) < len(norms):
        norms[norms == 0] = 1.0
    return J / norms, norms


def _lstsq(scaled, rhs):
    """(x, max |x|) of the solve (square) or least squares in the columns of
    :func:`_unit_columns`; a singular solve, or one that overflows as the
    column scaling is undone, takes least squares.  Both are numpy's LAPACK
    gufuncs (gesv and gelsd) under np.linalg's solve and lstsq, called as
    those call them; the gesv one returns NaN for a singular system.  The
    caller holds np.errstate(over="ignore", invalid="ignore") for both.
    Raises :class:`NumericalFailureError` where least squares would meet a
    value beyond the float range (LAPACK's SVD does not converge on one)."""
    J, norms = scaled
    lapack = np.linalg._umath_linalg
    if J.shape[0] == J.shape[1]:
        x = lapack.solve1(J, rhs) / norms
        size = np.abs(x).max()
        if size < math.inf:  # neither NaN nor an overflow
            return x, size
    if not (np.isfinite(J).all() and np.isfinite(rhs).all()):
        raise NumericalFailureError("a linear solve meets a value beyond the float range")
    rcond = math.ulp(1.0) * max(J.shape)  # np.linalg.lstsq's default
    x = lapack.lstsq(J, rhs[:, None], rcond, signature="ddd->ddid")[0][:, 0] / norms
    return x, np.abs(x).max()


def _correct(y, k, target, tol, max_iter, dc=None, verdict=math.inf):
    """Gauss-Newton in log variables (and σ, with ``dc``): the best (y,
    residual, Jacobian at y).

    A step is halved until it lowers the residual or contracts, the next step
    from the same Jacobian at most 1 - alpha/2 of it: with weights over many
    decades a full step can raise the residual on its way to the root, and
    near the root rounding makes steps noisy.  Stops at ``tol``, ``max_iter``,
    steps < NEWTON_TOL, or an iteration that cannot gain: one that does not
    lower the best residual ends the solve unless it still converges as a
    full Newton step must (Deuflhard's contraction test), its step
    contracting to at most half toward a residual the linear model puts at
    most at half the best.  A vanishing weight, whose log mass falls a unit
    per iteration, passes; noise at the rounding floor and a least-squares
    minimum above the best do not.  A polish whose residual decides a verdict
    at ``verdict`` stops so only where the verdict is fixed: the best is
    within it, or the linear model itself misses it.
    """
    log_s = _log_scales(target)
    rhs = None if dc is not None else _scaled_target(target, log_s)
    with np.errstate(over="ignore", invalid="ignore"):  # see _lstsq
        F, J = _system(y, k, target, log_s, dc, rhs)
        res = float(np.abs(F).max())
        best = (y, res, J)
        for _ in range(max_iter):
            if best[1] <= tol:
                break
            scaled = _unit_columns(J)
            step, size = _lstsq(scaled, -F)
            if not size > NEWTON_TOL:
                break
            for alpha in _HALVINGS:
                trial = y + (alpha * step if alpha < 1.0 else step)
                Ft, Jt = _system(trial, k, target, log_s, dc, rhs)
                rt = float(np.abs(Ft).max())
                if rt < best[1]:
                    break
                theta = _lstsq(scaled, -Ft)[1] / size  # the contraction
                if rt < res or theta <= 1.0 - alpha / 2:
                    model = np.abs(F + J @ step).max()
                    if theta > 0.5 or model > 0.5 * best[1]:  # no gain, no converging step
                        if best[1] <= verdict or model > verdict:
                            return best
                    break
            else:
                break
            y, F, J, res = trial, Ft, Jt, rt
            if res < best[1]:
                best = (y, res, J)
    return best


def _faces(y, k, log_s):
    """The faces of the measure y, each y without one degree of freedom: the
    measure (atoms by node), the costs (largest relative moment change) of
    dropping the zero atom, of moving each positive atom to 0, of merging
    each adjacent pair at their weighted log mean and of moving the top atom
    to infinity (it then feeds the top moment only), the merged atoms, and
    the order that sorts y's positive atoms by node.  :func:`_exit_measure`
    builds a face's measure from them; :func:`_face_normal` gives the face's
    normal, for the one face a caller asks about.
    """
    lz, lw, lu = _unpack(y)
    order = np.argsort(lu)
    lw, lu = lw[order], lu[order]
    mw = np.logaddexp(lw[:-1], lw[1:])
    mu = lu[:-1] * np.exp(lw[:-1] - mw) + lu[1:] * np.exp(lw[1:] - mw)
    p = len(lu)
    # The atoms (columns :p) and the merged pairs in one evaluation.
    R = _relative(np.concatenate((lw, mw)), np.concatenate((lu, mu)), k, log_s)
    A = R[:, :p]
    costs = np.empty(len(R[0]) + 2)
    costs[0] = math.inf if lz is None else math.exp(min(lz - log_s[0], 300.0))
    costs[-1] = A[:-1, -1].max(initial=0.0) if p else math.inf
    merged = R[:, p:] - A[:, :-1]
    merged -= A[:, 1:]
    R[:, p:] = np.abs(merged, out=merged)
    A[0] = 0.0  # an atom moved to 0 keeps its share of c_0
    costs[1:-1] = R.max(axis=0, initial=0.0)
    return (lz, lw, lu), costs, (mw, mu), order


def _track(y, k, c_a, c_b, tol):
    """Follow the representation y of c_a along c_a + s (c_b - c_a): (s, y,
    polish), (1, y, True) at c_b, (s*, y, True) of the exit measure where
    the path leaves the cone, or the measure :func:`_end_measure` solves at
    c_b, whose ``polish`` says whether a polish against c_b may follow.

    Euler predictor, Newton corrector; the step doubles after a success and
    halves after a failure, and moves no log variable by more than one unit.
    A failed step is not tried again as it was: the step halves until the
    point it reaches moves.

    Exits: a loss of :func:`_faces` vanishes linearly at an exit, so its
    last two values predict s*; a loss is tried once it falls below LAND_TOL
    and again only after it has fallen tenfold since its last try.  Both
    solves below are :func:`_solve_face` of the exit measure without that
    loss, moved along the tangent; a miss tracks on.
    - A prediction nearer c_b than s, s* in [s + (1 - s)/2, 1 + (1 - s)], is
      c_b's own exit, solved against c_b (:func:`_end_measure`): a singular
      end would otherwise cost a step per log unit that a vanishing weight
      falls, while 1 - s shrinks about 0.85-fold, and near c_b a loss's last
      two values can put its exit just past c_b.  Each loss is solved for
      at c_b once; where that solve came early and missed, see below.
    - Other predictions within the path are landed: the face solve is
      bordered, for s* and the exit measure of c_a + s* (c_b - c_a).  Once
      a step onto c_b has failed, so are predictions up to 1 + (1 - s): a
      loss whose one solve at c_b came early and missed ends the path so.
      An exit within the corrector's resolution of c_b is c_b's own, or
      within ACCEPT_TOL if a far atom can carry c_b: such a prediction is
      not landed, nor is a landing there kept.
    - A loss below ACCEPT_TOL is the exit of last resort, without a solve.
    An atom moved to 0 whose weight vanishes along the tangent leaves the
    exit measure; kept as a zero atom, its log mass would fall a unit per
    iteration and the solve miss.  A step below NEWTON_TOL raises.

    A failed step onto c_b makes c_b a singular end point, on the cone's
    boundary, which the path closes in on as ENDGAME_SHRINK says.
    """
    dc = c_b - c_a
    # Degeneracy is measured against the larger end of the path: along a ray
    # a moment shrinks to 0 together with the atoms that feed it.
    log_ref = _log_scales(np.maximum(np.abs(c_a), np.abs(c_b)))
    s, h, s_prev = 0.0, 0.5, 0.0
    near = math.inf  # the rest of the path from which c_b may be tried again
    with np.errstate(over="ignore", invalid="ignore"):  # the tangents' solves: see _lstsq
        # Later tangents reuse the corrector's Jacobian at the accepted point.
        J = _system(y, k, c_a, _log_scales(c_a))[1]
        faces = _faces(y, k, log_ref)
        costs = prev = faces[1]
        level = np.full(len(costs), LAND_TOL)
        ended = np.zeros(len(costs), bool)
        while s < 1.0:
            if costs[:-1].min() < ACCEPT_TOL:
                return s, _exit_measure(faces, k, log_ref), True
            rates = dc * np.exp(-_log_scales(c_a + s * dc))  # relative change per unit s
            tangent, size = _lstsq(_unit_columns(J), rates)
            h = min(2.0 * h, 1.0 / max(float(size), 1e-300))
            fall = (costs < level) & (costs < prev)
            # A merge, or a move to 0 onto a zero atom, loses two degrees of freedom.
            fall[1 if costs[0] < math.inf else len(costs) // 2 + 1:-1] = False
            if fall.any():
                exits = np.full(len(costs), math.inf)
                exits[fall] = s + costs[fall] * (s - s_prev) / (prev[fall] - costs[fall])
                j = int(np.argmin(exits))
                top = j == len(costs) - 1
                if s + 0.5 * (1.0 - s) <= exits[j] <= 1.0 + (1.0 - s) and not ended[j]:
                    # Nearer c_b than s: c_b's own exit, solved for at c_b itself, and
                    # once: against the one c_b another solve meets the same floor.
                    level[j], ended[j] = 0.1 * costs[j], True
                    y_e = _exit_measure(_faces(y + (1.0 - s) * tangent, k, log_ref), k, log_ref, j, tangent)
                    if (end := _end_measure(y_e, k, c_b, top, tol)) is not None:
                        return end
                elif exits[j] <= (1.0 if near == math.inf else 1.0 + (1.0 - s)):
                    # An exit within the corrector's resolution of c_b is c_b's own, or
                    # within ACCEPT_TOL if a far atom can carry c_b: so is its prediction.
                    bar = ACCEPT_TOL if top else -1e-2 * ACCEPT_TOL
                    rate = np.abs(rates).max()
                    if not top or (1.0 - exits[j]) * rate > bar:
                        level[j] = 0.1 * costs[j]
                        y_e = _exit_measure(_faces(y + (exits[j] - s) * tangent, k, log_ref),
                                            k, log_ref, j, tangent)
                        z, _ = _solve_face(np.append(y_e, exits[j] - s), k, c_a + s * dc, top, dc)
                        if z is not None and z[-1] >= 0.0 and (1.0 - s - z[-1]) * rate > bar:
                            return s + z[-1], z[:-1], True
            s_prev, prev = s, costs
            tried = None  # the last s_new whose corrector failed
            while True:
                if h < NEWTON_TOL:
                    raise NumericalFailureError(f"the path's step underflows at s = {s!r}")
                s_new = min(s + h, 1.0 if 1.0 - s <= near else 1.0 - 0.25 * (1.0 - s))
                if s_new != tried:
                    # Two decades below the degeneracy level, so that every atom
                    # still in the structure is resolved.
                    y_new, res, J_new = _correct(y + (s_new - s) * tangent, k,
                                                 c_a + s_new * dc, 1e-2 * ACCEPT_TOL, 4)
                    if res <= 1e-2 * ACCEPT_TOL:
                        break
                    if s_new == 1.0:
                        near = (1.0 - s) / ENDGAME_SHRINK
                    tried = s_new
                h *= 0.5
            s, y, J = s_new, y_new, J_new
            faces = _faces(y, k, log_ref)
            costs = faces[1]
    return s, y, True


def _solve_face(y, k, target, top, dc=None):
    """(z, short) of the exit measure y solved in MAX_ITER Newton iterations
    against ``target`` or, with ``dc``, bordered by the path offset σ (y's
    last variable) against target + σ dc (Allgower & Georg); z is None where
    it misses by more than 1e-2 ACCEPT_TOL.  Where the top atom moved to
    infinity (``top``), the lower moments are solved for, and the top one,
    read once they have landed, may fall short (by ``short``, relative to
    it) but never exceed.
    """
    n = len(k) - top
    z, res, _ = _correct(y, k[:n], target[:n], 1e-2 * ACCEPT_TOL, MAX_ITER,
                         None if dc is None else dc[:n])
    if res > 1e-2 * ACCEPT_TOL:
        return None, 0.0
    short = -_system(z, k, target, _log_scales(target), dc)[0][-1] if top else 0.0
    return (None if short < -1e-2 * ACCEPT_TOL else z), short


def _end_measure(y, k, c_b, top, tol):
    """(1, y, polish) of the exit measure y solved against c_b itself
    (:func:`_solve_face`), else None.  What the top moment lacks beyond 1e-2
    ACCEPT_TOL :func:`_far_atom` carries, unpolished (``polish`` False): a
    polish would push that atom out until its weight underflows."""
    z, short = _solve_face(y, k, c_b, top)
    if z is not None and short > 1e-2 * ACCEPT_TOL:
        far = _far_atom(z, k, c_b, math.log(short) + _log_scales(c_b)[-1], tol)
        return None if far is None else (1.0, far, False)
    return None if z is None else (1.0, z, True)


def _far_atom(y, k, c, log_e, tol):
    """y plus an atom carrying e^log_e of c's top moment at
    :func:`log_far_node`'s node for ``tol``; None where that misses c by
    more than tol, or puts two nodes within NODE_MERGE_REL of the largest,
    which a :class:`Representation` does not hold.
    """
    lu_f = log_far_node(log_e, c[:-1], k[:-1] - k[-1], tol)
    lz, lw, lu = _unpack(y)
    zero = [] if lz is None else [lz]
    y = np.concatenate([zero, lw, [log_e - k[-1] * lu_f], lu, [lu_f]])
    nodes = np.concatenate([[0.0] * len(zero), np.exp(np.sort(lu) - lu_f), [1.0]])
    if (np.diff(nodes).min() <= NODE_MERGE_REL
            or np.abs(_system(y, k, c, _log_scales(c))[0]).max() > tol):
        return None
    return y


class _Problem:
    """A moment vector in the exponents k - k_1, nodes divided by 2^m.

    2^m sits mid moment-ratio range, so node logarithms stay small and a
    prescribed root scales exactly, clamped into the window of m that keeps
    every nonzero moment with k_i > 0 normal.  Weights become w u^{k_1}; an
    atom at 0 then has no counterpart in the original system unless k_1 = 0.
    Raises :class:`NumericalFailureError` where that window is empty.
    """

    def __init__(self, c: MomentVector):
        self.c = c
        ks, vals = c.exponents.exponents, c.values
        self.shift = ks[0]
        k = [e - ks[0] for e in ks]
        # At most a few numbers each: plain floats cost less than arrays.
        ratios = [(math.log(b) - math.log(a)) / (kb - ka)
                  for a, b, ka, kb in zip(vals, vals[1:], k, k[1:]) if a > 0 and b > 0]
        mid = (min(ratios) + max(ratios)) / 2 if ratios else 0.0
        # 2^(log2|c_i| - m k_i) stays within [2^-1021, 2^1023] for m in [lo, hi].
        lo, hi = -math.inf, math.inf
        for v, ki in zip(vals, k):
            if v != 0 and ki > 0:
                log2 = math.log2(abs(v))
                lo = max(lo, math.ceil((log2 - 1023) / ki))
                hi = min(hi, math.floor((log2 + 1021) / ki))
        if lo > hi:
            raise NumericalFailureError("a moment leaves the float range as the nodes are scaled")
        self.m = int(min(max(round(mid / math.log(2.0)), lo), hi))
        self.k = np.array(k, dtype=float)
        self.scale = np.array([-self.m * ki for ki in k])  # c_i's binary exponent shift
        self.values = np.ldexp(np.array(vals), self.scale)

    def nodes(self, lu):
        """Log scaled nodes back to nodes."""
        return np.ldexp(np.exp(lu), self.m)

    def representation(self, y) -> Representation | None:
        """The measure of y in the original system, or None.

        A zero atom of y is kept at 0: without exponent 0 :func:`_witness`
        moves it to a node near 0 before it gets here (a canonical ray's
        exit has none there: d is odd).  Callers check the rest.
        """
        lz, lw, lu = _unpack(y)
        with np.errstate(over="ignore", under="ignore"):
            nodes = list(self.nodes(lu))
            weights = list(np.exp(lw - self.shift * (lu + self.m * math.log(2.0))))
            if lz is not None:
                nodes, weights = [0.0] + nodes, [np.exp(lz)] + weights
        if any(u <= 0 for u in nodes[len(nodes) - len(lw):]):
            return None
        try:
            return Representation(tuple(Atom(float(u), float(w)) for u, w in zip(nodes, weights)))
        except DomainError:
            return None

    def start(self, init_seed: int):
        """Start measure of the principal path and its moments: (y, c_a).

        Nodes spread geometrically over the moment-ratio range (each ratio
        (c_{i+1}/c_i)^(1/(k_{i+1}-k_i)) of one atom at t is t; a zero atom
        spoils the first), jittered within their spacing by ``init_seed``;
        each atom carries a share of the largest mass its node can carry.
        An odd d gets a zero atom, so y has d entries (see :func:`_unpack`).
        The moments are summed in extended precision like :func:`_system`'s
        rows, but without :func:`_relative`'s cap, which a start's mass can
        exceed.
        """
        k, c = self.k, self.values
        p, has_zero = len(k) // 2, len(k) % 2
        ratios = (np.diff(np.log(c)) / np.diff(k))[has_zero:]
        lo, hi = (ratios.min(), ratios.max()) if len(ratios) else (0.0, 0.0)
        spacing = (hi - lo + 2.0) / (p + 1)
        lu = lo - 1.0 + spacing * np.arange(1, p + 1)
        if init_seed:
            lu = lu + np.random.default_rng(init_seed).uniform(-0.4, 0.4, p) * spacing
        lw = _log_max_mass(c, k, lu) - math.log(p + has_zero)
        lz = [math.log(c[0] / (p + 1))] if has_zero else []
        R = np.zeros((len(k), has_zero + p), np.longdouble)
        R[0, :has_zero] = np.exp(np.asarray(lz, np.longdouble))
        R[:, has_zero:] = np.exp(lw.astype(np.longdouble) + np.outer(k, lu.astype(np.longdouble)))
        return np.concatenate([lz, lw, lu]), R.sum(axis=1).astype(float)


def _log_max_mass(c, k, lu):
    """Log of min_i c_i / u^k_i, the largest mass an atom at u can take from c."""
    return np.min(np.log(c)[:, None] - np.outer(k, np.atleast_1d(lu)), axis=0)


def _exit_measure(faces, k, log_s, drop=None, dy=None):
    """The measure without its degenerate atoms, built from the caller's
    :func:`_faces` of it.

    Takes every loss below ACCEPT_TOL but the top atom's to infinity, and the
    loss ``drop`` (an index into the costs); drops a zero atom left below
    ACCEPT_TOL.  An atom moved to infinity leaves the measure.

    An atom moved to 0 joins the zero atom, unless the path's direction
    ``dy`` shows its weight vanishing: then it leaves the measure.  Near the
    exit its loss, led by w u^k_1, vanishes like s* - s; if the weight's log
    carries the part a of that rate, w ~ (s* - s)^a, and only a = 0, a node
    running to 0 with its mass, leaves mass at 0.  The weight is taken to
    vanish for a > 1/2, midway between that and a weight vanishing at a fixed
    node (a = 1): d log w < min(0, k_1 d log u).
    """
    (lz, lw, lu), costs, (mw, mu), order = faces
    taken = np.append(costs[:-1] < ACCEPT_TOL, False) | (np.arange(len(costs)) == drop)
    p = len(lw)
    moved, merged = taken[1:p + 1], taken[p + 1:-1]
    joins = moved  # the moved atoms whose mass joins the zero atom
    if dy is not None and moved.any():
        _, dlw, dlu = _unpack(dy)
        joins = moved & ~(dlw[order] < np.minimum(0.0, k[1] * dlu[order]))
    zero = ([] if lz is None or taken[0] else [lz]) + list(lw[joins])
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
    return np.array(y if lz is None else [lz] + y)


def _face_normal(J):
    """(n, σ): the left null vector n of a face measure's Jacobian J
    (:func:`_system`, d rows, d - 1 columns) in unit columns
    (:func:`_unit_columns`), and its smallest singular value σ.

    n^T J = 0 makes n·m = 0 for the scaled moments m of every measure on the
    face's atoms, so n·(c - m) = Σn for c's scaled moments, all 1: to first
    order -Σn / Σ|n| is c's signed distance from the face, relative to each
    moment (Hölder: the 1-norm is dual to the max norm).  Where the face's
    atoms plus one of scaled moments r reproduce c, n·(c - m) = n·r: for a
    zero atom, r = (ζ, 0, ...), the margin is ζ |n_0| / Σ|n|.  A face of
    d - 2 variables gets one unit column more from its caller.
    """
    U, sv, _ = np.linalg.svd(_unit_columns(J)[0])
    return U[:, -1], sv[-1]


def _log_expm1(x):
    """log(e^x - 1) for x > 0, finite however large x is."""
    return x + math.log(-math.expm1(-x))


def _log1p_exp(x):
    """log(1 + e^x), finite however large x is."""
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def _family_measure(k, c, tol):
    """(s, y, polish) of the principal path for d = 2 to 5 (k_0 = 0) without
    one, or None where it must be tracked.

    An odd d is a zero atom plus the measure of the top system (exponents
    k_1..k_d shifted to start at 0, moments c_1..c_d): a zero atom feeds c_0
    alone, so the positive atoms match the top d - 1 moments, and the least
    c_0 among such measures is the top system's lower representation
    (Markov-Krein; Krein & Nudelman 1977, Ch. III-IV).  With its weights
    shifted back, w = w' u^(-k_1), its mass μ_0 leaves c_0 the share ζ = 1 -
    μ_0/c_0.  A principal top with ζ > 0 plus the zero atom c_0 ζ is the
    principal measure (s = 1); anything else is the thin measure, the top
    measure with the zero atom only where ζ > tol, for the polish against c
    to settle.  The rule recurses down to a positive pair, one atom in
    closed form: for d = 3 the top is the one atom (w_τ, u_τ) through c_a
    and c_b (ζ >= 0 is Lyapunov's inequality), for d = 5 the d = 4 measure
    below.  Where that search raises, or returns a zero atom or a far atom,
    the top system lies within tol of its own boundary, where a zero atom of
    c would merge into the top's lowest atom (not done here): such a d = 5
    takes the path (None).  A zero atom within tol of its face, the
    positive atoms refitted, is the thinning's to drop, as on the path
    (:func:`_principal_path`).

    For (0, a, b, e), the two-atom measures matching c_0..c_b form one
    family along which c_e rises from L = w_τ u_τ^e, its limit at the zero
    atom of (0, a, b), to infinity (Markov-Krein): c_e <= L (1 + tol) is
    outside or on the boundary (the thin measure), and otherwise one
    safeguarded Newton search over the family (Deuflhard 2004) finds the
    principal measure.  Its parameter ρ sets the lower node, and the node
    gap x solves h(x) = log R(ρ), h(x) = log(expm1(b x) / expm1(a x)), by
    Newton's method from the tangent's prediction x + (dx/dρ) Δρ, dx/dρ = (d
    log R/dρ) / h'(x), inside the bracket R's bounds give.  h is convex with
    h' >= (b - a)/2 and h'' <= (b^2 - a^2)/12, so a step s leaves x within
    (a + b) s^2 / 12 of the root: a step that brings this below an ulp of x
    is the last.  The excess f(ρ) = log c_e(ρ) - log c_e falls from +inf to
    -δ, δ = log(c_e / L), and ρ takes Newton steps on log(1 + f/δ), linear
    in ρ where c_e(ρ) - L falls like e^-ρ (on f itself Newton's method would
    crawl there a unit of ρ per step), from the root of the family's
    far-atom asymptote; a step that would leave the bracket the signs of f
    give bisects it, or, one-sided, moves on by twice (at least 1) its
    distance from the start.  The search stops at f's rounding floor, |f|
    within an ulp of the sum of its terms' magnitudes, or at a bracket of
    adjacent floats.  MAX_ITER bounds both loops: the node gap's bracket, at
    most log(b/a)/(b-a) <= 1 wide, halves below an ulp of any x >= 2^-27
    (nodes closer than NODE_MERGE_REL) within it, and a search that runs out
    of it raises :class:`NumericalFailureError`.  A 3-vector within tol of
    one atom, below c_e, gets the atom plus :func:`_far_atom` for c_e's
    excess, as the tracker's solve at c does, without a polish (``polish``
    False), or the path where that misses c.
    Everything is in logs of the scaled system, where every c_i is positive;
    s is 1.0 for the principal measure and 0.0 for a thin one.
    """
    lc = [math.log(v) for v in c]
    if len(k) == 2:  # the one atom of a positive pair, principal
        return 1.0, np.array([lc[0], (lc[1] - lc[0]) / k[1]]), True
    if len(k) % 2:
        try:
            top = _family_measure(k[1:] - k[1], c[1:], tol)
        except NumericalFailureError:
            return None
        if top is None or len(top[1]) % 2 or not top[2]:
            return None
        s, y, _ = top
        p = len(y) // 2
        lw, lu = y[:p] - k[1] * y[p:], y[p:]
        zeta = -math.expm1(min(np.logaddexp.reduce(lw) - lc[0], 700.0))
        zero = [lc[0] + math.log(zeta)] if zeta > (0.0 if s == 1.0 else tol) else []
        return (1.0 if s == 1.0 and zeta > 0 else 0.0), np.concatenate([zero, lw, lu]), True
    a, b = float(k[1]), float(k[2])
    lu_t = (lc[2] - lc[1]) / (b - a)
    lw_t = lc[1] - a * lu_t
    zeta = -math.expm1(min(lw_t - lc[0], 700.0))  # far below -tol once capped
    atom = [lw_t, lu_t]
    e = float(k[3])
    log_L = lw_t + e * lu_t
    if zeta < -tol:
        return 0.0, np.array(atom), True
    if lc[3] <= log_L + math.log1p(tol):
        return 0.0, np.array(([lc[0] + math.log(zeta)] if zeta > tol else []) + atom), True
    # The family by ρ = log α, α = c_a / (c_0 u_1^a) - 1 of the lower node u_1:
    # ρ -> inf is the zero atom's end (c_e -> L), ρ -> -inf the far atom's.
    # With x = log(u_2/u_1), the weight share of u_2 is α / expm1(a x), and
    # expm1(b x) / expm1(a x) = R = β / α, β = c_b / (c_0 u_1^b) - 1.
    A = lc[1] - lc[0]
    gamma = lc[2] - lc[0] - b / a * A  # log(1 + β) at α = 0: ζ > 0 but for rounding
    if zeta <= tol or gamma <= 0:
        y = _far_atom(np.array(atom), k, c, lc[3] + math.log(-math.expm1(log_L - lc[3])), tol)
        return None if y is None else (1.0, y, False)
    delta = lc[3] - log_L  # δ = log(c_e / L): the excess falls to -δ as ρ -> inf
    # ρ starts where the far atom's asymptote meets c_e: as α -> 0, u_1^a ->
    # c_a / c_0, x -> (log β - ρ) / (b - a), and log(c_e(ρ) / (c_0 u_1^e)) =
    # log(1 + e^s), s = ρ + log(expm1(e x) / expm1(a x)) -> ρ + (e - a) x.
    kappa = max(lc[3] - lc[0] - e / a * A, delta)  # log(c_e / (c_0 u_1^e)) at α = 0
    rho = start = ((e - a) * _log_expm1(gamma) - (b - a) * _log_expm1(kappa)) / (e - b)
    x, lo, hi, eps = math.inf, -math.inf, math.inf, math.ulp(1.0)
    expm1, log, gap, slope = math.expm1, math.log, b - a, (b - a) / 2
    for _ in range(MAX_ITER):
        t = _log1p_exp(rho)  # log(1 + α)
        sig = math.exp(rho - t)  # dt/dρ
        G = gamma + b / a * t  # log(1 + β)
        em = -expm1(-G)
        log_r = G + log(em) - rho
        # expm1(b x) / expm1(a x) lies between e^((b-a) x) and (b/a) e^((b-a) x).
        x_lo = max((log_r - log(b / a)) / gap, 1e-300)
        x_hi = max(log_r / gap, x_lo)
        x = min(max(x, x_lo), x_hi)
        for _ in range(MAX_ITER):
            eb, ea = -expm1(-b * x), -expm1(-a * x)
            g = gap * x + log(eb / ea) - log_r  # h(x) - log R
            h1 = b / eb - a / ea  # h'(x), at least (b - a) / 2 but for rounding
            h1 = h1 if h1 > slope else slope
            step = g / h1
            if (a + b) * step * step <= 12 * eps * x:
                x -= step
                break
            if g > 0:
                x_hi = x
            else:
                x_lo = x
            x -= step
            if not x_lo <= x <= x_hi:
                x = (x_lo + x_hi) / 2
        ea, ee = -expm1(-a * x), -expm1(-e * x)
        s = rho + (e - a) * x + log(ee / ea)  # log of α expm1(e x) / expm1(a x)
        ts = _log1p_exp(s)
        f = e / a * (A - t) + ts + lc[0] - lc[3]  # log c_e(ρ) - log c_e, falling in ρ
        dx = (b / a * sig / em - 1.0) / h1  # dx/dρ
        df = math.exp(s - ts) * (1.0 + (e / ee - a / ea) * dx) - e / a * sig
        if abs(f) <= eps * (e / a * (abs(A) + t) + abs(rho) + abs(s - rho) + abs(lc[0]) + abs(lc[3])):
            break
        lo, hi = (rho, hi) if f > 0 else (lo, rho)
        new = rho - math.log1p(f / delta) * (f + delta) / df if df < 0 and f > -delta else math.nan
        if not lo < new < hi:
            new = (lo + hi) / 2 if hi - lo < math.inf else rho + math.copysign(max(2 * abs(rho - start), 1.0), f)
            if not lo < new < hi:
                break
        x += dx * (new - rho)
        rho = new
    else:
        raise NumericalFailureError("the two-atom family does not reach c's top moment")
    lu_1 = (A - t) / a
    lp_2 = rho - a * x - log(ea)  # the share of u_2, below 1 but for rounding
    lw = [lc[0] + log(-expm1(min(lp_2, -1e-300))), lc[0] + lp_2]
    return 1.0, np.array(lw + [lu_1, lu_1 + x]), True


def _separation(y, k, c, log_c, tol):
    """μ, λ_i c_i of a polynomial p(t) = Σ λ_i t^k_i >= 0 on [0, inf) that the
    exit measure y supports, if λ·c < 0 shows that no measure reproduces c
    within ``tol``; else None.  Tried only where y itself misses c by more.

    μ is y's face normal (:func:`_face_normal`), the left null vector of
    its scaled Jacobian J (:func:`_system`): μ^T J = 0 puts a double root
    of p at every node, p(u_j) = u_j p'(u_j) = 0, and a zero atom puts a
    root at 0, λ_0 = 0.  With d - 1 variables μ is unique; with d - 2, one
    unit column more picks it: an atom at infinity (λ_top = 0) or a zero
    atom of no mass (λ_0 = 0), tried in that order.
    Either way the roots use up every sign change that Descartes' rule of
    signs allows the free coefficients, so p keeps one sign on [0, inf), and
    its lowest and highest free coefficients, which it needs for that many
    sign changes, carry that sign.  μ is signed so that they are positive,
    and p is checked nonnegative between and beyond its roots as well.  A
    measure's moments m then have λ·m = ∫p >= 0, and ones within tol of c in
    every moment have λ·c >= -tol Σ|μ|: the face normal's margin -Σμ/Σ|μ|
    above tol shows c exterior.

    Rounding: J's entries are rounded to float and its columns scaled to
    unit norm, each to a few ulps, and the SVD is backward stable, so μ is
    the null vector of some J + E with ||E||_2 of order d eps ||J||_2 <= d^1.5
    eps.  It then lies within √2 ||E||_2 / σ of the exact μ* (Wedin), σ the
    smallest singular value of J, and so within δ = 2 d^2 eps / σ in 1-norm:
    each coefficient, Σμ and Σ|μ| are within δ of μ*'s.  So both end
    coefficients must exceed δ, which gives μ* their signs, and -Σμ > tol
    Σ|μ| + (1 + tol) δ, which then holds for μ*.  A σ that rounding can zero
    (nodes that merge, a vanishing weight) gives no certificate, and no more
    does a J at :func:`_relative`'s cap, which is not y's Jacobian.
    """
    d, n = len(k), len(y)
    F, J = _system(y, k, c, log_c)
    if not (d - 2 <= n < d and np.abs(F).max() > tol):
        return None
    lz, lw, lu = _unpack(y)
    u, p = sorted(lu.tolist()), len(lu)
    between = [u[0] - 1.0] + [(a + b) / 2 for a, b in zip(u, u[1:])] + [u[-1] + 1.0] if p else [0.0]
    L = np.outer(k, lu.tolist() + between) - log_c[:, None]
    if (L[:, :p] + lw).max(initial=-math.inf) >= 300.0:
        return None
    L = L[:, p:]
    X = np.exp(L - L.max(axis=0))  # t^k_i / c_i at each check point, up to a factor
    slack = 2.0 * d * d * math.ulp(1.0)  # δ σ
    for row in [None] if n == d - 1 else [d - 1] if lz is not None else [d - 1, 0]:
        mu, sv = _face_normal(J if row is None else np.column_stack([J, np.eye(d)[row]]))
        zeros = ([0] if lz is not None else []) + ([] if row is None else [row])
        mu[zeros] = 0.0  # as in the exact μ*
        low, lead = (1 if 0 in zeros else 0), (d - 2 if d - 1 in zeros else d - 1)
        if mu[lead] < 0:
            mu = -mu
        if (sv * min(mu[low], mu[lead]) > slack and (mu @ X).min() >= 0.0
                and sv * (-mu.sum() - tol * np.abs(mu).sum()) > (1.0 + tol) * slack):
            return mu
    return None


def _lyapunov(k, c, tol):
    """λ of the first consecutive exponents a < b < e of k whose moments
    break Lyapunov's inequality c_b^(e-a) <= c_a^(e-b) c_e^(b-a) by more
    than ``tol``, zero but at those three; else None.  A negative end counts
    as a zero one: with a negative moment this runs only for tol >= 1, which
    no margin, at most 1, exceeds.

    p(t) = t^a (λ_a + λ_b t^(b-a) + λ_e t^(e-a)) with λ_a u^a : λ_b u^b :
    λ_e u^e = (e-b) : -(e-a) : (b-a) has a double root at u and two sign
    changes, so p >= 0 on [0, inf) (see :func:`_separation`).  Scaled to
    λ_b c_b = -(e-a), λ_i = (e-b) u^(b-a) / c_b, -(e-a) / c_b, (b-a)
    u^(b-e) / c_b, and μ_i = λ_i c_i = ((e-b) ρ_a, -(e-a), (b-a) ρ_e), ρ_i =
    (c_i u^-i) / (c_b u^-b) the mass an atom at u needs for c_i over the one
    it needs for c_b; the margin is -Σμ/Σ|μ|.  u is chosen by which moments
    are positive, c_b being so (c_b = 0 keeps the inequality):

    - c_e > 0: the atom (u, w) through c_b and c_e, ρ_e = 1.  It needs the
      mass W = c_a u^-a for c_a, and W < w breaks the inequality: with r =
      ρ_a = W/w the margin is (e-b)(1-r) / ((e-b) r + e+b-2a).  That atom is
      the exit measure of the three moments.  A zero c_a is r = 0, margin
      (e-b) / (e+b-2a).
    - c_e = 0 < c_a, which breaks the inequality: the atom through c_a and
      c_b, ρ_a = 1, ρ_e = 0, so the margin is (b-a) / (2e-a-b).  μ_e = 0
      leaves λ_e to p, which needs it for its double root.
    - c_a = c_e = 0: u = 1, margin 1.

    So (1, 1, 0) on (0, 1, 2) gets p(t) = (1 - t)^2, margin 1/3.  A zero
    between positive moments, (1, 0, 1) on (0, 1, 2), keeps the inequality:
    it is the limit of 1 at 0 plus ε^2 at 1/ε, and nothing separates it.  A
    λ beyond the float range gives none.

    Rounding: log r = log c_a - log c_b + q (log c_e - log c_b), q = (b-a) /
    (e-b), is within about 2.5 (1+q) eps L of its exact value, L the largest
    |log c| of the three (each log to an ulp, four roundings more), and the
    margin moves by at most half as much: its derivative in log r is at most
    1/2 in size.  The test is margin > tol + 2 (1+q) eps max(L, 1); the
    margins of a zero end are exact but for a rounding or two.
    """
    ks, vals = k.tolist(), c.tolist()
    lc = [math.log(v) if v > 0 else -math.inf for v in vals]
    for j in range(len(ks) - 2):
        if vals[j + 1] <= 0:
            continue
        a, b, e = ks[j:j + 3]
        q = (b - a) / (e - b)
        if vals[j + 2] > 0:
            log_r = lc[j] - lc[j + 1] + q * (lc[j + 2] - lc[j + 1])
            if log_r >= 0.0:
                continue
            r = math.exp(log_r)
            margin = (e - b) * (1.0 - r) / ((e - b) * r + (e + b - 2.0 * a))
            lu = (lc[j + 2] - lc[j + 1]) / (e - b)
        elif vals[j] > 0:
            margin, lu = (b - a) / (2.0 * e - a - b), (lc[j + 1] - lc[j]) / (b - a)
        else:
            margin, lu = 1.0, 0.0
        if margin <= tol:
            continue
        L = max(1.0, abs(lc[j + 1]), abs(lc[j]) if vals[j] > 0 else 0.0,
                abs(lc[j + 2]) if vals[j + 2] > 0 else 0.0)
        log_a, log_b, log_e = (b - a) * lu - lc[j + 1], -lc[j + 1], (b - e) * lu - lc[j + 1]
        if margin > tol + 2.0 * (1.0 + q) * math.ulp(1.0) * L and max(log_a, log_b, log_e) < 709.0:
            lam = np.zeros(len(ks))
            lam[j:j + 3] = ((e - b) * math.exp(log_a), (a - e) * math.exp(log_b),
                            (b - a) * math.exp(log_e))
            return lam
    return None


def _certificate(prob: _Problem, lam) -> Certificate:
    """The :class:`Certificate` of λ in the scaled system (:class:`_Problem`):
    in c's own exponents λ_i 2^(-m k_i), exactly, and μ_i = λ_i c_i give the
    margin."""
    mu = lam * prob.values
    return Certificate(tuple(np.ldexp(lam, prob.scale).tolist()),
                       float(-mu.sum() / np.abs(mu).sum()))


def _principal_path(prob: _Problem, tol: float, init_seed: int = 0):
    """y of the principal representation, the square system len(y) == d, if
    the path reaches c, else of the polished exit measure if it reproduces c
    within ``tol``; else None.  An empty y (every atom dropped) is a measure.
    d <= 5 takes no path: :func:`_family_measure` takes its place, but for
    the d = 4 and 5 it hands on (a d = 5 whose top four moments lie within
    tol of their own boundary).

    Both give (s, y, polish).  At s = 1 (c reached, or an exit measure that
    :func:`_track` solved at c itself) y is polished against c unless
    ``polish`` is False: a far atom carrying the top moment's excess, which
    a polish would push out until its weight underflows.  It must reproduce
    c within tol, and it is thinned where a loss costs less: its bare cost
    (:func:`_faces`), but for a square measure's zero atom its face's
    margin, the other atoms refitted (:func:`_face_normal`), which its bare
    share of c_0 can exceed by orders.  An exit before c (s < 1) is polished
    against c and thinned after.

    Where a separating polynomial shows c more than tol outside the cone, the
    :class:`Certificate` is returned in place of y: before any solve, from a
    negative moment c_i (p(t) = t^k_i, margin 1, so for tol < 1), before any
    path, from three consecutive moments that break Lyapunov's inequality,
    a zero at either end included (:func:`_lyapunov`), and at an exit (s <
    1) whose measure, of d - 1 or d - 2 variables, misses c by more than
    tol, from that measure (:func:`_separation`).  No polish could reproduce
    such a c.  Smaller exit measures, and separations within the band, are
    polished as before."""
    k, c = prob.k, prob.values
    log_c = _log_scales(c)
    low = c.min()
    if low < 0 and 1.0 > tol:  # p(t) = t^k_i, margin 1
        first = int(np.argmax(c < 0))
        return Certificate(tuple(float(i == first) for i in range(len(c))), 1.0)
    if (lam := _lyapunov(k, c, tol)) is not None:
        return _certificate(prob, lam)
    if low <= 0:
        # An atom at a positive node feeds every moment: only a zero atom fits.
        y = np.log([max(c[0], 1e-300)])
        res = float(np.abs(_system(y, k, c, log_c)[0]).max())
        return y if res <= tol else None
    family = _family_measure(k, c, tol) if 3 <= len(k) <= 5 else None
    if family is None:
        y, c_a = prob.start(init_seed)
        family = _track(y, k, c_a, c, tol)
    s, found, polish = family
    if s == 1.0:
        y, res, J = _correct(found, k, c, 0.0, MAX_ITER if polish else 0, None, tol)
        if res > tol:
            raise NumericalFailureError(f"the path misses c by {res:.3e}", residual=res)
        faces = _faces(y, k, log_c)
        costs = faces[1][:-1]
        if len(y) == len(k) > 1 and len(y) % 2:  # the zero atom's face, the rest refitted
            n = _face_normal(J[:, 1:])[0]
            costs = np.append(abs(n @ J[:, 0]) / np.abs(n).sum(), costs[1:])
        if costs.min() >= tol:
            return y
        # Within tol of a thinner measure, the cheapest loss is the lost freedom.
        found = _exit_measure(faces, k, log_c, int(np.argmin(costs)))
    # An exit can lose several degrees of freedom at once; the polish drives
    # out the rest, and they are taken after it.
    if len(found):
        if s < 1.0 and (mu := _separation(found, k, c, log_c, tol)) is not None:
            return _certificate(prob, mu / c)
        y_thin, res, _ = _correct(found, k, c, 0.0, MAX_ITER, None, tol)
        if res <= tol:
            return _exit_measure(_faces(y_thin, k, log_c), k, log_c)
    # A near-degenerate principal representation whose thinning misses c.
    return y if s == 1.0 else None


def _mismatch(rep: Representation, c: MomentVector) -> float:
    """Largest mismatch of rep's moments with c's, each relative to itself (a
    zero or subnormal one to 1e-300); inf where one leaves the float range."""
    try:
        back = moments_of(rep, c.exponents).values
    except DomainError:
        return math.inf
    return max(abs(b - v) / max(abs(v), 1e-300) for b, v in zip(back, c.values))


def _witness(prob: _Problem, y, tol: float) -> Representation | None:
    """The measure of the variables y (or None) if it reproduces c within tol.

    Without exponent 0 a zero atom of y is mass escaping to 0 in the original
    system: it becomes an atom of the same mass at the node where its share
    of every other moment is FAR_KNOT_SHARE * tol, for every d and every
    measure; this is the one place that rule lives.  No such node exists
    where a moment above the first is 0.  The one check of a returned measure
    is :func:`_mismatch` against c.  Raises :class:`NumericalFailureError`
    when y reproduces c in the solver's system but its measure in floats does
    not: a node or weight beyond the float range, or a weight too far below
    it to keep its digits.  Such a c is neither exterior nor boundary.
    """
    if y is None:
        return None
    if len(y) % 2 and prob.shift:
        if np.any(prob.values[1:] <= 0):
            return None
        lz, lw, lu = _unpack(y)
        y = np.concatenate([[lz], lw, [log_far_node(lz, prob.values[1:], prob.k[1:], tol)], lu])
    rep = prob.representation(y)
    if rep is not None and _mismatch(rep, prob.c) <= tol:
        return rep
    if len(y) and np.abs(_system(y, prob.k, prob.values, _log_scales(prob.values))[0]).max() <= tol:
        raise NumericalFailureError("the measure reproduces c, but not in floating point")
    return None


def _pair_atom(c: MomentVector, tol: float) -> Representation | None:
    """The one atom attaining a positive pair c, or None if c is no such pair.

    In logs, log u = (log c_b - log c_a)/(k_b - k_a) and log w = log c_a -
    k_a log u, so no power leaves the float range on the way.  Raises
    :class:`NumericalFailureError` when the atom is beyond the float range,
    or does not reproduce c within ``tol``: such a c is not exterior.
    """
    if c.d != 2 or min(c.values) <= 0:
        return None
    (ka, kb), (ca, cb) = c.exponents.exponents, c.values
    log_u = (math.log(cb) - math.log(ca)) / (kb - ka)
    try:
        rep = Representation((Atom(math.exp(log_u), math.exp(math.log(ca) - ka * log_u)),))
    except (OverflowError, DomainError) as exc:
        raise NumericalFailureError("the one atom of c is beyond the float range") from exc
    res = _mismatch(rep, c)
    if not res <= tol:
        raise NumericalFailureError("the one atom of c does not reproduce it in floating point",
                                    residual=res)
    return rep


def log_far_node(log_mass: float, values, exponents, tol: float) -> float:
    """Log node u of an atom of log mass l whose share e^l u^q_i of each c_i
    (``values``; ``exponents`` q_i, of one sign) is FAR_KNOT_SHARE * tol of c_i
    at most: mass escaping to 0 for q_i > 0, to infinity for q_i < 0."""
    bounds = [(math.log(FAR_KNOT_SHARE * tol) + math.log(ci) - log_mass) / qi
              for ci, qi in zip(values, exponents)]
    return (max if len(bounds) and exponents[0] < 0 else min)(bounds, default=0.0)


def classify(c: MomentVector, tol: float = ACCEPT_TOL, init_seed: int = 0) -> Classification:
    """Trichotomy of c relative to the moment cone, with a lowest-index witness.

    A positive pair is INTERIOR with its one atom, in closed form.  Otherwise
    the principal path from start ``init_seed`` finds the witness (d <= 5
    takes no path, and ``init_seed`` has no effect there, but for the d = 4
    and 5 that :func:`_family_measure` hands on), thinned where c lies within
    tol of one of its faces (:func:`_principal_path`); its index is the
    verdict: below d/2 BOUNDARY, else INTERIOR.  Without exponent 0 the
    witness has no zero atom: :func:`_witness` moves the path's to a node
    near 0, where it counts a whole atom (an odd d's interior c gets index
    (d+1)/2).  EXTERIOR carries a :class:`Certificate` where a polynomial
    separates c from the cone by more than ``tol`` (see
    :func:`_principal_path`), p(t) = t^k_i for a negative moment c_i among
    them; an EXTERIOR whose exit polish failed to reproduce c carries none.
    """
    require_tolerance(tol)
    if not any(c.values):
        return Classification(ClassKind.ZERO)
    if (atom := _pair_atom(c, tol)) is not None:
        return Classification(ClassKind.INTERIOR, atom)
    prob = _Problem(c)
    found = _principal_path(prob, tol, init_seed)
    if isinstance(found, Certificate):
        return Classification(ClassKind.EXTERIOR, certificate=found)
    rep = _witness(prob, found, tol)
    if rep is None:
        return Classification(ClassKind.EXTERIOR)
    kind = ClassKind.BOUNDARY if index_of(rep).twice < c.d else ClassKind.INTERIOR
    return Classification(kind, rep)


def principal_representation(c: MomentVector, tol: float = ACCEPT_TOL) -> Representation:
    """Representation of index exactly d/2 for an interior moment vector:
    :func:`classify`'s witness where it says INTERIOR."""
    require_tolerance(tol)
    if c.d % 2 and c.exponents.exponents[0]:
        raise UnsupportedSystemError("odd-dimensional principal structure needs exponent 0")
    result = classify(c, tol)
    if result.kind is not ClassKind.INTERIOR:
        raise NotInteriorError("the moment vector is not interior")
    return result.witness


def canonical_representation(
    c: MomentVector, t_star: float, tol: float = ACCEPT_TOL
) -> Representation:
    """Representation of index (d+1)/2 with a root pinned at t_star exactly.

    The ray c - s w v(t_star) from the principal representation exits where
    the mass at t_star is maximal: the exit measure and s, polished by the
    landing's bordered system, plus the atom (t_star, s w) in closed form.  A
    pin on a principal root is rejected, the ray has no length there.
    Without exponent 0 an even d has none: the ray's exit drives a node to
    0, where an atom feeds no moment.
    """
    require_tolerance(tol)
    if not 0 < t_star < math.inf:
        raise DomainError(f"prescribed root must be positive and finite, got {t_star}")
    if c.d % 2 == 0 and c.exponents.exponents[0]:
        raise UnsupportedSystemError("even-dimensional canonical structure needs exponent 0")
    prob = _Problem(c)
    found = _principal_path(prob, tol)
    if not isinstance(found, np.ndarray) or len(found) != c.d:
        raise NotInteriorError("a canonical representation needs an interior vector")
    for u in prob.nodes(_unpack(found)[2]):
        if abs(u - t_star) <= NODE_MERGE_REL * max(u, t_star):
            raise PinnedNodeCoincidenceError(
                f"prescribed root {t_star} coincides with principal root "
                f"{u}; the pinned structure degenerates"
            )
    k, c = prob.k, prob.values
    pin = math.ldexp(t_star, -prob.m)  # exact
    w_max = math.exp(_log_max_mass(c, k, math.log(pin))[0])
    # The ray runs on to twice that mass, so that its exit lies inside the
    # path and not where a moment reaches 0.
    dc = -2.0 * w_max * np.exp(k * math.log(pin))
    s, y, _ = _track(found, k, c, c + dc, tol)
    if not 0.0 < s < 1.0 or len(y) != len(k) - 1:
        raise NumericalFailureError("the ray has no exit of index (d-1)/2 inside its path")
    z, res, _ = _correct(np.append(y, s), k, c, 0.0, MAX_ITER, dc)
    if res > tol or not z[-1] > 0.0:
        raise NumericalFailureError(
            f"no representation of index (d+1)/2 with root {t_star} reproduces c "
            f"(residual {res:.3e}); this root may lie off the bands its family sweeps",
            residual=res)
    rep = prob.representation(z[:-1])
    try:  # the pinned atom, of mass 2 s w_max, in the original system
        pinned = Atom(t_star, scaled_power(2.0 * z[-1] * w_max, t_star, -prob.shift))
        rep = None if rep is None else Representation(rep.atoms + (pinned,))
    except DomainError:
        rep = None
    if rep is None or _mismatch(rep, prob.c) > tol:
        raise NumericalFailureError(f"no canonical representation through {t_star} here")
    return rep
