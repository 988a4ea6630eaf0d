"""Self-contained verification suites over seeded random cases.

Each suite builds its own inputs from a seed, runs one end-to-end property,
and reports pass/fail counts with counterexamples.  The acceptance tests and
the ``verify`` CLI command both run these.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable

from ._lazy import NumpyOnFirstUse
from .core import (
    Atom,
    ExponentVector,
    Family,
    FunctionFamily,
    MomentVector,
    NormVector,
    Representation,
    factorial_scale,
    moment_coordinates,
    moments_of,
)
from .errors import KolmoError, PinnedNodeCoincidenceError
from .kolmogorov import Status, decide_admissible, decide_status, interior_spline
from .oracle import cone_membership
from .representations import (
    ClassKind,
    canonical_representation,
    classify,
    principal_representation,
)
from .splines import IdealSpline, evaluate, norms, random_member, spline_from_representation

np = NumpyOnFirstUse(globals())

DEFAULT_SEED = 20260823

# Returned by a case's check to record the case as skipped.
SKIP = object()


@dataclass
class SuiteReport:
    """Counts of one suite run; the field order is the key order of :meth:`to_dict`."""

    suite: str
    total: int = 0
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    ok: bool = True
    failures: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def record(self, label: str, check: Callable):
        """Count one case.

        ``check()`` returns None for a pass, :data:`SKIP` for a skip, or a
        failure message.  A :class:`KolmoError` it raises is a failure naming
        the error type; any other exception propagates.
        """
        self.total += 1
        try:
            outcome = check()
        except KolmoError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        if outcome is None:
            self.passed += 1
        elif outcome is SKIP:
            self.skipped += 1
        else:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {outcome}")

    def run(self, cases: int, seed: int, case: Callable) -> "SuiteReport":
        """Record ``case(rng)`` ``cases`` times from one seeded generator, then set ``ok``."""
        rng = np.random.default_rng(seed)
        for i in range(cases):
            self.record(f"case {i}", lambda: case(rng))
        self.ok = self.failed == 0
        return self

    def to_dict(self) -> dict:
        return asdict(self)


def _separated_nodes(rng, count, lo, hi, min_gap):
    for _ in range(500):
        nodes = np.sort(rng.uniform(lo, hi, count))
        if count < 2 or np.min(np.diff(nodes)) >= min_gap:
            return nodes
    raise RuntimeError("node separation rejection sampling failed")


def _random_representation(rng, n_pos, with_zero, lo=0.2, hi=5.0, min_gap=0.1,
                           w_lo=0.5, w_hi=2.0):
    atoms = []
    if with_zero:
        atoms.append(Atom(0.0, float(rng.uniform(w_lo, w_hi))))
    for node in _separated_nodes(rng, n_pos, lo, hi, min_gap):
        atoms.append(Atom(float(node), float(rng.uniform(w_lo, w_hi))))
    return Representation(tuple(atoms))


def _exponents_with_zero(rng, d, kmax, r):
    extra = sorted(rng.choice(np.arange(1, kmax + 1), size=d - 1, replace=False))
    return ExponentVector((0, *(int(k) for k in extra)), r)


def _mismatch(got, want, rel: float) -> bool:
    """True when some pair differs by more than ``rel`` of its larger magnitude."""
    return any(abs(a - b) > rel * max(abs(a), abs(b)) for a, b in zip(got, want))


def roundtrip_suite(cases: int = 200, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Principal representation recovers the measure behind exact moments."""

    def case(rng):
        m = int(rng.integers(1, 4))
        with_zero = bool(rng.integers(0, 2))
        n_pos = m - 1 if with_zero else m
        target = _random_representation(rng, n_pos, with_zero)
        d = 2 * n_pos + (1 if with_zero else 0)
        k = _exponents_with_zero(rng, d, 8, 8)
        got = principal_representation(moments_of(target, k))
        if len(got) != len(target):
            return f"atom count {len(got)} != {len(target)}"
        for a, b in zip(got.atoms, target.atoms):
            if abs(a.node - b.node) > 1e-6 * max(b.node, 1e-3):
                return f"node {a.node} vs {b.node}"
            if abs(a.weight - b.weight) > 1e-6 * b.weight:
                return f"weight {a.weight} vs {b.weight}"
        return None

    return SuiteReport("roundtrip").run(cases, seed, case)


def lemma1_suite(cases: int = 500, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Matched thin splines never exceed the source function's spare norms."""

    def case(rng):
        d = int(rng.choice([2, 3, 4]))
        r = int(rng.integers(max(2, d), 9))
        chain = sorted(int(v) for v in rng.choice(r, size=d, replace=False)) + [r]
        x = random_member(FunctionFamily(Family.MM, r), 6, int(rng.integers(2 ** 31)))
        matched = tuple(chain[1 : 1 + 2 * (d // 2)])
        try:
            phi = interior_spline(norms(x, ExponentVector(matched, r)))
        except KolmoError:
            return SKIP
        spare = (chain[0], r) if d % 2 == 1 else (chain[0],)
        if all(evaluate(phi, 0.0, k) <= evaluate(x, 0.0, k) + 1e-9 for k in spare):
            return None
        return f"d={d} r={r} chain={chain}: matched spline exceeds the source norm"

    report = SuiteReport("lemma1").run(cases, seed, case)
    rate = (report.total - report.skipped) / report.total if report.total else 1.0
    report.notes = {"convergence_rate": rate, "nonconvergent": report.skipped}
    report.ok = report.ok and rate >= 0.95
    return report


def oracle_suite(cases: int = 500, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Exact classification agrees with the brute-force cone oracle.

    Disagreements are excused only inside a relative margin of 1e-4 around
    the cone boundary, measured by the oracle's own residual.
    """

    def case(rng):
        d = int(rng.integers(2, 8))
        k = _exponents_with_zero(rng, d, 8, 8)
        base = _random_representation(
            rng, int(rng.integers(1, 4)), bool(rng.integers(0, 2)),
            lo=0.05, hi=20.0, min_gap=0.05, w_lo=0.2, w_hi=3.0,
        )
        vals = np.asarray(moments_of(base, k).values)
        if rng.random() < 0.5:
            vals = vals * (1.0 + rng.uniform(-0.3, 0.3, d))
        c = MomentVector(tuple(vals), k)
        kind = classify(c).kind
        report = cone_membership(c)
        if (kind is not ClassKind.EXTERIOR) == report.feasible:
            return None
        if report.residual <= 1e-4:
            return SKIP  # within the boundary margin band
        return f"classify={kind.value} but oracle residual {report.residual:.3e}"

    return SuiteReport("oracle").run(cases, seed, case)


def correspondence_suite(cases: int = 200, seed: int = DEFAULT_SEED) -> SuiteReport:
    """AM norms equal diag((r-k_i)!) times MM norms for matched spline pairs."""

    def case(rng):
        r = int(rng.integers(1, 9))
        rep = _random_representation(
            rng, int(rng.integers(1, 5)), bool(rng.integers(0, 2)),
            lo=0.05, hi=20.0, min_gap=0.05, w_lo=0.1, w_hi=10.0,
        )
        d = int(rng.integers(1, min(r + 1, 6) + 1))
        exps = sorted(int(v) for v in rng.choice(r + 1, size=d, replace=False))
        k = ExponentVector(tuple(exps), r)
        am = norms(spline_from_representation(rep, FunctionFamily(Family.AM, r)), k)
        mm = norms(spline_from_representation(rep, FunctionFamily(Family.MM, r)), k)
        if _mismatch(am.values, factorial_scale(mm).values, 1e-12):
            return f"r={r} k={exps}: factorial mismatch"
        return None

    return SuiteReport("correspondence").run(cases, seed, case)


def theorem_main_suite(cases: int = 100, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Trichotomy on the worked threshold family plus random attainable tuples."""
    report = SuiteReport("theorem-main")
    family = FunctionFamily(Family.MM, 2)
    k = ExponentVector((0, 1, 2), 2)

    def rung(m0, want):
        got = decide_status(NormVector((m0, 2.0, 2.0), k, family))[0]
        return None if got is want else f"got {got.value}, want {want.value}"

    for m0, want in [
        (0.5, Status.NOT_ADMISSIBLE),
        (0.9, Status.NOT_ADMISSIBLE),
        (0.99, Status.NOT_ADMISSIBLE),
        (1.0, Status.ADMISSIBLE_BOUNDARY),
        (1.01, Status.ADMISSIBLE_INTERIOR),
        (1.5, Status.ADMISSIBLE_INTERIOR),
        (10.0, Status.ADMISSIBLE_INTERIOR),
    ]:
        report.record(f"M0={m0}", partial(rung, m0, want))

    def case(rng):
        d = int(rng.choice([3, 4, 5]))
        r = int(rng.integers(max(2, d - 1), 9))
        lower = sorted(int(v) for v in rng.choice(r, size=d - 1, replace=False))
        exps = ExponentVector((*lower, r), r)
        fam = FunctionFamily(Family(rng.choice(["am", "mm"])), r)
        x = random_member(fam, d // 2, int(rng.integers(2 ** 31)))
        if not (d % 2 == 1 and exps.exponents[0] == 0):
            x = IdealSpline(fam, x.knots, x.weights, 0.0)
        M = norms(x, exps)
        res = decide_admissible(M)
        if res.status is Status.NOT_ADMISSIBLE or res.witness is None:
            return f"attainable tuple judged {res.status.value}"
        if _mismatch(norms(res.witness, exps).values, M.values, 1e-6):
            return "witness norms mismatch"
        return None

    return report.run(cases, seed, case)


def canonical_suite(cases: int = 100, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Prescribed-root representations: exact pin, exact moments."""
    report = SuiteReport("canonical")

    def closed_form():
        # Two unit atoms at 1 and 2.
        c = MomentVector((2.0, 3.0, 5.0), ExponentVector((0, 1, 2), 2))
        got = canonical_representation(c, 1.0)
        want = ((1.0, 1.0), (2.0, 1.0))
        if len(got) == 2 and all(
            abs(a.node - n) <= 1e-8 and abs(a.weight - w) <= 1e-8
            for a, (n, w) in zip(got.atoms, want)
        ):
            return None
        return f"got {[(a.node, a.weight) for a in got.atoms]}"

    report.record("closed form", closed_form)

    def case(rng):
        d = int(rng.integers(2, 6))
        k = _exponents_with_zero(rng, d, 8, 8)
        # Build the target with the index-(d+1)/2 structure itself, (d+1)/2
        # positive atoms for odd d and d/2 plus one at 0 for even d, and pin
        # one of its positive nodes: prescribed roots are only attainable on
        # the bands swept by that family, so sampling roots freely would mix
        # in unrepresentable instances.
        target = _random_representation(rng, (d + 1) // 2, d % 2 == 0)
        c = moments_of(target, k)
        pos_nodes = [a.node for a in target.atoms if a.node > 0]
        t_star = float(pos_nodes[int(rng.integers(len(pos_nodes)))])
        try:
            got = canonical_representation(c, t_star)
        except PinnedNodeCoincidenceError:
            return SKIP
        if not any(a.node == t_star for a in got.atoms):
            return f"pinned node {t_star} not present exactly"
        back = np.asarray(moments_of(got, k).values)
        ref = np.asarray(c.values)
        scale = np.maximum(np.abs(ref), 0.01 * np.max(np.abs(ref)))
        if np.max(np.abs(back - ref) / scale) > 1e-8:
            return "moments not reproduced to 1e-8"
        return None

    return report.run(cases, seed, case)


def uniqueness_suite(cases: int = 100, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Classifications from distinct path starts are INTERIOR with one witness spline."""

    def case(rng):
        d = int(rng.choice([6, 8]))
        r = 8
        exps = sorted(int(v) for v in rng.choice(r + 1, size=d, replace=False))
        k = ExponentVector(tuple(exps), r)
        fam = FunctionFamily(Family(rng.choice(["am", "mm"])), r)
        # Knots in a moderate range with clear separation.  Uniqueness is
        # checked where the parameters are identifiable at the comparison
        # level: spline weights scale like knot^r, so a knot span of S makes
        # the weight spread S^r, and past ~1e8 the Jacobian's smallest
        # singular value drops below what double precision can pin to 1e-6.
        knots = np.exp(_separated_nodes(rng, d // 2, np.log(0.5), np.log(2.0), np.log(1.3)))[::-1]
        x = IdealSpline(
            fam,
            tuple(float(a) for a in knots),
            tuple(float(w) for w in rng.uniform(0.5, 5.0, d // 2)),
            0.0,
        )
        results = [classify(moment_coordinates(norms(x, k)), init_seed=s) for s in (0, 1, 2)]
        if any(res.kind is not ClassKind.INTERIOR for res in results):
            return f"starts 0, 1, 2 classify as {[res.kind.value for res in results]}"
        ref, *others = [spline_from_representation(res.witness, fam) for res in results]
        if any(_mismatch(ref.knots + ref.weights, other.knots + other.weights, 1e-6)
               for other in others):
            return "initializations disagree beyond 1e-6"
        return None

    return SuiteReport("uniqueness").run(cases, seed, case)


SUITES = {
    "roundtrip": roundtrip_suite,
    "lemma1": lemma1_suite,
    "oracle": oracle_suite,
    "correspondence": correspondence_suite,
    "theorem-main": theorem_main_suite,
    "canonical": canonical_suite,
    "uniqueness": uniqueness_suite,
}
