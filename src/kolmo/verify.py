"""Self-contained verification suites over seeded random cases.

Each suite builds its own inputs from a seed, runs one end-to-end property,
and reports pass/fail counts with counterexamples.  The acceptance tests and
the ``verify`` CLI command both run these.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    Atom,
    ExponentVector,
    Family,
    FunctionFamily,
    MomentVector,
    NormVector,
    Representation,
    factorial_scale,
    moments_of,
)
from .errors import KolmoError, PinnedNodeCoincidenceError
from .kolmogorov import Status, decide_admissible, interior_spline
from .oracle import cone_membership
from .representations import (
    ClassKind,
    canonical_representation,
    classify,
    principal_representation,
)
from .splines import IdealSpline, evaluate, norms, random_member, spline_from_representation

DEFAULT_SEED = 20260823


@dataclass
class SuiteReport:
    suite: str
    total: int = 0
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    failures: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    ok: bool = True

    def fail(self, message: str):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def finish(self) -> "SuiteReport":
        self.ok = self.failed == 0 and self.ok
        return self

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "total": self.total,
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
            "ok": self.ok,
            "failures": list(self.failures),
            "notes": dict(self.notes),
        }


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


def roundtrip_suite(cases: int = 200, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Principal representation recovers the measure behind exact moments."""
    rep_out = SuiteReport("roundtrip")
    rng = np.random.default_rng(seed)
    for case in range(cases):
        rep_out.total += 1
        m = int(rng.integers(1, 4))
        with_zero = bool(rng.integers(0, 2))
        n_pos = m - 1 if with_zero else m
        if n_pos == 0 and not with_zero:
            with_zero = True
        target = _random_representation(rng, n_pos, with_zero)
        d = 2 * n_pos + (1 if with_zero else 0)
        k = _exponents_with_zero(rng, d, 8, 8)
        c = moments_of(target, k)
        try:
            got = principal_representation(c)
        except KolmoError as exc:
            rep_out.fail(f"case {case}: solver failed: {exc}")
            continue
        if len(got) != len(target):
            rep_out.fail(
                f"case {case}: atom count {len(got)} != {len(target)}"
            )
            continue
        bad = None
        for a, b in zip(got.atoms, target.atoms):
            if abs(a.node - b.node) > 1e-6 * max(b.node, 1e-3):
                bad = f"node {a.node} vs {b.node}"
            elif abs(a.weight - b.weight) > 1e-6 * b.weight:
                bad = f"weight {a.weight} vs {b.weight}"
        if bad:
            rep_out.fail(f"case {case}: {bad}")
        else:
            rep_out.passed += 1
    return rep_out.finish()


def lemma1_suite(cases: int = 500, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Matched thin splines never exceed the source function's spare norms."""
    rep_out = SuiteReport("lemma1")
    rng = np.random.default_rng(seed)
    nonconv = 0
    for case in range(cases):
        rep_out.total += 1
        d = int(rng.choice([2, 3, 4]))
        r = int(rng.integers(max(2, d), 9))
        chain = sorted(int(v) for v in rng.choice(r, size=d, replace=False)) + [r]
        family = FunctionFamily(Family.MM, r)
        x = random_member(family, 6, int(rng.integers(2 ** 31)))
        matched = tuple(chain[1 : 1 + 2 * (d // 2)])
        M = norms(x, ExponentVector(matched, r))
        try:
            phi = interior_spline(M)
        except KolmoError:
            nonconv += 1
            rep_out.skipped += 1
            continue
        k0 = chain[0]
        ok = evaluate(phi, 0.0, k0) <= evaluate(x, 0.0, k0) + 1e-9
        if ok and d % 2 == 1:
            ok = evaluate(phi, 0.0, r) <= evaluate(x, 0.0, r) + 1e-9
        if ok:
            rep_out.passed += 1
        else:
            rep_out.fail(
                f"case {case}: d={d} r={r} chain={chain}: matched spline "
                f"exceeds the source norm"
            )
    rate = (cases - nonconv) / cases if cases else 1.0
    rep_out.notes["convergence_rate"] = rate
    rep_out.notes["nonconvergent"] = nonconv
    rep_out.ok = rate >= 0.95
    return rep_out.finish()


def oracle_suite(cases: int = 500, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Exact classification agrees with the brute-force cone oracle.

    Disagreements are excused only inside a relative margin of 1e-4 around
    the cone boundary, measured by the oracle's own residual.
    """
    rep_out = SuiteReport("oracle")
    rng = np.random.default_rng(seed)
    for case in range(cases):
        rep_out.total += 1
        d = int(rng.integers(2, 6))
        k = _exponents_with_zero(rng, d, 8, 8)
        base = _random_representation(
            rng, int(rng.integers(1, 4)), bool(rng.integers(0, 2)),
            lo=0.05, hi=20.0, min_gap=0.05, w_lo=0.2, w_hi=3.0,
        )
        vals = np.asarray(moments_of(base, k).values)
        if rng.random() < 0.5:
            vals = vals * (1.0 + rng.uniform(-0.3, 0.3, d))
        c = MomentVector(tuple(vals), k)
        try:
            cls = classify(c)
        except KolmoError as exc:
            rep_out.fail(f"case {case}: classify raised: {exc}")
            continue
        report = cone_membership(c)
        in_cone = cls.kind in (ClassKind.BOUNDARY, ClassKind.INTERIOR, ClassKind.ZERO)
        if in_cone == report.feasible:
            rep_out.passed += 1
        elif report.residual <= 1e-4:
            rep_out.skipped += 1  # within the boundary margin band
        else:
            rep_out.fail(
                f"case {case}: classify={cls.kind.value} but oracle residual "
                f"{report.residual:.3e}"
            )
    return rep_out.finish()


def correspondence_suite(cases: int = 200, seed: int = DEFAULT_SEED) -> SuiteReport:
    """AM norms equal diag((r-k_i)!) times MM norms for matched spline pairs."""
    rep_out = SuiteReport("correspondence")
    rng = np.random.default_rng(seed)
    for case in range(cases):
        rep_out.total += 1
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
        lifted = factorial_scale(mm)
        bad = any(
            abs(a - b) > 1e-12 * max(abs(a), abs(b))
            for a, b in zip(am.values, lifted.values)
        )
        if bad:
            rep_out.fail(f"case {case}: r={r} k={exps}: factorial mismatch")
        else:
            rep_out.passed += 1
    return rep_out.finish()


def theorem_main_suite(cases: int = 100, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Trichotomy on the worked threshold family plus random attainable tuples."""
    rep_out = SuiteReport("theorem-main")
    family = FunctionFamily(Family.MM, 2)
    k = ExponentVector((0, 1, 2), 2)
    ladder = [
        (0.5, Status.NOT_ADMISSIBLE),
        (0.9, Status.NOT_ADMISSIBLE),
        (0.99, Status.NOT_ADMISSIBLE),
        (1.0, Status.ADMISSIBLE_BOUNDARY),
        (1.01, Status.ADMISSIBLE_INTERIOR),
        (1.5, Status.ADMISSIBLE_INTERIOR),
        (10.0, Status.ADMISSIBLE_INTERIOR),
    ]
    for m0, want in ladder:
        rep_out.total += 1
        res = decide_admissible(NormVector((m0, 2.0, 2.0), k, family))
        if res.status is want:
            rep_out.passed += 1
        else:
            rep_out.fail(f"M0={m0}: got {res.status.value}, want {want.value}")

    rng = np.random.default_rng(seed)
    for case in range(cases):
        rep_out.total += 1
        d = int(rng.choice([3, 4, 5]))
        r = int(rng.integers(max(2, d - 1), 9))
        lower = sorted(int(v) for v in rng.choice(r, size=d - 1, replace=False))
        exps = ExponentVector((*lower, r), r)
        fam = FunctionFamily(Family(rng.choice(["am", "mm"])), r)
        x = random_member(fam, d // 2, int(rng.integers(2 ** 31)))
        if not (d % 2 == 1 and exps.exponents[0] == 0):
            x = IdealSpline(fam, x.knots, x.weights, 0.0)
        M = norms(x, exps)
        try:
            res = decide_admissible(M)
        except KolmoError as exc:
            rep_out.fail(f"case {case}: decide raised: {exc}")
            continue
        if res.status is Status.NOT_ADMISSIBLE or res.witness is None:
            rep_out.fail(
                f"case {case}: attainable tuple judged {res.status.value}"
            )
            continue
        got = norms(res.witness, exps)
        bad = any(
            abs(a - b) > 1e-6 * max(abs(a), abs(b))
            for a, b in zip(got.values, M.values)
        )
        if bad:
            rep_out.fail(f"case {case}: witness norms mismatch")
        else:
            rep_out.passed += 1
    return rep_out.finish()


def canonical_suite(cases: int = 100, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Prescribed-root representations: exact pin, exact moments."""
    rep_out = SuiteReport("canonical")

    # Closed-form instance: two unit atoms at 1 and 2.
    rep_out.total += 1
    k = ExponentVector((0, 1, 2), 2)
    c = MomentVector((2.0, 3.0, 5.0), k)
    got = canonical_representation(c, 1.0)
    want = ((1.0, 1.0), (2.0, 1.0))
    if len(got) == 2 and all(
        abs(a.node - n) <= 1e-8 and abs(a.weight - w) <= 1e-8
        for a, (n, w) in zip(got.atoms, want)
    ):
        rep_out.passed += 1
    else:
        rep_out.fail(f"closed form: got {[(a.node, a.weight) for a in got.atoms]}")

    rng = np.random.default_rng(seed)
    for case in range(cases):
        rep_out.total += 1
        d = int(rng.integers(2, 6))
        kk = _exponents_with_zero(rng, d, 8, 8)
        # Build the target with the index-(d+1)/2 structure itself and pin
        # one of its positive nodes: prescribed roots are only attainable on
        # the bands swept by that family, so sampling roots freely would mix
        # in unrepresentable instances.
        if d % 2 == 1:
            n_pos, with_zero = (d + 1) // 2, False
        else:
            n_pos, with_zero = d // 2, True
        target = _random_representation(rng, n_pos, with_zero)
        cc = moments_of(target, kk)
        pos_nodes = [a.node for a in target.atoms if a.node > 0]
        t_star = float(pos_nodes[int(rng.integers(len(pos_nodes)))])
        try:
            got = canonical_representation(cc, t_star)
        except PinnedNodeCoincidenceError:
            rep_out.skipped += 1
            continue
        except KolmoError as exc:
            rep_out.fail(f"case {case}: solver failed: {exc}")
            continue
        if not any(a.node == t_star for a in got.atoms):
            rep_out.fail(f"case {case}: pinned node {t_star} not present exactly")
            continue
        back = np.asarray(moments_of(got, kk).values)
        ref = np.asarray(cc.values)
        scale = np.maximum(np.abs(ref), 0.01 * np.max(np.abs(ref)))
        if np.max(np.abs(back - ref) / scale) > 1e-8:
            rep_out.fail(f"case {case}: moments not reproduced to 1e-8")
        else:
            rep_out.passed += 1
    return rep_out.finish()


def uniqueness_suite(cases: int = 100, seed: int = DEFAULT_SEED) -> SuiteReport:
    """Interior spline solves from distinct initializations coincide."""
    rep_out = SuiteReport("uniqueness")
    rng = np.random.default_rng(seed)
    for case in range(cases):
        rep_out.total += 1
        d = int(rng.choice([2, 4, 6]))
        r = 8
        exps = sorted(int(v) for v in rng.choice(r + 1, size=d, replace=False))
        k = ExponentVector(tuple(exps), r)
        fam = FunctionFamily(Family(rng.choice(["am", "mm"])), r)
        # Knots in a moderate range with clear separation.  Uniqueness is
        # checked where the parameters are identifiable at the comparison
        # level: spline weights scale like knot^r, so a knot span of S makes
        # the weight spread S^r, and past ~1e8 the Jacobian's smallest
        # singular value drops below what double precision can pin to 1e-6.
        knots = None
        for _ in range(500):
            cand = np.sort(np.exp(rng.uniform(np.log(0.5), np.log(2.0), d // 2)))
            if d // 2 < 2 or np.min(cand[1:] / cand[:-1]) >= 1.3:
                knots = cand[::-1]
                break
        x = IdealSpline(
            fam,
            tuple(float(a) for a in knots),
            tuple(float(w) for w in rng.uniform(0.5, 5.0, d // 2)),
            0.0,
        )
        M = norms(x, k)
        solved = []
        try:
            for init_seed in (0, 1, 2):
                solved.append(interior_spline(M, init_seed=init_seed))
        except KolmoError as exc:
            rep_out.fail(f"case {case}: solver failed: {exc}")
            continue
        ref = solved[0]
        bad = False
        for other in solved[1:]:
            for a, b in zip(ref.knots + ref.weights, other.knots + other.weights):
                if abs(a - b) > 1e-6 * max(abs(a), abs(b)):
                    bad = True
        if bad:
            rep_out.fail(f"case {case}: initializations disagree beyond 1e-6")
        else:
            rep_out.passed += 1
    return rep_out.finish()


SUITES = {
    "roundtrip": roundtrip_suite,
    "lemma1": lemma1_suite,
    "oracle": oracle_suite,
    "correspondence": correspondence_suite,
    "theorem-main": theorem_main_suite,
    "canonical": canonical_suite,
    "uniqueness": uniqueness_suite,
}
