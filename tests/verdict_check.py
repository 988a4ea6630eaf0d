"""classify on vectors whose class is known: none of them may read EXTERIOR.

    PYTHONPATH=src python tests/verdict_check.py

Four checks, about 12 s on one core of a 2-CPU x86-64 host:

- the moment coordinates of the 936 decide-mixed tuples of perfbench/gen.py
  (seeds 1-3, rounds 0-5).  An attainable tuple (the norms of a spline) may
  not read EXTERIOR nor carry a separating certificate, and at least
  AGREEMENT of the 936 verdicts must match ``decide_status`` (interior,
  boundary, exterior against admissible_interior, admissible_boundary,
  not_admissible).  It prints how many paths (``representations._track``)
  and residual evaluations (``_system``) the two ran, the tracker's work,
  and its exit solves: bordered landings (``_solve_face`` with a path
  direction) and solves at c (``_end_measure``), each tried and kept, that
  is, ending a path; and the work of the closed form's Newton search over
  the two-atom family (``_family_measure``, d = 4 and d = 5's top system):
  how many searches, and their ``math.expm1`` calls per search (two per
  residual of the node gap, three per outer evaluation);
- the moment vectors of the FUZZ_DRAWS measures of :func:`exact_measures`.
  None may read EXTERIOR outside KNOWN_EXTERIOR, and none may carry a
  certificate.  It prints how many read each kind, and how many raise;
- the 832 inputs of :func:`five_moment_inputs`, classified as they are and
  with the principal path forced (the closed form of
  ``representations._family_measure`` taken out for d = 5), both without
  the Lyapunov check that comes before either.  No verdict may differ
  outside KNOWN_PATH_DIFFERENCES, and each of those must still differ.  It
  prints how many inputs the closed form sends down the path, with the
  Lyapunov check and without it;
- the NEGATIVE_MOMENT_PAIRS pairs of :func:`negative_moment_pairs`, which no
  measure attains: each must read EXTERIOR with a separating certificate.

The EXTERIOR verdicts of the first two checks are counted by how they were
settled: by a separating certificate, or by an exit polish that failed to
reproduce c.  A typed NumericalFailureError is no verdict and passes.  Exits
1 on a failure, after printing every one.
"""
from __future__ import annotations

import math
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np

from kolmo import (
    Atom,
    ExponentVector,
    FunctionFamily,
    Family,
    MomentVector,
    NormVector,
    NumericalFailureError,
    Representation,
    classify,
    decide_status,
    moment_coordinates,
    moments_of,
)
from kolmo import representations
from kolmo.representations import ClassKind

FUZZ_DRAWS = 1200
AGREEMENT = 861
NEGATIVE_MOMENT_PAIRS = 72

#: Draws of :func:`exact_measures` that read EXTERIOR, with the cause.
KNOWN_EXTERIOR = {
    17: "k = (1,4,5,6,7,8): the atoms at 0.024 and 0.93 carry less than 4e-6 of "
        "every moment but c_1; two atoms fit c only to 1.9e-10, above the landing's "
        "1e-10, so the path takes its last-resort exit 7.5e-9 short of c, and the exit "
        "polish ends at 1.2e-8, above tol",
}


#: Five-moment inputs whose verdict the closed form changes against the path:
#: (the path's kind, the closed form's kind; None is a raise), and the cause.
KNOWN_PATH_DIFFERENCES = {
    f"decide-mixed mirror seed {seed} round 5 item 10": (
        None, ClassKind.EXTERIOR,
        "k = (0,1,15,17,20) breaks Lyapunov's inequality c_15^16 <= c_1^2 c_17^14 "
        "by e^7; the path raised") for seed in (1, 2, 3)
}


def perfbench_gen():
    """perfbench/gen.py, the benchmark's input generator."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import gen

    return gen


def exact_measures(count, seed=7, r=8):
    """(draw, c) for moment vectors of known positive measures.

    Draw i has d = 4, 5, 6 for i mod 3 = 0, 1, 2 and exponent 0 for even i;
    the other exponents are distinct, from 1..r.  The measure has d // 2
    positive atoms at nodes 10^U(-3, 1.5) with weights 10^U(-1, 1), plus an
    atom at 0 for odd d with exponent 0 (so its index is d/2 with exponent 0,
    and d // 2 without).  Draws with two nodes within 1e-3 of each other
    (relative) are skipped.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        d, zero = (4, 5, 6)[i % 3], i % 2 == 0
        ks = sorted(int(v) for v in rng.choice(np.arange(1, r + 1), d - zero, replace=False))
        nodes = np.sort(10.0 ** rng.uniform(-3.0, 1.5, d // 2))
        weights = 10.0 ** rng.uniform(-1.0, 1.0, d // 2 + 1)
        if np.any(np.diff(nodes) < 1e-3 * nodes[1:]):
            continue
        atoms = [Atom(float(u), float(w)) for u, w in zip(nodes, weights)]
        if zero and d % 2:
            atoms.insert(0, Atom(0.0, float(weights[-1])))
        k = ExponentVector((0,) * zero + tuple(ks), r)
        yield i, moments_of(Representation(tuple(atoms)), k)


def classified(c):
    """classify's result for c, or None where it raises NumericalFailureError."""
    try:
        return classify(c)
    except NumericalFailureError:
        return None


def kind_of(c):
    """classify's kind of c, or None where it raises NumericalFailureError."""
    result = classified(c)
    return None if result is None else result.kind


def _settled(results):
    """'n certified + m uncertified' of the EXTERIOR results."""
    exterior = [r for r in results if r is not None and r.kind is ClassKind.EXTERIOR]
    certified = sum(r.certificate is not None for r in exterior)
    return f"{certified} certified + {len(exterior) - certified} uncertified"


def mirror(c):
    """c under t -> 1/t: the exponents k_d - k and the moments, both reversed."""
    ks = c.exponents.exponents
    return MomentVector(c.values[::-1], ExponentVector(tuple(ks[-1] - k for k in ks[::-1]),
                                                       c.exponents.r))


def _norms(doc):
    return NormVector(tuple(doc["M"]), ExponentVector(tuple(doc["k"]), doc["r"]),
                      FunctionFamily(Family(doc["family"]), doc["r"]))


def five_moment_inputs():
    """(name, c) of the 832 five-moment inputs: the moment coordinates of the
    144 five-norm decide-mixed tuples (seeds 1-3, rounds 0-5) and their
    mirrors, the 144 five-moment moments-spread classify items (rounds 0-3),
    and the 400 five-moment draws of :func:`exact_measures`."""
    gen = perfbench_gen()
    for seed in (1, 2, 3):
        for index in range(6):
            for item, doc in enumerate(gen.decide_round(seed, index)):
                if len(doc["k"]) == 5:
                    c = moment_coordinates(_norms(doc))
                    yield f"decide-mixed seed {seed} round {index} item {item}", c
                    yield f"decide-mixed mirror seed {seed} round {index} item {item}", mirror(c)
        for index in range(4):
            for item, doc in enumerate(gen.moments_round(seed, index)):
                if len(doc["k"]) == 5 and doc["call"] == "classify":
                    yield (f"moments-spread seed {seed} round {index} item {item}",
                           MomentVector(tuple(doc["c"]), ExponentVector(tuple(doc["k"]), gen.MOMENT_R)))
    for i, c in exact_measures(FUZZ_DRAWS):
        if c.d == 5:
            yield f"exact measure draw {i}", c


def negative_moment_pairs():
    """(name, c) of the moments-spread classify items with d = 2 and a
    negative moment (seeds 1-3, rounds 0-3)."""
    gen = perfbench_gen()
    for seed in (1, 2, 3):
        for index in range(4):
            for item, doc in enumerate(gen.moments_round(seed, index)):
                if len(doc["k"]) == 2 and doc["call"] == "classify" and min(doc["c"]) < 0:
                    yield (f"moments-spread seed {seed} round {index} item {item}",
                           MomentVector(tuple(doc["c"]), ExponentVector(tuple(doc["k"]), gen.MOMENT_R)))


def _counted(name, counts, tally=None):
    """Replace representations.<name> by a wrapper that counts its calls in
    counts[name], and each key that ``tally(args, result)`` names in
    counts[key]; returns the original."""
    original = getattr(representations, name)

    def wrapper(*args):
        counts[name] += 1
        result = original(*args)
        if tally is not None:
            counts.update(tally(args, result))
        return result

    setattr(representations, name, wrapper)
    return original


def _exit_tallies():
    """Tallies for :func:`_counted` of the tracker's exit solves: a landing
    is a face solve with a path direction (its fifth argument), kept where
    the path returns its measure; a solve at c is kept where it succeeds."""
    landed = []  # the last landing's solution, if any

    def landing(args, result):
        if len(args) < 5:
            return ()
        landed[:] = [result[0]]
        return ["landings tried"]

    def track(args, result):
        z = landed.pop() if landed else None
        kept = z is not None and np.array_equal(result[1], z[:-1])
        return ["landings kept"] if kept else ()

    return {"_solve_face": landing, "_track": track,
            "_end_measure": lambda args, result: () if result is None else ["solves at c kept"]}


def _counted_searches(counts):
    """Replace representations._family_measure by a wrapper that counts each
    search over the two-atom family (a d = 4 call that returns a principal
    measure of two atoms to polish, d = 5's top system included) in
    counts["searches"], and the math.expm1 calls it makes in
    counts["search expm1"]; returns the originals to restore."""
    family, module_math, calls = representations._family_measure, representations.math, []

    def expm1(x):
        calls.append(1)
        return math.expm1(x)

    def wrapper(k, c, tol):
        before = len(calls)
        result = family(k, c, tol)
        if len(k) == 4 and result is not None and result[0] == 1.0 and result[2] and len(result[1]) == 4:
            counts["searches"] += 1
            counts["search expm1"] += len(calls) - before
            counts["most search expm1"] = max(counts["most search expm1"], len(calls) - before)
        return result

    representations.math = types.SimpleNamespace(**vars(math))
    representations.math.expm1 = expm1
    representations._family_measure = wrapper
    return {"_family_measure": family, "math": module_math}


def _decide_mixed_failures():
    gen = perfbench_gen()
    status_of = {ClassKind.INTERIOR: "admissible_interior",
                 ClassKind.BOUNDARY: "admissible_boundary",
                 ClassKind.EXTERIOR: "not_admissible"}
    failures, results, agree = [], [], 0
    counts = Counter()
    tallies = _exit_tallies()
    originals = {name: _counted(name, counts, tallies.get(name))
                 for name in ("_track", "_system", "_solve_face", "_end_measure")}
    originals.update(_counted_searches(counts))
    try:
        for seed in (1, 2, 3):
            for index in range(6):
                for item, doc in enumerate(gen.decide_round(seed, index)):
                    M = _norms(doc)
                    result = classified(moment_coordinates(M))
                    kind = None if result is None else result.kind
                    try:
                        status = decide_status(M)[0].value
                    except NumericalFailureError:
                        status = None
                    results.append(result)
                    agree += kind is not None and status_of[kind] == status
                    name = f"decide-mixed seed {seed} round {index} item {item}"
                    if doc["attainable"] and kind is ClassKind.EXTERIOR:
                        certified = " with a certificate" if result.certificate is not None else ""
                        failures.append(f"{name}: attainable, but EXTERIOR{certified}")
    finally:
        for name, original in originals.items():
            setattr(representations, name, original)
    print(f"decide-mixed: {agree} of {len(results)} agree with decide_status; "
          f"EXTERIOR {_settled(results)}; classify and decide_status ran "
          f"{counts['_track']} paths, {counts['_system']} residual evaluations; the paths "
          f"tried {counts['landings tried']} landings ({counts['landings kept']} kept) and "
          f"{counts['_end_measure']} solves at c ({counts['solves at c kept']} kept); the "
          f"two-atom search ran {counts['searches']} times, at "
          f"{counts['search expm1'] / max(counts['searches'], 1):.1f} expm1 calls per search "
          f"({counts['most search expm1']} at most)")
    if agree < AGREEMENT:
        failures.append(f"decide-mixed: {agree} agree, fewer than {AGREEMENT}")
    return failures


def _fuzz_failures():
    failures, exterior, results = [], [], []
    for i, c in exact_measures(FUZZ_DRAWS):
        result = classified(c)
        results.append(result)
        if result is not None and result.certificate is not None:
            failures.append(f"exact measure draw {i}, k = {c.exponents.exponents}: certified exterior")
        if result is not None and result.kind is ClassKind.EXTERIOR:
            exterior.append(i)
            if i not in KNOWN_EXTERIOR:
                failures.append(f"exact measure draw {i}, k = {c.exponents.exponents}: EXTERIOR")
    kinds = Counter("raise" if r is None else r.kind.value for r in results)
    print(f"exact measures: EXTERIOR on draws {exterior} of {FUZZ_DRAWS}, {_settled(results)}; "
          + ", ".join(f"{kinds[kind]} {kind}" for kind in ("interior", "boundary", "exterior", "raise")))
    return failures


def _path_failures():
    # Both sides without the Lyapunov check: it settles some inputs before
    # either side runs, which would hide a difference between the two.
    family, lyapunov = representations._family_measure, representations._lyapunov
    failures, found, count = [], set(), 0
    counts, settled = Counter(), []  # the closed form's paths

    def without_lyapunov(k, v, tol):  # noting whether the check would settle c
        settled.append(lyapunov(k, v, tol) is not None)

    representations._lyapunov = without_lyapunov
    track = _counted("_track", counts)
    try:
        for name, c in five_moment_inputs():
            before, settled[:] = counts["_track"], []
            kind = kind_of(c)
            if counts["_track"] > before:
                counts["paths without the check"] += 1
                counts["paths"] += not any(settled)
            representations._family_measure = lambda k, v, tol: None if len(k) == 5 else family(k, v, tol)
            try:
                tracked = kind_of(c)
            finally:
                representations._family_measure = family
            count += 1
            if kind is tracked:
                continue
            found.add(name)
            if name not in KNOWN_PATH_DIFFERENCES or KNOWN_PATH_DIFFERENCES[name][:2] != (tracked, kind):
                failures.append(f"{name}: {_name(tracked)} on the path, {_name(kind)} in closed form")
    finally:
        representations._lyapunov, representations._track = lyapunov, track
    print(f"five moments: {len(found)} of {count} verdicts differ from the path's; the closed "
          f"form takes the path on {counts['paths']} of {count} ({counts['paths without the check']} "
          f"without the Lyapunov check)")
    failures += [f"{name}: no longer differs from the path" for name in KNOWN_PATH_DIFFERENCES
                 if name not in found]
    return failures


def _negative_moment_failures():
    failures, certified, count = [], 0, 0
    for name, c in negative_moment_pairs():
        result = classified(c)
        count += 1
        if result is not None and result.kind is ClassKind.EXTERIOR and result.certificate is not None:
            certified += 1
        else:
            kind = _name(None if result is None else result.kind)
            failures.append(f"{name}: a negative moment, but {kind} without a certificate")
    print(f"negative moments: {certified} of {count} pairs certified EXTERIOR")
    if count != NEGATIVE_MOMENT_PAIRS:
        failures.append(f"negative moments: {count} pairs, not {NEGATIVE_MOMENT_PAIRS}")
    return failures


def _name(kind):
    return "a raise" if kind is None else kind.value


def main() -> int:
    failures = (_decide_mixed_failures() + _fuzz_failures() + _path_failures()
                + _negative_moment_failures())
    for line in failures:
        print("FAIL", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
