"""Seeded input generators for the three workloads.

Inputs are plain dicts and lists, built with numpy alone: the generators do not
call the library, so a change to kolmo cannot change what it is asked.

Each workload is a stream of rounds, and a round holds one item per cell of
the workload's grid. Round ``i`` has a fixed base: its exponents, knot counts,
families, structures and base parameters come from ``(workload, i)`` alone.
The workload seed jitters every continuous parameter of the base (knots,
weights, atoms, perturbation factors) by a log-normal factor of spread
``JITTER``, so the same seed gives the same inputs and another seed gives
other inputs of the same shape. Costs in this library vary a hundredfold
between draws of one cell, so drawing each seed's grid afresh would make a
25-second run measure mostly which draws it got; the fixed base keeps the mix
of hard and easy cases, and the failures among them, the same from seed to
seed. The base grid is not filtered: every drawn case stays in.
"""
from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("decide-mixed", "sweep-cli", "moments-spread")

# decide-mixed: d = 3..8 with k_d = r; r = 2 only admits d = 3.
DECIDE_CELLS = ((2, 3),) + tuple((r, d) for r in (8, 20) for d in range(3, 9))
FAMILIES = ("am", "mm")
PERTURB = 0.3

# sweep-cli: smaller systems, so that one line (all points of one sweep)
# stays short enough for a 25-second run to hold more than fifty lines.
SWEEP_CELLS = ((2, 3), (8, 3), (8, 4), (8, 5), (20, 3), (20, 4))
SWEEP_STEPS = 5
SWEEP_RANGE = (0.5, 2.0)

# moments-spread: systems with exponent 0, r = 8, node spread from moderate
# to wide.
MOMENT_DIMS = (2, 3, 4, 5, 6)
MOMENT_R = 8
NODE_SPREADS = ((0.2, 5.0), (0.05, 20.0), (1e-2, 1e2))
NEAR_EPS = (1e-4, 1e-2)
FAR_EPS = (0.3, 0.7)

# The README example, used by the cold CLI probe and the warm-up calls.
README_TUPLE = {"family": "mm", "r": 2, "k": [0, 1, 2], "M": [1.0, 2.0, 2.0]}
README_STATUS = "admissible_boundary"

# Log-normal spread of the seed's jitter. At 1 % and 5 % enough calls flipped
# between the oracle's short cut and a full structure search to move a run's
# median by 30 to 70 % from seed to seed.
JITTER = 0.001


def round_rngs(seed: int, workload: str, index: int):
    """(base, jitter) generators of one round."""
    tag = WORKLOADS.index(workload)
    return (np.random.default_rng([tag, index]),
            np.random.default_rng([seed, tag, index, 1]))


def _jitter(rng, x: float) -> float:
    return float(x * math.exp(JITTER * rng.standard_normal()))


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _separated(rng, count, lo, hi):
    """``count`` log-uniform values in [lo, hi], pairwise ratio >= 1.05."""
    while True:
        draw = np.sort(_log_uniform(rng, lo, hi, count))
        if all(b / a >= 1.05 for a, b in zip(draw, draw[1:])):
            return [float(v) for v in draw]


def _exponents(rng, r, d, *, first_zero=False):
    """Strictly increasing exponents: k_d = r, or k_1 = 0 with first_zero."""
    if first_zero:
        rest = rng.choice(np.arange(1, r + 1), d - 1, replace=False)
        return [0] + sorted(int(v) for v in rest)
    return sorted(int(v) for v in rng.choice(r, d - 1, replace=False)) + [r]


def random_spline(base, jit, family, r, knot_count):
    """Class member: knots in [1e-2, 1e2], weights in [0.1, 10], constant w.p. 1/2."""
    knots = _separated(base, knot_count, 1e-2, 1e2)
    weights = [float(w) for w in _log_uniform(base, 0.1, 10.0, knot_count)]
    constant = float(_log_uniform(base, 0.1, 10.0)) if base.random() < 0.5 else 0.0
    pairs = sorted(((_jitter(jit, a), _jitter(jit, w)) for a, w in zip(knots, weights)),
                   reverse=True)
    return {"family": family, "r": r, "knots": [a for a, _ in pairs],
            "weights": [w for _, w in pairs], "constant": _jitter(jit, constant)}


def spline_norms(spline: dict, ks) -> list[float]:
    """Derivative sup-norms |phi^(k)(0)| of an ideal spline, from its formula.

    AM: C [k = 0] + sum lambda a^(r-k);  MM: C [k = 0] + sum lambda a^(r-k) / (r-k)!.
    """
    r = spline["r"]
    out = []
    for k in ks:
        scale = 1.0 if spline["family"] == "am" else 1.0 / math.factorial(r - k)
        total = sum(lam * a ** (r - k) for a, lam in zip(spline["knots"], spline["weights"]))
        out.append(total * scale + (spline["constant"] if k == 0 else 0.0))
    return out


def decide_round(seed: int, index: int) -> list[dict]:
    """One item per (cell, family, attainable or perturbed), in base order."""
    base, jit = round_rngs(seed, "decide-mixed", index)
    items = []
    for r, d in DECIDE_CELLS:
        for family in FAMILIES:
            for attainable in (True, False):
                ks = _exponents(base, r, d)
                M = spline_norms(random_spline(base, jit, family, r, d // 2), ks)
                if not attainable:
                    M = [v * _jitter(jit, base.uniform(1 - PERTURB, 1 + PERTURB))
                         for v in M]
                items.append({"family": family, "r": r, "k": ks, "M": M,
                              "attainable": attainable})
    return [items[i] for i in base.permutation(len(items))]


def sweep_round(seed: int, index: int) -> list[dict]:
    """One sweep line per (cell, family) over component 1.

    The base tuple is attainable; the line runs M_{k_1} from 0.5x to 2x its
    value, so most lines cross the admissibility threshold. Every point of a
    line shares the suffix M_{k_2}..M_{k_d}.
    """
    base, jit = round_rngs(seed, "sweep-cli", index)
    lines = []
    for r, d in SWEEP_CELLS:
        for family in FAMILIES:
            ks = _exponents(base, r, d)
            M = spline_norms(random_spline(base, jit, family, r, d // 2), ks)
            lines.append({
                "problem": {"family": family, "r": r, "k": ks, "M": M},
                "from": SWEEP_RANGE[0] * M[0],
                "to": SWEEP_RANGE[1] * M[0],
                "steps": SWEEP_STEPS,
            })
    return [lines[i] for i in base.permutation(len(lines))]


def moments_of(nodes, weights, ks) -> list[float]:
    """Power moments sum_s w_s t_s^k, with 0**0 = 1."""
    return [sum(w * (t ** k if k else 1.0) for t, w in zip(nodes, weights)) for k in ks]


def _measure(base, jit, n_pos, zero_atom, spread):
    nodes = sorted(_jitter(jit, t) for t in _separated(base, n_pos, *spread))
    weights = [_jitter(jit, w) for w in _log_uniform(base, 0.1, 10.0, n_pos)]
    if zero_atom:
        nodes = [0.0] + nodes
        weights = [_jitter(jit, _log_uniform(base, 0.1, 10.0))] + weights
    return nodes, weights


def moments_round(seed: int, index: int) -> list[dict]:
    """Per (d, spread): an interior and a boundary point, and two off the cone.

    Truths hold by construction. The interior point has a principal measure
    (index d/2), so ``principal_representation`` must return its atoms. The
    boundary point has ceil(d/2) - 1 positive atoms and no zero atom, so its
    representation is unique and lowering c_0 by any eps > 0 leaves the cone:
    that gives the near (eps <= 1e-2) and far (eps >= 0.3) exterior points.
    For d = 2 the only boundary measure is an atom at 0; there the exterior
    points take a negative c_1 instead.
    """
    base, jit = round_rngs(seed, "moments-spread", index)
    items = []
    for d in MOMENT_DIMS:
        for spread in NODE_SPREADS:
            ks = _exponents(base, MOMENT_R, d, first_zero=True)
            nodes, weights = _measure(base, jit, d // 2, d % 2 == 1, spread)
            c = moments_of(nodes, weights, ks)
            items.append({"call": "classify", "k": ks, "c": c, "truth": "interior"})
            items.append({"call": "principal", "k": ks, "c": c,
                          "nodes": nodes, "weights": weights})
            near_eps = _jitter(jit, _log_uniform(base, *NEAR_EPS))
            far_eps = _jitter(jit, base.uniform(*FAR_EPS))
            if d == 2:
                c_b = moments_of(*_measure(base, jit, 0, True, spread), ks)
                near = [c[0], -near_eps * c[1]]
                far = [c[0], -far_eps * c[1]]
            else:
                c_b = moments_of(*_measure(base, jit, (d + 1) // 2 - 1, False, spread), ks)
                near = [c_b[0] * (1 - near_eps)] + c_b[1:]
                far = [c_b[0] * (1 - far_eps)] + c_b[1:]
            items.append({"call": "classify", "k": ks, "c": c_b, "truth": "boundary"})
            items.append({"call": "classify", "k": ks, "c": near, "truth": "exterior"})
            items.append({"call": "classify", "k": ks, "c": far, "truth": "exterior"})
    return [items[i] for i in base.permutation(len(items))]


ROUNDS = {
    "decide-mixed": decide_round,
    "sweep-cli": sweep_round,
    "moments-spread": moments_round,
}
