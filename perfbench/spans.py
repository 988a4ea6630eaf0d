"""Span tracing from outside the library, and the per-layer metrics it yields.

``install`` wraps kolmo's public functions at each module boundary. A
``from .x import y`` binding is a second reference to the same function, so
every module of the package that holds the function under any name gets the
wrapper, not only the module that defines it. Spans live in memory: one
record per call with its name, start, end, parent span, request id and
whether it returned or raised.
"""
from __future__ import annotations

import sys
import time
from collections import Counter

# (defining module, function, span name). A name missing from the module is
# skipped, so the tracer keeps working when a later version drops a function.
SPANNED = (
    ("kolmo.oracle", "cone_membership", "oracle.cone_membership"),
    ("kolmo.representations", "solve_structure", "representations.solve_structure"),
    ("kolmo.representations", "classify", "representations.classify"),
    ("kolmo.representations", "principal_representation",
     "representations.principal_representation"),
    ("kolmo.splines", "norms", "splines.norms"),
    ("kolmo.splines", "evaluate", "splines.evaluate"),
    ("kolmo.kolmogorov", "decide_admissible", "kolmogorov.decide_admissible"),
    ("kolmo.kolmogorov", "matching_spline", "kolmogorov.matching_spline"),
    ("kolmo.cli", "main", "cli.main"),
)
# Called too often for a span each: counted only.
COUNTED = (("kolmo.core", "moments_of", "core.moments_of"),)

NNLS = "oracle.nnls"
ORACLE = "oracle.cone_membership"
DECIDE = "kolmogorov.decide_admissible"
MATCHING = "kolmogorov.matching_spline"


class Tracer:
    """In-memory spans: [name, start, end, parent, request, ok, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._open: list[int] = []

    def _enter(self, name):
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1,
               self.request, False, None]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        rec[1] = time.perf_counter()
        return rec

    def _leave(self, rec, ok):
        rec[2] = time.perf_counter()
        rec[5] = ok
        self._open.pop()

    def spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            rec = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._leave(rec, False)
                raise
            self._leave(rec, True)
            if name == DECIDE:
                # Comparison splines of the recursion = levels that compared.
                rec[6] = sum(1 for lvl in getattr(out, "trace", ()) if lvl.lhs is not None)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def nnls(self, fn):
        """scipy's NNLS, spanned only when the oracle calls it."""

        def wrapper(A, b, *args, **kwargs):
            if not self._open or self.spans[self._open[-1]][0] != ORACLE:
                return fn(A, b, *args, **kwargs)
            rec = self._enter(NNLS)
            try:
                out = fn(A, b, *args, **kwargs)
            except BaseException:
                self._leave(rec, False)
                raise
            self._leave(rec, True)
            rows, cols = A.shape
            rec[6] = rows * cols * 8  # bytes of the matrix, computed not measured
            return out

        wrapper.__wrapped__ = fn
        return wrapper


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every binding of the traced functions; returns the patches made."""
    import scipy.optimize

    patches = []
    packages = [m for n, m in sorted(sys.modules.items())
                if (n == "kolmo" or n.startswith("kolmo.")) and m is not None]
    for table, make in ((SPANNED, tracer.spanned), (COUNTED, tracer.counted)):
        for module_name, attr, name in table:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapper = make(name, original)
            for module in packages:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original))
                        setattr(module, key, wrapper)
    patches.append((scipy.optimize, "nnls", scipy.optimize.nnls))
    scipy.optimize.nnls = tracer.nnls(scipy.optimize.nnls)
    return patches


def uninstall(patches: list[tuple]) -> None:
    for module, key, original in reversed(patches):
        setattr(module, key, original)


def layer_metrics(tracer: Tracer, calls: int) -> dict[str, float]:
    """Per-layer metrics of a traced pass, per workload call where a total."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    oracle_child = [0.0] * len(spans)
    children: dict[int, list[int]] = {}
    for i, (name, start, end, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            if name == ORACLE:
                oracle_child[parent] += end - start
            children.setdefault(parent, []).append(i)

    n = Counter()
    busy = Counter()
    self_s = Counter()
    failed = Counter()
    nnls_bytes = 0
    comparisons = 0
    comparison_s = 0.0
    witness_s = 0.0
    splines_s = 0.0
    solve_self = 0.0
    for i, (name, start, end, parent, _req, ok, extra) in enumerate(spans):
        dur = end - start
        n[name] += 1
        busy[name] += dur
        self_s[name.split(".")[0]] += dur - child_time[i]
        failed[name] += not ok
        if name == NNLS:
            nnls_bytes += extra
        elif name == "representations.solve_structure":
            solve_self += dur - oracle_child[i]
        elif name.startswith("splines.") and (
                parent < 0 or not spans[parent][0].startswith("splines.")):
            splines_s += dur
        elif name == DECIDE:
            matches = [j for j in children.get(i, ()) if spans[j][0] == MATCHING]
            # A decide that raised has no trace: count all its matching splines.
            used = matches[:extra] if extra is not None else matches
            comparisons += len(used)
            comparison_s += sum(spans[j][2] - spans[j][1] for j in used)
            witness_s += end - (spans[used[-1]][2] if used else start)

    per = 1.0 / max(calls, 1)
    solves = n["representations.solve_structure"]
    return {
        "oracle.cone_membership.calls": n[ORACLE] * per,
        "oracle.cone_membership.s": busy[ORACLE] * per,
        "oracle.nnls.calls": n[NNLS] * per,
        "oracle.nnls.s": busy[NNLS] * per,
        "oracle.nnls.bytes_computed": nnls_bytes * per,
        "representations.solve_structure.calls": solves * per,
        "representations.solve_structure.failed": failed["representations.solve_structure"] * per,
        "representations.solve_structure.useful_ratio": (
            (solves - failed["representations.solve_structure"]) / solves if solves else 0.0),
        "representations.solve_structure.self_s": solve_self * per,
        "representations.classify.s": busy["representations.classify"] * per,
        "representations.principal_representation.s": (
            busy["representations.principal_representation"] * per),
        "core.moments_of.calls": tracer.counts["core.moments_of"] * per,
        "kolmogorov.decide_admissible.calls": n[DECIDE] * per,
        "kolmogorov.decide_admissible.s": busy[DECIDE] * per,
        "kolmogorov.comparison_splines_per_decide": comparisons / n[DECIDE] if n[DECIDE] else 0.0,
        "kolmogorov.comparison.s": comparison_s * per,
        "kolmogorov.witness.s": witness_s * per,
        "kolmogorov.self_s": self_s["kolmogorov"] * per,
        "splines.norms.calls": n["splines.norms"] * per,
        "splines.evaluate.calls": n["splines.evaluate"] * per,
        "splines.s": splines_s * per,
        "cli.main.s": busy["cli.main"] * per,
        "cli.self_s": self_s["cli"] * per,
    }
