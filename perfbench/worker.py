"""One pass of one workload, in a fresh interpreter.

    python perfbench/worker.py --workload W --seed S --setup --launched-at T
        import kolmo, make one warm-up call of the workload's kind, print
        "ready" and the seconds since T (a time.time() stamp) and exit: one
        sample of the set-up time.
    python perfbench/worker.py --workload W --seed S --calls N --max-seconds T [--trace]
        make the workload's first N calls as a closed loop (one caller, one
        call at a time), stopping early only after T seconds, then check
        every output outside the timed region and print one JSON summary.

``run.py`` starts this script; it imports kolmo from the ``src`` directory of
the checkout that holds it.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import kolmo  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

# Oracle residuals: at or below FEASIBLE the oracle says "in the cone", above
# INFEASIBLE it says "outside"; in between it decides nothing.
ORACLE_FEASIBLE = 1e-7
ORACLE_INFEASIBLE = 1e-4
WITNESS_RTOL = 1e-6
PRINCIPAL_RTOL = 1e-6
ADMISSIBLE = ("admissible_interior", "admissible_boundary")


def _problem(doc):
    k = kolmo.ExponentVector(tuple(doc["k"]), doc["r"])
    family = kolmo.FunctionFamily(kolmo.Family(doc["family"]), doc["r"])
    return kolmo.NormVector(tuple(doc["M"]), k, family)


def _moments(doc):
    return kolmo.MomentVector(tuple(doc["c"]), kolmo.ExponentVector(tuple(doc["k"]), gen.MOMENT_R))


def _run_cli(cli, argv, stdin_text):
    """``kolmo.cli.main`` in-process, stdin and stdout swapped for strings."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


def _sweep_argv(line):
    return ["sweep", "--component", "1", "--from", repr(line["from"]),
            "--to", repr(line["to"]), "--steps", str(line["steps"])]


# --- one call per workload; each returns a JSON-able output -----------------

def _failure(exc):
    """A typed library error, or a crash outside kolmo's error contract."""
    key = "error" if isinstance(exc, kolmo.KolmoError) else "crash"
    return {key: type(exc).__name__}


def call_decide(item):
    M = _problem(item)
    t0 = time.perf_counter()
    try:
        result = kolmo.decide_admissible(M)
    except Exception as exc:  # every outcome is recorded; crashes fail the run
        return time.perf_counter() - t0, _failure(exc)
    dt = time.perf_counter() - t0
    witness = None if result.witness is None else _witness_doc(result.witness)
    return dt, {"status": result.status.value, "witness": witness}


def call_sweep(line):
    argv = _sweep_argv(line)
    text = json.dumps(line["problem"])
    t0 = time.perf_counter()
    try:
        rc, csv = _run_cli(kolmo.cli, argv, text)
    except Exception as exc:  # every outcome is recorded; crashes fail the run
        return time.perf_counter() - t0, _failure(exc)
    return time.perf_counter() - t0, {"rc": rc, "csv": csv}


def call_moments(item):
    c = _moments(item)
    t0 = time.perf_counter()
    try:
        if item["call"] == "classify":
            out = {"kind": kolmo.classify(c).kind.value}
        else:
            rep = kolmo.principal_representation(c)
            out = {"nodes": list(rep.nodes), "weights": list(rep.weights)}
    except Exception as exc:  # every outcome is recorded; crashes fail the run
        return time.perf_counter() - t0, _failure(exc)
    return time.perf_counter() - t0, out


CALLS = {"decide-mixed": call_decide, "sweep-cli": call_sweep,
         "moments-spread": call_moments}


def warm_up(workload):
    """One call of the workload's kind on the README example."""
    doc = gen.README_TUPLE
    if workload == "decide-mixed":
        kolmo.decide_admissible(_problem(doc))
    elif workload == "sweep-cli":
        line = {"problem": doc, "from": 0.5, "to": 2.0, "steps": 3}
        _run_cli(kolmo.cli, _sweep_argv(line), json.dumps(doc))
    else:
        kolmo.classify(_moments({"k": [0, 1, 2], "c": [2.0, 3.0, 5.0]}))


# --- references, run after the timed region ---------------------------------

def moment_coordinates(doc):
    """AM: c = M; MM: c_i = (r - k_i)! M_i."""
    if doc["family"] == "am":
        return list(doc["M"])
    return [v * math.factorial(doc["r"] - k) for v, k in zip(doc["M"], doc["k"])]


def oracle_verdict(doc):
    """'in', 'out', or None inside the oracle's margin.

    The oracle's residual is an absolute least-squares error, so on a vector
    whose coordinates span twenty decades it reads 1e-16 for points far
    outside the cone. The cone is invariant under c_i -> lam * s**k_i * c_i
    (lam, s > 0: mass and node scaling), so the oracle is asked about the
    equivalent point whose first and last coordinates are equal and whose
    largest is 1.
    """
    ks = doc["k"]
    c = moment_coordinates(doc)
    s = (c[0] / c[-1]) ** (1.0 / (ks[-1] - ks[0])) if len(ks) > 1 else 1.0
    c = [v * s ** k for v, k in zip(c, ks)]
    top = max(c)
    c = kolmo.MomentVector(tuple(v / top for v in c),
                           kolmo.ExponentVector(tuple(ks), doc["r"]))
    residual = kolmo.cone_membership(c).residual
    if residual <= ORACLE_FEASIBLE:
        return "in"
    if residual > ORACLE_INFEASIBLE:
        return "out"
    return None


def _close(got, want, rtol):
    return len(got) == len(want) and all(
        abs(g - w) <= rtol * max(abs(w), abs(g)) for g, w in zip(got, want))


def witness_reproduces(witness, doc):
    """A witness whose norms, by the closed formula, match the tuple to 1e-6."""
    return _close(gen.spline_norms(witness, doc["k"]), doc["M"], WITNESS_RTOL)


def _witness_doc(w):
    return {"family": w.family.kind.value, "r": w.family.r, "knots": list(w.knots),
            "weights": list(w.weights), "constant": w.constant}


def _failed_call(out):
    if "crash" in out:
        return "crash_" + out["crash"]
    if "error" in out:
        return "error_" + out["error"]
    return None


def check_not_admissible(doc):
    """A 'not_admissible' verdict must not sit where the oracle finds a measure."""
    oracle = oracle_verdict(doc)
    if oracle == "in":
        return "oracle_says_in"
    return "ok" if oracle == "out" else "ok_oracle_undecided"


def check_decide(item, out):
    """An admissible verdict is proved by its witness; the oracle judges the rest."""
    if _failed_call(out):
        return [_failed_call(out)]
    if out["status"] in ADMISSIBLE:
        return ["ok" if witness_reproduces(out["witness"], item) else "witness_mismatch"]
    if item["attainable"]:
        return ["attainable_judged_not_admissible"]
    return [check_not_admissible(item)]


def check_sweep_row(point, status):
    if status == "error":
        return "error_row"
    if status not in ADMISSIBLE:
        return check_not_admissible(point)
    oracle = oracle_verdict(point)
    if oracle != "out":
        return "ok" if oracle == "in" else "ok_oracle_undecided"
    # The CSV drops the witness. The oracle's grid ends at 1e-6 of its largest
    # node, so it misses measures that need smaller nodes and can say "out"
    # where a spline attains the tuple: decide again and check that witness.
    try:
        result = kolmo.decide_admissible(_problem(point))
    except kolmo.KolmoError:
        return "oracle_says_out"
    if result.witness is not None and witness_reproduces(_witness_doc(result.witness), point):
        return "ok_witness_over_oracle"
    return "oracle_says_out"


def check_sweep(line, out):
    """One outcome per sweep point (CSV row)."""
    steps = line["steps"]
    if _failed_call(out):
        return [_failed_call(out)] * steps
    rows = out["csv"].strip().split("\n")
    if out["rc"] != 0 or rows[0] != "M,status" or len(rows) != steps + 1:
        return [f"cli_exit_{out['rc']}"] * steps
    outcomes = []
    for row in rows[1:]:
        value, status = row.split(",")
        point = dict(line["problem"], M=[float(value)] + line["problem"]["M"][1:])
        outcomes.append(check_sweep_row(point, status))
    return outcomes


def check_moments(item, out):
    if _failed_call(out):
        return [_failed_call(out)]
    if item["call"] == "classify":
        return ["ok" if out["kind"] == item["truth"] else
                f"{item['truth']}_classified_{out['kind']}"]
    ok = (_close(out["nodes"], item["nodes"], PRINCIPAL_RTOL)
          and _close(out["weights"], item["weights"], PRINCIPAL_RTOL))
    return ["ok" if ok else "principal_not_recovered"]


CHECKS = {"decide-mixed": check_decide, "sweep-cli": check_sweep,
          "moments-spread": check_moments}


def call_kind(workload, item):
    if workload == "decide-mixed":
        return "decide"
    if workload == "sweep-cli":
        return "line"
    return item["call"]


# --- the pass ---------------------------------------------------------------

def run_pass(workload, seed, calls, max_seconds, tracer=None):
    """Closed loop over the workload's first calls.

    Returns the items, the seconds of each call, the outputs, and one speed
    sample taken before each call, outside its timing.
    """
    call = CALLS[workload]
    items, latencies, outputs, speeds = [], [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        for item in gen.ROUNDS[workload](seed, index):
            if len(items) >= calls or time.perf_counter() - start >= max_seconds:
                return items, latencies, outputs, speeds
            speeds.append(speed.sample())
            if tracer is not None:
                tracer.request = len(items)
            dt, out = call(item)
            items.append(item)
            latencies.append(dt)
            outputs.append(out)
        index += 1


def summarize(workload, items, latencies, outputs, speeds):
    check = CHECKS[workload]
    outcomes = [check(item, out) for item, out in zip(items, outputs)]
    digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
    return {
        "kinds": [call_kind(workload, item) for item in items],
        "latencies": latencies,
        "speed_samples": speeds,
        "outcomes": outcomes,
        "digest": digest,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--calls", type=int, default=1)
    parser.add_argument("--max-seconds", type=float, default=math.inf)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--launched-at", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="write the spans here as JSON")
    args = parser.parse_args(argv)

    if args.workload == "sweep-cli":
        import kolmo.cli  # noqa: F401  (binds kolmo.cli, which call_sweep runs)

    warm_up(args.workload)
    if args.setup:
        print("ready", time.time() - args.launched_at)
        return 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        patches = spans.install(tracer)
    items, latencies, outputs, speeds = run_pass(
        args.workload, args.seed, args.calls, args.max_seconds, tracer)
    layers = None
    if tracer is not None:
        spans.uninstall(patches)
        layers = spans.layer_metrics(tracer, len(items))
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.spans))
    summary = summarize(args.workload, items, latencies, outputs, speeds)
    summary["layers"] = layers
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
