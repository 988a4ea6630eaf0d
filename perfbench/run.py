"""The kolmo benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload decide-mixed --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; kolmo is imported from its ``src``
directory. ``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer ones. stdout gets a run record line, a line with the metrics under
their per-workload names, and last the result object. See README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS thread in every process the benchmark starts (nproc is 2 on the
# reference machine): a single caller gains nothing from more, and extra
# threads only add contention noise.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy  # noqa: E402  (after the thread settings)
import scipy  # noqa: E402
from scipy.special import betainc  # noqa: E402

import gen  # noqa: E402
import speed  # noqa: E402

# A run makes a fixed number of calls: --seconds times the calls per second
# this workload makes on the reference machine (2 CPUs, numpy 2.4.6, scipy
# 1.17.1). A parent and a change then time the same calls on the same
# inputs, where a time-bounded loop would hand the faster one more, and
# different, inputs. A pass stops early only after OVERRUN x --seconds, to
# stay within the time a run may take.
CALLS_PER_SECOND = {"decide-mixed": 2.0, "sweep-cli": 2.2, "moments-spread": 3.0}
OVERRUN = 3.0

# Set-up and cold-CLI samples per run, half before the pass and half after,
# each scaled by the machine's speed just around it (see speed.py): a fresh
# interpreter's start time wandered by a factor of 1.8 within 25 seconds on
# the reference machine.
PROBE_SAMPLES = 6
IMPORT_SAMPLES = 3
# The tail percentile: the highest with at least ten samples beyond it at the
# fewest calls a 25-second run of any workload makes (50, on decide-mixed).
TAIL_PERCENTILE = 80
PROBE_TIMEOUT = 60
PASS_TIMEOUT = 150


class BenchError(Exception):
    """The benchmark could not run: no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def worker_cmd(workload, seed, *extra) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), *extra]


# --- probes in fresh interpreters --------------------------------------------

def setup_sample(workload, seed) -> float:
    """Launch to "import kolmo done plus one warm-up call", in seconds.

    The worker reports the time since the launch stamp it is given, taken on
    the same clock just before the launch.
    """
    cmd = worker_cmd(workload, seed, "--setup", "--launched-at", repr(time.time()))
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT)
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise BenchError(f"set-up probe failed (exit {proc.returncode}):\n"
                         + proc.stderr[-2000:])
    return float(words[1])


def cli_cold_sample() -> tuple[float, bool]:
    """A fresh ``python -m kolmo.cli decide`` on the README tuple."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "kolmo.cli", "decide"], cwd=ROOT,
                          env=child_env(), input=json.dumps(gen.README_TUPLE), capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT)
    elapsed = time.perf_counter() - t0
    try:
        ok = proc.returncode == 0 and json.loads(proc.stdout)["status"] == gen.README_STATUS
    except (ValueError, KeyError, TypeError):
        ok = False
    return elapsed, ok


def import_sample() -> dict[str, float]:
    """Import times, from ``python -X importtime`` importing kolmo.cli."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import kolmo.cli"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError("import probe failed:\n" + proc.stderr[-2000:])
    cumulative: dict[str, float] = {}
    kolmo_self = 0.0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = (part.strip() for part in line[12:].split("|"))
        if not self_us.isdigit():
            continue  # the header line
        cumulative[name] = int(cum_us) * 1e-6
        if name == "kolmo" or name.startswith("kolmo."):
            kolmo_self += int(self_us) * 1e-6
    return {
        "import.kolmo_s": cumulative.get("kolmo", 0.0),
        "import.kolmo.cli_s": cumulative.get("kolmo.cli", 0.0),
        "import.scipy.optimize_s": cumulative.get("scipy.optimize", 0.0),
        "import.kolmo.self_s": kolmo_self,
    }


def run_worker(workload, seed, *extra) -> dict:
    proc = subprocess.run(worker_cmd(workload, seed, *extra), cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=PASS_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"workload pass failed (exit {proc.returncode}):\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- statistics -------------------------------------------------------------

def percentile(values, q) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A beta-weighted mean of all order statistics. This workload's costs
    cluster (1 ms, 30 ms, 1 s), so a plain sample percentile jumps by a third
    when two neighbouring calls swap places; this estimate moves a little.
    """
    xs = numpy.sort(values)
    n = len(xs)
    if n == 0:
        return math.nan
    a, b = (n + 1) * q / 100.0, (n + 1) * (1.0 - q / 100.0)
    weights = numpy.diff(betainc(a, b, numpy.arange(n + 1) / n))
    return float(weights @ xs)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (p50 at least)."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n))) if n > 0 else 50


def geometric_mean(values) -> float:
    return float(numpy.exp(numpy.mean(numpy.log(values))))


def latency_stats(latencies, unit_scale, prefix, unit) -> dict:
    """p50 and adaptive tail of one call kind, with the sample count."""
    n = len(latencies)
    q = tail_percentile(n)
    return {
        f"{prefix}_p50_{unit}": {"value": percentile(latencies, 50) * unit_scale, "unit": unit},
        f"{prefix}_tail_{unit}": {"value": percentile(latencies, q) * unit_scale, "unit": unit,
                                  "percentile": q, "samples": n},
    }


def failure_counts(outcomes) -> tuple[int, int, Counter]:
    """(attempted, failed, outcome counts) over the checked units."""
    flat = [o for per_call in outcomes for o in per_call]
    counts = Counter(flat)
    failed = sum(v for k, v in counts.items() if not k.startswith("ok"))
    return len(flat), failed, counts


def crashed(counts: Counter) -> bool:
    return any(k.startswith("crash_") for k in counts)


def local_seconds(summary) -> list[float]:
    """Each call's time over the machine's speed around it.

    The worker takes a speed sample before every call, so samples i and i+1
    bracket call i; the median of samples i-1..i+2 follows the host's drift
    through the run, which matters for the calls that take seconds.
    """
    samples = summary["speed_samples"]
    return [t / speed.factor(samples[max(0, i - 1):i + 3])
            for i, t in enumerate(summary["latencies"])]


def detail_metrics(workload, summary) -> dict:
    """Every end-to-end metric under its per-workload name."""
    lat = local_seconds(summary)
    kinds = summary["kinds"]
    attempted, failed, _ = failure_counts(summary["outcomes"])
    frac = {"value": failed / attempted, "unit": "ratio",
            "attempted": attempted, "failed": failed}
    if workload == "decide-mixed":
        out = latency_stats(lat, 1e3, "decide", "ms")
        out["decides_per_s"] = {"value": len(lat) / sum(lat), "unit": "1/s"}
        out["decide_fail_frac"] = frac
        return out
    if workload == "sweep-cli":
        out = latency_stats(lat, 1.0, "sweep_line", "s")
        out["sweep_points_per_s"] = {"value": attempted / sum(lat), "unit": "1/s"}
        out["sweep_fail_frac"] = frac
        return out
    out = {}
    for kind in ("classify", "principal"):
        out.update(latency_stats([t for t, k in zip(lat, kinds) if k == kind], 1e3, kind, "ms"))
    principal = [o for o, k in zip(summary["outcomes"], kinds) if k == "principal"]
    out["principal_recovered_frac"] = {
        "value": sum(o == ["ok"] for o in principal) / max(len(principal), 1),
        "unit": "ratio", "attempted": len(principal)}
    out["moments_fail_frac"] = frac
    return out


# --- run record ---------------------------------------------------------------

def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT)
    except OSError:
        return "unknown: git not available"
    return proc.stdout.strip() or "unknown"


def run_record(workload, seed, seconds, trace) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "git_sha": git_sha(),
    }


# --- the two kinds of run -----------------------------------------------------

def measured_pass(workload, seed, seconds, *extra) -> dict:
    calls = max(1, round(seconds * CALLS_PER_SECOND[workload]))
    return run_worker(workload, seed, "--calls", str(calls),
                      "--max-seconds", str(OVERRUN * seconds), *extra)


def around(probe):
    """The probe's result and the speed factor of samples just before and after it."""
    before = [speed.sample(), speed.sample()]
    out = probe()
    return out, speed.factor(before + [speed.sample(), speed.sample()])


def probes(workload, seed, count, setup, cold):
    for _ in range(count):
        seconds, factor = around(lambda: setup_sample(workload, seed))
        setup.append(seconds / factor)
        (seconds, ok), factor = around(cli_cold_sample)
        cold.append((seconds / factor, ok))


def end_to_end(workload, seed, seconds):
    setup, cold = [], []
    probes(workload, seed, PROBE_SAMPLES // 2, setup, cold)
    summary = measured_pass(workload, seed, seconds)
    probes(workload, seed, PROBE_SAMPLES - PROBE_SAMPLES // 2, setup, cold)
    # Every time below is in reference-machine seconds (see speed.py).
    lat = local_seconds(summary)
    attempted, failed, counts = failure_counts(summary["outcomes"])
    cli_ok = all(ok for _, ok in cold)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "cli_cold_s": {"value": statistics.median(t for t, _ in cold), "unit": "s"},
        "p50_ms": {"value": percentile(lat, 50) * 1e3, "unit": "ms"},
        "tail_ms": {"value": percentile(lat, TAIL_PERCENTILE) * 1e3, "unit": "ms"},
        "gmean_ms": {"value": geometric_mean(lat) * 1e3, "unit": "ms"},
        "ops_per_s": {"value": attempted / sum(lat), "unit": "1/s"},
        "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
    }
    detail = detail_metrics(workload, summary)
    detail["setup_s"] = metrics["setup_s"]
    detail["cli_cold_s"] = metrics["cli_cold_s"]
    detail["outcomes"] = dict(sorted(counts.items()))
    detail["calls"] = len(lat)
    detail["cli_cold_ok"] = cli_ok
    detail["speed_factor"] = speed.factor(summary["speed_samples"])
    correct = cli_ok and not crashed(counts)
    return correct, attempted, failed, metrics, detail


def traced(workload, seed, seconds):
    imports = []
    for _ in range(IMPORT_SAMPLES):
        times, factor = around(import_sample)
        imports.append({name: value / factor for name, value in times.items()})
    plain = measured_pass(workload, seed, seconds / 2)
    n = len(plain["latencies"])
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-{seed}.json"
    spanned = run_worker(workload, seed, "--calls", str(n), "--max-seconds", "inf",
                         "--trace", "--spans", str(spans_path))
    attempted, failed, counts = failure_counts(spanned["outcomes"])
    # The tracer must not change a single output.
    same = spanned["digest"] == plain["digest"]
    # Times in reference-machine seconds (see speed.py).
    factor = speed.factor(spanned["speed_samples"])
    untraced_s = sum(local_seconds(plain))
    traced_s = sum(local_seconds(spanned))
    metrics = {name: {"value": statistics.median(s[name] for s in imports), "unit": "s"}
               for name in imports[0]}
    for name, value in spanned["layers"].items():
        unit = layer_unit(name)
        metrics[name] = {"value": value / factor if unit == "s/call" else value, "unit": unit}
    metrics["trace.calls"] = {"value": n, "unit": "count"}
    metrics["trace.untraced_s"] = {"value": untraced_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    detail = {"outcomes": dict(sorted(counts.items())), "traced_equals_untraced": same,
              "spans_file": str(spans_path.relative_to(ROOT)), "speed_factor": factor}
    return same and not crashed(counts), attempted, failed, metrics, detail


def layer_unit(name: str) -> str:
    if name.endswith("useful_ratio") or name.endswith("_per_decide"):
        return "ratio"
    if name.endswith("bytes_computed"):
        return "bytes/call"
    if name.endswith(".calls") or name.endswith(".failed"):
        return "count/call"
    return "s/call"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kolmo" / "__init__.py").is_file():
        print(f"error: no kolmo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    record = run_record(args.workload, args.seed, args.seconds, args.trace)
    run = traced if args.trace else end_to_end
    try:
        correct, attempted, failed, metrics, detail = run(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"run_record": record}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
