"""The bayesdecide benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py                      # all four workloads
    python3 perfbench/run.py --trace 1            # per-layer metrics, all workloads
    python3 perfbench/run.py --workload parametric --seed 7 --seconds 10 --trace 0

Each workload runs in its own fresh single-threaded interpreter
(``worker.py``) as a closed loop with one caller.  The library is
imported from ``src/`` of the checkout; nothing is built or installed.
Every result is checked against an independent oracle; the command exits
1 when a check fails and 2 when the checkout has no library to measure.

With one ``--workload`` the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  Human-readable lines come before it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

import speed
import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# set-up is sampled this many times per run (the run itself plus extra
# set-up-only interpreters) and reported as the median
SETUP_SAMPLES = 3
# reference-kernel runs that measure the host's speed around each set-up
SETUP_KERNEL_RUNS = 5
WORKER_TIMEOUT_S = 170

# metrics gated by BENCHMARK.json, reported by every workload
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))
# reported where they apply, not gated
INFORMATIONAL = (("closed_form_p50_ms", "ms"), ("numeric_p50_ms", "ms"),
                 ("replicates_per_s", "1/s"), ("fail_frac", "frac"),
                 ("wall_setup_s", "s"), ("wall_ops_per_s", "1/s"), ("wall_op_p50_ms", "ms"))


class BenchError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(workload, seed, seconds, mode, spans=None):
    """Run worker.py in a fresh interpreter; return (result, started_at)."""
    out_dir = os.path.join(HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    fd, result_path = tempfile.mkstemp(prefix=f"{workload}-{mode}-", suffix=".json",
                                       dir=out_dir)
    os.close(fd)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--root", ROOT, "--result", result_path]
    if spans:
        cmd += ["--spans", spans]
    try:
        started = time.monotonic()
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"{workload} worker ({mode}) exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        with open(result_path) as fh:
            return json.load(fh), started
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ({mode}) exceeded {WORKER_TIMEOUT_S} s")
    finally:
        os.unlink(result_path)


def _setup(workload, seed, seconds, mode):
    """One set-up: (result, wall seconds, seconds rescaled to the reference
    speed by the kernel times just before it here and during it in the
    worker).  The worker's kernel runs are not counted as set-up."""
    before = speed.burst(SETUP_KERNEL_RUNS)
    res, started = _worker(workload, seed, seconds, mode)
    wall = res["setup_done"] - started - res["setup_handler_s"]
    kernel_s = statistics.median(before + res["setup_kernel_s"])
    return res, wall, wall * speed.REFERENCE_S / kernel_s


def run_workload(workload, seed, seconds):
    res, wall, scaled = _setup(workload, seed, seconds, "run")
    walls, setups = [wall], [scaled]
    for _ in range(SETUP_SAMPLES - 1):
        _, wall, scaled = _setup(workload, seed, seconds, "setup")
        walls.append(wall)
        setups.append(scaled)
    m = res["metrics"]
    m["setup_s"] = statistics.median(setups)
    m["wall_setup_s"] = statistics.median(walls)
    res["setup_samples"] = setups
    return res


def trace_workload(workload, seed, seconds):
    spans = os.path.join(HERE, "_out", f"spans-{workload}.npz")
    return _worker(workload, seed, seconds, "trace", spans=spans)[0]


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_run(workload, res):
    m = res["metrics"]
    print(f"== {workload}: {res['attempted']} calls in {res['passes']} pass(es) of "
          f"{res['ops_per_pass']}, {res['elapsed_s']:.2f} s timed, "
          f"{res['failed']} failed, {res['documented_errors']} documented errors")
    for name, unit in END_TO_END + INFORMATIONAL:
        if name in m:
            extra = ""
            if name == "op_tail_ms":
                extra = (f"  (p{m['op_tail_percentile']:.1f} of {m['op_latencies']} op "
                         f"latencies, 10 beyond)")
            elif name in ("closed_form_p50_ms", "numeric_p50_ms"):
                extra = f"  ({m[name.replace('_p50_ms', '_count')]} ops)"
            elif name == "setup_s":
                extra = "  (median of " + ", ".join(f"{s:.3f}" for s in res["setup_samples"]) + ")"
            print(f"{workload:>10}  {name:<20} {_fmt(m[name]):>12} {unit}{extra}")
    print(f"{workload:>10}  host speed, reference kernel time over local kernel time: "
          f"p25 {m['host_speed_p25']:.3f}, p75 {m['host_speed_p75']:.3f}")
    for msg in res["messages"]:
        print(f"{workload:>10}  {msg}")


def print_trace(workload, res):
    print(f"== {workload} (traced): {res['attempted']} calls, {res['spans']} spans, "
          f"untraced {res['untraced_s']:.3f} s, traced {res['traced_s']:.3f} s, "
          f"{res['failed']} failed")
    units = dict(tracing.METRICS)
    for name, value in res["metrics"].items():
        print(f"{workload:>10}  {name:<36} {_fmt(value):>14} {units[name]}")
    top = ", ".join(f"{k} {v:.3f}" for k, v in res["import_top"].items())
    print(f"{workload:>10}  import of bayesdecide.cli, self s by package: {top}")
    for msg in res["messages"]:
        print(f"{workload:>10}  {msg}")


def info():
    """Ungated facts about the measured tree and the machine."""
    from importlib.metadata import version
    loc = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    loc += sum(1 for _ in fh)
    return (f"info: src_loc={loc} nproc={os.cpu_count()} "
            f"python={sys.version.split()[0]} numpy={version('numpy')} scipy={version('scipy')}")


def _check_checkout():
    if not os.path.isfile(os.path.join(ROOT, "src", "bayesdecide", "__init__.py")):
        raise BenchError(f"no library to measure: {ROOT}/src/bayesdecide is missing")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        _check_checkout()
        print(info())
        if args.workload == "all":
            return run_all(args)
        if args.trace:
            res = trace_workload(args.workload, args.seed, args.seconds)
            print_trace(args.workload, res)
            metrics = {name: {"value": res["metrics"][name], "unit": unit}
                       for name, unit in tracing.METRICS}
        else:
            res = run_workload(args.workload, args.seed, args.seconds)
            print_run(args.workload, res)
            metrics = {name: {"value": res["metrics"][name], "unit": unit}
                       for name, unit in END_TO_END}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # known defects count as failed ops; any other miss makes the run incorrect
    correct = res["unexpected"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Every workload; with --trace 1, twice each to compare the counts."""
    ok = True
    for w in WORKLOADS:
        if args.trace:
            first = trace_workload(w, args.seed, args.seconds)
            print_trace(w, first)
            second = trace_workload(w, args.seed, args.seconds)
            for name in tracing.DETERMINISTIC_COUNTS:
                a, b = first["metrics"][name], second["metrics"][name]
                same = a == b
                ok &= same
                print(f"{w:>10}  count {name:<28} {a} / {b} {'same' if same else 'DIFFERS'}")
            ok &= first["failed"] == 0 and second["failed"] == 0
        else:
            res = run_workload(w, args.seed, args.seconds)
            print_run(w, res)
            ok &= res["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
