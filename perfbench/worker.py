"""One workload in a fresh interpreter: set up, run the closed loop, check.

Started by ``run.py``; not meant to be run by hand.  Modes:

- ``setup``: import the library and generate the inputs, then exit.  The
  parent times it from process start to ``setup_done``.
- ``run``: set up, then issue one op at a time (closed loop, one caller)
  in a fixed number of passes over the op list, about ``--seconds`` of
  work (``workloads.passes``), so every run of a seed makes the same
  calls.  Results are checked after the timed region.

In ``setup`` and ``run`` modes the reference kernel of ``speed.py``
samples the host's speed from just after numpy is imported to the end of
the timed region, and set-up and call times are rescaled by it.
- ``trace``: set up with tracing on, run one pass untraced and one pass
  traced, and report the per-layer metrics and the tracing overhead.

The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
import traceback

import numpy as np

import speed


def _fingerprint(x):
    """A bit-exact, comparable summary of a result, for repeated calls."""
    if isinstance(x, BaseException):
        return ("raised", type(x).__name__, str(x))
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape, x.tobytes())
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__,) + tuple(
            _fingerprint(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return tuple(_fingerprint(i) for i in x)
    if isinstance(x, float):
        return float.hex(x)
    return repr(x)


def _method_kind(result):
    method = getattr(result, "method", None)
    return getattr(method, "kind", None)


def _run_op(op):
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:   # classified against the op's contract below
        result = exc
    return t0, time.perf_counter(), result


def _evaluate(ops, executions):
    """Check results: oracle once per op key, byte-equal fingerprints on
    every repeat.

    Returns per-execution failure flags, the number of failures that are
    not known defects, the messages, and the count of documented errors.
    """
    first = {}
    verdict = {}
    messages = []
    failed = []
    unexpected = 0
    documented = 0
    for idx, _t0, _t1, result in executions:
        op = ops[idx]
        raised = isinstance(result, BaseException)
        fp = (_fingerprint if raised or not op.fingerprint else op.fingerprint)(result)
        if op.key not in first:
            first[op.key] = fp
            if raised:
                ok = isinstance(result, op.accepted)
                msg = None if ok else "raised " + "".join(
                    traceback.format_exception_only(type(result), result)).strip()
            else:
                try:
                    msg = op.check(result)
                except Exception as exc:
                    msg = f"check failed on the result: {exc!r}"
            verdict[op.key] = msg
            if msg:
                tag = f"known defect ({op.known_defect})" if op.known_defect else "MISS"
                messages.append(f"{tag} {op.key}: {msg}")
        bad = verdict[op.key] is not None
        if fp != first[op.key]:
            bad = True
            messages.append(f"MISS {op.key}: result differs between repeated calls")
            unexpected += 1
        elif bad and not op.known_defect:
            unexpected += 1
        if raised and not bad:
            documented += 1
        failed.append(bad)
    return failed, unexpected, messages, documented


def _pass(ops, tracer=None):
    out = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        out.append((i,) + _run_op(op))
    return out


def _tail(lat):
    """Latency at the highest percentile with at least 10 ops beyond it."""
    s = sorted(lat)
    i = max(0, len(s) - 11)
    return s[i], 100.0 * (i + 1) / len(s)


def _summarise(ops, executions, probe):
    """Metrics from the rescaled call times (see speed.py), plus the raw
    wall-clock figures and the host speed, which are printed only.

    Throughput counts every call.  Latency percentiles are over op
    latencies: one per op and pass, the median of its calls in the pass
    (an op that takes milliseconds is called several times in a pass).
    """
    own, scaled = zip(*(probe.rescale(e[1], e[2], ops[e[0]].in_process)
                        for e in executions))
    factor = np.array(scaled) / np.array(own)
    failed, unexpected, messages, documented = _evaluate(ops, executions)
    groups = {}
    for k, e in enumerate(executions):
        groups.setdefault((k // len(ops), id(ops[e[0]])), []).append(k)
    lat, own_lat = [], []
    by_kind = {"closed_form": [], "numeric": []}
    for ks in groups.values():
        lat.append(statistics.median(scaled[k] for k in ks))
        own_lat.append(statistics.median(own[k] for k in ks))
        kind = _method_kind(executions[ks[0]][3])
        if kind in by_kind:
            by_kind[kind].append(lat[-1])
    tail, pct = _tail(lat)
    busy = sum(scaled)
    reps = sum(ops[e[0]].replicates for e in executions)
    m = {
        "ops_per_s": len(executions) / busy,
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail,
        "op_tail_percentile": pct,
        "op_latencies": len(lat),
        "fail_frac": sum(failed) / len(executions),
        "wall_ops_per_s": len(executions) / sum(own),
        "wall_op_p50_ms": 1e3 * statistics.median(own_lat),
        "host_speed_p25": float(np.quantile(factor, 0.25)),
        "host_speed_p75": float(np.quantile(factor, 0.75)),
    }
    for kind, values in by_kind.items():
        if values:
            m[f"{kind}_p50_ms"] = 1e3 * statistics.median(values)
            m[f"{kind}_count"] = len(values)
    if reps:
        m["replicates_per_s"] = reps / busy
    return m, sum(failed), unexpected, messages, documented


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    tracer = probe = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
    else:
        probe = speed.Probe()
        probe.start()

    import bayesdecide as bd
    src = os.path.join(args.root, "src")
    if not os.path.abspath(bd.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"bayesdecide was imported from {bd.__file__}, not from {src}")
    if tracer is not None and args.workload == "cli":
        import bayesdecide.cli  # noqa: F401  (verbs run in-process when traced)
    import workloads

    work_root = os.path.join(args.root, "perfbench", "_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        if tracer is not None:
            tracer.install(bd)
        ops = workloads.build(args.workload, bd, args.seed, workdir,
                              in_process=tracer is not None)
        if tracer is not None:
            tracer.uninstall()
        setup_done = time.monotonic()
        result = {"setup_done": setup_done, "ops_per_pass": len(ops)}
        if probe is not None:
            # the kernel times so far, to rescale the set-up time with
            result["setup_kernel_s"] = list(probe.dur)
            result["setup_handler_s"] = sum(probe.dur)
        if args.mode == "run":
            result.update(_timed(ops, args, probe))
        elif args.mode == "trace":
            result.update(_traced(ops, args, tracer, bd))
    finally:
        if probe is not None:
            probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


def _timed(ops, args, probe):
    import workloads

    executions = []
    passes = workloads.passes(args.workload, args.seconds)
    t_start = time.perf_counter()
    for _ in range(passes):
        executions.extend(_pass(ops))
    elapsed = time.perf_counter() - t_start
    # one more window of kernel times after the last call
    time.sleep(speed.WINDOW_S)
    probe.stop()
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics, failed, unexpected, messages, documented = _summarise(ops, executions, probe)
    metrics["peak_rss_mb"] = rss_kb / 1024.0
    return {"metrics": metrics, "attempted": len(executions), "failed": failed,
            "unexpected": unexpected, "messages": messages[:20],
            "documented_errors": documented,
            "passes": passes, "elapsed_s": elapsed}


def _traced(ops, args, tracer, bd):
    import tracing

    t0 = time.perf_counter()
    _pass(ops)
    untraced = time.perf_counter() - t0
    tracer.install(bd)
    t0 = time.perf_counter()
    executions = _pass(ops, tracer)
    traced = time.perf_counter() - t0
    tracer.uninstall()
    failed, unexpected, messages, _ = _evaluate(ops, executions)
    import_s, import_top = tracing.import_time(os.path.join(args.root, "src"))
    metrics = tracer.metrics(traced - untraced, import_s)
    if args.spans:
        np.savez(args.spans, **tracer.spans())
    return {"metrics": metrics, "attempted": len(executions), "failed": sum(failed),
            "unexpected": unexpected, "messages": messages[:20], "untraced_s": untraced, "traced_s": traced,
            "import_top": import_top, "spans": len(tracer.start)}


if __name__ == "__main__":
    main()
