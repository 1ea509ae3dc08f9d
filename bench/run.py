"""Benchmark runner for skewtent.

Run from the root of a source checkout:

    python3 bench/run.py --workload raster --seed 1 --seconds 20 --trace 0

One process, one client, a closed loop: the next task starts when the
previous one has finished and been checked.  Tasks run until their timed
time reaches ``--seconds``; oracle checks run between tasks and are not
timed.  Reported times are clock-normalised (clock.py).  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs a fixed number of rounds
untraced, replays the same tasks with the layer tracer installed, and
prints the per-layer metrics.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata

import clock

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath("src")

END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_s.p50": "s",
    "task_s.p90": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "theta.theta_eval.calls": "count",
    "theta.theta_eval.self_s": "s",
    "theta.theta_eval.refused": "count",
    "theta.theta_eval.admitted_frac": "frac",
    "theta.theta_eval.terms": "count",
    "theta.theta_grad.calls": "count",
    "theta.theta_grad.self_s": "s",
    "theta.theta_hessian.calls": "count",
    "theta.theta_hessian.self_s": "s",
    "theta.diagonal_stationary_beta.calls": "count",
    "theta.diagonal_stationary_beta.self_s": "s",
    "theta.diagonal_stationary_beta.grad_calls_per_call": "1/call",
    "theta.spec_build.self_s": "s",
    "tentmap.kneading_prefix.calls": "count",
    "tentmap.kneading_prefix.self_s": "s",
    "tentmap.kneading_prefix.symbols": "count",
    "tentmap.entropy_lap.calls": "count",
    "tentmap.entropy_lap.self_s": "s",
    "tentmap.lap_counts.pieces": "count",
    "symbolic.compare_prefix.calls": "count",
    "symbolic.compare_prefix.self_s": "s",
    "symbolic.compare.calls": "count",
    "symbolic.compare.self_s": "s",
    "symbolic.is_maximal.calls": "count",
    "symbolic.is_maximal.self_s": "s",
    "symbolic.in_class_M.calls": "count",
    "symbolic.in_class_M.self_s": "s",
    "symbolic.in_class_M.unknown": "count",
    "symbolic.in_class_M.decided_frac": "frac",
    "algebraic.compose_branch_condition.calls": "count",
    "algebraic.compose_branch_condition.self_s": "s",
    "algebraic.compose_branch_condition.monomials": "count",
    "algebraic.isolate_real_roots.calls": "count",
    "algebraic.isolate_real_roots.self_s": "s",
    "algebraic.diagonal_critical_points.calls": "count",
    "algebraic.diagonal_critical_points.self_s": "s",
    "algebraic.diagonal_critical_points.exact_frac": "frac",
    "algebraic.slope_at_diagonal.calls": "count",
    "algebraic.slope_at_diagonal.self_s": "s",
    "curves.raster.calls": "count",
    "curves.raster.self_s": "s",
    "curves.raster.pixels": "count",
    "curves.raster.nan_pixels": "count",
    "curves.write_pgm.self_s": "s",
    "curves.write_pgm.bytes": "bytes",
    "curves.write_csv.self_s": "s",
    "curves.write_csv.bytes": "bytes",
    "curves.kneading_bisect_beta.calls": "count",
    "curves.kneading_bisect_beta.self_s": "s",
    "curves.kneading_bisect_beta.steps_per_call": "1/call",
    "curves.trace_isentrope.nodes": "count",
    "curves.trace_isentrope.ok_frac": "frac",
    "curves.counterexample_scan.calls": "count",
    "curves.counterexample_scan.self_s": "s",
    "curves.counterexample_scan.theta_calls_per_root": "1/root",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "frac",
    "pixels_per_s": "1/s",
    "fail_frac": "frac",
}

PROBES = 15


def _ratio(num, den):
    return num / den if den else 0.0


def _median_wall(argv, n):
    """Median normalised wall time of n fresh processes."""
    times = []
    for _ in range(n):
        s0 = clock.scale()
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=120)
        dt = time.perf_counter() - t0
        times.append(dt * (s0 + clock.scale()) / 2)
    return statistics.median(times)


def measure_setup(workload, seed, scale, n=PROBES):
    """Median set-up time over n fresh interpreters (import of skewtent
    plus building the workload's specs, presets and input pools)."""
    argv = [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed), repr(scale)]
    samples = []
    for _ in range(n):
        s0 = clock.scale()
        proc = subprocess.run(argv, check=True, capture_output=True, text=True, timeout=120)
        setup_s = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        samples.append(setup_s * (s0 + clock.scale()) / 2)
    return statistics.median(samples)


def timed(task, log, tracer=None):
    """Run one task, timed, then its oracle, untimed.  Returns the raw and
    the normalised time (see clock.py), whether the task passed, and the
    range of spans it recorded.  A task fails when it raises or its oracle
    reports a problem; a failure never stops the run."""
    quiet = tracer.pause if tracer is not None else contextlib.nullcontext
    first_span = len(tracer.span_name) if tracer is not None else 0
    s0 = clock.scale()
    t0 = time.perf_counter()
    try:
        out = task.run()
        raised = False
    except Exception:
        raised = True
        _log(log, f"{task.kind} raised:\n{traceback.format_exc()}")
    dt = time.perf_counter() - t0
    factor = (s0 + clock.scale()) / 2
    span_range = (first_span, len(tracer.span_name) if tracer is not None else 0, factor)
    if raised:
        return dt, dt * factor, False, span_range
    try:
        with quiet():  # oracles call the library too; they record no spans
            problems = task.check(out)
    except Exception:
        problems = [f"oracle raised:\n{traceback.format_exc()}"]
    if problems:
        _log(log, f"{task.kind} failed its oracle: {problems}")
    return dt, dt * factor, not problems, span_range


class Loop:
    """What a run of tasks did: per task the normalised time and whether it
    passed; pixels written by passed tasks; span ranges when traced."""

    def __init__(self):
        self.times, self.ok, self.spans = [], [], []
        self.pixels = 0

    def add(self, task, result):
        _dt, norm, passed, span_range = result
        self.times.append(norm)
        self.ok.append(passed)
        self.spans.append(span_range)
        self.pixels += task.pixels if passed else 0

    @property
    def attempted(self):
        return len(self.ok)

    @property
    def failed(self):
        return len(self.ok) - sum(self.ok)


def drive(workload, log, seconds=None, limit=None):
    """Closed loop over the workload's task stream until the raw timed time
    reaches ``seconds`` or ``limit`` tasks have run."""
    loop = Loop()
    busy = 0.0
    stream = workload.tasks()
    while not ((seconds is not None and busy >= seconds) or (limit is not None and loop.attempted >= limit)):
        task = next(stream)
        result = timed(task, log)
        busy += result[0]
        loop.add(task, result)
    return loop


def _log(log, text):
    if log is not None and len(log) < 20:
        log.append(text)


def end_to_end(loop, setup_s, rss_mb):
    lat = [t for t, passed in zip(loop.times, loop.ok) if passed]
    return {
        "setup_s": setup_s,
        "tasks_per_s": _ratio(len(lat), sum(loop.times)),
        "task_s.p50": statistics.median(lat) if lat else 0.0,
        "task_s.p90": statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else sum(lat),
        "peak_rss_mb": rss_mb,
    }


def per_layer(summary, untraced, traced, interpreter_s, import_s):
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    out = {}
    for name in PER_LAYER:
        head, _, metric = name.rpartition(".")
        if metric == "calls":
            out[name] = calls[head]
        elif metric == "self_s":
            out[name] = self_s[head]
        else:  # a count, or a derived value filled in below
            out[name] = counts[name]
    eval_calls = calls["theta.theta_eval"]
    out.update({
        "theta.theta_eval.admitted_frac": _ratio(eval_calls - counts["theta.theta_eval.refused"],
                                                 eval_calls),
        "theta.diagonal_stationary_beta.grad_calls_per_call": _ratio(
            summary["grad_in_stationary"], calls["theta.diagonal_stationary_beta"]),
        "symbolic.in_class_M.decided_frac": _ratio(
            calls["symbolic.in_class_M"] - counts["symbolic.in_class_M.unknown"],
            calls["symbolic.in_class_M"]),
        "algebraic.diagonal_critical_points.exact_frac": _ratio(
            counts["algebraic.diagonal_critical_points.exact"],
            counts["algebraic.diagonal_critical_points.roots"]),
        "curves.kneading_bisect_beta.steps_per_call": _ratio(
            summary["probes_in_bisect"], calls["curves.kneading_bisect_beta"]),
        "curves.trace_isentrope.ok_frac": _ratio(counts["curves.trace_isentrope.ok"],
                                                 counts["curves.trace_isentrope.nodes"]),
        "curves.counterexample_scan.theta_calls_per_root": _ratio(
            summary["theta_in_scan"], counts["curves.counterexample_scan.roots"]),
        "cli.interpreter_s": interpreter_s,
        "cli.import_s": import_s,
        "trace.overhead_frac": _ratio(sum(traced.times), sum(untraced.times)) - 1,
        "pixels_per_s": _ratio(untraced.pixels, sum(untraced.times)),
        "fail_frac": _ratio(untraced.failed + traced.failed,
                            untraced.attempted + traced.attempted),
    })
    return out


def environment():
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    try:
        with open("/proc/loadavg") as fh:
            loadavg = [float(x) for x in fh.read().split()[:3]]
    except OSError:
        loadavg = None
    return {"python": platform.python_version(), "numpy": numpy_version, "commit": commit,
            "nproc": os.cpu_count(), "loadavg": loadavg}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["raster", "curves", "exact", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="size factor for rasters and traces (the smoke test uses small values)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "skewtent", "__init__.py")):
        print("bench: run from the root of a skewtent checkout (src/skewtent not found)",
              file=sys.stderr)
        return 2
    env = environment()
    sys.path.insert(0, SRC)
    import skewtent
    if not os.path.abspath(skewtent.__file__).startswith(SRC + os.sep):
        print(f"bench: imported skewtent from {skewtent.__file__}, not from ./src", file=sys.stderr)
        return 2
    import workloads

    make = workloads.WORKLOADS[args.workload]
    out_dir = os.path.join(".bench_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    log: list[str] = []
    try:
        if args.trace:
            metrics, loops = traced_run(make, args, out_dir, log)
            units = PER_LAYER
        else:
            setup_s = measure_setup(args.workload, args.seed, args.scale)
            workload = make(args.seed, args.scale, out_dir)
            loop = drive(workload, log, seconds=args.seconds)
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            rss_mb = resource.getrusage(who).ru_maxrss / 1024
            metrics = end_to_end(loop, setup_s, rss_mb)
            units = END_TO_END
            loops = [loop]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    for line in log:
        print(f"bench: {line}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "env": env, "tasks": sum(loops[-1].ok),
                      "fail_frac": _ratio(failed, attempted)}))
    for name, unit in units.items():
        print(f"{name:56s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def traced_run(make, args, out_dir, log):
    """Per-layer metrics.  Two copies of the same seeded task stream run in
    step: each task runs untraced and then, with the tracer installed, its
    twin, so both passes see the same heap state and host speed."""
    from tracer import Tracer
    import workloads

    bare = _median_wall([sys.executable, "-c", "pass"], PROBES)
    imported = _median_wall([sys.executable, "-c",
                             f"import sys; sys.path.insert(0, {SRC!r}); import skewtent"], PROBES)

    def fresh():
        wl = make(args.seed, args.scale, out_dir)
        wl.inprocess = True
        return wl

    first = fresh()
    drive(fresh(), log, limit=len(first.slots))  # warm-up round
    tracer = Tracer()
    tracer.prepare(extra_namespaces=[workloads])
    tracer.install()
    try:
        s0 = clock.scale()
        replay = fresh()
        setup_range = (0, len(tracer.span_name), (s0 + clock.scale()) / 2)
    finally:
        tracer.uninstall()
    untraced, traced = Loop(), Loop()
    plain, twins = first.tasks(), replay.tasks()
    for _ in range(len(first.slots) * max(1, round(first.trace_rounds * args.seconds / 20))):
        task = next(plain)
        untraced.add(task, timed(task, log))
        twin = next(twins)
        tracer.install()
        try:
            traced.add(twin, timed(twin, log, tracer))
        finally:
            tracer.uninstall()
    tracer.write(os.path.join(".bench_out", f"spans-{args.workload}"))
    summary = tracer.summary([setup_range] + traced.spans)
    return per_layer(summary, untraced, traced, bare, imported - bare), [untraced, traced]


if __name__ == "__main__":
    sys.exit(main())
