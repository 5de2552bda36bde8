"""Benchmark for quatrev: four workloads run against the library and the CLI.

BENCHMARK.json gates sweep, ladder and third-party; cli is run by hand (see
bench/README.md for why).

Usage (from the repository root):

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced replay.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  Each run also writes its
result, with an environment stamp, to .bench_out/ (and, when traced, its
spans as JSON lines).  See bench/README.md.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

WORKLOADS = ("sweep", "ladder", "third-party", "cli")
IMPORT_ROUNDS = 10    # set-up is timed as the minimum of several rounds
BUILD_ROUNDS = 3
TAIL_BEYOND = 10
# the tail latency needs TAIL_BEYOND samples beyond it and must not fall
# below the median
MIN_OPS = 2 * TAIL_BEYOND + 2

# A run times the calibration task (see calibrate.py) right after every
# operation and before every set-up round, and scales each timing by the
# task's times nearby: those taken within CALIBRATION_SPAN_S of the
# operation (so at least the ones just before and after it; the host's speed
# changes within seconds, and wider spans tracked it less well), or in the
# set-up round.
CALIBRATION_SPAN_S = 0.5
CALIBRATIONS_PER_ROUND = 3


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def cold_import_seconds(module, scaled=True):
    """Import `module` in a fresh interpreter; return the time the import
    took there, scaled to the reference host unless `scaled` is false."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "calibrate.py"), module,
         str(CALIBRATIONS_PER_ROUND)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=120, check=True)
    raw, on_reference = map(float, done.stdout.split())
    return on_reference if scaled else raw


def min_of(fn, rounds):
    return min(fn() for _ in range(rounds))


def cold_interpreter_seconds():
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=child_env(),
                   timeout=120, check=True)
    return time.perf_counter() - start


def build_round(fn):
    """Run fn() after CALIBRATIONS_PER_ROUND calibrations; return what it
    returns and its time scaled to the reference host."""
    samples = [calibrate.task_seconds()
               for _ in range(CALIBRATIONS_PER_ROUND)]
    start = time.perf_counter()
    value = fn()
    return value, (time.perf_counter() - start) * calibrate.scale(samples)


def environment(workload, seed):
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": commit, "seed": seed, "workload": workload}


class Phase:
    """Outcome of one timed phase."""

    def __init__(self):
        self.begin_s = 0.0       # program time of begin()
        self.starts: list[float] = []
        self.latencies: list[float] = []
        # one calibration right after each operation, and when it started
        self.calibrations: list[float] = []
        self.calibrated_at: list[float] = []
        self.failed = 0
        self.problems: list[str] = []

    @property
    def busy(self):
        return self.begin_s + sum(self.latencies)

    @property
    def ops_per_s(self):
        return len(self.latencies) / self.busy

    def reference_scales(self):
        """For each operation, the factor that brings its timings to the
        reference host."""
        at, span = self.calibrated_at, CALIBRATION_SPAN_S
        return [calibrate.scale(self.calibrations[
            bisect.bisect_left(at, start - span):
            bisect.bisect_right(at, start + t + span)])
            for start, t in zip(self.starts, self.latencies)]


def run_phase(wl, inputs, seed, tr, budget=None, n_ops=None):
    """Run exactly `n_ops` operations, or else for `budget` seconds: until
    that much program time has passed (at least MIN_OPS), or, for a workload
    with a `pass_seconds`, a fixed number of whole passes that take about
    that long, so that what such a run does, failures included, depends
    only on the seed and the budget."""
    ph = Phase()
    start = time.perf_counter()
    stream, ph.problems = wl.begin(inputs, seed, tr)
    ph.begin_s = time.perf_counter() - start
    if n_ops is None and wl.pass_seconds:
        n_ops = len(stream) * max(1, round(budget / wl.pass_seconds))
    busy = ph.begin_s
    i = 0
    while True:
        if n_ops is not None:
            if i >= n_ops:
                break
        elif busy >= budget and i >= MIN_OPS:
            break
        item = stream[i % len(stream)]
        tr.op_id = i
        start = time.perf_counter()
        ph.starts.append(start)
        try:
            with tr.span("op"):
                result = wl.run_op(item, tr)
        except Exception as exc:  # every unexpected error is a failed op
            result = exc
        elapsed = time.perf_counter() - start
        tr.op_id = None
        busy += elapsed
        ph.latencies.append(elapsed)
        ph.calibrated_at.append(time.perf_counter())
        ph.calibrations.append(calibrate.task_seconds())
        i += 1
        if isinstance(result, Exception):
            ph.failed += 1
            ph.problems.append(f"op {i - 1}: {type(result).__name__}: "
                               f"{result}")
            continue
        failed, wrong = wl.check(item, result, tr)
        ph.failed += failed
        if wrong:
            ph.problems.append(f"op {i - 1}: wrong output")
        if tr.enabled:
            tr.op_id = i - 1
            wl.probe(item, result, tr)
            tr.op_id = None
    return ph


def end_to_end(ph, setup_s, maxrss_kb):
    """Every end-to-end metric; timings are on the reference host."""
    scales = ph.reference_scales()
    lat = [t * k for t, k in zip(ph.latencies, scales)]
    begin_s = ph.begin_s * scales[0]
    n = len(lat)
    tail = sorted(lat)[n - 1 - TAIL_BEYOND]
    values = {
        "setup_s": setup_s,
        "ops_per_s": n / (begin_s + sum(lat)),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail * 1e3,
        "ok_ratio": (n - ph.failed) / n,
        "peak_rss_mb": maxrss_kb / 1024,
    }
    host = statistics.median(ph.calibrations) / calibrate.REF_S
    note = (f"op_tail_ms is p{100 * (n - TAIL_BEYOND) / n:.1f} of {n} "
            f"samples; the reference task ran {host:.3f} times as long as "
            "on the reference host")
    return {m["name"]: (values[m["name"]], m["unit"])
            for m in SPEC["end_to_end"]}, note


def per_layer(values):
    """Every per-layer metric, read from the tracer's values (raw seconds);
    a layer the workload does not exercise reads 0."""
    return {m["name"]: (values.get(m["name"], 0), m["unit"])
            for m in SPEC["per_layer"]}


def run_all(args):
    """Run every workload in its own process, one after another; exit 1
    unless each printed a correct result."""
    ok = True
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True)
        print(done.stdout, end="")
        print(done.stderr, end="", file=sys.stderr)
        lines = done.stdout.splitlines()
        ok = ok and done.returncode == 0 and bool(lines) and json.loads(
            lines[-1])["correct"]
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "quatrev" / "__init__.py").is_file():
        print(f"error: no quatrev sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quatrev
    if Path(quatrev.__file__).resolve().parent != SRC / "quatrev":
        print(f"error: imported quatrev from {quatrev.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from spans import NullTracer, Tracer

    wl = {"sweep": workloads.Sweep, "ladder": workloads.Ladder,
          "third-party": workloads.ThirdParty}.get(args.workload)
    wl = wl() if wl else workloads.Cli(ROOT, child_env())
    tr = Tracer() if args.trace else NullTracer()
    untraced = NullTracer()

    import_s = min_of(lambda: cold_import_seconds("quatrev"), IMPORT_ROUNDS)
    build_s = []
    for r in range(BUILD_ROUNDS):
        inputs, elapsed = build_round(
            lambda: wl.build(args.seed, tr if r == BUILD_ROUNDS - 1 else
                             untraced))
        build_s.append(elapsed)
    setup_s = import_s + min(build_s)
    # the inputs live through the run: keep them out of the collector's scans
    gc.collect()
    gc.freeze()

    if not args.trace:
        ph = run_phase(wl, inputs, args.seed, untraced, budget=args.seconds)
        maxrss_kb = (wl.maxrss_kb if args.workload == "cli" else
                     resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        metrics, note = end_to_end(ph, setup_s, maxrss_kb)
        phases = [ph]
    else:
        base = run_phase(wl, inputs, args.seed, untraced,
                         budget=args.seconds / 2)
        ph = run_phase(wl, inputs, args.seed, tr, n_ops=len(base.latencies))
        tr.values.update({
            "cli.interp_s": min_of(cold_interpreter_seconds, IMPORT_ROUNDS),
            "cli.import_s": min_of(
                lambda: cold_import_seconds("quatrev.cli", scaled=False),
                IMPORT_ROUNDS),
            "trace.untraced_ops_per_s": base.ops_per_s,
            "trace.traced_ops_per_s": ph.ops_per_s,
        })
        metrics = per_layer(tr.values)
        note = (f"tracing overhead: {base.ops_per_s - ph.ops_per_s:+.4g} "
                f"ops/s ({base.ops_per_s:.4g} untraced, "
                f"{ph.ops_per_s:.4g} traced, same {len(ph.latencies)} ops)")
        phases = [base, ph]

    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [msg for p in phases for msg in p.problems]
    env = environment(args.workload, args.seed)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tr.dump(OUT / f"{stem}-spans.jsonl")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "note": note, "problems": problems,
                   "seconds": args.seconds, **result}, fh, indent=2)

    print("environment: " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(note)
    print(f"fail_ratio {failed / attempted:.6g} "
          f"({failed} failed of {attempted} attempted)")
    for msg in problems[:5]:
        print(f"problem: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
