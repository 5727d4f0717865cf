"""Benchmark of the ratfourier pipeline: one workload per call.

    python3 perfbench/run.py --workload presets|high-order \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src and
nothing is installed.  The run is single-threaded: one closed-loop caller,
BLAS and OpenMP pinned to one thread.  It repeats passes over the seeded
inputs for S seconds, checks every output, prints each metric as
`name=value unit`, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics, the tracing overhead
among them; the spans go to perfbench/out/.  A full record of each run,
accuracy figures and environment included, is written to perfbench/out/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_LAUNCHES = 15
IMPORT_PROBE = ("import time; t = time.perf_counter(); import ratfourier; "
                "print(time.perf_counter() - t, ratfourier.__file__)")
MIN_PASSES = 3


class BenchError(Exception):
    """The benchmark cannot run here (missing source, wrong import)."""


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)


def prepare():
    """Put ./src first on the import path and import the package from it."""
    if not (SRC / "ratfourier" / "__init__.py").is_file():
        raise BenchError(f"no ratfourier package under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import ratfourier
    if Path(ratfourier.__file__).resolve().parent != SRC / "ratfourier":
        raise BenchError(f"ratfourier imported from {ratfourier.__file__}, not {SRC}")


def import_time():
    """Seconds `import ratfourier` takes in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         cwd=ROOT, capture_output=True, text=True, timeout=60,
                         check=True).stdout.split()
    if Path(out[1]).resolve().parent != SRC / "ratfourier":
        raise BenchError(f"setup probe imported {out[1]}")
    return float(out[0])


def fingerprint():
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "threads": THREADS,
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
    }


class Totals:
    """Sums over the counted passes of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.acc = {}
        self.passes = []

    def add(self, rec, wall):
        self.attempted += rec.attempted
        self.failed += rec.failed
        self.messages.extend(rec.messages)
        for name, value in rec.acc.items():
            self.acc[name] = max(self.acc.get(name, 0.0), value)
        self.passes.append((wall, rec))


def run(workload_name, seed, seconds, trace, small=False):
    """Run one workload; returns (result line dict, full record dict).

    `small` runs one pass at minimum input size, for the self-test.
    """
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[workload_name]
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)

    def run_pass(inp):
        rec = workloads.Recorder()
        t0 = time.perf_counter()
        workload.run_pass(inp, rec, workdir)
        return rec, time.perf_counter() - t0

    inp = workload.inputs(seed, small)
    run_pass(workload.inputs(seed, True))  # warm-up, not counted

    plain, traced = Totals(), Totals()
    tracer = Tracer() if trace else None
    layer_passes = []
    # set-up is timed between passes, spread over the run like the passes
    setup = []
    if not trace:
        import_time()  # the first launch compiles the bytecode cache
    t_start = time.perf_counter()
    t_end = t_start + seconds
    while True:
        while not trace and len(setup) < SETUP_LAUNCHES and (
                time.perf_counter() >= t_start + len(setup) * seconds / SETUP_LAUNCHES):
            setup.append(import_time())
        rec, wall = run_pass(inp)
        plain.add(rec, wall)
        if tracer is not None:
            since = tracer.mark()
            tracer.install()
            try:
                rec, wall = run_pass(inp)
            finally:
                tracer.uninstall()
            traced.add(rec, wall)
            layer_passes.append(tracer.layer_metrics(since))
        round_s = sum(w for w, _ in plain.passes + traced.passes) / len(plain.passes)
        if small or (len(plain.passes) >= MIN_PASSES
                     and time.perf_counter() + round_s > t_end):
            break

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    messages = plain.messages + traced.messages
    record = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": fingerprint(),
              "passes": len(plain.passes), "traced_passes": len(traced.passes),
              "voigt_points": len(plain.passes[0][1].times["voigt_point"]),
              "acc": plain.acc,
              "per_pass": [dict({k: sum(v) for k, v in rec.times.items()}, wall=wall)
                           for wall, rec in plain.passes]}
    if trace:
        # counts repeat exactly from pass to pass; times take the median pass
        metrics = {name: statistics.median(p[name] for p in layer_passes)
                   for name in layer_passes[0]}
        metrics["trace.overhead_s"] = (statistics.median(w for w, _ in traced.passes)
                                       - statistics.median(w for w, _ in plain.passes))
        record["acc_traced"] = traced.acc
        if traced.acc != plain.acc:
            failed += 1
            messages.append("traced and untraced passes gave different accuracy figures")
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.save(OUT / f"trace-{workload_name}-seed{seed}.npz")
    else:
        while len(setup) < SETUP_LAUNCHES:
            setup.append(import_time())
        record["setup_launches_s"] = setup
        metrics = end_to_end(plain, statistics.median(setup))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record.update(attempted=attempted, failed=failed, op_failure_ratio=failed / attempted,
                  messages=messages, metrics=metrics)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(value), "unit": unit_of(name)}
                          for name, value in metrics.items()}}
    return result, record


def times_of(passes, kind):
    """A (passes x calls) array of one kind of timed call; calls line up by order."""
    import numpy as np
    rows = [rec.times[kind] for rec in passes]
    n = min(map(len, rows))  # shorter only where a call raised, and then correct is false
    return np.array([row[:n] for row in rows])


def typical(passes, kind):
    """Sum over the calls of a pass of each call's median over the passes.

    On a shared machine the same call ran up to 60% slower for stretches of
    seconds; the median of each call is steadier from run to run than its
    fastest repetition or the fastest whole pass.
    """
    import numpy as np
    return float(np.median(times_of(passes, kind), axis=0).sum())


def end_to_end(plain, setup_s):
    import numpy as np
    passes = [rec for _, rec in plain.passes]
    points = times_of(passes, "voigt_point")
    return {
        # the operations of a pass cover all of it
        "wall_s": typical(passes, "op"),
        "build_s": typical(passes, "build"),
        "scan_points_per_s": passes[0].scan_points / typical(passes, "scan"),
        "voigt_points_per_s": points.shape[1] / typical(passes, "voigt_point"),
        "voigt_point_p99_us": float(np.percentile(np.median(points, axis=0), 99)) * 1e6,
        "certify_s": typical(passes, "certify"),
        "setup_s": setup_s,
    }


# first match wins, so "_per_s" precedes "_s"
UNITS = (("_per_s", "1/s"), ("_us", "us"), ("_s", "s"), ("_mb", "MB"), ("_bytes", "B"),
         ("_ratio", "ratio"))


def unit_of(name):
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("presets", "high-order"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    try:
        prepare()
        # the sinc preset under-covers its support on purpose (criterion 1)
        from ratfourier import GridCoverageWarning
        warnings.simplefilter("ignore", GridCoverageWarning)
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = record["environment"]
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload={args.workload} seed={args.seed} passes={record['passes']} "
          f"voigt_points={record['voigt_points']} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"op_failure_ratio={record['op_failure_ratio']:.6g}")
    for name, value in sorted(record["acc"].items()):
        print(f"acc.{name}={value:.6e}")
    for name, entry in result["metrics"].items():
        print(f"{name}={entry['value']:.6g} {entry['unit']}")
    for message in record["messages"]:
        print(f"FAILED: {message}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
