"""ssgp benchmark: one seeded workload, closed loop with one caller.

    python3 bench/run.py --workload chain-d10 --seed 1 --seconds 20 --trace 0

The next operation starts when the previous one returns.  Only the call into
the program is timed; making its input and checking its output are not.
Every operation runs at least `min_ops` times and then until `--seconds`
have passed.  Times in the result are normalised to reference machine speed
(see speedometer.py); the wall-clock values sit beside them in the report.

With --trace 0 the last stdout line holds the end-to-end metrics.  With
--trace 1 every operation runs twice on the same input, untraced and then
traced, and the last line holds the per-layer metrics.  The line before it
is a report: machine block, set-up timings, the workload's own metrics with
sample counts, captured warnings and failed checks.  See bench/README.md.
"""

import os

# One BLAS thread: the program factors 54x54 matrices, too small to gain
# from threads, and a fixed count keeps runs comparable.  Set before numpy
# loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
# A fresh interpreter times `import ssgp.cli` while a 20 ms timer runs a
# pure-Python loop, the import's own kind of work, to gauge the core's speed
# the way speedometer.py does in this process.  It prints the import's
# seconds and the loop's median seconds.
IMPORT_CODE = """
import signal, sys, time
def loop():
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(400):
        acc += i * 0.5
        table[i & 31] = acc
    return time.perf_counter() - start
took = []
def tick(signum, frame):
    took.append(min(loop(), loop()))
for _ in range(5):
    loop()
signal.signal(signal.SIGALRM, tick)
signal.setitimer(signal.ITIMER_REAL, 0.02, 0.02)
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import ssgp.cli
elapsed = time.perf_counter() - start
signal.setitimer(signal.ITIMER_REAL, 0)
took = sorted(took or [min(loop(), loop())])
print(elapsed, took[len(took) // 2])
"""
# The loop's time on the machine the benchmark was built on, between a quiet
# and a contended core.
IMPORT_LOOP_NOMINAL_S = 45e-6


def import_program():
    """Import ssgp from this checkout's src/ and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import ssgp
    import ssgp.cli  # noqa: F401

    if not Path(ssgp.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ssgp came from {ssgp.__file__}, not from {SRC}")


def fresh_import_seconds():
    """Wall and normalised seconds of `import ssgp.cli` in a fresh interpreter,
    which is what a user pays."""
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    wall, loop = (float(v) for v in done.stdout.split())
    return wall, wall * IMPORT_LOOP_NOMINAL_S / loop


def machine_block() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def timed(workload, inp, tracer=None):
    """Run one call; return (seconds, output, error message or None)."""
    try:
        if tracer is None:
            start = time.perf_counter()
            out = workload.call(inp)
            return time.perf_counter() - start, out, None
        with tracer.installed(), tracer.span("bench.op") as idx:
            out = workload.call(inp)
        return tracer.end[idx] - tracer.start[idx], out, None
    except Exception as exc:  # an operation that raises is a failed operation
        return float("nan"), None, f"{type(exc).__name__}: {exc}"


def run_op(workload, i, tracer=None):
    inp = workload.op_input(i)
    start = time.perf_counter()
    secs, out, error = timed(workload, inp, tracer)
    at = (start, time.perf_counter())
    facts = {"ok": False, "why": error} if error else workload.check(inp, out)
    return {"i": i, "s": secs, "ok": facts["ok"], "facts": facts, "at": at}


def measure(workload, seconds, tracer):
    """Closed loop until both min_ops and `seconds` are reached."""
    ops, traced_ops, traced_warnings = [], [], []
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        i = 0
        while i < workload.min_ops or time.perf_counter() - start < seconds:
            ops.append(run_op(workload, i))
            if tracer is not None:
                before = len(caught)
                op = run_op(workload, i, tracer)
                traced_warnings.extend(caught[before:])
                if op["ok"] and ops[-1]["ok"] and op["facts"]["digest"] != ops[-1]["facts"]["digest"]:
                    op["ok"], op["facts"]["why"] = False, "traced output differs from untraced"
                traced_ops.append(op)
            i += 1
    return ops, traced_ops, list(caught), traced_warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import ssgp from {SRC}: {exc}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def run(args, workloads, workdir) -> int:
    from speedometer import Speedometer
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload](ROOT, workdir)
    tracer = Tracer() if args.trace else None
    imports = [fresh_import_seconds() for _ in range(IMPORT_REPEATS)]
    with Speedometer() as speed:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup(args.seed)
            setups.append((start, time.perf_counter()))
        workload.prepare_checks()
        ops, traced_ops, caught, traced_warnings = measure(workload, args.seconds, tracer)
    for op in ops + traced_ops:
        op["norm_s"] = op["s"] * speed.scale(*op["at"])

    every = ops + traced_ops
    failed = [op for op in every if not op["ok"]]
    good = [op for op in ops if op["ok"]]
    if not good:
        print(f"error: no operation succeeded; first failure: {failed[0]['facts']['why']}",
              file=sys.stderr)
        return 1

    import_s = [wall for wall, _ in imports]
    input_s = [end - start for start, end in setups]
    setup_s = statistics.median(norm for _, norm in imports) + statistics.median(
        (end - start) * speed.scale(start, end) for start, end in setups)
    e2e, report = workload.summarize(good, "norm_s")
    _, wall = workload.summarize(good, "s")
    for name, entry in report.items():
        if wall[name]["value"] != entry["value"]:
            entry["wall"] = wall[name]["value"]
    ok_frac = 1.0 - len(failed) / len(every)
    report = {"setup_s": {**workloads.metric(setup_s, "s", SETUP_REPEATS),
                          "wall": statistics.median(import_s) + statistics.median(input_s)},
              "failed_frac": workloads.metric(len(failed) / len(every), "1", len(every)),
              **report}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_block(),
        "setup": {"import_s": import_s, "input_s": input_s},
        "speed": {"samples": len(speed.took), "ref_us_p50": statistics.median(speed.took) * 1e6},
        "report": report,
        "warnings": [str(w.message) for w in caught[:20]],
        "n_warnings": len(caught),
        "failures": [op["facts"]["why"] for op in failed[:20]],
    }

    if tracer is not None:
        from layers import layer_metrics

        pairs = [(u["s"], t["s"]) for u, t in zip(ops, traced_ops) if u["ok"] and t["ok"]]
        overhead = sum(t for _, t in pairs) / sum(u for u, _ in pairs) - 1.0 if pairs else 0.0
        ratios = [op["facts"]["rmspe_ratio"] for op in traced_ops if "rmspe_ratio" in op["facts"]]
        metrics = layer_metrics(tracer, len(traced_ops), traced_warnings, overhead, ratios)
        detail["trace_missing_targets"] = tracer.missing
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   **{k: {"value": v["value"], "unit": v["unit"]} for k, v in e2e.items()},
                   "ok_frac": {"value": ok_frac, "unit": "1"}}

    print(json.dumps(detail))
    print(json.dumps({"correct": not failed, "attempted": len(every), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
