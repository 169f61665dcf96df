"""kqr benchmark: one workload per run, checked against independent oracles.

    python3 kqrbench/run.py --workload rates|calibration|cli --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; kqr is imported
from the checkout's src/.  The run repeats whole rounds of the workload
for about S seconds (at least one round) and prints, as the last line of
standard output, one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 half the time runs untraced and half with
the layer wrappers of spans.py installed, and the metrics are the
per-layer ones.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import kqr, kqr.cli; print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """Time to import kqr in a fresh interpreter, as a user's first call pays it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(src=str(SRC))],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _round(workload, tracer=None):
    """One timed round; output capture and tracing are installed outside the timer."""
    import spans

    with spans.Patches() as patches:
        workload.capture(patches)
        if tracer is not None:
            spans.install(tracer, patches)
        t0 = time.perf_counter()
        out = workload.body()
        return out, time.perf_counter() - t0


def _typical_round(parts):
    """Sum over the timed parts of a round of each part's median over the rounds.

    With one part, the whole round, this is the median round time.  Taking
    the median of each CLI invocation apart uses every invocation as a
    sample, so a slow stretch of the machine moves it less."""
    return sum(statistics.median(p[k] for p in parts) for k in parts[0])


def _rounds(workload, budget, reference=None, tracer=None):
    """Whole rounds until the next one would end after `budget` seconds.

    Returns the first round's output, the round times, the timed parts of
    each round, and how many rounds gave other outputs than `reference` (by
    default the first round's).  Only the first output is kept, so memory
    does not grow with the rounds."""
    first, times, parts, differ = None, [], [], 0
    start = time.perf_counter()
    while True:
        out, dt = _round(workload, tracer)
        times.append(dt)
        parts.append(workload.parts(out) if hasattr(workload, "parts") else {"round": dt})
        if first is None:
            first = out
            reference = out if reference is None else reference
        differ += not workload.same(reference, out)
        if time.perf_counter() - start + statistics.median(times) > budget:
            return first, times, parts, differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("rates", "calibration", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "kqr" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no kqr sources (src/kqr) or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))

    import_s = statistics.median(_import_seconds() for _ in range(SETUP_REPEATS))

    import oracles
    import spans
    from workloads import WORKLOADS

    workdir = ROOT / ".kqrbench_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        problems = oracles.self_test()

        if workload.warmup:
            _round(workload)
        budget = args.seconds / 2 if args.trace else args.seconds
        first, times, parts, differ = _rounds(workload, budget)
        rounds = len(times)
        if args.trace:
            tracer = spans.Tracer()
            _, traced_times, traced_parts, traced_differ = _rounds(workload, budget, first,
                                                                   tracer)
            rounds += len(traced_times)
            differ += traced_differ

        chk = workload.check(first)
        problems += chk.problems
        # a round whose outputs differ from the checked round fails as a whole
        failed = differ * chk.ops + (rounds - differ) * len(chk.failed)
        run_s = _typical_round(parts)
        layers = dict(chk.layers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    if args.trace:
        for line in chk.details + spans.report(tracer, len(traced_times)):
            print(line, file=sys.stderr)
        layers.update(spans.layer_metrics(tracer, len(traced_times)))
        layers["trace.overhead_s"] = _typical_round(traced_parts) - run_s
        layers["fits_per_s"] = layers.pop("fits", 0) / run_s
        layers["checks_per_s"] = layers.pop("checks", 0) / run_s
        wanted = spec["per_layer"]
    else:
        layers = {
            "setup_s": import_s + statistics.median(setup_times),
            "run_s": run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # from the typical round, like run_s: a mean lets one slow round move it
            "ops_per_s": chk.ops / run_s,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": chk.ops * rounds,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
