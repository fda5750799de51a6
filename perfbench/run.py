"""Run one steplab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 35 --trace 0

Run it from the root of a steplab checkout; it imports the package from
./src and nothing else. The run sets up its inputs from --seed at least five
times (setup_s is their median), then repeats whole passes of the workload
while the next one still fits in --seconds, checking every pass's outputs.
Every time is paced: scaled to the reference pace of pace.py. With --trace 0
it reports the end-to-end metrics of BENCHMARK.json; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics.

Every metric is printed as "name value unit". The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. A fuller record, with the environment, the per-stage rates and the
spans, goes to perfbench/results/<workload>-seed<seed>-trace<trace>.json.
The exit code is 0 when every check passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import pace
import spans
import spec

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5      # at least, and on until SETUP_MIN_S of set-up
SETUP_MIN_S = 1.0
BLAS_THREADS = 1       # see spec.JOBS
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def failed_frac(failed: int, attempted: int) -> float:
    return failed / attempted


def overhead_frac(traced_walls, plain_walls) -> float:
    """Median traced pass time over median untraced pass time, minus 1."""
    return statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0


def peak_rss_mb() -> float:
    """Largest resident set of this process or any worker it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(jobs: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "jobs": jobs,
        "git_commit": git_commit(ROOT),
        "platform": platform.platform(),
    }


def import_program() -> None:
    """Import steplab from this checkout's src/, or exit without a result."""
    package = ROOT / "src" / "steplab"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no steplab package at {package}; "
                 f"run from the root of a steplab checkout")
    sys.path.insert(0, str(package.parent))
    import steplab
    if Path(steplab.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported steplab from {steplab.__file__}, not {package}")


@dataclass
class Pass:
    wall: float                   # seconds on the clock
    paced: float                  # seconds at the reference pace
    result: object                # workloads.PassResult
    spans: Optional[list] = None  # traced passes only
    pace: Optional[dict] = None


def one_pass(workload, inputs, scratch: Path, checks, jobs: int, tracer=None) -> Pass:
    """Time one pass, then check its outputs with the clock, pacer and
    tracer off. The pass samples the pace where the work runs: in this
    process, or in the pool's workers when there is a pool."""
    in_workers = jobs > 1
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        restores = [tracer.install()] if tracer else []
        if in_workers:
            from workloads import POOL_TASK
            restores.append(spans.patch("steplab", [(*POOL_TASK, lambda fn:
                                        pace.worker_wrapper(fn, scratch))]))
        pacer = contextlib.nullcontext() if in_workers else pace.Pacer()
        try:
            with pacer as sampled:
                t0 = time.perf_counter()
                result = workload.run(inputs, Path(tmp))
                wall = time.perf_counter() - t0
        finally:
            for restore in reversed(restores):
                restore()
        if in_workers:
            sampled = pace.take(scratch)
        taken = tracer.take() if tracer else None
        workload.check(inputs, result.outputs, checks)
    result.outputs = None
    seconds = sampled.paced(wall)
    result.stages = {k: v * seconds / wall for k, v in result.stages.items()}
    return Pass(wall, seconds, result, taken,
                {"factor": sampled.factor(), "samples": len(sampled.samples),
                 "handler_share": sampled.spent_s / sampled.window_s})


def measure(workload, inputs, seconds: float, scratch: Path, checks, jobs: int,
            tracer=None):
    """Repeat passes while the next one still fits in the time budget;
    always at least one. Traced runs pair an untraced pass with a traced one."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        plain.append(one_pass(workload, inputs, scratch, checks, jobs))
        if tracer:
            traced.append(one_pass(workload, inputs, scratch, checks, jobs,
                                   tracer=tracer))
        now = time.perf_counter()
        if (now - start) + (now - t) > seconds:
            return plain, traced


def set_up(workload, seed: int):
    """Build the inputs from the seed SETUP_REPEATS times or more, pacing
    each. Returns the inputs, the median paced set-up time and the raw times."""
    walls, paced = [], []
    while len(walls) < SETUP_REPEATS or (sum(walls) < SETUP_MIN_S and len(walls) < 50):
        with pace.Pacer() as sampled:
            t0 = time.perf_counter()
            inputs = workload.setup(seed)
            walls.append(time.perf_counter() - t0)
        paced.append(sampled.paced(walls[-1]))
    return inputs, statistics.median(paced), walls


def end_to_end(setup_s: float, plain: list[Pass], rss_mb: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.paced for p in plain),
        "frames_per_s": statistics.median(p.result.frames / p.paced for p in plain),
        "peak_rss_mb": rss_mb,
    }


def per_layer(plain: list[Pass], traced: list[Pass], jobs: int) -> dict[str, float]:
    """Median over traced passes of each layer metric. Times are paced: the
    pacer's handler ran inside whichever span was open, in proportion to its
    length, so each pass's spans scale by that pass's paced over wall time."""
    names = [m["name"] for m in spec.PER_LAYER]
    seconds = {m["name"] for m in spec.PER_LAYER if m["unit"] == "s"}
    per_pass = []
    for p in traced:
        raw = spans.layer_metrics(p.spans, p.wall, jobs, os.getpid(), names)
        per_pass.append({k: v * p.paced / p.wall if k in seconds else v
                         for k, v in raw.items()})
    out = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    out["trace.overhead_frac"] = overhead_frac([p.paced for p in traced],
                                               [p.paced for p in plain])
    return out


def stage_rates(workload, plain) -> dict[str, tuple[float, str]]:
    """Median over passes of each per-stage rate the workload defines."""
    per_pass = [workload.rates(p.result) for p in plain]
    return {name: (statistics.median(p[name][0] for p in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=spec.JOBS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    jobs = spec.JOBS[args.workload]
    for var in BLAS_THREAD_VARS:      # numpy reads these when it is imported
        os.environ[var] = str(BLAS_THREADS)
    import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    (BENCH_DIR / "tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "tmp") as scratch:
        scratch = Path(scratch)
        inputs, setup_s, setup_walls = set_up(workload, args.seed)
        checks = workloads.Checks()
        tracer = (spans.Tracer("steplab", workloads.TRACE_TARGETS, scratch)
                  if args.trace else None)
        plain, traced = measure(workload, inputs, args.seconds, scratch, checks,
                                jobs, tracer)

    if args.trace:
        values = per_layer(plain, traced, jobs)
        declared = spec.PER_LAYER
    else:
        values = end_to_end(setup_s, plain, peak_rss_mb())
        declared = spec.END_TO_END
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    rates = stage_rates(workload, plain)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(jobs),
        "passes": len(plain), "traced_passes": len(traced),
        "setup_s": setup_s,
        "setup_wall_samples": setup_walls,
        "wall_samples": [p.wall for p in plain],
        "paced_samples": [p.paced for p in plain],
        "pace": [p.pace for p in plain],
        "stage_rates": {k: {"value": v, "unit": u} for k, (v, u) in rates.items()},
        "mae": statistics.median(p.result.mae for p in plain),
        "failed_frac": failed_frac(checks.failed, checks.attempted),
        "failures": checks.failures,
        "metrics": metrics,
        "spans": [[vars(s) for s in p.spans] for p in traced],
    }
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in rates.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"mae {record['mae']:.6g} steps")
    print(f"failed_frac {record['failed_frac']:.6g} ratio")
    for failure in checks.failures:
        print(f"check failed: {failure}")
    print(f"passes {len(plain)} untraced, {len(traced)} traced; record {out}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
