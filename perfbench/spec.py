"""What the benchmark measures: its workloads, its metrics and their bounds.

This module is the one source for BENCHMARK.json at the repository root.
Regenerate that file after editing anything here:

    python3 perfbench/spec.py
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

# Seconds of measurement per run. A run repeats whole passes of its workload
# while the next pass still fits; one pass takes 5-14 s on 2 cores, so a run
# holds two to six passes and reports their medians. With set-up, a run takes
# at most about 45 s, and the 70 runs of a full check about 50 minutes.
RUN_SECONDS = 35

WORKLOADS = [
    {"name": "desk_train",
     "why": "the desk recipe users wait on (150 walks, 2x32 attention LSTM), "
            "2 epochs plus checkpoint round trip and predict; per-timestep "
            "LSTM forward and BPTT dominate"},
    {"name": "cv_short",
     "why": "5-fold CV, 2 epochs, of a 1x8 model on 300 short walks over 2 worker "
            "processes; raises the share of per-sample tape, attention and "
            "Adam costs and exercises fold scheduling"},
    {"name": "io_baselines",
     "why": "CSV save and load of 1500 walks plus build_input and the three "
            "classical counters, no LSTM: the control that model, tape and "
            "train changes must leave unchanged"},
]

# Worker processes each workload starts. Every process runs BLAS on one
# thread, so workers x threads never exceeds the 2 CPUs: the matrices are
# small, and a second BLAS thread made desk_train epochs swing between 4.1 and
# 6.3 s on a shared 2-core machine, against 5.8 to 6.5 s on one thread.
JOBS = {"desk_train": 1, "cv_short": 2, "io_baselines": 1}

# Every workload reports every one of these, and none of them can be 0.
# Times are paced (pace.py): scaled to a reference machine speed sampled
# while the work runs, because the shared 2-core machine they were set on
# changes speed by 10-30% from second to second and from run to run. The
# timing bounds are still the widest allowed; see perfbench/README.md.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "frames_per_s", "unit": "frames/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _layer(name: str, unit: str, better: str) -> dict:
    return {"name": name, "unit": unit, "better": better}


# Span totals per traced pass; a layer a workload does not call reports 0.
PER_LAYER = [
    _layer("model.lstm_layer_node.s", "s", "lower"),
    _layer("model.lstm_layer_node.frames", "count", "higher"),
    _layer("model.lstm_forward.s", "s", "lower"),
    _layer("model.lstm_forward.frames", "count", "higher"),
    _layer("model.forward_graph.self_s", "s", "lower"),
    _layer("model.predict.self_s", "s", "lower"),
    _layer("tape.backward.s", "s", "lower"),
    _layer("tape.backward.calls", "count", "lower"),
    _layer("tape.zero_grads.s", "s", "lower"),
    _layer("train.adam_step.s", "s", "lower"),
    _layer("train.adam_step.calls", "count", "lower"),
    _layer("train.fit.self_s", "s", "lower"),
    _layer("signals.build_input.s", "s", "lower"),
    _layer("signals.build_input.frames", "count", "higher"),
    _layer("data.save_dataset.s", "s", "lower"),
    _layer("data.save_dataset.rows", "count", "higher"),
    _layer("data.load_dataset.s", "s", "lower"),
    _layer("data.load_dataset.rows", "count", "higher"),
    _layer("baselines.count_peaks.s", "s", "lower"),
    _layer("baselines.count_threshold.s", "s", "lower"),
    _layer("baselines.count_autocorrelation.s", "s", "lower"),
    _layer("baselines.count_autocorrelation.calls", "count", "higher"),
    _layer("baselines.autocorr_unconfident", "count", "lower"),
    _layer("evaluation.fold.median_s", "s", "lower"),
    _layer("evaluation.fold.max_s", "s", "lower"),
    _layer("evaluation.pool_idle_frac", "ratio", "lower"),
    _layer("evaluation.compute_report.s", "s", "lower"),
    _layer("checkpoint.save_checkpoint.s", "s", "lower"),
    _layer("checkpoint.load_checkpoint.s", "s", "lower"),
    _layer("trace.wall_s", "s", "lower"),
    _layer("trace.gap_s", "s", "lower"),
    _layer("trace.overhead_frac", "ratio", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    out = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    out.write_text(render())
    print(f"wrote {out}")
