"""Tests of the benchmark's own arithmetic and tracing, on synthetic spans.

Run with: python3 -m pytest perfbench -q
None of them starts a process pool or runs a workload.
"""

import json
import os
import re
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402
from spans import Span, Target, Tracer  # noqa: E402


def span(id, parent, name, start, end, pid=1, **counts):
    return Span(id, parent, name, start, end, pid, counts)


def test_covered_merges_overlaps_and_clips():
    assert spans.covered(0, 10, [(1, 3), (2, 5), (7, 8)]) == 5
    assert spans.covered(0, 10, [(-2, 1), (9, 12)]) == 2
    assert spans.covered(0, 10, [(2, 9), (3, 4)]) == 7
    assert spans.covered(0, 10, []) == 0


def test_self_time_subtracts_direct_children_only():
    s = [span("a", None, "train.fit", 0, 10),
         span("b", "a", "model.forward_graph", 1, 4),
         span("c", "b", "model.lstm_layer_node", 1.5, 3.5),
         span("d", "a", "tape.backward", 5, 9)]
    own = spans.self_times(s)
    assert own == pytest.approx({"a": 3, "b": 1, "c": 2, "d": 4})
    assert sum(own.values()) == pytest.approx(10)


def test_self_time_counts_parallel_children_once():
    # two folds in two workers under one evaluate_cv span
    s = [span("p", None, "evaluation.evaluate_cv", 0, 10),
         span("f1", "p", "evaluation.fold", 0.5, 6, pid=2),
         span("f2", "p", "evaluation.fold", 0.5, 9.5, pid=3)]
    assert spans.self_times(s)["p"] == pytest.approx(1.0)


def test_aggregate_sums_time_calls_and_counts():
    s = [span("a", None, "signals.build_input", 0, 1, frames=100),
         span("b", None, "signals.build_input", 2, 4, frames=50)]
    agg = spans.aggregate(s)["signals.build_input"]
    assert agg["s"] == pytest.approx(3)
    assert agg["self_s"] == pytest.approx(3)
    assert agg["calls"] == 2
    assert agg["frames"] == 150


def test_pool_idle_frac():
    # 5 folds on 2 workers: 18 busy seconds out of 2 x 10 available
    assert spans.pool_idle_frac([4, 4, 4, 3, 3], jobs=2, wall_s=10) == pytest.approx(0.1)
    assert spans.pool_idle_frac([5, 5], jobs=2, wall_s=5) == pytest.approx(0.0)
    assert spans.pool_idle_frac([], jobs=2, wall_s=10) == 0.0


def test_layer_metrics_derivations_and_gap():
    s = [span("p", None, "evaluation.evaluate_cv", 1, 11),
         span("f1", "p", "evaluation.fold", 1, 5, pid=2),
         span("f2", "p", "evaluation.fold", 1, 7, pid=3),
         span("f3", "p", "evaluation.fold", 5, 10, pid=2),
         span("a1", None, "baselines.count_autocorrelation", 11, 11.5, unconfident=1),
         span("a2", None, "baselines.count_autocorrelation", 11.5, 12, unconfident=0)]
    names = [m["name"] for m in spec.PER_LAYER]
    out = spans.layer_metrics(s, wall_s=12.5, jobs=2, pid=1, names=names)
    assert out["evaluation.fold.median_s"] == pytest.approx(5)
    assert out["evaluation.fold.max_s"] == pytest.approx(6)
    assert out["evaluation.pool_idle_frac"] == pytest.approx(1 - 15 / 20)
    assert out["baselines.autocorr_unconfident"] == 1
    assert out["baselines.count_autocorrelation.calls"] == 2
    assert out["trace.wall_s"] == 12.5
    # top-level spans of pid 1 cover 10 + 0.5 + 0.5 of the 12.5 s
    assert out["trace.gap_s"] == pytest.approx(1.5)
    # layers the pass never called read 0
    assert out["data.save_dataset.rows"] == 0
    assert out["model.lstm_layer_node.s"] == 0
    assert "trace.overhead_frac" not in out


def test_failed_frac_and_overhead():
    assert run.failed_frac(1, 4) == 0.25
    assert run.failed_frac(0, 1651) == 0.0
    assert run.overhead_frac([11, 10, 12], [10, 9, 11]) == pytest.approx(0.1)


def test_workload_rate_derivations():
    import workloads
    r = workloads.PassResult(stages={"fit": 10.0, "save_checkpoint": 0.1,
                                     "load_checkpoint": 0.1, "predict": 2.0,
                                     "report": 0.01},
                             work={"train_frames": 20_000, "predict_frames": 5_000},
                             mae=1.0)
    assert r.frames == 25_000
    rates = workloads.DeskTrain().rates(r)
    assert rates["epoch_s"] == (10.0 / workloads.DeskTrain.EPOCHS, "s")
    assert rates["train_frames_per_s"] == (2_000.0, "frames/s")
    assert rates["predict_frames_per_s"] == (2_500.0, "frames/s")

    io = workloads.PassResult(stages={"save_dataset": 2.0, "load_dataset": 4.0,
                                      "baselines": 0.5, "report": 0.01},
                              work={"save_rows": 600, "load_rows": 600,
                                    "baseline_frames": 600, "baseline_walks": 10},
                              mae=1.0)
    assert io.frames == 1800
    rates = workloads.IoBaselines().rates(io)
    assert rates["save_rows_per_s"] == (300.0, "rows/s")
    assert rates["load_rows_per_s"] == (150.0, "rows/s")
    assert rates["baseline_walks_per_s"] == (20.0, "walks/s")


def test_end_to_end_takes_medians_over_passes():
    import workloads

    def p(frames, mae):
        return workloads.PassResult({}, {"x_frames": frames}, mae)

    plain = [run.Pass(9.0, 2.0, p(100, 3.0)), run.Pass(1.0, 4.0, p(100, 3.0)),
             run.Pass(5.0, 3.0, p(100, 3.0))]
    out = run.end_to_end(0.2, plain, rss_mb=50.0)
    # wall_s and frames_per_s come from the paced times, not the clock
    assert out == pytest.approx({"setup_s": 0.2, "wall_s": 3.0, "frames_per_s": 100 / 3,
                                 "peak_rss_mb": 50.0})
    assert set(out) == {m["name"] for m in spec.END_TO_END}


def test_per_layer_paces_seconds_but_not_counts_or_ratios():
    import workloads
    s = [span("f", None, "signals.build_input", 0, 2, pid=os.getpid(), frames=100)]
    traced = [run.Pass(4.0, 2.0, workloads.PassResult({}, {}, 0.0), s)]
    plain = [run.Pass(3.0, 1.6, workloads.PassResult({}, {}, 0.0))]
    out = run.per_layer(plain, traced, jobs=1)
    assert out["signals.build_input.s"] == pytest.approx(1.0)
    assert out["signals.build_input.frames"] == 100
    assert out["trace.wall_s"] == pytest.approx(2.0)
    assert out["trace.gap_s"] == pytest.approx(1.0)
    assert out["trace.overhead_frac"] == pytest.approx(2.0 / 1.6 - 1)
    assert out["evaluation.pool_idle_frac"] == 0.0


# ---------------------------------------------------------------------------
# pacing


def test_paced_time_drops_the_handler_share_and_scales_to_the_reference():
    # the kernel ran at twice its reference time: the machine ran at half pace
    p = pace.Pace(window_s=10.0, spent_s=0.5, samples=[2 * pace.REF_KERNEL_S] * 4)
    assert p.factor() == pytest.approx(0.5)
    assert p.paced(10.0) == pytest.approx(9.5 * 0.5)
    # spread over a pool: 1 s of handler time in 20 s of worker windows
    pool = (pace.Pace(10.0, 0.5, [pace.REF_KERNEL_S, 3 * pace.REF_KERNEL_S])
            + pace.Pace(10.0, 0.5, [2 * pace.REF_KERNEL_S]))
    assert pool.paced(12.0) == pytest.approx(12.0 * 0.95 * 0.5)


def test_pacer_samples_and_tops_up_a_short_window():
    with pace.Pacer() as p:
        pass
    assert len(p.samples) == pace.MIN_SAMPLES and p.spent_s == 0.0
    assert p.window_s < pace.INTERVAL_S
    with pace.Pacer() as p:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert p.spent_s > 0 and len(p.samples) >= pace.MIN_SAMPLES
    assert p.window_s >= 0.2 > p.spent_s


def test_worker_wrapper_spools_one_pace_per_task(tmp_path):
    def task(n):
        return n + 1
    in_worker = pace.worker_wrapper(task, tmp_path)
    assert in_worker(1) == 2 and in_worker(2) == 3
    assert len(list(tmp_path.glob("pace-*.json"))) == 2
    total = pace.take(tmp_path)
    assert len(total.samples) == 2 * pace.MIN_SAMPLES and total.window_s > 0
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# tracer mechanics on a stand-in package


@pytest.fixture
def fakepkg(monkeypatch):
    core = types.ModuleType("fakepkg.core")
    exec("def work(n):\n    return list(range(n))\n"
         "def outer(n):\n    return work(n)\n", core.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.work = core.work                      # from .core import work
    pkg = types.ModuleType("fakepkg")
    for name, mod in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return core, user


def test_tracer_patches_every_alias_and_restores(fakepkg, tmp_path):
    core, user = fakepkg
    original = core.work
    tracer = Tracer("fakepkg", [
        Target("fakepkg.core", "work", "core.work", lambda args, r: {"items": len(r)}),
        Target("fakepkg.core", "outer", "core.outer")], tmp_path)
    restore = tracer.install()
    try:
        assert core.work is user.work and core.work is not original
        core.outer(3)
        user.work(2)
    finally:
        restore()
    assert core.work is original and user.work is original
    got = tracer.take()
    assert [(s.name, s.counts) for s in got] == [
        ("core.work", {"items": 3}), ("core.outer", {}), ("core.work", {"items": 2})]
    assert got[0].parent == got[1].id and got[1].parent is None
    assert tracer.take() == []


def test_patch_wraps_every_alias_and_restores(fakepkg):
    core, user = fakepkg
    original = core.work
    restore = spans.patch("fakepkg", [("fakepkg.core", "work",
                                       lambda fn: lambda n: fn(n)[::-1])])
    try:
        assert core.outer(3) == [2, 1, 0] and user.work(2) == [1, 0]
    finally:
        restore()
    assert core.work is original and user.work is original


def test_tracer_ships_worker_spans_to_the_parent(fakepkg, tmp_path):
    core, _ = fakepkg
    tracer = Tracer("fakepkg", [Target("fakepkg.core", "outer", "fold", ship=True),
                                Target("fakepkg.core", "work", "core.work")], tmp_path)
    restore = tracer.install()
    real_pid = tracer.pid
    tracer.pid = -1            # as seen from a forked worker
    try:
        core.outer(4)
    finally:
        restore()
    assert tracer.spans == []  # shipped, not kept in the "worker"
    assert len(list(tmp_path.glob("spans-*.json"))) == 1
    tracer.pid = real_pid
    got = tracer.take()
    assert sorted(s.name for s in got) == ["core.work", "fold"]
    assert not list(tmp_path.glob("spans-*.json"))


# ---------------------------------------------------------------------------
# BENCHMARK.json


def test_benchmark_json_is_generated_from_spec():
    committed = (BENCH.parent / "BENCHMARK.json").read_text()
    assert committed == spec.render(), "regenerate with: python3 perfbench/spec.py"


def test_spec_within_benchmark_limits():
    b = spec.benchmark_json()
    assert set(b) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert 1 <= b["run_seconds"] <= 60 and isinstance(b["run_seconds"], int)
    assert 2 <= len(b["workloads"]) <= 8
    assert set(spec.JOBS) == {w["name"] for w in b["workloads"]}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for m in b["workloads"] + b["end_to_end"] + b["per_layer"]]
    assert all(name.match(n) for n in names)
    assert len(set(m["name"] for m in b["end_to_end"] + b["per_layer"])) == \
        len(b["end_to_end"]) + len(b["per_layer"])
    for w in b["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in b["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and unit.match(m["unit"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in b["end_to_end"])} in b["end_to_end"]
    for m in b["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and unit.match(m["unit"])
    assert all(m["better"] in ("higher", "lower") for m in b["end_to_end"] + b["per_layer"])
    assert len(json.dumps(b)) < 64 * 1024
