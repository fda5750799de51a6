"""The benchmark's three workloads, built only from steplab's public functions.

Each workload has three parts:

- setup(seed) makes the inputs from the seed alone;
- run(inputs, tmp) is the timed pass; it returns the stage times, the work
  done and the outputs;
- check(inputs, outputs, checks) verifies the outputs after the clock stops.

Every call into steplab goes through its module attribute (``train.fit``,
not an imported ``fit``), so the traced run sees the wrappers the tracer
installs.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from steplab import baselines, checkpoint, data, evaluation, model, signals, train
from spans import Target
from spec import JOBS


@dataclass
class Checks:
    """Correctness checks counted against checks attempted."""
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


@dataclass
class PassResult:
    stages: dict[str, float]      # seconds per stage of the pass
    work: dict[str, int]          # frames, rows or walks per stage
    mae: float                    # steps
    outputs: object = None

    @property
    def frames(self) -> int:
        """Frames of signal the pass handled, summed over its stages."""
        return sum(v for k, v in self.work.items() if k.endswith(("_frames", "_rows")))


def _frames(samples) -> int:
    return sum(s.raw.shape[0] for s in samples)


class _Clock:
    """Consecutive stage timer: each lap closes one named stage."""

    def __init__(self):
        self.stages: dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.stages[stage] = now - self._last
        self._last = now


# ---------------------------------------------------------------------------


class DeskTrain:
    """Acceptance criteria 4-6's desk recipe, cut to EPOCHS epochs."""
    EPOCHS = 2
    N_WALKS, N_TRAIN = 200, 150
    INPUT = "l2"

    def setup(self, seed: int):
        walks = signals.synthesize_dataset(seed, n=self.N_WALKS)
        mc = model.ModelConfig(input_size=1, hidden_size=32, num_layers=2,
                               use_attention=True)
        tc = train.TrainConfig(epochs=self.EPOCHS, batch_size=16, lr0=0.01,
                               seed=seed)
        params = model.init_params(mc, seed=seed)
        return walks[:self.N_TRAIN], walks[self.N_TRAIN:], mc, tc, params

    def run(self, inputs, tmp: Path) -> PassResult:
        train_set, test_set, mc, tc, params0 = inputs
        params = copy.deepcopy(params0)
        clock = _Clock()
        history = train.fit(mc, params, train_set, tc, self.INPUT)
        clock.lap("fit")
        path = checkpoint.save_checkpoint(tmp / "desk.npz", params, mc, tc,
                                          self.INPUT, epoch=tc.epochs)
        clock.lap("save_checkpoint")
        ck = checkpoint.load_checkpoint(path)
        clock.lap("load_checkpoint")
        preds = [model.predict(ck.params, ck.model_config,
                               signals.build_input(s, ck.input_mode,
                                                   ck.downsample_factor).channels)
                 for s in test_set]
        clock.lap("predict")
        report = evaluation.compute_report(preds, [s.step_count for s in test_set])
        clock.lap("report")
        work = {"train_frames": tc.epochs * _frames(train_set),
                "predict_frames": _frames(test_set)}
        return PassResult(clock.stages, work, report.mae, (history, params, preds))

    def rates(self, r: PassResult) -> dict[str, tuple[float, str]]:
        return {
            "epoch_s": (r.stages["fit"] / self.EPOCHS, "s"),
            "train_frames_per_s": (r.work["train_frames"] / r.stages["fit"], "frames/s"),
            "predict_frames_per_s": (r.work["predict_frames"] / r.stages["predict"],
                                     "frames/s"),
        }

    def check(self, inputs, outputs, checks: Checks) -> None:
        _, test_set, mc, _, _ = inputs
        history, params, preds = outputs
        for epoch, loss in enumerate(history.epoch_loss):
            checks.expect(bool(np.isfinite(loss)), f"epoch {epoch} loss {loss}")
        checks.expect(history.epoch_loss[-1] < history.epoch_loss[0],
                      f"loss did not fall: {history.epoch_loss}")
        for s, reloaded in zip(test_set, preds):
            direct = model.predict(params, mc, signals.build_input(s, self.INPUT).channels)
            checks.expect(direct == reloaded,
                          f"{s.sample_id}: reloaded {reloaded!r} != in-memory {direct!r}")


class CvShort:
    """k-fold cross-validation of a small model on short walks, in worker processes."""
    EPOCHS = 2
    K = 5
    INPUT = "l2xyz"

    def setup(self, seed: int):
        walks = signals.synthesize_dataset(seed, n=300, steps_range=(4, 12),
                                           duration_range=(2, 5))
        mc = model.ModelConfig(input_size=4, hidden_size=8, num_layers=1,
                               use_attention=True)
        tc = train.TrainConfig(epochs=self.EPOCHS, batch_size=16, lr0=0.01,
                               seed=seed)
        return walks, mc, tc

    def run(self, inputs, tmp: Path) -> PassResult:
        walks, mc, tc = inputs
        clock = _Clock()
        result = evaluation.evaluate_cv(walks, "kfold", mc, tc, input_mode=self.INPUT,
                                        k=self.K, jobs=JOBS["cv_short"])
        clock.lap("evaluate_cv")
        length = {s.sample_id: s.raw.shape[0] for s in walks}
        train_frames = sum(length[i] for f in result.folds.folds for i in f.train_ids)
        work = {"train_frames": tc.epochs * train_frames,
                "predict_frames": sum(length.values())}
        return PassResult(clock.stages, work, result.report.mae, result)

    def rates(self, r: PassResult) -> dict[str, tuple[float, str]]:
        # Fit and predict run inside the workers; only the traced run splits them.
        return {}

    def check(self, inputs, outputs, checks: Checks) -> None:
        walks = inputs[0]
        predicted = sorted(p.sample_id for p in outputs.predictions)
        checks.expect(predicted == sorted(s.sample_id for s in walks),
                      "walks not predicted exactly once each")
        for p in outputs.predictions:
            checks.expect(bool(np.isfinite(p.pred)), f"{p.sample_id}: prediction {p.pred}")


class IoBaselines:
    """The `steplab baseline` path: CSV round trip, then the three counters."""
    N_WALKS = 1500
    N_CLEAN = 50
    COUNTERS = ("peaks", "threshold", "autocorr")

    def setup(self, seed: int):
        noisy = signals.synthesize_dataset(seed, n=self.N_WALKS)
        # Acceptance criterion 6's clean family, on which every counter is exact.
        rng = np.random.default_rng(seed)
        clean = [signals.synthesize_walk(int(rng.integers(0, 2**31 - 1)),
                                         int(rng.integers(10, 41)), cadence_hz=2.5,
                                         noise_sd=0.0, pause_prob=0.0,
                                         amp_jitter=0.0, interval_jitter=0.0)
                 for _ in range(self.N_CLEAN)]
        return noisy, clean

    @staticmethod
    def count_all(samples):
        counts = {"peaks": [], "threshold": [], "autocorr": []}
        for s in samples:
            ts = signals.build_input(s, "l2")
            counts["peaks"].append(float(baselines.count_peaks(ts)))
            counts["threshold"].append(float(baselines.count_threshold(ts)))
            counts["autocorr"].append(float(baselines.count_autocorrelation(ts).count))
        return counts

    def run(self, inputs, tmp: Path) -> PassResult:
        noisy, _ = inputs
        clock = _Clock()
        manifest = data.save_dataset(noisy, tmp / "dataset")
        clock.lap("save_dataset")
        loaded = data.load_dataset(manifest)
        clock.lap("load_dataset")
        counts = self.count_all(loaded)
        clock.lap("baselines")
        trues = [s.step_count for s in loaded]
        reports = {m: evaluation.compute_report(counts[m], trues) for m in self.COUNTERS}
        clock.lap("report")
        rows = _frames(noisy)
        work = {"save_rows": rows, "load_rows": _frames(loaded),
                "baseline_frames": rows, "baseline_walks": len(loaded)}
        return PassResult(clock.stages, work, reports["peaks"].mae, loaded)

    def rates(self, r: PassResult) -> dict[str, tuple[float, str]]:
        return {
            "save_rows_per_s": (r.work["save_rows"] / r.stages["save_dataset"], "rows/s"),
            "load_rows_per_s": (r.work["load_rows"] / r.stages["load_dataset"], "rows/s"),
            "baseline_walks_per_s": (r.work["baseline_walks"] / r.stages["baselines"],
                                     "walks/s"),
        }

    def check(self, inputs, outputs, checks: Checks) -> None:
        noisy, clean = inputs
        checks.expect(len(outputs) == len(noisy),
                      f"loaded {len(outputs)} walks, saved {len(noisy)}")
        for saved, back in zip(noisy, outputs):
            same = (saved.sample_id == back.sample_id
                    and saved.step_count == back.step_count
                    and saved.subject == back.subject
                    and saved.fs_hz == back.fs_hz
                    and saved.raw.shape == back.raw.shape
                    and np.array_equal(saved.raw, back.raw))
            checks.expect(same, f"{saved.sample_id}: load differs from save")
        counts = self.count_all(clean)
        for m in self.COUNTERS:
            for s, c in zip(clean, counts[m]):
                checks.expect(c == s.step_count,
                              f"{m} counted {c} on clean {s.sample_id} of {s.step_count}")


WORKLOADS = {"desk_train": DeskTrain, "cv_short": CvShort, "io_baselines": IoBaselines}


# The function evaluate_cv's process pool runs, one call per fold. The traced
# run wraps it to time folds and the paced run to sample the workers' pace.
POOL_TASK = ("steplab.evaluation", "_default_fold_run")


# ---------------------------------------------------------------------------
# what the traced run wraps


def _frames_out(args, result) -> dict:
    return {"frames": result.shape[0]}


TRACE_TARGETS = [
    Target("steplab.model", "lstm_layer_node", "model.lstm_layer_node",
           lambda args, node: {"frames": node.value.shape[0]}),
    Target("steplab.model", "lstm_forward", "model.lstm_forward", _frames_out),
    Target("steplab.model", "forward_graph", "model.forward_graph"),
    Target("steplab.model", "predict", "model.predict"),
    Target("steplab.tape", "backward", "tape.backward"),
    Target("steplab.tape", "zero_grads", "tape.zero_grads"),
    Target("steplab.train", "fit", "train.fit"),
    Target("steplab.train", "adam_step", "train.adam_step"),
    Target("steplab.signals", "build_input", "signals.build_input",
           lambda args, ts: {"frames": ts.channels.shape[0]}),
    Target("steplab.data", "save_dataset", "data.save_dataset",
           lambda args, path: {"rows": _frames(args[0])}),
    Target("steplab.data", "load_dataset", "data.load_dataset",
           lambda args, samples: {"rows": _frames(samples)}),
    Target("steplab.baselines", "count_peaks", "baselines.count_peaks"),
    Target("steplab.baselines", "count_threshold", "baselines.count_threshold"),
    Target("steplab.baselines", "count_autocorrelation", "baselines.count_autocorrelation",
           lambda args, res: {"unconfident": int(not res.confident)}),
    Target("steplab.evaluation", "evaluate_cv", "evaluation.evaluate_cv"),
    # The pool's task function: one span per fold, recorded in the worker.
    Target(*POOL_TASK, "evaluation.fold", ship=True),
    Target("steplab.evaluation", "compute_report", "evaluation.compute_report"),
    Target("steplab.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    Target("steplab.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
]
