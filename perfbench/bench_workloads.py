"""The benchmark workloads.

Each workload synthesizes its dataset from the workload seed and writes it
to disk (the set-up), then runs passes over it.  A pass is a list of
checked operations, each one timed on its own: a key, the seconds the
operation took, an ``ok`` flag from invariants checked inside it, and a
JSON-able output that must equal the same key's output in every other pass
and in the recorded reference for the seed, when there is one.

- ``c8_cells``: the criterion-8 cell set of the acceptance suite (all three
  conversions, data-rate folds, the 9 ``run_pipeline`` cells of 5 trials) on
  the acceptance dataset's shape, scaled from 5 x 40 recordings of 100 frames
  to 5 x 7 of 80 so that several passes fit in one run.  The FEAST feature
  layer is its largest layer.
- ``convert_io``: per recording of a 128 x 128 dataset (the largest grid an
  AER word addresses), ``load_recording``, the three converters,
  ``write_stream``, ``read_stream`` and ``datarate_stats``.  Event
  generation dominates it; it makes no feature-layer or readout calls.
- ``raw_sweep``: ``cli.main(["sweep", ...])`` with ``--jobs 2`` over an
  on-disk manifest, once per kind, raw features only, 72 cells and 360 rows
  in all: sample building and the ridge readout dominate it, it goes
  through the CLI and ``parallel_map``, and it makes no feature-layer
  calls.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import shutil
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

# Program functions are called through their modules, so that the tracer's
# wrappers, installed as module attributes, see the calls.
from spadevents import cli, dataio, eventgen, pipeline
from spadevents.classify import PoolConfig
from spadevents.dataio import SynthConfig
from spadevents.pipeline import PipelineSpec, trial_seeds

EVENT_KINDS = ("firstand", "onoff", "oobu")


@dataclass(frozen=True)
class Sizes:
    n_classes: int
    recordings_per_class: int
    frames: int
    grid: int

    def synth_config(self, seed: int) -> SynthConfig:
        return SynthConfig(n_classes=self.n_classes,
                           recordings_per_class=self.recordings_per_class,
                           frames_per_recording=self.frames, grid_width=self.grid,
                           grid_height=self.grid, seed=seed)


@dataclass
class Op:
    key: str
    ok: bool
    output: object
    error: str = ""
    elapsed_s: float = 0.0                # seconds the operation took, checks included


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _attempt(key: str, fn) -> Op:
    """Run and time one checked operation; an exception becomes a failed Op."""
    t0 = time.perf_counter()
    try:
        ok, output = fn()
    except Exception as exc:  # an operation's failure is counted, not raised
        return Op(key, False, None, f"{type(exc).__name__}: {exc}",
                  time.perf_counter() - t0)
    return Op(key, bool(ok), output, "", time.perf_counter() - t0)


class Workload:
    name = ""
    sizes: Sizes

    def signature(self) -> dict:
        """Everything besides the seed that the outputs depend on."""
        return asdict(self)

    def setup(self, seed: int, directory: Path):
        """Synthesize the dataset and write it under directory."""
        manifest, recordings = dataio.synth_generate(self.sizes.synth_config(seed))
        manifest_path = dataio.write_dataset(manifest, recordings, directory)
        return {"seed": seed, "manifest": manifest, "manifest_path": manifest_path,
                "recordings": recordings, "dir": directory}

    def run_pass(self, state: dict, pass_dir: Path) -> list[Op]:
        raise NotImplementedError

    def accuracies(self, ops: list[Op]) -> tuple[float, float]:
        """Mean per-frame and per-recording accuracy over the pass's cells."""
        return 0.0, 0.0


# The criterion-8 cells of tests/test_acceptance.py: (kind, mode, N, L, method).
C8_CELLS = ([(kind, "raw", 0, size, "2d") for kind in EVENT_KINDS for size in (1, 12)]
            + [("oobu", "raw", 0, 12, "1d"), ("oobu", "random", 16, 12, "2d"),
               ("oobu", "trained", 16, 12, "2d")])


@dataclass
class C8Cells(Workload):
    name = "c8_cells"
    sizes: Sizes = Sizes(n_classes=5, recordings_per_class=7, frames=80, grid=32)
    n_trials: int = 5

    def run_pass(self, state, pass_dir):
        recordings = state["recordings"]
        n_classes = self.sizes.n_classes
        seeds = trial_seeds(0, self.n_trials)
        streams = {}
        ops = []
        for kind in EVENT_KINDS:
            def convert(kind=kind):
                streams[kind] = pipeline.convert_all(recordings, kind)
                folds = [eventgen.datarate_stats(r, s).fold_reduction
                         for r, s in zip(recordings, streams[kind])]
                mean_fold = float(np.mean(folds))
                return mean_fold > 0, {"events": sum(len(s) for s in streams[kind]),
                                       "mean_fold": mean_fold}
            ops.append(_attempt(f"convert/{kind}", convert))
        for kind, mode, n_neurons, size, method in C8_CELLS:
            def cell(kind=kind, mode=mode, n_neurons=n_neurons, size=size, method=method):
                spec = PipelineSpec(kind=kind, feature_mode=mode, n_neurons=n_neurons,
                                    pool=PoolConfig(method=method, size=size),
                                    seed=state["seed"])
                report = pipeline.run_pipeline(recordings, spec, n_classes, seeds,
                                               streams=streams[kind])
                accs = [[t.per_frame_accuracy, t.per_recording_accuracy]
                        for t in report.trials]
                ok = len(accs) == len(seeds) and all(0.0 <= a <= 1.0 for t in accs for a in t)
                return ok, {"trials": accs, "per_frame_mean": report.per_frame_mean,
                            "per_recording_mean": report.per_recording_mean}
            ops.append(_attempt(f"cell/{kind}/{mode}/{n_neurons}/{size}/{method}", cell))
        return ops

    def accuracies(self, ops):
        cells = [op.output for op in ops if op.key.startswith("cell/") and op.output]
        if not cells:
            return 0.0, 0.0
        return (float(np.mean([c["per_frame_mean"] for c in cells])),
                float(np.mean([c["per_recording_mean"] for c in cells])))


@dataclass
class RawSweep(Workload):
    name = "raw_sweep"
    sizes: Sizes = Sizes(n_classes=5, recordings_per_class=4, frames=50, grid=32)
    kinds: str = "frames,firstand,onoff,oobu"
    pool_sizes: str = "1,2,3,4,6,8,12,16,24"
    pool_methods: str = "1d,2d"
    n_trials: int = 5
    jobs: int = 2

    def run_pass(self, state, pass_dir):
        # One sweep per kind, so that each timed operation is a few seconds
        # long and the run repeats it several times.
        n_cells = len(self.pool_sizes.split(",")) * len(self.pool_methods.split(","))
        ops = []
        for kind in self.kinds.split(","):
            out = pass_dir / f"sweep-{kind}"
            argv = ["sweep", "--manifest", str(state["manifest_path"]), "--out", str(out),
                    "--kinds", kind, "--feature-modes", "raw",
                    "--pool-sizes", self.pool_sizes, "--pool-methods", self.pool_methods,
                    "--n-trials", str(self.n_trials), "--jobs", str(self.jobs)]

            def sweep(argv=argv, out=out):
                with contextlib.redirect_stdout(sys.stderr):
                    rc = cli.main(argv)
                if rc != 0:
                    return False, {"rc": rc}
                with open(out / "sweep.csv", newline="") as fh:
                    rows = list(csv.DictReader(fh))
                with open(out / "summary.csv", newline="") as fh:
                    summary = list(csv.DictReader(fh))
                per_frame = [float(r["per_frame_acc"]) for r in rows]
                per_recording = [float(r["per_recording_acc"]) for r in rows]
                ok = (len(rows) == n_cells * self.n_trials and len(summary) == n_cells
                      and all(0.0 <= a <= 1.0 for a in per_frame + per_recording))
                return ok, {"rc": rc, "rows": len(rows),
                            "sweep_csv": _sha256(out / "sweep.csv"),
                            "summary_csv": _sha256(out / "summary.csv"),
                            "per_frame_mean": float(np.mean(per_frame)),
                            "per_recording_mean": float(np.mean(per_recording))}

            shutil.rmtree(out, ignore_errors=True)
            ops.append(_attempt(f"sweep/{kind}", sweep))
        return ops

    def accuracies(self, ops):
        # Every kind's sweep has the same number of rows.
        outs = [op.output for op in ops if op.output]
        if not outs:
            return 0.0, 0.0
        return (float(np.mean([o["per_frame_mean"] for o in outs])),
                float(np.mean([o["per_recording_mean"] for o in outs])))


@dataclass
class ConvertIO(Workload):
    name = "convert_io"
    sizes: Sizes = Sizes(n_classes=5, recordings_per_class=20, frames=12, grid=128)

    def run_pass(self, state, pass_dir):
        ops = []
        for entry in state["manifest"].entries:
            def convert(entry=entry):
                recording = dataio.load_recording(state["dir"] / entry.path,
                                                  entry.recording_id)
                ok = recording.n_frames == self.sizes.frames
                output = {}
                for kind in EVENT_KINDS:
                    stream = getattr(eventgen, f"{kind}_convert")(recording)
                    path = pass_dir / f"{entry.recording_id}.{kind}.spdevt"
                    eventgen.write_stream(stream, path)
                    back = eventgen.read_stream(path)
                    fold = eventgen.datarate_stats(recording, stream).fold_reduction
                    round_trip = (back.kind == stream.kind
                                  and back.grid_width == stream.grid_width
                                  and back.grid_height == stream.grid_height
                                  and np.array_equal(back.events, stream.events))
                    ok = ok and round_trip and fold > 0
                    output[kind] = {"events": len(stream), "stream_sha256": _sha256(path),
                                    "fold": fold}
                return ok, output
            ops.append(_attempt(f"recording/{entry.recording_id}", convert))
        return ops


WORKLOADS = {w.name: w for w in (C8Cells, ConvertIO, RawSweep)}


def tiny(name: str) -> Workload:
    """The workload on inputs small enough for the benchmark's self-test."""
    if name == "c8_cells":
        return C8Cells(sizes=Sizes(3, 3, 30, 24), n_trials=2)
    if name == "convert_io":
        return ConvertIO(sizes=Sizes(2, 2, 12, 128))
    return RawSweep(sizes=Sizes(2, 3, 24, 16), kinds="frames,oobu", pool_sizes="1,2",
                    n_trials=2)
