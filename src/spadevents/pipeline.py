"""End-to-end evaluation pipelines over in-memory datasets.

A pipeline turns each recording into classifier samples: convert frames to
the chosen event stream (or keep raw frames), optionally pass events
through a binary feature layer, replay them into a time surface, and at
each classification instant select the active region and pool it into a
fixed-length vector.  Feature vectors are built once; randomized
recording-level splits then only retrain the linear readout, so split
randomness is the sole source of accuracy variance.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .classify import (DEFAULT_ACTIVITY_FRACTION, DEFAULT_RIDGE_LAMBDA, PoolConfig, SampleSet,
                       EvalReport, event_sample_indices, frame_sample_times, evaluate_samples,
                       pool, region_from_activity)
from .core import EventStream, Recording, TimeSurface
from .dataio import split_indices
from .eventgen import FirstAndParams, firstand_convert, onoff_convert, oobu_convert
from .feast import (BinaryFeatureSet, FeastParams, binarize, feast_infer, feast_train,
                    random_binary_features)

EVENT_KINDS = ("firstand", "onoff", "oobu")
KINDS = ("frames",) + EVENT_KINDS

# Raw depth codes are scaled into [0, 1] for the frame-based pipeline so the
# ridge regularizer acts on comparable magnitudes across pipelines.
FRAME_CODE_SCALE = 65535.0


@dataclass
class PipelineParams:
    """Every setting a pipeline cell shares with the experiment config.

    Field names are the config keys, so an ExperimentConfig (a subclass)
    can be passed wherever these settings are read.
    """

    # frame-to-event conversion
    firstand_success_threshold: int = FirstAndParams.success_threshold
    firstand_fifo_capacity: int = 0    # events per pulse; 0 = unlimited
    change_threshold: int = 2
    uni_count_threshold: int = 2
    bi_count_threshold: int = 1
    on_is_increase: bool = True

    # feature layer
    feast_roi_side: int = FeastParams.roi_side
    feast_window_us: int = FeastParams.window_us
    feast_mix_rate: float = FeastParams.mix_rate
    feast_shrink_step: float = FeastParams.shrink_step
    feast_grow_step: float = FeastParams.grow_step
    feast_active_bits: int = 32
    retrain_per_trial: bool = False

    # classification cadence: every 8th laser pulse for frames, and the event
    # intervals that keep the total number of classifier invocations roughly
    # equal across stream types
    sample_every_frames: int = 8
    sample_every_firstand: int = 51
    sample_every_onoff: int = 74
    sample_every_oobu: int = 201

    # readout
    ridge_lambda: float = DEFAULT_RIDGE_LAMBDA
    train_fraction: float = 0.9
    activity_fraction: float = DEFAULT_ACTIVITY_FRACTION
    seed: int = 0


def parallel_map(fn, items, jobs: int = 1) -> list:
    """Order-preserving map, optionally across processes.

    Work items must be independent and fn deterministic, so results do not
    depend on the worker count.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as executor:
        chunk = max(1, len(items) // (jobs * 4))
        return list(executor.map(fn, items, chunksize=chunk))


def convert_recording(recording: Recording, kind: str,
                      params: PipelineParams | None = None) -> EventStream:
    p = params if params is not None else PipelineParams()
    if kind == "firstand":
        cap = p.firstand_fifo_capacity if p.firstand_fifo_capacity > 0 else None
        return firstand_convert(recording, params=FirstAndParams(
            success_threshold=p.firstand_success_threshold, fifo_capacity_per_pulse=cap))
    if kind == "onoff":
        return onoff_convert(recording, change_threshold=p.change_threshold,
                             on_is_increase=p.on_is_increase)
    if kind == "oobu":
        return oobu_convert(recording, change_threshold=p.change_threshold,
                            uni_count_threshold=p.uni_count_threshold,
                            bi_count_threshold=p.bi_count_threshold,
                            on_is_increase=p.on_is_increase)
    raise ValueError(f"unknown event kind {kind!r} (expected one of {EVENT_KINDS})")


def convert_all(recordings: list[Recording], kind: str,
                params: PipelineParams | None = None, jobs: int = 1) -> list[EventStream]:
    return parallel_map(partial(convert_recording, kind=kind, params=params), recordings, jobs)


# ---------------------------------------------------------------------------
# Feature layer
# ---------------------------------------------------------------------------


def prepare_binary_features(streams: list[EventStream], mode: str, params: FeastParams,
                            n_active: int = 32,
                            train_indices: np.ndarray | None = None) -> BinaryFeatureSet:
    """Trained or random binary feature set under the same seed protocol.

    "trained" runs the adaptive-threshold pass over the training-split
    streams (in index order) and binarizes the result; "random" binarizes
    the same seeded initial weights untouched.
    """
    if mode == "random":
        return random_binary_features(params, n_active)
    if mode == "trained":
        if train_indices is None:
            train_indices = np.arange(len(streams))
        trained = feast_train([streams[i] for i in train_indices], params)
        return binarize(trained, n_active)
    raise ValueError(f"unknown feature mode {mode!r} (expected 'random' or 'trained')")


def infer_feature_streams(streams: list[EventStream], features: BinaryFeatureSet,
                          window_us: int = FeastParams.window_us,
                          jobs: int = 1) -> list[EventStream]:
    return parallel_map(partial(feast_infer, features=features, window_us=window_us),
                        streams, jobs)


# ---------------------------------------------------------------------------
# Sample building
# ---------------------------------------------------------------------------


def stream_sample_rows(stream: EventStream, pool_config: PoolConfig, every: int,
                       window_us: int = FeastParams.window_us,
                       activity_fraction: float = DEFAULT_ACTIVITY_FRACTION) -> np.ndarray:
    """Classifier inputs for one stream, one row per classification instant.

    The surface is replayed up to and including each sampled event; the
    binary readout at that event's time is region-selected and pooled.
    """
    channels = stream.polarity_count
    width = pool_config.vector_length(channels)
    instants = event_sample_indices(len(stream), every)
    if len(instants) == 0:
        return np.empty((0, width), dtype=np.float64)
    surface = TimeSurface(stream.grid_width, stream.grid_height, channels)
    rows = np.empty((len(instants), width), dtype=np.float64)
    ev = stream.events
    done = 0
    for row, idx in enumerate(instants):
        surface.update_many(ev[done:idx + 1])
        done = idx + 1
        t_now = int(ev["t"][idx])
        grid = surface.binary(t_now, window_us)
        region = region_from_activity(grid.sum(axis=0), activity_fraction)
        rows[row] = pool(region.crop(grid), pool_config)
    return rows


def frame_sample_rows(recording: Recording, pool_config: PoolConfig, every: int,
                      activity_fraction: float = DEFAULT_ACTIVITY_FRACTION) -> np.ndarray:
    """Frame-based baseline samples: the depth frame nearest each instant,
    region-selected on pixel occupancy and pooled as one channel of scaled
    codes."""
    width = pool_config.vector_length(1)
    times = frame_sample_times(recording.n_frames, recording.pulse_period, every)
    if len(times) == 0:
        return np.empty((0, width), dtype=np.float64)
    rows = np.empty((len(times), width), dtype=np.float64)
    for row, t_now in enumerate(times):
        idx = min(int(t_now) // recording.pulse_period, recording.n_frames - 1)
        frame = recording.frames[idx]
        region = region_from_activity((frame > 0).astype(np.int64), activity_fraction)
        values = region.crop(frame[None, :, :]).astype(np.float64) / FRAME_CODE_SCALE
        rows[row] = pool(values, pool_config)
    return rows


def build_sample_set(sources: list, labels, pool_config: PoolConfig, *, sample_every: int,
                     window_us: int = FeastParams.window_us,
                     activity_fraction: float = DEFAULT_ACTIVITY_FRACTION,
                     jobs: int = 1) -> SampleSet:
    """Stack per-source sample rows into one SampleSet.

    sources are either Recordings (frame pipeline, sampled every
    sample_every frames) or EventStreams (every sample_every events).
    """
    labels = np.asarray(labels, dtype=np.int64)
    if len(sources) != len(labels):
        raise ValueError("one label per source required")
    if isinstance(sources[0], Recording):
        fn = partial(frame_sample_rows, pool_config=pool_config, every=sample_every,
                     activity_fraction=activity_fraction)
    else:
        fn = partial(stream_sample_rows, pool_config=pool_config, every=sample_every,
                     window_us=window_us, activity_fraction=activity_fraction)
    row_blocks = parallel_map(fn, sources, jobs)
    features = np.concatenate(row_blocks, axis=0) if row_blocks else np.empty((0, 0))
    rec_index = np.concatenate([np.full(len(block), i, dtype=np.int64)
                                for i, block in enumerate(row_blocks)])
    sample_labels = labels[rec_index] if len(rec_index) else np.empty(0, dtype=np.int64)
    return SampleSet(features=features, labels=sample_labels,
                     recording_index=rec_index, recording_labels=labels)


# ---------------------------------------------------------------------------
# Full pipeline evaluation
# ---------------------------------------------------------------------------


@dataclass
class PipelineSpec(PipelineParams):
    """One evaluation cell: stream kind, optional feature layer, pooling."""

    kind: str = "oobu"
    feature_mode: str = "raw"          # raw | random | trained
    n_neurons: int = 16
    pool: PoolConfig = field(default_factory=PoolConfig)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r} (expected one of {KINDS})")
        if self.feature_mode not in ("raw", "random", "trained"):
            raise ValueError(f"unknown feature_mode {self.feature_mode!r}")
        if self.kind == "frames" and self.feature_mode != "raw":
            raise ValueError("feature layers operate on event streams, not frames")

    def effective_sample_every(self) -> int:
        # feature streams emit one event per input event, so they inherit
        # the parent stream's cadence
        return getattr(self, f"sample_every_{self.kind}")

    def feast_params(self, polarity_count: int) -> FeastParams:
        return FeastParams(n_neurons=self.n_neurons, polarity_count=polarity_count,
                           roi_side=self.feast_roi_side, window_us=self.feast_window_us,
                           mix_rate=self.feast_mix_rate, shrink_step=self.feast_shrink_step,
                           grow_step=self.feast_grow_step, seed=self.seed)


def trial_seeds(base_seed: int, n_trials: int) -> list[int]:
    return [base_seed + trial for trial in range(n_trials)]


def pipeline_sources(recordings: list[Recording], spec: PipelineSpec, seeds: list[int],
                     jobs: int = 1, streams: list[EventStream] | None = None
                     ) -> list[tuple[list[int], list]]:
    """Sources feeding the sample builder, grouped with the trial seeds they serve.

    Frames, raw streams and random feature streams serve every trial as one
    group.  Trained feature layers learn from the first trial's training
    split and stay frozen for the remaining trials, unless retrain_per_trial
    is set: then every trial trains its own features and gets its own group.
    Pooling does not enter, so one call serves every pooling cell.
    """
    if spec.kind == "frames":
        return [(seeds, recordings)]
    if streams is None:
        streams = convert_all(recordings, spec.kind, spec, jobs)
    if spec.feature_mode == "raw":
        return [(seeds, streams)]
    trained = spec.feature_mode == "trained"
    groups = [[seed] for seed in seeds] if trained and spec.retrain_per_trial else [seeds]
    params = spec.feast_params(streams[0].polarity_count)
    n_active = min(spec.feast_active_bits, params.weight_length)
    out = []
    for group in groups:
        train_idx = None
        if trained:
            train_idx, _ = split_indices(len(streams), spec.train_fraction, group[0])
        features = prepare_binary_features(streams, spec.feature_mode, params,
                                           n_active=n_active, train_indices=train_idx)
        out.append((group, infer_feature_streams(streams, features,
                                                 window_us=spec.feast_window_us, jobs=jobs)))
    return out


def evaluate_sources(groups: list[tuple[list[int], list]], labels, spec: PipelineSpec,
                     n_classes: int, jobs: int = 1) -> EvalReport:
    """Pool each group's sources per spec and evaluate the readout on its trials."""
    reports = []
    for seeds, sources in groups:
        samples = build_sample_set(sources, labels, spec.pool,
                                   sample_every=spec.effective_sample_every(),
                                   window_us=spec.feast_window_us,
                                   activity_fraction=spec.activity_fraction, jobs=jobs)
        reports.append(evaluate_samples(samples, n_classes, seeds,
                                        spec.ridge_lambda, spec.train_fraction))
    return reports[0] if len(reports) == 1 else _merge_reports(reports)


def run_pipeline(recordings: list[Recording], spec: PipelineSpec, n_classes: int,
                 seeds: list[int], jobs: int = 1,
                 streams: list[EventStream] | None = None) -> EvalReport:
    """Evaluate one pipeline cell over randomized splits (see pipeline_sources)."""
    labels = np.array([rec.class_id for rec in recordings], dtype=np.int64)
    groups = pipeline_sources(recordings, spec, seeds, jobs, streams)
    return evaluate_sources(groups, labels, spec, n_classes, jobs)


def _merge_reports(reports: list[EvalReport]) -> EvalReport:
    """One report over every trial; confusion and the no-sample count summed,
    sample stats from the last group (every group samples the same events)."""
    trials = [t for rep in reports for t in rep.trials]
    for i, t in enumerate(trials):
        t.trial = i
    pf = np.array([t.per_frame_accuracy for t in trials])
    pr = np.array([t.per_recording_accuracy for t in trials])
    last = reports[-1]
    return EvalReport(per_frame_mean=float(pf.mean()), per_frame_std=float(pf.std()),
                      per_recording_mean=float(pr.mean()), per_recording_std=float(pr.std()),
                      n_trials=len(trials), trials=trials,
                      confusion=sum(rep.confusion for rep in reports),
                      samples_per_recording_mean=last.samples_per_recording_mean,
                      samples_per_recording_std=last.samples_per_recording_std,
                      n_no_sample_recordings=sum(rep.n_no_sample_recordings for rep in reports))
