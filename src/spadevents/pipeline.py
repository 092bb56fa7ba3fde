"""End-to-end evaluation pipelines over in-memory datasets.

A pipeline turns each recording into classifier samples: convert frames to
the chosen event stream (or keep raw frames), optionally pass events
through a binary feature layer, replay them into a time surface, and at
each classification instant select the active region and pool it into a
fixed-length vector.  Regions are selected once per source group; each
pooling cell pools them in batches of one crop shape.  Randomized
recording-level splits then only retrain the linear readout, so split
randomness is the sole source of accuracy variance.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain

import numpy as np

from .classify import (DEFAULT_ACTIVITY_FRACTION, DEFAULT_RIDGE_LAMBDA, PoolConfig, SampleSet,
                       EvalReport, event_sample_indices, frame_sample_times, evaluate_samples,
                       pool, region_from_activity)
from .core import EventStream, Recording, TimeSurface
from .dataio import split_indices
from .eventgen import FirstAndParams, firstand_convert, onoff_convert, oobu_convert
from .feast import (BinaryFeatureSet, ContinuousFeatureSet, FeastParams, binarize, feast_infer,
                    feast_train, initial_features)

EVENT_KINDS = ("firstand", "onoff", "oobu")
KINDS = ("frames",) + EVENT_KINDS
FEATURE_MODES = ("raw", "random", "trained")

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
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as executor:
        chunk = max(1, len(items) // (workers * 4))
        return list(executor.map(fn, items, chunksize=chunk))


def convert_recording(recording: Recording, kind: str,
                      params: PipelineParams | None = None) -> EventStream:
    p = params if params is not None else PipelineParams()
    if kind == "firstand":
        if p.firstand_fifo_capacity < 0:
            raise ValueError(f"firstand_fifo_capacity must be non-negative (0 = unlimited), "
                             f"got {p.firstand_fifo_capacity}")
        cap = p.firstand_fifo_capacity or None
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


def prepare_binary_features(streams: list[EventStream], spec: PipelineSpec,
                            train_indices: np.ndarray | None = None
                            ) -> tuple[ContinuousFeatureSet, BinaryFeatureSet]:
    """The continuous and binary feature sets of a "random" or "trained" spec.

    "trained" runs the adaptive-threshold pass over the streams at
    train_indices (every stream when None), in index order; "random" keeps
    the seeded initial weights.  Both binarize to feast_active_bits, clamped
    to the weight length.
    """
    params = spec.feast_params(streams[0].polarity_count)
    if spec.feature_mode == "trained":
        if train_indices is None:
            train_indices = np.arange(len(streams))
        continuous = feast_train([streams[i] for i in train_indices], params)
    else:
        continuous = initial_features(params)
    return continuous, binarize(continuous, min(spec.feast_active_bits, params.weight_length))


def infer_feature_streams(streams: list[EventStream], features: BinaryFeatureSet,
                          window_us: int = FeastParams.window_us,
                          jobs: int = 1) -> list[EventStream]:
    return parallel_map(partial(feast_infer, features=features, window_us=window_us),
                        streams, jobs)


# ---------------------------------------------------------------------------
# Sample building
# ---------------------------------------------------------------------------


def _stream_states(stream: EventStream, indices: np.ndarray, window_us: int):
    """(binary surface, activity) at each sampled event index, the surface
    replayed up to and including that event."""
    surface = TimeSurface(stream.grid_width, stream.grid_height, stream.polarity_count)
    ev = stream.events
    done = 0
    for idx in indices:
        surface.update_many(ev[done:idx + 1])
        done = idx + 1
        grid = surface.binary(int(ev["t"][idx]), window_us)
        yield grid, grid.sum(axis=0)


def _frame_states(recording: Recording, times: np.ndarray):
    """(scaled codes, pixel occupancy) of the depth frame nearest each instant."""
    for t_now in times:
        frame = recording.frames[min(int(t_now) // recording.pulse_period,
                                     recording.n_frames - 1)]
        yield frame[None] / FRAME_CODE_SCALE, frame > 0


@dataclass
class SampleRegions:
    """Each classification instant's cropped active region, stacked one per row
    with the crops of its (C, Ay, Ax) shape: bit-packed binary grids, or frames' scaled codes."""

    counts: list[int]            # instants per source
    channels: int
    crops: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]]   # shape -> (rows, crops)


def select_regions(sources: list, *, sample_every: int,
                   window_us: int = FeastParams.window_us,
                   activity_fraction: float = DEFAULT_ACTIVITY_FRACTION) -> SampleRegions:
    """Crop the active region at every instant of Recordings (frame pipeline,
    sampled every sample_every frames) or EventStreams (every sample_every events)."""
    if not sources:
        raise ValueError("sample building needs at least one source")
    if not 0 <= activity_fraction <= 1:
        raise ValueError(f"activity_fraction must lie in [0, 1], got {activity_fraction}")
    if sample_every < 1 or window_us < 1:
        raise ValueError(f"sample_every and window_us must be positive, "
                         f"got {sample_every} and {window_us}")
    from_frames = isinstance(sources[0], Recording)
    instants = [frame_sample_times(src.n_frames, src.pulse_period, sample_every) if from_frames
                else event_sample_indices(len(src), sample_every) for src in sources]
    states = chain.from_iterable(
        _frame_states(source, times) if from_frames else _stream_states(source, times, window_us)
        for source, times in zip(sources, instants))
    # shape -> rows, and the crops' bytes appended to one buffer that then
    # backs the stack: no list of crops and no second copy of them
    by_shape: dict[tuple[int, int, int], tuple[list, bytearray]] = {}
    for row, (values, activity) in enumerate(states):
        crop = region_from_activity(activity, activity_fraction).crop(values)
        rows, data = by_shape.setdefault(crop.shape, ([], bytearray()))
        rows.append(row)
        data += crop.tobytes() if from_frames else np.packbits(crop).tobytes()
    dtype = np.float64 if from_frames else np.uint8
    crops = {shape: (np.array(rows, dtype=np.int64),
                     np.frombuffer(data, dtype).reshape(len(rows), -1))
             for shape, (rows, data) in by_shape.items()}
    return SampleRegions([len(times) for times in instants],
                         1 if from_frames else sources[0].polarity_count, crops)


def build_sample_set(regions: SampleRegions, labels, pool_config: PoolConfig) -> SampleSet:
    """One pooled row per classification instant of select_regions' regions,
    which every pooling cell of a source group shares."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(regions.counts) != len(labels):
        raise ValueError("one label per source required")
    # allocated once at its exact size: stacking a list of per-instant rows
    # instead fragments the heap and raised c8_cells' peak RSS by up to 3 MB
    features = np.empty((sum(regions.counts), pool_config.vector_length(regions.channels)))
    for shape, (rows, crops) in regions.crops.items():
        # values pooled per block: bounds the float temporaries to a few MB
        # whatever the channel count, region shape and pooling size
        step = max(1, 32768 // max(features.shape[1], math.prod(shape)))
        for start in range(0, len(rows), step):
            block = crops[start:start + step]
            if block.dtype == np.uint8:
                block = np.unpackbits(block, axis=1, count=math.prod(shape))
            features[rows[start:start + step]] = pool(block.reshape(-1, *shape), pool_config)
    rec_index = np.repeat(np.arange(len(labels), dtype=np.int64), regions.counts)
    return SampleSet(features=features, labels=labels[rec_index], recording_index=rec_index,
                     recording_labels=labels)


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
        if self.feature_mode not in FEATURE_MODES:
            raise ValueError(f"unknown feature_mode {self.feature_mode!r} "
                             f"(expected one of {FEATURE_MODES})")
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
                     ) -> list[tuple[list[int], SampleRegions]]:
    """Sample regions of the sources, grouped with the trial seeds they serve.

    Frames, raw streams and random feature streams serve every trial as one
    group.  Trained feature layers learn from the first trial's training
    split and stay frozen for the remaining trials, unless retrain_per_trial
    is set: then every trial trains its own features and gets its own group.
    Regions are selected here; pooling does not enter, so one call serves
    every pooling cell.
    """
    select = partial(select_regions, sample_every=spec.effective_sample_every(),
                     window_us=spec.feast_window_us, activity_fraction=spec.activity_fraction)
    if spec.kind == "frames":
        return [(seeds, select(recordings))]
    if streams is None:
        streams = convert_all(recordings, spec.kind, spec, jobs)
    if spec.feature_mode == "raw":
        return [(seeds, select(streams))]
    trained = spec.feature_mode == "trained"
    groups = [[seed] for seed in seeds] if trained and spec.retrain_per_trial else [seeds]
    out = []
    for group in groups:
        train_idx = (split_indices(len(streams), spec.train_fraction, group[0])[0]
                     if trained else None)
        _, features = prepare_binary_features(streams, spec, train_idx)
        out.append((group, select(infer_feature_streams(streams, features,
                                                        window_us=spec.feast_window_us,
                                                        jobs=jobs))))
    return out


def evaluate_sources(groups: list[tuple[list[int], SampleRegions]], labels, spec: PipelineSpec,
                     n_classes: int) -> EvalReport:
    """Pool each group's regions per spec and evaluate the readout on its trials.

    The groups' reports join into one: trials in group order, confusion and
    the no-sample count summed, sample stats from the last group (every
    group samples the same events).
    """
    reports = [evaluate_samples(build_sample_set(regions, labels, spec.pool), n_classes, seeds,
                                spec.ridge_lambda, spec.train_fraction)
               for seeds, regions in groups]
    return replace(reports[-1], trials=[t for rep in reports for t in rep.trials],
                   confusion=sum(rep.confusion for rep in reports),
                   n_no_sample_recordings=sum(rep.n_no_sample_recordings for rep in reports))


def run_pipeline(recordings: list[Recording], spec: PipelineSpec, n_classes: int,
                 seeds: list[int], jobs: int = 1,
                 streams: list[EventStream] | None = None) -> EvalReport:
    """Evaluate one pipeline cell over randomized splits (see pipeline_sources)."""
    labels = np.array([rec.class_id for rec in recordings], dtype=np.int64)
    groups = pipeline_sources(recordings, spec, seeds, jobs, streams)
    return evaluate_sources(groups, labels, spec, n_classes)
