"""End-to-end evaluation pipelines over in-memory datasets.

A pipeline turns each recording into classifier samples: convert frames to
the chosen event stream (or keep raw frames), optionally pass events
through a binary feature layer, replay them into a time surface, and at
each classification instant select the active region and pool it into a
fixed-length vector.  Randomized recording-level splits then only retrain
the linear readout, so split randomness is the sole source of accuracy
variance.  evaluate_cells is the one path from cell specs to reports: its
consecutive specs share conversion, ROI extraction and region selection,
and its streams maps a kind to streams the caller already has.
"""

from __future__ import annotations

import math
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from .classify import (DEFAULT_ACTIVITY_FRACTION, DEFAULT_RIDGE_LAMBDA, PoolConfig, SampleSet,
                       EvalReport, bilinear_pool_rows, evaluate_samples, region_from_activity,
                       zoh_pool_rows)
from .core import NEVER, POLARITY_LIMIT, EventStream, Recording, surface_lit
from .dataio import split_indices
from .eventgen import FirstAndParams, firstand_convert, onoff_convert, oobu_convert
from .feast import (BinaryFeatureSet, ContinuousFeatureSet, FeastParams, binarize, event_rois,
                    feast_infer, feast_train, initial_features)

EVENT_KINDS = ("firstand", "onoff", "oobu")
KINDS = ("frames",) + EVENT_KINDS
FEATURE_MODES = ("raw", "random", "trained")

# Raw depth codes are scaled into [0, 1] for the frame-based pipeline so the
# ridge regularizer acts on comparable magnitudes across pipelines.
FRAME_CODE_SCALE = 65535.0


def build_from_keys(owner, params, keys: dict[str, str], **fixed):
    """owner(**fixed), each field in keys set from the params attribute (the
    config key) that keys maps it to.  The owner checks the values; its
    refusal is re-raised naming the keys of the fields its message names.
    """
    try:
        return owner(**fixed, **{name: getattr(params, key) for name, key in keys.items()})
    except ValueError as exc:
        named = dict.fromkeys(keys[word] for word in re.findall(r"\w+", str(exc)) if word in keys)
        if not named:
            raise
        raise ValueError(f"{', '.join(named)}: {exc}") from None


def check_at_least(params, lows: dict[str, int]) -> None:
    """Refuse each attribute of params named in lows that lies below its low."""
    for key, low in lows.items():
        if getattr(params, key) < low:
            raise ValueError(f"{key} must be at least {low}, got {getattr(params, key)}")


# the FeastParams fields that config keys set
_FEAST_KEYS = {"roi_side": "feast_roi_side", "mix_rate": "feast_mix_rate",
               "shrink_step": "feast_shrink_step", "grow_step": "feast_grow_step", "seed": "seed"}


@dataclass
class PipelineParams:
    """Every setting a pipeline cell shares with the experiment config.

    Field names are the config keys, so an ExperimentConfig (a subclass)
    can be passed wherever these settings are read.  Construction refuses
    any value outside its domain; the First-AND and FEAST keys are checked
    by FirstAndParams and FeastParams.
    """

    # frame-to-event conversion
    firstand_success_threshold: int = FirstAndParams.success_threshold
    firstand_fifo_capacity: int = 0    # events per pulse; 0 = unlimited
    change_threshold: int = 2
    uni_count_threshold: int = 2
    bi_count_threshold: int = 1

    # feature layer
    feast_roi_side: int = FeastParams.roi_side
    feast_window_us: int = 2000
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

    def __post_init__(self):
        check_at_least(self, {"firstand_fifo_capacity": 0, "change_threshold": 1,
                              "bi_count_threshold": 0, "feast_window_us": 1,
                              "sample_every_frames": 1, "sample_every_firstand": 1,
                              "sample_every_onoff": 1, "sample_every_oobu": 1, "seed": 0})
        if self.uni_count_threshold < self.bi_count_threshold:
            raise ValueError(f"uni_count_threshold must be at least bi_count_threshold, "
                             f"got {self.uni_count_threshold} and {self.bi_count_threshold}")
        # at 0 an exactly singular Gram matrix need not raise LinAlgError, and its
        # trial would score as if the readout were sound
        if not 0 < self.ridge_lambda < math.inf:
            raise ValueError(f"ridge_lambda must be finite and positive, got {self.ridge_lambda}")
        if not 0 < self.train_fraction < 1:
            raise ValueError(f"train_fraction must lie strictly between 0 and 1, "
                             f"got {self.train_fraction}")
        if not 0 <= self.activity_fraction <= 1:
            raise ValueError(f"activity_fraction must lie in [0, 1], got {self.activity_fraction}")
        self.firstand_params()
        build_from_keys(FeastParams, self, _FEAST_KEYS, n_neurons=1, polarity_count=1)

    def firstand_params(self) -> FirstAndParams:
        return build_from_keys(FirstAndParams, self,
                               {"success_threshold": "firstand_success_threshold"},
                               fifo_capacity_per_pulse=self.firstand_fifo_capacity or None)


def parallel_map(fn, items, jobs: int = 1) -> list:
    """Order-preserving map, optionally across processes (stream conversion).

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
    """The recording's stream of one kind; a converter's refusal names the recording."""
    p = params if params is not None else PipelineParams()
    try:
        if kind == "firstand":
            return firstand_convert(recording, params=p.firstand_params())
        if kind == "onoff":
            return onoff_convert(recording, change_threshold=p.change_threshold)
        if kind == "oobu":
            return oobu_convert(recording, change_threshold=p.change_threshold,
                                uni_count_threshold=p.uni_count_threshold,
                                bi_count_threshold=p.bi_count_threshold)
    except ValueError as exc:
        raise ValueError(f"recording {recording.recording_id}: {exc}") from None
    raise ValueError(f"unknown event kind {kind!r} (expected one of {EVENT_KINDS})")


def convert_all(recordings: list[Recording], kind: str,
                params: PipelineParams | None = None, jobs: int = 1) -> list[EventStream]:
    return parallel_map(partial(convert_recording, kind=kind, params=params), recordings, jobs)


# ---------------------------------------------------------------------------
# Feature layer
# ---------------------------------------------------------------------------


def feature_rois(streams: list[EventStream], params: PipelineParams) -> list[np.ndarray]:
    """Each stream's bit-packed event_rois, the one ROI extraction that the
    feature layer's training and inference share.  They depend only on the
    stream, feast_roi_side and feast_window_us: never on N, the weights or
    the training split."""
    return [event_rois(s, params.feast_roi_side, params.feast_window_us) for s in streams]


def prepare_binary_features(streams: list[EventStream], spec: PipelineSpec,
                            rois: list[np.ndarray], train_indices: np.ndarray | None = None
                            ) -> tuple[ContinuousFeatureSet, BinaryFeatureSet]:
    """The continuous and binary feature sets of a "random" or "trained" spec.

    "trained" runs the adaptive-threshold pass over the streams at
    train_indices (every stream when None), in index order, reading their
    rows of rois (feature_rois of the streams); "random" keeps the seeded
    initial weights.  Both binarize to feast_active_bits, clamped to the
    weight length.
    """
    params = spec.feast_params(streams[0].polarity_count)
    if spec.feature_mode == "trained":
        if train_indices is None:
            train_indices = np.arange(len(streams))
        continuous = feast_train([streams[i] for i in train_indices], params,
                                 [rois[i] for i in train_indices])
    else:
        continuous = initial_features(params)
    return continuous, binarize(continuous, min(spec.feast_active_bits, params.weight_length))


def infer_feature_streams(streams: list[EventStream], features: BinaryFeatureSet,
                          rois: list[np.ndarray]) -> list[EventStream]:
    """feast_infer over the streams, in-process, reading rois (feature_rois
    of the streams)."""
    return [feast_infer(stream, features, packed) for stream, packed in zip(streams, rois)]


# ---------------------------------------------------------------------------
# Sample building
# ---------------------------------------------------------------------------


# Bytes of the bool surfaces (or frame masks) that select_regions takes at
# once: a block of instants replays into them and is bounded in one pass.
_BLOCK_BYTES = 2 ** 18


def _stream_blocks(stream: EventStream, instants: np.ndarray, window_us: int):
    """Per block of instants: the binary surfaces (n, P, H, W) replayed up
    to and including each instant's event."""
    shape = (stream.polarity_count, stream.grid_height, stream.grid_width)
    size = math.prod(shape)
    ev = stream.events
    ts = ev["t"]
    cells = (ev["p"].astype(np.intp) * shape[1] + ev["y"]) * shape[2] + ev["x"]
    last_t = np.full(size, NEVER, dtype=np.int64)
    step = max(1, _BLOCK_BYTES // size)
    done = 0
    for start in range(0, len(instants), step):
        block = instants[start:start + step].tolist()
        surfaces = np.empty((len(block), size), dtype=bool)
        for j, idx in enumerate(block):
            # one write per stretch: the stretch is time-sorted, so a cell's
            # latest event lands last
            last_t[cells[done:idx + 1]] = ts[done:idx + 1]
            done = idx + 1
            surfaces[j] = surface_lit(last_t, int(ts[idx]), window_us)
        yield surfaces.reshape(len(block), *shape)


@dataclass(eq=False)
class SampleRegions:
    """Each classification instant's cropped active region, in instant order,
    back to back in one buffer: byte-aligned np.packbits rows of binary
    grids, or frames' scaled codes.  Crop i is (channels, *shapes[i])."""

    counts: list[int]            # instants per source
    channels: int
    shapes: np.ndarray           # (n, 2) int32: each crop's (Ay, Ax)
    data: np.ndarray             # 1-D: uint8 packed bits, or float64 codes

    @property
    def packed(self) -> bool:
        return self.data.dtype == np.uint8

    @cached_property
    def offsets(self) -> np.ndarray:
        """Where each crop starts in data, then where the last one ends."""
        lengths = self.channels * self.shapes.prod(axis=1, dtype=np.int64)
        if self.packed:
            lengths = (lengths + 7) // 8
        return np.concatenate([[0], np.cumsum(lengths)])

    def crops(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Crops start..stop as one flat array of values, unpacked once, and
        where each crop starts in it."""
        first = self.offsets[start]
        values = self.data[first:self.offsets[stop]]
        starts = self.offsets[start:stop] - first
        if self.packed:
            return np.unpackbits(values), starts * 8
        return values, starts

    @cached_property
    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        """Every crop's column sums (n, C, max Ax) and row sums (n, C, max Ay),
        zero-padded; taken once, per crop shape, and summed as int32 for
        binary crops and float64 for frame crops."""
        n, channels = len(self.shapes), self.channels
        height, width = self.shapes.max(axis=0, initial=0)
        dtype = np.int32 if self.packed else np.float64
        col_sums = np.zeros((n, channels, width), dtype)
        row_sums = np.zeros((n, channels, height), dtype)
        shapes, inverse = np.unique(self.shapes, axis=0, return_inverse=True)
        for k, (ay, ax) in enumerate(shapes.tolist()):
            length = channels * ay * ax
            group = np.flatnonzero(inverse.reshape(-1) == k)
            step = max(1, 2 ** 20 // length)   # about a MB of crops unpacked at a time
            for rows in np.split(group, range(step, len(group), step)):
                taken = self.data[self.offsets[rows][:, None]
                                  + np.arange((length + 7) // 8 if self.packed else length)]
                if self.packed:
                    taken = np.unpackbits(taken, axis=1, count=length)
                taken = taken.reshape(-1, channels, ay, ax)
                col_sums[rows, :, :ax] = taken.sum(axis=2, dtype=dtype)
                row_sums[rows, :, :ay] = taken.sum(axis=3, dtype=dtype)
        return col_sums, row_sums


def select_regions(sources: list, *, sample_every: int,
                   window_us: int = PipelineParams.feast_window_us,
                   activity_fraction: float = DEFAULT_ACTIVITY_FRACTION) -> SampleRegions:
    """Crop the active region at every instant of Recordings (frame pipeline,
    sampled every sample_every frames) or EventStreams (every sample_every
    events).  A source's instants are the indices sample_every - 1,
    2 * sample_every - 1, ... of its frames or events."""
    if not sources:
        raise ValueError("sample building needs at least one source")
    if not 0 <= activity_fraction <= 1:
        raise ValueError(f"activity_fraction must lie in [0, 1], got {activity_fraction}")
    if sample_every < 1 or window_us < 1:
        raise ValueError(f"sample_every and window_us must be positive, "
                         f"got {sample_every} and {window_us}")
    from_frames = isinstance(sources[0], Recording)
    instants = [np.arange(sample_every - 1, src.n_frames if from_frames else len(src),
                          sample_every) for src in sources]
    # the crops' bytes appended to one buffer that then backs the array: no
    # list of crops and no second copy of them
    shapes, data = [], bytearray()
    for src, idx in zip(sources, instants):
        if from_frames:
            # instant i = k * every - 1 reads frame k * every, the frame at
            # t = k * every * pulse_period, or the last frame when t falls past
            # the end (at 80 frames and cadence 8, instant 79 reads frame 79)
            read = np.minimum(idx + 1, src.n_frames - 1)
            step = max(1, _BLOCK_BYTES // (src.height * src.width))
            blocks = (src.frames[read[start:start + step]] for start in range(0, len(read), step))
        else:
            blocks = _stream_blocks(src, idx, window_us)
        for values in blocks:
            activity = values > 0 if from_frames else values.sum(axis=1, dtype=np.uint16)
            rows, cols = region_from_activity(activity, activity_fraction)
            for value, (y0, y1), (x0, x1) in zip(values, rows.tolist(), cols.tolist()):
                shapes += (y1 - y0, x1 - x0)
                if from_frames:
                    data += (value[y0:y1, x0:x1] / FRAME_CODE_SCALE).tobytes()
                else:
                    data += np.packbits(value[:, y0:y1, x0:x1]).tobytes()
    return SampleRegions([len(idx) for idx in instants],
                         1 if from_frames else sources[0].polarity_count,
                         np.array(shapes, dtype=np.int32).reshape(-1, 2),
                         np.frombuffer(data, np.float64 if from_frames else np.uint8))


def build_sample_set(regions: SampleRegions, labels, pool_config: PoolConfig) -> SampleSet:
    """One pooled row per classification instant of select_regions' regions,
    which every pooling cell of a source group shares.  All crop shapes pool
    together: 1D pooling from the regions' marginals, 2D from their crops."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(regions.counts) != len(labels):
        raise ValueError("one label per source required")
    n, size = len(regions.shapes), pool_config.size
    # allocated once at its exact size: stacking a list of per-instant rows
    # instead fragments the heap and raised c8_cells' peak RSS by up to 3 MB
    features = np.empty((n, pool_config.vector_length(regions.channels)))
    # rows pooled per block: bounds the index arrays and float temporaries to
    # a few MB, and 2D pooling's unpacked crops to a quarter MB
    step = 32768 // features.shape[1]
    if pool_config.method == "2d" and n:
        largest = regions.channels * int(regions.shapes.prod(axis=1, dtype=np.int64).max())
        step = min(step, 2 ** 18 // largest)
    step = max(1, step)
    for start in range(0, n, step):
        stop = min(start + step, n)
        shapes = regions.shapes[start:stop]
        if pool_config.method == "1d":
            col_sums, row_sums = (sums[start:stop] for sums in regions.marginals)
            features[start:stop] = zoh_pool_rows(col_sums, row_sums, shapes, size)
        else:
            features[start:stop] = bilinear_pool_rows(*regions.crops(start, stop), shapes,
                                                      regions.channels, size)
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
        super().__post_init__()
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r} (expected one of {KINDS})")
        if self.feature_mode not in FEATURE_MODES:
            raise ValueError(f"unknown feature_mode {self.feature_mode!r} "
                             f"(expected one of {FEATURE_MODES})")
        if self.kind == "frames" and self.feature_mode != "raw":
            raise ValueError("feature layers operate on event streams, not frames")
        if self.feature_mode != "raw" and self.feast_active_bits < 1:
            raise ValueError(f"feast_active_bits must be at least 1, "
                             f"got {self.feast_active_bits}")
        # feature events carry the winning neuron as their polarity
        if self.feature_mode != "raw" and not 1 <= self.n_neurons <= POLARITY_LIMIT:
            raise ValueError(f"n_neurons must lie in 1..{POLARITY_LIMIT}, got {self.n_neurons}")

    def effective_sample_every(self) -> int:
        # feature streams emit one event per input event, so they inherit
        # the parent stream's cadence
        return getattr(self, f"sample_every_{self.kind}")

    def feast_params(self, polarity_count: int) -> FeastParams:
        return build_from_keys(FeastParams, self, _FEAST_KEYS, n_neurons=self.n_neurons,
                               polarity_count=polarity_count)


def trial_seeds(base_seed: int, n_trials: int) -> list[int]:
    return [base_seed + trial for trial in range(n_trials)]


def _pipeline_sources(recordings: list[Recording], spec: PipelineSpec, seeds: list[int],
                      streams: list[EventStream] | None, rois: list[np.ndarray] | None
                      ) -> list[tuple[list[int], SampleRegions]]:
    """Sample regions of the spec's sources (the recordings for frames, else
    the streams), grouped with the trial seeds they serve.

    Frames, raw streams and random feature streams serve every trial as one
    group.  Trained feature layers learn from the first trial's training
    split and stay frozen for the remaining trials, unless retrain_per_trial
    is set: then every trial trains its own features and gets its own group.
    A cadence longer than every source is refused before any feature
    training.  Feature layers read rois (feature_rois of the streams).
    Pooling does not enter, so one call serves every pooling cell.
    """
    every = spec.effective_sample_every()
    select = partial(select_regions, sample_every=every, window_us=spec.feast_window_us,
                     activity_fraction=spec.activity_fraction)
    frames = spec.kind == "frames"
    sources = recordings if frames else streams
    lengths = [src.n_frames if frames else len(src) for src in sources]
    if max(lengths, default=every) < every:
        raise ValueError(f"sample_every_{spec.kind} = {every} gives no classification instant: "
                         f"the longest source holds {max(lengths)} "
                         f"{'frames' if frames else 'events'}")
    if spec.feature_mode == "raw":
        return [(seeds, select(sources))]
    trained = spec.feature_mode == "trained"
    groups = [[seed] for seed in seeds] if trained and spec.retrain_per_trial else [seeds]
    out = []
    for group in groups:
        train_idx = (split_indices(len(streams), spec.train_fraction, group[0])[0]
                     if trained else None)
        _, features = prepare_binary_features(streams, spec, rois, train_idx)
        out.append((group, select(infer_feature_streams(streams, features, rois))))
    return out


def _evaluate_sources(groups: list[tuple[list[int], SampleRegions]], labels, spec: PipelineSpec,
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


def evaluate_cells(recordings: list[Recording], specs: list[PipelineSpec], n_classes: int,
                   seeds: list[int], streams: dict[str, list[EventStream]] | None = None,
                   jobs: int = 1) -> list[EvalReport]:
    """One report per spec, in spec order, each over the trial splits of seeds.

    Consecutive specs share work: conversion once per kind and conversion
    settings (across jobs processes, unless streams maps the kind to the
    caller's streams), ROIs once per stream set, feast_roi_side and
    feast_window_us, and regions once per spec without its pool.  One stream
    set, ROI set and region group is held at a time, freed before the next.
    """
    labels = np.array([rec.class_id for rec in recordings], dtype=np.int64)
    given = streams or {}
    kind_streams = rois = groups = stream_key = roi_key = group_key = None
    reports = []
    for spec in specs:
        base = replace(spec, pool=PoolConfig())
        if base != group_key:
            # each held set is dropped before its successor is built, so that
            # no two of a kind are alive at once
            groups = None
            key = (spec.kind, spec.firstand_params(), spec.change_threshold,
                   spec.uni_count_threshold, spec.bi_count_threshold)
            if key != stream_key:
                kind_streams = rois = roi_key = None
                if spec.kind != "frames":
                    kind_streams = (given[spec.kind] if spec.kind in given
                                    else convert_all(recordings, spec.kind, spec, jobs))
                stream_key = key
            roi_settings = (spec.feast_roi_side, spec.feast_window_us)
            if spec.feature_mode != "raw" and roi_settings != roi_key:
                rois = None
                rois, roi_key = feature_rois(kind_streams, spec), roi_settings
            groups, group_key = _pipeline_sources(recordings, spec, seeds, kind_streams, rois), base
        reports.append(_evaluate_sources(groups, labels, spec, n_classes))
    return reports


def run_pipeline(recordings: list[Recording], spec: PipelineSpec, n_classes: int,
                 seeds: list[int], streams: list[EventStream] | None = None) -> EvalReport:
    """evaluate_cells of one spec; converts in-process when streams are not given."""
    return evaluate_cells(recordings, [spec], n_classes, seeds,
                          None if streams is None else {spec.kind: streams})[0]
