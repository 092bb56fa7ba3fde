"""End-to-end pipeline orchestration: conversion, features, samples, evaluation."""

import tracemalloc

import numpy as np
import pytest

from spadevents import pipeline
from spadevents.classify import (DEFAULT_ACTIVITY_FRACTION, PoolConfig, event_sample_indices,
                                 frame_sample_times, pool, region_from_activity)
from spadevents.core import EventStream, Recording, StreamKind, TimeSurface, make_events
from spadevents.dataio import SynthConfig, synth_generate
from spadevents.feast import FeastParams, binarize, initial_features
from spadevents.pipeline import (FRAME_CODE_SCALE, PipelineSpec, build_sample_set,
                                 convert_all, convert_recording, infer_feature_streams,
                                 parallel_map, prepare_binary_features,
                                 run_pipeline, select_regions, trial_seeds)


@pytest.fixture(scope="module")
def tiny_dataset():
    cfg = SynthConfig(n_classes=3, recordings_per_class=6, frames_per_recording=80,
                      grid_width=24, grid_height=24, seed=2)
    _, recordings = synth_generate(cfg)
    return recordings


class TestConversionDispatch:
    def test_all_kinds(self, tiny_dataset):
        rec = tiny_dataset[0]
        assert convert_recording(rec, "firstand").kind == StreamKind.FIRST_AND
        assert convert_recording(rec, "onoff").kind == StreamKind.ON_OFF
        assert convert_recording(rec, "oobu").kind == StreamKind.OOBU
        with pytest.raises(ValueError, match="unknown event kind"):
            convert_recording(rec, "frames")

    def test_parallel_map_matches_serial(self, tiny_dataset):
        serial = convert_all(tiny_dataset, "onoff", jobs=1)
        parallel = convert_all(tiny_dataset, "onoff", jobs=2)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.events, b.events)

    def test_parallel_map_preserves_order(self):
        out = parallel_map(lambda v: v * v, [3, 1, 4, 1, 5], jobs=1)
        assert out == [9, 1, 16, 1, 25]

    @pytest.mark.parametrize("jobs, n_items, workers", [(64, 20, 20), (2, 20, 2), (8, 3, 3)])
    def test_parallel_map_starts_at_most_one_worker_per_item(self, jobs, n_items, workers,
                                                             monkeypatch):
        started = []

        class FakeExecutor:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", FakeExecutor)
        assert parallel_map(abs, range(-n_items, 0), jobs=jobs) == list(range(n_items, 0, -1))
        assert started == [workers]


def reference_stream_rows(stream, pool_config, every, window_us=FeastParams.window_us,
                          activity_fraction=DEFAULT_ACTIVITY_FRACTION):
    """The per-instant stream sample builder as it stood before the shared loop."""
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


def reference_frame_rows(recording, pool_config, every,
                         activity_fraction=DEFAULT_ACTIVITY_FRACTION):
    """The per-instant frame sample builder as it stood before the shared loop."""
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


@pytest.fixture(scope="module")
def oracle_sources(tiny_dataset):
    """Sources of every kind, each list ending in an edge case: a recording
    shorter than the frame cadence, or a stream without events."""
    recordings = tiny_dataset[:5]
    short = Recording(frames=recordings[0].frames[:5], pulse_period=recordings[0].pulse_period)
    sources = {"frames": (recordings + [short], 8)}
    for kind in ("firstand", "onoff", "oobu"):
        streams = convert_all(recordings, kind)
        empty = EventStream(kind=streams[0].kind, grid_width=24, grid_height=24)
        sources[kind] = (streams + [empty], PipelineSpec(kind=kind).effective_sample_every())
    oobu = sources["oobu"][0][:-1]
    params = PipelineSpec(n_neurons=4, seed=3).feast_params(oobu[0].polarity_count)
    features = infer_feature_streams(oobu, binarize(initial_features(params), 16))
    empty = EventStream(kind=StreamKind.FEATURE, grid_width=24, grid_height=24,
                        polarity_count=4)
    sources["feature"] = (features + [empty], 201)
    return sources


class TestSampleBuilding:
    def test_row_count_follows_cadence(self):
        n = 402
        ev = make_events(np.arange(n) * 7, np.zeros(n), np.zeros(n), np.zeros(n))
        stream = EventStream(kind=StreamKind.OOBU, grid_width=8, grid_height=8, events=ev)
        samples = build_sample_set(select_regions([stream], sample_every=201), [0],
                                   PoolConfig(method="2d", size=4))
        assert samples.features.shape == (2, 4 * 16)

    def test_empty_stream_gives_zero_rows(self):
        stream = EventStream(kind=StreamKind.ON_OFF, grid_width=8, grid_height=8)
        samples = build_sample_set(select_regions([stream], sample_every=74), [0],
                                   PoolConfig(method="1d", size=4))
        assert samples.features.shape == (0, 2 * 8)
        assert samples.labels.shape == samples.recording_index.shape == (0,)

    @pytest.mark.parametrize("kind", ["frames", "firstand", "onoff", "oobu", "feature"])
    @pytest.mark.parametrize("method", ["1d", "2d"])
    @pytest.mark.parametrize("size", [1, 3, 12, 24])
    def test_matches_per_instant_reference(self, oracle_sources, kind, method, size):
        sources, every = oracle_sources[kind]
        config = PoolConfig(method=method, size=size)
        labels = np.arange(len(sources)) % 3
        samples = build_sample_set(select_regions(sources, sample_every=every), labels, config)
        blocks = [reference_frame_rows(src, config, every) if kind == "frames"
                  else reference_stream_rows(src, config, every) for src in sources]
        assert len(blocks[-1]) == 0
        assert np.array_equal(samples.features, np.concatenate(blocks))
        counts = [len(block) for block in blocks]
        assert np.array_equal(samples.recording_index,
                              np.repeat(np.arange(len(sources)), counts))
        assert np.array_equal(samples.labels, np.repeat(labels, counts))

    @pytest.mark.parametrize("kind", ["frames", "firstand", "onoff", "oobu", "feature"])
    @pytest.mark.parametrize("fraction", [0.0, DEFAULT_ACTIVITY_FRACTION, 1.0])
    def test_shared_regions_match_reference(self, oracle_sources, kind, fraction):
        sources, every = oracle_sources[kind]
        labels = np.arange(len(sources)) % 3
        regions = select_regions(sources, sample_every=every, activity_fraction=fraction)
        narrow = np.float64 if kind == "frames" else np.uint8
        assert all(crops.dtype == narrow for _, crops in regions.crops.values())
        for method in ("1d", "2d"):
            for size in (1, 3, 12, 24):
                config = PoolConfig(method=method, size=size)
                blocks = [reference_frame_rows(src, config, every, fraction) if kind == "frames"
                          else reference_stream_rows(src, config, every,
                                                     activity_fraction=fraction)
                          for src in sources]
                samples = build_sample_set(regions, labels, config)
                assert np.array_equal(samples.features, np.concatenate(blocks)), (method, size)
                assert np.array_equal(samples.labels,
                                      np.repeat(labels, [len(block) for block in blocks]))

    def test_no_sources_rejected(self):
        with pytest.raises(ValueError, match="at least one source"):
            select_regions([], sample_every=8)

    def test_settings_checked_against_sources(self, tiny_dataset):
        with pytest.raises(ValueError, match="sample_every"):
            select_regions(tiny_dataset[:2], sample_every=0)
        regions = select_regions(tiny_dataset[:2], sample_every=8)
        with pytest.raises(ValueError, match="one label per source"):
            build_sample_set(regions, [0], PoolConfig())

    def test_peak_memory_bounded_by_output_and_crops(self):
        """16-channel 32x32 feature streams dense enough that nearly every
        region is the full grid, so the crops share one shape.  Selection may
        hold the stored (bit-packed) crops plus the eighth a growing buffer
        over-allocates and 1 MB; the whole build that plus the output and 4 MB.
        A second copy of the crops, or unpacked or float-widened crops, break it."""
        rng = np.random.default_rng(0)
        streams = []
        for _ in range(4):
            n = 12000
            events = make_events(np.arange(n) * 2, rng.integers(0, 32, n),
                                 rng.integers(0, 32, n), rng.integers(0, 16, n))
            streams.append(EventStream(kind=StreamKind.FEATURE, grid_width=32, grid_height=32,
                                       polarity_count=16, events=events))
        config = PoolConfig(method="2d", size=12)

        def traced_peak(fn):
            tracemalloc.start()
            try:
                result = fn()
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        regions, select_peak = traced_peak(lambda: select_regions(streams, sample_every=40))
        stored = sum(rows.nbytes + crops.nbytes for rows, crops in regions.crops.values())
        assert max(len(rows) for rows, _ in regions.crops.values()) > 1000
        assert stored < 1200 * 16 * 32 * 32 / 8 + 1200 * 8
        assert select_peak <= 1.25 * stored + 2 ** 20
        del regions
        samples, peak = traced_peak(
            lambda: build_sample_set(select_regions(streams, sample_every=40), [0, 1, 2, 3],
                                     config))
        assert samples.features.shape == (1200, config.vector_length(16))
        assert peak <= samples.features.nbytes + stored + 4 * 2 ** 20

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, float("nan")])
    def test_activity_fraction_outside_unit_interval_rejected(self, tiny_dataset, fraction):
        with pytest.raises(ValueError, match="activity_fraction"):
            select_regions(tiny_dataset[:2], sample_every=8, activity_fraction=fraction)

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_activity_fraction_bounds_allowed(self, oracle_sources, fraction):
        config = PoolConfig()
        for kind, (sources, every) in oracle_sources.items():
            regions = select_regions(sources, sample_every=every, activity_fraction=fraction)
            samples = build_sample_set(regions, [0] * len(sources), config)
            blocks = [reference_frame_rows(src, config, every, fraction) if kind == "frames"
                      else reference_stream_rows(src, config, every,
                                                 activity_fraction=fraction)
                      for src in sources]
            assert np.array_equal(samples.features, np.concatenate(blocks)), kind

    def test_sample_set_bookkeeping(self, tiny_dataset):
        streams = convert_all(tiny_dataset, "oobu")
        labels = [rec.class_id for rec in tiny_dataset]
        samples = build_sample_set(select_regions(streams, sample_every=201), labels,
                                   PoolConfig(method="1d", size=4))
        assert samples.n_recordings == len(tiny_dataset)
        assert len(samples.features) == len(samples.labels) == len(samples.recording_index)
        spr = samples.samples_per_recording()
        for i, stream in enumerate(streams):
            assert spr[i] == len(stream) // 201

    def test_frame_sources(self, tiny_dataset):
        labels = [rec.class_id for rec in tiny_dataset]
        samples = build_sample_set(select_regions(tiny_dataset, sample_every=8), labels,
                                   PoolConfig(method="2d", size=4))
        assert samples.features.shape == (len(tiny_dataset) * 10, 16)
        assert samples.features.max() <= 1.0


class TestFeatureLayer:
    def test_feature_streams_inherit_cadence_length(self, tiny_dataset):
        streams = convert_all(tiny_dataset[:4], "oobu")
        spec = PipelineSpec(feature_mode="random", n_neurons=4, seed=1, feast_active_bits=16)
        _, features = prepare_binary_features(streams, spec)
        out = infer_feature_streams(streams, features)
        for raw, feat in zip(streams, out):
            assert len(feat) == len(raw)
            assert feat.polarity_count == 4

    def test_trained_features_use_training_split_only(self, tiny_dataset):
        streams = convert_all(tiny_dataset, "oobu")
        spec = PipelineSpec(feature_mode="trained", n_neurons=4, seed=1, feast_active_bits=16)
        idx_a = np.arange(3)
        idx_b = np.arange(len(streams) - 3, len(streams))
        _, fa = prepare_binary_features(streams, spec, train_indices=idx_a)
        _, fb = prepare_binary_features(streams, spec, train_indices=idx_b)
        assert not np.array_equal(fa.bits, fb.bits)
        # None trains on every stream, in index order
        every, _ = prepare_binary_features(streams, spec)
        listed, _ = prepare_binary_features(streams, spec, np.arange(len(streams)))
        assert np.array_equal(every.weights, listed.weights)

    def test_random_mode_ignores_streams(self, tiny_dataset):
        streams = convert_all(tiny_dataset[:2], "onoff")
        spec = PipelineSpec(feature_mode="random", n_neurons=4, seed=5, feast_active_bits=16)
        _, fa = prepare_binary_features(streams[:1], spec)
        continuous, fb = prepare_binary_features(streams, spec)
        assert np.array_equal(fa.bits, fb.bits)
        initial = initial_features(spec.feast_params(streams[0].polarity_count))
        assert np.array_equal(continuous.weights, initial.weights)
        assert np.array_equal(fb.bits, binarize(initial, 16).bits)

    def test_active_bits_clamped_to_weight_length(self, tiny_dataset):
        streams = convert_all(tiny_dataset[:1], "onoff")   # 2 polarities x 3x3 ROI: 18 weights
        spec = PipelineSpec(feature_mode="random", n_neurons=2, feast_roi_side=3,
                            feast_active_bits=32)
        _, binary = prepare_binary_features(streams, spec)
        assert binary.n_active == 18 and binary.bits.all()


class TestRunPipeline:
    def test_deterministic_across_runs_and_jobs(self, tiny_dataset):
        spec = PipelineSpec(kind="onoff", pool=PoolConfig(method="1d", size=4))
        seeds = trial_seeds(0, 3)
        a = run_pipeline(tiny_dataset, spec, n_classes=3, seeds=seeds, jobs=1)
        b = run_pipeline(tiny_dataset, spec, n_classes=3, seeds=seeds, jobs=2)
        assert [t.per_frame_accuracy for t in a.trials] == [t.per_frame_accuracy for t in b.trials]
        assert [t.per_recording_accuracy for t in a.trials] == \
               [t.per_recording_accuracy for t in b.trials]

    def test_frames_kind(self, tiny_dataset):
        spec = PipelineSpec(kind="frames", pool=PoolConfig(method="2d", size=6))
        report = run_pipeline(tiny_dataset, spec, n_classes=3, seeds=[0, 1])
        assert report.n_trials == 2
        assert 0.0 <= report.per_frame_mean <= 1.0

    def test_precomputed_streams_shortcut(self, tiny_dataset):
        streams = convert_all(tiny_dataset, "oobu")
        spec = PipelineSpec(kind="oobu", pool=PoolConfig(method="2d", size=6))
        a = run_pipeline(tiny_dataset, spec, 3, seeds=[0], streams=streams)
        b = run_pipeline(tiny_dataset, spec, 3, seeds=[0])
        assert a.trials[0].per_frame_accuracy == b.trials[0].per_frame_accuracy

    def test_trained_feature_pipeline_runs(self, tiny_dataset):
        spec = PipelineSpec(kind="oobu", feature_mode="trained", n_neurons=4,
                            pool=PoolConfig(method="2d", size=6), feast_active_bits=16)
        report = run_pipeline(tiny_dataset[:9], spec, 3, seeds=[0, 1])
        assert report.n_trials == 2

    def test_retrain_per_trial_differs_from_frozen(self, tiny_dataset):
        base = dict(kind="oobu", feature_mode="trained", n_neurons=2,
                    pool=PoolConfig(method="1d", size=4), feast_active_bits=8)
        frozen = run_pipeline(tiny_dataset[:9], PipelineSpec(**base), 3, seeds=[0, 1])
        retrained = run_pipeline(tiny_dataset[:9], PipelineSpec(**base, retrain_per_trial=True),
                                 3, seeds=[0, 1])
        assert frozen.n_trials == retrained.n_trials == 2

    def test_retrained_report_sums_confusion_over_trials(self, tiny_dataset):
        spec = PipelineSpec(kind="oobu", feature_mode="trained", n_neurons=2,
                            pool=PoolConfig(method="1d", size=4), feast_active_bits=8,
                            retrain_per_trial=True)
        both = run_pipeline(tiny_dataset[:9], spec, 3, seeds=[0, 1])
        each = [run_pipeline(tiny_dataset[:9], spec, 3, seeds=[seed]) for seed in (0, 1)]
        assert np.array_equal(both.confusion, each[0].confusion + each[1].confusion)
        assert both.n_no_sample_recordings == sum(r.n_no_sample_recordings for r in each)

    def test_feature_mode_on_frames_rejected(self):
        with pytest.raises(ValueError, match="feature layers"):
            PipelineSpec(kind="frames", feature_mode="trained")

    def test_effective_cadence(self):
        assert PipelineSpec(kind="oobu").effective_sample_every() == 201
        assert PipelineSpec(kind="onoff").effective_sample_every() == 74
        assert PipelineSpec(kind="firstand").effective_sample_every() == 51
        assert PipelineSpec(kind="frames").effective_sample_every() == 8
        assert PipelineSpec(kind="oobu", sample_every_oobu=10).effective_sample_every() == 10
