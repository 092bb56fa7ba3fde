"""End-to-end pipeline orchestration: conversion, features, samples, evaluation."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spadevents import feast, pipeline
from spadevents.classify import DEFAULT_ACTIVITY_FRACTION, PoolConfig
from spadevents.core import EventStream, Recording, StreamKind, make_events
from spadevents.dataio import SynthConfig, synth_generate
from spadevents.feast import binarize, event_rois, initial_features
from spadevents.pipeline import (FRAME_CODE_SCALE, PipelineParams, PipelineSpec,
                                 build_sample_set, convert_all, convert_recording,
                                 evaluate_cells, feature_rois, infer_feature_streams, parallel_map,
                                 prepare_binary_features, run_pipeline, select_regions,
                                 trial_seeds)
from test_classify import oracle_pool, region_of
from test_core import ReferenceSurface


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


def reference_stream_rows(stream, pool_config, every, window_us=PipelineParams.feast_window_us,
                          activity_fraction=DEFAULT_ACTIVITY_FRACTION):
    """The per-instant stream sample builder as it stood before the shared loop."""
    channels = stream.polarity_count
    width = pool_config.vector_length(channels)
    instants = np.arange(every - 1, len(stream), every)
    if len(instants) == 0:
        return np.empty((0, width), dtype=np.float64)
    surface = ReferenceSurface(channels, stream.grid_height, stream.grid_width)
    rows = np.empty((len(instants), width), dtype=np.float64)
    ev = stream.events
    done = 0
    for row, idx in enumerate(instants):
        surface.write(ev[done:idx + 1])
        done = idx + 1
        t_now = int(ev["t"][idx])
        grid = surface.binary(t_now, window_us)
        ys, xs = region_of(grid.sum(axis=0), activity_fraction=activity_fraction)
        rows[row] = oracle_pool(grid[:, ys, xs], pool_config)
    return rows


def reference_frame_rows(recording, pool_config, every,
                         activity_fraction=DEFAULT_ACTIVITY_FRACTION):
    """The per-instant frame sample builder as it stood before the shared loop,
    with its instants at microsecond times k * every * pulse_period."""
    width = pool_config.vector_length(1)
    times = np.arange(1, recording.n_frames // every + 1) * every * recording.pulse_period
    if len(times) == 0:
        return np.empty((0, width), dtype=np.float64)
    rows = np.empty((len(times), width), dtype=np.float64)
    for row, t_now in enumerate(times):
        idx = min(int(t_now) // recording.pulse_period, recording.n_frames - 1)
        frame = recording.frames[idx]
        ys, xs = region_of((frame > 0).astype(np.int64), activity_fraction=activity_fraction)
        values = frame[None, ys, xs].astype(np.float64) / FRAME_CODE_SCALE
        rows[row] = oracle_pool(values, pool_config)
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
    spec = PipelineSpec(n_neurons=4, seed=3)
    params = spec.feast_params(oobu[0].polarity_count)
    features = infer_feature_streams(oobu, binarize(initial_features(params), 16),
                                     feature_rois(oobu, spec))
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
        assert regions.data.dtype == narrow
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

    @pytest.mark.parametrize("kind", ["frames", "firstand", "onoff", "oobu", "feature"])
    @pytest.mark.parametrize("method", ["1d", "2d"])
    def test_bytes_equal_per_shape_oracle(self, oracle_sources, kind, method):
        """The one pass over every crop shape against pooling the crops of each
        shape in one stack, as sample building did before, at every sweep L."""
        sources, every = oracle_sources[kind]
        regions = select_regions(sources, sample_every=every)
        assert regions.counts[-1] == 0
        channels = regions.channels
        crops, start = [], 0
        for ay, ax in regions.shapes.tolist():
            length = channels * ay * ax
            if regions.data.dtype == np.uint8:
                stop = start + (length + 7) // 8
                crop = np.unpackbits(regions.data[start:stop], count=length)
            else:
                stop = start + length
                crop = regions.data[start:stop]
            crops.append(crop.reshape(channels, ay, ax))
            start = stop
        assert start == len(regions.data)
        by_shape = {}
        for row, crop in enumerate(crops):
            by_shape.setdefault(crop.shape, []).append(row)
        for size in (1, 2, 3, 4, 6, 8, 12, 16, 24):
            config = PoolConfig(method=method, size=size)
            expect = np.empty((len(crops), config.vector_length(channels)))
            for rows in by_shape.values():
                expect[rows] = oracle_pool(np.stack([crops[row] for row in rows]), config)
            samples = build_sample_set(regions, [0] * len(sources), config)
            assert samples.features.tobytes() == expect.tobytes(), size

    @pytest.mark.parametrize("kind", ["frames", "firstand", "onoff", "oobu", "feature"])
    @pytest.mark.parametrize("fraction", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("block_instants", [1, 3])
    def test_small_blocks_match_reference(self, oracle_sources, kind, fraction, block_instants,
                                          monkeypatch):
        """With the block budget cut to one or three instants' surfaces, every
        source spans several blocks, and the regions stay byte-equal to the
        per-instant reference builders and to those of the default budget."""
        sources, every = oracle_sources[kind]
        every = max(1, every // 8)   # many instants per source
        whole = select_regions(sources, sample_every=every, activity_fraction=fraction)
        first = sources[0]
        surface = (first.height * first.width if kind == "frames"
                   else first.polarity_count * first.grid_height * first.grid_width)
        monkeypatch.setattr(pipeline, "_BLOCK_BYTES", block_instants * surface)
        regions = select_regions(sources, sample_every=every, activity_fraction=fraction)
        assert max(regions.counts) > 2 * block_instants
        assert regions.counts == whole.counts
        assert regions.shapes.tobytes() == whole.shapes.tobytes()
        assert regions.data.tobytes() == whole.data.tobytes()
        for method in ("1d", "2d"):
            config = PoolConfig(method=method, size=3)
            blocks = [reference_frame_rows(src, config, every, fraction) if kind == "frames"
                      else reference_stream_rows(src, config, every, activity_fraction=fraction)
                      for src in sources]
            samples = build_sample_set(regions, [0] * len(sources), config)
            assert samples.features.tobytes() == np.concatenate(blocks).tobytes(), method

    def test_marginals_taken_once_per_regions(self, oracle_sources):
        for kind, dtype in (("frames", np.float64), ("oobu", np.int32)):
            sources, every = oracle_sources[kind]
            regions = select_regions(sources, sample_every=every)
            build_sample_set(regions, [0] * len(sources), PoolConfig(method="2d", size=4))
            assert "marginals" not in vars(regions), kind
            build_sample_set(regions, [0] * len(sources), PoolConfig(method="1d", size=1))
            marginals = vars(regions)["marginals"]
            assert [sums.dtype for sums in marginals] == [dtype, dtype], kind
            for size in (4, 12, 24):
                build_sample_set(regions, [0] * len(sources), PoolConfig(method="1d", size=size))
                assert vars(regions)["marginals"] is marginals, (kind, size)

    @pytest.mark.parametrize("kind", ["frames", "onoff"])
    def test_cadence_beyond_every_source_refused(self, tiny_dataset, kind, monkeypatch):
        def feast_train(*args, **kwargs):
            raise AssertionError("features trained for a cadence that gives no instant")
        monkeypatch.setattr(pipeline, "feast_train", feast_train)
        recordings = tiny_dataset[:3]
        streams = None if kind == "frames" else convert_all(recordings, kind)
        lengths = ([rec.n_frames for rec in recordings] if streams is None
                   else [len(s) for s in streams])
        longest = max(lengths)
        mode = "raw" if kind == "frames" else "trained"
        spec = PipelineSpec(kind=kind, feature_mode=mode, **{f"sample_every_{kind}": longest + 1})
        unit = "frames" if kind == "frames" else "events"
        with pytest.raises(ValueError, match=f"sample_every_{kind} = {longest + 1} gives no "
                                             f"classification instant: the longest source "
                                             f"holds {longest} {unit}"):
            run_pipeline(recordings, spec, 3, [0], streams)
        # a cadence as long as the longest source gives it one instant
        spec = replace(spec, feature_mode="raw", **{f"sample_every_{kind}": longest})
        (_, regions), = pipeline._pipeline_sources(recordings, spec, [0], streams, None)
        assert regions.counts == [int(length == longest) for length in lengths]

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
        stored = regions.shapes.nbytes + regions.data.nbytes
        assert np.unique(regions.shapes, axis=0, return_counts=True)[1].max() > 1000
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
        rois = feature_rois(streams, spec)
        _, features = prepare_binary_features(streams, spec, rois)
        out = infer_feature_streams(streams, features, rois)
        for raw, feat in zip(streams, out):
            assert len(feat) == len(raw)
            assert feat.polarity_count == 4

    def test_trained_features_use_training_split_only(self, tiny_dataset):
        streams = convert_all(tiny_dataset, "oobu")
        spec = PipelineSpec(feature_mode="trained", n_neurons=4, seed=1, feast_active_bits=16)
        rois = feature_rois(streams, spec)
        idx_a = np.arange(3)
        idx_b = np.arange(len(streams) - 3, len(streams))
        _, fa = prepare_binary_features(streams, spec, rois, train_indices=idx_a)
        _, fb = prepare_binary_features(streams, spec, rois, train_indices=idx_b)
        assert not np.array_equal(fa.bits, fb.bits)
        # None trains on every stream, in index order
        every, _ = prepare_binary_features(streams, spec, rois)
        listed, _ = prepare_binary_features(streams, spec, rois, np.arange(len(streams)))
        assert np.array_equal(every.weights, listed.weights)

    def test_random_mode_ignores_streams(self, tiny_dataset):
        streams = convert_all(tiny_dataset[:2], "onoff")
        spec = PipelineSpec(feature_mode="random", n_neurons=4, seed=5, feast_active_bits=16)
        rois = feature_rois(streams, spec)
        _, fa = prepare_binary_features(streams[:1], spec, rois[:1])
        continuous, fb = prepare_binary_features(streams, spec, rois)
        assert np.array_equal(fa.bits, fb.bits)
        initial = initial_features(spec.feast_params(streams[0].polarity_count))
        assert np.array_equal(continuous.weights, initial.weights)
        assert np.array_equal(fb.bits, binarize(initial, 16).bits)

    def test_active_bits_clamped_to_weight_length(self, tiny_dataset):
        streams = convert_all(tiny_dataset[:1], "onoff")   # 2 polarities x 3x3 ROI: 18 weights
        spec = PipelineSpec(feature_mode="random", n_neurons=2, feast_roi_side=3,
                            feast_active_bits=32)
        _, binary = prepare_binary_features(streams, spec, feature_rois(streams, spec))
        assert binary.n_active == 18 and binary.bits.all()


class TestRunPipeline:
    def test_deterministic_across_runs_and_jobs(self, tiny_dataset):
        spec = PipelineSpec(kind="onoff", pool=PoolConfig(method="1d", size=4))
        seeds = trial_seeds(0, 3)
        a = run_pipeline(tiny_dataset, spec, n_classes=3, seeds=seeds,
                         streams=convert_all(tiny_dataset, "onoff", spec, jobs=1))
        b = run_pipeline(tiny_dataset, spec, n_classes=3, seeds=seeds,
                         streams=convert_all(tiny_dataset, "onoff", spec, jobs=2))
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

    def test_feature_sources_extract_each_streams_rois_once(self, tiny_dataset, monkeypatch):
        calls = []

        def counted(stream, *args):
            calls.append(stream)
            return event_rois(stream, *args)
        monkeypatch.setattr(feast, "event_rois", counted)
        monkeypatch.setattr(pipeline, "event_rois", counted)
        recordings = tiny_dataset[:9]
        streams = convert_all(recordings, "oobu")
        spec = PipelineSpec(kind="oobu", feature_mode="trained", n_neurons=2,
                            feast_active_bits=8, retrain_per_trial=True)
        random = replace(spec, feature_mode="random", pool=PoolConfig(method="1d", size=4))
        # the random cell's inference, then two trainings on different splits
        # and their two inference passes: one extraction per stream
        reports = evaluate_cells(recordings, [random, spec], 3, [0, 1], {"oobu": streams})
        assert [report.n_trials for report in reports] == [2, 2]
        assert sorted(map(id, calls)) == sorted(map(id, streams))
        # streams converted here are extracted once each as well
        calls.clear()
        evaluate_cells(recordings, [random, spec], 3, [0, 1])
        assert len({id(stream) for stream in calls}) == len(calls) == len(recordings)
        calls.clear()
        run_pipeline(recordings, replace(spec, feature_mode="raw"), 3, [0, 1], streams)
        assert calls == []

    def test_cells_share_conversion_and_regions_only_when_their_settings_match(
            self, tiny_dataset, monkeypatch):
        converted, selected = [], []

        def convert(recordings, kind, params=None, jobs=1):
            converted.append(kind)
            return convert_all(recordings, kind, params, jobs)

        def select(sources, **kwargs):
            selected.append(kwargs["sample_every"])
            return select_regions(sources, **kwargs)
        monkeypatch.setattr(pipeline, "convert_all", convert)
        monkeypatch.setattr(pipeline, "select_regions", select)
        recordings = tiny_dataset[:9]
        onoff = PipelineSpec(kind="onoff", pool=PoolConfig(method="1d", size=4))
        specs = [onoff, replace(onoff, pool=PoolConfig(method="2d", size=6)),
                 replace(onoff, sample_every_onoff=40), replace(onoff, change_threshold=3),
                 replace(onoff, kind="frames"), onoff]
        reports = evaluate_cells(recordings, specs, 3, [0])
        assert converted == ["onoff", "onoff", "onoff"]
        assert selected == [74, 40, 74, 8, 74]
        assert reports[0].trials == reports[-1].trials
        assert [r.trials for r in reports] == [run_pipeline(recordings, s, 3, [0]).trials
                                               for s in specs]

    def test_feature_mode_on_frames_rejected(self):
        with pytest.raises(ValueError, match="feature layers"):
            PipelineSpec(kind="frames", feature_mode="trained")

    def test_feature_layer_without_active_bits_rejected(self):
        for mode in ("random", "trained"):
            with pytest.raises(ValueError, match="feast_active_bits must be at least 1"):
                PipelineSpec(feature_mode=mode, feast_active_bits=0)
        assert PipelineSpec(feature_mode="raw", feast_active_bits=0).feast_active_bits == 0

    def test_feature_layer_neuron_count_must_fit_the_polarity_field(self):
        # a feature event's polarity is its neuron's index, a u1 value
        for mode in ("random", "trained"):
            for n_neurons in (0, 257, 300):
                with pytest.raises(ValueError, match=r"n_neurons must lie in 1\.\.256"):
                    PipelineSpec(feature_mode=mode, n_neurons=n_neurons)
            assert PipelineSpec(feature_mode=mode, n_neurons=256).n_neurons == 256
        assert PipelineSpec(feature_mode="raw", n_neurons=300).n_neurons == 300

    def test_effective_cadence(self):
        assert PipelineSpec(kind="oobu").effective_sample_every() == 201
        assert PipelineSpec(kind="onoff").effective_sample_every() == 74
        assert PipelineSpec(kind="firstand").effective_sample_every() == 51
        assert PipelineSpec(kind="frames").effective_sample_every() == 8
        assert PipelineSpec(kind="oobu", sample_every_oobu=10).effective_sample_every() == 10

    @pytest.mark.parametrize("kind", ["frames", "firstand", "onoff", "oobu"])
    def test_cadence_and_window_must_be_positive(self, kind):
        for value in (0, -1):
            with pytest.raises(ValueError, match=f"sample_every_{kind} must be at least 1"):
                PipelineSpec(kind=kind, **{f"sample_every_{kind}": value})
            with pytest.raises(ValueError, match=f"feast_window_us must be at least 1, got {value}"):
                PipelineSpec(kind=kind, feast_window_us=value)
        # every cadence is a shared setting, checked whichever kind the spec reads
        other = "oobu" if kind != "oobu" else "onoff"
        with pytest.raises(ValueError, match=f"sample_every_{other} must be at least 1"):
            PipelineSpec(kind=kind, **{f"sample_every_{other}": 0})
