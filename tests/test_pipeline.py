"""End-to-end pipeline orchestration: conversion, features, samples, evaluation."""

import numpy as np
import pytest

from spadevents.classify import PoolConfig
from spadevents.core import EventStream, StreamKind, make_events
from spadevents.dataio import SynthConfig, synth_generate
from spadevents.pipeline import (PipelineSpec, build_sample_set,
                                 convert_all, convert_recording, infer_feature_streams,
                                 parallel_map, prepare_binary_features,
                                 run_pipeline, stream_sample_rows, trial_seeds)


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


class TestSampleBuilding:
    def test_row_count_follows_cadence(self):
        n = 402
        ev = make_events(np.arange(n) * 7, np.zeros(n), np.zeros(n), np.zeros(n))
        stream = EventStream(kind=StreamKind.OOBU, grid_width=8, grid_height=8, events=ev)
        rows = stream_sample_rows(stream, PoolConfig(method="2d", size=4), every=201)
        assert rows.shape == (2, 4 * 16)

    def test_empty_stream_gives_zero_rows(self):
        stream = EventStream(kind=StreamKind.ON_OFF, grid_width=8, grid_height=8)
        rows = stream_sample_rows(stream, PoolConfig(method="1d", size=4), every=74)
        assert rows.shape == (0, 2 * 8)

    def test_sample_set_bookkeeping(self, tiny_dataset):
        streams = convert_all(tiny_dataset, "oobu")
        labels = [rec.class_id for rec in tiny_dataset]
        samples = build_sample_set(streams, labels, PoolConfig(method="1d", size=4),
                                   sample_every=201)
        assert samples.n_recordings == len(tiny_dataset)
        assert len(samples.features) == len(samples.labels) == len(samples.recording_index)
        spr = samples.samples_per_recording()
        for i, stream in enumerate(streams):
            assert spr[i] == len(stream) // 201

    def test_frame_sources(self, tiny_dataset):
        labels = [rec.class_id for rec in tiny_dataset]
        samples = build_sample_set(tiny_dataset, labels, PoolConfig(method="2d", size=4),
                                   sample_every=8)
        assert samples.features.shape == (len(tiny_dataset) * 10, 16)
        assert samples.features.max() <= 1.0

    def test_jobs_do_not_change_samples(self, tiny_dataset):
        streams = convert_all(tiny_dataset, "onoff")
        labels = [rec.class_id for rec in tiny_dataset]
        kw = dict(pool_config=PoolConfig(method="2d", size=6), sample_every=74)
        a = build_sample_set(streams, labels, kw["pool_config"], sample_every=74, jobs=1)
        b = build_sample_set(streams, labels, kw["pool_config"], sample_every=74, jobs=3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.recording_index, b.recording_index)


class TestFeatureLayer:
    def test_feature_streams_inherit_cadence_length(self, tiny_dataset):
        streams = convert_all(tiny_dataset[:4], "oobu")
        params = PipelineSpec(n_neurons=4, seed=1).feast_params(streams[0].polarity_count)
        features = prepare_binary_features(streams, "random", params, n_active=16)
        out = infer_feature_streams(streams, features)
        for raw, feat in zip(streams, out):
            assert len(feat) == len(raw)
            assert feat.polarity_count == 4

    def test_trained_features_use_training_split_only(self, tiny_dataset):
        streams = convert_all(tiny_dataset, "oobu")
        params = PipelineSpec(n_neurons=4, seed=1).feast_params(streams[0].polarity_count)
        idx_a = np.arange(3)
        idx_b = np.arange(len(streams) - 3, len(streams))
        fa = prepare_binary_features(streams, "trained", params, 16, train_indices=idx_a)
        fb = prepare_binary_features(streams, "trained", params, 16, train_indices=idx_b)
        assert not np.array_equal(fa.bits, fb.bits)

    def test_random_mode_ignores_streams(self, tiny_dataset):
        streams = convert_all(tiny_dataset[:2], "onoff")
        params = PipelineSpec(n_neurons=4, seed=5).feast_params(streams[0].polarity_count)
        fa = prepare_binary_features(streams[:1], "random", params, 16)
        fb = prepare_binary_features(streams, "random", params, 16)
        assert np.array_equal(fa.bits, fb.bits)


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

    def test_feature_mode_on_frames_rejected(self):
        with pytest.raises(ValueError, match="feature layers"):
            PipelineSpec(kind="frames", feature_mode="trained")

    def test_effective_cadence(self):
        assert PipelineSpec(kind="oobu").effective_sample_every() == 201
        assert PipelineSpec(kind="onoff").effective_sample_every() == 74
        assert PipelineSpec(kind="firstand").effective_sample_every() == 51
        assert PipelineSpec(kind="frames").effective_sample_every() == 8
        assert PipelineSpec(kind="oobu", sample_every=10).effective_sample_every() == 10
