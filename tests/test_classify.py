"""Region selection, pooling, sampling cadence, ridge classifier, evaluation."""

import numpy as np
import pytest

from spadevents.classify import (ClassifierWeights, PoolConfig, Region, RidgeAccumulator,
                                 SampleSet, evaluate_samples, event_sample_indices,
                                 event_sample_times, frame_sample_times, one_hot, pool,
                                 pool_1d, pool_2d, predict_batch,
                                 recording_vote, region_from_activity,
                                 train_classifier, zoh_indices)
from spadevents.core import TimeSurface, make_events
from spadevents.dataio import split_indices


class TestRegionSelection:
    def test_single_active_pixel(self):
        activity = np.zeros((8, 8))
        activity[3, 5] = 1
        region = region_from_activity(activity)
        assert (region.x0, region.y0, region.x1, region.y1) == (5, 3, 6, 4)
        assert region.width == 1 and region.height == 1

    def test_all_zero_falls_back_to_full_grid(self):
        region = region_from_activity(np.zeros((6, 9)))
        assert (region.x0, region.y0, region.x1, region.y1) == (0, 0, 9, 6)

    def test_active_block_bounding_box(self):
        activity = np.zeros((20, 20))
        activity[4:10, 7:17] = 1  # 6 rows x 10 cols
        region = region_from_activity(activity)
        assert (region.y0, region.y1) == (4, 10)
        assert (region.x0, region.x1) == (7, 17)

    def test_weak_marginals_excluded(self):
        activity = np.zeros((10, 10))
        activity[5, :] = 10.0
        activity[0, 0] = 0.5   # row marginal 0.5 < 0.1 * 100
        region = region_from_activity(activity, activity_fraction=0.1)
        assert (region.y0, region.y1) == (5, 6)

    def test_select_region_from_surface(self):
        surf = TimeSurface(12, 12, 2)
        surf.update(4, 6, 0, 100)
        surf.update(5, 6, 1, 100)
        region = region_from_activity(surf.binary(t_now=150, window_us=100).sum(axis=0))
        assert (region.x0, region.x1) == (4, 6)
        assert (region.y0, region.y1) == (6, 7)

    def test_crop(self):
        grid = np.arange(2 * 4 * 4).reshape(2, 4, 4)
        region = Region(x0=1, y0=2, x1=3, y1=4)
        assert region.crop(grid).shape == (2, 2, 2)


class TestPool1d:
    def test_all_ones_example(self):
        values = np.ones((1, 4, 4))
        assert pool_1d(values, 2).tolist() == [4.0, 4.0, 4.0, 4.0]

    def test_identity_when_size_matches(self):
        rng = np.random.default_rng(1)
        values = rng.random((2, 3, 3))
        out = pool_1d(values, 3)
        expect = np.concatenate([values.sum(axis=1), values.sum(axis=2)], axis=1).reshape(-1)
        assert np.allclose(out, expect)

    def test_size_one_takes_first_sums(self):
        values = np.arange(12, dtype=float).reshape(1, 3, 4)
        out = pool_1d(values, 1)
        assert out.tolist() == [values[0, :, 0].sum(), values[0, 0, :].sum()]

    def test_mass_preserved_at_native_size(self):
        rng = np.random.default_rng(2)
        values = rng.random((3, 5, 5))
        out = pool_1d(values, 5).reshape(3, 10)
        assert np.allclose(out[:, :5].sum(axis=1), values.sum(axis=(1, 2)))
        assert np.allclose(out[:, 5:].sum(axis=1), values.sum(axis=(1, 2)))

    def test_upsampling_repeats_sources(self):
        assert zoh_indices(2, 4).tolist() == [0, 0, 1, 1]
        values = np.array([[[1.0, 3.0]]])  # 1x1x2: column sums [1, 3]
        out = pool_1d(values, 4)
        assert out[:4].tolist() == [1.0, 1.0, 3.0, 3.0]

    def test_zoh_map_is_floor_rule(self):
        for length in (1, 2, 3, 7, 24):
            for target in (1, 2, 5, 24):
                expect = [(i * length) // target for i in range(target)]
                assert zoh_indices(length, target).tolist() == expect

    def test_vector_length(self):
        values = np.ones((4, 6, 6))
        assert len(pool_1d(values, 12)) == 4 * 24
        assert PoolConfig(method="1d", size=12).vector_length(4) == 96


class TestPool2d:
    def test_constant_preserved(self):
        for size in (1, 2, 5, 9):
            out = pool_2d(np.full((2, 4, 7), 3.25), size)
            assert np.allclose(out, 3.25)

    def test_identity_at_native_size(self):
        rng = np.random.default_rng(3)
        values = rng.random((2, 6, 6))
        assert np.allclose(pool_2d(values, 6), values.reshape(2, -1).reshape(-1))

    def test_linear_midpoint(self):
        values = np.array([[[0.0], [2.0]]])  # 2 rows x 1 col
        out = pool_2d(values, 3).reshape(3, 3)
        # the length-2 axis interpolates [0, 1, 2]; the length-1 axis replicates
        assert np.allclose(out, [[0.0] * 3, [1.0] * 3, [2.0] * 3])

    def test_size_one_samples_center(self):
        values = np.zeros((1, 3, 3))
        values[0, 1, 1] = 5.0
        assert pool_2d(values, 1).tolist() == [5.0]

    def test_vector_length(self):
        values = np.ones((4, 6, 6))
        assert len(pool_2d(values, 12)) == 4 * 144
        assert PoolConfig(method="2d", size=12).vector_length(4) == 576

    def test_pool_dispatch(self):
        values = np.ones((1, 4, 4))
        assert len(pool(values, PoolConfig(method="1d", size=2))) == 4
        assert len(pool(values, PoolConfig(method="2d", size=2))) == 4


class TestSamplingCadence:
    def test_frame_instants_example(self):
        times = frame_sample_times(80, pulse_period=10, every=8)
        assert times.tolist() == [80, 160, 240, 320, 400, 480, 560, 640, 720, 800]

    def test_event_instants_oobu_example(self):
        t = np.arange(402) * 3
        ev = make_events(t, np.zeros(402), np.zeros(402), np.zeros(402))
        times = event_sample_times(ev, every=201)
        assert len(times) == 2
        assert times.tolist() == [t[200], t[401]]

    def test_short_stream_yields_no_samples(self):
        assert len(event_sample_indices(50, every=51)) == 0

    def test_frame_instants_short(self):
        assert frame_sample_times(7, pulse_period=10, every=8).tolist() == []


def hand_inverse_2x2(m):
    """Adjugate-formula inverse, independent of numpy.linalg."""
    (a, b), (c, d) = m
    det = a * d - b * c
    return np.array([[d, -b], [-c, a]]) / det


class TestRidge:
    def test_identity_case_against_hand_inverse(self):
        inputs = np.eye(2)
        targets = np.eye(2)
        weights = train_classifier(inputs, targets, ridge_lambda=0.1)
        gram = inputs.T @ inputs + 0.1 * np.eye(2)
        expect = (inputs.T @ targets).T @ hand_inverse_2x2(gram)
        assert np.allclose(weights.matrix, expect, atol=1e-9)
        assert np.allclose(weights.matrix, np.eye(2) / 1.1, atol=1e-9)

    def test_zero_lambda_interpolates_training_data(self):
        rng = np.random.default_rng(5)
        inputs = rng.random((4, 4)) + np.eye(4)  # well-conditioned square
        labels = np.array([0, 1, 2, 3])
        targets = one_hot(labels, 4)
        weights = train_classifier(inputs, targets, ridge_lambda=0.0)
        assert np.array_equal(predict_batch(weights, inputs), labels)

    def test_chunked_equals_single_pass(self):
        rng = np.random.default_rng(7)
        inputs = rng.random((100, 8))
        targets = one_hot(rng.integers(0, 3, 100), 3)
        single = train_classifier(inputs, targets, ridge_lambda=0.1)
        acc = RidgeAccumulator(8, 3, ridge_lambda=0.1)
        acc.add(inputs[:50], targets[:50])
        acc.add(inputs[50:], targets[50:])
        chunked = acc.solve()
        assert np.allclose(single.matrix, chunked.matrix, atol=1e-9)

    def test_non_finite_rejected(self):
        inputs = np.array([[1.0, np.nan]])
        with pytest.raises(ValueError, match="finite"):
            train_classifier(inputs, np.array([[1.0]]))

    def test_zero_lambda_singular_gram_raises(self):
        # duplicated feature column with no regularization cannot be solved
        col = np.arange(1.0, 6.0)[:, None]
        inputs = np.hstack([col, col])
        targets = one_hot(np.array([0, 1, 0, 1, 0]), 2)
        with pytest.raises(np.linalg.LinAlgError):
            train_classifier(inputs, targets, ridge_lambda=0.0)

    def test_matrix_shape_is_classes_by_inputs(self):
        rng = np.random.default_rng(9)
        weights = train_classifier(rng.random((20, 6)), one_hot(rng.integers(0, 4, 20), 4))
        assert weights.matrix.shape == (4, 6)


class TestPredict:
    def test_argmax(self):
        weights = ClassifierWeights(matrix=np.eye(3), ridge_lambda=0.1)
        assert predict_batch(weights, np.array([[0.1, 0.9, 0.3]])).tolist() == [1]

    def test_tie_takes_lowest(self):
        weights = ClassifierWeights(matrix=np.eye(2), ridge_lambda=0.1)
        assert predict_batch(weights, np.array([[0.5, 0.5]])).tolist() == [0]

    def test_scale_covariance_of_argmax(self):
        rng = np.random.default_rng(11)
        weights = ClassifierWeights(matrix=rng.standard_normal((5, 7)), ridge_lambda=0.1)
        u = rng.standard_normal((50, 7))
        c = rng.uniform(0.1, 10, size=(50, 1))
        assert np.array_equal(predict_batch(weights, u), predict_batch(weights, c * u))

    def test_dim_mismatch(self):
        weights = ClassifierWeights(matrix=np.eye(3), ridge_lambda=0.1)
        with pytest.raises(ValueError, match="match"):
            predict_batch(weights, np.zeros((1, 4)))

    def test_recording_vote(self):
        assert recording_vote(np.array([2, 2, 5]), 6) == 2
        assert recording_vote(np.array([1, 3]), 6) == 1       # tie -> lowest
        assert recording_vote(np.array([], dtype=int), 6) == 0  # no samples -> class 0


def separable_samples(n_classes=3, recs_per_class=10, samples_per_rec=4, noise=0.01, seed=0):
    rng = np.random.default_rng(seed)
    feats, labels, rec_idx, rec_labels = [], [], [], []
    rec = 0
    for cls in range(n_classes):
        for _ in range(recs_per_class):
            base = np.zeros(n_classes)
            base[cls] = 1.0
            for _ in range(samples_per_rec):
                feats.append(base + noise * rng.standard_normal(n_classes))
                labels.append(cls)
                rec_idx.append(rec)
            rec_labels.append(cls)
            rec += 1
    return SampleSet(features=np.array(feats), labels=np.array(labels),
                     recording_index=np.array(rec_idx), recording_labels=np.array(rec_labels))


class TestEvaluate:
    def test_memorization_sanity(self):
        # same separable data as train and test: lambda = 0 must be exact
        samples = separable_samples()
        weights = train_classifier(samples.features, one_hot(samples.labels, 3),
                                   ridge_lambda=0.0)
        pred = predict_batch(weights, samples.features)
        assert np.array_equal(pred, samples.labels)

    def test_separable_set_perfect_accuracy(self):
        samples = separable_samples()
        report = evaluate_samples(samples, n_classes=3, seeds=[0], ridge_lambda=0.0)
        assert report.per_frame_mean == 1.0
        assert report.per_recording_mean == 1.0

    def test_chance_floor_random_labels(self):
        rng = np.random.default_rng(13)
        n_classes = 15
        n_rec = 300
        samples_per = 8
        feats = rng.standard_normal((n_rec * samples_per, 10))
        rec_labels = rng.integers(0, n_classes, n_rec)
        rec_idx = np.repeat(np.arange(n_rec), samples_per)
        samples = SampleSet(features=feats, labels=rec_labels[rec_idx],
                            recording_index=rec_idx, recording_labels=rec_labels)
        report = evaluate_samples(samples, n_classes, seeds=[0, 1, 2])
        n_test_samples = int(round(n_rec * 0.1)) * samples_per
        sigma = np.sqrt((1 / 15) * (14 / 15) / n_test_samples)
        assert abs(report.per_frame_mean - 1 / 15) <= 3 * sigma

    def test_reports_are_reproducible(self):
        samples = separable_samples(noise=0.5, seed=3)
        a = evaluate_samples(samples, 3, seeds=[4, 5, 6])
        b = evaluate_samples(samples, 3, seeds=[4, 5, 6])
        assert [t.per_frame_accuracy for t in a.trials] == [t.per_frame_accuracy for t in b.trials]
        assert np.array_equal(a.confusion, b.confusion)

    def test_confusion_rows_sum_to_class_sample_counts(self):
        samples = separable_samples(noise=1.5, seed=7)
        report = evaluate_samples(samples, 3, seeds=[0, 1, 2])
        expected = np.zeros(3, dtype=np.int64)
        for seed in (0, 1, 2):
            _, test_recs = split_indices(samples.n_recordings, 0.9, seed)
            test_mask = np.isin(samples.recording_index, test_recs)
            expected += np.bincount(samples.labels[test_mask], minlength=3)
        assert np.array_equal(report.confusion.sum(axis=1), expected)

    def test_no_sample_recordings_counted_as_class_zero(self):
        samples = separable_samples()
        # strip every sample belonging to recording 0 (class 0, so vote=0 is "right")
        keep = samples.recording_index != 0
        stripped = SampleSet(features=samples.features[keep], labels=samples.labels[keep],
                             recording_index=samples.recording_index[keep],
                             recording_labels=samples.recording_labels)
        seeds = list(range(10))
        report = evaluate_samples(stripped, 3, seeds=seeds)
        tested = sum(0 in split_indices(stripped.n_recordings, 0.9, seed)[1] for seed in seeds)
        assert tested > 0
        assert report.n_no_sample_recordings == tested

    def test_json_and_csv_outputs(self, tmp_path):
        samples = separable_samples()
        report = evaluate_samples(samples, 3, seeds=[0, 1])
        report.write_json(tmp_path / "r.json")
        report.write_csv(tmp_path / "r.csv")
        import json
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["n_trials"] == 2
        assert len(data["trials"]) == 2
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert lines[0] == "trial,seed,per_frame_acc,per_recording_acc"
        assert len(lines) == 3

    def test_samples_per_recording_stats(self):
        samples = separable_samples(samples_per_rec=4)
        report = evaluate_samples(samples, 3, seeds=[0])
        assert report.samples_per_recording_mean == 4.0
        assert report.samples_per_recording_std == 0.0
