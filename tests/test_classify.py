"""Region selection, pooling, sampling cadence, ridge classifier, evaluation."""

import tracemalloc

import numpy as np
import pytest

from spadevents.classify import (PoolConfig, RidgeAccumulator, SampleSet, TrialResult,
                                 bilinear_pool_rows, evaluate_samples, one_hot, predict_batch,
                                 region_from_activity, train_classifier, zoh_indices,
                                 zoh_pool_rows, TRIAL_COLUMNS)
from spadevents.core import EventStream, Recording, StreamKind, make_events
from spadevents.dataio import split_indices
from spadevents.pipeline import FRAME_CODE_SCALE, select_regions
from test_core import ReferenceSurface


def pool_stack(values, method, size):
    """The row kernels on regions of one shape: (..., C, Ay, Ax) in, one
    pooled row per region out."""
    channels, ay, ax = values.shape[-3:]
    stack = values.reshape(-1, channels, ay, ax)
    shapes = np.tile(np.array([ay, ax], dtype=np.int32), (len(stack), 1))
    if method == "1d":
        out = zoh_pool_rows(stack.sum(axis=2, dtype=np.float64),
                            stack.sum(axis=3, dtype=np.float64), shapes, size)
    else:
        out = bilinear_pool_rows(stack.reshape(-1), np.arange(len(stack)) * (channels * ay * ax),
                                 shapes, channels, size)
    return out.reshape(*values.shape[:-3], -1)


def pool_1d(values, size):
    return pool_stack(values, "1d", size)


def pool_2d(values, size):
    return pool_stack(values, "2d", size)


def region_of(activity, **kwargs):
    """region_from_activity of a single map, called on a stack of one, as slices."""
    rows, cols = region_from_activity(activity[None], **kwargs)
    return slice(*rows[0].tolist()), slice(*cols[0].tolist())


class TestRegionSelection:
    def test_single_active_pixel(self):
        activity = np.zeros((8, 8))
        activity[3, 5] = 1
        assert region_of(activity) == (slice(3, 4), slice(5, 6))

    def test_all_zero_falls_back_to_full_grid(self):
        assert region_of(np.zeros((6, 9))) == (slice(0, 6), slice(0, 9))

    def test_active_block_bounding_box(self):
        activity = np.zeros((20, 20))
        activity[4:10, 7:17] = 1  # 6 rows x 10 cols
        assert region_of(activity) == (slice(4, 10), slice(7, 17))

    def test_weak_marginals_excluded(self):
        activity = np.zeros((10, 10))
        activity[5, :] = 10.0
        activity[0, 0] = 0.5   # row marginal 0.5 < 0.1 * 100
        rows, _ = region_of(activity, activity_fraction=0.1)
        assert rows == slice(5, 6)

    def test_select_region_from_surface(self):
        surf = ReferenceSurface(2, 12, 12)
        surf.write(make_events([100, 100], [6, 6], [4, 5], [0, 1]))
        region = region_of(surf.binary(t_now=150, window_us=100).sum(axis=0))
        assert region == (slice(6, 7), slice(4, 6))


    def test_stack_matches_per_map_oracle(self):
        """Every map of a stack is bounded as the single-map rule (the
        per-instant code before stacks) bounds it alone."""
        def reference(activity, fraction):
            rows, cols = activity.sum(axis=1), activity.sum(axis=0)
            row_ok = np.nonzero(rows >= fraction * rows.max())[0]
            col_ok = np.nonzero(cols >= fraction * cols.max())[0]
            return ((int(row_ok[0]), int(row_ok[-1]) + 1), (int(col_ok[0]), int(col_ok[-1]) + 1))

        rng = np.random.default_rng(11)
        for fraction in (0.0, 0.1, 0.5, 1.0):
            stack = rng.integers(0, 5, (40, 7, 9)) * (rng.random((40, 7, 9)) < 0.2)
            stack[:3] = 0   # all-zero maps fall back to the full grid
            rows, cols = region_from_activity(stack, fraction)
            assert rows.shape == cols.shape == (40, 2)
            got = list(zip(map(tuple, rows.tolist()), map(tuple, cols.tolist())))
            assert got == [reference(a, fraction) for a in stack], fraction
        rows, cols = region_from_activity(np.zeros((0, 4, 5)))
        assert rows.shape == cols.shape == (0, 2)


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


def oracle_pool_1d(values, size):
    """pool_1d as it stood before the pooling kernels took regions of any shape."""
    col_sums = values.sum(axis=-2, dtype=np.float64)
    row_sums = values.sum(axis=-1, dtype=np.float64)
    vx = col_sums[..., zoh_indices(values.shape[-1], size)]
    vy = row_sums[..., zoh_indices(values.shape[-2], size)]
    return np.concatenate([vx, vy], axis=-1).reshape(*values.shape[:-3], -1)


def oracle_pool_2d(values, size):
    """pool_2d as it stood before the pooling kernels took regions of any shape."""
    def coords(length):
        if size == 1:
            return np.array([(length - 1) / 2.0])
        return np.arange(size, dtype=np.float64) * (length - 1) / (size - 1)

    ay, ax = values.shape[-2:]
    uy, ux = coords(ay), coords(ax)
    y0 = np.floor(uy).astype(np.int64)
    x0 = np.floor(ux).astype(np.int64)
    fy = (uy - y0)[:, None]
    fx = ux - x0
    rows = (values.take(x0, axis=-1) * (1 - fx)
            + values.take(np.minimum(x0 + 1, ax - 1), axis=-1) * fx)
    out = (rows.take(y0, axis=-2) * (1 - fy)
           + rows.take(np.minimum(y0 + 1, ay - 1), axis=-2) * fy)
    return out.reshape(*values.shape[:-3], -1)


def oracle_pool(values, config):
    return (oracle_pool_1d if config.method == "1d" else oracle_pool_2d)(values, config.size)


class TestBatchedPooling:
    """A stack of same-shape crops pooled in one call gives each crop's row."""

    SHAPES = [(1, 1), (1, 7), (6, 1), (3, 9), (13, 8), (17, 17), (32, 32)]
    SIZES = [1, 2, 3, 5, 12, 24]

    @staticmethod
    def crops(rng, channels, ay, ax, n=4):
        """Binary crops (uint8) and frame crops (scaled depth codes, as views of
        larger frames, the way a per-instant crop reads a full grid)."""
        binary = (rng.random((n, channels, ay, ax)) < 0.4).astype(np.uint8)
        frames = rng.integers(0, 65536, (n, channels, ay + 3, ax + 5)) / 65535.0
        return binary, frames[..., 2:2 + ay, 1:1 + ax]

    @pytest.mark.parametrize("pool_fn", [pool_1d, pool_2d])
    @pytest.mark.parametrize("channels", [1, 2, 16])
    def test_stack_equals_per_crop_calls(self, pool_fn, channels):
        rng = np.random.default_rng(channels)
        for ay, ax in self.SHAPES:
            binary, frame_views = self.crops(rng, channels, ay, ax)
            for views in (binary, frame_views):
                stack = np.ascontiguousarray(views)
                for size in self.SIZES:
                    out = pool_fn(stack, size)
                    expect = np.stack([pool_fn(crop, size) for crop in views])
                    assert out.shape == (len(stack), len(expect[0]))
                    assert np.array_equal(out, expect), (ay, ax, size, stack.dtype)

    @pytest.mark.parametrize("method", ["1d", "2d"])
    @pytest.mark.parametrize("channels", [1, 2, 16])
    def test_bytes_equal_oracle(self, method, channels):
        rng = np.random.default_rng(10 + channels)
        for ay, ax in self.SHAPES:
            for views in self.crops(rng, channels, ay, ax):
                for size in self.SIZES + [37]:
                    config = PoolConfig(method=method, size=size)
                    for values in (views, views[0]):
                        out = pool_stack(values, method, size)
                        expect = oracle_pool(values, config)
                        assert out.dtype == expect.dtype and out.shape == expect.shape
                        assert out.tobytes() == expect.tobytes(), (ay, ax, size, values.dtype)


class TestSamplingCadence:
    """Which frame or event each classification instant of select_regions reads."""

    @staticmethod
    def frames_read(n_frames, every):
        # frame k holds code k + 1 everywhere, so every crop is its whole frame
        codes = np.arange(1, n_frames + 1, dtype=np.uint16)[:, None, None]
        recording = Recording(frames=np.broadcast_to(codes, (n_frames, 3, 4)))
        regions = select_regions([recording], sample_every=every)
        assert regions.counts == [n_frames // every]
        read = np.rint(regions.data.reshape(-1, 12) * FRAME_CODE_SCALE).astype(int) - 1
        assert (read == read[:, :1]).all()
        return read[:, 0].tolist()

    @staticmethod
    def events_lit(n_events, every):
        # one event per cell, all within the window: the surface at instant
        # i lights the i + 1 cells of events 0..i
        cells = np.arange(n_events)
        events = make_events(cells * 3, cells // 21, cells % 21, np.zeros(n_events))
        stream = EventStream(kind=StreamKind.ON_OFF, grid_width=21, grid_height=20,
                             events=events)
        regions = select_regions([stream], sample_every=every, activity_fraction=0.0)
        col_sums, _ = regions.marginals
        assert regions.counts == [len(col_sums)]
        return col_sums.sum(axis=(1, 2)).tolist()

    def test_frame_instants_example(self):
        # the tenth instant, at t = 80 pulse periods, falls past the last frame
        assert self.frames_read(80, 8) == [8, 16, 24, 32, 40, 48, 56, 64, 72, 79]
        assert self.frames_read(81, 8) == [8, 16, 24, 32, 40, 48, 56, 64, 72, 80]
        assert self.frames_read(8, 8) == [7]
        assert self.frames_read(3, 1) == [1, 2, 2]

    def test_event_instants_oobu_example(self):
        # instants at events 200 and 401
        assert self.events_lit(402, 201) == [201, 402]
        assert self.events_lit(400, 201) == [201]

    def test_short_stream_yields_no_samples(self):
        assert self.events_lit(50, 51) == []

    def test_frame_instants_short(self):
        assert self.frames_read(7, 8) == []


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
        assert np.allclose(weights, expect, atol=1e-9)
        assert np.allclose(weights, np.eye(2) / 1.1, atol=1e-9)

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
        assert np.allclose(single, chunked, atol=1e-9)

    def test_non_finite_rejected(self):
        for n_samples in (1, 3):  # sample-space and feature-space solves
            inputs = np.ones((n_samples, 2))
            inputs[0, 1] = np.nan
            with pytest.raises(ValueError, match="finite"):
                train_classifier(inputs, np.ones((n_samples, 1)))
            with pytest.raises(ValueError, match="finite"):
                train_classifier(np.ones((n_samples, 2)), np.full((n_samples, 1), np.inf))

    @pytest.mark.parametrize("ridge_lambda", [-1.0, -1e-12, np.nan, np.inf])
    @pytest.mark.parametrize("n_samples", [1, 3])
    def test_bad_lambda_rejected(self, ridge_lambda, n_samples):
        inputs = np.ones((n_samples, 2))
        with pytest.raises(ValueError, match="ridge_lambda"):
            train_classifier(inputs, np.ones((n_samples, 1)), ridge_lambda)

    @staticmethod
    def primal_oracle(inputs, targets, ridge_lambda):
        acc = RidgeAccumulator(inputs.shape[1], targets.shape[1], ridge_lambda)
        acc.add(inputs, targets)
        return acc.solve()

    def test_sample_space_solve_matches_primal(self):
        rng = np.random.default_rng(12)
        shapes = [(1, 7), (1, 400), (6, 7), (59, 60)]
        shapes += [(int(n), int(m)) for m in rng.integers(2, 401, 12)
                   for n in [rng.integers(1, min(m, 61))]]
        for n, m in shapes:
            assert n < m
            for ridge_lambda in (1e-3, 0.1, 10.0):
                inputs = rng.standard_normal((n, m))
                targets = one_hot(rng.integers(0, 4, n), 4)
                oracle = self.primal_oracle(inputs, targets, ridge_lambda)
                weights = train_classifier(inputs, targets, ridge_lambda)
                assert weights.shape == oracle.shape
                scale = np.abs(oracle).max()
                assert np.abs(weights - oracle).max() <= 1e-9 * scale, (n, m)
                probe = np.vstack([inputs, rng.standard_normal((20, m))])
                assert np.array_equal(predict_batch(weights, probe),
                                      predict_batch(oracle, probe))

    def test_no_samples_rejected(self):
        for m in (0, 5):
            with pytest.raises(ValueError, match="no samples accumulated"):
                train_classifier(np.zeros((0, m)), np.zeros((0, 2)))

    def test_zero_lambda_interpolates_with_fewer_samples_than_inputs(self):
        rng = np.random.default_rng(6)
        inputs = np.zeros((5, 30))
        inputs[:, :20] = rng.standard_normal((5, 20))  # dead inputs make UᵀU exactly singular
        labels = np.array([0, 1, 2, 1, 0])
        weights = train_classifier(inputs, one_hot(labels, 3), ridge_lambda=0.0)
        assert np.allclose(inputs @ weights.T, one_hot(labels, 3), atol=1e-9)
        assert np.array_equal(predict_batch(weights, inputs), labels)

    def test_sample_space_solve_holds_no_feature_square(self):
        rng = np.random.default_rng(8)
        inputs = rng.standard_normal((16, 4000))
        targets = one_hot(rng.integers(0, 3, 16), 3)
        tracemalloc.start()
        try:
            train_classifier(inputs, targets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20  # the 4000 x 4000 Gram matrix alone is 128 MB

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
        assert weights.shape == (4, 6)


class TestPredict:
    def test_argmax(self):
        assert predict_batch(np.eye(3), np.array([[0.1, 0.9, 0.3]])).tolist() == [1]

    def test_tie_takes_lowest(self):
        assert predict_batch(np.eye(2), np.array([[0.5, 0.5]])).tolist() == [0]

    def test_scale_covariance_of_argmax(self):
        rng = np.random.default_rng(11)
        weights = rng.standard_normal((5, 7))
        u = rng.standard_normal((50, 7))
        c = rng.uniform(0.1, 10, size=(50, 1))
        assert np.array_equal(predict_batch(weights, u), predict_batch(weights, c * u))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            predict_batch(np.eye(3), np.zeros((1, 4)))


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


def reference_evaluate(samples, n_classes, seeds, ridge_lambda, train_fraction):
    """Oracle for evaluate_samples' vote: a loop over the test recordings, each
    voting the modal class of its samples' predictions (ties to the lowest
    class, class 0 without samples).  Returns the trials, the confusion, the
    no-sample count and the number of tied votes."""
    trials, n_no_sample, n_tied = [], 0, 0
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for seed in seeds:
        train_recs, test_recs = split_indices(samples.n_recordings, train_fraction, seed)
        train_mask = np.isin(samples.recording_index, train_recs)
        test_mask = np.isin(samples.recording_index, test_recs)
        weights = train_classifier(samples.features[train_mask],
                                   one_hot(samples.labels[train_mask], n_classes), ridge_lambda)
        pred = predict_batch(weights, samples.features[test_mask])
        truth = samples.labels[test_mask]
        rec_ids = samples.recording_index[test_mask]
        votes = []
        for rec in test_recs:
            cls = pred[rec_ids == rec]
            if len(cls) == 0:
                n_no_sample += 1
                votes.append(0)
                continue
            tally = np.bincount(cls, minlength=n_classes)
            n_tied += int(np.count_nonzero(tally == tally.max()) > 1)
            votes.append(int(np.argmax(tally)))
        rec_acc = float(np.mean(np.array(votes) == samples.recording_labels[test_recs]))
        trials.append(TrialResult(seed=seed, per_frame_accuracy=float(np.mean(pred == truth)),
                                  per_recording_accuracy=rec_acc))
        np.add.at(confusion, (truth, pred), 1)
    return trials, confusion, n_no_sample, n_tied


class TestEvaluate:
    @pytest.mark.parametrize("data_seed", [0, 1, 2])
    def test_vote_matches_per_recording_oracle(self, data_seed):
        # noisy features over 4 of 5 classes, 0 to 4 samples per recording:
        # tied votes and test recordings without samples both occur
        rng = np.random.default_rng(data_seed)
        rec_labels = rng.integers(0, 4, 60)
        counts = rng.integers(0, 5, 60)
        rec_idx = np.repeat(np.arange(60), counts)
        feats = rng.standard_normal((len(rec_idx), 6))
        feats[np.arange(len(rec_idx)), rec_labels[rec_idx]] += 0.8
        samples = SampleSet(features=feats, labels=rec_labels[rec_idx],
                            recording_index=rec_idx, recording_labels=rec_labels)
        seeds = list(range(10))
        report = evaluate_samples(samples, 5, seeds, ridge_lambda=0.5, train_fraction=0.7)
        trials, confusion, n_no_sample, n_tied = reference_evaluate(samples, 5, seeds, 0.5, 0.7)
        assert n_tied > 0 and n_no_sample > 0
        assert report.trials == trials
        assert np.array_equal(report.confusion, confusion)
        assert report.n_no_sample_recordings == n_no_sample

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

    def test_label_outside_class_range_rejected(self):
        samples = separable_samples(n_classes=3)
        with pytest.raises(ValueError, match="n_classes"):
            evaluate_samples(samples, n_classes=2, seeds=[0])

    def test_trial_without_training_samples_named(self):
        labels = np.arange(10) % 2
        test_recs = split_indices(10, 0.9, 7)[1]
        rec_index = np.repeat(test_recs, 3)
        samples = SampleSet(features=np.ones((len(rec_index), 4)), labels=labels[rec_index],
                            recording_index=rec_index, recording_labels=labels)
        with pytest.raises(ValueError, match=f"trial seed 7: .* 0 of the {len(rec_index)} "):
            evaluate_samples(samples, n_classes=2, seeds=[7])

    def test_singular_readout_named(self):
        # all-zero features and no regularization: the Gram matrix is zero
        labels = np.arange(10) % 2
        rec_index = np.repeat(np.arange(10), 3)
        samples = SampleSet(features=np.zeros((30, 2)), labels=labels[rec_index],
                            recording_index=rec_index, recording_labels=labels)
        n_train = 3 * len(split_indices(10, 0.9, 5)[0])
        with pytest.raises(ValueError, match=f"^trial seed 5: the ridge system of {n_train} "
                                             f"samples and 2 features is singular at "
                                             f"ridge_lambda = 0.0$"):
            evaluate_samples(samples, n_classes=2, seeds=[5], ridge_lambda=0.0)

    def test_trial_without_test_recording_named(self):
        zeros = np.zeros(3, dtype=np.int64)
        samples = SampleSet(features=np.ones((3, 4)), labels=zeros, recording_index=zeros,
                            recording_labels=zeros[:1])
        with pytest.raises(ValueError, match="trial seed 4: its test split holds none of the 1 "):
            evaluate_samples(samples, n_classes=1, seeds=[4])

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
        import json
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["n_trials"] == 2
        assert len(data["trials"]) == 2
        assert TRIAL_COLUMNS == ["trial", "seed", "per_frame_acc", "per_recording_acc"]
        rows = report.trial_rows()
        assert [row[:2] for row in rows] == [[0, 0], [1, 1]]
        assert all(len(row) == len(TRIAL_COLUMNS) for row in rows)

    def test_samples_per_recording_stats(self):
        samples = separable_samples(samples_per_rec=4)
        report = evaluate_samples(samples, 3, seeds=[0])
        assert report.samples_per_recording_mean == 4.0
        assert report.samples_per_recording_std == 0.0
