"""Feature learning: adaptation rules, binarization, inference, file format."""

import struct

import numpy as np
import pytest

from spadevents import feast
from spadevents.core import (BadMagicError, DimensionError, EventStream, FormatError,
                             StreamKind, TimeSurface, TruncatedError, make_events)
from spadevents.dataio import SynthConfig, synth_generate
from spadevents.eventgen import oobu_convert
from spadevents.feast import (BinaryFeatureSet, ContinuousFeatureSet, FeastParams, binarize,
                              event_rois, feast_infer, feast_train, initial_features,
                              load_features, save_features)


# Per-event reference: a running TimeSurface, read through a zero-padded crop
# of its full-grid binary readout.  The batched extractor and the layers built
# on it must reproduce these loops exactly.

def reference_roi(surface, x, y, side, t, window_us):
    r = side // 2
    grid = np.pad(surface.binary(t, window_us), ((0, 0), (r, r), (r, r)))
    return grid[:, y:y + side, x:x + side].reshape(-1)


def reference_rois(stream, side, window_us, inclusive):
    surface = TimeSurface(stream.grid_width, stream.grid_height, stream.polarity_count)
    rows = np.zeros((len(stream), stream.polarity_count * side * side), dtype=np.uint8)
    for i, e in enumerate(stream.events):
        x, y, p, t = int(e["x"]), int(e["y"]), int(e["p"]), int(e["t"])
        if inclusive:
            surface.update(x, y, p, t)
        rows[i] = reference_roi(surface, x, y, side, t, window_us)
        if not inclusive:
            surface.update(x, y, p, t)
    return rows


def reference_infer(stream, features, window_us):
    bits = features.bits.astype(np.int64)
    rois = reference_rois(stream, features.roi_side, window_us, inclusive=True)
    return np.array([np.argmax(bits @ roi.astype(np.int64)) for roi in rois], dtype=np.uint8)


def reference_train(streams, params):
    features = initial_features(params)
    weights, thresholds, wins = features.weights, features.thresholds, features.win_counts
    for s in streams:
        for flat in reference_rois(s, params.roi_side, params.window_us, inclusive=False):
            active = int(flat.sum())
            if active == 0:
                continue
            roi_n = flat.astype(np.float64) / np.sqrt(active)
            dist = 1.0 - weights @ roi_n
            eligible = dist < thresholds
            if eligible.any():
                winner = int(np.argmin(np.where(eligible, dist, np.inf)))
                wins[winner] += 1
                mixed = (1.0 - params.mix_rate) * weights[winner] + params.mix_rate * roi_n
                weights[winner] = mixed / np.linalg.norm(mixed)
                thresholds[winner] = max(thresholds[winner] - params.shrink_step, 0.0)
            else:
                np.minimum(thresholds + params.grow_step, 2.0, out=thresholds)
    return features


def fuzz_stream(rng):
    """A small random stream: runs of equal timestamps, duplicate cells, any order
    within a run."""
    width, height = (int(v) for v in rng.integers(1, 9, size=2))
    polarity_count = int(rng.integers(1, 5))
    n = int(rng.integers(0, 60))
    gaps = np.where(rng.random(n) < 0.6, 0, rng.integers(1, 1500, size=n))
    return EventStream(kind=StreamKind.FEATURE, grid_width=width, grid_height=height,
                       events=make_events(np.cumsum(gaps), rng.integers(0, height, n),
                                          rng.integers(0, width, n),
                                          rng.integers(0, polarity_count, n)),
                       polarity_count=polarity_count)


@pytest.fixture(scope="module")
def oobu_streams():
    config = SynthConfig(n_classes=3, recordings_per_class=2, frames_per_recording=40,
                         grid_width=16, grid_height=16, seed=11)
    _, recordings = synth_generate(config)
    return [oobu_convert(rec) for rec in recordings]


def stream_of(t, y, x, p, grid=8, polarity_count=2):
    return EventStream(kind=StreamKind.FEATURE, grid_width=grid, grid_height=grid,
                       events=make_events(t, y, x, p), polarity_count=polarity_count)


def stripe_stream(grid=40, cycles=40, polarity_count=1):
    """Vertical stripe texture cycled in time: every interior lit pixel sees
    the same ROI (stripes with a lit center)."""
    ys, xs = np.mgrid[0:grid, 0:grid]
    py, px = np.nonzero(xs % 2 == 0)
    n = len(py)
    t = np.arange(cycles * n, dtype=np.int64)
    return stream_of(t, np.tile(py, cycles), np.tile(px, cycles),
                     np.zeros(cycles * n, np.uint8), grid=grid,
                     polarity_count=polarity_count)


def balance_stream(n_patterns=8, grid=24, presentations=120, window_us=2000, seed=7):
    """Equal-frequency patterns, one per polarity plane, in bursts separated
    by more than the surface window."""
    rng = np.random.default_rng(seed)
    blobs = []
    for _ in range(n_patterns):
        mask = rng.random((10, 10)) < 0.5
        mask[5, 5] = True
        blobs.append(np.nonzero(mask))
    t_parts, y_parts, x_parts, p_parts = [], [], [], []
    t0 = 0
    for k in range(presentations):
        pat = k % n_patterns
        by, bx = blobs[pat]
        n = len(by)
        for rep in range(2):  # second pass sees the completed pattern
            t_parts.append(t0 + np.arange(n, dtype=np.int64) + rep * n)
            y_parts.append(by + 7)
            x_parts.append(bx + 7)
            p_parts.append(np.full(n, pat, np.uint8))
        t0 += 2 * n + window_us + 1
    return stream_of(np.concatenate(t_parts), np.concatenate(y_parts),
                     np.concatenate(x_parts), np.concatenate(p_parts),
                     grid=grid, polarity_count=n_patterns)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FeastParams(n_neurons=0, polarity_count=1)
        with pytest.raises(ValueError):
            FeastParams(n_neurons=1, polarity_count=1, roi_side=4)
        with pytest.raises(ValueError):
            FeastParams(n_neurons=1, polarity_count=1, mix_rate=1.0)

    @pytest.mark.parametrize("field", ["shrink_step", "grow_step"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -0.001])
    def test_non_finite_or_non_positive_step_refused(self, field, value):
        with pytest.raises(ValueError, match="shrink_step and grow_step"):
            FeastParams(n_neurons=1, polarity_count=1, **{field: value})

    def test_weight_length(self):
        assert FeastParams(n_neurons=3, polarity_count=4, roi_side=5).weight_length == 100


class TestTraining:
    def test_mixing_arithmetic_half_rate(self):
        # w = [1, 0], roi = [0, 1], eta = 0.5 -> normalize([0.5, 0.5])
        params = FeastParams(n_neurons=1, polarity_count=2, roi_side=1,
                             window_us=2000, mix_rate=0.5)
        start = ContinuousFeatureSet(weights=np.array([[1.0, 0.0]]),
                                     thresholds=np.array([1.5]),
                                     polarity_count=2, roi_side=1)
        # first event paints polarity 1; second reads roi [0, 1] and wins
        stream = stream_of([0, 1], [3, 3], [3, 3], [1, 0], polarity_count=2)
        trained = feast_train(stream, params, features=start)
        assert np.allclose(trained.weights[0], [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)
        assert start.weights[0, 0] == 1.0  # caller's set untouched

    def test_all_zero_thresholds_miss_and_grow(self):
        params = FeastParams(n_neurons=3, polarity_count=2, roi_side=1, grow_step=0.004)
        start = ContinuousFeatureSet(weights=initial_features(params).weights,
                                     thresholds=np.zeros(3), polarity_count=2, roi_side=1)
        stream = stream_of([0, 1], [3, 3], [3, 3], [1, 0], polarity_count=2)
        trained = feast_train(stream, params, features=start)
        # event 1 has an all-zero ROI (skipped); event 2 misses everywhere
        assert np.allclose(trained.thresholds, 0.004)
        assert trained.win_counts.sum() == 0

    def test_threshold_shrinks_on_win(self):
        params = FeastParams(n_neurons=1, polarity_count=2, roi_side=1,
                             mix_rate=0.5, shrink_step=0.002)
        start = ContinuousFeatureSet(weights=np.array([[1.0, 0.0]]),
                                     thresholds=np.array([1.5]),
                                     polarity_count=2, roi_side=1)
        stream = stream_of([0, 1], [3, 3], [3, 3], [1, 0], polarity_count=2)
        trained = feast_train(stream, params, features=start)
        assert trained.thresholds[0] == pytest.approx(1.498)
        assert trained.win_counts[0] == 1

    def test_single_pattern_convergence(self):
        # one dominant spatio-temporal pattern -> the single neuron locks on
        stream = stripe_stream()
        params = FeastParams(n_neurons=1, polarity_count=1, roi_side=5,
                             window_us=2000, seed=3)
        trained = feast_train(stream, params)
        pattern = np.zeros((1, 5, 5))
        pattern[0, :, 0::2] = 1.0
        pattern = pattern.reshape(-1)
        pattern /= np.linalg.norm(pattern)
        distance = 1.0 - trained.weights[0] @ pattern
        assert distance < 0.05

    def test_weight_norms_and_threshold_bounds_throughout(self):
        stream = stripe_stream(grid=20, cycles=6)
        params = FeastParams(n_neurons=4, polarity_count=1, roi_side=5, seed=5)
        trained = feast_train(stream, params, check_invariants=True)
        trained.validate(atol=1e-9)

    def test_activation_balance_on_equal_frequency_patterns(self):
        stream = balance_stream()
        params = FeastParams(n_neurons=8, polarity_count=8, roi_side=5,
                             window_us=2000, seed=11)
        trained = feast_train(stream, params)
        wins = trained.win_counts
        assert wins.min() > 0
        assert wins.max() / wins.min() <= 2.0

    def test_deterministic(self):
        stream = stripe_stream(grid=16, cycles=5)
        params = FeastParams(n_neurons=3, polarity_count=1, roi_side=5, seed=2)
        a = feast_train(stream, params)
        b = feast_train(stream, params)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.thresholds, b.thresholds)
        assert np.array_equal(a.win_counts, b.win_counts)

    def test_empty_stream_warns_and_returns_initial(self):
        params = FeastParams(n_neurons=2, polarity_count=1, roi_side=3, seed=4)
        empty = stream_of([], [], [], [], polarity_count=1)
        with pytest.warns(UserWarning, match="no events"):
            trained = feast_train(empty, params)
        assert np.array_equal(trained.weights, initial_features(params).weights)

    def test_polarity_mismatch_rejected(self):
        params = FeastParams(n_neurons=2, polarity_count=4, roi_side=3)
        stream = stream_of([0], [0], [0], [0], polarity_count=2)
        with pytest.raises(ValueError, match="polarities"):
            feast_train(stream, params)

    def test_multi_stream_surface_resets(self):
        # an event early in stream 2 must not see stream 1's surface
        params = FeastParams(n_neurons=1, polarity_count=1, roi_side=3, seed=6)
        s1 = stream_of([0], [4], [4], [0], polarity_count=1)
        s2 = stream_of([1], [4], [4], [0], polarity_count=1)
        trained = feast_train([s1, s2], params)
        # both events see an all-zero ROI (first in each stream), so no wins
        assert trained.win_counts.sum() == 0


class TestBinarize:
    def test_top_two_of_four(self):
        features = ContinuousFeatureSet(weights=np.array([[0.9, 0.5, 0.1, 0.0]]),
                                        thresholds=np.ones(1), polarity_count=4, roi_side=1)
        bits = binarize(features, 2)
        assert bits.bits.tolist() == [[1, 1, 0, 0]]

    def test_all_equal_takes_lowest_indices(self):
        features = ContinuousFeatureSet(weights=np.full((1, 100), 0.1),
                                        thresholds=np.ones(1), polarity_count=4, roi_side=5)
        bits = binarize(features, 32)
        assert np.array_equal(np.nonzero(bits.bits[0])[0], np.arange(32))

    def test_tie_at_cut_prefers_lower_flat_index(self):
        weights = np.array([[0.5, 0.3, 0.3, 0.1]])
        features = ContinuousFeatureSet(weights=weights, thresholds=np.ones(1),
                                        polarity_count=4, roi_side=1)
        bits = binarize(features, 2)
        assert bits.bits.tolist() == [[1, 1, 0, 0]]

    @pytest.mark.parametrize("n_active", [1, 32, 100])
    def test_popcount_exact_on_random_sets(self, n_active):
        params = FeastParams(n_neurons=16, polarity_count=4, roi_side=5, seed=9)
        bits = binarize(initial_features(params), n_active)
        assert np.all(bits.bits.sum(axis=1) == n_active)

    def test_magnitude_rank_not_sign(self):
        weights = np.array([[-0.9, 0.5, 0.2, -0.1]])
        features = ContinuousFeatureSet(weights=weights, thresholds=np.ones(1),
                                        polarity_count=4, roi_side=1)
        assert binarize(features, 2).bits.tolist() == [[1, 1, 0, 0]]

    def test_out_of_range_rejected(self):
        params = FeastParams(n_neurons=1, polarity_count=1, roi_side=3)
        features = initial_features(params)
        for bad in (0, 10):
            with pytest.raises(ValueError):
                binarize(features, bad)

    def test_popcount_enforced_on_construction(self):
        with pytest.raises(ValueError, match="active bits"):
            BinaryFeatureSet(bits=np.array([[1, 0], [1, 1]], dtype=np.uint8),
                             n_active=1, polarity_count=2, roi_side=1)


class TestInference:
    def make_bits(self, rows, polarity_count, roi_side):
        return BinaryFeatureSet(bits=np.array(rows, dtype=np.uint8),
                                n_active=int(np.asarray(rows)[0].sum()),
                                polarity_count=polarity_count, roi_side=roi_side)

    def test_matching_neuron_wins(self):
        # neuron 0 bit at the event's own (polarity, center) cell; neuron 1 far away
        side = 3
        length = 2 * side * side
        bits0 = np.zeros(length, dtype=np.uint8)
        bits0[4] = 1                       # polarity 0 plane, center of 3x3
        bits1 = np.zeros(length, dtype=np.uint8)
        bits1[side * side] = 1             # polarity 1 plane, corner
        features = self.make_bits([bits0, bits1], 2, side)
        stream = stream_of([0], [4], [4], [0], polarity_count=2)
        out = feast_infer(stream, features, window_us=100)
        assert out.events[0]["p"] == 0     # score 1 vs 0

    def test_tie_takes_lowest_index(self):
        side = 3
        length = side * side
        bits = np.zeros((2, length), dtype=np.uint8)
        bits[0, 4] = 1
        bits[1, 4] = 1
        features = self.make_bits(bits, 1, side)
        stream = stream_of([0], [4], [4], [0], polarity_count=1)
        out = feast_infer(stream, features, window_us=100)
        assert out.events[0]["p"] == 0

    def test_one_output_event_per_input(self):
        stream = stripe_stream(grid=16, cycles=3)
        params = FeastParams(n_neurons=4, polarity_count=1, roi_side=5, seed=1)
        features = binarize(initial_features(params), 8)
        out = feast_infer(stream, features)
        assert len(out) == len(stream)
        assert out.kind == StreamKind.FEATURE
        assert out.polarity_count == 4
        assert np.array_equal(out.events["t"], stream.events["t"])
        assert np.array_equal(out.events["x"], stream.events["x"])
        assert np.array_equal(out.events["y"], stream.events["y"])
        assert out.is_canonical()

    def test_self_cell_guarantees_nonzero_roi(self):
        # even the very first event scores against a visible ROI
        side = 3
        bits = np.zeros((1, side * side), dtype=np.uint8)
        bits[0, 4] = 1
        features = self.make_bits(bits, 1, side)
        stream = stream_of([0], [0], [0], [0], polarity_count=1)
        out = feast_infer(stream, features, window_us=10)
        assert len(out) == 1

    def test_polarity_mismatch_rejected(self):
        params = FeastParams(n_neurons=2, polarity_count=4, roi_side=3, seed=0)
        features = binarize(initial_features(params), 4)
        stream = stream_of([0], [0], [0], [0], polarity_count=2)
        with pytest.raises(ValueError, match="polarities"):
            feast_infer(stream, features)


class TestFeatureFiles:
    def test_continuous_round_trip(self, tmp_path):
        params = FeastParams(n_neurons=5, polarity_count=4, roi_side=5, seed=13)
        features = initial_features(params)
        path = tmp_path / "c.spdfea"
        save_features(features, path)
        loaded = load_features(path)
        assert isinstance(loaded, ContinuousFeatureSet)
        assert loaded.polarity_count == 4 and loaded.roi_side == 5
        # payload is float32; compare at that precision
        assert np.array_equal(loaded.weights, features.weights.astype(np.float32).astype(np.float64))

    def test_binary_round_trip_bit_exact(self, tmp_path):
        params = FeastParams(n_neurons=7, polarity_count=2, roi_side=5, seed=17)
        bits = binarize(initial_features(params), 13)
        path = tmp_path / "b.spdfea"
        save_features(bits, path)
        loaded = load_features(path)
        assert isinstance(loaded, BinaryFeatureSet)
        assert loaded.n_active == 13
        assert np.array_equal(loaded.bits, bits.bits)

    def test_header_fields(self, tmp_path):
        params = FeastParams(n_neurons=3, polarity_count=4, roi_side=5, seed=0)
        path = tmp_path / "h.spdfea"
        save_features(binarize(initial_features(params), 32), path)
        raw = path.read_bytes()
        assert raw[:8] == b"SPDFEA01"
        assert int.from_bytes(raw[8:10], "little") == 3
        assert int.from_bytes(raw[10:12], "little") == 4
        assert int.from_bytes(raw[12:14], "little") == 5
        assert int.from_bytes(raw[14:16], "little") == 32
        assert len(raw) == 16 + 3 * ((100 + 7) // 8)

    def test_bad_magic_and_truncation(self, tmp_path):
        path = tmp_path / "x.spdfea"
        path.write_bytes(b"WRONGMAG" + bytes(8))
        with pytest.raises(BadMagicError):
            load_features(path)
        params = FeastParams(n_neurons=2, polarity_count=1, roi_side=3, seed=1)
        good = tmp_path / "g.spdfea"
        save_features(initial_features(params), good)
        good.write_bytes(good.read_bytes()[:-4])
        with pytest.raises(TruncatedError):
            load_features(good)


    # header (n_neurons, polarity_count, roi_side, n_active) and payload; binary
    # rows of P=1, D=3 are 9 bits, packed LSB-first into 2 bytes
    @pytest.mark.parametrize("header, payload, match", [
        ((0, 1, 3, 2), b"", "empty"),
        ((2, 0, 3, 2), b"", "empty"),
        ((2, 1, 3, 10), bytes(4), "exceeds the row length"),
        ((2, 1, 3, 2), bytes([0b111, 0, 0b11, 0]), "exactly 2 bits"),
        ((2, 1, 3, 2), bytes([0b11, 0, 0b1, 0b11]), "past the row length"),
        ((2, 1, 2, 0), bytes(2 * 4 * 4), "odd"),
        ((1, 1, 3, 0), np.array([np.nan] + [1.0] * 8, dtype="<f4").tobytes(), "finite"),
    ])
    def test_malformed_fields_refused(self, tmp_path, header, payload, match):
        path = tmp_path / "f.spdfea"
        path.write_bytes(struct.pack("<8sHHHH", b"SPDFEA01", *header) + payload)
        with pytest.raises(FormatError, match=match):
            load_features(path)

    def test_too_many_neurons_for_the_header_refused(self, tmp_path):
        params = FeastParams(n_neurons=70_000, polarity_count=1, roi_side=1, seed=1)
        path = tmp_path / "big.spdfea"
        with pytest.raises(DimensionError):
            save_features(initial_features(params), path)
        assert not path.exists()


class TestBatchedRois:
    @pytest.mark.parametrize("inclusive", [False, True])
    def test_fuzz_matches_per_event_reference(self, inclusive):
        rng = np.random.default_rng(2024 + inclusive)
        for _ in range(500):
            stream = fuzz_stream(rng)
            side = int(rng.choice([1, 3, 5, 7, 9]))
            window = int(rng.integers(1, 1001))
            got = event_rois(stream, side, window, inclusive)
            assert got.dtype == np.uint8
            assert np.array_equal(got, reference_rois(stream, side, window, inclusive))

    def test_empty_stream(self):
        stream = stream_of([], [], [], [], polarity_count=3)
        for inclusive in (False, True):
            assert event_rois(stream, 5, 100, inclusive).shape == (0, 75)
        params = FeastParams(n_neurons=4, polarity_count=3)
        features = binarize(initial_features(params), 8)
        assert len(feast_infer(stream, features)) == 0

    def test_out_of_range_events_rejected(self):
        # event_rois trusts the stream: no stream holds such events to pass it
        with pytest.raises(ValueError, match="outside"):
            stream_of([0], [8], [0], [0])
        with pytest.raises(ValueError, match="outside"):
            stream_of([0], [0], [0], [2])

    # a small block size splits every stream into many blocks, a partial one last
    @pytest.mark.parametrize("block_rows", [7, feast._BLOCK_ROWS])
    def test_infer_matches_reference_on_oobu_synth(self, oobu_streams, block_rows, monkeypatch):
        monkeypatch.setattr(feast, "_BLOCK_ROWS", block_rows)
        params = FeastParams(n_neurons=9, polarity_count=4, seed=3)
        trained = binarize(feast_train(oobu_streams[:3], params), 32)
        for features in (binarize(initial_features(params), 32), trained):
            for stream in oobu_streams:
                got = feast_infer(stream, features, window_us=params.window_us).events["p"]
                assert np.array_equal(got, reference_infer(stream, features, params.window_us))

    @pytest.mark.parametrize("block_rows", [7, feast._BLOCK_ROWS])
    def test_train_matches_reference_on_oobu_synth(self, oobu_streams, block_rows, monkeypatch):
        monkeypatch.setattr(feast, "_BLOCK_ROWS", block_rows)
        params = FeastParams(n_neurons=4, polarity_count=4, seed=5)
        got = feast_train(oobu_streams, params)
        want = reference_train(oobu_streams, params)
        assert want.win_counts.sum() > 0
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.thresholds, want.thresholds)
        assert np.array_equal(got.win_counts, want.win_counts)
