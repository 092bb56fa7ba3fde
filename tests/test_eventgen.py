"""First-AND, On-Off and OOBU converters, ratio demo, data rates, stream files."""

import numpy as np
import pytest

from spadevents.core import (BadMagicError, DimensionError, EventStream, FormatError,
                             Recording, StreamKind, TruncatedError, make_events)
from spadevents.eventgen import (GATE_TAPS, FirstAndParams, RfState,
                                 best_two_threshold_split, count_ratio_demo, datarate_stats,
                                 firstand_convert, firstand_convert_reference,
                                 firstand_pulse_winner, firstand_rf_step,
                                 firstand_winner_maps, onoff_convert, oobu_convert,
                                 polarity_count_ratio, read_stream, write_stream)


BORDER_TAPS = (
    ((0, 0), (0, 1), (0, 2), (0, 3)),  # N = top row
    ((3, 0), (3, 1), (3, 2), (3, 3)),  # S = bottom row
    ((0, 3), (1, 3), (2, 3), (3, 3)),  # E = right col
    ((0, 0), (1, 0), (2, 0), (3, 0)),  # W = left col
)


def brute_force_winner(frame, rf_origin):
    """Independent oracle: enumerate gate completion times with plain Python."""
    r0, c0 = rf_origin
    best = None  # (time, gate)
    for g, taps in enumerate(BORDER_TAPS):
        codes = [int(frame[r0 + dy, c0 + dx]) for dy, dx in taps]
        if all(c > 0 for c in codes):
            t = max(codes)
            if best is None or t < best[0]:
                best = (t, g)
    return None if best is None else best[1]


def recording_from(frames, pulse_period=10, class_id=0):
    return Recording(frames=np.asarray(frames, dtype=np.uint16),
                     pulse_period=pulse_period, class_id=class_id, recording_id="t")


def oobu_convert_reference(recording, change_threshold=2, uni_count_threshold=2,
                           bi_count_threshold=1, on_is_increase=True):
    """Independent oracle: the oobu_convert docstring rule, pixel by pixel.

    Frame pair (k-1, k) gives On (0) / Off (1) where the signed change
    reaches +/- change_threshold.  Each such event counts the On and Off
    events of its 3x3 region (itself included); both present and both
    counts > bi_count_threshold appends a bi-polar event (2), one polarity
    present with its count > uni_count_threshold appends a uni-polar one (3).
    """
    frames = recording.frames
    n, h, w = frames.shape
    sign = 1 if on_is_increase else -1
    t, y, x, p = [], [], [], []
    for k in range(1, n):
        polarity = {}
        for r in range(h):
            for c in range(w):
                change = sign * (int(frames[k, r, c]) - int(frames[k - 1, r, c]))
                if change >= change_threshold:
                    polarity[r, c] = 0
                elif change <= -change_threshold:
                    polarity[r, c] = 1
        for r in range(h):
            for c in range(w):
                if (r, c) not in polarity:
                    continue
                emitted = [polarity[r, c]]
                around = [polarity.get((r + dr, c + dc)) for dr in (-1, 0, 1) for dc in (-1, 0, 1)]
                n_on, n_off = around.count(0), around.count(1)
                if n_on and n_off:
                    if n_on > bi_count_threshold and n_off > bi_count_threshold:
                        emitted.append(2)
                elif max(n_on, n_off) > uni_count_threshold:
                    emitted.append(3)
                for pol in emitted:
                    t.append(k * recording.pulse_period)
                    y.append(r)
                    x.append(c)
                    p.append(pol)
    return EventStream(kind=StreamKind.OOBU, grid_width=w, grid_height=h,
                       events=make_events(np.array(t, dtype=np.int64), y, x, p))


class TestGateBank:
    def test_border_bank_geometry(self):
        assert GATE_TAPS == BORDER_TAPS


class TestPulseWinner:
    def test_only_top_row_latched(self):
        frame = np.zeros((4, 4), dtype=np.uint16)
        frame[0] = [5, 6, 7, 8]
        assert firstand_pulse_winner(frame, (0, 0)) == 0  # N

    def test_all_equal_tie_goes_to_priority(self):
        frame = np.full((4, 4), 5, dtype=np.uint16)
        assert firstand_pulse_winner(frame, (0, 0)) == 0  # N first

    def test_south_wins_on_earlier_completion(self):
        # written-out grid: N completes at 9, S at 4, both columns blocked by zeros
        frame = np.array([[9, 5, 5, 5],
                          [0, 1, 1, 0],
                          [0, 1, 1, 0],
                          [4, 3, 3, 3]], dtype=np.uint16)
        assert firstand_pulse_winner(frame, (0, 0)) == 1  # S
        assert brute_force_winner(frame, (0, 0)) == 1

    def test_no_complete_gate(self):
        frame = np.zeros((4, 4), dtype=np.uint16)
        frame[1:3, 1:3] = 7  # interior only; every border gate misses a tap
        assert firstand_pulse_winner(frame, (0, 0)) is None

    def test_matches_brute_force_and_winner_map(self):
        rng = np.random.default_rng(21)
        extremes = np.array([0, 1, 65534, 65535], dtype=np.uint16)
        for trial in range(30):
            k, h, w = int(rng.integers(1, 4)), int(rng.integers(4, 9)), int(rng.integers(4, 9))
            if trial % 2:
                frames = rng.choice(extremes, size=(k, h, w))
            else:
                frames = rng.integers(0, 4, size=(k, h, w)).astype(np.uint16) * rng.integers(0, 9)
            frames = frames.astype(np.uint16)
            maps = firstand_winner_maps(frames)
            assert maps.shape == (k, h - 3, w - 3)
            for f, r, c in np.ndindex(maps.shape):
                want = brute_force_winner(frames[f], (r, c))
                assert firstand_pulse_winner(frames[f], (r, c)) == want
                assert maps[f, r, c] == (-1 if want is None else want)


class TestRfStep:
    def test_threshold_reach_emits_and_resets(self):
        params = FirstAndParams(success_threshold=6)
        state = RfState(stored_feature=0, counter=5)
        new, emitted = firstand_rf_step(state, winner=0, params=params)
        assert emitted == 0
        assert new.counter == 0

    def test_replacement_on_decrement_to_zero(self):
        params = FirstAndParams()
        state = RfState(stored_feature=0, counter=1)
        new, emitted = firstand_rf_step(state, winner=1, params=params)
        assert emitted is None
        assert new.stored_feature == 1 and new.counter == 1

    def test_no_winner_is_noop(self):
        params = FirstAndParams()
        state = RfState(stored_feature=2, counter=4)
        new, emitted = firstand_rf_step(state, winner=None, params=params)
        assert new == state and emitted is None

    def test_counter_saturates_at_seven(self):
        params = FirstAndParams(success_threshold=7)
        state = RfState(stored_feature=0, counter=7)
        new, emitted = firstand_rf_step(state, winner=0, params=params)
        assert emitted == 0 and new.counter == 0  # 7 saturates then fires at phi=7

    def test_constant_winner_sixty_pulses_hand_trace(self):
        # one event every 6 noiseless pulses: 60 pulses -> 10 events
        params = FirstAndParams(success_threshold=6)
        state = RfState()
        emitted_at = []
        for pulse in range(1, 61):
            state, emitted = firstand_rf_step(state, winner=0, params=params)
            assert 0 <= state.counter <= 7
            if emitted is not None:
                emitted_at.append(pulse)
        assert emitted_at == [6, 12, 18, 24, 30, 36, 42, 48, 54, 60]

    def test_stored_changes_only_on_decrement_to_zero(self):
        rng = np.random.default_rng(5)
        params = FirstAndParams(success_threshold=4)
        state = RfState()
        for _ in range(500):
            winner = int(rng.integers(-1, 4))
            winner = None if winner < 0 else winner
            before = state
            state, _ = firstand_rf_step(state, winner, params)
            assert 0 <= state.counter <= 7
            if state.stored_feature != before.stored_feature:
                assert winner is not None and winner != before.stored_feature
                assert before.counter <= 1  # only a bottomed-out counter lets a new feature in
                assert state.counter == 1

    def test_exhaustive_against_written_out_rules(self):
        for phi in range(1, 8):
            params = FirstAndParams(success_threshold=phi)
            for stored in range(4):
                for counter in range(8):
                    for winner in (None, 0, 1, 2, 3):
                        # the counter rules, written out case by case
                        if winner is None:
                            want = (stored, counter, None)
                        elif winner == stored and counter + 1 >= phi:  # phi <= 7
                            want = (stored, 0, stored)
                        elif winner == stored:
                            want = (stored, counter + 1, None)
                        elif counter <= 1:
                            want = (winner, 1, None)
                        else:
                            want = (stored, counter - 1, None)
                        new, emitted = firstand_rf_step(RfState(stored, counter), winner, params)
                        assert (new.stored_feature, new.counter, emitted) == want, \
                            (phi, stored, counter, winner)


class TestFirstAndConvert:
    def test_rf_grid_sizes(self):
        rec32 = recording_from(np.zeros((1, 32, 32)))
        s = firstand_convert(rec32)
        assert (s.grid_height, s.grid_width) == (29, 29)
        rec128 = recording_from(np.zeros((1, 128, 128)))
        s = firstand_convert(rec128)
        assert (s.grid_height, s.grid_width) == (125, 125)

    def test_all_zero_recording_empty_stream(self):
        s = firstand_convert(recording_from(np.zeros((20, 8, 8))))
        assert len(s) == 0

    def test_static_square_emits_twice_in_twelve_frames(self):
        frames = np.zeros((12, 8, 8), dtype=np.uint16)
        frames[:, 0:4, 0:4] = 5  # one fully latched RF at origin, all pulses
        s = firstand_convert(recording_from(frames))
        origin_events = s.events[(s.events["y"] == 0) & (s.events["x"] == 0)]
        assert len(origin_events) == 2
        assert list(origin_events["t"]) == [50, 110]  # pulses 5 and 11 (0-based), 10 us apart

    def test_matches_reference_simulator_on_noisy_recordings(self):
        rng = np.random.default_rng(17)
        for trial in range(4):
            frames = (rng.integers(0, 5, size=(15, 7, 7)) * rng.integers(0, 2, size=(15, 7, 7)))
            rec = recording_from(frames.astype(np.uint16))
            fast = firstand_convert(rec)
            slow = firstand_convert_reference(rec)
            assert np.array_equal(fast.events, slow.events)
            assert fast.is_canonical()

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        rec = recording_from(rng.integers(0, 6, size=(10, 8, 8)).astype(np.uint16))
        a = firstand_convert(rec)
        b = firstand_convert(rec)
        assert np.array_equal(a.events, b.events)

    def test_fifo_cap_drops_in_arbiter_order(self):
        frames = np.zeros((12, 8, 11), dtype=np.uint16)
        frames[:, 0:4, 0:4] = 5    # block of latched pixels left
        frames[:, 0:4, 7:11] = 5   # and right
        uncapped = firstand_convert(recording_from(frames))
        pulses = np.unique(uncapped.events["t"])
        assert any((uncapped.events["t"] == t).sum() > 1 for t in pulses)
        capped = firstand_convert(recording_from(frames),
                                  params=FirstAndParams(fifo_capacity_per_pulse=1))
        for t in pulses:
            kept = capped.events[capped.events["t"] == t]
            assert len(kept) == 1
            first_uncapped = uncapped.events[uncapped.events["t"] == t][0]
            assert kept[0] == first_uncapped  # row-major first survives
        reference = firstand_convert_reference(recording_from(frames),
                                               params=FirstAndParams(fifo_capacity_per_pulse=1))
        assert np.array_equal(capped.events, reference.events)

    def test_fuzz_matches_reference_simulator(self):
        rng = np.random.default_rng(2024)
        extremes = np.array([0, 1, 65534, 65535], dtype=np.uint16)
        for trial in range(60):
            k = 0 if trial % 15 == 0 else int(rng.integers(1, 13))
            h, w = (4, 4) if trial % 10 == 1 else (int(rng.integers(4, 9)), int(rng.integers(4, 9)))
            style = trial % 4
            if style == 0:
                frames = np.zeros((k, h, w), dtype=np.uint16)
            elif style == 1:
                frames = np.full((k, h, w), 65535, dtype=np.uint16)
            elif style == 2:
                frames = rng.choice(extremes, size=(k, h, w), p=[0.2, 0.3, 0.2, 0.3])
            else:
                frames = rng.integers(0, 5, size=(k, h, w)) * rng.integers(0, 2, size=(k, h, w))
            cap = (None, 0, 1, int(rng.integers(2, 6)))[trial // 4 % 4]
            params = FirstAndParams(success_threshold=trial % 7 + 1, fifo_capacity_per_pulse=cap)
            rec = recording_from(frames.astype(np.uint16))
            fast = firstand_convert(rec, params=params)
            slow = firstand_convert_reference(rec, params=params)
            assert (fast.grid_height, fast.grid_width) == (h - 3, w - 3)
            assert np.array_equal(fast.events, slow.events), (trial, params)

    def test_frames_smaller_than_rf_rejected(self):
        with pytest.raises(ValueError, match="smaller"):
            firstand_convert(recording_from(np.zeros((1, 3, 3))))


class TestOnOff:
    def test_increase_makes_on(self):
        rec = recording_from([[[10]], [[13]]])
        s = onoff_convert(rec, change_threshold=2)
        assert len(s) == 1
        assert s.events[0]["p"] == 0 and s.events[0]["t"] == 10

    def test_below_threshold_silent(self):
        rec = recording_from([[[10]], [[9]]])
        assert len(onoff_convert(rec, change_threshold=2)) == 0

    def test_decrease_makes_off(self):
        rec = recording_from([[[10]], [[5]]])
        s = onoff_convert(rec, change_threshold=2)
        assert len(s) == 1 and s.events[0]["p"] == 1

    def test_identical_frames_silent(self):
        frames = np.tile(np.arange(16, dtype=np.uint16).reshape(1, 4, 4), (5, 1, 1))
        assert len(onoff_convert(recording_from(frames))) == 0

    def test_sign_flip_config(self):
        rec = recording_from([[[10]], [[13]]])
        s = onoff_convert(rec, change_threshold=2, on_is_increase=False)
        assert s.events[0]["p"] == 1

    def test_no_return_treated_as_zero(self):
        rec = recording_from([[[0]], [[1500]]])
        s = onoff_convert(rec, change_threshold=2)
        assert len(s) == 1 and s.events[0]["p"] == 0

    def test_single_frame_rejected(self):
        with pytest.raises(ValueError, match="two frames"):
            onoff_convert(recording_from(np.zeros((1, 4, 4))))

    def test_canonical_order(self):
        rng = np.random.default_rng(31)
        rec = recording_from(rng.integers(0, 30, size=(10, 6, 6)).astype(np.uint16))
        s = onoff_convert(rec)
        assert s.is_canonical()


class TestOobu:
    def pair_recording(self, before, after):
        return recording_from([before, after])

    def test_three_on_zero_off_makes_uni(self):
        before = np.zeros((5, 5), dtype=np.uint16)
        after = np.zeros((5, 5), dtype=np.uint16)
        after[1, 0:3] = 10  # three On events in a row
        s = oobu_convert(self.pair_recording(before, after),
                         uni_count_threshold=2, bi_count_threshold=1)
        uni = s.events[s.events["p"] == 3]
        assert len(uni) == 1          # only the middle event sees all three
        assert (uni[0]["y"], uni[0]["x"]) == (1, 1)
        assert (s.events["p"] == 2).sum() == 0

    def test_two_on_two_off_makes_bi(self):
        before = np.zeros((5, 5), dtype=np.uint16)
        before[2, 1:3] = 10           # will disappear -> Off
        after = np.zeros((5, 5), dtype=np.uint16)
        after[1, 1:3] = 10            # appears -> On
        s = oobu_convert(self.pair_recording(before, after),
                         uni_count_threshold=2, bi_count_threshold=1)
        bi = s.events[s.events["p"] == 2]
        assert len(bi) == 4           # every trigger sees 2 On and 2 Off
        assert (s.events["p"] == 3).sum() == 0

    def test_one_on_one_off_makes_nothing(self):
        before = np.zeros((5, 5), dtype=np.uint16)
        before[2, 2] = 10
        after = np.zeros((5, 5), dtype=np.uint16)
        after[1, 1] = 10
        s = oobu_convert(self.pair_recording(before, after),
                         uni_count_threshold=2, bi_count_threshold=1)
        assert (s.events["p"] >= 2).sum() == 0   # 1 > 1 is false on both sides
        assert (s.events["p"] <= 1).sum() == 2   # the On and Off events remain

    def test_restriction_to_on_off_matches_onoff_convert(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            rec = recording_from(rng.integers(0, 20, size=(8, 9, 9)).astype(np.uint16))
            base = onoff_convert(rec).events
            restricted = oobu_convert(rec).events
            restricted = restricted[restricted["p"] <= 1]
            assert np.array_equal(base, restricted)

    def test_augmented_events_colocated_with_triggers(self):
        rng = np.random.default_rng(43)
        rec = recording_from(rng.integers(0, 25, size=(10, 8, 8)).astype(np.uint16))
        s = oobu_convert(rec)
        triggers = {(e["t"], e["y"], e["x"]) for e in s.events if e["p"] <= 1}
        for e in s.events[s.events["p"] >= 2]:
            assert (e["t"], e["y"], e["x"]) in triggers

    def test_at_most_one_augment_per_pixel_pulse(self):
        rng = np.random.default_rng(47)
        rec = recording_from(rng.integers(0, 25, size=(10, 8, 8)).astype(np.uint16))
        s = oobu_convert(rec)
        aug = s.events[s.events["p"] >= 2]
        keys = [(e["t"], e["y"], e["x"]) for e in aug]
        assert len(keys) == len(set(keys))

    def test_canonical_and_deterministic(self):
        rng = np.random.default_rng(53)
        rec = recording_from(rng.integers(0, 25, size=(10, 8, 8)).astype(np.uint16))
        a = oobu_convert(rec)
        b = oobu_convert(rec)
        assert a.is_canonical()
        assert np.array_equal(a.events, b.events)

    def test_fuzz_matches_reference(self):
        rng = np.random.default_rng(808)
        for trial in range(120):
            k = int(rng.integers(2, 9))
            h, w = (1, 1) if trial % 20 == 0 else (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            top = 65536 if trial % 3 == 0 else int(rng.integers(2, 9))
            rec = recording_from(rng.integers(0, top, size=(k, h, w)),
                                 pulse_period=int(rng.integers(1, 20)))
            change = int(rng.integers(1, 6))
            bi = int(rng.integers(0, 4))
            uni = bi + int(rng.integers(0, 3))
            on_is_increase = trial % 2 == 0
            reference = oobu_convert_reference(rec, change, uni, bi, on_is_increase).events
            fast = oobu_convert(rec, change_threshold=change, uni_count_threshold=uni,
                                bi_count_threshold=bi, on_is_increase=on_is_increase)
            assert np.array_equal(fast.events, reference), (trial, change, bi, uni)
            onoff = onoff_convert(rec, change_threshold=change, on_is_increase=on_is_increase)
            assert np.array_equal(onoff.events, reference[reference["p"] <= 1]), trial

    def test_threshold_order_validation(self):
        rec = recording_from(np.zeros((2, 5, 5)))
        with pytest.raises(ValueError):
            oobu_convert(rec, uni_count_threshold=1, bi_count_threshold=2)


def stream_with_counts(counts, grid=8):
    """Tiny OOBU stream with the requested number of events per polarity."""
    t, y, x, p = [], [], [], []
    tick = 0
    for pol, n in enumerate(counts):
        for _ in range(n):
            t.append(tick)
            y.append(tick % grid)
            x.append((tick * 3) % grid)
            p.append(pol)
            tick += 1
    return EventStream(kind=StreamKind.OOBU, grid_width=grid, grid_height=grid,
                       events=make_events(t, y, x, p))


class TestRatioDemo:
    def test_polarity_ratio_and_infinity(self):
        s = stream_with_counts([6, 3, 0, 2])
        assert polarity_count_ratio(s, 0, 1) == 2.0
        assert polarity_count_ratio(s, 2, 3) == 0.0
        assert polarity_count_ratio(s, 0, 2) == float("inf")

    def test_separable_classes_reach_full_accuracy(self):
        streams, labels = [], []
        for cls, (on, off) in enumerate([(2, 8), (5, 5), (8, 2)]):
            for _ in range(6):
                streams.append(stream_with_counts([on, off, 1, 1]))
                labels.append(cls)
        result = count_ratio_demo(streams, labels)
        assert result.on_off_accuracy == 1.0

    def test_degenerate_identical_ratios_hit_class_prior(self):
        streams = [stream_with_counts([4, 4, 1, 1]) for _ in range(9)]
        labels = [0, 0, 0, 1, 1, 1, 2, 2, 2]
        result = count_ratio_demo(streams, labels)
        assert result.on_off_accuracy == pytest.approx(1 / 3)
        assert result.bi_uni_accuracy == pytest.approx(1 / 3)

    def test_needs_three_classes(self):
        streams = [stream_with_counts([1, 1, 1, 1]) for _ in range(4)]
        with pytest.raises(ValueError, match="3 classes"):
            count_ratio_demo(streams, [0, 0, 1, 1])

    def test_two_threshold_search_against_exhaustive_labeling(self):
        # brute-force oracle: try every (low, high) cut over value midpoints
        rng = np.random.default_rng(61)
        values = rng.integers(0, 6, size=30).astype(float)
        labels = rng.integers(0, 3, size=30)
        acc, _ = best_two_threshold_split(values, labels)

        candidates = sorted(set(values))
        cuts = [-np.inf] + [(a + b) / 2 for a, b in zip(candidates, candidates[1:])] + [np.inf]
        best = 0.0
        for lo in cuts:
            for hi in cuts:
                if hi < lo:
                    continue
                correct = 0
                for seg_mask in (values <= lo, (values > lo) & (values <= hi), values > hi):
                    seg = labels[seg_mask]
                    if len(seg):
                        correct += np.bincount(seg).max()
                best = max(best, correct / len(values))
        assert acc == pytest.approx(best)


class TestDataRate:
    def test_empty_stream_clamps_denominator(self):
        rec = recording_from(np.zeros((5, 4, 4)))
        stats = datarate_stats(rec, onoff_convert(rec))
        assert stats.event_bytes == 0
        assert stats.fold_reduction == stats.frame_bytes == 5 * 4 * 4 * 2

    def test_arithmetic_example(self):
        rec = recording_from(np.zeros((100, 32, 32)))
        events = make_events(np.arange(640), np.zeros(640), np.zeros(640), np.zeros(640))
        stream = EventStream(kind=StreamKind.ON_OFF, grid_width=32, grid_height=32,
                             events=events)
        stats = datarate_stats(rec, stream)
        assert stats.frame_bytes == 204800
        assert stats.event_bytes == 2560
        assert stats.fold_reduction == 80.0


class TestStreamFiles:
    def roundtrip(self, stream, tmp_path):
        path = tmp_path / "s.spdevt"
        write_stream(stream, path)
        return read_stream(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 500
        t = np.cumsum(rng.integers(0, 300, size=n))
        ev = make_events(t, rng.integers(0, 29, n), rng.integers(0, 29, n),
                         rng.integers(0, 4, n))
        stream = EventStream(kind=StreamKind.FIRST_AND, grid_width=29, grid_height=29,
                             events=ev)
        loaded = self.roundtrip(stream, tmp_path)
        assert loaded.kind == StreamKind.FIRST_AND
        assert loaded.grid_width == 29 and loaded.grid_height == 29
        assert np.array_equal(loaded.events["t"], stream.events["t"].astype(np.int64))
        assert np.array_equal(loaded.events["y"], stream.events["y"])
        assert np.array_equal(loaded.events["x"], stream.events["x"])
        assert np.array_equal(loaded.events["p"], stream.events["p"])

    def test_timestamp_wrap_unwraps(self, tmp_path):
        # timestamps cross the 16-bit boundary; gaps stay below 2^16, up to
        # the largest first timestamp and gap the word carries
        for t in ([60000, 70000, 131000, 131073], [65535, 131070, 131070, 196605]):
            t = np.array(t, dtype=np.int64)
            ev = make_events(t, [0, 1, 2, 3], [0, 0, 0, 0], [0, 0, 0, 0])
            stream = EventStream(kind=StreamKind.ON_OFF, grid_width=4, grid_height=4, events=ev)
            loaded = self.roundtrip(stream, tmp_path)
            assert np.array_equal(loaded.events["t"], t)

    @pytest.mark.parametrize("t", [[0, 70000], [70000], [0, 65536], [5, 3]])
    def test_unrepresentable_timestamps_refused(self, tmp_path, t):
        # t = [0, 70000] would read back as [0, 4464]
        n = len(t)
        ev = make_events(np.array(t, dtype=np.int64), [0] * n, [0] * n, [0] * n)
        stream = EventStream(kind=StreamKind.ON_OFF, grid_width=4, grid_height=4, events=ev)
        path = tmp_path / "w.spdevt"
        with pytest.raises(FormatError, match="16-bit timestamps"):
            write_stream(stream, path)
        assert not path.exists()

    def test_header_layout(self, tmp_path):
        stream = EventStream(kind=StreamKind.OOBU, grid_width=7, grid_height=9,
                             events=make_events([5], [1], [2], [3]))
        path = tmp_path / "h.spdevt"
        write_stream(stream, path)
        raw = path.read_bytes()
        assert raw[:8] == b"SPDEVT01"
        assert raw[8] == int(StreamKind.OOBU)
        assert raw[9] == 0                # pad byte: 0 for every kind but FEATURE
        assert int.from_bytes(raw[10:12], "little") == 7
        assert int.from_bytes(raw[12:14], "little") == 9
        assert int.from_bytes(raw[14:18], "little") == 1
        assert len(raw) == 22 + 4

    def test_feature_polarity_limit(self, tmp_path):
        ev = make_events([0], [0], [0], [5])
        stream = EventStream(kind=StreamKind.FEATURE, grid_width=4, grid_height=4,
                             events=ev, polarity_count=16)
        with pytest.raises(ValueError, match="2-bit"):
            write_stream(stream, tmp_path / "f.spdevt")

    def test_feature_polarity_count_round_trip(self, tmp_path):
        ev = make_events([0, 3, 9], [0, 1, 2], [1, 1, 0], [1, 0, 1])
        stream = EventStream(kind=StreamKind.FEATURE, grid_width=4, grid_height=4,
                             events=ev, polarity_count=2)
        loaded = self.roundtrip(stream, tmp_path)
        assert loaded.kind == StreamKind.FEATURE and loaded.polarity_count == 2
        assert np.array_equal(loaded.events, stream.events)
        assert (tmp_path / "s.spdevt").read_bytes()[9] == 2

    @pytest.mark.parametrize("pad", [0, 5, 255])
    def test_feature_polarity_count_out_of_range_refused(self, tmp_path, pad):
        stream = EventStream(kind=StreamKind.FEATURE, grid_width=4, grid_height=4,
                             events=make_events([0], [0], [0], [0]), polarity_count=1)
        path = tmp_path / "f.spdevt"
        write_stream(stream, path)
        raw = bytearray(path.read_bytes())
        raw[9] = pad
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="polarity count"):
            read_stream(path)

    # (byte offset, value) of one header byte; the stream is a 4x4 OOBU stream
    # with one event at (y=1, x=2, p=3)
    @pytest.mark.parametrize("offset, value, match", [
        (8, 9, "unknown stream kind"),      # kind
        (9, 1, "pad byte"),                 # pad must be 0 for OOBU
        (18, 1, "reserved"),                # reserved
        (10, 0, "empty grid"),              # grid_w
        (10, 2, "outside"),                 # grid_w below the event's x
        (12, 1, "outside"),                 # grid_h below the event's y
        (8, 1, "outside"),                  # ON_OFF has 2 polarities, the event p=3
    ])
    def test_malformed_header_fields_refused(self, tmp_path, offset, value, match):
        stream = EventStream(kind=StreamKind.OOBU, grid_width=4, grid_height=4,
                             events=make_events([5], [1], [2], [3]))
        path = tmp_path / "h.spdevt"
        write_stream(stream, path)
        raw = bytearray(path.read_bytes())
        raw[offset] = value
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=match):
            read_stream(path)

    def test_trailing_bytes_refused(self, tmp_path):
        stream = EventStream(kind=StreamKind.ON_OFF, grid_width=4, grid_height=4,
                             events=make_events([1], [0], [0], [1]))
        path = tmp_path / "t.spdevt"
        write_stream(stream, path)
        path.write_bytes(path.read_bytes() + bytes(1))
        with pytest.raises(FormatError, match="follow"):
            read_stream(path)

    def test_grid_wider_than_header_field_refused(self, tmp_path):
        stream = EventStream(kind=StreamKind.ON_OFF, grid_width=70_000, grid_height=4,
                             events=make_events([1], [0], [0], [1]))
        path = tmp_path / "w.spdevt"
        with pytest.raises(DimensionError):
            write_stream(stream, path)
        assert not path.exists()

    def test_large_grid_rejected(self, tmp_path):
        ev = make_events([0], [200], [0], [0])
        stream = EventStream(kind=StreamKind.ON_OFF, grid_width=256, grid_height=256,
                             events=ev)
        with pytest.raises(ValueError, match="128"):
            write_stream(stream, tmp_path / "g.spdevt")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.spdevt"
        path.write_bytes(b"NOTMAGIC" + bytes(14))
        with pytest.raises(BadMagicError):
            read_stream(path)

    def test_truncated(self, tmp_path):
        stream = EventStream(kind=StreamKind.ON_OFF, grid_width=4, grid_height=4,
                             events=make_events([1, 2], [0, 1], [0, 1], [0, 1]))
        path = tmp_path / "t.spdevt"
        write_stream(stream, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(TruncatedError):
            read_stream(path)
