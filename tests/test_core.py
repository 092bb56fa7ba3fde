"""Core types: AER codec, event streams, time surfaces."""

import numpy as np
import pytest

from spadevents.core import (NEVER, EventStream, Recording, StreamKind,
                             TimeSurface, decode_aer, decode_aer_array,
                             encode_aer, encode_aer_array, make_events)
from spadevents.feast import event_rois


def assemble_word_bits(row, col, feature_class, pulse):
    """Independent oracle: build the 32-bit word from a bit string."""
    bits = f"{row:07b}{col:07b}{feature_class:02b}{pulse:016b}"
    assert len(bits) == 32
    return int(bits, 2)


def one_polarity_stream(t, y, x, grid):
    return EventStream(kind=StreamKind.FEATURE, grid_width=grid, grid_height=grid,
                       events=make_events(t, y, x, [0] * len(t)), polarity_count=1)


class TestAerCodec:
    def test_all_zero_fields(self):
        assert encode_aer(0, 0, 0, 0) == 0x00000000

    def test_reference_word(self):
        # 0000001_0000010_11_0000000000000100
        assert encode_aer(1, 2, 3, 4) == 0x020B0004
        assert encode_aer(1, 2, 3, 4) == assemble_word_bits(1, 2, 3, 4)

    def test_all_ones_fields(self):
        assert encode_aer(127, 127, 3, 65535) == 0xFFFFFFFF

    def test_decode_examples(self):
        assert decode_aer(0x00000000) == (0, 0, 0, 0)
        assert decode_aer(0x020B0004) == (1, 2, 3, 4)

    def test_roundtrip_random_tuples(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            row = int(rng.integers(0, 128))
            col = int(rng.integers(0, 128))
            pulse = int(rng.integers(0, 65536))
            for fc in range(4):
                assert decode_aer(encode_aer(row, col, fc, pulse)) == (row, col, fc, pulse)

    def test_codec_identity_exhaustive_class_random_fields(self):
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 128, size=10_000)
        cols = rng.integers(0, 128, size=10_000)
        pulses = rng.integers(0, 65536, size=10_000)
        for fc in range(4):
            classes = np.full(10_000, fc)
            words = encode_aer_array(rows, cols, classes, pulses)
            r, c, f, p = decode_aer_array(words)
            assert np.array_equal(r, rows)
            assert np.array_equal(c, cols)
            assert np.array_equal(f, classes)
            assert np.array_equal(p, pulses)

    def test_bitstring_oracle_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            row, col = int(rng.integers(0, 128)), int(rng.integers(0, 128))
            fc, pulse = int(rng.integers(0, 4)), int(rng.integers(0, 65536))
            assert encode_aer(row, col, fc, pulse) == assemble_word_bits(row, col, fc, pulse)

    def test_pulse_index_wraps_modulo(self):
        assert encode_aer(0, 0, 0, 65536) == encode_aer(0, 0, 0, 0)
        assert encode_aer(0, 0, 0, 65537) == encode_aer(0, 0, 0, 1)

    @pytest.mark.parametrize("row,col,fc,pulse,name", [
        (128, 0, 0, 0, "row"),
        (-1, 0, 0, 0, "row"),
        (0, 128, 0, 0, "col"),
        (0, 0, 4, 0, "feature_class"),
        (0, 0, 0, -1, "pulse_index"),
    ])
    def test_out_of_range_names_field(self, row, col, fc, pulse, name):
        with pytest.raises(ValueError, match=name):
            encode_aer(row, col, fc, pulse)

    def test_decode_is_total_on_32_bits(self):
        rng = np.random.default_rng(11)
        for word in rng.integers(0, 1 << 32, size=500):
            row, col, fc, pulse = decode_aer(int(word))
            assert 0 <= row < 128 and 0 <= col < 128 and 0 <= fc < 4 and 0 <= pulse < 65536


class TestDomainTypes:
    def test_recording_validation(self):
        frames = np.zeros((3, 4, 5), dtype=np.uint16)
        rec = Recording(frames=frames, pulse_period=10, class_id=2, recording_id="r")
        assert rec.n_frames == 3 and rec.height == 4 and rec.width == 5
        with pytest.raises(ValueError):
            Recording(frames=np.zeros((4, 5), dtype=np.uint16))
        with pytest.raises(ValueError):
            Recording(frames=frames, pulse_period=0)
        with pytest.raises(ValueError):
            Recording(frames=frames, class_id=-1)

    def test_stream_polarity_defaults(self):
        s = EventStream(kind=StreamKind.ON_OFF, grid_width=4, grid_height=4)
        assert s.polarity_count == 2
        s = EventStream(kind=StreamKind.OOBU, grid_width=4, grid_height=4)
        assert s.polarity_count == 4
        with pytest.raises(ValueError):
            EventStream(kind=StreamKind.FEATURE, grid_width=4, grid_height=4)

    def test_stream_canonical_ordering_check(self):
        good = make_events([1, 1, 1, 2], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0])
        s = EventStream(kind=StreamKind.OOBU, grid_width=2, grid_height=2, events=good)
        assert s.is_canonical()
        bad = make_events([2, 1], [0, 0], [0, 0], [0, 0])
        s = EventStream(kind=StreamKind.OOBU, grid_width=2, grid_height=2, events=bad)
        assert not s.is_canonical()

    def test_canonical_sort_matches_check(self):
        rng = np.random.default_rng(5)
        ev = make_events(rng.integers(0, 50, 300), rng.integers(0, 8, 300),
                         rng.integers(0, 8, 300), rng.integers(0, 4, 300))
        order = np.lexsort((ev["p"], ev["x"], ev["y"], ev["t"]))
        s = EventStream(kind=StreamKind.OOBU, grid_width=8, grid_height=8, events=ev[order])
        assert s.is_canonical()

    def test_out_of_grid_events_rejected(self):
        ev = make_events([0], [9], [0], [0])
        with pytest.raises(ValueError, match="outside"):
            EventStream(kind=StreamKind.ON_OFF, grid_width=4, grid_height=4, events=ev)

    # one event on an 8x8 grid; the first value off it along one field
    @pytest.mark.parametrize("kind, polarity_count, y, x, p", [
        (StreamKind.OOBU, 0, 1, 8, 0),
        (StreamKind.OOBU, 0, 8, 1, 0),
        (StreamKind.OOBU, 0, 1, 1, 4),
        (StreamKind.ON_OFF, 0, 1, 8, 0),
        (StreamKind.ON_OFF, 0, 8, 1, 0),
        (StreamKind.ON_OFF, 0, 1, 1, 2),     # On-Off has 2 polarities
        (StreamKind.FEATURE, 2, 1, 8, 0),
        (StreamKind.FEATURE, 2, 8, 1, 0),
        (StreamKind.FEATURE, 2, 1, 1, 2),    # a 2-polarity feature stream
    ], ids=["oobu-x", "oobu-y", "oobu-p", "onoff-x", "onoff-y", "onoff-p",
            "feature2-x", "feature2-y", "feature2-p"])
    def test_events_off_the_stream_refused(self, kind, polarity_count, y, x, p):
        ev = make_events([5], [y], [x], [p])
        with pytest.raises(ValueError, match="outside the 8x8 grid"):
            EventStream(kind=kind, grid_width=8, grid_height=8, events=ev,
                        polarity_count=polarity_count)
        # one step back along the refused field fits
        fits = make_events([5], [min(y, 7)], [min(x, 7)], [max(p - 1, 0)])
        assert len(EventStream(kind=kind, grid_width=8, grid_height=8, events=fits,
                               polarity_count=polarity_count)) == 1


class TestTimeSurface:
    def test_single_update(self):
        surf = TimeSurface(8, 8, 2)
        surf.update(x=3, y=4, polarity=1, t=100)
        last = surf.last_t
        assert last[1, 4, 3] == 100
        mask = last != NEVER
        assert mask.sum() == 1

    def test_overwrite_same_cell(self):
        surf = TimeSurface(8, 8, 2)
        surf.update(3, 4, 1, 100)
        surf.update(3, 4, 1, 200)
        assert surf.last_t[1, 4, 3] == 200

    def test_window_boundary_is_strict(self):
        # age exactly equal to the window reads 0
        surf = TimeSurface(4, 4, 1)
        surf.update(1, 1, 0, 100)
        assert surf.binary(t_now=2100, window_us=2000)[0, 1, 1] == 0
        assert surf.binary(t_now=2099, window_us=2000)[0, 1, 1] == 1

    def test_never_fired_reads_zero(self):
        surf = TimeSurface(4, 4, 2)
        assert surf.binary(t_now=10**12, window_us=10**12).sum() == 0

    def test_out_of_grid_update_rejected(self):
        surf = TimeSurface(4, 4, 2)
        with pytest.raises(ValueError):
            surf.update(4, 0, 0, 1)
        with pytest.raises(ValueError):
            surf.update(0, 0, 2, 1)

    def test_roi_zero_padding_at_corner(self):
        stream = one_polarity_stream([10], [0], [0], grid=8)
        roi = event_rois(stream, roi_side=5, window_us=100, inclusive=True).reshape(1, 5, 5)
        assert roi[0, 2, 2] == 1          # the event, at patch center
        assert roi[0, :2, :].sum() == 0   # off-grid rows above
        assert roi[0, :, :2].sum() == 0   # off-grid cols left

    def test_roi_all_never_fired(self):
        # an exclusive read of a stream's first event sees a surface nothing has written
        stream = EventStream(kind=StreamKind.OOBU, grid_width=8, grid_height=8,
                             events=make_events([1000], [4], [4], [3]))
        assert event_rois(stream, 5, 1000, inclusive=False).sum() == 0

    def test_roi_single_event_at_center(self):
        stream = EventStream(kind=StreamKind.ON_OFF, grid_width=8, grid_height=8,
                             events=make_events([50, 60], [4, 4], [4, 4], [1, 0]))
        roi = event_rois(stream, 5, 100, inclusive=False)[1].reshape(2, 5, 5)
        assert roi.sum() == 1
        assert roi[1, 2, 2] == 1

    def test_even_roi_side_rejected(self):
        stream = one_polarity_stream([0], [4], [4], grid=8)
        with pytest.raises(ValueError):
            event_rois(stream, 4, 10, inclusive=True)

    def test_readout_is_pure(self):
        surf = TimeSurface(6, 6, 2)
        surf.update(2, 3, 0, 5)
        before = surf.last_t.copy()
        surf.binary(100, 50)
        assert np.array_equal(surf.last_t, before)
        stream = EventStream(kind=StreamKind.ON_OFF, grid_width=6, grid_height=6,
                             events=make_events([5, 60, 100], [3, 3, 2], [2, 2, 2], [0, 1, 0]))
        events = stream.events.copy()
        first = event_rois(stream, 3, 50, inclusive=True)
        assert np.array_equal(stream.events, events)
        assert np.array_equal(event_rois(stream, 3, 50, inclusive=True), first)

    def test_update_many_matches_sequential(self):
        rng = np.random.default_rng(13)
        ev = make_events(np.sort(rng.integers(0, 100, 200)), rng.integers(0, 6, 200),
                         rng.integers(0, 6, 200), rng.integers(0, 2, 200))
        a = TimeSurface(6, 6, 2)
        b = TimeSurface(6, 6, 2)
        a.update_many(ev)
        for e in ev:
            b.update(int(e["x"]), int(e["y"]), int(e["p"]), int(e["t"]))
        assert np.array_equal(a.last_t, b.last_t)
