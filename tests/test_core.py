"""Core types: AER codec, event streams, time surfaces."""

import numpy as np
import pytest

from spadevents.core import (NEVER, EventStream, Recording, StreamKind, decode_aer_array,
                             encode_aer_array, make_events, surface_lit)
from spadevents.feast import event_rois
from spadevents.pipeline import select_regions


def assert_canonical(stream):
    """The stream's events are in canonical (t, y, x, p) order: a stable
    lexicographic sort leaves them where they are."""
    ev = stream.events
    assert np.array_equal(np.lexsort((ev["p"], ev["x"], ev["y"], ev["t"])), np.arange(len(ev)))


class ReferenceSurface:
    """The oracles' time surface: last-event times of a (P, H, W) grid,
    written one event at a time and read as (t - last < window) & (last !=
    NEVER), independently of surface_lit."""

    def __init__(self, polarity_count, grid_height, grid_width):
        self.last_t = np.full((polarity_count, grid_height, grid_width), NEVER, dtype=np.int64)

    def write(self, events):
        for e in events:   # a later event to a cell overwrites an earlier one
            self.last_t[e["p"], e["y"], e["x"]] = e["t"]

    def binary(self, t_now, window_us):
        last = self.last_t
        return (((t_now - last) < window_us) & (last != NEVER)).astype(np.uint8)


def replayed_surfaces(stream, every, window_us):
    """The binary surface at each of select_regions' instants (every every-th
    event), read whole: at activity fraction 0 every region is the full grid."""
    regions = select_regions([stream], sample_every=every, window_us=window_us,
                             activity_fraction=0.0)
    shape = (stream.polarity_count, stream.grid_height, stream.grid_width)
    assert (regions.shapes == shape[1:]).all()
    values, starts = regions.crops(0, len(regions.shapes))
    return [values[start:start + np.prod(shape)].reshape(shape) for start in starts]


def assemble_word_bits(row, col, feature_class, pulse):
    """Independent oracle: build the 32-bit word from a bit string."""
    bits = f"{row:07b}{col:07b}{feature_class:02b}{pulse:016b}"
    assert len(bits) == 32
    return int(bits, 2)


def unpacked_rois(stream, roi_side, window_us):
    return np.unpackbits(event_rois(stream, roi_side, window_us), axis=1,
                         count=stream.polarity_count * roi_side * roi_side)


def one_polarity_stream(t, y, x, grid):
    return EventStream(kind=StreamKind.FEATURE, grid_width=grid, grid_height=grid,
                       events=make_events(t, y, x, [0] * len(t)), polarity_count=1)


def encode_one(row, col, feature_class, pulse):
    return int(encode_aer_array(row, col, feature_class, pulse))


def decode_one(word):
    return tuple(int(field) for field in decode_aer_array(word))


class TestAerCodec:
    def test_all_zero_fields(self):
        assert encode_one(0, 0, 0, 0) == 0x00000000

    def test_reference_word(self):
        # 0000001_0000010_11_0000000000000100
        assert encode_one(1, 2, 3, 4) == 0x020B0004
        assert encode_one(1, 2, 3, 4) == assemble_word_bits(1, 2, 3, 4)

    def test_all_ones_fields(self):
        assert encode_one(127, 127, 3, 65535) == 0xFFFFFFFF

    def test_decode_examples(self):
        assert decode_one(0x00000000) == (0, 0, 0, 0)
        assert decode_one(0x020B0004) == (1, 2, 3, 4)

    def test_roundtrip_random_tuples(self):
        rng = np.random.default_rng(42)
        rows = rng.integers(0, 128, size=1000)
        cols = rng.integers(0, 128, size=1000)
        pulses = rng.integers(0, 65536, size=1000)
        for fc in range(4):
            classes = np.full(1000, fc)
            words = encode_aer_array(rows, cols, classes, pulses)
            assert words.dtype == np.uint32
            for got, want in zip(decode_aer_array(words), (rows, cols, classes, pulses)):
                assert np.array_equal(got, want)

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
        rows, cols = rng.integers(0, 128, size=200), rng.integers(0, 128, size=200)
        classes, pulses = rng.integers(0, 4, size=200), rng.integers(0, 65536, size=200)
        words = encode_aer_array(rows, cols, classes, pulses)
        assert words.tolist() == [assemble_word_bits(*map(int, fields))
                                  for fields in zip(rows, cols, classes, pulses)]

    def test_pulse_index_wraps_modulo(self):
        assert encode_aer_array(0, 0, 0, [65536, 65537]).tolist() == \
            encode_aer_array(0, 0, 0, [0, 1]).tolist()

    @pytest.mark.parametrize("row,col,fc,pulse,name", [
        (128, 0, 0, 0, "row"),
        (-1, 0, 0, 0, "row"),
        (0, 128, 0, 0, "col"),
        (0, 0, 4, 0, "feature_class"),
        (0, 0, 0, -1, "pulse_index"),
    ])
    def test_out_of_range_names_field(self, row, col, fc, pulse, name):
        # one bad field among valid events is enough
        with pytest.raises(ValueError, match=name):
            encode_aer_array([0, row], [0, col], [0, fc], [0, pulse])

    def test_decode_is_total_on_32_bits(self):
        rng = np.random.default_rng(11)
        words = rng.integers(0, 1 << 32, size=500).astype(np.uint32)
        row, col, fc, pulse = decode_aer_array(words)
        assert ((0 <= row) & (row < 128)).all() and ((0 <= col) & (col < 128)).all()
        assert ((0 <= fc) & (fc < 4)).all() and ((0 <= pulse) & (pulse < 65536)).all()
        assert encode_aer_array(row, col, fc, pulse).tolist() == words.tolist()


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

    def test_polarity_count_beyond_the_polarity_field_refused(self):
        # p is a u1 field: a 257th polarity could not be told from the first
        ev = make_events([0], [0], [0], [255])
        assert EventStream(kind=StreamKind.FEATURE, grid_width=4, grid_height=4, events=ev,
                           polarity_count=256).polarity_count == 256
        with pytest.raises(ValueError, match="polarity_count 257 exceeds the 256 values"):
            EventStream(kind=StreamKind.FEATURE, grid_width=4, grid_height=4, events=ev,
                        polarity_count=257)

    def test_stream_canonical_ordering_check(self):
        good = make_events([1, 1, 1, 2], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0])
        assert_canonical(EventStream(kind=StreamKind.OOBU, grid_width=2, grid_height=2,
                                     events=good))
        for bad in (make_events([1, 1], [1, 0], [0, 0], [0, 0]),    # y decreases
                    make_events([1, 1], [0, 0], [1, 0], [0, 0]),    # x decreases
                    make_events([1, 1], [0, 0], [0, 0], [1, 0])):   # p decreases
            with pytest.raises(AssertionError):
                assert_canonical(EventStream(kind=StreamKind.OOBU, grid_width=2,
                                             grid_height=2, events=bad))

    def test_decreasing_times_rejected(self):
        ev = make_events([100, 5, 50, 7], [0, 1, 2, 3], [0, 0, 0, 0], [0, 0, 0, 0])
        with pytest.raises(ValueError, match="event times must not decrease"):
            EventStream(kind=StreamKind.ON_OFF, grid_width=4, grid_height=4, events=ev)

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
        stream = EventStream(kind=StreamKind.ON_OFF, grid_width=8, grid_height=8,
                             events=make_events([100], [4], [3], [1]))
        grid, = replayed_surfaces(stream, 1, 50)
        assert grid[1, 4, 3] == 1 and grid.sum() == 1
        # the active region is the one lit cell
        assert select_regions([stream], sample_every=1, window_us=50).shapes.tolist() == [[1, 1]]

    def test_overwrite_same_cell(self):
        # read at 2150 with a 2000 us window: lit only from the write at 200
        stream = EventStream(kind=StreamKind.ON_OFF, grid_width=8, grid_height=8,
                             events=make_events([100, 200, 2150], [4, 4, 0], [3, 3, 0], [1, 1, 0]))
        grid, = replayed_surfaces(stream, 3, 2000)
        assert grid[1, 4, 3] == 1

    def test_window_boundary_is_strict(self):
        # age exactly equal to the window reads 0
        last_t = np.full((1, 4, 4), NEVER, dtype=np.int64)
        last_t[0, 1, 1] = 100
        assert not surface_lit(last_t, t_now=2100, window_us=2000)[0, 1, 1]
        assert surface_lit(last_t, t_now=2099, window_us=2000)[0, 1, 1]

    def test_never_fired_reads_zero(self):
        last_t = np.full((2, 4, 4), NEVER, dtype=np.int64)
        for t_now, window_us in ((10**12, 10**12), (0, 2**63 - 1)):
            assert not surface_lit(last_t, t_now, window_us).any()

    def test_roi_zero_padding_at_corner(self):
        stream = one_polarity_stream([10, 20], [0, 0], [0, 0], grid=8)
        roi = unpacked_rois(stream, roi_side=5, window_us=100)[1].reshape(1, 5, 5)
        assert roi[0, 2, 2] == 1          # the first event, at patch center
        assert roi[0, :2, :].sum() == 0   # off-grid rows above
        assert roi[0, :, :2].sum() == 0   # off-grid cols left

    def test_roi_all_never_fired(self):
        # an exclusive read of a stream's first event sees a surface nothing has written
        stream = EventStream(kind=StreamKind.OOBU, grid_width=8, grid_height=8,
                             events=make_events([1000], [4], [4], [3]))
        assert unpacked_rois(stream, 5, 1000).sum() == 0

    def test_roi_single_event_at_center(self):
        stream = EventStream(kind=StreamKind.ON_OFF, grid_width=8, grid_height=8,
                             events=make_events([50, 60], [4, 4], [4, 4], [1, 0]))
        roi = unpacked_rois(stream, 5, 100)[1].reshape(2, 5, 5)
        assert roi.sum() == 1
        assert roi[1, 2, 2] == 1

    def test_even_roi_side_rejected(self):
        stream = one_polarity_stream([0], [4], [4], grid=8)
        with pytest.raises(ValueError):
            event_rois(stream, 4, 10)

    def test_readout_is_pure(self):
        last_t = np.full((2, 6, 6), NEVER, dtype=np.int64)
        last_t[0, 3, 2] = 5
        before = last_t.copy()
        surface_lit(last_t, 100, 50)
        assert np.array_equal(last_t, before)
        stream = EventStream(kind=StreamKind.ON_OFF, grid_width=6, grid_height=6,
                             events=make_events([5, 60, 100], [3, 3, 2], [2, 2, 2], [0, 1, 0]))
        events = stream.events.copy()
        first = event_rois(stream, 3, 50)
        assert np.array_equal(stream.events, events)
        assert np.array_equal(event_rois(stream, 3, 50), first)

    def test_update_many_matches_sequential(self):
        # select_regions writes each stretch up to an instant in one
        # assignment; the reference writes one event at a time
        rng = np.random.default_rng(13)
        ev = make_events(np.sort(rng.integers(0, 100, 200)), rng.integers(0, 6, 200),
                         rng.integers(0, 6, 200), rng.integers(0, 2, 200))
        stream = EventStream(kind=StreamKind.ON_OFF, grid_width=6, grid_height=6, events=ev)
        for every in (1, 7, 40):
            reference = ReferenceSurface(2, 6, 6)
            done = 0
            grids = replayed_surfaces(stream, every, 30)
            for idx, grid in zip(range(every - 1, len(ev), every), grids, strict=True):
                reference.write(ev[done:idx + 1])
                done = idx + 1
                assert np.array_equal(grid, reference.binary(int(ev["t"][idx]), 30))
