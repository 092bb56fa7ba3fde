"""Frame-to-event conversion: First-AND, On-Off and OOBU streams.

First-AND replaces per-pixel time-of-flight readout with the inter-pixel
photon arrival *order* inside 4x4 receptive fields.  Four AND gates per RF
(North/South/East/West border bars) each latch once all four of their input
pixels have latched; the gate whose inputs complete first wins the pulse.
On frame data a gate's firing time is the max depth code over its inputs,
and a gate with any no-return input never completes.

A per-RF saturating 3-bit success counter suppresses noise: a repeat of the
stored feature increments it, and the RF emits an event (and resets) when
the counter reaches the success threshold; a different winner decrements,
and on hitting zero the new feature replaces the stored one.

On-Off events threshold the signed depth-code change between consecutive
frames at a single pixel.  OOBU additionally scans the 3x3 neighborhood of
every On/Off event within the same frame pair: an all-one-polarity cluster
above one count threshold yields a uni-polar event, a mixed cluster with
both counts above another yields a bi-polar event.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, replace

import numpy as np

from .core import (AER_MAX_COL, AER_MAX_ROW, AER_TIME_MASK, FormatError,
                   EventStream, Recording, StreamKind, encode_aer_array, decode_aer_array,
                   make_events, read_framed, write_framed)

RF_SIDE = 4


# ---------------------------------------------------------------------------
# First-AND: per-pulse winner and per-RF counter state machine
# ---------------------------------------------------------------------------


@dataclass
class FirstAndParams:
    success_threshold: int = 6                 # counter value that triggers an event
    fifo_capacity_per_pulse: int | None = None  # readout cap; None = unlimited

    def __post_init__(self):
        if not 1 <= self.success_threshold <= 7:
            raise ValueError(f"success_threshold must lie in 1..7, got {self.success_threshold}")
        if self.fifo_capacity_per_pulse is not None and self.fifo_capacity_per_pulse < 0:
            raise ValueError("fifo_capacity_per_pulse must be non-negative")


@dataclass(frozen=True)
class RfState:
    """One receptive field's memory: stored feature id + 3-bit counter."""

    stored_feature: int = 0
    counter: int = 0


def firstand_rf_step(state: RfState, winner: int | None,
                     params: FirstAndParams) -> tuple[RfState, int | None]:
    """Advance one RF by one pulse; returns (new state, emitted feature id).

    No winner is a no-op.  A repeat of the stored feature saturating-
    increments the counter and emits on reaching the threshold (counter
    resets to 0).  A different winner decrements; when the counter bottoms
    out the winner replaces the stored feature with one detection credited.
    """
    if winner is None:
        return state, None
    if winner == state.stored_feature:
        counter = min(state.counter + 1, 7)
        if counter >= params.success_threshold:
            return replace(state, counter=0), state.stored_feature
        return replace(state, counter=counter), None
    counter = max(state.counter - 1, 0)
    if counter == 0:
        return replace(state, stored_feature=winner, counter=1), None
    return replace(state, counter=counter), None


def firstand_winner_maps(frames: np.ndarray) -> np.ndarray:
    """Winner per frame and RF over the stride-1 grid, shape (K, Hr, Wr).

    -1 marks an RF where no gate completes.  Codes shift by -1 in uint16:
    a no-return 0 becomes 65535 and the order of the other codes is kept, so
    a gate's max tap is 65535 exactly when it cannot complete.  N and S are
    the top and bottom rows of one horizontal 4-wide running max, E and W the
    right and left columns of one vertical one.
    """
    frames = np.asarray(frames, dtype=np.uint16)
    _, h, w = frames.shape
    if h < RF_SIDE or w < RF_SIDE:
        raise ValueError(f"frames {h}x{w} smaller than the {RF_SIDE}x{RF_SIDE} receptive field")
    hr, wr = h - RF_SIDE + 1, w - RF_SIDE + 1
    codes = frames - np.uint16(1)
    across = np.maximum(codes[:, :, :wr], codes[:, :, 1:wr + 1])
    down = np.maximum(codes[:, :hr], codes[:, 1:hr + 1])
    for d in range(2, RF_SIDE):
        np.maximum(across, codes[:, :, d:d + wr], out=across)
        np.maximum(down, codes[:, d:d + hr], out=down)
    last = RF_SIDE - 1
    times = (across[:, :hr], across[:, last:], down[:, :, last:], down[:, :, :wr])  # N, S, E, W
    best = times[0].copy()
    winner = np.zeros(best.shape, dtype=np.int8)
    for g in range(1, len(times)):
        earlier = times[g] < best  # strict, so ties keep the lower index
        np.copyto(winner, g, where=earlier)
        np.copyto(best, times[g], where=earlier)
    winner[best == np.iinfo(np.uint16).max] = -1
    return winner


@functools.cache
def _counter_table(success_threshold: int) -> tuple[np.ndarray, np.ndarray]:
    """firstand_rf_step tabulated over 5 * state + winner + 1, with
    state = 8 * stored + counter and winner -1 for none.

    Returns (next, emitted): next holds 5 * next_state + 1, so adding the
    next winner gives the next index; emitted holds the feature id or -1.
    """
    params = FirstAndParams(success_threshold=success_threshold)
    next_index = np.empty(32 * 5, dtype=np.intp)
    emitted = np.empty(32 * 5, dtype=np.int8)
    for stored in range(4):
        for counter in range(8):
            for winner in range(-1, 4):
                new, feature = firstand_rf_step(RfState(stored, counter),
                                                winner if winner >= 0 else None, params)
                i = 5 * (8 * stored + counter) + winner + 1
                next_index[i] = 5 * (8 * new.stored_feature + new.counter) + 1
                emitted[i] = -1 if feature is None else feature
    next_index.flags.writeable = emitted.flags.writeable = False
    return next_index, emitted


def firstand_convert(recording: Recording, params: FirstAndParams | None = None) -> EventStream:
    """Simulate the First-AND circuit over a recording.

    One RF per stride-1 4x4 window (so a HxW frame yields an
    (H-3)x(W-3) RF grid); all RFs step once per laser pulse in row-major
    arbiter order, and events carry t = frame_index * pulse_period with the
    stored feature as polarity.  If a per-pulse FIFO capacity is set, events
    past the cap are dropped in arbiter order.
    """
    params = params if params is not None else FirstAndParams()
    winners = firstand_winner_maps(recording.frames)
    hr, wr = winners.shape[1:]
    next_index, emitted = _counter_table(params.success_threshold)
    index = np.ones(hr * wr, dtype=np.intp)  # 5 * state + 1 at state 0 (stored N, counter 0)
    # the RF state is sequential over pulses; everything else is one pass
    features = np.empty((len(winners), hr * wr), dtype=np.int8)
    for k, winner in enumerate(winners.reshape(len(winners), hr * wr)):
        index += winner
        features[k] = emitted[index]
        index = next_index[index]

    fired = features >= 0
    cap = params.fifo_capacity_per_pulse
    if cap is not None:
        fired &= np.cumsum(fired, axis=1, dtype=np.int32) <= cap
    flat = np.flatnonzero(fired)
    pulses, cells = np.divmod(flat, hr * wr)
    events = make_events(pulses * recording.pulse_period, cells // wr, cells % wr,
                         features.reshape(-1)[flat])
    return EventStream(kind=StreamKind.FIRST_AND, grid_width=wr, grid_height=hr, events=events)


# ---------------------------------------------------------------------------
# On-Off and OOBU conversion
# ---------------------------------------------------------------------------


def _change_events(recording: Recording, change_threshold: int
                   ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
    """Change events of every consecutive frame pair.

    Returns the (on, off) boolean maps, shape (T-1, H, W), the (k, y, x)
    indices of every changed pixel in canonical order, and their polarity
    (0 On, 1 Off) as uint8.
    """
    if recording.n_frames < 2:
        raise ValueError("On-Off conversion needs at least two frames")
    if change_threshold <= 0:
        raise ValueError(f"change_threshold must be positive, got {change_threshold}")
    frames = recording.frames
    diff = np.subtract(frames[1:], frames[:-1], dtype=np.int32)
    on, off = diff >= change_threshold, diff <= -change_threshold
    changed = np.flatnonzero(on | off)  # row-major, so (k, y, x) canonical
    return on, off, np.unravel_index(changed, on.shape), off.ravel()[changed].view(np.uint8)


def onoff_convert(recording: Recording, change_threshold: int = 2) -> EventStream:
    """Threshold per-pixel depth change between consecutive frames.

    Pair (k-1, k) emits at t = k * pulse_period: On (polarity 0) where the
    signed change reaches +threshold, Off (polarity 1) where it reaches
    -threshold.  No-return codes participate as plain zeros, so a target
    appearing over background produces On events and vice versa.
    """
    _, _, (ks, ys, xs), pol = _change_events(recording, change_threshold)
    events = make_events((ks + 1).astype(np.int64) * recording.pulse_period, ys, xs, pol)
    return EventStream(kind=StreamKind.ON_OFF, grid_width=recording.width,
                       grid_height=recording.height, events=events)


def _box3_counts(mask: np.ndarray) -> np.ndarray:
    """3x3 neighborhood counts (inclusive, zero padded), per frame pair."""
    _, h, w = mask.shape
    padded = np.pad(mask.astype(np.int16), ((0, 0), (1, 1), (1, 1)))
    rows = padded[:, :h] + padded[:, 1:h + 1] + padded[:, 2:]
    return rows[:, :, :w] + rows[:, :, 1:w + 1] + rows[:, :, 2:]


def oobu_convert(recording: Recording, change_threshold: int = 2,
                 uni_count_threshold: int = 2, bi_count_threshold: int = 1) -> EventStream:
    """On-Off stream augmented with bi-polar and uni-polar cluster events.

    For every On/Off event, count same-frame-pair On and Off events in the
    3x3 region around it (the event itself included).  Both polarities
    present with both counts strictly above bi_count_threshold appends a
    bi-polar event (polarity 2); a single-polarity region whose count is
    strictly above uni_count_threshold appends a uni-polar event
    (polarity 3).  Appended events share the trigger's pixel and timestamp,
    at most one per pixel and pulse.
    """
    if uni_count_threshold < bi_count_threshold or bi_count_threshold < 0:
        raise ValueError("thresholds must satisfy uni >= bi >= 0")
    on, off, kyx, pol = _change_events(recording, change_threshold)
    c_on = _box3_counts(on)[kyx]
    c_off = _box3_counts(off)[kyx]
    mixed = (c_on > 0) & (c_off > 0)
    bi = mixed & (c_on > bi_count_threshold) & (c_off > bi_count_threshold)
    uni = ~mixed & (np.maximum(c_on, c_off) > uni_count_threshold)

    # Each appended event follows its trigger: same (t, y, x), larger p, so
    # the triggers' canonical order carries over without a sort.
    trigger = np.repeat(np.arange(len(pol)), 1 + (bi | uni))
    appended = np.zeros(len(trigger), dtype=bool)
    appended[1:] = trigger[1:] == trigger[:-1]
    p = np.where(appended, np.where(bi, 2, 3)[trigger], pol[trigger])
    ks, ys, xs = (i[trigger] for i in kyx)
    events = make_events((ks + 1).astype(np.int64) * recording.pulse_period, ys, xs, p)
    return EventStream(kind=StreamKind.OOBU, grid_width=recording.width,
                       grid_height=recording.height, events=events)


# ---------------------------------------------------------------------------
# Polarity-count ratio demo (three-class separability by two thresholds)
# ---------------------------------------------------------------------------


@dataclass
class RatioDemoResult:
    on_off_accuracy: float
    on_off_thresholds: tuple[float, float]
    bi_uni_accuracy: float
    bi_uni_thresholds: tuple[float, float]


def polarity_count_ratio(stream: EventStream, num_polarity: int, den_polarity: int) -> float:
    """count(num) / count(den); an empty denominator maps to +inf."""
    p = stream.events["p"]
    num = int(np.count_nonzero(p == num_polarity))
    den = int(np.count_nonzero(p == den_polarity))
    return num / den if den else float("inf")


def best_two_threshold_split(values, labels) -> tuple[float, tuple[float, float]]:
    """Best training accuracy over all two-threshold partitions of the line.

    Each of the three intervals predicts its majority class.  Returns
    (accuracy, (low, high)) with -inf/+inf for degenerate cuts.
    """
    v = np.asarray(values, dtype=np.float64)
    labs = np.asarray(labels)
    classes, lab_idx = np.unique(labs, return_inverse=True)
    uniq, inv = np.unique(v, return_inverse=True)
    counts = np.zeros((len(uniq), len(classes)), dtype=np.int64)
    np.add.at(counts, (inv, lab_idx), 1)
    prefix = np.vstack([np.zeros((1, len(classes)), dtype=np.int64), np.cumsum(counts, axis=0)])
    # cut i splits below uniq[i]: midpoints, the lower value below an infinite one
    lo, hi = uniq[:-1], uniq[1:]
    cuts = np.concatenate([[-np.inf], np.where(np.isfinite(hi), (lo + hi) / 2.0, lo), [np.inf]])

    n = len(v)
    best_acc, best_cuts = -1.0, (float("-inf"), float("inf"))
    for i in range(len(uniq) + 1):
        # every second cut j >= i at once; argmax keeps the first best j
        acc = (prefix[i].max() + (prefix[i:] - prefix[i]).max(axis=1)
               + (prefix[-1] - prefix[i:]).max(axis=1)) / n
        j = int(np.argmax(acc))
        if acc[j] > best_acc:
            best_acc, best_cuts = float(acc[j]), (float(cuts[i]), float(cuts[i + j]))
    return best_acc, best_cuts


def count_ratio_demo(streams: list[EventStream], labels) -> RatioDemoResult:
    """Three-class separability from event-polarity counts alone.

    Computes per-recording On/Off and Bi/Uni count ratios from OOBU streams
    and grid-searches two thresholds for each ratio type.
    """
    labs = np.asarray(labels)
    if len(streams) != len(labs):
        raise ValueError("one label per stream required")
    if len(np.unique(labs)) != 3:
        raise ValueError(f"ratio demo needs exactly 3 classes, got {len(np.unique(labs))}")
    on_off = [polarity_count_ratio(s, 0, 1) for s in streams]
    bi_uni = [polarity_count_ratio(s, 2, 3) for s in streams]
    acc1, cuts1 = best_two_threshold_split(on_off, labs)
    acc2, cuts2 = best_two_threshold_split(bi_uni, labs)
    return RatioDemoResult(on_off_accuracy=acc1, on_off_thresholds=cuts1,
                           bi_uni_accuracy=acc2, bi_uni_thresholds=cuts2)


# ---------------------------------------------------------------------------
# Data-rate statistics
# ---------------------------------------------------------------------------


@dataclass
class DataRateStats:
    frame_bytes: int
    event_bytes: int
    fold_reduction: float


def datarate_stats(recording: Recording, stream: EventStream) -> DataRateStats:
    """Raw 16-bit frame payload vs 32-bit-word event payload."""
    frame_bytes = recording.n_frames * recording.width * recording.height * 2
    event_bytes = 4 * len(stream)
    return DataRateStats(frame_bytes=frame_bytes, event_bytes=event_bytes,
                         fold_reduction=frame_bytes / max(event_bytes, 1))


# ---------------------------------------------------------------------------
# Event stream files
#
# "SPDEVT01" header (little-endian): magic (8 bytes), u8 kind, u8 pad,
# u16 grid_w, u16 grid_h, u32 event_count, u32 reserved; then event_count
# AER words.  The pad byte holds a FEATURE stream's polarity count (1..4,
# what the 2-bit polarity field can address) and must be 0 for the other
# kinds, whose count follows from the kind; the reserved field must be 0.
# Every word must address a cell of the header's grid and a polarity below
# the stream's count, as every EventStream's events do.  The word's 16-bit
# time field carries t (microseconds) modulo 2^16; the reader unwraps it
# monotonically.  That reconstructs timestamps exactly only if the first
# event lies before t = 65 536 us and consecutive events are less than
# 65 536 us apart, so the writer refuses other streams.
# ---------------------------------------------------------------------------

STREAM_MAGIC = b"SPDEVT01"
_STREAM_HEADER = struct.Struct("<8sBBHHII")


def write_stream(stream: EventStream, path) -> None:
    """Serialize a stream as AER words; grid and polarity must fit the word."""
    ev = stream.events
    if stream.polarity_count > 4:
        raise FormatError(f"{path}: AER words carry a 2-bit polarity; streams with more "
                          f"than 4 polarities cannot be serialized")
    if len(ev):
        if int(ev["y"].max()) > AER_MAX_ROW or int(ev["x"].max()) > AER_MAX_COL:
            raise FormatError(f"{path}: AER words address at most a 128x128 grid")
        gaps = np.diff(ev["t"], prepend=0)
        if gaps.min() < 0 or gaps.max() > AER_TIME_MASK:
            raise FormatError(f"{path}: AER words carry 16-bit timestamps: the first event "
                              f"and every gap between consecutive events must lie in "
                              f"0..65535 us")
    feature = stream.kind == StreamKind.FEATURE
    words = encode_aer_array(ev["y"], ev["x"], ev["p"], ev["t"])
    write_framed(path, _STREAM_HEADER, STREAM_MAGIC,
                 (int(stream.kind), stream.polarity_count if feature else 0,
                  stream.grid_width, stream.grid_height, len(ev), 0),
                 words.astype("<u4"))


def read_stream(path) -> EventStream:
    (kind, pad, grid_w, grid_h, _, reserved), payload = read_framed(
        path, _STREAM_HEADER, STREAM_MAGIC, lambda kind, pad, w, h, count, reserved: 4 * count)
    try:
        kind = StreamKind(kind)
    except ValueError:
        raise FormatError(f"{path}: unknown stream kind {kind}") from None
    if kind == StreamKind.FEATURE and not 1 <= pad <= 4:
        raise FormatError(f"{path}: feature stream polarity count {pad} outside 1..4")
    if kind != StreamKind.FEATURE and pad != 0:
        raise FormatError(f"{path}: pad byte {pad} must be 0 for a {kind.name} stream")
    if reserved != 0:
        raise FormatError(f"{path}: reserved field {reserved} must be 0")
    rows, cols, pols, t_raw = decode_aer_array(np.frombuffer(payload, dtype="<u4"))
    try:
        return EventStream(kind=kind, grid_width=grid_w, grid_height=grid_h,
                           events=make_events(_unwrap_times(t_raw), rows, cols, pols),
                           polarity_count=pad if kind == StreamKind.FEATURE else 0)
    except ValueError as exc:   # an empty grid, or events off it or its polarities
        raise FormatError(f"{path}: {exc}") from None


def _unwrap_times(t_raw: np.ndarray) -> np.ndarray:
    """Undo the 16-bit wrap of a nondecreasing timestamp sequence."""
    wraps = np.cumsum(np.diff(t_raw) < 0)
    t = t_raw.astype(np.int64)
    t[1:] += wraps * (1 << 16)
    return t
