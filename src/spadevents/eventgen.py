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

import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (AER_TIME_MASK, EVENT_DTYPE, FormatError, EventStream, Recording,
                   StreamKind, encode_aer_array, decode_aer_array, make_events)
from .dataio import BadMagicError, TruncatedError

RF_SIDE = 4
GATE_NAMES = ("N", "S", "E", "W")

# Sentinel firing time for gates that never complete; beats any u16 code.
_NEVER_FIRES = 1 << 20


# ---------------------------------------------------------------------------
# Gate geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateBank:
    """AND-gate connectivity inside one receptive field.

    offsets[g] lists the (dy, dx) pixel taps of gate g relative to the RF
    origin.  Gate index doubles as the event polarity and as the arbiter
    priority (lower index wins simultaneous completions).
    """

    rf_side: int
    offsets: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        sizes = {len(taps) for taps in self.offsets}
        if len(sizes) != 1:
            raise ValueError("all gates must tap the same number of pixels")
        for taps in self.offsets:
            for dy, dx in taps:
                if not (0 <= dy < self.rf_side and 0 <= dx < self.rf_side):
                    raise ValueError(f"gate tap ({dy}, {dx}) outside the {self.rf_side}x{self.rf_side} field")

    @property
    def n_gates(self) -> int:
        return len(self.offsets)


def border_gate_bank(rf_side: int = RF_SIDE) -> GateBank:
    """The implemented bank: N=top row, S=bottom row, E=right col, W=left col."""
    last = rf_side - 1
    return GateBank(rf_side=rf_side, offsets=(
        tuple((0, dx) for dx in range(rf_side)),     # N
        tuple((last, dx) for dx in range(rf_side)),  # S
        tuple((dy, last) for dy in range(rf_side)),  # E
        tuple((dy, 0) for dy in range(rf_side)),     # W
    ))


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
    position: tuple[int, int] = (0, 0)  # (rf_row, rf_col)


def firstand_pulse_winner(frame_codes: np.ndarray, rf_origin: tuple[int, int],
                          gates: GateBank) -> int | None:
    """Winning gate of one RF for one pulse, or None if no gate completes.

    A gate completes iff all its taps saw a return (code > 0); its firing
    time is the max tap code.  Earliest completion wins; ties go to the
    lowest gate index (N > S > E > W priority).
    """
    r0, c0 = rf_origin
    h, w = frame_codes.shape
    if r0 < 0 or c0 < 0 or r0 + gates.rf_side > h or c0 + gates.rf_side > w:
        raise ValueError(f"receptive field at {rf_origin} does not fit the frame")
    best_gate, best_time = None, None
    for g, taps in enumerate(gates.offsets):
        codes = [int(frame_codes[r0 + dy, c0 + dx]) for dy, dx in taps]
        if min(codes) == 0:
            continue
        t_fire = max(codes)
        if best_time is None or t_fire < best_time:
            best_gate, best_time = g, t_fire
    return best_gate


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


def _gate_maps(frame_codes: np.ndarray, gates: GateBank) -> np.ndarray:
    """Firing-time maps over the stride-1 RF grid, shape (n_gates, Hr, Wr).

    Incomplete gates read the never-fires sentinel.
    """
    h, w = frame_codes.shape
    hr, wr = h - gates.rf_side + 1, w - gates.rf_side + 1
    times = np.empty((gates.n_gates, hr, wr), dtype=np.int32)
    for g, taps in enumerate(gates.offsets):
        stack = np.stack([frame_codes[dy:dy + hr, dx:dx + wr] for dy, dx in taps]).astype(np.int32)
        t_fire = stack.max(axis=0)
        t_fire[(stack == 0).any(axis=0)] = _NEVER_FIRES
        times[g] = t_fire
    return times


def firstand_winner_map(frame_codes: np.ndarray, gates: GateBank) -> np.ndarray:
    """Winner per RF over the stride-1 grid; -1 where no gate completes."""
    times = _gate_maps(frame_codes, gates)
    winner = np.argmin(times, axis=0).astype(np.int8)      # first min = priority order
    winner[times.min(axis=0) >= _NEVER_FIRES] = -1
    return winner


def firstand_convert(recording: Recording, gates: GateBank | None = None,
                     params: FirstAndParams | None = None) -> EventStream:
    """Simulate the First-AND circuit over a recording.

    One RF per stride-1 4x4 window (so a HxW frame yields an
    (H-3)x(W-3) RF grid); all RFs step once per laser pulse in row-major
    arbiter order, and events carry t = frame_index * pulse_period with the
    stored feature as polarity.  If a per-pulse FIFO capacity is set, events
    past the cap are dropped in arbiter order.
    """
    gates = gates if gates is not None else border_gate_bank()
    params = params if params is not None else FirstAndParams()
    if recording.height < gates.rf_side or recording.width < gates.rf_side:
        raise ValueError(f"frames {recording.height}x{recording.width} smaller than the "
                         f"{gates.rf_side}x{gates.rf_side} receptive field")
    hr = recording.height - gates.rf_side + 1
    wr = recording.width - gates.rf_side + 1
    stored = np.zeros((hr, wr), dtype=np.int8)
    counter = np.zeros((hr, wr), dtype=np.int8)
    phi = params.success_threshold
    cap = params.fifo_capacity_per_pulse

    chunks = []
    for k in range(recording.n_frames):
        winner = firstand_winner_map(recording.frames[k], gates)
        active = winner >= 0
        same = active & (winner == stored)
        diff = active & ~same

        counter[same] = np.minimum(counter[same] + 1, 7)
        emit = same & (counter >= phi)
        counter[emit] = 0

        counter[diff] = np.maximum(counter[diff] - 1, 0)
        take_over = diff & (counter == 0)
        stored[take_over] = winner[take_over]
        counter[take_over] = 1

        ys, xs = np.nonzero(emit)
        if len(ys) == 0:
            continue
        if cap is not None and len(ys) > cap:
            ys, xs = ys[:cap], xs[:cap]
        chunks.append(make_events(np.full(len(ys), k * recording.pulse_period, dtype=np.int64),
                                  ys, xs, stored[ys, xs]))

    events = np.concatenate(chunks) if chunks else np.empty(0, dtype=EVENT_DTYPE)
    return EventStream(kind=StreamKind.FIRST_AND, grid_width=wr, grid_height=hr, events=events)


def firstand_convert_reference(recording: Recording, gates: GateBank | None = None,
                               params: FirstAndParams | None = None) -> EventStream:
    """Step-by-step scalar simulator built on the per-RF operations.

    Exists as an independent cross-check for the vectorized converter; the
    two must agree event for event.
    """
    gates = gates if gates is not None else border_gate_bank()
    params = params if params is not None else FirstAndParams()
    hr = recording.height - gates.rf_side + 1
    wr = recording.width - gates.rf_side + 1
    states = {(r, c): RfState(position=(r, c)) for r in range(hr) for c in range(wr)}
    rows, cols, pols, times = [], [], [], []
    for k in range(recording.n_frames):
        frame = recording.frames[k]
        emitted = 0
        for r in range(hr):
            for c in range(wr):
                winner = firstand_pulse_winner(frame, (r, c), gates)
                states[(r, c)], feature = firstand_rf_step(states[(r, c)], winner, params)
                if feature is None:
                    continue
                emitted += 1
                if params.fifo_capacity_per_pulse is not None and emitted > params.fifo_capacity_per_pulse:
                    continue
                rows.append(r)
                cols.append(c)
                pols.append(feature)
                times.append(k * recording.pulse_period)
    events = make_events(np.array(times, dtype=np.int64), rows, cols, pols) if rows \
        else np.empty(0, dtype=EVENT_DTYPE)
    return EventStream(kind=StreamKind.FIRST_AND, grid_width=wr, grid_height=hr, events=events)


# ---------------------------------------------------------------------------
# On-Off and OOBU conversion
# ---------------------------------------------------------------------------


def _frame_diffs(recording: Recording, change_threshold: int, on_is_increase: bool
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(on, off) boolean maps per consecutive frame pair, shape (T-1, H, W)."""
    if recording.n_frames < 2:
        raise ValueError("On-Off conversion needs at least two frames")
    if change_threshold <= 0:
        raise ValueError(f"change_threshold must be positive, got {change_threshold}")
    codes = recording.frames.astype(np.int32)
    diff = codes[1:] - codes[:-1]
    if not on_is_increase:
        diff = -diff
    return diff >= change_threshold, diff <= -change_threshold


def onoff_convert(recording: Recording, change_threshold: int = 2,
                  on_is_increase: bool = True) -> EventStream:
    """Threshold per-pixel depth change between consecutive frames.

    Pair (k-1, k) emits at t = k * pulse_period: On (polarity 0) where the
    signed change reaches +threshold, Off (polarity 1) where it reaches
    -threshold.  No-return codes participate as plain zeros, so a target
    appearing over background produces On events and vice versa.
    """
    on, off = _frame_diffs(recording, change_threshold, on_is_increase)
    ks, ys, xs = np.nonzero(on | off)
    pol = np.where(on[ks, ys, xs], 0, 1).astype(np.uint8)
    events = make_events((ks + 1).astype(np.int64) * recording.pulse_period, ys, xs, pol)
    return EventStream(kind=StreamKind.ON_OFF, grid_width=recording.width,
                       grid_height=recording.height, events=events)


def _box3_counts(mask: np.ndarray) -> np.ndarray:
    """3x3 neighborhood counts (inclusive, zero padded), per frame pair."""
    k, h, w = mask.shape
    padded = np.pad(mask.astype(np.int16), ((0, 0), (1, 1), (1, 1)))
    out = np.zeros((k, h, w), dtype=np.int16)
    for dy in range(3):
        for dx in range(3):
            out += padded[:, dy:dy + h, dx:dx + w]
    return out


def oobu_convert(recording: Recording, change_threshold: int = 2,
                 uni_count_threshold: int = 2, bi_count_threshold: int = 1,
                 on_is_increase: bool = True) -> EventStream:
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
    on, off = _frame_diffs(recording, change_threshold, on_is_increase)
    c_on = _box3_counts(on)
    c_off = _box3_counts(off)
    trigger = on | off

    both = (c_on > 0) & (c_off > 0)
    bi = trigger & both & (c_on > bi_count_threshold) & (c_off > bi_count_threshold)
    uni = trigger & ~both & (np.maximum(c_on, c_off) > uni_count_threshold)

    ks, ys, xs = np.nonzero(trigger)
    pol = np.where(on[ks, ys, xs], 0, 1).astype(np.uint8)
    aks, ays, axs = np.nonzero(bi | uni)
    apol = np.where(bi[aks, ays, axs], 2, 3).astype(np.uint8)

    t_all = np.concatenate([(ks + 1).astype(np.int64), (aks + 1).astype(np.int64)]) * recording.pulse_period
    y_all = np.concatenate([ys, ays])
    x_all = np.concatenate([xs, axs])
    p_all = np.concatenate([pol, apol])
    order = np.lexsort((p_all, x_all, y_all, t_all))
    events = make_events(t_all[order], y_all[order], x_all[order], p_all[order])
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

    def cut_value(i: int) -> float:
        if i == 0:
            return float("-inf")
        if i == len(uniq):
            return float("inf")
        lo, hi = uniq[i - 1], uniq[i]
        return float(lo) if not np.isfinite(hi) else float((lo + hi) / 2.0)

    n = len(v)
    best_acc, best_cuts = -1.0, (float("-inf"), float("inf"))
    for i in range(len(uniq) + 1):
        for j in range(i, len(uniq) + 1):
            seg1 = prefix[i] - prefix[0]
            seg2 = prefix[j] - prefix[i]
            seg3 = prefix[-1] - prefix[j]
            acc = (seg1.max() + seg2.max() + seg3.max()) / n
            if acc > best_acc:
                best_acc, best_cuts = float(acc), (cut_value(i), cut_value(j))
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
# what the 2-bit polarity field can address) and is 0 for the other kinds,
# whose count follows from the kind.  The word's 16-bit time field carries
# t (microseconds) modulo 2^16; the reader unwraps it monotonically.  That
# reconstructs timestamps exactly only if the first event lies before
# t = 65 536 us and consecutive events are less than 65 536 us apart, so the
# writer refuses other streams.
# ---------------------------------------------------------------------------

STREAM_MAGIC = b"SPDEVT01"
_STREAM_HEADER = struct.Struct("<8sBBHHII")


def write_stream(stream: EventStream, path) -> None:
    """Serialize a stream as AER words; grid and polarity must fit the word."""
    ev = stream.events
    if stream.polarity_count > 4:
        raise FormatError("AER words carry a 2-bit polarity; streams with more than "
                          "4 polarities cannot be serialized")
    if len(ev):
        if int(ev["y"].max()) > 127 or int(ev["x"].max()) > 127:
            raise FormatError("AER words address at most a 128x128 grid")
        gaps = np.diff(ev["t"], prepend=0)
        if gaps.min() < 0 or gaps.max() > AER_TIME_MASK:
            raise FormatError("AER words carry 16-bit timestamps: the first event and every "
                              "gap between consecutive events must lie in 0..65535 us")
    feature = stream.kind == StreamKind.FEATURE
    header = _STREAM_HEADER.pack(STREAM_MAGIC, int(stream.kind),
                                 stream.polarity_count if feature else 0,
                                 stream.grid_width, stream.grid_height, len(ev), 0)
    words = encode_aer_array(ev["y"], ev["x"], ev["p"], ev["t"])
    Path(path).write_bytes(header + words.astype("<u4").tobytes())


def read_stream(path) -> EventStream:
    raw = Path(path).read_bytes()
    if len(raw) < _STREAM_HEADER.size:
        raise TruncatedError(f"{path}: file shorter than the SPDEVT01 header")
    magic, kind, pad, grid_w, grid_h, count, _ = _STREAM_HEADER.unpack_from(raw)
    if magic != STREAM_MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}")
    kind = StreamKind(kind)
    if kind == StreamKind.FEATURE and not 1 <= pad <= 4:
        raise FormatError(f"{path}: feature stream polarity count {pad} outside 1..4")
    expected = _STREAM_HEADER.size + 4 * count
    if len(raw) < expected:
        raise TruncatedError(f"{path}: {len(raw)} bytes, header promises {expected}")
    words = np.frombuffer(raw, dtype="<u4", count=count, offset=_STREAM_HEADER.size)
    rows, cols, pols, t_raw = decode_aer_array(words)
    t = _unwrap_times(t_raw)
    events = make_events(t, rows, cols, pols)
    return EventStream(kind=kind, grid_width=grid_w, grid_height=grid_h,
                       events=events, polarity_count=pad if kind == StreamKind.FEATURE else 0)


def _unwrap_times(t_raw: np.ndarray) -> np.ndarray:
    """Undo the 16-bit wrap of a nondecreasing timestamp sequence."""
    if len(t_raw) == 0:
        return t_raw.astype(np.int64)
    wraps = np.cumsum(np.diff(t_raw) < 0)
    t = t_raw.astype(np.int64)
    t[1:] += wraps * (1 << 16)
    return t
