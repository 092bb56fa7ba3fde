"""Event-driven feature learning with adaptive selection thresholds.

Competing neurons hold unit-norm weight vectors over the flattened
(polarity, row, col) binary ROI around each event.  The neuron with the
smallest cosine distance to the ROI wins, provided that distance is below
its own selection threshold; the winner mixes its weights toward the ROI
and contracts its threshold, while a network-wide miss widens every
threshold.  The push-pull between contraction and widening balances win
rates across neurons, so the trained set covers the most common local
spatio-temporal patterns in the stream.

After training, each neuron's largest weights are set to 1 (the same count
per neuron, keeping AND/popcount matching unbiased) and the binary set runs
as an event-based convolutional layer: every input event is re-emitted with
the best-matching neuron index as its polarity.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (NEVER, EventStream, FormatError, StreamKind, make_events, read_framed,
                   write_framed)


@dataclass
class FeastParams:
    n_neurons: int
    polarity_count: int
    roi_side: int = 5
    window_us: int = 2000
    mix_rate: float = 0.001      # weight pull toward the winning ROI
    shrink_step: float = 0.002   # threshold contraction per win
    grow_step: float = 0.004     # threshold widening per network miss
    seed: int = 0

    def __post_init__(self):
        if self.n_neurons < 1 or self.polarity_count < 1:
            raise ValueError("n_neurons and polarity_count must be positive")
        if self.roi_side % 2 != 1 or self.roi_side < 1:
            raise ValueError(f"roi_side must be odd, got {self.roi_side}")
        if not 0.0 < self.mix_rate < 1.0:
            raise ValueError(f"mix_rate must lie strictly in (0, 1), got {self.mix_rate}")
        if not (0 < self.shrink_step < math.inf and 0 < self.grow_step < math.inf):
            raise ValueError(f"shrink_step and grow_step must be positive and finite, got "
                             f"{self.shrink_step} and {self.grow_step}")
        if self.window_us <= 0:
            raise ValueError("window_us must be positive")

    @property
    def weight_length(self) -> int:
        return self.polarity_count * self.roi_side * self.roi_side


@dataclass
class ContinuousFeatureSet:
    """Unit-norm continuous weights plus per-neuron selection thresholds."""

    weights: np.ndarray          # (N, P*D*D), rows unit Euclidean norm
    thresholds: np.ndarray       # (N,), cosine-distance space [0, 2]
    polarity_count: int
    roi_side: int
    win_counts: np.ndarray | None = None  # training diagnostic

    @property
    def n_neurons(self) -> int:
        return self.weights.shape[0]

    def validate(self, atol: float = 1e-9) -> None:
        norms = np.linalg.norm(self.weights, axis=1)
        if not np.allclose(norms, 1.0, atol=atol):
            raise ValueError(f"weight norms deviate from 1 by up to {np.abs(norms - 1).max():.3g}")
        if self.thresholds.min() < 0.0 or self.thresholds.max() > 2.0:
            raise ValueError("thresholds left the [0, 2] cosine-distance range")


@dataclass
class BinaryFeatureSet:
    """Binarized features: each neuron has exactly n_active bits set."""

    bits: np.ndarray             # (N, P*D*D) uint8 in {0, 1}
    n_active: int
    polarity_count: int
    roi_side: int

    def __post_init__(self):
        pops = self.bits.sum(axis=1)
        if not np.all(pops == self.n_active):
            raise ValueError(f"every neuron must have exactly {self.n_active} active bits, "
                             f"got counts {np.unique(pops)}")

    @property
    def n_neurons(self) -> int:
        return self.bits.shape[0]


def initial_features(params: FeastParams) -> ContinuousFeatureSet:
    """Seeded uniform-random unit weight vectors, thresholds at 1."""
    rng = np.random.default_rng(params.seed)
    weights = rng.random((params.n_neurons, params.weight_length))
    weights /= np.linalg.norm(weights, axis=1, keepdims=True)
    return ContinuousFeatureSet(weights=weights,
                                thresholds=np.ones(params.n_neurons),
                                polarity_count=params.polarity_count,
                                roi_side=params.roi_side,
                                win_counts=np.zeros(params.n_neurons, dtype=np.int64))


def event_rois(stream: EventStream, roi_side: int, window_us: int,
               inclusive: bool) -> np.ndarray:
    """Every event's binary ROI as one row of an (E, P*D*D) uint8 matrix.

    Row i is the binary time surface at event i's time t, read over the
    roi_side x roi_side window centered on the event and flattened in
    (polarity, row, col) order; cells off the grid read 0.  A cell is lit
    when its last event is younger than window_us.  The surface holds events
    0..i for an inclusive read and 0..i-1 for an exclusive one.

    The ROIs do not depend on any weights, so they are extracted once, one
    step per run of equal timestamps: the cells lit on the surface before
    the run, OR the run's own cells whose first index in the run precedes
    the event (or is the event, for an inclusive read).
    """
    if roi_side % 2 != 1 or roi_side < 1:
        raise ValueError(f"roi_side must be odd and positive, got {roi_side}")
    if window_us <= 0:
        raise ValueError(f"window_us must be positive, got {window_us}")
    ev = stream.events
    n = len(ev)
    r = roi_side // 2
    # a halo of r never-fired cells turns every window into a plain slice
    shape = (stream.polarity_count, stream.grid_height + 2 * r, stream.grid_width + 2 * r)
    last = np.full(shape, NEVER, dtype=np.int64)
    first = np.full(shape, n, dtype=np.int64)    # n marks "no event in this run"
    last_windows = sliding_window_view(last, (roi_side, roi_side), axis=(1, 2))
    first_windows = sliding_window_view(first, (roi_side, roi_side), axis=(1, 2))
    ts = ev["t"]
    ys = ev["y"].astype(np.intp)
    xs = ev["x"].astype(np.intp)
    ps = ev["p"].astype(np.intp)
    starts = np.flatnonzero(np.diff(ts, prepend=ts[:1] - 1))
    out = np.empty((n, len(last) * roi_side * roi_side), dtype=np.uint8)
    for a, b in zip(starts, np.append(starts[1:], n)):
        t = int(ts[a])
        y, x = ys[a:b], xs[a:b]
        cells = (ps[a:b], y + r, x + r)
        index = np.arange(a, b)
        np.minimum.at(first, cells, index)
        # age < window  <=>  last > t - window; NEVER itself is never lit
        lit = last_windows[:, y, x] > max(t - window_us, NEVER)
        lit |= first_windows[:, y, x] < (index + inclusive)[:, None, None]
        out[a:b] = lit.transpose(1, 0, 2, 3).reshape(b - a, -1)
        last[cells] = t
        first[cells] = n
    return out


# Rows per block when ROI rows are widened to float64 or int64, so that the
# wide copies stay a few MB however long the stream is.
_BLOCK_ROWS = 4096


def _unit_rows(rois: np.ndarray):
    """The nonzero ROI rows in order, each divided by its L2 norm sqrt(popcount)."""
    active = rois.sum(axis=1)
    lit = np.flatnonzero(active)
    for start in range(0, len(lit), _BLOCK_ROWS):
        block = lit[start:start + _BLOCK_ROWS]
        yield from rois[block] / np.sqrt(active[block])[:, None]


def _as_stream_list(stream) -> list[EventStream]:
    if isinstance(stream, EventStream):
        return [stream]
    return list(stream)


def feast_train(stream: EventStream | Iterable[EventStream], params: FeastParams,
                check_invariants: bool = False,
                features: ContinuousFeatureSet | None = None) -> ContinuousFeatureSet:
    """Single ordered pass over the stream(s); returns the adapted features.

    Each event's binary ROI is read from a running time surface before the
    event itself is written (an exclusive read: the event predicts its context),
    skipped if all-zero, L2-normalized and matched against all neurons by
    cosine distance.  The surface resets between streams; weights and
    thresholds persist.  Deterministic for a fixed seed and stream order.
    A stream's ROIs come from event_rois before its sequential updates.

    Passing a feature set continues training from it (on a copy) instead of
    the seeded random initialization.
    """
    streams = _as_stream_list(stream)
    if features is None:
        features = initial_features(params)
    else:
        features = ContinuousFeatureSet(
            weights=features.weights.astype(np.float64).copy(),
            thresholds=features.thresholds.astype(np.float64).copy(),
            polarity_count=features.polarity_count, roi_side=features.roi_side,
            win_counts=np.zeros(features.weights.shape[0], dtype=np.int64))
    weights = features.weights
    thresholds = features.thresholds
    wins = features.win_counts
    mix = params.mix_rate
    shrink = params.shrink_step
    grow = params.grow_step
    total_events = 0

    for s in streams:
        if s.polarity_count != params.polarity_count:
            raise ValueError(f"stream has {s.polarity_count} polarities, "
                             f"params expect {params.polarity_count}")
        total_events += len(s)
        rois = event_rois(s, params.roi_side, params.window_us, inclusive=False)
        for roi_n in _unit_rows(rois):
            dist = 1.0 - weights @ roi_n
            masked = np.where(dist < thresholds, dist, np.inf)
            winner = int(masked.argmin())
            if masked[winner] < np.inf:
                wins[winner] += 1
                mixed = (1.0 - mix) * weights[winner] + mix * roi_n
                # the Euclidean norm exactly as np.linalg.norm computes it
                weights[winner] = mixed / np.sqrt(mixed.dot(mixed))
                thresholds[winner] = max(thresholds[winner] - shrink, 0.0)
            else:
                np.minimum(thresholds + grow, 2.0, out=thresholds)
            if check_invariants:
                norms = np.linalg.norm(weights, axis=1)
                assert np.abs(norms - 1.0).max() <= 1e-9, "weight norm drifted"
                assert thresholds.min() >= 0.0 and thresholds.max() <= 2.0, "threshold out of range"

    if total_events == 0:
        warnings.warn("feast_train saw no events; returning the initial random features",
                      stacklevel=2)
    return features


def binarize(features: ContinuousFeatureSet, n_active: int) -> BinaryFeatureSet:
    """Set the n_active largest-magnitude weights of each neuron to 1.

    Ties at the cut are broken toward the lowest flat index, so all-equal
    weights binarize to the first n_active positions.
    """
    n, length = features.weights.shape
    if not 1 <= n_active <= length:
        raise ValueError(f"n_active must lie in 1..{length}, got {n_active}")
    order = np.argsort(-np.abs(features.weights), axis=1, kind="stable")
    bits = np.zeros((n, length), dtype=np.uint8)
    rows = np.repeat(np.arange(n), n_active)
    bits[rows, order[:, :n_active].reshape(-1)] = 1
    return BinaryFeatureSet(bits=bits, n_active=n_active,
                            polarity_count=features.polarity_count,
                            roi_side=features.roi_side)


def feast_infer(stream: EventStream, features: BinaryFeatureSet,
                window_us: int = 2000) -> EventStream:
    """Run the binary features as an event-based convolutional layer.

    Every input event updates the running input surface before the ROI
    read (an inclusive read, so the ROI is never empty), is scored against each neuron
    by popcount(bits AND roi), and is re-emitted at the same location and
    time with the argmax neuron as polarity (ties to the lowest index).
    Emits exactly one feature event per input event.  The popcounts are
    int64 matmuls of the event_rois matrix with the bits, a block of rows
    at a time.
    """
    if stream.polarity_count != features.polarity_count:
        raise ValueError(f"stream has {stream.polarity_count} polarities, "
                         f"features expect {features.polarity_count}")
    rois = event_rois(stream, features.roi_side, window_us, inclusive=True)
    bits = features.bits.T.astype(np.int64)
    out_p = np.empty(len(rois), dtype=np.uint8)
    for start in range(0, len(rois), _BLOCK_ROWS):
        block = rois[start:start + _BLOCK_ROWS].astype(np.int64)
        out_p[start:start + _BLOCK_ROWS] = np.argmax(block @ bits, axis=1)
    ev = stream.events
    events = make_events(ev["t"].copy(), ev["y"].copy(), ev["x"].copy(), out_p)
    return EventStream(kind=StreamKind.FEATURE, grid_width=stream.grid_width,
                       grid_height=stream.grid_height, events=events,
                       polarity_count=features.n_neurons)


# ---------------------------------------------------------------------------
# Feature set files
#
# "SPDFEA01" header (little-endian): magic (8 bytes), u16 n_neurons,
# u16 polarity_count, u16 roi_side, u16 n_active.  n_active = 0 marks a
# continuous set whose payload is n_neurons * P * D^2 finite float32
# weights; n_active > 0 marks a binary set stored as n_neurons rows of
# ceil(P * D^2 / 8) bytes, LSB-first, each with exactly n_active bits set
# and its spare bits 0.  n_neurons and P * D^2 are positive and D is odd.
# Selection thresholds are a training artifact and are not persisted.
# ---------------------------------------------------------------------------

FEATURE_MAGIC = b"SPDFEA01"
_FEATURE_HEADER = struct.Struct("<8sHHHH")


def save_features(features: ContinuousFeatureSet | BinaryFeatureSet, path) -> None:
    if isinstance(features, ContinuousFeatureSet):
        n_active = 0
        payload = features.weights.astype("<f4")
    else:
        n_active = features.n_active
        payload = np.packbits(features.bits, axis=1, bitorder="little")
    write_framed(path, _FEATURE_HEADER, FEATURE_MAGIC,
                 (features.n_neurons, features.polarity_count, features.roi_side, n_active),
                 payload)


def _feature_payload_size(n: int, polarity_count: int, roi_side: int, n_active: int) -> int:
    length = polarity_count * roi_side * roi_side
    return n * (4 * length if n_active == 0 else (length + 7) // 8)


def load_features(path) -> ContinuousFeatureSet | BinaryFeatureSet:
    (n, polarity_count, roi_side, n_active), payload = read_framed(
        path, _FEATURE_HEADER, FEATURE_MAGIC, _feature_payload_size)
    length = polarity_count * roi_side * roi_side
    if n == 0 or length == 0:
        raise FormatError(f"{path}: empty feature set ({n} neurons of length {length})")
    if roi_side % 2 != 1:
        raise FormatError(f"{path}: roi_side {roi_side} must be odd")
    if n_active > length:
        raise FormatError(f"{path}: n_active {n_active} exceeds the row length {length}")
    if n_active == 0:
        weights = np.frombuffer(payload, dtype="<f4").reshape(n, length)
        if not np.isfinite(weights).all():
            raise FormatError(f"{path}: weights must be finite")
        return ContinuousFeatureSet(weights=weights.astype(np.float64), thresholds=np.ones(n),
                                    polarity_count=polarity_count, roi_side=roi_side)
    packed = np.frombuffer(payload, dtype=np.uint8).reshape(n, -1)
    bits = np.unpackbits(packed, axis=1, bitorder="little")
    if bits[:, length:].any():
        raise FormatError(f"{path}: bits set past the row length {length}")
    bits = bits[:, :length]
    if (bits.sum(axis=1) != n_active).any():
        raise FormatError(f"{path}: every row must have exactly {n_active} bits set")
    return BinaryFeatureSet(bits=bits, n_active=n_active,
                            polarity_count=polarity_count, roi_side=roi_side)
