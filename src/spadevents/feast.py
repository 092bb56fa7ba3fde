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

Training and inference read the same per-event ROIs, which they take as
input: event_rois extracts a stream's exclusive reads once, bit-packed, and
inference derives its inclusive reads from them by lighting each event's
own cell.  Only event_rois reads the time surface's window.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (NEVER, EventStream, FormatError, StreamKind, make_events, read_framed,
                   surface_lit, write_framed)


@dataclass
class FeastParams:
    n_neurons: int
    polarity_count: int
    roi_side: int = 5
    mix_rate: float = 0.001      # weight pull toward the winning ROI
    shrink_step: float = 0.002   # threshold contraction per win
    grow_step: float = 0.004     # threshold widening per network miss
    seed: int = 0

    def __post_init__(self):
        if self.n_neurons < 1 or self.polarity_count < 1:
            raise ValueError("n_neurons and polarity_count must be positive")
        if self.roi_side % 2 != 1 or self.roi_side < 1:
            raise ValueError(f"roi_side must be odd and positive, got {self.roi_side}")
        if not 0.0 < self.mix_rate < 1.0:
            raise ValueError(f"mix_rate must lie strictly in (0, 1), got {self.mix_rate}")
        if not (0 < self.shrink_step < math.inf and 0 < self.grow_step < math.inf):
            raise ValueError(f"shrink_step and grow_step must be positive and finite, got "
                             f"{self.shrink_step} and {self.grow_step}")

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
        # written so that a NaN norm or threshold fails each test
        error = np.abs(np.linalg.norm(self.weights, axis=1) - 1.0).max()
        if not error <= atol:
            raise ValueError(f"weight norms deviate from 1 by up to {error:.3g}")
        if not (self.thresholds.min() >= 0.0 and self.thresholds.max() <= 2.0):
            raise ValueError("thresholds left the [0, 2] cosine-distance range")


@dataclass
class BinaryFeatureSet:
    """Binarized features: each neuron has exactly n_active bits set."""

    bits: np.ndarray             # (N, P*D*D) uint8 in {0, 1}
    n_active: int
    polarity_count: int
    roi_side: int

    def __post_init__(self):
        # inference scores in float32, exact for integer sums below 2**24
        if self.n_active >= 2**24:
            raise ValueError(f"n_active must be below 2**24, got {self.n_active}")
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


def event_rois(stream: EventStream, roi_side: int, window_us: int) -> np.ndarray:
    """Every event's binary ROI, bit-packed: row i of an (E, ceil(P*D*D/8))
    uint8 matrix is np.packbits of event i's ROI flattened in (polarity, row,
    col) order.

    The ROI is the binary time surface at event i's time t, read over the
    roi_side x roi_side window centered on the event; cells off the grid
    read 0.  Cells are lit as surface_lit reads them at t.
    The read is exclusive: the surface holds events 0..i-1.  An inclusive
    read (events 0..i) differs only in event i's own cell, the window's
    center in its polarity, which it always lights.

    The ROIs do not depend on any weights, so they are extracted once, one
    step per run of equal timestamps: the cells lit on the surface before
    the run, OR the run's own cells whose first index in the run precedes
    the event.  The surface is flat, over a (P, H + 2r, W + 2r) grid whose
    halo of r never-fired cells keeps every window on it, so an event's
    window is its flat corner plus one fixed offset vector, already in the
    (polarity, row, col) order of the rows.
    """
    if roi_side % 2 != 1 or roi_side < 1:
        raise ValueError(f"roi_side must be odd and positive, got {roi_side}")
    if window_us <= 0:
        raise ValueError(f"window_us must be positive, got {window_us}")
    ev = stream.events
    n = len(ev)
    r = roi_side // 2
    height, width = stream.grid_height + 2 * r, stream.grid_width + 2 * r
    span = np.arange(roi_side)
    offsets = (np.arange(stream.polarity_count)[:, None, None] * (height * width)
               + span[:, None] * width + span).reshape(-1)
    last = np.full(stream.polarity_count * height * width, NEVER, dtype=np.int64)
    first = np.full(len(last), n, dtype=np.int64)    # n marks "no event in this run"
    ts = ev["t"]
    corners = ev["y"].astype(np.intp) * width + ev["x"]
    cells = corners + ev["p"].astype(np.intp) * (height * width) + (r * width + r)
    starts = np.flatnonzero(np.diff(ts, prepend=ts[:1] - 1))
    out = np.empty((n, len(offsets)), dtype=bool)
    for a, b in zip(starts.tolist(), np.append(starts[1:], n).tolist()):
        run = cells[a:b]
        index = np.arange(a, b)
        np.minimum.at(first, run, index)
        windows = corners[a:b, None] + offsets
        lit = surface_lit(last[windows], int(ts[a]), window_us)
        lit |= first[windows] < index[:, None]
        out[a:b] = lit
        last[run] = ts[a]
        first[run] = n
    return np.packbits(out, axis=1)


def _check_rois(stream: EventStream, rois: np.ndarray, roi_side: int) -> None:
    """Refuse a packed ROI matrix that is not the stream's event_rois shape."""
    width = (stream.polarity_count * roi_side * roi_side + 7) // 8
    if rois.shape != (len(stream), width):
        raise ValueError(f"ROI matrix of shape {rois.shape} does not fit a stream of "
                         f"{len(stream)} events and {width}-byte rows")


# Rows per block when packed ROI rows are unpacked and widened to float, so
# that the wide copies stay small however long the stream is.  With float32
# scoring, 4096-row blocks raised the c8_cells benchmark's peak RSS from 72.0
# to 74.3 MB against 1024-row ones; 512-row blocks saved nothing more.
_BLOCK_ROWS = 1024


def _unit_blocks(rois: np.ndarray, length: int):
    """The nonzero rows of a packed ROI matrix in order, unpacked to length
    and divided by their L2 norm sqrt(popcount), a block of rows at a time."""
    for start in range(0, len(rois), _BLOCK_ROWS):
        block = np.unpackbits(rois[start:start + _BLOCK_ROWS], axis=1, count=length)
        active = block.sum(axis=1)
        lit = np.flatnonzero(active)
        yield block[lit] / np.sqrt(active[lit])[:, None]


def feast_train(stream: Sequence[EventStream], params: FeastParams,
                rois: Sequence[np.ndarray], check_invariants: bool = False,
                features: ContinuousFeatureSet | None = None) -> ContinuousFeatureSet:
    """Single ordered pass over the streams; returns the adapted features.

    Each event's binary ROI is read from a running time surface before the
    event itself is written (an exclusive read: the event predicts its context),
    skipped if all-zero, L2-normalized and matched against all neurons by
    cosine distance.  The surface resets between streams; weights and
    thresholds persist.  Deterministic for a fixed seed and stream order.

    rois holds each stream's event_rois matrix, the one that the feature
    layer's inference also reads.  Passing a feature set continues training
    from it (on a copy) instead of the seeded random initialization.
    """
    if len(rois) != len(stream):
        raise ValueError(f"{len(rois)} ROI matrices for {len(stream)} streams")
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
    keep = 1.0 - mix
    shrink = params.shrink_step
    grow = params.grow_step
    total_events = 0

    for s, packed in zip(stream, rois):
        if s.polarity_count != params.polarity_count:
            raise ValueError(f"stream has {s.polarity_count} polarities, "
                             f"params expect {params.polarity_count}")
        total_events += len(s)
        _check_rois(s, packed, params.roi_side)
        for unit in _unit_blocks(packed, params.weight_length):
            for roi_n, pull in zip(unit, mix * unit):
                dist = 1.0 - weights @ roi_n
                masked = np.where(dist < thresholds, dist, np.inf)
                winner = int(masked.argmin())
                if masked[winner] < np.inf:
                    wins[winner] += 1
                    row = weights[winner]   # mixed and renormalised in place
                    row *= keep
                    row += pull
                    # the Euclidean norm exactly as np.linalg.norm computes it
                    row /= math.sqrt(row.dot(row))
                    thresholds[winner] = max(float(thresholds[winner]) - shrink, 0.0)
                else:
                    np.minimum(thresholds + grow, 2.0, out=thresholds)
                if check_invariants:
                    features.validate()

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
                rois: np.ndarray) -> EventStream:
    """Run the binary features as an event-based convolutional layer.

    Every input event updates the running input surface before the ROI
    read (an inclusive read, so the ROI is never empty), is scored against each neuron
    by popcount(bits AND roi), and is re-emitted at the same location and
    time with the argmax neuron as polarity (ties to the lowest index).
    Emits exactly one feature event per input event.

    The inclusive ROIs are the stream's exclusive event_rois matrix, passed
    in rois, with each event's own cell set.  The popcounts are float32
    matmuls of those rows with the bits, a block of rows at a time: every
    product is 0 or 1 and every score at most n_active < 2**24, so float32
    holds each sum exactly in any order and equal scores stay equal.
    """
    if stream.polarity_count != features.polarity_count:
        raise ValueError(f"stream has {stream.polarity_count} polarities, "
                         f"features expect {features.polarity_count}")
    area = features.roi_side * features.roi_side
    _check_rois(stream, rois, features.roi_side)
    # the window's center in the event's own polarity
    own = stream.events["p"].astype(np.intp) * area + area // 2
    bits = features.bits.T.astype(np.float32)
    out_p = np.empty(len(rois), dtype=np.uint8)
    for start in range(0, len(rois), _BLOCK_ROWS):
        block = np.unpackbits(rois[start:start + _BLOCK_ROWS], axis=1,
                              count=stream.polarity_count * area)
        block[np.arange(len(block)), own[start:start + _BLOCK_ROWS]] = 1
        out_p[start:start + _BLOCK_ROWS] = np.argmax(block.astype(np.float32) @ bits, axis=1)
    ev = stream.events
    events = make_events(ev["t"], ev["y"], ev["x"], out_p)
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
