"""Shared domain types: depth recordings, event streams, time surfaces, AER words.

Timestamps are integer microseconds counted from the start of a recording.
A depth frame is the grid of 16-bit time-of-flight codes produced by one
laser pulse; frame k therefore sits at t = k * pulse_period.  Code 0 is
reserved for "no photon detected this pulse".
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

# Laser pulsed at 100 kHz -> 10 us between depth frames.
DEFAULT_PULSE_PERIOD_US = 10

# last-event timestamp for cells that have never fired: below any real time,
# and surface_lit reads it as unlit however wide the window.
NEVER = -(1 << 62)

# Packed event record: time in microseconds, grid location, polarity.
# Canonical stream order sorts by (t, y, x, p).
EVENT_DTYPE = np.dtype([("t", "<i8"), ("y", "<u2"), ("x", "<u2"), ("p", "<u1")])
# polarities a stream can hold in the u1 p field
POLARITY_LIMIT = 256


class FormatError(ValueError):
    """A serialized artifact is malformed (magic, truncation, field range)."""


class BadMagicError(FormatError):
    """File does not start with the expected magic bytes."""


class TruncatedError(FormatError):
    """File ends before the payload promised by its header."""


class DimensionError(FormatError):
    """A header field does not fit its on-disk width or is inconsistent."""


# ---------------------------------------------------------------------------
# Framed files
#
# Every on-disk format is one frame: a fixed little-endian header whose first
# field is an 8-byte magic, then a payload whose size the header fixes.  A
# file holds exactly one frame, so a short file and trailing bytes are both
# refused.  Each format's loader checks only its own header fields.
# ---------------------------------------------------------------------------


def write_framed(path, header: struct.Struct, magic: bytes, fields: tuple, payload) -> None:
    """Write the magic and the header fields packed by header, then the payload."""
    try:
        packed = header.pack(magic, *fields)
    except struct.error as exc:
        raise DimensionError(f"{path}: a header field does not fit its on-disk width "
                             f"({exc})") from None
    with open(path, "wb") as fh:
        fh.write(packed)
        fh.write(payload)


def read_framed(path, header: struct.Struct, magic: bytes,
                payload_size) -> tuple[tuple, bytearray]:
    """The header fields after the magic, and the payload.

    payload_size(*fields) gives the payload's byte count, which is checked
    against the file size before any of the payload is read.
    """
    name = magic.decode()
    with open(path, "rb") as fh:
        raw = fh.read(header.size)
        if len(raw) < header.size:
            raise TruncatedError(f"{path}: file shorter than the {name} header")
        found, *fields = header.unpack(raw)
        if found != magic:
            raise BadMagicError(f"{path}: bad magic {found!r}, expected {magic!r}")
        expected = payload_size(*fields)
        available = os.fstat(fh.fileno()).st_size - header.size
        if available < expected:
            raise TruncatedError(f"{path}: payload holds {available} bytes, "
                                 f"header promises {expected}")
        if available > expected:
            raise FormatError(f"{path}: {available - expected} bytes follow the "
                              f"{expected}-byte {name} payload")
        payload = bytearray(expected)
        if fh.readinto(payload) != expected:
            raise TruncatedError(f"{path}: file shrank while being read")
    return tuple(fields), payload


class StreamKind(IntEnum):
    """Event stream flavors and their polarity conventions.

    FIRST_AND: 0=N 1=S 2=E 3=W gate identities, on the receptive-field grid.
    ON_OFF:    0=On (depth code increased) 1=Off (decreased).
    OOBU:      On/Off as above plus 2=Bi-polar, 3=Uni-polar cluster events.
    FEATURE:   one polarity per feature-extractor neuron, on the pixel grid.
    """

    FIRST_AND = 0
    ON_OFF = 1
    OOBU = 2
    FEATURE = 3


# FEATURE streams carry an explicit per-stream polarity count instead.
KIND_POLARITIES = {
    StreamKind.FIRST_AND: 4,
    StreamKind.ON_OFF: 2,
    StreamKind.OOBU: 4,
}


@dataclass
class Recording:
    """A stack of depth frames from consecutive laser pulses.

    frames has shape (n_frames, height, width), dtype uint16.  All frames
    share one grid; pulse_period is the microsecond spacing between them.
    """

    frames: np.ndarray
    pulse_period: int = DEFAULT_PULSE_PERIOD_US
    class_id: int = 0
    recording_id: str = ""

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.uint16)
        if frames.ndim != 3:
            raise ValueError(f"frames must be (n_frames, height, width), got shape {frames.shape}")
        if frames.shape[1] < 1 or frames.shape[2] < 1:
            raise ValueError(f"frame grid must be non-empty, got shape {frames.shape}")
        if self.pulse_period <= 0:
            raise ValueError(f"pulse_period must be positive, got {self.pulse_period}")
        if self.class_id < 0:
            raise ValueError(f"class_id must be non-negative, got {self.class_id}")
        self.frames = frames

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        return self.frames.shape[2]


@dataclass
class EventStream:
    """Time-sorted events on a fixed grid.

    events is a structured array with fields t, y, x, p.  Canonical order is
    nondecreasing t with ties broken row-major (y, then x), then polarity,
    so identical inputs always serialize identically.  Construction refuses
    events whose times decrease, events off the grid or at or above the
    polarity count, and polarity counts above POLARITY_LIMIT.
    """

    kind: StreamKind
    grid_width: int
    grid_height: int
    events: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=EVENT_DTYPE))
    polarity_count: int = 0

    def __post_init__(self):
        if self.grid_width < 1 or self.grid_height < 1:
            raise ValueError(f"empty grid {self.grid_width}x{self.grid_height}")
        if self.events.dtype != EVENT_DTYPE:
            raise ValueError(f"events must use EVENT_DTYPE, got {self.events.dtype}")
        if self.polarity_count == 0:
            self.polarity_count = KIND_POLARITIES.get(self.kind, 0)
        if self.polarity_count < 1:
            raise ValueError("polarity_count must be set for FEATURE streams")
        if self.polarity_count > POLARITY_LIMIT:
            raise ValueError(f"polarity_count {self.polarity_count} exceeds the "
                             f"{POLARITY_LIMIT} values of the u1 event polarity")
        ev = self.events
        if len(ev) and (ev["x"].max() >= self.grid_width or ev["y"].max() >= self.grid_height
                        or ev["p"].max() >= self.polarity_count):
            raise ValueError(f"events fall outside the {self.grid_width}x{self.grid_height} "
                             f"grid or its {self.polarity_count} polarities")
        if (ev["t"][1:] < ev["t"][:-1]).any():
            raise ValueError("event times must not decrease")

    def __len__(self) -> int:
        return len(self.events)


def make_events(t, y, x, p) -> np.ndarray:
    """Pack parallel coordinate arrays into an EVENT_DTYPE record array."""
    t = np.asarray(t)
    out = np.empty(len(t), dtype=EVENT_DTYPE)
    out["t"] = t
    out["y"] = y
    out["x"] = x
    out["p"] = p
    return out


# ---------------------------------------------------------------------------
# AER word codec
#
# 32-bit readout word: [31:25] row, [24:18] column, [17:16] feature class
# (0=N 1=S 2=E 3=W), [15:0] timestamp code.  The timestamp code is a
# free-running 16-bit counter, i.e. the word carries time modulo 2^16.
# Serialized little-endian.
# ---------------------------------------------------------------------------

AER_ROW_SHIFT = 25
AER_COL_SHIFT = 18
AER_CLASS_SHIFT = 16
AER_TIME_MASK = 0xFFFF
AER_MAX_ROW = 127
AER_MAX_COL = 127
AER_MAX_CLASS = 3


def encode_aer_array(rows, cols, classes, pulses) -> np.ndarray:
    """Pack events into uint32 AER words.  A row, column or class outside its
    field, or a negative pulse, raises ValueError; pulses wrap modulo 2^16."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    classes = np.asarray(classes, dtype=np.int64)
    pulses = np.asarray(pulses, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() > AER_MAX_ROW):
        raise ValueError(f"row out of range 0..{AER_MAX_ROW}")
    if cols.size and (cols.min() < 0 or cols.max() > AER_MAX_COL):
        raise ValueError(f"col out of range 0..{AER_MAX_COL}")
    if classes.size and (classes.min() < 0 or classes.max() > AER_MAX_CLASS):
        raise ValueError(f"feature_class out of range 0..{AER_MAX_CLASS}")
    if pulses.size and pulses.min() < 0:
        raise ValueError("pulse_index must be non-negative")
    words = ((rows << AER_ROW_SHIFT) | (cols << AER_COL_SHIFT)
             | (classes << AER_CLASS_SHIFT) | (pulses & AER_TIME_MASK))
    return words.astype(np.uint32)


def decode_aer_array(words) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unpack uint32 AER words into int64 (rows, cols, classes, pulses)."""
    w = np.asarray(words, dtype=np.uint32).astype(np.int64)
    return (w >> AER_ROW_SHIFT, (w >> AER_COL_SHIFT) & AER_MAX_COL,
            (w >> AER_CLASS_SHIFT) & AER_MAX_CLASS, w & AER_TIME_MASK)


# ---------------------------------------------------------------------------
# Time surface
# ---------------------------------------------------------------------------


def surface_lit(last_t: np.ndarray, t_now: int, window_us: int) -> np.ndarray:
    """The binary time surface at t_now, as bools, from last-event times
    (NEVER where a cell has not fired).  A cell is lit if it has fired and
    its age t_now - last_t is strictly below window_us."""
    # age < window  <=>  last_t > t_now - window; NEVER itself is never lit
    return last_t > max(t_now - window_us, NEVER)
