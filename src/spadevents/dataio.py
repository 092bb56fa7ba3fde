"""Recording files, dataset manifests, augmentation and synthetic datasets.

On-disk recording format ("SPDREC01", all integers little-endian):

    offset  size  field
    0       8     magic b"SPDREC01"
    8       2     u16 width
    10      2     u16 height
    12      4     u32 frame_count
    16      4     u32 pulse_period (microseconds)
    20      2     u16 class_id
    22      ...   frame_count * height * width u16 depth codes, row-major

A dataset manifest is a text file with one recording per line:
``path<TAB>class_id<TAB>recording_id``, class_id in [0, MAX_CLASS_ID].
Relative paths resolve against the manifest's directory.  Recording ids name
output files, so each is unique, non-empty, not ``.`` or ``..``, and has no ``/`` or ``\\``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (DEFAULT_PULSE_PERIOD_US, DimensionError, FormatError, Recording,
                   read_framed, write_framed)

RECORDING_MAGIC = b"SPDREC01"
_HEADER = struct.Struct("<8sHHIIH")
MAX_CLASS_ID = 0xFFFF   # the u16 class_id field
MAX_GRID_SIDE = 0xFFFF  # the u16 width and height fields


# ---------------------------------------------------------------------------
# Recording files
# ---------------------------------------------------------------------------


def save_recording(recording: Recording, path) -> None:
    """Write a recording in SPDREC01 format (bit-exact round trip)."""
    write_framed(path, _HEADER, RECORDING_MAGIC,
                 (recording.width, recording.height, recording.n_frames,
                  recording.pulse_period, recording.class_id),
                 np.ascontiguousarray(recording.frames, dtype="<u2"))


def load_recording(path, recording_id: str | None = None) -> Recording:
    """Read a SPDREC01 file; recording_id defaults to the file stem."""
    (width, height, frame_count, pulse_period, class_id), payload = read_framed(
        path, _HEADER, RECORDING_MAGIC, lambda w, h, n, *_: 2 * n * h * w)
    if width < 1 or height < 1:
        raise DimensionError(f"{path}: empty grid {width}x{height}")
    if pulse_period < 1:
        raise DimensionError(f"{path}: pulse_period must be positive")
    frames = np.frombuffer(payload, dtype="<u2").reshape(frame_count, height, width)
    return Recording(frames=frames, pulse_period=pulse_period, class_id=class_id,
                     recording_id=recording_id if recording_id is not None else Path(path).stem)


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    class_id: int
    recording_id: str


def check_recording_id(recording_id: str, seen: set[str]) -> None:
    """Refuse an id that is not a plain file name or is in seen; else add it."""
    if recording_id in ("", ".", "..") or "/" in recording_id or "\\" in recording_id:
        raise ValueError(f"recording id {recording_id!r} is not a plain file name")
    if recording_id in seen:
        raise ValueError(f"recording id {recording_id!r} is repeated")
    seen.add(recording_id)


@dataclass
class DatasetManifest:
    """Index of a dataset on disk: one entry per recording file."""

    entries: list[ManifestEntry]
    n_classes: int

    def __post_init__(self):
        if len({e.path for e in self.entries}) != len(self.entries):
            raise ValueError("manifest paths must be unique")
        seen: set[str] = set()
        for e in self.entries:
            check_recording_id(e.recording_id, seen)
            if not 0 <= e.class_id < self.n_classes:
                raise ValueError(f"entry {e.recording_id}: class_id {e.class_id} not below {self.n_classes}")

    def __len__(self) -> int:
        return len(self.entries)


def save_manifest(manifest: DatasetManifest, path) -> None:
    lines = [f"{e.path}\t{e.class_id}\t{e.recording_id}" for e in manifest.entries]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def load_manifest(path, n_classes: int | None = None) -> DatasetManifest:
    """Read a manifest file; n_classes defaults to max class_id + 1."""
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: undecodable text ({exc.reason} at byte {exc.start})") from None
    entries = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected path<TAB>class_id<TAB>recording_id")
        try:
            class_id = int(parts[1])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: class_id {parts[1]!r} is not an integer") from None
        if class_id < 0 or (n_classes is not None and class_id >= n_classes):
            bound = "negative" if class_id < 0 else f"not below n_classes {n_classes}"
            raise FormatError(f"{path}:{lineno}: class_id {class_id} is {bound}")
        if class_id > MAX_CLASS_ID:
            raise FormatError(f"{path}:{lineno}: class_id {class_id} is above {MAX_CLASS_ID}, "
                              f"the largest a SPDREC01 recording holds")
        try:
            check_recording_id(parts[2], seen)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        entries.append(ManifestEntry(path=parts[0], class_id=class_id, recording_id=parts[2]))
    if not entries:
        raise FormatError(f"{path}: manifest is empty")
    if n_classes is None:
        n_classes = max(e.class_id for e in entries) + 1
    return DatasetManifest(entries=entries, n_classes=n_classes)


def load_manifest_recordings(manifest: DatasetManifest, base_dir) -> list[Recording]:
    base = Path(base_dir)
    return [load_recording(base / e.path, recording_id=e.recording_id) for e in manifest.entries]


# ---------------------------------------------------------------------------
# Augmentation: x8 via the dihedral group (4 rotations x optional mirror)
# ---------------------------------------------------------------------------


def augment(recordings: list[Recording]) -> list[Recording]:
    """All eight mirror/rotation variants of every recording, labels kept:
    n in, 8n out (3000 -> 24000), ids suffixed .r{rot} plus m if mirrored.

    90/270 degree rotations require a square grid so every variant keeps the
    original (width, height).
    """
    out = []
    for rec in recordings:
        if rec.width != rec.height:
            raise ValueError(f"augmentation with 90/270 rotations needs a square grid, "
                             f"got {rec.width}x{rec.height}")
        for rot in (0, 90, 180, 270):
            for mirror in (False, True):
                frames = np.flip(rec.frames, axis=2) if mirror else rec.frames
                frames = np.ascontiguousarray(np.rot90(frames, k=rot // 90, axes=(1, 2)))
                suffix = f"r{rot}" + ("m" if mirror else "")
                out.append(replace(rec, frames=frames, recording_id=f"{rec.recording_id}.{suffix}"))
    return out


# ---------------------------------------------------------------------------
# Synthetic datasets
#
# Stand-in for the drop-capture rig: a static far "distractor" object plus a
# per-class silhouette sweeping across the grid at a nearer depth, degraded
# by false-positive returns, false-negative dropouts and timing jitter.
# ---------------------------------------------------------------------------


# side of the square default_silhouettes masks
DEFAULT_SILHOUETTE_SIDE = 12


@dataclass
class SynthConfig:
    n_classes: int = 5
    recordings_per_class: int = 40
    frames_per_recording: int = 100
    grid_width: int = 32
    grid_height: int = 32
    pulse_period: int = DEFAULT_PULSE_PERIOD_US
    target_shapes: list[np.ndarray] | None = None   # per-class binary masks
    target_depth_code: int = 1500
    target_speed: float = 0.5                       # pixels per frame, top to bottom
    distractor_depth_code: int = 4000
    p_false_positive: float = 0.002                 # per background pixel-pulse
    p_false_negative: float = 0.05                  # per signal pixel-pulse
    timing_jitter_sigma: float = 0.7                # depth-code units
    seed: int = 0

    def __post_init__(self):
        # class ids are stored as the u16 of a SPDREC01 recording
        if not 1 <= self.n_classes <= MAX_CLASS_ID + 1 or self.recordings_per_class < 1:
            raise ValueError(f"n_classes must lie in 1..{MAX_CLASS_ID + 1} and "
                             f"recordings_per_class must be positive, "
                             f"got {self.n_classes} and {self.recordings_per_class}")
        if self.frames_per_recording < 1:
            raise ValueError(f"frames_per_recording must be at least 1, "
                             f"got {self.frames_per_recording}")
        if not 0.0 <= self.target_speed < math.inf:
            raise ValueError(f"target_speed must be non-negative and finite, "
                             f"got {self.target_speed}")
        if not 0.0 <= self.p_false_positive <= 1.0 or not 0.0 <= self.p_false_negative <= 1.0:
            raise ValueError(f"noise probabilities p_false_positive and p_false_negative must "
                             f"lie in [0, 1], got {self.p_false_positive} and "
                             f"{self.p_false_negative}")
        if not 0.0 <= self.timing_jitter_sigma < math.inf:
            raise ValueError(f"timing_jitter_sigma must be non-negative and finite, "
                             f"got {self.timing_jitter_sigma}")
        for name in ("target_depth_code", "distractor_depth_code"):
            if not 1 <= getattr(self, name) <= 65535:   # code 0 means no return
                raise ValueError(f"{name} must lie in 1..65535, got {getattr(self, name)}")
        if not (1 <= self.grid_width <= MAX_GRID_SIDE and 1 <= self.grid_height <= MAX_GRID_SIDE):
            raise ValueError(f"grid sides grid_width and grid_height must lie in "
                             f"1..{MAX_GRID_SIDE}, got {self.grid_width}x{self.grid_height}")
        side = DEFAULT_SILHOUETTE_SIDE
        for sh, sw in ([(side, side)] if self.target_shapes is None
                       else [shape.shape for shape in self.target_shapes]):
            if sh > self.grid_height or sw > self.grid_width:
                raise ValueError(f"silhouette {sh}x{sw} larger than grid_height x grid_width "
                                 f"{self.grid_height}x{self.grid_width}")


def default_silhouettes(n_classes: int, seed: int = 0) -> list[np.ndarray]:
    """Distinct binary masks with equal active-pixel counts.

    Equal areas keep global event counts uninformative about the class, so
    classification has to use spatial structure.  The first five shapes are
    canonical (bars, ring, X, double bar); further classes get random blobs
    of the same area.
    """
    side = DEFAULT_SILHOUETTE_SIDE
    area = 24
    shapes = []

    hbar = np.zeros((side, side), dtype=bool)
    hbar[5:7, :] = True
    shapes.append(hbar)

    vbar = np.zeros((side, side), dtype=bool)
    vbar[:, 5:7] = True
    shapes.append(vbar)

    ring = np.zeros((side, side), dtype=bool)
    ring[3:10, 3:10] = True
    ring[4:9, 4:9] = False
    shapes.append(ring)

    cross = np.zeros((side, side), dtype=bool)
    for i in range(side):
        cross[i, i] = True
        cross[i, side - 1 - i] = True
    shapes.append(cross)

    double = np.zeros((side, side), dtype=bool)
    double[:, 2] = True
    double[:, 9] = True
    shapes.append(double)

    for mask in shapes:
        assert int(mask.sum()) == area

    rng = np.random.default_rng([seed, 0xD1CE])
    while len(shapes) < n_classes:
        mask = np.zeros((side, side), dtype=bool)
        # random connected-ish blob: walk until `area` cells are set
        y, x = side // 2, side // 2
        while mask.sum() < area:
            mask[y, x] = True
            dy, dx = rng.integers(-1, 2, size=2)
            y = int(np.clip(y + dy, 0, side - 1))
            x = int(np.clip(x + dx, 0, side - 1))
        shapes.append(mask)
    return shapes[:n_classes]


def default_distractor(grid_width: int, grid_height: int) -> np.ndarray:
    """Static far object: a solid block parked in the upper-left region."""
    mask = np.zeros((grid_height, grid_width), dtype=bool)
    h = max(2, grid_height // 5)
    w = max(2, grid_width // 5)
    mask[1:1 + h, 1:1 + w] = True
    return mask


def _compose_frame(config: SynthConfig, shape: np.ndarray, pos_y: int, pos_x: int,
                   distractor: np.ndarray) -> np.ndarray:
    """Noiseless composite: static distractor overdrawn by the nearer target."""
    frame = np.zeros((config.grid_height, config.grid_width), dtype=np.int32)
    frame[distractor] = config.distractor_depth_code
    sh, sw = shape.shape
    y0, y1 = max(0, pos_y), min(config.grid_height, pos_y + sh)
    x0, x1 = max(0, pos_x), min(config.grid_width, pos_x + sw)
    if y0 < y1 and x0 < x1:
        sub = shape[y0 - pos_y:y1 - pos_y, x0 - pos_x:x1 - pos_x]
        region = frame[y0:y1, x0:x1]
        region[sub] = config.target_depth_code
    return frame


def _apply_noise(frame: np.ndarray, config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    noisy = frame.astype(np.int32)
    signal = noisy > 0
    if config.p_false_negative > 0:
        drop = signal & (rng.random(noisy.shape) < config.p_false_negative)
        noisy[drop] = 0
    if config.timing_jitter_sigma > 0:
        alive = noisy > 0
        jitter = np.rint(rng.normal(0.0, config.timing_jitter_sigma, size=noisy.shape)).astype(np.int32)
        noisy[alive] = np.clip(noisy[alive] + jitter[alive], 1, 65535)
    if config.p_false_positive > 0:
        background = frame == 0
        flip = background & (rng.random(noisy.shape) < config.p_false_positive)
        noisy[flip] = rng.integers(1, 65536, size=noisy.shape)[flip]
    return noisy.astype(np.uint16)


def synth_recording(config: SynthConfig, class_id: int, rec_index: int,
                    shapes: list[np.ndarray], distractor: np.ndarray) -> Recording:
    """One deterministic synthetic drop; rng derived from (seed, class, index)."""
    rng = np.random.default_rng([config.seed, class_id, rec_index])
    shape = shapes[class_id]
    sh, sw = shape.shape
    lateral = int(rng.integers(0, config.grid_width - sw + 1))
    # start fully above the grid so the target enters, crosses and may exit
    start = -float(sh) + float(rng.uniform(0.0, 2.0))

    frames = np.empty((config.frames_per_recording, config.grid_height, config.grid_width),
                      dtype=np.uint16)
    for k in range(config.frames_per_recording):
        lead = int(np.rint(start + k * config.target_speed))
        clean = _compose_frame(config, shape, lead, lateral, distractor)
        frames[k] = _apply_noise(clean, config, rng)
    return Recording(frames=frames, pulse_period=config.pulse_period, class_id=class_id,
                     recording_id=f"c{class_id:02d}_r{rec_index:04d}")


def synth_generate(config: SynthConfig) -> tuple[DatasetManifest, list[Recording]]:
    """Full synthetic dataset; deterministic given config.seed.

    Manifest paths are the file names a writer would use; pair with
    write_dataset() to put them on disk.
    """
    shapes = config.target_shapes
    if shapes is None:
        shapes = default_silhouettes(config.n_classes, seed=config.seed)
    if len(shapes) < config.n_classes:
        raise ValueError(f"need {config.n_classes} target shapes, got {len(shapes)}")
    keys = {(s.shape, s.tobytes()) for s in shapes[:config.n_classes]}
    if len(keys) != config.n_classes:
        raise ValueError("target shapes must be distinct across classes")
    distractor = default_distractor(config.grid_width, config.grid_height)

    recordings = []
    entries = []
    for class_id in range(config.n_classes):
        for rec_index in range(config.recordings_per_class):
            rec = synth_recording(config, class_id, rec_index, shapes, distractor)
            recordings.append(rec)
            entries.append(ManifestEntry(path=f"{rec.recording_id}.spdrec",
                                         class_id=class_id, recording_id=rec.recording_id))
    return DatasetManifest(entries=entries, n_classes=config.n_classes), recordings


def write_dataset(manifest: DatasetManifest, recordings: list[Recording], out_dir) -> Path:
    """Write recordings + manifest.tsv under out_dir; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for entry, rec in zip(manifest.entries, recordings):
        save_recording(rec, out / entry.path)
    manifest_path = out / "manifest.tsv"
    save_manifest(manifest, manifest_path)
    return manifest_path


def ratio_demo_shapes() -> list[np.ndarray]:
    """Three classes with contrasting edge structure for the count-ratio demo.

    A solid block generates single-polarity edge clusters (uni-heavy), thin
    lines across the motion put On and Off edges inside one 3x3 neighborhood
    (bi-heavy), and a half-and-half hybrid lands in between.  All three
    sweep in and out of view, so On and Off totals stay near parity and the
    On/Off count ratio carries little class information.
    """
    solid = np.ones((10, 10), dtype=bool)

    lines = np.zeros((10, 10), dtype=bool)
    lines[0, :] = lines[3, :] = lines[6, :] = lines[9, :] = True

    hybrid = np.zeros((10, 10), dtype=bool)
    hybrid[0:6, 0:6] = True
    hybrid[8, :] = True
    return [solid, lines, hybrid]


def ratio_demo_synth_config(seed: int = 0) -> SynthConfig:
    """Canned three-class synthetic set for the polarity-count ratio demo."""
    return SynthConfig(n_classes=3, recordings_per_class=30, frames_per_recording=80,
                       target_shapes=ratio_demo_shapes(),
                       target_speed=0.5, seed=seed)


# ---------------------------------------------------------------------------
# Train/test split
# ---------------------------------------------------------------------------


def split_indices(n: int, train_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint, exhaustive train/test recording indices; stable per seed."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must lie strictly between 0 and 1, got {train_fraction}")
    if n == 0:
        raise ValueError("cannot split an empty dataset")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(round(train_fraction * n))
    n_train = min(max(n_train, 1), n - 1) if n > 1 else n
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])
