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
``path<TAB>class_id<TAB>recording_id``.  Relative paths resolve against
the manifest's directory.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (DEFAULT_PULSE_PERIOD_US, DimensionError, FormatError, Recording,
                   read_framed, write_framed)

RECORDING_MAGIC = b"SPDREC01"
_HEADER = struct.Struct("<8sHHIIH")


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


@dataclass
class DatasetManifest:
    """Index of a dataset on disk: one entry per recording file."""

    entries: list[ManifestEntry]
    n_classes: int

    def __post_init__(self):
        paths = [e.path for e in self.entries]
        if len(set(paths)) != len(paths):
            raise ValueError("manifest paths must be unique")
        for e in self.entries:
            if not 0 <= e.class_id < self.n_classes:
                raise ValueError(f"entry {e.recording_id}: class_id {e.class_id} not below {self.n_classes}")

    def __len__(self) -> int:
        return len(self.entries)


def save_manifest(manifest: DatasetManifest, path) -> None:
    lines = [f"{e.path}\t{e.class_id}\t{e.recording_id}" for e in manifest.entries]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def load_manifest(path, n_classes: int | None = None) -> DatasetManifest:
    """Read a manifest file; n_classes defaults to max class_id + 1."""
    entries = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected path<TAB>class_id<TAB>recording_id")
        entries.append(ManifestEntry(path=parts[0], class_id=int(parts[1]), recording_id=parts[2]))
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

AUGMENT_OPS = [(rot, mirror) for rot in (0, 90, 180, 270) for mirror in (False, True)]


def _transform_frames(frames: np.ndarray, rot: int, mirror: bool) -> np.ndarray:
    out = frames
    if mirror:
        out = np.flip(out, axis=2)
    k = rot // 90
    if k:
        out = np.rot90(out, k=k, axes=(1, 2))
    return np.ascontiguousarray(out)


def augment_recording(recording: Recording) -> list[Recording]:
    """All eight mirror/rotation variants of one recording, labels preserved.

    90/270 degree rotations require a square grid so every variant keeps the
    original (width, height).
    """
    if recording.width != recording.height:
        raise ValueError(f"augmentation with 90/270 rotations needs a square grid, "
                         f"got {recording.width}x{recording.height}")
    out = []
    for rot, mirror in AUGMENT_OPS:
        suffix = f"r{rot}" + ("m" if mirror else "")
        out.append(replace(recording,
                           frames=_transform_frames(recording.frames, rot, mirror),
                           recording_id=f"{recording.recording_id}.{suffix}"))
    return out


def augment(recordings: list[Recording]) -> list[Recording]:
    """Mirror-and-rotate every recording: n in, 8n out (3000 -> 24000)."""
    out = []
    for rec in recordings:
        out.extend(augment_recording(rec))
    return out


# ---------------------------------------------------------------------------
# Synthetic datasets
#
# Stand-in for the drop-capture rig: a static far "distractor" object plus a
# per-class silhouette sweeping across the grid at a nearer depth, degraded
# by false-positive returns, false-negative dropouts and timing jitter.
# ---------------------------------------------------------------------------


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
        if not 0.0 <= self.p_false_positive <= 1.0 or not 0.0 <= self.p_false_negative <= 1.0:
            raise ValueError("noise probabilities must lie in [0, 1]")
        if self.timing_jitter_sigma < 0:
            raise ValueError("timing_jitter_sigma must be non-negative")


def default_silhouettes(n_classes: int, seed: int = 0) -> list[np.ndarray]:
    """Distinct binary masks with equal active-pixel counts.

    Equal areas keep global event counts uninformative about the class, so
    classification has to use spatial structure.  The first five shapes are
    canonical (bars, ring, X, double bar); further classes get random blobs
    of the same area.
    """
    side = 12
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
    if sh > config.grid_height or sw > config.grid_width:
        raise ValueError(f"silhouette {sh}x{sw} larger than grid "
                         f"{config.grid_height}x{config.grid_width}")
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
    if config.recordings_per_class < 1 or config.n_classes < 1:
        raise ValueError("n_classes and recordings_per_class must be positive")
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


def write_dataset(manifest: DatasetManifest, recordings: list[Recording], out_dir,
                  manifest_name: str = "manifest.tsv") -> Path:
    """Write recordings + manifest under out_dir; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for entry, rec in zip(manifest.entries, recordings):
        save_recording(rec, out / entry.path)
    manifest_path = out / manifest_name
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


def ratio_demo_synth_config(seed: int = 0, recordings_per_class: int = 30,
                            frames_per_recording: int = 80) -> SynthConfig:
    """Canned three-class synthetic set for the polarity-count ratio demo."""
    return SynthConfig(n_classes=3, recordings_per_class=recordings_per_class,
                       frames_per_recording=frames_per_recording,
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
