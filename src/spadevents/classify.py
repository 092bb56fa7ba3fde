"""Target-region selection, pooling, ridge classifier and evaluation metrics.

The classifier input for one sample is built by summing the binary surface
over polarities, bounding the active region via thresholded row/column
marginals, then mapping the variable-sized region to a fixed-length vector
with either 1D pooling (row+column marginals resampled by zero-order hold)
or 2D pooling (bilinear resize).  Channels are pooled separately and
concatenated, so polarity information reaches the linear readout.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .dataio import split_indices

DEFAULT_ACTIVITY_FRACTION = 0.1
DEFAULT_RIDGE_LAMBDA = 0.1
POOL_METHODS = ("1d", "2d")


@dataclass(frozen=True)
class Region:
    """Half-open rectangle [y0, y1) x [x0, x1) on a grid."""

    x0: int
    y0: int
    x1: int
    y1: int

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    def crop(self, grid: np.ndarray) -> np.ndarray:
        """Crop the trailing two axes of (…, H, W) data."""
        return grid[..., self.y0:self.y1, self.x0:self.x1]


@dataclass
class PoolConfig:
    method: str = "2d"   # one of POOL_METHODS
    size: int = 12       # resample target L

    def __post_init__(self):
        if self.method not in POOL_METHODS:
            raise ValueError(f"pool method must be one of {POOL_METHODS}, got {self.method!r}")
        if self.size < 1:
            raise ValueError(f"pool size must be positive, got {self.size}")

    def vector_length(self, channels: int) -> int:
        return channels * (2 * self.size if self.method == "1d" else self.size * self.size)


def region_from_activity(activity: np.ndarray,
                         activity_fraction: float = DEFAULT_ACTIVITY_FRACTION) -> Region:
    """Bounding box of rows/columns whose marginal clears a fraction of its max.

    An all-zero activity map falls back to the full grid (every marginal
    trivially clears a zero threshold).
    """
    rows = activity.sum(axis=1)
    cols = activity.sum(axis=0)
    row_ok = np.nonzero(rows >= activity_fraction * rows.max())[0]
    col_ok = np.nonzero(cols >= activity_fraction * cols.max())[0]
    return Region(x0=int(col_ok[0]), y0=int(row_ok[0]),
                  x1=int(col_ok[-1]) + 1, y1=int(row_ok[-1]) + 1)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


def zoh_indices(length: int, target: int) -> np.ndarray:
    """Zero-order-hold resample map: source index floor(i * length / target).

    This is the precalculated lookup table form; target > length repeats
    source entries (sample-and-hold upsampling).
    """
    return (np.arange(target, dtype=np.int64) * length) // target


# pool_1d and pool_2d take (..., C, Ay, Ax) regions: any leading axes batch
# regions of one shape into rows of the result.
def _check_regions(values: np.ndarray) -> None:
    if values.ndim < 3 or values.shape[-2] < 1 or values.shape[-1] < 1:
        raise ValueError(f"pooling needs (..., channels, rows, cols) with a non-empty region, "
                         f"got shape {values.shape}")


def pool_1d(values: np.ndarray, size: int) -> np.ndarray:
    """Row+column marginal pooling: per channel [resampled column sums,
    resampled row sums], channels concatenated.  values is (..., C, Ay, Ax)."""
    _check_regions(values)
    col_sums = values.sum(axis=-2, dtype=np.float64)   # (..., C, Ax)
    row_sums = values.sum(axis=-1, dtype=np.float64)   # (..., C, Ay)
    vx = col_sums[..., zoh_indices(values.shape[-1], size)]
    vy = row_sums[..., zoh_indices(values.shape[-2], size)]
    return np.concatenate([vx, vy], axis=-1).reshape(*values.shape[:-3], -1)


def _bilinear_coords(length: int, target: int) -> np.ndarray:
    """Corner-aligned sample coordinates; a single sample takes the center."""
    if target == 1:
        return np.array([(length - 1) / 2.0])
    return np.arange(target, dtype=np.float64) * (length - 1) / (target - 1)


def pool_2d(values: np.ndarray, size: int) -> np.ndarray:
    """Bilinear resize of each channel to size x size, flattened row-major
    and concatenated across channels.  values is (..., C, Ay, Ax)."""
    _check_regions(values)
    ay, ax = values.shape[-2:]
    uy = _bilinear_coords(ay, size)
    ux = _bilinear_coords(ax, size)
    y0 = np.floor(uy).astype(np.int64)
    x0 = np.floor(ux).astype(np.int64)
    fy = (uy - y0)[:, None]
    fx = ux - x0
    # each row interpolated along x first, so rows[y0] and rows[y1] are the
    # top and bottom edges of every bilinear cell; corners are taken in the
    # input dtype and widened by the arithmetic
    rows = (values.take(x0, axis=-1) * (1 - fx)
            + values.take(np.minimum(x0 + 1, ax - 1), axis=-1) * fx)
    out = (rows.take(y0, axis=-2) * (1 - fy)
           + rows.take(np.minimum(y0 + 1, ay - 1), axis=-2) * fy)
    return out.reshape(*values.shape[:-3], -1)


def pool(values: np.ndarray, config: PoolConfig) -> np.ndarray:
    if config.method == "1d":
        return pool_1d(values, config.size)
    return pool_2d(values, config.size)


# ---------------------------------------------------------------------------
# Sampling cadence
# ---------------------------------------------------------------------------


def frame_sample_times(n_frames: int, pulse_period: int, every: int) -> np.ndarray:
    """Classification instants for frame data: t = every * pulse_period * k."""
    if n_frames < 1 or every < 1:
        return np.empty(0, dtype=np.int64)
    count = n_frames // every
    return (np.arange(1, count + 1, dtype=np.int64) * every * pulse_period)


def event_sample_indices(n_events: int, every: int) -> np.ndarray:
    """Indices of every `every`-th event (0-based: every-1, 2*every-1, ...)."""
    if every < 1:
        raise ValueError(f"sampling interval must be positive, got {every}")
    return np.arange(every - 1, n_events, every, dtype=np.int64)


# ---------------------------------------------------------------------------
# Ridge-regression linear classifier
# ---------------------------------------------------------------------------


@dataclass
class ClassifierWeights:
    matrix: np.ndarray      # (n_classes, n_inputs)
    ridge_lambda: float


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), n_classes), dtype=np.float64)
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _finite_pair(inputs, targets) -> tuple[np.ndarray, np.ndarray]:
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if not np.isfinite(inputs).all() or not np.isfinite(targets).all():
        raise ValueError("classifier inputs and targets must be finite")
    return inputs, targets


class RidgeAccumulator:
    """Streaming normal-equation accumulator for the ridge solution.

    Chunks may arrive in any order; the final solve matches the single-pass
    product to floating-point accumulation error.
    """

    def __init__(self, n_inputs: int, n_classes: int, ridge_lambda: float = DEFAULT_RIDGE_LAMBDA):
        self.n_inputs = n_inputs
        self.n_classes = n_classes
        self.ridge_lambda = ridge_lambda
        self.gram = np.zeros((n_inputs, n_inputs), dtype=np.float64)
        self.cross = np.zeros((n_inputs, n_classes), dtype=np.float64)
        self.n_samples = 0

    def add(self, inputs: np.ndarray, targets: np.ndarray) -> None:
        inputs, targets = _finite_pair(inputs, targets)
        self.gram += inputs.T @ inputs
        self.cross += inputs.T @ targets
        self.n_samples += inputs.shape[0]

    def solve(self) -> ClassifierWeights:
        if self.n_samples == 0:
            raise ValueError("no samples accumulated")
        reg = self.gram.copy()
        reg[np.diag_indices(self.n_inputs)] += self.ridge_lambda
        weights = np.linalg.solve(reg, self.cross).T
        return ClassifierWeights(matrix=weights, ridge_lambda=self.ridge_lambda)


def train_classifier(inputs: np.ndarray, targets: np.ndarray,
                     ridge_lambda: float = DEFAULT_RIDGE_LAMBDA) -> ClassifierWeights:
    """Ridge solution W = (UᵀV)ᵀ (UᵀU + λI)⁻¹ for one-hot targets V.

    With n samples of m inputs, the solve runs in the smaller space: the
    primal m x m system above when n >= m, else the equal dual form
    W = Aᵀ U with A = (UUᵀ + λI_n)⁻¹ V, which never holds an m x m array.
    λ must be finite and non-negative.  Deterministic and repeatable; the
    output maps an input vector to class scores via W @ u.
    """
    if not (np.isfinite(ridge_lambda) and ridge_lambda >= 0):
        raise ValueError(f"ridge_lambda must be finite and non-negative, got {ridge_lambda}")
    n_samples, n_inputs = inputs.shape
    if n_samples >= n_inputs:
        acc = RidgeAccumulator(n_inputs, targets.shape[1], ridge_lambda)
        acc.add(inputs, targets)
        return acc.solve()
    if n_samples == 0:
        raise ValueError("no samples accumulated")
    inputs, targets = _finite_pair(inputs, targets)
    kernel = inputs @ inputs.T
    kernel[np.diag_indices(n_samples)] += ridge_lambda
    dual = np.linalg.solve(kernel, targets)
    return ClassifierWeights(matrix=dual.T @ inputs, ridge_lambda=ridge_lambda)


def predict_batch(weights: ClassifierWeights, inputs: np.ndarray) -> np.ndarray:
    """Row-wise argmax of W @ u; scores tie toward the lowest class index."""
    if inputs.shape[1] != weights.matrix.shape[1]:
        raise ValueError(f"input length {inputs.shape[1]} does not match classifier "
                         f"width {weights.matrix.shape[1]}")
    return np.argmax(inputs @ weights.matrix.T, axis=1)


def recording_vote(sample_classes: np.ndarray, n_classes: int) -> int:
    """Modal per-sample class; ties and empty inputs go to the lowest index."""
    if len(sample_classes) == 0:
        return 0
    return int(np.argmax(np.bincount(sample_classes, minlength=n_classes)))


# ---------------------------------------------------------------------------
# Evaluation over randomized recording-level splits
# ---------------------------------------------------------------------------


@dataclass
class SampleSet:
    """Per-sample classifier inputs tagged with their source recording."""

    features: np.ndarray          # (o, m)
    labels: np.ndarray            # (o,)
    recording_index: np.ndarray   # (o,)
    recording_labels: np.ndarray  # (n_recordings,)

    @property
    def n_recordings(self) -> int:
        return len(self.recording_labels)

    def samples_per_recording(self) -> np.ndarray:
        return np.bincount(self.recording_index, minlength=self.n_recordings)


@dataclass
class TrialResult:
    seed: int
    per_frame_accuracy: float
    per_recording_accuracy: float


TRIAL_COLUMNS = ["trial", "seed", "per_frame_acc", "per_recording_acc"]


@dataclass
class EvalReport:
    """One cell's result: its trials, in order (a trial's index is its
    position), and the totals over them.  The accuracy summaries are
    derived from the trials, so a report joined from several is consistent."""

    trials: list[TrialResult]
    confusion: np.ndarray               # per-sample over all trials, rows = true class
    samples_per_recording_mean: float
    samples_per_recording_std: float
    n_no_sample_recordings: int         # test recordings without samples, over all trials
    extra: dict = field(default_factory=dict)

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def per_frame_mean(self) -> float:
        return float(np.mean([t.per_frame_accuracy for t in self.trials]))

    @property
    def per_frame_std(self) -> float:
        return float(np.std([t.per_frame_accuracy for t in self.trials]))

    @property
    def per_recording_mean(self) -> float:
        return float(np.mean([t.per_recording_accuracy for t in self.trials]))

    @property
    def per_recording_std(self) -> float:
        return float(np.std([t.per_recording_accuracy for t in self.trials]))

    def to_dict(self) -> dict:
        return {
            "per_frame": {"mean": self.per_frame_mean, "std": self.per_frame_std},
            "per_recording": {"mean": self.per_recording_mean, "std": self.per_recording_std},
            "n_trials": self.n_trials,
            "trials": [{"trial": i, **asdict(t)} for i, t in enumerate(self.trials)],
            "confusion": self.confusion.tolist(),
            "samples_per_recording": {"mean": self.samples_per_recording_mean,
                                      "std": self.samples_per_recording_std},
            "n_no_sample_recordings": self.n_no_sample_recordings,
            "extra": self.extra,
        }

    def write_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    def trial_rows(self) -> list[list]:
        """One CSV row per trial, in TRIAL_COLUMNS order."""
        return [[i, t.seed, f"{t.per_frame_accuracy:.6f}", f"{t.per_recording_accuracy:.6f}"]
                for i, t in enumerate(self.trials)]


def evaluate_samples(samples: SampleSet, n_classes: int, seeds: list[int],
                     ridge_lambda: float = DEFAULT_RIDGE_LAMBDA,
                     train_fraction: float = 0.9) -> EvalReport:
    """Train/test the linear readout over randomized recording-level splits.

    The sample features are fixed across trials, so accuracy variance comes
    exclusively from the random splits.  Test recordings that produced no
    samples are scored as class 0 and counted; the count and the per-sample
    confusion matrix sum over all trials.  Labels must lie in [0, n_classes).
    """
    labels = samples.recording_labels
    if len(labels) and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"class labels must lie in [0, n_classes) with n_classes = "
                         f"{n_classes}, got {labels.min()}..{labels.max()}")
    trials = []
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    n_no_sample = 0
    rec_of_sample = samples.recording_index

    for seed in seeds:
        train_recs, test_recs = split_indices(samples.n_recordings, train_fraction, seed)
        train_mask = np.isin(rec_of_sample, train_recs)
        test_mask = np.isin(rec_of_sample, test_recs)
        weights = train_classifier(samples.features[train_mask],
                                   one_hot(samples.labels[train_mask], n_classes),
                                   ridge_lambda)
        pred = predict_batch(weights, samples.features[test_mask])
        truth = samples.labels[test_mask]
        frame_acc = float(np.mean(pred == truth)) if len(truth) else 0.0

        rec_ids = rec_of_sample[test_mask]
        votes = np.zeros(len(test_recs), dtype=np.int64)
        for j, rec in enumerate(test_recs):
            cls = pred[rec_ids == rec]
            if len(cls) == 0:
                n_no_sample += 1
            votes[j] = recording_vote(cls, n_classes)
        rec_truth = samples.recording_labels[test_recs]
        rec_acc = float(np.mean(votes == rec_truth))

        trials.append(TrialResult(seed=int(seed), per_frame_accuracy=frame_acc,
                                  per_recording_accuracy=rec_acc))
        np.add.at(confusion, (truth, pred), 1)

    spr = samples.samples_per_recording()
    return EvalReport(
        trials=trials,
        confusion=confusion,
        samples_per_recording_mean=float(spr.mean()) if len(spr) else 0.0,
        samples_per_recording_std=float(spr.std()) if len(spr) else 0.0,
        n_no_sample_recordings=n_no_sample,
    )
