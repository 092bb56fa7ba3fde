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


def region_from_activity(activity: np.ndarray, activity_fraction: float = DEFAULT_ACTIVITY_FRACTION
                         ) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, cols) bounds of each map of an (n, H, W) activity stack:
    (n, 2) arrays of [start, stop) around the rows/columns whose marginal
    clears a fraction of its max.

    An all-zero activity map falls back to the full grid (every marginal
    trivially clears a zero threshold).
    """
    bounds = []
    for marginals in (activity.sum(axis=2), activity.sum(axis=1)):
        ok = marginals >= activity_fraction * marginals.max(axis=1, keepdims=True)
        bounds.append(np.stack([ok.argmax(axis=1), ok.shape[1] - ok[:, ::-1].argmax(axis=1)],
                               axis=1))
    return bounds[0], bounds[1]


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


def zoh_indices(length, target: int) -> np.ndarray:
    """Zero-order-hold resample map: source index floor(i * length / target).

    This is the precalculated lookup table form; target > length repeats
    source entries (sample-and-hold upsampling).  An (n, 1) array of lengths
    gives one map per row.
    """
    return (np.arange(target, dtype=np.int64) * length) // target


def _bilinear_coords(length, target: int) -> np.ndarray:
    """Corner-aligned sample coordinates, one row per (n, 1) length; a single
    sample takes the center."""
    if target == 1:
        return (length - 1) / 2.0
    return np.arange(target, dtype=np.float64) * (length - 1) / (target - 1)


# The two pooling kernels take regions of any shape, one per row: sample
# building pools every instant's region at once.
def zoh_pool_rows(col_sums: np.ndarray, row_sums: np.ndarray, shapes: np.ndarray,
                  size: int) -> np.ndarray:
    """1D pooling of n regions from their marginals: per channel [resampled
    column sums, resampled row sums], channels concatenated.  Region i has
    shape (Ay, Ax) = shapes[i]; its sums lead rows i of the (n, C, >= Ax)
    col_sums and (n, C, >= Ay) row_sums."""
    shapes = shapes.astype(np.int64)
    halves = [np.take_along_axis(sums, zoh_indices(shapes[:, [axis]], size)[:, None], axis=2)
              for sums, axis in ((col_sums, 1), (row_sums, 0))]
    return np.concatenate(halves, axis=2).reshape(len(shapes), 2 * size * col_sums.shape[1])


def bilinear_pool_rows(values: np.ndarray, starts: np.ndarray, shapes: np.ndarray,
                       channels: int, size: int) -> np.ndarray:
    """2D pooling of n regions: bilinear resize of each channel to size x
    size, flattened row-major and concatenated across channels.  Region i
    has shape (channels, Ay, Ax) = (channels, *shapes[i]) and lies
    row-major in the flat values from starts[i]."""
    ay, ax = shapes.astype(np.int64).T[:, :, None]
    uy = _bilinear_coords(ay, size)
    ux = _bilinear_coords(ax, size)
    y0 = np.floor(uy).astype(np.int64)
    x0 = np.floor(ux).astype(np.int64)
    fy = (uy - y0)[:, None, :, None]
    fx = (ux - x0)[:, None, None, :]
    # flat index of each channel's origin, then of the rows and columns that
    # bound every bilinear cell
    origin = (starts[:, None] + np.arange(channels) * (ay * ax))[:, :, None, None]
    top = origin + (y0 * ax)[:, None, :, None]
    bottom = origin + (np.minimum(y0 + 1, ay - 1) * ax)[:, None, :, None]
    left = x0[:, None, None, :]
    right = np.minimum(x0 + 1, ax - 1)[:, None, None, :]
    # interpolated along x first, then y; corners are taken in the input
    # dtype and widened by the arithmetic
    upper = values[top + left] * (1 - fx) + values[top + right] * fx
    lower = values[bottom + left] * (1 - fx) + values[bottom + right] * fx
    return (upper * (1 - fy) + lower * fy).reshape(len(shapes), channels * size * size)


# ---------------------------------------------------------------------------
# Ridge-regression linear classifier
# ---------------------------------------------------------------------------


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

    def solve(self) -> np.ndarray:
        if self.n_samples == 0:
            raise ValueError("no samples accumulated")
        reg = self.gram.copy()
        reg[np.diag_indices(self.n_inputs)] += self.ridge_lambda
        return np.linalg.solve(reg, self.cross).T


def train_classifier(inputs: np.ndarray, targets: np.ndarray,
                     ridge_lambda: float = DEFAULT_RIDGE_LAMBDA) -> np.ndarray:
    """Ridge solution W = (UᵀV)ᵀ (UᵀU + λI)⁻¹ for one-hot targets V.

    With n samples of m inputs, the solve runs in the smaller space: the
    primal m x m system above when n >= m, else the equal dual form
    W = Aᵀ U with A = (UUᵀ + λI_n)⁻¹ V, which never holds an m x m array.
    λ must be finite and non-negative.  Deterministic and repeatable; the
    (n_classes, n_inputs) matrix W maps an input vector to class scores W @ u.
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
    return dual.T @ inputs


def predict_batch(weights: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Row-wise argmax of W @ u; scores tie toward the lowest class index."""
    if inputs.shape[1] != weights.shape[1]:
        raise ValueError(f"input length {inputs.shape[1]} does not match classifier "
                         f"width {weights.shape[1]}")
    return np.argmax(inputs @ weights.T, axis=1)


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
        if not len(test_recs):
            raise ValueError(f"trial seed {seed}: its test split holds none of the "
                             f"{samples.n_recordings} recordings")
        in_train = np.zeros(samples.n_recordings, dtype=bool)
        in_train[train_recs] = True
        train_mask = in_train[rec_of_sample]
        if not train_mask.any():
            raise ValueError(f"trial seed {seed}: its training split holds 0 of the "
                             f"{len(rec_of_sample)} samples")
        test_mask = ~train_mask   # the split is disjoint and exhaustive
        try:
            weights = train_classifier(samples.features[train_mask],
                                       one_hot(samples.labels[train_mask], n_classes),
                                       ridge_lambda)
        except np.linalg.LinAlgError:
            raise ValueError(f"trial seed {seed}: the ridge system of "
                             f"{np.count_nonzero(train_mask)} samples and "
                             f"{samples.features.shape[1]} features is singular at "
                             f"ridge_lambda = {ridge_lambda}") from None
        pred = predict_batch(weights, samples.features[test_mask])
        truth = samples.labels[test_mask]
        frame_acc = float(np.mean(pred == truth)) if len(truth) else 0.0

        # each test recording votes its samples' modal predicted class: argmax
        # takes the lowest of tied classes, and class 0 for a row of zeros
        counts = np.zeros((samples.n_recordings, n_classes), dtype=np.int64)
        np.add.at(counts, (rec_of_sample[test_mask], pred), 1)
        counts = counts[test_recs]
        n_no_sample += int(np.count_nonzero(counts.sum(axis=1) == 0))
        rec_acc = float(np.mean(counts.argmax(axis=1) == samples.recording_labels[test_recs]))

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
