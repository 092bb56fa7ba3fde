"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criteria 1-9 run on synthetic data; criterion 10 needs the real
drop-capture dataset and is skipped unless SPADEVENTS_REAL_MANIFEST points
at an imported manifest.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from spadevents.classify import PoolConfig, RidgeAccumulator, one_hot, train_classifier
from spadevents.cli import main as cli_main
from spadevents.core import Recording
from spadevents.dataio import (SynthConfig, load_manifest, load_manifest_recordings,
                               ratio_demo_synth_config, synth_generate)
from spadevents.eventgen import (FirstAndParams, count_ratio_demo, datarate_stats,
                                 firstand_convert, oobu_convert)
from spadevents.feast import (FeastParams, binarize, event_rois, feast_train,
                              initial_features)
from spadevents.pipeline import (PipelineSpec, convert_all, evaluate_cells, run_pipeline,
                                 trial_seeds)

from test_feast import balance_stream


def criterion(num, ok: bool, description: str, detail: str = ""):
    line = f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} {description}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Fixed synthetic acceptance dataset: 5 classes x 40 recordings x 100 frames,
# 32x32, seeded.
# ---------------------------------------------------------------------------

ACCEPTANCE_SEED = 2024
N_CLASSES = 5
TRIALS = trial_seeds(0, 5)


@pytest.fixture(scope="module")
def acceptance_state():
    """Dataset, converted streams and the criterion-8 pipeline cells.

    Built once; the elapsed time covers everything criterion 8 requires.
    """
    state = {}
    t0 = time.monotonic()
    cfg = SynthConfig(n_classes=N_CLASSES, recordings_per_class=40,
                      frames_per_recording=100, grid_width=32, grid_height=32,
                      seed=ACCEPTANCE_SEED)
    _, recordings = synth_generate(cfg)
    state["recordings"] = recordings

    streams = {kind: convert_all(recordings, kind) for kind in ("firstand", "onoff", "oobu")}
    state["streams"] = streams
    state["mean_folds"] = {
        kind: float(np.mean([datarate_stats(r, s).fold_reduction
                             for r, s in zip(recordings, streams[kind])]))
        for kind in streams}

    cells = ([(kind, "raw", 0, size, "2d") for kind in ("firstand", "onoff", "oobu")
              for size in (1, 12)]
             + [("oobu", "raw", 0, 12, "1d"), ("oobu", "random", 16, 12, "2d"),
                ("oobu", "trained", 16, 12, "2d")])
    specs = [PipelineSpec(kind=kind, feature_mode=mode, n_neurons=n_neurons,
                          pool=PoolConfig(method=method, size=size), seed=ACCEPTANCE_SEED)
             for kind, mode, n_neurons, size, method in cells]
    reports = evaluate_cells(recordings, specs, N_CLASSES, TRIALS, streams=streams)
    acc = {(kind, mode, size, method): report.per_frame_mean
           for (kind, mode, _, size, method), report in zip(cells, reports)}
    state["accuracy"] = acc
    state["elapsed"] = time.monotonic() - t0
    return state


class TestCriterion1CounterSemantics:
    def test_constant_winner_event_count(self):
        t0 = time.monotonic()
        counts = {}
        for n_pulses in (5, 6, 23, 59, 60, 61):
            frames = np.zeros((n_pulses, 4, 4), dtype=np.uint16)
            frames[:, 0, :] = 5  # one RF whose N gate wins every pulse
            rec = Recording(frames=frames, pulse_period=10, recording_id="c1")
            stream = firstand_convert(rec, params=FirstAndParams(success_threshold=6))
            counts[n_pulses] = len(stream)
        elapsed = time.monotonic() - t0
        ok = all(counts[t] == t // 6 for t in counts) and counts[60] == 10 and elapsed < 1.0
        criterion(1, ok, "success counter emits floor(T/6) events per RF at threshold 6",
                  f"counts={counts}, elapsed={elapsed:.3f}s")


class TestCriterion2RfTiling:
    def test_grid_sizes(self):
        s32 = firstand_convert(Recording(frames=np.zeros((1, 32, 32), dtype=np.uint16)))
        s128 = firstand_convert(Recording(frames=np.zeros((1, 128, 128), dtype=np.uint16)))
        ok = (s32.grid_height, s32.grid_width) == (29, 29) and \
             (s128.grid_height, s128.grid_width) == (125, 125)
        criterion(2, ok, "stride-1 4x4 tiling: 32->29 and 128->125 receptive fields",
                  f"32->{s32.grid_width}, 128->{s128.grid_width}")


class TestCriterion3OobuThresholds:
    def test_neighborhood_examples(self):
        def pair(before, after):
            return Recording(frames=np.stack([before, after]).astype(np.uint16))

        z = np.zeros((5, 5), dtype=np.uint16)
        three_on = z.copy()
        three_on[1, 0:3] = 10
        s = oobu_convert(pair(z, three_on))
        uni_ok = (s.events["p"] == 3).sum() == 1 and (s.events["p"] == 2).sum() == 0

        before = z.copy()
        before[2, 1:3] = 10
        after = z.copy()
        after[1, 1:3] = 10
        s = oobu_convert(pair(before, after))
        bi_ok = (s.events["p"] == 2).sum() == 4 and (s.events["p"] == 3).sum() == 0

        before = z.copy()
        before[2, 2] = 10
        after = z.copy()
        after[1, 1] = 10
        s = oobu_convert(pair(before, after))
        none_ok = (s.events["p"] >= 2).sum() == 0

        ok = uni_ok and bi_ok and none_ok
        criterion(3, ok, "OOBU neighborhoods: 3/0 -> uni, 2/2 -> bi, 1/1 -> none "
                         "at thresholds 2 and 1",
                  f"uni={uni_ok}, bi={bi_ok}, none={none_ok}")


class TestCriterion4RatioDemoDirection:
    def test_bi_uni_beats_on_off(self):
        t0 = time.monotonic()
        _, recordings = synth_generate(ratio_demo_synth_config(seed=5))
        streams = convert_all(recordings, "oobu")
        result = count_ratio_demo(streams, [r.class_id for r in recordings])
        elapsed = time.monotonic() - t0
        gap = result.bi_uni_accuracy - result.on_off_accuracy
        ok = gap >= 0.15 and elapsed < 30.0
        criterion(4, ok, "bi/uni count-ratio classifier beats on/off by >= 15 points",
                  f"on_off={result.on_off_accuracy:.4f}, bi_uni={result.bi_uni_accuracy:.4f}, "
                  f"gap={gap:.4f}, elapsed={elapsed:.1f}s")


class TestCriterion5FeastBalance:
    def test_equal_frequency_balance_and_norms(self):
        t0 = time.monotonic()
        stream = balance_stream(n_patterns=8, presentations=120)
        params = FeastParams(n_neurons=8, polarity_count=8, roi_side=5, seed=11)
        trained = feast_train([stream], params, [event_rois(stream, 5, 2000)],
                              check_invariants=True)
        elapsed = time.monotonic() - t0
        wins = trained.win_counts
        norms = np.linalg.norm(trained.weights, axis=1)
        ratio = wins.max() / max(wins.min(), 1)
        ok = (wins.min() > 0 and ratio <= 2.0
              and np.abs(norms - 1.0).max() <= 1e-9 and elapsed < 60.0)
        criterion(5, ok, "8 neurons on 8 equal-frequency patterns stay balanced "
                         "with unit weight norms",
                  f"wins={wins.tolist()}, max/min={ratio:.2f}, "
                  f"norm_err={np.abs(norms - 1.0).max():.2e}, elapsed={elapsed:.1f}s")


class TestCriterion6Binarization:
    def test_popcounts_exact(self):
        params = FeastParams(n_neurons=16, polarity_count=4, roi_side=5, seed=9)
        results = {}
        for n_active in (1, 32, 100):
            bits = binarize(initial_features(params), n_active)
            results[n_active] = np.unique(bits.bits.sum(axis=1)).tolist()
        ok = all(results[m] == [m] for m in (1, 32, 100))
        criterion(6, ok, "binarized neurons hold exactly m active bits for m in {1, 32, 100}",
                  f"popcounts={results}")


class TestCriterion7RidgeOracle:
    def test_identity_case_and_chunked_agreement(self):
        weights = train_classifier(np.eye(2), np.eye(2), ridge_lambda=0.1)
        identity_err = np.abs(weights - np.eye(2) / 1.1).max()

        rng = np.random.default_rng(7)
        inputs = rng.random((100, 8))
        targets = one_hot(rng.integers(0, 3, 100), 3)
        single = train_classifier(inputs, targets, ridge_lambda=0.1)
        acc = RidgeAccumulator(8, 3, ridge_lambda=0.1)
        acc.add(inputs[:50], targets[:50])
        acc.add(inputs[50:], targets[50:])
        chunk_err = np.abs(single - acc.solve()).max()

        ok = identity_err <= 1e-9 and chunk_err <= 1e-9
        criterion(7, ok, "ridge identity case equals I/1.1 and chunked solve matches "
                         "single pass within 1e-9",
                  f"identity_err={identity_err:.2e}, chunk_err={chunk_err:.2e}")


class TestCriterion8PipelineOrdering:
    def test_a_trained_beats_random(self, acceptance_state):
        acc = acceptance_state["accuracy"]
        trained = acc[("oobu", "trained", 12, "2d")]
        random_ = acc[("oobu", "random", 12, "2d")]
        criterion("8a", trained >= random_,
                  "trained binary features >= random at N=16, L=12",
                  f"trained={trained:.4f}, random={random_:.4f}")

    def test_b_2d_beats_1d(self, acceptance_state):
        acc = acceptance_state["accuracy"]
        two_d = acc[("oobu", "raw", 12, "2d")]
        one_d = acc[("oobu", "raw", 12, "1d")]
        criterion("8b", two_d >= one_d, "2D pooling >= 1D for raw OOBU at L=12",
                  f"2d={two_d:.4f}, 1d={one_d:.4f}")

    def test_c_larger_pool_beats_global(self, acceptance_state):
        acc = acceptance_state["accuracy"]
        details = []
        ok = True
        for kind in ("firstand", "onoff", "oobu"):
            hi, lo = acc[(kind, "raw", 12, "2d")], acc[(kind, "raw", 1, "2d")]
            ok = ok and hi > lo
            details.append(f"{kind}: L12={hi:.4f} > L1={lo:.4f}")
        criterion("8c", ok, "accuracy at L=12 exceeds L=1 for every event kind",
                  "; ".join(details))

    def test_d_fold_ordering(self, acceptance_state):
        folds = acceptance_state["mean_folds"]
        ok = folds["firstand"] >= folds["onoff"] >= folds["oobu"]
        criterion("8d", ok, "data-rate fold ordering First-AND >= On-Off >= OOBU",
                  f"folds={ {k: round(v, 1) for k, v in folds.items()} }")

    def test_runtime_budget(self, acceptance_state):
        elapsed = acceptance_state["elapsed"]
        criterion("8t", elapsed < 600.0, "criterion-8 pipeline work fits the 10-minute budget",
                  f"elapsed={elapsed:.1f}s")


class TestCriterion9SweepDeterminism:
    SWEEP = ["--synth-classes", "3", "--synth-recordings-per-class", "4",
             "--synth-frames", "60", "--synth-grid", "24",
             "--kinds", "onoff,oobu", "--feature-modes", "raw,random,trained",
             "--neuron-counts", "2", "--pool-sizes", "2,6", "--pool-methods", "1d,2d",
             "--n-trials", "2", "--feast-active-bits", "8", "--seed", "7"]

    def test_byte_identical_outputs(self, tmp_path):
        outputs = []
        for name, jobs in (("s1", "1"), ("s2", "1"), ("s3", "2")):
            out = tmp_path / name
            rc = cli_main(["sweep", "--out", str(out), "--jobs", jobs, *self.SWEEP])
            assert rc == 0
            outputs.append((out / "sweep.csv").read_bytes()
                           + (out / "summary.csv").read_bytes())
        ok = outputs[0] == outputs[1] == outputs[2]
        criterion(9, ok, "repeated sweeps are byte-identical and independent of --jobs",
                  f"bytes={len(outputs[0])}")


REAL_MANIFEST = os.environ.get("SPADEVENTS_REAL_MANIFEST", "")


@pytest.mark.skipif(not REAL_MANIFEST, reason="real dataset not available; set "
                                              "SPADEVENTS_REAL_MANIFEST to run")
class TestCriterion10RealDataset:
    def test_real_dataset_reference_points(self):
        manifest = load_manifest(REAL_MANIFEST)
        recordings = load_manifest_recordings(manifest, Path(REAL_MANIFEST).parent)
        streams = {kind: convert_all(recordings, kind, jobs=4)
                   for kind in ("firstand", "onoff", "oobu")}
        folds = {kind: float(np.mean([datarate_stats(r, s).fold_reduction
                                      for r, s in zip(recordings, streams[kind])]))
                 for kind in streams}
        fold_ok = (abs(folds["firstand"] - 81) <= 0.3 * 81
                   and abs(folds["onoff"] - 57) <= 0.3 * 57
                   and abs(folds["oobu"] - 25) <= 0.3 * 25)

        spec = PipelineSpec(kind="oobu", feature_mode="trained", n_neurons=16,
                            pool=PoolConfig(method="2d", size=12))
        report = run_pipeline(recordings, spec, manifest.n_classes,
                              trial_seeds(0, 5), streams=streams["oobu"])
        acc_ok = report.per_recording_mean >= 0.85
        criterion(10, fold_ok and acc_ok,
                  "real dataset: >= 85% per-recording at OOBU/16/L12/2D and folds "
                  "within 30% of 81/57/25",
                  f"per_recording={report.per_recording_mean:.4f}, folds={folds}")
