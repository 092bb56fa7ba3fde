"""CLI subcommands, config resolution, staged outputs, run records."""

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from spadevents import cli, feast, pipeline
from spadevents.classify import PoolConfig
from spadevents.cli import main
from spadevents.config import ExperimentConfig, make_config, parse_kv_text
from spadevents.core import FormatError, Recording
from spadevents.dataio import (SynthConfig, load_manifest, load_manifest_recordings,
                               load_recording, save_recording, split_indices, synth_generate)
from spadevents.eventgen import onoff_convert, oobu_convert, read_stream, write_stream
from spadevents.feast import event_rois, load_features
from spadevents.pipeline import PipelineParams, PipelineSpec, run_pipeline, trial_seeds
from test_dataio import huge_recording_header
from test_formats import mutate

SMALL = ["--synth-classes", "3", "--synth-recordings-per-class", "3",
         "--synth-frames", "60", "--synth-grid", "24"]


def dir_hashes(root):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.iterdir()) if p.is_file()}


class TestConfig:
    def test_parse_kv(self):
        values = parse_kv_text("a = 1\n# comment\n\nb=x,y\n")
        assert values == {"a": "1", "b": "x,y"}

    def test_defaults_file_flags_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed = 5\nn_trials = 7\n")
        cfg = make_config(cfg_file, {"n_trials": "9"})
        assert cfg.seed == 5          # from file
        assert cfg.n_trials == 9      # flag overrides file
        assert cfg.ridge_lambda == 0.1  # default

    def test_list_and_bool_parsing(self):
        cfg = make_config(None, {"kinds": "onoff,oobu", "pool_sizes": "1,12",
                                 "augment": "true"})
        assert cfg.kinds == ["onoff", "oobu"]
        assert cfg.pool_sizes == [1, 12]
        assert cfg.augment is True

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            make_config(None, {"not_a_key": "1"})

    def test_bad_bool_rejected(self):
        with pytest.raises(ValueError, match="boolean"):
            make_config(None, {"augment": "maybe"})

    @pytest.mark.parametrize("command", [
        ["evaluate", "--kind", "oobu", "--feature-mode", "raw"],
        ["evaluate", "--kind", "oobu", "--feature-mode", "trained"],
        ["sweep"],
    ])
    def test_zero_trials_is_an_error(self, command, tmp_path, capsys):
        with pytest.raises(ValueError, match="n_trials"):
            make_config(None, {"n_trials": "0"})
        rc = main([*command, "--n-trials", "0", "--out", str(tmp_path / "o"), *SMALL])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # repeated values, empty axes, values outside an axis's set, and N or L below 1
    @pytest.mark.parametrize("key, value", [
        ("kinds", "frames,frames"), ("feature_modes", "raw,raw"), ("neuron_counts", "1,2,1"),
        ("pool_sizes", "1,1"), ("pool_methods", "1d,2d,1d"),
        ("kinds", ""), ("pool_sizes", ""), ("kinds", "oobu,bogus"),
        ("feature_modes", "bogus"), ("pool_methods", "3d"), ("neuron_counts", "-3"),
        ("pool_sizes", "0"),
    ])
    def test_repeated_axis_value_is_an_error(self, key, value, tmp_path, capsys):
        with pytest.raises(ValueError, match=key):
            make_config(None, {key: value})
        axes = {"kinds": "frames", "feature_modes": "raw", "neuron_counts": "1",
                "pool_sizes": "1", "pool_methods": "1d", key: value}
        flags = [item for k, v in axes.items() for item in (f"--{k.replace('_', '-')}", v)]
        rc = main(["sweep", *flags, "--n-trials", "1", "--out", str(tmp_path / "o"), *SMALL])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and key in err
        assert not (tmp_path / "o").exists()

    def test_n_classes_below_the_synthesized_classes_refused_without_a_manifest(self):
        with pytest.raises(ValueError, match="n_classes 2 is fewer than the synth_classes 3"):
            make_config(None, {"n_classes": "2", "synth_classes": "3"})
        cfg = make_config(None, {"n_classes": "2", "synth_classes": "3", "manifest": "m.tsv"})
        assert cfg.n_classes == 2
        assert make_config(None, {"n_classes": "3", "synth_classes": "3"}).n_classes == 3

    def test_n_classes_bounded_by_the_recording_class_field(self):
        assert make_config(None, {"n_classes": "65536", "manifest": "m.tsv"}).n_classes == 65536
        with pytest.raises(ValueError, match="n_classes must be at most 65536, .* got 65537"):
            make_config(None, {"n_classes": "65537", "manifest": "m.tsv"})

    def test_unparsable_value_names_its_key(self):
        for key, text in (("jobs", "nan"), ("ridge_lambda", "x"), ("pool_sizes", "2,inf")):
            with pytest.raises(ValueError, match=f"^{key}: expected"):
                make_config(None, {key: text})

    def test_owner_refusals_name_the_config_key(self):
        for key, value, owner_words in (
                ("feast_mix_rate", "2", "mix_rate must lie strictly in (0, 1)"),
                ("firstand_success_threshold", "9", "success_threshold must lie in 1..7"),
                ("synth_frames", "0", "frames_per_recording must be at least 1"),
                ("synth_grid", "0", "grid sides")):
            with pytest.raises(ValueError) as refused:
                make_config(None, {key: value})
            assert str(refused.value).startswith(f"{key}: ") and owner_words in str(refused.value)


class TestSynthCommand:
    def test_writes_dataset_and_run_record(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["synth", "--out", str(out), *SMALL]) == 0
        manifest = load_manifest(out / "manifest.tsv")
        assert len(manifest) == 9
        assert manifest.n_classes == 3
        recs = load_manifest_recordings(manifest, out)
        assert recs[0].frames.shape == (60, 24, 24)
        record = json.loads((out / "run.json").read_text())
        assert record["command"] == "synth"
        assert record["config"]["synth_classes"] == 3
        # the resolved config replays through --config
        from spadevents.config import make_config
        replay = make_config(out / "run.cfg", {})
        assert replay.synth_classes == 3 and replay.seed == record["config"]["seed"]

    def test_same_seed_identical_hashes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["synth", "--out", str(out1), "--seed", "3", *SMALL])
        main(["synth", "--out", str(out2), "--seed", "3", *SMALL])
        assert dir_hashes(out1) == dir_hashes(out2)

    def test_zero_recordings_is_validation_error(self, tmp_path):
        rc = main(["synth", "--out", str(tmp_path / "x"),
                   "--synth-recordings-per-class", "0"])
        assert rc == 1
        assert not (tmp_path / "x").exists()

    def test_existing_out_dir_rejected(self, tmp_path):
        out = tmp_path / "ds"
        out.mkdir()
        assert main(["synth", "--out", str(out), *SMALL]) == 1

    def test_partial_dir_cleaned_on_failure(self, tmp_path):
        out = tmp_path / "x"
        main(["synth", "--out", str(out), "--synth-recordings-per-class", "0"])
        assert not out.with_name("x.partial").exists()


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "ds"
    main(["synth", "--out", str(out), "--seed", "1", *SMALL])
    return out


class TestConvertCommand:
    def test_stream_files_and_csv(self, dataset_dir, tmp_path):
        out = tmp_path / "ev"
        rc = main(["convert", "--kind", "onoff", "--out", str(out),
                   "--manifest", str(dataset_dir / "manifest.tsv")])
        assert rc == 0
        manifest = load_manifest(dataset_dir / "manifest.tsv")
        streams = sorted(out.glob("*.spdevt"))
        assert len(streams) == len(manifest)
        stream = read_stream(streams[0])
        assert stream.grid_width == 24
        with open(out / "datarate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(manifest)
        assert set(rows[0]) == {"recording_id", "frame_bytes", "event_bytes",
                                "fold_reduction"}

    def test_static_dataset_yields_empty_streams(self, tmp_path):
        ds = tmp_path / "static"
        main(["synth", "--out", str(ds), *SMALL,
              "--synth-speed", "0", "--synth-p-false-positive", "0",
              "--synth-p-false-negative", "0", "--synth-jitter-sigma", "0"])
        out = tmp_path / "ev"
        main(["convert", "--kind", "onoff", "--out", str(out),
              "--manifest", str(ds / "manifest.tsv")])
        for path in out.glob("*.spdevt"):
            assert len(read_stream(path)) == 0


    def test_huge_recording_header_is_an_error(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        ds.mkdir()
        (ds / "huge.spdrec").write_bytes(huge_recording_header())
        (ds / "manifest.tsv").write_text("huge.spdrec\t0\thuge\n")
        rc = main(["convert", "--kind", "onoff", "--out", str(tmp_path / "ev"),
                   "--manifest", str(ds / "manifest.tsv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("mangle", [lambda raw: raw + b"\0",
                                        lambda raw: b"SPDREC99" + raw[8:]],
                             ids=["trailing-bytes", "bad-magic"])
    def test_malformed_recording_is_an_error(self, dataset_dir, tmp_path, capsys, mangle):
        manifest = load_manifest(dataset_dir / "manifest.tsv")
        path = dataset_dir / manifest.entries[1].path
        path.write_bytes(mangle(path.read_bytes()))
        rc = main(["convert", "--kind", "onoff", "--out", str(tmp_path / "ev"),
                   "--manifest", str(dataset_dir / "manifest.tsv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    def test_recording_mutants_are_converted_or_refused(self, tmp_path, capsys):
        _, recordings = synth_generate(SynthConfig(n_classes=1, recordings_per_class=1,
                                                   frames_per_recording=6, grid_width=12,
                                                   grid_height=12, seed=3))
        save_recording(recordings[0], tmp_path / "sample.spdrec")
        data = (tmp_path / "sample.spdrec").read_bytes()
        mutant = tmp_path / "mutant.spdrec"
        (tmp_path / "manifest.tsv").write_text("mutant.spdrec\t0\tmutant\n")
        rng = np.random.default_rng(6)
        outcomes = set()
        for i in range(40):
            mutant.write_bytes(mutate(data, 22, rng))
            # refused if the recording does not load, or if its stream does not
            # fit SPDEVT01 (a mutated pulse period can stretch event gaps past
            # the 16-bit AER time field)
            try:
                write_stream(oobu_convert(load_recording(mutant)), tmp_path / "check.spdevt")
                refused = False
            except FormatError:
                refused = True
            rc = main(["convert", "--manifest", str(tmp_path / "manifest.tsv"),
                       "--kind", "oobu", "--out", str(tmp_path / f"ev{i}")])
            err = capsys.readouterr().err
            assert (rc, err.startswith("error:")) == ((1, True) if refused else (0, False)), i
            outcomes.add(refused)
        assert outcomes == {False, True}

    def test_manifest_mutants_are_converted_or_refused(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main(["synth", "--out", str(ds), "--synth-classes", "2",
                     "--synth-recordings-per-class", "2", "--synth-frames", "6",
                     "--synth-grid", "12", "--seed", "3"]) == 0
        capsys.readouterr()
        data = (ds / "manifest.tsv").read_bytes()
        lines = data.decode().splitlines(keepends=True)
        assert len(lines) == 4
        path, _, rec_id = lines[0].rstrip("\n").split("\t")
        (ds / "subdir").mkdir()
        named = {
            "dropped-field": f"{path}\t0\n",
            "class-id-not-integer": f"{path}\tone\t{rec_id}\n",
            "negative-class-id": f"{path}\t-1\t{rec_id}\n",
            "class-id-2**64": f"{path}\t{2 ** 64}\t{rec_id}\n",
            "missing-file": f"missing.spdrec\t0\t{rec_id}\n",
            "duplicate-path": lines[0] + lines[0].replace(rec_id, rec_id + "b"),
            "directory-as-path": f"subdir\t0\t{rec_id}\n",
            "empty-file": "",
        }
        rng = np.random.default_rng(10)
        cases = [(name, (lines[1] + text + lines[2]).encode() if text else b"")
                 for name, text in named.items()]
        cases += [(f"mutant-{i}", mutate(data, len(data), rng)) for i in range(40)]
        outcomes = set()
        for name, mutant in cases:
            (ds / "manifest.tsv").write_bytes(mutant)
            out = tmp_path / f"ev-{name}"
            rc = main(["convert", "--manifest", str(ds / "manifest.tsv"),
                       "--kind", "oobu", "--out", str(out)])
            err = capsys.readouterr().err
            if rc == 0:
                assert name not in named, name
                shutil.rmtree(out)
            else:
                assert rc == 1 and err.startswith("error:"), (name, rc, err)
                assert not out.exists() and not out.with_name(out.name + ".partial").exists()
            outcomes.add(rc)
        assert outcomes == {0, 1}


    def test_pulse_period_beyond_event_time_field_refused_before_converting(
            self, tmp_path, capsys, monkeypatch):
        _, recordings = synth_generate(SynthConfig(n_classes=2, recordings_per_class=2,
                                                   frames_per_recording=6, grid_width=12,
                                                   grid_height=12, seed=3))
        recordings[2].pulse_period = 70000
        lines = []
        for rec in recordings:
            save_recording(rec, tmp_path / f"{rec.recording_id}.spdrec")
            lines.append(f"{rec.recording_id}.spdrec\t{rec.class_id}\t{rec.recording_id}\n")
        (tmp_path / "manifest.tsv").write_text("".join(lines))

        def convert_all(*args, **kwargs):
            raise AssertionError("converted before the pulse periods were checked")
        monkeypatch.setattr(cli, "convert_all", convert_all)
        rc = main(["convert", "--kind", "oobu", "--out", str(tmp_path / "ev"),
                   "--manifest", str(tmp_path / "manifest.tsv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and recordings[2].recording_id in err
        assert "pulse period 70000" in err
        assert not (tmp_path / "ev").exists()


    # a one-frame recording has no On-Off change; a 3-row one no First-AND field
    @pytest.mark.parametrize("shape, command, message", [
        ((1, 16, 16), ["convert", "--kind", "onoff"], "On-Off conversion needs at least two"),
        ((1, 16, 16), ["convert", "--kind", "onoff", "--jobs", "2"], "On-Off conversion needs"),
        ((1, 16, 16), ["datarate", "--kinds", "oobu"], "On-Off conversion needs at least two"),
        ((1, 16, 16), ["evaluate", "--kind", "onoff"], "On-Off conversion needs at least two"),
        ((3, 3, 16), ["convert", "--kind", "firstand"], "frames 3x16 smaller than the 4x4"),
        ((3, 3, 16), ["evaluate", "--kind", "firstand"], "frames 3x16 smaller than the 4x4"),
    ], ids=["convert", "convert-in-workers", "datarate", "evaluate", "convert-firstand",
            "evaluate-firstand"])
    def test_conversion_refusal_names_the_recording(self, shape, command, message, tmp_path,
                                                    capsys):
        for name in ("fine", "odd"):
            frames = np.full((2, 16, 16) if name == "fine" else shape, 1500, dtype=np.uint16)
            save_recording(Recording(frames=frames), tmp_path / f"{name}.spdrec")
        (tmp_path / "manifest.tsv").write_text("fine.spdrec\t0\tfine\nodd.spdrec\t1\todd\n")
        out = tmp_path / "out"
        rc = main([*command, "--manifest", str(tmp_path / "manifest.tsv"), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: recording odd: {message}")
        assert not out.exists() and not out.with_name(out.name + ".partial").exists()

    def test_unwritable_stream_refusal_names_its_file(self, tmp_path, capsys):
        _, recordings = synth_generate(SynthConfig(n_classes=1, recordings_per_class=3,
                                                   frames_per_recording=6, grid_width=12,
                                                   grid_height=12, seed=3))
        late = recordings[1]
        late.pulse_period = 65535         # the largest period convert lets through
        late.frames[1] = late.frames[0]   # so the first On-Off event comes at frame 2
        assert onoff_convert(late).events["t"][0] == 2 * 65535
        lines = []
        for rec in recordings:
            save_recording(rec, tmp_path / f"{rec.recording_id}.spdrec")
            lines.append(f"{rec.recording_id}.spdrec\t{rec.class_id}\t{rec.recording_id}\n")
        (tmp_path / "manifest.tsv").write_text("".join(lines))
        out = tmp_path / "ev"
        rc = main(["convert", "--kind", "onoff", "--out", str(out),
                   "--manifest", str(tmp_path / "manifest.tsv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and f"{late.recording_id}.spdevt:" in err
        assert "16-bit timestamps" in err
        assert not out.exists() and not out.with_name(out.name + ".partial").exists()


class TestTrainFeaturesCommand:
    def test_writes_feature_files(self, dataset_dir, tmp_path):
        out = tmp_path / "feat"
        rc = main(["train-features", "--kind", "oobu", "--neurons", "4",
                   "--out", str(out), "--manifest", str(dataset_dir / "manifest.tsv")])
        assert rc == 0
        continuous = load_features(out / "features_continuous.spdfea")
        binary = load_features(out / "features_binary.spdfea")
        assert continuous.weights.shape == (4, 100)
        assert binary.bits.shape == (4, 100)
        wins = json.loads((out / "win_counts.json").read_text())["win_counts"]
        assert len(wins) == 4

    def test_binary_set_is_the_one_evaluate_trains(self, dataset_dir, tmp_path, monkeypatch):
        manifest = str(dataset_dir / "manifest.tsv")
        assert main(["train-features", "--kind", "oobu", "--neurons", "4",
                     "--out", str(tmp_path / "feat"), "--manifest", manifest]) == 0
        prepare = pipeline.prepare_binary_features
        built = []

        def recording_prepare(*args, **kwargs):
            continuous, binary = prepare(*args, **kwargs)
            built.append(binary)
            return continuous, binary
        monkeypatch.setattr(pipeline, "prepare_binary_features", recording_prepare)
        assert main(["evaluate", "--kind", "oobu", "--feature-mode", "trained",
                     "--neurons", "4", "--n-trials", "2", "--out", str(tmp_path / "eval"),
                     "--manifest", manifest]) == 0
        assert len(built) == 1   # trained on trial 0's split, frozen for trial 1
        saved = load_features(tmp_path / "feat" / "features_binary.spdfea")
        assert saved.n_active == built[0].n_active
        assert np.array_equal(saved.bits, built[0].bits)


class TestEvaluateCommand:
    def test_report_written(self, dataset_dir, tmp_path):
        out = tmp_path / "eval"
        rc = main(["evaluate", "--kind", "oobu", "--pool-size", "6",
                   "--pool-method", "2d", "--n-trials", "2",
                   "--out", str(out), "--manifest", str(dataset_dir / "manifest.tsv")])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_trials"] == 2
        assert 0.0 <= report["per_frame"]["mean"] <= 1.0
        lines = (out / "report.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    @pytest.mark.parametrize("ridge_lambda", ["nan", "-1"])
    def test_bad_ridge_lambda_is_an_error(self, dataset_dir, tmp_path, capsys, ridge_lambda):
        rc = main(["evaluate", "--kind", "oobu", "--pool-size", "6", "--n-trials", "1",
                   f"--ridge-lambda={ridge_lambda}", "--out", str(tmp_path / "eval"),
                   "--manifest", str(dataset_dir / "manifest.tsv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err and "ridge_lambda" in err

    @pytest.mark.parametrize("classes, flags, name", [
        ("2", ["--activity-fraction", "1.5"], "activity_fraction"),
        ("2", ["--activity-fraction", "nan"], "activity_fraction"),
        ("3", ["--n-classes", "2"], "n_classes"),
        ("2", ["--kind", "firstand", "--firstand-fifo-capacity", "-5"], "firstand_fifo_capacity"),
        ("2", ["--kind", "frames", "--sample-every-frames", "0"], "sample_every"),
        ("2", ["--feast-window-us", "0"], "window_us"),
        ("2", ["--feature-mode", "trained", "--feast-window-us", "0"], "window_us"),
    ], ids=["fraction-above-one", "fraction-nan", "label-above-n-classes",
            "negative-fifo-capacity", "zero-frame-interval", "zero-window",
            "zero-window-trained"])
    def test_bad_evaluation_setting_is_an_error(self, tmp_path, capsys, classes, flags, name):
        rc = main(["evaluate", "--kind", "onoff", "--n-trials", "1", "--synth-classes", classes,
                   "--synth-recordings-per-class", "3", "--synth-frames", "30",
                   "--synth-grid", "16", *flags, "--out", str(tmp_path / "eval")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and name in err
        assert not (tmp_path / "eval").exists()

    def test_trial_without_training_samples_is_an_error(self, tmp_path, capsys):
        # at one instant every 40 frames only the 50-frame recording, seed
        # 13's test recording, gives an instant; the 30-frame one gives none
        _, recordings = synth_generate(SynthConfig(n_classes=2, recordings_per_class=1,
                                                   frames_per_recording=50, grid_width=16,
                                                   grid_height=16, seed=3))
        train, _ = split_indices(2, 0.9, 13)
        recordings[train[0]].frames = recordings[train[0]].frames[:30]
        lines = []
        for rec in recordings:
            save_recording(rec, tmp_path / f"{rec.recording_id}.spdrec")
            lines.append(f"{rec.recording_id}.spdrec\t{rec.class_id}\t{rec.recording_id}\n")
        (tmp_path / "manifest.tsv").write_text("".join(lines))
        rc = main(["evaluate", "--kind", "frames", "--n-trials", "1", "--seed", "13",
                   "--sample-every-frames", "40", "--manifest", str(tmp_path / "manifest.tsv"),
                   "--out", str(tmp_path / "eval")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "trial seed 13:" in err and "0 of the 1" in err
        assert not (tmp_path / "eval").exists()

    def test_singular_readout_is_an_error(self, tmp_path, capsys, monkeypatch):
        # without regularization an exactly singular system need not raise
        # LinAlgError, so a readout without it is refused with the config
        patch_load_dataset(monkeypatch)
        rc = main(["evaluate", "--kind", "firstand", "--ridge-lambda", "0", "--pool-size", "1",
                   "--n-trials", "1", *SMALL, "--out", str(tmp_path / "eval")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ridge_lambda must be finite and positive, got 0.0")
        assert not (tmp_path / "eval").exists()
        assert not (tmp_path / "eval.partial").exists()

    def test_trial_without_test_recording_is_an_error(self, tmp_path, capsys):
        # one recording: the split keeps it for training and tests on nothing
        rc = main(["evaluate", "--kind", "onoff", "--n-trials", "1", "--seed", "13",
                   "--synth-classes", "1", "--synth-recordings-per-class", "1",
                   "--synth-frames", "30", "--synth-grid", "16", "--out", str(tmp_path / "eval")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "trial seed 13: its test split holds none" in err
        assert not (tmp_path / "eval").exists()
        assert not (tmp_path / "eval.partial").exists()

    def test_class_id_beyond_recording_format_is_an_error(self, dataset_dir, tmp_path, capsys):
        manifest = dataset_dir / "manifest.tsv"
        lines = manifest.read_text().splitlines()
        path, _, rec_id = lines[0].split("\t")
        manifest.write_text("\n".join([f"{path}\t{2 ** 64}\t{rec_id}", *lines[1:]]) + "\n")
        rc = main(["evaluate", "--kind", "onoff", "--n-trials", "1",
                   "--manifest", str(manifest), "--out", str(tmp_path / "eval")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "manifest.tsv:1" in err
        assert not (tmp_path / "eval").exists()


SWEEP_ARGS = ["--kinds", "onoff,oobu", "--feature-modes", "raw,random,trained",
              "--neuron-counts", "2", "--pool-sizes", "2,4", "--pool-methods", "1d,2d",
              "--n-trials", "2", "--feast-active-bits", "8"]


class TestSweepCommand:
    def test_row_cardinality(self, dataset_dir, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--out", str(out), *SWEEP_ARGS,
                   "--manifest", str(dataset_dir / "manifest.tsv")])
        assert rc == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        kinds, n_list, l_list, methods, trials = 2, 1, 2, 2, 2
        trained_rows = [r for r in rows if r["feature_mode"] == "trained"]
        assert len(trained_rows) == kinds * n_list * l_list * methods * trials
        random_rows = [r for r in rows if r["feature_mode"] == "random"]
        assert len(random_rows) == kinds * n_list * l_list * methods * trials
        raw_rows = [r for r in rows if r["feature_mode"] == "raw"]
        assert len(raw_rows) == kinds * l_list * methods * trials
        summary = (out / "summary.csv").read_text().strip().splitlines()
        assert len(summary) == 1 + kinds * l_list * methods * (1 + 2 * n_list)

    def test_svg_emission(self, dataset_dir, tmp_path):
        out = tmp_path / "sweep"
        main(["sweep", "--out", str(out), "--svg", "--kinds", "onoff",
              "--feature-modes", "raw", "--pool-sizes", "2,4",
              "--pool-methods", "2d", "--n-trials", "1",
              "--manifest", str(dataset_dir / "manifest.tsv")])
        svg = (out / "accuracy_vs_pool_onoff.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg


    def test_retrain_per_trial_matches_evaluate(self, tmp_path):
        # the same cell through evaluate and through a one-cell sweep
        common = ["--synth-classes", "3", "--synth-recordings-per-class", "4",
                  "--synth-frames", "60", "--synth-grid", "24", "--seed", "7",
                  "--n-trials", "3", "--retrain-per-trial", "true"]
        ev_out, sw_out = tmp_path / "eval", tmp_path / "sweep"
        assert main(["evaluate", "--out", str(ev_out), "--kind", "oobu",
                     "--feature-mode", "trained", "--neurons", "2", "--pool-size", "6",
                     "--pool-method", "2d", *common]) == 0
        assert main(["sweep", "--out", str(sw_out), "--kinds", "oobu",
                     "--feature-modes", "trained", "--neuron-counts", "2",
                     "--pool-sizes", "6", "--pool-methods", "2d", *common]) == 0
        with open(ev_out / "report.csv") as fh:
            evaluated = list(csv.DictReader(fh))
        with open(sw_out / "sweep.csv") as fh:
            swept = list(csv.DictReader(fh))
        columns = ("trial", "seed", "per_frame_acc", "per_recording_acc")
        assert len(swept) == 3
        assert [[r[c] for c in columns] for r in swept] == \
               [[r[c] for c in columns] for r in evaluated]


    def test_readout_is_deterministic_across_openblas_threads(self, tmp_path):
        # the readout runs threaded BLAS; a thread count is fixed when
        # OpenBLAS loads, so each count gets its own process
        src = str(Path(cli.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(path)}
            subprocess.run([sys.executable, "-m", "spadevents.cli", "sweep", "--out", str(out),
                            "--synth-classes", "3", "--synth-recordings-per-class", "6",
                            "--synth-frames", "40", "--synth-grid", "32", "--kinds", "oobu",
                            "--feature-modes", "raw,random,trained", "--neuron-counts", "4,16",
                            "--pool-sizes", "4,24", "--pool-methods", "1d,2d",
                            "--n-trials", "3"], env=env, check=True, capture_output=True)
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == 1 + (1 + 2 * 2) * 2 * 2 * 3

    @pytest.mark.parametrize("retrain", ["false", "true"])
    def test_rows_equal_cell_by_cell_run_pipeline(self, retrain, monkeypatch):
        # one evaluate_cells call over the sweep's plan selects each group's
        # regions once and pools every cell from them; run_pipeline selects
        # afresh for every single cell
        cfg = make_config(None, {
            "synth_classes": "3", "synth_recordings_per_class": "3", "synth_frames": "60",
            "synth_grid": "24", "kinds": "frames,firstand,onoff,oobu",
            "feature_modes": "raw,random,trained", "neuron_counts": "2",
            "feast_active_bits": "8", "pool_sizes": "1,6", "pool_methods": "1d,2d",
            "n_trials": "2", "retrain_per_trial": retrain})
        recordings, n_classes = cli.load_dataset(cfg)
        seeds = trial_seeds(cfg.seed, cfg.n_trials)
        specs = cli.sweep_plan(cfg)
        calls = []

        def counted(stream, *args):
            calls.append(stream)
            return event_rois(stream, *args)
        with monkeypatch.context() as m:
            m.setattr(feast, "event_rois", counted)
            m.setattr(pipeline, "event_rois", counted)
            grouped = pipeline.evaluate_cells(recordings, specs, n_classes, seeds)
        # one ROI extraction per stream of each event kind serves all its cells
        assert len({id(stream) for stream in calls}) == len(calls) == 3 * len(recordings)
        assert len(specs) == len(grouped) == (1 + 3 * 3) * 2 * 2
        for spec, got in zip(specs, grouped):
            want = run_pipeline(recordings, spec, n_classes, seeds)
            key = (spec.kind, spec.feature_mode, spec.n_neurons, spec.pool)
            assert got.trials == want.trials, key
            assert [t.seed for t in got.trials] == seeds, key
            assert np.array_equal(got.confusion, want.confusion), key
            assert ((got.per_frame_mean, got.per_frame_std,
                     got.per_recording_mean, got.per_recording_std)
                    == (want.per_frame_mean, want.per_frame_std,
                        want.per_recording_mean, want.per_recording_std)), key


# A non-default value for every PipelineParams field, as config overrides.
PIPELINE_OVERRIDES = {
    "firstand_success_threshold": "5", "firstand_fifo_capacity": "3",
    "change_threshold": "3", "uni_count_threshold": "3", "bi_count_threshold": "2",
    "feast_roi_side": "3", "feast_window_us": "1500",
    "feast_mix_rate": "0.002", "feast_shrink_step": "0.003", "feast_grow_step": "0.005",
    "feast_active_bits": "16", "retrain_per_trial": "true", "ridge_lambda": "0.2",
    "train_fraction": "0.8", "activity_fraction": "0.2", "seed": "3",
    "sample_every_frames": "9", "sample_every_firstand": "52", "sample_every_onoff": "75",
    "sample_every_oobu": "150",
}


class _Captured(Exception):
    pass


class TestPipelineParamsPlumbing:
    def test_overrides_cover_every_field(self):
        assert set(PIPELINE_OVERRIDES) == {f.name for f in fields(PipelineParams)}
        cfg = make_config(None, PIPELINE_OVERRIDES)
        defaults = PipelineParams()
        for name in PIPELINE_OVERRIDES:
            assert getattr(cfg, name) != getattr(defaults, name), name

    @pytest.mark.parametrize("command, stop_at", [
        (["evaluate", "--kind", "oobu", "--feature-mode", "trained", "--neurons", "2",
          "--pool-size", "4", "--pool-method", "1d"], "run_pipeline"),
        pytest.param(["sweep", "--kinds", "oobu", "--feature-modes", "trained",
                      "--neuron-counts", "2", "--pool-sizes", "4", "--pool-methods", "1d"],
                     "_evaluate_sources", id="sweep"),
    ])
    def test_every_field_reaches_the_cell(self, command, stop_at, dataset_dir, tmp_path,
                                          monkeypatch):
        seen = []   # (function name, the settings it was passed)

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                seen.extend((name, a) for a in args if isinstance(a, PipelineParams))
                if name == stop_at:
                    raise _Captured
                return fn(*args, **kwargs)
            return wrapper

        # evaluate converts in the CLI and stops where it hands the cell to
        # the pipeline; sweep converts inside evaluate_cells and stops where
        # a cell's regions meet the readout
        for module, names in ((cli, ["convert_all", "run_pipeline"]),
                              (pipeline, ["convert_all", "_pipeline_sources",
                                          "_evaluate_sources"])):
            for name in names:
                monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
        flags = [item for key, value in PIPELINE_OVERRIDES.items()
                 for item in (f"--{key.replace('_', '-')}", value)]
        with pytest.raises(_Captured):
            main([*command, *flags, "--out", str(tmp_path / "o"),
                  "--manifest", str(dataset_dir / "manifest.tsv")])
        expected = make_config(None, PIPELINE_OVERRIDES)
        specs = [p for _, p in seen if isinstance(p, PipelineSpec)]
        assert specs and "convert_all" in {name for name, _ in seen}   # the conversion saw them
        for _, params in seen:
            for name in PIPELINE_OVERRIDES:
                assert getattr(params, name) == getattr(expected, name), name
        cell = specs[-1]
        assert (cell.kind, cell.feature_mode, cell.n_neurons) == ("oobu", "trained", 2)
        assert cell.pool == PoolConfig(method="1d", size=4)
        assert cell.effective_sample_every() == 150


class TestDemoRatioCommand:
    def test_synthetic_demo(self, tmp_path):
        out = tmp_path / "demo"
        rc = main(["demo-ratio", "--out", str(out),
                   "--synth-recordings-per-class", "8", "--synth-frames", "60"])
        assert rc == 0
        payload = json.loads((out / "ratio_demo.json").read_text())
        assert 0.0 <= payload["on_off"]["accuracy"] <= 1.0
        assert 0.0 <= payload["bi_uni"]["accuracy"] <= 1.0
        assert payload["bi_uni"]["accuracy"] >= payload["on_off"]["accuracy"]


class TestDatarateCommand:
    def test_summary_and_rows(self, dataset_dir, tmp_path):
        out = tmp_path / "rates"
        rc = main(["datarate", "--out", str(out), "--kinds", "firstand,onoff,oobu",
                   "--manifest", str(dataset_dir / "manifest.tsv")])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())["mean_fold_reduction"]
        assert set(summary) == {"firstand", "onoff", "oobu"}
        assert summary["firstand"] >= summary["onoff"] >= summary["oobu"]
        with open(out / "datarate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 9


READER_MODULE = '''
import numpy as np
from spadevents.core import Recording

def make(src):
    rng = np.random.default_rng(0)
    for i in range(4):
        yield Recording(frames=rng.integers(0, 100, size=(5, 6, 6)).astype(np.uint16),
                        pulse_period=10, class_id=i % 2, recording_id=f"imp{i}")
'''


class TestImportCommand:
    def test_custom_reader(self, tmp_path, monkeypatch):
        (tmp_path / "my_reader.py").write_text(READER_MODULE)
        monkeypatch.syspath_prepend(str(tmp_path))
        out = tmp_path / "imported"
        rc = main(["import", "--reader", "my_reader:make", "--src", str(tmp_path),
                   "--out", str(out)])
        assert rc == 0
        manifest = load_manifest(out / "manifest.tsv")
        assert len(manifest) == 4
        assert manifest.n_classes == 2
        recs = load_manifest_recordings(manifest, out)
        assert recs[0].recording_id == "imp0"

    def test_spdrec_reader(self, dataset_dir, tmp_path):
        out = tmp_path / "reimported"
        rc = main(["import", "--reader", "spdrec", "--src", str(dataset_dir),
                   "--out", str(out)])
        assert rc == 0
        manifest = load_manifest(out / "manifest.tsv")
        assert len(manifest) == 9

    def test_empty_source_fails(self, tmp_path):
        src = tmp_path / "empty"
        src.mkdir()
        rc = main(["import", "--reader", "spdrec", "--src", str(src),
                   "--out", str(tmp_path / "out")])
        assert rc == 1

    @pytest.mark.parametrize("reader", ["nosuch.module:fn", "json:nosuch"],
                             ids=["missing-module", "missing-callable"])
    def test_unloadable_reader_is_an_error(self, reader, tmp_path, capsys):
        rc = main(["import", "--reader", reader, "--src", str(tmp_path),
                   "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and reader in err
        assert not (tmp_path / "out").exists()


ID_READER = '''
import numpy as np
from spadevents.core import Recording

def make(src):
    for recording_id in {ids!r}:
        yield Recording(frames=np.zeros((3, 6, 6), dtype=np.uint16), pulse_period=10,
                        class_id=0, recording_id=recording_id)
'''


def files_under(root):
    return {p for p in root.rglob("*") if p.is_file()}


# Recording ids name the files that convert and import write, so a repeated
# id (one stream would overwrite the other) and one that is not a plain file
# name (its file would land outside --out) are refused before any write.
BAD_IDS = [("same", "same"), ("c00", "../escaped")]


class TestRecordingIds:
    @pytest.mark.parametrize("ids", BAD_IDS, ids=["repeated", "escaping"])
    @pytest.mark.parametrize("command", [["convert", "--kind", "oobu"],
                                         ["evaluate", "--kind", "onoff", "--n-trials", "1"]],
                             ids=["convert", "evaluate"])
    def test_manifest_id_refused(self, ids, command, dataset_dir, tmp_path, capsys):
        lines = (dataset_dir / "manifest.tsv").read_text().splitlines()
        lines[:2] = [line.rsplit("\t", 1)[0] + f"\t{rid}" for line, rid in zip(lines, ids)]
        (dataset_dir / "bad.tsv").write_text("\n".join(lines) + "\n")
        before = files_under(tmp_path)
        rc = main([*command, "--out", str(tmp_path / "runs" / "o"),
                   "--manifest", str(dataset_dir / "bad.tsv")])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error:") and "bad.tsv:2: recording id" in err
        assert files_under(tmp_path) == before

    @pytest.mark.parametrize("ids", [*BAD_IDS, ("../outside",)],
                             ids=["repeated", "escaping", "escaping-first"])
    def test_import_id_refused(self, ids, tmp_path, capsys, monkeypatch):
        (tmp_path / "id_reader.py").write_text(ID_READER.format(ids=ids))
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.delitem(sys.modules, "id_reader", raising=False)
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        before = files_under(tmp_path)
        rc = main(["import", "--reader", "id_reader:make", "--src", str(tmp_path),
                   "--out", str(tmp_path / "imp")])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error:") and f"recording id {ids[-1]!r}" in err
        assert files_under(tmp_path) == before


class TestRunner:
    @pytest.mark.parametrize("command", [["evaluate", "--kind", "oobu"], ["sweep"],
                                         ["train-features", "--kind", "oobu"]])
    def test_existing_out_refused_before_loading(self, command, tmp_path, capsys, monkeypatch):
        def load_dataset(cfg):
            raise AssertionError("dataset loaded before the --out check")
        monkeypatch.setattr(cli, "load_dataset", load_dataset)
        out = tmp_path / "o"
        out.mkdir()
        (out / "keep.txt").write_text("kept\n")
        assert main([*command, "--out", str(out), *SMALL]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "already exists" in err
        assert [p.name for p in out.iterdir()] == ["keep.txt"]
        assert not out.with_name("o.partial").exists()

    @pytest.mark.parametrize("flag", ["--feast-shrink-step", "--feast-grow-step"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_feast_step_is_an_error(self, flag, value, dataset_dir, tmp_path, capsys):
        rc = main(["train-features", "--kind", "oobu", "--neurons", "2", f"{flag}={value}",
                   "--out", str(tmp_path / "f"), "--manifest", str(dataset_dir / "manifest.tsv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "shrink_step and grow_step" in err
        assert not (tmp_path / "f").exists()

    @pytest.mark.parametrize("command", [
        ["evaluate", "--kind", "oobu", "--feature-mode", "random"],
        ["sweep", "--kinds", "frames,oobu", "--feature-modes", "raw,trained"],
        ["train-features", "--kind", "oobu"]])
    def test_feature_layer_without_active_bits_refused_before_converting(
            self, command, tmp_path, capsys, monkeypatch):
        def convert_all(*args, **kwargs):
            raise AssertionError("streams converted before the feature settings were checked")
        monkeypatch.setattr(cli, "convert_all", convert_all)
        monkeypatch.setattr(pipeline, "convert_all", convert_all)   # the sweep converts there
        out = tmp_path / "o"
        assert main([*command, "--feast-active-bits", "0", "--out", str(out), *SMALL]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "feast_active_bits must be at least 1" in err
        assert not out.exists() and not out.with_name("o.partial").exists()

    @pytest.mark.parametrize("command", [
        ["evaluate", "--kind", "oobu", "--feature-mode", "trained", "--neurons", "300"],
        ["train-features", "--kind", "oobu", "--neurons", "300"],
        ["sweep", "--kinds", "frames,oobu", "--feature-modes", "raw,random",
         "--neuron-counts", "300"]])
    def test_neuron_count_beyond_the_polarity_field_refused_before_converting(
            self, command, tmp_path, capsys, monkeypatch):
        def convert_all(*args, **kwargs):
            raise AssertionError("streams converted before the neuron count was checked")
        monkeypatch.setattr(cli, "convert_all", convert_all)
        monkeypatch.setattr(pipeline, "convert_all", convert_all)   # the sweep converts there
        out = tmp_path / "o"
        assert main([*command, "--out", str(out), *SMALL]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_neurons must lie in 1..256, got 300" in err
        assert not out.exists() and not out.with_name("o.partial").exists()

    @pytest.mark.parametrize("command, flags, message", [
        (["evaluate", "--kind", "onoff"], ["--feast-window-us", "0"],
         "feast_window_us must be at least 1, got 0"),
        (["evaluate", "--kind", "onoff", "--feature-mode", "trained"],
         ["--sample-every-onoff", "0"],
         "sample_every_onoff must be at least 1, got 0"),
        (["train-features", "--kind", "oobu"], ["--feast-window-us", "-1"],
         "feast_window_us must be at least 1, got -1"),
        (["sweep", "--kinds", "frames,firstand", "--feature-modes", "raw"],
         ["--sample-every-firstand", "0"],
         "sample_every_firstand must be at least 1, got 0")],
        ids=["evaluate-window", "evaluate-cadence", "train-features-window", "sweep-cadence"])
    def test_cadence_and_window_refused_before_converting(
            self, command, flags, message, tmp_path, capsys, monkeypatch):
        def convert_all(*args, **kwargs):
            raise AssertionError("streams converted before the cadence and window were checked")
        monkeypatch.setattr(cli, "convert_all", convert_all)
        monkeypatch.setattr(pipeline, "convert_all", convert_all)   # the sweep converts there
        out = tmp_path / "o"
        assert main([*command, *flags, "--out", str(out), *SMALL]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists() and not out.with_name("o.partial").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--jobs", "0", "jobs must be at least 1, got 0"),
        ("--jobs", "-3", "jobs must be at least 1, got -3"),
        ("--seed", "-1", "seed must be at least 0, got -1"),
        ("--n-classes", "-1", "n_classes must be at least 0, got -1")],
        ids=["zero-jobs", "negative-jobs", "negative-seed", "negative-n-classes"])
    def test_out_of_range_run_setting_is_an_error(self, flag, value, message, tmp_path, capsys,
                                                  monkeypatch):
        def load_dataset(cfg):
            raise AssertionError("data loaded before the run settings were checked")
        monkeypatch.setattr(cli, "load_dataset", load_dataset)
        out = tmp_path / "o"
        assert main(["evaluate", "--kind", "onoff", f"{flag}={value}", "--out", str(out),
                     *SMALL]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists() and not out.with_name("o.partial").exists()

    # each value is refused by SynthConfig before anything is allocated
    @pytest.mark.parametrize("flag, value, name", [
        ("--synth-grid", "100000", "grid sides"),
        ("--synth-target-depth", "70000", "target_depth_code"),
        ("--synth-distractor-depth", "0", "distractor_depth_code"),
        ("--synth-jitter-sigma", "nan", "timing_jitter_sigma"),
        ("--synth-jitter-sigma", "inf", "timing_jitter_sigma"),
    ])
    def test_out_of_domain_synth_setting_is_an_error(self, flag, value, name, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "ds"), *SMALL, f"{flag}={value}"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and name in err
        assert not (tmp_path / "ds").exists()


class LoadReached(Exception):
    """Raised by a patched load_dataset: the run got past its config."""


_DEFAULTS = ExperimentConfig()
# every int and float key, and the integer sweep axes
NUMERIC_KEYS = [f.name for f in fields(ExperimentConfig)
                if type(getattr(_DEFAULTS, f.name)) in (int, float)
                or type(getattr(_DEFAULTS, f.name)) is list
                and all(type(v) is int for v in getattr(_DEFAULTS, f.name))]
EDGE_VALUES = ["nan", "inf", "-1", "0", "70000"]
# values that used to pass config construction and be refused, if at all, only
# once data was synthesized or converted
PROBED = [("ridge_lambda", "-1"), ("ridge_lambda", "nan"), ("ridge_lambda", "0"),
          ("activity_fraction", "2"), ("train_fraction", "1.5"), ("change_threshold", "0"),
          ("bi_count_threshold", "5"),
          ("firstand_success_threshold", "9"), ("firstand_fifo_capacity", "-1"),
          ("feast_roi_side", "4"), ("feast_mix_rate", "2"), ("feast_shrink_step", "0"),
          ("synth_frames", "0"), ("synth_grid", "0"), ("synth_classes", "0"),
          ("synth_target_depth", "0"), ("synth_speed", "-1")]


@pytest.mark.parametrize("key, value", sorted(
    {(key, value) for key in NUMERIC_KEYS for value in EDGE_VALUES} | set(PROBED)),
    ids=lambda item: item)
def test_numeric_setting_refused_before_loading_or_accepted(key, value, tmp_path, capsys,
                                                            monkeypatch):
    """Each value either reaches load_dataset (patched here, so no data is made and no
    worker starts, even at jobs 70000) or exits 1 naming its key, leaving no output."""
    patch_load_dataset(monkeypatch)
    out = tmp_path / "o"
    try:
        rc = main(["evaluate", "--kind", "oobu", "--feature-mode", "trained",
                   f"--{key.replace('_', '-')}={value}", "--out", str(out)])
    except LoadReached:
        rc = None
    err = capsys.readouterr().err
    if value in ("nan", "inf") or (key, value) in PROBED:
        assert rc == 1, (key, value)
    if rc is not None:
        assert rc == 1 and err.startswith("error:") and key in err, (key, value, err)
    assert not out.exists() and not out.with_name("o.partial").exists()


def patch_load_dataset(monkeypatch):
    def load_dataset(cfg):
        raise LoadReached
    monkeypatch.setattr(cli, "load_dataset", load_dataset)


def test_sweep_plan_lists_cells_in_sweep_order():
    cfg = make_config(None, {"kinds": "frames,oobu", "feature_modes": "raw,trained",
                             "neuron_counts": "4,2", "pool_sizes": "6,1",
                             "pool_methods": "2d,1d"})
    pools = [(6, "2d"), (6, "1d"), (1, "2d"), (1, "1d")]
    assert [(spec.kind, spec.feature_mode, spec.n_neurons, spec.pool.size, spec.pool.method)
            for spec in cli.sweep_plan(cfg)] == [
        (kind, mode, n_neurons, size, method)
        for kind, mode, n_neurons in [("frames", "raw", 0), ("oobu", "raw", 0),
                                      ("oobu", "trained", 4), ("oobu", "trained", 2)]
        for size, method in pools]


@pytest.mark.parametrize("flags, message", [
    (["--neuron-counts", "300"], "n_neurons must lie in 1..256, got 300"),
    (["--feast-active-bits", "0"], "feast_active_bits must be at least 1, got 0"),
])
def test_sweep_cell_spec_refused_before_loading(flags, message, tmp_path, capsys, monkeypatch):
    patch_load_dataset(monkeypatch)
    out = tmp_path / "o"
    rc = main(["sweep", "--kinds", "oobu", "--feature-modes", "raw,random", *flags,
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error:") and message in err
    assert not out.exists() and not out.with_name("o.partial").exists()


def test_synth_grid_below_default_silhouettes_refused_before_loading(tmp_path, capsys,
                                                                   monkeypatch):
    patch_load_dataset(monkeypatch)
    out = tmp_path / "o"
    assert main(["evaluate", "--kind", "onoff", "--synth-grid", "8", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: synth_grid: silhouette 12x12 larger than grid")
    assert not out.exists() and not out.with_name("o.partial").exists()
    with pytest.raises(LoadReached):   # the default silhouettes fill a 12x12 grid
        main(["evaluate", "--kind", "onoff", "--synth-grid", "12", "--out", str(out)])


@pytest.mark.parametrize("kind, mode", [("oobu", "trained"), ("onoff", "raw"),
                                        ("frames", "raw")])
def test_cadence_without_instant_refused_before_feature_training(kind, mode, tmp_path, capsys,
                                                                monkeypatch):
    def feast_train(*args, **kwargs):
        raise AssertionError("features trained for a cadence that gives no instant")
    monkeypatch.setattr(pipeline, "feast_train", feast_train)
    out = tmp_path / "o"
    rc = main(["evaluate", "--kind", kind, "--feature-mode", mode, "--n-trials", "1",
               f"--sample-every-{kind}", "70000", *SMALL, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith(f"error: sample_every_{kind} = 70000 gives no "
                                      f"classification instant")
    assert not out.exists() and not out.with_name("o.partial").exists()


def test_memory_error_is_reported_and_leaves_no_output(tmp_path, capsys, monkeypatch):
    def run_pipeline(*args, **kwargs):
        raise MemoryError("Unable to allocate 36.5 GiB for an array with shape (70000, 70000)")
    monkeypatch.setattr(cli, "run_pipeline", run_pipeline)
    out = tmp_path / "o"
    assert main(["evaluate", "--kind", "onoff", "--n-trials", "1", "--out", str(out),
                 *SMALL]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Unable to allocate 36.5 GiB" in err
    assert not out.exists() and not out.with_name("o.partial").exists()


# The pinned config: synth 3 classes x 3 recordings x 30 frames of 16x16 at
# seed 7, then every command on it, run from one directory with relative
# paths (run.json and run.cfg record them).  tests/pinned_outputs.json holds
# the SHA-256 of every output file and the printed summary lines.  The bytes
# depend on the host's numpy and BLAS; after a deliberate change of either,
# or of the outputs, re-derive the file from a run of PINNED_COMMANDS.
PINNED_SYNTH = ["--synth-classes", "3", "--synth-recordings-per-class", "3",
                "--synth-frames", "30", "--synth-grid", "16", "--seed", "7"]
PINNED_MANIFEST = ["--manifest", "ds/manifest.tsv"]
PINNED_COMMANDS = [
    ["synth", "--out", "ds", *PINNED_SYNTH],
    ["import", "--reader", "spdrec", "--src", "ds", "--out", "imported", *PINNED_SYNTH],
    ["convert", "--kind", "oobu", "--out", "converted", *PINNED_MANIFEST],
    ["train-features", "--kind", "oobu", "--neurons", "2", "--out", "features",
     *PINNED_MANIFEST],
    ["evaluate", "--kind", "oobu", "--feature-mode", "trained", "--neurons", "2",
     "--pool-size", "4", "--n-trials", "3", "--out", "evaluated", *PINNED_MANIFEST],
    ["sweep", "--kinds", "frames,oobu", "--feature-modes", "raw,trained", "--neuron-counts", "2",
     "--pool-sizes", "2,4", "--pool-methods", "1d,2d", "--n-trials", "2", "--svg",
     "--out", "swept", *PINNED_MANIFEST],
    ["demo-ratio", "--out", "demo", *PINNED_MANIFEST],
    ["datarate", "--kinds", "firstand,onoff,oobu", "--out", "rates", *PINNED_MANIFEST],
]


def test_pinned_config_outputs_are_unchanged(tmp_path, capsys, monkeypatch):
    pinned = json.loads((Path(__file__).parent / "pinned_outputs.json").read_text())
    monkeypatch.chdir(tmp_path)
    for command in PINNED_COMMANDS:
        assert main(command) == 0, command
    digests = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert digests == pinned["sha256"]
    assert capsys.readouterr().out.splitlines() == pinned["stdout"]
