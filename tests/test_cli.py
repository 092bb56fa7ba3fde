"""CLI subcommands, config resolution, staged outputs, run records."""

import csv
import hashlib
import json
from dataclasses import fields

import pytest

from spadevents import cli
from spadevents.classify import PoolConfig
from spadevents.cli import main
from spadevents.config import make_config, parse_kv_text
from spadevents.dataio import load_manifest, load_manifest_recordings
from spadevents.eventgen import read_stream
from spadevents.feast import load_features
from spadevents.pipeline import PipelineParams, PipelineSpec
from test_dataio import huge_recording_header

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
                                 "augment": "true", "on_is_increase": "false"})
        assert cfg.kinds == ["onoff", "oobu"]
        assert cfg.pool_sizes == [1, 12]
        assert cfg.augment is True
        assert cfg.on_is_increase is False

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


# A non-default value for every PipelineParams field, as config overrides.
PIPELINE_OVERRIDES = {
    "firstand_success_threshold": "5", "firstand_fifo_capacity": "3",
    "change_threshold": "3", "uni_count_threshold": "3", "bi_count_threshold": "2",
    "on_is_increase": "false", "feast_roi_side": "3", "feast_window_us": "1500",
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
        (["sweep", "--kinds", "oobu", "--feature-modes", "trained", "--neuron-counts", "2",
          "--pool-sizes", "4", "--pool-methods", "1d"], "evaluate_sources"),
    ])
    def test_every_field_reaches_the_cell(self, command, stop_at, dataset_dir, tmp_path,
                                          monkeypatch):
        seen = []

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                seen.extend(a for a in args if isinstance(a, PipelineParams))
                if name == stop_at:
                    raise _Captured
                return fn(*args, **kwargs)
            return wrapper

        for name in ("convert_all", "pipeline_sources", "evaluate_sources", "run_pipeline"):
            monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
        flags = [item for key, value in PIPELINE_OVERRIDES.items()
                 for item in (f"--{key.replace('_', '-')}", value)]
        with pytest.raises(_Captured):
            main([*command, *flags, "--out", str(tmp_path / "o"),
                  "--manifest", str(dataset_dir / "manifest.tsv")])
        expected = make_config(None, PIPELINE_OVERRIDES)
        specs = [p for p in seen if isinstance(p, PipelineSpec)]
        assert specs and len(seen) > len(specs)   # the conversion saw them too
        for params in seen:
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
