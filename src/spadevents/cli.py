"""Command-line harness: dataset synthesis/import, conversion, training,
evaluation and parameter sweeps.

``main`` runs every command the same way: it resolves the configuration
(defaults < config file < flags), refuses an existing output directory
before any work, lets the command write into a staging directory, records
a ``run.json`` sufficient to reproduce the run bit for bit, and promotes
the directory atomically on success.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import os
import shutil
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .classify import POOL_METHODS, TRIAL_COLUMNS, EvalReport, PoolConfig
from .config import (ExperimentConfig, config_field_names, config_to_dict, config_to_text,
                     make_config)
from .core import AER_TIME_MASK
from .dataio import (DatasetManifest, ManifestEntry, augment, load_manifest,
                     load_manifest_recordings, ratio_demo_synth_config, save_manifest,
                     save_recording, split_indices, synth_generate, SynthConfig,
                     write_dataset)
from .eventgen import count_ratio_demo, datarate_stats, write_stream
from .feast import save_features
from .pipeline import (EVENT_KINDS, FEATURE_MODES, KINDS, PipelineParams, PipelineSpec,
                       convert_all, evaluate_sources, pipeline_sources,
                       prepare_binary_features, run_pipeline, trial_seeds)
from .svgchart import write_line_chart


# ---------------------------------------------------------------------------
# Staged output directories
# ---------------------------------------------------------------------------


@contextmanager
def staged_output(out_dir):
    """Write into <out>.partial and promote to <out> only on success."""
    out = Path(out_dir)
    if out.exists():
        raise ValueError(f"output directory {out} already exists")
    tmp = out.with_name(out.name + ".partial")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    try:
        yield tmp
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    os.replace(tmp, out)


def write_run_record(out: Path, command: str, cfg: ExperimentConfig, extra: dict | None = None):
    record = {
        "command": command,
        "version": __version__,
        "config": config_to_dict(cfg),
        "trial_seeds": trial_seeds(cfg.seed, cfg.n_trials),
    }
    if extra:
        record.update(extra)
    (out / "run.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    # the resolved config in --config form, so any run can be replayed exactly
    (out / "run.cfg").write_text(config_to_text(cfg))


def _write_csv(path, columns: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def synth_config_from(cfg: ExperimentConfig) -> SynthConfig:
    return SynthConfig(n_classes=cfg.synth_classes,
                       recordings_per_class=cfg.synth_recordings_per_class,
                       frames_per_recording=cfg.synth_frames,
                       grid_width=cfg.synth_grid, grid_height=cfg.synth_grid,
                       target_depth_code=cfg.synth_target_depth,
                       distractor_depth_code=cfg.synth_distractor_depth,
                       target_speed=cfg.synth_speed,
                       p_false_positive=cfg.synth_p_false_positive,
                       p_false_negative=cfg.synth_p_false_negative,
                       timing_jitter_sigma=cfg.synth_jitter_sigma,
                       seed=cfg.seed)


def load_dataset(cfg: ExperimentConfig):
    """Recordings + class count from a manifest, or synthesized in memory."""
    if cfg.manifest:
        manifest = load_manifest(cfg.manifest, n_classes=cfg.n_classes or None)
        recordings = load_manifest_recordings(manifest, Path(cfg.manifest).parent)
        for rec, entry in zip(recordings, manifest.entries):
            rec.class_id = entry.class_id
        n_classes = manifest.n_classes
    else:
        _, recordings = synth_generate(synth_config_from(cfg))
        n_classes = cfg.n_classes or cfg.synth_classes
    if cfg.augment:
        recordings = augment(recordings)
    return recordings, n_classes


def pipeline_spec_from(cfg: ExperimentConfig, kind: str, feature_mode: str, n_neurons: int,
                       pool: PoolConfig | None = None) -> PipelineSpec:
    """The cell's spec; every PipelineParams field is copied from cfg."""
    shared = {f.name: getattr(cfg, f.name) for f in fields(PipelineParams)}
    return PipelineSpec(kind=kind, feature_mode=feature_mode, n_neurons=n_neurons,
                        pool=pool if pool is not None else PoolConfig(), **shared)


_RATE_COLUMNS = ["recording_id", "frame_bytes", "event_bytes", "fold_reduction"]


def convert_with_rates(recordings, kind: str, cfg: ExperimentConfig):
    """A kind's streams, each recording's data-rate row (_RATE_COLUMNS) and
    each recording's fold reduction, in recording order."""
    streams = convert_all(recordings, kind, cfg, jobs=cfg.jobs)
    stats = [datarate_stats(rec, stream) for rec, stream in zip(recordings, streams)]
    rows = [[rec.recording_id, s.frame_bytes, s.event_bytes, f"{s.fold_reduction:.6f}"]
            for rec, s in zip(recordings, stats)]
    return streams, rows, [s.fold_reduction for s in stats]


# ---------------------------------------------------------------------------
# Subcommands: each takes (args, cfg, staging directory), writes its outputs
# there and returns (run.json extras or None, summary line); main does the rest.
# ---------------------------------------------------------------------------


def cmd_synth(args, cfg: ExperimentConfig, out: Path):
    manifest, recordings = synth_generate(synth_config_from(cfg))
    write_dataset(manifest, recordings, out)
    return None, f"wrote {len(recordings)} recordings to {args.out}"


def _resolve_reader(spec: str):
    if spec == "spdrec":
        from .dataio import load_recording

        def reader(src: Path):
            for p in sorted(Path(src).glob("**/*.spdrec")):
                yield load_recording(p)
        return reader
    module_name, _, attr = spec.partition(":")
    if not attr:
        raise ValueError("reader must be 'spdrec' or 'module.path:callable'")
    try:
        return getattr(importlib.import_module(module_name), attr)
    except (ImportError, AttributeError) as exc:
        raise ValueError(f"cannot load reader {spec!r}: {exc}") from None


def cmd_import(args, cfg: ExperimentConfig, out: Path):
    reader = _resolve_reader(args.reader)
    entries = []
    n_classes = 0
    count = 0
    for rec in reader(Path(args.src)):
        name = f"{rec.recording_id or f'rec{count:06d}'}.spdrec"
        save_recording(rec, out / name)
        entries.append(ManifestEntry(path=name, class_id=rec.class_id,
                                     recording_id=rec.recording_id or f"rec{count:06d}"))
        n_classes = max(n_classes, rec.class_id + 1)
        count += 1
    if count == 0:
        raise ValueError(f"reader produced no recordings from {args.src}")
    save_manifest(DatasetManifest(entries=entries, n_classes=n_classes), out / "manifest.tsv")
    return ({"reader": args.reader, "src": str(args.src)},
            f"imported {count} recordings to {args.out}")


def cmd_convert(args, cfg: ExperimentConfig, out: Path):
    recordings, _ = load_dataset(cfg)
    for rec in recordings:   # event times step by pulse periods; AER words hold 16-bit gaps
        if rec.pulse_period > AER_TIME_MASK:
            raise ValueError(f"recording {rec.recording_id}: pulse period {rec.pulse_period} us "
                             f"exceeds the {AER_TIME_MASK} us SPDEVT01 event time field")
    streams, rows, _ = convert_with_rates(recordings, args.kind, cfg)
    for rec, stream in zip(recordings, streams):
        write_stream(stream, out / f"{rec.recording_id}.spdevt")
    _write_csv(out / "datarate.csv", _RATE_COLUMNS, rows)
    return {"kind": args.kind}, f"converted {len(recordings)} recordings ({args.kind}) to {args.out}"


def cmd_train_features(args, cfg: ExperimentConfig, out: Path):
    recordings, _ = load_dataset(cfg)
    streams = convert_all(recordings, args.kind, cfg, jobs=cfg.jobs)
    if args.use_all:
        train_idx = np.arange(len(streams))
    else:
        train_idx, _ = split_indices(len(streams), cfg.train_fraction,
                                     trial_seeds(cfg.seed, 1)[0])
    spec = pipeline_spec_from(cfg, args.kind, "trained", args.neurons)
    trained, binary = prepare_binary_features(streams, spec, train_idx)
    save_features(trained, out / "features_continuous.spdfea")
    save_features(binary, out / "features_binary.spdfea")
    (out / "win_counts.json").write_text(json.dumps(
        {"win_counts": trained.win_counts.tolist()}, indent=2) + "\n")
    return ({"kind": args.kind, "neurons": args.neurons, "n_active": binary.n_active},
            f"trained {args.neurons} features on {len(train_idx)} recordings -> {args.out}")


def cmd_evaluate(args, cfg: ExperimentConfig, out: Path):
    recordings, n_classes = load_dataset(cfg)
    spec = pipeline_spec_from(cfg, args.kind, args.feature_mode, args.neurons,
                              PoolConfig(method=args.pool_method, size=args.pool_size))
    streams = None
    if args.kind != "frames":
        streams, _, folds = convert_with_rates(recordings, args.kind, cfg)
    report = run_pipeline(recordings, spec, n_classes,
                          trial_seeds(cfg.seed, cfg.n_trials), jobs=cfg.jobs, streams=streams)
    if streams is not None:
        report.extra["datarate"] = {"mean_fold_reduction": float(np.mean(folds)),
                                    "min_fold_reduction": float(np.min(folds)),
                                    "max_fold_reduction": float(np.max(folds))}
    report.write_json(out / "report.json")
    _write_csv(out / "report.csv", TRIAL_COLUMNS, report.trial_rows())
    return ({"kind": args.kind, "feature_mode": args.feature_mode, "neurons": args.neurons,
             "pool_size": args.pool_size, "pool_method": args.pool_method},
            f"per-frame {report.per_frame_mean:.4f} +/- {report.per_frame_std:.4f}  "
            f"per-recording {report.per_recording_mean:.4f} +/- {report.per_recording_std:.4f}")


def sweep_cells(recordings, n_classes: int, cfg: ExperimentConfig
                ) -> list[tuple[tuple, EvalReport]]:
    """(cell key, report) for every (kind, feature mode, N, L, method) cell of
    the config; the key's fields are _CELL_COLUMNS.

    Streams are converted once per kind, feature sources built and regions
    selected once per (kind, mode, N); pooling cells pool those regions in
    batches.  Cell order is the deterministic loop order, independent of
    cfg.jobs, and make_config refuses repeated axis values, so every key is
    unique.
    """
    seeds = trial_seeds(cfg.seed, cfg.n_trials)
    labels = np.array([rec.class_id for rec in recordings], dtype=np.int64)
    cells = []
    for kind in cfg.kinds:
        if kind == "frames":
            streams, layers = None, [("raw", 0)]
        else:
            streams = convert_all(recordings, kind, cfg, jobs=cfg.jobs)
            layers = [(mode, n_neurons) for mode in cfg.feature_modes
                      for n_neurons in ([0] if mode == "raw" else cfg.neuron_counts)]
        for mode, n_neurons in layers:
            base = pipeline_spec_from(cfg, kind, mode, n_neurons)
            groups = pipeline_sources(recordings, base, seeds, cfg.jobs, streams)
            for pool_size in cfg.pool_sizes:
                for method in cfg.pool_methods:
                    spec = replace(base, pool=PoolConfig(method=method, size=pool_size))
                    cells.append(((kind, mode, n_neurons, pool_size, method),
                                  evaluate_sources(groups, labels, spec, n_classes)))
            del groups   # free the regions before the next cell trains its features
    return cells


_CELL_COLUMNS = ["kind", "feature_mode", "n_neurons", "pool_size", "pool_method"]
_SUMMARY_STATS = ["per_frame_mean", "per_frame_std", "per_recording_mean", "per_recording_std"]


def write_sweep_charts(cells: list[tuple[tuple, EvalReport]], out: Path) -> None:
    for kind in sorted({key[0] for key, _ in cells}):
        series = []
        for mode in FEATURE_MODES:
            for method in POOL_METHODS:
                pts = sorted((size, report.per_frame_mean)
                             for (k, m, _, size, meth), report in cells
                             if (k, m, meth) == (kind, mode, method))
                if pts:
                    series.append((f"{mode}/{method}", [p[0] for p in pts], [p[1] for p in pts]))
        if series:
            write_line_chart(out / f"accuracy_vs_pool_{kind}.svg", series,
                             title=f"{kind}: per-frame accuracy vs pool size",
                             x_label="pool size", y_label="per-frame accuracy")


def cmd_sweep(args, cfg: ExperimentConfig, out: Path):
    recordings, n_classes = load_dataset(cfg)
    cells = sweep_cells(recordings, n_classes, cfg)
    n_rows = sum(report.n_trials for _, report in cells)
    # sweep.csv: one row per trial of every cell; summary.csv: one row per cell
    _write_csv(out / "sweep.csv", [*_CELL_COLUMNS, *TRIAL_COLUMNS],
               ([*key, *row] for key, report in cells for row in report.trial_rows()))
    _write_csv(out / "summary.csv", _CELL_COLUMNS + _SUMMARY_STATS,
               ([*key, *(f"{getattr(report, stat):.6f}" for stat in _SUMMARY_STATS)]
                for key, report in cells))
    if args.svg:
        write_sweep_charts(cells, out)
    return {"n_rows": n_rows}, f"swept {len(cells)} cells ({n_rows} rows) -> {args.out}"


def cmd_demo_ratio(args, cfg: ExperimentConfig, out: Path):
    if cfg.manifest:
        recordings, n_classes = load_dataset(cfg)
        if n_classes != 3:
            raise ValueError(f"ratio demo needs a 3-class dataset, manifest has {n_classes}")
    else:
        _, recordings = synth_generate(ratio_demo_synth_config(seed=cfg.seed))
    streams = convert_all(recordings, "oobu", cfg, jobs=cfg.jobs)
    result = count_ratio_demo(streams, [rec.class_id for rec in recordings])
    payload = {
        "on_off": {"accuracy": result.on_off_accuracy,
                   "thresholds": list(result.on_off_thresholds)},
        "bi_uni": {"accuracy": result.bi_uni_accuracy,
                   "thresholds": list(result.bi_uni_thresholds)},
    }
    (out / "ratio_demo.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return None, (f"On/Off ratio accuracy {result.on_off_accuracy:.4f}  "
                  f"Bi/Uni ratio accuracy {result.bi_uni_accuracy:.4f}")


def cmd_datarate(args, cfg: ExperimentConfig, out: Path):
    recordings, _ = load_dataset(cfg)
    rows, means = [], {}
    for kind in cfg.kinds:
        if kind != "frames":
            _, kind_rows, folds = convert_with_rates(recordings, kind, cfg)
            rows += [[kind, *row] for row in kind_rows]
            means[kind] = float(np.mean(folds))
    _write_csv(out / "datarate.csv", ["kind", *_RATE_COLUMNS], rows)
    (out / "summary.json").write_text(json.dumps(
        {"mean_fold_reduction": means}, indent=2, sort_keys=True) + "\n")
    return None, "\n".join(f"{kind}: mean fold reduction {fold:.2f}"
                           for kind, fold in means.items())


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--out", required=True, help="output directory (must not exist)")
    for key in config_field_names():
        parser.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}",
                            default=None, metavar="V", help=argparse.SUPPRESS)


def resolve_config(args) -> ExperimentConfig:
    # make_config skips the flags left at None
    return make_config(args.config, {key: getattr(args, f"cfg_{key}")
                                     for key in config_field_names()})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spadevents",
                                     description="Event-based processing of SPAD "
                                                 "time-of-flight depth recordings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset on disk")
    add_common_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("import", help="ingest recordings via a pluggable reader")
    add_common_flags(p)
    p.add_argument("--reader", default="spdrec",
                   help="'spdrec' or 'module.path:callable' yielding Recordings")
    p.add_argument("--src", required=True, help="source directory or file")
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("convert", help="convert a dataset to one event-stream kind")
    add_common_flags(p)
    p.add_argument("--kind", required=True, choices=EVENT_KINDS)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("train-features", help="train and binarize a feature set")
    add_common_flags(p)
    p.add_argument("--kind", required=True, choices=EVENT_KINDS)
    p.add_argument("--neurons", type=int, default=PipelineSpec.n_neurons)
    p.add_argument("--use-all", action="store_true",
                   help="train on every recording instead of the first trial split")
    p.set_defaults(func=cmd_train_features)

    p = sub.add_parser("evaluate", help="evaluate one pipeline configuration")
    add_common_flags(p)
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--feature-mode", default=PipelineSpec.feature_mode,
                   choices=FEATURE_MODES)
    p.add_argument("--neurons", type=int, default=PipelineSpec.n_neurons)
    p.add_argument("--pool-size", type=int, default=PoolConfig.size)
    p.add_argument("--pool-method", default=PoolConfig.method, choices=POOL_METHODS)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="accuracy sweep over kinds, N, L and pooling")
    add_common_flags(p)
    p.add_argument("--svg", action="store_true", help="also emit SVG charts")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("demo-ratio", help="three-class polarity-count ratio demo")
    add_common_flags(p)
    p.set_defaults(func=cmd_demo_ratio)

    p = sub.add_parser("datarate", help="data-rate reduction statistics per kind")
    add_common_flags(p)
    p.set_defaults(func=cmd_datarate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        with staged_output(args.out) as out:
            extra, message = args.func(args, cfg, out)
            write_run_record(out, args.command, cfg, extra)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if message:   # datarate over no event kind has nothing to report
        print(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
