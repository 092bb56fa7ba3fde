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
import functools
import importlib
import json
import os
import shutil
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .classify import POOL_METHODS, TRIAL_COLUMNS, EvalReport, PoolConfig
from .config import (ExperimentConfig, config_field_names, config_to_text,
                     make_config, synth_config_from)
from .core import AER_TIME_MASK
from .dataio import (DatasetManifest, ManifestEntry, augment, check_recording_id,
                     load_manifest, load_manifest_recordings, load_recording,
                     ratio_demo_synth_config, save_manifest, save_recording, split_indices,
                     synth_generate, write_dataset)
from .eventgen import count_ratio_demo, datarate_stats, write_stream
from .feast import save_features
from .pipeline import (EVENT_KINDS, FEATURE_MODES, KINDS, PipelineParams, PipelineSpec,
                       convert_all, evaluate_cells, feature_rois, prepare_binary_features,
                       run_pipeline, trial_seeds)
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
        "config": asdict(cfg),
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
    seen: set[str] = set()
    for rec in reader(Path(args.src)):
        recording_id = rec.recording_id or f"rec{len(entries):06d}"
        check_recording_id(recording_id, seen)   # before its file is written
        entries.append(ManifestEntry(f"{recording_id}.spdrec", rec.class_id, recording_id))
        save_recording(rec, out / entries[-1].path)
    if not entries:
        raise ValueError(f"reader produced no recordings from {args.src}")
    n_classes = max(e.class_id for e in entries) + 1
    save_manifest(DatasetManifest(entries=entries, n_classes=n_classes), out / "manifest.tsv")
    return ({"reader": args.reader, "src": str(args.src)},
            f"imported {len(entries)} recordings to {args.out}")


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
    spec = pipeline_spec_from(cfg, args.kind, "trained", args.neurons)
    recordings, _ = load_dataset(cfg)
    streams = convert_all(recordings, args.kind, cfg, jobs=cfg.jobs)
    if args.use_all:
        train_idx = np.arange(len(streams))
    else:
        train_idx, _ = split_indices(len(streams), cfg.train_fraction,
                                     trial_seeds(cfg.seed, 1)[0])
    trained, binary = prepare_binary_features(streams, spec, feature_rois(streams, spec),
                                              train_idx)
    save_features(trained, out / "features_continuous.spdfea")
    save_features(binary, out / "features_binary.spdfea")
    (out / "win_counts.json").write_text(json.dumps(
        {"win_counts": trained.win_counts.tolist()}, indent=2) + "\n")
    return ({"kind": args.kind, "neurons": args.neurons, "n_active": binary.n_active},
            f"trained {args.neurons} features on {len(train_idx)} recordings -> {args.out}")


def cmd_evaluate(args, cfg: ExperimentConfig, out: Path):
    spec = pipeline_spec_from(cfg, args.kind, args.feature_mode, args.neurons,
                              PoolConfig(method=args.pool_method, size=args.pool_size))
    recordings, n_classes = load_dataset(cfg)
    streams = None
    if args.kind != "frames":
        streams, _, folds = convert_with_rates(recordings, args.kind, cfg)
    report = run_pipeline(recordings, spec, n_classes, trial_seeds(cfg.seed, cfg.n_trials),
                          streams=streams)
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


def sweep_plan(cfg: ExperimentConfig) -> list[PipelineSpec]:
    """The spec of every (kind, feature mode, N, L, method) cell, in cell order;
    building them checks every cell.  ExperimentConfig refuses repeated axis
    values, so every cell appears once."""
    return [pipeline_spec_from(cfg, kind, mode, n_neurons, PoolConfig(method=method, size=size))
            for kind in cfg.kinds
            for mode in (("raw",) if kind == "frames" else cfg.feature_modes)
            for n_neurons in ([0] if mode == "raw" else cfg.neuron_counts)
            for size in cfg.pool_sizes for method in cfg.pool_methods]


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
    specs = sweep_plan(cfg)   # every cell's spec is checked before any data is loaded
    recordings, n_classes = load_dataset(cfg)
    reports = evaluate_cells(recordings, specs, n_classes, trial_seeds(cfg.seed, cfg.n_trials),
                             jobs=cfg.jobs)
    # each cell's key holds its _CELL_COLUMNS
    cells = [((s.kind, s.feature_mode, s.n_neurons, s.pool.size, s.pool.method), report)
             for s, report in zip(specs, reports)]
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


@functools.cache   # parse_args leaves the parser as it is, so one serves every main call
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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if message:   # datarate over no event kind has nothing to report
        print(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
