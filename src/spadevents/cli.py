"""Command-line harness: dataset synthesis/import, conversion, training,
evaluation and parameter sweeps.

Every run resolves its configuration (defaults < config file < flags),
writes all outputs into a staging directory and promotes it atomically on
success, and records a ``run.json`` sufficient to reproduce the run bit for
bit.
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
from .classify import PoolConfig
from .config import (ExperimentConfig, config_field_names, config_to_dict, config_to_text,
                     make_config)
from .dataio import (DatasetManifest, ManifestEntry, augment, load_manifest,
                     load_manifest_recordings, ratio_demo_synth_config, save_manifest,
                     save_recording, split_indices, synth_generate, SynthConfig,
                     write_dataset)
from .eventgen import count_ratio_demo, datarate_stats, write_stream
from .feast import save_features, feast_train, binarize
from .pipeline import (PipelineParams, PipelineSpec, convert_all, evaluate_sources,
                       pipeline_sources, run_pipeline, trial_seeds)
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


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = resolve_config(args)
    manifest, recordings = synth_generate(synth_config_from(cfg))
    with staged_output(args.out) as out:
        write_dataset(manifest, recordings, out)
        write_run_record(out, "synth", cfg)
    print(f"wrote {len(recordings)} recordings to {args.out}")
    return 0


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
    return getattr(importlib.import_module(module_name), attr)


def cmd_import(args) -> int:
    cfg = resolve_config(args)
    reader = _resolve_reader(args.reader)
    with staged_output(args.out) as out:
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
        save_manifest(DatasetManifest(entries=entries, n_classes=n_classes),
                      out / "manifest.tsv")
        write_run_record(out, "import", cfg, {"reader": args.reader, "src": str(args.src)})
    print(f"imported {count} recordings to {args.out}")
    return 0


def cmd_convert(args) -> int:
    cfg = resolve_config(args)
    recordings, _ = load_dataset(cfg)
    with staged_output(args.out) as out:
        streams = convert_all(recordings, args.kind, cfg, jobs=cfg.jobs)
        with open(out / "datarate.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["recording_id", "frame_bytes", "event_bytes", "fold_reduction"])
            for rec, stream in zip(recordings, streams):
                write_stream(stream, out / f"{rec.recording_id}.spdevt")
                stats = datarate_stats(rec, stream)
                writer.writerow([rec.recording_id, stats.frame_bytes, stats.event_bytes,
                                 f"{stats.fold_reduction:.6f}"])
        write_run_record(out, "convert", cfg, {"kind": args.kind})
    print(f"converted {len(recordings)} recordings ({args.kind}) to {args.out}")
    return 0


def cmd_train_features(args) -> int:
    cfg = resolve_config(args)
    recordings, _ = load_dataset(cfg)
    streams = convert_all(recordings, args.kind, cfg, jobs=cfg.jobs)
    if args.use_all:
        train_idx = np.arange(len(streams))
    else:
        train_idx, _ = split_indices(len(streams), cfg.train_fraction,
                                     trial_seeds(cfg.seed, 1)[0])
    spec = pipeline_spec_from(cfg, args.kind, "trained", args.neurons)
    params = spec.feast_params(streams[0].polarity_count)
    trained = feast_train([streams[i] for i in train_idx], params)
    n_active = min(cfg.feast_active_bits, params.weight_length)
    with staged_output(args.out) as out:
        save_features(trained, out / "features_continuous.spdfea")
        save_features(binarize(trained, n_active), out / "features_binary.spdfea")
        (out / "win_counts.json").write_text(json.dumps(
            {"win_counts": trained.win_counts.tolist()}, indent=2) + "\n")
        write_run_record(out, "train-features", cfg,
                         {"kind": args.kind, "neurons": args.neurons, "n_active": n_active})
    print(f"trained {args.neurons} features on {len(train_idx)} recordings -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = resolve_config(args)
    recordings, n_classes = load_dataset(cfg)
    spec = pipeline_spec_from(cfg, args.kind, args.feature_mode, args.neurons,
                              PoolConfig(method=args.pool_method, size=args.pool_size))
    streams = None
    if args.kind != "frames":
        streams = convert_all(recordings, args.kind, cfg, jobs=cfg.jobs)
    report = run_pipeline(recordings, spec, n_classes,
                          trial_seeds(cfg.seed, cfg.n_trials), jobs=cfg.jobs, streams=streams)
    if streams is not None:
        folds = [datarate_stats(rec, s).fold_reduction
                 for rec, s in zip(recordings, streams)]
        report.extra["datarate"] = {"mean_fold_reduction": float(np.mean(folds)),
                                    "min_fold_reduction": float(np.min(folds)),
                                    "max_fold_reduction": float(np.max(folds))}
    with staged_output(args.out) as out:
        report.write_json(out / "report.json")
        report.write_csv(out / "report.csv")
        write_run_record(out, "evaluate", cfg,
                         {"kind": args.kind, "feature_mode": args.feature_mode,
                          "neurons": args.neurons, "pool_size": args.pool_size,
                          "pool_method": args.pool_method})
    print(f"per-frame {report.per_frame_mean:.4f} +/- {report.per_frame_std:.4f}  "
          f"per-recording {report.per_recording_mean:.4f} +/- {report.per_recording_std:.4f}")
    return 0


def sweep_rows(recordings, n_classes: int, cfg: ExperimentConfig) -> list[dict]:
    """Evaluate every (kind, feature mode, N, L, method) cell of the config.

    Streams are converted once per kind and feature sources built once per
    (kind, mode, N); pooling cells reuse them.  Row order is the
    deterministic loop order, independent of cfg.jobs.
    """
    seeds = trial_seeds(cfg.seed, cfg.n_trials)
    labels = np.array([rec.class_id for rec in recordings], dtype=np.int64)
    rows = []
    for kind in cfg.kinds:
        if kind == "frames":
            streams, cells = None, [("raw", 0)]
        else:
            streams = convert_all(recordings, kind, cfg, jobs=cfg.jobs)
            cells = [(mode, n_neurons) for mode in cfg.feature_modes
                     for n_neurons in ([0] if mode == "raw" else cfg.neuron_counts)]
        for mode, n_neurons in cells:
            base = pipeline_spec_from(cfg, kind, mode, n_neurons)
            groups = pipeline_sources(recordings, base, seeds, cfg.jobs, streams)
            for pool_size in cfg.pool_sizes:
                for method in cfg.pool_methods:
                    spec = replace(base, pool=PoolConfig(method=method, size=pool_size))
                    report = evaluate_sources(groups, labels, spec, n_classes, cfg.jobs)
                    for t in report.trials:
                        rows.append({"kind": kind, "feature_mode": mode,
                                     "n_neurons": n_neurons, "pool_size": pool_size,
                                     "pool_method": method, "trial": t.trial,
                                     "seed": t.seed,
                                     "per_frame_acc": t.per_frame_accuracy,
                                     "per_recording_acc": t.per_recording_accuracy})
    return rows


_SWEEP_COLUMNS = ["kind", "feature_mode", "n_neurons", "pool_size", "pool_method",
                  "trial", "seed", "per_frame_acc", "per_recording_acc"]


def write_sweep_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([row["kind"], row["feature_mode"], row["n_neurons"],
                             row["pool_size"], row["pool_method"], row["trial"], row["seed"],
                             f"{row['per_frame_acc']:.6f}", f"{row['per_recording_acc']:.6f}"])


def summarize_sweep(rows: list[dict]) -> list[dict]:
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row["kind"], row["feature_mode"], row["n_neurons"],
               row["pool_size"], row["pool_method"])
        groups.setdefault(key, []).append(row)
    summary = []
    for key, members in groups.items():
        pf = np.array([m["per_frame_acc"] for m in members])
        pr = np.array([m["per_recording_acc"] for m in members])
        summary.append({"kind": key[0], "feature_mode": key[1], "n_neurons": key[2],
                        "pool_size": key[3], "pool_method": key[4],
                        "per_frame_mean": float(pf.mean()), "per_frame_std": float(pf.std()),
                        "per_recording_mean": float(pr.mean()),
                        "per_recording_std": float(pr.std())})
    return summary


def write_summary_csv(summary: list[dict], path) -> None:
    cols = ["kind", "feature_mode", "n_neurons", "pool_size", "pool_method",
            "per_frame_mean", "per_frame_std", "per_recording_mean", "per_recording_std"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in summary:
            writer.writerow([row["kind"], row["feature_mode"], row["n_neurons"],
                             row["pool_size"], row["pool_method"],
                             f"{row['per_frame_mean']:.6f}", f"{row['per_frame_std']:.6f}",
                             f"{row['per_recording_mean']:.6f}", f"{row['per_recording_std']:.6f}"])


def write_sweep_charts(summary: list[dict], out: Path) -> None:
    kinds = sorted({row["kind"] for row in summary})
    for kind in kinds:
        series = []
        for mode in ("raw", "random", "trained"):
            for method in ("1d", "2d"):
                pts = sorted((row["pool_size"], row["per_frame_mean"]) for row in summary
                             if row["kind"] == kind and row["feature_mode"] == mode
                             and row["pool_method"] == method)
                if pts:
                    series.append((f"{mode}/{method}", [p[0] for p in pts], [p[1] for p in pts]))
        if series:
            write_line_chart(out / f"accuracy_vs_pool_{kind}.svg", series,
                             title=f"{kind}: per-frame accuracy vs pool size",
                             x_label="pool size", y_label="per-frame accuracy")


def cmd_sweep(args) -> int:
    cfg = resolve_config(args)
    recordings, n_classes = load_dataset(cfg)
    rows = sweep_rows(recordings, n_classes, cfg)
    summary = summarize_sweep(rows)
    with staged_output(args.out) as out:
        write_sweep_csv(rows, out / "sweep.csv")
        write_summary_csv(summary, out / "summary.csv")
        if args.svg:
            write_sweep_charts(summary, out)
        write_run_record(out, "sweep", cfg, {"n_rows": len(rows)})
    print(f"swept {len(summary)} cells ({len(rows)} rows) -> {args.out}")
    return 0


def cmd_demo_ratio(args) -> int:
    cfg = resolve_config(args)
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
    with staged_output(args.out) as out:
        (out / "ratio_demo.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        write_run_record(out, "demo-ratio", cfg)
    print(f"On/Off ratio accuracy {result.on_off_accuracy:.4f}  "
          f"Bi/Uni ratio accuracy {result.bi_uni_accuracy:.4f}")
    return 0


def cmd_datarate(args) -> int:
    cfg = resolve_config(args)
    recordings, _ = load_dataset(cfg)
    kinds = [k for k in cfg.kinds if k != "frames"]
    with staged_output(args.out) as out:
        with open(out / "datarate.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "recording_id", "frame_bytes", "event_bytes",
                             "fold_reduction"])
            means = {}
            for kind in kinds:
                streams = convert_all(recordings, kind, cfg, jobs=cfg.jobs)
                folds = []
                for rec, stream in zip(recordings, streams):
                    stats = datarate_stats(rec, stream)
                    folds.append(stats.fold_reduction)
                    writer.writerow([kind, rec.recording_id, stats.frame_bytes,
                                     stats.event_bytes, f"{stats.fold_reduction:.6f}"])
                means[kind] = float(np.mean(folds))
        (out / "summary.json").write_text(json.dumps(
            {"mean_fold_reduction": means}, indent=2, sort_keys=True) + "\n")
        write_run_record(out, "datarate", cfg)
    for kind, fold in means.items():
        print(f"{kind}: mean fold reduction {fold:.2f}")
    return 0


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
    overrides = {key: getattr(args, f"cfg_{key}") for key in config_field_names()
                 if getattr(args, f"cfg_{key}", None) is not None}
    return make_config(args.config, overrides)


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
    p.add_argument("--kind", required=True, choices=["firstand", "onoff", "oobu"])
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("train-features", help="train and binarize a feature set")
    add_common_flags(p)
    p.add_argument("--kind", required=True, choices=["firstand", "onoff", "oobu"])
    p.add_argument("--neurons", type=int, default=PipelineSpec.n_neurons)
    p.add_argument("--use-all", action="store_true",
                   help="train on every recording instead of the first trial split")
    p.set_defaults(func=cmd_train_features)

    p = sub.add_parser("evaluate", help="evaluate one pipeline configuration")
    add_common_flags(p)
    p.add_argument("--kind", required=True, choices=["frames", "firstand", "onoff", "oobu"])
    p.add_argument("--feature-mode", default=PipelineSpec.feature_mode,
                   choices=["raw", "random", "trained"])
    p.add_argument("--neurons", type=int, default=PipelineSpec.n_neurons)
    p.add_argument("--pool-size", type=int, default=PoolConfig.size)
    p.add_argument("--pool-method", default=PoolConfig.method, choices=["1d", "2d"])
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
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
