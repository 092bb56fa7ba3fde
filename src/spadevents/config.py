"""Flat key=value experiment configuration with CLI flag overrides.

The config file is plain text, one ``key = value`` per line, ``#`` comments,
list values comma-separated.  Every key doubles as a command-line flag of
the same name (underscores become dashes), so a run is fully described by
one diffable file plus any overrides, both of which are captured in the
run record.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, field
from pathlib import Path

from .classify import POOL_METHODS
from .dataio import SynthConfig
from .pipeline import FEATURE_MODES, KINDS, PipelineParams


@dataclass
class ExperimentConfig(PipelineParams):
    """Dataset, sweep axes and run settings on top of the per-cell
    PipelineParams (conversion, feature layer and readout keys)."""

    # dataset source: a manifest path, or synthetic generation when empty
    manifest: str = ""
    n_classes: int = 0                 # 0 = derive from the manifest/synth config
    synth_classes: int = SynthConfig.n_classes
    synth_recordings_per_class: int = SynthConfig.recordings_per_class
    synth_frames: int = SynthConfig.frames_per_recording
    synth_grid: int = SynthConfig.grid_width
    synth_speed: float = SynthConfig.target_speed
    synth_target_depth: int = SynthConfig.target_depth_code
    synth_distractor_depth: int = SynthConfig.distractor_depth_code
    synth_p_false_positive: float = SynthConfig.p_false_positive
    synth_p_false_negative: float = SynthConfig.p_false_negative
    synth_jitter_sigma: float = SynthConfig.timing_jitter_sigma
    augment: bool = False              # x8 mirror/rotation expansion after load/synth

    # sweep axes ("frames" is the frame-based baseline, raw mode only)
    kinds: list = field(default_factory=lambda: list(KINDS))
    feature_modes: list = field(default_factory=lambda: list(FEATURE_MODES))
    neuron_counts: list = field(default_factory=lambda: [1, 2, 3, 4, 9, 16])
    pool_sizes: list = field(default_factory=lambda: [1, 2, 3, 4, 6, 8, 12, 16, 24])
    pool_methods: list = field(default_factory=lambda: list(POOL_METHODS))

    # classification
    n_trials: int = 5

    jobs: int = 1


_LIST_ELEMENT_TYPES = {
    "kinds": str,
    "feature_modes": str,
    "pool_methods": str,
    "neuron_counts": int,
    "pool_sizes": int,
}
# the value set of each string axis; the integer axes (N, L) take values >= 1
_AXIS_CHOICES = {"kinds": KINDS, "feature_modes": FEATURE_MODES, "pool_methods": POOL_METHODS}

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _parse_value(name: str, kind: type, text: str):
    text = text.strip()
    if kind is bool:
        low = text.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ValueError(f"{name}: expected a boolean, got {text!r}")
    if kind is int:
        return int(text)
    if kind is float:
        return float(text)
    if kind is list:
        element = _LIST_ELEMENT_TYPES[name]
        items = [part.strip() for part in text.split(",") if part.strip()]
        return [element(item) for item in items]
    return text


def parse_kv_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines; later keys override earlier ones."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def make_config(config_path: str | Path | None = None,
                overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Defaults, then config file values, then override strings."""
    merged: dict[str, str] = {}
    if config_path:
        merged.update(parse_kv_text(Path(config_path).read_text(), source=str(config_path)))
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})

    cfg = ExperimentConfig()
    by_name = {f.name: f for f in fields(ExperimentConfig)}
    for key, text in merged.items():
        if key not in by_name:
            raise ValueError(f"unknown config key {key!r}")
        current = getattr(cfg, key)
        kind = type(current)
        setattr(cfg, key, _parse_value(key, kind, str(text)))
    if cfg.n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {cfg.n_trials}")
    for key in _LIST_ELEMENT_TYPES:   # the sweep axes: one cell per value combination
        values = getattr(cfg, key)
        listed = ",".join(map(str, values))
        if not values or len(set(values)) != len(values):
            raise ValueError(f"{key} must list one or more distinct values, got {listed!r}")
        choices = _AXIS_CHOICES.get(key)
        if choices is not None and not set(values) <= set(choices):
            raise ValueError(f"{key} must be drawn from {','.join(choices)}, got {listed}")
        if choices is None and min(values) < 1:
            raise ValueError(f"{key} must be at least 1, got {listed}")
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = {}
    for f in fields(ExperimentConfig):
        out[f.name] = getattr(cfg, f.name)
    return out


def config_to_text(cfg: ExperimentConfig) -> str:
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def config_field_names() -> list[str]:
    return [f.name for f in fields(ExperimentConfig)]
