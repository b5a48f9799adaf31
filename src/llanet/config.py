"""Run configuration: a JSON document validated against a strict schema.

Unknown keys are rejected (catching typos like "weight_dacay"), so are NaN
and infinite numbers, which Python's ``json`` reads; missing keys take the
documented defaults, and the fully resolved document is echoed into
the output directory so every run is self-describing. The ``LLA_SEED``
environment variable overrides the configured seed.
"""

from __future__ import annotations

import copy
import inspect
import json
import math
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import jsonschema

from .data import atomic_open
from .network import ATTENTION_MODES, NetworkConfig, PRESET_NAMES, preset
from .training import AugmentConfig, Normalization, TrainConfig

SEED_ENV_VAR = "LLA_SEED"

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "network": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "preset": {"enum": list(PRESET_NAMES)},
                "attention": {"enum": list(ATTENTION_MODES)},
                "attention_kernel": {"type": "integer", "minimum": 1},
                "num_classes": {"type": "integer", "minimum": 2},
                "input_channels": {"enum": [1, 3]},
            },
        },
        "train": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "base_lr": {"type": "number", "exclusiveMinimum": 0},
                "momentum": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                "weight_decay": {"type": "number", "minimum": 0},
                "batch_size": {"type": "integer", "minimum": 1},
                "decay_start_epoch": {"type": "integer", "minimum": 0},
                "decay_rate": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "max_epochs": {"type": "integer", "minimum": 1},
                "decay_exempt_norm_bias": {"type": "boolean"},
            },
        },
        "data": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "train_manifest": {"type": "string", "minLength": 1},
                "val_manifest": {"type": "string", "minLength": 1},
                "mean": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "std": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "augment": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "enabled": {"type": "boolean"},
                        "pad": {"type": "integer", "minimum": 0},
                    },
                },
                "eval_crop": {"type": "integer", "minimum": 1},
                "tencrop_val": {"type": "boolean"},
            },
        },
    },
}

DEFAULTS = {
    "seed": 0,
    # the keyword defaults of preset(); the top-level seed feeds its seed
    "network": {"preset": "tiny", **{name: p.default for name, p in
                                     inspect.signature(preset).parameters.items()
                                     if p.kind is p.KEYWORD_ONLY and name != "seed"}},
    # the top-level seed (or LLA_SEED) feeds TrainConfig.seed
    "train": {f.name: f.default for f in fields(TrainConfig) if f.name != "seed"},
    "data": {
        # train_manifest / val_manifest / eval_crop stay absent unless given
        "mean": [0.5, 0.5, 0.5],
        "std": [0.5, 0.5, 0.5],
        "augment": asdict(AugmentConfig()),
        "tencrop_val": False,
    },
}


class ConfigError(ValueError):
    """Invalid run configuration; ``errors`` holds JSON-pointer diagnostics."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class RunConfig:
    seed: int
    network: NetworkConfig
    train: TrainConfig
    norm: Normalization
    augment: AugmentConfig
    train_manifest: str | None
    val_manifest: str | None
    eval_crop: int | None
    tencrop_val: bool
    resolved: dict  # the merged document, for echo-back
    base_dir: Path  # manifest paths resolve relative to this


def _pointer(path) -> str:
    return "/" + "/".join(str(p) for p in path) if path else "/"


def _non_finite(node, path=()):
    """A diagnostic for every NaN or infinite number in a JSON document."""
    if isinstance(node, float) and not math.isfinite(node):
        yield f"{_pointer(path)}: {json.dumps(node)} is not a finite number"
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _non_finite(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _non_finite(value, (*path, i))


def _merge_defaults(doc: dict, defaults: dict) -> dict:
    out = copy.deepcopy(defaults)
    for key, value in doc.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge_defaults(value, out[key])
        else:
            out[key] = value
    return out


def load_run_config(source, base_dir=None, env=None) -> RunConfig:
    """Build a RunConfig from a JSON file path or an already-parsed dict.

    ``base_dir`` anchors relative manifest paths; it defaults to the config
    file's directory (or the CWD for dict input).
    """
    env = os.environ if env is None else env
    if isinstance(source, (str, Path)):
        base = Path(base_dir) if base_dir is not None else Path(source).resolve().parent
        try:
            doc = json.loads(Path(source).read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise ConfigError([f"/: not valid JSON ({e})"]) from None
    else:
        base = Path(base_dir) if base_dir is not None else Path.cwd()
        doc = source
    if not isinstance(doc, dict):
        raise ConfigError(["/: top level must be a JSON object"])
    problems = list(_non_finite(doc))
    if problems:
        raise ConfigError(problems)

    validator = jsonschema.Draft202012Validator(SCHEMA)
    problems = [f"{_pointer(e.absolute_path)}: {e.message}"
                for e in sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))]
    if problems:
        raise ConfigError(problems)

    merged = _merge_defaults(doc, DEFAULTS)

    seed = merged["seed"]
    if SEED_ENV_VAR in env:
        text = env[SEED_ENV_VAR].strip()
        if not text.isdecimal():  # a non-negative integer, as the schema asks of /seed
            raise ConfigError([f"/seed: {SEED_ENV_VAR} must be a non-negative integer, "
                               f"got {env[SEED_ENV_VAR]!r}"])
        seed = merged["seed"] = int(text)

    rest = dict(merged["network"])
    try:
        net_cfg = preset(rest.pop("preset"), seed=seed, **rest)
    except ValueError as e:
        raise ConfigError([f"/network: {e}"]) from None

    try:
        train_cfg = TrainConfig(seed=seed, **merged["train"])
    except (TypeError, ValueError) as e:
        raise ConfigError([f"/train: {e}"]) from None

    data_sec = merged["data"]
    channels = net_cfg.input_shape[0]
    for key in ("mean", "std"):
        if len(data_sec[key]) != channels:
            raise ConfigError([f"/data/{key}: needs {channels} entries to match "
                               f"the network's input channels, got {len(data_sec[key])}"])
    if any(v == 0 for v in data_sec["std"]):
        raise ConfigError(["/data/std: entries must be nonzero"])

    return RunConfig(
        seed=seed,
        network=net_cfg,
        train=train_cfg,
        norm=Normalization(mean=tuple(data_sec["mean"]), std=tuple(data_sec["std"])),
        augment=AugmentConfig(enabled=data_sec["augment"]["enabled"],
                              pad=data_sec["augment"]["pad"]),
        train_manifest=data_sec.get("train_manifest"),
        val_manifest=data_sec.get("val_manifest"),
        eval_crop=data_sec.get("eval_crop"),
        tencrop_val=data_sec["tencrop_val"],
        resolved=merged,
        base_dir=base,
    )


def echo_config(cfg: RunConfig, out_dir) -> Path:
    """Write the fully resolved document next to the run's other artifacts.

    Manifest paths are absolutized so the echoed file works from anywhere
    (e.g. feeding ``eval`` straight from a training run's directory).
    """
    doc = copy.deepcopy(cfg.resolved)
    for key in ("train_manifest", "val_manifest"):
        if key in doc.get("data", {}):
            doc["data"][key] = str((cfg.base_dir / doc["data"][key]).resolve())
    path = Path(out_dir) / "config.json"
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
