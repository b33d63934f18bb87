"""Experiment configuration: one JSON file, full defaults, field-level errors.

This is the only module that opens a config file. The only required key is
the top-level seed; everything else defaults. The sub-seeds for scenario,
network, and trainer derive from the top seed unless set explicitly.
`load_config` applies scalar overrides from environment variables with the
SKIPALIGN_ prefix and double-underscore paths, e.g. SKIPALIGN_TRAIN__LR0=0.02
or SKIPALIGN_TRAIN__HEAD__LAMBDA_SNA=0.05, unless use_env is False.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass

from .heads import HeadWeights
from .net import NetSpec
from .sna import SnaWeights
from .synthdata import ScenarioSpec
from .trainer import TrainConfig

ENV_PREFIX = "SKIPALIGN_"


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    scenario: ScenarioSpec
    net: NetSpec
    train: TrainConfig

    def resolved_dict(self) -> dict:
        out = {
            "seed": self.seed,
            "scenario": dataclasses.asdict(self.scenario),
            "net": dataclasses.asdict(self.net),
            "train": dataclasses.asdict(self.train),
        }
        out["net"]["backbone_widths"] = list(self.net.backbone_widths)
        return out


def _has_default_type(value, default) -> bool:
    """Whether a JSON value fits a field with this default: an integer also fills
    a float field, a bool only a bool field, a list of integers a tuple field."""
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_has_default_type(v, 0) for v in value)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, (int, str)):
        return isinstance(value, type(default))
    return True  # a nested section, built and checked on its own


def _build_section(cls, data: dict, path: str):
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    for key, value in data.items():
        if key not in defaults:
            raise ConfigError(f"{path}.{key}", "unknown field")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{path}.{key}", "must be finite")
        if not _has_default_type(value, defaults[key]):
            raise ConfigError(f"{path}.{key}", f"wrong type {type(value).__name__} "
                                               f"(the default is {defaults[key]!r})")
        if key == "seed" and value < 0:
            raise ConfigError(f"{path}.seed", "must be non-negative")
    try:
        return cls(**data)
    except (TypeError, ValueError) as err:
        raise ConfigError(path, str(err)) from err


def _section(data: dict, key: str, path: str) -> dict:
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(path, "must be an object")
    return dict(value)


def _apply_env_overrides(data: dict, environ) -> dict:
    for name, raw in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        path = name[len(ENV_PREFIX):].lower().split("__")
        node = data
        for part in path[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(".".join(path), "environment override path is not a section")
        node[path[-1]] = _parse_scalar(raw)
    return data


def _parse_scalar(raw: str):
    lowered = raw.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def resolve_config(data: dict, seed_override: int | None = None,
                   environ=None) -> ExperimentConfig:
    """Validate a raw config dict and materialize every default."""
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    data = json.loads(json.dumps(data))  # deep copy, JSON types only
    if environ is not None:
        data = _apply_env_overrides(data, environ)

    known = {"seed", "scenario", "net", "train"}
    for key in data:
        if key not in known:
            raise ConfigError(key, "unknown field")

    if seed_override is not None:
        data["seed"] = int(seed_override)
        for section in ("scenario", "net", "train"):
            data.setdefault(section, {}).pop("seed", None)
    if "seed" not in data:
        raise ConfigError("seed", "missing required field")
    if not _has_default_type(data["seed"], 0) or data["seed"] < 0:
        raise ConfigError("seed", "must be a non-negative integer")
    seed = data["seed"]

    scenario_data = _section(data, "scenario", "scenario")
    scenario_data.setdefault("seed", seed)
    scenario = _build_section(ScenarioSpec, scenario_data, "scenario")
    if scenario.unlabeled_rows == 0:
        raise ConfigError("scenario.unlabeled_id_per_class", "with unlabeled_seen_per_cluster, "
                          "leaves the unlabeled pool that training needs empty")
    if scenario.test_id_per_class == 0:
        raise ConfigError("scenario.test_id_per_class",
                          "must be >= 1: evaluation needs in-distribution test rows")

    net_data = _section(data, "net", "net")
    net_data.setdefault("seed", seed + 1)
    net_data.setdefault("input_dim", scenario.input_dim)
    net_data.setdefault("num_classes", scenario.num_classes)
    net = _build_section(NetSpec, net_data, "net")
    if net.input_dim != scenario.input_dim:
        raise ConfigError("net.input_dim", "must match scenario.input_dim")
    if net.num_classes != scenario.num_classes:
        raise ConfigError("net.num_classes", "must match scenario.num_classes")

    train_data = _section(data, "train", "train")
    train_data.setdefault("seed", seed + 2)
    for name, cls in (("head", HeadWeights), ("sna", SnaWeights)):
        if name in train_data:
            path = f"train.{name}"
            train_data[name] = _build_section(cls, _section(train_data, name, path), path)
    train = _build_section(TrainConfig, train_data, "train")
    return ExperimentConfig(seed=seed, scenario=scenario, net=net, train=train)


def read_raw(path):
    """The raw JSON of a config file or of a run manifest (its 'config' key)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError("<file>", f"invalid JSON in {path}: {err}") from err
    if isinstance(data, dict) and "config" in data:
        data = data["config"]  # run manifests embed the resolved config
    return data


def load_config(path, seed_override: int | None = None,
                use_env: bool = True) -> ExperimentConfig:
    """Resolve a config file or run manifest; SKIPALIGN_* overrides apply if use_env."""
    return resolve_config(read_raw(path), seed_override=seed_override,
                          environ=os.environ if use_env else None)


def default_config(seed: int = 0) -> ExperimentConfig:
    return resolve_config({"seed": seed})


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(cfg.resolved_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()
