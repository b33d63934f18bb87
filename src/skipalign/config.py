"""Experiment configuration: one JSON file, full defaults, field-level errors.

This is the only module that opens a config file. The only required key is
the top-level seed; everything else defaults, except the values in DERIVED,
which no file sets: the scenario, network and trainer seeds are seed, seed+1
and seed+2, and the network takes the scenario's input and class counts. A
run's settings come from its file alone, plus the `--seed` flag: every verb
reads a file the same way.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass

from .heads import HeadWeights
from .net import NetSpec
from .sna import SnaWeights
from .synthdata import ScenarioSpec
from .trainer import TrainConfig


# Each section's values that derive from another value, not from the file.
DERIVED = {"scenario": ("seed",), "net": ("seed", "input_dim", "num_classes"), "train": ("seed",)}


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
        """The settable values, which resolve back to this config."""
        out = {"seed": self.seed}
        for name, derived in DERIVED.items():
            section = dataclasses.asdict(getattr(self, name))
            out[name] = {key: value for key, value in section.items() if key not in derived}
        return out


def _has_default_type(value, default) -> bool:
    """Whether a JSON value fits a field with this default: an integer also fills
    a float field, a list of integers a tuple field, and a bool no field."""
    if isinstance(value, bool):
        return False
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_has_default_type(v, 0) for v in value)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, int):
        return isinstance(value, int)
    return True  # a nested section, built and checked on its own


def _range_error(value, default) -> str | None:
    """Why a value of the default's type does not fit numpy, or None."""
    if isinstance(default, float) and not abs(value) <= sys.float_info.max:  # NaN too
        return "must be finite as a float64"
    ints = value if isinstance(default, tuple) else [value] if isinstance(default, int) else []
    if any(abs(v) > sys.maxsize for v in ints):  # sys.maxsize is np.intp's largest value
        return f"must lie in [-{sys.maxsize}, {sys.maxsize}]"
    return None


def _build_section(cls, data: dict, path: str, **derived):
    """The section from a file's data and the values DERIVED names for it."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)
                if f.name not in DERIVED.get(path, ())}
    for key, value in data.items():
        if key not in defaults:
            raise ConfigError(f"{path}.{key}", "unknown field")
        if not _has_default_type(value, defaults[key]):
            raise ConfigError(f"{path}.{key}", f"wrong type {type(value).__name__} "
                                               f"(the default is {defaults[key]!r})")
        if error := _range_error(value, defaults[key]):
            raise ConfigError(f"{path}.{key}", error)
    try:
        return cls(**data, **derived)
    except (TypeError, ValueError) as err:
        raise ConfigError(path, str(err)) from err


def _section(data: dict, key: str, path: str) -> dict:
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(path, "must be an object")
    return dict(value)


def resolve_config(data: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a raw config dict and materialize every default."""
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    data = json.loads(json.dumps(data))  # deep copy, JSON types only

    if unknown := [key for key in data if key not in ("seed", *DERIVED)]:
        raise ConfigError(unknown[0], "unknown field")

    if seed_override is not None:
        data["seed"] = int(seed_override)
    if "seed" not in data:
        raise ConfigError("seed", "missing required field")
    # numpy's SeedSequence hashes a seed into 128 bits, so a wider one names no new run.
    if not _has_default_type(data["seed"], 0) or not 0 <= data["seed"] < 2**128:
        raise ConfigError("seed", "must be an integer in [0, 2**128)")
    seed = data["seed"]

    scenario = _build_section(ScenarioSpec, _section(data, "scenario", "scenario"), "scenario",
                              seed=seed)
    if scenario.unlabeled_rows == 0:
        raise ConfigError("scenario.unlabeled_id_per_class", "with unlabeled_seen_per_cluster, "
                          "leaves the unlabeled pool that training needs empty")
    if scenario.test_id_per_class == 0:
        raise ConfigError("scenario.test_id_per_class",
                          "must be >= 1: evaluation needs in-distribution test rows")

    net = _build_section(NetSpec, _section(data, "net", "net"), "net", seed=seed + 1,
                         input_dim=scenario.input_dim, num_classes=scenario.num_classes)

    train_data = _section(data, "train", "train")
    for name, cls in (("head", HeadWeights), ("sna", SnaWeights)):
        if name in train_data:
            path = f"train.{name}"
            train_data[name] = _build_section(cls, _section(train_data, name, path), path)
    train = _build_section(TrainConfig, train_data, "train", seed=seed + 2)
    return ExperimentConfig(seed=seed, scenario=scenario, net=net, train=train)


def read_json(path):
    """A JSON file's data; bytes that are not JSON, or not UTF-8, raise ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as err:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError("<file>", f"invalid JSON in {path}: {err}") from err


def read_raw(path):
    """The raw JSON of a config file or of a run manifest (its 'config' key)."""
    data = read_json(path)
    return data["config"] if isinstance(data, dict) and "config" in data else data


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    """Resolve a config file or run manifest."""
    return resolve_config(read_raw(path), seed_override=seed_override)


def default_config(seed: int = 0) -> ExperimentConfig:
    return resolve_config({"seed": seed})


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(cfg.resolved_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()
