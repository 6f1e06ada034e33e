"""Experiment configuration: INI files with one [experiment] section for the
common keys and one section named after the experiment for its parameters.

An experiment's keys, default trial counts and cross-key check come from its
record in `experiments.EXPERIMENTS`. Unknown sections, unknown keys,
duplicate keys, and type mismatches are all rejected with the offending key
path in the message.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .errors import ConfigError
from .experiments import EXPERIMENTS, MAX_COUNT
from .numerics import BLOCK_ENTRIES

_COMMON_KEYS = ("experiment", "seed", "trials", "output_dir", "workers")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run description (every default made explicit)."""

    experiment: str
    seed: int
    trials: int
    output_dir: str
    workers: int
    params: dict[str, Any]
    paper_scale: bool = False
    channels_path: str | None = None

    def resolved(self) -> dict[str, Any]:
        # workers is deliberately absent: trial results are pure functions of
        # their sub-seed, so the worker count cannot change any output.
        out = {
            "experiment": self.experiment,
            "seed": self.seed,
            "trials": self.trials,
            "output_dir": self.output_dir,
            "paper_scale": self.paper_scale,
            "params": dict(sorted(self.params.items())),
        }
        if self.channels_path is not None:
            out["channels_path"] = self.channels_path
        elif EXPERIMENTS[self.experiment].block_drawn:
            # Part of the stream definition, so part of what the hash describes.
            out["block_entries"] = BLOCK_ENTRIES
        return out

    def config_hash(self) -> str:
        # output_dir names where results go, not what is computed; likewise the
        # measured file's content, not its path, decides every output.
        described = {k: v for k, v in self.resolved().items() if k not in ("output_dir", "channels_path")}
        if self.channels_path is not None:
            with open(self.channels_path, "rb") as fh:
                described["channels_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        canonical = json.dumps(described, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def parse_config(
    path,
    *,
    seed: int | None = None,
    trials: int | None = None,
    output_dir: str | None = None,
    workers: int | None = None,
    paper_scale: bool = False,
    channels_path: str | None = None,
) -> ExperimentConfig:
    """Read and validate an experiment file; keyword arguments override it."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8: {exc}") from exc
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(f"duplicate key '{exc.section}.{exc.option}'") from exc
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(f"duplicate section '{exc.section}'") from exc
    except configparser.Error as exc:
        # One line, though configparser gives each parsing error a line of its own.
        raise ConfigError(f"malformed config: {' '.join(str(exc).split())}") from exc

    if "experiment" not in parser:
        raise ConfigError("missing required section [experiment]")
    common = parser["experiment"]
    for key in common:
        if key not in _COMMON_KEYS:
            raise ConfigError(f"unknown key 'experiment.{key}'")
    if "experiment" not in common:
        raise ConfigError("missing required key 'experiment.experiment'")
    name = common["experiment"].strip()
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; expected one of {', '.join(EXPERIMENTS)}")
    spec = EXPERIMENTS[name]

    def common_int(key: str, fallback: int) -> int:
        if key not in common:
            return fallback
        try:
            return int(common[key])
        except ValueError as exc:
            raise ConfigError(f"key 'experiment.{key}': {exc}") from exc

    file_trials = common_int("trials", spec.trials[paper_scale])

    params: dict[str, Any] = {key: option.default for key, option in spec.schema.items()}

    for section in parser.sections():
        if section == "experiment":
            continue
        if section != name:
            raise ConfigError(f"unknown section [{section}] for experiment {name!r}")
        for key, raw in parser[section].items():
            if key not in spec.schema:
                raise ConfigError(f"unknown key '{section}.{key}'")
            try:
                params[key] = spec.schema[key].parse(raw)
            except ValueError as exc:
                raise ConfigError(f"key '{section}.{key}': {exc}") from exc

    spec.check(**params)
    if channels_path is not None and not spec.measured:
        measured = " and ".join(n for n, e in EXPERIMENTS.items() if e.measured)
        raise ConfigError(f"measured channels are only supported for {measured}, not {name!r}")

    config = ExperimentConfig(
        experiment=name,
        seed=seed if seed is not None else common_int("seed", 0),
        trials=trials if trials is not None else file_trials,
        output_dir=output_dir if output_dir is not None else common.get("output_dir", "out"),
        workers=workers if workers is not None else common_int("workers", 1),
        paper_scale=paper_scale,
        params=params,
        channels_path=channels_path,
    )
    if not config.output_dir:
        raise ConfigError("key 'experiment.output_dir': must name a directory, got an empty path")
    out = Path(config.output_dir)
    # The nearest existing path of the output directory must be a directory.
    existing = next((p for p in (out, *out.parents) if os.path.exists(p)), None)
    if existing is not None and not os.path.isdir(existing):
        raise ConfigError(f"key 'experiment.output_dir': {str(existing)!r} exists and is not a directory")
    if not 1 <= config.trials <= MAX_COUNT:
        raise ConfigError("trials must be >= 1 and at most 2**53")
    if not 1 <= config.workers <= MAX_COUNT:
        raise ConfigError("workers must be >= 1 and at most 2**53")
    if not 0 <= config.seed < 2**64:
        raise ConfigError("seed must be in [0, 2**64)")
    return config
