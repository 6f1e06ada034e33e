"""Experiment configuration: INI files with one [experiment] section for the
common keys and one section named after the experiment for its parameters.

Unknown sections, unknown keys, duplicate keys, and type mismatches are all
rejected with the offending key path in the message.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, get_type_hints

import numpy as np

from .capacity import RuralConfig, ul_mrc_sinr
from .channel import FOCUSING_TERMINALS
from .errors import ConfigError
from .numerics import BLOCK_ENTRIES

EXPERIMENTS = (
    "focusing-map",
    "svd-spread",
    "mrt-sumrate",
    "ee-se-tradeoff",
    "pilot-contamination",
    "rural-broadband",
)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _parse_finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {text.strip()!r}")
    return value


def _parse_positive_float(text: str) -> float:
    value = _parse_finite_float(text)
    if value <= 0.0:
        raise ValueError(f"must be a finite number > 0, got {text.strip()!r}")
    return value


def _parse_db(text: str) -> float:
    """A level in dB whose linear value 10^(x/10) is a float in (0, 1e300]:
    from about 3,063 dB the runs' own products of it overflow."""
    value = _parse_finite_float(text)
    try:
        linear = 10.0 ** (value / 10.0)
    except OverflowError:
        linear = math.inf
    if not 0.0 < linear <= 1e300:
        raise ValueError(f"must be a dB level of at most 3000 dB whose linear value is > 0, got {text.strip()!r}")
    return value


def _list_of(parse: Callable[[str], Any]) -> Callable[[str], list]:
    """Parser of a non-empty comma-separated list whose entries each pass `parse`."""

    def parse_list(text: str) -> list:
        values = [parse(tok) for tok in text.split(",") if tok.strip()]
        if not values:
            raise ValueError("list must not be empty")
        return values

    return parse_list


def _parse_scheme(text: str) -> str:
    if text not in ("mrt", "zf", "both"):
        raise ValueError(f"must be mrt, zf, or both, got {text!r}")
    return text


@dataclass(frozen=True)
class Option:
    parse: Callable[[str], Any]
    default: Any


def _dataclass_schema(cls) -> dict[str, Option]:
    """One option per field of `cls`, parsed by its int, float or bool type;
    floats must be finite."""
    parsers, hints = {int: int, float: _parse_finite_float, bool: _parse_bool}, get_type_hints(cls)
    return {f.name: Option(parsers[hints[f.name]], f.default) for f in fields(cls)}


# Per-experiment parameter schemas; the defaults are the same at desk and
# paper scale, which differ only in trial counts.
SCHEMAS: dict[str, dict[str, Option]] = {
    "svd-spread": {
        "m_list": Option(_list_of(_parse_positive_int), [4, 32, 128]),
        "k": Option(_parse_positive_int, 4),
    },
    "mrt-sumrate": {
        "m_list": Option(_list_of(_parse_positive_int), [4, 8, 16, 32, 64, 128]),
        "k": Option(_parse_positive_int, 4),
        "target_snr_db": Option(_parse_db, 10.0),
    },
    "focusing-map": {
        "m": Option(_parse_positive_int, 64),
        "n_scatterers": Option(_parse_positive_int, 400),
        "scheme": Option(_parse_scheme, "both"),
        "region_side_lambda": Option(_parse_positive_float, 800.0),
        "bs_distance_lambda": Option(_parse_positive_float, 1600.0),
        "antenna_spacing_lambda": Option(_parse_positive_float, 4.0),
        "other_user_offset_lambda": Option(_parse_positive_float, 40.0),
        "grid_extent_lambda": Option(_parse_positive_float, 400.0),
        "grid_points": Option(_parse_positive_int, 41),
    },
    "ee-se-tradeoff": {
        "rho_min_db": Option(_parse_db, -30.0),
        "rho_max_db": Option(_parse_db, 20.0),
        "rho_points": Option(_parse_positive_int, 201),
        "coherence_symbols": Option(_parse_positive_int, 196),
        "m_massive": Option(_parse_positive_int, 100),
        "k_massive": Option(_parse_positive_int, 40),
        "m_beamforming": Option(_parse_positive_int, 100),
    },
    "pilot-contamination": {
        "m_list": Option(_list_of(_parse_positive_int), [16, 64, 256, 1024]),
        "m_limit": Option(_parse_positive_int, 10_000),
        "beta_home": Option(_parse_positive_float, 1.0),
        "betas_contaminating": Option(_list_of(_parse_positive_float), [1.0]),
        "rho_pilot": Option(_parse_positive_float, 1.0),
        "tau": Option(_parse_positive_int, 16),
    },
    "rural-broadband": _dataclass_schema(RuralConfig),
}

# (desk-scale default, paper-scale) trial counts per experiment.
TRIAL_DEFAULTS: dict[str, tuple[int, int]] = {
    "svd-spread": (2000, 10_000),
    "mrt-sumrate": (2000, 10_000),
    "focusing-map": (100, 10_000),
    "ee-se-tradeoff": (1, 1),
    "pilot-contamination": (200, 1000),
    "rural-broadband": (50, 500),
}

_COMMON_KEYS = ("experiment", "seed", "trials", "output_dir", "workers")

# Experiments whose i.i.d. trials are Bartlett factors drawn in blocks of
# BLOCK_ENTRIES entries (`numerics.bartlett_blocks`).
BLOCK_DRAWN = ("svd-spread", "mrt-sumrate", "pilot-contamination")


def _check_sweep_top(params: dict[str, Any]) -> None:
    """Reject an ee-se-tradeoff sweep whose largest level cannot give finite
    outputs: rho x M overflows the closed forms, or the one-antenna
    reference's rate is 0 at every level, so each relative column is 0/0."""
    if params["coherence_symbols"] == 1:
        raise ConfigError(
            "key 'ee-se-tradeoff.coherence_symbols': must be >= 2, since the one-antenna reference's "
            "pilot of one symbol leaves no payload in a coherence interval of 1"
        )
    # The grid's largest level: np.linspace ends on rho_max_db, but one point is rho_min_db alone.
    points, low, high = params["rho_points"], params["rho_min_db"], params["rho_max_db"]
    key = "rho_max_db" if points > 1 and high >= low else "rho_min_db"
    level = params[key]
    rho = 10.0 ** (np.array([level]) / 10.0)  # as `experiments._run_ee_se` forms the grid
    antennas = max(params["m_massive"], params["m_beamforming"])
    if not math.isfinite(float(rho[0]) * antennas):
        raise ConfigError(
            f"key 'ee-se-tradeoff.{key}': the largest level, {level} dB, times {antennas} antennas "
            f"overflows a float"
        )
    if np.log2(1.0 + ul_mrc_sinr(1, rho, np.ones(1), rho, 1))[0] == 0.0:
        raise ConfigError(
            f"key 'ee-se-tradeoff.{key}': the largest level, {level} dB, leaves the one-antenna "
            f"reference a rate of 0 at every level (it needs more than about -79.77 dB)"
        )


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
        elif self.experiment in BLOCK_DRAWN:
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
        raise ConfigError(f"malformed config: {exc}") from exc

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

    def common_int(key: str, fallback: int) -> int:
        if key not in common:
            return fallback
        try:
            return int(common[key])
        except ValueError as exc:
            raise ConfigError(f"key 'experiment.{key}': {exc}") from exc

    desk_trials, paper_trials = TRIAL_DEFAULTS[name]
    file_trials = common_int("trials", paper_trials if paper_scale else desk_trials)

    schema = SCHEMAS[name]
    params: dict[str, Any] = {key: option.default for key, option in schema.items()}

    for section in parser.sections():
        if section == "experiment":
            continue
        if section != name:
            raise ConfigError(f"unknown section [{section}] for experiment {name!r}")
        for key, raw in parser[section].items():
            if key not in schema:
                raise ConfigError(f"unknown key '{section}.{key}'")
            try:
                params[key] = schema[key].parse(raw)
            except ValueError as exc:
                raise ConfigError(f"key '{section}.{key}': {exc}") from exc

    if name == "focusing-map" and params["scheme"] != "mrt" and params["m"] < FOCUSING_TERMINALS:
        raise ConfigError(
            f"key 'focusing-map.m': zero-forcing (scheme = {params['scheme']}) needs m >= "
            f"{FOCUSING_TERMINALS}, the scene's terminal count, got {params['m']}"
        )
    if name == "ee-se-tradeoff":
        k, m, coherence = params["k_massive"], params["m_massive"], params["coherence_symbols"]
        if k >= m:
            raise ConfigError(
                f"key 'ee-se-tradeoff.k_massive': zero-forcing needs k_massive < m_massive = {m}, got {k}"
            )
        if k > coherence:
            raise ConfigError(
                f"key 'ee-se-tradeoff.k_massive': pilots of length k_massive must fit in "
                f"coherence_symbols = {coherence}, got {k}"
            )
        _check_sweep_top(params)
    if name == "rural-broadband":
        RuralConfig(**params)  # the scenario's own checks: pinned values, pilot power
    if name == "pilot-contamination" and len(set(params["m_list"])) < 2:
        raise ConfigError(
            f"key 'pilot-contamination.m_list': the log-log slope fit needs at least two distinct "
            f"antenna counts, got {params['m_list']}"
        )
    if channels_path is not None and name not in ("svd-spread", "mrt-sumrate"):
        raise ConfigError(f"measured channels are only supported for svd-spread and mrt-sumrate, not {name!r}")

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
    if config.trials < 1:
        raise ConfigError("trials must be >= 1")
    if config.workers < 1:
        raise ConfigError("workers must be >= 1")
    if not 0 <= config.seed < 2**64:
        raise ConfigError("seed must be in [0, 2**64)")
    return config
